"""One CPU budget for every process a run owns.

A run that fans compute out over child processes — ``process`` workers,
shard hosts — must divide the cores it may use among them.  Left alone,
each child inherits a full-width BLAS thread pool, so ``peers`` children
spin ``peers x cores`` threads on ``cores`` cores and every small
``np.dot`` pays for the wake-ups.  The policy lives here:

* :func:`usable_cores` — the cores this process may be scheduled on
  (affinity mask, so cpusets and ``taskset`` count; ``os.cpu_count()``
  does not see them).
* :func:`blas_share` — ``max(1, usable_cores() // peers)``, the thread
  count each of ``peers`` sibling compute processes gets.
* :func:`limit_blas_threads` — cap the BLAS pools loaded in *this*
  process at ``min(current, n)``.  It only ever lowers: an operator's
  ``OPENBLAS_NUM_THREADS`` (already applied when the library loaded)
  keeps winning.
* :func:`reserve_for_children` — the parent is a peer of the children it
  owns: while ``peers`` of them are alive its own pools are capped at
  what they leave, ``max(1, usable_cores() - peers * blas_share(peers))``
  (:func:`coordinator_share`), and the last :meth:`ChildrenHold.release`
  puts back the widths the first hold found.  Taken where the children
  are spawned, released where they are reaped; between the two the width
  only ever goes down (a second owner can lower it, nothing raises it),
  so every Gram dot of a run is taken at one width.

What thread counts do and do not change.  A GEMM is split over rows or
columns of the *output* and elementwise kernels over elements, so every
output scalar is still summed by one thread in the order the kernel
fixes for the operand shapes: training steps, blends and ``mean_state``
are the same bits at any width — the cross-backend bit-identity
contract rests on that.  A threaded level-1 *reduction* is not: OpenBLAS
splits a long ``np.dot`` over its threads and adds the partial sums, so
the float64 Gram dots (length P) differ in their last bits between one
and two threads (49 of 50 dots of length 583,626; relative <= 7e-14).
That has always been true of ``distributed`` storage, whose hosts dot
at their share against a full-width reference; CoModelSel's choice has
absorbed it on every seed tried, and ``tests/integration/
test_thread_invariance.py`` (``slow``) gates that a seeded fit ends in
the same pool at one thread and at the default.
"""

from __future__ import annotations

import ctypes
import os
import threading

__all__ = [
    "usable_cores", "blas_share", "coordinator_share", "blas_threads",
    "limit_blas_threads", "reserve_for_children", "ChildrenHold",
]

# (setter, getter) exports by BLAS flavour, most specific first: numpy's
# and scipy's wheels ship a symbol-prefixed OpenBLAS (ILP64 builds add
# the ``64_`` suffix), system OpenBLAS exports the plain names, MKL its
# own pair.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),
)
_LIBRARY_MARKERS = ("openblas", "mkl_rt")


def usable_cores() -> int:
    """Cores this process may run on (scheduler affinity where known)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # non-Linux
        return os.cpu_count() or 1


def blas_share(peers: int) -> int:
    """BLAS threads for each of ``peers`` sibling compute processes."""
    return max(1, usable_cores() // max(1, int(peers)))


def coordinator_share(peers: int) -> int:
    """BLAS threads left for the parent of ``peers`` compute children."""
    peers = max(0, int(peers))
    return max(1, usable_cores() - peers * blas_share(peers))


def _mapped_blas_paths() -> list[str]:
    """Shared objects mapped into this process that look like a BLAS."""
    paths: list[str] = []
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                fields = line.split(None, 5)
                if len(fields) < 6:
                    continue
                path = fields[5].rstrip("\n")
                name = os.path.basename(path)
                if (
                    name.startswith("lib")
                    and any(marker in name for marker in _LIBRARY_MARKERS)
                    and path not in paths
                ):
                    paths.append(path)
    except OSError:  # no procfs: nothing we can name
        pass
    return paths


def _controls() -> list[tuple]:
    """``(set, get)`` callables, one pair per BLAS pool in this process.

    Looked up on every call, not cached: a library imported later (or a
    forked child's view) must be seen, and a process asks once or twice.
    """
    pairs = []
    for path in _mapped_blas_paths():
        try:
            lib = ctypes.CDLL(path)  # already mapped: a handle, not a load
        except OSError:
            continue
        for setter, getter in _SYMBOLS:
            set_threads, get_threads = getattr(lib, setter, None), getattr(lib, getter, None)
            if set_threads is not None and get_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                pairs.append((set_threads, get_threads))
                break
    if pairs:
        return pairs
    # No procfs (or an unrecognised export set): threadpoolctl, when the
    # environment happens to have it, knows more platforms than we do.
    try:
        from threadpoolctl import ThreadpoolController
    except ImportError:
        return []
    return [
        (lib.set_num_threads, lib.get_num_threads)
        for lib in ThreadpoolController().lib_controllers
        if lib.user_api == "blas"
    ]


def blas_threads() -> int | None:
    """Widest BLAS pool loaded in this process; ``None`` if none is known."""
    return max((int(get()) for _set, get in _controls()), default=None)


def limit_blas_threads(n: int) -> int | None:
    """Cap every loaded BLAS pool at ``min(current, n)`` threads.

    Returns the resulting :func:`blas_threads` — ``None`` (and nothing
    done) when no known BLAS is loaded; never raises, never widens.
    """
    n = max(1, int(n))
    counts = []
    for set_threads, get in _controls():
        if int(get()) > n:
            set_threads(n)
        counts.append(int(get()))
    return max(counts, default=None)


# -- the parent's share while it owns children --------------------------------
# The width of a BLAS pool is per-process state, so the holds on it are too.
_HOLDS: "list[ChildrenHold]" = []
_INHERITED: list[tuple] = []  # (setter, width) per pool, as the first hold found them
_HOLDS_LOCK = threading.Lock()


def _restore_inherited() -> None:
    for set_threads, width in _INHERITED:
        set_threads(width)
    _INHERITED.clear()


class ChildrenHold:
    """One owner's claim on the parent's BLAS width (see :func:`reserve_for_children`)."""

    def release(self) -> None:
        """Give the claim back (idempotent); the last one out restores."""
        with _HOLDS_LOCK:
            if self in _HOLDS:
                _HOLDS.remove(self)
                if not _HOLDS:
                    _restore_inherited()


def reserve_for_children(peers: int) -> ChildrenHold:
    """Cap this process's BLAS pools at :func:`coordinator_share` while
    ``peers`` compute children live; ``release()`` the hold when they
    are reaped.  With several holds live the pools stay at the lowest
    share asked for until the last release, which restores exactly the
    widths found by the first — never more than the process inherited.
    No recognised BLAS: a no-op, as :func:`limit_blas_threads`.
    """
    hold = ChildrenHold()
    with _HOLDS_LOCK:
        if not _HOLDS:
            _INHERITED[:] = [(set_threads, int(get())) for set_threads, get in _controls()]
        _HOLDS.append(hold)
        limit_blas_threads(coordinator_share(peers))
    return hold


def _forget_holds_in_child() -> None:
    """A forked child owns none of its parent's children: it starts from
    the inherited widths, and its own share (a worker's, a host's — a
    failover respawn included) is cut from those, not from the parent's
    reduced pool."""
    global _HOLDS_LOCK
    _HOLDS_LOCK = threading.Lock()  # the parent's may have been held mid-fork
    _HOLDS.clear()
    _restore_inherited()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_holds_in_child)

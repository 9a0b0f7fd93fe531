"""The eager Gram schedule, kept as the test oracle.

This is ``GramTracker``'s maintenance loop as it shipped before the
reported-set tracker: every ``update_row`` re-casts its own row and
dots it against **all** K image rows (casting a row on first use), so
the matrix is complete after every call — K dots a landing, K² a
round.  The shipped tracker dots only against the rows reported so far
and completes the rest on read; ``tests/core/test_gram.py`` and
``tests/property/test_property_gram.py`` hold its Gram at every read to
this one with ``array_equal``.  Not used by ``src/``.
"""

from __future__ import annotations

import numpy as np


class EagerGram:
    """``update_row`` / ``gram`` / ``release`` / ``refresh`` of the old loop."""

    def __init__(self, pool, param_keys=None, gram=None) -> None:
        k = len(pool)
        self.pool = pool
        self.param_keys = set(param_keys) if param_keys is not None else None
        self.gram = (
            np.zeros((k, k)) if gram is None else np.array(gram, dtype=np.float64)
        )
        self.dots = 0
        self._image = None
        self._rows: list = []

    def _image_row(self, j, mask, recast=False):
        out = self._rows[j]
        if out is None or recast:
            if out is None:
                out = self._rows[j] = np.asarray(self._image.row(j))
            row = self.pool.storage.row(j)
            out[:] = row if mask is None else row[mask]
        return out

    def update_row(self, index: int) -> None:
        k = len(self.pool)
        mask, masked, p_eff = self.pool._mask_info(self.param_keys)
        mask = mask if masked else None
        if self._image is None:
            self._image = self.pool.storage.allocate_like((k, p_eff), np.float64)
            self._rows = [None] * k
        vi = self._image_row(index, mask, recast=True)
        dots = np.array([np.dot(vi, self._image_row(j, mask)) for j in range(k)])
        self.gram[index, :] = dots
        self.gram[:, index] = dots
        self.dots += k

    def release(self) -> None:
        self._image = None
        self._rows = []

    def refresh(self) -> None:
        for i in range(len(self.pool)):
            self.update_row(i)
        self.release()

"""Lints: a FedCross run's cold start stays numpy-only; legs and the server move rows."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


# Set-up is paid by every CLI call, benchmark run and forked worker: an
# eager ``import scipy`` (~0.25 s, ~30 MB) or the lazy ``numpy.ma`` behind
# ``np.median`` must fail here by name, not as a slower benchmark.
_COLD_START = """
import json, sys
import repro.cli
from repro.fl.config import FLConfig
from repro.fl.simulation import FLSimulation

FLSimulation(FLConfig(method="fedcross", rounds=1, aggregator="trimmed_mean", screen="carry")).run()
fedcross = [name for name in ("scipy", "numpy.ma") if name in sys.modules]
FLSimulation(FLConfig(method="clusamp", rounds=1)).run()
print(json.dumps({"fedcross": fedcross, "clusamp": "scipy.cluster.vq" in sys.modules}))
"""


@pytest.fixture(scope="module")
def cold_start_modules():
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", _COLD_START], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_cold_start_fedcross_round_loads_neither_scipy_nor_numpy_ma(cold_start_modules):
    assert cold_start_modules["fedcross"] == []


def test_cold_start_clusamp_round_loads_scipy_on_use(cold_start_modules):
    assert cold_start_modules["clusamp"]


def test_cold_start_src_calls_nothing_that_imports_numpy_ma():
    """The gate above runs one configuration; this holds every path.

    These numpy functions import ``numpy.ma`` on their first call (~16
    ms, wherever in a fit that lands).  ``src/`` uses
    ``repro.robust.operators._median`` and, for non-negative ids,
    ``np.flatnonzero(np.bincount(ids))`` instead.
    """
    lazy = re.compile(r"\bnp\.(unique|median|nanmedian|percentile|quantile|ma)\b")
    hits = [
        f"{path.relative_to(REPO_ROOT)}:{lineno}"
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if lazy.search(line.split("#")[0]) and "``" not in line
    ]
    assert hits == []


def _call_sites(path: Path, names) -> list[str]:
    """Qualified names of the functions calling any of ``names`` (as a
    function or a method)."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in names:
                    sites.append(".".join(scope))
            visit(child, inner)

    visit(ast.parse(path.read_text()), [])
    return sites


_CONVERSIONS = ("flatten", "flatten_into", "state_dict", "load_state_dict", "_check_roundtrip")


def test_execution_backends_convert_no_dispatched_model():
    """A leg is row in, row out: the trainer trains its model inside its
    own float32 row and ``run_leg`` lands it with one copy.  Neither the
    execution modules, nor the shard host, nor ``LocalTrainer.train``
    packs, loads or re-checks a model."""
    src = REPO_ROOT / "src" / "repro"
    sites = {
        rel: _call_sites(src / rel, _CONVERSIONS)
        for rel in ("fl/execution.py", "distributed/execution.py", "distributed/host.py")
    }
    assert sites == {
        "fl/execution.py": [],
        "distributed/execution.py": [],
        "distributed/host.py": [],
    }
    assert "LocalTrainer.train" not in _call_sites(src / "fl/trainer.py", _CONVERSIONS)


_SERVER_CONVERSIONS = (
    "state_dict", "load_state_dict", "flatten", "flatten_into", "unflatten", "tree_map",
    "_check_roundtrip",
)


def test_the_server_side_converts_models_at_its_boundary_only():
    """The server holds rows: the global row, the pool, the upload
    buffers and SCAFFOLD's variates.  In ``fl/server.py``,
    ``core/fedcross.py`` and ``baselines/*`` a model crosses between
    state dict and row only at the API boundary
    (``FederatedServer.global_state`` / ``set_global_state``) and in
    FedGen's generator (``dispatch``) and teacher pass."""
    src = REPO_ROOT / "src" / "repro"
    paths = [src / "fl/server.py", src / "core/fedcross.py", *sorted(src.glob("baselines/*.py"))]
    sites = sorted(
        {
            f"{path.relative_to(src).as_posix()}:{site}"
            for path in paths
            for site in _call_sites(path, _SERVER_CONVERSIONS)
        }
    )
    assert sites == [
        "baselines/fedgen.py:FedGenServer._teacher_logits",
        "baselines/fedgen.py:FedGenServer.dispatch",
        "fl/server.py:FederatedServer.global_state",
        "fl/server.py:FederatedServer.set_global_state",
    ]


def _src_files():
    src = REPO_ROOT / "src" / "repro"
    return {path.relative_to(src).as_posix(): path.read_text() for path in src.rglob("*.py")}


def test_hook_specs_have_no_shared_payload_transport():
    """A hook spec is plain data pickled with its leg on every backend:
    no spec declares round-shared fields and no shared-memory ref for
    them exists."""
    hits = sorted(
        rel
        for rel, text in _src_files().items()
        if "shared_fields" in text or "SharedStateRef" in text
    )
    assert hits == []


def test_only_the_server_writes_the_comm_ledger():
    """Communication has one emission site, ``charge_round_communication``:
    ``record_down`` / ``record_up`` are called from ``fl/server.py`` only."""
    callers = sorted(
        rel
        for rel, text in _src_files().items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("record_down", "record_up")
    )
    assert callers == ["fl/server.py", "fl/server.py"]


def test_execution_backends_and_hooks_keep_no_comm_books():
    """Backends run legs and hook specs describe them; neither sees a ledger."""
    files = _src_files()
    mentions = [
        rel
        for rel in ("fl/execution.py", "distributed/execution.py", "fl/hooks.py")
        if "ledger" in files[rel].lower()
    ]
    assert mentions == []


def test_no_executor_facade_between_server_and_backend():
    """The server holds its execution backend as ``server.executor``."""
    assert [rel for rel, text in _src_files().items() if "ClientExecutor" in text] == []

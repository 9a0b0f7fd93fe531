"""Lints: nn/optim stay on the dispatch layer; a FedCross run's cold start stays numpy-only; legs move rows."""

import ast
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_numpy_imports  # noqa: E402


def test_repo_is_clean():
    assert check_numpy_imports.check(REPO_ROOT / "src") == []


def test_allowlist_entries_exist():
    for rel in check_numpy_imports.ALLOWLIST:
        assert (REPO_ROOT / "src" / "repro" / rel).is_file(), rel


def _write_package(root: Path, body: str) -> Path:
    package = root / "repro" / "nn"
    package.mkdir(parents=True)
    (root / "repro" / "optim").mkdir()
    (package / "offender.py").write_text(textwrap.dedent(body))
    return root


def test_runtime_import_flagged(tmp_path):
    src = _write_package(
        tmp_path,
        """
        import numpy as np

        X = np.zeros(3)
        """,
    )
    violations = check_numpy_imports.check(src)
    assert len(violations) == 1
    assert violations[0].endswith("offender.py:2")


def test_type_checking_import_allowed(tmp_path):
    src = _write_package(
        tmp_path,
        """
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            import numpy as np

        def f(x: "np.ndarray") -> "np.ndarray":
            return x
        """,
    )
    assert check_numpy_imports.check(src) == []


def test_nested_and_from_imports_flagged(tmp_path):
    src = _write_package(
        tmp_path,
        """
        def lazy():
            from numpy import zeros

            return zeros(3)
        """,
    )
    violations = check_numpy_imports.check(src)
    assert len(violations) == 1


# Set-up is paid by every CLI call, benchmark run and forked worker: an
# eager ``import scipy`` (~0.25 s, ~30 MB) or the lazy ``numpy.ma`` behind
# ``np.median`` must fail here by name, not as a slower benchmark.
_COLD_START = """
import json, sys
import repro.cli
from repro.fl.config import FLConfig
from repro.fl.simulation import FLSimulation

FLSimulation(FLConfig(rounds=1, aggregator="trimmed_mean", screen="carry")).run()
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


def _flatten_sites(path: Path) -> list[str]:
    """Qualified names of the functions calling ``.flatten`` / ``.flatten_into``."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("flatten", "flatten_into")
            ):
                sites.append(".".join(scope))
            visit(child, inner)

    visit(ast.parse(path.read_text()), [])
    return sites


def test_execution_backends_convert_no_dispatched_model():
    """A dispatched model reaches a leg as the plan's row: the execution
    modules pack a state into a row only where a leg lands its upload
    (``run_leg``) and for round-shared hook payloads (``_PayloadPacker``)."""
    src = REPO_ROOT / "src" / "repro"
    sites = {
        rel: _flatten_sites(src / rel)
        for rel in ("fl/execution.py", "distributed/execution.py")
    }
    assert sites == {
        "fl/execution.py": ["run_leg", "_PayloadPacker.pack_round"],
        "distributed/execution.py": [],
    }

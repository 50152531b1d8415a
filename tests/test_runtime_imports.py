"""The package runs on the standard library and numpy alone (stdlib `ast`), it
starts no process (the Monte Carlo runs its chunks on threads), and a default
`--verify` run loads neither mpmath nor multiprocessing."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted((ROOT / "src" / "ruinwalk").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def foreign_imports(source: str) -> list[str]:
    """Each import in `source`, at any depth, of a module outside ALLOWED, as `line: module`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{node.lineno}: {m}" for m in modules if m.split(".")[0] not in ALLOWED]
    return found


def test_scanner_sees_a_foreign_import():
    source = (
        "import numpy as np\nfrom numpy.polynomial import polynomial\nimport os.path\n"
        "from . import errors\nfrom .distributions import Geometric\n"
        "import scipy.linalg\n"
        "def f():\n    import mpmath as mp\n    from hypothesis import given\n"
    )
    assert foreign_imports(source) == ["6: scipy.linalg", "8: mpmath", "9: hypothesis"]


def test_package_imports_only_stdlib_and_numpy():
    found = [
        f"{path.relative_to(ROOT)}:{hit}"
        for path in SCANNED
        for hit in foreign_imports(path.read_text())
    ]
    assert found == []


def process_pools(source: str) -> list[str]:
    """Each use in `source`, at any depth, of multiprocessing or ProcessPoolExecutor,
    by import or by attribute, as `line: name`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(a.name for a in node.names)]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [
            f"{node.lineno}: {n}"
            for n in names
            if n.split(".")[0] == "multiprocessing" or n == "ProcessPoolExecutor"
        ]
    return found


def test_scanner_sees_a_process_pool():
    source = (
        "from concurrent.futures import ThreadPoolExecutor\nimport threading\n"
        "def f():\n    from concurrent.futures import ProcessPoolExecutor\n"
        "    import multiprocessing.pool\n    from multiprocessing import get_context\n"
        "import concurrent.futures\npool = concurrent.futures.ProcessPoolExecutor()\n"
    )
    assert process_pools(source) == [
        "4: ProcessPoolExecutor",
        "5: multiprocessing.pool",
        "6: multiprocessing",
        "8: ProcessPoolExecutor",
    ]


def test_package_starts_no_process_pool():
    found = [
        f"{path.relative_to(ROOT)}:{hit}" for path in SCANNED for hit in process_pools(path.read_text())
    ]
    assert found == []


def test_verify_run_loads_no_mpmath_or_multiprocessing():
    program = (
        "import sys\n"
        "from ruinwalk import Geometric, ModelConfig, run_model\n"
        "config = ModelConfig(kappa=2, dist=Geometric(101 / 300), u_max=10, t_max=10,\n"
        "                     mc_paths=1024, mc_horizon=100, seed=1)\n"
        "report = run_model(config, verify=True)\n"
        "assert report.sequence_limits is not None and report.all_passed\n"
        "print(sorted(m for m in ('mpmath', 'multiprocessing') if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"

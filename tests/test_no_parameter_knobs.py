"""No public package function takes a tolerance, and each default it has is one that callers set (stdlib `ast`).

A decision tolerance is a module constant, so no caller can loosen a check
by passing a keyword. The public functions are the module-level ones whose
names do not start with `_`.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted((ROOT / "src" / "ruinwalk").glob("*.py"))
# defaults that callers do set: the CLI's argv, verify, fmt and
# include_timings; state_cap (two values in use); enumerate_finite_time's
# eps, which the benchmark's reference passes
SET_DEFAULTS = {"argv", "verify", "fmt", "include_timings", "state_cap", "eps"}


def knobs(source: str) -> list[str]:
    """Each public function parameter that names a tolerance or has a default
    outside SET_DEFAULTS, as `line: function(parameter)`."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = {a.arg for a in positional[len(positional) - len(args.defaults) :]}
        defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
        for a in (*positional, *args.kwonlyargs):
            if "tol" in a.arg or (a.arg in defaulted and a.arg not in SET_DEFAULTS):
                found.append(f"{node.lineno}: {node.name}({a.arg})")
    return found


def test_scanner_sees_knobs():
    source = (
        "def f(a, b=1, *, gap_tol, eps=0.0):\n    pass\n"
        "def _private(c=2):\n    pass\n"
        "class K:\n    def method(self, d=3):\n        pass\n"
        "def main(argv=None):\n    pass\n"
    )
    assert knobs(source) == ["1: f(b)", "1: f(gap_tol)"]


def test_package_has_no_parameter_knobs():
    found = [f"{path.relative_to(ROOT)}:{hit}" for path in SCANNED for hit in knobs(path.read_text())]
    assert found == []

"""Only `distributions.py` knows which claim law it holds (stdlib `ast`).

Every other module reads a law through its interface, its pgf ratio A / g
first of all, so no module but `distributions.py` and the package's
`__init__.py` (which re-exports it) names the class `Geometric`, and no module
but `distributions.py` tests the class of a law, apart from the `FinitePmf`
guard of `charpoly.reduce_support`: only a finite pmf has a support floor.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ruinwalk"
LAW_CLASSES = {"ClaimDistribution", "FinitePmf", "Geometric"}
ALLOWED = {
    "distributions.py": None,  # anything
    "__init__.py": {"Geometric"},
    "charpoly.py": {"isinstance FinitePmf"},
}


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def law_class_uses(source: str) -> list[tuple[int, str]]:
    """Each mention of `Geometric`, and each `isinstance` against a law class,
    in `source`, as (line, "Geometric" or "isinstance <class>")."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "Geometric":
            found.append((node.lineno, "Geometric"))
        elif isinstance(node, ast.Attribute) and node.attr == "Geometric":
            found.append((node.lineno, "Geometric"))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, "Geometric") for a in node.names if a.name == "Geometric"]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            found += [(node.lineno, f"isinstance {c}") for c in sorted(_names(node.args[1]) & LAW_CLASSES)]
    return found


def test_scanner_sees_every_form():
    source = (
        "from .distributions import Geometric as G\n"
        "import ruinwalk.distributions as d\n"
        "d.Geometric(0.5)\n"
        "isinstance(x, (FinitePmf, d.Geometric))\n"
        "isinstance(x, int)\n"
        "geometric = 'Geometric'\n"
    )
    assert sorted(law_class_uses(source)) == [
        (1, "Geometric"),
        (3, "Geometric"),
        (4, "Geometric"),
        (4, "isinstance FinitePmf"),
        (4, "isinstance Geometric"),
    ]


def test_only_distributions_knows_the_law_classes():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        allowed = ALLOWED.get(path.name, set())
        if allowed is None:
            continue
        found += [
            f"{path.relative_to(ROOT)}:{line}: {use}"
            for line, use in law_class_uses(path.read_text())
            if use not in allowed
        ]
    assert found == []

"""No module imports a name it never uses (stdlib `ast`; no linter is a dependency)."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the package's __init__ imports are its public re-exports
SCANNED = sorted(
    p
    for pattern in ("src/ruinwalk/*.py", "tests/*.py", "demos/*.py")
    for p in ROOT.glob(pattern)
    if p != ROOT / "src" / "ruinwalk" / "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names that `source` binds by import and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_scanner_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") == ["os", "c"]
    assert unused_imports("import numpy.linalg\nnumpy.linalg.norm\n") == []


def test_no_unused_imports():
    found = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in SCANNED
        for name in unused_imports(path.read_text())
    }
    assert sorted(found) == []

"""No package module reads the environment, so no setting can change how it runs (stdlib `ast`)."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted((ROOT / "src" / "ruinwalk").glob("*.py"))
READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """Each `os.environ`, `os.getenv` (or a `from os import` of them) in `source`, as `line: name`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in READERS
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            found.append(f"{node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{node.lineno}: os.{a.name}" for a in node.names if a.name in READERS]
    return found


def test_scanner_sees_an_environment_read():
    source = "import os\nfrom os import getenv as g\nos.environ.get('A')\nos.getenv('B')\nos.cpu_count()\n"
    assert sorted(environment_reads(source)) == ["2: os.getenv", "3: os.environ", "4: os.getenv"]


def test_package_reads_no_environment():
    found = [
        f"{path.relative_to(ROOT)}:{hit}"
        for path in SCANNED
        for hit in environment_reads(path.read_text())
    ]
    assert found == []

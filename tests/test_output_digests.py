"""Smoke test of tools/output_digests.py, the byte-for-byte output check."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


def digests(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)


def test_digests_compare_equal_to_themselves(tmp_path):
    out = tmp_path / "digests.json"
    assert digests(str(out), "--seeds", "11").returncode == 0
    table = json.loads(out.read_text())
    # table_deep has seven models, five files each
    assert sum(key.startswith("table_deep/11/") for key in table) == 35
    assert digests("--compare", str(out), str(out)).returncode == 0

    changed = tmp_path / "changed.json"
    key = next(iter(table))
    changed.write_text(json.dumps({**table, key: "0" * 64}))
    result = digests("--compare", str(out), str(changed))
    assert result.returncode == 1
    assert result.stdout.startswith(key)

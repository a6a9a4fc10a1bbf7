import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "cold_start.py"


def _tree(root: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in root.rglob("*")}


def test_one_pair_of_the_repo_against_itself(tmp_path):
    before = _tree(ROOT / "src")
    out = tmp_path / "cold.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--pairs", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    doc = json.loads(proc.stdout)
    assert json.loads(out.read_text()) == doc
    assert doc["pairs"] == 1
    assert set(doc["import_ms"]) == {"source", "stdlib-bytecode", "cached"}
    for summary in [*doc["import_ms"].values(), doc["solve_trace_process_ms"]]:
        assert set(summary) == {"parent", "change", "change_lower_in_pairs", "runs"}
        assert summary["change_lower_in_pairs"] in ("0/1", "1/1")
        for side in ("parent", "change"):
            assert len(summary["runs"][side]) == 1
            assert summary[side] == summary["runs"][side][0] > 0
    # every bytecode cache went to a temporary prefix: src/ is untouched
    assert _tree(ROOT / "src") == before

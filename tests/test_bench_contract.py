"""The benchmark still runs against this program: its tracer finds every
function it wraps, its checks pass, and the needle outputs keep their bytes."""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
# `needle` seed 1 digest listed in bench/README.md.
NEEDLE_SEED1_DIGEST = "919a3cd3740a989ac35db4876de4663ba959141282eeb32979637644a53437e7"


def test_traced_needle_run_is_correct_and_byte_identical():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "bench" / "run.py"), "--workload", "needle",
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    record, result = json.loads(record_line)["record"], json.loads(result_line)
    assert result["correct"] and result["failed"] == 0, record["problems"]
    assert record["digest"] == NEEDLE_SEED1_DIGEST
    assert result["metrics"]["numerics.token_grids"]["value"] == 0
    # compress hands stage 1's survivors on as indices; no subset is built
    assert result["metrics"]["temporal.subset.s"]["value"] == 0

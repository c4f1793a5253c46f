"""The benchmark still runs against this program: its tracer finds every
function it wraps, its checks pass, and the needle, hour and corpus outputs
keep their bytes."""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
# seed 1 digests listed in bench/README.md
NEEDLE_SEED1_DIGEST = "919a3cd3740a989ac35db4876de4663ba959141282eeb32979637644a53437e7"
HOUR_SEED1_DIGEST = "48c68d09ca91ba5f79a71c0aa1ca78e78c73a1332d6c604e5c347a5510698aa7"
CORPUS_DIGEST = "b590ce012d0c4b81525ba6b58f5e67a01e5327ed7010373e928a51ee8ccc6c22"


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    """The run record and the result of one short seed-1 benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    record, result = json.loads(record_line)["record"], json.loads(result_line)
    assert result["correct"] and result["failed"] == 0, record["problems"]
    return record, result


def test_traced_needle_run_is_correct_and_byte_identical():
    record, result = run_bench("needle", trace=1)
    assert record["digest"] == NEEDLE_SEED1_DIGEST
    assert result["metrics"]["numerics.token_grids"]["value"] == 0
    # compress hands stage 1's survivors on as indices; no subset is built
    assert result["metrics"]["temporal.subset.s"]["value"] == 0


def test_needle_run_is_correct_and_byte_identical():
    record, result = run_bench("needle", trace=0)
    assert record["digest"] == NEEDLE_SEED1_DIGEST
    # the pooled frames of a mixed table are pooled into the output, not
    # beside it (4.99 MB when they were)
    assert result["metrics"]["peak_alloc_mb"]["value"] < 3.8


def test_hour_run_is_correct_and_byte_identical():
    # the file-to-file CLI path: feature read, compress, LVUC write
    record, result = run_bench("hour", trace=0)
    assert record["digest"] == HOUR_SEED1_DIGEST
    # one byte of plan state per pooled token, no cached frame summaries and
    # plan blocks of 512 KiB; a traced peak, which repeats within 0.01 MB
    # (9.81 MB with the first two, 8.24 MB with 1 MiB blocks)
    assert result["metrics"]["peak_alloc_mb"]["value"] < 8.1


def test_traced_hour_run_is_correct_and_byte_identical():
    # the over-budget path, traced: its output is emitted by select_and_pool
    record, result = run_bench("hour", trace=1)
    assert record["digest"] == HOUR_SEED1_DIGEST
    assert result["metrics"]["numerics.token_grids"]["value"] == 0
    # pooling works on one plan block at a time, not on a budget of tokens
    assert result["metrics"]["numerics.pool_batch.peak_mb"]["value"] < 2.5
    # FPE is on only in hour: the encoding compress runs is the one timed
    assert result["metrics"]["framepos.apply_position_encoding.s"]["value"] > 0


def test_corpus_run_is_correct_and_byte_identical():
    # all three anchors, the budget fallback and one infeasible verdict
    record, result = run_bench("corpus", trace=0)
    assert record["digest"] == CORPUS_DIGEST
    assert record["n_infeasible"] == 1
    # 2.26 MB with the plan's float64 similarities and cached summaries, 1.68
    # MB while the mixed tables' pooled frames were held beside the output
    assert result["metrics"]["peak_alloc_mb"]["value"] < 1.4

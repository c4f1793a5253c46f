"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {hour,corpus,needle} --seed N --seconds S --trace {0,1}

Works from any working directory without installing the package: it imports
``vtcompress`` from the ``src`` directory beside this one and refuses to run
without it. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the calls into each
layer are timed and the per-layer metrics are printed instead. The line
before it is the run record (versions, seeds, checks, digest); both are also
written under ``bench/out/``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, set before numpy loads, so runs do not compete for cores.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _import_program():
    if not (SRC / "vtcompress" / "__init__.py").is_file():
        sys.exit(f"error: no vtcompress sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vtcompress

    if Path(vtcompress.__file__).resolve().parent != SRC / "vtcompress":
        sys.exit(f"error: imported vtcompress from {vtcompress.__file__}, not from {SRC}")


_import_program()

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - START


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def run_record(args) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
    }


def end_to_end(result, peak_mb: float) -> dict:
    lat = result.latencies
    return {
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0], "s"),
        "frames_per_s": (result.frames / sum(lat), "1/s"),
        "videos_per_s": (result.videos / result.work_s, "1/s"),
        "peak_alloc_mb": (peak_mb, "MB"),
        "setup_s": (IMPORT_S + statistics.median(result.setup_s), "s"),
    }


def per_layer(result, tracer, workload: str) -> dict:
    """Layer times and counts per timed operation, from the traced pass."""
    setup, timed = result.marks["setup"], result.marks["timed"]

    def delta(kind, key):
        return timed[kind].get(key, 0.0) - setup[kind].get(key, 0.0)

    ops = result.attempted
    secs = {name: (delta("total", name) / ops, "s") for name in (
        "formats.read_features", "formats.write_compressed", "temporal.reduce_frames",
        "temporal.subset", "numerics.pool_batch", "query_select.frame_query_scores",
        "spatial.build_plan", "spatial.apply", "pipeline.ladder", "pipeline.flatten",
        "framepos.apply_position_encoding",
    )}
    pooled = delta("count", "numerics.pool_batch.frames")
    gen = "synthbench.gen_video"
    if workload == "corpus":  # generation is part of the study
        gen_s, gen_calls = delta("total", gen) / result.rounds, delta("count", gen + ".calls") / result.rounds
    else:  # generation is set-up; one input set per set-up
        reps = workloads.SETUP_REPEATS
        gen_s, gen_calls = setup["total"].get(gen, 0.0) / reps, setup["count"].get(gen + ".calls", 0) / reps
    metrics = {f"{name}.s": value for name, value in secs.items()}
    metrics.update({
        "temporal.frames_kept": (delta("count", "temporal.frames_kept") / ops, "count"),
        "numerics.pool_batch.frames": (pooled / ops, "count"),
        "numerics.pool_batch.used_ratio": (
            delta("count", "numerics.pooled_frames_used") / pooled if pooled else 0.0, "ratio"),
        "numerics.pool_batch.peak_mb": (tracer.peak_mb["numerics.pool_batch"], "MB"),
        "numerics.token_grids": (delta("count", "numerics.token_grids") / ops, "count"),
        "query_select.select_and_pool.self_s": (delta("self", "query_select.select_and_pool") / ops, "s"),
        "spatial.build_plan.peak_mb": (tracer.peak_mb["spatial.build_plan"], "MB"),
        "pipeline.ladder.steps": (delta("count", "pipeline.ladder.calls") / ops, "count"),
        "pipeline.subsample.s": (delta("self", "pipeline.enforce_budget") / ops, "s"),
        "pipeline.subsample.dropped_tokens": (delta("count", "pipeline.subsample.dropped_tokens") / ops, "count"),
        "pipeline.compress.self_s": (delta("self", "pipeline.compress") / ops, "s"),
        "synthbench.gen_video.s": (gen_s, "s"),
        "synthbench.gen_video.calls": (gen_calls, "count"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, work_dir, tracer)
        if tracer:
            tracer.memory = True
        peak_mb = workloads.peak_mb(result.memory_ops)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        metrics = per_layer(result, tracer, args.workload)
        tracer.write(OUT / f"{stem}.spans.jsonl")
    else:
        metrics = end_to_end(result, peak_mb)
    record = run_record(args)
    record.update(
        operations=result.attempted,
        rounds=result.rounds,
        latency_p50_s=statistics.median(result.latencies),
        digest=result.digest,
        problems=result.problems[:20],
        n_problems=len(result.problems),
        **result.notes,
    )
    final = {
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({"record": record, **final}, indent=2) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the suite is also part of the default ``pytest`` run.
"""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vtcompress import (
    AnchorStrategy,
    BudgetInfeasibleError,
    CompressionConfig,
    FrameFeatureSequence,
    NeedleSpec,
    QueryEmbedding,
    StageToggles,
    SynthSpec,
    anchor_ablation,
    compress,
    encoding_vector,
    make_mixed_corpus,
    num_full_res_frames,
    prune_window,
    reduce_frames,
    reduction_report,
)
from vtcompress.synthbench import needle_study

from .test_spatial import prune_oracle

CORPUS_SEED = 20240807
REPO_ROOT = Path(__file__).resolve().parents[1]


def report(criterion, ok, desc, detail=""):
    line = f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def corpus_report():
    start = time.time()
    corpus = make_mixed_corpus(200, CORPUS_SEED)
    per_video, aggregate = reduction_report(corpus, CompressionConfig())
    return per_video, aggregate, time.time() - start


def test_criterion_1_budget_formula_exactness():
    start = time.time()
    mismatches = 0
    for l_max in (1024, 4096, 8192, 16384):
        for l_q in (0, 50, 100, 500):
            for t in range(1, 513):
                got = num_full_res_frames(t, l_max, l_q, 144, 64)
                expected = 0
                for n in range(t, -1, -1):
                    if 144 * n + 64 * (t - n) + l_q <= l_max:
                        expected = n
                        break
                if got != expected:
                    mismatches += 1
    elapsed = time.time() - start
    report(
        1,
        mismatches == 0 and elapsed < 10,
        "budget formula matches brute-force search on the full grid",
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def _fuzz_video(rng):
    """Random (sequence, query, config) triple spanning the supported space."""
    big = rng.random() < 0.03
    if big:
        n = int(rng.choice([1024, 2048, 3600, 3600]))
        hh, wh = 12, 12
        hl, wl = 8, 8
        dim = 8
    else:
        n = int(rng.integers(1, 220))
        hh, wh, hl, wl = [(4, 4, 2, 2), (6, 6, 3, 3), (4, 6, 2, 3), (12, 12, 8, 8)][
            int(rng.integers(0, 4))
        ]
        dim = int(rng.integers(2, 17))
    kind = rng.random()
    if kind < 0.4:  # independent random frames, little to prune
        frames = rng.standard_normal((n, hh, wh, dim)).astype(np.float32)
    elif kind < 0.8:  # noisy copies of one base frame, heavy redundancy
        base = rng.standard_normal((hh, wh, dim))
        noise = float(rng.uniform(0.01, 0.8))
        frames = (base[None] + noise * rng.standard_normal((n, hh, wh, dim))).astype(np.float32)
    else:  # blockwise scenes
        frames = np.empty((n, hh, wh, dim), dtype=np.float32)
        cursor = 0
        while cursor < n:
            length = min(n - cursor, int(rng.integers(1, 40)))
            base = rng.standard_normal((hh, wh, dim))
            frames[cursor : cursor + length] = (
                base[None] + 0.05 * rng.standard_normal((length, hh, wh, dim))
            ).astype(np.float32)
            cursor += length
    seq = FrameFeatureSequence(frames, np.arange(n, dtype=np.float64))
    l_q = int(rng.integers(1, 300))
    query = QueryEmbedding(rng.standard_normal((l_q, dim)).astype(np.float32))
    stages = StageToggles(*(bool(rng.integers(0, 2)) for _ in range(3)))
    if not stages.any_enabled:
        stages = StageToggles()
    cfg = CompressionConfig(
        l_max=int(rng.integers(512, 16385)),
        tokens_low=(hl, wl),
        j=int(rng.integers(1, 13)),
        k=int(rng.integers(1, 13)),
        theta=float(rng.uniform(0.55, 0.95)),
        tau_t=float(rng.uniform(0.5, 1.0)),
        anchor=[AnchorStrategy.FIRST, AnchorStrategy.MIDDLE, AnchorStrategy.HIGH_CHANGE][
            int(rng.integers(0, 3))
        ],
        stages=stages,
    )
    return seq, query, cfg


def _independent_infeasibility(seq, query, cfg) -> bool:
    """Re-derive from public ops whether anchors alone must exceed the budget."""
    hh, wh = seq.grid_h, seq.grid_w
    hl, wl = cfg.tokens_low
    l_q = query.n_tokens
    if cfg.stages.temporal:
        t2 = len(reduce_frames(seq, cfg.j, cfg.tau_t).kept_indices)
    else:
        t2 = seq.n_frames
    if t2 * hh * wh + l_q <= cfg.l_max:
        return False
    n_h = (
        num_full_res_frames(t2, cfg.l_max, l_q, hh * wh, hl * wl)
        if cfg.stages.query
        else 0
    )
    if n_h > 0:
        return False  # the budget formula never overshoots
    if t2 * hl * wl + l_q <= cfg.l_max:
        return False
    anchors = math.ceil(t2 / cfg.k) * hl * wl
    return anchors > cfg.l_max - l_q


def test_criterion_2_hard_budget_guarantee():
    start = time.time()
    rng = np.random.default_rng(CORPUS_SEED + 2)
    violations = []
    infeasible = 0
    big_count = 0
    for i in range(1000):
        seq, query, cfg = _fuzz_video(rng)
        if seq.n_frames >= 1024:
            big_count += 1
        try:
            _, stats = compress(seq, query, cfg)
        except BudgetInfeasibleError as exc:
            infeasible += 1
            if exc.anchor_tokens <= exc.budget:
                violations.append(f"case {i}: raised but anchors fit")
            elif not _independent_infeasibility(seq, query, cfg):
                violations.append(f"case {i}: raised but re-derivation disagrees")
            continue
        if stats.tokens_final + query.n_tokens > cfg.l_max:
            violations.append(f"case {i}: budget exceeded")
        elif _independent_infeasibility(seq, query, cfg):
            violations.append(f"case {i}: should have been infeasible")
    elapsed = time.time() - start
    report(
        2,
        not violations and big_count >= 5 and elapsed < 300,
        "hard budget guarantee holds on 1000 fuzzed triples",
        f"{infeasible} legitimately infeasible, {big_count} hour-scale videos, "
        f"{len(violations)} violations, {elapsed:.0f}s",
    )


def test_criterion_3_pruning_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(CORPUS_SEED + 3)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        d = int(rng.integers(1, 9))
        window = rng.standard_normal((n, h, w, d)).astype(np.float32)
        if rng.random() < 0.5:  # inject near-duplicates so both branches fire
            src, dst = rng.integers(0, n, 2)
            window[dst] = window[src] + 0.01 * rng.standard_normal((h, w, d)).astype(
                np.float32
            )
        anchor = int(rng.integers(0, n))
        theta = float(rng.uniform(0.05, 0.95))
        keep = prune_window(window, anchor, theta)
        expected = prune_oracle(window, anchor, theta)
        for f, exp in zip(keep, expected):
            if [tuple(p) for p in np.argwhere(f)] != exp:
                mismatches += 1
    elapsed = time.time() - start
    report(
        3,
        mismatches == 0 and elapsed < 10,
        "window pruning matches the per-position oracle exactly",
        f"200 windows, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_4_frame_keep_rate(corpus_report):
    per_video, aggregate, elapsed = corpus_report
    mean_keep = aggregate["mean_frames_kept"]
    report(
        4,
        0.36 <= mean_keep <= 0.56 and len(per_video) >= 200 and elapsed < 120,
        "mean temporal keep rate reproduces the reference distribution",
        f"mean={mean_keep:.3f} target [0.36, 0.56], {len(per_video)} videos, {elapsed:.0f}s",
    )


def test_criterion_5_token_reduction_rate(corpus_report):
    per_video, aggregate, elapsed = corpus_report
    mean_cut = aggregate["mean_tokens_reduced"]
    # The spatial stage runs only when the query stage's output is still over
    # budget; wherever it runs, it must cut tokens.
    over_budget = [s for s in per_video if s.tokens_after_query + s.query_tokens > s.budget]
    cut = sum(s.tokens_after_spatial < s.tokens_after_query for s in over_budget)
    ran_everywhere = 0 < cut == len(over_budget)
    report(
        5,
        0.25 <= mean_cut <= 0.55 and ran_everywhere and elapsed < 120,
        "mean spatial token reduction reproduces the reference distribution",
        f"mean={mean_cut:.3f} target [0.25, 0.55], spatial stage cut "
        f"{cut}/{len(over_budget)} over-budget videos, {elapsed:.0f}s",
    )


def test_criterion_6_needle_retention():
    start = time.time()
    counts = [200, 400, 800]
    depths = [0.0, 0.25, 0.5, 0.75, 1.0]
    cfg = CompressionConfig()
    cfg_no_query = CompressionConfig(stages=StageToggles(query=False))
    with_cells, without_cells = [], []
    for seed in range(1000, 1020):
        spec = NeedleSpec(
            haystack=SynthSpec(n_frames=max(counts), n_scenes=max(counts) // 64,
                               dim=64, seed=seed),
            depths=depths,
            frame_counts=counts,
        )
        with_query, without_query = needle_study(spec, [cfg, cfg_no_query])
        with_cells.extend(with_query)
        without_cells.extend(without_query)
    eligible = [c for c in with_cells if c["n_full_res"] >= 1]
    full_rate_eligible = (
        sum(c["needle_full_res"] for c in eligible) / len(eligible) if eligible else 1.0
    )
    survival = sum(c["any_token_survives"] for c in with_cells) / len(with_cells)
    with_rate = sum(c["needle_full_res"] for c in with_cells) / len(with_cells)
    without_rate = sum(c["needle_full_res"] for c in without_cells) / len(without_cells)
    elapsed = time.time() - start
    ok = (
        len(with_cells) == 300
        and len(eligible) >= 20
        and full_rate_eligible >= 0.95
        and survival >= 0.95
        and with_rate > without_rate
        and elapsed < 300
    )
    report(
        6,
        ok,
        "needle retention: aligned query keeps the needle, disabling it hurts",
        f"full-res|n_h>=1 {full_rate_eligible:.3f} on {len(eligible)} cells, "
        f"survival {survival:.3f}, query on/off {with_rate:.3f}/{without_rate:.3f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_position_encoding_closed_form():
    start = time.time()
    rng = np.random.default_rng(CORPUS_SEED + 7)
    worst = 0.0
    for _ in range(1000):
        t = float(rng.uniform(-100.0, 5000.0))
        d = int(rng.integers(2, 65))
        i = int(rng.integers(0, d // 2))
        vec = encoding_vector(t, d)
        angle = t / 10000 ** (2 * i / d)
        worst = max(worst, abs(vec[2 * i] - math.sin(angle)))
        if 2 * i + 1 < d:
            worst = max(worst, abs(vec[2 * i + 1] - math.cos(angle)))
    zero = encoding_vector(0.0, 12)
    zero_exact = zero.tolist() == [0.0, 1.0] * 6
    elapsed = time.time() - start
    report(
        7,
        worst <= 1e-6 and zero_exact and elapsed < 10,
        "sinusoidal encoding matches independent recomputation",
        f"max err {worst:.2e}, t=0 exact: {zero_exact}, {elapsed:.1f}s",
    )


def test_criterion_8_anchor_strategy_ablation():
    start = time.time()
    corpus = make_mixed_corpus(40, CORPUS_SEED + 8)
    rates = anchor_ablation(corpus, CompressionConfig())
    spread = max(rates.values()) - min(rates.values())
    elapsed = time.time() - start
    table = " | ".join(f"{k}={v:.4f}" for k, v in rates.items())
    print(f"    anchor-strategy reduction rates: {table}", flush=True)
    report(
        8,
        set(rates) == {"first", "middle", "high_change"} and spread <= 0.05,
        "anchor strategies land within 5 points of each other",
        f"spread {spread:.4f}, {elapsed:.0f}s",
    )


def _child_env(**extra) -> dict[str, str]:
    """Environment for a child interpreter that imports ``vtcompress`` from
    this checkout whatever its working directory: the absolute ``src`` path
    goes in front of any inherited, possibly relative, ``PYTHONPATH``."""
    inherited = os.environ.get("PYTHONPATH")
    path = str(REPO_ROOT / "src") + (os.pathsep + inherited if inherited else "")
    return dict(os.environ, PYTHONPATH=path, **extra)


def _run_cli(args, cwd, hash_seed):
    proc = subprocess.run(
        [sys.executable, "-m", "vtcompress.cli", *args],
        cwd=cwd,
        env=_child_env(PYTHONHASHSEED=str(hash_seed)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"cli {args} failed: {proc.stderr}"


def _command_matrix(workdir: Path, hash_seed: int) -> dict[str, bytes]:
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(77)
    from vtcompress.formats import write_query

    write_query(
        workdir / "query.lvuq",
        QueryEmbedding(rng.standard_normal((24, 8)).astype(np.float32)),
    )
    cmds = [
        ["synth", "--frames", "160", "--scenes", "4", "--seed", "5", "--dim", "8",
         "--out", "a.lvuf"],
        ["synth", "--frames", "320", "--scenes", "5", "--seed", "6", "--dim", "8",
         "--drift-fraction", "0.1", "--out", "b.lvuf"],
        ["compress", "--input", "a.lvuf", "--query", "query.lvuq",
         "--output", "a_default.lvuc", "--stats", "a_default.json"],
        ["compress", "--input", "a.lvuf", "--query", "query.lvuq",
         "--output", "a_fpe.lvuc", "--fpe", "on", "--anchor", "middle"],
        ["compress", "--input", "b.lvuf", "--query", "query.lvuq",
         "--output", "b_1024.lvuc", "--context-length", "1024",
         "--anchor", "high-change", "--theta", "0.7"],
        ["compress", "--input", "b.lvuf", "--query", "query.lvuq",
         "--output", "b_noquery.lvuc", "--context-length", "2048",
         "--disable-stage", "query"],
        ["needle", "--frame-counts", "200", "--depths", "0,0.5", "--seed", "7",
         "--dim", "32", "--report", "needle.csv"],
        ["report", "--corpus-size", "3", "--seed", "1", "--out", "report.json",
         "--csv", "report.csv"],
    ]
    for cmd in cmds:
        _run_cli(cmd, workdir, hash_seed)
    outputs = {}
    for name in sorted(os.listdir(workdir)):
        outputs[name] = (workdir / name).read_bytes()
    return outputs


def test_criterion_9_cli_determinism(tmp_path):
    start = time.time()
    first = _command_matrix(tmp_path / "run1", hash_seed=0)
    second = _command_matrix(tmp_path / "run2", hash_seed=1)
    same_names = sorted(first) == sorted(second)
    diffs = [n for n in first if same_names and first[n] != second[n]]
    elapsed = time.time() - start
    report(
        9,
        same_names and not diffs,
        "command matrix is byte-identical across independent runs",
        f"{len(first)} files, diffs: {diffs or 'none'}, {elapsed:.0f}s",
    )


def test_criterion_10_property_suites():
    start = time.time()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "tests",
            "--ignore=tests/test_acceptance.py",
            # the top-level suite runs the benchmark contract itself
            "--ignore=tests/test_bench_contract.py",
            "-q",
            "-p",
            "no:cacheprovider",
        ],
        cwd=REPO_ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
    )
    elapsed = time.time() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    report(
        10,
        proc.returncode == 0,
        "module invariant and property suites all pass",
        f"{tail}, {elapsed:.0f}s",
    )

"""The three workloads: ``hour``, ``corpus`` and ``needle``.

Each sets up ``SETUP_REPEATS`` times from the seed (building its inputs and
running one warm-up operation), then repeats whole rounds of the same
operations until the run length has passed. Garbage is collected between
operations, outside the timed interval. Outputs are checked against ``refs``
outside the timed interval: the first round in full, every later round by
comparing its bytes with the first.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import refs
from vtcompress import cli, formats, pipeline, synthbench
from vtcompress.errors import BudgetInfeasibleError
from vtcompress.query_select import QueryEmbedding
from vtcompress.spatial import AnchorStrategy

SETUP_REPEATS = 3
QUERY_TOKENS = 24
DIM = 64

HOUR_FRAMES = 3600
HOUR_SCENES = HOUR_FRAMES // 64
HOUR_L_MAX = 16384  # at the default 8192 the hour is budget-infeasible
# Stage 1 keeps 1,114 to 2,221 frames of the hours of seeds 0..79 (median
# about 1,600), and the work of a compress follows that count. The hour is
# drawn from the 15 seeds whose hours keep 1,560 to 1,640 frames, so that
# runs of different seeds measure the same amount of work.
HOUR_SEEDS = (7, 11, 15, 18, 26, 28, 29, 31, 41, 42, 45, 64, 70, 72, 73)

CORPUS_SEED = 20240807
CORPUS_VIDEOS = 38  # videos 0..37; video 37 gets the infeasible verdict

NEEDLE_L_MAX = 8192
NEEDLE_DEPTHS = (0.0, 0.25, 0.5, 0.75, 1.0)
NEEDLE_HAYSTACK_SEED = 20241022
# Haystack i of a length has generator seed SeedSequence([20241022, length,
# i]). Listed are the first haystacks, in draw order, whose stage 1 keeps the
# same number of frames with the needle at each of the five depths (so a
# clip's work does not depend on where the seed puts the needle), until each
# length has its quota of (full resolution, query selection, uniform pooling)
# clips: 64: (7, 3, 0), 96: (7, 3, 0), 128: (5, 4, 1), 200: (4, 4, 2). That
# is 57.5%, 35% and 7.5%, the shares of 2,000 unselected clips.
NEEDLE_HAYSTACKS = {
    64: (0, 1, 2, 3, 4, 5, 6, 19, 24, 27),
    96: (0, 1, 2, 3, 4, 5, 6, 7, 8, 11),
    128: (0, 1, 2, 3, 4, 6, 9, 10, 12, 14),
    200: (1, 3, 5, 6, 8, 11, 13, 21, 26, 29),
}


@dataclass
class Result:
    latencies: list = field(default_factory=list)  # seconds per timed operation
    frames: int = 0  # input frames over the timed operations
    videos: int = 0  # videos handled in the timed pass
    work_s: float = 0.0  # wall time of the timed pass, bookkeeping excluded
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    problems: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    digest: str = ""
    memory_ops: list = field(default_factory=list)  # operations for the peak pass
    marks: dict = field(default_factory=dict)  # tracer snapshots by phase
    notes: dict = field(default_factory=dict)

    def check(self, what: str, problems: list):
        self.problems += [f"{what}: {p}" for p in problems]


def _digest(tokens, stats: dict) -> bytes:
    blob = b"" if tokens is None else refs.Tokens.of(tokens).digest_bytes()
    return hashlib.sha256(blob + json.dumps(stats, sort_keys=True).encode()).digest()


def _setup(result: Result, tracer, build):
    """Run ``build`` SETUP_REPEATS times, timing each; returns the last inputs."""
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = None  # let the previous inputs go before building again
        inputs = build()
        result.setup_s.append(time.perf_counter() - start)
    if tracer:
        result.marks["setup"] = tracer.snapshot()
    return inputs


def _rounds(result: Result, seconds: float, tracer, round_fn):
    """Run whole rounds until ``seconds`` of wall time have passed."""
    start = time.perf_counter()
    while result.rounds == 0 or time.perf_counter() - start < seconds:
        round_fn(result.rounds)
        result.rounds += 1
    if tracer:
        result.marks["timed"] = tracer.snapshot()


def peak_mb(ops) -> float:
    """Highest traced allocation peak of one operation, in MB (untimed)."""
    tracemalloc.start()
    try:
        high = 0.0
        for op in ops:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            op()
            high = max(high, (tracemalloc.get_traced_memory()[1] - base) / 2**20)
        return high
    finally:
        tracemalloc.stop()


def _timed(op):
    gc.collect()
    start = time.perf_counter()
    value = op()
    return value, time.perf_counter() - start


# -- hour --------------------------------------------------------------------


def hour(seed: int, seconds: float, work_dir: Path, tracer=None) -> Result:
    """One synthetic hour through ``vtcompress compress`` in process, file to file."""
    result = Result()
    files = {name: work_dir / name for name in ("in.lvuf", "q.lvuq", "out.lvuc", "stats.json")}
    argv = [
        "compress", "--input", str(files["in.lvuf"]), "--query", str(files["q.lvuq"]),
        "--output", str(files["out.lvuc"]), "--stats", str(files["stats.json"]),
        "--context-length", str(HOUR_L_MAX), "--fpe", "on",
    ]

    hour_seed = HOUR_SEEDS[seed % len(HOUR_SEEDS)]
    result.notes["hour_seed"] = hour_seed

    def build():
        spec = synthbench.SynthSpec(
            n_frames=HOUR_FRAMES, n_scenes=HOUR_SCENES, dim=DIM, seed=hour_seed
        )
        video = synthbench.gen_video(spec)
        rows = np.random.default_rng([seed, 0x48]).standard_normal((QUERY_TOKENS, DIM))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        formats.write_features(files["in.lvuf"], video)
        formats.write_query(files["q.lvuq"], QueryEmbedding(rows.astype(np.float32)))
        cli.main(argv)  # warm-up
        return video.frames

    frames = _setup(result, tracer, build)
    first = None

    def one_round(_):
        nonlocal first
        code, elapsed = _timed(lambda: cli.main(argv))
        result.attempted += 1
        if code != 0:
            result.failed += 1
            result.problems.append(f"hour: vtcompress compress exited {code}")
            return
        result.latencies.append(elapsed)
        result.frames += HOUR_FRAMES
        result.videos += 1
        lvuc = files["out.lvuc"].read_bytes()
        output = lvuc + files["stats.json"].read_bytes()
        if first is not None:
            if output != first:
                result.problems.append("hour: a repeat gave different bytes")
            return
        first = output
        result.digest = hashlib.sha256(lvuc).hexdigest()
        tokens, stats = refs.parse_lvuc(lvuc)
        if json.loads(files["stats.json"].read_text()) != stats:
            result.problems.append("hour: the --stats JSON differs from the LVUC stats blob")
        result.check("hour", refs.check_compress(
            frames, QUERY_TOKENS, tokens, stats, l_max=HOUR_L_MAX, fpe=True))

    _rounds(result, seconds, tracer, one_round)
    result.work_s = sum(result.latencies)
    result.memory_ops = [lambda: cli.main(argv)]
    return result


# -- corpus ------------------------------------------------------------------


def corpus(seed: int, seconds: float, work_dir: Path, tracer=None) -> Result:
    """The reduction study with the anchor ablation, as ``vtcompress report
    --anchor-ablation`` runs it, over the leading videos of the calibrated
    corpus. The seed sets the order in which the videos are listed; the
    per-video outputs, and so the digest, must not depend on it."""
    result = Result()
    cfg = pipeline.CompressionConfig()

    def build():
        specs = synthbench.make_mixed_corpus(CORPUS_VIDEOS, CORPUS_SEED)
        warm = synthbench.gen_video(specs[0])
        rows = np.random.default_rng([seed, 0x5E]).standard_normal((8, warm.dim))
        pipeline.compress(warm, QueryEmbedding(rows.astype(np.float32)), cfg)  # warm-up
        return specs

    specs = _setup(result, tracer, build)
    listed = [specs[i] for i in np.random.default_rng([seed, 0xC0]).permutation(len(specs))]
    seen: dict = {}  # (anchor, video key) -> digest of its first output
    biggest = {"frames": -1}
    paused = 0.0  # collection and checks inside the study's wall time
    inner = synthbench.compress

    def timed_compress(video, query, cfg):
        nonlocal paused
        gc_start = time.perf_counter()
        gc.collect()
        start = time.perf_counter()
        paused += start - gc_start
        result.attempted += 1
        tokens = stats = None
        try:
            tokens, stats = inner(video, query, cfg)
            return tokens, stats
        except BudgetInfeasibleError as exc:
            stats = exc.stats
            raise
        except Exception as exc:
            result.failed += 1
            result.problems.append(f"corpus: compress raised {exc!r}")
            raise
        finally:
            end = time.perf_counter()
            result.latencies.append(end - start)
            result.frames += video.n_frames
            if stats is not None:
                record(video, query, cfg, tokens, stats)
            paused += time.perf_counter() - end

    def record(video, query, cfg, tokens, stats):
        # Videos are told apart by content, so neither the seed's listing
        # order nor the study's loop order matters.
        ident = hashlib.sha256(
            video.frames[0].tobytes() + video.frames[-1].tobytes() + query.rows.tobytes()
        ).hexdigest()[:16]
        key = (cfg.anchor.value, video.n_frames, ident)
        digest = _digest(tokens, stats.to_dict())
        if key in seen:  # the default anchor runs twice per study
            if seen[key] != digest:
                result.problems.append(f"corpus {key}: a repeat gave different outputs")
            return
        seen[key] = digest
        result.check(f"corpus {key}", refs.check_compress(
            video.frames, query.n_tokens, None if tokens is None else refs.Tokens.of(tokens),
            stats.to_dict(), l_max=cfg.l_max, anchor=key[0]))
        if stats.frames_after_temporal > biggest["frames"]:
            biggest.update(frames=stats.frames_after_temporal, video=video, query=query)

    def one_round(_):
        nonlocal paused
        paused = 0.0
        start = time.perf_counter()
        per_video, aggregate = synthbench.reduction_report(listed, cfg)
        ablation = synthbench.anchor_ablation(listed, cfg)
        result.work_s += time.perf_counter() - start - paused
        result.videos += len(listed)
        result.notes.update(
            n_infeasible=aggregate["n_infeasible"],
            mean_frames_kept=aggregate["mean_frames_kept"],
            mean_tokens_reduced=aggregate["mean_tokens_reduced"],
            anchor_ablation=ablation,
        )

    synthbench.compress = timed_compress
    try:
        _rounds(result, seconds, tracer, one_round)
    finally:
        synthbench.compress = inner
    result.digest = hashlib.sha256(
        b"".join(k[0].encode() + seen[k] for k in sorted(seen))
    ).hexdigest()
    # Peak memory: the video that keeps the most frames, under each anchor.
    video, query = biggest["video"], biggest["query"]
    result.memory_ops = [
        lambda a=a: _verdict_or_tokens(video, query, replace(cfg, anchor=a)) for a in AnchorStrategy
    ]
    return result


def _verdict_or_tokens(video, query, cfg):
    try:
        return pipeline.compress(video, query, cfg)
    except BudgetInfeasibleError as exc:
        return exc


# -- needle ------------------------------------------------------------------


def needle_clips(seed: int) -> list[tuple]:
    """The needle clips of one round: every listed haystack once, with the
    needle at a depth the seed assigns, each depth twice per length.

    Returns (video, query, needle index) triples.
    """
    clips = []
    for count, draws in NEEDLE_HAYSTACKS.items():
        depths = np.random.default_rng([seed, count]).permutation(NEEDLE_DEPTHS * 2)
        for draw, depth in zip(draws, depths):
            state = np.random.SeedSequence([NEEDLE_HAYSTACK_SEED, count, draw]).generate_state(1, np.uint64)
            spec = synthbench.SynthSpec(
                n_frames=count, n_scenes=max(1, count // 64), dim=DIM, seed=int(state[0] % 2**63)
            )
            needle = synthbench.make_needle_grid(spec)
            video, index = synthbench.insert_needle(synthbench.gen_video(spec), needle, float(depth))
            query = synthbench.make_aligned_query(needle, 1.0, QUERY_TOKENS, spec.seed)
            clips.append((video, query, index))
    return clips


def needle(seed: int, seconds: float, work_dir: Path, tracer=None) -> Result:
    """Short needle clips, each compressed at the default config."""
    result = Result()
    cfg = pipeline.CompressionConfig(l_max=NEEDLE_L_MAX)

    def build():
        clips = needle_clips(seed)
        pipeline.compress(clips[0][0], clips[0][1], cfg)  # warm-up
        return clips

    clips = _setup(result, tracer, build)
    first: list = [None] * len(clips)
    paths = [0, 0, 0]  # full resolution, query selection, uniform pooling

    def one_round(n):
        for i, (video, query, index) in enumerate(clips):
            result.attempted += 1
            try:
                (tokens, stats), elapsed = _timed(lambda: pipeline.compress(video, query, cfg))
            except Exception as exc:
                result.failed += 1
                result.problems.append(f"needle clip {i}: compress raised {exc!r}")
                continue
            result.latencies.append(elapsed)
            result.frames += video.n_frames
            result.videos += 1
            digest = _digest(tokens, stats.to_dict())
            if n > 0:
                if digest != first[i]:
                    result.problems.append(f"needle clip {i}: a repeat gave different outputs")
                continue
            first[i] = digest
            paths[0 if stats.n_full_res == stats.frames_after_temporal else 1 if stats.n_full_res else 2] += 1
            result.check(f"needle clip {i}", refs.check_compress(
                video.frames, QUERY_TOKENS, refs.Tokens.of(tokens), stats.to_dict(),
                l_max=NEEDLE_L_MAX, needle_index=index))

    _rounds(result, seconds, tracer, one_round)
    result.work_s = sum(result.latencies)
    result.digest = hashlib.sha256(b"".join(d or b"" for d in first)).hexdigest()
    result.notes["paths"] = paths
    result.memory_ops = [lambda c=c: pipeline.compress(c[0], c[1], cfg) for c in clips]
    return result


WORKLOADS = {"hour": hour, "corpus": corpus, "needle": needle}

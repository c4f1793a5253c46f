"""Synthetic feature videos and desk-scale reduction / needle-retention studies.

Videos are built from scenes with orthonormal base directions. Static scenes
add per-token Gaussian noise to a fixed textured base grid; dynamic scenes
overlay a normalized random walk on a contiguous sub-rectangle, modeling a
moving object over a static background. Everything is deterministic for a
fixed seed.

Each scene draws from its own random stream, spawned from the video's seed,
and writes only its own frames. ``gen_video`` therefore generates scenes in
parallel, one thread per usable CPU, and the bytes it returns do not depend on
the number of workers or on the order in which the scenes finish.
"""

from __future__ import annotations

import math
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BudgetInfeasibleError, InvalidConfigError, integer, numbers, real
from .pipeline import CompressionConfig, compress
from .query_select import QueryEmbedding
from .spatial import AnchorStrategy
from .temporal import FrameFeatureSequence, usable_cpus
from .tokens import LEVEL_CODE, CompressionStats

__all__ = [
    "SynthSpec",
    "NeedleSpec",
    "gen_video",
    "make_needle_grid",
    "make_aligned_query",
    "insert_needle",
    "needle_study",
    "reduction_report",
    "anchor_ablation",
    "ablation_report",
    "make_mixed_corpus",
]

# Generator texture and motion constants, tuned on the default mixed corpus
# so temporal keep rate and spatial reduction land near the reference means.
TEXTURE_SCALE = 0.5
ACTIVE_AREA_FRACTION = 0.66
ADJACENT_COS_RANGE = (0.35, 0.7)
NEEDLE_SCENE_LEN = 64
NEEDLE_QUERY_TOKENS = 24  # rows of each needle cell's query
CORPUS_SCENE_LEN = 128
CORPUS_FRAMES = (768, 1280)  # each corpus video's frame count is drawn from this range


def _in_unit(x) -> bool:
    return 0.0 <= x <= 1.0


def _check_frame_bytes(n_frames: int, grid, dim: int):
    """Raise unless ``n_frames`` float32 frames of ``grid`` x ``dim`` fit in
    one array, checked before anything is drawn or allocated."""
    size = n_frames * grid[0] * grid[1] * dim * 4
    if size > np.iinfo(np.intp).max:
        raise InvalidConfigError(
            f"{n_frames} frames of {grid[0]}x{grid[1]}x{dim} float32 features take "
            f"{size} bytes, more than one array can hold"
        )


@dataclass
class SynthSpec:
    """Recipe for one synthetic feature video."""

    n_frames: int
    n_scenes: int
    intra_scene_noise: float = 0.02
    drift_scenes_fraction: float = 0.3
    dim: int = 32
    grid: tuple[int, int] = (12, 12)
    seed: int = 0

    def validate(self):
        for name in ("n_frames", "n_scenes", "dim", "seed"):
            setattr(self, name, integer(getattr(self, name), name))
        for name in ("intra_scene_noise", "drift_scenes_fraction"):
            setattr(self, name, real(getattr(self, name), name))
        grid = self.grid
        if not (isinstance(grid, (tuple, list)) and len(grid) == 2):
            raise InvalidConfigError(f"grid must be two integers, got {grid!r}")
        self.grid = grid = numbers(grid, integer, "grid", "two integers")
        if self.n_frames < 1:
            raise InvalidConfigError(f"n_frames must be positive, got {self.n_frames}")
        if not (1 <= self.n_scenes <= self.n_frames):
            raise InvalidConfigError(
                f"n_scenes must be in [1, n_frames], got {self.n_scenes} for {self.n_frames} frames"
            )
        if not (0.0 <= self.intra_scene_noise < math.inf):
            raise InvalidConfigError(
                f"noise must be finite and >= 0, got {self.intra_scene_noise}"
            )
        if not (0.0 <= self.drift_scenes_fraction <= 1.0):
            raise InvalidConfigError(
                f"drift fraction must be in [0, 1], got {self.drift_scenes_fraction}"
            )
        if self.dim < 1 or min(self.grid) < 1:
            raise InvalidConfigError(f"dim and grid must be positive, got {self.dim}, {self.grid}")
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")
        _check_frame_bytes(self.n_frames, grid, self.dim)


@dataclass
class NeedleSpec:
    """Grid of needle-retention experiments over frame counts and depths."""

    haystack: SynthSpec
    depths: list[float] = field(default_factory=lambda: [0.0, 0.25, 0.5, 0.75, 1.0])
    frame_counts: list[int] = field(default_factory=lambda: [200, 400, 800, 1400, 2000, 3600])
    query_alignment: float = 1.0

    def validate(self):
        if not isinstance(self.haystack, SynthSpec):
            raise InvalidConfigError(f"haystack must be a SynthSpec, got {self.haystack!r}")
        self.haystack.validate()
        # len(), not truth: a numpy array of depths or counts is taken as a tuple is.
        if len(self.depths) == 0 or len(self.frame_counts) == 0:
            raise InvalidConfigError(
                f"depths and frame counts must be non-empty, "
                f"got {self.depths} and {self.frame_counts}"
            )
        self.depths = numbers(self.depths, real, "depths", "real numbers in [0, 1]", _in_unit)
        if sorted(self.depths) != list(self.depths):
            raise InvalidConfigError("depths must be sorted ascending")
        self.frame_counts = numbers(self.frame_counts, integer, "frame counts", "integers")
        if any(c < 1 for c in self.frame_counts):
            raise InvalidConfigError(f"frame counts must be positive, got {self.frame_counts}")
        for count in self.frame_counts:  # each haystack, with the needle frame inserted
            _check_frame_bytes(count + 1, self.haystack.grid, self.haystack.dim)
        alignment = real(self.query_alignment, "alignment", "a real number in [0, 1]", _in_unit)
        self.query_alignment = alignment


def _scene_bases(rng: np.random.Generator, n_scenes: int, dim: int) -> np.ndarray:
    """Unit base direction per scene; orthonormal whenever n_scenes <= dim."""
    raw = rng.standard_normal((dim, max(n_scenes, 1)))
    if n_scenes <= dim:
        q, r = np.linalg.qr(raw[:, :n_scenes])
        q *= np.sign(np.diag(r))  # fix QR sign ambiguity for determinism
        return q.T
    bases = raw.T[:n_scenes]
    return bases / np.linalg.norm(bases, axis=1, keepdims=True)


def _scene_lengths(rng: np.random.Generator, n_frames: int, n_scenes: int) -> np.ndarray:
    weights = rng.dirichlet(np.full(n_scenes, 6.0))
    lengths = np.maximum(1, np.floor(weights * n_frames).astype(np.int64))
    # The lengths must sum to n_frames: each surplus frame comes off the
    # longest scene and each missing frame goes onto the shortest, the
    # earliest on ties. In closed form, on the lengths negated for a deficit:
    # every scene is cut to the lowest ``level`` whose cut fits the surplus,
    # then the earliest scenes at ``level`` give one frame each for the rest.
    sign = 1 if lengths.sum() >= n_frames else -1
    signed = sign * lengths
    surplus = int(signed.sum()) - sign * n_frames

    def cut(level):
        return int(np.maximum(signed - level, 0).sum())

    low, level = int(signed.max()) - surplus - 1, int(signed.max())  # cut(low) > surplus
    while level - low > 1:
        mid = (low + level) // 2
        low, level = (low, mid) if cut(mid) <= surplus else (mid, level)
    rest = surplus - cut(level)
    signed = np.minimum(signed, level)
    signed[np.flatnonzero(signed == level)[:rest]] -= 1
    return sign * signed


def _snapped_span(rng: np.random.Generator, size: int, snap: int) -> int:
    # Stochastic rounding to snap multiples keeps the expected span on target
    # even when the snap quantum is coarse relative to the grid.
    target = size * np.sqrt(ACTIVE_AREA_FRACTION) / snap
    low = int(np.floor(target))
    units = low + (1 if rng.random() < target - low else 0)
    return min(size, max(snap, units * snap))


def _active_rect(rng: np.random.Generator, h: int, w: int) -> tuple[int, int, int, int]:
    # Object edges snap to quarter-grid boundaries; on the default 12-wide
    # grid those coincide with pooling-bin boundaries, keeping pooled tokens
    # purely "object" or purely "background".
    snap_h = max(1, round(h / 4))
    snap_w = max(1, round(w / 4))
    rh = _snapped_span(rng, h, snap_h)
    rw = _snapped_span(rng, w, snap_w)
    top = int(rng.integers(0, (h - rh) // snap_h + 1)) * snap_h
    left = int(rng.integers(0, (w - rw) // snap_w + 1)) * snap_w
    return top, left, rh, rw


def _normalized_walk(rng: np.random.Generator, steps: int, dim: int, step_scale: float) -> np.ndarray:
    """Random walk re-normalized to the unit sphere after every step."""
    out = np.empty((steps, dim))
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    out[0] = v
    # One draw gives the same numbers as one draw per step.
    moves = step_scale * rng.standard_normal((steps - 1, dim))
    for i in range(1, steps):
        v = v + moves[i - 1]
        v /= np.linalg.norm(v)
        out[i] = v
    return out


def _worker_count(n_scenes: int) -> int:
    """Threads for generating n_scenes: one per usable CPU, at most one per scene."""
    return max(1, min(usable_cpus(), n_scenes))


def _scene_into(
    out: np.ndarray,
    seed: np.random.SeedSequence,
    base_dir: np.ndarray,
    drift_alpha: float | None,
    noise: float,
):
    """Generate one scene from its own stream straight into ``out``, its
    (length, h, w, dim) float32 slice of the video. ``drift_alpha`` is the
    adjacent-frame cosine of a dynamic scene, None for a static one."""
    rng = np.random.default_rng(seed)
    length, h, w, dim = out.shape
    texture = rng.standard_normal((h, w, dim)) / np.sqrt(dim)
    base = base_dir[None, None, :] + TEXTURE_SCALE * texture
    base /= np.linalg.norm(base, axis=2, keepdims=True)
    rect = walk = None
    if drift_alpha is not None:
        top, left, rh, rw = _active_rect(rng, h, w)
        rect = (slice(None), slice(top, top + rh), slice(left, left + rw))
        # Per-step noise scale that yields the drawn adjacent-frame cosine.
        step = np.sqrt((1.0 / drift_alpha**2 - 1.0) / dim)
        walk = _normalized_walk(rng, length, dim, step)[:, None, None, :]
    # noise * z + base has the bits of base + noise * z: one float64 buffer,
    # no broadcast copy of the base and no temporaries. A noise that
    # overflows float32 is reported by gen_video, so numpy's overflow
    # warnings are silenced here, in the thread that does the arithmetic.
    scene = rng.standard_normal(out.shape)
    with np.errstate(over="ignore"):
        scene *= noise
        if rect is None:
            scene += base
        else:
            background = np.ones((h, w, 1), dtype=bool)
            background[rect[1:]] = False
            np.add(scene, base, out=scene, where=background)
            scene[rect] += walk
        out[...] = scene


def _structure(spec: SynthSpec) -> tuple[np.ndarray, np.random.Generator, list]:
    """The scene bases, first drawn from the structure stream, that stream and
    one seed per scene; the needle is orthogonal to ``gen_video``'s bases here."""
    structure, *scenes = np.random.SeedSequence(spec.seed).spawn(spec.n_scenes + 1)
    rng = np.random.default_rng(structure)
    return _scene_bases(rng, spec.n_scenes, spec.dim), rng, scenes


def gen_video(spec: SynthSpec) -> FrameFeatureSequence:
    """Generate a deterministic scene-structured feature video."""
    spec.validate()
    h, w = spec.grid
    bases, struct_rng, seeds = _structure(spec)
    lengths = _scene_lengths(struct_rng, spec.n_frames, spec.n_scenes)
    is_drift = struct_rng.random(spec.n_scenes) < spec.drift_scenes_fraction
    alphas = struct_rng.uniform(*ADJACENT_COS_RANGE, size=spec.n_scenes)

    frames = np.empty((spec.n_frames, h, w, spec.dim), dtype=np.float32)
    ends = np.cumsum(lengths)
    jobs = [
        (
            frames[end - length : end],
            seeds[s],
            bases[s],
            alphas[s] if is_drift[s] else None,
            spec.intra_scene_noise,
        )
        for s, (length, end) in enumerate(zip(lengths.tolist(), ends.tolist()))
    ]
    with ThreadPoolExecutor(max_workers=_worker_count(spec.n_scenes)) as pool:
        for done in [pool.submit(_scene_into, *job) for job in jobs]:
            done.result()
    try:
        return FrameFeatureSequence(frames)
    except ValueError:  # noise * z overflowed float32: the features are not finite
        raise InvalidConfigError(f"noise {spec.intra_scene_noise} overflows the float32 features") from None


def make_needle_grid(spec: SynthSpec) -> np.ndarray:
    """A needle frame, an (h, w, dim) float32 array whose single direction is
    orthogonalized against every scene base of the haystack spec (as far as
    the dimension allows), from a spec checked as ``gen_video`` checks it."""
    spec.validate()
    h, w = spec.grid
    bases = _structure(spec)[0]
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x6E65]))
    v = rng.standard_normal(spec.dim)
    for b in bases[: spec.dim - 1]:
        v -= v.dot(b) * b
    norm = np.linalg.norm(v)
    if norm < 1e-9:
        raise InvalidConfigError("haystack bases span the space; no orthogonal needle exists")
    v /= norm
    return np.broadcast_to(v.astype(np.float32), (h, w, spec.dim)).copy()


def make_aligned_query(
    needle: np.ndarray, alignment: float, n_tokens: int, seed: int
) -> QueryEmbedding:
    """Query rows mixing the needle frame's direction with random noise directions."""
    dim = needle.shape[-1]
    direction = needle.reshape(-1, dim).mean(axis=0).astype(np.float64)
    direction /= np.linalg.norm(direction)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x71]))
    noise = rng.standard_normal((n_tokens, dim))
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    rows = alignment * direction[None, :] + (1.0 - alignment) * noise
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return QueryEmbedding(rows.astype(np.float32))


def insert_needle(
    seq: FrameFeatureSequence, needle: np.ndarray, depth: float
) -> tuple[FrameFeatureSequence, int]:
    """Insert the needle frame at round(depth * n_frames). Timesteps are frame
    indices, so every frame after the needle moves one second later."""
    depth = real(depth, "depth", "a real number in [0, 1]", _in_unit)
    if needle.shape != seq.frames.shape[1:]:
        raise InvalidConfigError(
            f"needle shape {needle.shape} does not match frames {seq.frames.shape[1:]}"
        )
    index = int(round(depth * seq.n_frames))
    return FrameFeatureSequence(np.insert(seq.frames, index, needle, axis=0)), index


def _cell_seed(base: int, count: int, depth: float) -> int:
    mix = np.random.SeedSequence([base, count, int(round(depth * 1000))])
    return int(mix.generate_state(1, np.uint64)[0] % (2**63))


def needle_study(spec: NeedleSpec, cfgs: list[CompressionConfig]) -> list[list[dict]]:
    """One result list per config. Each (frame count, depth) cell's haystack,
    needle and query are built once and compressed under every config; each
    result says whether the needle frame survived, at what resolution, and
    how many of its tokens. A budget-infeasible run gives no output: its
    ``tokens_final`` and needle fields are None, and ``n_full_res`` comes
    from the stats its error carries."""
    spec.validate()
    per_cfg = [[] for _ in cfgs]
    for count in spec.frame_counts:
        for depth in spec.depths:
            cell = replace(
                spec.haystack,
                n_frames=count,
                n_scenes=max(1, count // NEEDLE_SCENE_LEN),
                seed=_cell_seed(spec.haystack.seed, count, depth),
            )
            haystack = gen_video(cell)
            needle = make_needle_grid(cell)
            video, index = insert_needle(haystack, needle, depth)
            query = make_aligned_query(needle, spec.query_alignment, NEEDLE_QUERY_TOKENS, cell.seed)
            for results, cfg in zip(per_cfg, cfgs):
                try:
                    compressed, stats = compress(video, query, cfg)
                except BudgetInfeasibleError as exc:
                    compressed, stats = None, exc.stats
                full = fraction = survives = None
                if compressed is not None:
                    mask = compressed.frame_indices == index
                    kept = int(mask.sum())
                    full = bool((compressed.levels[mask] == LEVEL_CODE["full"]).any())
                    fraction = kept / (video.grid_h * video.grid_w)
                    survives = kept > 0
                results.append(
                    {
                        "frame_count": count,
                        "depth": depth,
                        "needle_index": index,
                        "needle_full_res": full,
                        "needle_tokens_kept_fraction": fraction,
                        "any_token_survives": survives,
                        "n_full_res": stats.n_full_res,
                        "tokens_final": stats.tokens_final,
                    }
                )
    return per_cfg


def make_mixed_corpus(n_videos: int, seed: int) -> list[SynthSpec]:
    """Calibrated corpus mixing static and dynamic scenes across videos, at
    ``SynthSpec``'s default dim and grid.

    The drift-fraction range centers the corpus means near the reference keep
    and reduction rates. Lengths are drawn without regard to content, so at
    the default config most runs are still over budget after pooling and reach
    the spatial stage, but a video with a low keep rate may fit after the
    query stage, and one with a high keep rate may be budget-infeasible.
    ``reduction_report`` reports both kinds.
    """
    n_videos = integer(n_videos, "corpus size", "a positive integer", lambda n: n >= 1)
    seed = integer(seed, "seed", "an integer >= 0", lambda s: s >= 0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))
    specs = []
    for _ in range(n_videos):
        n_frames = int(rng.integers(CORPUS_FRAMES[0], CORPUS_FRAMES[1] + 1))
        specs.append(
            SynthSpec(
                n_frames=n_frames,
                n_scenes=max(1, n_frames // CORPUS_SCENE_LEN),
                intra_scene_noise=0.02,
                drift_scenes_fraction=float(rng.uniform(0.28, 0.44)),
                seed=int(rng.integers(0, 2**63)),
            )
        )
    return specs


def _report_query(dim: int, seed: int) -> QueryEmbedding:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E]))
    rows = rng.standard_normal((8, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return QueryEmbedding(rows.astype(np.float32))


def _study(corpus: list[SynthSpec], cfgs: list[CompressionConfig]) -> list[list[CompressionStats]]:
    """Stats of every corpus video under each config, generating each video
    once. A budget-infeasible run gives the stats its error carries."""
    if not corpus:
        raise InvalidConfigError("corpus must contain at least one video spec")
    per_cfg = [[] for _ in cfgs]
    for spec in corpus:
        video = gen_video(spec)
        query = _report_query(spec.dim, spec.seed)
        for per_video, cfg in zip(per_cfg, cfgs):
            try:
                per_video.append(compress(video, query, cfg)[1])
            except BudgetInfeasibleError as exc:
                per_video.append(exc.stats)
    return per_cfg


def _aggregate(per_video: list[CompressionStats]) -> dict:
    keep_rates = [s.temporal_keep_rate for s in per_video]
    stc_rates = [s.spatial_reduction_rate for s in per_video]
    total_rates = [s.total_reduction_rate for s in per_video if s.tokens_final is not None]
    keep_hist, edges = np.histogram(keep_rates, bins=10, range=(0.0, 1.0))
    stc_hist, _ = np.histogram(stc_rates, bins=10, range=(0.0, 1.0))
    return {
        "n_videos": len(per_video),
        "n_infeasible": len(per_video) - len(total_rates),
        "mean_frames_kept": statistics.fmean(keep_rates),
        "mean_tokens_reduced": statistics.fmean(stc_rates),
        "mean_total_reduction": statistics.fmean(total_rates) if total_rates else None,
        "frames_kept_histogram": keep_hist.tolist(),
        "tokens_reduced_histogram": stc_hist.tolist(),
        "histogram_bin_edges": edges.tolist(),
    }


def reduction_report(
    corpus: list[SynthSpec], cfg: CompressionConfig
) -> tuple[list[CompressionStats], dict]:
    """Compress every corpus video and aggregate the per-stage reduction rates.

    Returns one stats entry per video. A budget-infeasible video contributes
    the stats carried by its ``BudgetInfeasibleError``: its stage rates count
    towards the means and histograms, while ``tokens_final`` is None and it is
    counted in ``n_infeasible``. ``mean_total_reduction`` averages only the
    videos that produced an output and is None when none did.
    """
    (per_video,) = _study(corpus, [cfg])
    return per_video, _aggregate(per_video)


def ablation_report(
    corpus: list[SynthSpec], cfg: CompressionConfig
) -> tuple[list[CompressionStats], dict, dict[str, float]]:
    """``reduction_report`` at ``cfg`` and ``anchor_ablation`` from one study.

    Each video is generated once and compressed once under every anchor
    strategy; the run under the configured strategy gives the report.
    """
    strategies = list(AnchorStrategy)
    per_cfg = _study(corpus, [replace(cfg, anchor=s) for s in strategies])
    per_video = per_cfg[strategies.index(AnchorStrategy(cfg.anchor))]
    ablation = {
        s.value: _aggregate(stats)["mean_tokens_reduced"] for s, stats in zip(strategies, per_cfg)
    }
    return per_video, _aggregate(per_video), ablation


def anchor_ablation(corpus: list[SynthSpec], cfg: CompressionConfig) -> dict[str, float]:
    """Mean spatial reduction rate of each anchor strategy on one corpus.

    Each video is generated once and compressed under every strategy; the
    rates equal those of ``reduction_report`` run once per strategy.
    """
    return ablation_report(corpus, cfg)[2]

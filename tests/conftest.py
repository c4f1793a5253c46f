import json
import struct

import numpy as np
import pytest

from vtcompress import FrameFeatureSequence, QueryEmbedding
from vtcompress.numerics import pool_batch
from vtcompress.query_select import MixedResolutionSequence
from vtcompress.spatial import AnchorStrategy, PruningPlan
from vtcompress.temporal import _window_sims, cosines, window_minima
from vtcompress.tokens import LEVEL_CODE, CompressedTokenSequence


@pytest.fixture
def rng():
    return np.random.default_rng(20240521)


def constant_grid(vector, h=2, w=2) -> np.ndarray:
    """An (h, w, dim) frame where every token equals the given vector."""
    v = np.asarray(vector, dtype=np.float32)
    return np.broadcast_to(v, (h, w, v.shape[0])).copy()


def sequence_from_vectors(vectors, h=2, w=2) -> FrameFeatureSequence:
    """One constant-token frame per vector."""
    return FrameFeatureSequence(np.stack([constant_grid(v, h, w) for v in vectors]))


def partition_windows(n_frames: int, j: int) -> list[tuple[int, int]]:
    """Split [0, n_frames) into consecutive windows of length j (last may be short)."""
    return [(s, min(s + j, n_frames)) for s in range(0, n_frames, j)]


def pool_frame(frame, out_h, out_w) -> np.ndarray:
    """One (h, w, dim) frame average-pooled to (out_h, out_w, dim)."""
    return pool_batch(np.asarray(frame, dtype=np.float32)[None], out_h, out_w, np.arange(1))[0]


def scene_lengths_loop(rng, n_frames, n_scenes) -> np.ndarray:
    """Scene lengths that sum to ``n_frames``, moving one frame per step:
    off the longest scene while over, onto the shortest while under, the
    earliest on ties. The reference for ``synthbench._scene_lengths``."""
    weights = rng.dirichlet(np.full(n_scenes, 6.0))
    lengths = np.maximum(1, np.floor(weights * n_frames).astype(np.int64))
    while lengths.sum() > n_frames:
        lengths[int(np.argmax(lengths))] -= 1
    while lengths.sum() < n_frames:
        lengths[int(np.argmin(lengths))] += 1
    return lengths


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row (last axis) of ``x`` at unit norm, in a new array, where a zero row stays
    zero; and a flag per row, set on the zero rows. The reference for
    ``temporal._unit_rows_in_place``."""
    norms = np.linalg.norm(x, axis=-1)
    zero = norms == 0.0
    return x / np.where(zero, 1.0, norms)[..., None], zero


def frame_summaries(seq: FrameFeatureSequence) -> np.ndarray:
    """Each frame's unit-norm mean token, (n_frames, dim) float32, as stage 1
    scores it: ``seq.means`` at unit norm, rounded to float32. A zero mean
    stays zero (``temporal.cosines``)."""
    return unit_rows(seq.means)[0].astype(np.float32)


def window_average_similarity(summaries) -> np.ndarray:
    """Average cosine similarity of each frame to the others in one window
    of (frames, dim) summaries, as stage 1 scores it; a single-frame window
    returns [0.0]. The per-window oracle of the temporal tests."""
    return _window_sims(np.asarray(summaries, dtype=np.float64)[None])[0]


def cosine(u, v) -> float:
    """Cosine of the angle between two nonzero vectors, in float64."""
    a, b = np.asarray(u, dtype=np.float64).ravel(), np.asarray(v, dtype=np.float64).ravel()
    return float(a.dot(b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def assert_tokens_equal(a, b):
    """Field-wise equality of two CompressedTokenSequences, dtypes included."""
    for name in ("frame_indices", "timesteps", "grid_rows", "grid_cols", "levels", "vectors"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def packed_lvuc(seq: CompressedTokenSequence, stats) -> bytes:
    """The LVUC file of ``seq`` and ``stats``, packed record by record with
    ``struct``: the header, then each token's frame index (u32), timestep
    (its frame index as f32), grid row and column (u16), level (u8) and
    vector (f32), all little-endian, then the length-prefixed stats JSON."""
    n, d = seq.vectors.shape
    parts = [struct.pack("<4sIII", b"LVUC", 1, n, d)]
    for i in range(n):
        f = int(seq.frame_indices[i])
        parts.append(struct.pack("<IfHHB", f, f, seq.grid_rows[i], seq.grid_cols[i], seq.levels[i]))
        parts.append(struct.pack(f"<{d}f", *seq.vectors[i].tolist()))
    blob = json.dumps(stats.to_dict(), sort_keys=True, separators=(",", ":")).encode()
    return b"".join(parts) + struct.pack("<I", len(blob)) + blob


def random_sequence(rng, n_frames, h, w, dim, scale=1.0) -> FrameFeatureSequence:
    frames = (scale * rng.standard_normal((n_frames, h, w, dim))).astype(np.float32)
    return FrameFeatureSequence(frames)


def random_query(rng, n_tokens, dim) -> QueryEmbedding:
    return QueryEmbedding(rng.standard_normal((n_tokens, dim)).astype(np.float32))


def scores_oracle(frames, query):
    """Exhaustive mean over every (token, query row) dot product."""
    out = []
    for f in range(frames.shape[0]):
        total = 0.0
        count = 0
        for h in range(frames.shape[1]):
            for w in range(frames.shape[2]):
                token = frames[f, h, w].astype(np.float64)
                for row in query.rows.astype(np.float64):
                    total += float(token @ row)
                    count += 1
        out.append(total / count)
    return np.array(out)


# The whole-table reference that ``select_and_pool``'s output is held to, kept
# apart from the program; ``pipeline.flatten`` gathers its rows.
def token_table(
    seq: FrameFeatureSequence,
    kept: np.ndarray,
    full: np.ndarray,
    tokens_low: tuple[int, int],
) -> MixedResolutionSequence:
    """Lay out the input frames ``kept`` as a token table: table frame i is
    input frame ``kept[i]``, with timestep ``kept[i]``, at full resolution
    where ``full[i]``, otherwise average-pooled to ``tokens_low``.

    Frames are read from ``seq.frames`` by index. Full frames are gathered
    straight into the table; only the pooled frames are pooled, in frame
    order, each chunk gathered inside the pooling. Every array of the table
    is new, so it may be changed in place without reaching the input.
    """
    frames = seq.frames
    kept = np.asarray(kept, dtype=np.int64)
    _, h_h, w_h, dim = frames.shape
    h_l, w_l = tokens_low
    sizes = np.where(full, h_h * w_h, h_l * w_l)
    offsets = np.cumsum(sizes) - sizes  # each frame's first row
    n_rows = int(sizes.sum())
    if full.all():
        vectors = frames[kept].reshape(-1, dim)
    elif not full.any():
        vectors = pool_batch(frames, h_l, w_l, index=kept).reshape(-1, dim)
    else:
        vectors = np.empty((n_rows, dim), dtype=np.float32)
        token_full = np.repeat(full, sizes)
        vectors[token_full] = frames[kept[full]].reshape(-1, dim)
        vectors[~token_full] = pool_batch(frames, h_l, w_l, index=kept[~full]).reshape(-1, dim)
    local = np.arange(n_rows) - np.repeat(offsets, sizes)
    width = np.repeat(np.where(full, w_h, w_l), sizes)
    level = np.where(full, LEVEL_CODE["full"], LEVEL_CODE["pooled"])
    tokens = CompressedTokenSequence(
        frame_indices=np.repeat(kept, sizes),
        grid_rows=local // width,
        grid_cols=local % width,
        levels=np.repeat(level, sizes),
        vectors=vectors,
    )
    return MixedResolutionSequence(tokens, kept.shape[0])


# Stage 3 worked out over a whole stack at once, kept apart from the program:
# the reference that ``spatial.build_plan``, which plans one window at a time,
# is held to.
def anchor_frames(stack: np.ndarray, k: int, strategy) -> np.ndarray:
    """One flag per frame of a (frames, tokens, dim) stack, set on each
    window's anchor. Windows are k consecutive frames, the last possibly
    shorter. ``first`` and ``middle`` are positional; ``middle`` is
    floor(length / 2). ``high_change`` picks the frame whose mean-token
    cosine to its predecessor in the window is minimal (ties toward the
    earliest frame; a one-frame window's only frame), with the cosines of
    the whole stack taken at once."""
    strategy = AnchorStrategy(strategy)
    n = stack.shape[0]
    k = min(k, n)
    starts = np.arange(0, n, k)
    if strategy is AnchorStrategy.FIRST:
        anchors = starts
    elif strategy is AnchorStrategy.MIDDLE:
        anchors = starts + np.minimum(n - starts, k) // 2
    else:
        unit, zero = unit_rows(stack.mean(axis=1, dtype=np.float64))
        change = np.empty(n)
        change[1:] = cosines(np.einsum("id,id->i", unit[1:], unit[:-1]), zero[1:], zero[:-1])
        change[starts] = np.inf  # no predecessor in the window
        anchors = window_minima(change, k)
    is_anchor = np.zeros(n, dtype=bool)
    is_anchor[anchors] = True
    return is_anchor


def anchor_sims(window: np.ndarray, anchor_idx: int) -> np.ndarray:
    """Per-position float64 similarity of every frame of a (n, h, w, dim)
    window to the anchor, -inf on the anchor's tokens and wherever either
    vector has zero norm; the whole window taken to float64 at once."""
    g64 = window.astype(np.float64)
    dots = np.einsum("fhwd,hwd->fhw", g64, g64[anchor_idx])
    norms = np.sqrt(np.add.reduce(np.square(g64), axis=3))
    denom = norms * norms[anchor_idx][None, :, :]
    sims = np.full(dots.shape, -np.inf)
    np.divide(dots, denom, out=sims, where=denom > 0.0)
    np.clip(sims, -1.0, 1.0, out=sims, where=denom > 0.0)
    sims[anchor_idx] = -np.inf
    return sims


def plan_oracle(frames: np.ndarray, k: int, strategy, thresholds) -> PruningPlan:
    """The ``PruningPlan`` of a (frames, h, w, dim) float32 stack: the anchors
    of ``anchor_frames`` over the whole stack, and each token's rung, the
    count of ``thresholds`` at or above its ``anchor_sims`` similarity."""
    n, h, w, dim = frames.shape
    thresholds = tuple(thresholds)
    is_anchor = anchor_frames(frames.reshape(n, h * w, dim), k, strategy)
    rungs = np.empty((n, h, w), dtype=np.uint8)
    for start, a in zip(range(0, n, k), np.flatnonzero(is_anchor)):
        sims = anchor_sims(frames[start : start + k], a - start)
        rungs[start : start + k] = sum((sims <= t).astype(np.uint8) for t in thresholds)
    return PruningPlan(rungs.reshape(-1), np.repeat(is_anchor, h * w), thresholds)

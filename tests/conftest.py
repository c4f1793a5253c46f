import json
import struct

import numpy as np
import pytest

from vtcompress import FrameFeatureSequence, QueryEmbedding
from vtcompress.numerics import pool_batch
from vtcompress.query_select import MixedResolutionSequence
from vtcompress.temporal import _window_sims, unit_rows
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

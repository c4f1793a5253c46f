import numpy as np
import pytest

from vtcompress import FrameFeatureSequence, QueryEmbedding
from vtcompress.numerics import pool_batch
from vtcompress.temporal import _window_sims


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

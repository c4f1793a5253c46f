import numpy as np
import pytest

from vtcompress import FrameFeatureSequence, QueryEmbedding, TokenGrid


@pytest.fixture
def rng():
    return np.random.default_rng(20240521)


def constant_grid(vector, h=2, w=2) -> TokenGrid:
    """Grid where every token equals the given vector."""
    v = np.asarray(vector, dtype=np.float32)
    return TokenGrid(np.broadcast_to(v, (h, w, v.shape[0])).copy())


def sequence_from_vectors(vectors, h=2, w=2) -> FrameFeatureSequence:
    """One constant-token frame per vector, timestep = index."""
    grids = [constant_grid(v, h, w) for v in vectors]
    return FrameFeatureSequence.from_grids(grids)


def random_sequence(rng, n_frames, h, w, dim, scale=1.0) -> FrameFeatureSequence:
    frames = (scale * rng.standard_normal((n_frames, h, w, dim))).astype(np.float32)
    return FrameFeatureSequence(frames, np.arange(n_frames, dtype=np.float64))


def sequence_of(frames, timesteps=None) -> FrameFeatureSequence:
    """A sequence over a frame stack, timestep = index unless given."""
    if timesteps is None:
        timesteps = np.arange(len(frames), dtype=np.float64)
    return FrameFeatureSequence(frames, timesteps)


def random_query(rng, n_tokens, dim) -> QueryEmbedding:
    return QueryEmbedding(rng.standard_normal((n_tokens, dim)).astype(np.float32))

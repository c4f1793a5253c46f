import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcompress import (
    AdapterShapeError,
    AdapterSpec,
    InvalidPoolingError,
    QueryEmbedding,
    ZeroVectorError,
    frame_query_scores,
)
from vtcompress.numerics import POOL_CHUNK_FRAMES, TokenGrid, pool_batch, pool_tokens
from vtcompress.temporal import window_average_similarity

from .conftest import constant_grid, pool_frame, scores_oracle, sequence_from_vectors, sequence_of

nonzero_vectors = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=24
).filter(lambda xs: math.sqrt(sum(x * x for x in xs)) > 1e-3)


def pair_scores(u, v) -> np.ndarray:
    """Both scores of the two-frame window [u, v]; each is the pair's cosine."""
    return window_average_similarity(np.stack([np.asarray(u, float), np.asarray(v, float)]))


class TestCosineSimilarity:
    """The cosine of a pair, as ``window_average_similarity`` scores a
    two-frame window."""

    def test_identical(self):
        assert pair_scores([1.0, 0.0], [1.0, 0.0]) == pytest.approx([1.0, 1.0])

    def test_orthogonal(self):
        assert pair_scores([1.0, 0.0], [0.0, 1.0]) == pytest.approx([0.0, 0.0])

    def test_hand_value(self):
        # (3,4)·(4,3) = 24, norms 5 and 5
        assert pair_scores([3.0, 4.0], [4.0, 3.0]) == pytest.approx([24 / 25] * 2, abs=1e-12)

    def test_symmetry(self, rng):
        u, v = rng.standard_normal(8), rng.standard_normal(8)
        assert pair_scores(u, v).tolist() == pair_scores(v, u)[::-1].tolist()

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            pair_scores([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ZeroVectorError):
            pair_scores([1.0, 0.0], [0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):  # the rows do not form one array
            window_average_similarity([[1.0], [1.0, 2.0]])

    @given(nonzero_vectors)
    def test_self_similarity_is_one(self, xs):
        assert pair_scores(xs, xs) == pytest.approx([1.0, 1.0], abs=1e-6)

    @given(nonzero_vectors, st.floats(min_value=1e-3, max_value=1e3))
    def test_positive_scaling_invariance(self, xs, scale):
        probe = [1.0] + [0.0] * (len(xs) - 1)
        ref = pair_scores(xs, probe)
        assert pair_scores([x * scale for x in xs], probe) == pytest.approx(ref, abs=1e-6)
        assert pair_scores(xs, [p * scale for p in probe]) == pytest.approx(ref, abs=1e-6)

    def test_range_clamped(self, rng):
        for _ in range(50):
            u = rng.standard_normal(4) * 1e-4
            if np.linalg.norm(u) == 0:
                continue
            scores = pair_scores(u, 2 * u)
            assert (-1.0 <= scores).all() and (scores <= 1.0).all()


def pool_oracle(data: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Brute-force reference pooling: mean over every bin's slice."""
    h, w, d = data.shape
    out = np.empty((out_h, out_w, d), dtype=np.float32)
    for p in range(out_h):
        r0 = (p * h) // out_h
        r1 = math.ceil((p + 1) * h / out_h)
        for q in range(out_w):
            c0 = (q * w) // out_w
            c1 = math.ceil((q + 1) * w / out_w)
            out[p, q] = data[r0:r1, c0:c1].astype(np.float64).mean(axis=(0, 1))
    return out


class TestAdaptiveAvgPool:
    def test_all_ones_to_single(self):
        pooled = pool_frame(constant_grid([1.0], 2, 2), 1, 1)
        assert pooled.shape == (1, 1, 1)
        assert pooled[0, 0, 0] == 1.0

    def test_quadrant_means(self):
        data = np.zeros((4, 4, 1), dtype=np.float32)
        data[:2, :2] = 1.0
        data[:2, 2:] = 2.0
        data[2:, :2] = 3.0
        data[2:, 2:] = 4.0
        pooled = pool_frame(data, 2, 2)
        assert pooled[:, :, 0].tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_12x12_to_8x8_matches_oracle(self, rng):
        data = rng.standard_normal((12, 12, 5)).astype(np.float32)
        pooled = pool_frame(data, 8, 8)
        assert np.array_equal(pooled, pool_oracle(data, 8, 8))

    @pytest.mark.parametrize("shape,out", [((7, 9, 3), (5, 4)), ((6, 6, 2), (6, 1)), ((5, 3, 4), (2, 3))])
    def test_odd_shapes_match_oracle(self, rng, shape, out):
        data = rng.standard_normal(shape).astype(np.float32)
        pooled = pool_frame(data, *out)
        assert np.array_equal(pooled, pool_oracle(data, *out))

    def test_identity_when_same_dims(self, rng):
        data = rng.standard_normal((5, 7, 3)).astype(np.float32)
        pooled = pool_frame(data, 5, 7)
        assert np.array_equal(pooled, data)

    def test_upsampling_rejected(self):
        grid = constant_grid([1.0], 2, 2)
        with pytest.raises(InvalidPoolingError):
            pool_frame(grid, 3, 2)
        with pytest.raises(InvalidPoolingError):
            pool_frame(grid, 2, 0)

    def test_values_within_bin_bounds(self, rng):
        for _ in range(20):
            h, w = int(rng.integers(1, 13)), int(rng.integers(1, 13))
            oh, ow = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
            data = rng.standard_normal((h, w, 2)).astype(np.float32)
            pooled = pool_frame(data, oh, ow)
            for p in range(oh):
                r0, r1 = (p * h) // oh, math.ceil((p + 1) * h / oh)
                for q in range(ow):
                    c0, c1 = (q * w) // ow, math.ceil((q + 1) * w / ow)
                    window = data[r0:r1, c0:c1]
                    assert (pooled[p, q] >= window.min(axis=(0, 1))).all()
                    assert (pooled[p, q] <= window.max(axis=(0, 1))).all()

    def test_global_mean_preserved_for_even_partition(self, rng):
        data = rng.standard_normal((8, 8, 3)).astype(np.float32)
        pooled = pool_frame(data, 4, 4)
        np.testing.assert_allclose(
            pooled.mean(axis=(0, 1)), data.mean(axis=(0, 1)), atol=1e-6
        )

    def test_batch_matches_single(self, rng):
        stack = rng.standard_normal((6, 12, 12, 4)).astype(np.float32)
        batch = pool_batch(stack, 8, 8)
        for i in range(6):
            assert np.array_equal(batch[i], pool_frame(stack[i], 8, 8))


class TestPoolBatch:
    @pytest.mark.parametrize(
        "grid,out",
        [((12, 12), (5, 5)), ((7, 7), (3, 3)), ((12, 12), (8, 8)), ((5, 9), (2, 4)), ((5, 9), (5, 9))],
    )
    def test_matches_float64_bin_means(self, rng, grid, out):
        stack = rng.standard_normal((3, *grid, 6)).astype(np.float32)
        expected = np.stack([pool_oracle(frame, *out) for frame in stack])
        assert np.array_equal(pool_batch(stack, *out), expected)

    def test_longer_than_a_chunk_matches_single_frames(self, rng):
        stack = rng.standard_normal((2 * POOL_CHUNK_FRAMES + 3, 12, 12, 4)).astype(np.float32)
        batch = pool_batch(stack, 8, 8)
        for i in range(stack.shape[0]):
            assert np.array_equal(batch[i], pool_batch(stack[i : i + 1], 8, 8)[0])

    def test_empty_stack(self):
        assert pool_batch(np.zeros((0, 12, 12, 4), dtype=np.float32), 8, 8).shape == (0, 8, 8, 4)

    def test_peak_memory_below_twice_the_stack(self, rng):
        stack = rng.standard_normal((2000, 12, 12, 64), dtype=np.float32)
        tracemalloc.start()
        try:
            pool_batch(stack, 8, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * stack.nbytes


def pool_in_order(frame: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Reference pooling that fixes the order of addition: each bin's
    columns are summed down from a float64 zero, then the column sums are
    added across, also from zero, and the sum is divided by the cell count.
    A grid pooled to its own size is returned as it is."""
    h, w, d = frame.shape
    if (h, w) == (out_h, out_w):
        return frame.copy()
    out = np.empty((out_h, out_w, d), dtype=np.float32)
    for p in range(out_h):
        r0, r1 = (p * h) // out_h, math.ceil((p + 1) * h / out_h)
        for q in range(out_w):
            c0, c1 = (q * w) // out_w, math.ceil((q + 1) * w / out_w)
            total = np.zeros(d)
            for c in range(c0, c1):
                column = np.zeros(d)
                for r in range(r0, r1):
                    column += frame[r, c].astype(np.float64)
                total += column
            out[p, q] = total / ((r1 - r0) * (c1 - c0))
    return out


@st.composite
def wide_range_stacks(draw, max_frames=4):
    """A float32 (frames, h, w, dim) stack of both signs with magnitudes from
    e^-20 to e^20, and some cells +0.0 or -0.0; plus a pooled grid no larger
    than it on either side. Each stack draws its cells from three
    magnitudes, so bins often hold a value and its negation: float64 sums
    of such cells round, and the bits of a mean depend on the order of
    addition."""
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    out_h, out_w = draw(st.integers(1, h)), draw(st.integers(1, w))
    n, dim = draw(st.integers(1, max_frames)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n, h, w, dim)
    magnitudes = np.exp(rng.uniform(-20.0, 20.0, 3))
    stack = (rng.choice([-1.0, 1.0], shape) * rng.choice(magnitudes, shape)).astype(np.float32)
    stack[rng.random(shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    stack[rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = -0.0
    return stack, out_h, out_w, rng


class TestPoolTokens:
    @settings(max_examples=300, deadline=None)
    @given(wide_range_stacks())
    def test_pool_batch_adds_in_the_stated_order(self, case):
        stack, out_h, out_w, _ = case
        expected = np.stack([pool_in_order(frame, out_h, out_w) for frame in stack])
        assert pool_batch(stack, out_h, out_w).tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(wide_range_stacks(), st.integers(0, 60))
    def test_equals_pool_batch_bit_for_bit(self, case, m):
        stack, out_h, out_w, rng = case
        frames = rng.integers(0, stack.shape[0], m)
        rows, cols = rng.integers(0, out_h, m), rng.integers(0, out_w, m)
        got = pool_tokens(stack, out_h, out_w, frames, rows, cols)
        assert got.shape == (m, stack.shape[3]) and got.dtype == np.float32
        assert got.tobytes() == pool_batch(stack, out_h, out_w)[frames, rows, cols].tobytes()

    @pytest.mark.parametrize("grid,out", [((7, 9), (3, 4)), ((12, 12), (8, 8)), ((16, 5), (3, 5))])
    def test_more_tokens_than_a_chunk(self, rng, grid, out):
        stack = rng.standard_normal((40, *grid, 3)).astype(np.float32)
        m = 2 * POOL_CHUNK_FRAMES * out[0] * out[1] + 7
        frames = np.sort(rng.integers(0, 40, m))
        rows, cols = rng.integers(0, out[0], m), rng.integers(0, out[1], m)
        got = pool_tokens(stack, *out, frames, rows, cols)
        assert np.array_equal(got, pool_batch(stack, *out)[frames, rows, cols])

    def test_upsampling_rejected(self):
        stack = np.ones((1, 2, 2, 1), dtype=np.float32)
        with pytest.raises(InvalidPoolingError):
            pool_tokens(stack, 3, 2, [0], [0], [0])


class TestFrameSummary:
    """The unit-norm mean token of a frame, as ``FrameFeatureSequence.summaries``."""

    def test_constant_grid_normalizes(self):
        out = sequence_from_vectors([[2.0, 0.0]]).summaries()[0]
        assert np.allclose(out, [1.0, 0.0])

    def test_two_token_mean(self):
        frame = np.array([[[1.0, 0.0], [0.0, 1.0]]], dtype=np.float32)
        out = sequence_of(frame[None]).summaries()[0]
        assert np.allclose(out, [1 / math.sqrt(2)] * 2, atol=1e-7)

    def test_zero_grid_raises(self):
        with pytest.raises(ZeroVectorError):
            sequence_from_vectors([[0.0, 0.0]]).summaries()

    def test_unit_norm(self, rng):
        seq = sequence_of(rng.standard_normal((100, 3, 4, 6)).astype(np.float32))
        summaries = seq.summaries()
        assert summaries.shape == (100, 6)
        for row in summaries:
            assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-6)


def adapted_scores(adapter, frames, query_rows) -> np.ndarray:
    """``frame_query_scores`` of a (frames, h, w, dim) stack, checked against
    the exhaustive (token, query row) oracle."""
    query = QueryEmbedding(np.asarray(query_rows, dtype=np.float32))
    scores = frame_query_scores(sequence_of(frames).means, query, adapter)
    np.testing.assert_allclose(scores, scores_oracle(frames, query, adapter), atol=1e-6)
    return scores


class TestApplyAdapter:
    """Adapters as ``frame_query_scores`` applies them to each frame's mean token."""

    def test_identity_equals_linear_identity(self, rng):
        frames = rng.standard_normal((3, 2, 3, 4)).astype(np.float32)
        rows = rng.standard_normal((2, 4))
        identity = adapted_scores(AdapterSpec.identity(), frames, rows)
        linear = adapted_scores(AdapterSpec.linear(np.eye(4)), frames, rows)
        assert identity.tobytes() == linear.tobytes()

    def test_scalar_multiple(self):
        adapter = AdapterSpec.linear(2.0 * np.eye(2))
        scores = adapted_scores(adapter, constant_grid([1.0, 2.0])[None], [[1.0, 0.0], [0.0, 1.0]])
        assert scores == pytest.approx([(2.0 + 4.0) / 2])

    def test_swap_matrix(self):
        adapter = AdapterSpec.linear(np.array([[0.0, 1.0], [1.0, 0.0]]))
        scores = adapted_scores(adapter, constant_grid([3.0, 5.0])[None], [[1.0, 0.0]])
        assert scores == pytest.approx([5.0])

    def test_bias(self):
        adapter = AdapterSpec.linear(np.eye(2), bias=[1.0, -1.0])
        scores = adapted_scores(adapter, constant_grid([3.0, 5.0])[None], [[1.0, 0.0], [0.0, 1.0]])
        assert scores == pytest.approx([(4.0 + 4.0) / 2])

    def test_dim_change(self, rng):
        adapter = AdapterSpec.linear(rng.standard_normal((3, 5)))
        frames = rng.standard_normal((2, 2, 2, 5)).astype(np.float32)
        assert adapted_scores(adapter, frames, rng.standard_normal((4, 3))).shape == (2,)

    def test_shape_mismatch(self):
        adapter = AdapterSpec.linear(np.eye(3))
        with pytest.raises(AdapterShapeError):
            adapted_scores(adapter, constant_grid([1.0, 2.0])[None], [[1.0, 0.0, 0.0]])

    def test_invalid_specs(self):
        with pytest.raises(AdapterShapeError):
            AdapterSpec(kind="linear")
        with pytest.raises(AdapterShapeError):
            AdapterSpec(kind="nonsense")
        with pytest.raises(AdapterShapeError):
            AdapterSpec.linear(np.eye(2), bias=[1.0, 2.0, 3.0])
        with pytest.raises(AdapterShapeError):
            AdapterSpec(kind="identity", weight=np.eye(2))


class TestTokenGrid:
    def test_rejects_non_finite(self):
        data = np.ones((1, 1, 2), dtype=np.float32)
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            TokenGrid(data)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            TokenGrid(np.ones((2, 2), dtype=np.float32))

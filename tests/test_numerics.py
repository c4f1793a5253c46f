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
    TokenGrid,
    ZeroVectorError,
    adaptive_avg_pool,
    apply_adapter,
    cosine_similarity,
    frame_summary,
)
from vtcompress.numerics import POOL_CHUNK_FRAMES, pool_batch

from .conftest import constant_grid

nonzero_vectors = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=24
).filter(lambda xs: math.sqrt(sum(x * x for x in xs)) > 1e-3)


class TestCosineSimilarity:
    def test_identical(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_hand_value(self):
        # (3,4)·(4,3) = 24, norms 5 and 5
        assert cosine_similarity([3.0, 4.0], [4.0, 3.0]) == pytest.approx(24 / 25, abs=1e-12)

    def test_symmetry(self, rng):
        u, v = rng.standard_normal(8), rng.standard_normal(8)
        assert cosine_similarity(u, v) == cosine_similarity(v, u)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ZeroVectorError):
            cosine_similarity([1.0, 0.0], [0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([1.0], [1.0, 2.0])

    @given(nonzero_vectors)
    def test_self_similarity_is_one(self, xs):
        assert cosine_similarity(xs, xs) == pytest.approx(1.0, abs=1e-6)

    @given(nonzero_vectors, st.floats(min_value=1e-3, max_value=1e3))
    def test_positive_scaling_invariance(self, xs, scale):
        probe = [1.0] + [0.0] * (len(xs) - 1)
        ref = cosine_similarity(xs, probe)
        assert cosine_similarity([x * scale for x in xs], probe) == pytest.approx(ref, abs=1e-6)
        assert cosine_similarity(xs, [p * scale for p in probe]) == pytest.approx(ref, abs=1e-6)

    def test_range_clamped(self, rng):
        for _ in range(50):
            u = rng.standard_normal(4) * 1e-4
            if np.linalg.norm(u) == 0:
                continue
            assert -1.0 <= cosine_similarity(u, 2 * u) <= 1.0


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
        pooled = adaptive_avg_pool(constant_grid([1.0], 2, 2), 1, 1)
        assert pooled.data.shape == (1, 1, 1)
        assert pooled.data[0, 0, 0] == 1.0

    def test_quadrant_means(self):
        data = np.zeros((4, 4, 1), dtype=np.float32)
        data[:2, :2] = 1.0
        data[:2, 2:] = 2.0
        data[2:, :2] = 3.0
        data[2:, 2:] = 4.0
        pooled = adaptive_avg_pool(TokenGrid(data), 2, 2)
        assert pooled.data[:, :, 0].tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_12x12_to_8x8_matches_oracle(self, rng):
        data = rng.standard_normal((12, 12, 5)).astype(np.float32)
        pooled = adaptive_avg_pool(TokenGrid(data), 8, 8)
        assert np.array_equal(pooled.data, pool_oracle(data, 8, 8))

    @pytest.mark.parametrize("shape,out", [((7, 9, 3), (5, 4)), ((6, 6, 2), (6, 1)), ((5, 3, 4), (2, 3))])
    def test_odd_shapes_match_oracle(self, rng, shape, out):
        data = rng.standard_normal(shape).astype(np.float32)
        pooled = adaptive_avg_pool(TokenGrid(data), *out)
        assert np.array_equal(pooled.data, pool_oracle(data, *out))

    def test_identity_when_same_dims(self, rng):
        data = rng.standard_normal((5, 7, 3)).astype(np.float32)
        pooled = adaptive_avg_pool(TokenGrid(data), 5, 7)
        assert np.array_equal(pooled.data, data)

    def test_upsampling_rejected(self):
        grid = constant_grid([1.0], 2, 2)
        with pytest.raises(InvalidPoolingError):
            adaptive_avg_pool(grid, 3, 2)
        with pytest.raises(InvalidPoolingError):
            adaptive_avg_pool(grid, 2, 0)

    def test_values_within_bin_bounds(self, rng):
        for _ in range(20):
            h, w = int(rng.integers(1, 13)), int(rng.integers(1, 13))
            oh, ow = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
            data = rng.standard_normal((h, w, 2)).astype(np.float32)
            pooled = adaptive_avg_pool(TokenGrid(data), oh, ow)
            for p in range(oh):
                r0, r1 = (p * h) // oh, math.ceil((p + 1) * h / oh)
                for q in range(ow):
                    c0, c1 = (q * w) // ow, math.ceil((q + 1) * w / ow)
                    window = data[r0:r1, c0:c1]
                    assert (pooled.data[p, q] >= window.min(axis=(0, 1))).all()
                    assert (pooled.data[p, q] <= window.max(axis=(0, 1))).all()

    def test_global_mean_preserved_for_even_partition(self, rng):
        data = rng.standard_normal((8, 8, 3)).astype(np.float32)
        pooled = adaptive_avg_pool(TokenGrid(data), 4, 4)
        np.testing.assert_allclose(
            pooled.data.mean(axis=(0, 1)), data.mean(axis=(0, 1)), atol=1e-6
        )

    def test_batch_matches_single(self, rng):
        stack = rng.standard_normal((6, 12, 12, 4)).astype(np.float32)
        batch = pool_batch(stack, 8, 8)
        for i in range(6):
            single = adaptive_avg_pool(TokenGrid(stack[i]), 8, 8)
            assert np.array_equal(batch[i], single.data)


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


class TestFrameSummary:
    def test_constant_grid_normalizes(self):
        out = frame_summary(constant_grid([2.0, 0.0]))
        assert np.allclose(out, [1.0, 0.0])

    def test_two_token_mean(self):
        grid = TokenGrid(np.array([[[1.0, 0.0], [0.0, 1.0]]], dtype=np.float32))
        out = frame_summary(grid)
        assert np.allclose(out, [1 / math.sqrt(2)] * 2, atol=1e-7)

    def test_zero_grid_raises(self):
        with pytest.raises(ZeroVectorError):
            frame_summary(constant_grid([0.0, 0.0]))

    def test_unit_norm(self, rng):
        for _ in range(100):
            grid = TokenGrid(rng.standard_normal((3, 4, 6)).astype(np.float32))
            assert np.linalg.norm(frame_summary(grid)) == pytest.approx(1.0, abs=1e-6)


class TestApplyAdapter:
    def test_identity_is_same_object(self, rng):
        grid = TokenGrid(rng.standard_normal((2, 3, 4)).astype(np.float32))
        out = apply_adapter(AdapterSpec.identity(), grid)
        assert out is grid
        assert np.array_equal(out.data, grid.data)

    def test_scalar_multiple(self):
        adapter = AdapterSpec.linear(2.0 * np.eye(2))
        out = apply_adapter(adapter, constant_grid([1.0, 2.0]))
        assert np.allclose(out.data[0, 0], [2.0, 4.0])

    def test_swap_matrix(self):
        adapter = AdapterSpec.linear(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = apply_adapter(adapter, constant_grid([3.0, 5.0]))
        assert np.allclose(out.data[1, 1], [5.0, 3.0])

    def test_bias(self):
        adapter = AdapterSpec.linear(np.eye(2), bias=[1.0, -1.0])
        out = apply_adapter(adapter, constant_grid([3.0, 5.0]))
        assert np.allclose(out.data[0, 0], [4.0, 4.0])

    def test_dim_change(self, rng):
        adapter = AdapterSpec.linear(rng.standard_normal((3, 5)))
        grid = TokenGrid(rng.standard_normal((2, 2, 5)).astype(np.float32))
        out = apply_adapter(adapter, grid)
        assert out.data.shape == (2, 2, 3)

    def test_shape_mismatch(self):
        adapter = AdapterSpec.linear(np.eye(3))
        with pytest.raises(AdapterShapeError):
            apply_adapter(adapter, constant_grid([1.0, 2.0]))

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

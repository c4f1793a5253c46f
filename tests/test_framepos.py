import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcompress import (
    FramePositionConfig,
    InvalidConfigError,
    apply_position_encoding,
    encoding_vector,
)
from vtcompress.numerics import POOL_CHUNK_TOKENS, per_chunk
from vtcompress.tokens import CompressedTokenSequence


def encoding_oracle(t, dim):
    out = []
    for idx in range(dim):
        i2 = idx - (idx % 2)  # even index of the sin/cos pair
        angle = t / 10000.0 ** (i2 / dim)
        out.append(math.sin(angle) if idx % 2 == 0 else math.cos(angle))
    return np.array(out, dtype=np.float32)


def small_sequence(n=4, dim=4):
    return CompressedTokenSequence(
        frame_indices=np.repeat(np.arange((n + 1) // 2), 2)[:n],
        grid_rows=np.zeros(n, dtype=np.int32),
        grid_cols=np.arange(n, dtype=np.int32),
        levels=np.zeros(n, dtype=np.uint8),
        vectors=np.ones((n, dim), dtype=np.float32),
    )


class TestEncodingVector:
    def test_time_zero_pattern(self):
        out = encoding_vector(0.0, 6)
        assert out.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]

    def test_first_entry_is_sin_t(self):
        assert encoding_vector(1.0, 4)[0] == pytest.approx(math.sin(1.0), abs=1e-7)

    def test_second_pair_frequency(self):
        # base^(2/4) = 100, so entry 2 is sin(t / 100)
        assert encoding_vector(1.0, 4)[2] == pytest.approx(math.sin(0.01), abs=1e-9)

    def test_odd_dim_keeps_final_sin(self):
        out = encoding_vector(2.5, 5)
        assert out.shape == (5,)
        assert out[4] == pytest.approx(math.sin(2.5 / 10000 ** (4 / 5)), abs=1e-9)

    def test_matches_oracle(self, rng):
        for _ in range(300):
            t = float(rng.uniform(-500, 3600))
            dim = int(rng.integers(2, 33))
            np.testing.assert_allclose(
                encoding_vector(t, dim), encoding_oracle(t, dim), atol=1e-6
            )

    def test_bounded(self, rng):
        for _ in range(50):
            out = encoding_vector(float(rng.uniform(0, 1e5)), 16)
            assert (out >= -1.0).all() and (out <= 1.0).all()

    def test_dim_validation(self):
        with pytest.raises(InvalidConfigError):
            encoding_vector(1.0, 1)


class TestApplyPositionEncoding:
    def test_disabled_is_identity(self):
        seq = small_sequence()
        before = seq.vectors.tobytes()
        assert apply_position_encoding(seq, FramePositionConfig()) is None
        assert seq.vectors.tobytes() == before

    def test_time_zero_offsets(self):
        seq = small_sequence(n=2, dim=4)
        assert apply_position_encoding(seq, FramePositionConfig(enabled=True)) is None
        np.testing.assert_allclose(seq.vectors[0], [1.0, 2.0, 1.0, 2.0])

    def test_same_timestep_same_offset(self):
        seq = small_sequence(n=4, dim=4)  # timesteps 0,0,1,1
        apply_position_encoding(seq, FramePositionConfig(enabled=True))
        assert np.array_equal(seq.vectors[0], seq.vectors[1])
        assert np.array_equal(seq.vectors[2], seq.vectors[3])
        assert not np.array_equal(seq.vectors[0], seq.vectors[2])

    def test_double_application_is_linear(self):
        seq = small_sequence(n=4, dim=6)
        before = seq.vectors.copy()
        cfg = FramePositionConfig(enabled=True)
        apply_position_encoding(seq, cfg)
        apply_position_encoding(seq, cfg)
        offsets = np.stack([2.0 * encoding_vector(t, 6) for t in seq.timesteps])
        np.testing.assert_allclose(seq.vectors, before + offsets, atol=1e-5)

    @pytest.mark.parametrize("dim", [2, 3, 7, 64, 65])
    def test_matches_encoding_vector_per_timestep(self, rng, dim):
        n = 3000
        frame_indices = np.sort(rng.choice(rng.integers(0, 4000, 700), n))
        frame_indices[:5] = [0, 1, 1, 2, 3599]
        seq = CompressedTokenSequence(
            frame_indices=frame_indices,
            grid_rows=np.zeros(n, dtype=np.int32),
            grid_cols=np.zeros(n, dtype=np.int32),
            levels=np.ones(n, dtype=np.uint8),
            vectors=rng.standard_normal((n, dim)).astype(np.float32),
        )
        expected = np.stack([
            (v.astype(np.float64) + encoding_vector(float(t), dim)).astype(np.float32)
            for t, v in zip(seq.timesteps, seq.vectors)
        ])
        apply_position_encoding(seq, FramePositionConfig(enabled=True))
        assert seq.vectors.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 300),
        st.integers(2, 65),
        st.integers(0, 2**32 - 1),
    )
    def test_float32_sum_matches_float64_oracle(self, n, dim, seed):
        # Magnitudes from e^-30 to e^30 on both signs put the offsets anywhere
        # from far below to far above a token's last bit.
        rng = np.random.default_rng(seed)
        magnitudes = np.exp(rng.uniform(-30.0, 30.0, (n, dim)))
        vectors = (rng.choice([-1.0, 1.0], (n, dim)) * magnitudes).astype(np.float32)
        seq = CompressedTokenSequence(
            frame_indices=np.sort(rng.choice(rng.integers(0, 5000, 40), n)),
            grid_rows=np.zeros(n, dtype=np.int32),
            grid_cols=np.zeros(n, dtype=np.int32),
            levels=np.ones(n, dtype=np.uint8),
            vectors=vectors.copy(),
        )
        apply_position_encoding(seq, FramePositionConfig(enabled=True))
        offsets = np.stack([encoding_vector(float(t), dim) for t in seq.timesteps])
        expected = (vectors.astype(np.float64) + offsets.astype(np.float64)).astype(np.float32)
        assert seq.vectors.dtype == np.float32
        assert seq.vectors.tobytes() == expected.tobytes()

    def test_in_place_across_encoding_steps_matches_the_float64_oracle(self, rng):
        # more rows than two encoding steps, timesteps repeating in runs
        dim = 6
        n = 2 * per_chunk(dim * 4, POOL_CHUNK_TOKENS) + 5
        seq = CompressedTokenSequence(
            frame_indices=np.arange(n) // 7,
            grid_rows=np.zeros(n, dtype=np.int32),
            grid_cols=np.zeros(n, dtype=np.int32),
            levels=np.ones(n, dtype=np.uint8),
            vectors=rng.standard_normal((n, dim)).astype(np.float32),
        )
        before = seq.vectors.copy()
        offsets = np.stack([encoding_vector(float(t), dim) for t in seq.timesteps])
        expected = (before.astype(np.float64) + offsets.astype(np.float64)).astype(np.float32)
        vectors = seq.vectors
        assert apply_position_encoding(seq, FramePositionConfig(enabled=True)) is None
        assert seq.vectors is vectors
        assert seq.vectors.tobytes() == expected.tobytes()
        assert not np.array_equal(seq.vectors, before)

    def test_dim_mismatch(self):
        seq = small_sequence(dim=4)
        with pytest.raises(InvalidConfigError):
            apply_position_encoding(seq, FramePositionConfig(enabled=True, dim=8))

    def test_width_below_two_is_rejected(self):
        FramePositionConfig(enabled=True).validate()  # the width comes from the tokens
        FramePositionConfig(dim=1).validate()  # disabled: nothing to check
        with pytest.raises(InvalidConfigError):
            FramePositionConfig(enabled=True, dim=1).validate()
        with pytest.raises(InvalidConfigError):
            apply_position_encoding(small_sequence(dim=1), FramePositionConfig(enabled=True))

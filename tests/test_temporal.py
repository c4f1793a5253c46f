import numpy as np
import pytest

from vtcompress import (
    EmptyVideoError,
    FrameFeatureSequence,
    InvalidConfigError,
    ZeroVectorError,
    partition_windows,
    reduce_frames,
    window_average_similarity,
)

from .conftest import random_sequence, sequence_from_vectors


def orthogonal_sequence(n, dim=None):
    dim = dim or n
    return sequence_from_vectors(np.eye(max(n, dim), dtype=np.float32)[:n])


class TestPartitionWindows:
    def test_even_split(self):
        assert partition_windows(16, 8) == [(0, 8), (8, 16)]

    def test_short_input(self):
        assert partition_windows(5, 8) == [(0, 5)]

    def test_remainder(self):
        assert partition_windows(17, 8) == [(0, 8), (8, 16), (16, 17)]

    def test_covering_and_disjoint(self, rng):
        for _ in range(50):
            n, j = int(rng.integers(1, 100)), int(rng.integers(1, 12))
            windows = partition_windows(n, j)
            assert windows[0][0] == 0 and windows[-1][1] == n
            for (a, b), (c, d) in zip(windows, windows[1:]):
                assert b == c and b - a == j
            assert all(e - s >= 1 for s, e in windows)

    def test_invalid(self):
        with pytest.raises(EmptyVideoError):
            partition_windows(0, 8)
        with pytest.raises(InvalidConfigError):
            partition_windows(8, 0)


class TestWindowAverageSimilarity:
    def test_identical_frames(self):
        sims = window_average_similarity(np.ones((8, 4), dtype=np.float32))
        np.testing.assert_allclose(sims, 1.0, atol=1e-9)

    def test_two_orthogonal(self):
        sims = window_average_similarity(np.eye(2, dtype=np.float32))
        np.testing.assert_allclose(sims, 0.0, atol=1e-9)

    def test_hand_case(self):
        # a parallel to b, both orthogonal to c
        summaries = np.array([[1, 0, 0], [2, 0, 0], [0, 1, 0]], dtype=np.float32)
        sims = window_average_similarity(summaries)
        np.testing.assert_allclose(sims, [0.5, 0.5, 0.0], atol=1e-9)

    def test_singleton(self):
        assert window_average_similarity(np.ones((1, 3))).tolist() == [0.0]

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            window_average_similarity(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_permutation_equivariance(self, rng):
        for _ in range(30):
            w = int(rng.integers(2, 9))
            s = rng.standard_normal((w, 5))
            perm = rng.permutation(w)
            np.testing.assert_allclose(
                window_average_similarity(s[perm]),
                window_average_similarity(s)[perm],
                atol=1e-9,
            )


def reduce_oracle(seq, j, tau_t):
    """Window-by-window reference for ``reduce_frames``: per-frame average
    similarities and the kept indices."""
    summaries = seq.summaries()
    per_frame = np.empty(seq.n_frames, dtype=np.float64)
    kept = []
    for start, end in partition_windows(seq.n_frames, j):
        sims = window_average_similarity(summaries[start:end])
        per_frame[start:end] = sims
        keep = set(np.flatnonzero(sims <= tau_t).tolist()) | {int(np.argmin(sims))}
        kept.extend(start + i for i in sorted(keep))
    return per_frame, kept


class TestReduceFrames:
    def test_matches_window_loop_oracle(self, rng):
        cases = 0
        for _ in range(40):
            n = int(rng.integers(1, 70))
            seq = random_sequence(rng, n, 2, 2, 5)
            for j in sorted({1, max(1, n - 1), n, n + 1, int(rng.integers(2, 10))}):
                tau = float(rng.uniform(0.05, 1.0))
                per_frame, kept = reduce_oracle(seq, j, tau)
                result = reduce_frames(seq, j, tau)
                assert result.per_frame_avg_sim.tobytes() == per_frame.tobytes()
                assert result.kept_indices == kept
                # a similarity exactly at the threshold is kept
                ties = per_frame[(per_frame > 0.0) & (per_frame <= 1.0)]
                if ties.size:
                    tau = float(rng.choice(ties))
                    per_frame, kept = reduce_oracle(seq, j, tau)
                    assert reduce_frames(seq, j, tau).kept_indices == kept
                    assert set(np.flatnonzero(per_frame == tau)) <= set(kept)
                    cases += 1
        assert cases > 50

    def test_short_tail_window_matches_oracle(self, rng):
        # 8 + 8 + 3 frames: two full windows and a 3-frame tail, with repeats
        # so that some frames drop
        base = rng.standard_normal((2, 2, 2, 4)).astype(np.float32)
        frames = base[(rng.random(19) < 0.2).astype(int)] + 0.05 * rng.standard_normal((19, 2, 2, 4)).astype(np.float32)
        seq = FrameFeatureSequence(frames, np.arange(19.0))
        per_frame, kept = reduce_oracle(seq, 8, 0.6)
        result = reduce_frames(seq, 8, 0.6)
        assert result.per_frame_avg_sim.tobytes() == per_frame.tobytes()
        assert result.kept_indices == kept and len(kept) < 19

    def test_identical_frames_keep_first(self):
        seq = sequence_from_vectors([[1.0, 0.0]] * 8)
        result = reduce_frames(seq, 8, 0.85)
        assert result.kept_indices == [0]

    def test_orthogonal_frames_keep_all(self):
        result = reduce_frames(orthogonal_sequence(8), 8, 0.85)
        assert result.kept_indices == list(range(8))

    def test_every_window_contributes(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 60))
            j = int(rng.integers(1, 10))
            seq = random_sequence(rng, n, 2, 2, 4)
            result = reduce_frames(seq, j, float(rng.uniform(0.05, 1.0)))
            kept = np.asarray(result.kept_indices)
            assert len(kept) > 0
            assert (np.diff(kept) > 0).all()
            for start, end in result.windows:
                assert ((kept >= start) & (kept < end)).any()

    def test_threshold_monotonicity(self, rng):
        seq = random_sequence(rng, 40, 2, 2, 4)
        counts = [
            len(reduce_frames(seq, 8, tau).kept_indices)
            for tau in (0.2, 0.5, 0.8, 0.95, 1.0)
        ]
        assert counts == sorted(counts)

    def test_tau_one_keeps_everything(self, rng):
        for _ in range(10):
            seq = random_sequence(rng, int(rng.integers(1, 40)), 2, 2, 3)
            result = reduce_frames(seq, 8, 1.0)
            assert result.kept_indices == list(range(seq.n_frames))

    def test_mixed_window_drops_redundant_only(self):
        # seven near-identical frames plus one orthogonal: the redundant ones
        # average 6/7 > 0.85 and drop, the outlier survives as window minimum
        seq = sequence_from_vectors([[1.0, 0.0]] * 7 + [[0.0, 1.0]])
        result = reduce_frames(seq, 8, 0.85)
        assert result.kept_indices == [7]

    def test_per_frame_sims_aligned(self, rng):
        seq = random_sequence(rng, 20, 2, 2, 4)
        result = reduce_frames(seq, 8, 0.85)
        assert result.per_frame_avg_sim.shape == (20,)
        summaries = seq.summaries()
        first = window_average_similarity(summaries[0:8])
        np.testing.assert_allclose(result.per_frame_avg_sim[0:8], first)

    def test_deterministic(self, rng):
        seq = random_sequence(rng, 33, 2, 2, 4)
        a = reduce_frames(seq, 8, 0.85)
        b = reduce_frames(seq, 8, 0.85)
        assert a.kept_indices == b.kept_indices
        assert np.array_equal(a.per_frame_avg_sim, b.per_frame_avg_sim)

    def test_invalid_tau(self, rng):
        seq = random_sequence(rng, 4, 2, 2, 3)
        with pytest.raises(InvalidConfigError):
            reduce_frames(seq, 8, 0.0)
        with pytest.raises(InvalidConfigError):
            reduce_frames(seq, 8, 1.5)


class TestFrameFeatureSequence:
    def test_empty_rejected(self):
        with pytest.raises(EmptyVideoError):
            FrameFeatureSequence(np.zeros((0, 2, 2, 3), dtype=np.float32), np.zeros(0))

    def test_timesteps_must_increase(self):
        frames = np.ones((2, 1, 1, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            FrameFeatureSequence(frames, np.array([1.0, 1.0]))

    def test_non_finite_frame_rejected(self):
        # frame 5 repeats its window's frames, so stage 1 would drop it
        frames = np.ones((40, 2, 2, 3), dtype=np.float32)
        frames[5, 1, 0, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            FrameFeatureSequence(frames, np.arange(40, dtype=np.float64))
        frames[5, 1, 0, 2] = -np.inf
        with pytest.raises(ValueError, match="non-finite"):
            FrameFeatureSequence(frames, np.arange(40, dtype=np.float64))

    @pytest.mark.parametrize(
        "bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]], ids=["nan", "+inf", "-inf", "+inf-inf"]
    )
    def test_fused_check_rejects_each_non_finite_value(self, bad):
        # +inf and -inf in one frame would sum to NaN, which is still rejected
        frames = np.ones((6, 3, 3, 4), dtype=np.float32)
        frames[4, 0, 1, 2] = bad[0]
        frames[4, 2, 2, 2] = bad[-1]
        with pytest.raises(ValueError, match="non-finite"):
            FrameFeatureSequence(frames, np.arange(6, dtype=np.float64))

    def test_fused_check_accepts_the_largest_finite_values(self):
        frames = np.ones((3, 4, 4, 2), dtype=np.float32)
        frames[1] = 3.0e38
        frames[2, :2] = -3.0e38
        seq = FrameFeatureSequence(frames, np.arange(3, dtype=np.float64))
        assert np.isfinite(seq.means).all()
        assert seq.means[1].tolist() == [float(np.float32(3.0e38))] * 2
        assert seq.means.tobytes() == frames.mean(axis=(1, 2), dtype=np.float64).tobytes()

    def test_frames_are_read_only(self, rng):
        frames = rng.standard_normal((3, 2, 2, 4)).astype(np.float32)
        seq = FrameFeatureSequence(frames, np.arange(3, dtype=np.float64))
        with pytest.raises(ValueError):
            seq.frames[0] = 0.0  # the cached means would no longer describe it
        frames[0] = 1.0  # the caller's own array stays writable

    def test_subset_does_not_rescan(self, rng, monkeypatch):
        seq = random_sequence(rng, 10, 2, 2, 4)
        monkeypatch.setattr(np, "isfinite", lambda *a, **kw: pytest.fail("subset rescanned"))
        sub = seq.subset([1, 4, 7])
        assert np.array_equal(sub.frames, seq.frames[[1, 4, 7]])
        with pytest.raises(ValueError):
            seq.subset([4, 1])  # the order checks still run

    def test_subset_preserves_summaries(self, rng):
        seq = random_sequence(rng, 10, 2, 2, 4)
        full = seq.summaries()
        sub = seq.subset([1, 4, 7])
        assert np.array_equal(sub.summaries(), full[[1, 4, 7]])
        assert sub.timesteps.tolist() == [1.0, 4.0, 7.0]

import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcompress import (
    CompressionConfig,
    FrameFeatureSequence,
    InvalidConfigError,
    compress,
    numerics,
    temporal,
)
from vtcompress.temporal import reduce_frames

from .conftest import (
    frame_summaries,
    partition_windows,
    random_query,
    random_sequence,
    sequence_from_vectors,
    window_average_similarity,
)


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

    def test_invalid(self, rng):
        # A zero window length of either stage is refused by the config.
        seq = random_sequence(rng, 8, 4, 4, 3)
        for name in ("j", "k"):
            cfg = CompressionConfig(tokens_low=(2, 2), **{name: 0})
            with pytest.raises(InvalidConfigError, match=f"{name} must be >= 1, got 0"):
                compress(seq, random_query(rng, 2, 3), cfg)


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
        # The zero row repeats both others (cosine 1); they are orthogonal.
        sims = window_average_similarity(np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]))
        assert sims.tolist() == [0.5, 0.5, 1.0]

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
    summaries = frame_summaries(seq)
    per_frame = np.empty(seq.n_frames, dtype=np.float64)
    kept = []
    for start, end in partition_windows(seq.n_frames, j):
        sims = window_average_similarity(summaries[start:end])
        per_frame[start:end] = sims
        keep = set(np.flatnonzero(sims <= tau_t).tolist()) | {int(np.argmin(sims))}
        kept.extend(start + i for i in sorted(keep))
    return per_frame, kept


def assert_decided_by(seq, j, per_frame):
    """``reduce_frames`` keeps a frame whose similarity s is in (0, 1] at
    tau = s, and drops it at the next float below unless it is its window's
    minimum; so it decides by exactly ``per_frame``, bit for bit. Returns
    how many frames were checked."""
    minima = {start + int(np.argmin(per_frame[start:end]))
              for start, end in partition_windows(seq.n_frames, j)}
    checked = np.flatnonzero((per_frame > 0.0) & (per_frame <= 1.0)).tolist()
    for i in checked:
        assert i in reduce_frames(seq, j, per_frame[i]).kept_indices
        below = reduce_frames(seq, j, np.nextafter(per_frame[i], 0.0)).kept_indices
        assert (i in below) == (i in minima)
    return len(checked)


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
                assert result.kept_indices.dtype == np.int64
                assert result.kept_indices.tolist() == kept
                assert result.n_kept == len(kept)
                # a similarity exactly at the threshold is kept
                ties = per_frame[(per_frame > 0.0) & (per_frame <= 1.0)]
                if ties.size:
                    tau = float(rng.choice(ties))
                    per_frame, kept = reduce_oracle(seq, j, tau)
                    assert reduce_frames(seq, j, tau).kept_indices.tolist() == kept
                    assert set(np.flatnonzero(per_frame == tau)) <= set(kept)
                    cases += 1
        assert cases > 50

    @pytest.mark.parametrize("windows", [1, 3, None])
    def test_blocks_of_whole_windows_match_the_oracle(self, rng, monkeypatch, windows):
        # Frames are scored a block of whole windows at a time: one window or
        # three a block here, or the default 1 MiB. The block never changes a
        # score's bits, so the window loop's survivors are kept, ties too.
        for _ in range(100):
            n, dim, j = int(rng.integers(1, 70)), int(rng.integers(1, 9)), int(rng.integers(1, 12))
            if windows is not None:
                monkeypatch.setattr(numerics, "WORK_BYTES", windows * min(j, n) * dim * 8)
            seq = random_sequence(rng, n, 2, 2, dim)
            for tau in (float(rng.uniform(0.05, 1.0)), None):
                per_frame, kept = reduce_oracle(seq, j, tau or 1.0)
                if tau is None:  # a similarity exactly at the threshold
                    ties = per_frame[(per_frame > 0.0) & (per_frame <= 1.0)]
                    if not ties.size:
                        continue
                    tau = float(rng.choice(ties))
                    per_frame, kept = reduce_oracle(seq, j, tau)
                assert reduce_frames(seq, j, tau).kept_indices.tolist() == kept

    def test_working_memory_grows_by_a_few_bytes_a_frame(self, rng):
        # At dim 256 a frame's summary alone is 1 KiB in float32. Stage 1
        # works through blocks of whole windows of a fixed size, so a video
        # four times as long needs at most 64 B more a frame: its score, its
        # flag and its index.
        peaks = []
        for n in (1024, 4096):
            seq = random_sequence(rng, n, 1, 1, 256)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                kept = reduce_frames(seq, 8, 0.85).kept_indices
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert kept.shape[0] > n // 2
        assert (peaks[1] - peaks[0]) / (4096 - 1024) <= 64, peaks

    def test_short_tail_window_matches_oracle(self, rng):
        # 8 + 8 + 3 frames: two full windows and a 3-frame tail, with repeats
        # so that some frames drop
        base = rng.standard_normal((2, 2, 2, 4)).astype(np.float32)
        frames = base[(rng.random(19) < 0.2).astype(int)] + 0.05 * rng.standard_normal((19, 2, 2, 4)).astype(np.float32)
        seq = FrameFeatureSequence(frames)
        per_frame, kept = reduce_oracle(seq, 8, 0.6)
        result = reduce_frames(seq, 8, 0.6)
        assert result.kept_indices.tolist() == kept and len(kept) < 19
        assert assert_decided_by(seq, 8, per_frame) > 8

    def test_window_longer_than_the_video(self, rng):
        # no full window exists, so the whole video is one short window,
        # however far j exceeds the frame count
        base = rng.standard_normal((2, 2, 2, 4)).astype(np.float32)
        pick = (np.arange(13) % 5 == 0).astype(int)  # frames 0, 5 and 10 differ
        frames = base[pick] + 0.05 * rng.standard_normal((13, 2, 2, 4)).astype(np.float32)
        seq = FrameFeatureSequence(frames)
        whole = reduce_frames(seq, 13, 0.6).kept_indices
        assert 1 <= len(whole) < 13
        for j in [14, 2**62, 2**63]:
            assert reduce_frames(seq, j, 0.6).kept_indices.tolist() == whole.tolist()

    def test_identical_frames_keep_first(self):
        seq = sequence_from_vectors([[1.0, 0.0]] * 8)
        result = reduce_frames(seq, 8, 0.85)
        assert result.kept_indices.tolist() == [0]

    def test_orthogonal_frames_keep_all(self):
        result = reduce_frames(orthogonal_sequence(8), 8, 0.85)
        assert result.kept_indices.tolist() == list(range(8))

    def test_every_window_contributes(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 60))
            j = int(rng.integers(1, 10))
            seq = random_sequence(rng, n, 2, 2, 4)
            result = reduce_frames(seq, j, float(rng.uniform(0.05, 1.0)))
            kept = result.kept_indices
            assert len(kept) > 0
            assert (np.diff(kept) > 0).all()
            for start, end in partition_windows(n, j):
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
            assert result.kept_indices.tolist() == list(range(seq.n_frames))

    def test_mixed_window_drops_redundant_only(self):
        # seven near-identical frames plus one orthogonal: the redundant ones
        # average 6/7 > 0.85 and drop, the outlier survives as window minimum
        seq = sequence_from_vectors([[1.0, 0.0]] * 7 + [[0.0, 1.0]])
        result = reduce_frames(seq, 8, 0.85)
        assert result.kept_indices.tolist() == [7]

    def test_per_frame_sims_aligned(self, rng):
        # each frame is judged by its own window's similarities, the short
        # tail window's included
        seq = random_sequence(rng, 20, 2, 2, 4)
        summaries = frame_summaries(seq)
        per_frame = np.concatenate([window_average_similarity(summaries[s:e])
                                    for s, e in partition_windows(20, 8)])
        assert assert_decided_by(seq, 8, per_frame) > 0

    def test_deterministic(self, rng):
        seq = random_sequence(rng, 33, 2, 2, 4)
        a = reduce_frames(seq, 8, 0.85)
        b = reduce_frames(seq, 8, 0.85)
        assert a.kept_indices.tobytes() == b.kept_indices.tobytes()

    # Stage 1's settings are checked where they enter, by the config.
    def test_invalid_tau(self, rng):
        seq = random_sequence(rng, 4, 2, 2, 3)
        for tau_t in (0.0, 1.5):
            cfg = CompressionConfig(tokens_low=(1, 1), tau_t=tau_t)
            message = rf"tau_t must be in \(0, 1\], got {tau_t}"
            with pytest.raises(InvalidConfigError, match=message):
                compress(seq, random_query(rng, 2, 3), cfg)

    def test_invalid_window_length(self, rng):
        seq = random_sequence(rng, 4, 2, 2, 3)
        for j in (0, -1):
            cfg = CompressionConfig(tokens_low=(1, 1), j=j)
            with pytest.raises(InvalidConfigError, match=f"j must be >= 1, got {j}"):
                compress(seq, random_query(rng, 2, 3), cfg)


NON_FINITE = {"nan": [np.nan], "+inf": [np.inf], "-inf": [-np.inf], "+inf-inf": [np.inf, -np.inf]}


class TestFrameFeatureSequence:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="frame sequence is empty"):
            FrameFeatureSequence(np.zeros((0, 2, 2, 3), dtype=np.float32))

    def test_non_finite_frame_rejected(self):
        # frame 5 repeats its window's frames, so stage 1 would drop it
        frames = np.ones((40, 2, 2, 3), dtype=np.float32)
        frames[5, 1, 0, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            FrameFeatureSequence(frames)
        frames[5, 1, 0, 2] = -np.inf
        with pytest.raises(ValueError, match="non-finite"):
            FrameFeatureSequence(frames)

    @pytest.mark.parametrize(
        "bad, workers",
        [pytest.param(bad, 1, id=name) for name, bad in NON_FINITE.items()]
        + [pytest.param(bad, 3, id=f"{name}-split") for name, bad in NON_FINITE.items()],
    )
    def test_fused_check_rejects_each_non_finite_value(self, bad, workers, monkeypatch):
        # +inf and -inf in one frame would sum to NaN, which is still rejected;
        # split, frame 4 is in the last worker's range, and that worker must
        # not turn the invalid sum into a RuntimeWarning
        monkeypatch.setattr(temporal, "_means_workers", lambda n_values: workers)
        frames = np.ones((6, 3, 3, 4), dtype=np.float32)
        frames[4, 0, 1, 2] = bad[0]
        frames[4, 2, 2, 2] = bad[-1]
        assert 6 * (workers - 1) // workers <= 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                FrameFeatureSequence(frames)

    def test_fused_check_accepts_the_largest_finite_values(self):
        frames = np.ones((3, 4, 4, 2), dtype=np.float32)
        frames[1] = 3.0e38
        frames[2, :2] = -3.0e38
        seq = FrameFeatureSequence(frames)
        assert np.isfinite(seq.means).all()
        assert seq.means[1].tolist() == [float(np.float32(3.0e38))] * 2
        assert seq.means.tobytes() == frames.mean(axis=(1, 2), dtype=np.float64).tobytes()

    def test_frames_are_read_only(self, rng):
        frames = rng.standard_normal((3, 2, 2, 4)).astype(np.float32)
        seq = FrameFeatureSequence(frames)
        with pytest.raises(ValueError):
            seq.frames[0] = 0.0  # the cached means would no longer describe it
        frames[0] = 1.0  # the caller's own array stays writable

    def test_subset_does_not_rescan(self, rng, monkeypatch):
        seq = random_sequence(rng, 10, 2, 2, 4)
        monkeypatch.setattr(np, "isfinite", lambda *a, **kw: pytest.fail("subset rescanned"))
        sub = seq.subset([1, 4, 7])
        assert np.array_equal(sub.frames, seq.frames[[1, 4, 7]])

    def test_subset_carries_the_means(self, rng):
        seq = random_sequence(rng, 10, 2, 2, 4)
        sub = seq.subset([1, 4, 7])
        assert sub.means.tobytes() == seq.means[[1, 4, 7]].tobytes()


def random_stack(seed, n, h, w, dim) -> np.ndarray:
    """Float32 frames whose magnitudes span e^-20 to e^20 per frame, with
    about one value in eight replaced by +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    scale = np.exp(rng.uniform(-20.0, 20.0, (n, 1, 1, 1)))
    frames = (scale * rng.standard_normal((n, h, w, dim))).astype(np.float32)
    zeros = rng.random(frames.shape) < 0.125
    frames[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return frames


class TestSplitMeans:
    """The means pass split over worker threads by frame range."""

    @settings(max_examples=60, deadline=None)
    @given(
        workers=st.integers(1, 5),
        n=st.integers(1, 300),
        h=st.integers(1, 14),
        w=st.integers(1, 14),
        dim=st.integers(1, 100),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_split_gives_the_bytes_of_one_mean(self, workers, n, h, w, dim, seed):
        frames = random_stack(seed, n, h, w, dim)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(temporal, "_means_workers", lambda n_values: workers)
            seq = FrameFeatureSequence(frames)
        assert seq.means.tobytes() == frames.mean(axis=(1, 2), dtype=np.float64).tobytes()

    def test_no_thread_outlives_the_call(self, monkeypatch):
        callers = []
        sum_into = temporal._sum_frames_into

        def recorded(out, frames):
            callers.append(threading.get_ident())
            sum_into(out, frames)

        monkeypatch.setattr(temporal, "_means_workers", lambda n_values: 3)
        monkeypatch.setattr(temporal, "_sum_frames_into", recorded)
        before = threading.active_count()
        FrameFeatureSequence(random_stack(7, 10, 2, 2, 3))
        assert threading.active_count() == before
        assert len(callers) == 3 and threading.get_ident() not in callers

    def test_small_inputs_stay_on_the_calling_thread(self):
        n_values = temporal.MEANS_VALUES_PER_WORKER * 2 - 1
        assert temporal._means_workers(n_values) == 1

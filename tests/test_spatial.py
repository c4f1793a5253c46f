import numpy as np
import pytest

from vtcompress import (
    AnchorStrategy,
    CompressionConfig,
    FrameFeatureSequence,
    InvalidConfigError,
    compress,
)
from vtcompress.pipeline import flatten
from vtcompress.spatial import anchor_frames, build_plan

from .conftest import constant_grid, cosine, random_query, random_sequence, token_table


def prune_oracle(window, anchor_idx, theta):
    """Brute-force per-position keep decision using scalar cosine similarity."""
    n, h, w, _ = window.shape
    kept = []
    for i in range(n):
        positions = []
        for r in range(h):
            for c in range(w):
                if i == anchor_idx:
                    positions.append((r, c))
                    continue
                a = window[anchor_idx, r, c]
                b = window[i, r, c]
                if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
                    positions.append((r, c))  # undefined similarity: keep
                elif cosine(a, b) <= theta:
                    positions.append((r, c))
        kept.append(positions)
    return kept


def prune_single_window(window, strategy=AnchorStrategy.FIRST, theta=0.8):
    """One window pruned as stage 3 prunes it: (keep mask of shape
    (frames, h, w), the anchor that ``strategy`` chose)."""
    n, h, w, _ = window.shape
    plan = build_plan(window, n, strategy)
    (anchor,) = np.flatnonzero(plan.anchor[:: h * w])
    return plan.apply(theta).keep.reshape(n, h, w), int(anchor)


def oracle_mismatches(window, strategy, theta) -> tuple[int, int]:
    """(frames whose keep positions differ from ``prune_oracle``'s at the
    anchor that ``strategy`` chose, that anchor)."""
    keep, anchor = prune_single_window(window, strategy, theta)
    expected = prune_oracle(window, anchor, theta)
    return sum([tuple(p) for p in np.argwhere(f)] != exp for f, exp in zip(keep, expected)), anchor


def select_anchor(window, strategy) -> int:
    """Anchor index of one window of frames, through the stack-wide anchor
    routine."""
    window = np.stack(window)
    n, h, w, d = window.shape
    (anchor,) = np.flatnonzero(anchor_frames(window.reshape(n, h * w, d), n, strategy))
    return int(anchor)


def high_change_oracle(stack, k) -> list[int]:
    """Window-by-window, frame-by-frame reference for the ``high_change``
    anchors of a (frames, tokens, dim) stack. The anchor of a window is the
    frame, after its first, least like its predecessor by mean-token cosine,
    the earliest on ties; a zero mean token is like every frame (cosine 1).
    A one-frame window anchors on its frame."""
    anchors = []
    for start in range(0, stack.shape[0], k):
        means = [f.mean(axis=0, dtype=np.float64) for f in stack[start : start + k]]
        best, best_cos = start, None
        for i in range(1, len(means)):
            a, b = means[i], means[i - 1]
            if not a.any() or not b.any():
                cos = 1.0
            else:
                cos = min(1.0, max(-1.0, cosine(a, b)))
            if best_cos is None or cos < best_cos:
                best, best_cos = start + i, cos
        anchors.append(best)
    return anchors


def spatial_compress(frames, k, theta, strategy=AnchorStrategy.FIRST):
    return build_plan(frames, k, strategy).apply(theta)


def anchors_of(result, tokens_per_frame):
    return np.flatnonzero(result.anchor[::tokens_per_frame]).tolist()


class TestSelectAnchor:
    def test_first(self, rng):
        window = rng.standard_normal((5, 2, 2, 3)).astype(np.float32)
        assert select_anchor(window, AnchorStrategy.FIRST) == 0

    def test_middle_of_eight(self, rng):
        window = rng.standard_normal((8, 2, 2, 3)).astype(np.float32)
        assert select_anchor(window, AnchorStrategy.MIDDLE) == 4

    def test_middle_of_short_window(self, rng):
        window = rng.standard_normal((5, 2, 2, 3)).astype(np.float32)
        assert select_anchor(window, AnchorStrategy.MIDDLE) == 2

    def test_high_change_finds_cut(self):
        a, b = [1.0, 0.0], [0.0, 1.0]
        window = [constant_grid(a), constant_grid(a), constant_grid(b)]
        assert select_anchor(window, AnchorStrategy.HIGH_CHANGE) == 2

    def test_high_change_tie_breaks_earliest(self):
        a = [1.0, 0.0]
        window = [constant_grid(a)] * 4
        assert select_anchor(window, AnchorStrategy.HIGH_CHANGE) == 1

    def test_single_frame_window(self, rng):
        window = rng.standard_normal((1, 2, 2, 3)).astype(np.float32)
        for strategy in AnchorStrategy:
            assert select_anchor(window, strategy) == 0

    def test_string_values_accepted(self, rng):
        window = rng.standard_normal((4, 2, 2, 3)).astype(np.float32)
        assert select_anchor(window, "middle") == 2

    def test_high_change_never_prefers_a_zero_mean_frame(self):
        # Frame 2's mean is zero: it repeats frames 1 and 3 (cosine 1), so
        # the cut to frame 1 (cosine 0.6) is the anchor. Were a zero mean
        # orthogonal to every frame (cosine 0), frame 2 would be.
        a, b, c = [1.0, 0.0], [0.6, 0.8], [0.0, 0.0]
        window = [constant_grid(a), constant_grid(b), constant_grid(c), constant_grid(b)]
        assert select_anchor(window, AnchorStrategy.HIGH_CHANGE) == 1
        # With every candidate a repeat, the earliest one is the anchor.
        window = [constant_grid(c), constant_grid(c), constant_grid(a), constant_grid(c)]
        assert select_anchor(window, AnchorStrategy.HIGH_CHANGE) == 1


class TestHighChangeAnchors:
    """``anchor_frames`` scores a whole stack at once; each window's anchor
    must be the one the window-by-window oracle picks."""

    def test_matches_the_per_window_oracle(self, rng):
        for trial in range(200):
            n, k = int(rng.integers(1, 40)), int(rng.integers(1, 12))
            tokens, dim = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            stack = rng.standard_normal((n, tokens, dim)).astype(np.float32)
            if trial % 3 == 0:  # exact ties: frames alternate between two
                stack[2::2], stack[1::2] = stack[0], stack[min(1, n - 1)]
            if trial % 4 == 1:  # zero mean tokens: all-zero frames and one of +v, -v pairs
                stack[rng.integers(0, n, size=3)] = 0.0
                i, v = int(rng.integers(0, n)), rng.standard_normal(dim).astype(np.float32)
                pairs = tokens // 2 * 2
                stack[i] = 0.0
                stack[i, 0:pairs:2], stack[i, 1:pairs:2] = v, -v
            expected = high_change_oracle(stack, k)
            got = np.flatnonzero(anchor_frames(stack, k, AnchorStrategy.HIGH_CHANGE))
            assert got.tolist() == expected, (trial, n, k)

    def test_ties_and_zero_means_take_the_earliest_candidate(self):
        a, b = [1.0, 0.0], [0.0, 1.0]
        zero = [0.0, 0.0]
        # k = 3 does not divide 8: windows [0, 3), [3, 6), [6, 8)
        frames = [a, b, a, b, a, zero, zero, zero]
        stack = np.stack([constant_grid(f) for f in frames]).reshape(8, 4, 2)
        assert high_change_oracle(stack, 3) == [1, 4, 7]
        flags = anchor_frames(stack, 3, AnchorStrategy.HIGH_CHANGE)
        assert np.flatnonzero(flags).tolist() == [1, 4, 7]


class TestPruneWindow:
    """Stage 3 on a single window (k the window's length), at the anchor
    its strategy chooses."""

    def test_identical_frames_fully_pruned(self):
        window = np.broadcast_to(
            np.array([1.0, 1.0], dtype=np.float32), (4, 2, 2, 2)
        ).copy()
        keep, anchor = prune_single_window(window)
        assert keep.shape == (4, 2, 2) and anchor == 0
        assert keep[0].all() and not keep[1:].any()

    def test_orthogonal_tokens_untouched(self):
        window = np.zeros((2, 1, 2, 2), dtype=np.float32)
        window[0, 0, :, 0] = 1.0
        window[1, 0, :, 1] = 1.0
        keep, _ = prune_single_window(window)
        assert keep.all()

    def test_hand_similarity_case(self):
        # cos((3,4),(4,3)) = 0.96 > 0.8 so the non-anchor token is pruned
        window = np.array(
            [[[[3.0, 4.0]]], [[[4.0, 3.0]]]], dtype=np.float32
        )
        keep, _ = prune_single_window(window)
        assert keep[1].sum() == 0

    def test_zero_norm_tokens_kept(self):
        window = np.ones((2, 1, 2, 2), dtype=np.float32)
        window[1, 0, 0] = 0.0  # zero token in the non-anchor frame
        window[0, 0, 1] = 0.0  # zero token in the anchor
        keep, _ = prune_single_window(window)
        assert keep[1].sum() == 2

    def test_only_anchor_and_zero_norm_similarities_are_minus_inf(self):
        window = np.ones((2, 1, 3, 2), dtype=np.float32)
        window[1, 0, 0] = 0.0  # zero token in the non-anchor frame
        window[0, 0, 1] = 0.0  # zero token in the anchor
        window[1, 0, 2] = -1.0  # opposite the anchor token: a finite cosine of -1
        sims = build_plan(window, 2).sims.reshape(2, 3)
        assert np.isneginf(sims[0]).all()
        assert np.isneginf(sims[1, :2]).all() and sims[1, 2] == pytest.approx(-1.0)

    def test_anchor_choice_respected(self, rng):
        window = rng.standard_normal((5, 3, 3, 4)).astype(np.float32)
        window[3] = window[2]  # a duplicate of the anchor is pruned, the anchor is not
        keep, anchor = prune_single_window(window, AnchorStrategy.MIDDLE)
        assert anchor == 2
        assert keep[2].all() and not keep[3].any()

    def test_matches_oracle(self, rng):
        anchors = set()
        for _ in range(60):
            n = int(rng.integers(1, 9))
            h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            d = int(rng.integers(1, 9))
            window = rng.standard_normal((n, h, w, d)).astype(np.float32)
            if rng.random() < 0.3:  # sprinkle zero tokens
                window[tuple(rng.integers(0, s) for s in (n, h, w))] = 0.0
            strategy = list(AnchorStrategy)[int(rng.integers(0, 3))]
            theta = float(rng.uniform(0.05, 0.95))
            mismatches, anchor = oracle_mismatches(window, strategy, theta)
            assert mismatches == 0
            anchors.add(anchor)
        assert {0, 1, 2} <= anchors  # the anchor is not always the first frame

    def test_position_fidelity(self, rng):
        window = rng.standard_normal((4, 3, 3, 5)).astype(np.float32)
        table = token_table(FrameFeatureSequence(window), np.arange(4), np.ones(4, dtype=bool), (1, 1))
        out = flatten(table, prune_single_window(window, theta=0.5)[0].ravel())
        assert out.total_count > 9
        for f, r, c, vec in zip(out.frame_indices, out.grid_rows, out.grid_cols, out.vectors):
            assert np.array_equal(vec, window[f, r, c])

    def test_invalid_inputs(self, rng):
        # Bad values reach stage 3 only through the boundaries: theta
        # through the config, and the frames through the frame sequence.
        seq = random_sequence(rng, 3, 4, 4, 2)
        with pytest.raises(InvalidConfigError, match=r"theta must be in \(0, 1\), got 1.5"):
            compress(seq, random_query(rng, 2, 2), CompressionConfig(tokens_low=(2, 2), theta=1.5))
        window = seq.frames
        with pytest.raises(ValueError, match="frames must be 4-d"):
            FrameFeatureSequence(window[0])  # not a stack of frames
        ragged = [constant_grid([1.0], 2, 2), constant_grid([1.0], 3, 3)]
        with pytest.raises(ValueError, match="inhomogeneous shape"):
            FrameFeatureSequence(ragged)
        with pytest.raises(ValueError, match="inhomogeneous shape"):
            FrameFeatureSequence([window[0], window[0, :1]])  # ragged arrays


class TestSpatialCompress:
    def test_sixteen_frames_two_windows(self, rng):
        frames = rng.standard_normal((16, 2, 2, 3)).astype(np.float32)
        result = spatial_compress(frames, 8, 0.8)
        assert anchors_of(result, 4) == [0, 8]

    def test_single_frame_untouched(self, rng):
        frames = rng.standard_normal((1, 2, 2, 3)).astype(np.float32)
        result = spatial_compress(frames, 8, 0.8)
        assert result.anchor.all()
        assert result.tokens_after == result.keep.size == 4

    def test_theta_monotonicity(self, rng):
        frames = rng.standard_normal((24, 3, 3, 4)).astype(np.float32)
        frames[1::2] = frames[0::2] + 0.15 * rng.standard_normal(frames[1::2].shape).astype(np.float32)
        counts = [
            spatial_compress(frames, 8, theta).tokens_after
            for theta in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert counts == sorted(counts)

    def test_anchor_conservation(self, rng):
        frames = rng.standard_normal((20, 3, 2, 4)).astype(np.float32)
        result = spatial_compress(frames, 8, 0.6)
        assert int((result.keep & result.anchor).sum()) == int(result.anchor.sum()) == 3 * 6

    def test_window_independence(self, rng):
        frames = rng.standard_normal((16, 2, 2, 3)).astype(np.float32)
        before = spatial_compress(frames, 8, 0.8)
        edited = frames.copy()
        edited[8:] = rng.standard_normal((8, 2, 2, 3)).astype(np.float32)
        after = spatial_compress(edited, 8, 0.8)
        assert np.array_equal(before.keep[:32], after.keep[:32])
        assert np.array_equal(before.anchor[:32], after.anchor[:32])

    def test_matches_window_by_window_pruning(self, rng):
        frames = rng.standard_normal((13, 2, 3, 3)).astype(np.float32)
        frames[6] = frames[5]  # one duplicate to force some pruning
        result = spatial_compress(frames, 5, 0.8, AnchorStrategy.MIDDLE)
        keep = result.keep.reshape(13, 2, 3)
        for start in range(0, 13, 5):
            window = frames[start : start + 5]
            anchor = select_anchor(window, AnchorStrategy.MIDDLE)
            assert oracle_mismatches(window, AnchorStrategy.MIDDLE, 0.8) == (0, anchor)
            alone, _ = prune_single_window(window, AnchorStrategy.MIDDLE)
            assert np.array_equal(keep[start : start + 5], alone)
            assert anchors_of(result, 6)[start // 5] == start + anchor
        assert not result.keep.all()

    def test_metadata_passthrough(self, rng):
        frames = rng.standard_normal((4, 2, 2, 3)).astype(np.float32)
        result = spatial_compress(frames, 2, 0.8)
        stack = np.zeros((41, 2, 2, 3), dtype=np.float32)
        stack[[10, 20, 30, 40]] = frames
        seq = FrameFeatureSequence(stack)
        table = token_table(seq, [10, 20, 30, 40], np.ones(4, dtype=bool), (1, 1))
        out = flatten(table, result.keep)
        kept = result.keep.reshape(4, 4).sum(axis=1)
        assert out.frame_indices.tolist() == np.repeat([10, 20, 30, 40], kept).tolist()
        assert out.timesteps.tolist() == np.repeat([10.0, 20.0, 30.0, 40.0], kept).tolist()
        assert (out.levels == 0).all()

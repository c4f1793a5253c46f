import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcompress import (
    AnchorStrategy,
    CompressionConfig,
    FrameFeatureSequence,
    InvalidConfigError,
    compress,
)
from vtcompress import numerics, spatial
from vtcompress.pipeline import _theta_ladder, flatten
from vtcompress.spatial import build_plan, window_anchor

from .conftest import (
    anchor_frames,
    constant_grid,
    cosine,
    plan_oracle,
    random_query,
    random_sequence,
    token_table,
)


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
    plan = build_plan(window, n, strategy, (theta,))
    (anchor,) = np.flatnonzero(plan.anchor[:: h * w])
    return plan.apply(theta).keep.reshape(n, h, w), int(anchor)


def oracle_mismatches(window, strategy, theta) -> tuple[int, int]:
    """(frames whose keep positions differ from ``prune_oracle``'s at the
    anchor that ``strategy`` chose, that anchor)."""
    keep, anchor = prune_single_window(window, strategy, theta)
    expected = prune_oracle(window, anchor, theta)
    return sum([tuple(p) for p in np.argwhere(f)] != exp for f, exp in zip(keep, expected)), anchor


def select_anchor(window, strategy) -> int:
    """Anchor index of one window of frames, as ``build_plan`` picks it."""
    return prune_single_window(np.stack(window), strategy)[1]


def plan_anchors(stack, k, strategy) -> list[int]:
    """The anchor frames ``build_plan`` picks in a (frames, tokens, dim)
    stack, as a grid of one column."""
    n, tokens, dim = stack.shape
    plan = build_plan(stack.reshape(n, tokens, 1, dim), k, strategy, (0.5,))
    return np.flatnonzero(plan.anchor[::tokens]).tolist()


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
    return build_plan(frames, k, strategy, (theta,)).apply(theta)


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
    """``build_plan`` picks each window's anchor on its own; each must be
    the one the frame-by-frame oracle picks."""

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
            assert plan_anchors(stack, k, AnchorStrategy.HIGH_CHANGE) == expected, (trial, n, k)

    def test_ties_and_zero_means_take_the_earliest_candidate(self):
        a, b = [1.0, 0.0], [0.0, 1.0]
        zero = [0.0, 0.0]
        # k = 3 does not divide 8: windows [0, 3), [3, 6), [6, 8)
        frames = [a, b, a, b, a, zero, zero, zero]
        stack = np.stack([constant_grid(f) for f in frames]).reshape(8, 4, 2)
        assert high_change_oracle(stack, 3) == [1, 4, 7]
        assert plan_anchors(stack, 3, AnchorStrategy.HIGH_CHANGE) == [1, 4, 7]


class TestOneWindowPlan:
    """``build_plan`` plans one window at a time, and the stage-3-off path
    takes each window's anchor from ``window_anchor`` alone; every anchor and
    rung must be those of the whole-stack rule (``conftest.plan_oracle``)."""

    # the two below 0 tell -inf from every cosine but -1
    THRESHOLDS = (0.8, *_theta_ladder(0.8), -0.5, -2.0)

    @staticmethod
    def sweep(rng, dim):
        """(frames, k) for n from 1 to 20 and k from 1 to 9, most with a short
        last window. Where there are frames enough, one frame is all zero,
        one has a zero mean over nonzero tokens and two neighbours are equal;
        every other stack alternates between two frames, so every window's
        ``high_change`` cosines tie."""
        for n in range(1, 21):
            for k in range(1, 10):
                frames = rng.standard_normal((n, 2, 3, dim)).astype(np.float32)
                if (n + k) % 2:
                    frames[2::2], frames[1::2] = frames[0], frames[min(1, n - 1)]
                if n >= 4:
                    zero, balanced, repeat = rng.choice(n - 1, 3, replace=False)
                    frames[repeat + 1] = frames[repeat]
                    frames[zero] = 0.0
                    tokens = frames[balanced].reshape(6, dim)
                    tokens[1::2] = -tokens[0::2]
                yield frames, k

    def check(self, frames, k, work_bytes):
        n = frames.shape[0]
        for strategy in AnchorStrategy:
            expected = plan_oracle(frames, k, strategy, self.THRESHOLDS)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(numerics, "WORK_BYTES", work_bytes)
                plan = build_plan(frames, k, strategy, self.THRESHOLDS)
                anchors = [s + window_anchor(frames[s : s + k], strategy) for s in range(0, n, k)]
            assert np.array_equal(plan.anchor, expected.anchor), (n, k, strategy)
            assert np.array_equal(plan.rungs, expected.rungs), (n, k, strategy)
            assert anchors == np.flatnonzero(expected.anchor[::6]).tolist(), (n, k, strategy)

    def test_matches_the_whole_stack_rule(self, rng):
        for frames, k in self.sweep(rng, 3):
            self.check(frames, k, numerics.WORK_BYTES)

    @pytest.mark.parametrize("group", [1, 2, 7])
    def test_matches_the_whole_stack_rule_in_groups(self, rng, group):
        # the similarities take group frames to float64 at a time
        frame = 2 * 3 * 1152 * 8
        work_bytes = group * frame
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "WORK_BYTES", work_bytes)
            assert numerics.per_chunk(frame, 20) == group
        for frames, k in self.sweep(rng, 1152):
            self.check(frames, k, work_bytes)


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
        # Each token's similarity to the anchor token at its position, worked
        # out here: -inf on the anchor and wherever either token is zero.
        sims = np.full((2, 3), -np.inf)
        for c in range(3):
            a, b = window[0, 0, c], window[1, 0, c]
            if a.any() and b.any():
                sims[1, c] = cosine(a, b)
        assert np.isneginf(sims[0]).all()
        assert np.isneginf(sims[1, :2]).all() and sims[1, 2] == pytest.approx(-1.0)
        # Only a threshold below -1 tells a cosine of -1 from -inf: there the
        # plan keeps the anchor and the zero-norm positions alone.
        thresholds = (0.8, -0.99, -2.0)
        plan = build_plan(window, 2, AnchorStrategy.FIRST, thresholds)
        expected = sum((sims <= t).astype(np.uint8) for t in thresholds)
        assert plan.rungs.tolist() == expected.ravel().tolist() == [3, 3, 3, 3, 3, 2]
        assert plan.apply(-2.0).keep.tolist() == [True] * 5 + [False]

    @pytest.mark.parametrize("dim", [3, 64, 1152])
    def test_similarities_in_groups_have_the_window_bits(self, rng, monkeypatch, dim):
        # Groups of one frame, of two, and the whole window give the same
        # bits; at dim 1,152 the default group is one 8x8 frame.
        window = rng.standard_normal((7, 8, 8, dim)).astype(np.float32)
        window[2, 1] = 0.0  # zero tokens in a frame and in the anchor
        window[4, 0, 3] = 0.0
        frame = 8 * 8 * dim * 8
        assert (numerics.per_chunk(frame, 7) == 1) == (dim == 1152)
        sims = {}
        for group, work_bytes in ((None, numerics.WORK_BYTES), (7, 8 * frame), (2, 2 * frame),
                                  (1, 1)):
            monkeypatch.setattr(numerics, "WORK_BYTES", work_bytes)
            sims[group] = spatial._anchor_sims(window, 4).tobytes()
        assert len(set(sims.values())) == 1

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


class TestRungs:
    """A plan keeps each token's rung, not its float64 similarity. At every
    threshold of the ladder the rungs must keep and count exactly the
    tokens whose similarity is at or below it."""

    @settings(max_examples=200, deadline=None)
    @given(
        theta=st.one_of(st.sampled_from([0.8, 0.55, 0.5, 0.3]), st.floats(0.01, 0.99)),
        drawn=st.lists(st.floats(-1.0, 1.0), max_size=60),
    )
    def test_rungs_decide_as_the_similarities(self, theta, drawn):
        thresholds = (theta, *_theta_ladder(theta))
        edges = [np.nextafter(t, d) for t in thresholds for d in (-np.inf, np.inf)]
        sims = np.array(drawn + list(thresholds) + edges + [-np.inf, -1.0, 1.0])
        frames = np.zeros((1, 1, sims.shape[0], 1), dtype=np.float32)
        with pytest.MonkeyPatch.context() as mp:
            # the plan ranks these similarities in place of computed ones
            mp.setattr(spatial, "_anchor_sims", lambda window, a: sims.reshape(1, 1, -1))
            plan = build_plan(frames, 1, AnchorStrategy.FIRST, thresholds)
        assert plan.rungs.dtype == np.uint8
        for step, t in enumerate(thresholds):
            assert np.array_equal(plan.apply(t).keep, sims <= t)
            assert np.count_nonzero(plan.rungs > step) == np.count_nonzero(sims <= t)

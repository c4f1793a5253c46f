import numpy as np
import pytest

from vtcompress import (
    AnchorStrategy,
    InvalidConfigError,
    InvalidWindowError,
    ZeroVectorError,
    prune_window,
)
from vtcompress.pipeline import flatten
from vtcompress.query_select import token_table
from vtcompress.spatial import anchor_mask, build_plan

from .conftest import constant_grid, cosine, sequence_of


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


def select_anchor(window, strategy) -> int:
    """Anchor index of one window of same-shape frames, through the
    table-wide anchor routine."""
    window = np.stack(window)
    n, h, w, d = window.shape
    mask = anchor_mask(window.reshape(-1, d), np.arange(n + 1) * (h * w), n, strategy)
    assert mask.sum() == h * w
    return int(np.flatnonzero(mask)[0]) // (h * w)


def spatial_compress(frames, k, theta, strategy=AnchorStrategy.FIRST):
    return build_plan(frames, k, strategy).apply(theta)


def anchor_frames(result, tokens_per_frame):
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

    def test_frames_of_different_sizes(self):
        # a 2x2 frame, a 1x1 frame and a 2x2 frame; the cut is at frame 1
        vectors = np.array(
            [[1.0, 0.0]] * 4 + [[0.0, 1.0]] + [[0.0, 1.0]] * 4, dtype=np.float32
        )
        offsets = np.array([0, 4, 5, 9])
        mask = anchor_mask(vectors, offsets, 3, AnchorStrategy.HIGH_CHANGE)
        assert mask.tolist() == [False] * 4 + [True] + [False] * 4
        vectors[5:] = 0.0
        with pytest.raises(ZeroVectorError):
            anchor_mask(vectors, offsets, 3, AnchorStrategy.HIGH_CHANGE)


class TestPruneWindow:
    def test_identical_frames_fully_pruned(self):
        window = np.broadcast_to(
            np.array([1.0, 1.0], dtype=np.float32), (4, 2, 2, 2)
        ).copy()
        keep = prune_window(window, 0, 0.8)
        assert keep.shape == (4, 2, 2)
        assert keep[0].all() and not keep[1:].any()

    def test_orthogonal_tokens_untouched(self):
        window = np.zeros((2, 1, 2, 2), dtype=np.float32)
        window[0, 0, :, 0] = 1.0
        window[1, 0, :, 1] = 1.0
        keep = prune_window(window, 0, 0.8)
        assert keep.all()

    def test_hand_similarity_case(self):
        # cos((3,4),(4,3)) = 0.96 > 0.8 so the non-anchor token is pruned
        window = np.array(
            [[[[3.0, 4.0]]], [[[4.0, 3.0]]]], dtype=np.float32
        )
        keep = prune_window(window, 0, 0.8)
        assert keep[1].sum() == 0

    def test_zero_norm_tokens_kept(self):
        window = np.ones((2, 1, 2, 2), dtype=np.float32)
        window[1, 0, 0] = 0.0  # zero token in the non-anchor frame
        window[0, 0, 1] = 0.0  # zero token in the anchor
        keep = prune_window(window, 0, 0.8)
        assert keep[1].sum() == 2

    def test_anchor_choice_respected(self, rng):
        window = rng.standard_normal((5, 3, 3, 4)).astype(np.float32)
        window[4] = window[3]  # a duplicate of the anchor is pruned, the anchor is not
        keep = prune_window(window, 3, 0.8)
        assert keep[3].all() and not keep[4].any()

    def test_matches_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 9))
            h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            d = int(rng.integers(1, 9))
            window = rng.standard_normal((n, h, w, d)).astype(np.float32)
            if rng.random() < 0.3:  # sprinkle zero tokens
                window[tuple(rng.integers(0, s) for s in (n, h, w))] = 0.0
            anchor = int(rng.integers(0, n))
            theta = float(rng.uniform(0.05, 0.95))
            keep = prune_window(window, anchor, theta)
            expected = prune_oracle(window, anchor, theta)
            for f, exp in zip(keep, expected):
                assert [tuple(p) for p in np.argwhere(f)] == exp

    def test_position_fidelity(self, rng):
        window = rng.standard_normal((4, 3, 3, 5)).astype(np.float32)
        table = token_table(sequence_of(window), np.arange(4), np.ones(4, dtype=bool), (1, 1))
        out = flatten(table, prune_window(window, 0, 0.5).ravel())
        assert out.total_count > 9
        for f, r, c, vec in zip(out.frame_indices, out.grid_rows, out.grid_cols, out.vectors):
            assert np.array_equal(vec, window[f, r, c])

    def test_invalid_inputs(self, rng):
        window = rng.standard_normal((3, 2, 2, 2)).astype(np.float32)
        with pytest.raises(InvalidConfigError):
            prune_window(window, 0, 1.5)
        with pytest.raises(InvalidWindowError):
            prune_window(window, 5, 0.8)
        with pytest.raises(InvalidWindowError):
            prune_window(window[0], 0, 0.8)  # not a stack of frames
        ragged = [constant_grid([1.0], 2, 2), constant_grid([1.0], 3, 3)]
        with pytest.raises(InvalidWindowError):
            prune_window(ragged, 0, 0.8)
        with pytest.raises(InvalidWindowError):
            build_plan(ragged, 2)
        with pytest.raises(InvalidWindowError):
            prune_window([window[0], window[0, :1]], 0, 0.8)  # ragged arrays


class TestSpatialCompress:
    def test_sixteen_frames_two_windows(self, rng):
        frames = rng.standard_normal((16, 2, 2, 3)).astype(np.float32)
        result = spatial_compress(frames, 8, 0.8)
        assert anchor_frames(result, 4) == [0, 8]

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
            assert np.array_equal(keep[start : start + 5], prune_window(window, anchor, 0.8))
            assert anchor_frames(result, 6)[start // 5] == start + anchor
        assert not result.keep.all()

    def test_metadata_passthrough(self, rng):
        frames = rng.standard_normal((4, 2, 2, 3)).astype(np.float32)
        result = spatial_compress(frames, 2, 0.8)
        stack = np.zeros((41, 2, 2, 3), dtype=np.float32)
        stack[[10, 20, 30, 40]] = frames
        seq = sequence_of(stack, np.arange(41) / 10.0 + 0.5)
        table = token_table(seq, [10, 20, 30, 40], np.ones(4, dtype=bool), (1, 1))
        out = flatten(table, result.keep)
        kept = result.keep.reshape(4, 4).sum(axis=1)
        assert out.frame_indices.tolist() == np.repeat([10, 20, 30, 40], kept).tolist()
        assert out.timesteps.tolist() == np.repeat([1.5, 2.5, 3.5, 4.5], kept).tolist()
        assert (out.levels == 0).all()

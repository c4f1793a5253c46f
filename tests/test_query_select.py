import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vtcompress import (
    AdapterShapeError,
    AdapterSpec,
    InvalidConfigError,
    QueryEmbedding,
    frame_query_scores,
    num_full_res_frames,
)
from vtcompress import query_select
from vtcompress.numerics import pool_batch
from vtcompress.query_select import select_and_pool

from .conftest import pool_frame, random_query, random_sequence, scores_oracle, sequence_of


class TestNumFullResFrames:
    def test_paper_default_arithmetic(self):
        assert num_full_res_frames(100, 8192, 100, 144, 64) == 21

    def test_negative_numerator_clamps_to_zero(self):
        assert num_full_res_frames(200, 8192, 100, 144, 64) == 0

    def test_clamps_to_frame_count(self):
        assert num_full_res_frames(40, 8192, 92, 144, 64) == 40

    def test_invalid_grid_sizes(self):
        with pytest.raises(InvalidConfigError):
            num_full_res_frames(10, 8192, 0, 64, 64)
        with pytest.raises(InvalidConfigError):
            num_full_res_frames(10, 8192, 0, 64, 144)
        with pytest.raises(InvalidConfigError):
            num_full_res_frames(10, 0, 0, 144, 64)

    def test_monotonicity(self, rng):
        for _ in range(200):
            t = int(rng.integers(1, 400))
            l_max = int(rng.integers(256, 16384))
            l_q = int(rng.integers(0, 600))
            base = num_full_res_frames(t, l_max, l_q, 144, 64)
            assert num_full_res_frames(t + 1, l_max, l_q, 144, 64) <= base + 1
            assert num_full_res_frames(t, l_max, l_q + 10, 144, 64) <= base
            assert num_full_res_frames(t, l_max + 512, l_q, 144, 64) >= base

    def test_matches_brute_force_spot(self):
        for t in (1, 7, 57, 200):
            for l_q in (0, 50):
                got = num_full_res_frames(t, 4096, l_q, 144, 64)
                feasible = [
                    n for n in range(t + 1) if 144 * n + 64 * (t - n) + l_q <= 4096
                ]
                assert got == (max(feasible) if feasible else 0)


def scores_of(frames, query, adapter):
    return frame_query_scores(sequence_of(frames).means, query, adapter)


class TestFrameQueryScores:
    def test_self_alignment(self):
        q = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        frames = np.broadcast_to(q, (1, 2, 2, 3)).copy()
        scores = scores_of(frames, QueryEmbedding(q[None, :]), AdapterSpec.identity())
        assert scores[0] == pytest.approx(14.0)

    def test_orthogonal_scores_zero(self):
        frames = np.broadcast_to(
            np.array([1.0, 0.0], dtype=np.float32), (3, 2, 2, 2)
        ).copy()
        query = QueryEmbedding(np.array([[0.0, 5.0]], dtype=np.float32))
        assert np.allclose(scores_of(frames, query, AdapterSpec.identity()), 0.0)

    def test_hand_case(self):
        frames = np.array([[[[1.0, 0.0], [0.0, 1.0]]]], dtype=np.float32)
        query = QueryEmbedding(np.array([[2.0, 2.0]], dtype=np.float32))
        scores = scores_of(frames, query, AdapterSpec.identity())
        assert scores[0] == pytest.approx(2.0)

    def test_matches_exhaustive_oracle(self, rng):
        frames = rng.standard_normal((5, 3, 4, 6)).astype(np.float32)
        query = random_query(rng, 3, 4)
        adapter = AdapterSpec.linear(rng.standard_normal((4, 6)), bias=rng.standard_normal(4))
        got = scores_of(frames, query, adapter)
        np.testing.assert_allclose(got, scores_oracle(frames, query, adapter), atol=1e-6)

    def test_dim_mismatch(self, rng):
        frames = rng.standard_normal((2, 2, 2, 3)).astype(np.float32)
        with pytest.raises(AdapterShapeError):
            frame_query_scores(sequence_of(frames).means, random_query(rng, 2, 5), AdapterSpec.identity())


def frame_starts(mixed) -> np.ndarray:
    """Each table frame's first row, and one past the last row."""
    frames = mixed.tokens.frame_indices
    starts = np.flatnonzero(np.diff(frames)) + 1
    bounds = np.concatenate([[0], starts, [frames.shape[0]]])
    assert bounds.shape[0] == mixed.n_frames + 1
    return bounds


def frame_levels(mixed) -> list[str]:
    codes = mixed.tokens.levels[frame_starts(mixed)[:-1]]
    return ["full" if code == 0 else "pooled" for code in codes]


def full_frames(mixed) -> list[int]:
    """Table positions of the frames kept at full resolution."""
    return [i for i, level in enumerate(frame_levels(mixed)) if level == "full"]


def frame_tokens(mixed, i) -> np.ndarray:
    """Frame i's tokens in the table as an (h, w, dim) grid."""
    lo, hi = frame_starts(mixed)[i : i + 2]
    vectors = mixed.tokens.vectors[lo:hi]
    h = mixed.tokens.grid_rows[hi - 1] + 1
    return vectors.reshape(h, -1, vectors.shape[1])


def no_scoring(monkeypatch):
    def refuse(*args):
        raise AssertionError("frames were scored")

    monkeypatch.setattr(query_select, "frame_query_scores", refuse)


def run_select(rng, t=30, l_max=900, l_q=10, h=4, w=4, low=(2, 2), dim=3, **kw):
    frames = rng.standard_normal((t, h, w, dim)).astype(np.float32)
    query = random_query(rng, l_q, dim)
    mixed, plan = select_and_pool(
        sequence_of(frames),
        np.arange(t),
        query,
        kw.pop("adapter", AdapterSpec.identity()),
        l_max,
        low,
        **kw,
    )
    return frames, query, mixed, plan


class TestSelectAndPool:
    def test_under_budget_passthrough(self, rng, monkeypatch):
        no_scoring(monkeypatch)
        frames, _, mixed, plan = run_select(rng, t=10, l_max=8192, l_q=50)
        assert plan.n_full_res == mixed.n_frames == 10
        assert frame_levels(mixed) == ["full"] * 10
        for i in range(10):
            assert np.array_equal(frame_tokens(mixed, i), frames[i])

    def test_all_pooled_when_no_room(self, rng, monkeypatch):
        # 30 frames * 4 low tokens + 10 query tokens leaves no room for full frames
        no_scoring(monkeypatch)
        _, _, mixed, plan = run_select(rng, t=30, l_max=140, l_q=10)
        assert plan.n_full_res == 0
        assert frame_levels(mixed) == ["pooled"] * 30
        assert mixed.tokens.total_count == 30 * 4

    def test_top_scoring_frame_selected(self, rng, monkeypatch):
        t, dim = 30, 3
        frames = rng.standard_normal((t, 4, 4, dim)).astype(np.float32) * 0.1
        query = random_query(rng, 4, dim)
        target = query.rows.mean(axis=0)
        frames[17] = np.broadcast_to(5.0 * target, (4, 4, dim))
        scored = []

        def recording_scores(means, query, adapter):
            scored.append(frame_query_scores(means, query, adapter))
            return scored[-1]

        monkeypatch.setattr(query_select, "frame_query_scores", recording_scores)
        mixed, plan = select_and_pool(
            sequence_of(frames), np.arange(t), query, AdapterSpec.identity(), 300, (2, 2),
        )
        assert plan.n_full_res == num_full_res_frames(t, 300, 4, 16, 4)
        assert 17 in full_frames(mixed)
        oracle = scores_oracle(frames, query, AdapterSpec.identity())
        expected = set(np.argsort(-oracle, kind="stable")[: plan.n_full_res])
        assert full_frames(mixed) == sorted(expected)
        # the frames were scored once, on the input's cached means
        assert len(scored) == 1
        assert scored[0].tobytes() == frame_query_scores(
            sequence_of(frames).means, query, AdapterSpec.identity()
        ).tobytes()

    def test_token_count_identity(self, rng):
        for _ in range(20):
            t = int(rng.integers(1, 50))
            l_max = int(rng.integers(20, 1200))
            frames, query, mixed, plan = run_select(rng, t=t, l_max=l_max, l_q=5)
            n_h = plan.n_full_res
            assert mixed.tokens.total_count == n_h * 16 + (t - n_h) * 4

    def test_budget_feasibility_when_unclamped(self, rng):
        for _ in range(200):
            t = int(rng.integers(1, 300))
            l_max = int(rng.integers(100, 10000))
            l_q = int(rng.integers(0, 200))
            n = num_full_res_frames(t, l_max, l_q, 144, 64)
            raw = (l_max - l_q - t * 64) // 80
            if n == raw:  # unclamped value
                assert n * 144 + (t - n) * 64 + l_q <= l_max

    def test_adapter_scaling_leaves_selection_unchanged(self, rng):
        w = rng.standard_normal((3, 3))
        # at 200 five of the 30 frames stay full, so the scores pick them
        _, _, mixed1, _ = run_select(
            rng.__class__(rng.bit_generator.jumped(1)), l_max=200, adapter=AdapterSpec.linear(w)
        )
        _, _, mixed2, _ = run_select(
            rng.__class__(rng.bit_generator.jumped(1)), l_max=200,
            adapter=AdapterSpec.linear(3.0 * w),
        )
        assert len(full_frames(mixed1)) == 5
        assert full_frames(mixed1) == full_frames(mixed2)

    def test_pooled_frames_bitwise_match_pooling(self, rng):
        frames, _, mixed, plan = run_select(rng, t=25, l_max=160, l_q=5)
        for i, level in enumerate(frame_levels(mixed)):
            if level == "pooled":
                assert np.array_equal(frame_tokens(mixed, i), pool_frame(frames[i], 2, 2))
            else:
                assert np.array_equal(frame_tokens(mixed, i), frames[i])

    def test_only_pooled_frames_are_pooled(self, rng, monkeypatch):
        pooled_counts = []

        def counting_pool(stack, out_h, out_w, index=None):
            pooled_counts.append(len(index))
            return pool_batch(stack, out_h, out_w, index=index)

        monkeypatch.setattr(query_select, "pool_batch", counting_pool)
        _, _, mixed, plan = run_select(rng, t=25, l_max=160, l_q=5)
        assert 0 < plan.n_full_res < 25
        assert pooled_counts == [frame_levels(mixed).count("pooled")] == [25 - plan.n_full_res]

    def test_no_full_frame_pools_the_stack_uncopied(self, rng, monkeypatch):
        stacks = []

        def recording_pool(stack, out_h, out_w, index=None):
            stacks.append((stack, index))
            return pool_batch(stack, out_h, out_w, index=index)

        monkeypatch.setattr(query_select, "pool_batch", recording_pool)
        seq = random_sequence(rng, 30, 4, 4, 3)
        kept = np.array([0, 3, 4, 9, 12, 13, 17, 20, 22, 25, 26, 29])
        mixed, plan = select_and_pool(
            seq, kept, random_query(rng, 10, 3), AdapterSpec.identity(), 58, (2, 2),
        )
        assert plan.n_full_res == 0 and len(stacks) == 1
        # the kept frames are read from the input by index, not copied out first
        assert stacks[0][0] is seq.frames and stacks[0][1].tolist() == kept.tolist()
        assert mixed.tokens.frame_indices[::4].tolist() == kept.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_a_table_with_a_full_frame_fits_the_budget(self, data):
        # compress relies on this: it prunes and subsamples only all-pooled tables
        h, w = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        low = data.draw(st.integers(1, h)), data.draw(st.integers(1, w))
        assume(low[0] * low[1] < h * w)
        t = data.draw(st.integers(1, 60))
        l_q = data.draw(st.integers(1, 40))
        l_max = data.draw(st.integers(1, t * h * w + l_q + 50))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        _, _, mixed, plan = run_select(rng, t=t, l_max=l_max, l_q=l_q, h=h, w=w, low=low, dim=2)
        if plan.n_full_res > 0:
            assert mixed.tokens.total_count + l_q <= l_max

    def test_tie_break_earlier_frame(self):
        frames = np.broadcast_to(
            np.array([1.0, 0.0], dtype=np.float32), (10, 2, 2, 2)
        ).copy()
        query = QueryEmbedding(np.array([[1.0, 0.0]], dtype=np.float32))
        mixed, plan = select_and_pool(
            sequence_of(frames), np.arange(10), query, AdapterSpec.identity(), 30, (1, 1),
        )
        # all scores tie; capacity picks the earliest frames
        assert full_frames(mixed) == list(range(plan.n_full_res))
        assert plan.n_full_res > 0


class TestQueryEmbedding:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            QueryEmbedding(np.zeros((0, 4), dtype=np.float32))

    def test_rejects_non_finite(self):
        rows = np.ones((2, 2), dtype=np.float32)
        rows[0, 0] = np.inf
        with pytest.raises(ValueError):
            QueryEmbedding(rows)

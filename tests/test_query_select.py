import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vtcompress import (
    BudgetInfeasibleError,
    CompressionConfig,
    FrameFeatureSequence,
    InvalidConfigError,
    QueryEmbedding,
    StageToggles,
    compress,
    frame_query_scores,
)
from vtcompress import query_select
from vtcompress.numerics import pool_batch
from vtcompress.pipeline import flatten
from vtcompress.query_select import num_full_res_frames, select_and_pool

from .conftest import pool_frame, random_query, random_sequence, scores_oracle, token_table


class TestNumFullResFrames:
    def test_paper_default_arithmetic(self):
        assert num_full_res_frames(100, 8192, 100, 144, 64) == 21

    def test_negative_numerator_clamps_to_zero(self):
        assert num_full_res_frames(200, 8192, 100, 144, 64) == 0

    def test_clamps_to_frame_count(self):
        assert num_full_res_frames(40, 8192, 92, 144, 64) == 40

    def test_invalid_grid_sizes(self, rng):
        # The formula's preconditions are checked where their values enter:
        # a full frame must hold more tokens than a pooled one, and the
        # context length must be positive.
        seq, query = random_sequence(rng, 10, 8, 8, 3), random_query(rng, 2, 3)
        for low in ((8, 8), (12, 12)):
            message = re.escape(f"input grid 8x8 must hold more tokens than pooled grid {low}")
            with pytest.raises(InvalidConfigError, match=message):
                compress(seq, query, CompressionConfig(tokens_low=low))
        with pytest.raises(InvalidConfigError, match="context length must be positive, got 0"):
            compress(seq, query, CompressionConfig(l_max=0))

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


def scores_of(frames, query):
    return frame_query_scores(FrameFeatureSequence(frames).means, query)


class TestFrameQueryScores:
    def test_self_alignment(self):
        q = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        frames = np.broadcast_to(q, (1, 2, 2, 3)).copy()
        scores = scores_of(frames, QueryEmbedding(q[None, :]))
        assert scores[0] == pytest.approx(14.0)

    def test_orthogonal_scores_zero(self):
        frames = np.broadcast_to(
            np.array([1.0, 0.0], dtype=np.float32), (3, 2, 2, 2)
        ).copy()
        query = QueryEmbedding(np.array([[0.0, 5.0]], dtype=np.float32))
        assert np.allclose(scores_of(frames, query), 0.0)

    def test_hand_case(self):
        frames = np.array([[[[1.0, 0.0], [0.0, 1.0]]]], dtype=np.float32)
        query = QueryEmbedding(np.array([[2.0, 2.0]], dtype=np.float32))
        scores = scores_of(frames, query)
        assert scores[0] == pytest.approx(2.0)

    def test_matches_exhaustive_oracle(self, rng):
        frames = rng.standard_normal((5, 3, 4, 6)).astype(np.float32)
        query = random_query(rng, 3, 6)
        got = scores_of(frames, query)
        np.testing.assert_allclose(got, scores_oracle(frames, query), atol=1e-6)

    def test_dim_mismatch(self, rng):
        frames = rng.standard_normal((2, 2, 2, 3)).astype(np.float32)
        with pytest.raises(InvalidConfigError, match="query embedding has dim 5 but the tokens have dim 3"):
            frame_query_scores(FrameFeatureSequence(frames).means, random_query(rng, 2, 5))


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


def run_select(rng, n_full, t=30, l_q=10, h=4, w=4, low=(2, 2), dim=3):
    frames = rng.standard_normal((t, h, w, dim)).astype(np.float32)
    query = random_query(rng, l_q, dim)
    mixed, plan = select_and_pool(FrameFeatureSequence(frames), np.arange(t), query, n_full, low)
    return frames, query, mixed, plan


def compress_whole(seq, query, l_max, low=(2, 2), stages=None):
    """``compress`` with stage 1 off, so every input frame reaches stage 2,
    and the other stages as ``stages`` sets them; an infeasible run gives no
    output and the stats its error carries."""
    cfg = CompressionConfig(l_max=l_max, tokens_low=low, j=4, k=4,
                            stages=StageToggles(temporal=False, **(stages or {})))
    try:
        return compress(seq, query, cfg)
    except BudgetInfeasibleError as exc:
        return None, exc.stats


class TestFullResCount:
    """``compress`` decides how many frames stay at full resolution; the
    budget formula gives the count only with the query stage on."""

    # 30 frames of 4x4 pooled to 2x2 and a 10-token query: (l_max, stages,
    # the count). At 300 the formula gives (300 - 10 - 120) // 12 = 14.
    CASES = {
        "all full": (490, {}, 30),
        "partial": (300, {}, 14),
        "query off": (300, {"query": False}, 0),
        "query off, fits": (490, {"query": False}, 30),
        "every stage off": (300, {"query": False, "stc": False}, 30),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_count_on_every_table_path(self, rng, case):
        l_max, stages, n_full = self.CASES[case]
        seq, query = random_sequence(rng, 30, 4, 4, 3), random_query(rng, 10, 3)
        out, stats = compress_whole(seq, query, l_max, stages=stages)
        assert stats.n_full_res == n_full
        if case == "partial":
            assert n_full == num_full_res_frames(30, l_max, 10, 16, 4)
        assert np.count_nonzero(out.levels == 0) == n_full * 16
        assert out.total_count == stats.tokens_after_query == n_full * 16 + (30 - n_full) * 4


class TestSelectAndPool:
    def test_under_budget_passthrough(self, rng, monkeypatch):
        no_scoring(monkeypatch)
        frames, _, mixed, plan = run_select(rng, 10, t=10, l_q=50)
        assert plan.n_full_res == mixed.n_frames == 10
        assert frame_levels(mixed) == ["full"] * 10
        for i in range(10):
            assert np.array_equal(frame_tokens(mixed, i), frames[i])

    def test_all_pooled_when_no_room(self, rng, monkeypatch):
        no_scoring(monkeypatch)
        _, _, mixed, plan = run_select(rng, 0, t=30, l_q=10)
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

        def recording_scores(means, query):
            scored.append(frame_query_scores(means, query))
            return scored[-1]

        monkeypatch.setattr(query_select, "frame_query_scores", recording_scores)
        # the count compress gives 30 frames at 300 tokens with 4 query tokens
        n_full = num_full_res_frames(t, 300, 4, 16, 4)
        mixed, plan = select_and_pool(FrameFeatureSequence(frames), np.arange(t), query, n_full, (2, 2))
        assert plan.n_full_res == n_full
        assert 17 in full_frames(mixed)
        oracle = scores_oracle(frames, query)
        expected = set(np.argsort(-oracle, kind="stable")[: plan.n_full_res])
        assert full_frames(mixed) == sorted(expected)
        # the frames were scored once, on the input's cached means
        assert len(scored) == 1
        assert scored[0].tobytes() == frame_query_scores(
            FrameFeatureSequence(frames).means, query
        ).tobytes()

    def test_token_count_identity(self, rng):
        for _ in range(20):
            t = int(rng.integers(1, 50))
            l_max = int(rng.integers(20, 1200))
            _, stats = compress_whole(random_sequence(rng, t, 4, 4, 3), random_query(rng, 5, 3), l_max)
            n_h = stats.n_full_res
            assert n_h == num_full_res_frames(t, l_max, 5, 16, 4)
            assert stats.tokens_after_query == n_h * 16 + (t - n_h) * 4

    def test_budget_feasibility_when_unclamped(self, rng):
        for _ in range(200):
            t = int(rng.integers(1, 300))
            l_max = int(rng.integers(100, 10000))
            l_q = int(rng.integers(0, 200))
            n = num_full_res_frames(t, l_max, l_q, 144, 64)
            raw = (l_max - l_q - t * 64) // 80
            if n == raw:  # unclamped value
                assert n * 144 + (t - n) * 64 + l_q <= l_max

    def test_projector_folded_into_the_query_keeps_the_oracle_top_frames(self, rng):
        # Tokens scored through an affine map x -> W x + b are scored by the
        # query rows @ W: the bias shifts every frame's score alike.
        for _ in range(20):
            t = int(rng.integers(2, 30))
            dim, dim_q = (int(d) for d in rng.integers(1, 6, 2))
            frames = rng.standard_normal((t, 4, 4, dim)).astype(np.float32)
            weight, bias = rng.standard_normal((dim_q, dim)), rng.standard_normal(dim_q)
            rows = rng.standard_normal((3, dim_q))
            l_max = int(rng.integers(3 + 4 * t, 3 + 16 * t))
            oracle = scores_oracle(frames @ weight.T + bias, QueryEmbedding(rows))
            n_full = num_full_res_frames(t, l_max, 3, 16, 4)
            mixed, plan = select_and_pool(
                FrameFeatureSequence(frames), np.arange(t), QueryEmbedding(rows @ weight),
                n_full, (2, 2),
            )
            assert plan.n_full_res == n_full
            expected = np.argsort(-oracle, kind="stable")[:n_full]
            assert full_frames(mixed) == sorted(expected.tolist())

    def test_pooled_frames_bitwise_match_pooling(self, rng):
        frames, _, mixed, plan = run_select(rng, 4, t=25, l_q=5)
        for i, level in enumerate(frame_levels(mixed)):
            if level == "pooled":
                assert np.array_equal(frame_tokens(mixed, i), pool_frame(frames[i], 2, 2))
            else:
                assert np.array_equal(frame_tokens(mixed, i), frames[i])

    def test_only_pooled_frames_are_pooled(self, rng, monkeypatch):
        pooled_counts = []

        def counting_pool(stack, out_h, out_w, index):
            pooled_counts.append(len(index))
            return pool_batch(stack, out_h, out_w, index=index)

        monkeypatch.setattr(query_select, "pool_batch", counting_pool)
        _, _, mixed, plan = run_select(rng, 4, t=25, l_q=5)
        assert 0 < plan.n_full_res < 25
        assert pooled_counts == [frame_levels(mixed).count("pooled")] == [25 - plan.n_full_res]

    def test_no_full_frame_pools_the_stack_uncopied(self, rng, monkeypatch):
        stacks = []

        def recording_pool(stack, out_h, out_w, index):
            stacks.append((stack, index))
            return pool_batch(stack, out_h, out_w, index=index)

        monkeypatch.setattr(query_select, "pool_batch", recording_pool)
        seq = random_sequence(rng, 30, 4, 4, 3)
        kept = np.array([0, 3, 4, 9, 12, 13, 17, 20, 22, 25, 26, 29])
        mixed, plan = select_and_pool(seq, kept, random_query(rng, 10, 3), 0, (2, 2))
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
        seq, query = random_sequence(rng, t, h, w, 2), random_query(rng, l_q, 2)
        out, stats = compress_whole(seq, query, l_max, low)
        if stats.n_full_res > 0:
            assert out.total_count + l_q <= l_max

    def test_tie_break_earlier_frame(self):
        frames = np.broadcast_to(
            np.array([1.0, 0.0], dtype=np.float32), (10, 2, 2, 2)
        ).copy()
        query = QueryEmbedding(np.array([[1.0, 0.0]], dtype=np.float32))
        # the count compress gives 10 frames at 30 tokens with 1 query token
        n_full = num_full_res_frames(10, 30, 1, 4, 1)
        mixed, plan = select_and_pool(FrameFeatureSequence(frames), np.arange(10), query, n_full, (1, 1))
        # all scores tie; capacity picks the earliest frames
        assert full_frames(mixed) == list(range(plan.n_full_res))
        assert plan.n_full_res > 0


def assert_same_bytes(got, expected):
    """Every column of two token sequences holds the same bytes and dtype."""
    for name in ("frame_indices", "grid_rows", "grid_cols", "levels", "vectors"):
        x, y = getattr(got, name), getattr(expected, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


class TestOneEmitter:
    """``select_and_pool`` writes ``compress``'s output on every path: the
    whole table, or the given rows of the pooled table built in a store.
    Each output is the whole-table oracle's rows, byte for byte."""

    GRIDS = [(8, 8), (5, 7)]  # from 12x12: the default pooled grid, and an uneven one
    KEPT = np.array([1, 2, 4, 7, 8, 11])

    def video(self, rng):
        seq = random_sequence(rng, 12, 12, 12, 6)
        return seq, random_query(rng, 3, 6)

    @pytest.mark.parametrize("low", GRIDS)
    @pytest.mark.parametrize("n_full", [6, 0, 2])  # a full, a pooled and a mixed table
    def test_all_rows_of_a_table(self, rng, low, n_full):
        seq, query = self.video(rng)
        got, plan = select_and_pool(seq, self.KEPT, query, n_full, low)
        scores = scores_oracle(seq.frames[self.KEPT], query)
        full = np.zeros(self.KEPT.shape[0], dtype=bool)
        full[np.argsort(-scores, kind="stable")[:n_full]] = True
        table = token_table(seq, self.KEPT, full, low)
        assert (got.n_frames, plan.n_full_res) == (6, n_full)
        assert_same_bytes(got.tokens, flatten(table, np.ones(table.tokens.total_count, dtype=bool)))
        assert not np.shares_memory(got.tokens.vectors, seq.frames)

    @pytest.mark.parametrize("low", GRIDS)
    @pytest.mark.parametrize("stored", ["none", "some", "all"])
    def test_rows_from_a_store(self, rng, low, stored):
        # The store holds none, some or all of the output rows, and other
        # rows beside them; its spare rows start as NaN.
        seq, query = self.video(rng)
        table = token_table(seq, self.KEPT, np.zeros(6, dtype=bool), low)
        n = table.tokens.total_count
        keep = rng.random(n) < 0.4
        rows = np.flatnonzero(keep)
        held = {"none": ~keep, "some": rng.random(n) < 0.5, "all": keep | (rng.random(n) < 0.3)}[stored]
        stored_rows = np.flatnonzero(held)
        assert (keep & held).any() == (stored != "none")
        assert (keep & ~held).any() == (stored != "all")
        vectors = np.full((max(rows.shape[0], stored_rows.shape[0]) + 3, 6), np.nan, np.float32)
        vectors[: stored_rows.shape[0]] = table.tokens.vectors[stored_rows]
        got, plan = select_and_pool(seq, self.KEPT, query, 0, low, rows, (stored_rows, vectors))
        assert (got.n_frames, plan.n_full_res) == (6, 0)
        assert_same_bytes(got.tokens, flatten(table, keep))


class TestQueryEmbedding:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            QueryEmbedding(np.zeros((0, 4), dtype=np.float32))

    def test_rejects_non_finite(self):
        rows = np.ones((2, 2), dtype=np.float32)
        rows[0, 0] = np.inf
        with pytest.raises(ValueError):
            QueryEmbedding(rows)

import tracemalloc

import numpy as np
import pytest

from vtcompress import (
    AnchorStrategy,
    BudgetInfeasibleError,
    CompressionConfig,
    FramePositionConfig,
    FrameFeatureSequence,
    InvalidConfigError,
    QueryEmbedding,
    StageToggles,
    apply_position_encoding,
    compress,
)
from vtcompress.pipeline import enforce_budget, flatten
from vtcompress.query_select import token_table
from vtcompress.spatial import SpatialCompressionResult, anchor_frames, build_plan
from vtcompress.temporal import reduce_frames

from .conftest import (
    assert_tokens_equal,
    pool_frame,
    random_query,
    random_sequence,
    sequence_from_vectors,
    sequence_of,
)


def small_config(**kw):
    """Config for 4x4 input grids pooled to 2x2, so tests stay fast."""
    defaults = dict(l_max=200, tokens_low=(2, 2), j=4, k=4)
    defaults.update(kw)
    return CompressionConfig(**defaults)


class TestConfigValidation:
    def test_defaults_valid(self):
        CompressionConfig().validate()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(theta=0.0),
            dict(theta=1.0),
            dict(tau_t=0.0),
            dict(tau_t=1.2),
            dict(j=0),
            dict(k=0),
            dict(l_max=0),
            # the input grid against the default 8x8 pooled grid: it must
            # hold more tokens, and the pooled grid must fit inside it
            dict(grid=(8, 8)),
            dict(grid=(2, 32)),
        ],
    )
    def test_invalid_values(self, rng, kw):
        kw = dict(kw)
        seq = random_sequence(rng, 2, *kw.pop("grid", (12, 12)), 4)
        with pytest.raises(InvalidConfigError):
            compress(seq, random_query(rng, 2, 4), CompressionConfig(**kw))


class TestCompressTraces:
    def test_identical_frames_generous_budget(self, rng):
        # ten identical frames: two windows of (8, 2), one survivor each
        seq = sequence_from_vectors([[1.0, 0.0, 0.0, 0.0]] * 10, h=4, w=4)
        cfg = small_config(l_max=5000, j=8)
        out, stats = compress(seq, random_query(rng, 5, 4), cfg)
        assert stats.frames_after_temporal == 2
        assert stats.n_full_res == 2
        assert (out.levels == 0).all()
        assert out.total_count == 2 * 16

    def test_default_budget_arithmetic(self, rng):
        # 100 frames surviving into selection with a 100-token query:
        # (8192 - 100 - 6400) / 80 = 21 full frames, 21*144 + 79*64 = 8080
        seq = random_sequence(rng, 100, 12, 12, 8)
        cfg = CompressionConfig(stages=StageToggles(temporal=False))
        out, stats = compress(seq, random_query(rng, 100, 8), cfg)
        assert stats.n_full_res == 21
        assert stats.tokens_after_query == 21 * 144 + 79 * 64 == 8080
        assert out.total_count == 8080
        assert stats.tokens_final + 100 <= 8192

    def test_full_grid_comes_from_the_input(self, rng):
        # a 16x16 encoder at the defaults: 40 * 256 tokens are over budget,
        # so (8192 - 8 - 40*64) / 192 = 29 frames stay full
        seq = random_sequence(rng, 40, 16, 16, 4)
        cfg = CompressionConfig(stages=StageToggles(temporal=False))
        out, stats = compress(seq, random_query(rng, 8, 4), cfg)
        assert stats.n_full_res == 29
        assert out.total_count == stats.tokens_final == 29 * 256 + 11 * 64
        full = out.levels == 0
        assert out.grid_rows[full].max() == out.grid_cols[full].max() == 15

    def test_hour_long_redundant_video(self, rng):
        from vtcompress import SynthSpec, gen_video

        video = gen_video(
            SynthSpec(n_frames=1200, n_scenes=18, drift_scenes_fraction=0.05, dim=16, seed=4)
        )
        cfg = CompressionConfig()
        out, stats = compress(video, random_query(rng, 64, 16), cfg)
        assert stats.tokens_final + 64 <= 8192

    def test_empty_input_rejected(self):
        with pytest.raises(Exception):
            FrameFeatureSequence(np.zeros((0, 4, 4, 2), dtype=np.float32), np.zeros(0))

    def test_wrong_input_resolution(self, rng):
        # a 6x6 input cannot be pooled to the default 8x8 grid
        seq = random_sequence(rng, 4, 6, 6, 2)
        with pytest.raises(InvalidConfigError):
            compress(seq, random_query(rng, 2, 2), CompressionConfig())


class TestStageToggles:
    def test_all_disabled_raw_flatten_over_budget(self, rng):
        seq = random_sequence(rng, 30, 4, 4, 3)
        cfg = small_config(
            l_max=64, stages=StageToggles(temporal=False, query=False, stc=False)
        )
        out, stats = compress(seq, random_query(rng, 5, 3), cfg)
        assert out.total_count == 30 * 16  # over budget, untouched
        assert not stats.fallback_used
        assert stats.total_reduction_rate == 0.0

    def test_all_disabled_under_budget_matches_raw_enumeration(self, rng):
        seq = random_sequence(rng, 3, 4, 4, 3)
        cfg = small_config(
            l_max=5000, stages=StageToggles(temporal=False, query=False, stc=False)
        )
        out, _ = compress(seq, random_query(rng, 5, 3), cfg)
        assert out.total_count == 48
        k = 0
        for f in range(3):
            for r in range(4):
                for c in range(4):
                    assert out.frame_indices[k] == f
                    assert (out.grid_rows[k], out.grid_cols[k]) == (r, c)
                    assert np.array_equal(out.vectors[k], seq.frames[f, r, c])
                    k += 1

    def test_query_disabled_pools_everything(self, rng):
        seq = random_sequence(rng, 30, 4, 4, 3)
        cfg = small_config(l_max=200, stages=StageToggles(temporal=False, query=False))
        out, stats = compress(seq, random_query(rng, 5, 3), cfg)
        assert stats.n_full_res == 0
        assert (out.levels == 1).all()

    def test_stc_disabled_goes_straight_to_subsample(self, rng):
        seq = random_sequence(rng, 30, 4, 4, 3)
        cfg = small_config(l_max=100, stages=StageToggles(temporal=False, stc=False))
        out, stats = compress(seq, random_query(rng, 5, 3), cfg)
        assert stats.tokens_after_spatial == stats.tokens_after_query
        assert stats.fallback_used
        assert stats.tokens_final + 5 == 100  # budget met exactly

    def test_temporal_runs_even_under_budget(self, rng):
        seq = sequence_from_vectors([[1.0, 0.0]] * 8, h=4, w=4)
        cfg = small_config(l_max=100000, j=8)
        _, stats = compress(seq, random_query(rng, 5, 2), cfg)
        assert stats.frames_after_temporal == 1


class TestEnforceBudget:
    def test_under_budget_is_identity(self, rng):
        frames = rng.standard_normal((8, 2, 2, 3)).astype(np.float32)
        result = build_plan(frames, 4).apply(0.8)
        cfg = small_config(l_max=1000)
        out, theta, fallback = enforce_budget(result, cfg, 0)
        assert out is result
        assert theta == cfg.theta and not fallback

    def test_identical_frames_already_maximally_pruned(self, rng):
        seq = sequence_from_vectors([[1.0, 1.0]] * 32, h=4, w=4)
        cfg = small_config(l_max=40, j=4, k=4, stages=StageToggles(temporal=False))
        out, stats = compress(seq, random_query(rng, 2, 2), cfg)
        # 8 windows of 4 pooled frames; anchors keep 4 tokens, rest pruned
        assert stats.tokens_after_spatial == 8 * 4
        assert stats.tokens_final == 32
        assert not stats.fallback_used

    def test_orthogonal_video_subsampled_to_exact_budget(self, rng):
        # per-position random tokens rarely exceed theta, so pruning does
        # nothing and the uniform subsample must land exactly on budget
        seq = random_sequence(rng, 40, 4, 4, 16)
        cfg = small_config(l_max=90)
        out, stats = compress(seq, random_query(rng, 10, 16), cfg)
        assert stats.fallback_used
        assert stats.theta_effective == 0.5
        assert stats.tokens_final == 80
        assert out.total_count == 80

    def test_infeasible_when_anchors_exceed_budget(self, rng):
        seq = random_sequence(rng, 40, 4, 4, 8)
        cfg = small_config(l_max=30, k=1)  # every frame is its own anchor
        with pytest.raises(BudgetInfeasibleError) as info:
            compress(seq, random_query(rng, 5, 8), cfg)
        assert info.value.anchor_tokens > info.value.budget

    def test_infeasible_error_carries_stage_stats(self, rng):
        seq = random_sequence(rng, 40, 4, 4, 8)
        query = random_query(rng, 5, 8)
        # 10 windows of 4 pooled frames: anchors hold 40 tokens, 25 fit
        cfg = small_config(l_max=30, stages=StageToggles(temporal=False))
        with pytest.raises(BudgetInfeasibleError) as info:
            compress(seq, query, cfg)
        assert (info.value.anchor_tokens, info.value.budget) == (40, 25)
        stats = info.value.stats
        assert stats.tokens_final is None and stats.total_reduction_rate is None
        assert stats.budget == 30 and stats.fallback_used
        # at l_max=60 the anchors fit but pooling alone still does not, so
        # every stage before the budget verdict runs exactly as above
        _, feasible = compress(seq, query, small_config(l_max=60, stages=StageToggles(temporal=False)))
        assert feasible.tokens_final == 55
        for name in (
            "frames_in",
            "frames_after_temporal",
            "n_full_res",
            "tokens_after_query",
            "tokens_after_spatial",
            "query_tokens",
            "temporal_keep_rate",
            "query_reduction_rate",
            "spatial_reduction_rate",
        ):
            assert getattr(stats, name) == getattr(feasible, name), name

    def test_anchors_preserved_by_subsampling(self, rng):
        seq = random_sequence(rng, 40, 4, 4, 16)
        cfg = small_config(l_max=90)
        out, stats = compress(seq, random_query(rng, 10, 16), cfg)
        # anchor frames of each k-window keep all 4 pooled tokens
        anchor_frames = set(out.frame_indices[i] for i in range(out.total_count))
        windows = (40 + cfg.k - 1) // cfg.k
        counts = {}
        for i in range(out.total_count):
            counts[int(out.frame_indices[i])] = counts.get(int(out.frame_indices[i]), 0) + 1
        full_anchor_count = sum(1 for v in counts.values() if v == 4)
        assert full_anchor_count >= windows

    def test_theta_ladder_tightens_before_subsampling(self):
        # correlated frames: 0.8 does not prune enough, a lower step does
        r = np.random.default_rng(7)
        base = r.standard_normal((4, 4, 6)).astype(np.float32)
        frames = base[None] + 0.55 * r.standard_normal((64, 4, 4, 6)).astype(np.float32)
        seq = FrameFeatureSequence(frames.astype(np.float32), np.arange(64, dtype=np.float64))
        query = QueryEmbedding(r.standard_normal((10, 6)).astype(np.float32))
        cfg = small_config(l_max=150, stages=StageToggles(temporal=False))
        out, stats = compress(seq, query, cfg)
        assert stats.tokens_after_spatial + 10 > 150  # 0.8 alone was not enough
        assert stats.tokens_final + 10 <= 150
        assert stats.fallback_used
        assert 0.5 < stats.theta_effective < 0.8
        assert stats.tokens_final < stats.tokens_after_spatial


def stepwise_budget_oracle(plan, theta: float, budget: int):
    """Reference budget enforcement: apply each theta step in turn, then keep
    the anchors plus a uniform-by-rank subset of the remaining survivors.
    Returns (theta, fallback, keep mask over the plan's tokens)."""
    keep = plan.sims <= theta
    if keep.sum() <= budget:
        return theta, False, keep
    while theta > 0.5 + 1e-12:
        theta = max(0.5, round(theta - 0.05, 10))
        keep = plan.sims <= theta
        if keep.sum() <= budget:
            return theta, True, keep
    anchors = plan.anchor
    quota = budget - int(keep[anchors].sum())
    rest = np.flatnonzero(keep & ~anchors)
    out = keep & anchors
    out[rest[(np.arange(quota) * rest.size) // quota]] = True
    return theta, True, out


class TestBudgetLadder:
    """``enforce_budget`` counts survivors per theta step instead of applying
    the plan at each one; its output must equal the stepwise reference."""

    def run_case(self, frames, theta, budget, k=4):
        plan = build_plan(frames, k)
        cfg = small_config(l_max=budget + 3, theta=theta)
        result = plan.apply(theta)
        out, theta_eff, fallback = enforce_budget(result, cfg, 3, plan=plan)
        ref_theta, ref_fallback, keep = stepwise_budget_oracle(plan, theta, budget)
        assert (theta_eff, fallback) == (ref_theta, ref_fallback)
        assert out.tokens_after == int(keep.sum()) <= budget
        n, h, w, _ = frames.shape
        frame_idx, pos = np.divmod(np.flatnonzero(keep), h * w)
        table = token_table(sequence_of(frames), np.arange(n), np.zeros(n, dtype=bool), (h, w))
        got = flatten(table, out.keep)
        assert np.array_equal(got.frame_indices, frame_idx)
        assert np.array_equal(got.grid_rows, pos // w)
        assert np.array_equal(got.grid_cols, pos % w)
        assert got.vectors.tobytes() == frames.reshape(n, h * w, -1)[frame_idx, pos].tobytes()
        return theta_eff, fallback

    def correlated(self, rng, n, noise):
        base = rng.standard_normal((3, 3, 5)).astype(np.float32)
        return (base[None] + noise * rng.standard_normal((n, 3, 3, 5))).astype(np.float32)

    def test_random_plans_at_default_theta(self, rng):
        fallback_thetas = set()
        for _ in range(40):
            frames = self.correlated(rng, int(rng.integers(5, 40)), float(rng.uniform(0.3, 1.2)))
            anchors = 9 * ((frames.shape[0] + 3) // 4)
            budget = int(rng.integers(anchors, frames.shape[0] * 9 + 1))
            theta_eff, fallback = self.run_case(frames, 0.8, budget)
            if fallback:
                fallback_thetas.add(theta_eff)
        # the cases cover a ladder that stops part-way and one that runs out
        assert 0.5 in fallback_thetas and fallback_thetas - {0.5}

    def test_theta_at_or_below_floor_has_no_ladder(self, rng):
        for theta in (0.5, 0.3):
            frames = self.correlated(rng, 24, 1.0)
            theta_eff, fallback = self.run_case(frames, theta, 6 * 9 + 10)
            assert theta_eff == theta and fallback

    def test_no_step_fits_subsamples_at_the_floor(self, rng):
        frames = rng.standard_normal((24, 3, 3, 5)).astype(np.float32)
        theta_eff, fallback = self.run_case(frames, 0.8, 6 * 9 + 1)
        assert theta_eff == 0.5 and fallback

    def test_already_under_budget(self, rng):
        frames = self.correlated(rng, 24, 0.5)
        theta_eff, fallback = self.run_case(frames, 0.8, 24 * 9)
        assert theta_eff == 0.8 and not fallback


class TestFlatten:
    def test_single_full_frame_enumeration(self, rng):
        data = rng.standard_normal((12, 12, 3)).astype(np.float32)
        table = token_table(sequence_of(data[None]), [0], np.array([True]), (8, 8))
        out = flatten(table, np.ones(144, dtype=bool))
        assert out.total_count == 144
        assert out.grid_rows[0] == 0 and out.grid_cols[0] == 0
        assert out.grid_rows[143] == 11 and out.grid_cols[143] == 11
        assert np.array_equal(out.vectors.reshape(12, 12, 3), data)

    def test_two_pooled_frames_in_order(self, rng):
        frames = rng.standard_normal((10, 12, 12, 2)).astype(np.float32)
        table = token_table(sequence_of(frames), [3, 9], np.array([False, False]), (8, 8))
        out = flatten(table, np.ones(128, dtype=bool))
        assert out.total_count == 128
        assert (out.frame_indices[:64] == 3).all() and (out.frame_indices[64:] == 9).all()
        assert (out.levels == 1).all()

    def test_pruned_positions_pass_through(self, rng):
        frames = rng.standard_normal((8, 8, 8, 4)).astype(np.float32)
        table = token_table(sequence_of(frames), [7], np.array([False]), (8, 8))
        keep = np.zeros(64, dtype=bool)
        keep[[0, 3 * 8 + 5]] = True
        out = flatten(table, keep)
        assert out.total_count == 2
        assert out.grid_rows.tolist() == [0, 3]
        assert out.grid_cols.tolist() == [0, 5]
        assert np.array_equal(out.vectors, frames[7, [0, 3], [0, 5]])

    def test_interleaved_levels_under_a_keep_mask(self, rng):
        frames = rng.standard_normal((14, 4, 4, 3)).astype(np.float32)
        timesteps = np.arange(14) / 4.0
        full = np.array([True, False, True, False, False])
        indices = [2, 5, 7, 11, 13]
        times = timesteps[indices].tolist()
        table = token_table(sequence_of(frames, timesteps), indices, full, (2, 2))
        keep = rng.random(table.tokens.total_count) < 0.5
        out = flatten(table, keep)
        expected, row = [], 0  # (frame, timestep, row, col, level, vector) in table order
        for i, f in enumerate(indices):
            grid = frames[f] if full[i] else pool_frame(frames[f], 2, 2)
            for r in range(grid.shape[0]):
                for c in range(grid.shape[1]):
                    if keep[row]:
                        expected.append((indices[i], times[i], r, c, 0 if full[i] else 1, grid[r, c]))
                    row += 1
        assert row == table.tokens.total_count == 2 * 16 + 3 * 4
        assert out.frame_indices.tolist() == [e[0] for e in expected]
        assert out.timesteps.tolist() == [e[1] for e in expected]
        assert out.grid_rows.tolist() == [e[2] for e in expected]
        assert out.grid_cols.tolist() == [e[3] for e in expected]
        assert out.levels.tolist() == [e[4] for e in expected]
        assert np.array_equal(out.vectors, np.array([e[5] for e in expected]).reshape(-1, 3))


class TestPipelineInvariants:
    def test_hard_budget_fuzz(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 80))
            seq = random_sequence(rng, n, 4, 4, 4)
            l_max = int(rng.integers(24, 600))
            l_q = int(rng.integers(1, 12))
            cfg = small_config(
                l_max=l_max,
                theta=float(rng.uniform(0.55, 0.95)),
                tau_t=float(rng.uniform(0.5, 1.0)),
                j=int(rng.integers(1, 10)),
                k=int(rng.integers(1, 10)),
            )
            try:
                out, stats = compress(seq, random_query(rng, l_q, 4), cfg)
            except BudgetInfeasibleError as exc:
                assert exc.anchor_tokens > exc.budget
                continue
            assert stats.tokens_final + l_q <= l_max

    def test_stage_monotonicity(self, rng):
        seq = random_sequence(rng, 50, 4, 4, 4)
        _, stats = compress(seq, random_query(rng, 8, 4), small_config(l_max=300))
        t_after = stats.frames_after_temporal
        assert stats.tokens_final <= stats.tokens_after_spatial
        assert stats.tokens_after_spatial <= stats.tokens_after_query
        assert stats.tokens_after_query <= t_after * 16
        assert 0.0 <= stats.spatial_reduction_rate <= 1.0
        assert 0.0 <= stats.total_reduction_rate <= 1.0

    def test_determinism(self, rng):
        seq = random_sequence(rng, 40, 4, 4, 4)
        q = random_query(rng, 8, 4)
        out1, stats1 = compress(seq, q, small_config(l_max=150))
        out2, stats2 = compress(seq, q, small_config(l_max=150))
        assert_tokens_equal(out1, out2)
        assert stats1 == stats2

    def test_provenance_closure(self, rng):
        seq = random_sequence(rng, 36, 4, 4, 4)
        cfg = small_config(l_max=220)
        out, stats = compress(seq, random_query(rng, 8, 4), cfg)
        pooled_cache = {}
        for f, r, c, level, vector in zip(
            out.frame_indices, out.grid_rows, out.grid_cols, out.levels, out.vectors
        ):
            original = seq.frames[f]
            if level == 0:  # full
                assert np.array_equal(vector, original[r, c])
            else:
                if f not in pooled_cache:
                    pooled_cache[f] = pool_frame(original, *cfg.tokens_low)
                assert np.array_equal(vector, pooled_cache[f][r, c])

    def test_output_ordering(self, rng):
        seq = random_sequence(rng, 30, 4, 4, 4)
        out, _ = compress(seq, random_query(rng, 8, 4), small_config(l_max=220))
        keys = list(zip(out.timesteps.tolist(), out.grid_rows.tolist(), out.grid_cols.tolist()))
        assert keys == sorted(keys)

    def test_fpe_applied_last(self, rng):
        seq = sequence_from_vectors([[1.0, 0.0, 0.0, 0.0]] * 4, h=4, w=4)
        cfg_plain = small_config(l_max=5000)
        cfg_fpe = small_config(l_max=5000, fpe=FramePositionConfig(enabled=True, dim=4))
        q = random_query(rng, 4, 4)
        plain, _ = compress(seq, q, cfg_plain)
        shifted, _ = compress(seq, q, cfg_fpe)
        from vtcompress import encoding_vector

        for i in range(shifted.total_count):
            offset = encoding_vector(float(shifted.timesteps[i]), 4)
            np.testing.assert_allclose(
                shifted.vectors[i], plain.vectors[i] + offset, atol=1e-6
            )

    # The token table is compress's output and is encoded in place, so it
    # must be new memory in each of its three cases: 6 frames of 16 tokens
    # (4 pooled) and 2 query tokens fit whole at 5000, keep 2 full frames at
    # 50 and fit only pooled at 26.
    @pytest.mark.parametrize("fpe", [False, True], ids=["off", "on"])
    @pytest.mark.parametrize("case", ["full", "mixed", "pooled"])
    def test_output_shares_no_memory_with_the_input(self, rng, case, fpe):
        l_max, n_full = {"full": (5000, 6), "mixed": (50, 2), "pooled": (26, 0)}[case]
        seq = random_sequence(rng, 6, 4, 4, 4)
        before = seq.frames.copy()
        cfg = small_config(l_max=l_max, stages=StageToggles(temporal=False),
                           fpe=FramePositionConfig(enabled=fpe, dim=4))
        out, stats = compress(seq, random_query(rng, 2, 4), cfg)
        assert stats.n_full_res == n_full
        assert stats.tokens_final == stats.tokens_after_query  # the table, whole
        if case == "full" and not fpe:
            assert np.array_equal(out.vectors, seq.frames.reshape(-1, 4))
        for column in vars(out).values():
            assert not np.shares_memory(column, seq.frames)
            assert not np.shares_memory(column, seq.timesteps)
        assert seq.frames.tobytes() == before.tobytes()

    def test_keep_all_wrapper_counts(self, rng):
        # the anchors that subsampling keeps when stage 3 does not prune
        frames = rng.standard_normal((7, 2, 2, 3)).astype(np.float32)
        table = token_table(sequence_of(frames), np.arange(7), np.zeros(7, dtype=bool), (2, 2))
        assert table.tokens.total_count == 28
        flags = anchor_frames(table.tokens.vectors.reshape(7, 4, 3), 3, AnchorStrategy.FIRST)
        assert np.flatnonzero(flags).tolist() == [0, 3, 6]

    @staticmethod
    def half_static_peak(rng):
        """Compress a 512-frame video whose stage 1 keeps 9 of every 16
        frames (the odd windows hold 8 distinct frames, the even ones 8
        copies of one) at 4k; returns the input, the stats and compress's
        own allocation peak."""
        frames = rng.standard_normal((512, 12, 12, 64)).astype(np.float32)
        static = np.arange(512) // 8 % 2 == 0
        frames[static] = frames[static][::8].repeat(8, axis=0)
        seq = sequence_of(frames)
        cfg = CompressionConfig(l_max=4096)
        query = random_query(rng, 8, 64)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out, stats = compress(seq, query, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert stats.frames_after_temporal == 288 and stats.n_full_res == 0
        assert stats.tokens_final + 8 <= 4096
        return frames, stats, peak

    def test_pooled_path_reads_the_input_without_copying_it(self, rng):
        # Stage 2 pools every survivor from the input by index, so compress's
        # own peak stays well under half the input; a copy of the survivors
        # alone would be 56% of it.
        frames, _, peak = self.half_static_peak(rng)
        assert peak < frames.nbytes / 2, (peak, frames.nbytes)

    def test_over_budget_peak_is_below_the_pooled_table(self, rng):
        # The 288 kept frames pool to 18,432 tokens against a 4,088 budget.
        # Pooling block by block keeps compress's peak below the bytes of
        # the pooled table alone.
        _, stats, peak = self.half_static_peak(rng)
        table_bytes = 288 * 64 * 64 * 4
        assert stats.tokens_after_query * 64 * 4 == table_bytes
        assert peak < table_bytes, (peak, table_bytes)


def whole_table_oracle(seq, query, cfg):
    """What compress returns for a video whose pooled table is over budget,
    worked out on the whole pooled table: token_table, build_plan (or the
    anchors alone with stage 3 off), enforce_budget, flatten and position
    encoding. Returns (tokens or None, the stats fields the stages set)."""
    kept = np.arange(seq.n_frames)
    if cfg.stages.temporal:
        kept = reduce_frames(seq, cfg.j, cfg.tau_t).kept_indices
    t, (h_l, w_l) = kept.shape[0], cfg.tokens_low
    table = token_table(seq, kept, np.zeros(t, dtype=bool), cfg.tokens_low)
    assert table.tokens.total_count + query.n_tokens > cfg.l_max  # the over-budget case
    stack = table.tokens.vectors.reshape(t, h_l, w_l, -1)
    plan = None
    if cfg.stages.stc:
        plan = build_plan(stack, cfg.k, cfg.anchor)
        result = plan.apply(cfg.theta)
    else:
        anchor = anchor_frames(stack.reshape(t, h_l * w_l, -1), cfg.k, cfg.anchor)
        result = SpatialCompressionResult(
            np.ones(table.tokens.total_count, dtype=bool), np.repeat(anchor, h_l * w_l)
        )
    stats = dict(frames_after_temporal=t, n_full_res=0,
                 tokens_after_query=table.tokens.total_count,
                 tokens_after_spatial=result.tokens_after)
    try:
        result, theta_eff, fallback = enforce_budget(result, cfg, query.n_tokens, plan=plan)
    except BudgetInfeasibleError:
        return None, dict(stats, theta_effective=cfg.theta, fallback_used=True, tokens_final=None)
    tokens = apply_position_encoding(flatten(table, result.keep), cfg.fpe)
    return tokens, dict(stats, theta_effective=theta_eff, fallback_used=fallback,
                        tokens_final=tokens.total_count)


class TestOverBudgetPath:
    """compress pools an over-budget video block by block and emits its kept
    tokens from a budget-sized store and by pooling tokens again; every
    output must be what the whole pooled table gives."""

    @pytest.mark.parametrize("anchor", list(AnchorStrategy))
    @pytest.mark.parametrize("stc", [True, False])
    @pytest.mark.parametrize("fpe", [True, False])
    @pytest.mark.parametrize("grid,pooled", [((4, 4), (2, 2)), ((5, 7), (3, 2))])
    def test_matches_the_whole_table(self, rng, anchor, stc, fpe, grid, pooled):
        # 61 frames in 7 drifting scenes, all kept by stage 1: 61 is no
        # multiple of k = 3, so the last window holds one frame. Small
        # budgets take several blocks; the largest take one.
        scenes = rng.standard_normal((7, *grid, 6))
        frames = scenes[np.arange(61) * 7 // 61] + 0.35 * rng.standard_normal((61, *grid, 6))
        seq = sequence_of(frames.astype(np.float32), np.arange(61) * 0.5)
        query = random_query(rng, 5, 6)
        outcomes = set()
        # budgets the 61 pooled frames exceed with the 5 query tokens
        for l_max in range(20, 61 * pooled[0] * pooled[1] + 5, 20):
            cfg = small_config(
                l_max=l_max, tokens_low=pooled, k=3, theta=0.7, tau_t=0.995, anchor=anchor,
                fpe=FramePositionConfig(enabled=fpe, dim=6), stages=StageToggles(stc=stc),
            )
            expected, expected_stats = whole_table_oracle(seq, query, cfg)
            try:
                out, stats = compress(seq, query, cfg)
            except BudgetInfeasibleError as exc:
                out, stats = None, exc.stats
            assert stats.frames_after_temporal == 61
            for name, value in expected_stats.items():
                assert getattr(stats, name) == value, (l_max, name)
            if expected is None:
                assert out is None
                outcomes.add("infeasible")
                continue
            assert_tokens_equal(out, expected)
            assert stats.tokens_final + 5 <= l_max
            if stats.tokens_final + 5 == l_max:
                outcomes.add("subsampled")
            else:
                outcomes.add("ladder" if stats.theta_effective < cfg.theta else "at theta")
        assert {"infeasible", "subsampled"} <= outcomes, outcomes
        if stc:
            assert "at theta" in outcomes, outcomes

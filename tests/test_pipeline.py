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
    compress,
    enforce_budget,
    flatten,
)
from vtcompress.query_select import token_table
from vtcompress.spatial import anchor_mask, build_plan

from .conftest import (
    assert_tokens_equal,
    pool_frame,
    random_query,
    random_sequence,
    sequence_from_vectors,
    sequence_of,
)


def small_config(**kw):
    """Config scaled down to 4x4 -> 2x2 grids so tests stay fast."""
    defaults = dict(l_max=200, tokens_high=(4, 4), tokens_low=(2, 2), j=4, k=4)
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
            dict(tokens_high=(8, 8), tokens_low=(8, 8)),
            dict(tokens_high=(2, 32), tokens_low=(8, 8)),
            dict(min_full_res_frames=-1),
        ],
    )
    def test_invalid_values(self, kw):
        with pytest.raises(InvalidConfigError):
            CompressionConfig(**kw).validate()


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
        seq = random_sequence(rng, 4, 6, 6, 2)
        with pytest.raises(InvalidConfigError):
            compress(seq, random_query(rng, 2, 2), small_config())


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
        keep = rng.random(table.token_count) < 0.5
        out = flatten(table, keep)
        expected, row = [], 0  # (frame, timestep, row, col, level, vector) in table order
        for i, f in enumerate(indices):
            grid = frames[f] if full[i] else pool_frame(frames[f], 2, 2)
            for r in range(grid.shape[0]):
                for c in range(grid.shape[1]):
                    if keep[row]:
                        expected.append((indices[i], times[i], r, c, 0 if full[i] else 1, grid[r, c]))
                    row += 1
        assert row == table.token_count == 2 * 16 + 3 * 4
        assert out.frame_indices.tolist() == [e[0] for e in expected]
        assert out.timesteps.tolist() == [e[1] for e in expected]
        assert out.grid_rows.tolist() == [e[2] for e in expected]
        assert out.grid_cols.tolist() == [e[3] for e in expected]
        assert out.levels.tolist() == [e[4] for e in expected]
        assert np.array_equal(out.vectors, np.array([e[5] for e in expected]).reshape(-1, 3))

    def test_output_shares_no_memory_with_the_input(self, rng):
        seq = random_sequence(rng, 6, 4, 4, 3)
        cfg = small_config(l_max=5000, stages=StageToggles(temporal=False))
        out, stats = compress(seq, random_query(rng, 2, 3), cfg)
        assert stats.n_full_res == 6 and not cfg.fpe.enabled
        assert np.array_equal(out.vectors, seq.frames.reshape(-1, 3))
        assert not np.shares_memory(out.vectors, seq.frames)


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

    def test_min_full_res_forces_mixed_overflow_path(self, rng):
        seq = random_sequence(rng, 60, 4, 4, 4)
        cfg = small_config(l_max=120, min_full_res_frames=8, stages=StageToggles(temporal=False))
        out, stats = compress(seq, random_query(rng, 4, 4), cfg)
        assert stats.n_full_res == 8
        assert stats.tokens_final + 4 <= 120
        assert stats.fallback_used

    def test_keep_all_wrapper_counts(self, rng):
        # the anchors that subsampling keeps when stage 3 does not prune
        frames = rng.standard_normal((7, 2, 2, 3)).astype(np.float32)
        table = token_table(sequence_of(frames), np.arange(7), np.zeros(7, dtype=bool), (2, 2))
        assert table.token_count == 28
        mask = anchor_mask(table.tokens.vectors, table.offsets, 3, AnchorStrategy.FIRST)
        assert np.flatnonzero(mask[::4]).tolist() == [0, 3, 6]
        assert mask.sum() == 3 * 4

    def test_mixed_overflow_keeps_high_change_anchors_whole(self, rng):
        frames = random_sequence(rng, 30, 4, 4, 4).frames.copy()
        frames[10:14] = frames[10]  # a run of repeats moves the anchor
        seq = sequence_of(frames)
        query = random_query(rng, 4, 4)
        cfg = small_config(
            l_max=104, min_full_res_frames=6, anchor=AnchorStrategy.HIGH_CHANGE,
            stages=StageToggles(temporal=False),
        )
        out, stats = compress(seq, query, cfg)
        assert stats.n_full_res == 6 and stats.fallback_used
        assert stats.tokens_final == out.total_count == 100  # the budget, exactly
        # oracle: each frame's mean token at its emitted level, then per window
        # the frame least similar to its predecessor
        scores = seq.frames.mean(axis=(1, 2), dtype=np.float64) @ query.rows.mean(axis=0, dtype=np.float64)
        full = set(np.argsort(-scores, kind="stable")[:6])
        grids = [
            seq.frames[i] if i in full else pool_frame(seq.frames[i], 2, 2)
            for i in range(30)
        ]
        anchors = []
        for start in range(0, 30, cfg.k):
            means = [grids[i].mean(axis=(0, 1), dtype=np.float64) for i in range(start, min(start + cfg.k, 30))]
            unit = [m / np.linalg.norm(m) for m in means]
            changes = [float(np.dot(unit[i], unit[i - 1])) for i in range(1, len(unit))]
            anchor = start + 1 + int(np.argmin(changes))
            anchors.append(anchor)
            kept = int((out.frame_indices == anchor).sum())
            assert kept == grids[anchor].shape[0] * grids[anchor].shape[1]
        assert full & set(anchors)  # a full-resolution frame is among the anchors

    def test_pooled_path_reads_the_input_without_copying_it(self, rng):
        # Stage 1 keeps 9 of every 16 frames: the odd windows hold 8 distinct
        # frames, the even ones 8 copies of one. Stage 2 pools every survivor
        # from the input by index, so compress's own peak stays well under
        # half the input; a copy of the survivors alone would be 56% of it.
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
        assert peak < frames.nbytes / 2, (peak, frames.nbytes)

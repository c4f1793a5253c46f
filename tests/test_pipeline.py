import json
import math
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcompress import (
    AnchorStrategy,
    BudgetInfeasibleError,
    CompressionConfig,
    FramePositionConfig,
    FrameFeatureSequence,
    InvalidConfigError,
    NeedleSpec,
    QueryEmbedding,
    StageToggles,
    SynthSpec,
    apply_position_encoding,
    compress,
    encoding_vector,
    gen_video,
    insert_needle,
    make_mixed_corpus,
    make_needle_grid,
)
from vtcompress import numerics, pipeline, query_select
from vtcompress.formats import write_compressed
from vtcompress.numerics import pool_batch
from vtcompress.pipeline import _subsample_to_budget, _theta_ladder, enforce_budget, flatten
from vtcompress.spatial import PruningPlan, SpatialCompressionResult, build_plan
from vtcompress.synthbench import needle_study
from vtcompress.temporal import reduce_frames
from vtcompress.tokens import LEVEL_CODE

from .conftest import (
    anchor_frames,
    assert_tokens_equal,
    frame_summaries,
    packed_lvuc,
    pool_frame,
    random_query,
    random_sequence,
    sequence_from_vectors,
    token_table,
    window_average_similarity,
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
            dict(theta=0.0, match=r"theta must be in \(0, 1\), got 0.0"),
            dict(theta=1.0, match=r"theta must be in \(0, 1\), got 1.0"),
            dict(tau_t=0.0, match=r"tau_t must be in \(0, 1\], got 0.0"),
            dict(tau_t=1.2, match=r"tau_t must be in \(0, 1\], got 1.2"),
            # an integer too large for a float is compared as it is
            dict(theta=10**400, match=r"theta must be in \(0, 1\), got 1000000"),
            dict(tau_t=-(10**400), match=r"tau_t must be in \(0, 1\], got -1000000"),
            dict(j=0, match="j must be >= 1, got 0"),
            dict(k=0, match="k must be >= 1, got 0"),
            dict(l_max=0, match="context length must be positive, got 0"),
            # the input grid against the default 8x8 pooled grid: it must
            # hold more tokens, and the pooled grid must fit inside it
            dict(grid=(8, 8), match=r"input grid 8x8 must hold more tokens than pooled grid \(8, 8\)"),
            dict(grid=(2, 32), match=r"input grid 2x32 must hold more tokens than pooled grid \(8, 8\)"),
            # malformed settings, which only a library caller can send
            dict(anchor="bogus", match="anchor must be one of first, middle, high_change; got 'bogus'"),
            dict(tokens_low=(8, 8, 8), match=r"pooled grid must be two integers, got \(8, 8, 8\)"),
            dict(tokens_low=(8,), match=r"pooled grid must be two integers, got \(8,\)"),
            dict(j=2.5, match="j must be an integer, got 2.5"),
            dict(grid=(4, 32), match=r"pooled grid \(8, 8\) must fit inside the input grid 4x32"),
            # a setting of the wrong type; a bool is no integer here
            dict(theta="0.8", match="theta must be a real number, got '0.8'"),
            dict(tau_t=None, match="tau_t must be a real number, got None"),
            dict(fpe=None, match="fpe must be a FramePositionConfig, got None"),
            dict(stages=None, match="stages must be a StageToggles, got None"),
            dict(j=True, match="j must be an integer, got True"),
            dict(l_max=True, match="l_max must be an integer, got True"),
            dict(tokens_low=(True, 8), match=r"pooled grid must be two integers, got \(True, 8\)"),
            dict(stages=StageToggles(temporal="no"), match="stages.temporal must be a bool, got 'no'"),
            dict(stages=StageToggles(stc=None), match="stages.stc must be a bool, got None"),
            dict(stages=StageToggles(query=1), match="stages.query must be a bool, got 1"),
            dict(fpe=FramePositionConfig(enabled="no"), match="fpe.enabled must be a bool, got 'no'"),
            dict(fpe=FramePositionConfig(enabled=True, dim=2.5),
                 match="fpe.dim must be None or an integer, got 2.5"),
            dict(fpe=FramePositionConfig(enabled=True, dim=True),
                 match="fpe.dim must be None or an integer, got True"),
        ],
    )
    def test_invalid_values(self, rng, kw):
        kw = dict(kw)
        seq = random_sequence(rng, 2, *kw.pop("grid", (12, 12)), 4)
        with pytest.raises(InvalidConfigError, match=kw.pop("match")):
            compress(seq, random_query(rng, 2, 4), CompressionConfig(**kw))

    def test_fpe_width_comes_from_the_tokens(self, rng):
        seq = random_sequence(rng, 6, 4, 4, 5)
        query = random_query(rng, 2, 5)
        given, _ = compress(seq, query, small_config(fpe=FramePositionConfig(enabled=True, dim=5)))
        taken, _ = compress(seq, query, small_config(fpe=FramePositionConfig(enabled=True)))
        assert_tokens_equal(taken, given)
        for dim in (1, 4):
            with pytest.raises(InvalidConfigError):
                compress(seq, query, small_config(fpe=FramePositionConfig(enabled=True, dim=dim)))


def python_number(value):
    """``value`` with each numpy number in it replaced by the Python number
    of equal value, and a numpy array by a list of them."""
    if isinstance(value, dict):
        return {name: python_number(x) for name, x in value.items()}
    if isinstance(value, (tuple, list)):
        return type(value)(python_number(x) for x in value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value.item() if isinstance(value, np.generic) else value


def spec_numbers(spec):
    """Every numeric field of a SynthSpec, the grid's two entries included."""
    return [spec.n_frames, spec.n_scenes, spec.intra_scene_noise,
            spec.drift_scenes_fraction, spec.dim, spec.seed, *spec.grid]


# Each runner takes the keyword arguments under test and returns the run's
# output, as bytes or JSON, and every setting it stored or returned.
def synth_run(kw):
    spec = SynthSpec(**{"n_frames": 40, "n_scenes": 3, "dim": 8, "grid": (4, 4), "seed": 5, **kw})
    return gen_video(spec).frames.tobytes(), spec_numbers(spec)


def needle_run(kw):
    kw = dict(kw)
    haystack = SynthSpec(**{"n_frames": 1, "n_scenes": 1, "dim": 16, **kw.pop("haystack", {})})
    spec = NeedleSpec(**{"haystack": haystack, "depths": (0.5,), "frame_counts": (8,), **kw})
    cells = needle_study(spec, [CompressionConfig(l_max=2000)])
    stored = [*spec.depths, *spec.frame_counts, spec.query_alignment, *spec_numbers(haystack)]
    return json.dumps(cells), stored


def corpus_run(kw):
    specs = make_mixed_corpus(**kw)
    return json.dumps([asdict(spec) for spec in specs]), [x for s in specs for x in spec_numbers(s)]


def insert_run(kw):
    spec = SynthSpec(n_frames=5, n_scenes=1, dim=4, grid=(2, 2), seed=3)
    out, index = insert_needle(gen_video(spec), make_needle_grid(spec), **kw)
    return (out.frames.tobytes(), index), [index]


class TestNumpyNumberSettings:
    """A numpy number that a config, a spec or a generator accepts acts as
    the Python number of equal value: the same written bytes, frames or JSON,
    or the same refusal, with no numpy warning on the way, and what is stored
    is the Python number."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(l_max=np.int64(1500)),
            dict(l_max=np.int32(1500), fpe_dim=np.int64(4)),
            dict(theta=np.float32(0.75)),
            dict(theta=np.float32(0.7), l_max=1500),  # no float32 sum is a float64 one
            dict(tau_t=np.float32(0.85)),
            dict(tokens_low=(np.int64(4), np.int64(4))),
            dict(tokens_low=(np.uint8(5), np.int16(7)), l_max=1500),
            dict(j=np.int64(4), k=np.uint64(3), l_max=1500),
            dict(l_max=np.uint32(1500), j=np.uint8(4), fpe_dim=np.uint8(4)),
            dict(tau_t=np.uint8(1)),  # an integer is a real number
            dict(k=np.int64(2**62), l_max=1500),  # a block of 2^62 windows overflows int64
            # refused, with the message the Python number gives
            dict(tokens_low=(np.int64(2**32),) * 2),  # h_l * w_l wraps to 0 in int64
            dict(tokens_low=(np.int64(0), np.int64(4))),
            dict(tokens_low=(np.int64(4), np.float32(4.0))),
            dict(theta=np.float32(1.1)),
            dict(tau_t=np.float64(0.0)),
            dict(l_max=np.int64(0)),
            dict(j=np.int8(-1)),
            dict(fpe_dim=np.int64(5)),
            dict(l_max=np.int64(200)),  # infeasible
        ],
    )
    def test_same_bytes_and_messages_as_python_numbers(self, rng, tmp_path, kw):
        seq = random_sequence(rng, 30, 12, 12, 4)
        query = random_query(rng, 2, 4)

        def outcome(settings, name):
            settings = dict(settings)
            dim = settings.pop("fpe_dim", None)
            cfg = CompressionConfig(fpe=FramePositionConfig(enabled=True, dim=dim), **settings)
            try:
                out, stats = compress(seq, query, cfg)
            except InvalidConfigError as exc:
                return "refused", str(exc)
            except BudgetInfeasibleError as exc:
                return "infeasible", str(exc), exc.stats.to_dict()
            write_compressed(tmp_path / name, out, stats)
            return "written", (tmp_path / name).read_bytes()

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            numpy_run = outcome(kw, "numpy.lvuc")
            python_run = outcome({name: python_number(v) for name, v in kw.items()}, "python.lvuc")
        assert numpy_run == python_run

    def test_validate_stores_python_numbers(self):
        cfg = CompressionConfig(
            l_max=np.int64(1500), tokens_low=(np.int32(4), np.uint16(4)), j=np.int8(4),
            k=np.uint64(3), theta=np.float32(0.7), tau_t=np.float16(0.85),
            fpe=FramePositionConfig(enabled=True, dim=np.int64(4)),
        )
        cfg.validate()
        assert [type(v) for v in (cfg.l_max, cfg.j, cfg.k, cfg.fpe.dim)] == [int] * 4
        assert cfg.tokens_low == (4, 4) and [type(v) for v in cfg.tokens_low] == [int, int]
        assert (type(cfg.theta), type(cfg.tau_t)) == (float, float)
        assert cfg.theta == float(np.float32(0.7)) and cfg.tau_t == float(np.float16(0.85))

    @pytest.mark.parametrize(
        "run, kw",
        [
            # SynthSpec: the generated frames
            (synth_run, dict(n_frames=np.uint64(100), n_scenes=7, dim=32, grid=(12, 12))),
            (synth_run, dict(n_frames=np.uint32(100), n_scenes=7)),
            (synth_run, dict(n_frames=np.uint8(100), n_scenes=7)),
            (synth_run, dict(n_frames=np.int64(40), n_scenes=np.int16(3))),
            (synth_run, dict(n_scenes=np.uint8(3), dim=np.int32(8))),
            (synth_run, dict(dim=np.uint16(8), grid=(np.int64(4), np.uint8(4)))),
            (synth_run, dict(seed=np.int64(5))),
            (synth_run, dict(seed=np.uint64(2**64 - 1))),
            (synth_run, dict(intra_scene_noise=np.float32(0.05), drift_scenes_fraction=np.float32(0.5))),
            (synth_run, dict(intra_scene_noise=np.uint8(0), drift_scenes_fraction=np.int64(1))),
            # NeedleSpec: the cells' JSON
            (needle_run, dict(frame_counts=(np.int64(8),))),
            (needle_run, dict(depths=(np.float32(0.5),))),
            (needle_run, dict(frame_counts=(np.uint8(200),))),
            (needle_run, dict(frame_counts=(np.int8(127),))),  # count + 1 overflows int8
            (needle_run, dict(frame_counts=np.array([8, 16]),
                              depths=np.array([0.0, 0.3], dtype=np.float32))),
            (needle_run, dict(depths=(np.uint8(0), np.int64(1)))),
            (needle_run, dict(query_alignment=np.float32(0.75))),
            (needle_run, dict(query_alignment=np.uint8(1))),
            (needle_run, dict(haystack=dict(dim=np.uint8(16), grid=(np.int32(12), np.uint16(12)),
                                            seed=np.int64(3)))),
            # NeedleSpec and SynthSpec sequences: the refusal shows Python numbers
            (needle_run, dict(depths=[np.float32(1.5)])),
            (needle_run, dict(depths=(np.float64(0.5), np.float32(1.5)))),
            (needle_run, dict(depths=np.array([0.0, 1.5], dtype=np.float32))),
            (needle_run, dict(frame_counts=np.array([10, 2.5]))),
            (needle_run, dict(frame_counts=[np.int64(8), np.float32(2.5)])),
            (needle_run, dict(frame_counts=(np.uint8(8), True))),
            (synth_run, dict(grid=(np.int64(4), np.float32(4.5)))),
            # make_mixed_corpus: the specs' JSON, or the refusal
            (corpus_run, dict(n_videos=np.int64(2), seed=np.int64(7))),
            (corpus_run, dict(n_videos=np.uint8(1), seed=np.uint64(2**64 - 1))),
            (corpus_run, dict(n_videos=np.int64(0), seed=1)),
            (corpus_run, dict(n_videos=1, seed=np.int8(-1))),
            # insert_needle: the frames and the index, or the refusal
            (insert_run, dict(depth=np.float32(0.1))),  # 5 * float32(0.1) rounds to 0.5 in float32
            (insert_run, dict(depth=np.float32(0.7))),
            (insert_run, dict(depth=np.uint8(1))),
            (insert_run, dict(depth=np.int64(0))),
            (insert_run, dict(depth=np.float64(1.5))),
        ],
    )
    def test_synthbench_settings_act_as_python_numbers(self, run, kw):
        def outcome(settings):
            try:
                return run(settings)
            except InvalidConfigError as exc:
                return str(exc), []

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            numpy_out, stored = outcome(kw)
            python_out, _ = outcome(python_number(kw))
        assert numpy_out == python_out
        assert all(type(x) in (int, float) for x in stored)


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
        with pytest.raises(ValueError, match="frame sequence is empty"):
            FrameFeatureSequence(np.zeros((0, 4, 4, 2), dtype=np.float32))

    def test_wrong_input_resolution(self, rng):
        # a 6x6 input cannot be pooled to the default 8x8 grid
        seq = random_sequence(rng, 4, 6, 6, 2)
        with pytest.raises(InvalidConfigError):
            compress(seq, random_query(rng, 2, 2), CompressionConfig())


class TestQueryWidth:
    """With the query stage on, a query whose dim is not the tokens' dim is
    rejected before stage 1, whichever way the table is then built."""

    @pytest.mark.parametrize("l_max, path", [(100000, "full"), (3000, "mixed"), (1000, "pooled")])
    def test_rejected_before_stage_one(self, monkeypatch, l_max, path):
        video = gen_video(SynthSpec(n_frames=64, n_scenes=2, dim=8, seed=2))
        cfg = CompressionConfig(l_max=l_max)
        _, stats = compress(video, QueryEmbedding(np.ones((4, 8), dtype=np.float32)), cfg)
        t, n_full = stats.frames_after_temporal, stats.n_full_res
        assert {"full": n_full == t, "mixed": 0 < n_full < t,
                "pooled": n_full == 0 and stats.tokens_after_query + 4 > l_max}[path]
        monkeypatch.setattr(pipeline, "reduce_frames", lambda *a: pytest.fail("stage 1 ran"))
        with pytest.raises(InvalidConfigError, match="query embedding has dim 5 but the tokens have dim 8"):
            compress(video, QueryEmbedding(np.ones((4, 5), dtype=np.float32)), cfg)


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
        plan = build_plan(frames, 4, AnchorStrategy.FIRST, (0.8,))
        result = plan.apply(0.8)
        out, theta, fallback = enforce_budget(result, 0.8, 1000, plan)
        assert out is result
        assert theta == 0.8 and not fallback

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
        seq = FrameFeatureSequence(frames.astype(np.float32))
        query = QueryEmbedding(r.standard_normal((10, 6)).astype(np.float32))
        cfg = small_config(l_max=150, stages=StageToggles(temporal=False))
        out, stats = compress(seq, query, cfg)
        assert stats.tokens_after_spatial + 10 > 150  # 0.8 alone was not enough
        assert stats.tokens_final + 10 <= 150
        assert stats.fallback_used
        assert 0.5 < stats.theta_effective < 0.8
        assert stats.tokens_final < stats.tokens_after_spatial


def first_anchor_similarities(frames, k):
    """Each token's float64 cosine to the token at its grid position in the
    first frame of its k-window, flat in table order, and a flag per token
    on those first frames, the anchors. Anchor tokens and positions where
    either token has zero norm are at -inf. Worked out here, apart from the
    program's plan."""
    f = frames.astype(np.float64)
    anchor_of = np.arange(f.shape[0]) // k * k
    a = f[anchor_of]
    dots = (f * a).sum(axis=-1)
    denom = np.sqrt((f * f).sum(axis=-1)) * np.sqrt((a * a).sum(axis=-1))
    sims = np.full(dots.shape, -np.inf)
    ok = denom > 0
    sims[ok] = np.clip(dots[ok] / denom[ok], -1.0, 1.0)
    is_anchor = anchor_of == np.arange(f.shape[0])
    sims[is_anchor] = -np.inf
    tokens = f.shape[1] * f.shape[2]
    return sims.reshape(-1), np.repeat(is_anchor, tokens)


def stepwise_budget_oracle(sims, anchors, theta: float, budget: int):
    """Reference budget enforcement on similarities: keep those at or below
    each theta step in turn, then the anchors plus a uniform-by-rank subset
    of the remaining survivors. Returns (theta, fallback, keep mask)."""
    keep = sims <= theta
    if keep.sum() <= budget:
        return theta, False, keep
    while theta > 0.5 + 1e-12:
        theta = max(0.5, round(theta - 0.05, 10))
        keep = sims <= theta
        if keep.sum() <= budget:
            return theta, True, keep
    quota = budget - int(keep[anchors].sum())
    rest = np.flatnonzero(keep & ~anchors)
    out = keep & anchors
    out[rest[(np.arange(quota) * rest.size) // quota]] = True
    return theta, True, out


class TestSubsample:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_picks_the_ranks_of_the_whole_mask_formula(self, data):
        # Scanned in pieces of any size, the kept rows are those of the
        # formula on the whole mask: every anchor survivor, and of the n
        # other survivors those of rank floor(i * n / quota).
        m = data.draw(st.integers(1, 300))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        keep = rng.random(m) < data.draw(st.floats(0.05, 1.0))
        anchor = rng.random(m) < data.draw(st.floats(0.0, 0.6))
        anchors, survivors = int(np.count_nonzero(keep & anchor)), int(np.count_nonzero(keep))
        if survivors == anchors:
            return  # nothing to subsample
        budget = data.draw(st.integers(anchors, survivors - 1))
        piece = data.draw(st.sampled_from([1, 2, 7, 64, None]))  # None: the default
        rest = np.flatnonzero(keep & ~anchor)
        quota = budget - anchors
        expected = keep & anchor
        expected[rest[(np.arange(quota, dtype=np.int64) * rest.shape[0]) // quota]] = True
        result = SpatialCompressionResult(keep.copy(), anchor.copy())
        with pytest.MonkeyPatch.context() as mp:
            if piece is not None:  # a piece holds 25 working bytes a token
                mp.setattr(numerics, "WORK_BYTES", 25 * piece)
            got = _subsample_to_budget(result, budget)
        assert np.array_equal(got.keep, expected) and got.tokens_after == budget
        assert np.array_equal(result.keep, keep)  # the input is left as it was


class TestBudgetLadder:
    """``enforce_budget`` counts survivors per theta step instead of applying
    the plan at each one; its output must equal the stepwise reference."""

    def run_case(self, frames, theta, budget, k=4):
        plan = build_plan(frames, k, AnchorStrategy.FIRST, (theta, *_theta_ladder(theta)))
        result = plan.apply(theta)
        out, theta_eff, fallback = enforce_budget(result, theta, budget, plan)
        sims, anchors = first_anchor_similarities(frames, k)
        assert np.array_equal(plan.anchor, anchors)
        ref_theta, ref_fallback, keep = stepwise_budget_oracle(sims, anchors, theta, budget)
        assert (theta_eff, fallback) == (ref_theta, ref_fallback)
        assert out.tokens_after == int(keep.sum()) <= budget
        n, h, w, _ = frames.shape
        frame_idx, pos = np.divmod(np.flatnonzero(keep), h * w)
        table = token_table(FrameFeatureSequence(frames), np.arange(n), np.zeros(n, dtype=bool), (h, w))
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
        table = token_table(FrameFeatureSequence(data[None]), [0], np.array([True]), (8, 8))
        out = flatten(table, np.ones(144, dtype=bool))
        assert out.total_count == 144
        assert out.grid_rows[0] == 0 and out.grid_cols[0] == 0
        assert out.grid_rows[143] == 11 and out.grid_cols[143] == 11
        assert np.array_equal(out.vectors.reshape(12, 12, 3), data)

    def test_two_pooled_frames_in_order(self, rng):
        frames = rng.standard_normal((10, 12, 12, 2)).astype(np.float32)
        table = token_table(FrameFeatureSequence(frames), [3, 9], np.array([False, False]), (8, 8))
        out = flatten(table, np.ones(128, dtype=bool))
        assert out.total_count == 128
        assert (out.frame_indices[:64] == 3).all() and (out.frame_indices[64:] == 9).all()
        assert (out.levels == 1).all()

    def test_pruned_positions_pass_through(self, rng):
        frames = rng.standard_normal((8, 8, 8, 4)).astype(np.float32)
        table = token_table(FrameFeatureSequence(frames), [7], np.array([False]), (8, 8))
        keep = np.zeros(64, dtype=bool)
        keep[[0, 3 * 8 + 5]] = True
        out = flatten(table, keep)
        assert out.total_count == 2
        assert out.grid_rows.tolist() == [0, 3]
        assert out.grid_cols.tolist() == [0, 5]
        assert np.array_equal(out.vectors, frames[7, [0, 3], [0, 5]])

    def test_interleaved_levels_under_a_keep_mask(self, rng):
        frames = rng.standard_normal((14, 4, 4, 3)).astype(np.float32)
        full = np.array([True, False, True, False, False])
        indices = [2, 5, 7, 11, 13]
        table = token_table(FrameFeatureSequence(frames), indices, full, (2, 2))
        keep = rng.random(table.tokens.total_count) < 0.5
        out = flatten(table, keep)
        expected, row = [], 0  # (frame, timestep, row, col, level, vector) in table order
        for i, f in enumerate(indices):
            grid = frames[f] if full[i] else pool_frame(frames[f], 2, 2)
            for r in range(grid.shape[0]):
                for c in range(grid.shape[1]):
                    if keep[row]:
                        expected.append((f, float(f), r, c, 0 if full[i] else 1, grid[r, c]))
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
        assert seq.frames.tobytes() == before.tobytes()

    # A token's timestep is its frame's index in the input. Stage 1 keeps one
    # of each window's 4 near-copies, so 10 of 40 frames survive and a
    # frame's index is not its table position. They hold 160 tokens at full
    # resolution and 40 pooled; with 2 query tokens, all fit at 1000, 3
    # frames stay full at 80, all fit pooled at 45, and at 30 the pooled
    # table is over budget.
    @pytest.mark.parametrize("fpe", [False, True], ids=["off", "on"])
    @pytest.mark.parametrize("case", ["full", "mixed", "pooled", "over"])
    def test_timestep_is_the_frame_index(self, rng, case, fpe):
        l_max, n_full = {
            "full": (1000, 10), "mixed": (80, 3), "pooled": (45, 0), "over": (30, 0)
        }[case]
        base = rng.standard_normal((10, 4, 4, 8))
        frames = np.repeat(base, 4, axis=0) + 0.01 * rng.standard_normal((40, 4, 4, 8))
        seq = FrameFeatureSequence(frames.astype(np.float32))
        query = random_query(rng, 2, 8)
        cfg = small_config(l_max=l_max, tau_t=0.9, fpe=FramePositionConfig(enabled=fpe))
        out, stats = compress(seq, query, cfg)
        assert stats.frames_after_temporal == 10 and stats.n_full_res == n_full
        assert (stats.tokens_after_query + 2 > l_max) == (case == "over")
        assert (out.frame_indices >= 4).any()  # a frame away from its table position
        assert np.array_equal(out.timesteps, out.frame_indices.astype(np.float32))
        if fpe:  # the offset added is that of the frame's index
            plain, _ = compress(seq, query, small_config(l_max=l_max, tau_t=0.9))
            offsets = np.stack([encoding_vector(float(f), 8) for f in plain.frame_indices])
            assert np.array_equal(out.vectors, plain.vectors + offsets)

    def test_keep_all_wrapper_counts(self, rng):
        # the anchors that subsampling keeps when stage 3 does not prune
        frames = rng.standard_normal((7, 2, 2, 3)).astype(np.float32)
        table = token_table(FrameFeatureSequence(frames), np.arange(7), np.zeros(7, dtype=bool), (2, 2))
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
        seq = FrameFeatureSequence(frames)
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
        # Pooling one k-window at a time keeps compress's peak below the
        # bytes of the pooled table alone.
        _, stats, peak = self.half_static_peak(rng)
        table_bytes = 288 * 64 * 64 * 4
        assert stats.tokens_after_query * 64 * 4 == table_bytes
        assert peak < table_bytes, (peak, table_bytes)

    def test_over_budget_peak_grows_by_a_few_bytes_a_pooled_token(self, rng):
        # A synthetic clip at dim 64 and its first half share a 6k budget;
        # the clip keeps about twice the frames of its half. Beside the
        # budget-sized store and the fixed-size windows, compress holds a
        # byte of plan state and a few flags per pooled token, so its peak
        # grows by at most 4 B per extra pooled token. A float64 similarity
        # per token would be 8 B alone.
        video = gen_video(SynthSpec(n_frames=1024, n_scenes=16, dim=64, grid=(8, 9), seed=0))
        query = random_query(rng, 24, 64)
        peaks, pooled = [], []
        for seq in (FrameFeatureSequence(video.frames[:512]), video):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                _, stats = compress(seq, query, CompressionConfig(l_max=6000))
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert stats.n_full_res == 0 and stats.fallback_used
            pooled.append(stats.tokens_after_query)
        assert 1.8 < pooled[1] / pooled[0] < 2.2, pooled
        assert (peaks[1] - peaks[0]) / (pooled[1] - pooled[0]) <= 4, (peaks, pooled)


OUTPUT_FIELDS = ("frame_indices", "grid_rows", "grid_cols", "levels", "vectors")
# What a call may leave traced: objects the interpreter keeps on its free
# lists (about 2 KiB here). One pooling chunk's buffers are 0.45 MiB at
# dim 32.
LEFT_SLACK = 16 << 10


class TestPeakAboveTheOutput:
    """``compress`` holds its output and fixed-size working pieces: its
    traced peak above the output's bytes does not grow with the token
    width."""

    @staticmethod
    def peak_above_the_output(seq, query, cfg):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out, stats = compress(seq, query, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak - sum(getattr(out, name).nbytes for name in OUTPUT_FIELDS), stats

    @pytest.fixture(scope="class")
    def wide_clip(self):
        # 120 frames of 12x12 tokens at the paper's width, 1,152: stage 1
        # keeps 71 of them.
        video = gen_video(SynthSpec(n_frames=120, n_scenes=4, dim=1152, seed=3))
        query = random_query(np.random.default_rng(0), 24, 1152)
        return video, query

    @pytest.mark.parametrize("l_max,path", [(2048, "over budget"), (8192, "mixed table")])
    def test_at_the_paper_width(self, wide_clip, l_max, path):
        # Over budget, one k = 8 window of pooled frames (2.25 MiB) is held
        # beside one frame's pooling buffers (2 MiB) while it is pooled, and
        # beside two frames in float64 (1.13 MiB) while it is planned. In the
        # table, the pooled frames are pooled into the output. Pooling 8
        # frames at a time, and 512 tokens, held 21 and 29 MiB here.
        seq, query = wide_clip
        above, stats = self.peak_above_the_output(seq, query, CompressionConfig(l_max=l_max))
        assert stats.frames_after_temporal == 71
        assert (0 < stats.n_full_res < 71) == (path == "mixed table")
        assert above <= 5 * 2**20, above / 2**20

    def test_a_mixed_table_at_dim_64(self, rng):
        # 124 frames, stage 1 off: at 8k two stay full and 122 are pooled,
        # as in the needle benchmark's largest clips. The pooled frames are
        # not held beside the output (1.65 MiB above it when they were).
        seq = random_sequence(rng, 124, 12, 12, 64)
        cfg = CompressionConfig(stages=StageToggles(temporal=False))
        above, stats = self.peak_above_the_output(seq, random_query(rng, 24, 64), cfg)
        assert stats.n_full_res == 2 and stats.tokens_final == 2 * 144 + 122 * 64
        assert above <= 1.25 * 2**20, above / 2**20


class TestOverBudgetWorkingMemory:
    """Over budget, ``compress`` pools and plans one k-window at a time: its
    traced peak is its output, one window of pooled frames, one pooling
    chunk's buffers and a fixed allowance, and nothing outlives the call."""

    # dim 32, 12x12 grids pooled to 8x8, k = 8: one window of pooled float32,
    # and one chunk of 8 frames' gathered float32 cells and float64 row and
    # bin sums, as pool_batch sizes it
    WINDOW = 8 * 8 * 8 * 32 * 4
    CHUNK = 8 * (12 * 12 * 32 * 4 + 8 * 12 * 32 * 8 + 8 * 8 * 32 * 8)
    # numpy's buffers for pooling's float32 -> float64 adds (up to 192 KiB),
    # the plan's byte a pooled token (69 KB on the infeasible clip), the
    # store's rows beyond the output's and small objects
    ALLOWANCE = 384 << 10

    @pytest.fixture(scope="class", params=["infeasible", "feasible"])
    def clip(self, request):
        # Shaped like the benchmark corpus's videos 37 and 0, at the default
        # 8k: the first keeps 1,077 frames, whose 135 anchor frames hold
        # 8,640 pooled tokens, more than the budget; the second keeps 259
        # frames and meets the budget on the threshold ladder.
        spec = {
            "infeasible": SynthSpec(n_frames=1175, n_scenes=9, drift_scenes_fraction=0.4073349580938158,
                                    seed=4889740869022819944),
            "feasible": SynthSpec(n_frames=835, n_scenes=6, drift_scenes_fraction=0.37094545969412207,
                                  seed=508922993831601215),
        }[request.param]
        video = gen_video(spec)
        query = random_query(np.random.default_rng(0), 8, 32)
        output_or_verdict(video, query)  # numpy's first-call set-up is not the call's
        return request.param, video, query

    def test_peak_is_a_window_and_a_pooling_chunk(self, clip):
        kind, video, query = clip
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out, stats = output_or_verdict(video, query)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert (out is None) == (kind == "infeasible")
        assert stats.tokens_after_query > 8192 - 8 and stats.n_full_res == 0
        assert stats.frames_after_temporal == {"infeasible": 1077, "feasible": 259}[kind]
        output = 0 if out is None else sum(getattr(out, name).nbytes for name in OUTPUT_FIELDS)
        assert peak - output <= self.WINDOW + self.CHUNK + self.ALLOWANCE, (peak - output) / 2**20

    def test_nothing_outlives_the_call(self, clip):
        # Once the output is dropped, the traced memory is back where it
        # started: no pooling set-up or buffer is kept for a later call,
        # where it would be missing from that call's peak.
        _, video, query = clip
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out, stats = output_or_verdict(video, query)
            del out, stats
            left = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert left <= LEFT_SLACK, left


def output_or_verdict(video, query):
    """(output, stats) of ``compress`` at the default config, or (None, the
    error's stats) when the video is infeasible."""
    try:
        return compress(video, query, CompressionConfig())
    except BudgetInfeasibleError as exc:
        return None, exc.stats


def expected_record(seq, query, cfg, out, **counts):
    """The whole ``stats.to_dict()`` of a run that output ``out`` (None when
    infeasible). The stage counts are ``counts`` or, on the table paths,
    read from the output, which is the table whole; frames and budgets
    come from the input and the config, and each rate from its counts."""
    t = reduce_frames(seq, cfg.j, cfg.tau_t).n_kept if cfg.stages.temporal else seq.n_frames
    hw = seq.grid_h * seq.grid_w
    counts = counts or dict(
        n_full_res=int(np.count_nonzero(out.levels == LEVEL_CODE["full"])) // hw,
        tokens_after_query=out.total_count,
        tokens_after_spatial=out.total_count,
        theta_effective=cfg.theta,
        fallback_used=False,
    )
    final = None if out is None else out.total_count
    record = {"frames_in": seq.n_frames, "frames_after_temporal": t, "tokens_final": final,
              "query_tokens": query.n_tokens, "budget": cfg.l_max, **counts}
    return dict(
        record,
        temporal_keep_rate=t / seq.n_frames,
        query_reduction_rate=1.0 - record["tokens_after_query"] / (t * hw),
        spatial_reduction_rate=1.0 - record["tokens_after_spatial"] / record["tokens_after_query"],
        total_reduction_rate=None if final is None else 1.0 - final / (seq.n_frames * hw),
    )


def whole_table_oracle(seq, query, cfg):
    """What compress returns for a video whose pooled table is over budget,
    worked out on the whole pooled table: token_table, build_plan (or, with
    stage 3 off, the one-threshold plan of the anchors and every token at
    rung 1), a count of the table's anchor tokens against the budget,
    enforce_budget, flatten and position encoding.
    Returns (tokens or None, the stats fields the stages set)."""
    kept = np.arange(seq.n_frames)
    if cfg.stages.temporal:
        kept = reduce_frames(seq, cfg.j, cfg.tau_t).kept_indices
    t, (h_l, w_l) = kept.shape[0], cfg.tokens_low
    table = token_table(seq, kept, np.zeros(t, dtype=bool), cfg.tokens_low)
    assert table.tokens.total_count + query.n_tokens > cfg.l_max  # the over-budget case
    stack = table.tokens.vectors.reshape(t, h_l, w_l, -1)
    if cfg.stages.stc:
        plan = build_plan(stack, cfg.k, cfg.anchor, (cfg.theta, *_theta_ladder(cfg.theta)))
    else:
        anchor = anchor_frames(stack.reshape(t, h_l * w_l, -1), cfg.k, cfg.anchor)
        plan = PruningPlan(np.ones(table.tokens.total_count, dtype=np.uint8),
                           np.repeat(anchor, h_l * w_l), (cfg.theta,))
    result = plan.apply(cfg.theta)
    stats = dict(frames_after_temporal=t, n_full_res=0,
                 tokens_after_query=table.tokens.total_count,
                 tokens_after_spatial=result.tokens_after)
    # infeasible when the table's anchor tokens alone exceed the budget
    if int(np.count_nonzero(result.anchor)) > cfg.l_max - query.n_tokens:
        return None, dict(stats, theta_effective=cfg.theta, fallback_used=True, tokens_final=None)
    result, theta_eff, fallback = enforce_budget(result, cfg.theta, cfg.l_max - query.n_tokens, plan)
    tokens = flatten(table, result.keep)
    apply_position_encoding(tokens, cfg.fpe)
    return tokens, dict(stats, theta_effective=theta_eff, fallback_used=fallback,
                        tokens_final=tokens.total_count)


def drifting_video(rng, grid) -> FrameFeatureSequence:
    """61 frames of dim 6 in 7 drifting scenes, all kept by stage 1 at
    tau_t = 0.995: 61 is no multiple of k = 3, so the last window holds one
    frame."""
    scenes = rng.standard_normal((7, *grid, 6))
    frames = scenes[np.arange(61) * 7 // 61] + 0.35 * rng.standard_normal((61, *grid, 6))
    return FrameFeatureSequence(frames.astype(np.float32))


class TestOverBudgetPath:
    """compress pools an over-budget video window by window and emits its kept
    tokens from a budget-sized store and by pooling tokens again; every
    output must be what the whole pooled table gives."""

    @pytest.mark.parametrize("anchor", list(AnchorStrategy))
    @pytest.mark.parametrize("stc", [True, False])
    @pytest.mark.parametrize("fpe", [True, False])
    @pytest.mark.parametrize("grid,pooled", [((4, 4), (2, 2)), ((5, 7), (3, 2))])
    def test_matches_the_whole_table(self, rng, tmp_path, monkeypatch, anchor, stc, fpe, grid, pooled):
        # With stage 3 off the plan has the one threshold theta: no
        # similarity is taken, and theta is never lowered.
        calls = []
        monkeypatch.setattr(pipeline, "build_plan", lambda *a: calls.append(a) or build_plan(*a))
        self.check_against_the_whole_table(rng, tmp_path, anchor, stc, fpe, grid, pooled)
        assert bool(calls) == stc

    @pytest.mark.parametrize("chunks", ["one", "few"])
    @pytest.mark.parametrize("anchor", list(AnchorStrategy))
    @pytest.mark.parametrize("stc", [True, False])
    @pytest.mark.parametrize("fpe", [True, False])
    @pytest.mark.parametrize("grid,pooled", [((4, 4), (2, 2)), ((5, 7), (3, 2))])
    def test_matches_the_whole_table_in_small_chunks(
        self, rng, tmp_path, monkeypatch, anchor, stc, fpe, grid, pooled, chunks
    ):
        # At dim 6 a window is pooled in one chunk and its similarities taken
        # in one group, and the outputs are under one chunk of moves,
        # re-pooling, encoding or records. With 1 working byte ("one") every
        # chunked pass takes one item at a time: a frame a pooling chunk or
        # similarity group, a row a move, re-pooling or encoding step, a
        # record a write. With "few" the working bytes are four windows' of
        # pooled float32, so a frame is pooled alone, a window's similarities
        # are taken whole, rows are moved, re-pooled and encoded 3 at a time,
        # and the bytes hold 31 to 46 records a write. Only ``numerics`` is
        # patched: every pass reads its caps there when it runs.
        window = 3 * pooled[0] * pooled[1] * 6 * 4  # pooled float32 bytes of a k = 3 window
        work, rows = {"one": (1, None), "few": (2 * 2 * window, 3)}[chunks]
        monkeypatch.setattr(numerics, "WORK_BYTES", work)
        if rows is not None:
            monkeypatch.setattr(numerics, "POOL_CHUNK_TOKENS", rows)
        self.check_against_the_whole_table(rng, tmp_path, anchor, stc, fpe, grid, pooled)

    @staticmethod
    def check_against_the_whole_table(rng, tmp_path, anchor, stc, fpe, grid, pooled):
        # The budgets run from infeasible to just under the pooled table.
        # The output is also written, and its file held to the packed layout.
        seq = drifting_video(rng, grid)
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
                # the 21 anchor frames of pooled tokens against l_max - l_q
                assert exc.anchor_tokens == math.ceil(61 / 3) * pooled[0] * pooled[1]
                assert exc.budget == l_max - 5
            assert stats.frames_after_temporal == 61
            assert stc or stats.theta_effective == cfg.theta
            assert stats.to_dict() == expected_record(seq, query, cfg, out, **expected_stats), l_max
            if expected is None:
                assert out is None
                outcomes.add("infeasible")
                continue
            assert_tokens_equal(out, expected)
            write_compressed(tmp_path / "out.lvuc", out, stats)
            assert (tmp_path / "out.lvuc").read_bytes() == packed_lvuc(expected, stats)
            assert stats.tokens_final + 5 <= l_max
            if stats.tokens_final + 5 == l_max:
                outcomes.add("subsampled")
            else:
                outcomes.add("ladder" if stats.theta_effective < cfg.theta else "at theta")
        assert {"infeasible", "subsampled"} <= outcomes, outcomes
        if stc:
            assert "at theta" in outcomes, outcomes

    @pytest.mark.parametrize("dim", [32, 64])
    def test_each_pooling_call_takes_one_window(self, rng, monkeypatch, dim):
        # 300 frames of 12x12 tokens pooled to 8x8: a k = 8 window pools to
        # 64 KiB at dim 32 and 128 KiB at dim 64. Over budget, each call
        # pools one window (the last holds 300 % 8 = 4 frames) into the start
        # of one reused window buffer, through the one pooling set-up made
        # for the call to compress.
        calls = []

        def spy(stack, out_h, out_w, index, out=None, pooling=None):
            calls.append((len(index), out.nbytes, out.__array_interface__["data"][0], pooling))
            return pool_batch(stack, out_h, out_w, index=index, out=out, pooling=pooling)

        monkeypatch.setattr(pipeline, "pool_batch", spy)
        monkeypatch.setattr(query_select, "pool_batch", spy)
        seq = random_sequence(rng, 300, 12, 12, dim)
        cfg = CompressionConfig(stages=StageToggles(temporal=False))
        _, stats = compress(seq, random_query(rng, 24, dim), cfg)
        assert stats.tokens_after_query == 300 * 64 > 8192 - 24
        frame_bytes = 8 * 8 * dim * 4
        assert [(n, size) for n, size, _, _ in calls] == [(8, 8 * frame_bytes)] * 37 + [(4, 4 * frame_bytes)]
        assert len({address for _, _, address, _ in calls}) == 1
        assert calls[0][3] is not None and all(pooling is calls[0][3] for *_, pooling in calls)

    @pytest.mark.parametrize("anchor", list(AnchorStrategy))
    @pytest.mark.parametrize("stc", [True, False])
    def test_window_longer_than_the_video(self, rng, anchor, stc):
        # A window of 2^62 frames or more holds all 61 kept frames, as one
        # of 61 does, even past the range of a 64-bit integer.
        seq = drifting_video(rng, (4, 4))
        query = random_query(rng, 5, 6)
        (expected, expected_stats), *longer = [
            compress(seq, query, small_config(
                l_max=100, k=k, theta=0.7, tau_t=0.995, anchor=anchor, stages=StageToggles(stc=stc)
            ))
            for k in (61, 2**62, 2**63, 2**64)
        ]
        assert expected_stats.frames_after_temporal == 61 and expected_stats.fallback_used
        for out, stats in longer:
            assert_tokens_equal(out, expected)
            assert stats == expected_stats


class TestStatsRecord:
    """The whole stats record on every path, each field from the output,
    the input and the config."""

    # One drifting video down every path of compress: 61 frames kept by
    # stage 1 pool to 244 tokens, their 21 anchor frames to 84, and the
    # query holds 5 tokens. Each case is (l_max, stages, the path's
    # n_full_res, theta_effective and fallback_used).
    PATHS = {
        "full": (1000, StageToggles(), 61, 0.7, False),
        "mixed": (300, StageToggles(), 4, 0.7, False),
        "pooled": (250, StageToggles(), 0, 0.7, False),
        "at theta": (150, StageToggles(), 0, 0.7, False),
        "ladder": (112, StageToggles(), 0, 0.65, True),
        "subsampled": (100, StageToggles(), 0, 0.5, True),
        "infeasible": (50, StageToggles(), 0, 0.7, True),
        "query off, fits": (1000, StageToggles(query=False), 61, 0.7, False),
        "query off, pooled": (300, StageToggles(query=False), 0, 0.7, False),
        "every stage off": (50, StageToggles(False, False, False), 61, 0.7, False),
    }

    @pytest.mark.parametrize("case", list(PATHS))
    def test_stats_record_on_every_path(self, rng, case):
        l_max, stages, n_full, theta_eff, fallback = self.PATHS[case]
        seq = drifting_video(rng, (4, 4))
        query = random_query(rng, 5, 6)
        cfg = small_config(l_max=l_max, k=3, theta=0.7, tau_t=0.995, stages=stages)
        try:
            out, stats = compress(seq, query, cfg)
        except BudgetInfeasibleError as exc:
            out, stats = None, exc.stats
            assert (exc.anchor_tokens, exc.budget) == (84, l_max - 5)
        assert (stats.n_full_res, stats.theta_effective, stats.fallback_used) == (
            n_full, theta_eff, fallback
        )
        over = stats.tokens_after_query + 5 > l_max
        assert over == (case in {"at theta", "ladder", "subsampled", "infeasible", "every stage off"})
        if over and stages.any_enabled:  # the over-budget path: counts from the whole table
            _, counts = whole_table_oracle(seq, query, cfg)
            assert (stats.tokens_final == l_max - 5) == (case == "subsampled")
        else:
            counts = {}
        assert stats.to_dict() == expected_record(seq, query, cfg, out, **counts)


def zero_mean_video(kind: str) -> FrameFeatureSequence:
    """40 frames of 12x12x16 in 5 drifting scenes, with the zero-mean frames
    of one kind: an all-zero last frame ("zero last"), a content frame of
    +v on rows 0-5 and -v on rows 6-11 ("balanced"), a frame of +v on rows
    1, 4, 7 and 10 and -v elsewhere, whose own mean is not zero but whose
    8x8 pooled mean is ("pooled zero"), or an 8-frame all-zero tail."""
    rng = np.random.default_rng(18)
    scenes = rng.standard_normal((5, 12, 12, 16))
    frames = (scenes[np.arange(40) // 8] + 0.3 * rng.standard_normal((40, 12, 12, 16)))
    frames = frames.astype(np.float32)
    v = rng.standard_normal(16).astype(np.float32)
    if kind == "zero last":
        frames[-1] = 0.0
    elif kind == "balanced":
        frames[13, :6], frames[13, 6:] = v, -v
    elif kind == "pooled zero":
        frames[13] = -v
        frames[13, [1, 4, 7, 10]] = v
    else:
        frames[32:] = 0.0
    return FrameFeatureSequence(frames)


class TestZeroMeanFrames:
    """A frame whose mean token is zero repeats every frame it is compared
    with: no configuration raises on one, and stage 1 keeps it only as its
    window's minimum."""

    @pytest.mark.parametrize("kind", ["zero last", "balanced", "pooled zero", "zero tail"])
    def test_compresses_within_budget(self, rng, kind):
        seq = zero_mean_video(kind)
        pooled = pool_batch(seq.frames, 8, 8, np.arange(seq.n_frames))
        zero_pooled = np.flatnonzero(~pooled.mean(axis=(1, 2), dtype=np.float64).any(axis=1))
        zero_own = np.flatnonzero(~seq.means.any(axis=1))
        if kind == "pooled zero":
            assert zero_own.size == 0 and zero_pooled.tolist() == [13]
        else:
            assert zero_own.size > 0 and set(zero_own) <= set(zero_pooled)
        flags = build_plan(pooled, 8, AnchorStrategy.HIGH_CHANGE, (0.5,)).anchor[::64]
        if kind == "zero tail":  # a window of repeats takes its earliest candidate
            assert np.flatnonzero(flags)[-1] == 33
        else:
            assert not flags[zero_pooled].any()
        query = random_query(rng, 8, 16)
        j = CompressionConfig().j
        minima = set()
        for start in range(0, seq.n_frames, j):
            scores = window_average_similarity(frame_summaries(seq)[start : start + j])
            minima.add(start + int(np.argmin(scores)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kept = reduce_frames(seq, j, CompressionConfig().tau_t).kept_indices
            assert set(zero_own) & set(kept) <= minima
            for anchor in AnchorStrategy:
                for stages in (StageToggles(), StageToggles(temporal=False),
                               StageToggles(stc=False)):
                    for l_max in (8192, 1200, 600):
                        cfg = CompressionConfig(l_max=l_max, anchor=anchor, stages=stages)
                        out, stats = compress(seq, query, cfg)
                        assert stats.tokens_final + query.n_tokens <= l_max
                        assert out.total_count == stats.tokens_final
                        if stages.temporal:
                            assert set(zero_own) & set(out.frame_indices.tolist()) <= minima

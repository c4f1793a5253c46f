import hashlib
import math
import sys
import threading
import time

import numpy as np
import pytest

from vtcompress import (
    CompressionConfig,
    InvalidConfigError,
    NeedleSpec,
    StageToggles,
    SynthSpec,
    anchor_ablation,
    frame_query_scores,
    gen_video,
    insert_needle,
    make_aligned_query,
    make_mixed_corpus,
    make_needle_grid,
    reduction_report,
)
from vtcompress import synthbench
from vtcompress.synthbench import _structure, needle_study

from .conftest import cosine, scene_lengths_loop


def small_cfg(**kw):
    defaults = dict(l_max=8192)
    defaults.update(kw)
    return CompressionConfig(**defaults)


class TestGenVideo:
    def test_zero_noise_single_scene_is_constant(self):
        video = gen_video(SynthSpec(n_frames=8, n_scenes=1, intra_scene_noise=0.0,
                                    drift_scenes_fraction=0.0, seed=1))
        for i in range(1, 8):
            assert np.array_equal(video.frames[i], video.frames[0])

    def test_seed_determinism(self):
        spec = SynthSpec(n_frames=40, n_scenes=4, seed=99)
        a, b = gen_video(spec), gen_video(spec)
        assert np.array_equal(a.frames, b.frames)

    def test_different_seeds_differ(self):
        a = gen_video(SynthSpec(n_frames=16, n_scenes=2, seed=1))
        b = gen_video(SynthSpec(n_frames=16, n_scenes=2, seed=2))
        assert not np.array_equal(a.frames, b.frames)

    def test_cross_scene_summaries_nearly_orthogonal(self):
        video = gen_video(SynthSpec(n_frames=40, n_scenes=2, intra_scene_noise=0.01,
                                    drift_scenes_fraction=0.0, seed=5))
        summaries = video.summaries()
        assert abs(cosine(summaries[0], summaries[39])) < 0.05

    def test_within_scene_summaries_similar(self):
        video = gen_video(SynthSpec(n_frames=16, n_scenes=1, drift_scenes_fraction=0.0, seed=5))
        summaries = video.summaries()
        sims = [cosine(summaries[0], summaries[i]) for i in range(1, 16)]
        assert min(sims) > 0.95

    def test_token_norms_bounded_away_from_zero(self):
        video = gen_video(SynthSpec(n_frames=64, n_scenes=4, drift_scenes_fraction=0.5, seed=3))
        norms = np.linalg.norm(video.frames.astype(np.float64), axis=3)
        assert norms.min() > 0.2

    def test_frame_count_and_timesteps(self):
        video = gen_video(SynthSpec(n_frames=37, n_scenes=5, seed=0))
        assert video.n_frames == 37

    def test_invalid_spec(self):
        with pytest.raises(InvalidConfigError):
            SynthSpec(n_frames=4, n_scenes=9).validate()
        with pytest.raises(InvalidConfigError):
            SynthSpec(n_frames=4, n_scenes=1, intra_scene_noise=-1.0).validate()
        for noise in [math.nan, math.inf]:
            with pytest.raises(InvalidConfigError, match="finite"):
                gen_video(SynthSpec(n_frames=4, n_scenes=1, intra_scene_noise=noise))
        with pytest.raises(InvalidConfigError):
            SynthSpec(n_frames=4, n_scenes=1, drift_scenes_fraction=1.5).validate()

    # Only validated, never generated: the sizes that pass would allocate.
    @pytest.mark.parametrize("kw, match", [
        (dict(n_frames=2**63), "frames of 12x12x32 float32 features take"),
        (dict(dim=2**63), "frames of 12x12x9223372036854775808 float32 features take"),
        (dict(n_frames=10**22), "more than one array can hold"),
        (dict(n_frames=4.5), "n_frames must be an integer, got 4.5"),
        (dict(n_frames=True), "n_frames must be an integer, got True"),
        (dict(n_scenes=1.0), "n_scenes must be an integer, got 1.0"),
        (dict(dim="32"), "dim must be an integer, got '32'"),
        (dict(seed=None), "seed must be an integer, got None"),
        (dict(grid=(12,)), r"grid must be two integers, got \(12,\)"),
        (dict(grid=(12, 12.0)), r"grid must be two integers, got \(12, 12.0\)"),
        (dict(intra_scene_noise="0.1"), "intra_scene_noise must be a real number, got '0.1'"),
        (dict(intra_scene_noise=False), "intra_scene_noise must be a real number, got False"),
        (dict(drift_scenes_fraction=None), "drift_scenes_fraction must be a real number, got None"),
    ])
    def test_malformed_or_oversized_spec(self, kw, match):
        spec = SynthSpec(**{"n_frames": 4, "n_scenes": 1, **kw})
        with pytest.raises(InvalidConfigError, match=match):
            spec.validate()

    def test_largest_frame_array_is_accepted(self):
        per_frame = 12 * 12 * 32 * 4
        SynthSpec(n_frames=np.iinfo(np.intp).max // per_frame, n_scenes=1).validate()
        with pytest.raises(InvalidConfigError, match="more than one array can hold"):
            SynthSpec(n_frames=np.iinfo(np.intp).max // per_frame + 1, n_scenes=1).validate()


class TestSceneLengths:
    def test_matches_the_one_frame_loop(self):
        r = np.random.default_rng(11)
        signs = set()
        for _ in range(2000):
            n_frames = int(r.integers(1, 300))
            n_scenes = int(r.integers(1, n_frames + 1))
            seed = int(r.integers(0, 2**32))
            got = synthbench._scene_lengths(np.random.default_rng(seed), n_frames, n_scenes)
            want = scene_lengths_loop(np.random.default_rng(seed), n_frames, n_scenes)
            assert got.dtype == want.dtype and np.array_equal(got, want), (n_frames, n_scenes, seed)
            weights = np.random.default_rng(seed).dirichlet(np.full(n_scenes, 6.0))
            start = np.maximum(1, np.floor(weights * n_frames).astype(np.int64))
            signs.add(int(np.sign(start.sum() - n_frames)))
        assert signs == {-1, 0, 1}  # surplus, exact and deficit all met

    def test_one_scene_per_frame_is_not_quadratic(self):
        # The one-frame loop takes about 3 s at 400,000 scenes on a 2-CPU
        # x86-64 VM, and 0.09 s at 100,000; the closed form takes 0.1 s.
        start = time.perf_counter()
        lengths = synthbench._scene_lengths(np.random.default_rng(1), 400_000, 400_000)
        assert time.perf_counter() - start < 1.0
        assert (lengths == 1).all()


# SHA-256 of the frames and of the float64 frame means, one spec per
# generator path; the bytes must not change with the worker count.
PINNED = {
    "default": (
        SynthSpec(n_frames=96, n_scenes=6, seed=3),
        "426e595fba027c64df0615406ff7d924630dedf8b1a27d883c50eea70a7b1b17",
        "f79f82f25e8d72fc6083410e1095b7a2386fdc028c65f3d9aa3513b8988173ad",
    ),
    "all_drift_noiseless": (
        SynthSpec(n_frames=48, n_scenes=3, intra_scene_noise=0.0,
                  drift_scenes_fraction=1.0, seed=5),
        "1630acfe7dd4b6351301cfe0eed4d49fcfdeb783a83f6d2078907c1cb7429dcd",
        "40ee50ddfdb2367160d467a20383f78f683c1a867d878a74e73d00a41d6440ff",
    ),
    # scenes 0, 2 and 4 drift, 1 and 3 are static
    "mixed_noiseless": (
        SynthSpec(n_frames=40, n_scenes=5, intra_scene_noise=0.0, drift_scenes_fraction=0.5,
                  dim=16, grid=(6, 7), seed=3),
        "875236829095a458714a29d208577595c82ed4704d58dd2ca915e26b6a5f5786",
        "1845b7d5e5269655a2d46a761c9bfe649cf9e2d61cdfcddff89c705bedce49bf",
    ),
    "more_scenes_than_dim": (
        SynthSpec(n_frames=40, n_scenes=10, dim=4, seed=8),
        "63dec1d9eaa626014193987c679f536198160c94da3f577be383cb582f650efb",
        "dc8c3dfa7117a71a41da7a4ec150fff36b5472f7906200f809f240834b85ea0d",
    ),
    "one_scene": (
        SynthSpec(n_frames=20, n_scenes=1, seed=2),
        "e0f2b2009b08faaf29e8496e9db4b36232872c6d56e3e7597c8fafafbe3b03e6",
        "e4fce40daabfa730baead69b92df3a6271e9350c3635ed31ea3dd2d8ea2f9c6a",
    ),
    "grid_7x9": (
        SynthSpec(n_frames=30, n_scenes=3, grid=(7, 9), drift_scenes_fraction=0.5, seed=4),
        "4f965ad8bb9becf34a63c5be17b3c453ad65cd171c5f7b2665bb9e2d5fd212d6",
        "acb87a5b6132b4934be722e431cdc4c802b1dd7c5d2a118fc2e5ec8ab32244e6",
    ),
    "one_frame": (
        SynthSpec(n_frames=1, n_scenes=1, drift_scenes_fraction=1.0, seed=6),
        "22796f53090b21e1e222825b5706323f19f6bd430294939c6cdf930cf03603cb",
        "afbb90e6eae1df04ba973c04e09d0bff6f868033827fcf8378a45188582d2ae6",
    ),
}


def digests(video):
    return (
        hashlib.sha256(video.frames.tobytes()).hexdigest(),
        hashlib.sha256(video.means.tobytes()).hexdigest(),
    )


class TestGenVideoBytes:
    @pytest.mark.parametrize("name", PINNED)
    def test_pinned_digests(self, name):
        spec, frames_sha, means_sha = PINNED[name]
        assert digests(gen_video(spec)) == (frames_sha, means_sha)

    @pytest.mark.parametrize("name", PINNED)
    def test_one_worker_gives_the_same_bytes(self, name, monkeypatch):
        spec, frames_sha, means_sha = PINNED[name]
        monkeypatch.setattr(synthbench, "_worker_count", lambda n_scenes: 1)
        assert digests(gen_video(spec)) == (frames_sha, means_sha)

    def test_more_workers_than_cpus_give_the_same_bytes(self, monkeypatch):
        spec, frames_sha, means_sha = PINNED["more_scenes_than_dim"]
        monkeypatch.setattr(synthbench, "_worker_count", lambda n_scenes: n_scenes)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            assert digests(gen_video(spec)) == (frames_sha, means_sha)
        finally:
            sys.setswitchinterval(interval)

    def test_no_thread_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(synthbench, "_worker_count", lambda n_scenes: n_scenes)
        before = threading.active_count()
        gen_video(PINNED["default"][0])
        assert threading.active_count() == before


class TestInsertNeedle:
    def spec(self, n=20):
        return SynthSpec(n_frames=n, n_scenes=2, seed=11)

    def test_depth_zero_prepends(self):
        video = gen_video(self.spec())
        needle = make_needle_grid(self.spec())
        out, idx = insert_needle(video, needle, 0.0)
        assert idx == 0
        assert np.array_equal(out.frames[0], needle)

    def test_depth_one_appends(self):
        video = gen_video(self.spec())
        needle = make_needle_grid(self.spec())
        out, idx = insert_needle(video, needle, 1.0)
        assert idx == 20
        assert out.n_frames == 21

    def test_midpoint_rounding(self):
        spec = SynthSpec(n_frames=200, n_scenes=4, seed=2)
        out, idx = insert_needle(gen_video(spec), make_needle_grid(spec), 0.5)
        assert idx == 100

    def test_original_frames_preserved_in_order(self):
        video = gen_video(self.spec())
        needle = make_needle_grid(self.spec())
        out, idx = insert_needle(video, needle, 0.4)
        kept = np.delete(out.frames, idx, axis=0)
        assert np.array_equal(kept, video.frames)

    @pytest.mark.parametrize("depth", ["0.5", True, None, math.nan])
    def test_depth_must_be_a_real_number_in_range(self, depth):
        video = gen_video(self.spec())
        with pytest.raises(InvalidConfigError, match=r"depth must be a real number in \[0, 1\]"):
            insert_needle(video, make_needle_grid(self.spec()), depth)

    def test_integer_depth_is_accepted(self):
        video = gen_video(self.spec())
        out, idx = insert_needle(video, make_needle_grid(self.spec()), 1)
        assert idx == 20 and out.n_frames == 21

    def test_shape_mismatch(self):
        video = gen_video(self.spec())
        wrong = make_needle_grid(SynthSpec(n_frames=4, n_scenes=1, grid=(6, 6), seed=1))
        with pytest.raises(InvalidConfigError, match=r"needle shape \(6, 6, 32\) does not match frames"):
            insert_needle(video, wrong, 0.5)


class TestNeedleConstruction:
    # The spec is checked before anything is drawn, as gen_video checks it.
    @pytest.mark.parametrize("kw, match", [
        (dict(n_scenes=-1), r"n_scenes must be in \[1, n_frames\], got -1 for 10 frames"),
        (dict(dim="8"), "dim must be an integer, got '8'"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(grid=(0, 3)), r"dim and grid must be positive, got 32, \(0, 3\)"),
    ])
    def test_spec_is_checked_first(self, kw, match):
        with pytest.raises(InvalidConfigError, match=match):
            make_needle_grid(SynthSpec(**{"n_frames": 10, "n_scenes": 1, **kw}))

    def test_needle_orthogonal_to_scene_bases(self):
        spec = SynthSpec(n_frames=64, n_scenes=6, seed=9)
        needle = make_needle_grid(spec)
        assert needle.shape == (12, 12, spec.dim) and needle.dtype == np.float32
        direction = needle[0, 0].astype(np.float64)
        for base in _structure(spec)[0]:
            assert abs(direction @ base) < 1e-6

    def test_aligned_query_tops_every_haystack_frame(self):
        spec = SynthSpec(n_frames=120, n_scenes=4, seed=21)
        video = gen_video(spec)
        needle = make_needle_grid(spec)
        with_needle, idx = insert_needle(video, needle, 0.5)
        query = make_aligned_query(needle, 1.0, 8, spec.seed)
        scores = frame_query_scores(with_needle.means, query)
        assert int(np.argmax(scores)) == idx
        others = np.delete(scores, idx)
        assert scores[idx] > others.max() + 0.5

    def test_alignment_zero_gives_unrelated_query(self):
        spec = SynthSpec(n_frames=24, n_scenes=2, seed=3)
        needle = make_needle_grid(spec)
        query = make_aligned_query(needle, 0.0, 8, spec.seed)
        direction = needle[0, 0].astype(np.float64)
        sims = [abs(cosine(row, direction)) for row in query.rows]
        assert max(sims) < 0.9


class TestNeedleGrid:
    def test_identical_haystack_needle_survives_temporal(self):
        from vtcompress.temporal import reduce_frames

        spec = SynthSpec(n_frames=40, n_scenes=1, intra_scene_noise=0.0,
                         drift_scenes_fraction=0.0, seed=13)
        video = gen_video(spec)
        needle = make_needle_grid(spec)
        for depth in (0.0, 0.3, 0.7, 1.0):
            inserted, idx = insert_needle(video, needle, depth)
            result = reduce_frames(inserted, 8, 0.85)
            assert idx in result.kept_indices.tolist()

    def test_small_grid_full_res_selection(self):
        # static haystack: enough survivors to exceed the budget at full
        # resolution, so query selection actually runs and must pick the needle
        spec = NeedleSpec(
            haystack=SynthSpec(n_frames=400, n_scenes=6, dim=64,
                               drift_scenes_fraction=0.0, seed=5),
            depths=[0.0, 0.5, 1.0],
            frame_counts=[400],
        )
        cells = needle_study(spec, [small_cfg()])[0]
        assert len(cells) == 3
        for cell in cells:
            assert cell["n_full_res"] >= 1
            assert cell["needle_full_res"]
            assert cell["any_token_survives"]

    def test_query_stage_disabled_drops_full_res(self):
        spec = NeedleSpec(
            haystack=SynthSpec(n_frames=200, n_scenes=3, dim=64, seed=5),
            depths=[0.5],
            frame_counts=[200],
        )
        cfg = small_cfg(stages=StageToggles(query=False))
        cells = needle_study(spec, [cfg])[0]
        assert all(not c["needle_full_res"] for c in cells)
        assert all(c["any_token_survives"] for c in cells)

    def test_deterministic(self):
        spec = NeedleSpec(
            haystack=SynthSpec(n_frames=200, n_scenes=3, dim=64, seed=8),
            depths=[0.25],
            frame_counts=[200],
        )
        assert needle_study(spec, [small_cfg()]) == needle_study(spec, [small_cfg()])

    def test_invalid_specs(self):
        base = SynthSpec(n_frames=10, n_scenes=1, seed=0)
        with pytest.raises(InvalidConfigError):
            NeedleSpec(haystack=base, depths=[0.5, 0.1]).validate()
        with pytest.raises(InvalidConfigError):
            NeedleSpec(haystack=base, depths=[2.0]).validate()
        with pytest.raises(InvalidConfigError):
            NeedleSpec(haystack=base, frame_counts=[0]).validate()
        with pytest.raises(InvalidConfigError):
            NeedleSpec(haystack=base, frame_counts=[]).validate()
        with pytest.raises(InvalidConfigError):
            NeedleSpec(haystack=base, depths=[]).validate()
        with pytest.raises(InvalidConfigError):
            NeedleSpec(haystack=base, query_alignment=1.5).validate()

    # Only validated, never run: a count that passes would allocate.
    @pytest.mark.parametrize("counts, match", [
        ([10**22], "more than one array can hold"),
        ([200, 2.5], r"frame counts must be integers, got \[200, 2.5\]"),
        ([True], r"frame counts must be integers, got \[True\]"),
    ])
    def test_malformed_or_oversized_frame_counts(self, counts, match):
        base = SynthSpec(n_frames=10, n_scenes=1, seed=0)
        with pytest.raises(InvalidConfigError, match=match):
            NeedleSpec(haystack=base, frame_counts=counts).validate()

    @pytest.mark.parametrize("kw, match", [
        (dict(depths=["0.5"]), r"depths must be real numbers in \[0, 1\], got \['0.5'\]"),
        (dict(depths=[True]), r"depths must be real numbers in \[0, 1\], got \[True\]"),
        (dict(depths=[0.0, None]), r"depths must be real numbers in \[0, 1\], got \[0.0, None\]"),
        (dict(query_alignment="1"), r"alignment must be a real number in \[0, 1\], got '1'"),
        (dict(query_alignment=True), r"alignment must be a real number in \[0, 1\], got True"),
        (dict(haystack=None), "haystack must be a SynthSpec, got None"),
    ])
    def test_malformed_depths_alignment_or_haystack(self, kw, match):
        spec = NeedleSpec(**{"haystack": SynthSpec(n_frames=10, n_scenes=1, seed=0), **kw})
        with pytest.raises(InvalidConfigError, match=match):
            spec.validate()

    # A numpy array of depths or counts is taken as a tuple is: the same
    # checks and messages, not numpy's error on an array's truth value.
    @pytest.mark.parametrize("kw, match", [
        (dict(depths=np.array([0.5, 0.0])), "depths must be sorted ascending"),
        (dict(depths=np.array([0.0, 1.5])), r"depths must be real numbers in \[0, 1\]"),
        (dict(depths=np.array([])), "depths and frame counts must be non-empty"),
        (dict(frame_counts=np.array([10, 0])), "frame counts must be positive"),
        (dict(frame_counts=np.array([10, 2.5])), "frame counts must be integers"),
        (dict(frame_counts=np.array([], dtype=np.int64)), "depths and frame counts must be non-empty"),
    ])
    def test_array_depths_and_counts_are_checked_as_tuples(self, kw, match):
        spec = NeedleSpec(**{"haystack": SynthSpec(n_frames=10, n_scenes=1, seed=0), **kw})
        with pytest.raises(InvalidConfigError, match=match):
            spec.validate()

    def test_array_depths_and_counts_are_accepted(self):
        base = SynthSpec(n_frames=10, n_scenes=1, seed=0)
        arrays = NeedleSpec(haystack=base, depths=np.array([0.0, 0.5]), frame_counts=np.array([10, 20]))
        tuples = NeedleSpec(haystack=base, depths=(0.0, 0.5), frame_counts=(10, 20))
        assert needle_study(arrays, [small_cfg()]) == needle_study(tuples, [small_cfg()])

    def test_integer_depths_and_alignment_are_accepted(self):
        base = SynthSpec(n_frames=10, n_scenes=1, seed=0)
        NeedleSpec(haystack=base, depths=[0, np.float32(0.5), 1], query_alignment=1).validate()

    def test_the_inserted_needle_frame_is_counted(self):
        # The largest haystack one array can hold has no room for the needle.
        most = np.iinfo(np.intp).max // (12 * 12 * 32 * 4)
        SynthSpec(n_frames=most, n_scenes=1).validate()
        base = SynthSpec(n_frames=10, n_scenes=1, seed=0)
        with pytest.raises(InvalidConfigError, match=f"{most + 1} frames of 12x12x32"):
            NeedleSpec(haystack=base, frame_counts=[most]).validate()


class TestReductionReport:
    def test_pure_static_corpus_keeps_one_per_window(self):
        corpus = [
            SynthSpec(n_frames=256, n_scenes=1, intra_scene_noise=0.01,
                      drift_scenes_fraction=0.0, seed=s)
            for s in range(3)
        ]
        per_video, agg = reduction_report(corpus, small_cfg())
        assert agg["mean_frames_kept"] == pytest.approx(1 / 8, abs=0.01)

    def test_pure_orthogonal_corpus_keeps_everything(self):
        corpus = [
            SynthSpec(n_frames=24, n_scenes=24, intra_scene_noise=0.0,
                      drift_scenes_fraction=0.0, dim=32, seed=s)
            for s in range(3)
        ]
        per_video, agg = reduction_report(corpus, small_cfg())
        assert agg["mean_frames_kept"] == 1.0

    def test_aggregate_matches_per_video_mean(self, monkeypatch):
        monkeypatch.setattr(synthbench, "CORPUS_FRAMES", (256, 320))
        corpus = make_mixed_corpus(6, seed=3)
        per_video, agg = reduction_report(corpus, small_cfg())
        assert agg["mean_frames_kept"] == pytest.approx(
            np.mean([s.temporal_keep_rate for s in per_video])
        )
        assert agg["mean_tokens_reduced"] == pytest.approx(
            np.mean([s.spatial_reduction_rate for s in per_video])
        )
        assert agg["n_videos"] == 6
        assert sum(agg["frames_kept_histogram"]) == 6

    def test_anchor_ablation_generates_each_video_once(self, monkeypatch):
        from vtcompress import AnchorStrategy, synthbench

        monkeypatch.setattr(synthbench, "CORPUS_FRAMES", (256, 320))
        corpus = make_mixed_corpus(3, seed=5)
        expected = {
            s.value: reduction_report(corpus, small_cfg(anchor=s))[1]["mean_tokens_reduced"]
            for s in AnchorStrategy
        }
        calls = []

        def counting_gen(spec):
            calls.append(spec.seed)
            return gen_video(spec)

        monkeypatch.setattr(synthbench, "gen_video", counting_gen)
        assert anchor_ablation(corpus, small_cfg()) == expected
        assert calls == [spec.seed for spec in corpus]

    def test_infeasible_video_is_reported_not_fatal(self):
        corpus = [
            SynthSpec(n_frames=n, n_scenes=2, dim=8, grid=(4, 4), seed=s)
            for s, n in enumerate((16, 64))
        ]
        # 8 query tokens leave 40: the 16-frame video's 4 anchors x 4 pooled
        # tokens fit, the 64-frame video's 16 anchors do not
        cfg = small_cfg(l_max=48, tokens_low=(2, 2), k=4,
                        stages=StageToggles(temporal=False))
        per_video, agg = reduction_report(corpus, cfg)
        assert len(per_video) == 2
        assert agg["n_videos"] == 2 and agg["n_infeasible"] == 1
        feasible, infeasible = per_video
        assert feasible.tokens_final == 40
        assert infeasible.tokens_final is None and infeasible.frames_in == 64
        assert agg["mean_total_reduction"] == feasible.total_reduction_rate
        assert agg["mean_tokens_reduced"] == pytest.approx(
            np.mean([s.spatial_reduction_rate for s in per_video])
        )

    @pytest.mark.parametrize("args, match", [
        ((2.5, 0), "corpus size must be a positive integer, got 2.5"),
        ((True, 0), "corpus size must be a positive integer, got True"),
        ((0, 0), "corpus size must be a positive integer, got 0"),
        ((2, "1"), "seed must be an integer >= 0, got '1'"),
        ((2, -1), "seed must be an integer >= 0, got -1"),
    ])
    def test_malformed_corpus_arguments(self, args, match):
        with pytest.raises(InvalidConfigError, match=match):
            make_mixed_corpus(*args)

    def test_empty_corpus_rejected(self):
        with pytest.raises(InvalidConfigError):
            reduction_report([], small_cfg())


class TestAnchorAblation:
    def test_reports_all_strategies(self):
        corpus = make_mixed_corpus(3, seed=5)
        rates = anchor_ablation(corpus, small_cfg())
        assert set(rates) == {"first", "middle", "high_change"}
        assert all(0.0 <= v <= 1.0 for v in rates.values())

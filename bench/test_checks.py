"""The benchmark's output checks pass on the program's outputs and fail on
copies of them with a planted fault."""

import math

import numpy as np
import pytest

import refs
from vtcompress import formats, pipeline, synthbench
from vtcompress.errors import BudgetInfeasibleError
from vtcompress.framepos import FramePositionConfig
from vtcompress.query_select import QueryEmbedding

L_Q = 8


@pytest.fixture(scope="module")
def video():
    return synthbench.gen_video(synthbench.SynthSpec(n_frames=96, n_scenes=3, dim=16, seed=7))


@pytest.fixture(scope="module")
def query():
    rows = np.random.default_rng(3).standard_normal((L_Q, 16))
    return QueryEmbedding((rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32))


@pytest.fixture(scope="module")
def anchor_budget(video):
    kept, ties = refs.temporal_keep(video.frames)
    return math.ceil((len(kept) + len(ties)) / refs.K) * refs.LOW[0] * refs.LOW[1]


@pytest.fixture(scope="module")
def pruned(video, query, anchor_budget):
    """A run through stage 3 whose output is subsampled to the budget exactly."""
    l_max = anchor_budget + 5 + L_Q
    tokens, stats = pipeline.compress(video, query, pipeline.CompressionConfig(l_max=l_max))
    assert stats.fallback_used and stats.tokens_final == l_max - L_Q
    return refs.Tokens.of(tokens), stats.to_dict(), l_max


def problems(video, out, stats, l_max, **kw):
    return refs.check_compress(video.frames, L_Q, out, stats, l_max=l_max, **kw)


def test_program_output_passes(video, pruned):
    out, stats, l_max = pruned
    assert problems(video, out, stats, l_max) == []


def test_perturbed_token_fails(video, pruned):
    out, stats, l_max = pruned
    bad = out.copy()
    bad.vectors[len(bad) // 2, 3] += 1e-3
    assert any("source vector" in p for p in problems(video, bad, stats, l_max))


def test_token_over_budget_fails(video, pruned):
    out, stats, l_max = pruned
    bad = refs.Tokens(*(np.concatenate([a, a[-1:]]) for a in out.columns()))
    bad.cols[-1] += 1  # a new position after the last token, so the order holds
    found = problems(video, bad, dict(stats, tokens_final=len(bad)), l_max)
    assert any("budget" in p for p in found)


def test_swapped_order_fails(video, pruned):
    out, stats, l_max = pruned
    bad = out.copy()
    i = len(bad) // 2
    for column in bad.columns():
        column[[i, i + 1]] = column[[i + 1, i]]
    assert any("order" in p for p in problems(video, bad, stats, l_max))


def test_other_anchor_strategies_pass(video, query, pruned):
    _, _, l_max = pruned
    for anchor in ("middle", "high_change"):
        cfg = pipeline.CompressionConfig(l_max=l_max, anchor=anchor)
        tokens, stats = pipeline.compress(video, query, cfg)
        assert problems(video, refs.Tokens.of(tokens), stats.to_dict(), l_max, anchor=anchor) == []


def test_lvuc_round_trip_with_sinusoid(video, query, pruned, tmp_path):
    _, _, l_max = pruned
    cfg = pipeline.CompressionConfig(l_max=l_max, fpe=FramePositionConfig(enabled=True, dim=16))
    tokens, stats = pipeline.compress(video, query, cfg)
    formats.write_compressed(tmp_path / "out.lvuc", tokens, stats)
    out, blob = refs.parse_lvuc((tmp_path / "out.lvuc").read_bytes())
    assert blob == stats.to_dict()
    assert problems(video, out, blob, l_max, fpe=True) == []
    assert any("source vector" in p for p in problems(video, out, blob, l_max, fpe=False))


def test_infeasible_verdict_is_confirmed_only_when_anchors_overflow(video, query, anchor_budget):
    l_max = anchor_budget - 1 + L_Q
    with pytest.raises(BudgetInfeasibleError) as info:
        pipeline.compress(video, query, pipeline.CompressionConfig(l_max=l_max))
    stats = info.value.stats.to_dict()
    assert problems(video, None, stats, l_max) == []
    assert any("fits the budget" in p for p in problems(video, None, stats, l_max + 1))


def test_needle_at_full_resolution(video, query):
    needle = synthbench.make_needle_grid(synthbench.SynthSpec(n_frames=96, n_scenes=3, dim=16, seed=7))
    clip, index = synthbench.insert_needle(video, needle, 0.5)
    aligned = synthbench.make_aligned_query(needle, 1.0, L_Q, 7)
    kept, ties = refs.temporal_keep(clip.frames)
    l_max = (len(kept) + len(ties)) * 64 + 3 * (144 - 64) + L_Q  # room for three full frames
    tokens, stats = pipeline.compress(clip, aligned, pipeline.CompressionConfig(l_max=l_max))
    assert stats.n_full_res == 3
    out = refs.Tokens.of(tokens)
    assert refs.check_compress(clip.frames, L_Q, out, stats.to_dict(), l_max=l_max, needle_index=index) == []
    bad = out.copy()
    bad.levels[bad.frame_indices == index] = 1
    assert refs.check_compress(clip.frames, L_Q, bad, stats.to_dict(), l_max=l_max, needle_index=index)
    # The same output, with the needle said to be at a frame that was pooled.
    pooled_frame = int(out.frame_indices[out.levels == 1][0])
    found = refs.check_compress(clip.frames, L_Q, out, stats.to_dict(), l_max=l_max, needle_index=pooled_frame)
    assert any("needle" in p for p in found)


def test_pool_ref_bins():
    grid = np.arange(12 * 12, dtype=np.float32).reshape(1, 12, 12, 1)
    pooled = refs.pool_ref(grid)
    assert refs.bin_edges(12, 8)[:2] == [(0, 2), (1, 3)]
    assert pooled[0, 0, 0, 0] == grid[0, 0:2, 0:2].mean()
    assert pooled[0, 1, 1, 0] == grid[0, 1:3, 1:3].mean()


def test_sinusoid_pairs():
    enc = refs.sinusoid(np.array([0.0, 5.0]), 6)
    assert enc[0].tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    assert enc[1, 2] == pytest.approx(math.sin(5.0 / 10000 ** (2 / 6)))
    assert enc[1, 3] == pytest.approx(math.cos(5.0 / 10000 ** (2 / 6)))


def test_temporal_rule_keeps_least_similar_frame():
    base = np.zeros((8, 12, 12, 4), dtype=np.float32)
    base[..., 0] = 1.0
    base[5, ..., 1] = 0.2  # the only frame that differs, and not by enough
    kept, ties = refs.temporal_keep(base)
    assert kept == [5] and ties == []
    base[5, ..., 1] = 5.0  # now far enough to pass the threshold on its own
    assert refs.temporal_keep(base)[0] == [5]

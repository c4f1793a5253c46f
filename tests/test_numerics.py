import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcompress import (
    CompressionConfig,
    FrameFeatureSequence,
    InvalidConfigError,
    QueryEmbedding,
    compress,
    frame_query_scores,
)
from vtcompress import numerics
from vtcompress.numerics import (
    POOL_CHUNK_FRAMES,
    POOL_CHUNK_TOKENS,
    WORK_BYTES,
    TokenGrid,
    pool_batch,
    pool_tokens,
)

from .conftest import (
    constant_grid,
    frame_summaries,
    pool_frame,
    random_query,
    scores_oracle,
    sequence_from_vectors,
    window_average_similarity,
)

nonzero_vectors = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=24
).filter(lambda xs: math.sqrt(sum(x * x for x in xs)) > 1e-3)


def pair_scores(u, v) -> np.ndarray:
    """Both scores of the two-frame window [u, v]; each is the pair's cosine."""
    return window_average_similarity(np.stack([np.asarray(u, float), np.asarray(v, float)]))


class TestCosineSimilarity:
    """The cosine of a pair, as ``window_average_similarity`` scores a
    two-frame window."""

    def test_identical(self):
        assert pair_scores([1.0, 0.0], [1.0, 0.0]) == pytest.approx([1.0, 1.0])

    def test_orthogonal(self):
        assert pair_scores([1.0, 0.0], [0.0, 1.0]) == pytest.approx([0.0, 0.0])

    def test_hand_value(self):
        # (3,4)·(4,3) = 24, norms 5 and 5
        assert pair_scores([3.0, 4.0], [4.0, 3.0]) == pytest.approx([24 / 25] * 2, abs=1e-12)

    def test_symmetry(self, rng):
        u, v = rng.standard_normal(8), rng.standard_normal(8)
        assert pair_scores(u, v).tolist() == pair_scores(v, u)[::-1].tolist()

    def test_zero_vector_is_a_repeat(self):
        # A zero vector repeats whatever it is compared with: cosine 1.
        assert pair_scores([0.0, 0.0], [1.0, 0.0]).tolist() == [1.0, 1.0]
        assert pair_scores([-3.0, 4.0], [0.0, 0.0]).tolist() == [1.0, 1.0]
        assert pair_scores([0.0, 0.0], [0.0, 0.0]).tolist() == [1.0, 1.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):  # the rows do not form one array
            window_average_similarity([[1.0], [1.0, 2.0]])

    @given(nonzero_vectors)
    def test_self_similarity_is_one(self, xs):
        assert pair_scores(xs, xs) == pytest.approx([1.0, 1.0], abs=1e-6)

    @given(nonzero_vectors, st.floats(min_value=1e-3, max_value=1e3))
    def test_positive_scaling_invariance(self, xs, scale):
        probe = [1.0] + [0.0] * (len(xs) - 1)
        ref = pair_scores(xs, probe)
        assert pair_scores([x * scale for x in xs], probe) == pytest.approx(ref, abs=1e-6)
        assert pair_scores(xs, [p * scale for p in probe]) == pytest.approx(ref, abs=1e-6)

    def test_range_clamped(self, rng):
        for _ in range(50):
            u = rng.standard_normal(4) * 1e-4
            if np.linalg.norm(u) == 0:
                continue
            scores = pair_scores(u, 2 * u)
            assert (-1.0 <= scores).all() and (scores <= 1.0).all()


def pool_oracle(data: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Brute-force reference pooling: mean over every bin's slice."""
    h, w, d = data.shape
    out = np.empty((out_h, out_w, d), dtype=np.float32)
    for p in range(out_h):
        r0 = (p * h) // out_h
        r1 = math.ceil((p + 1) * h / out_h)
        for q in range(out_w):
            c0 = (q * w) // out_w
            c1 = math.ceil((q + 1) * w / out_w)
            out[p, q] = data[r0:r1, c0:c1].astype(np.float64).mean(axis=(0, 1))
    return out


class TestAdaptiveAvgPool:
    def test_all_ones_to_single(self):
        pooled = pool_frame(constant_grid([1.0], 2, 2), 1, 1)
        assert pooled.shape == (1, 1, 1)
        assert pooled[0, 0, 0] == 1.0

    def test_quadrant_means(self):
        data = np.zeros((4, 4, 1), dtype=np.float32)
        data[:2, :2] = 1.0
        data[:2, 2:] = 2.0
        data[2:, :2] = 3.0
        data[2:, 2:] = 4.0
        pooled = pool_frame(data, 2, 2)
        assert pooled[:, :, 0].tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_12x12_to_8x8_matches_oracle(self, rng):
        data = rng.standard_normal((12, 12, 5)).astype(np.float32)
        pooled = pool_frame(data, 8, 8)
        assert np.array_equal(pooled, pool_oracle(data, 8, 8))

    @pytest.mark.parametrize("shape,out", [((7, 9, 3), (5, 4)), ((6, 6, 2), (6, 1)), ((5, 3, 4), (2, 3))])
    def test_odd_shapes_match_oracle(self, rng, shape, out):
        data = rng.standard_normal(shape).astype(np.float32)
        pooled = pool_frame(data, *out)
        assert np.array_equal(pooled, pool_oracle(data, *out))

    def test_identity_when_same_dims(self, rng):
        data = rng.standard_normal((5, 7, 3)).astype(np.float32)
        pooled = pool_frame(data, 5, 7)
        assert np.array_equal(pooled, data)

    def test_upsampling_rejected(self, rng):
        # The pooled grid is checked where it enters: by the config and
        # against the input grid, before anything is pooled.
        seq = FrameFeatureSequence(constant_grid([1.0], 2, 2)[None])
        for low, message in [
            ((3, 2), r"input grid 2x2 must hold more tokens than pooled grid \(3, 2\)"),
            ((2, 0), r"pooled grid must be positive, got \(2, 0\)"),
        ]:
            with pytest.raises(InvalidConfigError, match=message):
                compress(seq, random_query(rng, 1, 1), CompressionConfig(tokens_low=low))

    def test_values_within_bin_bounds(self, rng):
        for _ in range(20):
            h, w = int(rng.integers(1, 13)), int(rng.integers(1, 13))
            oh, ow = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
            data = rng.standard_normal((h, w, 2)).astype(np.float32)
            pooled = pool_frame(data, oh, ow)
            for p in range(oh):
                r0, r1 = (p * h) // oh, math.ceil((p + 1) * h / oh)
                for q in range(ow):
                    c0, c1 = (q * w) // ow, math.ceil((q + 1) * w / ow)
                    window = data[r0:r1, c0:c1]
                    assert (pooled[p, q] >= window.min(axis=(0, 1))).all()
                    assert (pooled[p, q] <= window.max(axis=(0, 1))).all()

    def test_global_mean_preserved_for_even_partition(self, rng):
        data = rng.standard_normal((8, 8, 3)).astype(np.float32)
        pooled = pool_frame(data, 4, 4)
        np.testing.assert_allclose(
            pooled.mean(axis=(0, 1)), data.mean(axis=(0, 1)), atol=1e-6
        )

    def test_batch_matches_single(self, rng):
        stack = rng.standard_normal((6, 12, 12, 4)).astype(np.float32)
        batch = pool_batch(stack, 8, 8, np.arange(6))
        for i in range(6):
            assert np.array_equal(batch[i], pool_frame(stack[i], 8, 8))


class TestPoolBatch:
    @pytest.mark.parametrize(
        "grid,out",
        [((12, 12), (5, 5)), ((7, 7), (3, 3)), ((12, 12), (8, 8)), ((5, 9), (2, 4)), ((5, 9), (5, 9))],
    )
    def test_matches_float64_bin_means(self, rng, grid, out):
        stack = rng.standard_normal((3, *grid, 6)).astype(np.float32)
        expected = np.stack([pool_oracle(frame, *out) for frame in stack])
        assert np.array_equal(pool_batch(stack, *out, np.arange(3)), expected)

    @pytest.mark.parametrize("work_bytes", [WORK_BYTES, 3 * 12 * 12 * 4 * 20, 1])
    def test_longer_than_a_chunk_matches_single_frames(self, rng, monkeypatch, work_bytes):
        # A chunk is the 8 frames of the cap at the default working bytes,
        # 3 frames (of 12x12x4 float32 and 8x12 + 8x8 float64 sums) at the
        # middle setting, and one frame when a frame alone is over the bytes.
        monkeypatch.setattr(numerics, "WORK_BYTES", work_bytes)
        stack = rng.standard_normal((2 * POOL_CHUNK_FRAMES + 3, 12, 12, 4)).astype(np.float32)
        batch = pool_batch(stack, 8, 8, np.arange(stack.shape[0]))
        for i in range(stack.shape[0]):
            assert np.array_equal(batch[i], pool_batch(stack[i : i + 1], 8, 8, np.arange(1))[0])

    @pytest.mark.parametrize("index", ["all", "shuffled", "none"])
    def test_out_has_the_bits_and_nothing_else_is_written(self, rng, index):
        stack = rng.standard_normal((2 * POOL_CHUNK_FRAMES + 3, 12, 12, 5)).astype(np.float32)
        n = stack.shape[0]
        index = {"all": np.arange(n), "shuffled": rng.permutation(n), "none": np.arange(0)}[index]
        expected = pool_batch(stack, 5, 7, index)
        # a view into the middle of a larger array, which starts as NaN
        whole = np.full((n + 4, 5, 7, 5), np.nan, dtype=np.float32)
        view = whole[2 : 2 + len(index)]
        got = pool_batch(stack, 5, 7, index, out=view)
        assert got is view
        assert view.tobytes() == expected.tobytes()
        assert np.isnan(whole[:2]).all() and np.isnan(whole[2 + len(index) :]).all()

    def test_empty_stack(self):
        stack = np.zeros((0, 12, 12, 4), dtype=np.float32)
        assert pool_batch(stack, 8, 8, np.arange(0)).shape == (0, 8, 8, 4)

    def test_peak_memory_below_twice_the_stack(self, rng):
        stack = rng.standard_normal((2000, 12, 12, 64), dtype=np.float32)
        tracemalloc.start()
        try:
            pool_batch(stack, 8, 8, np.arange(2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * stack.nbytes

    def test_working_set_is_eight_frames(self, rng):
        # Through a shuffled index, so that each frame is cast from its own
        # place: beyond its output, pooling holds one block of 8 frames'
        # cells in float64. The slack covers the bin edges and counts and
        # small objects: every add and mean runs in place on contiguous
        # blocks, so numpy allocates no iterator buffer (up to 192 KiB a
        # call on strided operands).
        stack = rng.standard_normal((2000, 12, 12, 64), dtype=np.float32)
        index = rng.permutation(2000)
        working_set = 8 * 12 * 12 * 64 * 8
        slack = 16 * 1024
        tracemalloc.start()
        try:
            out = pool_batch(stack, 8, 8, index=index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= working_set + slack

    def test_a_wide_frame_is_pooled_alone(self, rng):
        # At dim 1,152 one frame's cells in float64 are over WORK_BYTES, so a
        # chunk is one frame: pooling holds 1.27 MiB beside its output, where
        # 8-frame chunks held 17 MiB. The slack is as above.
        stack = rng.standard_normal((12, 12, 12, 1152), dtype=np.float32)
        frame = 12 * 12 * 1152 * 8
        assert frame > WORK_BYTES
        tracemalloc.start()
        try:
            out = pool_batch(stack, 8, 8, index=rng.permutation(12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= frame + 16 * 1024


def pool_in_order(frame: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Reference pooling that fixes the order of addition: each bin's
    columns are summed down from a float64 zero, then the column sums are
    added across, also from zero, and the sum is divided by the cell count.
    A mean that rounds to -0.0 in float32 is +0.0, as a sum started from
    +0.0 never ends at -0.0. A grid pooled to its own size follows the same
    rule."""
    h, w, d = frame.shape
    out = np.empty((out_h, out_w, d), dtype=np.float32)
    for p in range(out_h):
        r0, r1 = (p * h) // out_h, math.ceil((p + 1) * h / out_h)
        for q in range(out_w):
            c0, c1 = (q * w) // out_w, math.ceil((q + 1) * w / out_w)
            total = np.zeros(d)
            for c in range(c0, c1):
                column = np.zeros(d)
                for r in range(r0, r1):
                    column += frame[r, c].astype(np.float64)
                total += column
            out[p, q] = total / ((r1 - r0) * (c1 - c0))
    out += 0.0
    return out


@st.composite
def wide_range_stacks(draw, max_frames=4):
    """A float32 (frames, h, w, dim) stack of both signs with magnitudes
    within e^20 of 1, of float32's subnormals (e^-110 to e^-70: some cells
    underflow to 0.0, and many bins hold subnormal or zero means) or of its
    maximum (up to e^88), and some cells +0.0 or -0.0; plus a pooled grid no
    larger than it on either side. Each stack draws its cells from three
    magnitudes, so bins often hold a value and its negation: float64 sums
    of such cells round, and the bits of a mean depend on the order of
    addition."""
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    out_h, out_w = draw(st.integers(1, h)), draw(st.integers(1, w))
    n, dim = draw(st.integers(1, max_frames)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n, h, w, dim)
    magnitudes = np.exp(draw(st.sampled_from([0.0, -90.0, 68.0])) + rng.uniform(-20.0, 20.0, 3))
    stack = (rng.choice([-1.0, 1.0], shape) * rng.choice(magnitudes, shape)).astype(np.float32)
    stack[rng.random(shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    stack[rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = -0.0
    return stack, out_h, out_w, rng


def token_args(out_h, out_w, frames, rows, cols):
    """``pool_tokens``' index, table rows and destination rows for token i,
    ``pool_batch(stack, out_h, out_w, frames)[i, rows[i], cols[i]]``, into
    row i."""
    m = len(frames)
    return frames, (np.arange(m) * out_h + rows) * out_w + cols, np.arange(m)


def pooled_tokens(stack, out_h, out_w, frames, rows, cols) -> np.ndarray:
    """Those tokens, from one ``pool_tokens`` call, in a fresh (n, dim) array."""
    index, table_rows, dst = token_args(out_h, out_w, frames, rows, cols)
    out = np.empty((len(frames), stack.shape[3]), dtype=np.float32)
    pool_tokens(stack, out_h, out_w, index, table_rows, out, dst)
    return out


def every_token(stack, out_h, out_w, index) -> np.ndarray:
    """``pool_tokens`` of every token of the frames ``index``, in one call,
    laid out as ``pool_batch``'s output."""
    n = len(index) * out_h * out_w
    out = np.empty((n, stack.shape[3]), dtype=np.float32)
    pool_tokens(stack, out_h, out_w, index, np.arange(n), out, np.arange(n))
    return out.reshape(len(index), out_h, out_w, stack.shape[3])


class TestPoolTokens:
    @settings(max_examples=300, deadline=None)
    @given(wide_range_stacks())
    def test_pool_batch_adds_in_the_stated_order(self, case):
        stack, out_h, out_w, rng = case
        expected = np.stack([pool_in_order(frame, out_h, out_w) for frame in stack])
        every = np.arange(stack.shape[0])
        assert pool_batch(stack, out_h, out_w, every).tobytes() == expected.tobytes()
        # Any chunk size gives the same bits, also through an index that
        # repeats frames and takes them out of order.
        index = rng.integers(0, stack.shape[0], rng.integers(1, 12))
        # The cap sets the chunk, or the working bytes do (1 byte: one frame).
        for chunk_frames, work_bytes in ((POOL_CHUNK_FRAMES, WORK_BYTES), (1, WORK_BYTES),
                                         (3, WORK_BYTES), (POOL_CHUNK_FRAMES, 1)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(numerics, "POOL_CHUNK_FRAMES", chunk_frames)
                mp.setattr(numerics, "WORK_BYTES", work_bytes)
                assert pool_batch(stack, out_h, out_w, every).tobytes() == expected.tobytes()
                got = pool_batch(stack, out_h, out_w, index=index)
                assert got.tobytes() == expected[index].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(wide_range_stacks(), st.integers(0, 60))
    def test_equals_pool_batch_bit_for_bit(self, case, m):
        stack, out_h, out_w, rng = case
        frames = rng.integers(0, stack.shape[0], m)
        rows, cols = rng.integers(0, out_h, m), rng.integers(0, out_w, m)
        got = pooled_tokens(stack, out_h, out_w, frames, rows, cols)
        assert got.shape == (m, stack.shape[3]) and got.dtype == np.float32
        pooled = pool_batch(stack, out_h, out_w, np.arange(stack.shape[0]))
        assert got.tobytes() == pooled[frames, rows, cols].tobytes()

    @pytest.mark.parametrize("grid,out", [((7, 9), (3, 4)), ((12, 12), (8, 8)), ((16, 5), (3, 5))])
    def test_more_tokens_than_a_chunk(self, rng, grid, out):
        stack = rng.standard_normal((40, *grid, 3)).astype(np.float32)
        m = 2 * POOL_CHUNK_TOKENS + 7
        frames = np.sort(rng.integers(0, 40, m))
        rows, cols = rng.integers(0, out[0], m), rng.integers(0, out[1], m)
        got = pooled_tokens(stack, *out, frames, rows, cols)
        assert np.array_equal(got, pool_batch(stack, *out, np.arange(40))[frames, rows, cols])

    @pytest.mark.parametrize("grid,low,dim,work_bytes", [
        ((12, 12), (8, 8), 64, WORK_BYTES), ((12, 12), (8, 8), 1152, WORK_BYTES),
        ((12, 12), (8, 8), 3, 1), ((5, 7), (3, 2), 64, WORK_BYTES),
    ], ids=["64-1048576", "1152-1048576", "3-1", "padded-64-1048576"])
    def test_working_set_is_bounded_in_bytes(self, rng, monkeypatch, grid, low, dim, work_bytes):
        # 12x12 -> 8x8 bins are 2x2 cells; 5x7 -> 3x2 bins take 3x4, their
        # smaller ones padded. A token's working bytes are its cells in
        # float32 (the gather) and float64 (the block), with their int64
        # rows, columns and frame and a flag, its int64 frame, bin row and
        # column and input frame, and its float64 count: at 12x12 -> 8x8,
        # 326 tokens a chunk at dim 64, 18 at dim 1,152, one where one token
        # is over the working bytes. The chunk's means go into its gathered
        # cells. The 16 KiB are the bin tables and small objects: every add,
        # division and cast runs in place on contiguous blocks, so numpy
        # allocates no iterator buffer (64 KiB or more a call where an
        # operand is cast or broadcast).
        monkeypatch.setattr(numerics, "WORK_BYTES", work_bytes)
        stack = rng.standard_normal((6, *grid, dim), dtype=np.float32)
        m = 1500
        frames, rows, cols = rng.integers(0, 6, m), rng.integers(0, low[0], m), rng.integers(0, low[1], m)
        cells = 4 if grid == (12, 12) else 12
        token = cells * (dim * 12 + 25) + 40
        chunk = max(1, min(POOL_CHUNK_TOKENS, work_bytes // token))
        index, table_rows, dst = token_args(*low, frames, rows, cols)
        out = np.empty((m, dim), dtype=np.float32)
        tracemalloc.start()
        try:
            pool_tokens(stack, *low, index, table_rows, out, dst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= chunk * token + 16 * 1024, (peak, chunk * token)
        assert np.array_equal(out, pool_batch(stack, *low, np.arange(6))[frames, rows, cols])

    @pytest.mark.parametrize("order", ["ascending", "shuffled"])
    def test_out_has_the_bits_and_nothing_else_is_written(self, rng, monkeypatch, order):
        # Three chunks of tokens, each written straight into its rows of a
        # larger array, which starts as NaN; the pooled table is that of
        # frames taken out of order and repeated.
        monkeypatch.setattr(numerics, "POOL_CHUNK_TOKENS", 7)
        stack = rng.standard_normal((5, 5, 7, 3), dtype=np.float32)
        index = np.array([3, 0, 3, 4])
        table = pool_batch(stack, 3, 2, index).reshape(-1, 3)
        rows = rng.integers(0, table.shape[0], 40)  # only those at dst are read
        dst = np.sort(rng.choice(40, 19, replace=False))
        if order == "shuffled":
            rng.shuffle(dst)
        whole = np.full((40, 3), np.nan, dtype=np.float32)
        pool_tokens(stack, 3, 2, index, rows, whole, dst)
        assert whole[dst].tobytes() == table[rows[dst]].tobytes()
        assert np.isnan(np.delete(whole, dst, axis=0)).all()

    def test_upsampling_rejected(self, rng):
        # A grid with fewer tokens that does not fit inside the input is
        # refused before anything is pooled.
        seq = FrameFeatureSequence(np.ones((1, 2, 8, 1), dtype=np.float32))
        message = r"pooled grid \(3, 2\) must fit inside the input grid 2x8"
        with pytest.raises(InvalidConfigError, match=message):
            compress(seq, random_query(rng, 1, 1), CompressionConfig(tokens_low=(3, 2)))


class TestMeanStep:
    """Where every bin holds the same power-of-two count, ``pool_batch``
    multiplies its bin sums by the count's reciprocal instead of dividing
    them; the bits must be ``pool_in_order``'s, and the dividing path's,
    on every kind of value a mean can take. ``pool_tokens``, which always
    divides, must have them for every token too."""

    GRIDS = [  # (h, w), (out_h, out_w), the reciprocal, or None where it divides
        ((12, 12), (8, 8), 0.25),
        ((16, 16), (8, 8), 0.25),
        ((8, 8), (2, 2), 1 / 16),
        ((12, 12), (4, 4), None),  # 9 cells a bin
        ((5, 7), (3, 2), None),  # bins of 2 to 12 cells
        ((6, 6), (6, 6), 1.0),  # a same-size grid
    ]

    @staticmethod
    def stacks(rng, h, w, n=3, dim=4):
        """(kind, an (n, h, w, dim) float32 stack) for each kind of mean."""
        shape = (n, h, w, dim)
        signs = rng.choice([-1.0, 1.0], shape)
        tiny = np.finfo(np.float32).smallest_subnormal
        big = np.finfo(np.float32).max
        yield "normal", rng.standard_normal(shape).astype(np.float32)
        # multiples of the least float32 subnormal: means are float32
        # subnormals, and many fall between two of them
        yield "subnormal", (signs * rng.integers(0, 40, shape) * tiny).astype(np.float32)
        zeros = np.zeros(shape, dtype=np.float32)  # +0.0, -0.0 and +x, -x bins
        zeros[0] = -0.0
        zeros[1, ::2] = rng.standard_normal((1, w, dim)).astype(np.float32)
        zeros[1, 1::2] = -zeros[1, ::2][: zeros[1, 1::2].shape[0]]
        yield "signed zeros", zeros
        yield "near the maximum", (signs * rng.uniform(0.5, 1.0, shape) * big).astype(np.float32)

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}->{g[1]}")
    def test_has_the_bits_of_the_division(self, rng, grid):
        (h, w), (out_h, out_w), reciprocal = grid
        pooling = numerics.Pooling(h, w, 4, out_h, out_w)
        assert pooling.reciprocal == reciprocal
        dividing = numerics.Pooling(h, w, 4, out_h, out_w)
        dividing.reciprocal = None
        every = np.arange(3)
        for kind, stack in self.stacks(rng, h, w):
            expected = np.stack([pool_in_order(frame, out_h, out_w) for frame in stack])
            assert np.isfinite(expected).all(), kind
            got = pool_batch(stack, out_h, out_w, every, pooling=pooling)
            assert got.tobytes() == expected.tobytes(), kind
            assert pool_batch(stack, out_h, out_w, every, pooling=dividing).tobytes() == got.tobytes()
            assert every_token(stack, out_h, out_w, every).tobytes() == got.tobytes(), kind
            if kind == "subnormal":
                assert (got != 0).any()
                assert (np.abs(got) < np.finfo(np.float32).smallest_normal).all()
            if kind == "signed zeros":
                assert not np.signbit(got[got == 0]).any()  # every zero mean is +0.0


class TestBlockKernel:
    """``pool_batch`` casts each chunk into one phase-major float64 block and
    sums every bin in place there; the bits must be ``pool_in_order``'s at
    every grid and chunk size and on every kind of value a mean can take,
    and the block is all the working memory a chunk holds. ``pool_tokens``
    sums its tokens' bins in a block of its own and must have the same
    bits for every token of every frame."""

    GRIDS = [
        ((12, 12), (8, 8)),
        ((16, 16), (8, 8)),
        ((12, 12), (4, 4)),  # 9 cells a bin: the dividing path
        ((12, 12), (12, 8)),  # a same-size axis
        ((7, 5), (3, 2)),  # coprime sizes: one period, bins overlap
        ((5, 7), (3, 2)),
    ]

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}->{g[1]}")
    @pytest.mark.parametrize("chunk,by", [(1, "cap"), (3, "cap"), (8, "cap"), (1, "bytes"), (3, "bytes")])
    def test_has_the_reference_bits_at_every_chunk(self, rng, monkeypatch, grid, chunk, by):
        # 11 frames: at 3 and 8 frames a chunk, the last chunk is short
        (h, w), (out_h, out_w) = grid
        if by == "cap":  # and tokens a chunk of pool_tokens
            monkeypatch.setattr(numerics, "POOL_CHUNK_FRAMES", chunk)
            monkeypatch.setattr(numerics, "POOL_CHUNK_TOKENS", chunk)
        else:
            monkeypatch.setattr(numerics, "WORK_BYTES", chunk * h * w * 4 * 8)
        pooling = numerics.Pooling(h, w, 4, out_h, out_w)
        assert pooling.step == chunk
        index = np.concatenate([rng.permutation(11), [3, 3]])
        for kind, stack in TestMeanStep.stacks(rng, h, w, n=11):
            expected = np.stack([pool_in_order(frame, out_h, out_w) for frame in stack])
            assert pool_batch(stack, out_h, out_w, np.arange(11), pooling=pooling).tobytes() \
                == expected.tobytes(), kind
            assert pool_batch(stack, out_h, out_w, index).tobytes() == expected[index].tobytes(), kind
            assert every_token(stack, out_h, out_w, index).tobytes() == expected[index].tobytes(), kind

    @pytest.mark.parametrize("grid", [GRIDS[0], *GRIDS[3:]], ids=lambda g: f"{g[0]}->{g[1]}")
    def test_has_the_reference_bits_at_the_paper_width(self, rng, monkeypatch, grid):
        # dim 1,152, one frame a chunk, and a few tokens a chunk of pool_tokens
        (h, w), (out_h, out_w) = grid
        monkeypatch.setattr(numerics, "WORK_BYTES", h * w * 1152 * 8)
        assert numerics.Pooling(h, w, 1152, out_h, out_w).step == 1
        for kind, stack in TestMeanStep.stacks(rng, h, w, n=3, dim=1152):
            expected = np.stack([pool_in_order(frame, out_h, out_w) for frame in stack])
            assert pool_batch(stack, out_h, out_w, np.arange(3)).tobytes() == expected.tobytes(), kind
            assert every_token(stack, out_h, out_w, np.arange(3)).tobytes() == expected.tobytes(), kind

    @pytest.mark.parametrize("dim", [32, 64, 1152])
    def test_peak_is_one_chunk_block(self, rng, dim):
        # One over-budget k = 8 window, 12x12 -> 8x8, into a given output:
        # 8 frames a chunk at dims 32 and 64, one at 1,152. The 16 KiB are
        # the bin edges and counts and small objects.
        stack = rng.standard_normal((16, 12, 12, dim), dtype=np.float32)
        out = np.empty((8, 8, 8, dim), dtype=np.float32)
        block = numerics.per_chunk(12 * 12 * dim * 8, POOL_CHUNK_FRAMES) * 12 * 12 * dim * 8
        pool_batch(stack, 8, 8, np.arange(4, 12), out=out)  # numpy's first-call set-up
        tracemalloc.start()
        try:
            pool_batch(stack, 8, 8, np.arange(4, 12), out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= block + 16 * 1024, (peak, block)
        assert out.tobytes() == pool_batch(stack[4:12], 8, 8, np.arange(8)).tobytes()

    @pytest.mark.parametrize("layout", ["strided", "transposed"])
    def test_a_non_contiguous_out_raises(self, rng, layout):
        stack = rng.standard_normal((3, 12, 12, 4), dtype=np.float32)
        out = {"strided": np.zeros((3, 8, 8, 8), dtype=np.float32)[..., ::2],
               "transposed": np.zeros((4, 8, 8, 3), dtype=np.float32).T}[layout]
        with pytest.raises(ValueError, match="out must be C-contiguous"):
            pool_batch(stack, 8, 8, np.arange(3), out=out)
        assert not out.any()

    def test_a_larger_grid_is_refused(self, rng):
        # In-place sums need bin starts that strictly increase, as they do
        # when no side grows; compress refuses a larger grid before this.
        stack = rng.standard_normal((1, 4, 6, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="cannot pool a 4x6 grid to 5x3"):
            pool_batch(stack, 5, 3, np.arange(1))


class TestFrameSummary:
    """The unit-norm mean token of a frame, as stage 1 scores it (``frame_summaries``)."""

    def test_constant_grid_normalizes(self):
        out = frame_summaries(sequence_from_vectors([[2.0, 0.0]]))[0]
        assert np.allclose(out, [1.0, 0.0])

    def test_two_token_mean(self):
        frame = np.array([[[1.0, 0.0], [0.0, 1.0]]], dtype=np.float32)
        out = frame_summaries(FrameFeatureSequence(frame[None]))[0]
        assert np.allclose(out, [1 / math.sqrt(2)] * 2, atol=1e-7)

    def test_zero_grid_gives_a_zero_row(self):
        seq = sequence_from_vectors([[3.0, 4.0], [0.0, 0.0], [0.0, 2.0]])
        out = frame_summaries(seq)
        assert out.dtype == np.float32
        assert out[1].tolist() == [0.0, 0.0]
        assert np.allclose(out[[0, 2]], [[0.6, 0.8], [0.0, 1.0]])

    def test_unit_norm(self, rng):
        seq = FrameFeatureSequence(rng.standard_normal((100, 3, 4, 6)).astype(np.float32))
        summaries = frame_summaries(seq)
        assert summaries.shape == (100, 6)
        for row in summaries:
            assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-6)


def adapted_scores(weight, frames, query_rows) -> np.ndarray:
    """``frame_query_scores`` of a (frames, h, w, dim) stack seen through the
    projector ``weight``, folded into the query rows, checked against the
    exhaustive (token, query row) oracle over the projected tokens."""
    weight, rows = np.asarray(weight, dtype=np.float64), np.asarray(query_rows, dtype=np.float64)
    folded = QueryEmbedding(rows @ weight)
    scores = frame_query_scores(FrameFeatureSequence(frames).means, folded)
    projected = np.asarray(frames, dtype=np.float64) @ weight.T
    np.testing.assert_allclose(
        scores, scores_oracle(projected, QueryEmbedding(rows)), rtol=1e-6, atol=1e-6
    )
    return scores


class TestApplyAdapter:
    """An affine adapter x -> W x + b on the tokens, applied by scoring with
    the query rows ``rows @ W``."""

    def test_identity_equals_linear_identity(self, rng):
        frames = rng.standard_normal((3, 2, 3, 4)).astype(np.float32)
        rows = rng.standard_normal((2, 4))
        plain = frame_query_scores(FrameFeatureSequence(frames).means, QueryEmbedding(rows))
        assert adapted_scores(np.eye(4), frames, rows).tobytes() == plain.tobytes()

    def test_scalar_multiple(self):
        scores = adapted_scores(
            2.0 * np.eye(2), constant_grid([1.0, 2.0])[None], [[1.0, 0.0], [0.0, 1.0]]
        )
        assert scores == pytest.approx([(2.0 + 4.0) / 2])

    def test_swap_matrix(self):
        weight = np.array([[0.0, 1.0], [1.0, 0.0]])
        scores = adapted_scores(weight, constant_grid([3.0, 5.0])[None], [[1.0, 0.0]])
        assert scores == pytest.approx([5.0])

    def test_bias(self, rng):
        # A bias adds the same b . (mean query row) to every frame's score.
        frames = rng.standard_normal((6, 2, 2, 5)).astype(np.float32)
        weight, bias = rng.standard_normal((3, 5)), rng.standard_normal(3)
        rows = rng.standard_normal((4, 3))
        with_bias = scores_oracle(frames @ weight.T + bias, QueryEmbedding(rows))
        shift = with_bias - adapted_scores(weight, frames, rows)
        np.testing.assert_allclose(shift, bias @ rows.mean(axis=0), rtol=1e-6, atol=1e-6)

    def test_dim_change(self, rng):
        frames = rng.standard_normal((2, 2, 2, 5)).astype(np.float32)
        weight = rng.standard_normal((3, 5))
        assert adapted_scores(weight, frames, rng.standard_normal((4, 3))).shape == (2,)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidConfigError, match="query embedding has dim 3 but the tokens have dim 2"):
            adapted_scores(np.eye(3), constant_grid([1.0, 2.0])[None], [[1.0, 0.0, 0.0]])


class TestTokenGrid:
    def test_rejects_non_finite(self):
        data = np.ones((1, 1, 2), dtype=np.float32)
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            TokenGrid(data)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            TokenGrid(np.ones((2, 2), dtype=np.float32))

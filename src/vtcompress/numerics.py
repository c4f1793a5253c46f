"""Adaptive average pooling of token grids, for stage 2 and the over-budget path.

Both kernels follow one scheme. A chunk is cast by assignment into one reused float64
block, which holds the float32 input's exact values, and each bin is summed there in
place: down each column of the bin, then across the columns. The sum is divided by its
cell count (a power-of-two count's exact reciprocal gives the same bits), cast to
float32 and only then given 0.0: that turns a -0.0 mean into +0.0, as a sum started
from +0.0 never ends at -0.0, and leaves every other value alone. ``pool_batch`` pools
the frames an index picks; the over-budget path works out its ``Pooling`` once per
``compress``. ``pool_tokens`` pools single tokens, with the bits they have in their
pooled frames. A chunk's working arrays hold at most ``WORK_BYTES``, or one item where
one item needs more, so working memory is the same at any token width and any count.
``compress`` checks the pooled grid; pooled to its own size, a grid comes back as it
was, -0.0 as +0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["pool_batch", "pool_tokens"]

# Working bytes of one chunk of every chunked pass, from pooling to LVUC
# records: each sizes its chunk with per_chunk, so its working memory does
# not grow with the video or the token width.
WORK_BYTES = 1 << 20
# Caps on a chunk where the rows are narrow: frames of pool_batch, and tokens
# of pool_tokens and of the passes over output rows.
POOL_CHUNK_FRAMES = 8
POOL_CHUNK_TOKENS = 512


def per_chunk(item_bytes: int, cap: int) -> int:
    """Items per chunk of working memory: as many as ``WORK_BYTES`` holds at
    ``item_bytes`` each, at most ``cap`` and at least one."""
    return max(1, min(cap, WORK_BYTES // item_bytes))


# Unused by the package; kept because bench/spans.py patches its __post_init__.
@dataclass
class TokenGrid:
    """One frame of visual tokens laid out row-major as (height, width, dim)."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 3:
            raise ValueError(
                f"token grid must be 3-d (height, width, dim), got shape {self.data.shape}"
            )
        if min(self.data.shape) < 1:
            raise ValueError(f"token grid dimensions must be positive, got {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise ValueError("token grid contains non-finite entries")


def _pool_edges(size: int, out: int) -> tuple[np.ndarray, np.ndarray]:
    # Bin p covers input cells [floor(p*size/out), ceil((p+1)*size/out) - 1].
    p = np.arange(out, dtype=np.int64)
    start = (p * size) // out
    end = -((-(p + 1) * size) // out)
    return start, end


class Pooling:
    """What ``pool_batch`` works out before it pools (h, w) grids of width
    ``dim`` to (out_h, out_w), no larger on either side. An axis of size s in
    b bins is g = gcd(s, b) ``periods``, as bin p + b/g starts s/g cells after
    bin p; so one period's row and column bin edges and cell counts hold for
    all. ``reciprocal`` is 1 / c where every bin holds the same power-of-two
    count c, else None: such a reciprocal is exact, so its product is the
    quotient's bits. ``step`` is the frames a chunk holds. A caller pooling
    many batches of one shape hands one to every call. It holds no buffer.
    """

    def __init__(self, h: int, w: int, dim: int, out_h: int, out_w: int):
        if not (0 < out_h <= h and 0 < out_w <= w):
            raise ValueError(f"cannot pool a {h}x{w} grid to {out_h}x{out_w}")
        self.periods = gr, gc = math.gcd(h, out_h), math.gcd(w, out_w)
        self.row_edges, self.col_edges = _pool_edges(h // gr, out_h // gr), _pool_edges(w // gc, out_w // gc)
        (r0, r1), (c0, c1) = self.row_edges, self.col_edges
        self.counts = ((r1 - r0)[:, None] * (c1 - c0)).astype(float)
        c = int(self.counts.flat[0])
        self.reciprocal = 1.0 / c if (self.counts == c).all() and c & (c - 1) == 0 else None
        # a frame's cells in float64: a chunk's block
        self.step = per_chunk(h * w * dim * 8, POOL_CHUNK_FRAMES)


def pool_batch(stack: np.ndarray, out_h: int, out_w: int, index, out=None,
               pooling: Pooling | None = None) -> np.ndarray:
    """Adaptive average pooling of the frames ``stack[index]`` of a
    (frames, h, w, dim) float32 stack; the index array is required. The
    frames are written into ``out``, a C-contiguous (len(index), out_h,
    out_w, dim) float32 array that is returned (another layout raises
    ValueError), or into a fresh one. ``pooling`` is this shape's
    ``Pooling``, worked out here when it is None.

    Frames are pooled independently, a chunk at a time: as many as fit in
    ``WORK_BYTES`` in float64, at most ``POOL_CHUNK_FRAMES`` (8), at least
    one. The chunk's block is laid out phase-major as (h/gr, w/gc, frames,
    gr, gc, dim) for the periods (gr, gc), so each add is one in-place call
    on whole contiguous blocks: a row bin's rows into its first row, then a
    column bin's cells of that row into its first cell. Bin starts strictly
    increase, so no cell is written before its last read. A bad index raises
    IndexError. A float64 sum of float32 values is exact whenever the bin's
    nonzero values lie within a factor of about 2**20 of each other, and
    every mean stays inside the [min, max] of its cells. Pooling a batch is
    bitwise-identical to pooling each frame alone.
    """
    _, h, w, dim = stack.shape
    n = len(index)
    if pooling is None:
        pooling = Pooling(h, w, dim, out_h, out_w)
    (gr, gc), step, counts = pooling.periods, pooling.step, pooling.counts
    (r0, r1), (c0, c1) = pooling.row_edges, pooling.col_edges
    if out is None:
        out = np.empty((n, out_h, out_w, dim), dtype=np.float32)
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    bins = out.reshape(n, gr, out_h // gr, gc, out_w // gc, dim)
    # One float64 buffer serves every chunk; a short chunk takes its head.
    cells = np.empty(min(n, step) * h * w * dim)
    for lo in range(0, n, step):
        frames = index[lo : lo + step]
        k = len(frames)
        block = cells[: k * h * w * dim].reshape(h // gr, w // gc, k, gr, gc, dim)
        for i, f in enumerate(frames):
            block.transpose(2, 3, 0, 4, 1, 5)[i] = stack[f].reshape(gr, h // gr, gc, w // gc, dim)
        for p, s in enumerate(r0):
            for r in range(s + 1, r1[p]):
                np.add(block[s], block[r], out=block[s])
            row = block[s]
            for q, t in enumerate(c0):
                for c in range(t + 1, c1[q]):
                    np.add(row[t], row[c], out=row[t])
                if pooling.reciprocal is None:
                    row[t] /= counts[p, q]
                else:
                    row[t] *= pooling.reciprocal
                bins[lo : lo + k, :, p, :, q] = row[t]
        out[lo : lo + k] += 0.0
    return out


def pool_tokens(stack: np.ndarray, out_h: int, out_w: int, index, rows, out, dst):
    """For each j in ``dst``, write row ``rows[j]`` of the pooled token table
    ``pool_batch(stack, out_h, out_w, index).reshape(-1, dim)``, bit for bit,
    into row j of ``out``, an (m, dim) float32 array.

    Tokens are pooled a chunk at a time: as many as ``WORK_BYTES`` holds, at
    most ``POOL_CHUNK_TOKENS`` (512), at least one. A chunk's bin cells are
    gathered at once into a float64 block laid out as (bin_h, bin_w, tokens,
    dim). Bins of one grid can differ in size by a cell; a token's cells
    beyond its bin are zero, which changes at most the sign of a zero sum.
    """
    _, h, w, dim = stack.shape
    n = len(dst)
    (r0, r1), (c0, c1) = _pool_edges(h, out_h), _pool_edges(w, out_w)
    bin_h, bin_w = int((r1 - r0).max()), int((c1 - c0).max())
    # Cell i of row bin p is input row at_r[i, p] (clipped), and beyond the
    # bin where beyond_r[i, p]; likewise for column bins.
    cell_r, cell_c = np.divmod(np.arange(bin_h * bin_w)[:, None], bin_w)
    at_r, at_c = r0 + cell_r, c0 + cell_c
    beyond_r, beyond_c = at_r >= r1, at_c >= c1
    uneven = beyond_r.any() or beyond_c.any()
    at_r, at_c = np.minimum(at_r, h - 1), np.minimum(at_c, w - 1)
    # a token's cells in float32 and float64, their int64 rows and columns,
    # the frame the gather broadcasts to each and a flag; its int64 frame,
    # bin row and column and input frame, and its float64 count
    step = per_chunk(bin_h * bin_w * (dim * 12 + 25) + 40, POOL_CHUNK_TOKENS)
    # One float64 buffer serves every chunk; a short chunk takes its head.
    cells = np.empty(bin_h * bin_w * min(n, step) * dim)
    for lo in range(0, n, step):
        at = dst[lo : lo + step]
        f, p = np.divmod(rows[at], out_h * out_w)
        p, q = np.divmod(p, out_w)
        vals = stack[index[f], at_r.take(p, axis=1), at_c.take(q, axis=1)]
        block = cells[: vals.size].reshape(bin_h, bin_w, p.shape[0], dim)
        block[...] = vals.reshape(block.shape)
        if uneven:
            outside = beyond_r.take(p, axis=1) | beyond_c.take(q, axis=1)
            np.copyto(block, 0.0, where=outside.reshape(*block.shape[:3], 1))
        for i in range(1, bin_h):
            np.add(block[0], block[i], out=block[0])
        for j in range(1, bin_w):
            np.add(block[0, 0], block[0, j], out=block[0, 0])
        if uneven:  # a spent cell takes the counts: a broadcast divisor gets numpy's buffers
            block[-1, -1] = ((r1 - r0)[p] * (c1 - c0)[q])[:, None]
        block[0, 0] /= block[-1, -1] if uneven else bin_h * bin_w
        vals[0] = block[0, 0]  # the gathered cells are spent: the first one's room takes the means
        vals[0] += 0.0
        out[at] = vals[0]
        del vals  # let go before the next chunk is gathered

"""Adaptive average pooling of token grids, for stage 2 and the over-budget path.

Both kernels sum each bin separably (rows, then columns) in float64 straight off the
float32 input, divide in float64, cast to float32 and only then add 0.0, so repeated
runs produce identical bytes. ``pool_batch`` pools the frames its required index picks,
one phase of bins per ufunc call, dividing by cell counts broadcast over the channels,
into a fresh array or the caller's ``out``. What it works out for a shape before it
pools (bin edges, cell counts and chunk size) is a ``Pooling``; the over-budget path,
which pools one k-window a call, makes one per ``compress`` and hands it to every call.
``pool_tokens`` pools single tokens. Both add a bin's values in the same order, so a
token pooled alone has the bits it has in its pooled frame. Both work a chunk at a time,
and a chunk's working buffers (the gathered float32 cells and their float64 sums) hold
at most ``WORK_BYTES``, or one item where one item needs more, so pooling's working
memory is the same at any token width and any count. ``compress`` checks the pooled
grid. Pooled to its own size, a grid follows the same rule and comes back as it was,
each -0.0 made +0.0.
"""

from __future__ import annotations

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


def _add_in_order(terms, out: np.ndarray):
    """``out`` = terms[0] + terms[1] + ..., added left to right in float64."""
    if len(terms) == 1:
        out[...] = terms[0]
        return
    np.add(terms[0], terms[1], out=out, dtype=np.float64)
    for term in terms[2:]:
        np.add(out, term, out=out)


def _mean_to_float32(sums: np.ndarray, counts: np.ndarray, out: np.ndarray):
    """Divide float64 bin sums by their cell counts in place, rounding into float32 ``out``.

    Adding 0.0 after the cast (where a tiny negative quotient becomes -0.0)
    turns a -0.0 mean into +0.0 and leaves every other value alone, so the
    result is that of sums started from +0.0: those never end at -0.0, and
    otherwise only the sign of a zero can depend on the start.
    """
    sums /= counts
    out[...] = sums
    out += 0.0


def _add_bins(src: np.ndarray, dst: np.ndarray, axis: int, start, end):
    """Sum cells [start[p], end[p]) of ``src`` along ``axis`` into bin p of ``dst``:
    with g = gcd(size, bins), bin p + bins/g starts size/g cells after bin p, so
    both arrays are viewed as g periods and each phase's g bins share every call."""
    g = int(np.gcd(src.shape[axis], dst.shape[axis]))
    src, dst = (a.reshape(a.shape[:axis] + (g, a.shape[axis] // g) + a.shape[axis + 1 :])
                for a in (src, dst))
    at = (slice(None),) * (axis + 1)
    for p in range(dst.shape[axis + 1]):
        _add_in_order([src[at + (r,)] for r in range(start[p], end[p])], dst[at + (p,)])


class Pooling:
    """What ``pool_batch`` works out before it pools (h, w) grids of width
    ``dim`` to (out_h, out_w): the row and column bin edges, the cell counts
    and the frames a chunk holds. A caller that pools many small batches of
    one shape makes one and hands it to every call. It holds no buffer.
    """

    def __init__(self, h: int, w: int, dim: int, out_h: int, out_w: int):
        self.row_edges, self.col_edges = _pool_edges(h, out_h), _pool_edges(w, out_w)
        (r0, r1), (c0, c1) = self.row_edges, self.col_edges
        self.counts = ((r1 - r0)[:, None] * (c1 - c0))[:, :, None].astype(float)
        # a frame's gathered cells and float64 row and bin sums
        self.step = per_chunk((h * w * 4 + out_h * w * 8 + out_h * out_w * 8) * dim, POOL_CHUNK_FRAMES)


def pool_batch(stack: np.ndarray, out_h: int, out_w: int, index, out=None,
               pooling: Pooling | None = None) -> np.ndarray:
    """Adaptive average pooling of the frames ``stack[index]`` of a
    (frames, h, w, dim) float32 stack; the index array is required. The
    frames are written into ``out``, a (len(index), out_h, out_w, dim)
    float32 array that is returned, or into a fresh one when it is None.
    ``pooling`` is this shape's ``Pooling``, worked out here when it is None.

    Each bin is summed separably: first the rows of its row bin, then the
    columns of its column bin, adding one cell at a time in float64 straight
    off the float32 input, and divided by its integer cell count (one
    (out_h, out_w, 1) array, broadcast over ``dim``). A float64 sum of float32
    values is exact whenever the bin's nonzero values lie within a factor of
    about 2**20 of each other, and every mean stays inside the [min, max] of
    the cells it covers. Each axis is viewed as gcd(size, bins) periods, so
    one ufunc call per cell adds a phase of bins (4 add calls for 12 -> 8,
    not 16). The 0.0 settling the sign of a zero mean is added after the cast.
    Frames are pooled independently, a chunk at a time: as many as the
    chunk's gathered frames and float64 row and bin sums fit in
    ``WORK_BYTES``, at most ``POOL_CHUNK_FRAMES`` (8) and at least one. So the
    stack is never copied whole to float64, and pooling a batch is
    bitwise-identical to pooling each frame alone. Each chunk is gathered by
    fancy indexing, so a bad index raises IndexError. A same-size grid takes
    the general path (see the module docstring).
    """
    _, h, w, dim = stack.shape
    n = len(index)
    if pooling is None:
        pooling = Pooling(h, w, dim, out_h, out_w)
    (r0, r1), (c0, c1), step = pooling.row_edges, pooling.col_edges, pooling.step
    if out is None:
        out = np.empty((n, out_h, out_w, dim), dtype=np.float32)
    # One pair of float64 buffers serves every chunk, and each gathered
    # chunk is let go before the column pass.
    m = min(n, step)
    rows_buf, sums_buf = np.empty((m, out_h, w, dim)), np.empty((m, out_h, out_w, dim))
    for lo in range(0, n, step):
        chunk = stack[index[lo : lo + step]]
        rows, sums = rows_buf[: chunk.shape[0]], sums_buf[: chunk.shape[0]]
        _add_bins(chunk, rows, 1, r0, r1)
        del chunk
        _add_bins(rows, sums, 2, c0, c1)
        _mean_to_float32(sums, pooling.counts, out[lo : lo + step])
    return out


def pool_tokens(stack: np.ndarray, out_h: int, out_w: int, frames, rows, cols) -> np.ndarray:
    """Token i is ``pool_batch(stack, out_h, out_w, frames)[i, rows[i], cols[i]]``,
    bit for bit; all n come as an (n, dim) float32 array, without pooling whole frames.

    Each token's bin cells are gathered at once and added as ``pool_batch``
    adds them: down each column of the bin, then across the column sums.
    Bins of one grid can differ in size by a cell; a token's cells beyond
    its bin are set to zero, which changes at most the sign of a zero sum,
    and that sign is settled as in ``pool_batch``. Tokens are pooled a chunk
    at a time, as many as ``WORK_BYTES`` of working buffers hold, at most
    ``POOL_CHUNK_TOKENS`` (512) and at least one. A same-size grid takes the
    general path, as in ``pool_batch``.
    """
    _, h, w, dim = stack.shape
    frames, rows, cols = (np.asarray(a, dtype=np.int64) for a in (frames, rows, cols))
    r0, r1 = _pool_edges(h, out_h)
    c0, c1 = _pool_edges(w, out_w)
    bin_h, bin_w = int((r1 - r0).max()), int((c1 - c0).max())
    uneven = (r1 - r0).min() < bin_h or (c1 - c0).min() < bin_w
    cell_r = np.repeat(np.arange(bin_h), bin_w)[:, None]
    cell_c = np.tile(np.arange(bin_w), bin_h)[:, None]
    n = frames.shape[0]
    out = np.empty((n, dim), dtype=np.float32)
    # a token's float32 cells and their int64 rows, columns and flags; its
    # float64 column sums and bin sum
    step = per_chunk(bin_h * bin_w * (dim * 4 + 17) + (bin_w + 1) * dim * 8, POOL_CHUNK_TOKENS)
    # One pair of float64 buffers serves every chunk, as in pool_batch, and
    # each chunk's cells are let go before the next chunk's are gathered.
    m = min(n, step)
    columns_buf, sums_buf = np.empty((bin_w, m, dim)), np.empty((m, dim))
    for lo in range(0, n, step):
        p, q = rows[lo : lo + step], cols[lo : lo + step]
        r = r0[p] + cell_r  # (cells per bin, tokens)
        c = c0[q] + cell_c
        if uneven:
            outside = (r >= r1[p]) | (c >= c1[q])
            np.minimum(r, h - 1, out=r)
            np.minimum(c, w - 1, out=c)
        vals = stack[frames[lo : lo + step], r, c]
        if uneven:
            vals[outside] = 0.0
        columns, sums = columns_buf[:, : p.shape[0]], sums_buf[: p.shape[0]]
        for j in range(bin_w):
            _add_in_order([vals[i * bin_w + j] for i in range(bin_h)], columns[j])
        del vals
        _add_in_order(columns, sums)
        _mean_to_float32(sums, ((r1[p] - r0[p]) * (c1[q] - c0[q]))[:, None], out[lo : lo + step])
    return out

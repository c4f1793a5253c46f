"""Adaptive average pooling of token grids, for stage 2 and the over-budget path.

Both kernels sum each bin separably (rows, then columns) in float64 over the float32
input's exact float64 values, divide in float64 (or multiply by a power-of-two count's
exact reciprocal, which gives the same bits), cast to float32 and only then add 0.0, so
repeated runs produce identical bytes. ``pool_batch`` pools the frames its required
index picks in one phase-major float64 block a chunk, in place, into a fresh array or
the caller's ``out``; what it works out for a shape first is a ``Pooling``, which the
over-budget path makes once per ``compress`` and hands to every k-window's call.
``pool_tokens`` pools single tokens. Both add a bin's values in the same order, so a
token pooled alone has the bits it has in its pooled frame. A chunk's working buffers
(``pool_batch``'s block; ``pool_tokens``' float32 cells and float64 sums) hold at most
``WORK_BYTES``, or one item where one item needs more, so pooling's working memory is
the same at any token width and any count. ``compress`` checks the pooled grid. Pooled
to its own size, a grid follows the same rule and comes back as it was, -0.0 as +0.0.
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


def _add_in_order(terms, out: np.ndarray):
    """``out`` = terms[0] + terms[1] + ..., added left to right in float64."""
    if len(terms) == 1:
        out[...] = terms[0]
        return
    np.add(terms[0], terms[1], out=out, dtype=np.float64)
    for term in terms[2:]:
        np.add(out, term, out=out)


def _mean_to_float32(sums: np.ndarray, counts, out: np.ndarray):
    """Divide float64 bin sums by their cell counts in place and round them
    into float32 ``out``.

    Adding 0.0 after the cast (where a tiny negative quotient becomes -0.0)
    turns a -0.0 mean into +0.0 and leaves every other value alone, so the
    result is that of sums started from +0.0: those never end at -0.0, and
    otherwise only the sign of a zero can depend on the start.
    """
    sums /= counts
    out[...] = sums
    out += 0.0


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
    one. Each frame is cast by one assignment into the chunk's float64
    block, laid out phase-major as (h/gr, w/gc, frames, gr, gc, dim) for the
    periods (gr, gc); a bad index raises IndexError. Each cell phase is one
    contiguous block, so each add is one in-place call on whole blocks: a
    row bin's rows into its first row, then a column bin's cells of that row
    into its first cell. Bin starts strictly increase, so no cell is written
    before its last read. The sum is divided by its cell count, or
    multiplied by the ``reciprocal``, cast into ``out`` and given its 0.0
    (see ``_mean_to_float32``). A float64 sum of float32 values is exact
    whenever the bin's nonzero values lie within a factor of about 2**20 of
    each other, and every mean stays inside the [min, max] of its cells.
    Pooling a batch is bitwise-identical to pooling each frame alone.
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
    # One pair of float64 buffers serves every chunk, and each chunk's cells
    # are let go before the next chunk's are gathered.
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

"""Dense-array kernels shared by every compression stage.

All kernels accept float32 data and accumulate in float64; results are cast
back to float32 so repeated runs produce identical bytes. Pooling sums each
bin separably (rows, then columns) in float64 straight off the float32
input, a fixed-size chunk of frames at a time; float32 values of similar
magnitude add exactly in float64, so the bin sums do not depend on the order
of addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AdapterShapeError, InvalidPoolingError

__all__ = ["AdapterSpec", "pool_batch"]

# Frames pooled per float64 working block; bounds pooling's working memory.
POOL_CHUNK_FRAMES = 16


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


@dataclass
class AdapterSpec:
    """Affine map applied to every token before cross-modal scoring.

    ``identity`` passes tokens through unchanged and requires the token dim
    to equal the query dim at use time. ``linear`` maps each token x to
    weight @ x + bias, where weight is (query_dim, token_dim).
    """

    kind: str = "identity"
    weight: Optional[np.ndarray] = None
    bias: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("identity", "linear"):
            raise AdapterShapeError(f"unknown adapter kind {self.kind!r}")
        if self.kind == "identity":
            if self.weight is not None or self.bias is not None:
                raise AdapterShapeError("identity adapter takes no weight or bias")
            return
        if self.weight is None:
            raise AdapterShapeError("linear adapter requires a weight matrix")
        self.weight = np.asarray(self.weight, dtype=np.float32)
        if self.weight.ndim != 2:
            raise AdapterShapeError(f"adapter weight must be 2-d, got shape {self.weight.shape}")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float32)
            if self.bias.shape != (self.weight.shape[0],):
                raise AdapterShapeError(
                    f"adapter bias shape {self.bias.shape} does not match weight "
                    f"output dim {self.weight.shape[0]}"
                )

    def output_dim(self, input_dim: int) -> int:
        """Token dimension this adapter produces for a given input dimension."""
        if self.kind == "identity":
            return input_dim
        if self.weight.shape[1] != input_dim:
            raise AdapterShapeError(
                f"adapter expects tokens of dim {self.weight.shape[1]}, got {input_dim}"
            )
        return self.weight.shape[0]

    @classmethod
    def identity(cls) -> "AdapterSpec":
        return cls(kind="identity")

    @classmethod
    def linear(cls, weight, bias=None) -> "AdapterSpec":
        return cls(kind="linear", weight=weight, bias=bias)


def _pool_edges(size: int, out: int) -> tuple[np.ndarray, np.ndarray]:
    # Bin p covers input cells [floor(p*size/out), ceil((p+1)*size/out) - 1].
    p = np.arange(out, dtype=np.int64)
    start = (p * size) // out
    end = -((-(p + 1) * size) // out)
    return start, end


def pool_batch(stack: np.ndarray, out_h: int, out_w: int, index=None) -> np.ndarray:
    """Adaptive average pooling over a (frames, h, w, dim) float32 stack, or
    over the frames ``stack[index]`` when an index array is given.

    Each bin is summed separably: first the rows of its row bin, then the
    columns of its column bin, accumulating in float64 straight off the
    float32 input, and divided by its integer cell count. A float64 sum of
    float32 values is exact whenever the bin's nonzero values lie within a
    factor of about 2**20 of each other, so the sum does not depend on the
    order of addition and every mean stays inside the [min, max] of the
    cells it covers. Frames are pooled independently, in chunks of
    ``POOL_CHUNK_FRAMES``, so the stack is never copied whole to float64,
    and pooling a batch is bitwise-identical to pooling each frame alone.
    With an index, each chunk's frames are gathered from the stack by
    index, so the selected frames are never copied out as one stack.
    """
    _, h, w, dim = stack.shape
    n = stack.shape[0] if index is None else len(index)
    if out_h < 1 or out_w < 1 or out_h > h or out_w > w:
        raise InvalidPoolingError(f"cannot pool a {h}x{w} grid to {out_h}x{out_w}")
    if out_h == h and out_w == w:
        return stack.copy() if index is None else stack[index]

    r0, r1 = _pool_edges(h, out_h)
    c0, c1 = _pool_edges(w, out_w)
    counts = ((r1 - r0)[:, None] * (c1 - c0)[None, :])[:, :, None]
    out = np.empty((n, out_h, out_w, dim), dtype=np.float32)
    for lo in range(0, n, POOL_CHUNK_FRAMES):
        if index is None:
            chunk = stack[lo : lo + POOL_CHUNK_FRAMES]
        else:
            chunk = stack[index[lo : lo + POOL_CHUNK_FRAMES]]
        rows = np.empty((chunk.shape[0], out_h, w, dim), dtype=np.float64)
        for p in range(out_h):
            chunk[:, r0[p] : r1[p]].sum(axis=1, dtype=np.float64, out=rows[:, p])
        sums = np.empty((chunk.shape[0], out_h, out_w, dim), dtype=np.float64)
        for q in range(out_w):
            rows[:, :, c0[q] : c1[q]].sum(axis=2, out=sums[:, :, q])
        out[lo : lo + POOL_CHUNK_FRAMES] = sums / counts
    return out

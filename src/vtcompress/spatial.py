"""Stage 3: prune spatially redundant tokens across temporally adjacent frames.

Frames are partitioned into non-overlapping windows. One anchor frame per
window keeps every token; every other frame keeps a token only where its
cosine similarity to the anchor token at the same grid position stays at or
below the threshold. Token values are never modified, only dropped.

The stage works on stage 2's token table and never copies it: a pruning
result is a ``keep`` mask and an ``anchor`` mask over the table's tokens.
Similarities depend on the frames and the anchor choice but not on the
threshold, so they are computed once into a ``PruningPlan``; applying it at
a threshold is one comparison, and the budget enforcement can count the
survivors at each threshold without applying it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .temporal import cosines, partition_windows, unit_rows, window_minima

__all__ = [
    "AnchorStrategy",
    "PruningPlan",
    "anchor_frames",
    "prune_window",
    "build_plan",
]


class AnchorStrategy(str, enum.Enum):
    """How the untouchable anchor frame of each window is chosen."""

    FIRST = "first"
    MIDDLE = "middle"
    HIGH_CHANGE = "high_change"


@dataclass
class SpatialCompressionResult:
    """Which tokens of a token table survive.

    ``keep`` and ``anchor`` are boolean masks over the table's tokens;
    ``anchor`` marks every token of each window's anchor frame.
    """

    keep: np.ndarray
    anchor: np.ndarray

    @property
    def tokens_after(self) -> int:
        return int(np.count_nonzero(self.keep))


def _check_stack(frames) -> np.ndarray:
    try:
        stack = np.asarray(frames, dtype=np.float32)
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError("frames must form one (frames, h, w, dim) array") from exc
    if stack.ndim != 4:
        raise InvalidConfigError(f"expected (frames, h, w, dim) array, got shape {stack.shape}")
    return stack


def anchor_frames(stack: np.ndarray, k: int, strategy: AnchorStrategy) -> np.ndarray:
    """One flag per frame of a (frames, tokens, dim) stack, set on each
    window's anchor.

    Windows are k consecutive frames, the last possibly shorter. ``first``
    and ``middle`` are positional; ``middle`` is floor(length / 2).
    ``high_change`` picks the frame whose mean-token cosine to its
    predecessor in the window is minimal (ties toward the earliest frame; a
    one-frame window's only frame). A zero mean token has cosine 1 to its
    neighbours (``temporal.cosines``). The cosines are taken once per stack.
    """
    strategy = AnchorStrategy(strategy)
    n = stack.shape[0]
    k = min(k, n)  # a window longer than the stack holds all of it
    starts = np.array([start for start, _ in partition_windows(n, k)])
    if strategy is AnchorStrategy.FIRST:
        anchors = starts
    elif strategy is AnchorStrategy.MIDDLE:
        anchors = starts + np.minimum(n - starts, k) // 2
    else:
        unit, zero = unit_rows(stack.mean(axis=1, dtype=np.float64))
        change = np.empty(n)
        change[1:] = cosines(np.einsum("id,id->i", unit[1:], unit[:-1]), zero[1:], zero[:-1])
        change[starts] = np.inf  # no predecessor in the window
        anchors = window_minima(change, k)
    is_anchor = np.zeros(n, dtype=bool)
    is_anchor[anchors] = True
    return is_anchor


def _anchor_sims(window: np.ndarray, anchor_idx: int) -> np.ndarray:
    """Per-position similarity of every frame to the anchor, (n, h, w) float64.

    Entries that must survive any threshold (the anchor's own tokens and
    positions where either vector has zero norm) are set to -inf.
    """
    w64 = window.astype(np.float64)
    anchor = w64[anchor_idx]
    dots = np.einsum("fhwd,hwd->fhw", w64, anchor)
    norms = np.sqrt(np.add.reduce(np.square(w64, out=w64), axis=3))  # w64 is squared now
    denom = norms * norms[anchor_idx][None, :, :]
    sims = np.full(dots.shape, -np.inf)
    np.divide(dots, denom, out=sims, where=denom > 0.0)
    np.clip(sims, -1.0, 1.0, out=sims)
    sims[denom == 0.0] = -np.inf
    sims[anchor_idx] = -np.inf
    return sims


def _check_theta(theta: float):
    if not (0.0 < theta < 1.0):
        raise InvalidConfigError(f"theta must be in (0, 1), got {theta}")


@dataclass
class PruningPlan:
    """Anchor similarity and anchor flag of every token of a frame stack,
    flat in frame-major, row-major order. Anchor tokens have similarity
    -inf, so every threshold keeps them."""

    sims: np.ndarray  # (tokens,) float64
    anchor: np.ndarray  # (tokens,) bool

    def apply(self, theta: float) -> SpatialCompressionResult:
        _check_theta(theta)
        return SpatialCompressionResult(self.sims <= theta, self.anchor)


def build_plan(frames, k: int, strategy: AnchorStrategy = AnchorStrategy.FIRST) -> PruningPlan:
    """Partition a (frames, h, w, dim) stack into windows of length k, pick
    each window's anchor and compute every token's similarity to it."""
    stack = _check_stack(frames)
    n, h, w, dim = stack.shape
    is_anchor = anchor_frames(stack.reshape(n, h * w, dim), k, strategy)
    sims = np.empty((n, h, w))
    for (start, end), a in zip(partition_windows(n, k), np.flatnonzero(is_anchor)):
        sims[start:end] = _anchor_sims(stack[start:end], a - start)
    return PruningPlan(sims.reshape(-1), np.repeat(is_anchor, h * w))


def prune_window(window_frames, anchor_idx: int, theta: float) -> np.ndarray:
    """Keep mask, shape (frames, h, w), of one window pruned against a given anchor.

    A non-anchor token survives iff its cosine similarity to the anchor token
    at the same (h, w) is <= theta. Zero-norm tokens on either side have
    undefined similarity and are conservatively kept; the anchor frame keeps
    every token.
    """
    _check_theta(theta)
    stack = _check_stack(window_frames)
    n = stack.shape[0]
    if n == 0:
        raise InvalidConfigError("cannot prune an empty window")
    if not (0 <= anchor_idx < n):
        raise InvalidConfigError(f"anchor index {anchor_idx} outside window of {n} frames")
    return _anchor_sims(stack, anchor_idx) <= theta

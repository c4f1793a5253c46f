"""Stage 3: prune spatially redundant tokens across temporally adjacent frames.

Frames are partitioned into non-overlapping windows. One anchor frame per
window keeps every token; every other frame keeps a token only where its
cosine similarity to the anchor token at the same grid position stays at or
below the threshold. Token values are never modified, only dropped.

The stage works on stage 2's token table and never copies it: a pruning
result is a ``keep`` mask and an ``anchor`` mask over the table's tokens.
Similarities depend on the frames and the anchor choice but not on the
threshold, so a ``PruningPlan`` is built once for every threshold the budget
enforcement may try. Each window's float64 similarities live only while the
window is planned: the plan keeps one byte per token, its rung, the count of
those thresholds the similarity is at or below. Applying the plan at a
threshold is one comparison of the rungs, the same decision as comparing the
similarity, so the budget enforcement can count the survivors at each
threshold without applying it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .numerics import per_chunk
from .temporal import cosines, unit_rows, window_minima

__all__ = [
    "AnchorStrategy",
    "PruningPlan",
    "anchor_frames",
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
    starts = np.arange(0, n, k)
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
    positions where either vector has zero norm) are set to -inf. The frames
    are converted to float64 a group at a time: as many as
    ``numerics.WORK_BYTES`` holds, at least one, which at small widths is the
    whole window. The anchor's group goes first, and its float64 anchor and
    the anchor's norms serve every group. Each position's dot product and norm
    are sums over its own vector, so a group gives the bits the whole window
    gives.
    """
    n, h, w, dim = window.shape
    step = per_chunk(h * w * dim * 8, n)
    first = anchor_idx - anchor_idx % step
    sims = np.full((n, h, w), -np.inf)
    for lo in (first, *range(0, first, step), *range(first + step, n, step)):
        g64 = window[lo : lo + step].astype(np.float64)
        if lo == first:
            anchor = g64[anchor_idx - lo]
            if step < n:  # later groups read it after this one is squared
                anchor = anchor.copy()
        dots = np.einsum("fhwd,hwd->fhw", g64, anchor)
        norms = np.sqrt(np.add.reduce(np.square(g64, out=g64), axis=3))  # g64 is squared now
        if lo == first:
            anchor_norms = norms[anchor_idx - lo]
        denom = norms * anchor_norms[None, :, :]
        part = sims[lo : lo + step]
        np.divide(dots, denom, out=part, where=denom > 0.0)
        np.clip(part, -1.0, 1.0, out=part, where=denom > 0.0)
    sims[anchor_idx] = -np.inf
    return sims


@dataclass
class PruningPlan:
    """Rung and anchor flag of every token of a frame stack, flat in
    frame-major, row-major order, for the strictly descending ``thresholds``.

    A token's rung counts the thresholds its float64 similarity to the
    anchor is at or below, so a threshold ``thresholds[s]`` keeps exactly
    the tokens whose rung exceeds s. Anchor tokens and zero-norm positions
    have similarity -inf and the top rung: every threshold keeps them.
    Stage 3 off is the plan of one threshold with every token at rung 1:
    it keeps every token and only marks the anchors.
    """

    rungs: np.ndarray  # (tokens,) uint8
    anchor: np.ndarray  # (tokens,) bool
    thresholds: tuple[float, ...]

    def apply(self, theta: float) -> SpatialCompressionResult:
        """The tokens kept at ``theta``, which is one of ``thresholds``."""
        return SpatialCompressionResult(self.rungs > self.thresholds.index(theta), self.anchor)


def build_plan(frames, k: int, strategy: AnchorStrategy, thresholds) -> PruningPlan:
    """Partition a (frames, h, w, dim) float32 stack, as ``pool_batch``
    returns it, into windows of length k, pick each window's anchor and rank
    every token's similarity to it against the strictly descending
    ``thresholds`` (at most 255 of them)."""
    n, h, w, dim = frames.shape
    thresholds = tuple(thresholds)
    ascending = np.array(thresholds[::-1], dtype=np.float64)
    is_anchor = anchor_frames(frames.reshape(n, h * w, dim), k, strategy)
    rungs = np.empty((n, h, w), dtype=np.uint8)
    for start, a in zip(range(0, n, k), np.flatnonzero(is_anchor)):
        sims = _anchor_sims(frames[start : start + k], a - start)
        # thresholds at or above a similarity: all but those below it
        rungs[start : start + k] = len(thresholds) - np.searchsorted(ascending, sims)
    return PruningPlan(rungs.reshape(-1), np.repeat(is_anchor, h * w), thresholds)

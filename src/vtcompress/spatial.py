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
from .temporal import _unit_rows_in_place, cosines

__all__ = [
    "AnchorStrategy",
    "PruningPlan",
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


def window_anchor(window: np.ndarray, strategy: AnchorStrategy) -> int:
    """Index of the anchor frame of one (n, h, w, dim) float32 window.

    ``first`` is frame 0 and ``middle`` frame n // 2. ``high_change`` is the
    frame, after the first, whose mean token has the least cosine to its
    predecessor's, the earliest on ties; a one-frame window anchors on its
    frame. The mean tokens are taken in float64 with the bits of
    ``ndarray.mean`` and brought to unit norm in place. A zero mean token has
    cosine 1 to its neighbours (``temporal.cosines``).
    """
    n, h, w, dim = window.shape
    if strategy is AnchorStrategy.FIRST or n == 1:
        return 0
    if strategy is AnchorStrategy.MIDDLE:
        return n // 2
    means = np.add.reduce(window, axis=(1, 2), dtype=np.float64)
    means /= h * w
    zero = _unit_rows_in_place(means)
    change = cosines(np.einsum("id,id->i", means[1:], means[:-1]), zero[1:], zero[:-1])
    return 1 + int(change.argmin())


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
    sims = np.empty((n, h, w))
    for lo in (first, *range(0, first, step), *range(first + step, n, step)):
        g64 = window[lo : lo + step].astype(np.float64)
        if lo == first:
            anchor = g64[anchor_idx - lo]
            if step < n:  # later groups read it after this one is squared
                anchor = anchor.copy()
        part = sims[lo : lo + step]
        np.einsum("fhwd,hwd->fhw", g64, anchor, out=part)
        norms = np.sqrt(np.add.reduce(np.square(g64, out=g64), axis=3))  # g64 is squared now
        if lo == first:
            anchor_norms = norms[anchor_idx - lo]
        denom = norms * anchor_norms
        zero = denom == 0.0
        denom[zero] = 1.0  # over a dot product of 0: no 0 / 0
        part /= denom
        np.clip(part, -1.0, 1.0, out=part)
        part[zero] = -np.inf
        del g64  # before the next group's is made
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
    ``thresholds`` (at most 255 of them). Each window is planned on its own."""
    n, h, w, dim = frames.shape
    strategy = AnchorStrategy(strategy)
    thresholds = tuple(thresholds)
    ascending = np.array(thresholds[::-1], dtype=np.float64)
    is_anchor = np.zeros(n, dtype=bool)
    rungs = np.empty((n, h, w), dtype=np.uint8)
    for start in range(0, n, k):
        window = frames[start : start + k]
        a = window_anchor(window, strategy)
        is_anchor[start + a] = True
        # thresholds at or above a similarity: all but those below it
        rungs[start : start + k] = len(thresholds) - np.searchsorted(ascending, _anchor_sims(window, a))
    return PruningPlan(rungs.reshape(-1), np.repeat(is_anchor, h * w), thresholds)

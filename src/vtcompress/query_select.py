"""Stage 2: keep the query-relevant frames at full resolution, pool the rest.

Frames are ranked by the mean dot product between their adapted tokens and
the text-query embedding rows (raw scores, no softmax). The budget formula
decides how many frames can stay at full resolution; everything else is
average-pooled down to the low-resolution grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdapterShapeError, InvalidConfigError
from .numerics import AdapterSpec, TokenGrid, pool_batch

__all__ = [
    "QueryEmbedding",
    "BudgetPlan",
    "MixedResolutionSequence",
    "num_full_res_frames",
    "frame_query_scores",
    "select_and_pool",
]

LEVEL_FULL = "full"
LEVEL_POOLED = "pooled"


@dataclass
class QueryEmbedding:
    """Text query as an (n_tokens, dim) float32 embedding matrix."""

    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float32)
        if self.rows.ndim != 2:
            raise ValueError(f"query embedding must be 2-d, got shape {self.rows.shape}")
        if self.rows.shape[0] < 1 or self.rows.shape[1] < 1:
            raise ValueError(f"query embedding must be non-empty, got shape {self.rows.shape}")
        if not np.isfinite(self.rows).all():
            raise ValueError("query embedding contains non-finite entries")

    @property
    def n_tokens(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass
class BudgetPlan:
    """How the token budget was split between full and pooled frames.

    ``full_res_indices`` are positions within the frame list handed to
    ``select_and_pool`` (not original video indices). ``scores`` is empty
    whenever scoring was skipped: either everything fit at full resolution
    or nothing did.
    """

    l_max: int
    l_q: int
    n_full_res: int
    full_res_indices: list[int]
    scores: list[float]


@dataclass
class MixedResolutionSequence:
    """Frames after selection: each grid is either full or pooled resolution."""

    frames: list[TokenGrid]
    levels: list[str]
    original_indices: np.ndarray
    timesteps: np.ndarray

    def __post_init__(self):
        self.original_indices = np.asarray(self.original_indices, dtype=np.int64)
        self.timesteps = np.asarray(self.timesteps, dtype=np.float64)
        if not (len(self.frames) == len(self.levels) == len(self.original_indices) == len(self.timesteps)):
            raise ValueError("mixed-resolution sequence fields have mismatched lengths")

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def token_count(self) -> int:
        return sum(g.token_count for g in self.frames)


def num_full_res_frames(t: int, l_max: int, l_q: int, hw_high: int, hw_low: int) -> int:
    """Number of frames that can keep full resolution under the budget.

    Evaluates max(0, (l_max - l_q - t*hw_low) / (hw_high - hw_low)), floored
    and clamped to [0, t]. Floor is the only rounding that never exceeds
    the budget.
    """
    if hw_high <= hw_low or hw_low <= 0:
        raise InvalidConfigError(
            f"tokens per full frame ({hw_high}) must exceed tokens per pooled frame ({hw_low})"
        )
    if l_max <= 0:
        raise InvalidConfigError(f"context length must be positive, got {l_max}")
    raw = l_max - l_q - t * hw_low
    return min(t, max(0, raw // (hw_high - hw_low)))


def frame_query_scores(frames, query: QueryEmbedding, adapter: AdapterSpec) -> np.ndarray:
    """Mean dot product between each frame's adapted tokens and the query rows.

    The mean over (token, query row) pairs equals the dot product of the
    token mean with the query-row mean, which is how it is computed here.
    """
    if isinstance(frames, np.ndarray):
        stack = frames.astype(np.float64)
    else:
        stack = np.stack([g.data for g in frames]).astype(np.float64)
    t, h, w, dim = stack.shape
    out_dim = adapter.output_dim(dim)
    if out_dim != query.dim:
        raise AdapterShapeError(
            f"adapter produces dim {out_dim} but query embedding has dim {query.dim}"
        )
    token_means = stack.mean(axis=(1, 2))
    if adapter.kind == "linear":
        token_means = token_means @ adapter.weight.T.astype(np.float64)
        if adapter.bias is not None:
            token_means += adapter.bias.astype(np.float64)
    query_mean = query.rows.astype(np.float64).mean(axis=0)
    return token_means @ query_mean


def select_and_pool(
    frames: np.ndarray,
    timesteps: np.ndarray,
    original_indices: np.ndarray,
    query: QueryEmbedding,
    adapter: AdapterSpec,
    l_max: int,
    tokens_low: tuple[int, int],
    min_full_res_frames: int = 0,
) -> tuple[MixedResolutionSequence, BudgetPlan]:
    """Choose which frames keep full resolution and pool the remainder.

    If everything fits at full resolution the frames pass through untouched
    and no scores are computed. Otherwise the budget formula fixes the
    full-resolution count; ties in score break toward earlier frames.
    ``min_full_res_frames`` can force a floor on that count for
    experimentation; the default of 0 applies the formula as-is.
    """
    frames = np.asarray(frames, dtype=np.float32)
    t, h_h, w_h = frames.shape[0], frames.shape[1], frames.shape[2]
    h_l, w_l = tokens_low
    l_q = query.n_tokens

    def all_full() -> MixedResolutionSequence:
        return MixedResolutionSequence(
            frames=[TokenGrid(frames[i]) for i in range(t)],
            levels=[LEVEL_FULL] * t,
            original_indices=original_indices,
            timesteps=timesteps,
        )

    if t * h_h * w_h + l_q <= l_max:
        plan = BudgetPlan(l_max, l_q, t, list(range(t)), [])
        return all_full(), plan

    n_full = num_full_res_frames(t, l_max, l_q, h_h * w_h, h_l * w_l)
    if min_full_res_frames > 0:
        n_full = min(t, max(n_full, min_full_res_frames))

    if n_full == 0:
        pooled = pool_batch(frames, h_l, w_l)
        mixed = MixedResolutionSequence(
            frames=[TokenGrid(pooled[i]) for i in range(t)],
            levels=[LEVEL_POOLED] * t,
            original_indices=original_indices,
            timesteps=timesteps,
        )
        return mixed, BudgetPlan(l_max, l_q, 0, [], [])

    scores = frame_query_scores(frames, query, adapter)
    order = np.argsort(-scores, kind="stable")  # ties keep the earlier frame first
    chosen = np.zeros(t, dtype=bool)
    chosen[order[:n_full]] = True
    # Only the frames emitted at pooled level are pooled, in frame order.
    pooled = iter(pool_batch(frames[~chosen], h_l, w_l))
    grids, levels = [], []
    for i in range(t):
        if chosen[i]:
            grids.append(TokenGrid(frames[i]))
            levels.append(LEVEL_FULL)
        else:
            grids.append(TokenGrid(next(pooled)))
            levels.append(LEVEL_POOLED)
    mixed = MixedResolutionSequence(grids, levels, original_indices, timesteps)
    full_res = np.flatnonzero(chosen).tolist()
    plan = BudgetPlan(l_max, l_q, n_full, full_res, [float(s) for s in scores])
    return mixed, plan

"""Stage 2: keep the query-relevant frames at full resolution, pool the rest.

Frames are ranked by the mean dot product between their adapted tokens and
the text-query embedding rows (raw scores, no softmax). The budget formula
decides how many frames can stay at full resolution; everything else is
average-pooled down to the low-resolution grid.

Stage 1's survivors are read from the input through their indices, and
their scores from the input's cached per-frame means; they are never copied
out as a stack of their own.

The stage emits the token table that every later step works on: one
frame-major ``CompressedTokenSequence`` holding each frame's tokens in
(timestep, row, col) order, plus per-frame offsets into it. Tokens are never
changed after this point; spatial pruning, the budget and flatten only
choose which rows of the table survive, through boolean masks over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdapterShapeError, InvalidConfigError
from .numerics import AdapterSpec, pool_batch
from .temporal import FrameFeatureSequence
from .tokens import LEVEL_CODE, CompressedTokenSequence

__all__ = [
    "QueryEmbedding",
    "BudgetPlan",
    "MixedResolutionSequence",
    "num_full_res_frames",
    "frame_query_scores",
    "select_and_pool",
]


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

    ``full_res_indices`` (int64) are positions within the kept frames handed
    to ``select_and_pool`` (not original video indices). ``scores`` holds the
    float64 query score of every kept frame, and is empty whenever scoring
    was skipped: either everything fit at full resolution or nothing did.
    """

    l_max: int
    l_q: int
    n_full_res: int
    full_res_indices: np.ndarray
    scores: np.ndarray


@dataclass
class MixedResolutionSequence:
    """Stage 2's token table: every token of every frame, frame-major.

    Frame i holds rows ``offsets[i]:offsets[i + 1]`` of ``tokens``, in
    row-major grid order at its level (full or pooled), so the table is
    already in (timestep, row, col) order. Later steps only choose rows.
    """

    tokens: CompressedTokenSequence
    offsets: np.ndarray  # (n_frames + 1,) int64

    @property
    def n_frames(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def token_count(self) -> int:
        return self.tokens.total_count


def token_table(
    seq: FrameFeatureSequence,
    kept: np.ndarray,
    full: np.ndarray,
    tokens_low: tuple[int, int],
) -> MixedResolutionSequence:
    """Lay out the input frames ``kept`` as a token table: table frame i is
    input frame ``kept[i]``, at full resolution where ``full[i]``, otherwise
    average-pooled to ``tokens_low``.

    Frames are read from ``seq.frames`` by index. Full frames are gathered
    straight into the table; only the pooled frames are pooled, in frame
    order, each chunk gathered inside the pooling.
    """
    frames = seq.frames
    kept = np.asarray(kept, dtype=np.int64)
    t = kept.shape[0]
    _, h_h, w_h, dim = frames.shape
    h_l, w_l = tokens_low
    sizes = np.where(full, h_h * w_h, h_l * w_l)
    offsets = np.zeros(t + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    if full.all():
        vectors = frames[kept].reshape(-1, dim)
    elif not full.any():
        vectors = pool_batch(frames, h_l, w_l, index=kept).reshape(-1, dim)
    else:
        vectors = np.empty((offsets[-1], dim), dtype=np.float32)
        token_full = np.repeat(full, sizes)
        vectors[token_full] = frames[kept[full]].reshape(-1, dim)
        vectors[~token_full] = pool_batch(frames, h_l, w_l, index=kept[~full]).reshape(-1, dim)
    local = np.arange(offsets[-1]) - np.repeat(offsets[:-1], sizes)
    width = np.repeat(np.where(full, w_h, w_l), sizes)
    level = np.where(full, LEVEL_CODE["full"], LEVEL_CODE["pooled"])
    tokens = CompressedTokenSequence(
        frame_indices=np.repeat(kept, sizes),
        timesteps=np.repeat(seq.timesteps[kept].astype(np.float32), sizes),
        grid_rows=local // width,
        grid_cols=local % width,
        levels=np.repeat(level, sizes),
        vectors=vectors,
    )
    return MixedResolutionSequence(tokens, offsets)


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


def frame_query_scores(token_means, query: QueryEmbedding, adapter: AdapterSpec) -> np.ndarray:
    """Mean dot product between each frame's adapted tokens and the query rows.

    ``token_means`` is each frame's float64 mean token, shape (frames, dim),
    as ``FrameFeatureSequence.means`` holds it. The mean over (token, query
    row) pairs equals the dot product of the adapted token mean with the
    query-row mean, which is how it is computed here.
    """
    token_means = np.asarray(token_means, dtype=np.float64)
    out_dim = adapter.output_dim(token_means.shape[1])
    if out_dim != query.dim:
        raise AdapterShapeError(
            f"adapter produces dim {out_dim} but query embedding has dim {query.dim}"
        )
    if adapter.kind == "linear":
        token_means = token_means @ adapter.weight.T.astype(np.float64)
        if adapter.bias is not None:
            token_means += adapter.bias.astype(np.float64)
    query_mean = query.rows.astype(np.float64).mean(axis=0)
    return token_means @ query_mean


def select_and_pool(
    seq: FrameFeatureSequence,
    kept: np.ndarray,
    query: QueryEmbedding,
    adapter: AdapterSpec,
    l_max: int,
    tokens_low: tuple[int, int],
    min_full_res_frames: int = 0,
) -> tuple[MixedResolutionSequence, BudgetPlan]:
    """Choose which of the input frames ``kept`` keep full resolution, pool
    the remainder, and return the token table with the budget split.

    If everything fits at full resolution the frames pass through untouched
    and no scores are computed. Otherwise the budget formula fixes the
    full-resolution count; ties in score break toward earlier frames.
    ``min_full_res_frames`` can force a floor on that count for
    experimentation; the default of 0 applies the formula as-is.
    """
    kept = np.asarray(kept, dtype=np.int64)
    t, h_h, w_h = kept.shape[0], seq.grid_h, seq.grid_w
    h_l, w_l = tokens_low
    l_q = query.n_tokens

    scores = np.empty(0)
    if t * h_h * w_h + l_q <= l_max:
        full = np.ones(t, dtype=bool)
    else:
        n_full = num_full_res_frames(t, l_max, l_q, h_h * w_h, h_l * w_l)
        if min_full_res_frames > 0:
            n_full = min(t, max(n_full, min_full_res_frames))
        full = np.zeros(t, dtype=bool)
        if n_full > 0:
            scores = frame_query_scores(seq.means[kept], query, adapter)
            order = np.argsort(-scores, kind="stable")  # ties keep the earlier frame first
            full[order[:n_full]] = True
    full_res = np.flatnonzero(full)
    plan = BudgetPlan(l_max, l_q, full_res.shape[0], full_res, scores)
    return token_table(seq, kept, full, tokens_low), plan

"""Stage 2: keep the query-relevant frames at full resolution, pool the rest.

Frames are ranked by the mean dot product between their tokens and the
text-query embedding rows (raw scores, no softmax); the rows must have the
tokens' width. To score tokens seen through a projector ``W``, pass the rows
``rows @ W``: a score is the mean token dotted with the mean row, and
``(W @ m) . q = m . (W.T @ q)``. A bias would add the same amount to every
frame's score, so it never changes the choice. The budget formula decides
how many frames can stay at full resolution; everything else is
average-pooled down to the low-resolution grid.

Stage 1's survivors are read from the input through their indices, and
their scores from the input's cached per-frame means; they are never copied
out as a stack of their own.

The token table is one frame-major ``CompressedTokenSequence`` holding each
frame's tokens in (timestep, row, col) order, in fresh arrays. It is built
only where it is the pipeline's output, as it stands: everything fits at
full resolution, the table holds a full frame, or it fits once pooled. When
every frame is pooled and the table would still be over budget, the
pipeline pools block by block instead (see ``pipeline``), so that memory is
bounded by the budget and not by the kept frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .numerics import pool_batch
from .temporal import FrameFeatureSequence
from .tokens import LEVEL_CODE, CompressedTokenSequence

__all__ = ["QueryEmbedding", "frame_query_scores"]


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

    def check_width(self, token_dim: int):
        """Raise unless the query rows have the width of the tokens they score."""
        if self.dim != token_dim:
            raise InvalidConfigError(
                f"query embedding has dim {self.dim} but the tokens have dim {token_dim}"
            )


@dataclass
class BudgetPlan:
    """How many of the kept frames stayed at full resolution."""

    n_full_res: int


@dataclass
class MixedResolutionSequence:
    """Stage 2's token table: every token of ``n_frames`` frames, each in
    row-major grid order at its level (full or pooled), frame after frame,
    so the table is already in (timestep, row, col) order."""

    tokens: CompressedTokenSequence
    n_frames: int


def token_table(
    seq: FrameFeatureSequence,
    kept: np.ndarray,
    full: np.ndarray,
    tokens_low: tuple[int, int],
) -> MixedResolutionSequence:
    """Lay out the input frames ``kept`` as a token table: table frame i is
    input frame ``kept[i]``, with timestep ``kept[i]``, at full resolution
    where ``full[i]``, otherwise average-pooled to ``tokens_low``.

    Frames are read from ``seq.frames`` by index. Full frames are gathered
    straight into the table; only the pooled frames are pooled, in frame
    order, each chunk gathered inside the pooling. Every array of the table
    is new, so it may be changed in place without reaching the input.
    """
    frames = seq.frames
    kept = np.asarray(kept, dtype=np.int64)
    _, h_h, w_h, dim = frames.shape
    h_l, w_l = tokens_low
    sizes = np.where(full, h_h * w_h, h_l * w_l)
    offsets = np.cumsum(sizes) - sizes  # each frame's first row
    n_rows = int(sizes.sum())
    if full.all():
        vectors = frames[kept].reshape(-1, dim)
    elif not full.any():
        vectors = pool_batch(frames, h_l, w_l, index=kept).reshape(-1, dim)
    else:
        vectors = np.empty((n_rows, dim), dtype=np.float32)
        token_full = np.repeat(full, sizes)
        vectors[token_full] = frames[kept[full]].reshape(-1, dim)
        vectors[~token_full] = pool_batch(frames, h_l, w_l, index=kept[~full]).reshape(-1, dim)
    local = np.arange(n_rows) - np.repeat(offsets, sizes)
    width = np.repeat(np.where(full, w_h, w_l), sizes)
    level = np.where(full, LEVEL_CODE["full"], LEVEL_CODE["pooled"])
    tokens = CompressedTokenSequence(
        frame_indices=np.repeat(kept, sizes),
        grid_rows=local // width,
        grid_cols=local % width,
        levels=np.repeat(level, sizes),
        vectors=vectors,
    )
    return MixedResolutionSequence(tokens, kept.shape[0])


def num_full_res_frames(t: int, l_max: int, l_q: int, hw_high: int, hw_low: int) -> int:
    """Number of frames that can keep full resolution under the budget.

    Evaluates max(0, (l_max - l_q - t*hw_low) / (hw_high - hw_low)), floored
    and clamped to [0, t]. Floor is the only rounding that never exceeds
    the budget. Takes hw_high > hw_low >= 1 and l_max >= 1, as ``compress``
    ensures before it calls here.
    """
    raw = l_max - l_q - t * hw_low
    return min(t, max(0, raw // (hw_high - hw_low)))


def frame_query_scores(token_means, query: QueryEmbedding) -> np.ndarray:
    """Mean dot product between each frame's tokens and the query rows.

    ``token_means`` is each frame's float64 mean token, shape (frames, dim),
    as ``FrameFeatureSequence.means`` holds it. The mean over (token, query
    row) pairs equals the dot product of the token mean with the query-row
    mean, which is how it is computed here. For tokens seen through a
    projector ``W``, pass the rows ``rows @ W`` (see the module docstring).
    """
    token_means = np.asarray(token_means, dtype=np.float64)
    query.check_width(token_means.shape[1])
    return token_means @ query.rows.astype(np.float64).mean(axis=0)


def select_and_pool(
    seq: FrameFeatureSequence,
    kept: np.ndarray,
    query: QueryEmbedding,
    l_max: int,
    tokens_low: tuple[int, int],
) -> tuple[MixedResolutionSequence, BudgetPlan]:
    """Choose which of the input frames ``kept`` keep full resolution, pool
    the remainder, and return the token table with the budget split.

    A full frame keeps the input's own grid. ``num_full_res_frames`` fixes
    the full-resolution count; it is every frame exactly when everything
    fits at full resolution. Frames are scored only when some but not all
    of them stay full, and the highest-scoring frames stay (ties toward
    earlier frames). A table holding any full frame therefore fits
    ``l_max`` with the query; only an all-pooled table can exceed it.
    """
    kept = np.asarray(kept, dtype=np.int64)
    t = kept.shape[0]
    h_l, w_l = tokens_low
    n_full = num_full_res_frames(t, l_max, query.n_tokens, seq.grid_h * seq.grid_w, h_l * w_l)
    full = np.full(t, n_full == t)
    if 0 < n_full < t:
        scores = frame_query_scores(seq.means[kept], query)
        full[np.argsort(-scores, kind="stable")[:n_full]] = True  # ties keep the earlier frame
    return token_table(seq, kept, full, tokens_low), BudgetPlan(n_full)

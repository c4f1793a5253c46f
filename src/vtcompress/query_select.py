"""Stage 2: keep the query-relevant frames at full resolution, pool the rest.

Frames are ranked by the mean dot product between their tokens and the
text-query embedding rows (raw scores, no softmax); the rows must have the
tokens' width. To score tokens seen through a projector ``W``, pass the rows
``rows @ W``: a score is the mean token dotted with the mean row, and
``(W @ m) . q = m . (W.T @ q)``. A bias would add the same amount to every
frame's score, so it never changes the choice. ``select_and_pool`` takes how
many frames stay at full resolution, a count ``compress`` decides from the
budget; everything else is average-pooled down to the low-resolution grid.

Stage 1's survivors are read from the input through their indices, and
their scores from the input's cached per-frame means; they are never copied
out as a stack of their own.

``select_and_pool`` writes every output row of ``compress``, on every
path, as one frame-major ``CompressedTokenSequence`` in (timestep, row, col)
order, in fresh arrays. Where the token table fits the budget it emits the
whole table, every frame at its level pooled or gathered straight into the
output array: full, pooled and mixed tables take one path. When every frame
is pooled and the table would still be over budget, the pipeline pools and
plans one k-window at a time, with pooling set up once (see ``pipeline``),
and hands over the kept rows and a budget-sized store of pooled tokens; only
those rows are emitted, into the store. Rows move in chunks sized by
``numerics.per_chunk``, and ``pool_tokens`` pools the rest again in its own
chunks straight into their rows, so on either path no other array of the
token width grows with the budget or the kept frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from . import numerics
from .numerics import per_chunk, pool_batch, pool_tokens
from .temporal import FrameFeatureSequence
from .tokens import LEVEL_CODE, CompressedTokenSequence

__all__ = ["QueryEmbedding", "frame_query_scores"]


@dataclass
class QueryEmbedding:
    """Text query as an (n_tokens, dim) float32 embedding matrix."""

    rows: np.ndarray

    def __post_init__(self):
        with np.errstate(over="ignore"):  # an overflow is inf, rejected below
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
    """The output of ``n_frames`` kept frames: rows of stage 2's token table,
    each frame's tokens in row-major grid order at its level (full or
    pooled), frame after frame, so in (timestep, row, col) order."""

    tokens: CompressedTokenSequence
    n_frames: int


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


def _move_down(vectors: np.ndarray, dst: np.ndarray, src: np.ndarray):
    """``vectors[dst] = vectors[src]`` for strictly ascending rows ``dst``
    with ``src >= dst`` row by row, in ascending chunks of
    ``numerics.POOL_CHUNK_TOKENS`` rows, fewer where the rows are wide
    (``numerics.per_chunk``). A chunk reads rows after every row an earlier
    chunk wrote, so none overwrites a row a later chunk reads, and the
    working copy is one chunk."""
    step = per_chunk(vectors.shape[1] * 4 + 16, numerics.POOL_CHUNK_TOKENS)
    for lo in range(0, dst.shape[0], step):
        vectors[dst[lo : lo + step]] = vectors[src[lo : lo + step]]


def select_and_pool(
    seq: FrameFeatureSequence, kept: np.ndarray, query: QueryEmbedding, n_full: int,
    tokens_low: tuple[int, int], rows: np.ndarray | None = None, store: tuple | None = None,
) -> tuple[MixedResolutionSequence, BudgetPlan]:
    """Keep ``n_full`` of the input frames ``kept`` at full resolution, pool
    the rest, and return the output tokens with the budget split.

    ``compress`` decides ``n_full``. Frames are scored only when some but not
    all of them stay full, and the highest-scoring frames stay (ties toward
    earlier frames). Table frame i is input frame ``kept[i]``, its tokens in
    row-major order at its level. With ``rows`` None the output is the whole
    table, written straight into the output array: the pooled frames by one
    ``pool_batch`` call into its tail, each at or after its own rows, where
    ``_move_down`` moves those a full frame follows; then each run of full
    frames is gathered into its rows. Otherwise every frame is pooled and the
    output is the ascending table ``rows``, written into the over-budget
    ``store`` (stored rows, vectors). The store holds every anchor and the
    first survivors, so a token is stored at or after its output row, and
    ``_move_down`` moves it there; the others are pooled again by one
    ``pool_tokens`` call, with ``pool_batch``'s bits, a chunk at a time
    straight into their rows. No output array shares memory with the input.
    """
    frames = seq.frames
    kept = np.asarray(kept, dtype=np.int64)
    t = kept.shape[0]
    _, h_h, w_h, dim = frames.shape
    h_l, w_l = tokens_low
    hw_l = h_l * w_l
    full = np.full(t, n_full == t)
    if 0 < n_full < t:
        scores = frame_query_scores(seq.means[kept], query)
        full[np.argsort(-scores, kind="stable")[:n_full]] = True  # ties keep the earlier frame
    if rows is None:
        sizes = np.where(full, h_h * w_h, hw_l)
        offsets = np.cumsum(sizes) - sizes  # each frame's first row
        n_rows = int(sizes.sum())
        vectors = np.empty((n_rows, dim), dtype=np.float32)
        n_pooled = t - n_full
        if n_pooled:
            tail = n_rows - n_pooled * hw_l
            pool_batch(frames, h_l, w_l, kept[~full], out=vectors[tail:].reshape(-1, h_l, w_l, dim))
        if n_full:
            # Runs of frames at one level, from cuts[i] to cuts[i + 1].
            cuts = [0, t]
            if n_pooled:
                cuts[1:1] = (np.flatnonzero(full[1:] != full[:-1]) + 1).tolist()
                # Pooled frames before the last run move down; those in it are in place.
                before = offsets[: cuts[-2]][~full[: cuts[-2]]]
                _move_down(vectors, (before[:, None] + np.arange(hw_l)).reshape(-1),
                           np.arange(tail, tail + before.shape[0] * hw_l))
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                if full[lo]:
                    at = int(offsets[lo])
                    run = vectors[at : at + (hi - lo) * h_h * w_h].reshape(-1, h_h, w_h, dim)
                    # mode="clip" writes straight into ``out``; "raise" buffers
                    # it. The frames are in range: stage 1 picked them.
                    np.take(frames, kept[lo:hi], axis=0, out=run, mode="clip")
        frame_indices = np.repeat(kept, sizes)
        local = np.arange(n_rows) - np.repeat(offsets, sizes)
        width = np.repeat(np.where(full, w_h, w_l), sizes)
        levels = np.repeat(np.where(full, LEVEL_CODE["full"], LEVEL_CODE["pooled"]), sizes)
    else:
        stored_rows, vectors = store
        n = rows.shape[0]
        frame, local = np.divmod(rows, hw_l)
        at = np.minimum(np.searchsorted(stored_rows, rows), stored_rows.shape[0] - 1)
        found = stored_rows[at] == rows
        moved = np.flatnonzero(found & (at != np.arange(n)))
        again = np.flatnonzero(~found)
        _move_down(vectors, moved, at[moved])  # at[i] >= i: see above
        pool_tokens(frames, h_l, w_l, kept, rows, vectors, again)
        vectors = vectors[:n]
        frame_indices = kept[frame]
        width = w_l
        levels = np.full(n, LEVEL_CODE["pooled"], dtype=np.uint8)
    tokens = CompressedTokenSequence(
        frame_indices=frame_indices,
        grid_rows=local // width,
        grid_cols=local % width,
        levels=levels,
        vectors=vectors,
    )
    # The pair and ``BudgetPlan`` stay only for bench/spans.py, which reads both.
    return MixedResolutionSequence(tokens, t), BudgetPlan(n_full)

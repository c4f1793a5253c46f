"""Stage 1: drop redundant frames by windowed average feature similarity.

Frames are grouped into non-overlapping windows; within each window a frame
whose average cosine similarity to the other frames exceeds the threshold is
dropped. The least-similar frame of every window is always kept, so the
survivor set can never be empty.

The input is read once: ``FrameFeatureSequence`` takes every frame's float64
mean token in the pass that checks the tokens are finite, and stage 1 works
from those means. Survivors are handed on as indices into the input.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EmptyVideoError, InvalidConfigError, ZeroVectorError

__all__ = [
    "FrameFeatureSequence",
    "reduce_frames",
]


@dataclass
class FrameFeatureSequence:
    """A video as a read-only (frames, height, width, dim) float32 token array.

    ``timesteps`` holds the absolute second of each frame and must be strictly
    increasing. Construction is the one pass over the tokens: it stores each
    frame's float64 mean token in ``means`` and rejects the input when a mean
    is not finite. A float64 sum of finite float32 values cannot overflow, so
    a frame's mean is finite exactly when all of its tokens are. The unit-norm
    summaries are derived from ``means`` on first use and cached. ``frames``
    is a read-only view, so the cached means always describe it. It may view
    a read-only mapping of a feature file (``formats.read_features``) rather
    than memory of its own.
    """

    frames: np.ndarray
    timesteps: np.ndarray
    means: np.ndarray = field(init=False, repr=False, compare=False)
    _summaries: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float32).view()
        self.frames.flags.writeable = False
        self._check_layout()
        with np.errstate(invalid="ignore"):  # +inf and -inf in one frame sum to NaN
            self.means = self.frames.mean(axis=(1, 2), dtype=np.float64)
        if not np.isfinite(self.means).all():
            raise ValueError("frames contain non-finite values")

    def _check_layout(self):
        if self.frames.ndim != 4:
            raise ValueError(
                f"frames must be 4-d (frames, height, width, dim), got shape {self.frames.shape}"
            )
        if self.frames.shape[0] == 0:
            raise EmptyVideoError("frame sequence is empty")
        self.timesteps = np.asarray(self.timesteps, dtype=np.float64)
        if self.timesteps.shape != (self.frames.shape[0],):
            raise ValueError(
                f"expected {self.frames.shape[0]} timesteps, got {self.timesteps.shape}"
            )
        if self.n_frames > 1 and not (np.diff(self.timesteps) > 0).all():
            raise ValueError("timesteps must be strictly increasing")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def grid_h(self) -> int:
        return self.frames.shape[1]

    @property
    def grid_w(self) -> int:
        return self.frames.shape[2]

    @property
    def dim(self) -> int:
        return self.frames.shape[3]

    def summaries(self) -> np.ndarray:
        """Unit-norm mean token per frame, shape (n_frames, dim)."""
        if self._summaries is None:
            norms = np.linalg.norm(self.means, axis=1)
            if (norms == 0.0).any():
                bad = int(np.flatnonzero(norms == 0.0)[0])
                raise ZeroVectorError(f"frame {bad} has an all-zero mean token")
            self._summaries = (self.means / norms[:, None]).astype(np.float32)
        return self._summaries

    # Unused by the package; kept because bench/spans.py patches it.
    def subset(self, indices) -> "FrameFeatureSequence":
        """A copy holding only the given frames. Their means and summaries
        are taken from this sequence, not recomputed."""
        idx = np.asarray(indices, dtype=np.int64)
        sub = copy.copy(self)
        sub.frames, sub.timesteps, sub.means = self.frames[idx], self.timesteps[idx], self.means[idx]
        sub.frames.flags.writeable = False
        sub._check_layout()
        if self._summaries is not None:
            sub._summaries = self._summaries[idx]
        return sub


@dataclass
class TemporalReduction:
    """Outcome of the frame-reduction pass over one sequence: the surviving
    frames' indices into it, ascending, as int64."""

    kept_indices: np.ndarray

    @property
    def n_kept(self) -> int:
        return self.kept_indices.shape[0]


def partition_windows(n_frames: int, j: int) -> list[tuple[int, int]]:
    """Split [0, n_frames) into consecutive windows of length j (last may be short)."""
    if n_frames < 1:
        raise EmptyVideoError("cannot partition zero frames")
    if j < 1:
        raise InvalidConfigError(f"window length must be >= 1, got {j}")
    return [(s, min(s + j, n_frames)) for s in range(0, n_frames, j)]


def _window_sims(s: np.ndarray) -> np.ndarray:
    """Average cosine similarity of each frame to the others in its window,
    for a (windows, w, dim) float64 stack of equal windows; shape (windows, w).

    A single-frame window scores 0.0: the frame is trivially non-redundant.
    """
    w = s.shape[1]
    if w == 1:
        return np.zeros(s.shape[:2])
    norms = np.linalg.norm(s, axis=2)
    if (norms == 0.0).any():
        raise ZeroVectorError("window contains a zero-norm summary vector")
    unit = s / norms[:, :, None]
    sims = np.clip(unit @ unit.transpose(0, 2, 1), -1.0, 1.0)
    return (sims.sum(axis=2) - sims.diagonal(axis1=1, axis2=2)) / (w - 1)


def window_average_similarity(summaries) -> np.ndarray:
    """Average cosine similarity of each frame to the others in one window
    of (frames, dim) summaries. A single-frame window returns [0.0]."""
    return _window_sims(np.asarray(summaries, dtype=np.float64)[None])[0]


def reduce_frames(seq: FrameFeatureSequence, j: int, tau_t: float) -> TemporalReduction:
    """Drop frames whose windowed average similarity exceeds tau_t.

    The frame with the minimum average similarity in each window is always
    kept (earliest index on ties), so every window contributes at least one
    survivor and temporal order is preserved. The full windows are scored
    together in one batched product, and the short last window through the
    same routine on its own.
    """
    if not (0.0 < tau_t <= 1.0):
        raise InvalidConfigError(f"tau_t must be in (0, 1], got {tau_t}")
    if j < 1:
        raise InvalidConfigError(f"window length must be >= 1, got {j}")
    summaries = seq.summaries().astype(np.float64)
    n_full = seq.n_frames // j
    body = n_full * j  # frames in full windows
    per_frame = np.empty(seq.n_frames, dtype=np.float64)
    per_frame[:body] = _window_sims(summaries[:body].reshape(n_full, j, seq.dim)).ravel()
    if body < seq.n_frames:
        per_frame[body:] = _window_sims(summaries[body:][None])[0]
    keep = per_frame <= tau_t
    # argmin ties break toward the earliest index, as in each window alone
    if n_full:
        keep[np.arange(n_full) * j + per_frame[:body].reshape(n_full, j).argmin(axis=1)] = True
    if body < seq.n_frames:
        keep[body + int(np.argmin(per_frame[body:]))] = True
    return TemporalReduction(np.flatnonzero(keep))

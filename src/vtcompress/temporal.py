"""Stage 1: drop redundant frames by windowed average feature similarity.

Frames are grouped into non-overlapping windows; within each window a frame
whose average cosine similarity to the other frames exceeds the threshold is
dropped. The least-similar frame of every window is always kept, so the
survivor set can never be empty.

The input is read once: ``FrameFeatureSequence`` takes every frame's float64
mean token in the pass that checks the tokens are finite, and stage 1 works
from those means. That pass is split by contiguous frame ranges over the
usable CPUs, one thread each, when every thread gets at least
``MEANS_VALUES_PER_WORKER`` values; a smaller input is reduced on the calling
thread. A frame's mean does not depend on the split, so the bytes do not
either. Nothing else is kept beside the means: stage 1 derives the unit-norm
mean tokens it scores from them, whole windows at a time in blocks of at most
``numerics.WORK_BYTES``, so its working memory does not grow with the video.
Survivors are handed on as indices into the input.
"""

from __future__ import annotations

import copy
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .numerics import per_chunk

__all__ = ["FrameFeatureSequence"]

# The fewest float32 values a thread of the means pass is given. Below about
# this many, starting the thread costs more than its share of the pass saves.
MEANS_VALUES_PER_WORKER = 1 << 20


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _means_workers(n_values: int) -> int:
    """Threads for a means pass over n_values values: one per usable CPU,
    but none with fewer than MEANS_VALUES_PER_WORKER values."""
    return max(1, min(usable_cpus(), n_values // MEANS_VALUES_PER_WORKER))


def _sum_frames_into(out: np.ndarray, frames: np.ndarray):
    """Write each frame's float64 token sum into its row of ``out``."""
    # np.errstate does not reach worker threads, so each sets its own:
    # +inf and -inf in one frame sum to NaN, which the caller rejects.
    with np.errstate(invalid="ignore"):
        np.add.reduce(frames, axis=(1, 2), dtype=np.float64, out=out)


def _frame_means(frames: np.ndarray) -> np.ndarray:
    """Each frame's float64 mean token, shape (frames, dim), with the bits of
    ``frames.mean(axis=(1, 2), dtype=np.float64)``: the same per-frame sums,
    divided in place by the token count as ``ndarray.mean`` does."""
    n = frames.shape[0]
    sums = np.empty((n, frames.shape[3]), dtype=np.float64)
    workers = min(_means_workers(frames.size), n)
    if workers == 1:
        _sum_frames_into(sums, frames)
    else:
        bounds = [n * i // workers for i in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            jobs = [pool.submit(_sum_frames_into, sums[a:b], frames[a:b])
                    for a, b in zip(bounds, bounds[1:])]
            for done in jobs:
                done.result()
    sums /= frames.shape[1] * frames.shape[2]
    return sums


def cosines(dots: np.ndarray, zero_a: np.ndarray, zero_b: np.ndarray) -> np.ndarray:
    """Cosines from dot products of ``_unit_rows_in_place`` rows, clipped to [-1, 1], under
    the one rule for a frame with a zero mean token: it repeats every frame it is compared
    with, so a pair where ``zero_a`` or ``zero_b`` (broadcast) marks a zero row has cosine 1."""
    return np.where(zero_a | zero_b, 1.0, np.clip(dots, -1.0, 1.0))


def window_minima(scores: np.ndarray, j: int) -> np.ndarray:
    """Index of each j-window's least score, earliest on ties; j <= n, the last may be short."""
    n = scores.shape[0]
    padded = np.full(-(-n // j) * j, np.inf)
    padded[:n] = scores
    return np.arange(0, n, j) + padded.reshape(-1, j).argmin(axis=1)


@dataclass
class FrameFeatureSequence:
    """A video as a read-only (frames, height, width, dim) float32 token array.

    The video is sampled at one frame per second, so a frame's timestep is
    its index. Construction is the one pass over the tokens, split by frame
    over the usable CPUs when the input is large enough (see the module
    docstring): it stores each frame's float64 mean token in ``means`` and
    rejects the input when a mean is not finite. A float64 sum of finite
    float32 values cannot overflow, so a frame's mean is finite exactly when
    all of its tokens are. A zero mean is valid: the frame repeats every
    other (``cosines``). ``frames`` is a read-only view, so the stored means
    always describe it. It may view a read-only mapping of a feature file
    (``formats.read_features``) rather than memory of its own.
    """

    frames: np.ndarray
    means: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        with np.errstate(over="ignore"):  # an overflow is inf, rejected below
            self.frames = np.asarray(self.frames, dtype=np.float32).view()
        self.frames.flags.writeable = False
        self._check_layout()
        self.means = _frame_means(self.frames)
        if not np.isfinite(self.means).all():
            raise ValueError("frames contain non-finite values")

    def _check_layout(self):
        if self.frames.ndim != 4:
            raise ValueError(
                f"frames must be 4-d (frames, height, width, dim), got shape {self.frames.shape}"
            )
        if self.frames.shape[0] == 0:
            raise ValueError("frame sequence is empty")
        if 0 in self.frames.shape:
            raise ValueError(f"frame grid and width must be nonzero, got shape {self.frames.shape}")

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

    # Unused by the package; kept because bench/spans.py patches it.
    def subset(self, indices) -> "FrameFeatureSequence":
        """A copy holding only the given frames. Their means are taken from
        this sequence, not recomputed."""
        idx = np.asarray(indices, dtype=np.int64)
        sub = copy.copy(self)
        sub.frames, sub.means = self.frames[idx], self.means[idx]
        sub.frames.flags.writeable = False
        sub._check_layout()
        return sub


@dataclass
class TemporalReduction:
    """Outcome of the frame-reduction pass over one sequence: the surviving
    frames' indices into it, ascending, as int64."""

    kept_indices: np.ndarray

    @property
    def n_kept(self) -> int:
        return self.kept_indices.shape[0]


def _unit_rows_in_place(x: np.ndarray) -> np.ndarray:
    """Each row of a contiguous float64 array at unit norm, in place, a zero row staying
    zero; returns the zero-row flags. The norms are taken as ``np.linalg.norm`` takes
    them, the square root of the sum of the squares, a few rows at a time: a sixteenth of
    ``numerics.WORK_BYTES`` of squares a piece. Each row is reduced and divided on its
    own, so the bits are those of ``x / np.linalg.norm(x, axis=-1)[..., None]``."""
    rows = x.reshape(-1, x.shape[-1])
    n, dim = rows.shape
    step = per_chunk(16 * 8 * dim, n)
    squares, norms = np.empty((step, dim)), np.empty(n)
    for lo in range(0, n, step):
        piece = rows[lo : lo + step]
        np.add.reduce(np.square(piece, out=squares[: piece.shape[0]]), axis=1, out=norms[lo : lo + step])
    np.sqrt(norms, out=norms)
    zero = norms == 0.0
    norms[zero] = 1.0
    rows /= norms[:, None]
    return zero.reshape(x.shape[:-1])


def _window_sims(s: np.ndarray) -> np.ndarray:
    """Average cosine similarity of each frame to the others in its window,
    for a (windows, w, dim) float64 stack of equal windows; shape (windows, w).
    The stack is brought to unit norm in place.

    A single-frame window scores 0.0: the frame is trivially non-redundant.
    A zero row repeats every frame (``cosines``), so it scores 1.0.
    """
    zero = _unit_rows_in_place(s)
    sims = cosines(s @ s.transpose(0, 2, 1), zero[:, :, None], zero[:, None])
    return (sims.sum(axis=2) - sims.diagonal(axis1=1, axis2=2)) / max(s.shape[1] - 1, 1)


def reduce_frames(seq: FrameFeatureSequence, j: int, tau_t: float) -> TemporalReduction:
    """Drop frames whose windowed average similarity exceeds tau_t.

    The frame with the minimum average similarity in each window is always
    kept (earliest index on ties), so every window contributes at least one
    survivor and temporal order is preserved. A frame is scored by its
    unit-norm mean token rounded to float32; a zero mean stays zero
    (``cosines``). The full windows are scored in blocks of whole windows,
    as many as ``numerics.per_chunk`` gives, each block in one batched
    product, and the short last window through the same routine on its own.
    A window counts what scoring holds of it at once: its float64 summaries,
    which are made and scored in place, and its j-by-j float64 products,
    their clipped copy, the cosines and the zero flags. ``compress`` has
    checked j >= 1 and tau_t in (0, 1].
    """
    n, dim = seq.n_frames, seq.dim
    j = min(j, n)  # a window longer than the video holds all of it
    per_frame = np.empty(n)
    step = j * per_chunk(j * (8 * dim + 25 * j), n)
    for lo in range(0, n, step):
        summaries = seq.means[lo : lo + step].copy()
        _unit_rows_in_place(summaries)
        # rounded to float32 in place, through numpy's fixed-size cast buffers
        np.positive(summaries, out=summaries, dtype=np.float32)
        hi = lo + summaries.shape[0]
        body = summaries.shape[0] // j * j  # frames in full windows
        per_frame[lo : lo + body] = _window_sims(summaries[:body].reshape(-1, j, dim)).ravel()
        if lo + body < hi:
            per_frame[lo + body : hi] = _window_sims(summaries[body:][None])[0]
        del summaries  # before the next block's are made
    keep = per_frame <= tau_t
    keep[window_minima(per_frame, j)] = True
    return TemporalReduction(np.flatnonzero(keep))

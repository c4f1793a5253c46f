"""Frame-level sinusoidal position encoding keyed to absolute timestep.

A frame's timestep t is its index in the input, sampled at one frame per
second. Every token of the frame receives the same offset vector, marking
frame boundaries after compression has discarded the uniform frame stride.
The offset has the tokens' own width, so the encoding takes it from the
tokens it is added to. Disabled by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidConfigError
from .numerics import POOL_CHUNK_TOKENS, per_chunk
from .tokens import CompressedTokenSequence

__all__ = ["FramePositionConfig", "encoding_vector", "apply_position_encoding"]

# Wavelength base of the sinusoid: pair i turns at t / BASE^(2i/dim).
BASE = 10000.0


@dataclass
class FramePositionConfig:
    """Whether the offsets are added. The width is the tokens' own; ``dim``,
    when given, is only a cross-check that the tokens must match."""

    enabled: bool = False
    dim: Optional[int] = None

    def validate(self, token_dim: int | None = None):
        """Raise unless an enabled encoding agrees with ``dim`` (when set)
        and can offset tokens of ``token_dim`` (when given)."""
        width = self.dim if token_dim is None else token_dim
        if not self.enabled or width is None:
            return
        if width < 2:
            raise InvalidConfigError(f"position encoding requires dim >= 2, got {width}")
        if self.dim not in (None, width):
            raise InvalidConfigError(
                f"position-encoding dim {self.dim} does not match token dim {width}"
            )


def _offsets(timesteps, dim: int) -> np.ndarray:
    """(len(timesteps), dim) float32 offsets: entry 2i = sin(t / BASE^(2i/dim)),
    entry 2i+1 = cos of the same angle, computed in float64. An odd final
    dim keeps its sin term."""
    if dim < 2:
        raise InvalidConfigError(f"encoding dim must be >= 2, got {dim}")
    even = np.arange(0, dim, 2, dtype=np.float64)
    angles = np.asarray(timesteps, dtype=np.float64)[:, None] / np.power(BASE, even / dim)
    out = np.empty((angles.shape[0], dim), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)[:, : dim // 2]
    return out.astype(np.float32)


def encoding_vector(t: float, dim: int) -> np.ndarray:
    """The float32 offset that the encoding adds to every token at timestep t."""
    return _offsets([t], dim)[0]


def apply_position_encoding(seq: CompressedTokenSequence, cfg: FramePositionConfig) -> None:
    """Add the frame's timestep encoding to every one of its tokens, in place.

    The offsets are added straight into ``seq.vectors`` a chunk of rows at a
    time (``numerics.per_chunk``), so no array the size of the sequence is
    built. Returns None; with the encoding disabled ``seq`` is left unchanged.
    """
    cfg.validate(seq.dim)
    if not cfg.enabled:
        return
    # Tokens sharing a timestep share one offset; encode each distinct value once.
    unique_ts, inverse = np.unique(seq.timesteps, return_inverse=True)
    offsets = _offsets(unique_ts, seq.dim)
    # One float32 addition has the bits of the float64 sum rounded to
    # float32: 53 >= 2 * 24 + 2 makes the double rounding innocuous.
    vectors = seq.vectors
    step = per_chunk(seq.dim * 4, POOL_CHUNK_TOKENS)
    for lo in range(0, vectors.shape[0], step):
        vectors[lo : lo + step] += offsets[inverse[lo : lo + step]]

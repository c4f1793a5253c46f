"""Frame-level sinusoidal position encoding keyed to absolute timestep.

Every token of a frame at time t receives the same offset vector, marking
frame boundaries after compression has discarded the uniform frame stride.
Disabled by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidConfigError
from .tokens import CompressedTokenSequence

__all__ = ["FramePositionConfig", "encoding_vector", "apply_position_encoding"]

# Rows encoded per step of add_position_encoding; bounds its temporaries.
ENCODE_CHUNK_ROWS = 1024


@dataclass
class FramePositionConfig:
    enabled: bool = False
    dim: Optional[int] = None
    base: float = 10000.0

    def validate(self):
        if self.base <= 1.0:
            raise InvalidConfigError(f"position-encoding base must exceed 1, got {self.base}")
        if self.enabled:
            if self.dim is None or self.dim < 2:
                raise InvalidConfigError(
                    f"position encoding requires dim >= 2 when enabled, got {self.dim}"
                )


def encoding_vector(t: float, dim: int, base: float = 10000.0) -> np.ndarray:
    """Sinusoidal encoding of timestep t: entry 2i = sin(t / base^(2i/dim)),
    entry 2i+1 = cos of the same angle. An odd final dim keeps its sin term."""
    if dim < 2:
        raise InvalidConfigError(f"encoding dim must be >= 2, got {dim}")
    even = np.arange(0, dim, 2, dtype=np.float64)
    angles = t / np.power(float(base), even / dim)
    out = np.empty(dim, dtype=np.float64)
    out[0::2] = np.sin(angles)
    out[1::2] = np.cos(angles)[: dim // 2]
    return out.astype(np.float32)


def apply_position_encoding(
    seq: CompressedTokenSequence, cfg: FramePositionConfig
) -> CompressedTokenSequence:
    """Add the frame's timestep encoding to every one of its tokens.

    Returns a new sequence and leaves ``seq`` unchanged. With the encoding
    disabled the input sequence is returned unchanged.
    """
    cfg.validate()
    if not cfg.enabled:
        return seq
    out = CompressedTokenSequence(
        frame_indices=seq.frame_indices.copy(),
        timesteps=seq.timesteps.copy(),
        grid_rows=seq.grid_rows.copy(),
        grid_cols=seq.grid_cols.copy(),
        levels=seq.levels.copy(),
        vectors=seq.vectors.copy(),
    )
    add_position_encoding(out, cfg)
    return out


def add_position_encoding(seq: CompressedTokenSequence, cfg: FramePositionConfig):
    """``apply_position_encoding`` in place: the offsets are added straight
    into ``seq.vectors``, ``ENCODE_CHUNK_ROWS`` rows at a time, so no array
    the size of the sequence is built. Does nothing when disabled."""
    cfg.validate()
    if not cfg.enabled:
        return
    if cfg.dim != seq.dim:
        raise InvalidConfigError(
            f"position-encoding dim {cfg.dim} does not match token dim {seq.dim}"
        )
    # Tokens sharing a timestep share one offset; encode each distinct value
    # once, all in one array operation with encoding_vector's arithmetic.
    unique_ts, inverse = np.unique(seq.timesteps, return_inverse=True)
    even = np.arange(0, cfg.dim, 2, dtype=np.float64)
    angles = unique_ts.astype(np.float64)[:, None] / np.power(float(cfg.base), even / cfg.dim)
    offsets = np.empty((unique_ts.shape[0], cfg.dim), dtype=np.float64)
    offsets[:, 0::2] = np.sin(angles)
    offsets[:, 1::2] = np.cos(angles)[:, : cfg.dim // 2]
    offsets = offsets.astype(np.float32)
    # One float32 addition has the bits of the float64 sum rounded to
    # float32: 53 >= 2 * 24 + 2 makes the double rounding innocuous.
    vectors = seq.vectors
    for lo in range(0, vectors.shape[0], ENCODE_CHUNK_ROWS):
        vectors[lo : lo + ENCODE_CHUNK_ROWS] += offsets[inverse[lo : lo + ENCODE_CHUNK_ROWS]]

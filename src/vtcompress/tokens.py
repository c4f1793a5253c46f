"""Flattened token records and the per-run statistics that travel with them."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

LEVEL_CODE = {"full": 0, "pooled": 1}


@dataclass
class CompressedTokenSequence:
    """Column-wise storage of the final token stream.

    Records are ordered by (timestep, grid row, grid col). ``levels`` uses
    the byte codes 0=full, 1=pooled. A token's timestep is not stored: it
    is its frame's index, one frame per second from zero.
    """

    frame_indices: np.ndarray  # (n,) int64
    grid_rows: np.ndarray  # (n,) int32
    grid_cols: np.ndarray  # (n,) int32
    levels: np.ndarray  # (n,) uint8
    vectors: np.ndarray  # (n, dim) float32

    def __post_init__(self):
        self.frame_indices = np.asarray(self.frame_indices, dtype=np.int64)
        self.grid_rows = np.asarray(self.grid_rows, dtype=np.int32)
        self.grid_cols = np.asarray(self.grid_cols, dtype=np.int32)
        self.levels = np.asarray(self.levels, dtype=np.uint8)
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        n = self.frame_indices.shape[0]
        for name in ("grid_rows", "grid_cols", "levels"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        if self.vectors.ndim != 2 or self.vectors.shape[0] != n:
            raise ValueError(f"vectors must have shape ({n}, dim), got {self.vectors.shape}")

    @property
    def timesteps(self) -> np.ndarray:
        """Each token's timestep as a new (n,) float32 array: its frame index."""
        return self.frame_indices.astype(np.float32)

    @property
    def total_count(self) -> int:
        return self.frame_indices.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass
class CompressionStats:
    """Per-stage frame and token accounting for one compression run.

    ``tokens_final`` and ``total_reduction_rate`` are None only in the stats
    carried by a ``BudgetInfeasibleError``: that run produced no output.
    """

    frames_in: int
    frames_after_temporal: int
    n_full_res: int
    tokens_after_query: int
    tokens_after_spatial: int
    tokens_final: int | None
    theta_effective: float
    fallback_used: bool
    query_tokens: int
    budget: int
    temporal_keep_rate: float
    query_reduction_rate: float
    spatial_reduction_rate: float
    total_reduction_rate: float | None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "CompressionStats":
        return cls(**{f.name: d[f.name] for f in fields(cls)})

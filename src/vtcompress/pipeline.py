"""Three-stage compression pipeline with a hard context-budget guarantee.

Stage order is fixed: temporal frame reduction, query-guided selection with
pooling, then windowed spatial pruning. If the pruned result still exceeds
the budget, the threshold is tightened stepwise and finally the surviving
non-anchor tokens are subsampled uniformly so the budget is met exactly.
The budget guarantee applies whenever at least one stage is enabled; with
every stage disabled the input is flattened as-is.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BudgetInfeasibleError, InvalidConfigError
from .framepos import FramePositionConfig, apply_position_encoding
from .numerics import AdapterSpec, TokenGrid
from .query_select import (
    LEVEL_FULL,
    LEVEL_POOLED,
    MixedResolutionSequence,
    QueryEmbedding,
    select_and_pool,
)
from .spatial import (
    AnchorStrategy,
    PrunedFrame,
    PruningPlan,
    SpatialCompressionResult,
    build_plan,
    select_anchor,
)
from .temporal import FrameFeatureSequence, partition_windows, reduce_frames
from .tokens import LEVEL_CODE, CompressedTokenSequence, CompressionStats

__all__ = [
    "StageToggles",
    "CompressionConfig",
    "compress",
    "enforce_budget",
    "flatten",
]

THETA_FLOOR = 0.5
THETA_STEP = 0.05


@dataclass
class StageToggles:
    temporal: bool = True
    query: bool = True
    stc: bool = True

    @property
    def any_enabled(self) -> bool:
        return self.temporal or self.query or self.stc


@dataclass
class CompressionConfig:
    """All pipeline constants in one place. Defaults fit an 8k context."""

    l_max: int = 8192
    tokens_high: tuple[int, int] = (12, 12)
    tokens_low: tuple[int, int] = (8, 8)
    j: int = 8
    k: int = 8
    theta: float = 0.8
    tau_t: float = 0.85
    anchor: AnchorStrategy = AnchorStrategy.FIRST
    adapter: AdapterSpec = field(default_factory=AdapterSpec.identity)
    fpe: FramePositionConfig = field(default_factory=FramePositionConfig)
    min_full_res_frames: int = 0
    stages: StageToggles = field(default_factory=StageToggles)

    def validate(self):
        h_h, w_h = self.tokens_high
        h_l, w_l = self.tokens_low
        if min(h_h, w_h, h_l, w_l) < 1:
            raise InvalidConfigError(f"grid sizes must be positive, got {self.tokens_high} and {self.tokens_low}")
        if h_h * w_h <= h_l * w_l:
            raise InvalidConfigError(
                f"full-resolution grid {self.tokens_high} must hold more tokens "
                f"than pooled grid {self.tokens_low}"
            )
        if h_l > h_h or w_l > w_h:
            raise InvalidConfigError(
                f"pooled grid {self.tokens_low} must fit inside the full grid {self.tokens_high}"
            )
        if not (0.0 < self.theta < 1.0):
            raise InvalidConfigError(f"theta must be in (0, 1), got {self.theta}")
        if not (0.0 < self.tau_t <= 1.0):
            raise InvalidConfigError(f"tau_t must be in (0, 1], got {self.tau_t}")
        if self.j < 1:
            raise InvalidConfigError(f"j must be >= 1, got {self.j}")
        if self.k < 1:
            raise InvalidConfigError(f"k must be >= 1, got {self.k}")
        if self.l_max < 1:
            raise InvalidConfigError(f"context length must be positive, got {self.l_max}")
        if self.min_full_res_frames < 0:
            raise InvalidConfigError(
                f"min_full_res_frames must be >= 0, got {self.min_full_res_frames}"
            )
        self.anchor = AnchorStrategy(self.anchor)
        self.fpe.validate()


def _pool_all(
    frames: np.ndarray,
    timesteps: np.ndarray,
    original_indices: np.ndarray,
    tokens_low: tuple[int, int],
) -> MixedResolutionSequence:
    from .numerics import pool_batch

    pooled = pool_batch(frames, *tokens_low)
    return MixedResolutionSequence(
        frames=[TokenGrid(pooled[i]) for i in range(pooled.shape[0])],
        levels=[LEVEL_POOLED] * pooled.shape[0],
        original_indices=original_indices,
        timesteps=timesteps,
    )


def _all_full(
    frames: np.ndarray, timesteps: np.ndarray, original_indices: np.ndarray
) -> MixedResolutionSequence:
    return MixedResolutionSequence(
        frames=[TokenGrid(frames[i]) for i in range(frames.shape[0])],
        levels=[LEVEL_FULL] * frames.shape[0],
        original_indices=original_indices,
        timesteps=timesteps,
    )


def _keep_all_result(mixed: MixedResolutionSequence, k: int, strategy: AnchorStrategy) -> SpatialCompressionResult:
    """Wrap a mixed sequence as a no-op pruning result so the budget fallback
    can subsample it; windows and anchors are assigned but nothing is pruned."""
    windows = partition_windows(mixed.n_frames, k)
    frames: list[PrunedFrame] = []
    for start, end in windows:
        chunk = mixed.frames[start:end]
        anchor = select_anchor(chunk, strategy)
        for i, grid in enumerate(chunk):
            h, w = grid.height, grid.width
            positions = np.argwhere(np.ones((h, w), dtype=bool)).astype(np.int32)
            frames.append(
                PrunedFrame(
                    original_index=int(mixed.original_indices[start + i]),
                    timestep=float(mixed.timesteps[start + i]),
                    grid_h=h,
                    grid_w=w,
                    level=mixed.levels[start + i],
                    kept_positions=positions,
                    kept_vectors=grid.data.reshape(h * w, -1),
                    is_anchor=(i == anchor),
                )
            )
    total = mixed.token_count
    return SpatialCompressionResult(frames, windows, total, total)


def _theta_ladder(theta: float) -> list[float]:
    steps = []
    current = theta
    while current > THETA_FLOOR + 1e-12:
        current = max(THETA_FLOOR, round(current - THETA_STEP, 10))
        steps.append(current)
    return steps


def _subsample_to_budget(result: SpatialCompressionResult, budget: int) -> SpatialCompressionResult:
    """Keep all anchor tokens and a uniform-by-rank subset of the rest so the
    total token count equals the budget exactly. The caller has checked that
    the anchor tokens fit."""
    quota = budget - sum(f.token_count for f in result.frames if f.is_anchor)
    spans = []  # (frame position, rank of its first non-anchor token)
    total = 0
    for pos, f in enumerate(result.frames):
        if not f.is_anchor:
            spans.append((pos, total))
            total += f.token_count
    if quota >= total:
        return result  # already within budget; nothing to drop
    chosen = (np.arange(quota, dtype=np.int64) * total) // quota if quota else np.empty(0, dtype=np.int64)
    new_frames = list(result.frames)
    cursor = 0
    for pos, start in spans:
        f = result.frames[pos]
        end = start + f.token_count
        lo = cursor
        while cursor < len(chosen) and chosen[cursor] < end:
            cursor += 1
        local = chosen[lo:cursor] - start
        new_frames[pos] = replace(
            f,
            kept_positions=f.kept_positions[local],
            kept_vectors=f.kept_vectors[local],
        )
    return SpatialCompressionResult(
        new_frames, result.windows, result.tokens_before, budget
    )


def enforce_budget(
    result: SpatialCompressionResult,
    cfg: CompressionConfig,
    query_len: int,
    plan: PruningPlan | None = None,
    plan_indices=None,
    plan_timesteps=None,
) -> tuple[SpatialCompressionResult, float, bool]:
    """Force a pruning result under the budget; returns (result, theta, fallback).

    The threshold drops in 0.05 steps toward 0.5 while ``plan`` (when given)
    can still prune more. Similarities do not depend on the threshold, so
    the survivors at each step are counted straight from ``plan.sims``; the
    first step whose count fits is taken, or the last step when none fits,
    and the plan is applied once at that threshold, which matches a full
    re-run there. Anything still over budget then has its non-anchor tokens
    uniformly subsampled by (timestep, position) rank until the budget is
    met exactly. Raises BudgetInfeasibleError when the anchors alone exceed
    the budget; anchors keep every token at any threshold, so that verdict
    is reached before the ladder runs.
    """
    budget = cfg.l_max - query_len
    if result.tokens_after <= budget:
        return result, cfg.theta, False
    anchor_tokens = sum(f.token_count for f in result.frames if f.is_anchor)
    if anchor_tokens > budget:
        raise BudgetInfeasibleError(anchor_tokens, budget)
    theta_eff = cfg.theta
    steps = _theta_ladder(cfg.theta) if plan is not None else []
    if steps:
        for theta_eff in steps:
            if int((plan.sims <= theta_eff).sum()) <= budget:
                break
        result = plan.apply(
            theta_eff,
            original_indices=plan_indices,
            timesteps=plan_timesteps,
            level=LEVEL_POOLED,
        )
        if result.tokens_after <= budget:
            return result, theta_eff, True
    return _subsample_to_budget(result, budget), theta_eff, True


def _flatten_parts(parts) -> CompressedTokenSequence:
    frame_indices, timesteps, rows, cols, levels, vectors = [], [], [], [], [], []
    for original_index, timestep, level, positions, vecs in parts:
        n = positions.shape[0]
        frame_indices.append(np.full(n, original_index, dtype=np.int64))
        timesteps.append(np.full(n, np.float32(timestep), dtype=np.float32))
        rows.append(positions[:, 0].astype(np.int32))
        cols.append(positions[:, 1].astype(np.int32))
        levels.append(np.full(n, LEVEL_CODE[level], dtype=np.uint8))
        vectors.append(vecs)
    if not frame_indices:
        raise ValueError("nothing to flatten")
    return CompressedTokenSequence(
        frame_indices=np.concatenate(frame_indices),
        timesteps=np.concatenate(timesteps),
        grid_rows=np.concatenate(rows),
        grid_cols=np.concatenate(cols),
        levels=np.concatenate(levels),
        vectors=np.concatenate(vectors),
    )


def flatten(stage_output, cfg: CompressionConfig) -> CompressedTokenSequence:
    """Emit tokens in (timestep, row-major grid) order with provenance fields."""
    parts = []
    if isinstance(stage_output, MixedResolutionSequence):
        for i, grid in enumerate(stage_output.frames):
            h, w = grid.height, grid.width
            positions = np.argwhere(np.ones((h, w), dtype=bool)).astype(np.int32)
            parts.append(
                (
                    int(stage_output.original_indices[i]),
                    float(stage_output.timesteps[i]),
                    stage_output.levels[i],
                    positions,
                    grid.data.reshape(h * w, -1),
                )
            )
    elif isinstance(stage_output, SpatialCompressionResult):
        for f in stage_output.frames:
            parts.append((f.original_index, f.timestep, f.level, f.kept_positions, f.kept_vectors))
    else:
        raise TypeError(f"cannot flatten {type(stage_output).__name__}")
    return _flatten_parts(parts)


def compress(
    seq: FrameFeatureSequence, query: QueryEmbedding, cfg: CompressionConfig
) -> tuple[CompressedTokenSequence, CompressionStats]:
    """Run the full pipeline on one video and return tokens plus statistics.

    Raises BudgetInfeasibleError when the anchor tokens alone exceed the
    budget; its ``stats`` hold the accounting of every stage that ran.
    """
    cfg.validate()
    h_h, w_h = cfg.tokens_high
    if (seq.grid_h, seq.grid_w) != (h_h, w_h):
        raise InvalidConfigError(
            f"input frames are {seq.grid_h}x{seq.grid_w} but the configured "
            f"full resolution is {h_h}x{w_h}"
        )
    l_q = query.n_tokens
    frames_in = seq.n_frames
    tokens_in = frames_in * h_h * w_h

    if cfg.stages.temporal:
        reduction = reduce_frames(seq, cfg.j, cfg.tau_t)
        working = seq.subset(reduction.kept_indices)
        original_indices = np.asarray(reduction.kept_indices, dtype=np.int64)
    else:
        working = seq
        original_indices = np.arange(frames_in, dtype=np.int64)

    t_after = working.n_frames
    tokens_full = t_after * h_h * w_h

    def stage_stats(*, n_full, tokens_query, tokens_spatial, theta_eff, fallback, tokens_final):
        return CompressionStats(
            frames_in=frames_in,
            frames_after_temporal=t_after,
            n_full_res=n_full,
            tokens_after_query=tokens_query,
            tokens_after_spatial=tokens_spatial,
            tokens_final=tokens_final,
            theta_effective=theta_eff,
            fallback_used=fallback,
            query_tokens=l_q,
            budget=cfg.l_max,
            temporal_keep_rate=t_after / frames_in,
            query_reduction_rate=1.0 - tokens_query / tokens_full,
            spatial_reduction_rate=(
                1.0 - tokens_spatial / tokens_query if tokens_query else 0.0
            ),
            total_reduction_rate=(
                None if tokens_final is None else 1.0 - tokens_final / tokens_in
            ),
        )

    def finish(output, **stage):
        compressed = flatten(output, cfg)
        compressed = apply_position_encoding(compressed, cfg.fpe)
        return compressed, stage_stats(**stage, tokens_final=compressed.total_count)

    # Under budget at full resolution (or nothing enabled): emit as-is.
    if tokens_full + l_q <= cfg.l_max or not cfg.stages.any_enabled:
        mixed = _all_full(working.frames, working.timesteps, original_indices)
        return finish(
            mixed,
            n_full=t_after,
            tokens_query=tokens_full,
            tokens_spatial=tokens_full,
            theta_eff=cfg.theta,
            fallback=False,
        )

    # Stage 2: with the query stage disabled, selection is skipped but the
    # sequence is still pooled uniformly; that is the only route under budget.
    if cfg.stages.query:
        mixed, plan = select_and_pool(
            working.frames,
            working.timesteps,
            original_indices,
            query,
            cfg.adapter,
            cfg.l_max,
            cfg.tokens_low,
            cfg.min_full_res_frames,
        )
        n_full = plan.n_full_res
    else:
        mixed = _pool_all(working.frames, working.timesteps, original_indices, cfg.tokens_low)
        n_full = 0
    tokens_query = mixed.token_count

    if tokens_query + l_q <= cfg.l_max:
        return finish(
            mixed,
            n_full=n_full,
            tokens_query=tokens_query,
            tokens_spatial=tokens_query,
            theta_eff=cfg.theta,
            fallback=False,
        )

    # Stage 3 applies only to the uniformly pooled regime; frames kept at
    # full resolution by the query stage are never pruned.
    uniform_low = n_full == 0
    if cfg.stages.stc and uniform_low:
        stack = np.stack([g.data for g in mixed.frames])
        plan = build_plan(stack, cfg.k, cfg.anchor)
        result = plan.apply(
            cfg.theta,
            original_indices=mixed.original_indices,
            timesteps=mixed.timesteps,
            level=LEVEL_POOLED,
        )
        tokens_spatial = result.tokens_after
    else:
        plan = None
        result = _keep_all_result(mixed, cfg.k, cfg.anchor)
        tokens_spatial = tokens_query
    try:
        result, theta_eff, fallback = enforce_budget(
            result,
            cfg,
            l_q,
            plan=plan,
            plan_indices=mixed.original_indices,
            plan_timesteps=mixed.timesteps,
        )
    except BudgetInfeasibleError as exc:
        exc.stats = stage_stats(
            n_full=n_full,
            tokens_query=tokens_query,
            tokens_spatial=tokens_spatial,
            theta_eff=cfg.theta,
            fallback=True,
            tokens_final=None,
        )
        raise

    return finish(
        result,
        n_full=n_full,
        tokens_query=tokens_query,
        tokens_spatial=tokens_spatial,
        theta_eff=theta_eff,
        fallback=fallback,
    )

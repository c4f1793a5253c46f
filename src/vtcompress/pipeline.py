"""Three-stage compression pipeline with a hard context-budget guarantee.

Stage order is fixed: temporal frame reduction, query-guided selection with
pooling, then windowed spatial pruning. If the pruned result still exceeds
the budget, the threshold is tightened stepwise and finally the surviving
non-anchor tokens are subsampled uniformly so the budget is met exactly.
The budget guarantee applies whenever at least one stage is enabled; with
every stage disabled the input is flattened as-is.

The input is read once. Stage 1 works from the per-frame means taken when
the sequence was built and returns the surviving frames as indices; no
second sequence is built. Stage 2 reads those frames from the input through
the indices. From stage 2 on there is one representation: stage 2's token
table (every token of every surviving frame, frame-major, with per-frame
offsets) and a ``keep`` and an ``anchor`` mask over it. Pruning, the
threshold ladder and subsampling only rewrite ``keep``; flatten gathers the
kept rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetInfeasibleError, InvalidConfigError
from .framepos import FramePositionConfig, apply_position_encoding
from .numerics import AdapterSpec
from .query_select import (
    MixedResolutionSequence,
    QueryEmbedding,
    select_and_pool,
    token_table,
)
from .spatial import (
    AnchorStrategy,
    PruningPlan,
    SpatialCompressionResult,
    anchor_frames,
    build_plan,
)
from .temporal import FrameFeatureSequence, reduce_frames
from .tokens import CompressedTokenSequence, CompressionStats

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
    """All pipeline constants in one place. Defaults fit an 8k context.

    The full-resolution grid is not a setting: a full frame holds as many
    tokens as the vision encoder emits, so ``compress`` takes it from the
    input. ``tokens_low`` is the pooled grid; ``compress`` checks that it
    fits inside the input's grid and holds fewer tokens.
    """

    l_max: int = 8192
    tokens_low: tuple[int, int] = (8, 8)
    j: int = 8
    k: int = 8
    theta: float = 0.8
    tau_t: float = 0.85
    anchor: AnchorStrategy = AnchorStrategy.FIRST
    adapter: AdapterSpec = field(default_factory=AdapterSpec.identity)
    fpe: FramePositionConfig = field(default_factory=FramePositionConfig)
    stages: StageToggles = field(default_factory=StageToggles)

    def validate(self):
        if min(self.tokens_low) < 1:
            raise InvalidConfigError(f"pooled grid must be positive, got {self.tokens_low}")
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
        self.anchor = AnchorStrategy(self.anchor)
        self.fpe.validate()


def _theta_ladder(theta: float) -> list[float]:
    steps = []
    current = theta
    while current > THETA_FLOOR + 1e-12:
        current = max(THETA_FLOOR, round(current - THETA_STEP, 10))
        steps.append(current)
    return steps


def _subsample_to_budget(result: SpatialCompressionResult, budget: int) -> SpatialCompressionResult:
    """Keep all anchor tokens and a uniform-by-rank subset of the other
    survivors so the total token count equals the budget exactly. The
    caller has checked that the anchor tokens fit and that the survivors
    do not."""
    keep = result.keep & result.anchor
    rest = np.flatnonzero(result.keep & ~result.anchor)
    quota = budget - int(np.count_nonzero(keep))
    keep[rest[(np.arange(quota, dtype=np.int64) * rest.shape[0]) // quota]] = True
    return SpatialCompressionResult(keep, result.anchor)


def enforce_budget(
    result: SpatialCompressionResult,
    cfg: CompressionConfig,
    query_len: int,
    plan: PruningPlan | None = None,
) -> tuple[SpatialCompressionResult, float, bool]:
    """Force a pruning result under the budget; returns (result, theta, fallback).

    The threshold drops in 0.05 steps toward 0.5 while ``plan`` (when given)
    can still prune more. Similarities do not depend on the threshold, so
    the survivors at each step are counted straight from ``plan.sims``; the
    first step whose count fits is taken, or the last step when none fits,
    and the plan is applied once at that threshold. Anything still over
    budget then has its non-anchor tokens uniformly subsampled by table
    rank, which is (timestep, position) rank, until the budget is met
    exactly. Raises BudgetInfeasibleError when the anchors alone exceed the
    budget; anchors keep every token at any threshold, so that verdict is
    reached before the ladder runs.
    """
    budget = cfg.l_max - query_len
    if result.tokens_after <= budget:
        return result, cfg.theta, False
    anchor_tokens = int(np.count_nonzero(result.keep & result.anchor))
    if anchor_tokens > budget:
        raise BudgetInfeasibleError(anchor_tokens, budget)
    theta_eff = cfg.theta
    steps = _theta_ladder(cfg.theta) if plan is not None else []
    if steps:
        for theta_eff in steps:
            if int(np.count_nonzero(plan.sims <= theta_eff)) <= budget:
                break
        result = plan.apply(theta_eff)
        if result.tokens_after <= budget:
            return result, theta_eff, True
    return _subsample_to_budget(result, budget), theta_eff, True


def flatten(table: MixedResolutionSequence, keep: np.ndarray) -> CompressedTokenSequence:
    """Emit the kept tokens of a token table in (timestep, row-major grid)
    order with provenance fields. The gather always copies, so the output
    shares no memory with the input frames."""
    rows = np.flatnonzero(keep)
    tokens = table.tokens
    return CompressedTokenSequence(
        frame_indices=tokens.frame_indices[rows],
        timesteps=tokens.timesteps[rows],
        grid_rows=tokens.grid_rows[rows],
        grid_cols=tokens.grid_cols[rows],
        levels=tokens.levels[rows],
        vectors=tokens.vectors[rows],
    )


def compress(
    seq: FrameFeatureSequence, query: QueryEmbedding, cfg: CompressionConfig
) -> tuple[CompressedTokenSequence, CompressionStats]:
    """Run the full pipeline on one video and return tokens plus statistics.

    Raises BudgetInfeasibleError when the anchor tokens alone exceed the
    budget; its ``stats`` hold the accounting of every stage that ran.
    """
    cfg.validate()
    h_h, w_h = seq.grid_h, seq.grid_w
    h_l, w_l = cfg.tokens_low
    if h_h * w_h <= h_l * w_l:
        raise InvalidConfigError(
            f"input grid {h_h}x{w_h} must hold more tokens than pooled grid {cfg.tokens_low}"
        )
    if h_l > h_h or w_l > w_h:
        raise InvalidConfigError(
            f"pooled grid {cfg.tokens_low} must fit inside the input grid {h_h}x{w_h}"
        )
    l_q = query.n_tokens
    frames_in = seq.n_frames
    tokens_in = frames_in * h_h * w_h

    if cfg.stages.temporal:
        kept = np.asarray(reduce_frames(seq, cfg.j, cfg.tau_t).kept_indices, dtype=np.int64)
    else:
        kept = np.arange(frames_in, dtype=np.int64)

    t_after = kept.shape[0]
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

    def finish(table, keep, **stage):
        compressed = flatten(table, keep)
        compressed = apply_position_encoding(compressed, cfg.fpe)
        return compressed, stage_stats(**stage, tokens_final=compressed.total_count)

    # Under budget at full resolution (or nothing enabled): emit as-is.
    # Otherwise stage 2; with the query stage disabled, selection is skipped
    # but the sequence is still pooled uniformly, the only route under budget.
    if tokens_full + l_q <= cfg.l_max or not cfg.stages.any_enabled:
        table = token_table(seq, kept, np.ones(t_after, dtype=bool), cfg.tokens_low)
        n_full = t_after
    elif cfg.stages.query:
        table, split = select_and_pool(seq, kept, query, cfg.adapter, cfg.l_max, cfg.tokens_low)
        n_full = split.n_full_res
    else:
        table = token_table(seq, kept, np.zeros(t_after, dtype=bool), cfg.tokens_low)
        n_full = 0
    tokens_query = table.token_count
    keep_all = np.ones(tokens_query, dtype=bool)

    if tokens_query + l_q <= cfg.l_max or not cfg.stages.any_enabled:
        return finish(
            table,
            keep_all,
            n_full=n_full,
            tokens_query=tokens_query,
            tokens_spatial=tokens_query,
            theta_eff=cfg.theta,
            fallback=False,
        )

    # Every frame is pooled here. num_full_res_frames sizes the full frames
    # to the budget, so a table that holds one always fits and was emitted
    # above.
    stack = table.tokens.vectors.reshape(t_after, h_l * w_l, -1)
    if cfg.stages.stc:
        plan = build_plan(stack.reshape(t_after, h_l, w_l, -1), cfg.k, cfg.anchor)
        result = plan.apply(cfg.theta)
        tokens_spatial = result.tokens_after
    else:
        plan = None
        anchor = np.repeat(anchor_frames(stack, cfg.k, cfg.anchor), h_l * w_l)
        result = SpatialCompressionResult(keep_all, anchor)
        tokens_spatial = tokens_query
    try:
        result, theta_eff, fallback = enforce_budget(result, cfg, l_q, plan=plan)
    except BudgetInfeasibleError as exc:
        exc.stats = stage_stats(
            n_full=0,
            tokens_query=tokens_query,
            tokens_spatial=tokens_spatial,
            theta_eff=cfg.theta,
            fallback=True,
            tokens_final=None,
        )
        raise

    return finish(
        table,
        result.keep,
        n_full=0,
        tokens_query=tokens_query,
        tokens_spatial=tokens_spatial,
        theta_eff=theta_eff,
        fallback=fallback,
    )

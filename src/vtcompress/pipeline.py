"""Three-stage compression pipeline with a hard context-budget guarantee.

Stage order is fixed: temporal frame reduction, query-guided selection with
pooling, then windowed spatial pruning. If the pruned result still exceeds
the budget, the threshold is tightened stepwise and finally the surviving
non-anchor tokens are subsampled uniformly so the budget is met exactly.
The budget guarantee applies whenever at least one stage is enabled; with
every stage disabled the input is flattened as-is.

The input is read once. Stage 1 works from the per-frame means taken when
the sequence was built and returns the surviving frames as indices; no
second sequence is built. ``compress`` alone decides how many of them stay
at full resolution, and stage 2 reads them from the input by index. Token
positions are rows of one frame-major table of every token of every
surviving frame, and pruning, the threshold ladder and subsampling only
rewrite a ``keep`` mask over those rows.

``query_select.select_and_pool`` writes every output row, once, on every
path, and ``compress`` then position-encodes them in place. Within the
budget it emits the whole token table: everything fits at full resolution,
the table holds a full frame, or it fits once pooled. Over budget, the only
buffer of the token width that grows with the budget is the output-sized
store; every other one is bounded by ``numerics.WORK_BYTES`` through
``numerics.per_chunk``, or is one k-window of pooled frames. The frames are
pooled and planned one k-window at a time, each pooled into one reused window
buffer with one pooling set-up made once per call. Kept are only a
``PruningPlan`` (per pooled token an anchor flag and one byte, its rung: the
count of the ladder's thresholds its similarity is at or below, or with
stage 3 off rung 1 of the one threshold theta) and a budget-sized store of
pooled tokens (the anchors, then the first survivors). Subsampling scans the
plan's masks in fixed-size pieces. ``select_and_pool`` then emits only the
kept rows, into the store's array, a chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetInfeasibleError, InvalidConfigError, integer, numbers, real
from .framepos import FramePositionConfig, apply_position_encoding
from .numerics import Pooling, per_chunk, pool_batch
from .query_select import MixedResolutionSequence, QueryEmbedding, num_full_res_frames, select_and_pool
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

    ``validate`` is where every setting is checked, and where a numpy number
    becomes the Python number of equal value. ``compress`` calls it first,
    and the stages below ``compress`` trust what it let through.
    """

    l_max: int = 8192
    tokens_low: tuple[int, int] = (8, 8)
    j: int = 8
    k: int = 8
    theta: float = 0.8
    tau_t: float = 0.85
    anchor: AnchorStrategy = AnchorStrategy.FIRST
    fpe: FramePositionConfig = field(default_factory=FramePositionConfig)
    stages: StageToggles = field(default_factory=StageToggles)

    def validate(self):
        for name, number in (("l_max", integer), ("j", integer), ("k", integer),
                             ("theta", real), ("tau_t", real)):
            setattr(self, name, number(getattr(self, name), name))
        for name, kind in (("fpe", FramePositionConfig), ("stages", StageToggles)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise InvalidConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
        for owner, name in (("stages", "temporal"), ("stages", "query"), ("stages", "stc"),
                            ("fpe", "enabled")):
            value = getattr(getattr(self, owner), name)
            if not isinstance(value, bool):
                raise InvalidConfigError(f"{owner}.{name} must be a bool, got {value!r}")
        if self.fpe.dim is not None:
            self.fpe.dim = integer(self.fpe.dim, "fpe.dim", "None or an integer")
        low = self.tokens_low
        if not (isinstance(low, (tuple, list)) and len(low) == 2):
            raise InvalidConfigError(f"pooled grid must be two integers, got {low!r}")
        self.tokens_low = low = numbers(low, integer, "pooled grid", "two integers")
        if min(low) < 1:
            raise InvalidConfigError(f"pooled grid must be positive, got {low}")
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
        names = [a.value for a in AnchorStrategy]
        if self.anchor not in names:
            raise InvalidConfigError(
                f"anchor must be one of {', '.join(names)}; got {self.anchor!r}"
            )
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
    do not.

    Of the n non-anchor survivors, those of rank floor(i * n / quota), for i
    below the quota, stay. The masks are scanned in pieces, so beside the
    result's mask the working memory is one piece's bool temporary and int64
    survivors, picks and their rows, 25 bytes a token (``numerics.per_chunk``)."""
    keep = result.keep & result.anchor
    anchors = int(np.count_nonzero(keep))
    quota, n = budget - anchors, result.tokens_after - anchors
    seen = 0  # non-anchor survivors before the piece
    step = per_chunk(25, keep.shape[0])
    for lo in range(0, keep.shape[0], step):
        piece = slice(lo, lo + step)
        # kept and not anchor, without a negated copy of the anchor flags
        rest = np.flatnonzero(np.greater(result.keep[piece], result.anchor[piece]))
        # the picks i whose rank floor(i * n / quota) falls in this piece
        picks = np.arange(-(-seen * quota // n), -(-(seen + rest.shape[0]) * quota // n))
        picks *= n
        picks //= quota
        picks -= seen
        keep[piece][rest[picks]] = True
        seen += rest.shape[0]
    return SpatialCompressionResult(keep, result.anchor)


def enforce_budget(
    result: SpatialCompressionResult,
    theta: float,
    budget: int,
    plan: PruningPlan,
) -> tuple[SpatialCompressionResult, float, bool]:
    """Force a pruning result under the budget; returns (result, theta, fallback).

    The threshold drops in 0.05 steps toward 0.5 while ``plan`` can still
    prune more: its thresholds are ``theta`` and then the steps, none in a
    one-threshold plan (stage 3 off, or ``theta`` at the floor). The
    survivors at step s are counted straight from the plan's rungs, as the
    rungs above s; the first step whose count fits is taken, or the last
    step when none fits, and the plan is applied once at that threshold.
    Anything still over budget then has its non-anchor tokens uniformly
    subsampled by table rank, which is (timestep, position) rank, until the
    budget is met exactly. The caller has checked that the anchor tokens fit;
    anchors keep every token at any threshold, so no step can change that.
    """
    if result.tokens_after <= budget:
        return result, theta, False
    theta_eff = theta
    if len(plan.thresholds) > 1:
        for step, theta_eff in enumerate(plan.thresholds[1:], 1):
            if int(np.count_nonzero(plan.rungs > step)) <= budget:
                break
        result = plan.apply(theta_eff)
        if result.tokens_after <= budget:
            return result, theta_eff, True
    return _subsample_to_budget(result, budget), theta_eff, True


def flatten(table: MixedResolutionSequence, keep: np.ndarray) -> CompressedTokenSequence:
    """The rows ``keep`` of a token table, in table order, which is
    (timestep, row-major grid) order, with their provenance fields. The
    gather always copies, so the result shares no memory with the table.

    ``compress`` never calls it: ``select_and_pool`` writes its output. It
    is the row gather of the whole-table reference that the tests hold that
    output to, and ``bench/spans.py`` still wraps it by name."""
    rows = np.flatnonzero(keep)
    tokens = table.tokens
    return CompressedTokenSequence(
        frame_indices=tokens.frame_indices[rows],
        grid_rows=tokens.grid_rows[rows],
        grid_cols=tokens.grid_cols[rows],
        levels=tokens.levels[rows],
        vectors=tokens.vectors[rows],
    )


def _plan_by_window(
    seq: FrameFeatureSequence,
    kept: np.ndarray,
    cfg: CompressionConfig,
    budget: int,
    anchor_tokens: int,
) -> tuple[PruningPlan, tuple | None]:
    """Pool the input frames ``kept`` and plan their pruning one k-window at a
    time, without building the pooled token table.

    Each window is pooled into one reused window buffer, with one pooling
    set-up (``numerics.Pooling``) made here for every window, and planned on
    its own: its anchor and similarities are as over the whole table. Kept
    are each token's rung for ``cfg.theta`` and its ladder (with stage 3 off,
    rung 1 of the one threshold ``cfg.theta``), the anchor flags and a store
    of at most ``budget`` pooled tokens in table order: every anchor token,
    and as many of the first survivors at ``cfg.theta`` as fit beside them.
    Every output token is one of those survivors. The caller passes
    ``anchor_tokens``, the pooled tokens of the anchor frames, which it works
    out from the frame count; when they alone exceed the budget the verdict
    is infeasible and nothing is stored.

    Returns the plan and the store as (its table rows, ascending; a
    ``budget``-row float32 array whose leading rows hold their vectors), or None.
    """
    frames = seq.frames
    h_l, w_l = cfg.tokens_low
    hw, k, t, dim = h_l * w_l, cfg.k, kept.shape[0], frames.shape[3]
    room = budget - anchor_tokens  # store rows left beside the anchors
    if room >= 0:
        stored_rows = np.empty(budget, dtype=np.int64)
        vectors = np.empty((budget, dim), dtype=np.float32)
    stored = 0
    is_anchor = np.empty(t, dtype=bool)
    thresholds = (cfg.theta, *_theta_ladder(cfg.theta)) if cfg.stages.stc else (cfg.theta,)
    rungs = np.ones(t * hw, dtype=np.uint8)
    pooling = Pooling(seq.grid_h, seq.grid_w, dim, h_l, w_l)
    window_buf = np.empty((min(k, t), h_l, w_l, dim), dtype=np.float32)
    for lo in range(0, t, k):
        hi = min(lo + k, t)
        pooled = pool_batch(frames, h_l, w_l, kept[lo:hi], out=window_buf[: hi - lo], pooling=pooling)
        if cfg.stages.stc:
            plan = build_plan(pooled, k, cfg.anchor, thresholds)
            rungs[lo * hw : hi * hw] = plan.rungs
            is_anchor[lo:hi] = plan.anchor[::hw]
        else:  # every token at rung 1
            is_anchor[lo:hi] = anchor_frames(pooled.reshape(hi - lo, hw, dim), k, cfg.anchor)
        if room >= 0:
            # The window's survivors at ``cfg.theta`` (its tokens above rung
            # 0): its anchor frame's hw rows, which always survive and so sit
            # together, and as many of the others, in order, as there is room.
            local = np.flatnonzero(rungs[lo * hw : hi * hw])
            if local.shape[0] - hw > room:
                first = int(local.searchsorted(is_anchor[lo:hi].argmax() * hw))
                before = min(room, first)  # the others before the anchor frame
                local = np.concatenate((local[:before], local[first : first + hw + room - before]))
            room -= local.shape[0] - hw
            end = stored + local.shape[0]
            stored_rows[stored:end] = local + lo * hw
            # mode="clip" writes straight into ``out``; "raise" buffers it.
            # The rows are in range by construction.
            np.take(pooled.reshape(-1, dim), local, axis=0, out=vectors[stored:end], mode="clip")
            stored = end
    del window_buf, pooled
    store = (stored_rows[:stored], vectors) if room >= 0 else None
    return PruningPlan(rungs, np.repeat(is_anchor, hw), thresholds), store


def compress(
    seq: FrameFeatureSequence, query: QueryEmbedding, cfg: CompressionConfig
) -> tuple[CompressedTokenSequence, CompressionStats]:
    """Run the full pipeline on one video and return tokens plus statistics.

    One flow, in stage order: stage 1 keeps t' frames, and every later count
    follows from t'. Only here is the full-resolution count decided: t' when
    the full frames fit the budget ``l_max - l_q`` or no stage is on, else
    ``num_full_res_frames`` with the query stage on, else 0. Within the
    budget, stage 2's token table is the output. Over it, the frames are
    pooled and planned one k-window at a time, and the ceil(t' / k) anchor
    frames of pooled tokens decide the verdict: they fit and the budget is
    enforced, or the run is infeasible. One ``select_and_pool`` call then
    emits the output on either path, which is position-encoded and counted
    at the one exit.

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
    cfg.fpe.validate(seq.dim)
    if cfg.stages.query:
        query.check_width(seq.dim)
    l_q = query.n_tokens
    budget = cfg.l_max - l_q
    frames_in = seq.n_frames
    tokens_in = frames_in * h_h * w_h

    if cfg.stages.temporal:
        kept = reduce_frames(seq, cfg.j, cfg.tau_t).kept_indices
    else:
        kept = np.arange(frames_in, dtype=np.int64)

    t_after = kept.shape[0]
    tokens_full = t_after * h_h * w_h

    def stage_stats(n_full, tokens_query, tokens_spatial, theta_eff, fallback, tokens_final):
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
            spatial_reduction_rate=1.0 - tokens_spatial / tokens_query,
            total_reduction_rate=(
                None if tokens_final is None else 1.0 - tokens_final / tokens_in
            ),
        )

    if tokens_full <= budget or not cfg.stages.any_enabled:
        n_full = t_after
    elif cfg.stages.query:
        n_full = num_full_res_frames(t_after, cfg.l_max, l_q, h_h * w_h, h_l * w_l)
    else:
        n_full = 0

    tokens_query = n_full * h_h * w_h + (t_after - n_full) * h_l * w_l
    if tokens_query > budget and cfg.stages.any_enabled:
        # A table with a full frame fits, so every frame is pooled (n_full is
        # 0) and the table is still over budget: it is not built, and memory
        # is bounded by the budget, not by t_after. Every window's anchor
        # frame keeps all its pooled tokens.
        anchor_tokens = -(-t_after // cfg.k) * h_l * w_l
        plan, store = _plan_by_window(seq, kept, cfg, budget, anchor_tokens)
        result = plan.apply(cfg.theta)
        tokens_spatial = result.tokens_after
        if anchor_tokens > budget:
            stats = stage_stats(n_full, tokens_query, tokens_spatial, cfg.theta, True, None)
            raise BudgetInfeasibleError(anchor_tokens, budget, stats)
        result, theta_eff, fallback = enforce_budget(result, cfg.theta, budget, plan)
        del plan
        rows = np.flatnonzero(result.keep)
    else:
        # The token table, as built, is the output: under budget at full
        # resolution (or nothing enabled), with some frames at full
        # resolution, or once every frame is pooled.
        tokens_spatial, theta_eff, fallback = tokens_query, cfg.theta, False
        rows = store = None
    table, _ = select_and_pool(seq, kept, query, n_full, cfg.tokens_low, rows, store)
    compressed = table.tokens
    apply_position_encoding(compressed, cfg.fpe)
    return compressed, stage_stats(
        n_full, tokens_query, tokens_spatial, theta_eff, fallback, compressed.total_count
    )

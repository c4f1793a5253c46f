"""Deterministic spatiotemporal compression of video token sequences.

Reduces a long video's visual tokens under a hard context-length budget in
three stages: windowed temporal deduplication, query-guided selection of
full-resolution frames with pooling for the rest, and per-position spatial
pruning against window anchors. Ships with binary file formats, a CLI, and
a synthetic benchmark harness.
"""

from .errors import (
    AdapterShapeError,
    BudgetInfeasibleError,
    CompressionError,
    EmptyVideoError,
    FileFormatError,
    InvalidConfigError,
    InvalidNeedleError,
    InvalidPoolingError,
    InvalidWindowError,
    ZeroVectorError,
)
from .framepos import FramePositionConfig, apply_position_encoding, encoding_vector
from .numerics import (
    AdapterSpec,
    TokenGrid,
    adaptive_avg_pool,
    apply_adapter,
    cosine_similarity,
    frame_summary,
)
from .pipeline import CompressionConfig, StageToggles, compress, enforce_budget, flatten
from .query_select import (
    BudgetPlan,
    MixedResolutionSequence,
    QueryEmbedding,
    frame_query_scores,
    num_full_res_frames,
    select_and_pool,
)
from .spatial import AnchorStrategy, SpatialCompressionResult, prune_window
from .synthbench import (
    NeedleSpec,
    SynthSpec,
    anchor_ablation,
    gen_video,
    insert_needle,
    make_aligned_query,
    make_mixed_corpus,
    make_needle_grid,
    reduction_report,
    run_needle_grid,
)
from .temporal import (
    FrameFeatureSequence,
    TemporalReduction,
    partition_windows,
    reduce_frames,
    window_average_similarity,
)
from .tokens import CompressedTokenSequence, CompressionStats, TokenRecord

__version__ = "0.1.0"

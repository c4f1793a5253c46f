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
from .numerics import AdapterSpec
from .pipeline import CompressionConfig, StageToggles, compress
from .query_select import QueryEmbedding, frame_query_scores, num_full_res_frames
from .spatial import AnchorStrategy, prune_window
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
)
from .temporal import FrameFeatureSequence, reduce_frames
from .tokens import CompressedTokenSequence, CompressionStats

__version__ = "0.1.0"

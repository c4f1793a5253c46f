"""Deterministic spatiotemporal compression of video token sequences.

Reduces a long video's visual tokens under a hard context-length budget in
three stages: windowed temporal deduplication, query-guided selection of
full-resolution frames with pooling for the rest, and per-position spatial
pruning against window anchors. Ships with binary file formats, a CLI, and
a synthetic benchmark harness.
"""

from .errors import (
    BudgetInfeasibleError,
    CompressionError,
    FileFormatError,
    InvalidConfigError,
)
from .framepos import FramePositionConfig, apply_position_encoding, encoding_vector
from .pipeline import CompressionConfig, StageToggles, compress
from .query_select import QueryEmbedding, frame_query_scores
from .spatial import AnchorStrategy
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
from .temporal import FrameFeatureSequence
from .tokens import CompressedTokenSequence, CompressionStats

__version__ = "0.1.0"

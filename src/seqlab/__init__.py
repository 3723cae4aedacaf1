"""seqlab: a sequence-labeling workflow toolkit.

Covers the non-neural parts of a named-entity-recognition pipeline:
dataset ingestion and normalization from heterogeneous sources,
annotation-scheme detection and translation (IO / BIO / BILOU),
projection between entity, word and token levels, strict and lenient
entity-level evaluation with micro/macro/per-class metrics, inference
post-processing with exact character offsets, learning-rate schedules
with warm restarts and early stopping, and multi-seed run aggregation.
The neural model itself stays behind the pluggable tagger interface.
"""

from .core import (
    OUTSIDE,
    AnnotationScheme,
    Chunk,
    Document,
    EntitySpan,
    Label,
    LabelSequence,
    Violation,
    ViolationKind,
    Word,
    parse_label,
    validate_sequence,
)
from .errors import SeqlabError
from .evaluation import (
    DatasetEvaluation,
    evaluate_on_dataset,
    extract_entities,
)
from .inference import (
    EchoTagger,
    LexiconTagger,
    Tagger,
    WordPrediction,
    load_tagger,
    predict,
    predict_batch,
    predict_file,
    split_words,
)
from .ingest import (
    DatasetSplit,
    analyze,
    parse_annotation_tool_export,
    parse_conll,
    prune,
    read_canonical_jsonl,
    set_up,
    split_documents,
    write_canonical_jsonl,
)
from .runs import RunRecord, aggregate, best_model
from .schedule import (
    ScheduleConfig,
    ScheduleState,
    from_preset,
    initial_state,
    lr_at,
    observe_validation,
    simulate,
)
from .schemes import (
    TokenAlignment,
    convert_scheme,
    detect_scheme,
    entities_to_word_labels,
    token_labels_to_word_labels,
    word_labels_to_token_labels,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotationScheme",
    "Chunk",
    "DatasetEvaluation",
    "DatasetSplit",
    "Document",
    "EchoTagger",
    "EntitySpan",
    "Label",
    "LabelSequence",
    "LexiconTagger",
    "OUTSIDE",
    "RunRecord",
    "ScheduleConfig",
    "ScheduleState",
    "SeqlabError",
    "Tagger",
    "TokenAlignment",
    "Violation",
    "ViolationKind",
    "Word",
    "WordPrediction",
    "aggregate",
    "analyze",
    "best_model",
    "convert_scheme",
    "detect_scheme",
    "entities_to_word_labels",
    "evaluate_on_dataset",
    "extract_entities",
    "from_preset",
    "initial_state",
    "load_tagger",
    "lr_at",
    "observe_validation",
    "parse_annotation_tool_export",
    "parse_conll",
    "parse_label",
    "predict",
    "predict_batch",
    "predict_file",
    "prune",
    "read_canonical_jsonl",
    "set_up",
    "simulate",
    "split_documents",
    "split_words",
    "token_labels_to_word_labels",
    "validate_sequence",
    "word_labels_to_token_labels",
    "write_canonical_jsonl",
]

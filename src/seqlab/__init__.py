"""seqlab: a sequence-labeling workflow toolkit.

Covers the non-neural parts of a named-entity-recognition pipeline:
dataset ingestion and normalization from heterogeneous sources,
annotation-scheme detection and translation (IO / BIO / BILOU),
projection between entity, word and token levels, strict and lenient
entity-level evaluation with micro/macro/per-class metrics, inference
post-processing with exact character offsets, learning-rate schedules
with warm restarts and early stopping, and multi-seed run aggregation.
The neural model itself stays behind the pluggable tagger interface.

Importing the package runs `errors`, `core`, `schemes`, `records` and
`ranges`, which every file command uses. `ingest`, `inference`,
`evaluation`, `runs` and `schedule` are registered lazily: each is in
`sys.modules` and bound here from the start, and its code compiles and
runs at the first read, write or deletion of one of its attributes,
after which it is a plain module. So a command runs only the modules it
uses, and a module the package runs at import binds a lazy one only as
a module, never a name from it. Each
public name in `__all__` resolves through the module `__getattr__`
(PEP 562) on the module that defines it, so ``seqlab.predict`` or
``from seqlab import *`` loads what it names.
"""

import importlib.util
import sys
import threading
import types

from . import core, errors, ranges, records, schemes

#: held while a lazy module runs: a thread that touches one meanwhile
#: waits for the whole module
_RUNNING = threading.RLock()


class _LazyModule(types.ModuleType):
    """A submodule that has not run yet. `importlib.util.LazyLoader` does
    the same, but on Python 3.10 to 3.12.1 a second thread that reads
    such a module while the first one runs it finds it half-run and
    raises AttributeError."""

    def __getattribute__(self, attr):
        _run(self)
        return types.ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _run(self)  # first: the module's code would undo the write
        types.ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _run(self)
        types.ModuleType.__delattr__(self, attr)


def _run(module: _LazyModule) -> None:
    """Run ``module`` unless it has run or runs in this thread (a read of
    its own attributes while its code runs)."""
    with _RUNNING:
        spec = types.ModuleType.__getattribute__(module, "__spec__")
        if type(module) is not _LazyModule or spec.loader_state is not None:
            return
        spec.loader_state = "running"
        try:
            spec.loader.exec_module(module)
        finally:
            object.__setattr__(module, "__class__", types.ModuleType)


def _lazy(name: str) -> _LazyModule:
    """The submodule ``name``, in `sys.modules` and not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule  # from here on, any attribute of ``module`` runs it
    sys.modules[spec.name] = module
    return module


ingest, inference, evaluation, runs, schedule = map(
    _lazy, ("ingest", "inference", "evaluation", "runs", "schedule")
)

#: every public name, under the module that defines it
_PUBLIC = {
    "core": (
        "OUTSIDE", "AnnotationScheme", "Chunk", "Document", "EntitySpan", "Label",
        "LabelSequence", "Violation", "ViolationKind", "Word", "parse_label",
        "validate_sequence",
    ),
    "errors": ("SeqlabError",),
    "evaluation": ("DatasetEvaluation", "evaluate_on_dataset", "extract_entities"),
    "inference": (
        "EchoTagger", "LexiconTagger", "Tagger", "WordPrediction", "load_tagger", "predict",
        "predict_batch", "predict_file", "split_words",
    ),
    "ingest": (
        "DatasetSplit", "analyze", "parse_annotation_tool_export", "parse_conll", "prune",
        "read_canonical_jsonl", "set_up", "split_documents", "write_canonical_jsonl",
    ),
    "runs": ("RunRecord", "aggregate", "best_model"),
    "schedule": (
        "ScheduleConfig", "ScheduleState", "from_preset", "initial_state", "lr_at",
        "observe_validation", "simulate",
    ),
    "schemes": (
        "TokenAlignment", "convert_scheme", "detect_scheme", "entities_to_word_labels",
        "token_labels_to_word_labels", "word_labels_to_token_labels",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(globals().keys() | _HOME.keys())

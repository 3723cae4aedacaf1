"""Value semantics of the record types: what they read, compare, show and reject.

Every record type is checked for its field values, equality by value,
its ``Name(field=value, ...)`` repr and a copy and pickle round trip; the
immutable ones also for rejecting assignment to a field. The trees that
analysis.json and aggregate.json hold are plain dicts and are checked the
same way: read by key, shown and compared as dicts, and assignable. Each
validation error keeps its type and message.
"""

import copy
import math
import pickle
import re
from collections import Counter

import pytest

from seqlab.core import (
    AnnotationScheme,
    Document,
    EntitySpan,
    Label,
    LabelSequence,
    Word,
)
from seqlab.errors import MalformedLabel, PrefixNotInScheme
from seqlab.evaluation import Counts
from seqlab.inference import (
    BatchItem,
    EchoTagger,
    FileSummary,
    LexiconTagger,
    WordPrediction,
)
from seqlab.ingest import DatasetSplit, analyze
from seqlab.runs import RunRecord, aggregate
from seqlab.schedule import ScheduleConfig, ScheduleState, SimulationRow
from seqlab.schemes import TokenAlignment

BIO = AnnotationScheme.BIO
PER = Label("B", "PER")
WORDS = (Word("Ann", 0, 3), Word("sings", 4, 9))
DEFAULT_CONFIG = dict(
    min_lr=0.0, restart_period_initial=1, restart_period_mult=1.0, max_epochs=1,
    early_stop_patience=None, early_stop_min_delta=0.0, warmup_fraction=0.0,
    steps_per_epoch=1, preset=None,
)

# (type, positional arguments, keyword arguments, every field and its value)
RECORDS = [
    (Label, ("B", "PER"), {}, dict(prefix="B", class_name="PER")),
    (Label, ("O",), {}, dict(prefix="O", class_name="")),
    (LabelSequence, ([PER],), {"scheme": BIO}, dict(labels=(PER,), scheme=BIO)),
    (
        EntitySpan, ("PER", 0, 3, "Ann"), {"word_start": 0, "word_end": 1},
        dict(class_name="PER", char_start=0, char_end=3, surface="Ann", word_start=0,
             word_end=1, probability=None),
    ),
    (
        Document, ("Ann sings",),
        {"words": list(WORDS), "entities": [EntitySpan("PER", 0, 3, "Ann")]},
        dict(text="Ann sings", words=WORDS, word_labels=None,
             entities=(EntitySpan("PER", 0, 3, "Ann"),)),
    ),
    (
        DatasetSplit, ("test", [Document("a")]), {},
        dict(name="test", documents=(Document("a"),)),
    ),
    (
        Counts, (Counter({("PER", "tp"): 1}),), {},
        dict(strict=Counter({("PER", "tp"): 1}), lenient=Counter(), words=Counter()),
    ),
    (
        TokenAlignment, ([(0, 1), (0, 0)],), {},
        dict(token_spans=((0, True), (0, False)), ignore_index=-100),
    ),
    (LexiconTagger, ({"Ann": "PER"},), {}, dict(lexicon={"Ann": "PER"}, scheme=BIO)),
    (EchoTagger, ({("Ann",): ("B-PER",)}, BIO), {}, dict(gold={("Ann",): ("B-PER",)}, scheme=BIO)),
    (
        WordPrediction, ("Ann", 0, 3, PER), {"probability": 0.5},
        dict(word="Ann", char_start=0, char_end=3, label=PER, probability=0.5),
    ),
    (BatchItem, (0, False), {"error": "bad"}, dict(index=0, ok=False, value=None, error="bad")),
    (FileSummary, (3, 1), {}, dict(processed=3, failed=1)),
    (
        RunRecord, ("r1", 7, {"f1": 1.0}), {},
        dict(run_name="r1", seed=7, reports={"f1": 1.0}, artifacts_path=""),
    ),
    (ScheduleConfig, (), {"max_lr": 0.1}, dict(max_lr=0.1, **DEFAULT_CONFIG)),
    (
        ScheduleState, (3,), {"epoch": 1},
        dict(cycle_length=3, epoch=1, position_in_cycle=0, best_val_loss=math.inf,
             epochs_since_improvement=0, stopped=False, restart_index=0),
    ),
    (SimulationRow, (1, 0.1, False), {}, dict(epoch=1, lr=0.1, stopped=False)),
]
MUTABLE = {Counts}

RUNS = (RunRecord("r1", 7, {"f1": 1.0}), RunRecord("r2", 8, {"f1": 3.0}))
F1 = dict(mean=2.0, uncertainty=1.0, n=2, per_run=[1.0, 3.0])


def metric_tree(*records):
    return aggregate(records, "f1")["metrics"]["f1"]


# The analysis, one metric's aggregate and the whole aggregate, each built
# by the function that returns it and named by the record type it was.
TREES = {
    "DatasetAnalysis": (
        analyze,
        ([DatasetSplit("test", [Document(
            "Ann sings", words=list(WORDS), entities=[EntitySpan("PER", 0, 3, "Ann")]
        )])],),
        {"scheme": BIO, "seed": 7},
        dict(num_documents={"test": 1}, num_words={"test": 2},
             entity_counts={"test": {"PER": 1}}, scheme_detected="BIO", pretokenized=True,
             seed=7),
    ),
    "MetricAggregate": (metric_tree, RUNS, {}, F1),
    "AggregateResult": (
        aggregate, (RUNS, "f1"), {}, dict(selection_metric="f1", best_run="r2", metrics={"f1": F1})
    ),
}


def record_id(case):
    return case[0].__name__


def read(value, name):
    return value[name] if isinstance(value, dict) else getattr(value, name)


@pytest.mark.parametrize(
    "cls, args, kwargs, fields",
    RECORDS + list(TREES.values()),
    ids=[*map(record_id, RECORDS), *TREES],
)
class TestRecordValues:
    def test_fields(self, cls, args, kwargs, fields):
        value = cls(*args, **kwargs)
        assert {name: read(value, name) for name in fields} == fields

    def test_equality_by_value(self, cls, args, kwargs, fields):
        first, second = cls(*args, **kwargs), cls(*args, **kwargs)
        assert first is not second
        assert first == second and not first != second
        assert first != object()

    def test_repr_names_every_field(self, cls, args, kwargs, fields):
        value = cls(*args, **kwargs)
        if isinstance(value, dict):
            assert repr(value) == repr(fields)
            return
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(value) == f"{cls.__name__}({shown})"

    def test_copy_and_pickle_keep_the_value(self, cls, args, kwargs, fields):
        value = cls(*args, **kwargs)
        assert copy.copy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value

    def test_fields_are_read_only_unless_mutable(self, cls, args, kwargs, fields):
        value = cls(*args, **kwargs)
        for name, field_value in fields.items():
            if isinstance(value, dict):
                value[name] = field_value
            elif cls in MUTABLE:
                setattr(value, name, field_value)
            else:
                with pytest.raises(AttributeError):
                    setattr(value, name, field_value)
        assert {name: read(value, name) for name in fields} == fields


def entity(start, end, surface, **kwargs):
    return EntitySpan("X", start, end, surface, **kwargs)


# (construction, error type, the whole message)
INVALID = [
    (lambda: Label("X", "PER"), MalformedLabel, "unknown label prefix 'X'"),
    (lambda: Label("O", "PER"), MalformedLabel, "the outside label carries no class name"),
    (lambda: Label("B"), MalformedLabel, "prefix 'B' requires a class name"),
    (lambda: Label("B", "O"), MalformedLabel, '"O" is the outside label, not a class name'),
    (
        lambda: LabelSequence((PER, Label("L", "PER")), BIO), PrefixNotInScheme,
        "prefix of 'L-PER' is not part of scheme BIO",
    ),
    (lambda: EntitySpan("", 0, 1, "a"), ValueError, "entity class_name cannot be empty"),
    (lambda: EntitySpan("O", 0, 1, "a"), ValueError,
     '"O" is the outside label, not an entity class'),
    (lambda: entity(-1, 1, "a"), ValueError, "invalid char span [-1, 1)"),
    (lambda: entity(1, 1, ""), ValueError, "invalid char span [1, 1)"),
    (lambda: entity(0, 1, "a", word_start=0), ValueError,
     "word_start and word_end must be set together"),
    (lambda: entity(0, 1, "a", word_start=1, word_end=1), ValueError,
     "invalid word span [1, 1)"),
    (lambda: entity(0, 1, "a", probability=1.5), ValueError, "probability out of [0, 1]: 1.5"),
    (
        lambda: Document("ab", words=[Word("a", 0, 1), Word("a", 0, 1)]), ValueError,
        "word spans overlap or decrease at Word(surface='a', char_start=0, char_end=1)",
    ),
    (
        lambda: Document("ab", words=[Word("", 1, 1)]), ValueError,
        "empty or inverted word span at Word(surface='', char_start=1, char_end=1)",
    ),
    (
        lambda: Document("ab", words=[Word("abc", 0, 3)]), ValueError,
        "word span out of text bounds: Word(surface='abc', char_start=0, char_end=3)",
    ),
    (
        lambda: Document("ab", words=[Word("b", 0, 1)]), ValueError,
        "word surface 'b' does not match text slice 'a'",
    ),
    (lambda: Document("a", word_labels=LabelSequence((), BIO)), ValueError,
     "word_labels require words"),
    (
        lambda: Document("ab", words=[Word("ab", 0, 2)], word_labels=LabelSequence((), BIO)),
        ValueError, "0 labels for 1 words",
    ),
    (
        lambda: Document("ab", entities=[entity(1, 2, "b"), entity(0, 1, "a")]), ValueError,
        "entities overlap or are unsorted at EntitySpan(class_name='X', char_start=0, "
        "char_end=1, surface='a', word_start=None, word_end=None, probability=None)",
    ),
    (
        lambda: Document("ab", entities=[entity(1, 3, "b")]), ValueError,
        "entity span out of text bounds: EntitySpan(class_name='X', char_start=1, "
        "char_end=3, surface='b', word_start=None, word_end=None, probability=None)",
    ),
    (
        lambda: Document("ab", entities=[entity(0, 1, "b")]), ValueError,
        "entity surface 'b' does not match text slice 'a'",
    ),
    (
        lambda: Document(" x", entities=[EntitySpan("PER", 0, 2, " x")]), ValueError,
        "entity surface ' x' starts or ends with whitespace",
    ),
    (
        lambda: Document("x\u2028", entities=[entity(0, 2, "x\u2028")]), ValueError,
        "entity surface 'x\\u2028' starts or ends with whitespace",
    ),
    (
        lambda: Document(
            "ab", words=[Word("ab", 0, 2)], entities=[entity(0, 1, "a", word_start=0, word_end=2)]
        ),
        ValueError,
        "entity word span out of range: EntitySpan(class_name='X', char_start=0, "
        "char_end=1, surface='a', word_start=0, word_end=2, probability=None)",
    ),
    (lambda: DatasetSplit("dev", ()), ValueError,
     "split name must be one of ('train', 'val', 'test')"),
    (lambda: TokenAlignment([(1, True)]), ValueError, "word 0 contributes no tokens"),
    (lambda: TokenAlignment([(0, False)]), ValueError, "first token of word 0 not marked"),
    (lambda: TokenAlignment([(0, True), (0, True)]), ValueError, "word 0 has two first tokens"),
    (
        lambda: TokenAlignment([(0, True), (1, True), (0, False)]), ValueError,
        "token word indices must be non-decreasing",
    ),
    (lambda: ScheduleConfig(max_lr=0), ValueError, "max_lr must be > 0"),
    (lambda: ScheduleConfig(max_lr=1, min_lr=2), ValueError,
     "min_lr must satisfy 0 <= min_lr <= max_lr"),
    (lambda: ScheduleConfig(max_lr=1, restart_period_initial=0), ValueError,
     "restart_period_initial must be >= 1"),
    (lambda: ScheduleConfig(max_lr=1, restart_period_mult=0.5), ValueError,
     "restart_period_mult must be >= 1"),
    (lambda: ScheduleConfig(max_lr=1, max_epochs=0), ValueError, "max_epochs must be >= 1"),
    (lambda: ScheduleConfig(max_lr=1, early_stop_patience=-1), ValueError,
     "early_stop_patience must be >= 0 (or None to disable)"),
    (lambda: ScheduleConfig(max_lr=1, early_stop_min_delta=-1), ValueError,
     "early_stop_min_delta must be >= 0"),
    (lambda: ScheduleConfig(max_lr=1, warmup_fraction=1), ValueError,
     "warmup_fraction must be in [0, 1)"),
    (lambda: ScheduleConfig(max_lr=1, steps_per_epoch=0), ValueError,
     "steps_per_epoch must be >= 1"),
    (lambda: ScheduleState(1, position_in_cycle=2), ValueError,
     "position_in_cycle must lie in [0, cycle_length]"),
]


@pytest.mark.parametrize("build, error, message", INVALID)
def test_validation_errors_keep_type_and_message(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_unknown_config_field_names_the_type_and_the_field():
    with pytest.raises(TypeError, match=r"ScheduleConfig.*'warmup'"):
        ScheduleConfig(max_lr=1, warmup=0.1)


@pytest.mark.parametrize("scheme", list(AnnotationScheme), ids=lambda s: s.value)
def test_schemes_compare_hash_pickle_and_coerce_as_members(scheme):
    """An AnnotationScheme hashes by identity, which its equality is."""
    others = [s for s in AnnotationScheme if s is not scheme]
    assert scheme == scheme and all(scheme != other for other in others)
    assert scheme != scheme.value
    assert hash(scheme) == hash(AnnotationScheme[scheme.name]) == hash(copy.copy(scheme))
    assert pickle.loads(pickle.dumps(scheme)) is scheme
    assert copy.deepcopy(scheme) is scheme
    for value in (scheme, scheme.value, scheme.value.lower(), scheme.name):
        assert AnnotationScheme.coerce(value) is scheme
    table = {scheme: 1}
    assert table[AnnotationScheme(scheme.value)] == 1 and scheme.value not in table
    assert len({*AnnotationScheme, *AnnotationScheme}) == 3
    with pytest.raises(ValueError, match="unknown annotation scheme: 'BIOES'"):
        AnnotationScheme.coerce("BIOES")

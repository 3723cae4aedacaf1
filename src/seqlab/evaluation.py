"""Entity extraction and metric computation.

Two extraction modes exist because model output may violate the scheme's
transition rules. Strict mode drops everything that is not part of a
well-formed chunk: under BIO a chunk must be opened by B, under BILOU it
must be opened by B and closed by L (or be a single U). Lenient mode
recovers entities from inconsistent runs with the same transition tables
the classic CoNLL evaluation script and its descendants use, so numbers
are comparable with those tools. Both modes, and the scheme violations,
come from one scan of each sequence (`seqlab.core.decode`), so dataset
evaluation decodes every gold and predicted sequence once.

All scoring fills one `Counts` value, which ``+`` pools; `Counts.report`
builds every report. Metrics are precision, recall and F1 per class,
micro-averaged over pooled counts, and macro-averaged over classes with
nonzero gold support. 0/0 cells are 0 so aggregation stays stable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .core import AnnotationScheme, Chunk, Document, FrozenRecord, LabelSequence, Word, decode
from .errors import LengthMismatch, MissingGold, OverlapWithinList
from .inference import _tag_and_parse, _word_spans
from .ingest import _document_row, _Row, _synthetic_offsets
from .schemes import _span_labels

EXTRACTION_MODES = ("strict", "lenient")


def extract_entities(seq: LabelSequence, mode: str = "strict") -> list[Chunk]:
    """Decode entity chunks from a label sequence.

    Strict mode emits only chunks opened by a legal opener and continued
    legally; labels at violation positions are dropped. Lenient mode
    follows the reference transition-table behavior: an I-X after O or
    after a different class starts a new chunk, an unterminated BILOU
    chunk still counts, and so on.
    """
    if mode not in EXTRACTION_MODES:
        raise ValueError(f"mode must be one of {EXTRACTION_MODES}, got {mode!r}")
    decoding = decode(seq)
    return decoding.strict if mode == "strict" else decoding.lenient


class Metrics(NamedTuple):
    """Precision, recall and F1; per-class rows also carry gold support."""

    precision: float
    recall: float
    f1: float
    support: int | None = None

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, support: int | None = None) -> "Metrics":
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return cls(precision, recall, f1, support)

    def as_dict(self) -> dict[str, float]:
        out = {"precision": self.precision, "recall": self.recall, "f1": self.f1}
        if self.support is not None:
            out["support"] = self.support
        return out


class EvalReport(NamedTuple):
    """Per-class, micro and macro metrics at one level in one mode.

    The confusion matrix (gold class x predicted class, including "O")
    is defined at word level and is None for entity-level reports.
    Macro averages skip classes with zero gold support.
    """

    per_class: Mapping[str, Metrics]
    micro: Metrics
    macro: Metrics
    level: str  # "entity" | "word"
    mode: str  # "strict" | "lenient"
    confusion: Mapping[str, Mapping[str, int]] | None = None


def _word_classes(seq: LabelSequence) -> list[str]:
    """Each position's class without its prefix; "O" outside entities."""
    return [label.class_name or "O" for label in seq.labels]


class Counts:
    """The counts behind every report; ``a + b`` pools two.

    ``strict`` and ``lenient`` count entity outcomes keyed by
    (class, "tp" | "fp" | "fn"); ``words`` counts (gold class,
    predicted class) pairs, with "O" outside entities.
    """

    __slots__ = ("strict", "lenient", "words")

    def __init__(
        self,
        strict: Counter | None = None,
        lenient: Counter | None = None,
        words: Counter | None = None,
    ):
        self.strict = Counter() if strict is None else strict
        self.lenient = Counter() if lenient is None else lenient
        self.words = Counter() if words is None else words

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.strict, self.lenient, self.words) == (
            other.strict, other.lenient, other.words
        )

    def __repr__(self) -> str:
        return f"Counts(strict={self.strict!r}, lenient={self.lenient!r}, words={self.words!r})"

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(
            self.strict + other.strict, self.lenient + other.lenient, self.words + other.words
        )

    def add_chunks(self, mode: str, gold: Sequence[Chunk], pred: Sequence[Chunk]) -> None:
        """Count one sequence's chunks: a predicted chunk is a true positive
        iff an identical (class, start, end) chunk is in gold."""
        outcomes = self.strict if mode == "strict" else self.lenient
        unmatched = set(gold)
        for c in pred:
            if c in unmatched:
                unmatched.remove(c)
                outcomes[c.class_name, "tp"] += 1
            else:
                outcomes[c.class_name, "fp"] += 1
        for cls, _, _ in unmatched:
            outcomes[cls, "fn"] += 1

    def add_words(self, gold: LabelSequence, pred: LabelSequence) -> None:
        self.words.update(zip(_word_classes(gold), _word_classes(pred)))

    def report(self, level: str, mode: str, classes: Iterable[str] = ()) -> EvalReport:
        """The report at one level in one mode. Every class that occurs in
        the counts, and every one in ``classes``, gets a per-class row."""
        names = {cls for cls, _ in self.strict} | {cls for cls, _ in self.lenient}
        names.update(cls for pair in self.words for cls in pair if cls != "O")
        names = sorted(names.union(classes))
        confusion = None
        if level == "word":
            outcomes: Counter = Counter()
            for (gold, pred), n in self.words.items():
                if gold != "O":
                    outcomes[gold, "tp" if gold == pred else "fn"] += n
                if pred not in ("O", gold):
                    outcomes[pred, "fp"] += n
            labels = sorted({*names, "O"})
            confusion = {g: {p: self.words[g, p] for p in labels} for g in labels}
        else:
            outcomes = self.strict if mode == "strict" else self.lenient
        per_class = {}
        for cls in names:
            tp, fn = outcomes[cls, "tp"], outcomes[cls, "fn"]
            per_class[cls] = Metrics.from_counts(tp, outcomes[cls, "fp"], fn, support=tp + fn)
        micro = Metrics.from_counts(
            *(sum(outcomes[cls, kind] for cls in names) for kind in ("tp", "fp", "fn"))
        )
        supported = [m for m in per_class.values() if m.support]
        macro = Metrics(*(
            sum(getattr(m, name) for m in supported) / len(supported) if supported else 0.0
            for name in ("precision", "recall", "f1")
        ))
        return EvalReport(per_class, micro, macro, level, mode, confusion)


def _check_no_overlap(chunks: Sequence[Chunk], which: str):
    """Every chunk spans ``0 <= word_start < word_end``, and none overlap."""
    ordered = sorted(chunks, key=lambda c: c.word_start)
    for c in ordered:
        if c.word_start < 0 or c.word_end <= c.word_start:
            raise ValueError(f"invalid {which} chunk span [{c.word_start}, {c.word_end})")
    for a, b in zip(ordered, ordered[1:]):
        if b.word_start < a.word_end:
            raise OverlapWithinList(f"{which} chunks overlap: {a} and {b}")


def _check_classes(classes: Iterable[str]) -> set[str]:
    names = set(classes)
    if names & {"O", ""}:
        raise ValueError('"O" and empty strings are not entity classes')
    return names


def score_entities(
    gold: Sequence[Chunk], pred: Sequence[Chunk], classes: Iterable[str], *, mode: str = "strict"
) -> EvalReport:
    """Exact-boundary entity scoring for a single sequence; every class
    in ``classes`` gets a per-class row.

    A predicted chunk is a true positive iff an identical
    (class, start, end) chunk exists in gold.
    """
    classes = _check_classes(classes)
    _check_no_overlap(gold, "gold")
    _check_no_overlap(pred, "predicted")
    counts = Counts()
    counts.add_chunks(mode, gold, pred)
    return counts.report("entity", mode, classes)


def score_words(
    gold: LabelSequence, pred: LabelSequence, classes: Iterable[str], *, mode: str = "strict"
) -> EvalReport:
    """Per-word scoring after stripping scheme prefixes.

    B-PER and I-PER both count as class PER, so boundary encoding does
    not affect word-level numbers. "O" is excluded from per-class
    metrics but appears in the confusion matrix.
    """
    classes = _check_classes(classes)
    if len(gold) != len(pred):
        raise LengthMismatch(f"gold has {len(gold)} labels, prediction {len(pred)}")
    counts = Counts()
    counts.add_words(gold, pred)
    return counts.report("word", mode, classes)


class DatasetEvaluation(FrozenRecord):
    """Full evaluation result: strict entity + word, lenient entity.

    Addressable like the serialized form: ``result["micro"]["entity"]["f1"]``
    reads from the strict block (the default), ``result["strict"]`` and
    ``result["lenient"]`` select a block explicitly. Each access builds
    only the block it reads.
    """

    __slots__ = ("strict_entity", "strict_word", "lenient_entity")

    def __init__(
        self, strict_entity: EvalReport, strict_word: EvalReport, lenient_entity: EvalReport
    ):
        object.__setattr__(self, "strict_entity", strict_entity)
        object.__setattr__(self, "strict_word", strict_word)
        object.__setattr__(self, "lenient_entity", lenient_entity)

    @classmethod
    def from_counts(cls, counts: Counts) -> "DatasetEvaluation":
        return cls(
            counts.report("entity", "strict"),
            counts.report("word", "strict"),
            counts.report("entity", "lenient"),
        )

    def _block(self, mode: str) -> dict:
        reports = {"entity": self.lenient_entity}
        if mode == "strict":
            reports = {"entity": self.strict_entity, "word": self.strict_word}
        out = {
            name: {level: getattr(r, name).as_dict() for level, r in reports.items()}
            for name in ("micro", "macro")
        }
        out["per_class"] = {}
        for cls in sorted({cls for r in reports.values() for cls in r.per_class}):
            rows = {level: r.per_class.get(cls) for level, r in reports.items()}
            out["per_class"][cls] = {lvl: m.as_dict() for lvl, m in rows.items() if m is not None}
        if mode == "strict" and self.strict_word.confusion is not None:
            out["confusion"] = {g: dict(row) for g, row in self.strict_word.confusion.items()}
        return out

    def as_dict(self) -> dict:
        return {mode: self._block(mode) for mode in EXTRACTION_MODES}

    def __getitem__(self, key: str):
        if key in EXTRACTION_MODES:
            return self._block(key)
        return self._block("strict")[key]


def _cut_at(spans: Iterable[tuple[int, int]], cuts: Sequence[int]) -> list[tuple[int, int]]:
    """Each (start, end) span cut at every one of the sorted ``cuts``
    strictly inside it."""
    pieces = []
    for start, end in spans:
        bounds = [start, *cuts[bisect_right(cuts, start) : bisect_left(cuts, end)], end]
        pieces.extend(zip(bounds, bounds[1:]))
    return pieces


def _split_at_entities(text: str, words: Sequence[Word], entities) -> tuple[Word, ...]:
    """Words cut at every entity boundary strictly inside one; every
    piece is an exact text slice."""
    cuts = sorted({e.char_start for e in entities} | {e.char_end for e in entities})
    pieces = _cut_at([w[1:] for w in words], cuts)
    return tuple(Word(text[a:b], a, b) for a, b in pieces)


def _gold(row: _Row, scheme: AnnotationScheme) -> tuple[Sequence[str], LabelSequence]:
    """Word surfaces and gold labels of a row: its words and labels, else
    its words, or its whitespace-split text, cut at every entity boundary
    and labeled with its entities."""
    if row.labels is not None:
        return row.surfaces, LabelSequence(row.labels, scheme)
    if row.entities is None:
        raise MissingGold(f"document has no gold annotation: {row.text[:50]!r}")
    offsets = (row.offsets or _synthetic_offsets(row.surfaces)) if row.surfaces else None
    cuts = sorted({offset for start, end, _ in row.entities for offset in (start, end)})
    pieces = _cut_at(zip(*offsets) if offsets else _word_spans(row.text), cuts)
    return [row.text[a:b] for a, b in pieces], _span_labels(pieces, row.entities, scheme)


def count_documents(tagger, documents: Iterable[Document], scheme: AnnotationScheme) -> Counts:
    """Tag and count each document. ``scheme`` is the gold scheme, and the
    prediction scheme only for taggers that declare none. The documents
    are one tagger run: each distinct predicted label is parsed once."""
    return _count_rows(tagger, map(_document_row, documents), scheme)


def _count_rows(tagger, rows: Iterable[_Row], scheme: AnnotationScheme) -> Counts:
    """`count_documents` of rows, as `seqlab.ingest` reads them."""
    counts = Counts()
    tables = {}
    for row in rows:
        surfaces, gold_seq = _gold(row, scheme)
        pred_seq = _tag_and_parse(tagger, surfaces, scheme, tables)[0]
        gold, pred = decode(gold_seq), decode(pred_seq)
        counts.add_chunks("strict", gold.strict, pred.strict)
        counts.add_chunks("lenient", gold.lenient, pred.lenient)
        counts.add_words(gold_seq, pred_seq)
    return counts


def evaluate_on_dataset(tagger, split, scheme: AnnotationScheme) -> DatasetEvaluation:
    """Run a tagger over a dataset split and compute all report variants.

    The counts are pooled over documents, so the result is independent
    of document order.
    """
    return DatasetEvaluation.from_counts(count_documents(tagger, split.documents, scheme))

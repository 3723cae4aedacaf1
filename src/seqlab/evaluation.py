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

Metrics are precision, recall and F1 per class, micro-averaged over
pooled counts, and macro-averaged over classes with nonzero gold
support. 0/0 cells are defined as 0 so aggregation stays stable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import AnnotationScheme, Chunk, Document, LabelSequence, TagSet, decode
from .errors import LengthMismatch, MissingGold, OverlapWithinList
from .inference import split_words, tagged_labels
from .schemes import entities_to_word_labels

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


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float

    def as_dict(self) -> dict[str, float]:
        return {"precision": self.precision, "recall": self.recall, "f1": self.f1}


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int

    def as_dict(self) -> dict[str, float]:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "support": self.support,
        }


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class EvalReport:
    """Per-class, micro and macro metrics at one level in one mode.

    The confusion matrix (gold class x predicted class, including "O")
    is defined at word level and is None for entity-level reports.
    Macro averages skip classes with zero gold support.
    """

    per_class: Mapping[str, ClassMetrics]
    micro: Metrics
    macro: Metrics
    level: str  # "entity" | "word"
    mode: str  # "strict" | "lenient"
    confusion: Mapping[str, Mapping[str, int]] | None = None

    def as_dict(self) -> dict:
        out = {
            "level": self.level,
            "mode": self.mode,
            "micro": self.micro.as_dict(),
            "macro": self.macro.as_dict(),
            "per_class": {c: m.as_dict() for c, m in self.per_class.items()},
        }
        if self.confusion is not None:
            out["confusion"] = {g: dict(row) for g, row in self.confusion.items()}
        return out


def _report_from_counts(
    counts: Mapping[str, Sequence[int]],
    level: str,
    mode: str,
    confusion=None,
) -> EvalReport:
    per_class = {}
    for cls in sorted(counts):
        tp, fp, fn = counts[cls]
        p, r, f1 = _prf(tp, fp, fn)
        per_class[cls] = ClassMetrics(p, r, f1, support=tp + fn)
    pooled = [sum(c[i] for c in counts.values()) for i in range(3)]
    micro = Metrics(*_prf(*pooled))
    supported = [m for m in per_class.values() if m.support > 0]
    if supported:
        macro = Metrics(
            sum(m.precision for m in supported) / len(supported),
            sum(m.recall for m in supported) / len(supported),
            sum(m.f1 for m in supported) / len(supported),
        )
    else:
        macro = Metrics(0.0, 0.0, 0.0)
    return EvalReport(per_class, micro, macro, level, mode, confusion)


def _check_no_overlap(chunks: Sequence[Chunk], which: str):
    ordered = sorted(chunks, key=lambda c: c.word_start)
    for a, b in zip(ordered, ordered[1:]):
        if b.word_start < a.word_end:
            raise OverlapWithinList(f"{which} chunks overlap: {a} and {b}")


def _count_entities(
    counts: dict[str, list[int]], gold: Sequence[Chunk], pred: Sequence[Chunk]
) -> None:
    """Add one sequence's exact-match tp, fp and fn per class to counts."""
    gold_set = set(gold)
    pred_set = set(pred)
    for c in pred:
        counts.setdefault(c.class_name, [0, 0, 0])[0 if c in gold_set else 1] += 1
    for c in gold:
        if c not in pred_set:
            counts.setdefault(c.class_name, [0, 0, 0])[2] += 1


def score_entities(
    gold: Sequence[Chunk],
    pred: Sequence[Chunk],
    tagset: TagSet,
    *,
    mode: str = "strict",
) -> EvalReport:
    """Exact-boundary entity scoring for a single sequence.

    A predicted chunk is a true positive iff an identical
    (class, start, end) chunk exists in gold.
    """
    _check_no_overlap(gold, "gold")
    _check_no_overlap(pred, "predicted")
    counts = {cls: [0, 0, 0] for cls in tagset}
    _count_entities(counts, gold, pred)
    return _report_from_counts(counts, "entity", mode)


def _word_classes(seq: LabelSequence) -> list[str]:
    """Each position's class without its prefix; "O" outside entities."""
    return [label.class_name or "O" for label in seq.labels]


def _word_counts_and_confusion(
    pairs: Counter, classes: Iterable[str]
) -> tuple[dict[str, list[int]], dict[str, dict[str, int]]]:
    """Per-class tp/fp/fn and the square confusion matrix from counted
    (gold class, predicted class) pairs."""
    counts = {cls: [0, 0, 0] for cls in classes}
    for (g, p), n in pairs.items():
        if g == p:
            if g != "O":
                counts.setdefault(g, [0, 0, 0])[0] += n
            continue
        if p != "O":
            counts.setdefault(p, [0, 0, 0])[1] += n
        if g != "O":
            counts.setdefault(g, [0, 0, 0])[2] += n
    labels_all = sorted({c for pair in pairs for c in pair} | set(counts) | {"O"})
    square = {g: {p: pairs[g, p] for p in labels_all} for g in labels_all}
    return counts, square


def score_words(
    gold: LabelSequence, pred: LabelSequence, tagset: TagSet, *, mode: str = "strict"
) -> EvalReport:
    """Per-word scoring after stripping scheme prefixes.

    B-PER and I-PER both count as class PER, so boundary encoding does
    not affect word-level numbers. "O" is excluded from per-class
    metrics but appears in the confusion matrix.
    """
    if len(gold) != len(pred):
        raise LengthMismatch(f"gold has {len(gold)} labels, prediction {len(pred)}")
    pairs = Counter(zip(_word_classes(gold), _word_classes(pred)))
    counts, confusion = _word_counts_and_confusion(pairs, tagset)
    return _report_from_counts(counts, "word", mode, confusion)


@dataclass(frozen=True)
class DatasetEvaluation:
    """Full evaluation result: strict entity + word, lenient entity.

    Addressable like the serialized form: ``result["micro"]["entity"]["f1"]``
    reads from the strict block (the default), ``result["strict"]`` and
    ``result["lenient"]`` select a block explicitly. Each access builds
    only the block it reads.
    """

    strict_entity: EvalReport
    strict_word: EvalReport
    lenient_entity: EvalReport

    def _block(self, mode: str) -> dict:
        if mode == "strict":
            entity, word = self.strict_entity, self.strict_word
        else:
            entity, word = self.lenient_entity, None
        averages = {}
        for name in ("micro", "macro"):
            averages[name] = {"entity": getattr(entity, name).as_dict()}
            if word is not None:
                averages[name]["word"] = getattr(word, name).as_dict()
        per_class = {}
        for cls in sorted(set(entity.per_class) | set(word.per_class if word else ())):
            per_class[cls] = {}
            if cls in entity.per_class:
                per_class[cls]["entity"] = entity.per_class[cls].as_dict()
            if word is not None and cls in word.per_class:
                per_class[cls]["word"] = word.per_class[cls].as_dict()
        out = dict(averages)
        out["per_class"] = per_class
        if word is not None and word.confusion is not None:
            out["confusion"] = {g: dict(row) for g, row in word.confusion.items()}
        return out

    def as_dict(self) -> dict:
        return {mode: self._block(mode) for mode in EXTRACTION_MODES}

    def __getitem__(self, key: str):
        if key in EXTRACTION_MODES:
            return self._block(key)
        return self._block("strict")[key]


def _gold_words_and_labels(doc: Document, scheme: AnnotationScheme):
    if doc.word_labels is not None:
        return doc.words, doc.word_labels
    if doc.entities is not None:
        words = doc.words
        if words is None:
            words = split_words(doc.text)
            doc = Document(doc.text, words=words, entities=doc.entities)
        labels = entities_to_word_labels(doc, scheme)
        return words, labels
    raise MissingGold(f"document has no gold annotation: {doc.text[:50]!r}")


def evaluate_on_dataset(tagger, split, scheme: AnnotationScheme) -> DatasetEvaluation:
    """Run a tagger over a dataset split and compute all report variants.

    Each gold and predicted sequence is decoded once; the strict and
    lenient chunks and the word classes of every document are pooled
    into one set of counts, so the result is independent of document
    order.
    """
    entity_counts = {mode: {} for mode in EXTRACTION_MODES}
    word_pairs: Counter = Counter()

    for doc in split.documents:
        words, gold_seq = _gold_words_and_labels(doc, scheme)
        pred_seq = tagged_labels(tagger, [w.surface for w in words], scheme)
        gold, pred = decode(gold_seq), decode(pred_seq)
        _count_entities(entity_counts["strict"], gold.strict, pred.strict)
        _count_entities(entity_counts["lenient"], gold.lenient, pred.lenient)
        word_pairs.update(zip(_word_classes(gold_seq), _word_classes(pred_seq)))

    classes = set(entity_counts["strict"]) | set(entity_counts["lenient"])
    classes.update(c for pair in word_pairs for c in pair if c != "O")
    for pool in entity_counts.values():
        for cls in classes:
            pool.setdefault(cls, [0, 0, 0])

    word_counts, confusion = _word_counts_and_confusion(word_pairs, classes)
    return DatasetEvaluation(
        _report_from_counts(entity_counts["strict"], "entity", "strict"),
        _report_from_counts(word_counts, "word", "strict", confusion),
        _report_from_counts(entity_counts["lenient"], "entity", "lenient"),
    )

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

All scoring fills one `Counts` value, which ``+`` pools. `Counts.report`
builds the one report, a `DatasetEvaluation`: the plain dict tree that
`evaluate` writes as JSON and `seqlab.runs.aggregate` reads, with a
strict block (entity and word level, and the word confusion matrix) and
a lenient block (entity level). Metrics are precision, recall and F1 per
class, micro-averaged over pooled counts, and macro-averaged over
classes with nonzero gold support. 0/0 cells are 0 so aggregation stays
stable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from functools import partial
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence, TextIO

from . import inference, ranges
from .core import AnnotationScheme, Chunk, Document, LabelSequence, decode
from .errors import MissingGold, SeqlabError, UnresolvableSource
from .inference import _tag_and_parse, _word_spans
from .ingest import _document_row, _one_scheme, _range_records, _Row, _rows, _synthetic_offsets
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


def _word_classes(seq: LabelSequence) -> list[str]:
    """Each position's class without its prefix; "O" outside entities."""
    return [label.class_name or "O" for label in seq.labels]


class Counts:
    """The counts behind the report; ``a + b`` pools two.

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

    def report(self) -> "DatasetEvaluation":
        """The report tree. Each mode's block holds micro and macro
        metrics per level, a per-class row for every class that occurs in
        the counts and, in the strict block, the word confusion matrix
        (gold class x predicted class, including "O")."""
        names = {cls for cls, _ in self.strict} | {cls for cls, _ in self.lenient}
        names.update(cls for pair in self.words for cls in pair if cls != "O")
        names = sorted(names)
        words: Counter = Counter()
        for (gold, pred), n in self.words.items():
            if gold != "O":
                words[gold, "tp" if gold == pred else "fn"] += n
            if pred not in ("O", gold):
                words[pred, "fp"] += n
        strict = _block(names, entity=self.strict, word=words)
        labels = sorted({*names, "O"})
        strict["confusion"] = {g: {p: self.words[g, p] for p in labels} for g in labels}
        return DatasetEvaluation(strict=strict, lenient=_block(names, entity=self.lenient))


def _scores(tp: int, fp: int, fn: int) -> dict[str, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def _block(names: Sequence[str], **outcomes: Counter) -> dict:
    """One mode's block from its (class, "tp" | "fp" | "fn") counts per
    level. Per-class rows carry gold support; macro averages skip classes
    without it."""
    micro, macro, per_class = {}, {}, {cls: {} for cls in names}
    for level, counts in outcomes.items():
        for cls in names:
            tp, fn = counts[cls, "tp"], counts[cls, "fn"]
            per_class[cls][level] = {**_scores(tp, counts[cls, "fp"], fn), "support": tp + fn}
        micro[level] = _scores(
            *(sum(counts[cls, kind] for cls in names) for kind in ("tp", "fp", "fn"))
        )
        supported = [row[level] for row in per_class.values() if row[level]["support"]]
        macro[level] = {
            name: sum(row[name] for row in supported) / len(supported) if supported else 0.0
            for name in ("precision", "recall", "f1")
        }
    return {"micro": micro, "macro": macro, "per_class": per_class}


class DatasetEvaluation(dict):
    """The evaluation report: ``{"strict": block, "lenient": block}``, the
    tree `evaluate` writes as JSON. A key other than a mode reads from
    the strict block, so ``result["micro"]["entity"]["f1"]`` is the
    strict entity micro F1."""

    __slots__ = ()

    def __missing__(self, key):
        if key in EXTRACTION_MODES:
            raise KeyError(key)
        return self["strict"][key]


def _cut_at(spans: Iterable[tuple[int, int]], cuts: Sequence[int]) -> list[tuple[int, int]]:
    """Each (start, end) span cut at every one of the sorted ``cuts``
    strictly inside it."""
    pieces = []
    for start, end in spans:
        bounds = [start, *cuts[bisect_right(cuts, start) : bisect_left(cuts, end)], end]
        pieces.extend(zip(bounds, bounds[1:]))
    return pieces


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


def _count_file(
    path: Path, uri: str, scheme: AnnotationScheme | None, processes: int
) -> Counts:
    """The `Counts` of `evaluate`: the tagger ``uri`` over the split file at
    ``path``, whose labels are in ``scheme`` (None: the scheme read off
    them), its ranges counted through `ranges._split` in up to
    ``processes`` processes. The tagger loads once, before the fork; where
    it does not, the file is read in one part, which raises that error only
    once its rows read, as a data error comes first."""
    if not path.is_file():  # before `_split`, which opens a pipe it is given
        raise UnresolvableSource(f"missing split file: {path}")
    try:
        tagger = inference.load_tagger(uri)
    except SeqlabError as err:
        tagger, processes = err, 1
    work = partial(_evaluate_range, path=path, tagger=tagger, scheme=scheme)
    summaries, _ = ranges._split(
        path, processes, ranges._EVALUATE_MIN_RANGE_BYTES, work, _one_scheme)
    return sum((_read_counts(summary[1:]) for summary in summaries), Counts())


def _evaluate_range(
    src: BinaryIO,
    dst: TextIO,
    lineno: int,
    size: int | None,
    *,
    path: Path,
    tagger,
    scheme: AnnotationScheme | None,
) -> list:
    """The range `Work` of `evaluate`: the records in the next ``size``
    bytes of ``src``, or in all the rest, of the file at ``path``, read in
    ``scheme`` or, where it is None, in the scheme read off their own
    labels, and counted by ``tagger``, or the error it failed to load with.
    Its summary is that scheme's name, then the `Counts` as one list of
    [class, class, count] triples per counter; it writes nothing."""
    rows, scheme = _rows(_range_records(src, size, lineno, path), scheme)
    if isinstance(tagger, SeqlabError):
        raise tagger
    counts = _count_rows(tagger, rows, scheme)
    return [scheme.value, *([[*key, n] for key, n in c.items()] for c in (
        counts.strict, counts.lenient, counts.words))]


def _read_counts(fields: list) -> Counts:
    """The `Counts` of the triples of an `_evaluate_range` summary."""
    return Counts(*(Counter({(a, b): n for a, b, n in c}) for c in fields))


def evaluate_on_dataset(tagger, split, scheme: AnnotationScheme) -> DatasetEvaluation:
    """Run a tagger over a dataset split and build its report.

    The counts are pooled over documents, so the result is independent
    of document order.
    """
    return count_documents(tagger, split.documents, scheme).report()

"""Pluggable taggers and prediction post-processing.

A tagger is anything with ``tag(words) -> [(raw_label, probability), ...]``
returning one pair per word. The functions here do the bookkeeping around
it: whitespace word splitting with recorded character offsets, output
validation, strict entity decoding, char-offset merging, and batch/file
inference with per-item error isolation.

Raw text is split on Unicode whitespace and punctuation is not split
off; real subword tokenization belongs to the model behind the tagger
interface, not here. This keeps offsets trivially exact: every emitted
span satisfies text[char_start:char_end] == surface.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Protocol, Sequence, runtime_checkable

from .core import (
    AnnotationScheme,
    Document,
    EntitySpan,
    Label,
    LabelSequence,
    Level,
    Word,
    decode,
)
from .errors import (
    AllOutside,
    EmptyText,
    MalformedJson,
    SeqlabError,
    TaggerLengthMismatch,
)
from .ingest import read_canonical_jsonl
from .schemes import detect_scheme, labels_for_chunk

_WORD_RE = re.compile(r"\S+")


@runtime_checkable
class Tagger(Protocol):
    """Behavioral contract every tagger implements.

    ``tag`` returns exactly one (raw label string, probability) pair per
    input word, probabilities in [0, 1]. Implementations should expose a
    ``scheme`` attribute so callers know how to parse the labels; without
    one the scheme is detected from the output (BIO when undecidable).
    """

    def tag(self, words: Sequence[str]) -> Sequence[tuple[str, float]]: ...


@dataclass(frozen=True)
class LexiconTagger:
    """Deterministic baseline tagger: surface form -> entity class.

    Consecutive words hitting the same class are encoded as one chunk in
    the tagger's scheme. Probability is 1.0 everywhere, including the
    outside default. An empty lexicon yields the all-O tagger.
    """

    lexicon: Mapping[str, str]
    scheme: AnnotationScheme = AnnotationScheme.BIO

    def tag(self, words: Sequence[str]) -> list[tuple[str, float]]:
        classes = [self.lexicon.get(w) for w in words]
        labels = ["O"] * len(words)
        i = 0
        while i < len(words):
            if classes[i] is None:
                i += 1
                continue
            j = i
            while j < len(words) and classes[j] == classes[i]:
                j += 1
            run = labels_for_chunk(classes[i], j - i, self.scheme)
            labels[i:j] = [lab.serialize() for lab in run]
            i = j
        return [(lab, 1.0) for lab in labels]

    @classmethod
    def from_json(cls, path: str | Path) -> "LexiconTagger":
        """Load from JSON: either a flat {surface: class} object or
        {"entries": {...}, "scheme": "BIO"}."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("lexicon file must hold a JSON object")
        if "entries" in data:
            scheme = AnnotationScheme.coerce(data.get("scheme", "BIO"))
            return cls(dict(data["entries"]), scheme)
        return cls(dict(data))


@dataclass(frozen=True)
class EchoTagger:
    """Echoes gold labels for word sequences it has seen; all-O otherwise.

    Stands in for a perfect model in pipeline tests and demos.
    """

    gold: Mapping[tuple[str, ...], tuple[str, ...]]
    scheme: AnnotationScheme = AnnotationScheme.BIO

    def tag(self, words: Sequence[str]) -> list[tuple[str, float]]:
        labels = self.gold.get(tuple(words), ("O",) * len(words))
        return [(lab, 1.0) for lab in labels]

    @classmethod
    def from_documents(cls, documents: Iterable[Document]) -> "EchoTagger":
        gold = {}
        scheme = AnnotationScheme.BIO
        for doc in documents:
            if doc.words is None or doc.word_labels is None:
                continue
            key = tuple(w.surface for w in doc.words)
            gold[key] = tuple(doc.word_labels.serialized())
            scheme = doc.word_labels.scheme
        return cls(gold, scheme)

    @classmethod
    def from_canonical_file(cls, path: str | Path) -> "EchoTagger":
        return cls.from_documents(
            read_canonical_jsonl(Path(path).read_text(encoding="utf-8"))
        )


def load_tagger(uri: str) -> Tagger:
    """Resolve a tagger URI: "lexicon:<path>", "echo:<path>", or "all-o"."""
    if uri == "all-o":
        return LexiconTagger({})
    kind, sep, argument = uri.partition(":")
    if sep and kind == "lexicon":
        return LexiconTagger.from_json(argument)
    if sep and kind == "echo":
        return EchoTagger.from_canonical_file(argument)
    raise ValueError(f"unknown tagger URI: {uri!r}")


@dataclass(frozen=True)
class WordPrediction:
    """One word with its offsets, predicted label and (optional) probability."""

    word: str
    char_start: int
    char_end: int
    label: Label
    probability: float | None = None


@dataclass(frozen=True)
class BatchItem:
    index: int
    ok: bool
    value: object = None
    error: str | None = None


@dataclass(frozen=True)
class FileSummary:
    processed: int
    failed: int


def split_words(text: str) -> tuple[Word, ...]:
    """Unicode-whitespace word splitting with exact character offsets."""
    return tuple(Word(m.group(), m.start(), m.end()) for m in _WORD_RE.finditer(text))


def _tag_and_parse(
    tagger: Tagger,
    surfaces: Sequence[str],
    scheme: AnnotationScheme | None,
) -> tuple[LabelSequence, list[float]]:
    output = list(tagger.tag(list(surfaces)))
    if len(output) != len(surfaces):
        raise TaggerLengthMismatch(
            f"tagger returned {len(output)} labels for {len(surfaces)} words"
        )
    raws = []
    probabilities = []
    for item in output:
        raw, probability = item
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"tagger probability out of [0, 1]: {probability}")
        raws.append(raw)
        probabilities.append(float(probability))
    if scheme is None:
        scheme = getattr(tagger, "scheme", None)
    if scheme is None:
        try:
            scheme = detect_scheme([raws])
        except AllOutside:
            scheme = AnnotationScheme.BIO
    else:
        scheme = AnnotationScheme.coerce(scheme)
    return LabelSequence.from_raw(raws, Level.WORD, scheme), probabilities


def tagged_labels(
    tagger: Tagger, surfaces: Sequence[str], scheme: AnnotationScheme | None = None
) -> LabelSequence:
    """Run a tagger and return its validated, parsed label sequence."""
    return _tag_and_parse(tagger, surfaces, scheme)[0]


def predict(
    tagger: Tagger,
    text: str,
    *,
    level: str = "entity",
    with_probabilities: bool = False,
    scheme: AnnotationScheme | str | None = None,
) -> list[EntitySpan] | list[WordPrediction]:
    """Tag a raw text and post-process the output.

    Word level returns one WordPrediction per whitespace word. Entity
    level decodes chunks strictly and merges them to character spans:
    char_start of the first word, char_end of the last, surface equal to
    the exact text slice (inner whitespace preserved). When probabilities
    are requested, an entity's probability is the minimum over its words.
    """
    if level not in ("entity", "word"):
        raise ValueError(f'level must be "entity" or "word", got {level!r}')
    if not text.strip():
        raise EmptyText("text is empty after trimming")
    if scheme is not None:
        scheme = AnnotationScheme.coerce(scheme)
    words = split_words(text)
    seq, probabilities = _tag_and_parse(tagger, [w.surface for w in words], scheme)

    if level == "word":
        return [
            WordPrediction(
                w.surface,
                w.char_start,
                w.char_end,
                lab,
                probability if with_probabilities else None,
            )
            for w, lab, probability in zip(words, seq.labels, probabilities)
        ]

    spans = []
    for chunk in decode(seq).strict:
        first = words[chunk.word_start]
        last = words[chunk.word_end - 1]
        spans.append(
            EntitySpan(
                chunk.class_name,
                first.char_start,
                last.char_end,
                text[first.char_start : last.char_end],
                word_start=chunk.word_start,
                word_end=chunk.word_end,
                probability=min(probabilities[chunk.word_start : chunk.word_end])
                if with_probabilities
                else None,
            )
        )
    return spans


def prediction_record(item: EntitySpan | WordPrediction) -> dict:
    """JSON-ready form of one prediction.

    Entity spans use the keys char_start / char_end / token / tag, with
    integer offsets."""
    if isinstance(item, EntitySpan):
        record = {
            "char_start": item.char_start,
            "char_end": item.char_end,
            "token": item.surface,
            "tag": item.class_name,
        }
    else:
        record = {
            "word": item.word,
            "char_start": item.char_start,
            "char_end": item.char_end,
            "tag": item.label.serialize(),
        }
    if item.probability is not None:
        record["probability"] = item.probability
    return record


def predict_batch(
    tagger: Tagger, texts: Sequence[str], **kwargs
) -> list[BatchItem]:
    """Map `predict` over texts with per-item error isolation."""
    items = []
    for index, text in enumerate(texts):
        try:
            items.append(BatchItem(index, True, value=predict(tagger, text, **kwargs)))
        except SeqlabError as err:
            items.append(BatchItem(index, False, error=str(err)))
    return items


def _batched(lines: Iterable[str], size: int) -> Iterator[list[str]]:
    batch: list[str] = []
    for line in lines:
        batch.append(line)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


def predict_file(
    tagger: Tagger,
    input_path: str | Path,
    output_path: str | Path,
    *,
    level: str = "entity",
    with_probabilities: bool = False,
    scheme: AnnotationScheme | str | None = None,
    batch_size: int = 32,
) -> FileSummary:
    """Streaming file inference: JSONL in ({"text": ...} per line),
    line-aligned JSONL out ({"text", "predictions": [...]}).

    Malformed lines become {"error": ...} output lines and are counted
    as failed; they never abort the run. Memory use is bounded by one
    batch; output order matches input order.
    """

    def handle(raw_line: str) -> tuple[bool, str]:
        try:
            record = json.loads(raw_line)
            if not isinstance(record, dict) or not isinstance(record.get("text"), str):
                raise MalformedJson('line needs a {"text": ...} object')
            predictions = predict(
                tagger,
                record["text"],
                level=level,
                with_probabilities=with_probabilities,
                scheme=scheme,
            )
            payload = {
                "text": record["text"],
                "predictions": [prediction_record(p) for p in predictions],
            }
            return True, json.dumps(payload, ensure_ascii=False)
        except (json.JSONDecodeError, SeqlabError) as err:
            return False, json.dumps({"error": str(err)}, ensure_ascii=False)

    processed = failed = 0
    with open(input_path, encoding="utf-8") as src, open(
        output_path, "w", encoding="utf-8"
    ) as dst:
        stripped = (line.rstrip("\n") for line in src)
        for batch in _batched(stripped, batch_size):
            for ok, line in map(handle, batch):
                processed += ok
                failed += not ok
                dst.write(line)
                dst.write("\n")
    return FileSummary(processed, failed)

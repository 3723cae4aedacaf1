"""Dataset ingestion and normalization.

Datasets arrive from four kinds of sources: local files, exports from
the big model-hub ecosystem (pretokenized JSONL), annotation-tool
exports (LabelStudio JSON, Doccano JSONL), and small built-in corpora
bundled with the package. Whatever the source, `set_up` turns them into
one canonical on-disk format: UTF-8 JSONL with one document per line,

    {"text": ..., "words": [{"surface", "start", "end"}, ...] | null,
     "labels": [...] | null, "entities": [{"start", "end", "label"}, ...] | null}

plus an `analysis.json` with corpus statistics. Splitting of unsplit
sources is a deterministic seeded shuffle with floor/floor/remainder
sizing, so the same input and seed always produce the same splits.

Outside input enters through `read_text` (a file's UTF-8 text) and
`load_json` (every JSON text the package reads); both raise typed errors
naming the line. `load_json` also rejects lone surrogate escapes, so
every string read can be written out as UTF-8. Readers take text as one
string and turn every source into canonical records, each paired with
its line: a CoNLL sentence becomes a "words" + "labels" record, a
Doccano line or a LabelStudio task a "text" + "entities" record.

Every record is then read into one checked row, `_Row`: its line, text,
word surfaces and offsets, parsed labels and entity (start, end, class)
triples. `_rows` parses every label first, naming its line, through one
`LabelTable` under the given scheme, else under BILOU, which admits every
prefix, and reads the scheme off the table's labels; then `_check_record`
applies each rule to each record once and raises the first one broken.
`dataset set-up`, `evaluate`, `convert` and the `echo:` tagger read rows
only: set-up splits, analyzes and writes them, and builds no `Word`,
`EntitySpan` or `Document`. `_documents` builds those, from rows, only
where the public API returns them: the readers, `parse_file`,
`load_split` and `set_up`. Public functions that take Documents read
each as a row once on entry (`_document_row`).

Canonical lines are formatted, not built as dicts for the JSON encoder.
`_canonical_line` fills fixed templates from a row: strings through the
encoder's own escaper (`encode_basestring`), offsets with %d, each
distinct Label escaped once per write. Each line is byte for byte what
``json.dumps(document_to_record(doc), ensure_ascii=False)`` writes for
the row's document; `write_canonical_jsonl` sends a document with fields
of other types (a bool offset, say) through the encoder.
"""

from __future__ import annotations

import json
import math
import random
import re
from enum import Enum
from functools import partial
from itertools import accumulate, chain, islice, repeat
from json.encoder import encode_basestring
from operator import add, itemgetter
from pathlib import Path
from typing import IO, Iterable, NamedTuple, Sequence

from .core import (
    AnnotationScheme,
    Document,
    EntitySpan,
    FrozenRecord,
    Label,
    LabelSequence,
    LabelTable,
    Word,
    decode,
)
from .errors import (
    EmptyInput,
    FractionOutOfRange,
    LengthMismatch,
    MalformedJson,
    MalformedLabel,
    OverlappingSpans,
    PrefixNotInScheme,
    RaggedRow,
    SpanOutOfBounds,
    UndecodableInput,
    UnresolvableSource,
)
from .schemes import resolve_scheme

SPLIT_NAMES = ("train", "val", "test")
DEFAULT_SPLIT_RATIO = (0.8, 0.1, 0.1)

#: bundled corpora, name -> package data directory
BUILTIN_DATASETS = {"mini-conll": "mini_conll"}

_WORD_FIELDS = itemgetter("surface", "start", "end")
# The value types from checked fields, built in C without their
# constructors' checks: Word has no __new__ of its own, and a row has
# passed every check that EntitySpan's and Document's make.
_new_word = partial(tuple.__new__, Word)
_new_entity = partial(tuple.__new__, EntitySpan)
_new_document = partial(tuple.__new__, Document)
_STR, _DICT, _INT = frozenset({str}), frozenset({dict}), frozenset({int})


class SourceKind(Enum):
    """Where a dataset comes from."""

    LOCAL_FILE = "LF"
    HUGGINGFACE_EXPORT = "HF"
    ANNOTATION_TOOL_EXPORT = "AT"
    BUILT_IN = "BI"

    @classmethod
    def coerce(cls, value: "SourceKind | str") -> "SourceKind":
        if isinstance(value, SourceKind):
            return value
        try:
            return cls(str(value).upper())
        except ValueError:
            pass
        try:
            return cls[str(value).upper()]
        except KeyError:
            raise UnresolvableSource(f"unknown source kind: {value!r}") from None


class DatasetSplit(FrozenRecord):
    """The documents of one split, named after it."""

    __slots__ = ("name", "documents")

    def __init__(self, name: str, documents: Iterable[Document]):
        if name not in SPLIT_NAMES:
            raise ValueError(f"split name must be one of {SPLIT_NAMES}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "documents", tuple(documents))

    def __len__(self) -> int:
        return len(self.documents)

    def _as_rows(self) -> Iterable[_Row]:
        """Each document read as a row, as `analyze` reads it."""
        return map(_document_row, self.documents)


class _RowSplit(DatasetSplit):
    """A split of the rows `_set_up` reads, which `analyze` reads as they are."""

    __slots__ = ()

    def _as_rows(self) -> Iterable[_Row]:
        return self.documents


class DatasetAnalysis(NamedTuple):
    """Corpus statistics computed during set-up."""

    num_documents: dict[str, int]
    num_words: dict[str, int]
    entity_counts: dict[str, dict[str, int]]
    scheme_detected: AnnotationScheme
    pretokenized: bool
    seed: int | None = None

    def as_dict(self) -> dict:
        return {
            "num_documents": dict(self.num_documents),
            "num_words": dict(self.num_words),
            "entity_counts": {s: dict(c) for s, c in self.entity_counts.items()},
            "scheme_detected": self.scheme_detected.value,
            "pretokenized": self.pretokenized,
            "seed": self.seed,
        }


def read_text(path: str | Path) -> str:
    """A file's UTF-8 text; bytes that are not UTF-8 raise UndecodableInput
    naming their line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise UndecodableInput(
            f"byte {err.start} of {path} is not UTF-8 ({err.reason})",
            line=data.count(b"\n", 0, err.start) + 1,
        ) from None


# One escape of a JSON string, read left to right as the decoder reads
# it: a surrogate pair, which decodes to one code point; a lone surrogate
# (group 1), which decodes to a str that cannot be written as UTF-8; or
# any other escape, "\\" included, so no backslash is read twice. A
# backslash outside a string is bad syntax, which json.loads rejects first.
_ESCAPE = re.compile(
    r"\\(?:u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}"
    r"|(u[dD][89a-fA-F][0-9a-fA-F]{2})|.)",
    re.DOTALL,
)
#: what every surrogate escape starts with; a text without it needs no scan
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def load_json(text: str, *, line: int | None = 1) -> object:
    """Decode JSON that comes from outside the package, whose first line
    is ``line``. Bad syntax, nesting too deep to decode, integers too
    long to convert and lone surrogate escapes ("\\ud800", valid syntax
    that no UTF-8 output can hold) raise MalformedJson naming the line;
    ``line=None`` leaves it to the caller to number the error."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as err:
        reason, offset = err.msg, err.lineno - 1
    except RecursionError:
        reason, offset = "nested too deeply", 0
    except ValueError:
        reason, offset = "number too long", 0
    else:
        # the one-character search costs next to nothing, and most lines
        # hold no backslash; the regex search for the rest is faster than
        # a two-character `in`
        if "\\" not in text or not _SURROGATE_ESCAPE.search(text):
            return value
        lone = next((m for m in _ESCAPE.finditer(text) if m.group(1)), None)
        if lone is None:
            return value
        reason, offset = "lone surrogate", text.count("\n", 0, lone.start())
    raise MalformedJson(f"invalid JSON ({reason})", line=None if line is None else line + offset)


def _parse_labels(
    raws: Sequence[str], line: int | tuple[int, ...], table: LabelTable
) -> tuple[Label, ...]:
    """Labels through the reader's table; an error names the label's line,
    which is ``line``, or its entry for that label where ``line`` holds
    one line per label."""
    try:
        return tuple(map(table.__getitem__, raws))
    except (PrefixNotInScheme, MalformedLabel) as err:
        # the first label not in the table is the one that failed: it is never stored
        index = next(i for i, raw in enumerate(raws) if raw not in table)
        line = line[index] if type(line) is tuple else line
        if isinstance(err, PrefixNotInScheme):
            raise PrefixNotInScheme(raws[index], table.scheme.value, line=line) from None
        raise MalformedLabel(str(err), line=line) from None


def _synthetic_offsets(surfaces: Sequence[str]) -> tuple[list[int], list[int]]:
    """The starts and ends of the surfaces in their single-space join."""
    lengths = list(map(len, surfaces))
    # each word starts one past the end of the one before it
    starts = list(accumulate(map(add, lengths, repeat(1)), initial=0))
    del starts[-1]
    return starts, list(map(add, starts, lengths))


def _synthetic_words(surfaces: Sequence[str]) -> tuple[str, tuple[Word, ...]]:
    """The single-space join of the surfaces, and each surface's Word in it."""
    return " ".join(surfaces), tuple(map(_new_word, zip(surfaces, *_synthetic_offsets(surfaces))))


def _conll_records(source: str) -> list[tuple[tuple[int, ...], dict]]:
    """One pretokenized record per sentence of whitespace-column text,
    paired with the line of each of its words."""
    records, rows = [], []
    for lineno, line in enumerate([*source.splitlines(), ""], 1):
        columns = line.split()
        if not columns and rows:
            surfaces, labels, lines = zip(*rows)
            records.append((lines, {"words": list(surfaces), "labels": list(labels)}))
            rows = []
        elif columns and columns[0] != "-DOCSTART-":
            if len(columns) < 2:
                raise RaggedRow(
                    f"expected at least 2 whitespace-separated columns, got {len(columns)}",
                    line=lineno,
                )
            rows.append((columns[0], columns[-1], lineno))
    if not records:
        raise EmptyInput("no sentences found in column input")
    return records


def parse_conll(
    source: str, *, scheme: AnnotationScheme | str | None = None
) -> list[Document]:
    """Parse whitespace-column text: last column is the label, blank
    lines separate sentences, "-DOCSTART-" rows are skipped.

    Word offsets are synthetic (single-space joined). Entities are left
    unset; they are derivable from the labels when needed.
    """
    return _documents(*_rows(_conll_records(source), scheme))


def write_conll(documents: Iterable[Document], dest: IO[str]) -> None:
    """Inverse of `parse_conll` for word-labeled documents."""
    for doc in documents:
        if doc.words is None or doc.word_labels is None:
            raise ValueError("column output needs words and word labels")
        for word, label in zip(doc.words, doc.word_labels):
            dest.write(f"{word.surface} {label.serialize()}\n")
        dest.write("\n")


def _json_records(source: str) -> list[tuple[int, dict]]:
    """(line number, object) for every non-blank line; lines end at "\n"
    only, as a JSON string may hold any other line separator."""
    records = []
    for lineno, line in enumerate(source.split("\n"), 1):
        if line.strip():
            record = load_json(line, line=lineno)
            if not isinstance(record, dict):
                raise MalformedJson("expected a JSON object", line=lineno)
            records.append((lineno, record))
    if not records:
        raise EmptyInput("no records in JSONL input")
    return records


class _Row(NamedTuple):
    """One checked canonical record, as every reader path carries it.

    ``surfaces`` are its words, or None where it has none. ``offsets``
    are their (starts, ends), or None where the words are the single-space
    join that is ``text`` (`_synthetic_offsets` gives them), or there are
    none. ``labels`` are one parsed Label per word, ``entities`` the
    sorted, disjoint (start, end, class) triples of its entities trimmed of
    edge whitespace; each is None where the record has none. ``line`` is
    the record's line, or each word's for a CoNLL sentence, or None for a
    row read off a Document.
    """

    line: int | tuple[int, ...] | None
    text: str
    surfaces: Sequence[str] | None
    offsets: tuple[Sequence[int], Sequence[int]] | None
    labels: tuple[Label, ...] | None
    entities: list[tuple[int, int, str]] | None


_new_row = partial(tuple.__new__, _Row)


def _check_record(
    line: int | tuple[int, ...], record: dict, labels: tuple[Label, ...] | None
) -> _Row:
    """The row of one canonical record; ``labels`` are its parsed string
    "labels", None where they are not an array of strings. The record's
    rules, in the order their errors come, each naming ``line``: "words" is
    a non-empty array of non-empty strings (found in order in "text" where
    there is one, else joined with single spaces) or of objects on a "text"
    with "surface" and JSON integer "start" and "end"; without "words",
    "text" is a string; "labels" are strings, one per word; "entities" are
    objects with JSON integer offsets of a span inside the text and a class
    name that is a non-empty string other than "O", trimmed of edge
    whitespace (dropped if nothing is left) and disjoint; last, object
    words give non-empty, increasing spans of the text, each its surface.

    Object words are read in one pass that only tells whether they pass;
    only where they do not does an ordered walk name the first broken rule,
    the last one through the walk of `Document`'s own check.
    """
    text, words = record.get("text"), record.get("words")
    surfaces = offsets = None
    bad_spans = False  # object words that pass every rule but the last
    if words is not None:
        if type(words) is list and words and type(text) is str:
            surfaces, starts, ends, end = [], [], [], 0
            try:
                for word in words:
                    surface, start, stop = word["surface"], word["start"], word["end"]
                    if (
                        type(start) is not int
                        or type(stop) is not int
                        or not end <= start < stop
                        or text[start:stop] != surface
                    ):
                        break
                    surfaces.append(surface)
                    starts.append(start)
                    ends.append(stop)
                    end = stop
            except (KeyError, TypeError):  # a word that is not an object, or lacks a key
                pass
            # the ends increase, so the last one is the largest
            if len(surfaces) == len(words) and end <= len(text):
                offsets = starts, ends
            else:
                surfaces = None
        if offsets is None:  # the ordered walk, for string words and words the pass failed
            if not isinstance(words, list) or not words:
                raise MalformedJson('"words" must be a non-empty array', line=line)
            kinds = set(map(type, words))
            if kinds == _STR:
                if not all(words):
                    raise MalformedJson("words cannot be empty strings", line=line)
                surfaces = words
                if text is None:
                    text = " ".join(words)
                elif not isinstance(text, str):
                    raise MalformedJson('"text" must be a string', line=line)
                else:
                    starts, ends, cursor = [], [], 0
                    for surface in words:
                        start = text.find(surface, cursor)
                        if start < 0:
                            raise MalformedJson(
                                f"word {surface!r} cannot be aligned with the text", line=line
                            )
                        cursor = start + len(surface)
                        starts.append(start)
                        ends.append(cursor)
                    offsets = starts, ends
            elif kinds == _DICT:
                if not isinstance(text, str):
                    raise MalformedJson(
                        'offset-bearing "words" require a "text" string', line=line
                    )
                try:
                    surfaces, starts, ends = zip(*map(_WORD_FIELDS, words))
                except KeyError as err:
                    raise MalformedJson(f"bad word record: {err}", line=line) from None
                if not _INT.issuperset(map(type, starts)) or not _INT.issuperset(map(type, ends)):
                    raise MalformedJson("word offsets must be JSON integers", line=line)
                offsets, bad_spans = (starts, ends), True
            else:
                raise MalformedJson('"words" mixes strings and objects', line=line)
    elif not isinstance(text, str):
        raise MalformedJson('record needs a "text" string', line=line)

    if record.get("labels") is not None:
        if surfaces is None:
            raise MalformedJson('"labels" require "words"', line=line)
        if labels is None:
            raise MalformedJson('"labels" must be an array of strings', line=line)
        if len(labels) != len(surfaces):
            raise LengthMismatch(f"{len(labels)} labels for {len(surfaces)} words", line=line)

    entities = record.get("entities")
    if entities is not None:
        if not isinstance(entities, list):
            raise MalformedJson('"entities" must be an array', line=line)
        spans = []
        for item in entities:
            try:
                start, end, label = item["start"], item["end"], item["label"]
            except (KeyError, TypeError, ValueError) as err:
                raise MalformedJson(f"bad entity record: {err}", line=line) from None
            if type(start) is not int or type(end) is not int:
                raise MalformedJson(
                    f"entity offsets {start!r:.20} and {end!r:.20} are not JSON integers",
                    line=line,
                )
            if not isinstance(label, str):
                raise MalformedJson(f"entity label {label!r:.40} is not a string", line=line)
            if not label:
                raise MalformedJson("entity label cannot be empty", line=line)
            if label == "O":
                raise MalformedJson('"O" is the outside label, not an entity class', line=line)
            if not (0 <= start < end <= len(text)):
                raise SpanOutOfBounds(
                    f"span [{start}, {end}) outside text of length {len(text)}", line=line
                )
            while start < end and text[start].isspace():
                start += 1
            while start < end and text[end - 1].isspace():
                end -= 1
            if start < end:  # a span of whitespace only marks nothing
                spans.append((start, end, label))
        spans.sort()
        previous_end = 0
        for start, end, _ in spans:
            if start < previous_end:
                raise OverlappingSpans(
                    f"span starting at {start} overlaps the previous one", line=line
                )
            previous_end = end
        entities = spans

    if bad_spans:  # the walk of Document's own check names the first span that breaks it
        try:
            Document(text, words=map(Word, surfaces, *offsets))
        except ValueError as err:
            raise MalformedJson(str(err), line=line) from None
    return _new_row((line, text, surfaces, offsets, labels, entities))


def _rows(
    records: list[tuple[int | tuple[int, ...], dict]], scheme: AnnotationScheme | str | None
) -> tuple[list[_Row], AnnotationScheme]:
    """The rows of canonical records, and the scheme read off all their
    labels, which are parsed before any record is checked. A CoNLL sentence
    is paired with the line of each word, so that a bad label names its
    own line."""
    table = LabelTable(AnnotationScheme.coerce(scheme or AnnotationScheme.BILOU))
    parsed = []
    for line, record in records:
        raws = record.get("labels")
        strings = type(raws) is list and _STR.issuperset(map(type, raws))
        parsed.append(_parse_labels(raws, line, table) if strings else None)
    scheme = resolve_scheme(table.values(), scheme)
    return [_check_record(*r, p) for r, p in zip(records, parsed)], scheme


def _documents(rows: Iterable[_Row], scheme: AnnotationScheme) -> list[Document]:
    """The Documents of rows whose labels are in ``scheme``."""
    documents = []
    for _, text, surfaces, offsets, labels, entities in rows:
        words = word_labels = None
        if surfaces is not None:
            if offsets is None:
                words = _synthetic_words(surfaces)[1]
            else:
                words = tuple(map(_new_word, zip(surfaces, *offsets)))
        if labels is not None:
            word_labels = LabelSequence(labels, scheme)
        if entities is not None:
            entities = tuple([
                _new_entity((label, start, end, text[start:end], None, None, None))
                for start, end, label in entities
            ])
        documents.append(_new_document((text, words, word_labels, entities)))
    return documents


def _document_row(doc: Document) -> _Row:
    """A Document's fields as a row."""
    text, words, word_labels, entities = doc
    surfaces = offsets = labels = None
    if words is not None:
        surfaces, starts, ends = tuple(zip(*words)) or ((), (), ())
        offsets = starts, ends
    if word_labels is not None:
        labels = word_labels.labels
    if entities is not None:
        entities = [(e.char_start, e.char_end, e.class_name) for e in entities]
    return _Row(None, text, surfaces, offsets, labels, entities)


def read_canonical_jsonl(
    source: str, *, scheme: AnnotationScheme | str | None = None
) -> list[Document]:
    """Read the canonical JSONL format (word-level, entity-level, or both)."""
    return _documents(*_rows(_json_records(source), scheme))


def parse_pretokenized_jsonl(
    source: str, *, scheme: AnnotationScheme | str | None = None
) -> list[Document]:
    """Parse pretokenized JSONL: every record carries "words" and
    "labels" of equal length; "text" is optional and synthesized by
    single-space joining when absent."""
    records = _json_records(source)
    for lineno, record in records:
        if record.get("words") is None or record.get("labels") is None:
            raise MalformedJson('pretokenized records need "words" and "labels"', line=lineno)
    return _documents(*_rows(records, scheme))


def _doccano_records(records: list[tuple[int, dict]]) -> list[tuple[int, dict]]:
    """Doccano lines as canonical records: "label" triples become "entities"."""
    canonical = []
    for lineno, record in records:
        raw = record.get("label", [])
        if not isinstance(raw, list):
            raise MalformedJson('"label" must be an array of triples', line=lineno)
        try:
            entities = [{"start": start, "end": end, "label": label} for start, end, label in raw]
        except (TypeError, ValueError) as err:
            raise MalformedJson(f"bad entity record: {err}", line=lineno) from None
        canonical.append((lineno, {"text": record.get("text"), "entities": entities}))
    return canonical


def _labelstudio_records(source: str) -> list[tuple[int, dict]]:
    """LabelStudio tasks as canonical records, numbered from 1."""
    tasks = load_json(source)
    if not isinstance(tasks, list):
        raise MalformedJson("expected a JSON array of tasks")
    if not tasks:
        raise EmptyInput("no tasks in export")
    records = []
    for index, task in enumerate(tasks, 1):
        try:
            text = task["data"]["text"]
        except (KeyError, TypeError):
            raise MalformedJson("task lacks data.text", line=index) from None
        if not isinstance(text, str):
            raise MalformedJson("data.text must be a string", line=index)
        annotations = task.get("annotations") or []
        if not isinstance(annotations, list) or not all(isinstance(a, dict) for a in annotations):
            raise MalformedJson("annotations must be an array of objects", line=index)
        results = annotations[0].get("result", []) if annotations else []
        if not isinstance(results, list):
            raise MalformedJson("annotation result must be an array", line=index)
        entities = []
        for item in results:
            if not isinstance(item, dict) or item.get("type") != "labels":
                continue
            value = item.get("value", {})
            try:
                entities.append(
                    {"start": value["start"], "end": value["end"], "label": value["labels"][0]}
                )
            except (KeyError, IndexError, TypeError):
                raise MalformedJson("bad labels result in task", line=index) from None
        records.append((index, {"text": text, "entities": entities}))
    return records


def _export_records(source: str, dialect: str) -> list[tuple[int, dict]]:
    key = str(dialect).replace("_", "").replace("-", "").lower()
    if key in ("labelstudio", "labelstudiojson"):
        return _labelstudio_records(source)
    if key in ("doccano", "doccanojsonl"):
        return _doccano_records(_json_records(source))
    raise ValueError(f"unknown annotation tool dialect: {dialect!r}")


def parse_annotation_tool_export(source: str, dialect: str) -> list[Document]:
    """Parse an annotation-tool export into entity-level documents.

    Supported dialects: "LabelStudioJson" (a JSON array of tasks, spans
    from the first annotation's results of type "labels") and
    "DoccanoJsonl" (one object per line with "text" and
    "label": [[start, end, class], ...]). Ends are exclusive.
    """
    return _documents(*_rows(_export_records(source, dialect), None))


def document_to_record(doc: Document) -> dict:
    return {
        "text": doc.text,
        "words": None
        if doc.words is None
        else [
            {"surface": w.surface, "start": w.char_start, "end": w.char_end}
            for w in doc.words
        ],
        "labels": None if doc.word_labels is None else doc.word_labels.serialized(),
        "entities": None
        if doc.entities is None
        else [
            {"start": e.char_start, "end": e.char_end, "label": e.class_name}
            for e in doc.entities
        ],
    }


# A canonical line as json.dumps(document_to_record(doc), ensure_ascii=False)
# writes it: strings through the encoder's own escaper and offsets with %d,
# which is the int repr the encoder writes. Both raise TypeError for a value
# of the other type; `write_canonical_jsonl` sends a document with any other
# type (a bool offset, which the encoder writes as true) through the encoder.
_LINE = '{"text": %s, "words": %s, "labels": %s, "entities": %s}\n'
_WORD = '{"surface": %s, "start": %d, "end": %d}'
_ENTITY = '{"start": %d, "end": %d, "label": %s}'
_STR_AND_INT = frozenset({str, int})


class _Literals(dict):
    """The JSON string of each Label of a write, serialized and escaped once."""

    def __missing__(self, label: Label) -> str:
        literal = self[label] = encode_basestring(label.serialize())
        return literal


def _canonical_line(row: _Row, literals: _Literals) -> str:
    """The canonical line of a row; ``literals`` is the Label cache of the write."""
    _, text, surfaces, offsets, labels, entities = row
    words_json = labels_json = entities_json = "null"
    if surfaces is not None:
        words = zip(surfaces, *(offsets or _synthetic_offsets(surfaces)))
        words_json = "[%s]" % ", ".join(
            [_WORD % (encode_basestring(s), start, end) for s, start, end in words]
        )
    if labels is not None:
        labels_json = "[%s]" % ", ".join(map(literals.__getitem__, labels))
    if entities is not None:
        entities_json = "[%s]" % ", ".join(
            [_ENTITY % (start, end, encode_basestring(label)) for start, end, label in entities]
        )
    return _LINE % (encode_basestring(text), words_json, labels_json, entities_json)


def write_canonical_jsonl(documents: Iterable[Document], dest: IO[str]) -> None:
    """One canonical line per document, byte for byte what
    ``json.dumps(document_to_record(doc), ensure_ascii=False)`` writes.

    Each line is formatted from the document's row, each distinct Label
    escaped once per call. A document whose text, surfaces, entity class
    names and offsets are not all of type str or int (a bool offset, say)
    is written through the encoder."""
    literals = _Literals()
    for doc in documents:
        row = _document_row(doc)
        _, text, surfaces, offsets, _, entities = row
        fields = chain((text,), surfaces or (), *(offsets or ()), *(entities or ()))
        line = None
        if _STR_AND_INT.issuperset(map(type, fields)):
            try:
                line = _canonical_line(row, literals)
            except TypeError:  # an int where a str belongs, or the other way round
                pass
        dest.write(line or json.dumps(document_to_record(doc), ensure_ascii=False) + "\n")


def save_canonical_jsonl(documents: Iterable[Document], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        write_canonical_jsonl(documents, handle)


def _split_ratio(ratio: Sequence[float]) -> tuple[float, float, float]:
    """``ratio`` as a tuple; ValueError unless it is three finite,
    non-negative numbers that sum to 1 (within 1e-9)."""
    ratio = tuple(ratio)
    finite = all(map(math.isfinite, ratio))
    if len(ratio) != 3 or not finite or any(r < 0 for r in ratio) or abs(sum(ratio) - 1) > 1e-9:
        raise ValueError(
            f"split ratio must be three finite, non-negative numbers summing to 1, got {ratio}"
        )
    return ratio


def split_documents(
    documents: Sequence[Document],
    ratio: Sequence[float] = DEFAULT_SPLIT_RATIO,
    seed: int = 42,
) -> tuple[DatasetSplit, DatasetSplit, DatasetSplit]:
    """Deterministic shuffled split: train and val sizes are floored,
    test takes the remainder. The shuffle depends only on the number of
    documents and the seed, so set-up splits its rows the same way."""
    ratio = _split_ratio(ratio)
    shuffled = list(documents)
    random.Random(seed).shuffle(shuffled)
    n = len(shuffled)
    n_train = math.floor(ratio[0] * n)
    n_val = math.floor(ratio[1] * n)
    return (
        DatasetSplit("train", tuple(shuffled[:n_train])),
        DatasetSplit("val", tuple(shuffled[n_train : n_train + n_val])),
        DatasetSplit("test", tuple(shuffled[n_train + n_val :])),
    )


def prune(split: DatasetSplit, fraction: float) -> DatasetSplit:
    """Keep the first ceil(fraction * n) documents of an already
    shuffled split."""
    if not 0.0 < fraction <= 1.0:
        raise FractionOutOfRange(f"fraction must be in (0, 1], got {fraction}")
    keep = math.ceil(fraction * len(split.documents))
    return DatasetSplit(split.name, split.documents[:keep])


def analyze(
    splits: Sequence[DatasetSplit],
    *,
    scheme: AnnotationScheme | str | None = None,
    seed: int | None = None,
) -> DatasetAnalysis:
    """Compute corpus statistics: document/word counts, per-class entity
    counts (strict chunk decoding for labeled documents), the scheme
    (``scheme`` if given, else read off the documents' parsed labels),
    and whether the corpus is pretokenized. Labels are decoded in that
    scheme."""
    rows = [list(split._as_rows()) for split in splits]
    labels = [row.labels for split in rows for row in split if row.labels is not None]
    scheme = resolve_scheme(chain.from_iterable(labels), scheme)
    num_documents, num_words, entity_counts = {}, {}, {}
    pretokenized = True
    for split, split_rows in zip(splits, rows):
        num_documents[split.name] = len(split_rows)
        words = 0
        counts: dict[str, int] = {}
        for row in split_rows:
            if row.surfaces is None:
                pretokenized = False
            else:
                words += len(row.surfaces)
            if row.labels is not None:
                classes = [c.class_name for c in decode(LabelSequence(row.labels, scheme)).strict]
            else:
                classes = [label for _, _, label in row.entities or ()]
            for class_name in classes:
                counts[class_name] = counts.get(class_name, 0) + 1
        num_words[split.name] = words
        entity_counts[split.name] = dict(sorted(counts.items()))
    return DatasetAnalysis(
        num_documents=num_documents,
        num_words=num_words,
        entity_counts=entity_counts,
        scheme_detected=scheme,
        pretokenized=pretokenized,
        seed=seed,
    )


def _file_records(path: str | Path, dialect: str | None) -> list[tuple[int | tuple, dict]]:
    """One dataset file's canonical records, dispatching on extension (and
    content sniffing for .jsonl, which may be pretokenized, canonical, or
    a Doccano export)."""
    path = Path(path)
    if not path.is_file():
        raise UnresolvableSource(f"not a readable file: {path}")
    data = read_text(path)
    suffix = path.suffix.lower()
    if dialect is not None:
        return _export_records(data, dialect)
    if suffix in (".conll", ".txt"):
        return _conll_records(data)
    if suffix == ".json":
        return _labelstudio_records(data)
    if suffix == ".jsonl":
        records = _json_records(data)
        first = records[0][1]
        if "label" in first and "labels" not in first and "words" not in first:
            return _doccano_records(records)
        return records
    raise UnresolvableSource(f"cannot infer a format from extension {suffix!r}")


def parse_file(
    path: str | Path,
    *,
    dialect: str | None = None,
    scheme: AnnotationScheme | str | None = None,
) -> list[Document]:
    """Parse one dataset file, of any format `set_up` reads."""
    return _documents(*_rows(_file_records(path, dialect), scheme))


def _builtin_records(name: str) -> list[list[tuple[int, dict]]]:
    """The canonical records of a bundled corpus, one list per split."""
    from importlib import resources  # only built-in sources need it, so it stays out of start-up

    if name not in BUILTIN_DATASETS:
        raise UnresolvableSource(
            f"unknown built-in dataset {name!r}; available: {sorted(BUILTIN_DATASETS)}"
        )
    base = resources.files("seqlab").joinpath("data", BUILTIN_DATASETS[name])
    return [
        _json_records(base.joinpath(f"{split_name}.jsonl").read_text(encoding="utf-8"))
        for split_name in SPLIT_NAMES
    ]


def set_up(
    source: SourceKind | str,
    *,
    name: str,
    path: str | Path | None = None,
    train_path: str | Path | None = None,
    val_path: str | Path | None = None,
    test_path: str | Path | None = None,
    dialect: str | None = None,
    split_ratio: Sequence[float] = DEFAULT_SPLIT_RATIO,
    seed: int = 42,
    train_fraction: float | None = None,
    val_fraction: float | None = None,
    test_fraction: float | None = None,
    scheme: AnnotationScheme | str | None = None,
    data_dir: str | Path | None = None,
) -> tuple[tuple[DatasetSplit, DatasetSplit, DatasetSplit], DatasetAnalysis]:
    """Normalize a dataset from any source into canonical files.

    Pre-split sources (three paths, or a built-in) pass through; unsplit
    sources are shuffled with the seed and split by ratio. The labels of
    all files are parsed before any record is checked, in ``scheme`` if
    given, else the one read off all the labels. Optional per-split
    fractions prune after splitting. Canonical {train,val,test}.jsonl and
    analysis.json are written under data_dir/name and the splits plus
    analysis are returned.

    The files and the analysis come from `_set_up`, which reads rows;
    only the returned splits build Documents, from the kept rows.
    """
    splits, analysis = _set_up(
        source, name=name, path=path, split_paths=(train_path, val_path, test_path),
        dialect=dialect, split_ratio=split_ratio, seed=seed,
        fractions=(train_fraction, val_fraction, test_fraction), scheme=scheme, data_dir=data_dir,
    )
    scheme = analysis.scheme_detected
    return tuple(
        DatasetSplit(split.name, _documents(split.documents, scheme)) for split in splits
    ), analysis


def _set_up(
    source: SourceKind | str,
    *,
    name: str,
    path: str | Path | None,
    split_paths: Sequence[str | Path | None],
    dialect: str | None,
    split_ratio: Sequence[float],
    seed: int,
    fractions: Sequence[float | None],
    scheme: AnnotationScheme | str | None,
    data_dir: str | Path | None,
) -> tuple[tuple[DatasetSplit, DatasetSplit, DatasetSplit], DatasetAnalysis]:
    """`set_up`'s files and analysis, and its splits of rows."""
    kind = SourceKind.coerce(source)
    if kind is SourceKind.BUILT_IN:
        files = _builtin_records(name)
    elif any(split_paths):
        if not all(split_paths):
            raise UnresolvableSource("pre-split input needs all three split paths")
        files = [_file_records(p, dialect) for p in split_paths]
    else:
        if path is None:
            raise UnresolvableSource(f"source {kind.value} needs a file path")
        files = [_file_records(path, dialect)]

    rows, scheme = _rows(list(chain.from_iterable(files)), scheme)
    if len(files) == 1:
        splits, used_seed = split_documents(rows, split_ratio, seed), seed
    else:
        remaining = iter(rows)
        splits = [DatasetSplit(s, islice(remaining, len(f))) for s, f in zip(SPLIT_NAMES, files)]
        used_seed = None
    splits = tuple(
        _RowSplit(split.name, (split if fraction is None else prune(split, fraction)).documents)
        for split, fraction in zip(splits, fractions)
    )
    analysis = analyze(splits, scheme=scheme, seed=used_seed)

    out_dir = resolve_data_dir(data_dir) / name
    out_dir.mkdir(parents=True, exist_ok=True)
    for split in splits:
        literals = _Literals()
        with open(out_dir / f"{split.name}.jsonl", "w", encoding="utf-8") as handle:
            handle.writelines([_canonical_line(row, literals) for row in split.documents])
    with open(out_dir / "analysis.json", "w", encoding="utf-8") as handle:
        json.dump(analysis.as_dict(), handle, ensure_ascii=False, indent=2)
        handle.write("\n")
    return splits, analysis


def resolve_data_dir(data_dir: str | Path | None = None) -> Path:
    import os

    if data_dir is not None:
        return Path(data_dir)
    return Path(os.environ.get("SEQLAB_DATA_DIR", "seqlab_data"))


def _split_records(dataset_dir: str | Path, phase: str) -> list[tuple[int, dict]]:
    """The records of one canonical split file written by `set_up`."""
    if phase not in SPLIT_NAMES:
        raise ValueError(f"phase must be one of {SPLIT_NAMES}")
    path = Path(dataset_dir) / f"{phase}.jsonl"
    if not path.is_file():
        raise UnresolvableSource(f"missing split file: {path}")
    try:
        return _json_records(read_text(path))
    except EmptyInput:
        return []  # a split may legitimately be empty after splitting


def load_split(
    dataset_dir: str | Path,
    phase: str,
    *,
    scheme: AnnotationScheme | str | None = None,
) -> DatasetSplit:
    """Load one canonical split file written by `set_up`."""
    return DatasetSplit(phase, _documents(*_rows(_split_records(dataset_dir, phase), scheme)))


def load_analysis(dataset_dir: str | Path) -> dict:
    path = Path(dataset_dir) / "analysis.json"
    if not path.is_file():
        raise UnresolvableSource(f"missing analysis file: {path}")
    return load_json(read_text(path))

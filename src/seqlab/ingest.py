"""Dataset ingestion and normalization.

Datasets arrive from four kinds of sources, which `set_up` takes as a
code in any case: local files ("LF"), exports from the big model-hub
ecosystem ("HF", pretokenized JSONL), annotation-tool exports ("AT",
LabelStudio JSON, Doccano JSONL), and small built-in corpora bundled
with the package ("BI"). Only a built-in corpus is read differently; a
file's extension, or the dialect given, picks its format. Whatever the
source, `set_up` turns them into one canonical on-disk format: UTF-8
JSONL with one document per line,

    {"text": ..., "words": [{"surface", "start", "end"}, ...] | null,
     "labels": [...] | null, "entities": [{"start", "end", "label"}, ...] | null}

plus an `analysis.json` with corpus statistics. That file holds the
dict tree that `analyze` builds and `set_up` returns, key for key, so
`load_analysis` reads back an equal dict. Splitting of unsplit
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
only: set-up formats them as canonical lines, then splits, analyzes and
writes those, and builds no `Word`, `EntitySpan` or `Document`.
`_documents` builds those, from rows, only where the public API returns
them: the readers, `parse_file` and `load_split`, through which `set_up`
reads back the files it wrote. Public functions that take Documents
read each as a row once on entry (`_document_row`).

Canonical lines are formatted, not built as dicts for the JSON encoder.
`_canonical_line` fills fixed templates from a row: strings through the
encoder's own escaper (`encode_basestring`), offsets with %d, each
distinct Label escaped once per write. Each line is byte for byte what
``json.dumps(document_to_record(doc), ensure_ascii=False)`` writes for
the row's document when its text, surfaces and class names are str and
its offsets int. A bool offset is written as the int it equals; a text,
surface or class name that is no str raises TypeError.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from collections import Counter
from functools import partial
from itertools import accumulate, chain, islice, repeat
from json.encoder import encode_basestring
from operator import add, itemgetter
from pathlib import Path
from typing import IO, BinaryIO, Iterable, NamedTuple, Sequence, TextIO

from . import ranges
from .core import (
    AnnotationScheme,
    Document,
    EntitySpan,
    FrozenRecord,
    Label,
    LabelSequence,
    LabelTable,
    Word,
    _check_word_spans,
    decode,
)
from .errors import (
    EmptyInput,
    FractionOutOfRange,
    InconsistentSource,
    LengthMismatch,
    MalformedJson,
    MalformedLabel,
    OverlappingSpans,
    PrefixNotInScheme,
    RaggedRow,
    SeqlabError,
    SpanOutOfBounds,
    UnconvertibleInput,
    UndecodableInput,
    UnresolvableSource,
)
from .schemes import convert_scheme, resolve_scheme

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
#: what may not occur in one directory entry
_NOT_IN_ENTRY = {"\0", "/", os.sep, os.altsep} - {None}


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

    def _stats(self, scheme: AnnotationScheme) -> list[tuple[int | None, list]]:
        """What `analyze` counts of each document, in ``scheme``."""
        return _row_stats(map(_document_row, self.documents), scheme)


class _RowSplit(DatasetSplit):
    """A split of what a set-up read: (canonical line, `_row_stats` item)
    pairs, which `analyze` counts as they are, in the set-up's scheme."""

    __slots__ = ()

    def _stats(self, scheme: AnnotationScheme) -> list[tuple[int | None, list]]:
        return [stats for _, stats in self.documents]


def read_text(path: str | Path) -> str:
    """A file's UTF-8 text; bytes that are not UTF-8 raise UndecodableInput
    naming their line."""
    return _decoded(Path(path).read_bytes(), path)


def _decoded(data: bytes, path: str | Path, start: int = 0, line: int = 1) -> str:
    """`read_text` of the file at ``path`` whose bytes are ``data``, or
    whose bytes from its byte ``start``, on its line ``line``, are: an
    error names its byte and line in the whole file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise UndecodableInput(
            f"byte {start + err.start} of {path} is not UTF-8 ({err.reason})",
            line=line + data.count(b"\n", 0, err.start),
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


def _json_records(source: str, first: int = 1) -> list[tuple[int, dict]]:
    """(line number, object) for every non-blank line, the first numbered
    ``first``; lines end at "\n" only, as a JSON string may hold any other
    line separator."""
    records = []
    for lineno, line in enumerate(source.split("\n"), first):
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
    words pass `_check_word_spans`, `Document`'s own check of its words.
    """
    text, words = record.get("text"), record.get("words")
    surfaces = offsets = fields = None
    if words is not None:
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
                raise MalformedJson('offset-bearing "words" require a "text" string', line=line)
            try:
                fields = list(map(_WORD_FIELDS, words))
            except KeyError as err:
                raise MalformedJson(f"bad word record: {err}", line=line) from None
            surfaces, starts, ends = zip(*fields)
            if not _INT.issuperset(map(type, starts + ends)):
                raise MalformedJson("word offsets must be JSON integers", line=line)
            offsets = starts, ends
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

    if fields is not None:
        try:
            _check_word_spans(text, fields)
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
            words = tuple(map(_new_word, zip(surfaces, *(offsets or _synthetic_offsets(surfaces)))))
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


def _range_records(
    src: BinaryIO, size: int | None, lineno: int, path: str | Path, doccano: bool = False
) -> list[tuple[int, dict]]:
    """The records in the next ``size`` bytes of ``src`` (None: in all the
    rest), a byte range of the JSONL file at ``path`` that starts at its
    line ``lineno``, numbered as in the whole file and read as Doccano
    lines where ``doccano``; none in a range of blank lines. Bytes that are
    not UTF-8 raise UndecodableInput naming ``path`` and their byte and
    line in the whole file, as `read_text` does."""
    start = src.tell() if src.seekable() else 0  # a pipe is read whole, from its start
    try:
        records = _json_records(_decoded(src.read(size), path, start, lineno), lineno)
    except EmptyInput:  # a range of blank lines
        return []
    return _doccano_records(records) if doccano else records


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
# of the other type.
_LINE = '{"text": %s, "words": %s, "labels": %s, "entities": %s}\n'
_WORD = '{"surface": %s, "start": %d, "end": %d}'
_ENTITY = '{"start": %d, "end": %d, "label": %s}'


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
    """One canonical line per document, formatted from its row with each
    distinct Label escaped once per call: for str text, surfaces and class
    names and int offsets, byte for byte what
    ``json.dumps(document_to_record(doc), ensure_ascii=False)`` writes.

    A bool offset is written as the int it equals. A text, surface or
    class name that is no str raises TypeError, and then nothing is
    written."""
    literals = _Literals()
    dest.writelines([_canonical_line(_document_row(doc), literals) for doc in documents])


def save_canonical_jsonl(documents: Iterable[Document], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        write_canonical_jsonl(documents, handle)


def _convert_file(
    input_path: str, output_path: str, source: AnnotationScheme, target: AnnotationScheme,
    processes: int,
) -> int:
    """`convert`: the JSONL file at ``input_path``, its labels translated
    from ``source`` to ``target``, written to ``output_path``; the number
    of documents. Its ranges convert through `ranges._split` in up to
    ``processes`` processes, and the output is written only once every
    record has converted: it may be the input."""
    work = partial(_convert_range, path=input_path, source=source, target=target)
    summaries, output = ranges._split(
        Path(input_path), processes, ranges._CONVERT_MIN_RANGE_BYTES, work)
    documents = sum(summaries)
    if not documents:  # a record converts to a line or raises
        raise EmptyInput("no records in JSONL input")
    with open(output_path, "wb") as handle:
        handle.write(output)
    return documents


def _convert_range(
    src: BinaryIO,
    dst: TextIO,
    lineno: int,
    size: int | None,
    *,
    path: str,
    source: AnnotationScheme,
    target: AnnotationScheme,
) -> int:
    """The range `Work` of `convert`: the records in the next ``size`` bytes
    of ``src``, or in all the rest, of the file at ``path``, converted into
    ``dst``; the number of documents. A record that does not read raises,
    and records that cannot be converted raise one UnconvertibleInput,
    with nothing written."""
    rows = _rows(_range_records(src, size, lineno, path), source)[0]
    problems = []
    lines = []
    literals = _Literals()
    for row in rows:
        if row.labels is None:
            problems.append((row.line, "document has no word labels to convert"))
            continue
        try:
            labels = convert_scheme(LabelSequence(row.labels, source), target).labels
        except InconsistentSource as err:
            problems.extend(
                (row.line, f"{violation.kind.value} at position {violation.position}")
                for violation in err.violations
            )
            continue
        lines.append(_canonical_line(row._replace(labels=labels), literals))
    if problems:
        raise UnconvertibleInput(problems)
    dst.writelines(lines)
    return len(lines)


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
) -> dict:
    """Corpus statistics as the tree that analysis.json holds: document
    and word counts and per-class entity counts (strict chunk decoding
    for labeled documents) per split, the scheme's name (``scheme`` if
    given, else read off the documents' parsed labels), whether the
    corpus is pretokenized, and the split seed. Labels are decoded in
    that scheme."""
    labels = (
        doc.word_labels.labels
        for split in splits for doc in split.documents if doc.word_labels is not None
    )  # read only where no scheme is given
    scheme = resolve_scheme(chain.from_iterable(labels), scheme)
    return _analysis_tree([(split.name, split._stats(scheme)) for split in splits], scheme, seed)


def _row_stats(rows: Iterable[_Row], scheme: AnnotationScheme) -> list[tuple[int | None, list]]:
    """What `analyze` counts of each row: its number of words (None where
    it has no words) and the classes of its entities, decoded strictly in
    ``scheme`` where it has labels."""
    stats = []
    for row in rows:
        if row.labels is not None:
            classes = [c.class_name for c in decode(LabelSequence(row.labels, scheme)).strict]
        else:
            classes = [label for _, _, label in row.entities or ()]
        stats.append((None if row.surfaces is None else len(row.surfaces), classes))
    return stats


def _analysis_tree(
    splits: Iterable[tuple[str, Sequence[Sequence]]], scheme: AnnotationScheme, seed: int | None
) -> dict:
    """The analysis.json tree of (split name, `_row_stats` of its rows) pairs."""
    num_documents, num_words, entity_counts = {}, {}, {}
    pretokenized = True
    for name, stats in splits:
        num_documents[name] = len(stats)
        words = 0
        counts: Counter[str] = Counter()
        for count, classes in stats:
            if count is None:
                pretokenized = False
            else:
                words += count
            counts.update(classes)
        num_words[name] = words
        entity_counts[name] = dict(sorted(counts.items()))
    return {
        "num_documents": num_documents,
        "num_words": num_words,
        "entity_counts": entity_counts,
        "scheme_detected": scheme.value,
        "pretokenized": pretokenized,
        "seed": seed,
    }


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
        return _doccano_records(records) if _is_doccano(records[0][1]) else records
    raise UnresolvableSource(f"cannot infer a format from extension {suffix!r}")


def _is_doccano(first: dict) -> bool:
    """Whether a .jsonl file read without a dialect, whose first record is
    ``first``, is a Doccano export rather than canonical records."""
    return "label" in first and "labels" not in first and "words" not in first


def parse_file(
    path: str | Path,
    *,
    dialect: str | None = None,
    scheme: AnnotationScheme | str | None = None,
) -> list[Document]:
    """Parse one dataset file, of any format `set_up` reads."""
    return _documents(*_rows(_file_records(path, dialect), scheme))


def _builtin_files(name: str) -> list:
    """The files of a bundled corpus, one per split, as package resources."""
    from importlib import resources  # only built-in sources need it, so it stays out of start-up

    if name not in BUILTIN_DATASETS:
        raise UnresolvableSource(
            f"unknown built-in dataset {name!r}; available: {sorted(BUILTIN_DATASETS)}"
        )
    base = resources.files("seqlab").joinpath("data", BUILTIN_DATASETS[name])
    return [base.joinpath(f"{split_name}.jsonl") for split_name in SPLIT_NAMES]


def _bundled_records(file) -> list[tuple[int, dict]]:
    """The canonical records of one file of a bundled corpus."""
    return _json_records(file.read_text(encoding="utf-8"))


def set_up(
    source: str,
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
) -> tuple[tuple[DatasetSplit, DatasetSplit, DatasetSplit], dict]:
    """Normalize a dataset from any source into canonical files.

    ``source`` is "LF", "HF", "AT" or "BI", in any case; any other raises
    UnresolvableSource. Pre-split sources (three paths, or a built-in)
    pass through; unsplit sources are shuffled with the seed and split by
    ratio. The labels of all files are parsed before any record is
    checked, in ``scheme`` if given, else the one read off all the labels.
    Optional per-split fractions prune after splitting. Canonical
    {train,val,test}.jsonl and analysis.json are written under
    data_dir/name and the splits plus analysis are returned.

    The files and the analysis are those `dataset set-up` writes, made in
    one process; the splits are the written files, read back in the
    analysis's scheme.
    """
    analysis = _set_up_dataset(
        source, name=name, path=path, split_paths=(train_path, val_path, test_path),
        dialect=dialect, split_ratio=split_ratio, seed=seed,
        fractions=(train_fraction, val_fraction, test_fraction), scheme=scheme, data_dir=data_dir,
        processes=1,
    )
    out_dir = resolve_data_dir(data_dir) / name
    scheme = analysis["scheme_detected"]
    return tuple(load_split(out_dir, split, scheme=scheme) for split in SPLIT_NAMES), analysis


def _set_up_dataset(
    source: str,
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
    processes: int,
) -> dict:
    """`set_up`'s files and analysis tree, its input read in parts through
    `ranges._split` in up to ``processes`` processes: a pre-split dataset
    in groups of whole files, one JSONL file (a Doccano export or canonical
    records) in byte ranges, a bundled corpus or any other one file in one
    part. Each part is set up by `_set_up_part`; this process then splits,
    prunes, analyzes and writes what the parts read (`_write_set_up`)."""
    kind = str(source).upper()
    if kind not in ("LF", "HF", "AT", "BI"):
        raise UnresolvableSource(f"unknown source kind: {source!r}")
    read = partial(_file_records, dialect=dialect)
    if kind == "BI":
        inputs, read, processes = _builtin_files(name), _bundled_records, 1  # it is small
    elif any(split_paths):
        if not all(split_paths):
            raise UnresolvableSource("pre-split input needs all three split paths")
        inputs = list(split_paths)
    elif path is None:
        raise UnresolvableSource(f"source {kind} needs a file path")
    elif dialect == "doccano" or dialect is None and Path(path).suffix.lower() == ".jsonl":
        inputs, doccano, processes = _jsonl_input(path, dialect, processes)
    else:
        inputs = [path]
    if isinstance(inputs, list):
        work = partial(_set_up_files, read=read, scheme=scheme)
    else:
        work = partial(_set_up_range, path=inputs, doccano=doccano, scheme=scheme)
    summaries, output = ranges._split(
        inputs, processes, ranges._SET_UP_MIN_RANGE_BYTES, work, _one_scheme)
    stats = [row for summary in summaries for row in summary[1]]
    if not stats:  # only the ranges of a JSONL file can all read no record
        raise EmptyInput("no records in JSONL input")
    sizes = [size for summary in summaries for size in summary[2]]
    # a canonical line escapes every "\r" and "\n" but its end
    pairs = list(zip(output.splitlines(keepends=True), stats))
    return _write_set_up(
        pairs, sizes if kind == "BI" or any(split_paths) else None,
        AnnotationScheme.coerce(summaries[0][0]), out_dir=resolve_data_dir(data_dir) / name,
        split_ratio=split_ratio, seed=seed, fractions=fractions,
    )


def _jsonl_input(path: str | Path, dialect: str | None, processes: int) -> tuple[Path, bool, int]:
    """(path, whether its lines read as Doccano lines, processes) of a
    set-up of the JSONL file at ``path``: Doccano lines with the dialect
    "doccano" and, without one, as the record on its first non-blank line
    reads. Where that line is not UTF-8 or holds no JSON object, the input
    fails whatever the parts read, so it is read in one part."""
    path = Path(path)
    if not path.is_file():  # before `_split`, which opens a pipe it is given
        raise UnresolvableSource(f"not a readable file: {path}")
    if dialect == "doccano":
        return path, True, processes
    with open(path, "rb") as src:  # lines end at b"\n" only, as `_json_records` reads them
        try:
            first = next(filter(str.strip, (line.decode("utf-8") for line in src)), "null")
            first = load_json(first)
        except (UnicodeDecodeError, SeqlabError):
            first = None
    if not isinstance(first, dict):
        return path, False, 1
    return path, _is_doccano(first), processes


def _set_up_range(
    src: BinaryIO,
    dst: TextIO,
    lineno: int,
    size: int | None,
    *,
    path: Path,
    doccano: bool,
    scheme: AnnotationScheme | str | None,
) -> list:
    """The range `Work` of a set-up of the JSONL file at ``path``: the
    records in the next ``size`` bytes of ``src``, or in all the rest, read
    as Doccano lines where ``doccano``, set up as one part."""
    return _set_up_part([_range_records(src, size, lineno, path, doccano)], dst, scheme)


def _set_up_files(
    group: tuple, dst: TextIO, *, read, scheme: AnnotationScheme | str | None
) -> list:
    """The group work of a set-up: the files of ``group``, each read by
    ``read``, set up as one part."""
    return _set_up_part([read(path) for path in group], dst, scheme)


def _set_up_part(
    files: list[list], dst: TextIO, scheme: AnnotationScheme | str | None
) -> list:
    """The work of a set-up on one part, the records of each of ``files``:
    their labels parsed (in ``scheme``, or in the one read off them all)
    before any record is checked, through one `_rows` call, and their
    canonical lines written to ``dst``. Its summary is that scheme's name,
    each row's `_row_stats` in it, and each file's number of rows."""
    rows, scheme = _rows(list(chain.from_iterable(files)), scheme)
    literals = _Literals()
    dst.writelines([_canonical_line(row, literals) for row in rows])
    return [scheme.value, _row_stats(rows, scheme), list(map(len, files))]


def _one_scheme(summaries: list) -> bool:
    """Whether the parts of an input, each summary's first item naming the
    scheme that part read off its own labels, all read the same one.

    Parts that agree on a scheme agree with their whole, which
    `schemes.resolve_scheme` reads as BILOU if any label has an L or U
    prefix, as IO if I occurs without B, and as BIO otherwise. Where every
    part reads BILOU, some part has L or U, and so has the whole. Where
    every part reads IO, no part has B, L or U and some part has I, and so
    has the whole. Where every part reads BIO, no part has L or U and each
    part has a B or has no I, so the whole has a B or has no I. So what the
    parts read, count and decode in that scheme is what one process does
    with the whole."""
    return len({summary[0] for summary in summaries}) == 1


def _write_set_up(
    pairs: list,
    sizes: Sequence[int] | None,
    scheme: AnnotationScheme,
    *,
    out_dir: Path,
    split_ratio: Sequence[float],
    seed: int,
    fractions: Sequence[float | None],
) -> dict:
    """The end of every set-up: the (canonical line as UTF-8 bytes,
    `_row_stats` item) ``pairs`` of its records, in file order, split into
    train, val and test, pruned by ``fractions``, analyzed in ``scheme`` and
    written under ``out_dir``; the analysis tree. ``sizes`` are the number
    of records of each pre-split file, or None where the records are
    shuffled with ``seed`` and split by ``split_ratio``."""
    if sizes is None:
        splits, used_seed = split_documents(pairs, split_ratio, seed), seed
    else:
        remaining = iter(pairs)
        splits = [DatasetSplit(s, islice(remaining, n)) for s, n in zip(SPLIT_NAMES, sizes)]
        used_seed = None
    splits = tuple(
        _RowSplit(split.name, (split if fraction is None else prune(split, fraction)).documents)
        for split, fraction in zip(splits, fractions)
    )
    tree = analyze(splits, scheme=scheme, seed=used_seed)

    out_dir.mkdir(parents=True, exist_ok=True)
    for split in splits:
        with open(out_dir / f"{split.name}.jsonl", "wb") as handle:
            handle.writelines([line for line, _ in split.documents])
    with open(out_dir / "analysis.json", "w", encoding="utf-8") as handle:
        json.dump(tree, handle, ensure_ascii=False, indent=2)
        handle.write("\n")
    return tree


def _is_entry(name: str) -> bool:
    """Whether ``name`` is one directory entry, as a set-up name and a run
    name must be."""
    return name not in ("", ".", "..") and not any(c in name for c in _NOT_IN_ENTRY)


def resolve_data_dir(data_dir: str | Path | None = None) -> Path:
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

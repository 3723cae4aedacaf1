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
Doccano line or a LabelStudio task a "text" + "entities" record. One
function, `_document_from_record`, checks a record and builds its
`Document`, and its errors are the only ones a record raises.
`_canonical_documents` builds the documents of the readers. It parses
every label first, naming its line, through one `LabelTable` under the
given scheme, else under BILOU, which admits every prefix, and reads the
scheme off the table's labels before it builds any document.

`dataset set-up`, `evaluate`, `convert` and the `echo:` tagger need only
the words and labels of a record. `_word_labeled` parses the labels the
same way, then checks each word-labeled record without "entities" in one
loop over its decoded words (`_checked_surfaces`) and keeps its surfaces
and labels, building no `Word` or `Document`. Every other record, and
every record that fails a check, goes to `_document_from_record`, so the
errors stay those of the readers. `_set_up` reads the records of all the
set-up files at once this way, then splits, analyzes and writes them;
the public `set_up` builds the kept records' Documents afterwards.

Canonical lines are formatted, not built as dicts for the JSON encoder.
`_canonical_line` fills fixed templates from a document's fields:
strings through the encoder's own escaper (`encode_basestring`), offsets
with %d, each distinct Label escaped once per write. `write_canonical_jsonl`
writes Documents through it, and `_record_line` a record that
`_checked_surfaces` passed, single-space offsets computed without Words;
set-up and `convert` write through both. Each line is byte for byte what
``json.dumps(document_to_record(doc), ensure_ascii=False)`` writes; a
document with fields of other types (a bool offset, say) is written
through the encoder.
"""

from __future__ import annotations

import json
import math
import random
import re
from enum import Enum
from functools import partial
from itertools import accumulate, chain, groupby, islice, repeat
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
#: a Word from its (surface, start, end), built in C; Word has no __new__ of its own
_new_word = partial(tuple.__new__, Word)


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
        return tuple([table[raw] for raw in raws])
    except (PrefixNotInScheme, MalformedLabel) as err:
        # the first label not in the table is the one that failed: it is never stored
        index = next(i for i, raw in enumerate(raws) if raw not in table)
        line = line[index] if type(line) is tuple else line
        if isinstance(err, PrefixNotInScheme):
            raise PrefixNotInScheme(raws[index], table.scheme.value, line=line) from None
        raise MalformedLabel(str(err), line=line) from None


def _synthetic_spans(surfaces: Sequence[str]) -> tuple[str, Iterable[tuple[str, int, int]]]:
    """The single-space join of the surfaces, and each surface's
    (surface, start, end) in it."""
    lengths = list(map(len, surfaces))
    # each word starts one past the end of the one before it
    starts = list(accumulate(map(add, lengths, repeat(1)), initial=0))
    return " ".join(surfaces), zip(surfaces, starts, map(add, starts, lengths))


def _synthetic_words(surfaces: Sequence[str]) -> tuple[str, tuple[Word, ...]]:
    """The single-space join of the surfaces, and each surface's Word in it."""
    text, spans = _synthetic_spans(surfaces)
    return text, tuple(map(_new_word, spans))


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
    return _canonical_documents(_conll_records(source), scheme)[0]


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


def _align_words(text: str, surfaces: Sequence[str], lineno: int) -> tuple[Word, ...]:
    words = []
    cursor = 0
    for surface in surfaces:
        position = text.find(surface, cursor)
        if not surface or position < 0:
            raise MalformedJson(
                f"word {surface!r} cannot be aligned with the text", line=lineno
            )
        words.append(Word(surface, position, position + len(surface)))
        cursor = position + len(surface)
    return tuple(words)


def _word_strings(raw_words, lineno: int) -> list[str] | None:
    """A "words" array of non-empty strings, or None for one of objects."""
    if not isinstance(raw_words, list) or not raw_words:
        raise MalformedJson('"words" must be a non-empty array', line=lineno)
    if all(isinstance(w, str) for w in raw_words):
        if not all(raw_words):
            raise MalformedJson("words cannot be empty strings", line=lineno)
        return raw_words
    if all(isinstance(w, dict) for w in raw_words):
        return None
    raise MalformedJson('"words" mixes strings and objects', line=lineno)


def _words_from_record(record: dict, lineno: int) -> tuple[str, tuple[Word, ...]]:
    surfaces = _word_strings(record["words"], lineno)
    text = record.get("text")
    if surfaces is not None:
        if text is None:
            return _synthetic_words(surfaces)
        if not isinstance(text, str):
            raise MalformedJson('"text" must be a string', line=lineno)
        return text, _align_words(text, surfaces, lineno)
    if not isinstance(text, str):
        raise MalformedJson('offset-bearing "words" require a "text" string', line=lineno)
    try:
        words = tuple([Word(w["surface"], w["start"], w["end"]) for w in record["words"]])
    except KeyError as err:
        raise MalformedJson(f"bad word record: {err}", line=lineno) from None
    if not all([type(start) is int and type(end) is int for _, start, end in words]):
        raise MalformedJson("word offsets must be JSON integers", line=lineno)
    return text, words


def _entities_from_record(text: str, raw_entities: list, lineno: int) -> tuple[EntitySpan, ...]:
    spans = []
    for item in raw_entities:
        try:
            start, end, label = item["start"], item["end"], item["label"]
        except (KeyError, TypeError, ValueError) as err:
            raise MalformedJson(f"bad entity record: {err}", line=lineno) from None
        if type(start) is not int or type(end) is not int:
            raise MalformedJson(
                f"entity offsets {start!r:.20} and {end!r:.20} are not JSON integers",
                line=lineno,
            )
        if not isinstance(label, str):
            raise MalformedJson(f"entity label {label!r:.40} is not a string", line=lineno)
        if not label:
            raise MalformedJson("entity label cannot be empty", line=lineno)
        if label == "O":
            raise MalformedJson('"O" is the outside label, not an entity class', line=lineno)
        if not (0 <= start < end <= len(text)):
            raise SpanOutOfBounds(
                f"span [{start}, {end}) outside text of length {len(text)}",
                line=lineno,
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
                f"span starting at {start} overlaps the previous one", line=lineno
            )
        previous_end = end
    return tuple([EntitySpan(label, start, end, text[start:end]) for start, end, label in spans])


def _has_labels(
    record: dict, labels: tuple[Label, ...] | None, words: Sequence | None, lineno: int
) -> bool:
    """Whether the record carries word labels; raises unless its parsed
    string "labels" fit its words one to one."""
    if record.get("labels") is None:
        return False
    if words is None:
        raise MalformedJson('"labels" require "words"', line=lineno)
    if labels is None:
        raise MalformedJson('"labels" must be an array of strings', line=lineno)
    if len(labels) != len(words):
        raise LengthMismatch(f"{len(labels)} labels for {len(words)} words", line=lineno)
    return True


def _document_from_record(
    lineno: int, record: dict, labels: tuple[Label, ...] | None, scheme: AnnotationScheme
) -> Document:
    """One record's document; ``labels`` are its parsed string "labels"."""
    words = word_labels = entities = None
    text = record.get("text")

    if record.get("words") is not None:
        text, words = _words_from_record(record, lineno)
    elif not isinstance(text, str):
        raise MalformedJson('record needs a "text" string', line=lineno)

    if _has_labels(record, labels, words, lineno):
        word_labels = LabelSequence(labels, scheme)

    raw_entities = record.get("entities")
    if raw_entities is not None:
        if not isinstance(raw_entities, list):
            raise MalformedJson('"entities" must be an array', line=lineno)
        entities = _entities_from_record(text, raw_entities, lineno)

    try:
        return Document(text, words=words, word_labels=word_labels, entities=entities)
    except ValueError as err:
        raise MalformedJson(str(err), line=lineno) from None


def _record_labels(
    records: list[tuple[int, dict]], scheme: AnnotationScheme | str | None
) -> tuple[list[tuple[Label, ...] | None], AnnotationScheme]:
    """Each record's parsed string "labels" (None where they are not an
    array of strings), all through one table, and the scheme read off them."""
    table = LabelTable(AnnotationScheme.coerce(scheme or AnnotationScheme.BILOU))
    parsed = []
    for lineno, record in records:
        raws = record.get("labels")
        strings = isinstance(raws, list) and all(isinstance(raw, str) for raw in raws)
        parsed.append(_parse_labels(raws, lineno, table) if strings else None)
    return parsed, resolve_scheme(table.values(), scheme)


def _canonical_documents(
    records: list[tuple[int | tuple[int, ...], dict]], scheme: AnnotationScheme | str | None
) -> tuple[list[Document], AnnotationScheme]:
    """Documents from canonical records, and the scheme read off all their labels, which
    are parsed before any document is built. The public readers and `set_up` end here. A
    CoNLL sentence is paired with the line of each word, so that a bad label names its own
    line."""
    parsed, scheme = _record_labels(records, scheme)
    return [_document_from_record(*r, p, scheme) for r, p in zip(records, parsed)], scheme


def _checked_surfaces(record: dict, labels: tuple[Label, ...] | None) -> list[str] | None:
    """The word surfaces of a word-labeled record without "entities" that
    passes every check `_document_from_record` makes, found without
    building a Word or a Document; None for any other record, which that
    function then reads or rejects. ``labels`` are the record's parsed
    string "labels".

    The words are non-empty strings where the record has no "text", else
    objects with "surface", "start" and "end" whose offsets are JSON
    integers and give non-empty, increasing spans inside the text, each
    sliced to its surface. There are as many labels as words."""
    words = record.get("words")
    if (
        labels is None
        or type(words) is not list
        or not words
        or len(words) != len(labels)
        or record.get("entities") is not None
    ):
        return None
    text = record.get("text")
    if text is None:
        return words if all([type(w) is str and w for w in words]) else None
    if type(text) is not str:
        return None
    surfaces = []
    end = 0
    try:
        for word in words:
            surface, start, stop = word["surface"], word["start"], word["end"]
            if (
                type(start) is not int
                or type(stop) is not int
                or not end <= start < stop
                or text[start:stop] != surface
            ):
                return None
            surfaces.append(surface)
            end = stop
    except (KeyError, TypeError):  # a word that is not an object, or lacks a key
        return None
    # the ends increase, so the last one is the largest
    return surfaces if end <= len(text) else None


def _word_labeled(
    records: list[tuple[int, dict]], scheme: AnnotationScheme | str | None
) -> tuple[list[tuple[list[str], tuple[Label, ...]] | Document], AnnotationScheme]:
    """For each record, its (word surfaces, parsed labels) where
    `_checked_surfaces` passes it, else its Document; and the scheme read
    off all labels. Labels, scheme and errors are those of
    `_canonical_documents`."""
    parsed, scheme = _record_labels(records, scheme)
    items = []
    for (lineno, record), labels in zip(records, parsed):
        surfaces = None if labels is None else _checked_surfaces(record, labels)
        if surfaces is None:
            items.append(_document_from_record(lineno, record, labels, scheme))
        else:
            items.append((surfaces, labels))
    return items, scheme


def read_canonical_jsonl(
    source: str, *, scheme: AnnotationScheme | str | None = None
) -> list[Document]:
    """Read the canonical JSONL format (word-level, entity-level, or both)."""
    return _canonical_documents(_json_records(source), scheme)[0]


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
    return _canonical_documents(records, scheme)[0]


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
    return _canonical_documents(_export_records(source, dialect), None)[0]


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
_ENTITY_FIELDS = itemgetter(0, 1, 2)  # class name, start and end of an EntitySpan
_STR_AND_INT = frozenset({str, int})


class _Literals(dict):
    """The JSON string of each Label of a write, serialized and escaped once."""

    def __missing__(self, label: Label) -> str:
        literal = self[label] = encode_basestring(label.serialize())
        return literal


def _canonical_line(
    text: str,
    words: Iterable[tuple[str, int, int]] | None,
    labels: Iterable[Label] | None,
    entities: Iterable[EntitySpan] | None,
    literals: _Literals,
) -> str:
    """The canonical line of a document with these fields; ``words`` are
    (surface, start, end) triples, ``literals`` the Label cache of the write."""
    words_json = labels_json = entities_json = "null"
    if words is not None:
        words_json = "[%s]" % ", ".join(
            [_WORD % (encode_basestring(s), start, end) for s, start, end in words]
        )
    if labels is not None:
        labels_json = "[%s]" % ", ".join(map(literals.__getitem__, labels))
    if entities is not None:
        entities_json = "[%s]" % ", ".join(
            [
                _ENTITY % (start, end, encode_basestring(class_name))
                for class_name, start, end in map(_ENTITY_FIELDS, entities)
            ]
        )
    return _LINE % (encode_basestring(text), words_json, labels_json, entities_json)


def _record_line(record: dict, labels: Iterable[Label], literals: _Literals) -> str:
    """The canonical line, with these labels, of a record `_checked_surfaces`
    passed: its words are checked spans of its text, or strings joined with
    single spaces where it has none."""
    text = record.get("text")
    if text is None:
        text, words = _synthetic_spans(record["words"])
    else:
        words = map(_WORD_FIELDS, record["words"])
    return _canonical_line(text, words, labels, None, literals)


def write_canonical_jsonl(documents: Iterable[Document], dest: IO[str]) -> None:
    """One canonical line per document, byte for byte what
    ``json.dumps(document_to_record(doc), ensure_ascii=False)`` writes.

    Each line is formatted from the document's fields, each distinct Label
    escaped once per call. A document whose text, surfaces, entity class
    names and offsets are not all of type str or int (a bool offset, say)
    is written through the encoder."""
    literals = _Literals()
    for doc in documents:
        text, words, entities = doc.text, doc.words, doc.entities
        fields = chain((text,), *(words or ()), *map(_ENTITY_FIELDS, entities or ()))
        line = None
        if _STR_AND_INT.issuperset(map(type, fields)):
            labels = None if doc.word_labels is None else doc.word_labels.labels
            try:
                line = _canonical_line(text, words, labels, entities, literals)
            except TypeError:  # an int where a str belongs, or the other way round
                pass
        dest.write(line or json.dumps(document_to_record(doc), ensure_ascii=False) + "\n")


def save_canonical_jsonl(documents: Iterable[Document], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        write_canonical_jsonl(documents, handle)


def _save_items(items: Iterable, path: str | Path) -> None:
    """Write set-up items: a run of Documents through `write_canonical_jsonl`,
    each ((line, record), (surfaces, labels)) through `_record_line`."""
    literals = _Literals()
    with open(path, "w", encoding="utf-8") as handle:
        for kind, run in groupby(items, type):
            if kind is Document:
                write_canonical_jsonl(run, handle)
            else:
                handle.writelines([_record_line(r[1], p[1], literals) for r, p in run])


def split_documents(
    documents: Sequence[Document],
    ratio: Sequence[float] = DEFAULT_SPLIT_RATIO,
    seed: int = 42,
) -> tuple[DatasetSplit, DatasetSplit, DatasetSplit]:
    """Deterministic shuffled split: train and val sizes are floored,
    test takes the remainder."""
    if len(ratio) != 3 or any(r < 0 for r in ratio) or abs(sum(ratio) - 1.0) > 1e-9:
        raise ValueError(f"split ratio must be three non-negative numbers summing to 1, got {ratio}")
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
    and whether the corpus is pretokenized. A split may hold, in place of
    a word-labeled Document, its (word surfaces, parsed labels) pair, as
    `count_documents` takes it; such pairs are decoded in ``scheme``,
    which they need."""
    num_documents = {}
    num_words = {}
    entity_counts: dict[str, dict[str, int]] = {}
    sequences: list[LabelSequence] = []
    pretokenized = True
    for split in splits:
        num_documents[split.name] = len(split.documents)
        words = 0
        counts: dict[str, int] = {}
        for doc in split.documents:
            if type(doc) is not Document:
                words += len(doc[0])
                labels = LabelSequence(doc[1], AnnotationScheme.coerce(scheme))
            else:
                if doc.words is None:
                    pretokenized = False
                else:
                    words += len(doc.words)
                labels = doc.word_labels
                if labels is None and doc.entities is not None:
                    for entity in doc.entities:
                        counts[entity.class_name] = counts.get(entity.class_name, 0) + 1
            if labels is not None:
                sequences.append(labels)
                for chunk in decode(labels).strict:
                    counts[chunk.class_name] = counts.get(chunk.class_name, 0) + 1
        num_words[split.name] = words
        entity_counts[split.name] = dict(sorted(counts.items()))
    return DatasetAnalysis(
        num_documents=num_documents,
        num_words=num_words,
        entity_counts=entity_counts,
        scheme_detected=resolve_scheme(chain.from_iterable(sequences), scheme),
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
    return _canonical_documents(_file_records(path, dialect), scheme)[0]


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

    The files and the analysis come from `_set_up`, which builds no
    Document for a word-labeled record without "entities"; the returned
    splits build those Documents afterwards from the kept records.
    """
    splits, analysis = _set_up(
        source, name=name, path=path, split_paths=(train_path, val_path, test_path),
        dialect=dialect, split_ratio=split_ratio, seed=seed,
        fractions=(train_fraction, val_fraction, test_fraction), scheme=scheme, data_dir=data_dir,
    )
    scheme = analysis.scheme_detected
    return tuple(
        DatasetSplit(split.name, [
            item if type(item) is Document else _document_from_record(*item[0], item[1][1], scheme)
            for item in split.documents
        ])
        for split in splits
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
    """`set_up`'s files and analysis, and its splits with each record that
    `_word_labeled` reads without a Document left as ((line, record),
    (surfaces, parsed labels)). The shuffle depends only on the number of
    records and the seed, so the splits hold the same records as
    Documents would."""
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

    records = list(chain.from_iterable(files))
    items, scheme = _word_labeled(records, scheme)
    items = [i if type(i) is Document else (r, i) for r, i in zip(records, items)]

    if len(files) == 1:
        splits, used_seed = split_documents(items, split_ratio, seed), seed
    else:
        remaining = iter(items)
        splits = [DatasetSplit(s, islice(remaining, len(f))) for s, f in zip(SPLIT_NAMES, files)]
        used_seed = None
    splits = tuple(
        split if fraction is None else prune(split, fraction)
        for split, fraction in zip(splits, fractions)
    )

    pairs = [[i if type(i) is Document else i[1] for i in s.documents] for s in splits]
    analysis = analyze(
        [DatasetSplit(s.name, p) for s, p in zip(splits, pairs)], scheme=scheme, seed=used_seed
    )

    out_dir = resolve_data_dir(data_dir) / name
    out_dir.mkdir(parents=True, exist_ok=True)
    for split in splits:
        _save_items(split.documents, out_dir / f"{split.name}.jsonl")
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
    return DatasetSplit(phase, _canonical_documents(_split_records(dataset_dir, phase), scheme)[0])


def load_analysis(dataset_dir: str | Path) -> dict:
    path = Path(dataset_dir) / "analysis.json"
    if not path.is_file():
        raise UnresolvableSource(f"missing analysis file: {path}")
    return load_json(read_text(path))

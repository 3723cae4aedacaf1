"""The record layer every file command runs: outside input, checked rows,
canonical lines, and `convert`.

Outside input enters through `read_text` (a file's UTF-8 text) and
`load_json` (every JSON text the package reads); both raise typed errors
naming the line. `load_json` also rejects lone surrogate escapes, so
every string read can be written out as UTF-8. JSONL is read by
`_json_records`, whose lines end at "\\n" only, and by `_range_records`
in byte ranges; a Doccano line becomes a "text" + "entities" record.

Every record is then read into one checked row, `_Row`: its line, text,
word surfaces and offsets, parsed labels and entity (start, end, class)
triples. `_rows` parses every label first, naming its line, through one
`LabelTable` under the given scheme, else under BILOU, which admits every
prefix, and reads the scheme off the table's labels; then `_check_record`
applies each rule to each record once and raises the first one broken.
`dataset set-up`, `evaluate`, `convert` and the `echo:` tagger read rows
only, and build no `Word`, `EntitySpan` or `Document`.

Canonical lines are formatted, not built as dicts for the JSON encoder.
`_canonical_line` fills fixed templates from a row: strings through the
encoder's own escaper (`encode_basestring`), offsets with %d, each
distinct Label escaped once per write. Each line is byte for byte what
``json.dumps(document_to_record(doc), ensure_ascii=False)`` writes for
the row's document when its text, surfaces and class names are str and
its offsets int. A bool offset is written as the int it equals; a text,
surface or class name that is no str raises TypeError.

The package imports this module for every command. What only `dataset
set-up` and the public Document API run (the CoNLL and LabelStudio
readers, Documents, splitting, analysis and the set-up itself) is in
`seqlab.ingest`, which loads lazily, so this module imports nothing of it.
"""

from __future__ import annotations

import json
import os
import re
from functools import partial
from itertools import accumulate, repeat
from json.encoder import encode_basestring
from operator import add, itemgetter
from pathlib import Path
from typing import BinaryIO, NamedTuple, Sequence, TextIO

from . import ranges
from .core import (
    AnnotationScheme,
    Document,
    Label,
    LabelSequence,
    LabelTable,
    _check_word_spans,
)
from .errors import (
    EmptyInput,
    InconsistentSource,
    LengthMismatch,
    MalformedJson,
    MalformedLabel,
    OverlappingSpans,
    PrefixNotInScheme,
    SpanOutOfBounds,
    UnconvertibleInput,
    UndecodableInput,
    UnresolvableSource,
)
from .schemes import convert_scheme, resolve_scheme

SPLIT_NAMES = ("train", "val", "test")

_WORD_FIELDS = itemgetter("surface", "start", "end")
_STR, _DICT, _INT = frozenset({str}), frozenset({dict}), frozenset({int})
#: what may not occur in one directory entry
_NOT_IN_ENTRY = {"\0", "/", os.sep, os.altsep} - {None}


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


def _is_entry(name: str) -> bool:
    """Whether ``name`` is one directory entry, as a set-up name and a run
    name must be."""
    return name not in ("", ".", "..") and not any(c in name for c in _NOT_IN_ENTRY)


def resolve_data_dir(data_dir: str | Path | None = None) -> Path:
    if data_dir is not None:
        return Path(data_dir)
    return Path(os.environ.get("SEQLAB_DATA_DIR", "seqlab_data"))


def load_analysis(dataset_dir: str | Path) -> dict:
    path = Path(dataset_dir) / "analysis.json"
    if not path.is_file():
        raise UnresolvableSource(f"missing analysis file: {path}")
    return load_json(read_text(path))

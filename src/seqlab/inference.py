"""Pluggable taggers and prediction post-processing.

A tagger is anything with ``tag(words) -> [(raw_label, probability), ...]``
returning one pair per word. The functions here do the bookkeeping around
it: whitespace word splitting with recorded character offsets, output
validation, strict entity decoding, char-offset merging, and batch/file
inference in which a SeqlabError, a broken tagger contract included,
fails only its own item. One function, `_prediction_fields`, computes
what every prediction holds; `predict` builds objects from it, and file
inference formats each output line from it directly.

`predict_file(..., processes=N)` runs its one per-line loop over up to
N byte ranges of an input of at least two `_MIN_RANGE_BYTES` (128 KiB)
through `ranges._run_ranges`, with the bytes and summary of one
process. The default, 1, never forks: pass more only for a tagger that
is safe to fork.

Raw text is split on Unicode whitespace and punctuation is not split
off; real subword tokenization belongs to the model behind the tagger
interface, not here. This keeps offsets trivially exact: every emitted
span satisfies text[char_start:char_end] == surface.
"""

from __future__ import annotations

import json
import os
import re
from functools import partial
from itertools import repeat
from json.encoder import encode_basestring
from pathlib import Path
from typing import (
    BinaryIO,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Protocol,
    Sequence,
    TextIO,
)

from .core import (
    AnnotationScheme,
    Chunk,
    Document,
    EntitySpan,
    Label,
    LabelSequence,
    LabelTable,
    Word,
    decode,
)
from .errors import (
    EmptyText,
    MalformedJson,
    OutputIsInput,
    SeqlabError,
    TaggerContractError,
    TaggerLengthMismatch,
    UndecodableInput,
    UnloadableTagger,
)
from .ranges import _ranges, _run_at, _run_ranges
from .records import _json_records, _rows, load_json, read_text
from .schemes import chunk_prefixes, resolve_scheme

_WORD_RE = re.compile(r"\S+")


class Tagger(Protocol):
    """Behavioral contract every tagger implements.

    ``tag`` returns exactly one (raw label string, probability) pair per
    input word, probabilities in [0, 1]. Implementations should expose a
    ``scheme`` attribute so callers know how to parse the labels; without
    one the caller's default applies, else the scheme is detected from
    the output (BIO when undecidable). A tagger that raises or returns
    anything else fails the item with TaggerContractError.
    """

    def tag(self, words: Sequence[str]) -> Sequence[tuple[str, float]]: ...


class LexiconTagger(NamedTuple):
    """Deterministic baseline tagger: surface form -> entity class.

    Consecutive words hitting the same class are encoded as one chunk in
    the tagger's scheme. Probability is 1.0 everywhere, including the
    outside default. An empty lexicon yields the all-O tagger.
    """

    lexicon: Mapping[str, str]
    scheme: AnnotationScheme = AnnotationScheme.BIO

    def tag(self, words: Sequence[str]) -> list[tuple[str, float]]:
        classes = list(map(self.lexicon.get, words))
        labels = ["O"] * len(classes)
        end = 0  # where the last chunk ended
        for start in [i for i, cls in enumerate(classes) if cls is not None]:
            if start < end:
                continue
            cls = classes[start]
            end = start + 1
            while end < len(classes) and classes[end] == cls:
                end += 1
            labels[start:end] = [f"{p}-{cls}" for p in chunk_prefixes(end - start, self.scheme)]
        return list(zip(labels, repeat(1.0)))

    @classmethod
    def from_json(cls, path: str | Path) -> "LexiconTagger":
        """Load from JSON: either a flat {surface: class} object or
        {"entries": {...}, "scheme": "BIO"}."""
        data = load_json(read_text(path))
        if not isinstance(data, dict):
            raise ValueError("lexicon file must hold a JSON object")
        scheme = AnnotationScheme.BIO
        if "entries" in data:
            scheme = AnnotationScheme.coerce(data.get("scheme", "BIO"))
            data = data["entries"]
        lexicon = dict(data)
        for class_name in lexicon.values():
            if not isinstance(class_name, str):
                raise ValueError(f"lexicon class {class_name!r} is not a string")
            Label("B", class_name)  # the label grammar: not empty, not "O"
        return cls(lexicon, scheme)


class EchoTagger(NamedTuple):
    """Echoes gold labels for word sequences it has seen; all-O otherwise.

    Stands in for a perfect model in pipeline tests and demos.
    """

    gold: Mapping[tuple[str, ...], tuple[str, ...]]
    scheme: AnnotationScheme = AnnotationScheme.BIO

    def tag(self, words: Sequence[str]) -> list[tuple[str, float]]:
        labels = self.gold.get(tuple(words), ("O",) * len(words))
        return list(zip(labels, repeat(1.0)))

    @classmethod
    def from_documents(cls, documents: Iterable[Document]) -> "EchoTagger":
        """Words and labels of the documents that have both; the scheme is
        the last such document's."""
        documents = [d for d in documents if d.words is not None and d.word_labels is not None]
        scheme = documents[-1].word_labels.scheme if documents else AnnotationScheme.BIO
        gold = {
            tuple([w.surface for w in d.words]): tuple(d.word_labels.serialized())
            for d in documents
        }
        return cls(gold, scheme)

    @classmethod
    def from_canonical_file(cls, path: str | Path) -> "EchoTagger":
        """Words and labels of a canonical JSONL file, checked as a
        dataset read checks them; the scheme is read off the labels."""
        records = _json_records(read_text(path))
        rows, scheme = _rows(records, None)
        # a label parses only from the string it serializes to, so a
        # checked row's labels are its record's strings as they were read
        gold = {
            tuple(row.surfaces): tuple(record["labels"])
            for (_, record), row in zip(records, rows)
            if row.labels is not None
        }
        return cls(gold, scheme)


def load_tagger(uri: str) -> Tagger:
    """Resolve a tagger URI: "lexicon:<path>", "echo:<path>", or "all-o";
    anything else, or an unreadable tagger file, raises UnloadableTagger."""
    kind, sep, argument = uri.partition(":")
    try:
        if uri == "all-o":
            return LexiconTagger({})
        if sep and kind == "lexicon":
            return LexiconTagger.from_json(argument)
        if sep and kind == "echo":
            return EchoTagger.from_canonical_file(argument)
    except (SeqlabError, OSError, ValueError, TypeError) as err:
        raise UnloadableTagger(f"cannot load tagger {uri!r}: {err}") from None
    raise UnloadableTagger(f"cannot load tagger {uri!r}: unknown tagger URI")


class WordPrediction(NamedTuple):
    """One word with its offsets, predicted label and (optional) probability."""

    word: str
    char_start: int
    char_end: int
    label: Label
    probability: float | None = None


class BatchItem(NamedTuple):
    index: int
    ok: bool
    value: object = None
    error: str | None = None


class FileSummary(NamedTuple):
    processed: int
    failed: int


def split_words(text: str) -> tuple[Word, ...]:
    """Unicode-whitespace word splitting with exact character offsets."""
    return tuple(Word(m.group(), m.start(), m.end()) for m in _WORD_RE.finditer(text))


def _word_spans(text: str) -> list[tuple[int, int]]:
    """The (start, end) offsets of `split_words`, without the words."""
    return [m.span() for m in _WORD_RE.finditer(text)]


def _tag_and_parse(
    tagger: Tagger,
    surfaces: Sequence[str],
    default: AnnotationScheme | None,
    tables: dict[AnnotationScheme, LabelTable],
) -> tuple[LabelSequence, list[float]]:
    """Run the tagger and parse its labels in the scheme it declares, else
    in ``default``, else in the one detected from them (BIO when all are
    O). Any breach of the tagger contract raises TaggerContractError.

    ``tables`` holds one LabelTable per parse scheme for a whole tagger
    run, so each distinct label is parsed once per run. A detected scheme
    is still read off this text's own labels.
    """
    try:
        output = list(tagger.tag(list(surfaces)))
    except SeqlabError:
        raise
    except Exception as err:
        raise TaggerContractError(f"tagger raised {type(err).__name__}: {err}") from err
    if len(output) != len(surfaces):
        raise TaggerLengthMismatch(
            f"tagger returned {len(output)} labels for {len(surfaces)} words"
        )
    try:
        # the float is checked too, as the output line writes it with %r
        pairs = [
            (raw, value)
            for raw, probability in output
            if isinstance(raw, str)
            and 0.0 <= probability <= 1.0
            and 0.0 <= (value := float(probability)) <= 1.0
        ]
    except Exception:
        pairs = None
    if pairs is None or len(pairs) != len(output):
        raise _breach(output)
    probabilities = [probability for _, probability in pairs]
    explicit = getattr(tagger, "scheme", None) or default
    try:
        scheme = AnnotationScheme.coerce(explicit or AnnotationScheme.BILOU)
    except ValueError as err:
        raise TaggerContractError(f"tagger scheme: {err}") from None
    if scheme not in tables:
        tables[scheme] = LabelTable(scheme)
    table = tables[scheme]
    labels = tuple([table[raw] for raw, _ in pairs])
    return LabelSequence(labels, resolve_scheme(labels, explicit)), probabilities


def _breach(output: list) -> TaggerContractError:
    """The error naming the first item of a tagger's output that is not a
    (label, probability in [0, 1]) pair."""
    for index, item in enumerate(output):
        try:
            raw, probability = item
            valid = (
                isinstance(raw, str)
                and 0.0 <= probability <= 1.0
                and 0.0 <= float(probability) <= 1.0
            )
        except Exception:
            valid = False
        if not valid:
            return TaggerContractError(
                f"tagger output for word {index} is not a (label, probability "
                f"in [0, 1]) pair: {item!r:.80}"
            )
    # only an item that changes between two reads gets here
    return TaggerContractError("tagger output changed while it was checked")


def tagged_labels(
    tagger: Tagger, surfaces: Sequence[str], default: AnnotationScheme | None = None
) -> LabelSequence:
    """Run a tagger and return its validated label sequence, parsed in the
    tagger's declared scheme, else in ``default``, else the detected one."""
    return _tag_and_parse(tagger, surfaces, default, {})[0]


def predict(
    tagger: Tagger, text: str, *, level: str = "entity", with_probabilities: bool = False
) -> list[EntitySpan] | list[WordPrediction]:
    """Tag a raw text and post-process the output.

    Word level returns one WordPrediction per whitespace word. Entity
    level decodes chunks strictly and merges them to character spans:
    char_start of the first word, char_end of the last, surface equal to
    the exact text slice (inner whitespace preserved). When probabilities
    are requested, an entity's probability is the minimum over its words.
    """
    fields = _prediction_fields(tagger, text, level, with_probabilities, {})
    if level == "word":
        return [WordPrediction(s, a, b, label, p) for s, (a, b), label, p in fields]
    return [
        EntitySpan(
            c.class_name, a, b, s, word_start=c.word_start, word_end=c.word_end, probability=p
        )
        for s, (a, b), c, p in fields
    ]


def _check_level(level: str) -> None:
    if level not in ("entity", "word"):
        raise ValueError(f'level must be "entity" or "word", got {level!r}')


def _prediction_fields(
    tagger: Tagger,
    text: str,
    level: str,
    with_probabilities: bool,
    tables: dict[AnnotationScheme, LabelTable],
) -> Iterable[tuple[str, tuple[int, int], Label | Chunk, float | None]]:
    """What each prediction of ``text`` holds, as (surface, (char_start,
    char_end), tag, probability), to be iterated once. The tag is the
    word's Label, or the entity's strict Chunk; the probability is None
    unless asked for, and an entity's is the minimum over its words.
    ``tables`` are the label tables of the run."""
    _check_level(level)
    # str.split and _WORD_RE agree on every code point, so the surfaces
    # are those of split_words, and offsets are found only where emitted
    surfaces = text.split()
    if not surfaces:
        raise EmptyText("text is empty after trimming")
    seq, probabilities = _tag_and_parse(tagger, surfaces, None, tables)
    if level == "word":
        chosen = probabilities if with_probabilities else repeat(None)
        return zip(surfaces, _word_spans(text), seq.labels, chosen)
    chunks = decode(seq).strict
    if not chunks:
        return []
    offsets = _word_spans(text)
    fields = []
    for chunk in chunks:
        start = offsets[chunk.word_start][0]
        end = offsets[chunk.word_end - 1][1]
        probability = (
            min(probabilities[chunk.word_start : chunk.word_end]) if with_probabilities else None
        )
        fields.append((text[start:end], (start, end), chunk, probability))
    return fields


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


def _contained(work: Callable, *args, **kwargs) -> tuple[bool, object, str | None]:
    """The one per-item handler: (ok, value, error); a SeqlabError fails the
    item. A lone surrogate in its message (a tagger's exception may quote
    one) is written as its \\u escape, so that the error can be written as UTF-8."""
    try:
        return True, work(*args, **kwargs), None
    except SeqlabError as err:
        return False, None, str(err).encode("utf-8", "backslashreplace").decode("utf-8")


def predict_batch(tagger: Tagger, texts: Sequence[str], **kwargs) -> list[BatchItem]:
    """Map `predict` over texts with per-item error isolation."""
    items = enumerate(texts)
    return [BatchItem(i, *_contained(predict, tagger, t, **kwargs)) for i, t in items]


# The predict_file output line, written as json.dumps(..., ensure_ascii=False)
# writes its record: strings through the encoder's own escaper, offsets with
# %d and probabilities with %r, which are the int and float reprs the
# encoder writes. Every value has an exact type: offsets come from
# re.Match.span, probabilities from float() after the [0, 1] check, tags
# from Label.serialize or a class name sliced off a label.
_LINE = '{"text": %s, "predictions": [%s]}\n'
_ITEM = {
    "word": '{"word": %s, "char_start": %d, "char_end": %d, "tag": %s',
    "entity": '{"char_start": %d, "char_end": %d, "token": %s, "tag": %s',
}
_WITH_PROBABILITY = ', "probability": %r}'
_WITHOUT_PROBABILITY = "%.0s}"  # takes the None probability and writes nothing


class _Tags(dict):
    """The JSON string of each tag of a run, escaped once: a word's Label
    serialized, or an entity's class name. A tag that cannot be written as
    UTF-8 (one holding a lone surrogate) is never stored: each lookup
    raises TaggerContractError, so it fails only the lines that carry it."""

    def __missing__(self, tag: Label | str) -> str:
        string = tag if type(tag) is str else tag.serialize()
        literal = encode_basestring(string)
        try:
            literal.encode("utf-8")
        except UnicodeEncodeError:
            raise TaggerContractError(f"tag {string!a} cannot be written as UTF-8") from None
        self[tag] = literal
        return literal


def _output_line(
    tagger: Tagger,
    line: bytes,
    level: str,
    with_probabilities: bool,
    tables: dict[AnnotationScheme, LabelTable],
    tags: _Tags,
) -> str:
    """The output line of one predict_file input line."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as err:
        raise UndecodableInput(f"byte {err.start} is not UTF-8 ({err.reason})") from None
    record = load_json(text, line=None)  # predict_file numbers the error
    if not isinstance(record, dict) or not isinstance(record.get("text"), str):
        raise MalformedJson('line needs a {"text": ...} object')
    text = record["text"]
    fields = _prediction_fields(tagger, text, level, with_probabilities, tables)
    item = _ITEM[level] + (_WITH_PROBABILITY if with_probabilities else _WITHOUT_PROBABILITY)
    if level == "word":
        items = [
            item % (encode_basestring(s), a, b, tags[label], p)
            for s, (a, b), label, p in fields
        ]
    else:
        items = [
            item % (a, b, encode_basestring(s), tags[c.class_name], p)
            for s, (a, b), c, p in fields
        ]
    return _LINE % (encode_basestring(text), ", ".join(items))


def _same_file(first: str | Path, second: str | Path) -> bool:
    try:
        return os.path.samefile(first, second)
    except OSError:  # one of them does not exist
        return False


#: The least input a predict_file process is given, in bytes. On a 2-vCPU
#: machine, whole `predict --input` commands on line-cut prefixes of a
#: tokenized and a raw-text input, split in two against one process
#: (medians of 24 alternating pairs, entity/word level), moved by
#: +2.1%/+8.6% and -5.0%/-8.8% at 96 KiB and by -9.0%/-1.0% and
#: -7.5%/-9.7% at 128 KiB; with the start-up heap frozen (see `cli.main`),
#: by +2.1%/+4.3% and +1.1%/-3.5% at 96 KiB and +1.9%/-3.1% and
#: -2.4%/+0.7% at 128 KiB. 40 more pairs of the tokenized 96 KiB prefix
#: read -1.8%/-4.6% (split faster in 27 and 30 of 40). No size from 32 KiB
#: to 96 KiB won in every series, so a split still starts at twice this.
_MIN_RANGE_BYTES = 64 * 1024


def predict_file(
    tagger: Tagger,
    input_path: str | Path,
    output_path: str | Path,
    *,
    level: str = "entity",
    with_probabilities: bool = False,
    processes: int = 1,
) -> FileSummary:
    """Streaming file inference: JSONL in ({"text": ...} per line),
    line-aligned JSONL out ({"text", "predictions": [...]}), each line
    the bytes json.dumps(..., ensure_ascii=False) gives for its record.

    Lines end at "\\n". A line that fails, for bad JSON, bytes that are not
    UTF-8 or anything else, becomes an {"error": "line N: ..."} output
    line and is counted as failed; it never aborts the run. Memory use
    is bounded, in each process, by one line and the run's distinct
    labels; output order matches input order. A bad ``level`` raises
    ValueError, and an output that is the input file raises OutputIsInput,
    before any file is opened.

    With ``processes`` above 1, a regular input of at least two
    `_MIN_RANGE_BYTES` runs in up to ``processes`` byte ranges,
    each after the first in a forked child (see `ranges`), with the
    output bytes, line numbers and summary of one process. Pass it only
    for a tagger that is safe to fork: one that holds no thread, lock or
    connection a child cannot use.
    """
    _check_level(level)
    if _same_file(input_path, output_path):
        raise OutputIsInput(f"output file {output_path} is the input file")
    work = partial(
        _predict_range, tagger=tagger, level=level, with_probabilities=with_probabilities
    )
    with open(input_path, "rb") as src, open(output_path, "w", encoding="utf-8") as dst:
        ranges = _ranges(src, processes, _MIN_RANGE_BYTES)
        if len(ranges) < 2:  # read from ``src``: the input may be a pipe
            return work(src, dst, 1, None)
        work = partial(_run_at, input_path, work)
        return FileSummary(*map(sum, zip(*_run_ranges(dst, ranges, work))))


def _predict_range(
    src: BinaryIO,
    dst: TextIO,
    lineno: int,
    size: int | None,
    tagger: Tagger,
    level: str,
    with_probabilities: bool,
) -> FileSummary:
    """Write the output of the input lines that start in the next ``size``
    bytes of ``src``, or in all the rest when it is None, numbered from
    ``lineno``; the one per-line loop of predict_file, and its range `Work`."""
    processed = failed = 0
    tables: dict[AnnotationScheme, LabelTable] = {}
    tags = _Tags()
    encode = json.JSONEncoder(ensure_ascii=False).encode
    for lineno, line in enumerate(src if size is None else _lines_within(src, size), lineno):
        line = line.rstrip(b"\n")
        ok, output, error = _contained(
            _output_line, tagger, line, level, with_probabilities, tables, tags
        )
        processed += ok
        failed += not ok
        dst.write(output if ok else encode({"error": f"line {lineno}: {error}"}) + "\n")
    return FileSummary(processed, failed)


def _lines_within(src: BinaryIO, size: int) -> Iterator[bytes]:
    """The lines of ``src`` that start in its next ``size`` bytes."""
    for line in src:
        yield line
        size -= len(line)
        if size <= 0:
            return

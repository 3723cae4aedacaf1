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
`records.load_analysis` reads back an equal dict. Splitting of unsplit
sources is a deterministic seeded shuffle with floor/floor/remainder
sizing, so the same input and seed always produce the same splits.

Readers take text as one string and turn every source into canonical
records, each paired with its line: a CoNLL sentence becomes a "words" +
"labels" record, a Doccano line or a LabelStudio task a "text" +
"entities" record. CoNLL lines end at "\\n" only and its columns are cut
at ASCII whitespace only, so a word may hold any other space. Records
are read into checked rows and canonical lines by `seqlab.records`,
the layer every file command shares. `dataset set-up` reads rows only:
it formats them as canonical lines, then splits, analyzes and writes
those, and builds no `Word`, `EntitySpan` or `Document`. `_documents`
builds those, from rows, only where the public API returns them: the
readers, `parse_file` and `load_split`, through which `set_up` reads
back the files it wrote. Public functions that take Documents read each
as a row once on entry (`records._document_row`).

The package registers this module lazily: only `dataset set-up` and a
library caller of its names run it, so `convert`, `evaluate`, `predict`
and `aggregate` never compile it.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import IO, BinaryIO, Iterable, Sequence, TextIO

from . import ranges
from .core import (
    AnnotationScheme,
    Document,
    EntitySpan,
    FrozenRecord,
    LabelSequence,
    Word,
    decode,
)
from .errors import (
    EmptyInput,
    FractionOutOfRange,
    MalformedJson,
    RaggedRow,
    SeqlabError,
    UnresolvableSource,
)
from .records import (
    SPLIT_NAMES,
    _canonical_line,
    _doccano_records,
    _document_row,
    _json_records,
    _Literals,
    _one_scheme,
    _range_records,
    _Row,
    _rows,
    _synthetic_offsets,
    load_json,
    read_text,
    resolve_data_dir,
)
from .schemes import resolve_scheme

DEFAULT_SPLIT_RATIO = (0.8, 0.1, 0.1)

#: bundled corpora, name -> package data directory
BUILTIN_DATASETS = {"mini-conll": "mini_conll"}

# The value types from checked fields, built in C without their
# constructors' checks: Word has no __new__ of its own, and a row has
# passed every check that EntitySpan's and Document's make.
_new_word = partial(tuple.__new__, Word)
_new_entity = partial(tuple.__new__, EntitySpan)
_new_document = partial(tuple.__new__, Document)


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


#: what `str.split` cuts at but a CoNLL column may hold: every character
#: `str.isspace` accepts but the six ASCII whitespace ones
_OTHER_SPACES = (
    "\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006"
    "\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
#: one column of a CoNLL line: a run of anything but ASCII whitespace
_COLUMN = re.compile(r"[^ \t\n\r\x0b\x0c]+")


def _conll_records(source: str) -> list[tuple[tuple[int, ...], dict]]:
    """One pretokenized record per sentence of whitespace-column text,
    paired with the line of each of its words. Lines end at "\\n" only,
    as every other reader counts them; a "\\r" before it is column space,
    so CRLF text reads the same. Columns are cut at ASCII whitespace only."""
    # where the text holds none of the other spaces, `str.split` cuts where
    # `_COLUMN` does, at a quarter of its cost; a search for each costs less
    # than one regex scan of the text
    columns_of = _COLUMN.findall if any(s in source for s in _OTHER_SPACES) else str.split
    records, rows = [], []
    for lineno, line in enumerate([*source.split("\n"), ""], 1):
        columns = columns_of(line)
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


def read_canonical_jsonl(
    source: str, *, scheme: AnnotationScheme | str | None = None
) -> list[Document]:
    """Read the canonical JSONL format (word-level, entity-level, or both)."""
    return _documents(*_rows(_json_records(source), scheme))


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



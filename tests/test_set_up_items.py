"""`dataset set-up` builds no Word or Document for a word-labeled record.

`ingest._set_up_dataset` reads every record into a checked row
(`ingest._rows`) and formats its canonical line, in one part or in each
part of a split, then splits, prunes, analyzes and writes the lines. The
public `set_up` takes the same path and then reads the written files back
as Documents.

Hypothesis builds CoNLL files, pretokenized JSONL with or without a
"text", canonical records with offset-bearing words, and word-labeled
records mixed with entity-bearing ones, as one unsplit file or as three
pre-split files, with or without `--fraction`. The files `dataset set-up`
writes must be `json.dumps(document_to_record(doc), ensure_ascii=False)`
of the documents the public `set_up` returns, and those documents and
the analysis must be what reading every record as a Document gives, by
the frozen reference reader in `tests.oracles`.
"""

import contextlib
import io
import json
import tempfile
from itertools import chain, islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqlab import ingest
from seqlab.cli import main

from .oracles import oracle_canonical_documents

SPLITS = ("train", "val", "test")
#: characters JSON escapes or the word splitter treats specially; none is
#: whitespace, which would cut a CoNLL column
CHARACTERS = ['"', "\\", "\x7f", "é", "中", "\U0001f600", "/", "a", "B"]
SURFACES = st.text(alphabet=CHARACTERS, min_size=1, max_size=3)
CLASSES = st.sampled_from(["PER", 'q"\\', "été", "a-b.c", "\U0001f600"])
LABELS = st.one_of(st.just("O"), st.builds("{}-{}".format, st.sampled_from("BILU"), CLASSES))
GAPS = st.text(alphabet=" \t \x85　", min_size=1, max_size=2)
RECORD_SHAPES = ("plain", "text", "offsets", "entities", "offsets+entities", "words")


@st.composite
def labeled_words(draw):
    surfaces = draw(st.lists(SURFACES, min_size=1, max_size=5))
    return surfaces, draw(st.lists(LABELS, min_size=len(surfaces), max_size=len(surfaces)))


@st.composite
def records(draw, shapes):
    """A JSONL record: pretokenized words with labels, with or without a
    "text" that puts gaps between them; canonical offset-bearing words;
    entities on a text; both; or words without labels."""
    shape = draw(st.sampled_from(shapes))
    surfaces, labels = draw(labeled_words())
    if shape == "plain":
        return {"words": surfaces, "labels": labels}
    text, words = draw(GAPS), []
    for surface in surfaces:
        words.append({"surface": surface, "start": len(text), "end": len(text) + len(surface)})
        text += surface + draw(GAPS)
    if shape == "text":
        return {"text": text, "words": surfaces, "labels": labels}
    if shape == "words":
        return {"text": text, "words": words}
    record = {"text": text, "words": words, "labels": labels, "entities": None}
    if shape != "offsets":
        cuts = sorted(draw(st.sets(st.integers(0, len(text)), max_size=4)))
        record["entities"] = [
            {"start": start, "end": end, "label": draw(CLASSES)}
            for start, end in zip(cuts[::2], cuts[1::2])
        ]
    if shape == "entities":
        del record["words"], record["labels"]
    return record


@st.composite
def source_file(draw):
    """(suffix, content) of one dataset file."""
    kind = draw(st.sampled_from(["conll", "pretokenized", "canonical", "mixed"]))
    if kind == "conll":
        sentences = draw(st.lists(labeled_words(), min_size=1, max_size=5))
        lines = ["".join(f"{w} {label}\n" for w, label in zip(*s)) for s in sentences]
        return ".conll", "\n".join(lines)
    shapes = {
        "pretokenized": ("plain", "text"),
        "canonical": ("offsets",),
        "mixed": RECORD_SHAPES,
    }[kind]
    lines = draw(st.lists(records(shapes), min_size=1, max_size=6))
    return ".jsonl", "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in lines)


def cli_set_up(data_dir, arguments) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["--data-dir", str(data_dir), *arguments])


def documents_set_up(paths, ratio, seed, fraction):
    """The splits and analysis of reading every record as a Document."""
    files = [ingest._file_records(path, None) for path in paths]
    documents, scheme = oracle_canonical_documents(list(chain.from_iterable(files)), None)
    if len(files) == 1:
        splits, used_seed = ingest.split_documents(documents, ratio, seed), seed
    else:
        remaining = iter(documents)
        splits = [ingest.DatasetSplit(s, islice(remaining, len(f))) for s, f in zip(SPLITS, files)]
        used_seed = None
    if fraction is not None:
        splits = [ingest.prune(splits[0], fraction), *splits[1:]]
    return tuple(splits), ingest.analyze(splits, scheme=scheme, seed=used_seed)


def encoded(documents) -> str:
    return "".join(
        json.dumps(ingest.document_to_record(d), ensure_ascii=False) + "\n" for d in documents
    )


@settings(max_examples=150, deadline=None)
@given(
    files=st.one_of(st.lists(source_file(), min_size=1, max_size=1),
                    st.lists(source_file(), min_size=3, max_size=3)),
    ratio=st.sampled_from(["0.8,0.1,0.1", "0.5,0.25,0.25", "0,0,1"]),
    seed=st.integers(0, 999),
    fraction=st.sampled_from([None, 0.01, 0.5, 1.0]),
)
def test_set_up_files_are_the_records_of_its_documents(files, ratio, seed, fraction):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = []
        for index, (suffix, content) in enumerate(files):
            paths.append(tmp / f"source{index}{suffix}")
            paths[-1].write_text(content, encoding="utf-8")
        if len(paths) == 1:
            location = ["--path", str(paths[0]), "--split-ratio", ratio]
        else:
            location = [f"--{s}-path={p}" for s, p in zip(SPLITS, paths)]
        options = [] if fraction is None else ["--fraction", str(fraction)]
        arguments = ["--seed", str(seed), "dataset", "set-up", "--source", "LF", "--name", "cli",
                     *location, *options]
        assert cli_set_up(tmp, arguments) == 0
        ratio_values = tuple(map(float, ratio.split(",")))
        kwargs = (
            {"path": paths[0]} if len(paths) == 1
            else {f"{s}_path": p for s, p in zip(SPLITS, paths)}
        )
        splits, analysis = ingest.set_up(
            "LF", name="public", split_ratio=ratio_values, seed=seed, train_fraction=fraction,
            data_dir=tmp, **kwargs,
        )
        expected_splits, expected_analysis = documents_set_up(paths, ratio_values, seed, fraction)
        assert splits == expected_splits
        assert analysis == expected_analysis
        for split in splits:
            for name in ("cli", "public"):
                written = (tmp / name / f"{split.name}.jsonl").read_text(encoding="utf-8")
                assert written == encoded(split.documents)
        expected = json.dumps(analysis, ensure_ascii=False, indent=2) + "\n"
        for name in ("cli", "public"):
            assert (tmp / name / "analysis.json").read_text(encoding="utf-8") == expected


class Built(Exception):
    pass


CONLL = "-DOCSTART- -X- O\n\nAnn B-PER\nLee I-PER\nwent O\n\nBo B-LOC\n\né O\nx\t\tB-a-b\n"
PRETOKENIZED = "".join(
    json.dumps(record, ensure_ascii=False) + "\n"
    for record in [
        {"id": 1, "words": ["Ann", "Lee", '"q"'], "labels": ["B-PER", "L-PER", "O"]},
        {"text": "  Bo   went", "words": [{"surface": "Bo", "start": 2, "end": 4},
         {"surface": "went", "start": 7, "end": 11}], "labels": ["U-LOC", "O"]},
        {"words": ["\U0001f600"], "labels": ["U-x.y"]},
        {"words": ["a", "b"], "labels": ["O", "O"], "entities": None},
    ] * 4
)


@pytest.mark.parametrize("source", ["conll", "pretokenized"])
def test_set_up_of_word_labeled_records_builds_no_word_or_document(tmp_path, monkeypatch, source):
    """With Document, Word and the row builders raising, set-up of a
    CoNLL or pretokenized source writes the same files and analysis.json."""
    if source == "conll":
        paths = {}
        for split, start in zip(SPLITS, (0, 2, 3)):
            paths[split] = tmp_path / f"{split}.conll"
            paths[split].write_text("\n\n".join(CONLL.split("\n\n")[start:]), encoding="utf-8")
        location = [f"--{split}-path={path}" for split, path in paths.items()]
        public = {f"{split}_path": path for split, path in paths.items()}
    else:
        path = tmp_path / "source.jsonl"
        path.write_text(PRETOKENIZED, encoding="utf-8")
        location = ["--path", str(path), "--split-ratio", "0.5,0.25,0.25", "--fraction", "0.5"]
        public = {"path": path, "split_ratio": (0.5, 0.25, 0.25), "train_fraction": 0.5}

    def set_up(name):
        arguments = ["dataset", "set-up", "--source", "LF", "--name", name, *location]
        assert cli_set_up(tmp_path, arguments) == 0
        return {f.name: f.read_bytes() for f in (tmp_path / name).iterdir()}

    expected = set_up("documents")

    def built(*args, **kwargs):
        raise Built

    for name in ("Document", "Word", "EntitySpan", "_new_word", "_new_entity", "_new_document",
                 "_documents"):
        monkeypatch.setattr(ingest, name, built)
    assert set_up("items") == expected
    assert sorted(expected) == ["analysis.json", "test.jsonl", "train.jsonl", "val.jsonl"]
    with pytest.raises(Built):  # the public set_up still builds its Documents
        ingest.set_up("LF", name="public", data_dir=tmp_path, **public)

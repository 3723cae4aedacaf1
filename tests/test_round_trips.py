"""Every file seqlab writes, seqlab reads back unchanged; and `Document`
accepts exactly the records the canonical reader accepts.

- A canonical record in canonical form (entities sorted by start, no
  whitespace at a span's edges), good or broken in one of the ways a
  file can be, fails as a `Document` built from its fields exactly where
  `read_canonical_jsonl` fails on its line, and where both accept, the
  two documents are equal.
- The split files `set_up` writes, read back through `load_split` in the
  scheme `analysis.json` names, are the splits it returns.
- `convert` of a canonical file without violations, into the other
  scheme and back, writes the file's own bytes.
- `load_run(save_run(record, directory))` is the record, and a record it
  could not read back is refused before anything is written.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqlab.cli import main
from seqlab.core import AnnotationScheme, Document, EntitySpan, LabelSequence, Word
from seqlab.errors import SeqlabError
from seqlab.ingest import load_split, read_canonical_jsonl, set_up, write_canonical_jsonl
from seqlab.records import load_analysis
from seqlab.runs import RunRecord, load_run, load_runs, save_run

SPLITS = ("train", "val", "test")
#: characters JSON escapes, whitespace the readers trim, and plain ones
CHARACTERS = st.sampled_from(
    ['"', "\\", "\x00", "\n", " ", "\u2028", "\u00e9", "\U0001f600", "a"]
)
SURFACES = st.text(st.sampled_from(['"', "\\", "é", "\U0001f600", "a", "B"]),
                   min_size=1, max_size=3)
#: class names: hyphenated, JSON-escaped, and the two no class may be
CLASSES = st.sampled_from(["PER", "art-x", 'q"\\', "\u2028\x01", "O", ""])
#: class names a CoNLL column can hold
GOOD_CLASSES = st.sampled_from(["PER", "art-x", 'q"\\', "\u00e9\x01"])


def text_with_words(draw, surfaces):
    """A text holding the surfaces in order, with gaps, and their words."""
    text, words = draw(st.text(CHARACTERS, max_size=2)), []
    for surface in surfaces:
        words.append({"surface": surface, "start": len(text), "end": len(text) + len(surface)})
        text += surface + draw(st.text(CHARACTERS, max_size=2))
    return text, words


def trimmed_spans(draw, text, classes):
    """Sorted, disjoint entity spans of the text, trimmed of whitespace."""
    cuts = sorted(draw(st.sets(st.integers(0, len(text)), max_size=6)))
    entities = []
    for start, end in zip(cuts[::2], cuts[1::2]):
        while start < end and text[start].isspace():
            start += 1
        while start < end and text[end - 1].isspace():
            end -= 1
        if start < end:
            entities.append({"start": start, "end": end, "label": draw(classes)})
    return entities


WORD_FAULTS = ("empty", "overlapping", "decreasing", "out of bounds", "mismatched")


@st.composite
def records(draw):
    """A canonical record: good, or broken in one of the ways named below."""
    text, words = text_with_words(draw, draw(st.lists(SURFACES, max_size=5)))
    record = {"text": text, "words": None, "labels": None, "entities": None}
    if words or draw(st.booleans()):
        record["words"] = words  # [] included
    fault = draw(st.sampled_from([None, None, *WORD_FAULTS]))
    if words and fault is not None:
        index = draw(st.integers(0, len(words) - 1))
        word = words[index]
        if fault == "empty":
            word.update(surface="", end=word["start"])
        elif fault == "overlapping":
            words.insert(index, dict(word))
        elif fault == "decreasing" and len(words) > 1:
            words[0], words[-1] = words[-1], words[0]
        elif fault == "out of bounds":
            word["end"] = len(text) + draw(st.integers(1, 2))
            word["surface"] = text[word["start"]:]
        elif fault == "mismatched":
            word["surface"] += "a"
    if draw(st.booleans()):
        prefixes = st.sampled_from(["B", "I", "L", "U"])
        label = st.one_of(st.just("O"), st.builds("{}-{}".format, prefixes, CLASSES))
        count = len(words) + draw(st.sampled_from([0, 0, 0, -1, 1]))
        record["labels"] = draw(st.lists(label, min_size=max(count, 0), max_size=max(count, 0)))
    if draw(st.booleans()):
        entities = trimmed_spans(draw, text, CLASSES)
        extra = draw(st.sampled_from([None, None, "overlapping", "out of bounds", "empty"]))
        if extra == "overlapping" and entities:
            entities.append(dict(entities[-1]))
        elif extra == "out of bounds":
            start = entities[-1]["end"] if entities else 0
            entities.append({"start": start, "end": len(text) + 1, "label": "PER"})
        elif extra == "empty":
            start = entities[-1]["end"] if entities else 0
            entities.append({"start": start, "end": start, "label": "PER"})
        record["entities"] = entities
    return record


def document_of(record) -> Document:
    """A Document built from the record's fields as they are."""
    text, words, labels, entities = record["text"], record["words"], record["labels"], None
    if words is not None:
        words = [Word(w["surface"], w["start"], w["end"]) for w in words]
    if labels is not None:
        labels = LabelSequence.from_raw(labels, AnnotationScheme.BILOU)
    if record["entities"] is not None:
        entities = [EntitySpan(e["label"], e["start"], e["end"], text[e["start"]:e["end"]])
                    for e in record["entities"]]
    return Document(text, words=words, word_labels=labels, entities=entities)


def outcome(build):
    try:
        return build(), None
    except (ValueError, SeqlabError) as err:
        return None, err


@settings(max_examples=500, deadline=None)
@given(record=records())
def test_a_document_is_accepted_where_its_record_reads(record):
    line = json.dumps(record, ensure_ascii=False)
    document, document_error = outcome(lambda: document_of(record))
    read, read_error = outcome(lambda: read_canonical_jsonl(line, scheme="BILOU"))
    assert (document_error is None) == (read_error is None), (document_error, read_error)
    if document is not None:
        assert read == [document]


# set-up split files


@st.composite
def sentences(draw):
    surfaces = draw(st.lists(SURFACES, min_size=1, max_size=4))
    prefixes = st.sampled_from(["B", "I"])
    labels = st.one_of(st.just("O"), st.builds("{}-{}".format, prefixes, GOOD_CLASSES))
    return surfaces, draw(st.lists(labels, min_size=len(surfaces), max_size=len(surfaces)))


@st.composite
def source_files(draw):
    """(suffix, content) of a CoNLL file, a Doccano export, or canonical
    JSONL with offset-bearing words, labels and entities."""
    kind = draw(st.sampled_from(["conll", "doccano", "canonical"]))
    if kind == "conll":
        docs = draw(st.lists(sentences(), min_size=1, max_size=6))
        return ".conll", "\n".join("".join(f"{w} {y}\n" for w, y in zip(*s)) for s in docs)
    lines = []
    for surfaces, labels in draw(st.lists(sentences(), min_size=1, max_size=6)):
        text, words = text_with_words(draw, surfaces)
        # Doccano spans keep their edge whitespace: the reader trims it
        cuts = sorted(draw(st.sets(st.integers(0, len(text)), max_size=4)))
        spans = [[s, e, draw(GOOD_CLASSES)] for s, e in zip(cuts[::2], cuts[1::2])]
        if kind == "doccano":
            record = {"text": text, "label": spans}
        else:
            entities = [{"start": s, "end": e, "label": c} for s, e, c in spans]
            record = {"text": text, "words": words, "labels": labels, "entities": entities}
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    return ".jsonl", "".join(lines)


FRACTIONS = st.sampled_from([None, 0.01, 0.5, 1.0])


@settings(max_examples=100, deadline=None)
@given(
    files=st.one_of(st.lists(source_files(), min_size=1, max_size=1),
                    st.lists(source_files(), min_size=3, max_size=3)),
    seed=st.integers(0, 999),
    fractions=st.tuples(FRACTIONS, FRACTIONS, FRACTIONS),
)
def test_set_up_split_files_read_back_as_its_splits(files, seed, fractions):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = []
        for index, (suffix, content) in enumerate(files):
            paths.append(tmp / f"source{index}{suffix}")
            paths[-1].write_text(content, encoding="utf-8")
        location = (
            {"path": paths[0]} if len(paths) == 1
            else {f"{s}_path": p for s, p in zip(SPLITS, paths)}
        )
        splits, analysis = set_up(
            "LF", name="set", seed=seed, data_dir=tmp, **location,
            **{f"{s}_fraction": f for s, f in zip(SPLITS, fractions)},
        )
        assert load_analysis(tmp / "set") == analysis
        for split in splits:
            assert load_split(tmp / "set", split.name, scheme=analysis["scheme_detected"]) == split


# convert there and back

CHUNKS = st.lists(st.tuples(st.integers(0, 2), GOOD_CLASSES, st.integers(1, 3)), max_size=4)


def encoded_labels(chunks, scheme) -> list[str]:
    """The labels of (outside words before it, class, length) chunks, with
    no violation of the scheme."""
    labels = []
    for gap, cls, length in chunks:
        labels += ["O"] * gap
        if scheme == "BILOU" and length == 1:
            labels.append(f"U-{cls}")
        else:
            inner = ["I"] * (length - 1)
            if scheme == "BILOU":
                inner[-1] = "L"
            labels += [f"{p}-{cls}" for p in ["B", *inner]]
    return labels or ["O"]


@st.composite
def canonical_documents(draw, scheme):
    labels = encoded_labels(draw(CHUNKS), scheme)
    surfaces = draw(st.lists(SURFACES, min_size=len(labels), max_size=len(labels)))
    text, words = text_with_words(draw, surfaces)
    entities = None
    if draw(st.booleans()):
        entities = [EntitySpan(e["label"], e["start"], e["end"], text[e["start"]:e["end"]])
                    for e in trimmed_spans(draw, text, GOOD_CLASSES)]
    return Document(
        text,
        words=[Word(w["surface"], w["start"], w["end"]) for w in words],
        word_labels=LabelSequence.from_raw(labels, AnnotationScheme(scheme)),
        entities=entities,
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data(), schemes=st.sampled_from([("BIO", "BILOU"), ("BILOU", "BIO")]))
def test_convert_there_and_back_writes_the_files_own_bytes(data, schemes):
    source, target = schemes
    documents = data.draw(st.lists(canonical_documents(source), min_size=1, max_size=5))
    with tempfile.TemporaryDirectory() as tmp:
        original, there, back = (Path(tmp) / name for name in ("in.jsonl", "there.jsonl",
                                                               "back.jsonl"))
        with open(original, "w", encoding="utf-8") as handle:
            write_canonical_jsonl(documents, handle)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for src, dst, schemes in ((original, there, (source, target)),
                                      (there, back, (target, source))):
                argv = ["convert", "--from", schemes[0], "--to", schemes[1],
                        "--input", str(src), "--output", str(dst)]
                assert main(argv) == 0
        assert back.read_bytes() == original.read_bytes()


# run records

JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
REPORTS = st.dictionaries(
    st.text(max_size=4),
    st.recursive(JSON_LEAVES, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ), max_leaves=8),
    max_size=4,
)
RUN_NAMES = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="/\0"),
                    min_size=1, max_size=8).filter(lambda n: n not in (".", "..", "aggregate"))


@settings(max_examples=200, deadline=None)
@given(
    record=st.builds(RunRecord, RUN_NAMES, st.integers(), REPORTS, st.text(max_size=6)),
)
def test_a_saved_run_loads_as_it_was(record):
    with tempfile.TemporaryDirectory() as tmp:
        assert load_run(save_run(record, Path(tmp) / "runs")) == record
        assert load_runs(Path(tmp) / "runs") == [record]


REFUSED = {
    "seed True": (RunRecord("a", True, {}), TypeError),
    "seed 1.0": (RunRecord("a", 1.0, {}), TypeError),
    "seed '3'": (RunRecord("a", "3", {}), TypeError),
    "run name 3": (RunRecord(3, 1, {}), TypeError),
    "run name ../escaped": (RunRecord("../escaped", 1, {}), ValueError),
    "run name a/b": (RunRecord("a/b", 1, {}), ValueError),
    "empty run name": (RunRecord("", 1, {}), ValueError),
    "run name ..": (RunRecord("..", 1, {}), ValueError),
    "run name with NUL": (RunRecord("a\0b", 1, {}), ValueError),
    "run name aggregate": (RunRecord("aggregate", 1, {}), ValueError),
    "lone surrogate": (RunRecord("a\ud800", 1, {}), ValueError),
    "report that is no JSON": (RunRecord("a", 1, {"x": object()}), TypeError),
    "int key": (RunRecord("a", 1, {1: 0.5}), TypeError),
    "tuple": (RunRecord("a", 1, {"x": (1, 2)}), TypeError),
    "bool key": (RunRecord("a", 1, {True: 1}), TypeError),
    "None key": (RunRecord("a", 1, {None: 1}), TypeError),
}


@pytest.mark.parametrize("record, error", REFUSED.values(), ids=REFUSED)
def test_a_run_that_would_not_load_back_is_refused_before_anything_is_written(
    tmp_path, record, error
):
    with pytest.raises(error):
        save_run(record, tmp_path / "rr" / "runs")
    assert list(tmp_path.iterdir()) == []

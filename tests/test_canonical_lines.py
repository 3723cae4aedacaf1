"""Canonical lines are formatted from a document's fields, not built as
dicts and passed to the JSON encoder. Every line `write_canonical_jsonl`,
`dataset set-up` and `convert` write must still be the bytes that
`json.dumps(document_to_record(doc), ensure_ascii=False)` gives.
"""

import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqlab.cli import main
from seqlab.core import (
    OUTSIDE,
    AnnotationScheme,
    Document,
    EntitySpan,
    Label,
    LabelSequence,
    Word,
)
from seqlab.errors import PrefixNotInScheme
from seqlab.ingest import (
    _synthetic_offsets,
    document_to_record,
    read_canonical_jsonl,
    save_canonical_jsonl,
    write_canonical_jsonl,
)
from seqlab.schemes import convert_scheme

#: characters the JSON escaper treats specially, and some it leaves alone
CHARACTERS = st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", " ", "\t", "\n", "\x85", "\u2028", "\u2029",
     "\u00e9", "\u4e2d", "\U0001f600", "/", "A", "b"]
)
CLASSES = st.sampled_from(["PER", 'q"\\', "\u00e9t\u00e9", "\U0001f600-x", "\u2028\x01", "\x85"])
LABELS = st.one_of(st.just(OUTSIDE), st.builds(Label, st.sampled_from("BILU"), CLASSES))


def encoded(documents) -> str:
    return "".join(json.dumps(document_to_record(d), ensure_ascii=False) + "\n" for d in documents)


def written(documents) -> str:
    buffer = io.StringIO()
    write_canonical_jsonl(documents, buffer)
    return buffer.getvalue()


@st.composite
def documents(draw):
    """A document with words only, words and labels, entities only, all
    three, or none, over text full of characters JSON escapes. Entity
    spans are trimmed of whitespace at both ends, as the readers trim
    them and as a Document requires."""
    surfaces = draw(st.lists(st.text(CHARACTERS, min_size=1, max_size=4), max_size=6))
    text = draw(st.text(CHARACTERS, max_size=2))
    words = []
    for surface in surfaces:
        words.append(Word(surface, len(text), len(text) + len(surface)))
        text += surface + draw(st.text(CHARACTERS, max_size=2))
    # a document has at least one word or none: words=None, never an empty list
    shapes = ["words", "labels", "entities", "all", "text"] if words else ["entities", "text"]
    shape = draw(st.sampled_from(shapes))
    labels = entities = None
    if shape in ("labels", "all"):
        labels = LabelSequence(
            draw(st.lists(LABELS, min_size=len(words), max_size=len(words))),
            AnnotationScheme.BILOU,
        )
    if shape in ("entities", "all"):
        cuts = sorted(draw(st.sets(st.integers(0, len(text)), max_size=6)))
        entities = []
        for start, end in zip(cuts[::2], cuts[1::2]):
            while start < end and text[start].isspace():
                start += 1
            while start < end and text[end - 1].isspace():
                end -= 1
            if start < end:
                entities.append(EntitySpan(draw(CLASSES), start, end, text[start:end]))
    if shape in ("entities", "text"):
        words = None
    return Document(text, words=words, word_labels=labels, entities=entities)


@settings(max_examples=300, deadline=None)
@given(docs=st.lists(documents(), max_size=4))
def test_lines_are_json_dumps_of_the_records(docs):
    assert written(docs) == encoded(docs)


def with_bool_offsets(doc):
    """The document with every offset 0 or 1 as False or True."""
    def flip(offset):
        return bool(offset) if offset in (0, 1) else offset

    words = entities = None
    if doc.words is not None:
        words = [w._replace(char_start=flip(w.char_start), char_end=flip(w.char_end))
                 for w in doc.words]
    if doc.entities is not None:
        entities = [e._replace(char_start=flip(e.char_start), char_end=flip(e.char_end))
                    for e in doc.entities]
    return Document(doc.text, words=words, word_labels=doc.word_labels, entities=entities)


@settings(max_examples=300, deadline=None)
@given(
    docs=st.lists(documents(), min_size=1, max_size=4),
    bools=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_every_written_line_reads_back_to_its_document(docs, bools):
    """Every document is written so that the reader gives it back; bool
    offsets are written as the ints they equal."""
    docs = [with_bool_offsets(d) if as_bools else d for d, as_bools in zip(docs, bools)]
    assert read_canonical_jsonl(written(docs), scheme="BILOU") == docs


def test_bool_offsets_are_written_as_ints():
    docs = [
        Document("ab", words=[Word("a", False, True), Word("b", True, 2)]),
        Document("ab", entities=[EntitySpan("X", False, True, "a")]),
    ]
    assert written(docs) == (
        '{"text": "ab", "words": [{"surface": "a", "start": 0, "end": 1}, '
        '{"surface": "b", "start": 1, "end": 2}], "labels": null, "entities": null}\n'
        '{"text": "ab", "words": null, "labels": null, '
        '"entities": [{"start": 0, "end": 1, "label": "X"}]}\n'
    )


@pytest.mark.parametrize("doc", [
    Document(5),
    Document(b"ab", words=[Word(b"a", 0, 1)]),
    Document("ab", entities=[EntitySpan(5, 0, 1, "a")]),
], ids=["text", "surface", "class_name"])
def test_a_field_that_is_no_string_raises_before_anything_is_written(doc):
    buffer = io.StringIO()
    with pytest.raises(TypeError, match="^first argument must be a string"):
        write_canonical_jsonl([Document("fine"), doc], buffer)
    assert buffer.getvalue() == ""


@given(st.lists(st.text(CHARACTERS, min_size=1, max_size=4), max_size=8))
def test_synthetic_words_are_the_single_space_join(surfaces):
    text = " ".join(surfaces)
    starts, ends = _synthetic_offsets(surfaces)
    assert starts == [len(" ".join(surfaces[:i])) + bool(i) for i in range(len(surfaces))]
    assert [text[a:b] for a, b in zip(starts, ends)] == surfaces


def test_a_label_sequence_names_its_first_label_outside_the_scheme():
    labels = (Label("B", "X"), Label("U", "Y"), Label("L", "X"))
    with pytest.raises(PrefixNotInScheme, match="^prefix of 'U-Y' is not part of scheme BIO$"):
        LabelSequence(labels, AnnotationScheme.BIO)


def converted(source: Path) -> str:
    """What `convert --from BIO --to BILOU` wrote before lines were formatted:
    each document with its new labels, through `document_to_record` and the
    encoder."""
    docs = read_canonical_jsonl(source.read_text(encoding="utf-8"), scheme="BIO")
    return encoded(
        d._replace(word_labels=convert_scheme(d.word_labels, AnnotationScheme.BILOU)) for d in docs
    )


def set_up_file(tmp_path: Path) -> Path:
    assert main(["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "BI",
                 "--name", "mini-conll"]) == 0
    return tmp_path / "mini-conll" / "test.jsonl"


def plain_word_file(tmp_path: Path) -> Path:
    path = tmp_path / "plain.jsonl"
    records = [
        {"words": ['"q"', "a\\b", "\u2028x", "\U0001f600"],
         "labels": ["B-PER", "I-PER", "O", "B-X"]},
        {"words": ["\x85", "\u00e9"], "labels": ["O", "O"]},
        {"text": "Ann  Lee", "words": ["Ann", "Lee"], "labels": ["B-PER", "I-PER"]},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def entity_file(tmp_path: Path) -> Path:
    path = tmp_path / "entities.jsonl"
    doc = Document(
        "Ada \u2028Lovelace \"met\"",
        words=[Word("Ada", 0, 3), Word("Lovelace", 5, 13), Word('"met"', 14, 19)],
        word_labels=LabelSequence.from_raw(["B-PER", "I-PER", "B-q\"\\"], AnnotationScheme.BIO),
        entities=[
            EntitySpan("PER", 0, 13, "Ada \u2028Lovelace"), EntitySpan('q"\\', 14, 19, '"met"')
        ],
    )
    save_canonical_jsonl([doc, doc._replace(entities=None)], path)
    return path


@pytest.mark.parametrize("make_input", [set_up_file, plain_word_file, entity_file])
def test_convert_writes_the_bytes_of_the_encoder(tmp_path, capsys, make_input):
    source = make_input(tmp_path)
    target = tmp_path / "out.jsonl"
    assert main(["convert", "--from", "BIO", "--to", "BILOU", "--input", str(source),
                 "--output", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == converted(source)
    capsys.readouterr()

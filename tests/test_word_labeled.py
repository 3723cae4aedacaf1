"""Every record is read into one checked row, as the frozen reference
reader reads it into a Document; no CLI path builds a Document.

`ingest._rows` checks each canonical record once (`ingest._check_record`)
and gives its row; `ingest._documents` builds Documents from rows only
where the public API returns them. `tests.oracles.oracle_canonical_documents`
is the reader that checked each record by building its Document. Hypothesis
mutates valid offset-bearing records (offsets that are booleans, floats or
strings, missing keys, words that are not objects, overlap, are empty,
decrease or leave the text, surfaces that are not their slice, a "text" that
is not a string, plain string words mixed in, label lists of the wrong length
or with bad labels, entities), adds entities (odd offsets and labels, missing
keys, spans outside the text, of whitespace only, overlapping) and builds
Doccano and LabelStudio exports. Both readers must give the same Documents,
and the rows the same surfaces and labels, or both the same error class,
message and line.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import seqlab
from seqlab import ingest
from seqlab.cli import main
from seqlab.core import AnnotationScheme
from seqlab.errors import SeqlabError
from seqlab.evaluation import evaluate_on_dataset
from seqlab.inference import EchoTagger, LexiconTagger, load_tagger
from seqlab.schemes import convert_scheme

from .oracles import oracle_canonical_documents

DATA = Path(__file__).parent / "data"
SURFACES = st.text(alphabet="abé中.", min_size=1, max_size=3)
GAPS = st.text(alphabet=" \t  ", min_size=1, max_size=2)
LABELS = st.sampled_from(["O", "B-X", "I-X", "L-X", "U-X", "B-Y.z", "I-Y.z", "I-"])
SCHEMES = st.sampled_from([None, "IO", "BIO", "BILOU"])
ODD_VALUES = st.sampled_from([True, False, 1.0, 2.5, "1", None, [], {}, -1, 10**6])
CLASSES = st.sampled_from(["X", "Y.z", "", "O", 3, None])


@st.composite
def valid_records(draw):
    """An offset-bearing word-labeled record as `dataset set-up` writes it."""
    surfaces = draw(st.lists(SURFACES, min_size=1, max_size=4))
    text = draw(st.sampled_from(["", " "]))
    words = []
    for surface in surfaces:
        start = len(text)
        text += surface
        words.append({"surface": surface, "start": start, "end": len(text)})
        text += draw(GAPS)
    labels = draw(st.lists(LABELS, min_size=len(words), max_size=len(words)))
    return {"text": text, "words": words, "labels": labels, "entities": None}


MUTATIONS = (
    "offset", "drop_key", "not_object", "overlap", "empty", "decrease", "out_of_bounds",
    "surface", "text", "no_text", "mixed", "plain", "labels_length", "labels_value",
    "entities", "words_value", "drop_entities_key", "listed", "bool_offset",
)


@st.composite
def mutated_records(draw):
    record = draw(valid_records())
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2)):
        words = record["words"]
        objects = [w for w in words if isinstance(w, dict)] if isinstance(words, list) else []
        word = draw(st.sampled_from(objects)) if objects else None
        if mutation == "offset" and word:
            field = draw(st.sampled_from(["start", "end"]))
            value = word.get(field)
            if type(value) is int:  # a value equal to it, of another JSON type
                equal = [float(value), str(value), *([bool(value)] if value in (0, 1) else [])]
                word[field] = draw(st.sampled_from(equal))
        elif mutation == "bool_offset" and objects:
            # true and false slice as 1 and 0: only the type check rejects them
            first = objects[0]
            for field in ("start", "end"):
                if type(first.get(field)) is int and first[field] in (0, 1) and draw(st.booleans()):
                    first[field] = bool(first[field])
        elif mutation == "drop_key" and word:
            word.pop(draw(st.sampled_from(["surface", "start", "end"])), None)
        elif mutation == "not_object" and objects:
            words[words.index(word)] = draw(ODD_VALUES)
        elif mutation == "overlap" and word and isinstance(word.get("start"), int):
            word["start"] -= draw(st.integers(1, 3))
        elif mutation == "empty" and word:
            word["end"] = word.get("start")
            word["surface"] = draw(st.sampled_from(["", word.get("surface")]))
        elif mutation == "decrease" and len(objects) > 1:
            i, j = words.index(objects[0]), words.index(objects[-1])
            words[i], words[j] = words[j], words[i]
        elif mutation == "out_of_bounds" and word and isinstance(record.get("text"), str):
            word["end"] = len(record["text"]) + draw(st.integers(0, 2))
            if isinstance(word.get("start"), int) and draw(st.booleans()):
                word["surface"] = record["text"][word["start"] :]  # the slice the text has
        elif mutation == "surface" and word:
            surface = word.get("surface")
            same_length = "x" * len(surface) if isinstance(surface, str) else "x"
            word["surface"] = draw(st.sampled_from(["", same_length, 3, None, ["a"]]))
        elif mutation == "listed" and isinstance(record.get("text"), str):
            # a list slices like a string: only the type check tells them apart
            record["text"] = list(record["text"])
            for w in objects:
                if isinstance(w.get("surface"), str):
                    w["surface"] = list(w["surface"])
        elif mutation == "text":
            record["text"] = draw(ODD_VALUES)
        elif mutation == "no_text":
            record.pop("text", None)
        elif mutation == "mixed" and word:
            words[words.index(word)] = word.get("surface")
        elif mutation == "plain" and isinstance(words, list):
            record["words"] = [w.get("surface") if isinstance(w, dict) else w for w in words]
            if draw(st.booleans()):
                record["text"] = None
        elif mutation == "labels_length":
            labels = record["labels"]
            if isinstance(labels, list):
                record["labels"] = labels[1:] if draw(st.booleans()) else [*labels, "O"]
        elif mutation == "labels_value":
            record["labels"] = draw(st.sampled_from([None, "O", [1], ["O", None], []]))
        elif mutation == "entities":
            entity = {"start": 0, "end": 1, "label": "X"}
            record["entities"] = draw(st.sampled_from([[], {}, [entity]]))
        elif mutation == "words_value":
            record["words"] = draw(st.sampled_from([None, [], "ab", {}, 3]))
        elif mutation == "drop_entities_key":
            record.pop("entities", None)
    return record


@st.composite
def entity_lists(draw, text):
    """Entities on a text of this length: offsets near its bounds or of
    other JSON types, odd class names, missing keys, items that are no
    objects."""
    size = len(text) if isinstance(text, (str, list)) else 3
    offsets = st.one_of(st.integers(-1, size + 1), ODD_VALUES)
    entities = []
    for _ in range(draw(st.integers(0, 3))):
        entity = {"start": draw(offsets), "end": draw(offsets), "label": draw(CLASSES)}
        if draw(st.booleans()):  # mostly valid spans, so that later rules are reached
            start = draw(st.integers(0, size))
            entity.update(start=start, end=draw(st.integers(start, size)), label="X")
        if draw(st.integers(0, 9)) == 0:
            entity.pop(draw(st.sampled_from(["start", "end", "label"])))
        if draw(st.integers(0, 9)) == 0:
            entity = draw(ODD_VALUES)
        entities.append(entity)
    return entities


@st.composite
def entity_records(draw):
    """A mutated word record with entities, or a text with entities only."""
    if draw(st.booleans()):
        record = draw(mutated_records())
    else:
        record = {"text": draw(st.text(alphabet="ab \t中.", max_size=8))}
    record["entities"] = draw(entity_lists(record.get("text")))
    return record


def read(records, scheme):
    """The Documents the row reader gives."""
    return ingest._documents(*ingest._rows(records, scheme))


def reference(records, scheme):
    return oracle_canonical_documents(records, scheme)[0]


def outcome(read):
    """What a read gives, or the error's class, message and line."""
    try:
        return read()
    except SeqlabError as err:
        return type(err), str(err), getattr(err, "line", None)


def words_and_labels(items):
    """(surfaces, labels) of each row, or of each Document's fields; None
    where it has no labels."""
    if isinstance(items, tuple):  # an error
        return items
    rows = [i if isinstance(i, ingest._Row) else ingest._document_row(i) for i in items]
    return [None if r.labels is None else (list(r.surfaces), r.labels) for r in rows]


def assert_same_reads(records, scheme):
    documents = outcome(lambda: reference(records, scheme))
    assert outcome(lambda: read(records, scheme)) == documents
    rows = outcome(lambda: ingest._rows(records, scheme)[0])
    assert words_and_labels(rows) == words_and_labels(documents)
    return documents


def entry(surface, start, end):
    return {"surface": surface, "start": start, "end": end}


GOOD = [entry("ab", 0, 2), entry("c", 3, 4)]


@pytest.mark.parametrize(
    "text, words, labels",
    [
        pytest.param("ab c", [entry("ab", False, 2), GOOD[1]], ["O", "O"], id="false-start"),
        pytest.param("a c", [entry("a", 0, True), entry("c", 2, 3)], ["O", "O"], id="true-end"),
        pytest.param("ab c", [entry("ab", 0.0, 2), GOOD[1]], ["O", "O"], id="float-start"),
        pytest.param("ab c", [GOOD[0], entry("c", 3, 4.0)], ["O", "O"], id="float-end"),
        pytest.param("ab c", [GOOD[0], entry("c", "3", 4)], ["O", "O"], id="string-start"),
        pytest.param("ab c", [GOOD[0], {"surface": "c", "start": 3}], ["O", "O"], id="no-end"),
        pytest.param("ab c", [GOOD[0], ["c", 3, 4]], ["O", "O"], id="word-is-array"),
        pytest.param("ab c", [GOOD[0], None], ["O", "O"], id="word-is-null"),
        pytest.param("ab c", [GOOD[0], "c"], ["O", "O"], id="mixed-words"),
        pytest.param("ab c", [GOOD[0], entry("b c", 1, 4)], ["O", "O"], id="overlap"),
        pytest.param("ab c", [GOOD[0], entry("", 3, 3)], ["O", "O"], id="empty-span"),
        pytest.param("ab c", [GOOD[1], GOOD[0]], ["O", "O"], id="decreasing"),
        pytest.param("ab c", [GOOD[0], entry("c", 3, 6)], ["O", "O"], id="past-the-end"),
        pytest.param("ab c", [GOOD[0], entry("x", 3, 4)], ["O", "O"], id="surface-not-slice"),
        pytest.param("ab c", [GOOD[0], entry(["c"], 3, 4)], ["O", "O"], id="surface-not-string"),
        pytest.param(["a", "b", " ", "c"], [entry(["a", "b"], 0, 2)], ["O"], id="text-array"),
        pytest.param(None, GOOD, ["O", "O"], id="no-text"),
        pytest.param("ab c", [], [], id="no-words"),
        pytest.param("ab c", GOOD, ["O"], id="fewer-labels"),
        pytest.param("ab c", GOOD, ["O", "O", "O"], id="more-labels"),
        pytest.param("ab c", GOOD, ["O", 1], id="label-not-string"),
        pytest.param("ab c", GOOD, ["O", "X-Y"], id="bad-label"),
    ],
)
def test_each_check_fails_as_in_the_document_path(text, words, labels):
    records = [(1, {"text": "ab c", "words": GOOD, "labels": ["O", "B-X"]}),
               (2, {"text": text, "words": words, "labels": labels, "entities": None})]
    error = assert_same_reads(records, "BIO")
    assert isinstance(error, tuple) and error[2] == 2  # an error, naming the second line


@settings(max_examples=600, deadline=None)
@given(records=st.lists(mutated_records(), min_size=1, max_size=3), scheme=SCHEMES)
def test_the_loop_reads_what_the_document_path_reads(records, scheme):
    assert_same_reads(list(enumerate(records, 3)), scheme)


@settings(max_examples=600, deadline=None)
@given(records=st.lists(entity_records(), min_size=1, max_size=3), scheme=SCHEMES)
def test_entities_are_read_as_the_document_path_reads_them(records, scheme):
    assert_same_reads(list(enumerate(records, 3)), scheme)


@st.composite
def exports(draw):
    """(dialect, source) of a Doccano or LabelStudio export whose texts
    hold spaces at span edges, punctuation and odd entity values."""
    tasks = []
    for _ in range(draw(st.integers(1, 3))):
        text = draw(st.text(alphabet="ab \t中.", max_size=8))
        entities = draw(entity_lists(text))
        triples = [[e.get("start"), e.get("end"), e.get("label")] if isinstance(e, dict) else e
                   for e in entities]
        tasks.append((draw(st.sampled_from([text, None, 5])), triples))
    if draw(st.booleans()):
        lines = [json.dumps({"text": text, "label": triples}) for text, triples in tasks]
        return "doccano", "\n".join(lines) + "\n"
    results = [
        [{"type": "labels", "value": {"start": s, "end": e, "labels": [c]}}
         for s, e, c in (t for t in triples if isinstance(t, list) and len(t) == 3)]
        for _, triples in tasks
    ]
    return "labelstudio", json.dumps([
        {"data": {"text": text}, "annotations": [{"result": result}]}
        for (text, _), result in zip(tasks, results)
    ])


@settings(max_examples=300, deadline=None)
@given(export=exports())
def test_exports_are_read_as_the_document_path_reads_them(export):
    try:
        records = ingest._export_records(export[1], export[0])
    except SeqlabError:
        return  # the shape of the export, which both readers share
    assert_same_reads(records, None)


@settings(max_examples=600, deadline=None)
@given(record=st.one_of(mutated_records(), entity_records()), scheme=SCHEMES)
def test_the_loop_passes_only_what_the_document_path_passes(record, scheme):
    """A record is a row exactly where the reference reads it into a
    Document, and the row holds that Document's fields."""
    try:
        rows, resolved = ingest._rows([(1, record)], scheme)
    except SeqlabError:
        rows = None
    try:
        (document,), _ = oracle_canonical_documents([(1, record)], scheme)
    except SeqlabError:
        document = None
    assert (rows is None) == (document is None)
    if document is not None:
        (row,), expected = rows, ingest._document_row(document)
        assert columns(row) == columns(expected)
        assert ingest._documents(rows, resolved) == [document]


def columns(row):
    """A row's text, surfaces, labels and entities; surfaces as a list."""
    surfaces = None if row.surfaces is None else list(row.surfaces)
    return row.text, surfaces, row.labels, row.entities


def no_builders(patch):
    """Make every name a CLI path could build a Word, EntitySpan or
    Document through raise DocumentBuilt, in each seqlab module that binds it."""

    def built(*args, **kwargs):
        raise DocumentBuilt

    names = ("Document", "Word", "EntitySpan", "_new_word", "_new_entity", "_new_document",
             "_documents", "split_words")
    for module in (ingest, seqlab.evaluation, seqlab.inference, seqlab.schemes, seqlab.cli):
        for name in names:
            if hasattr(module, name):
                patch(module, name, built)


@given(record=valid_records(), scheme=SCHEMES)
def test_set_up_records_never_build_a_document(record, scheme):
    try:
        rows, _ = ingest._rows([(1, record)], scheme)
    except SeqlabError:
        return  # a label not in the scheme
    assert list(rows[0].surfaces) == [w["surface"] for w in record["words"]]
    with pytest.MonkeyPatch.context() as patcher:
        no_builders(patcher.setattr)
        assert ingest._rows([(1, record)], scheme)[0] == rows


class DocumentBuilt(Exception):
    pass


def set_up(tmp_path, *args):
    assert main(["--data-dir", str(tmp_path), "dataset", "set-up", *args]) == 0
    return tmp_path / args[args.index("--name") + 1]


def test_evaluate_convert_and_echo_build_no_document(tmp_path, monkeypatch, capsys):
    """With every builder raising, word-labeled gold still evaluates,
    converts and loads as an echo tagger, to the same outputs as the
    Documents of the public reader give."""
    dataset = set_up(tmp_path, "--source", "BI", "--name", "mini-conll")
    test_file = dataset / "test.jsonl"
    lexicon = LexiconTagger.from_json(DATA / "fixture_lexicon.json")
    documents = ingest.load_split(dataset, "test", scheme="BIO").documents
    echo = EchoTagger.from_documents(documents)
    expected_reports = [
        evaluate_on_dataset(tagger, ingest.DatasetSplit("test", documents), AnnotationScheme.BIO)
        for tagger in (lexicon, echo)
    ]
    converted = [
        d._replace(word_labels=convert_scheme(d.word_labels, AnnotationScheme.BILOU))
        for d in documents
    ]
    expected_converted = "".join(
        json.dumps(ingest.document_to_record(d), ensure_ascii=False) + "\n" for d in converted
    )

    no_builders(monkeypatch.setattr)
    loaded = load_tagger(f"echo:{test_file}")
    assert (loaded.gold, loaded.scheme) == (echo.gold, echo.scheme)
    taggers = [f"lexicon:{DATA / 'fixture_lexicon.json'}", f"echo:{test_file}"]
    for tagger, expected in zip(taggers, expected_reports):
        report = tmp_path / "report.json"
        assert main(["evaluate", "--tagger", tagger, "--dataset", str(dataset),
                     "--output", str(report)]) == 0
        assert json.loads(report.read_text(encoding="utf-8")) == expected
    output = tmp_path / "bilou.jsonl"
    assert main(["convert", "--from", "BIO", "--to", "BILOU", "--input", str(test_file),
                 "--output", str(output)]) == 0
    assert output.read_text(encoding="utf-8") == expected_converted
    with pytest.raises(DocumentBuilt):
        ingest.load_split(dataset, "test")  # the public reader still builds Documents
    capsys.readouterr()


@pytest.mark.parametrize("export", ["doccano_sample.jsonl", "labelstudio_sample.json"])
def test_entity_only_gold_evaluates_without_documents(tmp_path, monkeypatch, capsys, export):
    """Set-up and evaluation of an annotation-tool export, whose records
    hold only entities, with every builder raising; the report is the one
    the public reader's Documents give."""
    expected = set_up(tmp_path, "--source", "AT", "--name", "documents", "--split-ratio",
                      "0,0,1", "--path", str(DATA / export))
    split = ingest.load_split(expected, "test")
    report = evaluate_on_dataset(load_tagger("all-o"), split, AnnotationScheme.BIO)
    no_builders(monkeypatch.setattr)
    dataset = set_up(tmp_path, "--source", "AT", "--name", "rows", "--split-ratio", "0,0,1",
                     "--path", str(DATA / export))
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "analysis.json"):
        assert (dataset / name).read_bytes() == (expected / name).read_bytes()
    assert main(["evaluate", "--tagger", "all-o", "--dataset", str(dataset)]) == 0
    written = json.loads((dataset / "eval_test.json").read_text(encoding="utf-8"))
    assert written == report
    assert sorted(written["strict"]["per_class"]) == sorted(
        {e.class_name for d in split.documents for e in d.entities}
    )
    capsys.readouterr()

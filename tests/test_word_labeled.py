"""Word-labeled reads build no Document, and agree with the reads that do.

`evaluate`, `convert` and the `echo:` tagger read a word-labeled record
without "entities" through `ingest._word_labeled`, which checks its
decoded words in one loop (`ingest._checked_surfaces`) and hands every
record that fails a check, and every other record, to
`ingest._document_from_record`. Hypothesis mutates valid offset-bearing
records (offsets that are booleans, floats or strings, missing keys,
words that are not objects, overlap, are empty, decrease or leave the
text, surfaces that are not their slice, a "text" that is not a string,
plain string words mixed in, label lists of the wrong length or with bad
labels, entities) and checks that the loop and the Document path give
the same surfaces and labels, or the same error class, message and line.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqlab import ingest
from seqlab.cli import main
from seqlab.core import AnnotationScheme, Document
from seqlab.errors import SeqlabError
from seqlab.evaluation import evaluate_on_dataset
from seqlab.inference import EchoTagger, LexiconTagger, load_tagger
from seqlab.schemes import convert_scheme

DATA = Path(__file__).parent / "data"
SURFACES = st.text(alphabet="abé中.", min_size=1, max_size=3)
GAPS = st.text(alphabet=" \t  ", min_size=1, max_size=2)
LABELS = st.sampled_from(["O", "B-X", "I-X", "L-X", "U-X", "B-Y.z", "I-Y.z", "I-"])
SCHEMES = st.sampled_from([None, "IO", "BIO", "BILOU"])
ODD_VALUES = st.sampled_from([True, False, 1.0, 2.5, "1", None, [], {}, -1, 10**6])


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


def outcome(read):
    """(surfaces, labels) of each record read, or the error's class, message and line."""
    try:
        items = read()
    except SeqlabError as err:
        return type(err), str(err), getattr(err, "line", None)
    pairs = []
    for item in items:
        if type(item) is Document:
            if item.word_labels is None:
                pairs.append(None)
                continue
            item = ([w.surface for w in item.words], item.word_labels.labels)
        pairs.append((list(item[0]), tuple(item[1])))
    return pairs


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
    fast = outcome(lambda: ingest._word_labeled(records, "BIO")[0])
    assert fast == outcome(lambda: ingest._canonical_documents(records, "BIO")[0])
    assert isinstance(fast, tuple) and fast[2] == 2  # an error, naming the second line


@settings(max_examples=600, deadline=None)
@given(records=st.lists(mutated_records(), min_size=1, max_size=3), scheme=SCHEMES)
def test_the_loop_reads_what_the_document_path_reads(records, scheme):
    numbered = [(lineno, record) for lineno, record in enumerate(records, 3)]
    fast = outcome(lambda: ingest._word_labeled(numbered, scheme)[0])
    slow = outcome(lambda: ingest._canonical_documents(numbered, scheme)[0])
    assert fast == slow


@settings(max_examples=600, deadline=None)
@given(record=mutated_records(), scheme=SCHEMES)
def test_the_loop_passes_only_what_the_document_path_passes(record, scheme):
    """The loop decides alone only for records the Document path would read
    into the same words and labels; it passes every record set-up writes."""
    try:
        parsed, resolved = ingest._record_labels([(1, record)], scheme)
    except SeqlabError:
        return
    surfaces = ingest._checked_surfaces(record, parsed[0])
    try:
        doc = ingest._document_from_record(1, record, parsed[0], resolved)
    except SeqlabError:
        doc = None
    if surfaces is not None:
        assert doc is not None and doc.word_labels is not None
        assert surfaces == [w.surface for w in doc.words]
        assert parsed[0] == doc.word_labels.labels
    elif doc is not None and doc.word_labels is not None and record.get("entities") is None:
        # only plain string words aligned with a "text" are left to the Document path
        assert isinstance(record.get("text"), str)
        assert all(isinstance(w, str) for w in record["words"])


@given(record=valid_records(), scheme=SCHEMES)
def test_set_up_records_never_build_a_document(record, scheme):
    try:
        parsed, _ = ingest._record_labels([(1, record)], scheme)
    except SeqlabError:
        return  # a label not in the scheme
    assert ingest._checked_surfaces(record, parsed[0]) == [w["surface"] for w in record["words"]]


class DocumentBuilt(Exception):
    pass


def set_up(tmp_path, *args):
    assert main(["--data-dir", str(tmp_path), "dataset", "set-up", *args]) == 0
    return tmp_path / args[args.index("--name") + 1]


def test_evaluate_convert_and_echo_build_no_document(tmp_path, monkeypatch, capsys):
    """With `_document_from_record` raising, word-labeled gold still
    evaluates, converts and loads as an echo tagger, to the same outputs
    as the Document path gives."""
    dataset = set_up(tmp_path, "--source", "BI", "--name", "mini-conll")
    test_file = dataset / "test.jsonl"
    lexicon = LexiconTagger.from_json(DATA / "fixture_lexicon.json")
    documents = ingest.load_split(dataset, "test", scheme="BIO").documents
    echo = EchoTagger.from_documents(documents)
    expected_reports = [
        evaluate_on_dataset(tagger, ingest.DatasetSplit("test", documents), AnnotationScheme.BIO)
        .as_dict() for tagger in (lexicon, echo)
    ]
    converted = [
        d._replace(word_labels=convert_scheme(d.word_labels, AnnotationScheme.BILOU))
        for d in documents
    ]
    expected_converted = "".join(
        json.dumps(ingest.document_to_record(d), ensure_ascii=False) + "\n" for d in converted
    )

    def boom(*args):
        raise DocumentBuilt

    monkeypatch.setattr(ingest, "_document_from_record", boom)
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


def test_entity_only_gold_evaluates_through_documents(tmp_path, monkeypatch, capsys):
    dataset = set_up(tmp_path, "--source", "AT", "--name", "tool", "--split-ratio", "0,0,1",
                     "--path", str(DATA / "doccano_sample.jsonl"), "--dialect", "doccano")
    built = []
    original = ingest._document_from_record

    def counted(*args):
        built.append(args[0])
        return original(*args)

    monkeypatch.setattr(ingest, "_document_from_record", counted)
    assert main(["evaluate", "--tagger", "all-o", "--dataset", str(dataset)]) == 0
    assert sorted(built) == [1, 2, 3]
    report = json.loads((dataset / "eval_test.json").read_text(encoding="utf-8"))
    assert sorted(report["strict"]["per_class"]) == ["LOC", "ORG", "PER"]
    capsys.readouterr()

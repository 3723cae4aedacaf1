import json
import math
import random
import string
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqlab import core
from seqlab.core import AnnotationScheme, Chunk, LabelSequence
from seqlab.errors import (
    EmptyText,
    TaggerContractError,
    TaggerLengthMismatch,
    UnloadableTagger,
)
from seqlab.evaluation import extract_entities
from seqlab.inference import (
    EchoTagger,
    LexiconTagger,
    WordPrediction,
    load_tagger,
    predict,
    predict_batch,
    predict_file,
    prediction_record,
    split_words,
    _WORD_RE,
)
from seqlab.schemes import encode_chunks

from .oracles import oracle_word_offsets

DATA = Path(__file__).parent / "data"
UN_LEXICON = LexiconTagger({"United": "ORG", "Nations": "ORG"})


class BrokenTagger:
    scheme = AnnotationScheme.BIO

    def tag(self, words):
        return [("O", 1.0)] * (len(words) + 1)


class TestSplitWords:
    def test_offsets_match_char_scan_oracle(self):
        rng = random.Random(4)
        alphabet = string.ascii_letters + "éü東 \t\n  "
        for _ in range(500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
            words = split_words(text)
            assert [(w.char_start, w.char_end) for w in words] == oracle_word_offsets(text)
            for w in words:
                assert text[w.char_start : w.char_end] == w.surface
                assert not w.surface[0].isspace() and not w.surface[-1].isspace()

    def test_str_split_agrees_with_the_word_pattern_on_every_code_point(self):
        """predict takes its words from str.split and their offsets from
        _WORD_RE, so the two must split every text alike."""
        disagree = []
        for code in range(sys.maxunicode + 1):
            text = "a" + chr(code) + "b"
            if text.split() != _WORD_RE.findall(text):
                disagree.append(hex(code))
        assert disagree == []


UNICODE_WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(["a", "b", "é", "東", *UNICODE_WHITESPACE]), max_size=30))
def test_predict_words_and_entities_are_those_of_split_words(text):
    tagger = LexiconTagger({"a": "X", "b": "X", "ab": "Y", "東": "Z"})
    words = split_words(text)
    if not words:
        with pytest.raises(EmptyText):
            predict(tagger, text)
        return
    predicted = predict(tagger, text, level="word")
    assert [(p.word, p.char_start, p.char_end) for p in predicted] == [tuple(w) for w in words]
    for span in predict(tagger, text):
        assert span.char_start == words[span.word_start].char_start
        assert span.char_end == words[span.word_end - 1].char_end
        assert prediction_record(span)["token"] == text[span.char_start : span.char_end]


class TestPredict:
    def test_entity_offsets_for_multiword_span(self):
        spans = predict(UN_LEXICON, "The United Nations")
        assert len(spans) == 1
        span = spans[0]
        assert span.char_start == 4
        assert span.char_end == 18
        assert span.surface == "United Nations"
        assert span.class_name == "ORG"

    def test_prediction_record_keys(self):
        (span,) = predict(UN_LEXICON, "The United Nations")
        assert prediction_record(span) == {
            "char_start": 4,
            "char_end": 18,
            "token": "United Nations",
            "tag": "ORG",
        }

    def test_all_outside_tagger_yields_nothing(self):
        assert predict(LexiconTagger({}), "some text here") == []

    def test_word_level_with_probabilities(self):
        predictions = predict(
            UN_LEXICON, "The United Nations", level="word", with_probabilities=True
        )
        assert len(predictions) == 3
        assert all(isinstance(p, WordPrediction) for p in predictions)
        assert [p.probability for p in predictions] == [1.0, 1.0, 1.0]
        assert [p.label.serialize() for p in predictions] == ["O", "B-ORG", "I-ORG"]
        ends = [p.char_end for p in predictions]
        starts = [p.char_start for p in predictions]
        assert starts == sorted(starts) and all(a < b for a, b in zip(starts, ends))

    def test_word_level_without_probabilities(self):
        predictions = predict(UN_LEXICON, "The United Nations", level="word")
        assert all(p.probability is None for p in predictions)
        assert "probability" not in prediction_record(predictions[0])

    def test_entity_probability_is_member_minimum(self):
        class HalfSure:
            scheme = AnnotationScheme.BIO

            def tag(self, words):
                return [("B-ORG", 0.9), ("I-ORG", 0.4)]

        (span,) = predict(HalfSure(), "Acme Corp", with_probabilities=True)
        assert span.probability == 0.4

    def test_inner_whitespace_is_preserved_in_surface(self):
        text = "The  United\tNations"
        (span,) = predict(UN_LEXICON, text)
        assert span.surface == text[span.char_start : span.char_end]
        assert span.surface == "United\tNations"

    def test_empty_text(self):
        with pytest.raises(EmptyText):
            predict(UN_LEXICON, "   \n ")

    def test_tagger_length_mismatch(self):
        with pytest.raises(TaggerLengthMismatch):
            predict(BrokenTagger(), "a b c")

    def test_slice_invariant_on_fuzzed_texts(self):
        rng = random.Random(99)
        vocabulary = ["United", "Nations", "alpha", "beta", "éclair", "東京", "x"]
        tagger = LexiconTagger(
            {"United": "ORG", "Nations": "ORG", "éclair": "MISC", "東京": "LOC"}
        )
        for _ in range(300):
            pieces = []
            for _ in range(rng.randint(1, 12)):
                pieces.append(rng.choice(vocabulary))
                pieces.append(rng.choice([" ", "  ", "\t", "\n", "   "]))
            text = "".join(pieces)
            for span in predict(tagger, text):
                assert text[span.char_start : span.char_end] == span.surface

    def test_entity_level_commutes_with_word_level(self):
        rng = random.Random(41)
        vocabulary = ["United", "Nations", "alpha", "Acme", "beta"]
        tagger = LexiconTagger({"United": "ORG", "Nations": "ORG", "Acme": "ORG"})
        for _ in range(200):
            text = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 10)))
            words = predict(tagger, text, level="word")
            seq = LabelSequence(tuple(w.label for w in words), tagger.scheme)
            merged = []
            for chunk in extract_entities(seq, "strict"):
                first, last = words[chunk.word_start], words[chunk.word_end - 1]
                merged.append(
                    (chunk.class_name, first.char_start, last.char_end)
                )
            direct = [
                (s.class_name, s.char_start, s.char_end)
                for s in predict(tagger, text)
            ]
            assert direct == merged

    def test_deterministic(self):
        text = "United Nations alpha United"
        assert predict(UN_LEXICON, text) == predict(UN_LEXICON, text)


class TestPredictBatch:
    def test_empty_batch(self):
        assert predict_batch(UN_LEXICON, []) == []

    def test_map_equivalence(self):
        texts = ["The United Nations", "nothing here"]
        items = predict_batch(UN_LEXICON, texts)
        assert [item.value for item in items] == [predict(UN_LEXICON, t) for t in texts]
        assert all(item.ok for item in items)

    def test_failed_item_does_not_poison_batch(self):
        items = predict_batch(UN_LEXICON, ["United Nations", "   ", "ok"])
        assert [item.ok for item in items] == [True, False, True]
        assert items[1].error


class TestPredictFile:
    def write_lines(self, path, lines):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def test_valid_file(self, tmp_path):
        source = tmp_path / "in.jsonl"
        sink = tmp_path / "out.jsonl"
        self.write_lines(
            source,
            [json.dumps({"text": "The United Nations"}), json.dumps({"text": "x y"})],
        )
        summary = predict_file(UN_LEXICON, source, sink)
        assert (summary.processed, summary.failed) == (2, 0)
        lines = sink.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["text"] == "The United Nations"
        assert first["predictions"] == [
            {"char_start": 4, "char_end": 18, "token": "United Nations", "tag": "ORG"}
        ]

    def test_malformed_line_is_isolated_and_alignment_preserved(self, tmp_path):
        source = tmp_path / "in.jsonl"
        sink = tmp_path / "out.jsonl"
        self.write_lines(
            source,
            [json.dumps({"text": "a"}), "{broken", json.dumps({"text": "b"})],
        )
        summary = predict_file(UN_LEXICON, source, sink)
        assert (summary.processed, summary.failed) == (2, 1)
        lines = [json.loads(l) for l in sink.read_text().splitlines()]
        assert len(lines) == 3
        assert "error" in lines[1]
        assert lines[0]["text"] == "a" and lines[2]["text"] == "b"

    def test_undecodable_and_deeply_nested_lines_fail_alone(self, tmp_path):
        """So does a lone surrogate escape, which no UTF-8 line can hold."""
        source = tmp_path / "in.jsonl"
        sink = tmp_path / "out.jsonl"
        source.write_bytes(
            b'{"text": "a\xff"}\n' + b"[" * 100_000 + b'\n{"text": "b"}\r\n'
            + b'{"text": "Ann \\ud800 went"}\n{"text": "\\ud83d\\ude00"}\n'
        )
        for level in ("entity", "word"):
            summary = predict_file(UN_LEXICON, source, sink, level=level)
            assert (summary.processed, summary.failed) == (2, 3)
            lines = [json.loads(l) for l in sink.read_text(encoding="utf-8").splitlines()]
            assert lines[0]["error"].startswith("line 1: byte 11 is not UTF-8")
            assert lines[1]["error"].startswith("line 2: invalid JSON")
            for index, text in ((2, "b"), (4, "\U0001f600")):
                expected = [prediction_record(p) for p in predict(UN_LEXICON, text, level=level)]
                assert lines[index] == {"text": text, "predictions": expected}
            assert lines[3] == {"error": "line 4: invalid JSON (lone surrogate)"}

    def test_bad_level_is_refused_before_any_file_is_opened(self, tmp_path):
        source, sink = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        sink.write_text("old output\n")
        for lines in ([], ['{"text": "a"}']):
            self.write_lines(source, lines)
            with pytest.raises(ValueError, match="level must be"):
                predict_file(UN_LEXICON, source, sink, level="token")
            with pytest.raises(ValueError, match="level must be"):
                predict_file(UN_LEXICON, tmp_path / "missing.jsonl", sink, level="token")
            assert sink.read_text() == "old output\n"

    def test_too_long_integer_fails_its_line_only(self, tmp_path):
        source = tmp_path / "in.jsonl"
        sink = tmp_path / "out.jsonl"
        self.write_lines(source, ['{"text": "a", "n": ' + "1" * 5000 + "}", '{"text": "b"}'])
        summary = predict_file(UN_LEXICON, source, sink)
        assert (summary.processed, summary.failed) == (1, 1)
        lines = [json.loads(l) for l in sink.read_text().splitlines()]
        assert lines[0] == {"error": "line 1: invalid JSON (number too long)"}
        assert lines[1] == {"text": "b", "predictions": []}

    def test_matches_in_memory_predictions(self, tmp_path):
        texts = [f"United Nations item {i}" for i in range(10)]
        source = tmp_path / "in.jsonl"
        sink = tmp_path / "out.jsonl"
        self.write_lines(source, [json.dumps({"text": t}) for t in texts])
        predict_file(UN_LEXICON, source, sink)
        lines = [json.loads(l) for l in sink.read_text().splitlines()]
        for text, line in zip(texts, lines):
            expected = [prediction_record(p) for p in predict(UN_LEXICON, text)]
            assert line["predictions"] == expected

    def test_lines_are_the_bytes_of_json_dumps(self, tmp_path):
        """One encoder for the run writes each line as json.dumps(...,
        ensure_ascii=False) writes it: non-ASCII text and U+2028 left
        unescaped, floats in their shortest form."""
        tagger = FixedTagger([("B-LOC", 1 / 3), ("O", 0.1), ("O", 1.0)])
        texts = ["Z\u00fcrich\u2028liegt \u4e2d", "\u00e9t\u00e9 \u2028 x y"]
        source, sink = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        self.write_lines(source, [json.dumps({"text": t}) for t in texts] + ['{"text": 1}'])
        for level in ("entity", "word"):
            predict_file(tagger, source, sink, level=level, with_probabilities=True)
            expected = [
                {"text": t, "predictions": [
                    prediction_record(p)
                    for p in predict(tagger, t, level=level, with_probabilities=True)
                ]}
                for t in texts
            ] + [{"error": 'line 3: line needs a {"text": ...} object'}]
            assert sink.read_bytes() == "".join(
                json.dumps(record, ensure_ascii=False) + "\n" for record in expected
            ).encode("utf-8")


class TestTaggers:
    def test_lexicon_encodes_runs_in_its_scheme(self):
        tagger = LexiconTagger({"a": "X", "b": "X", "c": "Y"}, AnnotationScheme.BILOU)
        labels = [lab for lab, _ in tagger.tag(["a", "b", "c", "d"])]
        assert labels == ["B-X", "L-X", "U-Y", "O"]

    @pytest.mark.parametrize("scheme", list(AnnotationScheme), ids=lambda s: s.value)
    def test_lexicon_runs_match_the_chunk_encoder(self, scheme):
        tagger = LexiconTagger({"a": "X", "b": "X", "c": "Y-z", "d": "Y-z"}, scheme)
        words = ["a", "b", "a", "c", "d", "x", "c", "d", "d"]
        labels = [lab for lab, _ in tagger.tag(words)]
        chunks = [Chunk("X", 0, 3), Chunk("Y-z", 3, 5), Chunk("Y-z", 6, 9)]
        assert labels == encode_chunks(chunks, len(words), scheme).serialized()

    def test_lexicon_from_json(self):
        tagger = load_tagger(f"lexicon:{DATA / 'un_lexicon.json'}")
        assert isinstance(tagger, LexiconTagger)
        assert predict(tagger, "The United Nations")[0].class_name == "ORG"

    def test_lexicon_with_declared_scheme(self):
        tagger = load_tagger(f"lexicon:{DATA / 'fixture_lexicon.json'}")
        assert tagger.scheme is AnnotationScheme.BIO

    def test_all_o_uri(self):
        tagger = load_tagger("all-o")
        assert tagger.tag(["x"]) == [("O", 1.0)]

    def test_echo_tagger_round_trips_gold(self, tmp_path):
        from seqlab.ingest import parse_conll, save_canonical_jsonl

        docs = parse_conll("Ada B-PER\nLovelace I-PER\n\nBonn U-LOC\n")
        canonical, plain = tmp_path / "gold.jsonl", tmp_path / "plain.jsonl"
        save_canonical_jsonl(docs, canonical)
        plain.write_text("".join(
            json.dumps({"words": [w.surface for w in d.words], "labels": d.word_labels.serialized()})
            + "\n" for d in docs
        ))
        # offset words are read into documents; plain string words are not
        for path in (canonical, plain):
            tagger = load_tagger(f"echo:{path}")
            assert isinstance(tagger, EchoTagger)
            assert tagger.scheme is AnnotationScheme.BILOU
            assert [lab for lab, _ in tagger.tag(["Ada", "Lovelace"])] == ["B-PER", "I-PER"]
            assert [lab for lab, _ in tagger.tag(["unknown"])] == ["O"]

    def test_unknown_uri(self):
        with pytest.raises(ValueError):
            load_tagger("hub:bert-base-cased")

    @pytest.mark.parametrize(
        "record",
        [
            pytest.param("{not json", id="bad-json"),
            pytest.param("[1, 2]", id="non-object"),
            pytest.param(None, id="empty-file"),
            pytest.param({"words": ["Ada"], "labels": ["X-PER"]}, id="unknown-prefix"),
            pytest.param({"words": ["Ada"], "labels": ["O-"]}, id="outside-with-hyphen"),
            pytest.param({"words": ["Ada", "Lovelace"], "labels": ["B-PER"]}, id="lengths"),
            pytest.param({"words": ["Ada", ""], "labels": ["B-PER", "O"]}, id="empty-word"),
            pytest.param(
                {"text": "Ada L", "words": ["Ada", {"surface": "L", "start": 4, "end": 5}],
                 "labels": ["O", "O"]},
                id="mixed-words",
            ),
            pytest.param(
                {"text": "Ada", "words": [{"surface": "Bob", "start": 0, "end": 3}],
                 "labels": ["B-PER"]},
                id="surface-not-slice",
            ),
            pytest.param({"words": ["Ada", "x"], "labels": ["B-PER", 1]}, id="label-not-string"),
        ],
    )
    def test_unloadable_echo_file(self, tmp_path, record):
        """A bad record fails at load, also after a good one."""
        path = tmp_path / "gold.jsonl"
        good = json.dumps({"words": ["Bonn"], "labels": ["B-LOC"]})
        if record is None:
            path.write_text("\n \n", encoding="utf-8")
        else:
            bad = record if isinstance(record, str) else json.dumps(record)
            path.write_text(f"{good}\n{bad}\n", encoding="utf-8")
        with pytest.raises(UnloadableTagger, match="^cannot load tagger"):
            load_tagger(f"echo:{path}")

    @pytest.mark.parametrize(
        "content",
        [
            b"{not json", b"[1, 2]", b"\xff\xfe", None,
            # every class is an entity class: a non-empty string, not "O"
            b'{"Paris": "O"}', b'{"Paris": 5}', b'{"Paris": ""}', b'{"entries": {"Paris": "O"}}',
        ],
    )
    def test_unreadable_lexicon_is_typed(self, tmp_path, content):
        path = tmp_path / "lexicon.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(UnloadableTagger, match="^cannot load tagger"):
            load_tagger(f"lexicon:{path}")


class MappingTagger:
    """Tags each word by a fixed mapping (O if unmapped) and declares no scheme."""

    def __init__(self, labels):
        self.labels = labels

    def tag(self, words):
        return [(self.labels.get(w, "O"), 1.0) for w in words]


@pytest.fixture
def parses(monkeypatch):
    """Counts core.parse_label calls by (label, scheme)."""
    calls = Counter()
    original = core.parse_label

    def counting(raw, scheme):
        calls[raw, scheme] += 1
        return original(raw, scheme)

    monkeypatch.setattr(core, "parse_label", counting)
    return calls


class TestRunParsesOnce:
    def run(self, tmp_path, tagger, texts):
        source, sink = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        source.write_text("".join(json.dumps({"text": t}) + "\n" for t in texts))
        summary = predict_file(tagger, source, sink)
        return summary, [json.loads(line) for line in sink.read_text().splitlines()]

    def test_each_distinct_label_is_parsed_once(self, tmp_path, parses):
        texts = ["The United Nations", "nothing", "United Nations and United Nations"] * 3
        summary, _ = self.run(tmp_path, UN_LEXICON, texts)
        assert (summary.processed, summary.failed) == (9, 0)
        bio = AnnotationScheme.BIO
        assert parses == {("O", bio): 1, ("B-ORG", bio): 1, ("I-ORG", bio): 1}

    def test_undeclared_scheme_is_read_off_each_text(self, tmp_path):
        tagger = MappingTagger({"Ada": "U-PER", "Bob": "B-PER", "Dylan": "I-PER"})
        texts = ["Ada sings", "Bob Dylan sings", "Ada and Bob Dylan"]
        summary, lines = self.run(tmp_path, tagger, texts)
        assert (summary.processed, summary.failed) == (3, 0)
        for text, line in zip(texts, lines):
            expected = [prediction_record(p) for p in predict(tagger, text)]
            assert line == {"text": text, "predictions": expected}
        assert lines[1]["predictions"] == [
            {"char_start": 0, "char_end": 9, "token": "Bob Dylan", "tag": "PER"}
        ]

    def test_bad_label_fails_each_of_its_lines_only(self, tmp_path, parses):
        tagger = MappingTagger({"bad": "X-PER", "Ada": "U-PER"})
        texts = ["bad", "Ada", "very bad", "fine"]
        summary, lines = self.run(tmp_path, tagger, texts)
        assert (summary.processed, summary.failed) == (2, 2)
        assert lines[0]["error"].startswith("line 1: label 'X-PER'")
        assert lines[2]["error"].startswith("line 3: label 'X-PER'")
        assert lines[1]["predictions"][0]["tag"] == "PER"
        assert lines[3] == {"text": "fine", "predictions": []}
        bilou = AnnotationScheme.BILOU
        assert parses == {("X-PER", bilou): 2, ("O", bilou): 1, ("U-PER", bilou): 1}


class FixedTagger:
    """Returns the same output (or raises the same error) for any words."""

    def __init__(self, output, scheme=AnnotationScheme.BIO):
        self.output = output
        self.scheme = scheme

    def tag(self, words):
        if isinstance(self.output, Exception):
            raise self.output
        return self.output


class TestTaggerContract:
    @pytest.mark.parametrize(
        "output",
        [
            [("O", 1.5)],
            [("O", -0.1)],
            [("O", math.nan)],
            [("O", "high")],
            [("O", None)],
            ["O"],
            ["OK"],
            [("O", 1.0, "extra")],
            [(None, 1.0)],
            [(3, 1.0)],
            None,
            RuntimeError("model crashed"),
        ],
    )
    def test_breaches_are_typed(self, output):
        with pytest.raises(TaggerContractError):
            predict(FixedTagger(output), "word")

    def test_item_that_changes_between_reads_is_a_breach(self):
        """The output is checked in one pass and only a failing output is
        read again, item by item, to name the bad one."""

        class Fickle:
            reads = 0

            def __le__(self, other):
                Fickle.reads += 1
                return Fickle.reads > 1

            __ge__ = __le__

            def __float__(self):
                return 0.5

        with pytest.raises(TaggerContractError, match="changed while it was checked"):
            predict(FixedTagger([("O", Fickle())]), "word")

    def test_bad_declared_scheme(self):
        with pytest.raises(TaggerContractError):
            predict(FixedTagger([("O", 1.0)], scheme="XYZ"), "word")

    def test_length_mismatch_is_a_contract_breach(self):
        assert issubclass(TaggerLengthMismatch, TaggerContractError)

    def test_breach_fails_only_its_line(self, tmp_path):
        source = tmp_path / "in.jsonl"
        sink = tmp_path / "out.jsonl"
        source.write_text(json.dumps({"text": "a"}) + "\n" + "{broken\n", encoding="utf-8")
        summary = predict_file(FixedTagger([("O", 1.5)]), source, sink)
        assert (summary.processed, summary.failed) == (0, 2)
        errors = [json.loads(line)["error"] for line in sink.read_text().splitlines()]
        assert errors[0].startswith("line 1: tagger output for word 0")
        assert errors[1].startswith("line 2: invalid JSON")


LABELS = st.sampled_from(["O", "B-X", "I-X", "L-X", "U-X", "I-Y", "X", "", "B-", "Q-X"])
PROBABILITIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-2, 2), st.text(max_size=2)
)
TAGGER_ITEMS = st.one_of(
    st.tuples(LABELS, PROBABILITIES),
    st.tuples(st.one_of(st.none(), st.integers()), st.just(0.5)),
    st.tuples(LABELS, st.just(0.5), st.just(0.5)),
    LABELS,
    st.none(),
    st.integers(),
)


class HostileTagger:
    def __init__(self, behaviour, items, scheme):
        self.behaviour = behaviour
        self.items = items
        self.scheme = scheme

    def tag(self, words):
        if self.behaviour == "raise":
            raise KeyError("model crashed")
        n = len(words) + {"short": -1, "long": 1}.get(self.behaviour, 0)
        return [self.items[i % len(self.items)] for i in range(max(n, 0))]


INPUT_LINES = st.one_of(
    st.builds(lambda t: json.dumps({"text": t}), st.text(alphabet="ab X\t", max_size=12)),
    st.sampled_from(["", "{broken", "[1, 2]", '{"text": 3}', "null"]),
)


@settings(max_examples=150, deadline=None)
@given(
    behaviour=st.sampled_from(["exact", "exact", "short", "long", "raise"]),
    items=st.lists(TAGGER_ITEMS, min_size=1, max_size=4),
    scheme=st.sampled_from([None, "BIO", "nonsense", *AnnotationScheme]),
    lines=st.lists(INPUT_LINES, min_size=1, max_size=6),
    level=st.sampled_from(["entity", "word"]),
)
def test_hostile_taggers_never_abort_predict_file(behaviour, items, scheme, lines, level):
    tagger = HostileTagger(behaviour, items, scheme)
    with tempfile.TemporaryDirectory() as tmp:
        source, sink = Path(tmp) / "in.jsonl", Path(tmp) / "out.jsonl"
        source.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        summary = predict_file(tagger, source, sink, level=level)
        outputs = [json.loads(line) for line in sink.read_text(encoding="utf-8").splitlines()]
    assert summary.processed + summary.failed == len(lines) == len(outputs)
    for lineno, record in enumerate(outputs, 1):
        if "error" in record:
            assert set(record) == {"error"}
            assert record["error"].startswith(f"line {lineno}: ")
    assert summary.failed == sum("error" in record for record in outputs)
    texts = [json.loads(line)["text"] for line in lines if line.startswith('{"text": "')]
    assert all(item.ok or item.error for item in predict_batch(tagger, texts))

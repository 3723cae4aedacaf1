"""`predict_file` writes each output line from the columns it holds per
line (surfaces, offsets, parsed labels, probabilities), not from
prediction objects. Its lines must still be the bytes that `json.dumps`
gives for the records `predict` and `prediction_record` build.
"""

import json
import tempfile
from itertools import cycle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqlab import inference
from seqlab.core import AnnotationScheme
from seqlab.errors import SeqlabError
from seqlab.inference import predict, predict_file, prediction_record


class Tag(str):
    """A label string of a subclass whose str() and repr() are not its value."""

    def __str__(self):
        return "not the label"

    __repr__ = __str__


class CyclingTagger:
    """Tags the words with its (label, probability) items in turn."""

    def __init__(self, items, scheme):
        self.items = items
        self.scheme = scheme

    def tag(self, words):
        items = cycle(self.items)
        return [next(items) for _ in words]


#: characters the JSON escaper and the word splitter treat specially
CHARACTERS = st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", " ", "\t", "\n", "\x85", "\xa0", "\u2028", "\u2029",
     "\u3000", "\u200b", "\ufeff", "\u00e9", "\u4e2d", "\U0001f600", "/", "A", "b"]
)
TEXTS = st.text(alphabet=CHARACTERS, max_size=16)
CLASSES = ["PER", 'q"\\', "\u00e9t\u00e9", "\U0001f600-x", "\u2028\x01"]
LABELS = st.builds(
    lambda prefix, cls, subclass: (Tag if subclass else str)(
        "O" if prefix == "O" else f"{prefix}-{cls}"
    ),
    st.sampled_from(["O", "B", "I", "L", "U"]),
    st.sampled_from(CLASSES),
    st.booleans(),
)
PROBABILITIES = st.sampled_from([0, 1, -0.0, 0.0, 1.0, 1 / 3, 5e-324, 0.1, 2 / 3])
TAGGERS = st.builds(
    CyclingTagger,
    st.lists(st.tuples(LABELS, PROBABILITIES), min_size=1, max_size=5),
    st.sampled_from([None, *AnnotationScheme]),
)


def expected_line(tagger, text, lineno, level, with_probabilities):
    try:
        predictions = predict(tagger, text, level=level, with_probabilities=with_probabilities)
    except SeqlabError as err:
        record = {"error": f"line {lineno}: {err}"}
    else:
        record = {"text": text, "predictions": [prediction_record(p) for p in predictions]}
    return json.dumps(record, ensure_ascii=False) + "\n"


def run(tagger, texts, level, with_probabilities, ascii_input=True, ends=("\n",)):
    """Each input line ends with the next of `ends` in turn."""
    with tempfile.TemporaryDirectory() as tmp:
        source, sink = Path(tmp) / "in.jsonl", Path(tmp) / "out.jsonl"
        source.write_bytes(
            "".join(
                json.dumps({"text": t}, ensure_ascii=ascii_input) + end
                for t, end in zip(texts, cycle(ends))
            ).encode("utf-8")
        )
        summary = predict_file(
            tagger, source, sink, level=level, with_probabilities=with_probabilities
        )
        return summary, sink.read_bytes()


@settings(max_examples=200, deadline=None)
@given(
    tagger=TAGGERS,
    texts=st.lists(TEXTS, min_size=1, max_size=4),
    level=st.sampled_from(["entity", "word"]),
    with_probabilities=st.booleans(),
    ascii_input=st.booleans(),
    ends=st.lists(st.sampled_from(["\n", "\r\n"]), min_size=1, max_size=4),
)
def test_lines_are_json_dumps_of_the_prediction_records(
    tagger, texts, level, with_probabilities, ascii_input, ends
):
    summary, written = run(tagger, texts, level, with_probabilities, ascii_input, ends)
    expected = [
        expected_line(tagger, text, lineno, level, with_probabilities)
        for lineno, text in enumerate(texts, 1)
    ]
    assert written == "".join(expected).encode("utf-8")
    assert summary.failed == sum(line.startswith('{"error": ') for line in expected)


@pytest.mark.parametrize("level", ["entity", "word"])
@pytest.mark.parametrize("with_probabilities", [False, True])
def test_file_path_builds_no_prediction_object(monkeypatch, level, with_probabilities):
    """With the prediction objects and `prediction_record` raising, the
    file is the same."""
    tagger = CyclingTagger(
        [(Tag("B-PER"), 1), ("I-PER", 1 / 3), ("O", -0.0), (f"U-{CLASSES[1]}", 5e-324)],
        AnnotationScheme.BILOU,
    )
    texts = ["Ann Lee went \u2028 home \U0001f600", 'a "b" \\c\\', "   ", "x"]
    before = run(tagger, texts, level, with_probabilities)

    def built(*args, **kwargs):
        raise AssertionError("the file path built a prediction object")

    for name in ("prediction_record", "WordPrediction", "EntitySpan"):
        monkeypatch.setattr(inference, name, built)
    assert run(tagger, texts, level, with_probabilities) == before
    assert before[0] == (3, 1)


class SurrogateTagger:
    """Tags the word "x" with a label holding a lone surrogate, which no
    UTF-8 file can hold, and every other word with a valid label."""

    scheme = AnnotationScheme.BIO

    def tag(self, words):
        return [("B-\ud800" if word == "x" else "B-PER", 0.5) for word in words]


@pytest.mark.parametrize("level", ["entity", "word"])
def test_a_tag_that_is_not_utf8_fails_only_its_lines(level):
    tagger = SurrogateTagger()
    texts = ["Ann Lee", "Ann x Lee", "é \U0001f600", "x", "x x", "Bo"]
    summary, output = run(tagger, texts, level, False)
    tag = "B-\\\\ud800" if level == "word" else "\\\\ud800"
    expected = [
        f"{{\"error\": \"line {lineno}: tag '{tag}' cannot be written as UTF-8\"}}\n"
        if "x" in text.split()
        else expected_line(tagger, text, lineno, level, False)
        for lineno, text in enumerate(texts, 1)
    ]
    assert output.decode("utf-8") == "".join(expected)
    assert summary == (3, 3)


class RaisingTagger:
    """Raises an exception whose message holds a lone surrogate for a text
    with the word "x", and tags every other text with valid labels."""

    scheme = AnnotationScheme.BIO

    def tag(self, words):
        if "x" in words:
            raise ValueError("word \ud800 x")
        return [("B-PER", 0.5) for _ in words]


RAISED = '{"error": "line 2: tagger raised ValueError: word \\\\ud800 x"}\n'


@pytest.mark.parametrize("level", ["entity", "word"])
def test_an_exception_message_that_is_not_utf8_fails_only_its_line(level):
    tagger = RaisingTagger()
    texts = ["Ann Lee", "Ann x Lee", "é \U0001f600", "Bo"]
    summary, output = run(tagger, texts, level, True)
    expected = [
        RAISED if lineno == 2 else expected_line(tagger, text, lineno, level, True)
        for lineno, text in enumerate(texts, 1)
    ]
    assert output.decode("utf-8") == "".join(expected)
    assert summary == (3, 1)


@pytest.mark.parametrize("level", ["entity", "word"])
def test_predict_input_writes_the_exception_line_and_goes_on(tmp_path, monkeypatch, capsys, level):
    from seqlab import cli

    monkeypatch.setattr(cli, "load_tagger", lambda uri: RaisingTagger())
    source, sink = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    source.write_text('{"text": "Ann"}\n{"text": "x"}\n{"text": "Bo"}\n', encoding="utf-8")
    assert cli.main(["predict", "--tagger", "all-o", "--input", str(source),
                     "--output", str(sink), "--level", level]) == 0
    lines = sink.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == 3 and lines[1] == RAISED
    assert capsys.readouterr().out == "processed=2 failed=1\n"

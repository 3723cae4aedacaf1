"""`predict_file` writes each output line from the columns it holds per
line (surfaces, offsets, parsed labels, probabilities), not from
prediction objects. Its lines must still be the bytes that `json.dumps`
gives for the records `predict` and `prediction_record` build, and an
input split across processes must give the bytes and summary of one.
"""

import json
import os
import signal
import tempfile
import threading
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


# Splitting an input across processes: with the minimum range size made
# tiny, 2 and 3 processes must write what one process writes.

#: input lines that are not {"text": ...} objects of valid UTF-8: malformed
#: JSON, non-UTF-8 bytes, blank lines, a lone surrogate escape, a CR end
ODD_LINES = st.sampled_from(
    [b'{"text": "Ann', b'{"text": 1}', b"[]", b"\xff\xfe", b'{"text": "caf\xc3"}', b"", b"   ",
     b'{"text": "\\ud800"}', b'{"text": "Ann Lee"}\r']
)
LINES = st.one_of(
    st.builds(
        lambda text, ascii_input: json.dumps({"text": text}, ensure_ascii=ascii_input).encode(),
        TEXTS,
        st.booleans(),
    ),
    ODD_LINES,
)
#: the shortest line that pads a block: {"text": ""} and its line end
PAD = 13


def pad_line(size):
    return b'{"text": "' + b"p" * (size - PAD) + b'"}\n'


@st.composite
def split_inputs(draw):
    """(input bytes, processes, the byte offsets where the input is cut or
    None). The input is one block per process, each padded to one width,
    so each block starts right at a cut and its first line, of any kind,
    sits there. It may also hold a line longer than a range, or end
    without a final newline."""
    processes = draw(st.sampled_from([2, 3]))
    blocks = [b"".join(line + b"\n" for line in draw(st.lists(LINES, min_size=1, max_size=4)))
              for _ in range(processes)]
    width = max(map(len, blocks)) + PAD
    blocks = [block + pad_line(width - len(block)) for block in blocks]
    cuts = [width * k for k in range(1, processes)]
    if draw(st.booleans()):  # a line longer than any range, in place of a block's first line
        at = draw(st.integers(0, processes - 1))
        blocks[at] = json.dumps({"text": "w " * width * processes}).encode() + b"\n" + blocks[at]
        cuts = None
    data = b"".join(blocks)
    if draw(st.booleans()):
        data = data[:-1]
    return data, processes, cuts


def run_file(tagger, data, level, with_probabilities, processes):
    with tempfile.TemporaryDirectory() as tmp:
        source, sink = Path(tmp) / "in.jsonl", Path(tmp) / "out.jsonl"
        source.write_bytes(data)
        summary = predict_file(tagger, source, sink, level=level,
                               with_probabilities=with_probabilities, processes=processes)
        return summary, sink.read_bytes()


def cut_offsets(data, processes):
    """Where `predict_file` cuts ``data`` for ``processes``."""
    with tempfile.TemporaryFile() as src:
        src.write(data)
        src.seek(0)
        return [start for start, _ in inference._ranges(src, processes)][1:]


@settings(max_examples=100, deadline=None)
@given(
    tagger=TAGGERS,
    split=split_inputs(),
    level=st.sampled_from(["entity", "word"]),
    with_probabilities=st.booleans(),
)
def test_split_runs_write_what_one_process_writes(tagger, split, level, with_probabilities):
    data, processes, cuts = split
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_MIN_RANGE_BYTES", 1)
        found = cut_offsets(data, processes)
        assert found and (cuts is None or found == cuts)
        one = run_file(tagger, data, level, with_probabilities, 1)
        assert run_file(tagger, data, level, with_probabilities, processes) == one
    assert sum(one[0]) == data.count(b"\n") + (not data.endswith(b"\n"))


INPUT = b"".join(
    json.dumps({"text": text}).encode() + b"\n"
    for text in ["Ann Lee", "", "Bo x", "   ", "Ann \U0001f600 Lee"] * 8
) + b'{"text": \n\xff\n'


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_a_failed_child_has_its_range_run_again(tmp_path, monkeypatch, failure):
    """A child whose range function raises, or which is killed, fails only
    itself: the parent runs its range, and no temporary file is left."""
    tagger = CyclingTagger([("B-PER", 0.5), ("I-PER", 1.0), ("O", 0.25)], AnnotationScheme.BIO)
    expected = run_file(tagger, INPUT, "word", True, 1)
    parent = os.getpid()
    original = inference._predict_range

    def failing(*args):
        if os.getpid() != parent:
            if failure == "raises":
                raise RuntimeError("the child's range fails")
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args)

    monkeypatch.setattr(inference, "_MIN_RANGE_BYTES", 64)
    monkeypatch.setattr(inference, "_predict_range", failing)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    (tmp_path / "out").mkdir()
    source, sink = tmp_path / "in.jsonl", tmp_path / "out" / "out.jsonl"
    source.write_bytes(INPUT)
    assert len(cut_offsets(INPUT, 3)) == 2
    summary = predict_file(tagger, source, sink, level="word", with_probabilities=True,
                           processes=3)
    assert (summary, sink.read_bytes()) == expected
    assert list((tmp_path / "tmp").iterdir()) == []
    assert list((tmp_path / "out").iterdir()) == [sink]


def test_the_default_and_a_threaded_caller_never_fork(tmp_path, monkeypatch):
    tagger = CyclingTagger([("B-PER", 0.5), ("O", 1.0)], AnnotationScheme.BIO)
    expected = run_file(tagger, INPUT, "entity", False, 1)
    monkeypatch.setattr(inference, "_MIN_RANGE_BYTES", 64)

    def fork():
        raise AssertionError("predict_file forked")

    monkeypatch.setattr(os, "fork", fork)
    source, sink = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    source.write_bytes(INPUT)
    assert (predict_file(tagger, source, sink), sink.read_bytes()) == expected
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert (predict_file(tagger, source, sink, processes=2), sink.read_bytes()) == expected
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()

"""`convert` splits a large input across processes through `ranges`; the
split must not show. With the minimum range size made tiny, 1, 2 and 3
processes must give the same output bytes (or no output file), stdout,
stderr and exit code, with and without `--verbose`, whatever sits at a
cut: a good record, a bad one, a blank line or a line longer than a range.
"""

import contextlib
import io
import json
import os
import signal
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqlab import cli, inference, ranges, records
from seqlab.core import AnnotationScheme
from seqlab.schemes import chunk_prefixes

pytestmark = pytest.mark.forks

SCHEMES = [scheme.value for scheme in AnnotationScheme]
#: words the JSON escaper treats specially, and some it leaves alone
WORDS = st.sampled_from(["Ann", "Lee", "été", "中", "\U0001f600", 'q"', "a\\b", "x\x01"])
CLASSES = st.sampled_from(["PER", "LOC", "é-x"])


@st.composite
def good_lines(draw, scheme):
    """A record whose labels are consistent in ``scheme``: a run of chunks
    and O words, as a words array or as text with word objects."""
    labels = []
    for cls, length in draw(st.lists(st.tuples(CLASSES | st.none(), st.integers(1, 3)),
                                     min_size=1, max_size=4)):
        if cls is None:
            labels += ["O"] * length
        else:
            labels += [f"{p}-{cls}" for p in chunk_prefixes(length, scheme)]
            labels.append("O")  # so that no two chunks of a class merge under IO
    words = draw(st.lists(WORDS, min_size=len(labels), max_size=len(labels)))
    if draw(st.booleans()):
        return json.dumps({"words": words, "labels": labels}, ensure_ascii=False).encode()
    text = " ".join(words)
    starts = [sum(len(w) + 1 for w in words[:i]) for i in range(len(words))]
    objects = [{"surface": w, "start": s, "end": s + len(w)} for w, s in zip(words, starts)]
    return json.dumps({"text": text, "words": objects, "labels": labels}).encode()


#: lines that fail to read or to convert under some scheme: malformed JSON,
#: a JSON value that is no object, bytes that are not UTF-8, a lone
#: surrogate, a label that does not parse or whose prefix is not in the
#: scheme, fewer labels than words, no labels, and IO/BIO/BILOU violations;
#: and blank lines, which are skipped
BAD_LINES = st.sampled_from([
    b'{"words": ["Ann"], "labels": ["O"]',
    b"[]",
    b'{"words": ["Ann\xff"], "labels": ["O"]}',
    b'{"words": ["\\ud800"], "labels": ["O"]}',
    b'{"words": ["Ann"], "labels": ["Z-PER"]}',
    b'{"words": ["Ann"], "labels": ["U-PER"]}',
    b'{"words": ["Ann", "Lee"], "labels": ["B-PER"]}',
    b'{"words": ["Ann", "Lee"]}',
    b'{"text": "Ann", "entities": []}',
    b'{"words": ["Ann"], "labels": ["I-PER"]}',
    b'{"words": ["Ann", "Lee"], "labels": ["B-PER", "O"]}',
    b'{"words": ["Ann", "Lee"], "labels": ["B-PER", "I-LOC"]}',
    b'{"words": ["Ann", "Lee"], "labels": ["U-PER", "L-PER"]}',
    b"",
    b"  \t",
])
#: the shortest line that pads a block, {"words": ["p"], "labels": ["O"]}
PAD = 34


def pad_line(size):
    return b'{"words": ["' + b"p" * (size - PAD + 1) + b'"], "labels": ["O"]}\n'


@st.composite
def split_inputs(draw):
    """(source scheme, input bytes, processes, the byte offsets where the
    input is cut or None). The input is one block per process, each padded
    to one width, so each block starts right at a cut and its first line,
    of any kind, sits there. Most inputs hold no bad line at all; some
    also hold a line longer than any range, or end without a newline."""
    scheme = draw(st.sampled_from(list(AnnotationScheme)))
    processes = draw(st.sampled_from([2, 3]))
    lines = good_lines(scheme)
    if draw(st.booleans()):
        lines = lines | BAD_LINES
    blocks = [b"".join(line + b"\n" for line in draw(st.lists(lines, min_size=1, max_size=4)))
              for _ in range(processes)]
    width = max(map(len, blocks)) + PAD
    blocks = [block + pad_line(width - len(block)) for block in blocks]
    cuts = [width * k for k in range(1, processes)]
    if draw(st.booleans()):  # a line longer than any range, in front of one block
        at = draw(st.integers(0, processes - 1))
        count = width * processes // 8
        long = json.dumps({"words": ["w"] * count, "labels": ["O"] * count}).encode()
        blocks[at] = long + b"\n" + blocks[at]
        cuts = None
    data = b"".join(blocks)
    if draw(st.booleans()):
        data = data[:-1]
    return scheme.value, data, processes, cuts


def cut_offsets(data, processes):
    """Where `ranges._ranges` cuts ``data`` for ``processes``."""
    with tempfile.TemporaryFile() as src:
        src.write(data)
        src.seek(0)
        cuts = ranges._ranges(src, processes, ranges._CONVERT_MIN_RANGE_BYTES)
        return [start for start, _ in cuts][1:]


def convert(tmp, processes, argv, patch):
    """(exit code, stdout, stderr, output bytes or None) of one `convert`
    over ``tmp``/in.jsonl run with ``processes`` CPUs."""
    sink = tmp / "out.jsonl"
    sink.unlink(missing_ok=True)
    patch.setattr(cli, "_cpu_count", lambda: processes)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--input", str(tmp / "in.jsonl"), "--output", str(sink)])
    return code, out.getvalue(), err.getvalue(), sink.read_bytes() if sink.exists() else None


@settings(max_examples=120, deadline=None)
@given(split=split_inputs(), target=st.sampled_from(SCHEMES), verbose=st.booleans())
def test_split_converts_write_what_one_process_writes(split, target, verbose):
    source, data, processes, cuts = split
    argv = [*(["--verbose"] if verbose else []), "convert", "--from", source, "--to", target]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        tmp = Path(tmp)
        (tmp / "in.jsonl").write_bytes(data)
        patch.setattr(ranges, "_CONVERT_MIN_RANGE_BYTES", 1)
        found = cut_offsets(data, processes)
        assert found and (cuts is None or found == cuts)
        one = convert(tmp, 1, argv, patch)
        assert convert(tmp, 2, argv, patch) == one
        assert convert(tmp, 3, argv, patch) == one
        assert sorted(path.name for path in tmp.iterdir()) == ["in.jsonl"] + ["out.jsonl"] * (
            one[0] == 0
        )
    assert one[0] in (0, 1)


def good_input(count=40):
    """A BIO input of ``count`` records, one per line."""
    return b"".join(
        json.dumps({"words": ["Ann", "Lee", "went", str(i)],
                    "labels": ["B-PER", "I-PER", "O", "B-LOC"]}).encode() + b"\n"
        for i in range(count)
    )


ARGV = ["convert", "--from", "BIO", "--to", "BILOU"]


def test_a_good_input_converts_on_the_split_path(tmp_path, monkeypatch):
    """A good input split across 2 or 3 CPUs is converted by its ranges:
    the one-process run, which decodes the whole input, never starts."""
    (tmp_path / "in.jsonl").write_bytes(good_input())
    monkeypatch.setattr(ranges, "_CONVERT_MIN_RANGE_BYTES", 64)
    expected = convert(tmp_path, 1, ARGV, monkeypatch)

    def whole(*args):
        raise AssertionError("the whole input was converted in one process")

    monkeypatch.setattr(ranges, "_one_part", whole)
    assert len(cut_offsets(good_input(), 3)) == 2
    for processes in (2, 3):
        assert convert(tmp_path, processes, ARGV, monkeypatch) == expected


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_a_failed_child_has_its_range_converted_again(tmp_path, monkeypatch, failure):
    """A child which is killed has its range converted again in the parent,
    still on the split path; a child whose range work raises has the whole
    input converted once, as one part, in the parent. Either way the command
    gives the one-process result, and no temporary file is left."""
    (tmp_path / "in.jsonl").write_bytes(good_input())
    monkeypatch.setattr(ranges, "_CONVERT_MIN_RANGE_BYTES", 64)
    expected = convert(tmp_path, 1, ARGV, monkeypatch)
    wholes = []
    one_part = ranges._one_part

    def whole(*args):
        wholes.append(os.getpid())
        return one_part(*args)

    monkeypatch.setattr(ranges, "_one_part", whole)
    parent = os.getpid()
    original = records._convert_range

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            if failure == "raises":
                raise RuntimeError("the child's range fails")
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, **kwargs)

    monkeypatch.setattr(records, "_convert_range", failing)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    assert len(cut_offsets(good_input(), 3)) == 2
    assert convert(tmp_path, 3, ARGV, monkeypatch) == expected
    assert expected[0] == 0 and expected[1] == "converted 40 documents BIO -> BILOU\n"
    assert wholes == ([parent] if failure == "raises" else [])
    assert list((tmp_path / "tmp").iterdir()) == []


@pytest.mark.parametrize("bad", [False, True])
def test_output_equal_to_input_is_written_over_as_in_one_process(tmp_path, monkeypatch, bad):
    data = good_input() + (b'{"words": ["Ann"], "labels": ["I-PER"]}\n' if bad else b"")
    monkeypatch.setattr(ranges, "_CONVERT_MIN_RANGE_BYTES", 64)
    results = []
    for processes in (1, 2, 3):
        (tmp_path / "in.jsonl").write_bytes(data)
        monkeypatch.setattr(cli, "_cpu_count", lambda: processes)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*ARGV, "--input", str(tmp_path / "in.jsonl"),
                             "--output", str(tmp_path / "in.jsonl")])
        results.append((code, out.getvalue(), err.getvalue(),
                        (tmp_path / "in.jsonl").read_bytes()))
    assert results[1] == results[0] and results[2] == results[0]
    assert results[0][0] == (1 if bad else 0)
    assert (results[0][3] == data) is bad  # a failing convert writes nothing


def test_an_input_under_two_convert_ranges_is_not_split(tmp_path, monkeypatch):
    """`convert` has its own least range, larger than `predict`'s: an input
    that `predict` would split stays in one process."""
    data = good_input(3000)
    assert 2 * inference._MIN_RANGE_BYTES <= len(data) < 2 * ranges._CONVERT_MIN_RANGE_BYTES
    (tmp_path / "in.jsonl").write_bytes(data)
    expected = convert(tmp_path, 1, ARGV, monkeypatch)

    def fork():
        raise AssertionError("convert forked")

    monkeypatch.setattr(os, "fork", fork)
    assert convert(tmp_path, 2, ARGV, monkeypatch) == expected


def test_a_threaded_caller_never_forks(tmp_path, monkeypatch):
    (tmp_path / "in.jsonl").write_bytes(good_input())
    monkeypatch.setattr(ranges, "_CONVERT_MIN_RANGE_BYTES", 64)
    expected = convert(tmp_path, 1, ARGV, monkeypatch)

    forks = []

    def fork():
        forks.append(threading.active_count())
        raise OSError("fork is off")

    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert convert(tmp_path, 2, ARGV, monkeypatch) == expected
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []
    # alone, the same call would have forked
    assert convert(tmp_path, 2, ARGV, monkeypatch) == expected
    assert forks == [1]

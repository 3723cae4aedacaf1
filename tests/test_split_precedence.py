"""Which error a split command reports when its parts fail on different checks.

One process runs each check over the whole input before the next one
starts: UTF-8 decoding, JSON lines, Doccano conversion, label parsing,
record checks, then the tagger or the conversion. So where two ranges fail
on different checks, the later check in the earlier range, one process
reports the earlier check's error, from the later range. With the least
range made tiny, `convert`, `evaluate` and a JSONL `dataset set-up` on 2
and 3 CPUs must give the stdout, stderr, exit code and output files (none)
of the same command on one CPU, with and without `--verbose`.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqlab import cli, ranges

pytestmark = pytest.mark.forks

GOOD = b'{"words": ["Ann", "Lee", "went"], "labels": ["B-PER", "I-PER", "O"]}'
DOCCANO = b'{"text": "Ann Lee went", "label": [[0, 7, "PER"]]}'

#: a line that fails each check, by its place in the order one process runs
#: them: 1 UTF-8, 2 JSON lines, 3 Doccano conversion, 4 labels, 5 records,
#: 6 the conversion (`convert`) or the count (`evaluate`)
WORDS = {
    1: b'{"words": ["Ann\xff"], "labels": ["O"]}',
    2: b'{"words": ["Ann"], "labels": ["O"]',
    4: b'{"words": ["Ann"], "labels": ["Z-PER"]}',
    5: b'{"words": ["Ann", "Lee"], "labels": ["B-PER"]}',
}
BROKEN = {
    "convert": {**WORDS, 6: b'{"words": ["Ann"], "labels": ["I-PER"]}'},
    "evaluate": {**WORDS, 6: b'{"text": "Ann Lee"}'},
    "set-up": WORDS,
    "doccano set-up": {
        1: b'{"text": "Ann\xff", "label": []}',
        2: b'{"text": "Ann", "label": []',
        3: b'{"text": "Ann", "label": 5}',
        5: b'{"text": "Ann", "label": [[0, 9, "PER"]]}',
    },
}
LEAST = {"convert": "_CONVERT_MIN_RANGE_BYTES", "evaluate": "_EVALUATE_MIN_RANGE_BYTES",
         "set-up": "_SET_UP_MIN_RANGE_BYTES", "doccano set-up": "_SET_UP_MIN_RANGE_BYTES"}


def pad_line(size, command):
    """A good line of ``size`` bytes, newline included."""
    if command == "doccano set-up":
        return b'{"text": "' + b"p" * (size - 26) + b'", "label": []}\n'
    return b'{"words": ["' + b"p" * (size - 33) + b'"], "labels": ["O"]}\n'


@st.composite
def two_errors(draw):
    """(command, input bytes, processes, cut offsets). The
    input is one block of good lines per process, each padded to one width,
    so each block starts at a cut. The error of the later check sits in an
    earlier block than the error of the earlier one."""
    command = draw(st.sampled_from(sorted(BROKEN)))
    early, late = sorted(draw(st.lists(st.sampled_from(sorted(BROKEN[command])),
                                       min_size=2, max_size=2, unique=True)))
    processes = draw(st.sampled_from([2, 3]))
    first = draw(st.integers(0, processes - 2))
    second = draw(st.integers(first + 1, processes - 1))
    good = DOCCANO if command == "doccano set-up" else GOOD
    blocks = []
    for k in range(processes):
        lines = [good] * draw(st.integers(0, 3))
        if k in (first, second):
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, BROKEN[command][late if k == first else early])
        blocks.append(b"".join(line + b"\n" for line in lines))
    width = max(map(len, blocks)) + 40
    blocks = [block + pad_line(width - len(block), command) for block in blocks]
    cuts = [width * k for k in range(1, processes)]
    return command, b"".join(blocks), processes, cuts


def argv(command, tmp):
    """The arguments of ``command`` over ``tmp``/in.jsonl, output under ``tmp``/out."""
    out = tmp / "out"
    if command == "convert":
        return ["convert", "--from", "BIO", "--to", "BILOU", "--input", str(tmp / "in.jsonl"),
                "--output", str(out)]
    if command == "evaluate":
        dataset = tmp / "set"
        dataset.mkdir(exist_ok=True)
        shutil.copyfile(tmp / "in.jsonl", dataset / "test.jsonl")
        return ["evaluate", "--tagger", "all-o", "--dataset", str(dataset), "--output", str(out)]
    dialect = ["--dialect", "doccano"] if command == "doccano set-up" else []
    return ["--data-dir", str(out), "dataset", "set-up", "--source", "AT", "--name", "set",
            "--path", str(tmp / "in.jsonl"), *dialect]


def run(tmp, processes, arguments, patch):
    """(exit code, stdout, stderr, whether an output was written)."""
    shutil.rmtree(tmp / "out", ignore_errors=True)
    patch.setattr(cli, "_cpu_count", lambda: processes)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(arguments)
    return code, out.getvalue(), err.getvalue(), (tmp / "out").exists()


@settings(max_examples=80, deadline=None)
@given(case=two_errors(), verbose=st.booleans())
def test_the_error_of_the_earlier_check_wins_across_ranges(case, verbose):
    command, data, processes, cuts = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        tmp = Path(tmp)
        (tmp / "in.jsonl").write_bytes(data)
        patch.setattr(ranges, LEAST[command], 1)
        with open(tmp / "in.jsonl", "rb") as src:
            assert [start for start, _ in ranges._ranges(src, processes, 1)][1:] == cuts
        arguments = [*(["--verbose"] if verbose else []), *argv(command, tmp)]
        one = run(tmp, 1, arguments, patch)
        assert one[0] == 1 and not one[3]
        assert run(tmp, processes, arguments, patch) == one


def test_a_bad_label_in_a_later_range_wins_over_a_bad_record_in_an_earlier_one(
    tmp_path, monkeypatch
):
    """The example, made concrete: a record with fewer labels than words in
    range 1 and a label that does not parse in range 2. One process parses
    every label before it checks a record, and so does the split command."""
    blocks = [GOOD + b"\n" + WORDS[5] + b"\n", GOOD + b"\n" + WORDS[4] + b"\n"]
    width = max(map(len, blocks)) + 40
    (tmp_path / "in.jsonl").write_bytes(
        b"".join(block + pad_line(width - len(block), "convert") for block in blocks))
    monkeypatch.setattr(ranges, "_CONVERT_MIN_RANGE_BYTES", 1)
    arguments = argv("convert", tmp_path)
    one = run(tmp_path, 1, arguments, monkeypatch)
    assert one == (1, "", "error: line 5: label 'Z-PER': unknown label prefix 'Z'\n", False)
    assert run(tmp_path, 2, arguments, monkeypatch) == one


@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("bad", [False, True])
def test_a_tagger_that_does_not_load_fails_after_the_data(tmp_path, monkeypatch, bad, processes):
    """`evaluate` loads its tagger before it splits, but an error of the
    data still comes first: a tagger that does not load is reported only
    where every record reads."""
    blocks = [GOOD + b"\n" * 2, GOOD + b"\n" + (WORDS[5] if bad else GOOD) + b"\n"]
    width = max(map(len, blocks)) + 40
    (tmp_path / "in.jsonl").write_bytes(
        b"".join(block + pad_line(width - len(block), "evaluate") for block in blocks))
    monkeypatch.setattr(ranges, "_EVALUATE_MIN_RANGE_BYTES", 1)
    arguments = argv("evaluate", tmp_path)
    arguments[arguments.index("all-o")] = "nope"
    error = ("line 5: 1 labels for 2 words" if bad else
             "cannot load tagger 'nope': unknown tagger URI")
    assert run(tmp_path, processes, arguments, monkeypatch) == (1, "", f"error: {error}\n", False)

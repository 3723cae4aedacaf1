"""The one split entry point, `ranges._split`, that `convert`, `evaluate`
and `dataset set-up` share: a range of blank lines reads as no records in
every command, a file that is not regular is never opened for a split,
and the program forks in one place only."""

import ast
import contextlib
import io
import json
import os
import signal
from pathlib import Path

import pytest

from seqlab import cli, ingest, ranges


def run(argv):
    """(exit code, stdout, stderr) of one seqlab command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def good_input(count=40):
    """A BIO input of ``count`` records, one per line."""
    return b"".join(
        json.dumps({"words": ["Ann", "Lee", "went", str(i)],
                    "labels": ["B-PER", "I-PER", "O", "B-LOC"]}).encode() + b"\n"
        for i in range(count)
    )


def convert(tmp, processes, monkeypatch):
    """(exit code, stdout, stderr, output bytes or None) of one `convert`
    of ``tmp``/in.jsonl run with ``processes`` CPUs."""
    sink = tmp / "out.jsonl"
    sink.unlink(missing_ok=True)
    monkeypatch.setattr(cli, "_cpu_count", lambda: processes)
    result = run(["convert", "--from", "BIO", "--to", "BILOU",
                  "--input", str(tmp / "in.jsonl"), "--output", str(sink)])
    return (*result, sink.read_bytes() if sink.exists() else None)


@pytest.mark.forks
def test_a_range_of_blank_lines_converts_on_the_split_path(tmp_path, monkeypatch):
    """A range that holds only blank lines converts to no lines, as it
    reads in `evaluate` and `dataset set-up`: the input stays on the split
    path, and the one-process run, which decodes the whole input, never
    starts."""
    data = good_input() + b"\n" * 20_000
    (tmp_path / "in.jsonl").write_bytes(data)
    monkeypatch.setattr(cli, "_CONVERT_MIN_RANGE_BYTES", 64)
    with open(tmp_path / "in.jsonl", "rb") as src:
        cuts = ranges._ranges(src, 2, cli._CONVERT_MIN_RANGE_BYTES)
    assert len(cuts) == 2 and cuts[1][0] > len(good_input())  # the second range is blank
    expected = convert(tmp_path, 1, monkeypatch)
    assert expected[:3] == (0, "converted 40 documents BIO -> BILOU\n", "")

    def whole(data, path):
        raise AssertionError("the whole input was converted in one process")

    monkeypatch.setattr(ingest, "_decoded", whole)
    for processes in (2, 3):
        assert convert(tmp_path, processes, monkeypatch) == expected


@pytest.mark.forks
def test_an_input_of_blank_lines_fails_as_in_one_process(tmp_path, monkeypatch):
    """Ranges that all read no records send the input back to one process,
    which reports it empty."""
    (tmp_path / "in.jsonl").write_bytes(b"\n" * 20_000)
    monkeypatch.setattr(cli, "_CONVERT_MIN_RANGE_BYTES", 64)
    expected = convert(tmp_path, 1, monkeypatch)
    assert expected == (1, "", "error: no records in JSONL input\n", None)
    assert convert(tmp_path, 2, monkeypatch) == expected


@pytest.fixture
def deadline():
    """A command that blocks, on a FIFO with no writer say, fails the test
    within 10 s rather than hanging it. The error is no OSError, which
    `main` would report as a command's error."""

    def expired(signum, frame):
        raise AssertionError("the command blocked")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("processes", [1, 2])
def test_an_evaluate_of_a_fifo_never_opens_it(tmp_path, monkeypatch, deadline, processes):
    dataset = tmp_path / "set"
    dataset.mkdir()
    os.mkfifo(dataset / "test.jsonl")
    monkeypatch.setattr(cli, "_cpu_count", lambda: processes)
    monkeypatch.setattr(cli, "_EVALUATE_MIN_RANGE_BYTES", 1)
    code, out, err = run(["evaluate", "--tagger", "all-o", "--dataset", str(dataset)])
    assert (code, out) == (1, "")
    assert err == f"error: missing split file: {dataset / 'test.jsonl'}\n"


@pytest.mark.parametrize("processes", [1, 2])
def test_a_set_up_of_a_fifo_never_opens_it(tmp_path, monkeypatch, deadline, processes):
    path = tmp_path / "x.jsonl"
    os.mkfifo(path)
    monkeypatch.setattr(cli, "_cpu_count", lambda: processes)
    monkeypatch.setattr(cli, "_SET_UP_MIN_RANGE_BYTES", 1)
    code, out, err = run(["--data-dir", str(tmp_path / "data"), "dataset", "set-up",
                          "--source", "HF", "--name", "x", "--path", str(path)])
    assert (code, out) == (1, "")
    assert err == f"error: not a readable file: {path}\n"
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("dialect", ["labelstudio", "conll"])
def test_a_jsonl_set_up_splits_only_without_a_dialect_or_as_doccano(tmp_path, dialect):
    """`_set_up_work` reads the dialect "doccano" as Doccano lines and no
    other dialect at all: it gives no range work, so the input stays in
    one process, whatever the caller asks."""
    path = tmp_path / "x.jsonl"
    path.write_bytes(good_input())
    assert cli._set_up_work(str(path), dialect) is None
    assert cli._set_up_work(str(path), "doccano").keywords == {"doccano": True}
    assert cli._set_up_work(str(path), None).keywords == {"doccano": False}


#: the syntax tree of each module of `seqlab`, by name
TREES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(Path(cli.__file__).parent.glob("*.py"))
}


def calls(name):
    """{module: number of calls} of ``name``, a function or a dotted
    attribute such as "os.fork", in the modules of `seqlab`."""
    found = {}
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == name:
                found[module] = found.get(module, 0) + 1
    return found


def imported(module, source):
    """The names that `seqlab.<module>` imports from ``source``."""
    return {
        alias.name
        for node in ast.walk(TREES[module])
        if isinstance(node, ast.ImportFrom) and node.module == source
        for alias in node.names
    }


def test_the_program_forks_in_one_place():
    """`os.fork` has one call site, in `ranges`; only `ranges` and
    `inference` run ranges, and `cli` splits through `_split` alone."""
    assert calls("os.fork") == {"ranges": 1}
    assert calls("fork") == {} and not any("fork" in imported(m, "os") for m in TREES)
    assert set(calls("_run_ranges")) <= {"ranges", "inference"}
    assert imported("cli", "ranges") == {"_cpu_count", "_split"}

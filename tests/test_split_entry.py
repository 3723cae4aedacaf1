"""The one split entry point, `ranges._split`, that `convert`, `evaluate`
and `dataset set-up` share: a range of blank lines reads as no records in
every command, a file that is not regular is never opened for a split, a
range names an undecodable byte by its place in the whole file, every
file command runs through one `_split` call, and the program forks, and
catches the failure of a part, in one place only."""

import ast
import contextlib
import io
import json
import os
import signal
from pathlib import Path

import pytest

from seqlab import cli, ingest, ranges
from seqlab.errors import UndecodableInput


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
    monkeypatch.setattr(ranges, "_CONVERT_MIN_RANGE_BYTES", 64)
    with open(tmp_path / "in.jsonl", "rb") as src:
        cuts = ranges._ranges(src, 2, ranges._CONVERT_MIN_RANGE_BYTES)
    assert len(cuts) == 2 and cuts[1][0] > len(good_input())  # the second range is blank
    expected = convert(tmp_path, 1, monkeypatch)
    assert expected[:3] == (0, "converted 40 documents BIO -> BILOU\n", "")

    def whole(*args):
        raise AssertionError("the whole input was converted in one process")

    monkeypatch.setattr(ranges, "_one_part", whole)
    for processes in (2, 3):
        assert convert(tmp_path, processes, monkeypatch) == expected


@pytest.mark.forks
def test_an_input_of_blank_lines_fails_as_in_one_process(tmp_path, monkeypatch):
    """Ranges that all read no records: their merge reports the input
    empty, as one process does."""
    (tmp_path / "in.jsonl").write_bytes(b"\n" * 20_000)
    monkeypatch.setattr(ranges, "_CONVERT_MIN_RANGE_BYTES", 64)
    expected = convert(tmp_path, 1, monkeypatch)
    assert expected == (1, "", "error: no records in JSONL input\n", None)
    assert convert(tmp_path, 2, monkeypatch) == expected


@pytest.mark.forks
@pytest.mark.parametrize("dialect", [[], ["--dialect", "doccano"]], ids=["none", "doccano"])
def test_a_set_up_of_blank_lines_fails_as_in_one_process(tmp_path, monkeypatch, dialect):
    """A JSONL input of blank lines, read in one part (no first record to
    read its kind off) or in ranges (Doccano lines), is reported empty, and
    nothing is written."""
    (tmp_path / "in.jsonl").write_bytes(b" \n" * 300 + b"\n" * 300)
    monkeypatch.setattr(ranges, "_SET_UP_MIN_RANGE_BYTES", 64)
    for processes in (1, 2):
        monkeypatch.setattr(cli, "_cpu_count", lambda: processes)
        assert run(["--data-dir", str(tmp_path / "data"), "dataset", "set-up", "--source", "HF",
                    "--name", "x", "--path", str(tmp_path / "in.jsonl"), *dialect]) == (
            1, "", "error: no records in JSONL input\n")
        assert not (tmp_path / "data").exists()


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
    monkeypatch.setattr(ranges, "_EVALUATE_MIN_RANGE_BYTES", 1)
    code, out, err = run(["evaluate", "--tagger", "all-o", "--dataset", str(dataset)])
    assert (code, out) == (1, "")
    assert err == f"error: missing split file: {dataset / 'test.jsonl'}\n"


@pytest.mark.parametrize("processes", [1, 2])
def test_a_set_up_of_a_fifo_never_opens_it(tmp_path, monkeypatch, deadline, processes):
    path = tmp_path / "x.jsonl"
    os.mkfifo(path)
    monkeypatch.setattr(cli, "_cpu_count", lambda: processes)
    monkeypatch.setattr(ranges, "_SET_UP_MIN_RANGE_BYTES", 1)
    code, out, err = run(["--data-dir", str(tmp_path / "data"), "dataset", "set-up",
                          "--source", "HF", "--name", "x", "--path", str(path)])
    assert (code, out) == (1, "")
    assert err == f"error: not a readable file: {path}\n"
    assert not (tmp_path / "data").exists()


def labelstudio(count):
    task = {"data": {"text": "Ann went"}, "annotations": [{"result": [
        {"type": "labels", "value": {"start": 0, "end": 3, "labels": ["PER"]}}]}]}
    return json.dumps([task] * count).encode()


def doccano(count):
    return b"".join(json.dumps({"text": "Ann went", "label": [[0, 3, "PER"]], "id": i}).encode()
                    + b"\n" for i in range(count))


#: (dialect options, a .jsonl file's bytes, whether its set-up on 2 CPUs
#: forks): the dialect "doccano" and none split the file into ranges; any
#: other dialect reads it whole, in one part
JSONL_DIALECTS = {
    "labelstudio": (["--dialect", "labelstudio"], labelstudio(20), False),
    "doccano": (["--dialect", "doccano"], doccano(20), True),
    "none": ([], good_input(), True),
}


@pytest.mark.forks
@pytest.mark.parametrize("options, data, forks", JSONL_DIALECTS.values(), ids=JSONL_DIALECTS)
def test_a_jsonl_set_up_splits_only_without_a_dialect_or_as_doccano(
    tmp_path, monkeypatch, options, data, forks
):
    path = tmp_path / "x.jsonl"
    path.write_bytes(data)
    monkeypatch.setattr(ranges, "_SET_UP_MIN_RANGE_BYTES", 64)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    forked = []
    fork = os.fork

    def counted():
        forked.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    code, out, err = run(["--data-dir", str(tmp_path / "data"), "dataset", "set-up",
                          "--source", "AT", "--name", "x", "--path", str(path), *options])
    assert (code, err) == (0, "")
    assert forked == [1] * forks


def test_a_range_names_an_undecodable_byte_by_its_place_in_the_whole_file(tmp_path):
    """A byte range that starts mid-file reports a byte that is not UTF-8
    as reading the whole file does: by its offset and line in the file."""
    good = b'{"words": ["Ann"], "labels": ["O"]}\n'
    path = tmp_path / "x.jsonl"
    path.write_bytes(good * 3 + b'{"words": ["Ann\xff"], "labels": ["O"]}\n' + good)
    with pytest.raises(UndecodableInput) as whole:
        ingest.read_text(path)
    with open(path, "rb") as src:
        src.seek(2 * len(good))
        with pytest.raises(UndecodableInput) as part:
            ingest._range_records(src, 2 * len(good), 3, path)
    expected = f"line 4: byte {3 * len(good) + 15} of {path} is not UTF-8 (invalid start byte)"
    assert str(part.value) == str(whole.value) == expected
    assert part.value.line == whole.value.line == 4


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


def handlers(name):
    """{module: number of ``except`` clauses that catch ``name``, alone or
    in a tuple} in the modules of `seqlab`."""
    found = {}
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(ast.unparse(c) == name for c in caught):
                    found[module] = found.get(module, 0) + 1
    return found


def test_the_program_forks_in_one_place():
    """`os.fork` has one call site, in `ranges`; only `ranges` and
    `inference` run ranges; `cli` runs no range work and takes only the CPU
    count from `ranges`, and `_split` is called from the modules that own
    the works it runs: `ingest` (`convert` and `dataset set-up`) and
    `evaluation`."""
    assert calls("os.fork") == {"ranges": 1}
    assert calls("fork") == {} and not any("fork" in imported(m, "os") for m in TREES)
    assert set(calls("_run_ranges")) <= {"ranges", "inference"}
    assert imported("cli", "ranges") == {"_cpu_count"}
    assert calls("ranges._split") == {"ingest": 2, "evaluation": 1}
    assert calls("_split") == {} and not any("_split" in imported(m, "ranges") for m in TREES)


def test_a_failing_part_is_caught_in_one_place():
    """`except Exception` is `ranges`' one failure rule, and otherwise only
    contains a tagger in `inference`; `cli` catches no Exception."""
    assert set(handlers("Exception")) == {"ranges", "inference"}
    assert handlers("Exception")["ranges"] == 1


#: the arguments, under ``tmp``, of file commands that succeed: `convert`,
#: `evaluate`, and `dataset set-up` of a JSONL file, a pre-split dataset, a
#: bundled corpus, a CoNLL file and a LabelStudio export
def file_commands(tmp):
    (tmp / "in.jsonl").write_bytes(good_input())
    (tmp / "set").mkdir()
    (tmp / "set" / "test.jsonl").write_bytes(good_input())
    conll = "".join(f"Ann B-PER\nwent O\n{i} B-LOC\n\n" for i in range(30))
    for split in ("train", "val", "test"):
        (tmp / f"{split}.conll").write_text(conll, encoding="utf-8")
    (tmp / "export.json").write_bytes(labelstudio(20))
    set_up = ["--data-dir", str(tmp / "data"), "dataset", "set-up", "--name", "x"]
    return {
        "convert": ["convert", "--from", "BIO", "--to", "BILOU", "--input", str(tmp / "in.jsonl"),
                    "--output", str(tmp / "out.jsonl")],
        "evaluate": ["evaluate", "--tagger", "all-o", "--dataset", str(tmp / "set")],
        "jsonl set-up": [*set_up, "--source", "HF", "--path", str(tmp / "in.jsonl")],
        "pre-split set-up": [*set_up, "--source", "LF", *(
            option for split in ("train", "val", "test")
            for option in (f"--{split}-path", str(tmp / f"{split}.conll")))],
        "built-in set-up": [*set_up, "--source", "BI", "--name", "mini-conll"],
        "conll set-up": [*set_up, "--source", "LF", "--path", str(tmp / "train.conll")],
        "labelstudio set-up": [*set_up, "--source", "AT", "--path", str(tmp / "export.json")],
    }


@pytest.fixture
def split_calls(monkeypatch):
    """The list that each `ranges._split` call from now on adds a 1 to, with
    every command's least range made 64 bytes."""
    for least in ("_CONVERT_MIN_RANGE_BYTES", "_EVALUATE_MIN_RANGE_BYTES",
                  "_SET_UP_MIN_RANGE_BYTES"):
        monkeypatch.setattr(ranges, least, 64)
    found = []
    split = ranges._split

    def counted(*args, **kwargs):
        found.append(1)
        return split(*args, **kwargs)

    monkeypatch.setattr(ranges, "_split", counted)
    return found


@pytest.mark.forks
@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("command", [
    "convert", "evaluate", "jsonl set-up", "pre-split set-up", "built-in set-up", "conll set-up",
    "labelstudio set-up"])
def test_a_file_command_splits_through_one_call(
    tmp_path, monkeypatch, split_calls, command, processes
):
    monkeypatch.setattr(cli, "_cpu_count", lambda: processes)
    code, out, err = run(file_commands(tmp_path)[command])
    assert (code, err) == (0, "")
    assert split_calls == [1]


def test_the_library_set_up_splits_through_one_call(tmp_path, split_calls):
    """`set_up` takes the path of `dataset set-up`, in one process, and
    returns the documents of the files it wrote: those of its input."""
    for split in ("train", "val", "test"):
        (tmp_path / f"{split}.jsonl").write_bytes(good_input())
    splits, analysis = ingest.set_up(
        "HF", name="x", data_dir=tmp_path / "data", **{
            f"{split}_path": tmp_path / f"{split}.jsonl" for split in ("train", "val", "test")})
    assert split_calls == [1]
    assert [len(split) for split in splits] == [40, 40, 40]
    assert splits[2].documents == tuple(ingest.read_canonical_jsonl(good_input().decode()))
    assert analysis == ingest.load_analysis(tmp_path / "data" / "x")

"""The CLI's error contract, as a property over mutated input files.

For every command that reads a file, hypothesis inserts, replaces and
deletes bytes of one valid input, or puts a JSON value or a label in
place of one of its values, and runs `seqlab.cli.main` in process.
Whatever the bytes, the command exits 0, 1 or 2. On 1, stderr holds
exactly one line besides `warning:` lines, and it starts with
`error: `. On 2, stderr holds only usage or `bad ...` lines. No
traceback is printed without `--verbose`, and a failing command leaves
no output file behind.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqlab.cli import main

CONLL = b"-DOCSTART- O\n\nEU B-ORG\nrejects O\nGerman B-MISC\n\nPeter B-PER\nBlackburn I-PER\n"
PRETOKENIZED = (
    b'{"words": ["EU", "rejects", "German"], "labels": ["U-ORG", "O", "U-MISC"]}\n'
    b'{"words": ["Peter", "Blackburn"], "labels": ["B-PER", "L-PER"], "text": "Peter  Blackburn"}\n'
)
DOCCANO = (
    b'{"text": "I love Paris.", "label": [[7, 12, "LOC"]]}\n'
    b'{"text": "Ada met  Grace", "label": [[0, 3, "PER"], [8, 14, "PER"]]}\n'
)
LABELSTUDIO = json.dumps([
    {"data": {"text": "Ada met Grace in Geneva"},
     "annotations": [{"result": [
         {"type": "labels", "value": {"start": 0, "end": 3, "labels": ["PER"]}},
         {"type": "labels", "value": {"start": 17, "end": 23, "labels": ["LOC"]}}]}]},
]).encode()
CANONICAL = (
    b'{"text": "Ada Lovelace met Grace", "words": [{"surface": "Ada", "start": 0, "end": 3}, '
    b'{"surface": "Lovelace", "start": 4, "end": 12}, {"surface": "met", "start": 13, "end": 16}, '
    b'{"surface": "Grace", "start": 17, "end": 22}], "labels": ["B-PER", "I-PER", "O", "B-PER"], '
    b'"entities": null}\n'
    b'{"words": ["EU", "rejects"], "labels": ["B-ORG", "O"]}\n'
)
ANALYSIS = b'{"scheme_detected": "BIO"}\n'
LEXICON = b'{"Ada": "PER", "Lovelace": "PER", "EU": "ORG", "Paris": "LOC"}'
PREDICT_INPUT = b'{"text": "Ada Lovelace met Grace"}\n{"text": "EU rejects it"}\n'
RUN = b'{"run_name": "%s", "seed": %d, "reports": {"strict": {"micro": {"entity": {"f1": 0.%d}}}}}'
SCHEDULE = b'{"max_lr": 0.1, "max_epochs": 4, "val_losses": [1.0, 0.5, 0.7, 0.4]}'
LOSSES = b"[1.0, 0.9, 0.95]"


def set_up(source, name, extra=()):
    return lambda tmp: (["--data-dir", str(tmp / "data"), "dataset", "set-up", "--source",
                         source, "--name", "ds", "--path", str(tmp / name), *extra],
                        [tmp / "data" / "ds"])


def evaluate(tmp):
    return (["evaluate", "--tagger", f"lexicon:{tmp / 'lexicon.json'}", "--dataset",
             str(tmp / "ds"), "--output", str(tmp / "report.json")], [tmp / "report.json"])


def predict(*extra):
    return lambda tmp: (["predict", "--tagger", f"lexicon:{tmp / 'lexicon.json'}", "--input",
                         str(tmp / "in.jsonl"), "--output", str(tmp / "out.jsonl"), *extra],
                        [tmp / "out.jsonl"])


#: command -> ({input file: valid bytes}, argv and output paths under a directory)
COMMANDS = {
    "set-up LF": ({"corpus.conll": CONLL}, set_up("LF", "corpus.conll")),
    "set-up HF": ({"corpus.jsonl": PRETOKENIZED}, set_up("HF", "corpus.jsonl")),
    "set-up AT doccano": ({"export.jsonl": DOCCANO},
                          set_up("AT", "export.jsonl", ["--dialect", "doccano"])),
    "set-up AT labelstudio": ({"export.json": LABELSTUDIO}, set_up("AT", "export.json")),
    "convert": ({"in.jsonl": CANONICAL},
                lambda tmp: (["convert", "--from", "BIO", "--to", "BILOU", "--input",
                              str(tmp / "in.jsonl"), "--output", str(tmp / "out.jsonl")],
                             [tmp / "out.jsonl"])),
    "evaluate": ({"ds/test.jsonl": CANONICAL, "ds/analysis.json": ANALYSIS,
                  "lexicon.json": LEXICON}, evaluate),
    "predict": ({"in.jsonl": PREDICT_INPUT, "lexicon.json": LEXICON}, predict()),
    "predict word": ({"in.jsonl": PREDICT_INPUT, "lexicon.json": LEXICON},
                     predict("--level", "word", "--probabilities")),
    "aggregate": ({"runs/a.json": RUN % (b"a", 0, 5), "runs/b.json": RUN % (b"b", 1, 7)},
                  lambda tmp: (["aggregate", "--runs-dir", str(tmp / "runs")],
                               [tmp / "runs" / "aggregate.json"])),
    "schedule simulate": ({"schedule.json": SCHEDULE, "losses.json": LOSSES},
                          lambda tmp: (["schedule", "simulate", "--config",
                                        str(tmp / "schedule.json"), "--losses",
                                        str(tmp / "losses.json"), "--output",
                                        str(tmp / "lr.csv")], [tmp / "lr.csv"])),
}

#: bytes that JSON, the column format and the label grammar give meaning to
MEANINGFUL = b'{}[]",:.-0123456789 \t\neE\\OBILU' + b"\xff\xc3\x80"
#: values a mutation may put in place of a JSON string, a number or a word
TOKENS = [b'"I-PER"', b'"B-"', b'"O"', b'"X"', b'""', b"null", b"true", b"[]", b"{}", b"-1",
          b"3.5", b"1e999", b"NaN", b'"\\n"', b'"\\u2028"', b'"\\ud800"', b'"\\ud83d\\ude00"',
          b"\n\n", b"I-PER", b"O"]
#: a JSON string, or a run of bytes that holds no JSON punctuation or space
VALUE = re.compile(rb'"[^"\n]*"|[^\s"{}\[\],:]+')


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """1 to 4 edits of one kind: bytes inserted, replaced or deleted, or
    values replaced by tokens, which leaves more inputs valid JSON."""
    raw = bytearray(data)
    by_value = draw(st.booleans())
    for _ in range(draw(st.integers(1, 4))):
        values = [match.span() for match in VALUE.finditer(raw)]
        if by_value and values:
            start, end = draw(st.sampled_from(values))
            raw[start:end] = draw(st.sampled_from(TOKENS))
            continue
        position = draw(st.integers(0, len(raw)))
        byte = draw(st.sampled_from(MEANINGFUL) | st.integers(0, 255))
        action = draw(st.sampled_from(["insert", "replace", "delete"]))
        if action == "insert" or position == len(raw):
            raw.insert(position, byte)
        elif action == "replace":
            raw[position] = byte
        else:
            del raw[position]
    return bytes(raw)


@st.composite
def runs(draw, command):
    """The files of one run of ``command``, one of them mutated."""
    files, _ = COMMANDS[command]
    files = dict(files)
    target = draw(st.sampled_from(sorted(files)))
    files[target] = draw(mutations(files[target]))
    return files


def quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_input_keeps_the_error_contract(command, data):
    files = data.draw(runs(command))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, content in files.items():
            (tmp / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp / name).write_bytes(content)
        argv, outputs = COMMANDS[command][1](tmp)
        code, err = quiet_main(argv)
        lines = err.splitlines()
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        if code == 1:
            errors = [line for line in lines if not line.startswith("warning: ")]
            assert len(errors) == 1 and errors[0].startswith("error: "), err
        elif code == 2:
            assert all(line.startswith(("usage:", "bad ")) for line in lines), err
        if code:
            assert not any(path.exists() for path in outputs), err


#: numbers that float() reads, at the edges of the contract
NUMBERS = ["nan", "inf", "-inf", "-0", "0", "1", "1e309", "-1e309", "0.5", "-0.5", "0.8", "0.1",
           "1.0000000001", "2"]
#: one path segment: empty, dot, dot-dot, ASCII, non-ASCII, a space
SEGMENTS = st.sampled_from(["", ".", "..", "ds", "données", "中", " ", "a b"])
NAMES = st.one_of(
    SEGMENTS,
    # a relative path of two to four segments, which climbs at most four levels
    st.lists(SEGMENTS, min_size=2, max_size=4).map("/".join).filter(lambda n: n[:1] != "/"),
)


@settings(max_examples=150, deadline=None)
@given(
    # a valid ratio and name half the time, so that --fraction is reached
    ratio=st.just("0.8,0.1,0.1")
    | st.lists(st.sampled_from([*NUMBERS, "x", ""]), min_size=1, max_size=4).map(",".join),
    name=st.just("ds") | NAMES,
    fraction=st.sampled_from([None, *NUMBERS]),
)
def test_set_up_arguments_keep_the_error_contract(ratio, name, fraction):
    """Whatever the --split-ratio, --name and --fraction, `dataset set-up`
    of a valid two-sentence CoNLL file exits 0, 1 or 2; a failure prints
    one stderr line and no traceback, and no file lands outside --data-dir.
    A --fraction that is not a finite number in (0, 1] exits 2."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "corpus.conll").write_bytes(CONLL)
        data_dir = tmp / "a" / "b" / "c" / "d" / "data"  # deeper than a name can climb
        data_dir.mkdir(parents=True)
        before = set(tmp.rglob("*"))
        options = [] if fraction is None else [f"--fraction={fraction}"]
        code, err = quiet_main(["--data-dir", str(data_dir), "dataset", "set-up", "--source",
                                "LF", "--name", name, "--path", str(tmp / "corpus.conll"),
                                f"--split-ratio={ratio}", *options])
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        if code:
            assert len(err.splitlines()) == 1, err
        if fraction is not None and not 0 < float(fraction) <= 1:
            assert code == 2, err  # a usage error, found before any file is read
        written = set(tmp.rglob("*")) - before
        assert all(data_dir in path.parents for path in written), sorted(written)


def assert_usage_contract(code, err, command, usage=(), warning=None):
    """Exit 0; or 2 with one usage line (after argparse's synopsis), which
    argparse or the command (one of ``usage``) prints; or 1 with one
    `error:` line. No traceback, and stderr holds nothing else but the
    command's one ``warning`` line."""
    lines = [line for line in err.splitlines() if line != warning]
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    elif code == 2:
        # argparse's synopsis is a "usage:" line and its indented continuations
        message = [line for line in lines if not line.startswith(("usage:", " "))]
        assert len(message) == 1 and message[0] == lines[-1], err
        assert message[0].startswith((f"seqlab {command}: error: ", *usage)), err
    else:
        assert lines == [], err


#: usage errors that `cmd_predict` reports itself, one line each
PREDICT_USAGE = ("predict needs exactly one of --text or --input", "file mode needs --output",
                 "text mode takes no --output")


def predict_tagger(tmp, kind):
    return {
        "lexicon": f"lexicon:{tmp / 'lexicon.json'}",
        "echo": f"echo:{tmp / 'echo.jsonl'}",
        "all-o": "all-o",
        "unknown kind": f"model:{tmp / 'lexicon.json'}",
        "no colon": "lexicon",
        "missing file": f"lexicon:{tmp / 'missing.json'}",
        "non-JSON lexicon": f"lexicon:{tmp / 'bad.json'}",
        "non-JSON echo": f"echo:{tmp / 'bad.json'}",
    }.get(kind)


@settings(max_examples=150, deadline=None)
@given(
    tagger=st.sampled_from([None, "lexicon", "echo", "all-o", "unknown kind", "no colon",
                            "missing file", "non-JSON lexicon", "non-JSON echo"]),
    level=st.sampled_from([None, "entity", "word", "", "Entity", "char"]),
    text=st.sampled_from([None, "Ada met Grace", "", "   "]),
    source=st.sampled_from([None, "in.jsonl", "missing.jsonl", "."]),
    sink=st.sampled_from([None, "out.jsonl", "input", "."]),
    probabilities=st.booleans(),
)
def test_predict_arguments_keep_the_error_contract(tagger, level, text, source, sink,
                                                   probabilities):
    """Whatever the --tagger, --level, --text, --input and --output, `predict`
    exits 0; or 2 with one usage line (after argparse's synopsis); or 1 with
    one `error:` line. It never prints a traceback, and a failing command
    writes no output file."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.jsonl").write_bytes(PREDICT_INPUT + b"not json\n")
        (tmp / "lexicon.json").write_bytes(LEXICON)
        (tmp / "echo.jsonl").write_bytes(CANONICAL)
        (tmp / "bad.json").write_bytes(b"{not json")
        argv = ["predict"]
        if tagger is not None:
            argv += ["--tagger", predict_tagger(tmp, tagger)]
        if level is not None:
            argv.append(f"--level={level}")
        if text is not None:
            argv.append(f"--text={text}")
        if source is not None:
            argv += ["--input", str(tmp / source)]
        output = None
        if sink is not None:
            output = tmp / (source or "in.jsonl") if sink == "input" else tmp / sink
            argv += ["--output", str(output)]
        if probabilities:
            argv.append("--probabilities")
        before = (tmp / "in.jsonl").read_bytes()
        code, err = quiet_main(argv)
        assert_usage_contract(code, err, "predict", PREDICT_USAGE)
        assert (tmp / "in.jsonl").read_bytes() == before
        if code and output is not None and output.name == "out.jsonl":
            assert not output.exists(), err


SCHEMES = st.sampled_from([None, "IO", "BIO", "BILOU", "bio", "X", ""])
#: the one line `convert` prints to stderr on success too
IO_WARNING = "warning: IO output merges adjacent same-class chunks (lossy)"


# each argument is one that converts the input half the time, so that
# some runs succeed
@settings(max_examples=150, deadline=None)
@given(
    source=st.just("BIO") | SCHEMES,
    target=st.just("BILOU") | SCHEMES,
    given_input=st.just("in.jsonl")
    | st.sampled_from([None, "missing.jsonl", ".", "empty.jsonl", "latin1.jsonl"]),
    sink=st.just("out.jsonl") | st.sampled_from([None, ".", "input"]),
)
def test_convert_arguments_keep_the_error_contract(source, target, given_input, sink):
    """Whatever the --from, --to, --input and --output, `convert` keeps the
    contract of `assert_usage_contract`, and a failing run writes no file
    and leaves its input as it was."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.jsonl").write_bytes(CANONICAL)
        (tmp / "empty.jsonl").write_bytes(b"")
        (tmp / "latin1.jsonl").write_bytes(CANONICAL.replace(b"Ada", b"Ad\xe9"))
        argv = ["convert"]
        for option, value in [("--from", source), ("--to", target)]:
            if value is not None:
                argv.append(f"{option}={value}")
        if given_input is not None:
            argv += ["--input", str(tmp / given_input)]
        if sink is not None:
            argv += ["--output", str(tmp / (given_input or "in.jsonl") if sink == "input"
                                     else tmp / sink)]
        before = {path: path.read_bytes() for path in tmp.iterdir() if path.is_file()}
        code, err = quiet_main(argv)
        assert_usage_contract(code, err, "convert", warning=IO_WARNING)
        if code:
            assert {path: path.read_bytes() for path in tmp.iterdir() if path.is_file()} == before


@settings(max_examples=100, deadline=None)
@given(
    phase=st.sampled_from([None, "train", "val", "test", "dev", ""]),
    dataset=st.sampled_from([None, "directory", "name", "missing", "file"]),
    report=st.booleans(),
)
def test_evaluate_arguments_keep_the_error_contract(phase, dataset, report):
    """Whatever the --phase and --dataset (a directory, a name under
    --data-dir, a missing one, a file), `evaluate` keeps the contract of
    `assert_usage_contract`, and a failing run writes no report."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("ds", "data/ds"):
            (tmp / name).mkdir(parents=True)
            (tmp / name / "test.jsonl").write_bytes(CANONICAL)
            (tmp / name / "val.jsonl").write_bytes(b"")
            (tmp / name / "analysis.json").write_bytes(ANALYSIS)
        (tmp / "lexicon.json").write_bytes(LEXICON)
        argv = ["--data-dir", str(tmp / "data"), "evaluate", "--tagger",
                f"lexicon:{tmp / 'lexicon.json'}"]
        if phase is not None:
            argv.append(f"--phase={phase}")
        if dataset is not None:
            argv += ["--dataset", {"directory": str(tmp / "ds"), "name": "ds",
                                   "missing": str(tmp / "nothing"),
                                   "file": str(tmp / "lexicon.json")}[dataset]]
        if report:
            argv += ["--output", str(tmp / "report.json")]
        before = set(tmp.rglob("*"))
        code, err = quiet_main(argv)
        assert_usage_contract(code, err, "evaluate")
        if code:
            assert set(tmp.rglob("*")) == before, err


@settings(max_examples=60, deadline=None)
@given(metric=st.sampled_from([None, "strict.micro.entity.f1", "strict.micro.entity", "strict",
                               "seed", "missing.metric", "", ".", "strict.micro.entity.f1."]))
def test_aggregate_arguments_keep_the_error_contract(metric):
    """Whatever the --selection-metric, `aggregate` keeps the contract of
    `assert_usage_contract`, and a failing run writes no aggregate.json."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = Path(tmp) / "runs"
        runs.mkdir()
        (runs / "a.json").write_bytes(RUN % (b"a", 0, 5))
        (runs / "b.json").write_bytes(RUN % (b"b", 1, 7))
        argv = ["aggregate", "--runs-dir", str(runs)]
        if metric is not None:
            argv.append(f"--selection-metric={metric}")
        code, err = quiet_main(argv)
        assert_usage_contract(code, err, "aggregate")
        assert (runs / "aggregate.json").exists() == (code == 0), err

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

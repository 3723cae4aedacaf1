"""Run as the program, `seqlab.cli.main` freezes the start-up heap before
the command runs; called with ``argv``, it leaves the collector alone.

The freeze changes no output: a split `predict --input` and a split
`evaluate`, run as ``sys.exit(main())`` in an interpreter of their own
under ``-X dev -W error``, write the bytes, stdout and exit code of the
same commands run in process.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seqlab import cli, inference, ranges
from seqlab.cli import main

pytestmark = pytest.mark.forks

SRC = Path(__file__).parents[1] / "src"
LEXICON = {"Ann": "PER", "Lee": "PER", "Rome": "LOC", "Acme": "ORG"}
SENTENCES = [
    (["Ann", "Lee", "visited", "Rome"], ["B-PER", "I-PER", "O", "B-LOC"]),
    (["Acme", "hired", "Ann"], ["B-ORG", "O", "B-PER"]),
    (["Rome", "is", "big"], ["B-LOC", "O", "O"]),
    (["Lee", "left", "Acme", "Corp"], ["B-PER", "O", "B-ORG", "I-ORG"]),
]

#: the least range of every command that splits made tiny, and two CPUs,
#: so that a file of a few hundred bytes splits whatever the machine
SPLIT_EVERYTHING = (
    "from seqlab import cli, inference, ranges\n"
    "inference._MIN_RANGE_BYTES = 64\n"
    "ranges._EVALUATE_MIN_RANGE_BYTES = 64\n"
    "cli._cpu_count = lambda: 2\n"
)
#: counts the forks, and after `main` returns (at exit) writes to stderr
#: the freeze count and the number of forks
PROBE = (
    "import atexit, gc, os, sys\n"
    "forks = []\n"
    "fork = os.fork\n"
    "def counted():\n"
    "    forks.append(1)\n"
    "    return fork()\n"
    "os.fork = counted\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, 'forks', len(forks),"
    " file=sys.stderr))\n"
    + SPLIT_EVERYTHING
    + "from seqlab.cli import main\n"
    "sys.exit(main())\n"
)


@pytest.fixture
def split_everything(monkeypatch):
    monkeypatch.setattr(inference, "_MIN_RANGE_BYTES", 64)
    monkeypatch.setattr(ranges, "_EVALUATE_MIN_RANGE_BYTES", 64)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def write_inputs(tmp_path):
    """The arguments, but for the output path, of a `predict --input` and
    an `evaluate` of a few hundred bytes each."""
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text(json.dumps(LEXICON), encoding="utf-8")
    texts = tmp_path / "texts.jsonl"
    texts.write_text(
        "".join(json.dumps({"text": " ".join(words)}) + "\n" for words, _ in SENTENCES * 2),
        encoding="utf-8",
    )
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    (dataset / "test.jsonl").write_text(
        "".join(json.dumps({"words": w, "labels": l}) + "\n" for w, l in SENTENCES * 2),
        encoding="utf-8",
    )
    tagger = f"lexicon:{lexicon}"
    return {
        "predict": ["predict", "--tagger", tagger, "--input", str(texts), "--level", "word",
                    "--probabilities", "--output"],
        "evaluate": ["evaluate", "--tagger", tagger, "--dataset", str(dataset), "--output"],
    }


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("enabled", [True, False])
def test_a_call_with_argv_leaves_the_collector_as_it_was(
    tmp_path, split_everything, command, enabled
):
    argv = write_inputs(tmp_path)[command] + [str(tmp_path / "out")]
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert split_everything == [1]


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_run_as_the_program_a_split_command_freezes_and_writes_the_same_bytes(
    tmp_path, capsys, split_everything, command
):
    argv = write_inputs(tmp_path)[command]
    assert main([*argv, str(tmp_path / "in_process")]) == 0
    assert split_everything == [1]
    expected_out = capsys.readouterr().out
    program = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", PROBE, *argv,
         str(tmp_path / "program")],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
    )
    assert (program.returncode, program.stderr) == (0, b"frozen True forks 1\n")
    assert program.stdout == expected_out.encode("utf-8")
    assert (tmp_path / "program").read_bytes() == (tmp_path / "in_process").read_bytes()

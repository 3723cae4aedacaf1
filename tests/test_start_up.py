"""A command runs only the seqlab modules it uses.

The package registers `ingest`, `inference`, `evaluation`, `runs` and
`schedule` lazily: each is in `sys.modules` from the start, and runs at
the first read of one of its attributes, when its type becomes
`types.ModuleType`. Each test runs its command in a fresh interpreter
under ``-S``, where nothing but the command itself has loaded any of
them. The modules import one another in one direction only, which a
static read of their imports pins.
"""

import ast
import json
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
#: the modules the package registers lazily, each with a function it defines
LAZY_FUNCTIONS = {
    "evaluation": "evaluate_on_dataset",
    "inference": "predict",
    "ingest": "set_up",
    "runs": "load_runs",
    "schedule": "simulate",
}
LAZY = tuple(LAZY_FUNCTIONS)

#: runs the command in ``sys.argv`` and writes to stderr, after its own
#: output, the lazily registered modules that ran
PROBE = (
    "import sys, types\n"
    "from seqlab import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    f"ran = [n for n in {LAZY!r} if type(sys.modules['seqlab.' + n]) is types.ModuleType]\n"
    "print('ran', *ran, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def run_probe(code, *args):
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )


def ran(argv):
    """The lazily registered modules that the command ``argv`` ran; it must succeed."""
    result = run_probe(PROBE, *argv)
    assert result.returncode == 0, result.stderr
    return result.stderr.splitlines()[-1].split()[1:]


def test_importing_the_cli_runs_only_the_modules_every_file_command_uses():
    """... and so not `random`, which only set-up uses. (`math` stays out
    too on 3.11; from 3.12 `pathlib` loads it through `urllib.parse`.)"""
    probe = (
        "import sys, types, seqlab.cli\n"
        "print(*sorted(n for n, m in sys.modules.items()\n"
        "              if n.startswith('seqlab') and type(m) is types.ModuleType))\n"
        "print('random' in sys.modules)\n"
    )
    result = run_probe(probe)
    assert result.returncode == 0, result.stderr
    seqlab_modules, random = result.stdout.splitlines()
    assert seqlab_modules.split() == [
        "seqlab", "seqlab.cli", "seqlab.core", "seqlab.errors", "seqlab.ranges",
        "seqlab.records", "seqlab.schemes",
    ]
    assert random == "False"


SENTENCES = [
    (["Ann", "Lee", "visited", "Rome"], ["B-PER", "I-PER", "O", "B-LOC"]),
    (["Acme", "hired", "Ann"], ["B-ORG", "O", "B-PER"]),
]


def commands(tmp):
    """Each command, by name, with inputs under ``tmp`` that it runs to success."""
    lexicon = tmp / "lexicon.json"
    lexicon.write_text(json.dumps({"Ann": "PER", "Rome": "LOC"}), encoding="utf-8")
    canonical = "".join(json.dumps({"words": w, "labels": l}) + "\n" for w, l in SENTENCES)
    (tmp / "canonical.jsonl").write_text(canonical, encoding="utf-8")
    (tmp / "corpus.conll").write_text(
        "\n\n".join("\n".join(map(" ".join, zip(w, l))) for w, l in SENTENCES * 5) + "\n",
        encoding="utf-8",
    )
    dataset = tmp / "dataset"
    dataset.mkdir()
    (dataset / "test.jsonl").write_text(canonical, encoding="utf-8")
    (tmp / "texts.jsonl").write_text('{"text": "Ann visited Rome"}\n', encoding="utf-8")
    (tmp / "runs").mkdir()
    for seed in (1, 2):
        (tmp / "runs" / f"r{seed}.json").write_text(json.dumps(
            {"run_name": f"r{seed}", "seed": seed,
             "reports": {"strict": {"micro": {"entity": {"f1": seed / 4}}}}}))
    (tmp / "schedule.json").write_text(json.dumps({"max_lr": 0.1, "val_losses": [1.0, 0.5]}))
    tagger = f"lexicon:{lexicon}"
    return {
        "dataset set-up": ["--data-dir", str(tmp / "data"), "dataset", "set-up", "--source",
                           "LF", "--name", "set", "--path", str(tmp / "corpus.conll")],
        "convert": ["convert", "--from", "BIO", "--to", "BILOU", "--input",
                    str(tmp / "canonical.jsonl"), "--output", str(tmp / "bilou.jsonl")],
        "evaluate": ["evaluate", "--tagger", tagger, "--dataset", str(dataset)],
        "predict --text": ["predict", "--tagger", tagger, "--text", "Ann visited Rome"],
        "predict --input": ["predict", "--tagger", tagger, "--input", str(tmp / "texts.jsonl"),
                            "--output", str(tmp / "predicted.jsonl")],
        "aggregate": ["aggregate", "--runs-dir", str(tmp / "runs")],
        "schedule simulate": ["schedule", "simulate", "--config", str(tmp / "schedule.json")],
    }


@pytest.mark.parametrize("command, modules", [
    ("dataset set-up", ["ingest"]),
    ("convert", []),
    ("evaluate", ["evaluation", "inference"]),
    ("predict --text", ["inference"]),
    ("predict --input", ["inference"]),
    ("aggregate", ["runs"]),
    ("schedule simulate", ["schedule"]),
])
def test_a_command_runs_only_the_lazy_modules_it_uses(tmp_path, command, modules):
    assert ran(commands(tmp_path)[command]) == modules


def test_a_star_import_binds_every_public_name_and_an_unknown_name_raises():
    probe = (
        "import sys, types, seqlab\n"
        "names = {}\n"
        "exec('from seqlab import *', names)\n"
        "print(sorted(set(seqlab.__all__) - names.keys()))\n"
        "print(all(names[n] is getattr(seqlab, n) for n in seqlab.__all__))\n"
        f"print(all(type(sys.modules['seqlab.' + n]) is types.ModuleType for n in {LAZY!r}))\n"
        "try:\n"
        "    seqlab.no_such_name\n"
        "except AttributeError as err:\n"
        "    print(err)\n"
    )
    result = run_probe(probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "[]", "True", "True", "module 'seqlab' has no attribute 'no_such_name'",
    ]


@pytest.mark.forks
@pytest.mark.parametrize("command, module", [
    ("evaluate", "evaluation"),
    ("dataset set-up", "ingest"),
])
def test_a_split_command_runs_its_lazy_module_before_it_forks(tmp_path, command, module):
    """`evaluate` runs `evaluation` while it makes its range work, and a
    JSONL `dataset set-up` runs `ingest`, before `ranges._run_ranges`
    forks, so that no part compiles it again."""
    probe = (
        "import sys, types\n"
        "from seqlab import cli, ranges\n"
        "ranges._EVALUATE_MIN_RANGE_BYTES = ranges._SET_UP_MIN_RANGE_BYTES = 64\n"
        "cli._cpu_count = lambda: 2\n"
        "run_ranges = ranges._run_ranges\n"
        "def probed(*args, **kwargs):\n"
        f"    ran = type(sys.modules['seqlab.{module}']) is types.ModuleType\n"
        f"    print('{module} ran before the fork:', ran, file=sys.stderr)\n"
        "    return run_ranges(*args, **kwargs)\n"
        "ranges._run_ranges = probed\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    canonical = "".join(json.dumps({"words": w, "labels": l}) + "\n" for w, l in SENTENCES * 8)
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    (dataset / "test.jsonl").write_text(canonical, encoding="utf-8")
    argv = {
        "evaluate": ["evaluate", "--tagger", "all-o", "--dataset", str(dataset)],
        "dataset set-up": ["--data-dir", str(tmp_path / "data"), "dataset", "set-up",
                           "--source", "HF", "--name", "set", "--path",
                           str(dataset / "test.jsonl")],
    }[command]
    result = run_probe(probe, *argv)
    assert result.returncode == 0, result.stderr
    assert result.stderr == f"{module} ran before the fork: True\n"


@pytest.mark.parametrize("module, name", LAZY_FUNCTIONS.items())
def test_threads_that_read_a_lazy_module_at_once_all_see_it_whole(module, name):
    """The first thread to read the module runs it; the others wait for it."""
    probe = (
        "import threading, seqlab\n"
        "barrier = threading.Barrier(8)\n"
        "read = []\n"
        "def first_read():\n"
        "    barrier.wait()\n"
        f"    read.append(callable(getattr(seqlab.{module}, {name!r}, None)))\n"
        "threads = [threading.Thread(target=first_read) for _ in range(8)]\n"
        "for thread in threads:\n"
        "    thread.start()\n"
        "for thread in threads:\n"
        "    thread.join(30)\n"
        "print(read)\n"
    )
    result = run_probe(probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{[True] * 8}\n"


def imports():
    """{module: {(module it imports, the name it binds, or None where it
    binds the module)}} over ``src/seqlab/*.py``, from every relative
    import at any depth, a function's included."""
    found = {}
    for path in sorted((SRC / "seqlab").glob("*.py")):
        edges = found[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module is None:  # from . import a, b
                    edges.update((alias.name, None) for alias in node.names)
                else:  # from .a import x, y
                    edges.update((node.module, alias.name) for alias in node.names)
    return found


def test_the_modules_import_one_another_in_one_direction():
    """No import cycle; a module the package runs at import binds a lazy
    one only as a module (``from . import ingest``), so that importing
    it does not run that module, and the package itself imports none;
    and `records`, the layer every file command shares, imports no
    module that uses it."""
    found = imports()
    tree = ast.parse((SRC / "seqlab" / "__init__.py").read_text(encoding="utf-8"))
    registered = next(
        ast.literal_eval(node.args[1]) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and node.args and ast.unparse(node.args[0]) == "_lazy"
    )
    assert sorted(registered) == list(LAZY)
    graph = {module: {target for target, _ in edges} for module, edges in found.items()}
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as err:
        pytest.fail(f"import cycle: {err.args[1]}")
    eager = found.keys() - set(LAZY)
    assert {(m, t, n) for m in eager for t, n in found[m] if t in LAZY and n is not None} == set()
    assert graph["__init__"] & set(LAZY) == set()  # an import there would run it before it is lazy
    users = {"ingest", "inference", "evaluation", "runs", "schedule", "cli"}
    assert graph["records"] & users == set()

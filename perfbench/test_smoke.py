"""Smoke test of the benchmark at tiny scale; it sets no timing bounds.

    python -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json comes out with its unit,
that the result line parses against its schema, that the tracer writes
nested spans for one command, that corrupting one output
line makes the output checks fail, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--scale", "0.02", "--seconds", "0.1"]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_the_metrics_the_benchmark_prints():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_result_line_schema(workload, trace, tmp_path):
    done = bench("--workload", workload, "--seed", "3", "--trace", trace, *TINY)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["meta"]
    assert {"machine", "sizes", "seed", "samples"} <= set(meta)
    assert {"nproc", "cpu", "python", "commit", "src_sha256"} <= set(meta["machine"])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, meta["problems"]
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


def test_tracer_writes_nested_spans(tmp_path):
    wl = workloads.build("conll-bio", 3, 0.02, tmp_path)
    b = run.Bench(wl, run.Runner(ROOT, tmp_path), tmp_path)
    out = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(out), "7", "--", *b.setup_args()],
        cwd=tmp_path, env=b.run.env, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    payload = json.loads(out.read_text(encoding="utf-8"))
    spans = payload["spans"]
    assert payload["command"] == 7 and payload["exit"] == 0
    assert payload["names"][spans[0][0]] == "cli.main" and spans[0][3] == -1
    for name, start, end, parent, command in spans:
        assert command == 7 and start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    assert len({payload["names"][span[0]] for span in spans}) > 1


def _corrupt_prediction(work, wl):
    path = work / "predicted_entity_0.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(wl.predict_shards[0])
             if line.text is not None and line.entities)
    record = json.loads(lines[i])
    record["predictions"][0]["char_end"] += 1
    lines[i] = json.dumps(record, ensure_ascii=False)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _error_on_valid_line(work, wl):
    path = work / "predicted_word_0.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(wl.predict_shards[0]) if line.text is not None)
    lines[i] = json.dumps({"error": "planted by the test"})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _corrupt_conversion(work, wl):
    path = work / "converted.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["labels"][0] = "O" if record["labels"][0] != "O" else f"B-{workloads.CONLL_CLASSES[0]}"
    lines[0] = json.dumps(record, ensure_ascii=False)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _corrupt_report(work, wl):
    path = work / "eval_0.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["lenient"]["micro"]["entity"]["recall"] += 0.001
    path.write_text(json.dumps(report), encoding="utf-8")


@pytest.mark.parametrize("corrupt", [
    _corrupt_prediction, _error_on_valid_line, _corrupt_conversion, _corrupt_report,
])
def test_corrupted_output_fails_the_checks(tmp_path, corrupt):
    wl = workloads.build("raw-predict", 5, 0.05, tmp_path)
    runner = run.Runner(ROOT, tmp_path)
    b = run.Bench(wl, runner, tmp_path)
    b.prepare()
    b.pipeline(traced=False)
    b.verify()
    assert b.problems == []
    corrupt(tmp_path, wl)
    b.verify()
    assert b.problems


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "conll-bio", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

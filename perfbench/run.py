"""seqlab benchmark: three CLI pipelines, timed end to end and traced per layer.

    python3 perfbench/run.py --workload conll-bio --seed 1 --seconds 36 --trace 0

Run it from the repository root; it drives ``src/seqlab`` of that checkout.
One client runs one command at a time (a closed loop), each command in its
own child process the way a user runs the CLI. A pipeline is

    dataset set-up -> convert there and back -> evaluate (one per tagger)
    -> aggregate -> predict --input (entity level) -> predict --input (word level)

and it repeats until ``--seconds`` are used. Every output is checked against
what the seeded generator planted. With ``--trace 0`` the last stdout line
holds the end-to-end metrics: medians over the run's samples, each scaled
by a calibration program run right before it (see calibrate.py); with
``--trace 1`` the run alternates untraced and traced pipelines and reports
per-layer calls and self time from the traced ones, plus the tracing
overhead. The line before it records the machine, Python, commit, seed,
input sizes and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "evaluate_words_per_s": "words/s",
    "convert_words_per_s": "words/s",
    "predict_entity_words_per_s": "words/s",
    "predict_word_words_per_s": "words/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MiB",
}
SPAN_NAMES = [
    f"{module}.{fn}" for module, fns in tracer.SPANS.items() for fn in fns
    if fn != "extract_entities"
] + [
    "evaluation.extract_entities.strict",
    "evaluation.extract_entities.lenient",
    "inference.tagger_tag",
    "core.parse_label",
]
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in SPAN_NAMES
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "ingest.read.docs": "count",
    "ingest.read.words": "count",
    "core.parse_label.distinct_ratio": "ratio",
    "evaluation.strict_kept_ratio": "ratio",
    "inference.ok_ratio": "ratio",
    "gc.collections": "count",
    "gc.pause_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}
ENTRY = "import sys\nfrom seqlab.cli import main\nsys.exit(main())"
COMMAND_TIMEOUT_S = 60
# Stop starting pipelines after this long, so a run always ends in time.
RUN_LIMIT_S = 100
DATASET_SEED = "42"
# Calibration wall time that counts as speed 1: about what calibrate.py
# takes on the development VM in a quiet phase.
GAUGE_REFERENCE_S = 0.1


class CommandFailed(Exception):
    pass


class Runner:
    """Runs CLI commands as child processes and keeps their measurements."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.env.pop("SEQLAB_DATA_DIR", None)
        self.commands = 0
        self.peak_rss_kb = 0
        self.traces: list[dict] = []
        self.gauge_walls: list[float] = []

    def cli(self, args: list[str], traced: bool) -> tuple[float, str]:
        """Wall seconds and stdout of one command; raises on a nonzero exit."""
        self.commands += 1
        trace_path = self.work / "trace.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path),
                    str(self.commands), "--", *args]
        else:
            argv = [sys.executable, "-c", ENTRY, *args]
        wall, max_rss_kb = self.spawn(argv, f"seqlab {' '.join(args[:4])}")
        self.peak_rss_kb = max(self.peak_rss_kb, max_rss_kb)
        if traced:
            self.traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
        return wall, (self.work / "stdout.txt").read_text(encoding="utf-8")

    def gauge(self) -> float:
        """Wall seconds of the calibration program (see calibrate.py)."""
        wall, _ = self.spawn([sys.executable, str(HERE / "calibrate.py")], "calibrate.py")
        self.gauge_walls.append(wall)
        return wall

    def spawn(self, argv: list[str], what: str) -> tuple[float, int]:
        """Wall seconds and peak RSS (KiB) of one child; raises on a nonzero exit."""
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise CommandFailed(f"{what} exited {proc.returncode}: {tail}")
        return wall, usage.ru_maxrss


class Bench:
    def __init__(self, workload, runner: Runner, work: Path):
        self.wl = workload
        self.run = runner
        self.work = work
        self.data = str(work / workloads.DATA_DIR)
        self.dataset_dir = work / workloads.DATA_DIR / workload.name
        self.runs_dir = work / "runs"
        self.runs_dir.mkdir()
        self.problems: list[str] = []
        self.predict_lines = 0

    def setup_args(self) -> list[str]:
        return ["--data-dir", self.data, "--seed", DATASET_SEED, "dataset", "set-up",
                "--name", self.wl.name, *self.wl.setup_args]

    def prepare(self):
        """First set-up (also warms the interpreter's caches); pick up the
        documents the later commands will see; write the echo predictions."""
        self.run.cli(self.setup_args(), traced=False)
        self.problems += checks.check_setup(self.dataset_dir / "analysis.json", self.wl)
        self.convert_input = self.work / self.wl.convert_source
        self.convert_docs, problems = checks.split_docs(self.convert_input, self.wl)
        self.problems += problems
        self.eval_dataset = self.work / self.wl.eval_dataset
        self.eval_docs, problems = checks.split_docs(self.eval_dataset / "test.jsonl", self.wl)
        self.problems += problems
        for tagger in self.wl.taggers:
            if tagger.uri.startswith("echo:"):
                workloads.write_echo_file(tagger, self.eval_docs)
        self.convert_words = sum(len(d.words) for d in self.convert_docs)
        self.eval_words = sum(len(d.words) for d in self.eval_docs)

    def pipeline(self, traced: bool = False, gauge: bool = False) -> dict:
        """One pass of every command.

        Returns (value, speed) samples per metric. With `gauge`, the
        calibration program runs right before each timed command, and
        `speed` is GAUGE_REFERENCE_S over its wall time (1.0 otherwise).
        Calibration time is not part of `pipeline_s`, whose speed is the
        mean of the timed commands' speeds weighted by their wall times:
        a slowdown counts for as long as it lasted.
        """
        wl, work = self.wl, self.work
        samples: dict[str, list] = {key: [] for key in END_TO_END}
        timings = []  # (wall, speed) of each timed command
        gauged = 0.0

        def timed(args):
            nonlocal gauged
            speed = 1.0
            if gauge:
                wall = self.run.gauge()
                gauged += wall
                speed = GAUGE_REFERENCE_S / wall
            wall, stdout = self.run.cli(args, traced)
            timings.append((wall, speed))
            return wall, speed, stdout

        self.run.peak_rss_kb = 0
        start = time.perf_counter()
        wall, speed, _ = timed(self.setup_args())
        samples["setup_s"].append((wall, speed))
        for source, target, src, dst in (
            (wl.scheme, wl.other_scheme, self.convert_input, work / "converted.jsonl"),
            (wl.other_scheme, wl.scheme, work / "converted.jsonl", work / "back.jsonl"),
        ):
            wall, speed, _ = timed(["convert", "--from", source, "--to", target,
                                    "--input", str(src), "--output", str(dst)])
            samples["convert_words_per_s"].append((self.convert_words / wall, speed))
        self.eval_stdout = []
        for k, tagger in enumerate(wl.taggers):
            report = work / f"eval_{k}.json"
            wall, speed, stdout = timed([
                "--data-dir", self.data, "evaluate", "--tagger", tagger.uri,
                "--dataset", str(self.eval_dataset), "--phase", "test", "--output", str(report)])
            samples["evaluate_words_per_s"].append((self.eval_words / wall, speed))
            self.eval_stdout.append(stdout.rstrip("\n").rsplit("\n", 1)[-1])
            record = {"run_name": tagger.name, "seed": k,
                      "reports": json.loads(report.read_text(encoding="utf-8"))}
            (self.runs_dir / f"{tagger.name}.json").write_text(json.dumps(record), encoding="utf-8")
        self.run.cli(["aggregate", "--runs-dir", str(self.runs_dir)], traced)
        lexicon = f"lexicon:{work / 'predict_lexicon.json'}"
        self.predict_stdout = {}
        for level, extra in (("entity", []), ("word", ["--level", "word", "--probabilities"])):
            for i, shard in enumerate(wl.predict_shards):
                wall, speed, stdout = timed([
                    "predict", "--tagger", lexicon,
                    "--input", str(work / f"predict_input_{i}.jsonl"),
                    "--output", str(work / f"predicted_{level}_{i}.jsonl"), *extra])
                words = sum(len(line.words) for line in shard)
                samples[f"predict_{level}_words_per_s"].append((words / wall, speed))
                self.predict_stdout[level, i] = stdout
        wall = time.perf_counter() - start - gauged
        speed = sum(w * v for w, v in timings) / sum(w for w, _ in timings)
        samples["pipeline_s"].append((wall, speed))
        samples["peak_rss_mb"].append((self.run.peak_rss_kb / 1024, 1.0))  # memory is not scaled
        return samples

    def verify(self):
        """Check every output of the last pipeline."""
        wl, work = self.wl, self.work
        found = checks.check_setup(self.dataset_dir / "analysis.json", wl)
        found += checks.check_convert(work / "converted.jsonl", self.convert_docs, wl.other_scheme)
        found += checks.check_convert(work / "back.jsonl", self.convert_docs, wl.scheme)
        f1s = []
        for k, tagger in enumerate(wl.taggers):
            found += checks.check_evaluate(work / f"eval_{k}.json", tagger, self.eval_docs)
            f1 = checks.expected_f1(tagger, self.eval_docs)
            f1s.append(f1)
            if self.eval_stdout[k] != f"strict entity micro f1 = {f1:.4f}":
                found.append(f"evaluate {tagger.name}: stdout ends {self.eval_stdout[k]!r}")
        found += checks.check_aggregate(self.runs_dir / "aggregate.json", f1s)
        for (level, i), stdout in self.predict_stdout.items():
            shard = wl.predict_shards[i]
            found += checks.check_predict(work / f"predicted_{level}_{i}.jsonl", shard, level)
            found += checks.check_predict_summary(stdout, shard)
            self.predict_lines += len(shard)
        self.problems += found


def end_to_end(runs: list[dict]) -> tuple[dict, dict]:
    """Medians over the run of the samples scaled to the reference speed:
    times are multiplied by their speed and rates divided by it."""
    metrics, unscaled, counts = {}, {}, {}
    for name in END_TO_END:
        pairs = [pair for run in runs for pair in run[name]]
        scaled = [v * speed if END_TO_END[name] == "s" else v / speed for v, speed in pairs]
        metrics[name] = statistics.median(scaled)
        unscaled[name] = statistics.median(v for v, _ in pairs)
        counts[name] = len(pairs)
    return metrics, {"samples": counts, "unscaled": unscaled}


def per_layer(traces_by_pipeline: list[list[dict]], overheads: list[tuple[float, float]]) -> dict:
    """Medians over traced pipelines of each pipeline's summed layer figures."""
    per_pipeline = []
    for traces in traces_by_pipeline:
        layers: dict[str, list] = {}
        counters: dict[str, float] = dict.fromkeys(tracer.COUNTERS, 0)
        for payload in traces:
            for name, entry in payload["layers"].items():
                acc = layers.setdefault(name, [0, 0.0])
                acc[0] += entry["calls"]
                acc[1] += entry["self_s"]
            for name, value in payload["counters"].items():
                counters[name] += value
        values = {}
        for name in SPAN_NAMES:
            calls, self_s = layers.get(name, (0, 0.0))
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        values["ingest.read.docs"] = counters["ingest.read.docs"]
        values["ingest.read.words"] = counters["ingest.read.words"]
        values["core.parse_label.distinct_ratio"] = ratio(
            counters["core.parse_label.distinct"], values["core.parse_label.calls"])
        values["evaluation.strict_kept_ratio"] = ratio(
            counters["evaluation.pred_strict_chunks"], counters["evaluation.pred_lenient_chunks"])
        values["inference.ok_ratio"] = ratio(
            counters["inference.lines_ok"],
            counters["inference.lines_ok"] + counters["inference.lines_failed"])
        values["gc.collections"] = counters["gc.collections"]
        values["gc.pause_s"] = counters["gc.pause_s"]
        per_pipeline.append(values)
    metrics = {
        name: statistics.median(p[name] for p in per_pipeline)
        for name in PER_LAYER if not name.startswith("trace.")
    }
    metrics["trace.overhead_s"] = statistics.median(t - u for u, t in overheads)
    metrics["trace.overhead_ratio"] = statistics.median(t / u - 1 for u, t in overheads)
    return metrics


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def machine_info(root: Path) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "seqlab").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the smoke test uses a tiny one)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # run the cleanup below (and kill the running child) when terminated
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "seqlab" / "cli.py").is_file():
        print(f"no seqlab sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        return bench_main(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def bench_main(args, root: Path, work: Path) -> int:
    began = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, args.scale, work)
    runner = Runner(root, work)
    bench = Bench(wl, runner, work)
    runs: list[dict] = []
    traced_runs: list[list[dict]] = []
    overheads: list[tuple[float, float]] = []
    failure = None
    try:
        bench.prepare()
        deadline = time.perf_counter() + args.seconds
        last = 0.0
        traced_first = False
        while True:
            now = time.perf_counter()
            if runs and (now + last > deadline or now - began > RUN_LIMIT_S):
                break
            if not args.trace:
                runs.append(bench.pipeline(gauge=True))
                bench.verify()
            else:
                # traced and untraced passes alternate which goes first
                walls = {}
                for traced in (traced_first, not traced_first):
                    runner.traces = []
                    result = bench.pipeline(traced=traced)
                    bench.verify()
                    walls[traced] = result["pipeline_s"][0][0]
                    if traced:
                        traced_runs.append(runner.traces)
                    else:
                        runs.append(result)
                overheads.append((walls[False], walls[True]))
                traced_first = not traced_first
            last = time.perf_counter() - now
    except CommandFailed as err:
        failure = str(err)

    problems = bench.problems + ([failure] if failure else [])
    attempted = runner.commands + bench.predict_lines
    failed = len(problems)
    metrics, units, details = {}, {}, {}
    if args.trace and traced_runs:
        metrics, units = per_layer(traced_runs, overheads), PER_LAYER
        details = {"samples": {"traced_pipelines": len(traced_runs), "overhead_pairs": len(overheads)}}
    elif runs and not args.trace:
        metrics, details = end_to_end(runs)
        details["gauge_median_s"] = statistics.median(runner.gauge_walls)
        units = END_TO_END
    meta = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(root),
        "sizes": wl.sizes,
        "pipelines": len(runs) + len(traced_runs),
        **details,
        "error_rate": failed / attempted if attempted else 0.0,
        "problems": problems[:20],
        "wall_s": time.perf_counter() - began,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

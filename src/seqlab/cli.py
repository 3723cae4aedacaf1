"""Command-line entry point.

Subcommands mirror the model life cycle: `dataset set-up` normalizes a
corpus, `convert` translates annotation schemes, `evaluate` scores a
tagger against a dataset, `predict` runs single-text or file inference,
`schedule simulate` renders a learning-rate trajectory, and `aggregate`
summarizes multi-seed runs.

`predict --input`, `convert`, `evaluate` and `dataset set-up` may split
their input across the CPUs in their CPU set, which this module passes
them; the last three have one implementation each, which
`ranges._split` runs on each part or on the whole input (see `ranges`):
`convert` in `ingest._convert_file`, `evaluate` in
`evaluation._count_file` and `dataset set-up` in `ingest._set_up_dataset`.
A split never shows: the output bytes, the report, the analysis, the
summary line, the exit code and every error are those of one process.
This module parses, checks usage, prints and reports errors.

Exit codes: 0 success, 1 data or processing error, 2 usage error.
`main` is the one error boundary: a SeqlabError or an OSError from any
command prints one "error: ..." line and exits 1; a line break in the
message, which may quote input, is written as "\\n". `--verbose` prints
"DEBUG ..." lines to stderr, and before that error line the traceback.
Run as the program, `main` freezes the start-up heap before the command
runs (see `main`).

A command runs only the seqlab modules it uses. Importing this module
runs `errors`, `core`, `schemes`, `ingest` and `ranges`; of the modules
the package registers lazily, `evaluate` runs `inference` and
`evaluation`, `predict` `inference`, `aggregate` `runs` and `schedule
simulate` `schedule`, while `dataset set-up` and `convert` run none. So
this module calls the lazy ones through their module, never binds their
names, and reads none of them while it builds the parser.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from . import evaluation, inference, ingest, runs, schedule
from .core import AnnotationScheme
from .errors import SeqlabError, UnconvertibleInput
from .ranges import _cpu_count

SCHEME_CHOICES = [s.value for s in AnnotationScheme]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqlab", description="sequence-labeling workflow toolkit"
    )
    parser.add_argument("--data-dir", default=None, help="dataset root (or $SEQLAB_DATA_DIR)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--verbose", action="store_true")
    commands = parser.add_subparsers(dest="command", required=True)

    dataset = commands.add_parser("dataset", help="dataset management")
    dataset_commands = dataset.add_subparsers(dest="dataset_command", required=True)
    setup = dataset_commands.add_parser("set-up", help="normalize a dataset into canonical files")
    setup.add_argument("--source", required=True, choices=["LF", "HF", "AT", "BI"])
    setup.add_argument("--name", required=True, help="directory entry under the data directory")
    setup.add_argument("--path")
    setup.add_argument("--train-path")
    setup.add_argument("--val-path")
    setup.add_argument("--test-path")
    setup.add_argument("--dialect", choices=["labelstudio", "doccano"])
    setup.add_argument("--split-ratio", default="0.8,0.1,0.1",
                       help="train,val,test shares: finite, non-negative, summing to 1")
    setup.add_argument("--fraction", type=float,
                       help="share of the training split to keep, in (0, 1]")
    setup.set_defaults(handler=cmd_dataset_setup)

    convert = commands.add_parser("convert", help="translate between annotation schemes")
    convert.add_argument("--from", dest="from_scheme", required=True, choices=SCHEME_CHOICES)
    convert.add_argument("--to", dest="to_scheme", required=True, choices=SCHEME_CHOICES)
    convert.add_argument("--input", required=True)
    convert.add_argument("--output", required=True)
    convert.set_defaults(handler=cmd_convert)

    evaluate = commands.add_parser("evaluate", help="score a tagger on a dataset split")
    evaluate.add_argument("--tagger", required=True, help="lexicon:<path>, echo:<path>, or all-o")
    evaluate.add_argument("--dataset", required=True, help="dataset name or directory")
    evaluate.add_argument("--phase", default="test", choices=list(ingest.SPLIT_NAMES))
    evaluate.add_argument("--output", help="report path (default: <dataset>/eval_<phase>.json)")
    evaluate.set_defaults(handler=cmd_evaluate)

    pred = commands.add_parser("predict", help="tag raw text or a JSONL file")
    pred.add_argument("--tagger", required=True)
    pred.add_argument("--text")
    pred.add_argument("--input")
    pred.add_argument("--output")
    pred.add_argument("--level", default="entity", choices=["entity", "word"])
    pred.add_argument("--probabilities", action="store_true")
    pred.set_defaults(handler=cmd_predict)

    sched = commands.add_parser("schedule", help="learning-rate schedule tools")
    sched_commands = sched.add_subparsers(dest="schedule_command", required=True)
    simulate = sched_commands.add_parser("simulate", help="render a schedule trajectory as CSV")
    simulate.add_argument("--config", required=True, help="JSON schedule config")
    simulate.add_argument("--losses", help="JSON array of validation losses")
    simulate.add_argument("--output", help="CSV path (default: stdout)")
    simulate.set_defaults(handler=cmd_schedule_simulate)

    agg = commands.add_parser("aggregate", help="aggregate multi-seed run records")
    agg.add_argument("--runs-dir", required=True)
    agg.add_argument("--selection-metric")  # default: runs.DEFAULT_SELECTION_METRIC
    agg.set_defaults(handler=cmd_aggregate)
    return parser


def cmd_dataset_setup(args) -> int:
    try:
        ratio = ingest._split_ratio([float(r) for r in args.split_ratio.split(",")])
    except ValueError:
        print(f"bad --split-ratio: {args.split_ratio!r}", file=sys.stderr)
        return 2
    name = args.name
    if not ingest._is_entry(name):
        print(f"bad --name: {name!r} is not one directory entry", file=sys.stderr)
        return 2
    if args.fraction is not None and not 0.0 < args.fraction <= 1.0:
        print(f"bad --fraction: {args.fraction!r} is not a number in (0, 1]", file=sys.stderr)
        return 2
    if args.path is not None and any((args.train_path, args.val_path, args.test_path)):
        print(f"bad --path: {args.path!r} is given with split paths", file=sys.stderr)
        return 2
    analysis = ingest._set_up_dataset(
        args.source, name=name, path=args.path,
        split_paths=(args.train_path, args.val_path, args.test_path), dialect=args.dialect,
        split_ratio=ratio, seed=args.seed, fractions=(args.fraction, None, None), scheme=None,
        data_dir=args.data_dir, processes=_cpu_count(),
    )
    print(f"wrote canonical dataset to {ingest.resolve_data_dir(args.data_dir) / name}")
    print(json.dumps(analysis, ensure_ascii=False, indent=2))
    return 0


def cmd_convert(args) -> int:
    source = AnnotationScheme.coerce(args.from_scheme)
    target = AnnotationScheme.coerce(args.to_scheme)
    if target is AnnotationScheme.IO:
        print(
            "warning: IO output merges adjacent same-class chunks (lossy)",
            file=sys.stderr,
        )
    try:
        documents = ingest._convert_file(args.input, args.output, source, target, _cpu_count())
    except UnconvertibleInput as err:
        if args.verbose:
            for lineno, problem in err.problems:
                print(f"DEBUG line {lineno}: {problem}", file=sys.stderr)
        raise
    print(f"converted {documents} documents {source.value} -> {target.value}")
    return 0


def _dataset_dir(args) -> Path:
    candidate = Path(args.dataset)
    if candidate.is_dir():
        return candidate
    return ingest.resolve_data_dir(args.data_dir) / args.dataset


def cmd_evaluate(args) -> int:
    dataset_dir = _dataset_dir(args)
    if args.verbose:
        print(f"DEBUG evaluating {args.phase} split of {dataset_dir}", file=sys.stderr)
    try:
        scheme = AnnotationScheme.coerce(ingest.load_analysis(dataset_dir)["scheme_detected"])
    except (SeqlabError, KeyError, TypeError, ValueError):
        scheme = None  # no usable analysis.json: the split's reader detects it
    counts = evaluation._count_file(
        dataset_dir / f"{args.phase}.jsonl", args.tagger, scheme, _cpu_count())
    report = counts.report()
    encoded = json.dumps(report, ensure_ascii=False, indent=2)
    # written before stdout, which may be a closed pipe
    out_path = Path(args.output) if args.output else dataset_dir / f"eval_{args.phase}.json"
    out_path.write_text(encoded + "\n", encoding="utf-8")
    print(encoded)
    micro_f1 = report["strict"]["micro"]["entity"]["f1"]
    print(f"strict entity micro f1 = {micro_f1:.4f}")
    return 0


def cmd_predict(args) -> int:
    if (args.text is None) == (args.input is None):
        print("predict needs exactly one of --text or --input", file=sys.stderr)
        return 2
    if args.input is not None and args.output is None:
        print("file mode needs --output", file=sys.stderr)
        return 2
    if args.text is not None and args.output is not None:
        print("text mode takes no --output: it prints to stdout", file=sys.stderr)
        return 2
    tagger = inference.load_tagger(args.tagger)
    if args.text is not None:
        predictions = inference.predict(
            tagger, args.text, level=args.level, with_probabilities=args.probabilities
        )
        records = [inference.prediction_record(p) for p in predictions]
        print(json.dumps(records, ensure_ascii=False))
        return 0
    summary = inference.predict_file(
        tagger,
        args.input,
        args.output,
        level=args.level,
        with_probabilities=args.probabilities,
        processes=_cpu_count(),
    )
    print(f"processed={summary.processed} failed={summary.failed}")
    return 0


def cmd_schedule_simulate(args) -> int:
    try:
        config_data = ingest.load_json(ingest.read_text(args.config))
        if not isinstance(config_data, dict):
            raise ValueError("schedule config must be a JSON object")
        losses = config_data.pop("val_losses", None)
        if args.losses:
            losses = ingest.load_json(ingest.read_text(args.losses))
        if not isinstance(losses, list) or not losses:
            raise ValueError("a non-empty loss array is required (config val_losses or --losses)")
        try:
            losses = [float(x) for x in losses]
            finite = all(map(math.isfinite, losses))
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ValueError("every loss must be a finite number")
        preset = config_data.pop("preset", None)
        if preset is not None:
            preset_values = schedule.from_preset(preset)._asdict()
            cfg = schedule.ScheduleConfig(**{**preset_values, **config_data})
        else:
            cfg = schedule.ScheduleConfig(**config_data)
    except (OSError, ValueError, TypeError, SeqlabError) as err:
        print(f"bad schedule config: {_one_line(err)}", file=sys.stderr)
        return 2
    import csv  # only this command writes CSV, so it stays out of start-up

    rows = schedule.simulate(cfg, losses)
    out = open(args.output, "w", newline="", encoding="utf-8") if args.output else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["epoch", "lr", "stopped"])
        for row in rows:
            writer.writerow([row.epoch, f"{row.lr:.10g}", str(row.stopped).lower()])
    finally:
        if args.output:
            out.close()
    if args.output:
        print(f"wrote {len(rows)} epochs to {args.output}")
    return 0


def cmd_aggregate(args) -> int:
    metric = args.selection_metric
    if metric is None:  # read here, so that only `aggregate` runs `runs`
        metric = runs.DEFAULT_SELECTION_METRIC
    records = runs.load_runs(args.runs_dir)
    result = runs.aggregate(records, metric)
    runs.save_aggregate(result, args.runs_dir)
    chosen = result["metrics"][metric]
    print(
        f"{metric}: {chosen['mean']:.4f} +/- {chosen['uncertainty']:.4f} "
        f"(n={chosen['n']}), best run: {result['best_run']}"
    )
    return 0


def _one_line(err: Exception) -> str:
    """The message, which may quote input, with each line break written as \\n."""
    return "\\n".join(str(err).splitlines())


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command ``argv`` (None: ``sys.argv[1:]``); its exit code.

    Called without ``argv``, as the program (the console script, ``python
    -m seqlab.cli``, ``sys.exit(main())``), it freezes the start-up heap
    with `gc.freeze` before the command runs: the interpreter's collections
    at exit, and those of the children a split forks, then skip the
    objects that start-up made, while those the command makes are still
    collected. A call with ``argv`` leaves the collector as it found it.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_info:
        return exit_info.code if isinstance(exit_info.code, int) else 2
    if argv is None:
        gc.freeze()
    try:
        return args.handler(args)
    except (SeqlabError, OSError) as err:
        if args.verbose:
            import traceback  # only a failing command prints one

            print(f"DEBUG failing command: {args.command}", file=sys.stderr)
            traceback.print_exc()
        print(f"error: {_one_line(err)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands mirror the model life cycle: `dataset set-up` normalizes a
corpus, `convert` translates annotation schemes, `evaluate` scores a
tagger against a dataset, `predict` runs single-text or file inference,
`schedule simulate` renders a learning-rate trajectory, and `aggregate`
summarizes multi-seed runs.

Exit codes: 0 success, 1 data or processing error, 2 usage error.
`main` is the one error boundary: a SeqlabError or an OSError from any
command prints one "error: ..." line and exits 1; a line break in the
message, which may quote input, is written as "\\n". `--verbose` prints
"DEBUG ..." lines to stderr, and before that error line the traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from . import ingest, runs, schedule
from .core import AnnotationScheme, LabelSequence
from .errors import InconsistentSource, SeqlabError, UnconvertibleInput
from .evaluation import DatasetEvaluation, _count_rows
from .inference import load_tagger, predict, predict_file, prediction_record
from .schemes import convert_scheme

SCHEME_CHOICES = [s.value for s in AnnotationScheme]
#: what may not occur in a set-up name, which is one directory entry
_SEPARATORS = {"/", os.sep, os.altsep} - {None}


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
    setup.add_argument("--fraction", type=float, help="prune the training split")
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
    agg.add_argument("--selection-metric", default=runs.DEFAULT_SELECTION_METRIC)
    agg.set_defaults(handler=cmd_aggregate)
    return parser


def cmd_dataset_setup(args) -> int:
    try:
        ratio = ingest._split_ratio([float(r) for r in args.split_ratio.split(",")])
    except ValueError:
        print(f"bad --split-ratio: {args.split_ratio!r}", file=sys.stderr)
        return 2
    name = args.name
    if name in ("", ".", "..") or "\0" in name or any(sep in name for sep in _SEPARATORS):
        print(f"bad --name: {name!r} is not one directory entry", file=sys.stderr)
        return 2
    # the files and analysis of `ingest.set_up`, without its Documents
    _, analysis = ingest._set_up(
        args.source,
        name=name,
        path=args.path,
        split_paths=(args.train_path, args.val_path, args.test_path),
        dialect=args.dialect,
        split_ratio=ratio,
        seed=args.seed,
        fractions=(args.fraction, None, None),
        scheme=None,
        data_dir=args.data_dir,
    )
    out_dir = ingest.resolve_data_dir(args.data_dir) / name
    print(f"wrote canonical dataset to {out_dir}")
    print(json.dumps(analysis.as_dict(), ensure_ascii=False, indent=2))
    return 0


def cmd_convert(args) -> int:
    source = AnnotationScheme.coerce(args.from_scheme)
    target = AnnotationScheme.coerce(args.to_scheme)
    if target is AnnotationScheme.IO:
        print(
            "warning: IO output merges adjacent same-class chunks (lossy)",
            file=sys.stderr,
        )
    rows = ingest._rows(ingest._json_records(ingest.read_text(args.input)), source)[0]
    problems = []  # (line, what went wrong)
    lines = []  # output lines
    literals = ingest._Literals()
    for row in rows:
        if row.labels is None:
            problems.append((row.line, "document has no word labels to convert"))
            continue
        try:
            labels = convert_scheme(LabelSequence(row.labels, source), target).labels
        except InconsistentSource as err:
            problems.extend(
                (row.line, f"{violation.kind.value} at position {violation.position}")
                for violation in err.violations
            )
            continue
        lines.append(ingest._canonical_line(row._replace(labels=labels), literals))
    if problems:
        if args.verbose:
            for lineno, problem in problems:
                print(f"DEBUG line {lineno}: {problem}", file=sys.stderr)
        lineno, problem = problems[0]
        more = f" (and {len(problems) - 1} more; --verbose lists all)" if len(problems) > 1 else ""
        raise UnconvertibleInput(problem + more, line=lineno)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    print(f"converted {len(lines)} documents {source.value} -> {target.value}")
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
    # the scheme read off the split's labels where none is named: BIO when all are O
    gold, scheme = ingest._rows(ingest._split_records(dataset_dir, args.phase), scheme)
    tagger = load_tagger(args.tagger)
    result = DatasetEvaluation.from_counts(_count_rows(tagger, gold, scheme))
    report = result.as_dict()
    encoded = json.dumps(report, ensure_ascii=False, indent=2)
    print(encoded)
    micro_f1 = report["strict"]["micro"]["entity"]["f1"]
    print(f"strict entity micro f1 = {micro_f1:.4f}")
    out_path = Path(args.output) if args.output else dataset_dir / f"eval_{args.phase}.json"
    out_path.write_text(encoded + "\n", encoding="utf-8")
    return 0


def cmd_predict(args) -> int:
    if (args.text is None) == (args.input is None):
        print("predict needs exactly one of --text or --input", file=sys.stderr)
        return 2
    if args.input is not None and args.output is None:
        print("file mode needs --output", file=sys.stderr)
        return 2
    tagger = load_tagger(args.tagger)
    if args.text is not None:
        predictions = predict(
            tagger, args.text, level=args.level, with_probabilities=args.probabilities
        )
        print(json.dumps([prediction_record(p) for p in predictions], ensure_ascii=False))
        return 0
    summary = predict_file(
        tagger,
        args.input,
        args.output,
        level=args.level,
        with_probabilities=args.probabilities,
        # the CPU set the command may use (taskset, cpusets) bounds the split
        processes=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1,
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
        losses = [float(x) for x in losses]
        if not all(map(math.isfinite, losses)):
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
    records = runs.load_runs(args.runs_dir)
    result = runs.aggregate(records, args.selection_metric)
    runs.save_aggregate(result, args.runs_dir)
    chosen = result.metrics[args.selection_metric]
    print(
        f"{args.selection_metric}: {chosen.mean:.4f} +/- {chosen.uncertainty:.4f} "
        f"(n={chosen.n}), best run: {result.best_run}"
    )
    return 0


def _one_line(err: Exception) -> str:
    """The message, which may quote input, with each line break written as \\n."""
    return "\\n".join(str(err).splitlines())


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_info:
        return exit_info.code if isinstance(exit_info.code, int) else 2
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

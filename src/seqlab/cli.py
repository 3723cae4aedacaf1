"""Command-line entry point.

Subcommands mirror the model life cycle: `dataset set-up` normalizes a
corpus, `convert` translates annotation schemes, `evaluate` scores a
tagger against a dataset, `predict` runs single-text or file inference,
`schedule simulate` renders a learning-rate trajectory, and `aggregate`
summarizes multi-seed runs.

`predict --input` (from 128 KiB), `convert` (from 768 KiB), `evaluate`
(from 512 KiB) and `dataset set-up` of one JSONL file or of a pre-split
dataset (from 512 KiB) split their input across the CPUs in their CPU
set. The last three split through `ranges._split`, which sends the
whole input back to one process wherever a part fails (see `ranges`). A
split never shows: the output bytes, the report, the analysis, the
summary line, the exit code and every error are those of one process.
Per command, `convert` writes its output only once every range has
converted; `evaluate` loads its tagger once, before the fork, and adds
up the `Counts` of its ranges; `dataset set-up` reads and formats its
records in the parts, then shuffles, prunes, analyzes and writes them in
its own process. Where the parts of `evaluate` or `dataset set-up` read
their labels in different schemes, the input runs in one process too.

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
from collections import Counter
from functools import partial
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence, TextIO

from . import evaluation, inference, ingest, runs, schedule
from .core import AnnotationScheme, LabelSequence
from .errors import InconsistentSource, SeqlabError, UnconvertibleInput
from .ranges import _cpu_count, _split
from .schemes import convert_scheme

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
    out_dir = ingest.resolve_data_dir(args.data_dir) / name
    analysis = _split_set_up(args, ratio, out_dir)
    if analysis is None:
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
    print(f"wrote canonical dataset to {out_dir}")
    print(json.dumps(analysis, ensure_ascii=False, indent=2))
    return 0


def _set_up_range(
    src: BinaryIO, dst: TextIO, lineno: int, size: int | None, *, doccano: bool
) -> list | None:
    """The range `Work` of `dataset set-up`: the records in the next
    ``size`` bytes of ``src``, or in all the rest, read (as Doccano lines
    where ``doccano``) and checked, and their canonical lines written to
    ``dst``. Its summary holds one pair: the name of the scheme read off
    their own labels, then each row's `ingest._row_stats` in that scheme.
    None, and nothing written, where the range holds bytes that are not
    UTF-8 or a record or label that does not read: the one-process run
    reports every error."""
    try:
        summary, lines = _set_up_lines(ingest._range_records(src.read(size), lineno, doccano))
    except Exception:  # whatever fails, fails the range
        return None
    dst.writelines(lines)
    return [summary]


def _set_up_files(group: tuple[str, ...], dst: TextIO, *, dialect: str | None) -> list | None:
    """The part work of a pre-split `dataset set-up`: what `_set_up_range`
    does of a range, done of each whole file of ``group`` as `ingest._set_up`
    reads it; its summary holds one pair per file."""
    try:
        read = [_set_up_lines(ingest._file_records(path, dialect)) for path in group]
    except Exception:  # whatever fails, fails the group
        return None
    for _, lines in read:
        dst.writelines(lines)
    return [summary for summary, _ in read]


def _set_up_lines(records: list) -> tuple[list, list[str]]:
    """([scheme name, each row's `ingest._row_stats`], canonical lines) of
    the checked ``records``, in the scheme read off their own labels."""
    rows, scheme = ingest._rows(records, None)
    literals = ingest._Literals()
    lines = [ingest._canonical_line(row, literals) for row in rows]
    return [scheme.value, ingest._row_stats(rows, scheme)], lines


#: The least input a `dataset set-up` process is given, in bytes. On a
#: 2-vCPU machine, whole set-ups of line-cut prefixes of a pretokenized
#: JSONL file and of a Doccano export, split in two against one process,
#: moved by +1.5% and +3.4% at 64 KiB and +4.9% and +1.5% at 128 KiB
#: (medians of 20 alternating pairs), -2.5% and -1.5% at 192 KiB (30
#: pairs), -10.0%/-3.9% and -14.2%/-4.0% at 256 KiB (20 and 30 pairs),
#: -7.6%/-7.9% and +2.5%/-5.5% at 384 KiB, and -12.2%/-10.6% and
#: -9.6%/-9.2% at 512 KiB: a gain in every series from 512 KiB on.
_SET_UP_MIN_RANGE_BYTES = 256 * 1024


def _split_set_up(args, ratio: tuple[float, float, float], out_dir: Path) -> dict | None:
    """The analysis tree of `dataset set-up` of a pre-split dataset, read in
    groups of whole files, or of one JSONL file (``--path``, a Doccano
    export or canonical records), read in byte ranges, through
    `ranges._split`; this process then splits, prunes, analyzes and writes
    what the parts read under ``out_dir`` as `ingest._set_up` does. None,
    and nothing written, where the input is neither, where `_split` gives
    None, where the parts read different schemes or where it holds no
    record."""
    path, files = args.path, [args.train_path, args.val_path, args.test_path]
    if args.source == "BI" or not all(files) and path is None:
        return None
    if all(files):
        split = _split(files, _cpu_count(), _SET_UP_MIN_RANGE_BYTES,
                       lambda: partial(_set_up_files, dialect=args.dialect))
    elif args.dialect == "doccano" or (
        args.dialect is None and Path(path).suffix.lower() == ".jsonl"
    ):
        split = _split(path, _cpu_count(), _SET_UP_MIN_RANGE_BYTES,
                       partial(_set_up_work, path, args.dialect))
    else:
        return None
    if split is None:
        return None
    summaries, output = split
    read = [pair for summary in summaries for pair in summary]  # one per range or file
    scheme = _agreed_scheme(name for name, _ in read)
    stats = [row for _, rows in read for row in rows]
    if scheme is None or not stats:
        return None

    def analysis(splits, seed):
        named = [(split.name, [row for _, row in split.documents]) for split in splits]
        return ingest._analysis_tree(named, scheme, seed)

    # a canonical line escapes every "\r" and "\n" but its end
    pairs = list(zip(output.splitlines(keepends=True), stats))
    return ingest._write_set_up(
        pairs, [len(rows) for _, rows in read] if all(files) else None, analysis,
        lambda pair, literals: pair[0], out_dir=out_dir, split_ratio=ratio, seed=args.seed,
        fractions=(args.fraction, None, None),
    )[1]


def _set_up_work(path: str, dialect: str | None):
    """The range `Work` of `dataset set-up` of the JSONL file at ``path``:
    its lines read as Doccano lines with the dialect "doccano" and, without
    one, as the record on its first non-blank line reads; None with any
    other dialect or where that line is not UTF-8 or holds no JSON object."""
    if dialect == "doccano":
        return partial(_set_up_range, doccano=True)
    if dialect is not None:
        return None
    with open(path, "rb") as src:  # lines end at b"\n" only, as `ingest._json_records` reads them
        try:
            first = next(filter(str.strip, (line.decode("utf-8") for line in src)), "null")
            first = ingest.load_json(first)
        except (UnicodeDecodeError, SeqlabError):
            return None
    if not isinstance(first, dict):
        return None
    return partial(_set_up_range, doccano=ingest._is_doccano(first))


def _agreed_scheme(names: Iterable[str]) -> AnnotationScheme | None:
    """The scheme that every part of an input read off its own labels,
    ``names`` being what each read, where they all read the same one; None
    where they did not. A part is a byte range of a file or a whole file.

    Parts that agree on a scheme agree with their whole, which
    `schemes.resolve_scheme` reads as BILOU if any label has an L or U
    prefix, as IO if I occurs without B, and as BIO otherwise. Where every
    part reads BILOU, some part has L or U, and so has the whole. Where
    every part reads IO, no part has B, L or U and some part has I, and so
    has the whole. Where every part reads BIO, no part has L or U and each
    part has a B or has no I, so the whole has a B or has no I. So what the
    parts read, count and decode in that scheme is what one process does
    with the whole."""
    names = set(names)
    return AnnotationScheme.coerce(names.pop()) if len(names) == 1 else None


def cmd_convert(args) -> int:
    source = AnnotationScheme.coerce(args.from_scheme)
    target = AnnotationScheme.coerce(args.to_scheme)
    if target is AnnotationScheme.IO:
        print(
            "warning: IO output merges adjacent same-class chunks (lossy)",
            file=sys.stderr,
        )
    split = _split(args.input, _cpu_count(), _CONVERT_MIN_RANGE_BYTES,
                   lambda: partial(_convert_range, source=source, target=target))
    if split is None or not sum(split[0]):  # no record: one process reports the empty input
        lines, problems = _converted(
            ingest._json_records(ingest.read_text(args.input)), source, target)
        if problems:
            if args.verbose:
                for lineno, problem in problems:
                    print(f"DEBUG line {lineno}: {problem}", file=sys.stderr)
            lineno, problem = problems[0]
            count = len(problems)
            more = f" (and {count - 1} more; --verbose lists all)" if count > 1 else ""
            raise UnconvertibleInput(problem + more, line=lineno)
        # opened only once the input is read and converted: it may be the input
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        documents = len(lines)
    else:
        with open(args.output, "wb") as handle:
            handle.write(split[1])
        documents = sum(split[0])
    print(f"converted {documents} documents {source.value} -> {target.value}")
    return 0


def _converted(
    records: list[tuple[int, dict]], source: AnnotationScheme, target: AnnotationScheme
) -> tuple[list[str], list[tuple[int, str]]]:
    """The canonical lines in ``target`` of ``records``, and the (line, what
    went wrong) of each record that cannot be converted. A record that
    does not read raises."""
    rows = ingest._rows(records, source)[0]
    problems = []
    lines = []
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
    return lines, problems


def _convert_range(
    src: BinaryIO,
    dst: TextIO,
    lineno: int,
    size: int | None,
    *,
    source: AnnotationScheme,
    target: AnnotationScheme,
) -> int | None:
    """The range `Work` of `convert`: the lines of the next ``size`` bytes
    of ``src``, or of all the rest, converted into ``dst``; the number of
    documents. None, and nothing written, where the range holds bytes that
    are not UTF-8, a record that does not read or a record that cannot be
    converted: the one-process run reports every error."""
    try:
        lines, problems = _converted(
            ingest._range_records(src.read(size), lineno), source, target)
    except Exception:  # whatever fails, fails the range
        return None
    if problems:
        return None
    dst.writelines(lines)
    return len(lines)


#: The least input a `convert` process is given, in bytes. On a 2-vCPU
#: machine, whole `convert` commands split in two gained no more than
#: their run-to-run noise on inputs up to 512 KiB, and gained in every
#: series measured from 768 KiB on.
_CONVERT_MIN_RANGE_BYTES = 384 * 1024


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
    counts = _split_evaluate(dataset_dir / f"{args.phase}.jsonl", args.tagger, scheme)
    if counts is None:
        # the scheme read off the split's labels where none is named: BIO when all are O
        gold, scheme = ingest._rows(ingest._split_records(dataset_dir, args.phase), scheme)
        counts = evaluation._count_rows(inference.load_tagger(args.tagger), gold, scheme)
    report = counts.report()
    encoded = json.dumps(report, ensure_ascii=False, indent=2)
    # written before stdout, which may be a closed pipe
    out_path = Path(args.output) if args.output else dataset_dir / f"eval_{args.phase}.json"
    out_path.write_text(encoded + "\n", encoding="utf-8")
    print(encoded)
    micro_f1 = report["strict"]["micro"]["entity"]["f1"]
    print(f"strict entity micro f1 = {micro_f1:.4f}")
    return 0


def _evaluate_range(
    src: BinaryIO,
    dst: TextIO,
    lineno: int,
    size: int | None,
    *,
    tagger,
    scheme: AnnotationScheme | None,
) -> list | None:
    """The range `Work` of `evaluate`: the records in the next ``size``
    bytes of ``src``, or in all the rest, read in ``scheme`` or, where it
    is None, in the scheme read off their own labels, and counted. Its
    summary is that scheme's name, then the `Counts` as one list of
    [class, class, count] triples per counter; it writes nothing. None
    where the range holds bytes that are not UTF-8, a record or label that
    does not read, or a record the tagger fails on: the one-process run
    reports every error."""
    try:
        rows, scheme = ingest._rows(ingest._range_records(src.read(size), lineno), scheme)
        counts = evaluation._count_rows(tagger, rows, scheme)
    except Exception:  # whatever fails, the tagger included, fails the range
        return None
    fields = counts.strict, counts.lenient, counts.words
    return [scheme.value, *([[*key, n] for key, n in c.items()] for c in fields)]


#: The least input an `evaluate` process is given, in bytes. On a 2-vCPU
#: machine, whole `evaluate` commands of the benchmark's conll-bio and
#: fewnerd-bilou test splits, cut short and split in two, gained nothing at
#: 384 KiB (+0.1% and -0.6%, medians of 20 alternating pairs) and gained
#: from 512 KiB on (-5.3% and -3.0% there, -8.9% and -0.5% at 768 KiB).
_EVALUATE_MIN_RANGE_BYTES = 256 * 1024


def _split_evaluate(
    path: Path, uri: str, scheme: AnnotationScheme | None
) -> evaluation.Counts | None:
    """The `Counts` of `evaluate` of the split file at ``path``, whose
    labels are in ``scheme`` (None: the scheme is read off the labels),
    its ranges counted through `ranges._split` with the tagger ``uri``
    loaded once, and `evaluation` run once, before the fork. None where
    `_split` gives None, where the tagger does not load or where two
    ranges read different schemes.
    Ranges that agree on a scheme agree with the whole file (see
    `_agreed_scheme`), so the summed `Counts` are those of one process."""

    def make_work():
        evaluation.Counts  # runs `evaluation` here, before the fork, not in each part
        try:
            return partial(_evaluate_range, tagger=inference.load_tagger(uri), scheme=scheme)
        except SeqlabError:  # the tagger does not load
            return None

    split = _split(path, _cpu_count(), _EVALUATE_MIN_RANGE_BYTES, make_work)
    if split is None or _agreed_scheme(summary[0] for summary in split[0]) is None:
        return None
    return sum((_read_counts(summary[1:]) for summary in split[0]), evaluation.Counts())


def _read_counts(fields: list) -> evaluation.Counts:
    """The `Counts` of the triples of an `_evaluate_range` summary."""
    return evaluation.Counts(*(Counter({(a, b): n for a, b, n in c}) for c in fields))


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

"""Multi-run bookkeeping: aggregate metrics across seeds, pick the best run.

Training a neural tagger is stochastic, so the same configuration is
typically run under several seeds. Each run's evaluation tree is stored
as a record. Aggregation walks each record's tree once into a
``{dotted path: float}`` table, so a key that itself holds a dot (the
class ``org.x`` in ``strict.per_class.org.x.entity.f1``) aggregates
like any other. For every numeric path shared by all records it reports
mean and uncertainty, where uncertainty is the standard error of the
mean (sample standard deviation over sqrt(n)); it is 0 where every run
holds the same value, a single run included. A metric that is not a
finite number (JSON ``NaN`` or ``Infinity``, or an integer too large
for a float) raises NonFiniteMetric naming the run and the path, in
``best_model`` as in ``aggregate``; two leaves whose keys join to one
path (the confusion cells ``a.b`` -> ``c`` and ``a`` -> ``b.c``) raise
DuplicateMetricPath naming the run and both key chains. The selection
metric is any path of these tables, a dotted class name included; the
best run is its argmax, ties broken by the lowest seed, and a record
without it raises MissingMetric.

``aggregate`` returns the tree that ``save_aggregate`` writes, key for
key: ``{"selection_metric", "best_run", "metrics": {path: {"mean",
"uncertainty", "n", "per_run"}}}``, the paths sorted and ``per_run`` in
record order. Records persist as JSON under
``runs/<training_name>/<run_name>.json`` with the aggregate written next
to them as ``aggregate.json``. A record
file that is not JSON (too deeply nested included), lacks ``run_name``,
``seed`` or ``reports``, names its run with anything but a string or
gives a seed that is not a JSON integer (``1.9``, ``true``, ``"3"``)
raises MalformedJson naming the file, and ``save_run`` refuses such a
record, a run name that is not one directory entry, or a report that
would read back as another value (a tuple, a key that is not a string),
before it writes; two records with one run name raise DuplicateRunName.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import (
    DuplicateMetricPath, DuplicateRunName, EmptyRunSet, MalformedJson, MissingMetric, NonFiniteMetric
)
from .ingest import _is_entry, load_json, read_text

#: strict entity micro F1; prepend a phase segment ("val." etc.) when
#: records store per-phase trees.
DEFAULT_SELECTION_METRIC = "strict.micro.entity.f1"


class RunRecord(NamedTuple):
    run_name: str
    seed: int
    reports: Mapping
    artifacts_path: str = ""


def _metric_table(record: RunRecord) -> dict[str, float]:
    """Every numeric leaf of the record's report tree by dotted path, in
    one walk; a leaf that is not a finite float raises NonFiniteMetric,
    and two leaves with one path raise DuplicateMetricPath."""
    table = {}
    chains = {}  # path -> (keys above the leaf, the leaf's key)
    stack = [("", (), record.reports)] if isinstance(record.reports, Mapping) else []
    while stack:
        prefix, keys, tree = stack.pop()
        for key, value in tree.items():
            path = f"{prefix}{key}"
            if isinstance(value, Mapping):
                stack.append((path + ".", (*keys, key), value))
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                if path in chains:
                    above, last = chains[path]
                    raise DuplicateMetricPath(
                        f"run {record.run_name!r}: report keys {[*above, last]} and "
                        f"{[*keys, key]} both have the metric path {path!r}"
                    )
                chains[path] = keys, key
                try:
                    number = float(value)
                except OverflowError:
                    number = math.inf
                if not math.isfinite(number):
                    raise NonFiniteMetric(f"run {record.run_name!r}: metric {path!r} is not finite")
                table[path] = number
    return table


def _best_run(
    records: Sequence[RunRecord], tables: Sequence[Mapping[str, float]], selection_metric: str
) -> RunRecord:
    """Check the records, then pick the one whose metric table holds the
    highest selection metric; ties go to the lowest seed."""
    if not records:
        raise EmptyRunSet("at least one run record is required")
    names = [r.run_name for r in records]
    if len(set(names)) != len(names):
        raise DuplicateRunName(f"run names must be unique, got {names}")
    for record, table in zip(records, tables):
        if selection_metric not in table:
            raise MissingMetric(
                f"run {record.run_name!r} has no metric {selection_metric!r}"
            )
    pairs = zip(records, tables)
    return max(pairs, key=lambda pair: (pair[1][selection_metric], -pair[0].seed))[0]


def best_model(
    records: Sequence[RunRecord],
    selection_metric: str = DEFAULT_SELECTION_METRIC,
) -> RunRecord:
    """The record with the highest selection metric; ties go to the
    lowest seed."""
    return _best_run(records, [_metric_table(r) for r in records], selection_metric)


def aggregate(
    records: Sequence[RunRecord],
    selection_metric: str = DEFAULT_SELECTION_METRIC,
) -> dict:
    """Mean and standard-error aggregation over every metric path
    present (and numeric) in all records, as the tree that
    aggregate.json holds."""
    import statistics  # only this command needs it, so it stays out of start-up

    tables = [_metric_table(record) for record in records]
    best = _best_run(records, tables, selection_metric)
    shared = set(tables[0]).intersection(*tables[1:])
    metrics = {}
    for path in sorted(shared):
        values = [table[path] for table in tables]
        metrics[path] = {
            "mean": statistics.fmean(values),
            # stdev of equal finite values is 0.0; its exact arithmetic is slow
            "uncertainty": statistics.stdev(values) / math.sqrt(len(values))
            if len(set(values)) > 1
            else 0.0,
            "n": len(values),
            "per_run": values,
        }
    return {"selection_metric": selection_metric, "best_run": best.run_name, "metrics": metrics}


def _check_run(run_name: object, seed: object) -> None:
    """TypeError unless the run name is a string and the seed a JSON
    integer, as a record file must give them."""
    if not isinstance(run_name, str):
        raise TypeError(f"run_name {run_name!r:.40} is not a string")
    if type(seed) is not int:
        raise TypeError(f"seed {seed!r:.40} is not a JSON integer")


def _check_tree(tree: object) -> None:
    """TypeError where JSON would read ``tree`` back as another value: a
    tuple (read back as a list) or a key that is not a string (read back
    as one). ``tree`` is one that json.dumps encodes, so it holds no cycle."""
    stack = [tree]
    while stack:
        value = stack.pop()
        if isinstance(value, tuple):
            raise TypeError(f"{value!r:.40} is a tuple, which JSON reads back as a list")
        if isinstance(value, dict):
            for key in value:
                if not isinstance(key, str):
                    raise TypeError(f"key {key!r:.40} is not a string")
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)


def save_run(record: RunRecord, directory: str | Path) -> Path:
    """Write the record as ``<run_name>.json`` in ``directory``. A record
    that `load_run` would not read back as it is (a string no UTF-8 holds,
    a tuple or a key that is not a string included), or whose run name is
    not one directory entry or is "aggregate", raises TypeError or
    ValueError, and nothing is written."""
    _check_run(record.run_name, record.seed)
    if not _is_entry(record.run_name) or record.run_name == "aggregate":
        raise ValueError(
            f"run name {record.run_name!r} is not one directory entry other than 'aggregate'"
        )
    fields = record._asdict()
    data = (json.dumps(fields, ensure_ascii=False, indent=2) + "\n").encode("utf-8")
    _check_tree(fields)
    path = Path(directory) / f"{record.run_name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


def load_run(path: str | Path) -> RunRecord:
    try:
        data = load_json(read_text(path))
        _check_run(data["run_name"], data["seed"])
        return RunRecord(
            run_name=data["run_name"],
            seed=data["seed"],
            reports=data["reports"],
            artifacts_path=data.get("artifacts_path", ""),
        )
    except (MalformedJson, ValueError, KeyError, TypeError, AttributeError) as err:
        raise MalformedJson(f"bad run record {path}: {type(err).__name__}: {err}") from None


def load_runs(directory: str | Path) -> list[RunRecord]:
    directory = Path(directory)
    if not directory.is_dir():
        raise EmptyRunSet(f"run directory does not exist: {directory}")
    records = [
        load_run(path)
        for path in sorted(directory.glob("*.json"))
        if path.name != "aggregate.json"
    ]
    if not records:
        raise EmptyRunSet(f"no run records under {directory}")
    return records


def save_aggregate(result: dict, directory: str | Path) -> Path:
    path = Path(directory) / "aggregate.json"
    path.write_text(
        json.dumps(result, ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )
    return path

"""Multi-run bookkeeping: aggregate metrics across seeds, pick the best run.

Training a neural tagger is stochastic, so the same configuration is
typically run under several seeds. Each run's evaluation tree is stored
as a record. Aggregation walks each record's tree once into a
``{dotted path: float}`` table, so a key that itself holds a dot (the
class ``org.x`` in ``strict.per_class.org.x.entity.f1``) aggregates
like any other. For every numeric path shared by all records it reports
mean and uncertainty, where uncertainty is the standard error of the
mean (sample standard deviation over sqrt(n)); it is 0 where every run
holds the same value, a single run included. The standard deviation is
exact and correctly rounded on every Python version. A metric that is
not a finite number (JSON ``NaN`` or ``Infinity``, or an integer too
large for a float) raises NonFiniteMetric naming the run and the path,
in ``best_model`` as in ``aggregate``, and values whose sum or spread
overflows a float raise it naming the path; two leaves whose keys join to one
path (the confusion cells ``a.b`` -> ``c`` and ``a`` -> ``b.c``) raise
DuplicateMetricPath naming the run and both key chains. The selection
metric is any path of these tables, a dotted class name included; the
best run is its argmax, ties broken by the lowest seed, and a record
without it raises MissingMetric.

``aggregate`` returns the tree that ``save_aggregate`` writes, key for
key: ``{"selection_metric", "best_run", "metrics": {path: {"mean",
"uncertainty", "n", "per_run"}}}``, the paths sorted and ``per_run`` in
record order, and the file holds ``json.dumps(tree, ensure_ascii=False,
indent=2)`` and a line break. Records persist as JSON under
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
import sys
from collections.abc import Mapping
from json.encoder import encode_basestring
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import (
    DuplicateMetricPath, DuplicateRunName, EmptyRunSet, MalformedJson, MissingMetric, NonFiniteMetric
)
from .records import _is_entry, load_json, read_text

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
            kind = type(value)
            # the exact types first: an ABC check per leaf costs more than the rest
            if kind is float or kind is int or (
                kind is not bool and not isinstance(value, Mapping) and isinstance(value, (int, float))
            ):
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
            elif isinstance(value, Mapping):
                stack.append((path + ".", (*keys, key), value))
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


def _stdev(values: Sequence[float]) -> float:
    """The sample standard deviation of two or more finite floats,
    correctly rounded as by ``statistics.stdev`` from Python 3.11 on;
    OverflowError where a float cannot hold it. Over the largest of the
    floats' power-of-two denominators the variance is one exact rational;
    its square root is taken to 55 or more bits, rounded to odd, then
    rounded to a float once, as ``statistics._float_sqrt_of_frac`` does."""
    ratios = [value.as_integer_ratio() for value in values]
    shift = max([denominator for _, denominator in ratios]).bit_length() - 1
    scaled = [numerator << shift - denominator.bit_length() + 1 for numerator, denominator in ratios]
    count, total = len(scaled), sum(scaled)
    numerator = count * sum([x * x for x in scaled]) - total * total
    denominator = count * (count - 1) << 2 * shift
    q = (numerator.bit_length() - denominator.bit_length() - 2 * sys.float_info.mant_dig - 3) // 2
    if q < 0:
        numerator <<= -2 * q
    else:
        denominator <<= 2 * q
    root = math.isqrt(numerator // denominator)
    root |= root * root * denominator != numerator
    return root / (1 << -q) if q < 0 else float(root << q)


def aggregate(
    records: Sequence[RunRecord],
    selection_metric: str = DEFAULT_SELECTION_METRIC,
) -> dict:
    """Mean and standard-error aggregation over every metric path
    present (and numeric) in all records, as the tree that
    aggregate.json holds. A mean or standard deviation too large for a
    float raises NonFiniteMetric naming the path."""
    tables = [_metric_table(record) for record in records]
    best = _best_run(records, tables, selection_metric)
    # a table lists its paths in walk order, which sorts fast; a set's order does not
    paths = sorted(tables[0])
    for table in tables[1:]:
        paths = [path for path in paths if path in table]
    count = len(tables)
    sqrt_count = math.sqrt(count)
    columns = [list(map(table.__getitem__, paths)) for table in tables]
    metrics = {}
    for path, row in zip(paths, zip(*columns)):
        try:
            mean = math.fsum(row) / count
            uncertainty = _stdev(row) / sqrt_count if row.count(row[0]) < count else 0.0
        except OverflowError:
            raise NonFiniteMetric(
                f"metric {path!r}: the sum or the spread of its values is too large for a float"
            ) from None
        metrics[path] = {"mean": mean, "uncertainty": uncertainty, "n": count, "per_run": list(row)}
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
    """Write the tree that `aggregate` returns as ``aggregate.json``: the
    text of ``json.dumps(result, ensure_ascii=False, indent=2)`` and a line
    break, written in one pass over the tree's fixed shape with the
    string escaper and the number reprs that ``json`` uses. A tree holding
    a string no UTF-8 holds raises UnicodeEncodeError, and nothing is
    written: an existing ``aggregate.json`` keeps its bytes."""
    between_runs = ",\n        "
    entries = [
        f'    {encode_basestring(path)}: {{\n      "mean": {entry["mean"]!r},\n'
        f'      "uncertainty": {entry["uncertainty"]!r},\n      "n": {entry["n"]!r},\n'
        f'      "per_run": [\n        {between_runs.join(map(repr, entry["per_run"]))}\n      ]\n    }}'
        for path, entry in result["metrics"].items()
    ]
    metrics = "{\n" + ",\n".join(entries) + "\n  }" if entries else "{}"
    data = (
        f'{{\n  "selection_metric": {encode_basestring(result["selection_metric"])},\n'
        f'  "best_run": {encode_basestring(result["best_run"])},\n  "metrics": {metrics}\n}}\n'
    ).encode("utf-8")  # before the file is opened, so that a failure writes nothing
    path = Path(directory) / "aggregate.json"
    path.write_bytes(data)
    return path

import json
import math
import random
import statistics
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from seqlab.core import AnnotationScheme
from seqlab.errors import DuplicateMetricPath, EmptyRunSet, MissingMetric, NonFiniteMetric
from seqlab.evaluation import evaluate_on_dataset
from seqlab.inference import LexiconTagger
from seqlab.ingest import DatasetSplit, parse_conll
from seqlab.runs import (
    DEFAULT_SELECTION_METRIC,
    RunRecord,
    _stdev,
    aggregate,
    best_model,
    load_runs,
    save_aggregate,
    save_run,
)

from .oracles import oracle_mean_sem, oracle_stdev

METRIC = "strict.micro.entity.f1"


def record(name, seed, f1, extra=None):
    reports = {"strict": {"micro": {"entity": {"f1": f1, "precision": f1}}}}
    if extra:
        reports.update(extra)
    return RunRecord(run_name=name, seed=seed, reports=reports)


class TestAggregate:
    def test_two_runs_mean_and_standard_error(self):
        result = aggregate([record("r0", 0, 0.8), record("r1", 1, 0.9)], METRIC)
        agg = result["metrics"][METRIC]
        assert agg["mean"] == pytest.approx(0.85, abs=1e-12)
        # s = 0.0707106..., s / sqrt(2) = 0.05 exactly
        assert agg["uncertainty"] == pytest.approx(0.05, abs=1e-12)
        assert agg["n"] == 2
        assert agg["per_run"] == [0.8, 0.9]

    def test_single_run_has_zero_uncertainty(self):
        result = aggregate([record("only", 3, 0.7)], METRIC)
        agg = result["metrics"][METRIC]
        assert (agg["mean"], agg["uncertainty"], agg["n"]) == (0.7, 0.0, 1)

    def test_identical_runs_have_zero_uncertainty(self):
        records = [record(f"r{i}", i, 0.6) for i in range(3)]
        agg = aggregate(records, METRIC)["metrics"][METRIC]
        assert (agg["mean"], agg["uncertainty"]) == (0.6, 0.0)

    def test_matches_arithmetic_oracle(self):
        rng = random.Random(31)
        for _ in range(100):
            values = [rng.random() for _ in range(rng.randint(1, 8))]
            records = [record(f"r{i}", i, v) for i, v in enumerate(values)]
            agg = aggregate(records, METRIC)["metrics"][METRIC]
            mean, sem = oracle_mean_sem(values)
            assert agg["mean"] == pytest.approx(mean, abs=1e-12)
            assert agg["uncertainty"] == pytest.approx(sem, abs=1e-12)

    def test_mean_within_run_range(self):
        rng = random.Random(32)
        for _ in range(50):
            values = [rng.random() for _ in range(rng.randint(1, 6))]
            records = [record(f"r{i}", i, v) for i, v in enumerate(values)]
            agg = aggregate(records, METRIC)["metrics"][METRIC]
            assert min(values) <= agg["mean"] <= max(values)

    def test_all_shared_numeric_paths_are_aggregated(self):
        records = [record("a", 0, 0.5), record("b", 1, 0.7)]
        result = aggregate(records, METRIC)
        assert set(result["metrics"]) == {
            "strict.micro.entity.f1",
            "strict.micro.entity.precision",
        }

    def test_empty_run_set(self):
        with pytest.raises(EmptyRunSet):
            aggregate([], METRIC)

    def test_missing_metric(self):
        with pytest.raises(MissingMetric):
            aggregate([record("a", 0, 0.5)], "lenient.micro.entity.f1")

    def test_duplicate_run_names_rejected(self):
        with pytest.raises(ValueError):
            aggregate([record("a", 0, 0.5), record("a", 1, 0.6)], METRIC)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "10**400"]
    )
    def test_non_finite_metric(self, value):
        with pytest.raises(NonFiniteMetric, match="run 'b': metric 'extra.p' is not finite"):
            aggregate([record("a", 0, 0.5), record("b", 1, 0.6, {"extra": {"p": value}})], METRIC)

    @pytest.mark.parametrize(
        "values", [(1.7e308, 1.7e308), (1.7e308, -1.7e308)], ids=["sum", "spread"]
    )
    def test_a_mean_or_spread_too_large_for_a_float(self, values):
        """Finite metrics whose sum or standard deviation overflows a
        float fail naming the path."""
        records = [record(f"r{i}", i, 0.5, {"extra": {"p": v}}) for i, v in enumerate(values)]
        with pytest.raises(NonFiniteMetric, match="metric 'extra.p': .* too large for a float"):
            aggregate(records, METRIC)

    def test_default_selection_metric(self):
        result = aggregate([record("a", 0, 0.5)])
        assert result["selection_metric"] == DEFAULT_SELECTION_METRIC

    def test_colliding_paths_fail_naming_both_key_chains(self):
        """The confusion cells a.b -> c and a -> b.c join to one path;
        neither value is silently kept."""
        confusion = {"confusion": {"a.b": {"c": 1}, "a": {"b.c": 5}}}
        with pytest.raises(DuplicateMetricPath) as excinfo:
            aggregate([record("r0", 0, 0.5, {"strict": {"micro": {"entity": {"f1": 0.5}},
                                                     **confusion}})])
        message = str(excinfo.value)
        assert message.startswith("run 'r0': ")
        assert "['strict', 'confusion', 'a.b', 'c']" in message
        assert "['strict', 'confusion', 'a', 'b.c']" in message
        assert "'strict.confusion.a.b.c'" in message
        with pytest.raises(DuplicateMetricPath):
            best_model([record("r0", 0, 0.5, {"x": {"a.b": 1, "a": {"b": 2}}})], METRIC)


def reference_metrics(records):
    """The aggregation as it was first written: collect every numeric
    path of each tree, look each shared path up again from the root,
    and take fmean and stdev / sqrt(n) of the values, the standard
    deviation exact and correctly rounded (as statistics.stdev gives it
    from Python 3.11 on)."""

    def numeric_paths(tree, prefix=""):
        for key, value in tree.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, dict):
                yield from numeric_paths(value, path)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                yield path

    def lookup(tree, path):
        for part in path.split("."):
            tree = tree[part]
        return float(tree)

    shared = set.intersection(*(set(numeric_paths(r.reports)) for r in records))
    metrics = {}
    for path in sorted(shared):
        values = [lookup(r.reports, path) for r in records]
        n = len(values)
        metrics[path] = {
            "mean": statistics.fmean(values),
            "uncertainty": oracle_stdev(values) / math.sqrt(n) if n > 1 else 0.0,
            "n": n,
            "per_run": values,
        }
    return metrics


# Subnormals, values near the largest float, negatives and mixed exponents.
EXTREME_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.floats(1e307, 1.7976931348623157e308) | st.floats(-1.7976931348623157e308, -1e307),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0, 1.0, 0.1]),
)
RUN_VALUES = st.one_of(
    st.lists(EXTREME_FLOATS, min_size=2, max_size=6),
    # repeated values, from a pool of one to three
    st.lists(EXTREME_FLOATS, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=6)
    ),
)


@settings(max_examples=500, deadline=None)
@given(values=RUN_VALUES)
def test_the_standard_error_is_exact_and_correctly_rounded(values):
    """The standard deviation equals the exact oracle bit for bit, the
    mean equals statistics.fmean, and a value too large for a float
    raises NonFiniteMetric."""
    try:
        expected_stdev = oracle_stdev(values)
    except OverflowError:
        expected_stdev = None
    else:
        assert _stdev(values).hex() == expected_stdev.hex()
    records = [record(f"r{i}", i, v) for i, v in enumerate(values)]
    try:
        expected_mean = statistics.fmean(values)
    except OverflowError:
        expected_mean = None
    if expected_mean is None or expected_stdev is None:
        with pytest.raises(NonFiniteMetric, match=f"metric {METRIC!r}"):
            aggregate(records, METRIC)
        return
    agg = aggregate(records, METRIC)["metrics"][METRIC]
    assert agg["mean"].hex() == expected_mean.hex()
    spread = expected_stdev / math.sqrt(len(values)) if len(set(values)) > 1 else 0.0
    assert agg["uncertainty"].hex() == spread.hex()
    if sys.version_info >= (3, 11):  # statistics.stdev rounds twice before 3.11
        assert _stdev(values).hex() == statistics.stdev(values).hex()


# Few keys and a few recurring values, so that trees share many paths,
# many of them holding one value in every run.
METRIC_LEAVES = st.one_of(
    st.sampled_from([0, 1, 0.25, 0.5, 0.1]),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.integers(-1000, 1000),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
)
REPORT_TREES = st.recursive(
    METRIC_LEAVES,
    lambda children: st.dictionaries(st.sampled_from(["a", "b", "f1"]), children, max_size=3),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(
    trees=st.lists(st.dictionaries(st.sampled_from(["x", "y"]), REPORT_TREES), min_size=1, max_size=4),
    selected=st.lists(st.sampled_from([0.5, 0.75, 0.9]), min_size=4, max_size=4),
)
def test_aggregate_matches_the_reference(trees, selected):
    records = [
        RunRecord(f"r{i}", i, {**tree, "selected": value})
        for i, (tree, value) in enumerate(zip(trees, selected))
    ]
    assert aggregate(records, "selected")["metrics"] == reference_metrics(records)


# Keys with dots, none of which splits into other keys, so no two leaves
# share a path.
DOTTED_TREES = st.recursive(
    METRIC_LEAVES,
    lambda children: st.dictionaries(st.sampled_from(["a", "org.x", "f1"]), children, max_size=3),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(
    trees=st.lists(st.dictionaries(st.sampled_from(["x", "per_class.org.x"]), DOTTED_TREES),
                   min_size=2, max_size=4),
    selected=st.lists(st.sampled_from([0.5, 0.75, 0.9]), min_size=4, max_size=4),
)
def test_the_aggregate_is_the_tree_aggregate_json_holds(trees, selected):
    """aggregate returns a plain dict that reads back equal from the
    aggregate.json that save_aggregate writes."""
    records = [
        RunRecord(f"r{i}", i, {**tree, "selected": value})
        for i, (tree, value) in enumerate(zip(trees, selected))
    ]
    result = aggregate(records, "selected")
    assert type(result) is dict
    with tempfile.TemporaryDirectory() as tmp:
        assert json.loads(save_aggregate(result, tmp).read_text(encoding="utf-8")) == result


def _pinned_bytes(result):
    return (json.dumps(result, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


# Characters that JSON escapes (quote, backslash, control characters),
# that it writes as they are with ensure_ascii=False (non-ASCII, U+2028)
# and the dot that joins metric paths.
AWKWARD_NAMES = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7fé猫 .a'), max_size=4)
# Sums and spreads of these fit a float: overflow has its own tests.
AGGREGATED_VALUES = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False),
    st.sampled_from([-0.0, 0.0, 0.1, 1]),
    st.integers(-10**6, 10**6),
)


@settings(max_examples=200, deadline=None)
@given(
    names=st.lists(AWKWARD_NAMES, min_size=1, max_size=4, unique=True),
    selected=AWKWARD_NAMES,
    data=st.data(),
)
def test_aggregate_json_is_the_indented_dump_of_the_aggregate(names, selected, data):
    """aggregate.json holds the bytes of json.dumps(indent=2) of the tree
    aggregate returns, whatever its paths and run names hold."""
    records = []
    for seed, name in enumerate(names):
        classes = data.draw(st.dictionaries(AWKWARD_NAMES, AGGREGATED_VALUES, max_size=4))
        per_class = {cls: {"f1": value} for cls, value in classes.items()}
        per_class[selected] = {"f1": data.draw(AGGREGATED_VALUES)}
        records.append(RunRecord(name, seed, {"per_class": per_class}))
    result = aggregate(records, f"per_class.{selected}.f1")
    with tempfile.TemporaryDirectory() as tmp:
        assert save_aggregate(result, tmp).read_bytes() == _pinned_bytes(result)


def test_aggregate_json_of_no_metrics_is_the_indented_dump(tmp_path):
    """Every aggregate holds its selection metric; a tree without metrics
    is still written as json.dumps(indent=2) writes it."""
    result = {"selection_metric": "m", "best_run": "r", "metrics": {}}
    assert save_aggregate(result, tmp_path).read_bytes() == _pinned_bytes(result)


def test_aggregate_json_that_cannot_be_encoded_is_not_written(tmp_path):
    """A tree holding a string no UTF-8 holds raises before aggregate.json
    is opened: an existing file keeps its bytes, and none is made."""
    unwritable = aggregate([record("a", 0, 0.5, {"\ud800": 1.0})], METRIC)
    (tmp_path / "kept").mkdir()
    kept = save_aggregate(aggregate([record("a", 0, 0.5)], METRIC), tmp_path / "kept")
    before = kept.read_bytes()
    for directory in (tmp_path / "kept", tmp_path):
        with pytest.raises(UnicodeEncodeError):
            save_aggregate(unwritable, directory)
    assert kept.read_bytes() == before
    assert not (tmp_path / "aggregate.json").exists()


class TestBestModel:
    def test_argmax(self):
        best = best_model([record("lo", 0, 0.8), record("hi", 1, 0.9)], METRIC)
        assert best.run_name == "hi"

    def test_tie_broken_by_lowest_seed(self):
        best = best_model([record("a", 2, 0.9), record("b", 1, 0.9)], METRIC)
        assert best.run_name == "b"

    def test_single_run(self):
        best = best_model([record("only", 5, 0.1)], METRIC)
        assert best.run_name == "only"

    def test_invariant_under_permutation(self):
        rng = random.Random(33)
        records = [record(f"r{i}", i, rng.random()) for i in range(6)]
        expected = best_model(records, METRIC).run_name
        for _ in range(10):
            rng.shuffle(records)
            assert best_model(records, METRIC).run_name == expected

    def test_invariant_under_positive_affine_rescaling(self):
        rng = random.Random(34)
        for _ in range(100):
            values = [rng.random() for _ in range(rng.randint(2, 6))]
            records = [record(f"r{i}", i, v) for i, v in enumerate(values)]
            expected = best_model(records, METRIC).run_name
            scale = rng.uniform(0.1, 10.0)
            shift = rng.uniform(-5.0, 5.0)
            rescaled = [
                record(f"r{i}", i, scale * v + shift) for i, v in enumerate(values)
            ]
            assert best_model(rescaled, METRIC).run_name == expected

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["nan-first", "nan-second"])
    def test_non_finite_selection_value(self, order):
        """A NaN cannot be ordered, so it fails in either record order."""
        pair = [record("a", 0, math.nan), record("b", 1, 0.5)]
        with pytest.raises(NonFiniteMetric, match="run 'a': metric 'strict.micro.entity.f1'"):
            best_model([pair[i] for i in order], METRIC)

    def test_missing_metric(self):
        with pytest.raises(MissingMetric, match="run 'b' has no metric"):
            best_model([record("a", 0, 0.5), RunRecord("b", 1, {"strict": {}})], METRIC)

    def test_dotted_class_name_selects(self):
        """A path whose class name holds a dot names one metric, as in
        aggregate's table."""
        records = [
            record("a", 0, 0.9, {"per_class": {"org.x": {"f1": 0.2}}}),
            record("b", 1, 0.1, {"per_class": {"org.x": {"f1": 0.7}}}),
        ]
        assert best_model(records, "per_class.org.x.f1").run_name == "b"
        assert aggregate(records, "per_class.org.x.f1")["best_run"] == "b"


class TestPersistence:
    def test_save_load_aggregate_round_trip(self, tmp_path):
        run_dir = tmp_path / "runs" / "my_training"
        for i, f1 in enumerate((0.8, 0.9)):
            save_run(record(f"run{i}", i, f1), run_dir)
        records = load_runs(run_dir)
        assert [r.run_name for r in records] == ["run0", "run1"]
        result = aggregate(records, METRIC)
        path = save_aggregate(result, run_dir)
        assert path.name == "aggregate.json"
        # aggregate.json must not be picked up as a run record
        assert [r.run_name for r in load_runs(run_dir)] == ["run0", "run1"]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(EmptyRunSet):
            load_runs(tmp_path / "nope")

    def test_evaluate_on_dataset_results_are_run_reports(self, tmp_path):
        """The library's evaluation result is the tree a run record holds:
        it aggregates as it is, and after a save and load."""
        gold = parse_conll("Ann B-PER\nsings O\n\nin O\nRome B-LOC\n", scheme="BIO")
        split = DatasetSplit("test", gold)
        lexicons = ({"Ann": "PER"}, {"Ann": "PER", "Rome": "LOC"})
        results = [
            evaluate_on_dataset(LexiconTagger(lexicon), split, AnnotationScheme.BIO)
            for lexicon in lexicons
        ]
        records = [RunRecord(f"run{i}", i, result) for i, result in enumerate(results)]
        aggregated = aggregate(records)
        assert aggregated["best_run"] == "run1"
        assert aggregated["metrics"][METRIC]["per_run"] == [2 / 3, 1.0]
        for record in records:
            save_run(record, tmp_path)
        assert aggregate(load_runs(tmp_path)) == aggregated


def numeric_leaves(tree, keys=()):
    """(key chain, value) of every numeric leaf."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from numeric_leaves(value, (*keys, key))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield (*keys, key), value


class EchoOf:
    """Predicts the given labels, one list per document in order."""

    scheme = AnnotationScheme.IO

    def __init__(self, predictions):
        self.predictions = iter(predictions)

    def tag(self, words):
        return [(label, 1.0) for label in next(self.predictions)]


@settings(max_examples=100, deadline=None)
@given(
    classes=st.lists(st.sampled_from(["a", "b", "a.a", "a.b", "b.a", "a.", ".a", "a.a.a"]),
                     min_size=1, max_size=4, unique=True),
    data=st.data(),
)
def test_every_leaf_of_a_dotted_class_report_is_aggregated_once(classes, data):
    """Class names with dots: every numeric leaf of the evaluation report
    appears once in aggregate.json, unless two leaves share a path, and
    then aggregate raises DuplicateMetricPath."""
    labels = st.sampled_from(["O", *(f"I-{cls}" for cls in classes)])
    documents = data.draw(st.lists(st.lists(st.tuples(labels, labels), min_size=1, max_size=5),
                                   min_size=1, max_size=3))
    gold = [parse_conll("".join(f"w{i} {g}\n" for i, (g, _) in enumerate(doc)), scheme="IO")[0]
            for doc in documents]
    tagger = EchoOf([[p for _, p in doc] for doc in documents])
    report = evaluate_on_dataset(tagger, DatasetSplit("test", gold), AnnotationScheme.IO)
    leaves = list(numeric_leaves(report))
    paths = [".".join(chain) for chain, _ in leaves]
    records = [RunRecord("r0", 0, report), RunRecord("r1", 1, report)]
    if len(set(paths)) < len(paths):
        with pytest.raises(DuplicateMetricPath):
            aggregate(records)
        return
    with tempfile.TemporaryDirectory() as tmp:
        written = json.loads(save_aggregate(aggregate(records), tmp).read_text(encoding="utf-8"))
    assert sorted(written["metrics"]) == sorted(paths)
    for path, (_, value) in zip(paths, leaves):
        assert written["metrics"][path]["per_run"] == [value, value]

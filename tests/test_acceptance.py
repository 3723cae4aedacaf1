"""Acceptance suite.

One test per criterion, each printing a PASS line with its timing (run
with ``pytest tests/test_acceptance.py -v -s`` to see them). Tolerances
are asserted exactly as stated, never loosened.
"""

import json
import random
import time
from pathlib import Path

import pytest

from seqlab.cli import main
from seqlab.core import AnnotationScheme, LabelSequence
from seqlab.errors import SeqlabError
from seqlab.evaluation import Chunk, Counts, extract_entities
from seqlab.inference import LexiconTagger, predict
from seqlab.ingest import parse_annotation_tool_export, parse_conll, read_canonical_jsonl
from seqlab.runs import RunRecord, aggregate, best_model
from seqlab.schedule import ScheduleConfig, ScheduleState, initial_state, lr_at, observe_validation
from seqlab.schemes import convert_scheme

from .oracles import all_sequences, encode_layout, oracle_strict_chunks

BIO = AnnotationScheme.BIO
BILOU = AnnotationScheme.BILOU
IO = AnnotationScheme.IO
DATA = Path(__file__).parent / "data"


def seq(raw, scheme):
    return LabelSequence.from_raw(raw, scheme)


def report(number, started, detail):
    print(f"criterion {number} PASS ({time.monotonic() - started:.2f}s): {detail}")


def random_raw_sequence(rng, scheme, classes, max_length=20):
    alphabet = ["O"]
    prefixes = {"IO": "I", "BIO": "BI", "BILOU": "BILU"}[scheme.value]
    for prefix in prefixes:
        alphabet.extend(f"{prefix}-{cls}" for cls in classes)
    return [rng.choice(alphabet) for _ in range(rng.randint(1, max_length))]


def random_layout(rng, n, classes=("A", "B", "C")):
    layout = []
    position = 0
    while position < n:
        if rng.random() < 0.5:
            length = rng.randint(1, min(3, n - position))
            layout.append((rng.choice(classes), position, position + length))
            position += length
        else:
            position += 1
    return layout


def test_criterion_1_strict_lenient_divergence():
    started = time.monotonic()
    dangling = seq(["O", "I-PER"], BIO)
    assert extract_entities(dangling, "strict") == []
    assert len(extract_entities(dangling, "lenient")) == 1

    rng = random.Random(101)
    classes = ("A", "B", "C")
    schemes = (BIO, BILOU, IO)
    for i in range(1000):
        scheme = schemes[i % 3]
        raw = random_raw_sequence(rng, scheme, classes)
        s = seq(raw, scheme)
        assert len(extract_entities(s, "lenient")) >= len(
            extract_entities(s, "strict")
        ), raw
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"
    report(1, started, "strict drops [O, I-PER], lenient recovers it; "
                       "lenient count >= strict count on 1000 random sequences")


def test_criterion_2_oracle_equivalence_exhaustive():
    started = time.monotonic()
    mismatches = 0
    total = 0
    for scheme_name, scheme in (("BIO", BIO), ("BILOU", BILOU)):
        for n in range(6):
            for raw in all_sequences(n, ("A", "B"), scheme_name):
                total += 1
                got = [
                    (c.class_name, c.word_start, c.word_end)
                    for c in extract_entities(seq(list(raw), scheme), "strict")
                ]
                if got != oracle_strict_chunks(raw, scheme_name):
                    mismatches += 1
    assert mismatches == 0
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget is 30s"
    report(2, started, f"strict decoding matches the brute-force oracle on all "
                       f"{total} BIO/BILOU sequences of length <= 5 over 2 classes")


def test_criterion_3_scheme_round_trip():
    started = time.monotonic()
    rng = random.Random(303)
    failures = 0
    for _ in range(10_000):
        n = rng.randint(0, 14)
        raw = encode_layout(random_layout(rng, n), n, "BIO")
        original = seq(list(raw), BIO)
        original_chunks = set(extract_entities(original, "strict"))

        as_bilou = convert_scheme(original, BILOU)
        back = convert_scheme(as_bilou, BIO)
        if back.serialized() != original.serialized():
            failures += 1
        if set(extract_entities(as_bilou, "strict")) != original_chunks:
            failures += 1
        if set(extract_entities(convert_scheme(original, BIO), "strict")) != original_chunks:
            failures += 1

        as_io = convert_scheme(original, IO)
        merged = []
        for chunk in sorted(original_chunks, key=lambda c: c.word_start):
            if (
                merged
                and merged[-1].class_name == chunk.class_name
                and merged[-1].word_end == chunk.word_start
            ):
                merged[-1] = Chunk(chunk.class_name, merged[-1].word_start, chunk.word_end)
            else:
                merged.append(chunk)
        if extract_entities(as_io, "strict") != merged:
            failures += 1
    assert failures == 0
    report(3, started, "BIO->BILOU->BIO identity and chunk preservation on "
                       "10000 generated sequences, IO preserved up to merges")


# gold chunks, predicted chunks, expected
# (micro P, R, F1), macro (P, R, F1), and per-class rows; all hand-computed
SCORING_FIXTURES = [
    (
        [("PER", 0, 2)], [("PER", 0, 2), ("ORG", 3, 4)],
        (0.5, 1.0, 2 / 3), (1.0, 1.0, 1.0),
        {"PER": (1.0, 1.0, 1.0, 1), "ORG": (0.0, 0.0, 0.0, 0)},
    ),
    (
        [("PER", 0, 2), ("ORG", 3, 4)], [("PER", 0, 2), ("ORG", 3, 4)],
        (1.0, 1.0, 1.0), (1.0, 1.0, 1.0),
        {"PER": (1.0, 1.0, 1.0, 1), "ORG": (1.0, 1.0, 1.0, 1)},
    ),
    (
        [("PER", 0, 2)], [("PER", 0, 3)],
        (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
        {"PER": (0.0, 0.0, 0.0, 1)},
    ),
    ([], [], (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), {}),
    (
        [("PER", 0, 1)], [],
        (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
        {"PER": (0.0, 0.0, 0.0, 1)},
    ),
    (
        [], [("PER", 0, 1)],
        (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
        {"PER": (0.0, 0.0, 0.0, 0)},
    ),
    (
        [("A", 0, 1), ("B", 2, 3)], [("A", 0, 1), ("B", 2, 3), ("B", 4, 5)],
        (2 / 3, 1.0, 0.8), (0.75, 1.0, (1.0 + 2 / 3) / 2),
        {"A": (1.0, 1.0, 1.0, 1), "B": (0.5, 1.0, 2 / 3, 1)},
    ),
    (
        [("A", 0, 2), ("A", 3, 5)], [("A", 0, 2), ("A", 4, 6)],
        (0.5, 0.5, 0.5), (0.5, 0.5, 0.5),
        {"A": (0.5, 0.5, 0.5, 2)},
    ),
    (
        [("A", 0, 1), ("A", 2, 3), ("B", 5, 6)], [("B", 5, 6)],
        (1.0, 1 / 3, 0.5), (0.5, 0.5, 0.5),
        {"A": (0.0, 0.0, 0.0, 2), "B": (1.0, 1.0, 1.0, 1)},
    ),
    (
        [("A", 1, 2)], [("B", 1, 2)],
        (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
        {"A": (0.0, 0.0, 0.0, 1), "B": (0.0, 0.0, 0.0, 0)},
    ),
    (
        [("PER", 0, 2), ("LOC", 3, 4), ("ORG", 6, 9)],
        [("PER", 0, 2), ("LOC", 3, 4), ("ORG", 6, 8)],
        (2 / 3, 2 / 3, 2 / 3), (2 / 3, 2 / 3, 2 / 3),
        {"PER": (1.0, 1.0, 1.0, 1), "LOC": (1.0, 1.0, 1.0, 1), "ORG": (0.0, 0.0, 0.0, 1)},
    ),
    (
        [("X", 4, 5)], [("X", 5, 6)],
        (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
        {"X": (0.0, 0.0, 0.0, 1)},
    ),
]


def test_criterion_4_metric_correctness():
    started = time.monotonic()
    assert len(SCORING_FIXTURES) >= 10
    for gold_raw, pred_raw, micro, macro, per_class in SCORING_FIXTURES:
        counts = Counts()
        counts.add_chunks("strict", [Chunk(*c) for c in gold_raw], [Chunk(*c) for c in pred_raw])
        strict = counts.report()["strict"]
        result_micro, result_macro = strict["micro"]["entity"], strict["macro"]["entity"]
        for got, expected in ((result_micro, micro), (result_macro, macro)):
            assert got["precision"] == pytest.approx(expected[0], abs=1e-12)
            assert got["recall"] == pytest.approx(expected[1], abs=1e-12)
            assert got["f1"] == pytest.approx(expected[2], abs=1e-12)
        rows = {cls: row["entity"] for cls, row in strict["per_class"].items()}
        for cls, (p, r, f1, support) in per_class.items():
            row = rows[cls]
            assert row["precision"] == pytest.approx(p, abs=1e-12)
            assert row["recall"] == pytest.approx(r, abs=1e-12)
            assert row["f1"] == pytest.approx(f1, abs=1e-12)
            assert row["support"] == support

        # consistency identities: pooled micro counts and macro means
        supported = [m for m in rows.values() if m["support"] > 0]
        if supported:
            assert result_macro["f1"] == pytest.approx(
                sum(m["f1"] for m in supported) / len(supported), abs=1e-12
            )
        if len(rows) == 1:
            (only,) = rows.values()
            assert (only["precision"], only["recall"], only["f1"]) == (
                result_micro["precision"], result_micro["recall"], result_micro["f1"],
            )
    report(4, started, f"Counts reproduces {len(SCORING_FIXTURES)} "
                       f"hand-computed cases to 1e-12")


def test_criterion_5_inference_offsets():
    started = time.monotonic()
    tagger = LexiconTagger.from_json(DATA / "un_lexicon.json")
    (span,) = predict(tagger, "The United Nations")
    assert span.char_start == 4
    assert span.char_end == 18
    assert span.surface == "United Nations"
    assert span.class_name == "ORG"

    rng = random.Random(505)
    vocabulary = ["United", "Nations", "The", "of", "état", "東京", "a", "Zürich"]
    fuzz_tagger = LexiconTagger(
        {"United": "ORG", "Nations": "ORG", "état": "MISC", "東京": "LOC", "Zürich": "LOC"}
    )
    checked = 0
    for _ in range(1000):
        pieces = []
        for _ in range(rng.randint(1, 15)):
            pieces.append(rng.choice(vocabulary))
            pieces.append(rng.choice([" ", "  ", "\t", "\n"]))
        text = "".join(pieces)
        for result in predict(fuzz_tagger, text):
            assert text[result.char_start : result.char_end] == result.surface
            checked += 1
    assert checked > 1000  # the fuzz actually exercised spans
    report(5, started, "exact 4/18 offsets for 'United Nations'; slice "
                       "invariant held on 1000 fuzzed texts")


def test_criterion_6_schedule_boundaries_and_patience():
    started = time.monotonic()
    cfg = ScheduleConfig(
        max_lr=3e-5, min_lr=1e-6, restart_period_initial=8, max_epochs=1000
    )
    start_state = initial_state(cfg)
    assert lr_at(start_state, cfg) == pytest.approx(cfg.max_lr, abs=1e-12)
    end_state = ScheduleState(cycle_length=8, position_in_cycle=8)
    assert lr_at(end_state, cfg) == pytest.approx(cfg.min_lr, abs=1e-12)
    mid_state = ScheduleState(cycle_length=8, position_in_cycle=4)
    assert lr_at(mid_state, cfg) == pytest.approx(
        (cfg.max_lr + cfg.min_lr) / 2, abs=1e-12
    )

    for patience in range(6):
        patient_cfg = ScheduleConfig(
            max_lr=1.0, restart_period_initial=4, max_epochs=1000,
            early_stop_patience=patience,
        )
        state = initial_state(patient_cfg)
        observations = 0
        while not state.stopped:
            state = observe_validation(state, patient_cfg, 1.0)
            observations += 1
        assert observations == patience + 1, patience
    report(6, started, "cosine boundary values exact to 1e-12; constant-loss "
                       "stream stops after patience+1 observations for p in 0..5")


def test_criterion_7_aggregation():
    started = time.monotonic()

    def record(name, seed, f1):
        return RunRecord(name, seed, {"strict": {"micro": {"entity": {"f1": f1}}}})

    metric = "strict.micro.entity.f1"
    result = aggregate([record("a", 0, 0.8), record("b", 1, 0.9)], metric)
    assert result["metrics"][metric]["mean"] == pytest.approx(0.85, abs=1e-12)
    assert result["metrics"][metric]["uncertainty"] == pytest.approx(0.05, abs=1e-12)

    single = aggregate([record("only", 0, 0.7)], metric)
    assert single["metrics"][metric]["uncertainty"] == 0.0

    rng = random.Random(707)
    for _ in range(100):
        values = [rng.random() for _ in range(rng.randint(2, 8))]
        records = [record(f"r{i}", i, v) for i, v in enumerate(values)]
        expected = best_model(records, metric).run_name
        scale = rng.uniform(0.01, 100.0)
        shift = rng.uniform(-10.0, 10.0)
        rescaled = [
            record(f"r{i}", i, scale * v + shift) for i, v in enumerate(values)
        ]
        assert best_model(rescaled, metric).run_name == expected
    report(7, started, "mean 0.85 +/- 0.05 exact to 1e-12; n=1 uncertainty 0; "
                       "argmax invariant under 100 positive affine rescalings")


def test_criterion_8_end_to_end_pipeline(tmp_path, capsys):
    started = time.monotonic()
    data_dir = str(tmp_path)
    assert main(["--data-dir", data_dir, "dataset", "set-up",
                 "--source", "BI", "--name", "mini-conll"]) == 0
    dataset_dir = tmp_path / "mini-conll"

    converted_dir = tmp_path / "mini-bilou"
    converted_dir.mkdir()
    for split_name in ("train", "val", "test"):
        assert main(["convert", "--from", "BIO", "--to", "BILOU",
                     "--input", str(dataset_dir / f"{split_name}.jsonl"),
                     "--output", str(converted_dir / f"{split_name}.jsonl")]) == 0

    capsys.readouterr()
    assert main(["--data-dir", data_dir, "evaluate",
                 "--tagger", f"echo:{dataset_dir / 'test.jsonl'}",
                 "--dataset", "mini-conll", "--phase", "test"]) == 0
    echo_output = capsys.readouterr().out
    assert "strict entity micro f1 = 1.0000" in echo_output

    assert main(["--data-dir", data_dir, "evaluate", "--tagger", "all-o",
                 "--dataset", "mini-conll", "--phase", "test"]) == 0
    all_o_output = capsys.readouterr().out
    assert "strict entity micro f1 = 0.0000" in all_o_output

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget is 10s"
    report(8, started, "set-up -> convert -> evaluate: echo tagger scores 1.0, "
                       "all-O tagger scores 0.0")


VALID_FIXTURES = [
    ("conll", "EU B-ORG\nrejects O\n\nGermany B-LOC\n. O\n"),
    ("pretokenized", '{"words":["EU","rejects"],"labels":["B-ORG","O"]}\n'
                     '{"words":["Germany"],"labels":["B-LOC"]}\n'),
    ("doccano", '{"text":"The United Nations","label":[[4,18,"ORG"]]}\n'),
    ("labelstudio", json.dumps([{
        "data": {"text": "The United Nations"},
        "annotations": [{"result": [{
            "type": "labels",
            "value": {"start": 4, "end": 18, "labels": ["ORG"]},
        }]}],
    }])),
]


def _parse_fixture(kind, payload):
    if kind == "conll":
        return parse_conll(payload)
    if kind == "pretokenized":
        return read_canonical_jsonl(payload)
    if kind == "doccano":
        return parse_annotation_tool_export(payload, "DoccanoJsonl")
    return parse_annotation_tool_export(payload, "LabelStudioJson")


def test_criterion_9_format_robustness():
    started = time.monotonic()

    # positioned errors name the offending line
    from seqlab.errors import LengthMismatch, RaggedRow, SpanOutOfBounds

    with pytest.raises(RaggedRow) as ragged:
        parse_conll("EU B-ORG\nrejects\n")
    assert ragged.value.line == 2 and "line 2" in str(ragged.value)

    with pytest.raises(LengthMismatch) as mismatched:
        read_canonical_jsonl(
            '{"words":["a"],"labels":["O"]}\n{"words":["a","b"],"labels":["O"]}\n'
        )
    assert mismatched.value.line == 2 and "line 2" in str(mismatched.value)

    with pytest.raises(SpanOutOfBounds) as out_of_bounds:
        parse_annotation_tool_export(
            '{"text":"ok","label":[]}\n{"text":"short","label":[[0,99,"X"]]}\n',
            "DoccanoJsonl",
        )
    assert out_of_bounds.value.line == 2 and "line 2" in str(out_of_bounds.value)

    # fuzz: random byte mutations must never escape the package's errors
    rng = random.Random(909)
    for i in range(10_000):
        kind, payload = VALID_FIXTURES[i % len(VALID_FIXTURES)]
        raw = bytearray(payload.encode("utf-8"))
        for _ in range(rng.randint(1, 4)):
            action = rng.random()
            if action < 0.5 or not raw:
                raw.insert(rng.randrange(len(raw) + 1), rng.randrange(256))
            elif action < 0.8:
                raw[rng.randrange(len(raw))] = rng.randrange(256)
            else:
                del raw[rng.randrange(len(raw))]
        mutated = raw.decode("utf-8", errors="replace")
        try:
            _parse_fixture(kind, mutated)
        except SeqlabError:
            pass  # typed rejection is the contract
    report(9, started, "positioned errors name their line; 10000 byte-level "
                       "mutations produced no unhandled exceptions")

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from seqlab.cli import main
from seqlab.core import AnnotationScheme, Document, EntitySpan, LabelSequence, Word
from seqlab.ingest import document_to_record, parse_conll, save_canonical_jsonl

DATA = Path(__file__).parent / "data"
DEEP = "[" * 100_000  # deeper than the JSON decoder can recurse


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDatasetSetup:
    def test_builtin_creates_canonical_files(self, tmp_path, capsys):
        code, out, _ = run(
            ["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "BI",
             "--name", "mini-conll"],
            capsys,
        )
        assert code == 0
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "analysis.json"):
            assert (tmp_path / "mini-conll" / name).is_file()
        assert '"scheme_detected": "BIO"' in out

    def test_unknown_source_is_a_usage_error(self, tmp_path, capsys):
        code, _, _ = run(
            ["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "XX",
             "--name", "x"],
            capsys,
        )
        assert code == 2

    def test_fraction_applies_ceil_rule(self, tmp_path, capsys):
        source = tmp_path / "data.conll"
        source.write_text("".join(f"w{i} B-X\n\n" for i in range(10)))
        code, _, _ = run(
            ["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "LF",
             "--name", "half", "--path", str(source), "--fraction", "0.5"],
            capsys,
        )
        assert code == 0
        lines = (tmp_path / "half" / "train.jsonl").read_text().splitlines()
        assert len(lines) == 4  # ceil(0.5 * 8)

    def test_presplit_files_share_one_scheme(self, tmp_path, capsys):
        """val alone reads as IO; with train it is BIO, where its dangling
        I-PER is no entity. analysis.json and evaluate agree on that."""
        paths = {}
        for split, rows in [("train", "a B-PER\nb I-PER\n"), ("val", "c O\nd I-PER\n"),
                            ("test", "e B-PER\n")]:
            paths[split] = tmp_path / f"{split}.conll"
            paths[split].write_text(rows)
        code, _, _ = run(
            ["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "LF", "--name", "pre",
             *(f"--{split}-path={path}" for split, path in paths.items())],
            capsys,
        )
        assert code == 0
        dataset_dir = tmp_path / "pre"
        analysis = json.loads((dataset_dir / "analysis.json").read_text())
        assert analysis["scheme_detected"] == "BIO"
        for split in paths:
            code, _, _ = run(
                ["--data-dir", str(tmp_path), "evaluate", "--dataset", "pre", "--phase", split,
                 "--tagger", f"echo:{dataset_dir / f'{split}.jsonl'}"],
                capsys,
            )
            assert code == 0
            per_class = json.loads((dataset_dir / f"eval_{split}.json").read_text())[
                "strict"]["per_class"]
            counted = analysis["entity_counts"][split]
            for cls in {*counted, *per_class}:
                support = per_class.get(cls, {}).get("entity", {}).get("support", 0)
                assert counted.get(cls, 0) == support, (split, cls)

    def test_bad_split_ratio_is_a_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            ["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "LF",
             "--name", "x", "--path", str(tmp_path / "any.conll"), "--split-ratio", "a,b"],
            capsys,
        )
        assert (code, err) == (2, "bad --split-ratio: 'a,b'\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "ratio", ["0.5,0.5,0.5", "0.8,0.1", "inf,0,0", "1e309,0,0", "nan,0,1", "-0.1,0.6,0.5"]
    )
    def test_split_ratio_out_of_the_contract_is_a_usage_error(self, tmp_path, capsys, ratio):
        """Three finite, non-negative numbers that sum to 1; anything else
        exits 2 before the source is read."""
        source = tmp_path / "data.conll"
        source.write_text("a B-X\n\nb O\n")
        before = sorted(tmp_path.rglob("*"))
        code, _, err = run(
            ["--data-dir", str(tmp_path / "data"), "dataset", "set-up", "--source", "LF",
             "--name", "x", "--path", str(source), f"--split-ratio={ratio}"],
            capsys,
        )
        assert (code, err) == (2, f"bad --split-ratio: {ratio!r}\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("ratio", ["-0,0,1", "0.8,0.1,0.1"])
    def test_split_ratio_in_the_contract_sets_up(self, tmp_path, capsys, ratio):
        source = tmp_path / "data.conll"
        source.write_text("a B-X\n\nb O\n")
        code, _, _ = run(
            ["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "LF",
             "--name", "x", "--path", str(source), f"--split-ratio={ratio}"],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "x" / "analysis.json").is_file()

    @pytest.mark.parametrize(
        "name", ["", ".", "..", "../../esc", "a/b", "/abs", "a" + os.sep + "b", "a\0b"]
    )
    def test_name_must_be_one_directory_entry(self, tmp_path, capsys, name):
        """A set-up name is one entry under the data directory: never a
        path that leaves it, nor the data directory itself."""
        data_dir = tmp_path / "deep" / "er" / "data"
        data_dir.mkdir(parents=True)
        code, _, err = run(
            ["--data-dir", str(data_dir), "dataset", "set-up", "--source", "BI", "--name", name],
            capsys,
        )
        assert (code, err) == (2, f"bad --name: {name!r} is not one directory entry\n")
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "deep", tmp_path / "deep" / "er",
                                               data_dir]

    @pytest.mark.parametrize("name", ["mini-conll", "données", "..x", ".hidden"])
    def test_name_may_be_any_other_entry(self, tmp_path, capsys, name):
        source = tmp_path / "data.conll"
        source.write_text("a B-X\n\nb O\n")
        code, _, _ = run(
            ["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "LF", "--name", name,
             "--path", str(source)],
            capsys,
        )
        assert code == 0
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == [
            "analysis.json", "test.jsonl", "train.jsonl", "val.jsonl"]

    def test_missing_path_is_a_data_error(self, tmp_path, capsys):
        code, _, err = run(
            ["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "LF",
             "--name", "x"],
            capsys,
        )
        assert code == 1
        assert "error" in err


class TestConvert:
    def write_bio_fixture(self, path):
        docs = parse_conll("Ada B-PER\nLovelace I-PER\nmet O\nGrace B-PER\n")
        save_canonical_jsonl(docs, path)

    def test_round_trip_is_byte_identical(self, tmp_path, capsys):
        source = tmp_path / "bio.jsonl"
        self.write_bio_fixture(source)
        bilou = tmp_path / "bilou.jsonl"
        back = tmp_path / "back.jsonl"
        code, _, _ = run(
            ["convert", "--from", "BIO", "--to", "BILOU",
             "--input", str(source), "--output", str(bilou)],
            capsys,
        )
        assert code == 0
        code, _, _ = run(
            ["convert", "--from", "BILOU", "--to", "BIO",
             "--input", str(bilou), "--output", str(back)],
            capsys,
        )
        assert code == 0
        assert back.read_bytes() == source.read_bytes()

    def test_inconsistent_input_lists_violations(self, tmp_path, capsys):
        """Problems name the input line, not the document's index."""
        record = '{"words":["a","b"],"labels":["O","I-PER"]}\n'
        source = tmp_path / "bad.jsonl"
        for content, line in [(record, 1), ('\n{"words":["a"],"labels":["O"]}\n' + record, 3)]:
            source.write_text(content)
            code, _, err = run(
                ["convert", "--from", "BIO", "--to", "BILOU",
                 "--input", str(source), "--output", str(tmp_path / "out.jsonl")],
                capsys,
            )
            assert code == 1
            assert err == f"error: line {line}: dangling_inside at position 1\n"

    def test_output_is_the_input_with_converted_labels(self, tmp_path, capsys):
        """Text, words and entities are written as read; only labels change."""
        source = tmp_path / "bio.jsonl"
        doc = Document(
            "Ada Lovelace met Grace",
            words=[Word("Ada", 0, 3), Word("Lovelace", 4, 12), Word("met", 13, 16),
                   Word("Grace", 17, 22)],
            word_labels=LabelSequence.from_raw(["B-PER", "I-PER", "O", "B-PER"],
                                               AnnotationScheme.BIO),
            entities=[EntitySpan("PER", 0, 12, "Ada Lovelace"), EntitySpan("PER", 17, 22, "Grace")],
        )
        save_canonical_jsonl([doc], source)
        target = tmp_path / "bilou.jsonl"
        code, out, _ = run(["convert", "--from", "BIO", "--to", "BILOU", "--input", str(source),
                            "--output", str(target)], capsys)
        assert code == 0 and out == "converted 1 documents BIO -> BILOU\n"
        record = document_to_record(doc)
        record["labels"] = ["B-PER", "L-PER", "O", "U-PER"]
        assert target.read_text() == json.dumps(record, ensure_ascii=False) + "\n"

    def test_record_without_word_labels_writes_nothing(self, tmp_path, capsys):
        source = tmp_path / "in.jsonl"
        source.write_text('{"words": ["a"], "labels": ["B-X"]}\n{"text": "hi"}\n')
        sink = tmp_path / "out.jsonl"
        code, _, err = run(
            ["convert", "--from", "BIO", "--to", "BILOU",
             "--input", str(source), "--output", str(sink)],
            capsys,
        )
        assert (code, err) == (1, "error: line 2: document has no word labels to convert\n")
        assert not sink.exists()

    def test_several_problems_print_one_error_line(self, tmp_path, capsys):
        """The first problem names its line and counts the rest; --verbose
        lists every problem as a DEBUG line before it."""
        source = tmp_path / "in.jsonl"
        source.write_text('{"words": ["a", "b"], "labels": ["O", "I-X"]}\n{"text": "hi"}\n'
                          '{"words": ["a"], "labels": ["I-X"]}\n')
        sink = tmp_path / "out.jsonl"
        argv = ["convert", "--from", "BIO", "--to", "BILOU", "--input", str(source),
                "--output", str(sink)]
        first = "line 1: dangling_inside at position 1 (and 2 more; --verbose lists all)"
        assert run(argv, capsys)[::2] == (1, f"error: {first}\n")
        code, _, err = run(["--verbose", *argv], capsys)
        lines = err.splitlines()
        assert code == 1 and lines[-1] == f"error: {first}"
        assert lines[:3] == ["DEBUG line 1: dangling_inside at position 1",
                             "DEBUG line 2: document has no word labels to convert",
                             "DEBUG line 3: dangling_inside at position 0"]
        assert not sink.exists()

    def test_io_target_warns_about_lossiness(self, tmp_path, capsys):
        source = tmp_path / "bio.jsonl"
        self.write_bio_fixture(source)
        code, _, err = run(
            ["convert", "--from", "BIO", "--to", "IO",
             "--input", str(source), "--output", str(tmp_path / "io.jsonl")],
            capsys,
        )
        assert code == 0
        assert "lossy" in err


class TestEvaluate:
    def test_echo_tagger_scores_one(self, tmp_path, capsys):
        run(["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "BI",
             "--name", "mini-conll"], capsys)
        dataset_dir = tmp_path / "mini-conll"
        code, out, _ = run(
            ["--data-dir", str(tmp_path), "evaluate",
             "--tagger", f"echo:{dataset_dir / 'test.jsonl'}",
             "--dataset", "mini-conll", "--phase", "test"],
            capsys,
        )
        assert code == 0
        assert "strict entity micro f1 = 1.0000" in out
        report = json.loads((dataset_dir / "eval_test.json").read_text())
        assert "strict" in report and "lenient" in report
        assert report["strict"]["micro"]["entity"]["f1"] == 1.0

    def test_stdout_report_equals_report_file(self, tmp_path, capsys):
        run(["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "BI",
             "--name", "mini-conll"], capsys)
        dataset_dir = tmp_path / "mini-conll"
        code, out, _ = run(
            ["--data-dir", str(tmp_path), "evaluate",
             "--tagger", f"echo:{dataset_dir / 'train.jsonl'}", "--dataset", "mini-conll"],
            capsys,
        )
        assert code == 0
        block, summary = out.rsplit("\n", 2)[:2]
        assert summary.startswith("strict entity micro f1 = ")
        assert block + "\n" == (dataset_dir / "eval_test.json").read_text(encoding="utf-8")

    def test_verbose_failure_prints_debug_lines_and_traceback(self, tmp_path, capsys):
        run(["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "BI",
             "--name", "mini-conll"], capsys)
        code, _, err = run(
            ["--verbose", "--data-dir", str(tmp_path), "evaluate",
             "--tagger", f"lexicon:{tmp_path / 'missing.json'}", "--dataset", "mini-conll"],
            capsys,
        )
        assert code == 1
        lines = err.splitlines()
        assert lines[0] == f"DEBUG evaluating test split of {tmp_path / 'mini-conll'}"
        assert lines[1:3] == ["DEBUG failing command: evaluate",
                              "Traceback (most recent call last):"]
        assert "UnloadableTagger" in lines[-2]
        assert [line for line in lines if line.startswith("error: ")] == [lines[-1]]

    def test_all_o_tagger_scores_zero(self, tmp_path, capsys):
        run(["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "BI",
             "--name", "mini-conll"], capsys)
        code, out, _ = run(
            ["--data-dir", str(tmp_path), "evaluate", "--tagger", "all-o",
             "--dataset", "mini-conll", "--phase", "test"],
            capsys,
        )
        assert code == 0
        assert "strict entity micro f1 = 0.0000" in out

    def test_phase_selects_file(self, tmp_path, capsys):
        run(["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "BI",
             "--name", "mini-conll"], capsys)
        dataset_dir = tmp_path / "mini-conll"
        (dataset_dir / "test.jsonl").unlink()
        # val still evaluates; test does not
        code, _, _ = run(
            ["--data-dir", str(tmp_path), "evaluate",
             "--tagger", "all-o", "--dataset", "mini-conll", "--phase", "val"],
            capsys,
        )
        assert code == 0
        code, _, err = run(
            ["--data-dir", str(tmp_path), "evaluate",
             "--tagger", "all-o", "--dataset", "mini-conll", "--phase", "test"],
            capsys,
        )
        assert code == 1

    def test_empty_split_evaluates(self, tmp_path, capsys):
        """Five one-word documents split 0.8/0.1/0.1 leave val empty."""
        source = tmp_path / "five.conll"
        source.write_text("".join(f"w{i} B-X\n\n" for i in range(5)))
        run(["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "LF",
             "--name", "five", "--path", str(source)], capsys)
        assert (tmp_path / "five" / "val.jsonl").read_text() == ""
        code, out, err = run(
            ["--data-dir", str(tmp_path), "evaluate", "--tagger", "all-o",
             "--dataset", "five", "--phase", "val"],
            capsys,
        )
        assert code == 0, err
        assert out.endswith("strict entity micro f1 = 0.0000\n")
        report = json.loads((tmp_path / "five" / "eval_val.json").read_text())
        assert report["strict"]["per_class"] == report["lenient"]["per_class"] == {}


class TestPredict:
    def test_single_text_lists_entity_fields(self, capsys):
        code, out, _ = run(
            ["predict", "--tagger", f"lexicon:{DATA / 'un_lexicon.json'}",
             "--text", "The United Nations"],
            capsys,
        )
        assert code == 0
        predictions = json.loads(out)
        assert predictions == [
            {"char_start": 4, "char_end": 18, "token": "United Nations", "tag": "ORG"}
        ]

    def test_word_level_with_probabilities(self, capsys):
        code, out, _ = run(
            ["predict", "--tagger", f"lexicon:{DATA / 'un_lexicon.json'}",
             "--text", "The United Nations", "--level", "word", "--probabilities"],
            capsys,
        )
        assert code == 0
        predictions = json.loads(out)
        assert len(predictions) == 3
        assert all("probability" in p for p in predictions)

    def test_file_mode_alignment(self, tmp_path, capsys):
        source = tmp_path / "in.jsonl"
        source.write_text(
            "".join(json.dumps({"text": f"line {i}"}) + "\n" for i in range(3))
        )
        sink = tmp_path / "out.jsonl"
        code, out, _ = run(
            ["predict", "--tagger", "all-o", "--input", str(source),
             "--output", str(sink)],
            capsys,
        )
        assert code == 0
        assert "processed=3 failed=0" in out
        assert len(sink.read_text().splitlines()) == 3

    def test_text_and_input_are_mutually_exclusive(self, capsys):
        code, _, _ = run(
            ["predict", "--tagger", "all-o", "--text", "x", "--input", "y"],
            capsys,
        )
        assert code == 2

    def test_file_mode_needs_output(self, tmp_path, capsys):
        source = tmp_path / "in.jsonl"
        source.write_text('{"text": "x"}\n')
        code, out, err = run(["predict", "--tagger", "all-o", "--input", str(source)], capsys)
        assert (code, out, err) == (2, "", "file mode needs --output\n")

    def test_output_that_is_the_input_is_refused(self, tmp_path, capsys):
        source = tmp_path / "in.jsonl"
        source.write_text('{"text": "x"}\n')
        for output in (source, tmp_path / "." / "in.jsonl"):
            code, out, err = run(["predict", "--tagger", "all-o", "--input", str(source),
                                  "--output", str(output)], capsys)
            assert (code, out) == (1, "")
            assert err.startswith("error: output file ") and err.count("\n") == 1
            assert source.read_text() == '{"text": "x"}\n'

    def test_bad_tagger_uri_fails_cleanly(self, capsys):
        code, _, err = run(
            ["predict", "--tagger", "hub:whatever", "--text", "x"], capsys
        )
        assert code == 1
        assert "cannot load tagger" in err


class TestScheduleSimulate:
    def test_constant_losses_patience_zero_gives_one_row(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "max_lr": 1.0, "restart_period_initial": 4, "max_epochs": 10,
            "early_stop_patience": 0, "val_losses": [1.0, 1.0, 1.0],
        }))
        out_csv = tmp_path / "out.csv"
        code, _, _ = run(
            ["schedule", "simulate", "--config", str(cfg), "--output", str(out_csv)],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        assert len(rows) == 1
        assert rows[0]["epoch"] == "1" and rows[0]["stopped"] == "true"

    def test_preset_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "adaptive", "max_epochs": 4}))
        losses = tmp_path / "losses.json"
        losses.write_text(json.dumps([0.9, 0.8, 0.7, 0.6, 0.5]))
        code, out, _ = run(
            ["schedule", "simulate", "--config", str(cfg), "--losses", str(losses)],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "epoch,lr,stopped"
        assert len(lines) == 5  # header + 4 epochs

    def test_bad_config_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "bogus"}))
        code, _, err = run(
            ["schedule", "simulate", "--config", str(cfg)], capsys
        )
        assert code == 2
        assert "bad schedule config" in err

    def test_config_not_an_object_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run(["schedule", "simulate", "--config", str(cfg)], capsys)
        assert (code, err) == (2, "bad schedule config: schedule config must be a JSON object\n")

    @pytest.mark.parametrize(
        "config, losses, message",
        [(DEEP, "[1.0]", "line 1: invalid JSON"),
         ('{"max_lr": 1.0, "restart_period_initial": 4}', '["a"]', "could not convert"),
         ('{"preset": "stable"}', "[1.0, NaN]", "every loss must be a finite number")],
        ids=["nested-config", "non-numeric-loss", "nan-loss"],
    )
    def test_unreadable_input_is_a_usage_error(self, tmp_path, capsys, config, losses, message):
        (tmp_path / "cfg.json").write_text(config)
        (tmp_path / "losses.json").write_text(losses)
        code, _, err = run(["schedule", "simulate", "--config", str(tmp_path / "cfg.json"),
                            "--losses", str(tmp_path / "losses.json")], capsys)
        assert code == 2
        assert err.startswith(f"bad schedule config: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "config, message",
        [({"preset": "stable", "max_lr": -1}, "max_lr must be > 0$"),
         ({"preset": "stable", "warmup": 0.1}, "ScheduleConfig.*'warmup'"),
         ({"max_lr": 1.0, "warmup": 0.1}, "ScheduleConfig.*'warmup'")],
        ids=["preset-override-checked", "preset-unknown-key", "unknown-key"],
    )
    def test_invalid_config_is_a_usage_error(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**config, "val_losses": [1.0]}))
        code, _, err = run(["schedule", "simulate", "--config", str(cfg)], capsys)
        assert code == 2
        assert re.match(f"bad schedule config: {message}", err.strip())


class TestAggregateCommand:
    def write_run(self, directory, name, seed, f1):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.json").write_text(json.dumps({
            "run_name": name, "seed": seed,
            "reports": {"strict": {"micro": {"entity": {"f1": f1}}}},
            "artifacts_path": "",
        }))

    def test_two_runs(self, tmp_path, capsys):
        run_dir = tmp_path / "runs" / "my_training"
        self.write_run(run_dir, "run0", 0, 0.8)
        self.write_run(run_dir, "run1", 1, 0.9)
        code, out, _ = run(["aggregate", "--runs-dir", str(run_dir)], capsys)
        assert code == 0
        assert "0.8500 +/- 0.0500" in out
        assert "best run: run1" in out
        payload = json.loads((run_dir / "aggregate.json").read_text())
        assert payload["metrics"]["strict.micro.entity.f1"]["mean"] == pytest.approx(0.85)

    def test_dotted_class_name(self, tmp_path, capsys):
        """A class name may hold a dot; its metric paths still aggregate,
        and select the best run."""
        run_dir = tmp_path / "runs"
        run_dir.mkdir()
        for seed, (f1, org_f1) in enumerate([(0.5, 0.6), (0.7, 0.2)]):
            (run_dir / f"r{seed}.json").write_text(json.dumps({
                "run_name": f"r{seed}", "seed": seed,
                "reports": {"strict": {"micro": {"entity": {"f1": f1}},
                                       "per_class": {"org.x": {"entity": {"f1": org_f1}}}}},
            }))
        code, out, _ = run(["aggregate", "--runs-dir", str(run_dir)], capsys)
        assert code == 0
        assert "best run: r1" in out
        payload = json.loads((run_dir / "aggregate.json").read_text())
        metric = "strict.per_class.org.x.entity.f1"
        assert payload["metrics"][metric]["mean"] == pytest.approx(0.4)
        assert payload["metrics"][metric]["per_run"] == [0.6, 0.2]
        code, out, err = run(["aggregate", "--runs-dir", str(run_dir),
                              "--selection-metric", metric], capsys)
        assert code == 0, err
        assert out == f"{metric}: 0.4000 +/- 0.2000 (n=2), best run: r0\n"

    def test_every_listed_path_selects(self, tmp_path, capsys):
        """Each path aggregate.json lists is a valid --selection-metric and
        picks the run with the highest value there, ties to the lowest seed."""
        run_dir = tmp_path / "runs"
        run_dir.mkdir()
        seeds = {"a": 5, "b": 2, "c": 9}
        values = {"a": (0.5, 0.3, 1, 0.0), "b": (0.5, 0.8, 1, 0.4), "c": (0.4, 0.8, 2, 0.4)}
        for name, (f1, org, support, per) in values.items():
            (run_dir / f"{name}.json").write_text(json.dumps({
                "run_name": name, "seed": seeds[name],
                "reports": {"strict": {
                    "micro": {"entity": {"f1": f1, "support": 3}},
                    "per_class": {"org.x": {"entity": {"f1": org, "support": support}},
                                  "B-PER": {"word.level": {"f1": per}}},
                }},
            }))
        assert run(["aggregate", "--runs-dir", str(run_dir)], capsys)[0] == 0
        metrics = json.loads((run_dir / "aggregate.json").read_text())["metrics"]
        assert len(metrics) == 5
        names = sorted(values)
        for path, aggregated in metrics.items():
            code, out, err = run(["aggregate", "--runs-dir", str(run_dir),
                                  "--selection-metric", path], capsys)
            assert code == 0, err
            expected = max(zip(aggregated["per_run"], names), key=lambda p: (p[0], -seeds[p[1]]))
            assert out.endswith(f"best run: {expected[1]}\n"), path

    def test_missing_run_dir(self, tmp_path, capsys):
        code, _, err = run(
            ["aggregate", "--runs-dir", str(tmp_path / "none")], capsys
        )
        assert code == 1


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert run([], capsys)[0] == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 2


def bad_lexicon(tmp_path):
    main(["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "BI",
          "--name", "mini-conll"])
    (tmp_path / "bad.json").write_text("{bad json")
    return ["--data-dir", str(tmp_path), "evaluate", "--tagger",
            f"lexicon:{tmp_path / 'bad.json'}", "--dataset", "mini-conll"]


def missing_input(tmp_path):
    return ["convert", "--from", "BIO", "--to", "BILOU", "--input",
            str(tmp_path / "missing.jsonl"), "--output", str(tmp_path / "out.jsonl")]


def non_utf8(tmp_path):
    (tmp_path / "bad.conll").write_bytes(b"EU B-ORG\n\xff\xfe O\n")
    return ["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "LF",
            "--name", "x", "--path", str(tmp_path / "bad.conll")]


def bad_label_jsonl(tmp_path):
    ok = '{"words":["a"],"labels":["O"]}\n'
    return set_up_file(tmp_path, "bad.jsonl", ok * 2 + '{"words":["a"],"labels":["PER"]}\n')


def bad_label_conll(tmp_path):
    return set_up_file(tmp_path, "bad.conll", "EU B-ORG\n\nin O\nParis X-PER\n")


def run_without_name(tmp_path):
    (tmp_path / "runs").mkdir()
    (tmp_path / "runs" / "a.json").write_text(json.dumps(
        {"seed": 0, "reports": {"strict": {"micro": {"entity": {"f1": 1.0}}}}}))
    return ["aggregate", "--runs-dir", str(tmp_path / "runs")]


def run_name_not_a_string(tmp_path):
    (tmp_path / "runs").mkdir()
    (tmp_path / "runs" / "a.json").write_text(json.dumps(
        {"run_name": [], "seed": 0, "reports": {"strict": {"micro": {"entity": {"f1": 1.0}}}}}))
    return ["aggregate", "--runs-dir", str(tmp_path / "runs")]


def empty_entity_label(tmp_path):
    (tmp_path / "at.jsonl").write_text('{"text":"ab","label":[[0,1,""]]}\n')
    return ["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "AT",
            "--name", "x", "--path", str(tmp_path / "at.jsonl")]


def non_string_entity_label(tmp_path):
    (tmp_path / "at.jsonl").write_text(
        '{"text":"abc def","label":[]}\n{"text":"abc def","label":[[0,3,5]]}\n'
    )
    return ["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "AT",
            "--name", "x", "--path", str(tmp_path / "at.jsonl")]


def non_integer_entity_offsets(tmp_path):
    (tmp_path / "at.jsonl").write_text(
        '{"text":"abc def","label":[]}\n{"text":"abc def","label":[[true,3.9,"X"]]}\n'
    )
    return ["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "AT",
            "--name", "x", "--path", str(tmp_path / "at.jsonl")]


def non_integer_word_offsets(tmp_path):
    word = '{"surface":"abc","start":0,"end":3}'
    bad = '{"surface":"abc","start":false,"end":3.5}'
    return set_up_file(tmp_path, "words.jsonl", (
        f'{{"text":"abc","words":[{word}],"labels":["B-X"]}}\n'
        f'{{"text":"abc","words":[{bad}],"labels":["B-X"]}}\n'
    ))


def set_up_file(tmp_path, name, content):
    (tmp_path / name).write_text(content)
    return ["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "LF",
            "--name", "x", "--path", str(tmp_path / name)]


def nested_jsonl(tmp_path):
    return set_up_file(tmp_path, "deep.jsonl", '{"words":["a"],"labels":["O"]}\n' + DEEP)


def nested_labelstudio(tmp_path):
    return set_up_file(tmp_path, "deep.json", DEEP)


def long_integer_jsonl(tmp_path):
    return set_up_file(tmp_path, "long.jsonl", '{"text": "a", "n": ' + "1" * 5000 + "}\n")


LONE_SURROGATE = '{"words":["a"],"labels":["O"]}\n{"words":["Ann","\\ud800"],"labels":["B-PER","O"]}\n'


def lone_surrogate_set_up(tmp_path):
    (tmp_path / "lone.jsonl").write_text(LONE_SURROGATE)
    return ["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "HF",
            "--name", "x", "--path", str(tmp_path / "lone.jsonl")]


def lone_surrogate_convert(tmp_path):
    (tmp_path / "lone.jsonl").write_text(LONE_SURROGATE)
    return ["convert", "--from", "BIO", "--to", "BILOU", "--input", str(tmp_path / "lone.jsonl"),
            "--output", str(tmp_path / "out.jsonl")]


def nested_run_record(tmp_path):
    (tmp_path / "runs").mkdir()
    (tmp_path / "runs" / "a.json").write_text(DEEP)
    return ["aggregate", "--runs-dir", str(tmp_path / "runs")]


def nested_lexicon(tmp_path):
    main(["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "BI",
          "--name", "mini-conll"])
    (tmp_path / "deep.json").write_text(DEEP)
    return ["--data-dir", str(tmp_path), "evaluate", "--tagger",
            f"lexicon:{tmp_path / 'deep.json'}", "--dataset", "mini-conll"]


def duplicate_run_names(tmp_path):
    (tmp_path / "runs").mkdir()
    for file_name in ("a.json", "b.json"):
        (tmp_path / "runs" / file_name).write_text(json.dumps({
            "run_name": "r", "seed": 0,
            "reports": {"strict": {"micro": {"entity": {"f1": 1.0}}}}}))
    return ["aggregate", "--runs-dir", str(tmp_path / "runs")]


def write_run_records(tmp_path, *precisions):
    (tmp_path / "runs").mkdir()
    for name, precision in zip("abc", precisions):
        (tmp_path / "runs" / f"{name}.json").write_text(
            '{"run_name": "%s", "seed": 0, "reports": {"strict": {"micro": {"entity":'
            ' {"f1": 1.0, "precision": %s}}}}}' % (name, precision))
    return ["aggregate", "--runs-dir", str(tmp_path / "runs")]


def colliding_metric_paths(tmp_path):
    """The confusion cells a.b -> c and a -> b.c have one dotted path."""
    (tmp_path / "runs").mkdir()
    reports = {"strict": {"micro": {"entity": {"f1": 1.0}},
                          "confusion": {"a.b": {"c": 1}, "a": {"b.c": 5}}}}
    (tmp_path / "runs" / "a.json").write_text(json.dumps(
        {"run_name": "a", "seed": 0, "reports": reports}))
    return ["aggregate", "--runs-dir", str(tmp_path / "runs")]


def non_finite_metric(tmp_path):
    return write_run_records(tmp_path, "1.0", "NaN", "Infinity")


def metric_too_large_for_a_float(tmp_path):
    return write_run_records(tmp_path, "1.0", "1" + "0" * 400)


class TestErrorBoundary:
    """Bad input anywhere ends as one "error: ..." line and exit code 1."""

    @pytest.mark.parametrize(
        "case",
        [bad_lexicon, missing_input, non_utf8, run_without_name, run_name_not_a_string,
         empty_entity_label, nested_jsonl, nested_labelstudio, long_integer_jsonl,
         nested_run_record, nested_lexicon, duplicate_run_names, bad_label_jsonl, bad_label_conll,
         non_string_entity_label, non_integer_entity_offsets, non_integer_word_offsets,
         non_finite_metric, metric_too_large_for_a_float, colliding_metric_paths,
         lone_surrogate_set_up, lone_surrogate_convert],
    )
    def test_exits_one_with_error_line(self, tmp_path, capsys, case):
        argv = case(tmp_path)
        capsys.readouterr()
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", ["1.9", "true", '"3"'])
    def test_seed_must_be_a_json_integer(self, tmp_path, capsys, seed):
        """A seed is not read as the integer it converts to: 1.9 and true
        would both rank as seed 1 in the tie break."""
        runs = tmp_path / "runs"
        runs.mkdir()
        reports = '{"strict": {"micro": {"entity": {"f1": 1.0}}}}'
        (runs / "a.json").write_text(f'{{"run_name": "a", "seed": {seed}, "reports": {reports}}}')
        (runs / "b.json").write_text(f'{{"run_name": "b", "seed": 2, "reports": {reports}}}')
        code, _, err = run(["aggregate", "--runs-dir", str(runs)], capsys)
        assert code == 1
        assert err.startswith("error: bad run record") and err.count("\n") == 1
        assert "a.json" in err and "is not a JSON integer" in err
        assert not (runs / "aggregate.json").exists()

    def test_line_breaks_in_a_message_stay_on_one_line(self, tmp_path, capsys):
        """A message may quote input; its line breaks are written as \\n."""
        code, _, err = run(set_up_file(tmp_path, "a.conll", "x O\n")[:-1] + [
            str(tmp_path / "a\nb.conll")], capsys)
        assert code == 1 and err.count("\n") == 1 and "a\\nb.conll" in err
        config = tmp_path / "schedule.json"
        config.write_text('{"max\\rlr": 0.1, "val_losses": [1.0]}')
        code, _, err = run(["schedule", "simulate", "--config", str(config)], capsys)
        assert code == 2 and err.count("\n") == 1 and "max\\nlr" in err

    def test_non_utf8_error_names_the_line(self, tmp_path, capsys):
        """Set-up errors name their line, the scheme detected or not."""
        for case, line in [(non_utf8, 2), (bad_label_jsonl, 3), (bad_label_conll, 4),
                           (non_string_entity_label, 2), (non_integer_entity_offsets, 2),
                           (non_integer_word_offsets, 2), (lone_surrogate_set_up, 2),
                           (lone_surrogate_convert, 2)]:
            directory = tmp_path / case.__name__
            directory.mkdir()
            code, _, err = run(case(directory), capsys)
            assert code == 1
            assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "analysis", ['{"scheme": "BIO"}', '{"scheme_detected": "XYZ"}', DEEP],
        ids=["no-scheme-key", "unknown-scheme", "nested"],
    )
    def test_analysis_without_usable_scheme_evaluates(self, tmp_path, capsys, analysis):
        """evaluate falls back to detecting the scheme from the split."""
        main(["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "BI",
              "--name", "mini-conll"])
        (tmp_path / "mini-conll" / "analysis.json").write_text(analysis)
        code, out, err = run(["--data-dir", str(tmp_path), "evaluate", "--tagger", "all-o",
                              "--dataset", "mini-conll"], capsys)
        assert code == 0 and err == ""
        assert "strict entity micro f1 = 0.0000" in out

    def test_annotation_tool_export_evaluates(self, tmp_path, capsys):
        """Entities next to punctuation ("Paris3.") set up and evaluate."""
        export = tmp_path / "export.jsonl"
        export.write_text("".join(
            json.dumps({"text": f"I love Paris{i}.", "label": [[7, 13, "LOC"]]}) + "\n"
            for i in range(10)
        ))
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps({f"Paris{i}": "LOC" for i in range(10)}))
        code, _, _ = run(["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "AT",
                          "--name", "at", "--path", str(export)], capsys)
        assert code == 0
        code, out, _ = run(["--data-dir", str(tmp_path), "evaluate", "--tagger",
                            f"lexicon:{lexicon}", "--dataset", "at", "--phase", "train"], capsys)
        assert code == 0
        assert "strict entity micro f1 = 1.0000" in out

    def test_whitespace_at_entity_edge_evaluates(self, tmp_path, capsys):
        """A span that covers the spaces before "Paris" is trimmed at set-up."""
        export = tmp_path / "export.jsonl"
        export.write_text(json.dumps({"text": "I love  Paris now", "label": [[6, 13, "LOC"]]}))
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps({"Paris": "LOC"}))
        code, _, _ = run(["--data-dir", str(tmp_path), "dataset", "set-up", "--source", "AT",
                          "--name", "at", "--path", str(export)], capsys)
        assert code == 0
        code, _, err = run(["--data-dir", str(tmp_path), "evaluate", "--tagger",
                            f"lexicon:{lexicon}", "--dataset", "at"], capsys)
        assert code == 0, err
        report = json.loads((tmp_path / "at" / "eval_test.json").read_text())
        assert report["strict"]["per_class"]["LOC"]["entity"]["f1"] == 1.0


def test_start_up_loads_no_module_only_some_commands_use():
    """Every command pays for what `import seqlab.cli` loads. dataclasses
    (with inspect, ast and dis) and logging (with traceback and tokenize)
    are not used at all; statistics and csv are imported by the one
    command that uses each. `-S` keeps site-packages out, so the import
    also needs nothing beyond the standard library."""
    src = Path(__file__).parents[1] / "src"
    unused = "{'dataclasses', 'statistics', 'csv', 'logging'}"
    probe = f"import sys, seqlab.cli; print(sorted({unused} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"

"""The bytes of the JSON files seqlab writes, pinned.

`evaluate`, `dataset set-up` and `aggregate` each write one tree as
``json.dumps(tree, ensure_ascii=False, indent=2)`` and print it or a
line from it. The expected texts fix key order and float arithmetic, so
a rewrite of the code that builds a tree must leave them unchanged.

The fixed evaluation covers every part of the report's layout: two gold
classes, strict and lenient counts that differ, a class that only the
tagger predicts, a gold class with zero strict entity support (its only
chunk opens with I-) and the word confusion matrix. The set-ups cover a
pre-split pretokenized source (``"seed": null``) and an unsplit
annotation-tool export split with a seed, an empty split included. The
aggregate covers three runs, a dotted class name as the selection metric,
a tie on it broken by the lower seed, paths whose values differ and a
path whose values are equal (uncertainty ``0.0``).
"""

import json

import pytest

from seqlab import cli, evaluation, ingest, ranges, runs
from seqlab.cli import main

# one test splits an evaluate, one a set-up, across forked children
pytestmark = pytest.mark.forks

GOLD = [
    (["Ann", "Lee", "met", "Bob"], ["B-PER", "I-PER", "O", "B-PER"]),
    (["in", "Rome", "today"], ["O", "B-LOC", "O"]),
    (["the", "Acme", "deal"], ["O", "I-ORG", "O"]),
]
PREDICTED = [
    ["B-PER", "I-PER", "O", "I-PER"],
    ["O", "B-LOC", "B-MISC"],
    ["O", "B-ORG", "O"],
]

EXPECTED = """\
{
  "strict": {
    "micro": {
      "entity": {
        "precision": 0.5,
        "recall": 0.6666666666666666,
        "f1": 0.5714285714285715
      },
      "word": {
        "precision": 0.8333333333333334,
        "recall": 1.0,
        "f1": 0.9090909090909091
      }
    },
    "macro": {
      "entity": {
        "precision": 1.0,
        "recall": 0.75,
        "f1": 0.8333333333333333
      },
      "word": {
        "precision": 1.0,
        "recall": 1.0,
        "f1": 1.0
      }
    },
    "per_class": {
      "LOC": {
        "entity": {
          "precision": 1.0,
          "recall": 1.0,
          "f1": 1.0,
          "support": 1
        },
        "word": {
          "precision": 1.0,
          "recall": 1.0,
          "f1": 1.0,
          "support": 1
        }
      },
      "MISC": {
        "entity": {
          "precision": 0.0,
          "recall": 0.0,
          "f1": 0.0,
          "support": 0
        },
        "word": {
          "precision": 0.0,
          "recall": 0.0,
          "f1": 0.0,
          "support": 0
        }
      },
      "ORG": {
        "entity": {
          "precision": 0.0,
          "recall": 0.0,
          "f1": 0.0,
          "support": 0
        },
        "word": {
          "precision": 1.0,
          "recall": 1.0,
          "f1": 1.0,
          "support": 1
        }
      },
      "PER": {
        "entity": {
          "precision": 1.0,
          "recall": 0.5,
          "f1": 0.6666666666666666,
          "support": 2
        },
        "word": {
          "precision": 1.0,
          "recall": 1.0,
          "f1": 1.0,
          "support": 3
        }
      }
    },
    "confusion": {
      "LOC": {
        "LOC": 1,
        "MISC": 0,
        "O": 0,
        "ORG": 0,
        "PER": 0
      },
      "MISC": {
        "LOC": 0,
        "MISC": 0,
        "O": 0,
        "ORG": 0,
        "PER": 0
      },
      "O": {
        "LOC": 0,
        "MISC": 1,
        "O": 4,
        "ORG": 0,
        "PER": 0
      },
      "ORG": {
        "LOC": 0,
        "MISC": 0,
        "O": 0,
        "ORG": 1,
        "PER": 0
      },
      "PER": {
        "LOC": 0,
        "MISC": 0,
        "O": 0,
        "ORG": 0,
        "PER": 3
      }
    }
  },
  "lenient": {
    "micro": {
      "entity": {
        "precision": 0.8,
        "recall": 1.0,
        "f1": 0.888888888888889
      }
    },
    "macro": {
      "entity": {
        "precision": 1.0,
        "recall": 1.0,
        "f1": 1.0
      }
    },
    "per_class": {
      "LOC": {
        "entity": {
          "precision": 1.0,
          "recall": 1.0,
          "f1": 1.0,
          "support": 1
        }
      },
      "MISC": {
        "entity": {
          "precision": 0.0,
          "recall": 0.0,
          "f1": 0.0,
          "support": 0
        }
      },
      "ORG": {
        "entity": {
          "precision": 1.0,
          "recall": 1.0,
          "f1": 1.0,
          "support": 1
        }
      },
      "PER": {
        "entity": {
          "precision": 1.0,
          "recall": 1.0,
          "f1": 1.0,
          "support": 2
        }
      }
    }
  }
}"""


def _lines(pairs):
    out = []
    for surfaces, labels in pairs:
        words, position = [], 0
        for surface in surfaces:
            words.append({"surface": surface, "start": position, "end": position + len(surface)})
            position += len(surface) + 1
        record = {"text": " ".join(surfaces), "words": words, "labels": labels, "entities": None}
        out.append(json.dumps(record) + "\n")
    return "".join(out)


def test_evaluate_writes_the_pinned_report(tmp_path, capsys):
    dataset = tmp_path / "pinned"
    dataset.mkdir()
    (dataset / "test.jsonl").write_text(_lines(GOLD), encoding="utf-8")
    predicted = tmp_path / "predicted.jsonl"
    predicted.write_text(
        _lines((surfaces, labels) for (surfaces, _), labels in zip(GOLD, PREDICTED)),
        encoding="utf-8",
    )
    out = tmp_path / "report.json"
    assert main(["evaluate", "--tagger", f"echo:{predicted}", "--dataset", str(dataset),
                 "--output", str(out)]) == 0
    written = out.read_text(encoding="utf-8")
    assert written == EXPECTED + "\n"
    report = json.loads(written)
    assert json.dumps(report, ensure_ascii=False, indent=2) == EXPECTED
    assert capsys.readouterr().out == EXPECTED + "\nstrict entity micro f1 = 0.5714\n"


def test_a_split_evaluate_writes_the_pinned_report(tmp_path, capsys, monkeypatch):
    """The same evaluation, its three records counted in three ranges, one
    in this process and two in forked children, writes the same bytes."""
    dataset = tmp_path / "pinned"
    dataset.mkdir()
    (dataset / "test.jsonl").write_text(_lines(GOLD), encoding="utf-8")
    (dataset / "analysis.json").write_text('{"scheme_detected": "BIO"}', encoding="utf-8")
    predicted = tmp_path / "predicted.jsonl"
    predicted.write_text(
        _lines((surfaces, labels) for (surfaces, _), labels in zip(GOLD, PREDICTED)),
        encoding="utf-8",
    )
    monkeypatch.setattr(ranges, "_EVALUATE_MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 3)
    with open(dataset / "test.jsonl", "rb") as src:
        assert len(ranges._ranges(src, 3, 1)) == 3
    here = []  # the first line of each range counted in this process
    original = evaluation._evaluate_range

    def counted(src, dst, lineno, size, **kwargs):
        here.append(lineno)
        return original(src, dst, lineno, size, **kwargs)

    monkeypatch.setattr(evaluation, "_evaluate_range", counted)
    out = tmp_path / "report.json"
    assert main(["evaluate", "--tagger", f"echo:{predicted}", "--dataset", str(dataset),
                 "--output", str(out)]) == 0
    assert here == [1]  # the other two ranges were counted in children
    assert out.read_text(encoding="utf-8") == EXPECTED + "\n"
    assert capsys.readouterr().out == EXPECTED + "\nstrict entity micro f1 = 0.5714\n"


TRAIN = "Ann B-PER\nLee L-PER\nvisited O\nRome U-LOC\n\nThe O\nAcme B-ORG\nCorp L-ORG\ngrew O\n\n"
VAL = "Bob U-PER\nleft O\n\n"
TEST = "Paris U-LOC\nand O\nRome U-LOC\n\n"
EXPORT = [
    {"text": "Ann met Bob in Rome", "label": [[0, 3, "PER"], [8, 11, "PER"], [15, 19, "LOC"]]},
    {"text": "Acme hired Lee", "label": [[0, 4, "ORG"], [11, 14, "PER"]]},
    {"text": "nothing here", "label": []},
    {"text": "Paris is big", "label": [[0, 5, "LOC"]]},
    {"text": "Bob and Ann", "label": [[0, 3, "PER"], [8, 11, "PER"]]},
]

EXPECTED_PRESPLIT_ANALYSIS = """\
{
  "num_documents": {
    "train": 2,
    "val": 1,
    "test": 1
  },
  "num_words": {
    "train": 8,
    "val": 2,
    "test": 3
  },
  "entity_counts": {
    "train": {
      "LOC": 1,
      "ORG": 1,
      "PER": 1
    },
    "val": {
      "PER": 1
    },
    "test": {
      "LOC": 2
    }
  },
  "scheme_detected": "BILOU",
  "pretokenized": true,
  "seed": null
}"""

EXPECTED_UNSPLIT_ANALYSIS = """\
{
  "num_documents": {
    "train": 3,
    "val": 1,
    "test": 1
  },
  "num_words": {
    "train": 0,
    "val": 0,
    "test": 0
  },
  "entity_counts": {
    "train": {
      "LOC": 2,
      "PER": 4
    },
    "val": {
      "ORG": 1,
      "PER": 1
    },
    "test": {}
  },
  "scheme_detected": "BIO",
  "pretokenized": false,
  "seed": 7
}"""

EXPECTED_AGGREGATE = """\
{
  "selection_metric": "strict.per_class.org.x.entity.f1",
  "best_run": "run-b",
  "metrics": {
    "strict.micro.entity.f1": {
      "mean": 0.6166666666666667,
      "uncertainty": 0.0726483157256779,
      "n": 3,
      "per_run": [
        0.5,
        0.75,
        0.6
      ]
    },
    "strict.per_class.org.x.entity.f1": {
      "mean": 0.4166666666666667,
      "uncertainty": 0.08333333333333333,
      "n": 3,
      "per_run": [
        0.25,
        0.5,
        0.5
      ]
    },
    "strict.per_class.org.x.entity.support": {
      "mean": 3.0,
      "uncertainty": 0.0,
      "n": 3,
      "per_run": [
        3.0,
        3.0,
        3.0
      ]
    }
  }
}"""


def _set_up(tmp_path, capsys, name, seed, options):
    """The analysis.json and stdout of one `dataset set-up`, and its directory."""
    data = tmp_path / "data"
    assert main(["--data-dir", str(data), "--seed", seed, "dataset", "set-up", "--name", name,
                 *options]) == 0
    out_dir = data / name
    return (out_dir / "analysis.json").read_text(encoding="utf-8"), capsys.readouterr().out, out_dir


def test_a_pre_split_set_up_writes_and_prints_the_pinned_analysis(tmp_path, capsys):
    for split, text in (("train", TRAIN), ("val", VAL), ("test", TEST)):
        (tmp_path / f"{split}.conll").write_text(text, encoding="utf-8")
    written, printed, out_dir = _set_up(tmp_path, capsys, "presplit", "42", [
        "--source", "LF", "--train-path", str(tmp_path / "train.conll"),
        "--val-path", str(tmp_path / "val.conll"), "--test-path", str(tmp_path / "test.conll"),
    ])
    assert written == EXPECTED_PRESPLIT_ANALYSIS + "\n"
    assert printed == f"wrote canonical dataset to {out_dir}\n" + EXPECTED_PRESPLIT_ANALYSIS + "\n"


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_a_split_pre_split_set_up_writes_and_prints_the_pinned_analysis(
    tmp_path, capsys, monkeypatch, processes
):
    """The same pre-split set-up, with the least input of a set-up process
    made 1 byte and ``processes`` CPUs, so that its three files may be read
    in groups across forked children, writes and prints the same analysis
    and the same split files as one process."""
    for split, text in (("train", TRAIN), ("val", VAL), ("test", TEST)):
        (tmp_path / f"{split}.conll").write_text(text, encoding="utf-8")
    options = [
        "--source", "LF", "--train-path", str(tmp_path / "train.conll"),
        "--val-path", str(tmp_path / "val.conll"), "--test-path", str(tmp_path / "test.conll"),
    ]
    _, _, one_dir = _set_up(tmp_path, capsys, "one", "42", options)
    monkeypatch.setattr(ranges, "_SET_UP_MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(cli, "_cpu_count", lambda: processes)
    written, printed, out_dir = _set_up(tmp_path, capsys, "presplit", "42", options)
    assert written == EXPECTED_PRESPLIT_ANALYSIS + "\n"
    assert printed == f"wrote canonical dataset to {out_dir}\n" + EXPECTED_PRESPLIT_ANALYSIS + "\n"
    for split in ("train", "val", "test"):
        assert (out_dir / f"{split}.jsonl").read_bytes() == (one_dir / f"{split}.jsonl").read_bytes()


def test_an_unsplit_set_up_writes_and_prints_the_pinned_analysis(tmp_path, capsys):
    export = tmp_path / "export.jsonl"
    export.write_text("".join(json.dumps(r) + "\n" for r in EXPORT), encoding="utf-8")
    written, printed, out_dir = _set_up(tmp_path, capsys, "unsplit", "7", [
        "--source", "AT", "--path", str(export), "--split-ratio", "0.6,0.2,0.2",
    ])
    assert written == EXPECTED_UNSPLIT_ANALYSIS + "\n"
    assert printed == f"wrote canonical dataset to {out_dir}\n" + EXPECTED_UNSPLIT_ANALYSIS + "\n"


def test_a_split_set_up_writes_and_prints_the_pinned_analysis(tmp_path, capsys, monkeypatch):
    """The same unsplit set-up, its five records read, checked and written
    in three ranges, one in this process and two in forked children,
    writes and prints the same analysis and the same split files."""
    export = tmp_path / "export.jsonl"
    export.write_text("".join(json.dumps(r) + "\n" for r in EXPORT), encoding="utf-8")
    _, _, one_dir = _set_up(tmp_path, capsys, "one", "7", [
        "--source", "AT", "--path", str(export), "--split-ratio", "0.6,0.2,0.2",
    ])
    monkeypatch.setattr(ranges, "_SET_UP_MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 3)
    with open(export, "rb") as src:
        assert len(ranges._ranges(src, 3, 1)) == 3
    here = []  # the first line of each range read in this process
    original = ingest._set_up_range

    def read(src, dst, lineno, size, **kwargs):
        here.append(lineno)
        return original(src, dst, lineno, size, **kwargs)

    monkeypatch.setattr(ingest, "_set_up_range", read)
    written, printed, out_dir = _set_up(tmp_path, capsys, "unsplit", "7", [
        "--source", "AT", "--path", str(export), "--split-ratio", "0.6,0.2,0.2",
    ])
    assert here == [1]  # the other two ranges were read in children
    assert written == EXPECTED_UNSPLIT_ANALYSIS + "\n"
    assert printed == f"wrote canonical dataset to {out_dir}\n" + EXPECTED_UNSPLIT_ANALYSIS + "\n"
    for split in ("train", "val", "test"):
        assert (out_dir / f"{split}.jsonl").read_bytes() == (one_dir / f"{split}.jsonl").read_bytes()


def _report(micro_f1, class_f1, support):
    return {"strict": {"micro": {"entity": {"f1": micro_f1}},
                       "per_class": {"org.x": {"entity": {"f1": class_f1, "support": support}}}}}


def test_aggregate_writes_the_pinned_tree_and_line(tmp_path, capsys):
    for name, seed, report in (
        ("run-a", 1, _report(0.5, 0.25, 3)),
        ("run-b", 2, _report(0.75, 0.5, 3)),
        ("run-c", 3, _report(0.6, 0.5, 3)),
    ):
        runs.save_run(runs.RunRecord(name, seed, report), tmp_path)
    assert main(["aggregate", "--runs-dir", str(tmp_path),
                 "--selection-metric", "strict.per_class.org.x.entity.f1"]) == 0
    assert (tmp_path / "aggregate.json").read_text(encoding="utf-8") == EXPECTED_AGGREGATE + "\n"
    assert capsys.readouterr().out == (
        "strict.per_class.org.x.entity.f1: 0.4167 +/- 0.0833 (n=3), best run: run-b\n"
    )

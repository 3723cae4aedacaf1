"""The bytes of one evaluation report, pinned.

`evaluate` writes ``json.dumps(report, ensure_ascii=False, indent=2)``.
This fixed evaluation covers every part of the layout: two gold classes,
strict and lenient counts that differ, a class that only the tagger
predicts, a gold class with zero strict entity support (its only chunk
opens with I-) and the word confusion matrix. The expected text fixes
key order and float arithmetic, so a rewrite of the report builder must
leave it unchanged.
"""

import json

from seqlab import cli, ranges
from seqlab.cli import main

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
    monkeypatch.setattr(cli, "_EVALUATE_MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 3)
    with open(dataset / "test.jsonl", "rb") as src:
        assert len(ranges._ranges(src, 3, 1)) == 3
    here = []  # the first line of each range counted in this process
    original = cli._evaluate_range

    def counted(src, dst, lineno, size, **kwargs):
        here.append(lineno)
        return original(src, dst, lineno, size, **kwargs)

    monkeypatch.setattr(cli, "_evaluate_range", counted)
    out = tmp_path / "report.json"
    assert main(["evaluate", "--tagger", f"echo:{predicted}", "--dataset", str(dataset),
                 "--output", str(out)]) == 0
    assert here == [1]  # the other two ranges were counted in children
    assert out.read_text(encoding="utf-8") == EXPECTED + "\n"
    assert capsys.readouterr().out == EXPECTED + "\nstrict entity micro f1 = 0.5714\n"

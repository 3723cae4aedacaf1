"""Any word-labeled dataset that `dataset set-up` accepts also evaluates.

Hypothesis builds CoNLL files and pretokenized JSONL (with or without a
"text" that puts runs of whitespace between the words), labeled in IO,
BIO or BILOU with scheme violations left in, with class names that hold
hyphens and dots, as one unsplit file or as three pre-split files. Each
dataset is set up, and every non-empty split is evaluated by an `echo:`
tagger of that split's own canonical file. Word sequences are distinct
within a split, because the echo tagger keys its labels by them.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from seqlab.cli import main

SPLITS = ("train", "val", "test")
PREFIXES = {"IO": "I", "BIO": "BI", "BILOU": "BILU"}
WORDS = st.text(alphabet="ab.,-\u00e9\u4e2d", min_size=1, max_size=3)
CLASSES = st.text(alphabet="Px.-", min_size=1, max_size=3)
WHITESPACE = " \t\n\u00a0\u3000"


def words_of(document):
    return tuple(word for word, _ in document)


@st.composite
def files(draw, documents, max_size):
    """One dataset file: (suffix, content)."""
    docs = draw(st.lists(documents, min_size=1, max_size=max_size, unique_by=words_of))
    kind = draw(st.sampled_from(["conll", "jsonl", "jsonl-text"]))
    if kind == "conll":
        separator = draw(st.sampled_from([" ", "\t", "  "]))
        lines = ["".join(f"{w}{separator}{label}\n" for w, label in doc) for doc in docs]
        return ".conll", "\n".join(lines)
    records = []
    for doc in docs:
        words = words_of(doc)
        record = {"words": words, "labels": [label for _, label in doc]}
        if kind == "jsonl-text":
            gaps = draw(st.lists(st.text(WHITESPACE, min_size=1, max_size=3),
                                 min_size=len(doc) - 1, max_size=len(doc) - 1))
            edge = st.text(WHITESPACE, max_size=2)
            lead, trail = draw(edge), draw(edge)
            record["text"] = lead + "".join(w + gap for w, gap in zip(words, [*gaps, ""])) + trail
        records.append(json.dumps(record, ensure_ascii=False) + "\n")
    return ".jsonl", "".join(records)


@st.composite
def datasets(draw):
    """(files, split ratio, seed): three pre-split files with ratio and
    seed None, or one unsplit file."""
    family = draw(st.sampled_from(sorted(PREFIXES)))
    classes = draw(st.lists(CLASSES, min_size=1, max_size=3, unique=True))
    entity = st.builds("{}-{}".format, st.sampled_from(PREFIXES[family]), st.sampled_from(classes))
    documents = st.lists(st.tuples(WORDS, st.one_of(st.just("O"), entity)), min_size=1, max_size=5)
    if draw(st.booleans()):
        return [draw(files(documents, 4)) for _ in SPLITS], None, None
    ratio = draw(st.sampled_from(["0.8,0.1,0.1", "0.5,0.25,0.25", "0.6,0,0.4"]))
    return [draw(files(documents, 10))], ratio, draw(st.integers(0, 99))


def quiet_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(dataset=datasets())
def test_every_split_set_up_accepts_evaluates(dataset):
    sources, ratio, seed = dataset
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = []
        for name, (suffix, content) in zip(SPLITS, sources):
            paths.append(root / f"{name}{suffix}")
            paths[-1].write_text(content, encoding="utf-8")
        if ratio is None:
            layout = [arg for split, path in zip(SPLITS, paths)
                      for arg in (f"--{split}-path", str(path))]
        else:
            layout = ["--path", str(paths[0]), "--split-ratio", ratio]
        code, err = quiet_main(["--data-dir", tmp, "--seed", str(seed or 0), "dataset", "set-up",
                                "--source", "LF", "--name", "ds", *layout])
        assert code == 0, err
        dataset_dir = root / "ds"
        analysis = json.loads((dataset_dir / "analysis.json").read_text(encoding="utf-8"))
        for split in SPLITS:
            if not analysis["num_documents"][split]:
                continue
            echo = f"echo:{dataset_dir / f'{split}.jsonl'}"
            code, err = quiet_main(["evaluate", "--tagger", echo, "--dataset", str(dataset_dir),
                                    "--phase", split])
            assert code == 0, err
            report = json.loads((dataset_dir / f"eval_{split}.json").read_text(encoding="utf-8"))
            strict = report["strict"]
            counts = analysis["entity_counts"][split]
            if counts:
                assert strict["micro"]["entity"]["f1"] == 1.0
            support = {cls: row["entity"]["support"] for cls, row in strict["per_class"].items()}
            assert {cls: n for cls, n in support.items() if n} == counts

"""Any dataset that `dataset set-up` accepts also evaluates.

Word-labeled gold: hypothesis builds CoNLL files and pretokenized JSONL
(with or without a "text" that puts runs of whitespace between the
words), labeled in IO, BIO or BILOU with scheme violations left in, with
class names that hold hyphens and dots, as one unsplit file or as three
pre-split files. Each dataset is set up, and every non-empty split is
evaluated by an `echo:` tagger of that split's own canonical file. Word
sequences are distinct within a split, because the echo tagger keys its
labels by them.

Entity-only gold: hypothesis builds Doccano and LabelStudio exports
whose spans have punctuation attached, whitespace at their edges or
inside, or hold whitespace only, as one unsplit export or three
pre-split ones. Every non-empty split is evaluated through
`evaluate_on_dataset` by a tagger that echoes the gold entities, in BIO,
on the words that evaluation cuts at entity boundaries.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from typing import Sequence

from hypothesis import given, settings, strategies as st

from seqlab.cli import main
from seqlab.core import AnnotationScheme, Word
from seqlab.evaluation import _cut_at, evaluate_on_dataset
from seqlab.inference import split_words
from seqlab.ingest import load_split

SPLITS = ("train", "val", "test")
PREFIXES = {"IO": "I", "BIO": "BI", "BILOU": "BILU"}
WORDS = st.text(alphabet="ab.,-\u00e9\u4e2d", min_size=1, max_size=3)
CLASSES = st.text(alphabet="Px.-", min_size=1, max_size=3)
WHITESPACE = " \t\n\u00a0\u3000"
RATIOS = st.sampled_from(["0.8,0.1,0.1", "0.5,0.25,0.25", "0.6,0,0.4"])


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
    return [draw(files(documents, 10))], draw(RATIOS), draw(st.integers(0, 99))


def quiet_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


def set_up(root, sources, ratio, seed, *options):
    """Write the files and set them up as dataset "ds": its directory and
    analysis."""
    paths = []
    for name, (suffix, content) in zip(SPLITS, sources):
        paths.append(root / f"{name}{suffix}")
        paths[-1].write_text(content, encoding="utf-8")
    if ratio is None:
        layout = [arg for split, path in zip(SPLITS, paths) for arg in (f"--{split}-path", str(path))]
    else:
        layout = ["--path", str(paths[0]), "--split-ratio", ratio]
    code, err = quiet_main(["--data-dir", str(root), "--seed", str(seed or 0), "dataset", "set-up",
                            "--name", "ds", *options, *layout])
    assert code == 0, err
    analysis = json.loads((root / "ds" / "analysis.json").read_text(encoding="utf-8"))
    return root / "ds", analysis


def assert_scores_every_entity(strict, counts):
    """Strict F1 1.0 where set-up counted entities, and per-class support
    equal to its counts."""
    if counts:
        assert strict["micro"]["entity"]["f1"] == 1.0
    support = {cls: row["entity"]["support"] for cls, row in strict["per_class"].items()}
    assert {cls: n for cls, n in support.items() if n} == counts


@settings(max_examples=100, deadline=None)
@given(dataset=datasets())
def test_every_split_set_up_accepts_evaluates(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        dataset_dir, analysis = set_up(Path(tmp), *dataset, "--source", "LF")
        for split in SPLITS:
            if not analysis["num_documents"][split]:
                continue
            echo = f"echo:{dataset_dir / f'{split}.jsonl'}"
            code, err = quiet_main(["evaluate", "--tagger", echo, "--dataset", str(dataset_dir),
                                    "--phase", split])
            assert code == 0, err
            report = json.loads((dataset_dir / f"eval_{split}.json").read_text(encoding="utf-8"))
            assert_scores_every_entity(report["strict"], analysis["entity_counts"][split])


FILLER = st.text(alphabet="ab.,()\u00e9 \t\n\u00a0\u3000", max_size=4)
ENTITY_TEXT = st.text(alphabet="PQ.,()-\u4e2d \u00a0\n", min_size=1, max_size=6)


@st.composite
def entity_documents(draw, classes):
    """(text, [(start, end, class), ...]): spans in order, maybe adjacent."""
    text, spans = "", []
    for filler, entity, cls in draw(st.lists(st.tuples(FILLER, ENTITY_TEXT, classes), max_size=4)):
        text += filler
        spans.append((len(text), len(text) + len(entity), cls))
        text += entity
    return text + draw(FILLER), spans


def export(dialect, documents):
    """(suffix, content) of one annotation-tool export."""
    if dialect == "doccano":
        return ".jsonl", "".join(
            json.dumps({"text": text, "label": [list(span) for span in spans]}) + "\n"
            for text, spans in documents
        )
    tasks = [
        {"data": {"text": text}, "annotations": [{"result": [
            {"type": "labels", "value": {"start": start, "end": end, "labels": [cls]}}
            for start, end, cls in spans
        ]}]}
        for text, spans in documents
    ]
    return ".json", json.dumps(tasks)


@st.composite
def exports(draw):
    """(dialect, files, split ratio, seed), as `datasets` draws them."""
    dialect = draw(st.sampled_from(["doccano", "labelstudio"]))
    documents = entity_documents(st.sampled_from(draw(st.lists(CLASSES, min_size=1, max_size=3))))
    if draw(st.booleans()):
        files = [export(dialect, draw(st.lists(documents, min_size=1, max_size=4)))
                 for _ in SPLITS]
        return dialect, files, None, None
    files = [export(dialect, draw(st.lists(documents, min_size=1, max_size=10)))]
    return dialect, files, draw(RATIOS), draw(st.integers(0, 99))


def _split_at_entities(text: str, words: Sequence[Word], entities) -> tuple[Word, ...]:
    """Words cut at every entity boundary strictly inside one; every
    piece is an exact text slice."""
    cuts = sorted({e.char_start for e in entities} | {e.char_end for e in entities})
    pieces = _cut_at([w[1:] for w in words], cuts)
    return tuple(Word(text[a:b], a, b) for a, b in pieces)


class EntityEcho:
    """Tags each document, in split order, with its gold entities in BIO
    on the words evaluation scores: whitespace-split words cut at every
    entity boundary."""

    scheme = AnnotationScheme.BIO

    def __init__(self, documents):
        self.documents = iter(documents)

    def tag(self, surfaces):
        doc = next(self.documents)
        words = _split_at_entities(doc.text, split_words(doc.text), doc.entities)
        assert [word.surface for word in words] == list(surfaces)
        labels, inside = [], None
        for word in words:
            entity = next((e for e in doc.entities
                           if e.char_start <= word.char_start and word.char_end <= e.char_end), None)
            if entity is None:
                labels.append("O")
            else:
                labels.append(f"{'I' if entity is inside else 'B'}-{entity.class_name}")
            inside = entity
        return [(label, 1.0) for label in labels]


@settings(max_examples=100, deadline=None)
@given(dataset=exports(), name_dialect=st.booleans())
def test_every_split_of_an_annotation_tool_export_evaluates(dataset, name_dialect):
    dialect, *dataset = dataset
    options = ["--source", "AT", *(["--dialect", dialect] if name_dialect else [])]
    with tempfile.TemporaryDirectory() as tmp:
        dataset_dir, analysis = set_up(Path(tmp), *dataset, *options)
        scheme = AnnotationScheme.coerce(analysis["scheme_detected"])
        for phase in SPLITS:
            if not analysis["num_documents"][phase]:
                continue
            split = load_split(dataset_dir, phase, scheme=scheme)
            report = evaluate_on_dataset(EntityEcho(split.documents), split, scheme)
            assert_scores_every_entity(report["strict"], analysis["entity_counts"][phase])

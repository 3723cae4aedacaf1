"""Seeded inputs for the benchmark workloads, plus what each output check needs.

Everything comes from ``random.Random(seed)``; seqlab only ever sees the
written files. Expected results are derived from how the inputs were built
(planted chunks, planted prediction errors, planted malformed lines), never
by running seqlab's own decoders.

A workload is a ``Workload``: the files to hand to the CLI, the gold
documents keyed by their word tuple, and one ``Tagger`` per evaluation run
with the labels it will predict for every document and the strict/lenient
counts those labels must score.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

CONLL_CLASSES = ("PER", "ORG", "LOC", "MISC")

# The 66 fine-grained Few-NERD types; hyphens inside class names exercise
# the first-hyphen label split.
FEWNERD_CLASSES = tuple(
    f"{coarse}-{fine}"
    for coarse, fines in (
        ("art", "broadcastprogram film music other painting writtenart"),
        ("building", "airport hospital hotel library other restaurant sportsfacility theater"),
        ("event", "attack/battle/war/militaryconflict disaster election other protest sportsevent"),
        ("location", "GPE bodiesofwater island mountain other park road/railway/highway/transit"),
        ("organization", "company education government/governmentagency media/newspaper other "
                         "politicalparty religion showorganization sportsleague sportsteam"),
        ("other", "astronomything award biologything chemicalthing currency disease "
                  "educationaldegree god language law livingthing medical"),
        ("person", "actor artist/author athlete director other politician scholar soldier"),
        ("product", "airplane car food game other ship software train weapon"),
    )
    for fine in fines.split()
)
assert len(FEWNERD_CLASSES) == 66
# A large test split, so one evaluation scores as many words as a CoNLL run.
FEWNERD_SPLIT = (0.6, 0.1, 0.3)

SYLLABLES = (
    "ka lo mi ter san vo ri del un po zé bra qu ø ni as tu ge mo li "
    "fa ra ven dor el im sk ü wa ho ce ja ib ox ly"
).split()
PUNCT_AFTER = (",", ".", ";", ":", "!", "?", ")", "'s")
PUNCT_BEFORE = ("(", '"', "¿")
# Predict input comes as several files, one command each, so every run
# times the predict commands as often as the evaluate ones.
PREDICT_SHARDS = 3
# `--data-dir` of every command, relative to the work dir; `set-up` writes
# the workload's dataset under DATA_DIR/<workload name>.
DATA_DIR = "data"
SEPARATORS = (" ", " ", " ", " ", "  ", "\t", " ")

Chunk = tuple  # (class_name, word_start, word_end), end exclusive


def encode(chunks, length: int, scheme: str) -> list[str]:
    """Label strings for well-formed, non-overlapping chunks."""
    labels = ["O"] * length
    for cls, start, end in chunks:
        if scheme == "BILOU":
            if end - start == 1:
                labels[start] = f"U-{cls}"
                continue
            labels[end - 1] = f"L-{cls}"
            end -= 1
        labels[start] = f"B-{cls}"
        for i in range(start + 1, end):
            labels[i] = f"I-{cls}"
    return labels


def word_class(label: str) -> str:
    return "O" if label == "O" else label.split("-", 1)[1]


def lexicon_runs(words, lexicon) -> list[Chunk]:
    """Maximal runs of consecutive words the lexicon maps to one class."""
    runs = []
    i = 0
    while i < len(words):
        cls = lexicon.get(words[i])
        if cls is None:
            i += 1
            continue
        j = i + 1
        while j < len(words) and lexicon.get(words[j]) == cls:
            j += 1
        runs.append((cls, i, j))
        i = j
    return runs


class Counts:
    """Per-class [tp, fp, fn] for the strict and the lenient mode."""

    def __init__(self):
        self.strict: dict[str, list[int]] = {}
        self.lenient: dict[str, list[int]] = {}

    def add(self, mode: str, cls: str, which: int, n: int = 1):
        getattr(self, mode).setdefault(cls, [0, 0, 0])[which] += n

    def both(self, cls: str, which: int):
        self.add("strict", cls, which)
        self.add("lenient", cls, which)

    def merge(self, other: "Counts"):
        for mode in ("strict", "lenient"):
            for cls, values in getattr(other, mode).items():
                for which, n in enumerate(values):
                    self.add(mode, cls, which, n)


TP, FP, FN = 0, 1, 2


@dataclass
class Doc:
    words: tuple[str, ...]
    chunks: tuple[Chunk, ...]
    labels: list[str] = field(default_factory=list)  # gold, in the corpus scheme


@dataclass
class Tagger:
    """One evaluation run: the tagger URI and what it predicts per document."""

    name: str
    uri: str
    labels: dict  # word tuple -> predicted label strings
    counts: dict  # word tuple -> Counts planted for that document


@dataclass
class PredictLine:
    """One line of a `predict --input` file and what its output must be."""

    raw: str
    text: str | None  # None: planted malformed line
    words: list = field(default_factory=list)  # (surface, char_start, char_end)
    tags: list = field(default_factory=list)  # word-level label strings
    entities: list = field(default_factory=list)  # (class, char_start, char_end)


@dataclass
class Workload:
    name: str
    scheme: str  # gold scheme of the labeled documents
    other_scheme: str  # convert target; converting back must restore gold
    setup_args: list  # arguments after `dataset set-up`, minus name/data-dir
    split_sizes: dict  # split -> (docs, words or None if unknown) in analysis.json
    setup_words: int  # words in analysis.json over all splits
    entity_counts: Counter  # class -> planted entities across all splits
    docs: dict  # word tuple -> Doc, every labeled document
    convert_source: str  # labeled file to convert, relative to the work dir
    eval_dataset: str  # dataset directory to evaluate, relative to the work dir
    taggers: list
    predict_lexicon: dict
    predict_scheme: str
    predict_lines: list
    predict_shards: list = field(default_factory=list)  # predict_lines, one list per file
    sizes: dict = field(default_factory=dict)


class Vocabulary:
    """Unique pseudo-words: lowercase fillers, capitalised entity words."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def word(self, capital: bool) -> str:
        while True:
            w = "".join(self.rng.choice(SYLLABLES) for _ in range(self.rng.randint(1, 3)))
            if capital:
                w = w[:1].upper() + w[1:]
            if w not in self.used and w[:1].isupper() == capital:
                self.used.add(w)
                return w

    def mentions(self, classes, per_class: int) -> dict[str, list[tuple[str, ...]]]:
        out = {}
        for cls in classes:
            out[cls] = [
                tuple(self.word(True) for _ in range(self.rng.choice((1, 1, 2, 2, 3))))
                for _ in range(per_class)
            ]
        return out


def _sentence(rng, length, fillers, mentions, classes, entity_rate):
    """Words and chunks; chunks are always separated by at least one O word."""
    words: list[str] = []
    chunks: list[Chunk] = []
    after_entity = False
    while len(words) < length:
        if not after_entity and rng.random() < entity_rate:
            cls = rng.choice(classes)
            mention = rng.choice(mentions[cls])
            chunks.append((cls, len(words), len(words) + len(mention)))
            words.extend(mention)
            after_entity = True
        else:
            words.append(rng.choice(fillers))
            after_entity = False
    return tuple(words), tuple(chunks)


def _corpus(rng, n_words, mean_len, fillers, mentions, classes, entity_rate, scheme,
            docs: dict | None = None):
    """Documents up to a word budget, so every seed gives the same amount of work.

    `docs` (word tuple -> Doc) collects every document made so far; a word
    sequence is never used twice, because echo taggers key predictions by it.
    """
    docs = {} if docs is None else docs
    order = []
    total = 0
    while total < n_words:
        length = min(4 * mean_len, max(1, round(rng.gammavariate(2.0, mean_len / 2))))
        words, chunks = _sentence(rng, length, fillers, mentions, classes, entity_rate)
        if words in docs:
            continue
        doc = Doc(words, chunks, encode(chunks, len(words), scheme))
        docs[words] = doc
        order.append(doc)
        total += len(words)
    return order


def _echo_prediction(rng, doc: Doc, classes, scheme) -> tuple[list[str], Counts]:
    """Seeded prediction errors with their strict and lenient effects.

    Every edited chunk and every inserted label has O on both sides, so
    each planted error changes the counts in a known way:
    keep (tp/tp), drop (fn/fn), class swap (fp+fn/fp+fn), broken
    boundary (fn/tp: strict drops it, lenient recovers it), spurious
    well-formed chunk (fp/fp), spurious dangling label (-/fp).
    """
    labels = list(doc.labels)
    counts = Counts()
    for cls, start, end in doc.chunks:
        r = rng.random()
        if r < 0.68:
            counts.both(cls, TP)
        elif r < 0.76:
            labels[start:end] = ["O"] * (end - start)
            counts.both(cls, FN)
        elif r < 0.84:
            other = rng.choice([c for c in classes if c != cls])
            labels[start:end] = encode([(other, start, end)], end, scheme)[start:end]
            counts.both(other, FP)
            counts.both(cls, FN)
        else:
            if scheme == "BIO":
                labels[start] = f"I-{cls}"  # chunk opened by I
            elif end - start == 1:
                labels[start] = f"B-{cls}"  # U written as an unclosed B
            else:
                labels[end - 1] = f"I-{cls}"  # chunk never closed by L
            counts.add("strict", cls, FN)
            counts.add("lenient", cls, TP)
    gold = doc.labels
    n = len(gold)
    blocked = set()
    for i in range(n):
        if gold[i] != "O" or i in blocked:
            continue
        if (i > 0 and gold[i - 1] != "O") or (i + 1 < n and gold[i + 1] != "O"):
            continue
        if rng.random() >= 0.04:
            continue
        cls = rng.choice(classes)
        if rng.random() < 0.5:
            labels[i] = f"{'U' if scheme == 'BILOU' else 'B'}-{cls}"
            counts.both(cls, FP)
        else:
            prefix = rng.choice(("I", "L")) if scheme == "BILOU" else "I"
            labels[i] = f"{prefix}-{cls}"
            counts.add("lenient", cls, FP)
        blocked.update((i - 1, i + 1))
    return labels, counts


def _lexicon_counts(doc: Doc, predicted: list[Chunk]) -> Counts:
    """Exact-match counts of well-formed predictions (strict == lenient)."""
    counts = Counts()
    gold = set(doc.chunks)
    pred = set(predicted)
    for cls, _, _ in pred & gold:
        counts.both(cls, TP)
    for cls, _, _ in pred - gold:
        counts.both(cls, FP)
    for cls, _, _ in gold - pred:
        counts.both(cls, FN)
    return counts


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False))
            handle.write("\n")


def _lexicon(mentions) -> dict[str, str]:
    return {w: cls for cls, ms in mentions.items() for m in ms for w in m}


def _predict_lines(rng, texts, lexicon, scheme, malformed_rate) -> list[PredictLine]:
    """Predict input lines with exact expected offsets; some planted malformed."""
    bad_lines = (
        "not json at all",
        "[1, 2, 3]",
        '{"txt": "misspelled key"}',
        '{"text": 42}',
        '{"text": "   \\t "}',
        "",
        '{"text": "unterminated',
    )
    lines = []
    for words, separators in texts:
        if rng.random() < malformed_rate:
            lines.append(PredictLine(rng.choice(bad_lines), None))
        parts = []
        spans = []
        pos = 0
        for word, sep in zip(words, separators):
            parts.append(sep)
            pos += len(sep)
            parts.append(word)
            spans.append((word, pos, pos + len(word)))
            pos += len(word)
        text = "".join(parts)
        runs = lexicon_runs(words, lexicon)
        lines.append(
            PredictLine(
                json.dumps({"text": text}, ensure_ascii=False),
                text,
                spans,
                encode(runs, len(words), scheme),
                [(cls, spans[s][1], spans[e - 1][2]) for cls, s, e in runs],
            )
        )
    return lines


def _spaced(docs):
    """Texts for predict: each document's words, single-space joined."""
    return [(d.words, [""] + [" "] * (len(d.words) - 1)) for d in docs]


def _split_sizes_unsplit(docs, ratio=(0.8, 0.1, 0.1)):
    """Split sizes `set-up` must produce: train and val floored, test the rest."""
    n = len(docs)
    n_train = math.floor(ratio[0] * n)
    n_val = math.floor(ratio[1] * n)
    return {"train": n_train, "val": n_val, "test": n - n_train - n_val}


def _echo_taggers(rng, docs, classes, scheme, k, work: Path):
    taggers = []
    for run in range(k):
        labels = {}
        counts = {}
        for doc in docs:
            labels[doc.words], counts[doc.words] = _echo_prediction(rng, doc, classes, scheme)
        path = work / f"pred_{run}.jsonl"
        taggers.append(Tagger(f"seed{run}", f"echo:{path}", labels, counts))
    return taggers


def write_echo_file(tagger: Tagger, docs) -> None:
    """Write an echo tagger's predictions for the documents it will see."""
    _write_jsonl(
        Path(tagger.uri.partition(":")[2]),
        ({"words": list(d.words), "labels": tagger.labels[d.words]} for d in docs),
    )


def conll_bio(seed: int, scale: float, work: Path) -> Workload:
    """Pre-split CoNLL column files, BIO, 4 classes, CoNLL-03-length sentences."""
    rng = random.Random(seed)
    vocab = Vocabulary(rng)
    fillers = [vocab.word(False) for _ in range(3000)]
    mentions = vocab.mentions(CONLL_CLASSES, 150)
    sizes = {s: max(30, round(n * scale)) for s, n in
             (("train", 17000), ("val", 4000), ("test", 17000))}
    all_docs: dict[tuple, Doc] = {}
    split_docs = {
        s: _corpus(rng, n, 14, fillers, mentions, CONLL_CLASSES, 0.12, "BIO", all_docs)
        for s, n in sizes.items()
    }
    paths = []
    for split, docs in split_docs.items():
        path = work / f"conll_{split}.txt"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("-DOCSTART- -X- -X- O\n\n")
            for doc in docs:
                for word, label in zip(doc.words, doc.labels):
                    handle.write(f"{word} NN B-NP {label}\n")
                handle.write("\n")
        paths.append(str(path))
    lexicon = _lexicon(mentions)
    test = split_docs["test"]
    return Workload(
        name="conll-bio",
        scheme="BIO",
        other_scheme="BILOU",
        setup_args=["--source", "LF", "--train-path", paths[0],
                    "--val-path", paths[1], "--test-path", paths[2]],
        split_sizes={s: (len(d), sum(len(x.words) for x in d)) for s, d in split_docs.items()},
        setup_words=sum(len(d.words) for d in all_docs.values()),
        entity_counts=Counter(c for d in all_docs.values() for c, _, _ in d.chunks),
        docs=all_docs,
        convert_source=f"{DATA_DIR}/conll-bio/test.jsonl",
        eval_dataset=f"{DATA_DIR}/conll-bio",
        taggers=_echo_taggers(rng, test, CONLL_CLASSES, "BIO", 4, work),
        predict_lexicon=lexicon,
        predict_scheme="BIO",
        predict_lines=_predict_lines(
            rng, _spaced(all_docs.values()), lexicon, "BIO", 0.02),
    )


def fewnerd_bilou(seed: int, scale: float, work: Path) -> Workload:
    """One unsplit pretokenized JSONL file, BILOU, 66 hyphenated classes."""
    rng = random.Random(seed)
    vocab = Vocabulary(rng)
    fillers = [vocab.word(False) for _ in range(4000)]
    mentions = vocab.mentions(FEWNERD_CLASSES, 30)
    docs = _corpus(rng, max(700, round(56000 * scale)), 70, fillers, mentions,
                   FEWNERD_CLASSES, 0.12, "BILOU")
    path = work / "fewnerd.jsonl"
    _write_jsonl(path, ({"id": i, "words": list(d.words), "labels": d.labels}
                        for i, d in enumerate(docs)))
    counts = _split_sizes_unsplit(docs, FEWNERD_SPLIT)
    lexicon = _lexicon(mentions)
    return Workload(
        name="fewnerd-bilou",
        scheme="BILOU",
        other_scheme="BIO",
        setup_args=["--source", "HF", "--path", str(path),
                    "--split-ratio", ",".join(map(str, FEWNERD_SPLIT))],
        split_sizes={s: (n, None) for s, n in counts.items()},
        setup_words=sum(len(d.words) for d in docs),
        entity_counts=Counter(c for d in docs for c, _, _ in d.chunks),
        docs={d.words: d for d in docs},
        convert_source=f"{DATA_DIR}/fewnerd-bilou/train.jsonl",
        eval_dataset=f"{DATA_DIR}/fewnerd-bilou",
        taggers=_echo_taggers(rng, docs, FEWNERD_CLASSES, "BILOU", 2, work),
        predict_lexicon=lexicon,
        predict_scheme="BILOU",
        predict_lines=_predict_lines(rng, _spaced(docs), lexicon, "BILOU", 0.02),
    )


def raw_predict(seed: int, scale: float, work: Path) -> Workload:
    """Doccano export of raw sentences with punctuation attached, plus a
    predict input with planted malformed lines.

    The Doccano gold marks each mention without the punctuation glued to
    it, so it is set up but never evaluated (see README: evaluating such
    annotation-tool data aborts at the seed). Conversion and evaluation
    run on a gazetteer-labeled copy of the same sentences, tokenized on
    whitespace, where punctuation stays attached to its word.
    """
    rng = random.Random(seed)
    vocab = Vocabulary(rng)
    fillers = [vocab.word(False) for _ in range(3000)]
    mentions = vocab.mentions(CONLL_CLASSES, 200)
    lexicon = _lexicon(mentions)
    n_words = max(200, round(90000 * scale))

    texts = []
    export = []
    silver = []
    seen = set()
    total = 0
    while total < n_words:
        length = max(2, round(rng.gammavariate(2.0, 10)))
        words, chunks = _sentence(rng, length, fillers, mentions, CONLL_CLASSES, 0.15)
        surfaces = list(words)
        cores = []  # (start, end) of each word without attached punctuation
        for i, w in enumerate(words):
            before = rng.choice(PUNCT_BEFORE) if rng.random() < 0.03 else ""
            after = rng.choice(PUNCT_AFTER) if rng.random() < 0.12 else ""
            surfaces[i] = before + w + after
            cores.append((len(before), len(before) + len(w)))
        if tuple(surfaces) in seen:
            continue
        seen.add(tuple(surfaces))
        total += len(surfaces)
        separators = [""] + [rng.choice(SEPARATORS) for _ in surfaces[1:]]
        texts.append((tuple(surfaces), separators))
        pos = 0
        starts = []
        for sep, surface in zip(separators, surfaces):
            pos += len(sep)
            starts.append(pos)
            pos += len(surface)
        text = "".join(s + w for s, w in zip(separators, surfaces))
        export.append({
            "text": text,
            "label": [[starts[s] + cores[s][0], starts[e - 1] + cores[e - 1][1], cls]
                      for cls, s, e in chunks],
        })
        runs = lexicon_runs(surfaces, lexicon)
        silver.append((text, surfaces, starts, runs))

    export_path = work / "export.jsonl"
    _write_jsonl(export_path, export)

    # Convert/evaluate input: the gazetteer labeling of the first fifth.
    silver_dir = work / "silver"
    silver_dir.mkdir()
    docs = {}
    records = []
    for text, surfaces, starts, runs in silver[: max(2, len(silver) // 5)]:
        doc = Doc(tuple(surfaces), tuple(runs), encode(runs, len(surfaces), "BIO"))
        docs[doc.words] = doc
        records.append({
            "text": text,
            "words": [{"surface": w, "start": s, "end": s + len(w)}
                      for w, s in zip(surfaces, starts)],
            "labels": doc.labels,
        })
    _write_jsonl(silver_dir / "test.jsonl", records)

    # Evaluation taggers: gazetteers that miss or mislabel some entries.
    taggers = []
    for run in range(2):
        noisy = {}
        for word, cls in lexicon.items():
            r = rng.random()
            if r < 0.1:
                continue
            noisy[word] = rng.choice(CONLL_CLASSES) if r < 0.2 else cls
        path = work / f"gazetteer_{run}.json"
        path.write_text(json.dumps(noisy, ensure_ascii=False), encoding="utf-8")
        labels, counts = {}, {}
        for doc in docs.values():
            runs = lexicon_runs(doc.words, noisy)
            labels[doc.words] = encode(runs, len(doc.words), "BIO")
            counts[doc.words] = _lexicon_counts(doc, runs)
        taggers.append(Tagger(f"gazetteer{run}", f"lexicon:{path}", labels, counts))

    counts = _split_sizes_unsplit(export)
    return Workload(
        name="raw-predict",
        scheme="BIO",
        other_scheme="BILOU",
        setup_args=["--source", "AT", "--path", str(export_path), "--dialect", "doccano"],
        split_sizes={s: (n, 0) for s, n in counts.items()},
        setup_words=0,  # annotation-tool documents carry no words
        entity_counts=Counter(row[2] for rec in export for row in rec["label"]),
        docs=docs,
        convert_source="silver/test.jsonl",
        eval_dataset="silver",
        taggers=taggers,
        predict_lexicon=lexicon,
        predict_scheme="BIO",
        predict_lines=_predict_lines(rng, texts, lexicon, "BIO", 0.03),
    )


WORKLOADS = {
    "conll-bio": conll_bio,
    "fewnerd-bilou": fewnerd_bilou,
    "raw-predict": raw_predict,
}


def build(name: str, seed: int, scale: float, work: Path) -> Workload:
    workload = WORKLOADS[name](seed, scale, work)
    lexicon_path = work / "predict_lexicon.json"
    lexicon_path.write_text(
        json.dumps({"entries": workload.predict_lexicon, "scheme": workload.predict_scheme},
                   ensure_ascii=False),
        encoding="utf-8",
    )
    lines = workload.predict_lines
    bounds = [round(i * len(lines) / PREDICT_SHARDS) for i in range(PREDICT_SHARDS + 1)]
    workload.predict_shards = [lines[a:b] for a, b in zip(bounds, bounds[1:])]
    for i, shard in enumerate(workload.predict_shards):
        with open(work / f"predict_input_{i}.jsonl", "w", encoding="utf-8") as handle:
            for line in shard:
                handle.write(line.raw)
                handle.write("\n")
    valid = [l for l in workload.predict_lines if l.text is not None]
    workload.sizes = {
        "labeled_docs": len(workload.docs),
        "labeled_words": sum(len(d.words) for d in workload.docs.values()),
        "setup_docs": sum(n for n, _ in workload.split_sizes.values()),
        "predict_lines": len(workload.predict_lines),
        "predict_malformed_lines": len(workload.predict_lines) - len(valid),
        "predict_words": sum(len(l.words) for l in valid),
        "eval_runs": len(workload.taggers),
    }
    return workload

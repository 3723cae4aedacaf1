"""Output checks built from how the inputs were made.

Each function returns a list of problems (empty when the output is right).
Expected numbers come from the planted chunks, errors and lines recorded by
`workloads`, never from seqlab's decoders.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter
from pathlib import Path

from workloads import FN, FP, TP, Counts, encode, word_class

CLOSE = dict(rel_tol=1e-9, abs_tol=1e-12)


def read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def split_docs(path: Path, workload) -> tuple[list, list[str]]:
    """The workload documents in a canonical file, in file order."""
    docs, problems = [], []
    for lineno, record in enumerate(read_jsonl(path), 1):
        words = tuple(w["surface"] for w in record["words"])
        doc = workload.docs.get(words)
        if doc is None:
            problems.append(f"{path.name}:{lineno}: document not in the generated corpus")
            continue
        if record["labels"] != doc.labels:
            problems.append(f"{path.name}:{lineno}: gold labels changed")
        docs.append(doc)
    return docs, problems


def check_setup(analysis_path: Path, workload) -> list[str]:
    analysis = json.loads(analysis_path.read_text(encoding="utf-8"))
    problems = []
    for split, (docs, words) in workload.split_sizes.items():
        if analysis["num_documents"][split] != docs:
            problems.append(f"set-up: {split} has {analysis['num_documents'][split]} docs, want {docs}")
        if words is not None and analysis["num_words"][split] != words:
            problems.append(f"set-up: {split} has {analysis['num_words'][split]} words, want {words}")
    total = sum(analysis["num_words"].values())
    if total != workload.setup_words:
        problems.append(f"set-up: {total} words in total, want {workload.setup_words}")
    found = Counter()
    for per_split in analysis["entity_counts"].values():
        found.update(per_split)
    if found != workload.entity_counts:
        problems.append("set-up: entity counts differ from the planted entities")
    return problems


def check_convert(path: Path, docs, scheme: str) -> list[str]:
    records = read_jsonl(path)
    if len(records) != len(docs):
        return [f"convert: {len(records)} records for {len(docs)} documents"]
    for lineno, (record, doc) in enumerate(zip(records, docs), 1):
        if [w["surface"] for w in record["words"]] != list(doc.words):
            return [f"convert: line {lineno} words changed"]
        if record["labels"] != encode(doc.chunks, len(doc.words), scheme):
            return [f"convert: line {lineno} is not the {scheme} encoding of its chunks"]
    return []


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def _compare(where: str, got: dict, tp: int, fp: int, fn: int, problems: list):
    for key, want in zip(("precision", "recall", "f1"), _prf(tp, fp, fn)):
        if not math.isclose(got[key], want, **CLOSE):
            problems.append(f"{where}.{key} = {got[key]}, want {want} (tp={tp} fp={fp} fn={fn})")


def _check_block(where, block, level, counts: dict, problems):
    """Per-class, micro and macro figures of one report block."""
    classes = set(counts) | {c for c, v in block["per_class"].items() if level in v}
    pooled = [0, 0, 0]
    macro = []
    for cls in sorted(classes):
        tp, fp, fn = counts.get(cls, (0, 0, 0))
        pooled = [pooled[0] + tp, pooled[1] + fp, pooled[2] + fn]
        got = block["per_class"].get(cls, {}).get(level)
        if got is None:
            problems.append(f"{where}: class {cls} missing at {level} level")
            continue
        if got["support"] != tp + fn:
            problems.append(f"{where}: {cls} {level} support {got['support']}, want {tp + fn}")
        _compare(f"{where}.{cls}.{level}", got, tp, fp, fn, problems)
        if tp + fn:
            macro.append(_prf(tp, fp, fn))
    _compare(f"{where}.micro.{level}", block["micro"][level], *pooled, problems)
    want = [sum(m[i] for m in macro) / len(macro) if macro else 0.0 for i in range(3)]
    for key, value in zip(("precision", "recall", "f1"), want):
        if not math.isclose(block["macro"][level][key], value, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{where}.macro.{level}.{key} = {block['macro'][level][key]}, want {value}")


def expected_f1(tagger, docs) -> float:
    counts = Counts()
    for doc in docs:
        counts.merge(tagger.counts[doc.words])
    pooled = [sum(v[i] for v in counts.strict.values()) for i in range(3)]
    return _prf(*pooled)[2]


def check_evaluate(report_path: Path, tagger, docs) -> list[str]:
    report = json.loads(report_path.read_text(encoding="utf-8"))
    problems: list[str] = []
    counts = Counts()
    confusion: Counter = Counter()
    for doc in docs:
        counts.merge(tagger.counts[doc.words])
        predicted = tagger.labels[doc.words]
        confusion.update(zip(map(word_class, doc.labels), map(word_class, predicted)))
    _check_block(f"{tagger.name}.strict", report["strict"], "entity", counts.strict, problems)
    _check_block(f"{tagger.name}.lenient", report["lenient"], "entity", counts.lenient, problems)

    got = Counter()
    for gold, row in report["strict"]["confusion"].items():
        for pred, n in row.items():
            if n:
                got[gold, pred] = n
    if got != confusion:
        problems.append(f"{tagger.name}: word confusion matrix differs from the planted labels")
    word = {}
    for (gold, pred), n in confusion.items():
        if gold == pred and gold != "O":
            word.setdefault(gold, [0, 0, 0])[TP] += n
        if gold != pred and pred != "O":
            word.setdefault(pred, [0, 0, 0])[FP] += n
        if gold != pred and gold != "O":
            word.setdefault(gold, [0, 0, 0])[FN] += n
    _check_block(f"{tagger.name}.strict", report["strict"], "word", word, problems)
    return problems


def check_aggregate(aggregate_path: Path, f1s: list[float]) -> list[str]:
    metric = json.loads(aggregate_path.read_text(encoding="utf-8"))["metrics"][
        "strict.micro.entity.f1"
    ]
    mean = statistics.fmean(f1s)
    sem = statistics.stdev(f1s) / math.sqrt(len(f1s)) if len(f1s) > 1 else 0.0
    problems = []
    if metric["n"] != len(f1s):
        problems.append(f"aggregate: n = {metric['n']}, want {len(f1s)}")
    if not math.isclose(metric["mean"], mean, **CLOSE):
        problems.append(f"aggregate: mean = {metric['mean']}, want {mean}")
    if not math.isclose(metric["uncertainty"], sem, **CLOSE):
        problems.append(f"aggregate: SEM = {metric['uncertainty']}, want {sem}")
    return problems


def check_predict(path: Path, lines, level: str) -> list[str]:
    """One problem per output line that differs from what was planted: a
    valid line that came back as an error counts as a failed operation.
    At entity level the expected token is the text slice at the planted
    offsets, so a token that is not its slice fails the comparison."""
    with open(path, encoding="utf-8") as handle:
        outputs = handle.read().split("\n")
    if outputs and outputs[-1] == "":
        outputs.pop()
    if len(outputs) != len(lines):
        return [f"predict {level}: {len(outputs)} output lines for {len(lines)} inputs"]
    problems = []
    for lineno, (raw, line) in enumerate(zip(outputs, lines), 1):
        record = json.loads(raw)
        if line.text is None:
            if set(record) != {"error"}:
                problems.append(f"predict {level}: planted malformed line {lineno} was not an error")
            continue
        if "error" in record:
            problems.append(f"predict {level}: line {lineno} failed: {record['error']}")
            continue
        if record.get("text") != line.text:
            problems.append(f"predict {level}: line {lineno} text changed")
            continue
        if level == "entity":
            want = [
                {"char_start": s, "char_end": e, "token": line.text[s:e], "tag": cls}
                for cls, s, e in line.entities
            ]
        else:
            want = [
                {"word": w, "char_start": s, "char_end": e, "tag": tag, "probability": 1.0}
                for (w, s, e), tag in zip(line.words, line.tags)
            ]
        if record["predictions"] != want:
            problems.append(f"predict {level}: line {lineno} differs from the planted hits")
    return problems


def check_predict_summary(stdout: str, lines) -> list[str]:
    bad = sum(line.text is None for line in lines)
    want = f"processed={len(lines) - bad} failed={bad}"
    lines = stdout.strip().splitlines()
    return [] if lines and lines[-1] == want else [f"predict: summary is not {want!r}"]

"""Independent brute-force oracles used across the test suite.

Everything here works on plain label strings and tuples and never calls
into the package, so these implementations stay independent of the code
paths they check. They trade efficiency for obviousness: consistency is
decided by enumerating every legal sequence, chunk decoding by pattern
scanning, metrics by raw counting.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


def encode_layout(layout, n, scheme):
    """Encode a set of disjoint (class, start, end) chunks as labels."""
    labels = ["O"] * n
    for cls, start, end in layout:
        length = end - start
        if scheme == "IO":
            run = [f"I-{cls}"] * length
        elif scheme == "BIO":
            run = [f"B-{cls}"] + [f"I-{cls}"] * (length - 1)
        elif length == 1:
            run = [f"U-{cls}"]
        else:
            run = [f"B-{cls}"] + [f"I-{cls}"] * (length - 2) + [f"L-{cls}"]
        labels[start:end] = run
    return tuple(labels)


def all_layouts(n, classes):
    """Every set of non-overlapping classed spans over n positions."""
    ordered_spans = sorted((s, e) for s in range(n) for e in range(s + 1, n + 1))

    def rec(next_free, start_index):
        yield ()
        for i in range(start_index, len(ordered_spans)):
            s, e = ordered_spans[i]
            if s < next_free:
                continue
            for cls in classes:
                head = (cls, s, e)
                for rest in rec(e, i + 1):
                    yield (head,) + rest

    return list(rec(0, 0))


def legal_sequences(n, classes, scheme):
    """The image of encode_layout: every consistent sequence of length n."""
    return {encode_layout(layout, n, scheme) for layout in all_layouts(n, classes)}


def all_sequences(n, classes, scheme):
    """Every parseable sequence of length n (consistent or not)."""
    alphabet = ["O"]
    prefixes = {"IO": "I", "BIO": "BI", "BILOU": "BILU"}[scheme]
    for prefix in prefixes:
        alphabet.extend(f"{prefix}-{cls}" for cls in classes)
    return product(alphabet, repeat=n)


def oracle_strict_chunks(labels, scheme):
    """Pattern-scan strict decoding: only complete legal chunks count."""
    labels = list(labels)
    n = len(labels)
    out = []
    if scheme == "IO":
        for s in range(n):
            if labels[s].startswith("I-") and (s == 0 or labels[s - 1] != labels[s]):
                e = s + 1
                while e < n and labels[e] == labels[s]:
                    e += 1
                out.append((labels[s][2:], s, e))
    elif scheme == "BIO":
        for s in range(n):
            if labels[s].startswith("B-"):
                cls = labels[s][2:]
                e = s + 1
                while e < n and labels[e] == f"I-{cls}":
                    e += 1
                out.append((cls, s, e))
    else:
        for s in range(n):
            if labels[s].startswith("U-"):
                out.append((labels[s][2:], s, s + 1))
            elif labels[s].startswith("B-"):
                cls = labels[s][2:]
                e = s + 1
                while e < n and labels[e] == f"I-{cls}":
                    e += 1
                if e < n and labels[e] == f"L-{cls}":
                    out.append((cls, s, e + 1))
    return sorted(out, key=lambda c: c[1])


def _conlleval_end_of_chunk(prev_tag, tag, prev_type, type_):
    chunk_end = False
    if prev_tag == "E":
        chunk_end = True
    if prev_tag == "S":
        chunk_end = True
    if prev_tag == "B" and tag == "B":
        chunk_end = True
    if prev_tag == "B" and tag == "S":
        chunk_end = True
    if prev_tag == "B" and tag == "O":
        chunk_end = True
    if prev_tag == "I" and tag == "B":
        chunk_end = True
    if prev_tag == "I" and tag == "S":
        chunk_end = True
    if prev_tag == "I" and tag == "O":
        chunk_end = True
    if prev_tag != "O" and prev_type != type_:
        chunk_end = True
    return chunk_end


def _conlleval_start_of_chunk(prev_tag, tag, prev_type, type_):
    chunk_start = False
    if tag == "B":
        chunk_start = True
    if tag == "S":
        chunk_start = True
    if prev_tag == "E" and tag == "E":
        chunk_start = True
    if prev_tag == "E" and tag == "I":
        chunk_start = True
    if prev_tag == "S" and tag == "E":
        chunk_start = True
    if prev_tag == "S" and tag == "I":
        chunk_start = True
    if prev_tag == "O" and tag == "E":
        chunk_start = True
    if prev_tag == "O" and tag == "I":
        chunk_start = True
    if tag != "O" and prev_type != type_:
        chunk_start = True
    return chunk_start


def oracle_lenient_chunks(labels):
    """Lenient decoding with conlleval's endOfChunk/startOfChunk tables,
    row by row, in the IOBES form of its ports (BILOU's L and U are read
    as E and S). An O after the last label closes the final chunk."""
    out = []
    prev_tag, prev_type, start = "O", "", 0
    for i, label in enumerate(list(labels) + ["O"]):
        if label == "O":
            tag, type_ = "O", ""
        else:
            prefix, _, type_ = label.partition("-")
            tag = {"L": "E", "U": "S"}.get(prefix, prefix)
        if _conlleval_end_of_chunk(prev_tag, tag, prev_type, type_):
            out.append((prev_type, start, i))
        if _conlleval_start_of_chunk(prev_tag, tag, prev_type, type_):
            start = i
        prev_tag, prev_type = tag, type_
    return out


def oracle_is_consistent(labels, scheme, classes):
    return tuple(labels) in legal_sequences(len(labels), classes, scheme)


def oracle_micro_prf(gold_chunk_lists, pred_chunk_lists):
    """Micro precision/recall/F1 from per-document chunk lists."""
    tp = fp = fn = 0
    for gold, pred in zip(gold_chunk_lists, pred_chunk_lists):
        gold_set = set(gold)
        pred_set = set(pred)
        tp += len(gold_set & pred_set)
        fp += len(pred_set - gold_set)
        fn += len(gold_set - pred_set)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def oracle_prune_size(n, fraction):
    """Exact-arithmetic ceil(fraction * n) using decimal semantics."""
    return math.ceil(Fraction(str(fraction)) * n)


def oracle_word_offsets(text):
    """Char-by-char scan for word spans; independent of any regex."""
    spans = []
    start = None
    for i, ch in enumerate(text):
        if ch.isspace():
            if start is not None:
                spans.append((start, i))
                start = None
        elif start is None:
            start = i
    if start is not None:
        spans.append((start, len(text)))
    return spans


def oracle_mean_sem(values):
    """Mean and standard error via explicit formulas."""
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(variance) / math.sqrt(n)

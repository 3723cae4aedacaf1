"""Independent brute-force oracles used across the test suite.

Everything here works on plain label strings and tuples and never calls
into the package, so these implementations stay independent of the code
paths they check. They trade efficiency for obviousness: consistency is
decided by enumerating every legal sequence, chunk decoding by pattern
scanning, metrics by raw counting.

The one exception is the last section, the reference record reader: a
frozen copy of the reader that checked each canonical record by building
its `Document`, whose constructors hold half the rules. It builds the
package's value types, and nothing else of the package's reading code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, product
from operator import add

from seqlab.core import AnnotationScheme, Document, EntitySpan, LabelSequence, LabelTable, Word
from seqlab.errors import (
    LengthMismatch,
    MalformedJson,
    MalformedLabel,
    OverlappingSpans,
    PrefixNotInScheme,
    SpanOutOfBounds,
)
from seqlab.schemes import resolve_scheme


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


# --- the reference record reader -------------------------------------------
#
# canonical (line, record) pairs -> Documents, or the error of the first
# record that breaks a rule: its class, message and line.


def _parse_labels(raws, line, table):
    try:
        return tuple([table[raw] for raw in raws])
    except (PrefixNotInScheme, MalformedLabel) as err:
        index = next(i for i, raw in enumerate(raws) if raw not in table)
        line = line[index] if type(line) is tuple else line
        if isinstance(err, PrefixNotInScheme):
            raise PrefixNotInScheme(raws[index], table.scheme.value, line=line) from None
        raise MalformedLabel(str(err), line=line) from None


def _record_labels(records, scheme):
    table = LabelTable(AnnotationScheme.coerce(scheme or AnnotationScheme.BILOU))
    parsed = []
    for lineno, record in records:
        raws = record.get("labels")
        strings = isinstance(raws, list) and all(isinstance(raw, str) for raw in raws)
        parsed.append(_parse_labels(raws, lineno, table) if strings else None)
    return parsed, resolve_scheme(table.values(), scheme)


def _synthetic_words(surfaces):
    lengths = list(map(len, surfaces))
    starts = list(accumulate(map(add, lengths, [1] * len(lengths)), initial=0))
    return " ".join(surfaces), tuple(
        Word(s, start, start + n) for s, start, n in zip(surfaces, starts, lengths)
    )


def _align_words(text, surfaces, lineno):
    words = []
    cursor = 0
    for surface in surfaces:
        position = text.find(surface, cursor)
        if not surface or position < 0:
            raise MalformedJson(
                f"word {surface!r} cannot be aligned with the text", line=lineno
            )
        words.append(Word(surface, position, position + len(surface)))
        cursor = position + len(surface)
    return tuple(words)


def _word_strings(raw_words, lineno):
    if not isinstance(raw_words, list) or not raw_words:
        raise MalformedJson('"words" must be a non-empty array', line=lineno)
    if all(isinstance(w, str) for w in raw_words):
        if not all(raw_words):
            raise MalformedJson("words cannot be empty strings", line=lineno)
        return raw_words
    if all(isinstance(w, dict) for w in raw_words):
        return None
    raise MalformedJson('"words" mixes strings and objects', line=lineno)


def _words_from_record(record, lineno):
    surfaces = _word_strings(record["words"], lineno)
    text = record.get("text")
    if surfaces is not None:
        if text is None:
            return _synthetic_words(surfaces)
        if not isinstance(text, str):
            raise MalformedJson('"text" must be a string', line=lineno)
        return text, _align_words(text, surfaces, lineno)
    if not isinstance(text, str):
        raise MalformedJson('offset-bearing "words" require a "text" string', line=lineno)
    try:
        words = tuple([Word(w["surface"], w["start"], w["end"]) for w in record["words"]])
    except KeyError as err:
        raise MalformedJson(f"bad word record: {err}", line=lineno) from None
    if not all([type(start) is int and type(end) is int for _, start, end in words]):
        raise MalformedJson("word offsets must be JSON integers", line=lineno)
    return text, words


def _entities_from_record(text, raw_entities, lineno):
    spans = []
    for item in raw_entities:
        try:
            start, end, label = item["start"], item["end"], item["label"]
        except (KeyError, TypeError, ValueError) as err:
            raise MalformedJson(f"bad entity record: {err}", line=lineno) from None
        if type(start) is not int or type(end) is not int:
            raise MalformedJson(
                f"entity offsets {start!r:.20} and {end!r:.20} are not JSON integers",
                line=lineno,
            )
        if not isinstance(label, str):
            raise MalformedJson(f"entity label {label!r:.40} is not a string", line=lineno)
        if not label:
            raise MalformedJson("entity label cannot be empty", line=lineno)
        if label == "O":
            raise MalformedJson('"O" is the outside label, not an entity class', line=lineno)
        if not (0 <= start < end <= len(text)):
            raise SpanOutOfBounds(
                f"span [{start}, {end}) outside text of length {len(text)}",
                line=lineno,
            )
        while start < end and text[start].isspace():
            start += 1
        while start < end and text[end - 1].isspace():
            end -= 1
        if start < end:
            spans.append((start, end, label))
    spans.sort()
    previous_end = 0
    for start, end, _ in spans:
        if start < previous_end:
            raise OverlappingSpans(
                f"span starting at {start} overlaps the previous one", line=lineno
            )
        previous_end = end
    return tuple([EntitySpan(label, start, end, text[start:end]) for start, end, label in spans])


def _has_labels(record, labels, words, lineno):
    if record.get("labels") is None:
        return False
    if words is None:
        raise MalformedJson('"labels" require "words"', line=lineno)
    if labels is None:
        raise MalformedJson('"labels" must be an array of strings', line=lineno)
    if len(labels) != len(words):
        raise LengthMismatch(f"{len(labels)} labels for {len(words)} words", line=lineno)
    return True


def _document_from_record(lineno, record, labels, scheme):
    words = word_labels = entities = None
    text = record.get("text")

    if record.get("words") is not None:
        text, words = _words_from_record(record, lineno)
    elif not isinstance(text, str):
        raise MalformedJson('record needs a "text" string', line=lineno)

    if _has_labels(record, labels, words, lineno):
        word_labels = LabelSequence(labels, scheme)

    raw_entities = record.get("entities")
    if raw_entities is not None:
        if not isinstance(raw_entities, list):
            raise MalformedJson('"entities" must be an array', line=lineno)
        entities = _entities_from_record(text, raw_entities, lineno)

    try:
        return Document(text, words=words, word_labels=word_labels, entities=entities)
    except ValueError as err:
        raise MalformedJson(str(err), line=lineno) from None


def oracle_canonical_documents(records, scheme):
    """The Documents of canonical (line, record) pairs, and the scheme read
    off all their labels, which are parsed before any record is checked."""
    parsed, scheme = _record_labels(records, scheme)
    return [_document_from_record(*r, p, scheme) for r, p in zip(records, parsed)], scheme

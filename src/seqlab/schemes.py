"""Scheme detection, scheme translation, and level projection.

Annotation schemes encode the same chunk structure with different label
vocabularies, so translation goes through the chunk set: decode chunks,
re-emit them in the target scheme. Translating into IO merges adjacent
same-class chunks and is therefore lossy; that loss is documented and
surfaced, not hidden.

Projection moves labels between the entity, word and token levels. Word
to token projection supports two training styles: masking continuation
tokens with a sentinel, or giving them real chunk-continuation labels.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import (
    OUTSIDE,
    AnnotationScheme,
    Chunk,
    Document,
    FrozenRecord,
    Label,
    LabelSequence,
    LabelTable,
    decode,
)
from .errors import AllOutside, InconsistentSource, LengthMismatch, MisalignedEntity

IGNORE_INDEX = -100


class TokenAlignment(FrozenRecord):
    """How model tokens map back onto words.

    ``token_spans`` holds one (word_index, is_first_of_word) pair per
    token. Word indices are non-decreasing, every word contributes at
    least one token, and exactly one token per word is marked first.
    ``ignore_index`` is the sentinel label id used for masked positions.
    ``len`` counts tokens, so this is not a tuple.
    """

    __slots__ = ("token_spans", "ignore_index")

    def __init__(
        self, token_spans: Iterable[tuple[int, bool]], ignore_index: int = IGNORE_INDEX
    ):
        token_spans = tuple((int(w), bool(f)) for w, f in token_spans)
        prev = -1
        for word_index, is_first in token_spans:
            if word_index < prev:
                raise ValueError("token word indices must be non-decreasing")
            if word_index > prev:
                if word_index != prev + 1:
                    raise ValueError(f"word {prev + 1} contributes no tokens")
                if not is_first:
                    raise ValueError(f"first token of word {word_index} not marked")
            elif is_first:
                raise ValueError(f"word {word_index} has two first tokens")
            prev = word_index
        object.__setattr__(self, "token_spans", token_spans)
        object.__setattr__(self, "ignore_index", ignore_index)

    @classmethod
    def from_token_counts(
        cls, counts: Sequence[int], ignore_index: int = IGNORE_INDEX
    ) -> "TokenAlignment":
        """Build an alignment from tokens-per-word counts, e.g. [1, 3, 2]."""
        spans = []
        for word_index, count in enumerate(counts):
            if count < 1:
                raise ValueError(f"word {word_index} must have >= 1 token")
            spans.extend((word_index, k == 0) for k in range(count))
        return cls(tuple(spans), ignore_index)

    @property
    def word_count(self) -> int:
        return self.token_spans[-1][0] + 1 if self.token_spans else 0

    def __len__(self) -> int:
        return len(self.token_spans)


def detect_scheme(sequences: Iterable[Sequence[str]]) -> AnnotationScheme:
    """Infer the annotation scheme from raw label strings.

    Each distinct string is parsed once through a `LabelTable` under
    BILOU, so one that is not a label raises MalformedLabel as in
    `parse_label`; the scheme is then read off the labels as in
    `resolve_scheme`. Raises AllOutside when only "O" labels are present,
    because the scheme is undecidable then.
    """
    table = LabelTable(AnnotationScheme.BILOU)
    for seq in sequences:
        for raw in seq:
            table[raw]
    if set(table) <= {"O"}:
        raise AllOutside("only outside labels present; scheme is undecidable")
    return resolve_scheme(table.values())


def resolve_scheme(
    labels: Iterable[Label], explicit: AnnotationScheme | str | None = None
) -> AnnotationScheme:
    """The explicit scheme if given, else the one read off parsed labels
    (readers pass the distinct labels of their table): BILOU if any L/U
    prefix occurs, else IO if I occurs without B, else BIO.

    A corpus without a single entity label is consistent with every
    scheme; BIO is the conventional default and any later validation
    of all-O sequences passes under it.
    """
    if explicit is not None:
        return AnnotationScheme.coerce(explicit)
    prefixes = {label.prefix for label in labels}
    if prefixes & {"L", "U"}:
        return AnnotationScheme.BILOU
    if "I" in prefixes and "B" not in prefixes:
        return AnnotationScheme.IO
    return AnnotationScheme.BIO


def chunk_prefixes(length: int, scheme: AnnotationScheme) -> list[str]:
    """The prefix run encoding one chunk of the given length: I I I under
    IO, B I I under BIO, B I L under BILOU, or U for one word."""
    if scheme is AnnotationScheme.IO:
        return ["I"] * length
    if scheme is AnnotationScheme.BIO:
        return ["B"] + ["I"] * (length - 1)
    if length == 1:
        return ["U"]
    return ["B"] + ["I"] * (length - 2) + ["L"]


def encode_chunks(chunks: Iterable[Chunk], length: int, scheme: AnnotationScheme) -> LabelSequence:
    """Emit the label sequence for a set of non-overlapping chunks."""
    labels: list[Label] = [OUTSIDE] * length
    for chunk in chunks:
        prefixes = chunk_prefixes(chunk.word_end - chunk.word_start, scheme)
        labels[chunk.word_start : chunk.word_end] = [Label(p, chunk.class_name) for p in prefixes]
    return LabelSequence(tuple(labels), scheme)


def convert_scheme(seq: LabelSequence, target: AnnotationScheme) -> LabelSequence:
    """Chunk-preserving translation of a consistent sequence.

    Only consistent sequences are convertible; sequences with transition
    violations raise InconsistentSource. Converting to IO merges adjacent
    same-class chunks (lossy by construction). One scan both validates
    and decodes.
    """
    decoding = decode(seq)
    if decoding.violations:
        raise InconsistentSource(decoding.violations)
    return encode_chunks(decoding.strict, len(seq), target)


def entities_to_word_labels(doc: Document, scheme: AnnotationScheme) -> LabelSequence:
    """Project a document's character entities onto its words.

    Every entity boundary must coincide with a word boundary; an entity
    boundary inside a word raises MisalignedEntity with the character
    positions, never silently clips.
    """
    if doc.words is None:
        raise ValueError("document has no word tokenization")
    entities = [(e.char_start, e.char_end, e.class_name) for e in doc.entities or ()]
    return _span_labels([w[1:] for w in doc.words], entities, scheme)


def _span_labels(
    words: Sequence[tuple[int, int]], entities: Iterable[tuple[int, int, str]], scheme: AnnotationScheme
) -> LabelSequence:
    """`entities_to_word_labels` of words given as (start, end) offsets and
    entities as (start, end, class) triples."""
    starts = {start: i for i, (start, _) in enumerate(words)}
    ends = {end: i + 1 for i, (_, end) in enumerate(words)}
    chunks = []
    for start, end, class_name in entities:
        word_start = starts.get(start)
        word_end = ends.get(end)
        if word_start is None or word_end is None:
            raise MisalignedEntity(
                f"entity {class_name!r} at chars [{start}, {end}) "
                f"does not align with word boundaries"
            )
        chunks.append(Chunk(class_name, word_start, word_end))
    return encode_chunks(chunks, len(words), scheme)


def word_labels_to_token_labels(
    seq: LabelSequence, alignment: TokenAlignment, mode: str = "word_level_masked"
) -> list[Label | int]:
    """Expand word labels to token labels.

    ``word_level_masked``: the first token of each word gets the word's
    label, continuation tokens get the alignment's ignore_index (their
    loss contribution is meant to be masked out).

    ``token_level_full``: continuation tokens get real labels in
    chunk-continuation form, keeping the token sequence consistent:
    B-X continues as I-X, O stays O; under BILOU the final token of an
    L-word keeps L-X with I-X before it, and a U-word split across k > 1
    tokens becomes B, I, ..., L.
    """
    if mode not in ("word_level_masked", "token_level_full"):
        raise ValueError(f"unknown projection mode {mode!r}")
    if alignment.word_count != len(seq):
        raise LengthMismatch(
            f"alignment covers {alignment.word_count} words, sequence has {len(seq)}"
        )
    token_counts = [0] * len(seq)
    for word_index, _ in alignment.token_spans:
        token_counts[word_index] += 1

    per_word: list[list[Label | int]] = []
    for label, count in zip(seq.labels, token_counts):
        if mode == "word_level_masked":
            per_word.append([label] + [alignment.ignore_index] * (count - 1))
        else:
            per_word.append(_full_token_run(label, count))
    return [tok for runs in per_word for tok in runs]


def _full_token_run(label: Label, count: int) -> list[Label | int]:
    if label.is_outside or label.prefix == "I":
        return [label] * count
    cls = label.class_name
    if label.prefix == "B":
        return [label] + [Label("I", cls)] * (count - 1)
    if label.prefix == "L":
        return [Label("I", cls)] * (count - 1) + [label]
    # U split across several tokens becomes a complete B..L run
    if count == 1:
        return [label]
    return [Label("B", cls)] + [Label("I", cls)] * (count - 2) + [Label("L", cls)]


def token_labels_to_word_labels(
    token_labels: Sequence[Label | int],
    alignment: TokenAlignment,
    scheme: AnnotationScheme,
) -> LabelSequence:
    """Collapse token labels back to word labels: each word takes its
    first token's label. Masked continuation positions are ignored."""
    if len(token_labels) != len(alignment):
        raise LengthMismatch(
            f"{len(token_labels)} token labels for {len(alignment)} alignment slots"
        )
    labels = []
    for token_label, (_, is_first) in zip(token_labels, alignment.token_spans):
        if not is_first:
            continue
        if not isinstance(token_label, Label):
            raise ValueError("first token of a word cannot be a masked position")
        labels.append(token_label)
    return LabelSequence(tuple(labels), scheme)

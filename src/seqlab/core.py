"""Shared domain types for sequence labeling.

Data lives on three levels: tokens (model subunits of words), words
(whitespace or linguistic units), and entities (typed character spans).
The types here encode that three-level model once, so parsers, scheme
translation, evaluation and inference all speak the same language.

Character offsets are Unicode scalar-value indices (ordinary Python
string indices), never bytes. All span ends are exclusive. Every type
is immutable after construction and safe to share between threads.

Value types are tuples (``typing.NamedTuple``), so they compare equal to
plain tuples of their fields; one that checks its fields does so in
``__new__``. A type that acts as a container instead (``len``, iteration,
indexing) is a `FrozenRecord`.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import MalformedLabel, PrefixNotInScheme


class AnnotationScheme(Enum):
    """Convention for encoding entity spans as per-position labels.

    BIO is interpreted as the IOB2 variant: B starts every entity.
    """

    IO = "IO"
    BIO = "BIO"
    BILOU = "BILOU"

    # equality is identity, so the identity hash, computed in C, is
    # consistent with it; Enum's own hashes the name in Python
    __hash__ = object.__hash__

    @classmethod
    def coerce(cls, value: "AnnotationScheme | str") -> "AnnotationScheme":
        if isinstance(value, AnnotationScheme):
            return value
        try:
            return cls[str(value).upper()]
        except KeyError:
            raise ValueError(f"unknown annotation scheme: {value!r}") from None


_SCHEME_PREFIXES = {
    AnnotationScheme.IO: frozenset({"I", "O"}),
    AnnotationScheme.BIO: frozenset({"B", "I", "O"}),
    AnnotationScheme.BILOU: frozenset({"B", "I", "L", "O", "U"}),
}
_LABEL_PREFIXES = _SCHEME_PREFIXES[AnnotationScheme.BILOU]  # BILOU admits every prefix
_prefix = attrgetter("prefix")


class FrozenRecord:
    """Base of the immutable value types that are containers, not tuples.

    A subclass names its fields in ``__slots__`` and sets each once in
    ``__init__`` through ``object.__setattr__``. Equality, hash, repr and
    pickling go by the fields in slot order; assigning a field raises
    AttributeError.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class _LabelFields(NamedTuple):
    prefix: str
    class_name: str


class Label(_LabelFields):
    """One position label: the outside label "O" or "<prefix>-<class>".

    The serialized form splits on the first hyphen only, so class names
    may themselves contain hyphens ("B-art-broadcastprogram"). Construction
    is the one check of the grammar: a BILOU prefix, alone if it is "O",
    else with a class name that is neither empty nor "O".
    """

    __slots__ = ()

    def __new__(cls, prefix: str, class_name: str = ""):
        if prefix not in _LABEL_PREFIXES:
            raise MalformedLabel(f"unknown label prefix {prefix!r}")
        if prefix == "O" and class_name:
            raise MalformedLabel("the outside label carries no class name")
        if prefix != "O" and not class_name:
            raise MalformedLabel(f"prefix {prefix!r} requires a class name")
        if class_name == "O":
            raise MalformedLabel('"O" is the outside label, not a class name')
        return super().__new__(cls, prefix, class_name)

    @property
    def is_outside(self) -> bool:
        return self.prefix == "O"

    def serialize(self) -> str:
        return "O" if self.prefix == "O" else f"{self.prefix}-{self.class_name}"

    def __str__(self) -> str:
        return self.serialize()


OUTSIDE = Label("O")


def parse_label(raw: str, scheme: AnnotationScheme) -> Label:
    """Parse a raw label string under the given scheme.

    Splits on the first hyphen only: "I-MISC-X" is inside-of-"MISC-X".
    `Label` checks the grammar; "O-" fails the round trip through `serialize`.

    Raises:
        MalformedLabel: the string is not "O" or "<prefix>-<class>" with
            a B/I/L/U prefix and a non-empty class name.
        PrefixNotInScheme: prefix exists but the scheme forbids it,
            e.g. "L-PER" under BIO.
    """
    if raw == "O":
        return OUTSIDE
    prefix, _, class_name = raw.partition("-")
    try:
        label = Label(prefix, class_name)
    except MalformedLabel as err:
        raise MalformedLabel(f"label {raw!r}: {err}") from None
    if label.serialize() != raw:
        raise MalformedLabel(f"label {raw!r}: the outside label has no hyphen")
    if prefix not in _SCHEME_PREFIXES[scheme]:
        raise PrefixNotInScheme(raw, scheme.value)
    return label


class LabelTable(dict):
    """Interned labels of one scheme: ``table[raw]`` parses each distinct
    string once and returns the same Label for every later occurrence.

    Readers create one table per call, so it lives only as long as the
    input it serves. A string that fails to parse is never stored and
    raises again each time it is looked up.
    """

    def __init__(self, scheme: AnnotationScheme):
        super().__init__()
        self.scheme = scheme

    def __missing__(self, raw: str) -> Label:
        label = self[raw] = parse_label(raw, self.scheme)
        return label


class LabelSequence(FrozenRecord):
    """Ordered labels under a declared scheme."""

    __slots__ = ("labels", "scheme")

    def __init__(self, labels: Iterable[Label], scheme: AnnotationScheme):
        labels = tuple(labels)
        allowed = _SCHEME_PREFIXES[scheme]
        if not allowed.issuperset(map(_prefix, labels)):
            lab = next(lab for lab in labels if lab.prefix not in allowed)
            raise PrefixNotInScheme(lab.serialize(), scheme.value)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "scheme", scheme)

    @classmethod
    def from_raw(cls, raw: Iterable[str], scheme: AnnotationScheme) -> "LabelSequence":
        table = LabelTable(scheme)
        return cls(tuple([table[r] for r in raw]), scheme)

    def serialized(self) -> list[str]:
        return [lab.serialize() for lab in self.labels]

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.labels)

    def __getitem__(self, index: int) -> Label:
        return self.labels[index]


class ViolationKind(Enum):
    #: continuation label (I, or L under BILOU) without a matching open chunk
    DANGLING_INSIDE = "dangling_inside"
    #: an open BILOU chunk was abandoned without its closing L
    UNTERMINATED_CHUNK = "unterminated_chunk"


class Violation(NamedTuple):
    """A position whose label breaks the scheme's transition rules.

    ``position == len(labels)`` marks a chunk left open at sequence end.
    """

    position: int
    kind: ViolationKind


class Chunk(NamedTuple):
    """A maximal contiguous run of words carrying one entity class.

    Only ``0 <= word_start < word_end`` is a chunk; the decoders emit no
    other.
    """

    class_name: str
    word_start: int
    word_end: int  # exclusive


class Decoding(NamedTuple):
    """What one scan of a label sequence yields (see `decode`)."""

    strict: list[Chunk]
    lenient: list[Chunk]
    violations: list[Violation]


# One automaton per scheme does all decoding. Its state is the previous
# label's prefix; after an I it also tells whether a strict chunk is still
# open ("I") or was dropped ("i"). While a strict chunk is open its class
# is the previous label's, so a transition depends only on the state, the
# current prefix, and whether the current class equals the previous one.
# Each transition carries a set of operations:
_S_CLOSE = 1  # the open strict chunk ends before this label
_S_OPEN = 2  # a strict chunk opens at this label
_S_CLOSE_HERE = 4  # the open strict chunk ends with this label (BILOU L)
_S_UNIT = 8  # this label alone is a strict chunk (BILOU U)
_L_END = 16  # the lenient chunk ends before this label
_L_START = 32  # a lenient chunk starts at this label
_V_DANGLING = 64  # ViolationKind.DANGLING_INSIDE at this label
_V_UNTERMINATED = 128  # ViolationKind.UNTERMINATED_CHUNK at this label

_STATES = ("O", "B", "I", "i", "L", "U")
# conlleval's tags; BILOU's L and U are its E and S
_REFERENCE_TAG = {"B": "B", "I": "I", "O": "O", "L": "E", "U": "S"}


def _transition(
    scheme: AnnotationScheme, state: str, prefix: str, same: bool
) -> tuple[str, int]:
    """The rules for one label: next state and operations."""
    ops = 0
    strict_open = state in ("B", "I")
    continues = strict_open and same and prefix == "I"
    if scheme is AnnotationScheme.BILOU:
        # an open chunk is dropped unless a same-class I continues it or a
        # same-class L closes it
        if strict_open and same and prefix == "L":
            ops |= _S_CLOSE_HERE
        elif prefix == "U":
            ops |= _S_UNIT
        elif prefix == "B":
            ops |= _S_OPEN
    elif not continues:
        if strict_open:
            ops |= _S_CLOSE
        if prefix == ("I" if scheme is AnnotationScheme.IO else "B"):
            ops |= _S_OPEN
    if prefix == "I":
        next_state = "I" if continues or ops & _S_OPEN else "i"
    else:
        next_state = prefix

    # conlleval's endOfChunk / startOfChunk
    prev_tag, tag = _REFERENCE_TAG[state.upper()], _REFERENCE_TAG[prefix]
    if (
        prev_tag in ("E", "S")
        or (prev_tag in ("B", "I") and tag in ("B", "S", "O"))
        or (prev_tag != "O" and not same)
    ):
        ops |= _L_END
    if (
        tag in ("B", "S")
        or (prev_tag in ("E", "S", "O") and tag in ("E", "I"))
        or (tag != "O" and not same)
    ):
        ops |= _L_START

    # a continuation needs a same-class B or I before it; under BILOU an
    # open chunk must end with L before anything else starts
    if scheme is not AnnotationScheme.IO:
        after_open = state.upper() in ("B", "I")
        if prefix in ("I", "L"):
            if not (after_open and same):
                ops |= _V_DANGLING
        elif scheme is AnnotationScheme.BILOU and after_open:
            ops |= _V_UNTERMINATED
    return next_state, ops


def _automaton(scheme: AnnotationScheme) -> dict:
    """Transition table of a scheme: row[prefix][same] -> (next row, ops),
    where each row stands for a state. Returns the start row."""
    rows = {state: {} for state in _STATES}
    for state, row in rows.items():
        for prefix in _SCHEME_PREFIXES[scheme]:
            by_same = []
            for same in (False, True):
                next_state, ops = _transition(scheme, state, prefix, same)
                by_same.append((rows[next_state], ops))
            row[prefix] = tuple(by_same)
    return rows["O"]


_AUTOMATA = {scheme: _automaton(scheme) for scheme in AnnotationScheme}


def decode(seq: LabelSequence) -> Decoding:
    """Strict chunks, lenient chunks and violations, from one scan.

    Strict chunks are the well-formed ones: under IO a run of same-class
    I, under BIO a B with the same-class I after it, under BILOU a U or a
    B..L run of one class; other labels are dropped. Lenient chunks follow
    the conlleval chunk tables, which also recover entities from runs that
    break the scheme. Violations are the positions `validate_sequence`
    reports.
    """
    strict: list[Chunk] = []
    lenient: list[Chunk] = []
    violations: list[Violation] = []
    row = _AUTOMATA[seq.scheme]
    prev_cls = ""
    strict_start = lenient_start = 0
    # the trailing O ends whatever is still open
    for i, label in enumerate(seq.labels + (OUTSIDE,)):
        cls = label.class_name
        row, ops = row[label.prefix][cls == prev_cls]
        if ops:
            if ops & _L_END:
                lenient.append(Chunk(prev_cls, lenient_start, i))
            if ops & _L_START:
                lenient_start = i
            if ops & _S_CLOSE:
                strict.append(Chunk(prev_cls, strict_start, i))
            if ops & _S_OPEN:
                strict_start = i
            if ops & _S_CLOSE_HERE:
                strict.append(Chunk(cls, strict_start, i + 1))
            if ops & _S_UNIT:
                strict.append(Chunk(cls, i, i + 1))
            if ops & _V_DANGLING:
                violations.append(Violation(i, ViolationKind.DANGLING_INSIDE))
            if ops & _V_UNTERMINATED:
                violations.append(Violation(i, ViolationKind.UNTERMINATED_CHUNK))
        prev_cls = cls
    return Decoding(strict, lenient, violations)


def validate_sequence(seq: LabelSequence) -> list[Violation]:
    """Report every position inconsistent with the scheme transition rules.

    Violations are data, not errors: inconsistent model output is a normal
    occurrence and downstream code decides how to treat it.

    Under BIO, I-X must follow B-X or I-X of the same class. Under BILOU,
    I/L must continue an open chunk of the same class, B/U must not appear
    while a chunk is open, and open chunks must be closed by L. IO has no
    transition constraints.
    """
    return decode(seq).violations


class Word(NamedTuple):
    """A word with its character span in the owning document's text.

    `Document` checks the span: non-empty and inside the text.
    """

    surface: str
    char_start: int
    char_end: int


def _check_word_spans(text: str, words: Iterable[tuple]) -> None:
    """The rules for (surface, start, end) words of ``text``, which
    `Document` and the canonical reader both apply: each span is after the
    one before it, non-empty, inside the text and its surface. The first
    word that breaks one raises ValueError naming it and the rule."""
    size = len(text)
    prev_end = 0
    for surface, start, end in words:
        if not prev_end <= start < end <= size or text[start:end] != surface:
            word = Word(surface, start, end)
            if start < prev_end:
                raise ValueError(f"word spans overlap or decrease at {word!r}")
            if end <= start:
                raise ValueError(f"empty or inverted word span at {word!r}")
            if end > size:
                raise ValueError(f"word span out of text bounds: {word!r}")
            raise ValueError(
                f"word surface {surface!r} does not match text slice {text[start:end]!r}"
            )
        prev_end = end


class _EntitySpanFields(NamedTuple):
    class_name: str
    char_start: int
    char_end: int
    surface: str
    word_start: int | None
    word_end: int | None
    probability: float | None


class EntitySpan(_EntitySpanFields):
    """A typed span addressed by character offsets and/or word indices.

    ``char_end`` and ``word_end`` are exclusive. ``probability`` is only
    populated on predicted spans (None on gold data); it is the minimum
    of the member words' probabilities.
    """

    __slots__ = ()

    def __new__(
        cls,
        class_name: str,
        char_start: int,
        char_end: int,
        surface: str,
        word_start: int | None = None,
        word_end: int | None = None,
        probability: float | None = None,
    ):
        if not class_name:
            raise ValueError("entity class_name cannot be empty")
        if class_name == "O":
            raise ValueError('"O" is the outside label, not an entity class')
        if char_start < 0 or char_end <= char_start:
            raise ValueError(f"invalid char span [{char_start}, {char_end})")
        if (word_start is None) != (word_end is None):
            raise ValueError("word_start and word_end must be set together")
        if word_start is not None and word_end <= word_start:
            raise ValueError(f"invalid word span [{word_start}, {word_end})")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of [0, 1]: {probability}")
        return super().__new__(
            cls, class_name, char_start, char_end, surface, word_start, word_end, probability
        )


class _DocumentFields(NamedTuple):
    text: str
    words: tuple[Word, ...] | None
    word_labels: LabelSequence | None
    entities: tuple[EntitySpan, ...] | None


class Document(_DocumentFields):
    """The canonical record: raw text plus whichever annotations exist.

    A document may carry word tokenization, word-level labels, character
    entities, any combination, or none. Words, where given, are at least
    one, as a canonical line's "words" are, and pass `_check_word_spans`,
    the check the canonical reader applies too: spans non-empty,
    strictly increasing, inside the text and each its surface. Entities
    must be non-overlapping and sorted by char_start, each surface the
    text slice, neither starting nor ending with whitespace, as the
    readers trim it; `EntitySpan` refuses the class "O", as the reader
    does. So a Document is accepted exactly where its canonical line
    reads back as it.
    """

    __slots__ = ()

    def __new__(
        cls,
        text: str,
        words: Iterable[Word] | None = None,
        word_labels: LabelSequence | None = None,
        entities: Iterable[EntitySpan] | None = None,
    ):
        if words is not None:
            words = tuple(words)
        if entities is not None:
            entities = tuple(entities)
        self = super().__new__(cls, text, words, word_labels, entities)
        if words is not None:
            if not words:
                raise ValueError("words must be None or at least one word")
            _check_word_spans(text, words)
        if word_labels is not None:
            if words is None:
                raise ValueError("word_labels require words")
            if len(word_labels) != len(words):
                raise ValueError(f"{len(word_labels)} labels for {len(words)} words")
        if entities is not None:
            self._check_entities()
        return self

    def _check_entities(self):
        prev_end = 0
        for e in self.entities:
            if e.char_start < prev_end:
                raise ValueError(f"entities overlap or are unsorted at {e!r}")
            if e.char_end > len(self.text):
                raise ValueError(f"entity span out of text bounds: {e!r}")
            if self.text[e.char_start : e.char_end] != e.surface:
                raise ValueError(
                    f"entity surface {e.surface!r} does not match text slice "
                    f"{self.text[e.char_start:e.char_end]!r}"
                )
            if e.surface[0].isspace() or e.surface[-1].isspace():
                raise ValueError(f"entity surface {e.surface!r} starts or ends with whitespace")
            if e.word_start is not None and self.words is not None:
                if not (0 <= e.word_start < e.word_end <= len(self.words)):
                    raise ValueError(f"entity word span out of range: {e!r}")
            prev_end = e.char_end

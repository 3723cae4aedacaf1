"""Exception hierarchy for the toolkit.

Parser-facing errors derive from :class:`PositionedError` and carry the
1-based line (or record) number of the offending input, so command-line
output can point at the exact spot.
"""

from __future__ import annotations


class SeqlabError(Exception):
    """Base class for every error raised by this package."""


class PositionedError(SeqlabError):
    """An error tied to a specific line or record of an input."""

    def __init__(self, message: str, *, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


# label grammar

class MalformedLabel(PositionedError):
    """Label string does not match "O" or "<prefix>-<class>"."""


class PrefixNotInScheme(PositionedError):
    """Label prefix is valid in general but not under the scheme in force."""

    def __init__(self, label: str, scheme: str, *, line: int | None = None):
        self.label = label
        self.scheme = scheme
        super().__init__(f"prefix of {label!r} is not part of scheme {scheme}", line=line)


# dataset ingestion

class RaggedRow(PositionedError):
    """Column-format row with fewer than two columns."""


class EmptyInput(SeqlabError):
    """Input stream contained no parseable records."""


class LengthMismatch(PositionedError):
    """Two parallel sequences differ in length."""


class MalformedJson(PositionedError):
    """A line or document is not valid JSON, or lacks required keys."""


class SpanOutOfBounds(PositionedError):
    """Character span lies outside the text it annotates."""


class OverlappingSpans(PositionedError):
    """Two annotated spans overlap; flat annotation is assumed throughout."""


class UndecodableInput(PositionedError):
    """Input bytes are not valid UTF-8."""


class UnresolvableSource(SeqlabError):
    """Dataset source cannot be resolved to readable files."""


class FractionOutOfRange(SeqlabError):
    """Pruning fraction must lie in (0, 1]."""


# scheme operations

class AllOutside(SeqlabError):
    """Only outside labels present; the annotation scheme is undecidable."""


class UnconvertibleInput(PositionedError):
    """Records `convert` cannot translate: no word labels, or a violation.
    ``problems`` are each one's (line, what went wrong), in input order;
    the message names the first and counts the rest."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        line, problem = self.problems[0]
        more = len(self.problems) - 1
        more = f" (and {more} more; --verbose lists all)" if more else ""
        super().__init__(problem + more, line=line)


class InconsistentSource(SeqlabError):
    """Sequence violates its scheme's transition rules and cannot be converted."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        detail = ", ".join(f"{v.kind.value}@{v.position}" for v in self.violations)
        super().__init__(f"sequence is inconsistent with its scheme: {detail}")


class MisalignedEntity(SeqlabError):
    """Entity boundary falls inside a word instead of on a word boundary."""


# evaluation

class MissingGold(SeqlabError):
    """Document carries no gold annotation to evaluate against."""


# inference

class UnloadableTagger(SeqlabError, ValueError):
    """Tagger URI is unknown, or the file it names cannot be read. Also a
    ValueError, so callers that caught ValueError for unknown URIs still do."""


class TaggerContractError(SeqlabError):
    """Tagger broke its contract: it raised, or returned something other
    than one (label string, probability in [0, 1]) pair per word."""


class TaggerLengthMismatch(TaggerContractError):
    """Tagger returned a different number of labels than words given."""


class EmptyText(SeqlabError):
    """Text is empty after trimming whitespace."""


class OutputIsInput(SeqlabError):
    """File inference was asked to write over the file it reads."""


# schedule

class Stopped(SeqlabError):
    """Schedule has already stopped; no further transitions are allowed."""


class NonFiniteLoss(SeqlabError):
    """Validation loss must be a finite number."""


class UnknownPreset(SeqlabError):
    """No hyperparameter preset registered under that name."""


# multi-run aggregation

class EmptyRunSet(SeqlabError):
    """At least one run record is required."""


class MissingMetric(SeqlabError):
    """A run record does not contain the requested metric path."""


class NonFiniteMetric(SeqlabError):
    """A run record holds a metric that is not a finite number."""


class DuplicateMetricPath(SeqlabError):
    """Two leaves of one report tree, as "a.b" -> "c" and "a" -> "b.c", share a path."""


class DuplicateRunName(SeqlabError, ValueError):
    """Two run records share a run name. Also a ValueError, which callers
    caught before the error was typed."""

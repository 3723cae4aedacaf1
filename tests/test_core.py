import pytest
from hypothesis import given, strategies as st

from seqlab.core import (
    AnnotationScheme,
    Document,
    EntitySpan,
    Label,
    LabelSequence,
    LabelTable,
    Violation,
    ViolationKind,
    Word,
    parse_label,
    validate_sequence,
)
from seqlab.errors import MalformedLabel, PrefixNotInScheme

from .oracles import all_sequences, legal_sequences

BIO = AnnotationScheme.BIO
BILOU = AnnotationScheme.BILOU
IO = AnnotationScheme.IO


def seq(raw, scheme):
    return LabelSequence.from_raw(raw, scheme)


class TestParseLabel:
    def test_outside(self):
        assert parse_label("O", BIO) == Label("O")

    def test_simple(self):
        assert parse_label("B-PER", BIO) == Label("B", "PER")

    def test_class_with_hyphen_splits_on_first_hyphen_only(self):
        assert parse_label("I-MISC-X", BIO) == Label("I", "MISC-X")

    @pytest.mark.parametrize("raw", ["BPER", "B-", "-PER", "X-PER", "O-PER", "", "B-O", "U-O"])
    def test_malformed(self, raw):
        with pytest.raises(MalformedLabel):
            parse_label(raw, BILOU)

    def test_prefix_not_in_scheme(self):
        with pytest.raises(PrefixNotInScheme):
            parse_label("L-PER", BIO)
        with pytest.raises(PrefixNotInScheme):
            parse_label("B-PER", IO)

    @given(
        prefix=st.sampled_from(["B", "I", "L", "U"]),
        cls=st.from_regex(r"[A-Za-z0-9](-?[A-Za-z0-9])*", fullmatch=True).filter(
            lambda cls: cls != "O"  # the outside label, not a class name
        ),
    )
    def test_round_trip_serialize_parse(self, prefix, cls):
        raw = f"{prefix}-{cls}"
        assert parse_label(raw, BILOU).serialize() == raw

    def test_outside_round_trip(self):
        assert parse_label("O", IO).serialize() == "O"


class TestLabelTable:
    def test_one_label_per_distinct_string(self):
        table = LabelTable(BIO)
        first = table["B-PER"]
        assert first == Label("B", "PER")
        assert table["B-PER"] is first
        assert table["O"] is table["O"]

    def test_string_parsed_under_one_scheme_still_raises_under_another(self):
        assert LabelTable(BILOU)["L-PER"] == Label("L", "PER")
        with pytest.raises(PrefixNotInScheme):
            LabelTable(BIO)["L-PER"]
        with pytest.raises(PrefixNotInScheme):
            seq(["L-PER"], BIO)

    @pytest.mark.parametrize("raw", ["BPER", "B-", "X-PER", ""])
    def test_failure_is_not_cached(self, raw):
        table = LabelTable(BILOU)
        for _ in range(3):
            with pytest.raises(MalformedLabel):
                table[raw]
        assert raw not in table


class TestLabelInvariants:
    def test_outside_rejects_class(self):
        with pytest.raises(MalformedLabel):
            Label("O", "PER")

    def test_entity_prefix_requires_class(self):
        with pytest.raises(MalformedLabel):
            Label("B", "")

    def test_outside_is_not_a_class_name(self):
        with pytest.raises(MalformedLabel, match="not a class name"):
            Label("B", "O")

    def test_sequence_rejects_foreign_prefix(self):
        with pytest.raises(PrefixNotInScheme):
            LabelSequence((Label("U", "PER"),), BIO)


class TestValidateSequence:
    def test_dangling_inside_after_outside(self):
        violations = validate_sequence(seq(["O", "I-PER"], BIO))
        assert violations == [Violation(1, ViolationKind.DANGLING_INSIDE)]

    def test_canonical_legal_sequence(self):
        assert validate_sequence(seq(["B-PER", "I-PER", "O"], BIO)) == []

    def test_unterminated_bilou_chunk(self):
        violations = validate_sequence(seq(["B-ORG", "O"], BILOU))
        assert violations == [Violation(1, ViolationKind.UNTERMINATED_CHUNK)]

    def test_open_chunk_at_end_of_sequence(self):
        violations = validate_sequence(seq(["B-ORG"], BILOU))
        assert violations == [Violation(1, ViolationKind.UNTERMINATED_CHUNK)]

    def test_io_never_violates(self):
        assert validate_sequence(seq(["I-PER", "I-ORG", "O", "I-PER"], IO)) == []

    def test_class_switch_inside_bio_chunk(self):
        violations = validate_sequence(seq(["B-PER", "I-ORG"], BIO))
        assert [v.position for v in violations] == [1]

    @pytest.mark.parametrize("scheme", ["BIO", "BILOU", "IO"])
    def test_oracle_equivalence_exhaustive(self, scheme):
        # acceptance of the validator must coincide with membership in
        # the set of sequences generated from legal chunk layouts
        enum_scheme = AnnotationScheme[scheme]
        classes = ("X",)
        for n in range(5):
            legal = legal_sequences(n, classes, scheme)
            for raw in all_sequences(n, classes, scheme):
                violations = validate_sequence(seq(list(raw), enum_scheme))
                assert (violations == []) == (raw in legal), (scheme, raw, violations)


class TestSpansAndDocuments:
    def test_entity_surface_must_match_text(self):
        with pytest.raises(ValueError):
            Document(
                "The United Nations",
                entities=(EntitySpan("ORG", 4, 18, "United Nation"),),
            )

    def test_entity_char_order(self):
        with pytest.raises(ValueError):
            EntitySpan("ORG", 18, 4, "x")

    def test_overlapping_entities_rejected(self):
        with pytest.raises(ValueError):
            Document(
                "aa bb cc",
                entities=(
                    EntitySpan("X", 0, 5, "aa bb"),
                    EntitySpan("Y", 3, 8, "bb cc"),
                ),
            )

    def test_word_label_length_must_match(self):
        words = (Word("Hi", 0, 2),)
        labels = LabelSequence.from_raw(["O", "O"], BIO)
        with pytest.raises(ValueError):
            Document("Hi", words=words, word_labels=labels)

    def test_word_spans_must_increase(self):
        # the second row's empty slice matches its empty surface
        for spans in [[("ab", 0, 2), ("b", 1, 2)], [("", 1, 1)]]:
            with pytest.raises(ValueError):
                Document("ab", words=tuple(Word(*span) for span in spans))

    def test_an_empty_word_list_is_rejected(self):
        # the reader rejects "words": [] too, so no written document fails to read back
        with pytest.raises(ValueError):
            Document("", words=())

    def test_valid_document(self):
        doc = Document(
            "The United Nations",
            words=(Word("The", 0, 3), Word("United", 4, 10), Word("Nations", 11, 18)),
            entities=(EntitySpan("ORG", 4, 18, "United Nations"),),
        )
        assert doc.text[doc.entities[0].char_start : doc.entities[0].char_end] == "United Nations"


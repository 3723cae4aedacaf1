import random

import pytest
from hypothesis import given, settings, strategies as st

from seqlab.core import (
    AnnotationScheme,
    Document,
    EntitySpan,
    Label,
    LabelSequence,
    Word,
)
from seqlab.errors import (
    AllOutside,
    InconsistentSource,
    LengthMismatch,
    MalformedLabel,
    MisalignedEntity,
)
from seqlab.evaluation import extract_entities
from seqlab.schemes import (
    TokenAlignment,
    convert_scheme,
    detect_scheme,
    entities_to_word_labels,
    token_labels_to_word_labels,
    word_labels_to_token_labels,
)

from .oracles import all_layouts, encode_layout

BIO = AnnotationScheme.BIO
BILOU = AnnotationScheme.BILOU
IO = AnnotationScheme.IO


def seq(raw, scheme):
    return LabelSequence.from_raw(raw, scheme)


def random_layout(rng, n, classes=("X", "Y")):
    layout = []
    position = 0
    while position < n:
        if rng.random() < 0.5:
            length = rng.randint(1, min(3, n - position))
            layout.append((rng.choice(classes), position, position + length))
            position += length
        else:
            position += 1
    return layout


class TestDetectScheme:
    def test_io_when_only_inside_and_outside(self):
        assert detect_scheme([["O", "I-PER"], ["O"]]) is IO

    def test_bio_when_begin_present(self):
        assert detect_scheme([["B-PER", "I-PER", "O"]]) is BIO

    def test_bilou_on_unit(self):
        assert detect_scheme([["U-LOC"]]) is BILOU

    def test_bilou_on_last(self):
        assert detect_scheme([["B-LOC", "L-LOC"]]) is BILOU

    def test_all_outside_is_undecidable(self):
        with pytest.raises(AllOutside):
            detect_scheme([["O", "O"], []])

    def test_garbage_label(self):
        for raw in ("whatever", "B-", "O-X", ""):
            with pytest.raises(MalformedLabel):
                detect_scheme([["B-PER", raw]])

    @pytest.mark.parametrize("scheme", ["IO", "BIO", "BILOU"])
    def test_round_trip_on_generated_corpora(self, scheme):
        # corpora containing both multi-word and singleton chunks always
        # exercise a distinguishing prefix
        rng = random.Random(11)
        for _ in range(100):
            layouts = [random_layout(rng, rng.randint(2, 10)) for _ in range(5)]
            layouts.append([("X", 0, 2)])  # multi-word chunk
            layouts.append([("X", 0, 1)])  # singleton chunk
            corpora = [
                encode_layout(layout, max((e for _, _, e in layout), default=0), scheme)
                for layout in layouts
            ]
            assert detect_scheme(corpora) is AnnotationScheme[scheme]


class TestConvertScheme:
    def test_bio_to_bilou_marks_last(self):
        got = convert_scheme(seq(["B-PER", "I-PER", "O"], BIO), BILOU)
        assert got.serialized() == ["B-PER", "L-PER", "O"]
        assert got.scheme is BILOU

    def test_singleton_becomes_unit(self):
        got = convert_scheme(seq(["B-PER"], BIO), BILOU)
        assert got.serialized() == ["U-PER"]

    def test_io_merges_adjacent_same_class_chunks(self):
        to_io = convert_scheme(seq(["B-PER", "B-PER"], BIO), IO)
        assert to_io.serialized() == ["I-PER", "I-PER"]
        back = convert_scheme(to_io, BIO)
        assert back.serialized() == ["B-PER", "I-PER"]

    def test_inconsistent_source_rejected(self):
        with pytest.raises(InconsistentSource):
            convert_scheme(seq(["O", "I-PER"], BIO), BILOU)

    @pytest.mark.parametrize("source", ["IO", "BIO", "BILOU"])
    @pytest.mark.parametrize("target", ["BIO", "BILOU"])
    def test_chunk_sets_preserved_exhaustively(self, source, target):
        source_scheme = AnnotationScheme[source]
        target_scheme = AnnotationScheme[target]
        for n in range(5):
            for layout in all_layouts(n, ("X", "Y")):
                raw = encode_layout(layout, n, source)
                original = seq(list(raw), source_scheme)
                converted = convert_scheme(original, target_scheme)
                assert set(extract_entities(converted, "strict")) == set(
                    extract_entities(original, "strict")
                )

    def test_bio_bilou_round_trip_identity(self):
        rng = random.Random(5)
        for _ in range(500):
            n = rng.randint(0, 12)
            raw = encode_layout(random_layout(rng, n), n, "BIO")
            original = seq(list(raw), BIO)
            there = convert_scheme(original, BILOU)
            back = convert_scheme(there, BIO)
            assert back.serialized() == original.serialized()

    @given(
        lengths=st.lists(
            st.tuples(st.booleans(), st.integers(1, 3), st.sampled_from("XY")),
            max_size=10,
        )
    )
    @settings(max_examples=300)
    def test_round_trip_identity_on_arbitrary_layouts(self, lengths):
        # interpret each tuple as (is_entity, run length, class): a direct
        # layout encoding that cannot produce inconsistent input
        layout = []
        position = 0
        for is_entity, run, cls in lengths:
            if is_entity:
                layout.append((cls, position, position + run))
            position += run
        raw = encode_layout(layout, position, "BIO")
        original = seq(list(raw), BIO)
        back = convert_scheme(convert_scheme(original, BILOU), BIO)
        assert back.serialized() == original.serialized()

    def test_io_target_preserves_chunks_up_to_adjacent_merges(self):
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randint(0, 12)
            raw = encode_layout(random_layout(rng, n), n, "BIO")
            original = seq(list(raw), BIO)
            io_version = convert_scheme(original, IO)
            # merging adjacent same-class chunks of the original must
            # reproduce the IO chunk set exactly
            merged = []
            for chunk in extract_entities(original, "strict"):
                if (
                    merged
                    and merged[-1].class_name == chunk.class_name
                    and merged[-1].word_end == chunk.word_start
                ):
                    merged[-1] = type(chunk)(
                        chunk.class_name, merged[-1].word_start, chunk.word_end
                    )
                else:
                    merged.append(chunk)
            assert extract_entities(io_version, "strict") == merged


UN_DOC = Document(
    "The United Nations",
    words=(Word("The", 0, 3), Word("United", 4, 10), Word("Nations", 11, 18)),
    entities=(EntitySpan("ORG", 4, 18, "United Nations"),),
)


class TestEntitiesToWordLabels:
    def test_projection(self):
        labels = entities_to_word_labels(UN_DOC, BIO)
        assert labels.serialized() == ["O", "B-ORG", "I-ORG"]

    def test_no_entities_gives_all_outside(self):
        doc = Document("a b", words=(Word("a", 0, 1), Word("b", 2, 3)), entities=())
        assert entities_to_word_labels(doc, BIO).serialized() == ["O", "O"]

    def test_boundary_inside_word_is_an_error(self):
        doc = Document(
            "The United Nations",
            words=UN_DOC.words,
            entities=(EntitySpan("ORG", 5, 10, "nited"),),
        )
        with pytest.raises(MisalignedEntity):
            entities_to_word_labels(doc, BIO)

    def test_projection_then_extraction_reproduces_entities(self):
        labels = entities_to_word_labels(UN_DOC, BILOU)
        chunks = extract_entities(labels, "strict")
        assert [(c.class_name, c.word_start, c.word_end) for c in chunks] == [
            ("ORG", 1, 3)
        ]


class TestTokenAlignment:
    def test_from_token_counts(self):
        alignment = TokenAlignment.from_token_counts([2, 1])
        assert alignment.token_spans == ((0, True), (0, False), (1, True))
        assert alignment.word_count == 2

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            TokenAlignment(((0, True), (2, True)))

    def test_rejects_double_first(self):
        with pytest.raises(ValueError):
            TokenAlignment(((0, True), (0, True)))


class TestWordTokenProjection:
    def test_masked_mode(self):
        alignment = TokenAlignment.from_token_counts([2])
        got = word_labels_to_token_labels(seq(["B-PER"], BIO), alignment, "word_level_masked")
        assert got == [Label("B", "PER"), alignment.ignore_index]

    def test_full_mode_continues_chunk(self):
        alignment = TokenAlignment.from_token_counts([2])
        got = word_labels_to_token_labels(seq(["B-PER"], BIO), alignment, "token_level_full")
        assert got == [Label("B", "PER"), Label("I", "PER")]

    def test_full_mode_outside_stays_outside(self):
        alignment = TokenAlignment.from_token_counts([3])
        got = word_labels_to_token_labels(seq(["O"], BIO), alignment, "token_level_full")
        assert got == [Label("O")] * 3

    def test_full_mode_keeps_bilou_consistent(self):
        alignment = TokenAlignment.from_token_counts([2, 2])
        got = word_labels_to_token_labels(
            seq(["B-PER", "L-PER"], BILOU), alignment, "token_level_full"
        )
        assert [lab.serialize() for lab in got] == ["B-PER", "I-PER", "I-PER", "L-PER"]

    def test_full_mode_splits_unit_word(self):
        alignment = TokenAlignment.from_token_counts([3])
        got = word_labels_to_token_labels(
            seq(["U-PER"], BILOU), alignment, "token_level_full"
        )
        assert [lab.serialize() for lab in got] == ["B-PER", "I-PER", "L-PER"]

    def test_alignment_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            word_labels_to_token_labels(
                seq(["O", "O"], BIO), TokenAlignment.from_token_counts([1]), "token_level_full"
            )

    def test_first_token_rule(self):
        alignment = TokenAlignment.from_token_counts([2])
        got = token_labels_to_word_labels(
            [Label("B", "PER"), Label("I", "PER")], alignment, BIO
        )
        assert got.serialized() == ["B-PER"]

    def test_masked_positions_are_ignored(self):
        alignment = TokenAlignment.from_token_counts([2, 1])
        got = token_labels_to_word_labels(
            [Label("B", "PER"), alignment.ignore_index, Label("O")], alignment, BIO
        )
        assert got.serialized() == ["B-PER", "O"]

    def test_full_mode_chunks_survive_projection(self):
        # decoding chunks from full-mode token labels must reproduce the
        # word-level chunks, translated to token coordinates
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(1, 8)
            raw = encode_layout(random_layout(rng, n), n, "BIO")
            words = seq(list(raw), BIO)
            counts = [rng.randint(1, 3) for _ in range(n)]
            alignment = TokenAlignment.from_token_counts(counts)
            tokens = word_labels_to_token_labels(words, alignment, "token_level_full")
            token_seq = LabelSequence(tuple(tokens), BIO)
            token_chunks = {
                (c.class_name, c.word_start, c.word_end)
                for c in extract_entities(token_seq, "strict")
            }
            offsets = [0]
            for count in counts:
                offsets.append(offsets[-1] + count)
            word_chunks = {
                (c.class_name, offsets[c.word_start], offsets[c.word_end])
                for c in extract_entities(words, "strict")
            }
            assert token_chunks == word_chunks

    @pytest.mark.parametrize("scheme", ["IO", "BIO"])
    def test_round_trip_word_token_word_identity(self, scheme):
        # full-mode round trip is the identity for IO and BIO; under
        # BILOU it additionally requires unsplit U and L words, which is
        # exercised with single-token alignments below
        enum_scheme = AnnotationScheme[scheme]
        rng = random.Random(21)
        for _ in range(300):
            n = rng.randint(1, 8)
            raw = encode_layout(random_layout(rng, n), n, scheme)
            words = seq(list(raw), enum_scheme)
            alignment = TokenAlignment.from_token_counts(
                [rng.randint(1, 3) for _ in range(n)]
            )
            tokens = word_labels_to_token_labels(words, alignment, "token_level_full")
            back = token_labels_to_word_labels(tokens, alignment, enum_scheme)
            assert back.serialized() == words.serialized()

    def test_round_trip_bilou_with_single_token_words(self):
        rng = random.Random(22)
        for _ in range(300):
            n = rng.randint(1, 8)
            raw = encode_layout(random_layout(rng, n), n, "BILOU")
            words = seq(list(raw), BILOU)
            alignment = TokenAlignment.from_token_counts([1] * n)
            tokens = word_labels_to_token_labels(words, alignment, "token_level_full")
            back = token_labels_to_word_labels(tokens, alignment, BILOU)
            assert back.serialized() == words.serialized()

    def test_round_trip_masked_mode_any_scheme(self):
        rng = random.Random(23)
        for scheme in ("IO", "BIO", "BILOU"):
            enum_scheme = AnnotationScheme[scheme]
            for _ in range(100):
                n = rng.randint(1, 8)
                raw = encode_layout(random_layout(rng, n), n, scheme)
                words = seq(list(raw), enum_scheme)
                alignment = TokenAlignment.from_token_counts(
                    [rng.randint(1, 3) for _ in range(n)]
                )
                tokens = word_labels_to_token_labels(words, alignment, "word_level_masked")
                back = token_labels_to_word_labels(tokens, alignment, enum_scheme)
                assert back.serialized() == words.serialized()

import io
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from seqlab.core import AnnotationScheme
from seqlab.errors import (
    EmptyInput,
    FractionOutOfRange,
    LengthMismatch,
    MalformedJson,
    MalformedLabel,
    OverlappingSpans,
    PrefixNotInScheme,
    RaggedRow,
    SeqlabError,
    SpanOutOfBounds,
    UndecodableInput,
    UnresolvableSource,
)
from seqlab.evaluation import extract_entities
from seqlab.ingest import (
    DatasetSplit,
    SourceKind,
    analyze,
    document_to_record,
    load_analysis,
    load_json,
    load_split,
    parse_annotation_tool_export,
    parse_conll,
    parse_file,
    parse_pretokenized_jsonl,
    prune,
    read_canonical_jsonl,
    set_up,
    split_documents,
    write_canonical_jsonl,
    write_conll,
)

from .oracles import oracle_prune_size

DATA = Path(__file__).parent / "data"


class TestParseConll:
    def test_blank_line_separates_sentences(self):
        docs = parse_conll("EU B-ORG\n\nrejects O\n")
        assert len(docs) == 2
        assert [w.surface for w in docs[0].words] == ["EU"]
        assert docs[0].word_labels.serialized() == ["B-ORG"]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_conll("")

    def test_docstart_rows_are_skipped(self):
        docs = parse_conll("-DOCSTART- O\n\nU.N. I-ORG\n")
        assert len(docs) == 1
        assert [w.surface for w in docs[0].words] == ["U.N."]
        assert docs[0].word_labels.serialized() == ["I-ORG"]

    def test_ragged_row_reports_line(self):
        with pytest.raises(RaggedRow) as excinfo:
            parse_conll("EU B-ORG\nrejects\n")
        assert excinfo.value.line == 2
        assert "line 2" in str(excinfo.value)

    def test_last_column_is_the_label(self):
        docs = parse_conll("EU NNP I-NP B-ORG\n")
        assert docs[0].word_labels.serialized() == ["B-ORG"]

    def test_synthetic_offsets_join_with_single_spaces(self):
        doc = parse_conll("a O\nbb O\nccc O\n")[0]
        assert doc.text == "a bb ccc"
        assert [(w.char_start, w.char_end) for w in doc.words] == [(0, 1), (2, 4), (5, 8)]

    def test_round_trip_through_column_writer(self):
        docs = parse_conll("EU B-ORG\nrejects O\n\nGermany B-LOC\n")
        buffer = io.StringIO()
        write_conll(docs, buffer)
        again = parse_conll(buffer.getvalue())
        assert again == docs


class TestParsePretokenizedJsonl:
    def test_minimal_record(self):
        docs = parse_pretokenized_jsonl('{"words":["Hi"],"labels":["O"]}\n')
        assert len(docs) == 1
        assert docs[0].text == "Hi"
        assert docs[0].word_labels.serialized() == ["O"]

    def test_length_mismatch_reports_line(self):
        with pytest.raises(LengthMismatch) as excinfo:
            parse_pretokenized_jsonl('{"words":["a","b"],"labels":["O"]}\n')
        assert excinfo.value.line == 1

    def test_order_preserved(self):
        docs = parse_pretokenized_jsonl(
            '{"words":["a"],"labels":["O"]}\n{"words":["b"],"labels":["O"]}\n'
        )
        assert [d.text for d in docs] == ["a", "b"]

    def test_malformed_json_reports_line(self):
        with pytest.raises(MalformedJson) as excinfo:
            parse_pretokenized_jsonl('{"words":["a"],"labels":["O"]}\nnot json\n')
        assert excinfo.value.line == 2

    def test_explicit_text_is_aligned(self):
        docs = parse_pretokenized_jsonl(
            '{"text":"a  bb","words":["a","bb"],"labels":["O","O"]}\n'
        )
        assert [(w.char_start, w.char_end) for w in docs[0].words] == [(0, 1), (3, 5)]

    def test_unalignable_word_is_malformed(self):
        with pytest.raises(MalformedJson):
            parse_pretokenized_jsonl(
                '{"text":"a bb","words":["zz"],"labels":["O"]}\n'
            )
        # offset-bearing words whose span is empty, inverted or negative
        good = '{"text": "ab", "words": [{"surface": "ab", "start": 0, "end": 2}]}\n'
        for start, end in [(1, 1), (2, 1), (-1, 0)]:
            word = {"surface": "", "start": start, "end": end}
            with pytest.raises(MalformedJson) as excinfo:
                read_canonical_jsonl(good + json.dumps({"text": "ab", "words": [word]}) + "\n")
            assert excinfo.value.line == 2


class TestLabelInterning:
    """Readers intern labels per call; interning never hides an error."""

    def test_label_from_another_scheme_raises_with_line(self):
        source = '{"words":["a"],"labels":["O"]}\n{"words":["Ann"],"labels":["L-PER"]}\n'
        docs = read_canonical_jsonl(source, scheme="BILOU")
        assert docs[1].word_labels.serialized() == ["L-PER"]
        with pytest.raises(PrefixNotInScheme) as excinfo:
            read_canonical_jsonl(source, scheme="BIO")
        assert excinfo.value.line == 2

    def test_malformed_label_raises_on_every_occurrence(self):
        """The line is named whether the scheme is given or detected."""
        bad = '{"words":["a"],"labels":["BPER"]}\n'
        for scheme in ("BIO", None):
            for lineno in range(1, 4):
                source = '{"words":["a"],"labels":["O"]}\n' * (lineno - 1) + bad
                with pytest.raises(MalformedLabel) as excinfo:
                    read_canonical_jsonl(source, scheme=scheme)
                assert excinfo.value.line == lineno
            for _ in range(2):
                with pytest.raises(MalformedLabel) as excinfo:
                    parse_conll("a O\nb BPER\n", scheme=scheme)
                assert excinfo.value.line == 2

    @pytest.mark.parametrize("raw", ["PER", "X-PER", "B-", "O-X"])
    def test_label_error_does_not_depend_on_scheme_detection(self, raw):
        jsonl = '{"words":["a"],"labels":["O"]}\n' + json.dumps({"words": ["b"], "labels": [raw]})
        for read, source in [(read_canonical_jsonl, jsonl), (parse_conll, f"a O\nb {raw}\n")]:
            errors = []
            for scheme in (None, "BILOU"):
                with pytest.raises(MalformedLabel) as excinfo:
                    read(source, scheme=scheme)
                errors.append((str(excinfo.value), excinfo.value.line))
            assert errors[0] == errors[1]
            message, line = errors[0]
            assert line == 2 and repr(raw) in message


class TestAnnotationToolExports:
    def test_doccano_line(self):
        docs = parse_annotation_tool_export(
            '{"text":"The United Nations","label":[[4,18,"ORG"]]}\n', "DoccanoJsonl"
        )
        assert len(docs) == 1
        (entity,) = docs[0].entities
        assert (entity.char_start, entity.char_end) == (4, 18)
        assert entity.surface == "United Nations"
        assert entity.class_name == "ORG"

    def test_doccano_empty_annotation(self):
        docs = parse_annotation_tool_export(
            '{"text":"nothing","label":[]}\n', "DoccanoJsonl"
        )
        assert docs[0].entities == ()

    def test_labelstudio_spans_sorted_by_start(self):
        docs = parse_annotation_tool_export(
            DATA.joinpath("labelstudio_sample.json").read_text(), "LabelStudioJson"
        )
        assert len(docs) == 2
        spans = docs[1].entities
        assert [s.class_name for s in spans] == ["PER", "LOC"]
        assert [s.char_start for s in spans] == [0, 21]
        assert spans[1].surface == "Geneva"

    def test_span_out_of_bounds(self):
        with pytest.raises(SpanOutOfBounds) as excinfo:
            parse_annotation_tool_export(
                '{"text":"short","label":[[0,99,"X"]]}\n', "DoccanoJsonl"
            )
        assert excinfo.value.line == 1

    def test_overlapping_spans_are_a_hard_error(self):
        with pytest.raises(OverlappingSpans):
            parse_annotation_tool_export(
                '{"text":"aa bb cc","label":[[0,5,"X"],[3,8,"Y"]]}\n', "DoccanoJsonl"
            )

    def test_unknown_dialect(self):
        with pytest.raises(ValueError):
            parse_annotation_tool_export("{}", "brat")

    def test_whitespace_is_trimmed_off_entity_edges(self):
        """Trimmed before the overlap check; a whitespace-only span is dropped."""
        source = (
            '{"text":"I love  Paris now","label":[[6,13,"LOC"],[13,14,"MISC"]]}\n'
            '{"text":"aa bb","label":[[0,3,"X"],[2,5,"Y"]]}\n'
        )
        first, second = parse_annotation_tool_export(source, "DoccanoJsonl")
        assert [(e.class_name, e.char_start, e.char_end, e.surface) for e in first.entities] == [
            ("LOC", 8, 13, "Paris")
        ]
        assert [(e.char_start, e.char_end, e.surface) for e in second.entities] == [
            (0, 2, "aa"), (3, 5, "bb")
        ]


class TestCanonicalRoundTrip:
    def test_write_then_read_is_identity(self):
        docs = parse_conll("EU B-ORG\nrejects O\n\nBonn B-LOC\n")
        buffer = io.StringIO()
        write_canonical_jsonl(docs, buffer)
        again = read_canonical_jsonl(buffer.getvalue())
        assert again == docs

    def test_text_with_unicode_line_separators_survives(self):
        """JSONL records end at "\\n" only: the writer leaves U+2028 and
        U+0085 unescaped inside strings."""
        docs = parse_annotation_tool_export(
            '{"text":"a\\u2028b\\u0085c d","label":[[6,7,"X"]]}\n', "DoccanoJsonl"
        )
        buffer = io.StringIO()
        write_canonical_jsonl(docs, buffer)
        assert "\u2028" in buffer.getvalue()
        assert read_canonical_jsonl(buffer.getvalue()) == docs

    def test_lines_are_the_bytes_of_json_dumps(self):
        """The writer writes each line as json.dumps(..., ensure_ascii=False)
        writes it: non-ASCII text, astral characters and U+2028 left
        unescaped, control characters escaped, nulls as JSON writes them."""
        docs = [
            *parse_annotation_tool_export(
                '{"text":"Z\\u00fcrich\\u2028\\u4e2d d","label":[[0,6,"LOC"]]}\n', "DoccanoJsonl"
            ),
            *parse_conll("\u00c6r\u00f8 B-LOC\nx O\n"),
            *read_canonical_jsonl(
                '{"text": "\\u00e9\\u2028\\ud83d\\ude00\\u0001", "words": null, "labels": null,'
                ' "entities": [{"start": 0, "end": 2, "label": "q\\"\\\\"}]}\n'
            ),
        ]
        buffer = io.StringIO()
        write_canonical_jsonl(docs, buffer)
        assert buffer.getvalue() == "".join(
            json.dumps(document_to_record(doc), ensure_ascii=False) + "\n" for doc in docs
        )

    def test_entity_documents_survive(self):
        docs = parse_annotation_tool_export(
            '{"text":"The United Nations","label":[[4,18,"ORG"]]}\n', "DoccanoJsonl"
        )
        buffer = io.StringIO()
        write_canonical_jsonl(docs, buffer)
        again = read_canonical_jsonl(buffer.getvalue())
        assert again == docs


def tiny_docs(n):
    return [
        parse_conll(f"w{i} B-X\n")[0]
        for i in range(n)
    ]


class TestSplitting:
    def test_floor_floor_remainder_sizes(self):
        train, val, test = split_documents(tiny_docs(10), (0.8, 0.1, 0.1), seed=42)
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_deterministic_for_a_seed(self):
        docs = tiny_docs(20)
        first = split_documents(docs, seed=7)
        second = split_documents(docs, seed=7)
        assert first == second

    def test_different_seeds_differ(self):
        docs = tiny_docs(50)
        assert split_documents(docs, seed=1) != split_documents(docs, seed=2)

    def test_partition_property(self):
        docs = tiny_docs(23)
        train, val, test = split_documents(docs, (0.6, 0.2, 0.2), seed=3)
        combined = sorted(
            d.text for split in (train, val, test) for d in split.documents
        )
        assert combined == sorted(d.text for d in docs)

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            split_documents(tiny_docs(4), (0.5, 0.1, 0.1))

    @pytest.mark.parametrize(
        "ratio",
        [(math.nan, 0.0, 1.0), (math.inf, 0.0, 0.0), (0.8, 0.2), (-0.1, 0.6, 0.5), (0.5,) * 3],
    )
    def test_ratio_outside_the_contract(self, ratio):
        """Three finite, non-negative numbers that sum to 1; NaN passes no
        comparison, so it is named."""
        with pytest.raises(ValueError, match="three finite, non-negative numbers"):
            split_documents(tiny_docs(4), ratio)


class TestPrune:
    def test_identity_fraction(self):
        split = DatasetSplit("train", tuple(tiny_docs(100)))
        assert len(prune(split, 1.0)) == 100

    def test_exact_half(self):
        split = DatasetSplit("train", tuple(tiny_docs(100)))
        assert len(prune(split, 0.5)) == 50

    def test_ceil_rule(self):
        split = DatasetSplit("train", tuple(tiny_docs(3)))
        pruned = prune(split, 0.5)
        assert len(pruned) == 2
        assert pruned.documents == split.documents[:2]

    def test_against_exact_arithmetic_oracle(self):
        for n in range(1, 11):
            split = DatasetSplit("train", tuple(tiny_docs(n)))
            for tenth in range(1, 11):
                fraction = tenth / 10
                assert len(prune(split, fraction)) == oracle_prune_size(n, fraction)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.1])
    def test_fraction_out_of_range(self, fraction):
        with pytest.raises(FractionOutOfRange):
            prune(DatasetSplit("train", ()), fraction)


class TestAnalyze:
    def test_empty_split_has_zero_counts(self):
        analysis = analyze(
            [DatasetSplit("train", tuple(tiny_docs(2))), DatasetSplit("test", ())]
        )
        assert analysis.num_documents["test"] == 0
        assert analysis.num_words["test"] == 0
        assert analysis.entity_counts["test"] == {}

    def test_single_chunk(self):
        docs = parse_conll("Ada B-PER\nLovelace I-PER\nwrote O\n")
        analysis = analyze([DatasetSplit("train", tuple(docs))])
        assert analysis.entity_counts["train"] == {"PER": 1}
        assert analysis.scheme_detected is AnnotationScheme.BIO
        assert analysis.pretokenized

    def test_counts_match_extraction_oracle(self):
        rng = random.Random(17)
        lines = []
        for _ in range(30):
            for _ in range(rng.randint(1, 6)):
                lines.append(f"w {rng.choice(['O', 'B-A', 'I-A', 'B-B'])}")
            lines.append("")
        docs = parse_conll("\n".join(lines))
        analysis = analyze([DatasetSplit("train", tuple(docs))])
        expected: dict[str, int] = {}
        for doc in docs:
            for chunk in extract_entities(doc.word_labels, "strict"):
                expected[chunk.class_name] = expected.get(chunk.class_name, 0) + 1
        assert analysis.entity_counts["train"] == expected

    def test_entity_documents_counted_via_spans(self):
        docs = parse_annotation_tool_export(
            '{"text":"The United Nations","label":[[4,18,"ORG"]]}\n', "DoccanoJsonl"
        )
        analysis = analyze([DatasetSplit("train", tuple(docs))])
        assert analysis.entity_counts["train"] == {"ORG": 1}
        assert not analysis.pretokenized


class TestSetUp:
    def test_builtin_dataset(self, tmp_path):
        splits, analysis = set_up("BI", name="mini-conll", data_dir=tmp_path)
        assert [len(s) for s in splits] == [18, 3, 3]
        assert analysis.scheme_detected is AnnotationScheme.BIO
        for split_name in ("train", "val", "test"):
            assert (tmp_path / "mini-conll" / f"{split_name}.jsonl").is_file()
        assert (tmp_path / "mini-conll" / "analysis.json").is_file()

    def test_unknown_builtin(self, tmp_path):
        with pytest.raises(UnresolvableSource):
            set_up("BI", name="nope", data_dir=tmp_path)

    def test_unsplit_local_file_ratio(self, tmp_path):
        source = tmp_path / "data.conll"
        source.write_text("".join(f"w{i} B-X\n\n" for i in range(10)))
        splits, analysis = set_up(
            "LF", name="ten", path=source, seed=42, data_dir=tmp_path
        )
        assert [len(s) for s in splits] == [8, 1, 1]
        assert analysis.seed == 42

    def test_same_seed_same_splits(self, tmp_path):
        source = tmp_path / "data.conll"
        source.write_text("".join(f"w{i} B-X\n\n" for i in range(20)))
        first, _ = set_up("LF", name="a", path=source, seed=9, data_dir=tmp_path)
        second, _ = set_up("LF", name="b", path=source, seed=9, data_dir=tmp_path)
        assert first == second

    def test_presplit_passthrough(self, tmp_path):
        for split_name, count in zip(("train", "val", "test"), (4, 2, 1)):
            (tmp_path / f"{split_name}.conll").write_text(
                "".join(f"w{i} O\n\n" for i in range(count))
            )
        splits, analysis = set_up(
            "LF",
            name="pre",
            train_path=tmp_path / "train.conll",
            val_path=tmp_path / "val.conll",
            test_path=tmp_path / "test.conll",
            data_dir=tmp_path,
        )
        assert [len(s) for s in splits] == [4, 2, 1]
        assert analysis.seed is None

    def test_train_fraction_prunes(self, tmp_path):
        source = tmp_path / "data.conll"
        source.write_text("".join(f"w{i} B-X\n\n" for i in range(10)))
        splits, _ = set_up(
            "LF", name="half", path=source, train_fraction=0.5, data_dir=tmp_path
        )
        assert len(splits[0]) == 4  # ceil(0.5 * 8)

    def test_setup_is_idempotent_on_canonical_files(self, tmp_path):
        set_up("BI", name="mini-conll", data_dir=tmp_path)
        dataset_dir = tmp_path / "mini-conll"
        first = {
            name: (dataset_dir / f"{name}.jsonl").read_text()
            for name in ("train", "val", "test")
        }
        splits, _ = set_up(
            "LF",
            name="again",
            train_path=dataset_dir / "train.jsonl",
            val_path=dataset_dir / "val.jsonl",
            test_path=dataset_dir / "test.jsonl",
            data_dir=tmp_path,
        )
        again_dir = tmp_path / "again"
        for name in ("train", "val", "test"):
            assert (again_dir / f"{name}.jsonl").read_text() == first[name]

    def test_annotation_tool_source(self, tmp_path):
        source = tmp_path / "export.jsonl"
        source.write_text(
            "".join(
                json.dumps({"text": f"doc {i} here", "label": [[0, 3, "X"]]}) + "\n"
                for i in range(10)
            )
        )
        splits, analysis = set_up(
            "AT", name="tool", path=source, dialect="doccano", data_dir=tmp_path
        )
        assert sum(len(s) for s in splits) == 10
        assert not analysis.pretokenized

    def test_load_split_and_analysis(self, tmp_path):
        set_up("BI", name="mini-conll", data_dir=tmp_path)
        split = load_split(tmp_path / "mini-conll", "test")
        assert len(split) == 3
        analysis = load_analysis(tmp_path / "mini-conll")
        assert analysis["scheme_detected"] == "BIO"

    def test_missing_path(self, tmp_path):
        with pytest.raises(UnresolvableSource):
            set_up("LF", name="nothing", data_dir=tmp_path)

    def test_source_kind_coercion(self):
        assert SourceKind.coerce("lf") is SourceKind.LOCAL_FILE
        assert SourceKind.coerce("BUILT_IN") is SourceKind.BUILT_IN
        with pytest.raises(UnresolvableSource):
            SourceKind.coerce("??")


RAW_SEEDS = [
    (".jsonl", (DATA / "doccano_sample.jsonl").read_bytes()),
    (".json", (DATA / "labelstudio_sample.json").read_bytes()),
    (".conll", b"-DOCSTART- O\n\nEU B-ORG\nrejects O\n\nPeter B-PER\nBlackburn I-PER\n"),
    (".jsonl", b'{"words": ["EU", "rejects"], "labels": ["B-ORG", "O"]}\n'
               b'{"text": "a b", "entities": [{"start": 2, "end": 3, "label": "X"}]}\n'),
]


#: JSON string escapes around the surrogate range, paired and lone
ESCAPES = ["\\ud800", "\\uDBFF", "\\udc00", "\\uDFFF", "\\ud83d", "\\uDE00", "\\uD7FF",
           "\\ue000", "\\\\", "\\\\u", "u", "\\n", "\\\"", "a", "\u00e9"]


class TestRawBytes:
    def test_non_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_bytes(b"EU B-ORG\n\nPeter B-PER\nBlack\xc3 I-PER\n")
        with pytest.raises(UndecodableInput) as excinfo:
            parse_file(path)
        assert excinfo.value.line == 4

    def test_lone_surrogate_escape_names_its_line(self, tmp_path):
        """A lone surrogate escape is valid JSON syntax, but it decodes to a
        string no UTF-8 file can hold: it fails where it is, not at the write."""
        pretokenized = tmp_path / "lone.jsonl"
        pretokenized.write_text(
            '{"words": ["Ann", "\\ud83d\\ude00"], "labels": ["B-PER", "O"]}\n'
            '{"words": ["Ann", "\\\\ud800", "\\udc00"], "labels": ["B-PER", "O", "O"]}\n'
        )
        tasks = tmp_path / "export.json"
        tasks.write_text('[{"data": {"text": "Ann"},\n "annotations": [],\n "x": "\\udbff"}]')
        for path, line in [(pretokenized, 2), (tasks, 3)]:
            with pytest.raises(MalformedJson, match=r"invalid JSON \(lone surrogate\)") as excinfo:
                parse_file(path)
            assert excinfo.value.line == line

    @given(st.lists(st.sampled_from(ESCAPES), max_size=6), st.sampled_from(["", "\\udfff"]))
    def test_lone_surrogate_check_agrees_with_the_decoder(self, escapes, key):
        """load_json rejects exactly the JSON whose decoded strings, keys
        included, cannot be encoded as UTF-8."""
        source = '{"k%s": "%s"}' % (key, "".join(escapes))
        try:
            json.dumps(json.loads(source), ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            with pytest.raises(MalformedJson, match="lone surrogate"):
                load_json(source)
        else:
            assert load_json(source) == json.loads(source)

    def test_corrupt_analysis_is_typed(self, tmp_path):
        (tmp_path / "analysis.json").write_text('{"scheme_detected":\n')
        with pytest.raises(MalformedJson):
            load_analysis(tmp_path)

    def test_empty_entity_label_is_typed(self):
        with pytest.raises(MalformedJson) as excinfo:
            parse_annotation_tool_export('{"text":"ab","label":[[0,1,""]]}\n', "DoccanoJsonl")
        assert excinfo.value.line == 1

    def test_outside_entity_label_is_typed(self):
        with pytest.raises(MalformedJson, match="outside label") as excinfo:
            parse_annotation_tool_export(
                '{"text":"ab","label":[]}\n{"text":"ab","label":[[0,1,"O"]]}\n', "DoccanoJsonl"
            )
        assert excinfo.value.line == 2

    @pytest.mark.parametrize(
        "dialect, bad",
        [
            ("doccano", [[0, 3, 5]]),
            ("doccano", [[4, 7, ["X"]]]),
            ("doccano", [[0, 3, None]]),
            ("doccano", [[True, 3, "X"]]),
            ("doccano", [[0, 3.9, "X"]]),
            ("doccano", [[0, 3.0, "X"]]),
            ("doccano", [["0", 3, "X"]]),
            ("labelstudio", {"start": 0, "end": 3, "labels": [5]}),
            ("labelstudio", {"start": 0, "end": 3, "labels": [True]}),
            ("labelstudio", {"start": False, "end": 3, "labels": ["X"]}),
            ("labelstudio", {"start": 0, "end": 2.5, "labels": ["X"]}),
            ("canonical", [{"start": 0, "end": 3, "label": 5}]),
            ("canonical", [{"start": 0, "end": 3, "label": {"X": 1}}]),
            ("canonical", [{"start": 0.0, "end": 3, "label": "X"}]),
            ("canonical", [{"start": 0, "end": True, "label": "X"}]),
            ("canonical", [{"start": 0, "end": "3", "label": "X"}]),
            ("words", [{"surface": "abc", "start": False, "end": 3.5}]),
            ("words", [{"surface": "abc", "start": 0, "end": 3.0}]),
            ("words", [{"surface": "abc", "start": "0", "end": 3}]),
            ("words", [{"surface": "abc", "start": 0, "end": None}]),
        ],
    )
    def test_entity_labels_are_strings_and_offsets_integers(self, tmp_path, dialect, bad):
        """JSON true, 3.9 or "3" as an offset, and 5 or ["X"] as a label, are
        not read as 1, 3 or classes "5" and "['X']": the second record fails."""
        if dialect == "labelstudio":
            tasks = [
                {"data": {"text": "abc def"},
                 "annotations": [{"result": [{"type": "labels", "value": value}]}]}
                for value in ({"start": 0, "end": 3, "labels": ["X"]}, bad)
            ]
            path = tmp_path / "export.json"
            source = json.dumps(tasks)
        else:
            key, good = {
                "doccano": ("label", [[0, 3, "X"]]),
                "canonical": ("entities", [{"start": 0, "end": 3, "label": "X"}]),
                "words": ("words", [{"surface": "abc", "start": 0, "end": 3}]),
            }[dialect]
            path = tmp_path / "export.jsonl"
            source = "".join(json.dumps({"text": "abc def", key: v}) + "\n" for v in (good, bad))
        path.write_text(source, encoding="utf-8")
        with pytest.raises(MalformedJson) as excinfo:
            parse_file(path)
        assert excinfo.value.line == 2

    def test_byte_mutations_raise_only_package_errors(self, tmp_path):
        """Mutated files go through parse_file as raw bytes: undecodable
        input must be rejected as typed errors too."""
        rng = random.Random(2024)
        for i in range(3000):
            suffix, payload = RAW_SEEDS[i % len(RAW_SEEDS)]
            raw = bytearray(payload)
            for _ in range(rng.randint(1, 4)):
                action = rng.random()
                if action < 0.5 or not raw:
                    raw.insert(rng.randrange(len(raw) + 1), rng.randrange(256))
                elif action < 0.8:
                    raw[rng.randrange(len(raw))] = rng.randrange(256)
                else:
                    del raw[rng.randrange(len(raw))]
            path = tmp_path / f"mutated{suffix}"
            path.write_bytes(bytes(raw))
            try:
                parse_file(path)
            except SeqlabError:
                pass  # typed rejection is the contract

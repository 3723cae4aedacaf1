import random
from collections import Counter

import pytest

from seqlab import core
from seqlab.core import (
    AnnotationScheme,
    Document,
    EntitySpan,
    LabelSequence,
    Word,
    decode,
)
from seqlab.errors import MissingGold
from seqlab.evaluation import (
    Chunk,
    Counts,
    DatasetEvaluation,
    count_documents,
    evaluate_on_dataset,
    extract_entities,
)
from seqlab.inference import EchoTagger, LexiconTagger
from seqlab.ingest import DatasetSplit, parse_annotation_tool_export

from .oracles import (
    all_sequences,
    legal_sequences,
    oracle_lenient_chunks,
    oracle_strict_chunks,
)

BIO = AnnotationScheme.BIO
BILOU = AnnotationScheme.BILOU
IO = AnnotationScheme.IO


def seq(raw, scheme):
    return LabelSequence.from_raw(raw, scheme)


def chunk_tuples(chunks):
    return [(c.class_name, c.word_start, c.word_end) for c in chunks]


class TestStrictExtraction:
    def test_dangling_inside_is_dropped(self):
        assert extract_entities(seq(["O", "I-PER"], BIO), "strict") == []

    def test_consistent_bio(self):
        chunks = extract_entities(seq(["B-PER", "I-PER", "O", "B-ORG"], BIO), "strict")
        assert chunk_tuples(chunks) == [("PER", 0, 2), ("ORG", 3, 4)]

    def test_unterminated_bilou_chunk_is_dropped(self):
        assert extract_entities(seq(["B-ORG", "O"], BILOU), "strict") == []
        assert extract_entities(seq(["B-ORG", "I-ORG"], BILOU), "strict") == []

    def test_complete_bilou_chunks(self):
        chunks = extract_entities(
            seq(["U-LOC", "O", "B-PER", "I-PER", "L-PER"], BILOU), "strict"
        )
        assert chunk_tuples(chunks) == [("LOC", 0, 1), ("PER", 2, 5)]

    def test_io_runs(self):
        chunks = extract_entities(seq(["I-PER", "I-PER", "I-ORG", "O"], IO), "strict")
        assert chunk_tuples(chunks) == [("PER", 0, 2), ("ORG", 2, 3)]

    @pytest.mark.parametrize("scheme", ["BIO", "BILOU", "IO"])
    def test_matches_pattern_oracle_exhaustively(self, scheme):
        enum_scheme = AnnotationScheme[scheme]
        for n in range(5):
            for raw in all_sequences(n, ("X", "Y"), scheme):
                got = chunk_tuples(extract_entities(seq(list(raw), enum_scheme), "strict"))
                assert got == oracle_strict_chunks(raw, scheme), raw


# Expected lenient behavior, hand-derived from the reference transition
# tables (conlleval lineage; BILOU's L/U run through them as E/S).
LENIENT_FIXTURES = [
    ("BIO", ["O", "I-PER"], [("PER", 1, 2)]),
    ("BIO", ["I-PER", "I-PER"], [("PER", 0, 2)]),
    ("BIO", ["B-PER", "I-ORG"], [("PER", 0, 1), ("ORG", 1, 2)]),
    ("BIO", ["B-PER", "B-PER"], [("PER", 0, 1), ("PER", 1, 2)]),
    ("BIO", ["O", "I-PER", "B-PER", "I-PER", "O"], [("PER", 1, 2), ("PER", 2, 4)]),
    ("BIO", ["I-PER", "I-ORG", "I-ORG"], [("PER", 0, 1), ("ORG", 1, 3)]),
    ("BIO", ["B-PER"], [("PER", 0, 1)]),
    ("BIO", ["I-PER", "O", "I-PER"], [("PER", 0, 1), ("PER", 2, 3)]),
    ("BIO", ["B-PER", "I-PER", "I-ORG", "I-ORG", "O"], [("PER", 0, 2), ("ORG", 2, 4)]),
    ("BIO", ["O"], []),
    ("BIO", [], []),
    ("BILOU", ["B-ORG", "O"], [("ORG", 0, 1)]),
    ("BILOU", ["L-PER"], [("PER", 0, 1)]),
    ("BILOU", ["U-PER", "I-PER"], [("PER", 0, 1), ("PER", 1, 2)]),
    ("BILOU", ["B-PER", "I-PER"], [("PER", 0, 2)]),
    ("BILOU", ["B-PER", "L-ORG"], [("PER", 0, 1), ("ORG", 1, 2)]),
    ("BILOU", ["U-PER"], [("PER", 0, 1)]),
    ("BILOU", ["I-PER", "L-PER"], [("PER", 0, 2)]),
    ("BILOU", ["B-PER", "I-PER", "L-PER", "L-PER"], [("PER", 0, 3), ("PER", 3, 4)]),
    ("IO", ["I-PER", "O", "I-PER", "I-PER"], [("PER", 0, 1), ("PER", 2, 4)]),
    ("IO", ["I-PER", "I-ORG"], [("PER", 0, 1), ("ORG", 1, 2)]),
]


class TestLenientExtraction:
    @pytest.mark.parametrize("scheme,raw,expected", LENIENT_FIXTURES)
    def test_fixture_table(self, scheme, raw, expected):
        got = extract_entities(seq(raw, AnnotationScheme[scheme]), "lenient")
        assert chunk_tuples(got) == expected

    @pytest.mark.parametrize("scheme", ["BIO", "BILOU", "IO"])
    def test_matches_conlleval_oracle_exhaustively(self, scheme):
        enum_scheme = AnnotationScheme[scheme]
        for n in range(5):
            for raw in all_sequences(n, ("X", "Y"), scheme):
                got = chunk_tuples(extract_entities(seq(list(raw), enum_scheme), "lenient"))
                assert got == oracle_lenient_chunks(raw), raw

    @pytest.mark.parametrize("scheme", ["BIO", "BILOU", "IO"])
    def test_strict_subset_of_lenient_exhaustive(self, scheme):
        enum_scheme = AnnotationScheme[scheme]
        for n in range(5):
            for raw in all_sequences(n, ("X",), scheme):
                s = seq(list(raw), enum_scheme)
                strict = set(extract_entities(s, "strict"))
                lenient = set(extract_entities(s, "lenient"))
                assert strict <= lenient, raw

    @pytest.mark.parametrize("scheme", ["BIO", "BILOU", "IO"])
    def test_modes_agree_on_consistent_sequences(self, scheme):
        enum_scheme = AnnotationScheme[scheme]
        for n in range(5):
            for raw in legal_sequences(n, ("X", "Y"), scheme):
                s = seq(list(raw), enum_scheme)
                assert extract_entities(s, "strict") == extract_entities(s, "lenient"), raw


def entity_report(gold, pred):
    """The strict block of one sequence's chunks; read its "entity" level."""
    counts = Counts()
    counts.add_chunks("strict", gold, pred)
    return counts.report()["strict"]


def word_report(gold, pred):
    """The strict block of one sequence's labels; read its "word" level."""
    counts = Counts()
    counts.add_words(gold, pred)
    return counts.report()["strict"]


class TestScoreEntities:
    """Entity scoring of one sequence through `Counts`."""

    def test_half_precision_full_recall(self):
        gold = [Chunk("PER", 0, 2)]
        pred = [Chunk("PER", 0, 2), Chunk("ORG", 3, 4)]
        micro = entity_report(gold, pred)["micro"]["entity"]
        assert micro["precision"] == 0.5
        assert micro["recall"] == 1.0
        assert micro["f1"] == pytest.approx(2 / 3, abs=1e-15)

    def test_identity(self):
        gold = [Chunk("PER", 0, 2), Chunk("LOC", 4, 5)]
        report = entity_report(gold, list(gold))
        assert report["micro"]["entity"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
        assert report["macro"]["entity"]["f1"] == 1.0

    def test_boundary_mismatch_scores_zero(self):
        report = entity_report([Chunk("PER", 0, 2)], [Chunk("PER", 0, 3)])
        assert report["micro"]["entity"]["f1"] == 0.0

    def test_swap_exchanges_precision_and_recall(self):
        rng = random.Random(7)
        for _ in range(50):
            gold, pred = [], []
            for chunks in (gold, pred):
                position = 0
                while position < 10 and rng.random() < 0.6:
                    length = rng.randint(1, 2)
                    chunks.append(Chunk(rng.choice("AB"), position, position + length))
                    position += length + rng.randint(0, 2)
            forward = entity_report(gold, pred)["micro"]["entity"]
            backward = entity_report(pred, gold)["micro"]["entity"]
            assert forward["precision"] == backward["recall"]
            assert forward["recall"] == backward["precision"]
            assert forward["f1"] == pytest.approx(backward["f1"], abs=1e-12)

    def test_single_class_micro_equals_per_class(self):
        gold = [Chunk("PER", 0, 1), Chunk("PER", 3, 5)]
        pred = [Chunk("PER", 0, 1), Chunk("PER", 2, 4)]
        report = entity_report(gold, pred)
        per = report["per_class"]["PER"]["entity"]
        micro = report["micro"]["entity"]
        assert {name: per[name] for name in ("precision", "recall", "f1")} == micro

    def test_macro_skips_zero_support_classes(self):
        gold = [Chunk("PER", 0, 1)]
        pred = [Chunk("PER", 0, 1), Chunk("ORG", 3, 4)]  # ORG: predicted, never gold
        report = entity_report(gold, pred)
        assert report["per_class"]["ORG"]["entity"]["support"] == 0
        assert report["macro"]["entity"]["f1"] == 1.0


class TestScoreWords:
    """Word scoring of one sequence through `Counts`."""

    def test_prefix_stripping_counts_class_match(self):
        report = word_report(seq(["B-PER"], BIO), seq(["I-PER"], BIO))
        assert report["per_class"]["PER"]["word"]["f1"] == 1.0

    def test_identical_sequences_score_one(self):
        s = seq(["B-PER", "I-PER", "O"], BIO)
        report = word_report(s, s)
        assert report["micro"]["word"]["f1"] == 1.0

    def test_false_positive_lands_in_confusion(self):
        report = word_report(seq(["O"], BIO), seq(["B-PER"], BIO))
        assert report["per_class"]["PER"]["word"]["precision"] == 0.0
        assert report["confusion"]["O"]["PER"] == 1

    def test_confusion_row_sums_equal_gold_counts(self):
        rng = random.Random(13)
        labels = ["O", "B-A", "I-A", "B-B", "I-B"]
        for _ in range(30):
            n = rng.randint(1, 15)
            gold_raw = [rng.choice(labels) for _ in range(n)]
            pred_raw = [rng.choice(labels) for _ in range(n)]
            report = word_report(seq(gold_raw, BIO), seq(pred_raw, BIO))
            for gold_class, row in report["confusion"].items():
                expected = sum(
                    1
                    for lab in gold_raw
                    if (lab if lab == "O" else lab[2:]) == gold_class
                )
                assert sum(row.values()) == expected


def word_doc(surfaces, labels, scheme=BIO):
    words = []
    position = 0
    for i, surface in enumerate(surfaces):
        if i:
            position += 1
        words.append(Word(surface, position, position + len(surface)))
        position += len(surface)
    return Document(
        " ".join(surfaces),
        words=tuple(words),
        word_labels=LabelSequence.from_raw(labels, scheme),
    )


FIXTURE_DOCS = [
    word_doc(["Alice", "Moreau", "visited", "Geneva"], ["B-PER", "I-PER", "O", "B-LOC"]),
    word_doc(["Acme", "Corp", "hired", "Bob"], ["B-ORG", "I-ORG", "O", "B-PER"]),
    word_doc(["nothing", "here"], ["O", "O"]),
]


class TestEvaluateOnDataset:
    def test_perfect_tagger_scores_one_everywhere(self):
        split = DatasetSplit("test", tuple(FIXTURE_DOCS))
        tagger = EchoTagger.from_documents(FIXTURE_DOCS)
        result = evaluate_on_dataset(tagger, split, BIO)
        for mode in ("strict", "lenient"):
            assert result[mode]["micro"]["entity"]["f1"] == 1.0
        assert result["strict"]["micro"]["word"]["f1"] == 1.0
        assert result["micro"]["entity"]["f1"] == 1.0  # default block is strict

    def test_all_outside_tagger_scores_zero(self):
        split = DatasetSplit("test", tuple(FIXTURE_DOCS))
        result = evaluate_on_dataset(LexiconTagger({}), split, BIO)
        assert result["strict"]["micro"]["entity"] == {"precision": 0.0, "recall": 0.0, "f1": 0.0}

    def test_missing_gold(self):
        split = DatasetSplit("test", (Document("no annotation at all"),))
        with pytest.raises(MissingGold):
            evaluate_on_dataset(LexiconTagger({}), split, BIO)

    def test_entity_level_documents_are_projected(self):
        doc = Document(
            "The United Nations",
            entities=(EntitySpan("ORG", 4, 18, "United Nations"),),
        )
        split = DatasetSplit("test", (doc,))
        tagger = LexiconTagger({"United": "ORG", "Nations": "ORG"})
        result = evaluate_on_dataset(tagger, split, BIO)
        assert result["strict"]["micro"]["entity"]["f1"] == 1.0

    def test_micro_invariant_under_document_permutation(self):
        docs = list(FIXTURE_DOCS)
        tagger = LexiconTagger({"Alice": "PER", "Acme": "ORG", "Geneva": "LOC"})
        baseline = evaluate_on_dataset(tagger, DatasetSplit("test", tuple(docs)), BIO)
        rng = random.Random(3)
        for _ in range(5):
            rng.shuffle(docs)
            shuffled = evaluate_on_dataset(tagger, DatasetSplit("test", tuple(docs)), BIO)
            assert shuffled["strict"]["micro"] == baseline["strict"]["micro"]

    def test_report_serialization_nesting(self):
        split = DatasetSplit("test", tuple(FIXTURE_DOCS))
        tagger = EchoTagger.from_documents(FIXTURE_DOCS)
        data = evaluate_on_dataset(tagger, split, BIO)
        assert type(data) is DatasetEvaluation and isinstance(data, dict)
        assert set(data) == {"strict", "lenient"}
        assert set(data["strict"]["micro"]) == {"entity", "word"}
        assert set(data["lenient"]["micro"]) == {"entity"}
        assert {"precision", "recall", "f1"} <= set(data["strict"]["macro"]["entity"])
        assert "confusion" in data["strict"]

    def test_item_access_reads_one_block(self):
        split = DatasetSplit("test", tuple(FIXTURE_DOCS))
        tagger = LexiconTagger({"Geneva": "LOC", "Moreau": "PER"})
        result = evaluate_on_dataset(tagger, split, BIO)
        assert result["micro"] is result["strict"]["micro"]
        assert result["per_class"] is result["strict"]["per_class"]
        assert result["confusion"] is result["strict"]["confusion"]
        assert "micro" not in result and result.get("micro") is None
        with pytest.raises(KeyError):
            result["nonexistent"]
        with pytest.raises(KeyError):  # a missing mode is not read from the strict block
            DatasetEvaluation(strict={"lenient": {}})["lenient"]
        with pytest.raises(KeyError):
            DatasetEvaluation()["micro"]


class TestPredictionScheme:
    """Predictions are parsed in the tagger's scheme; the dataset's scheme
    is only the default for taggers that declare none."""

    def test_bilou_tagger_on_bio_dataset(self):
        doc = word_doc(["Acme", "Corp", "hired", "Bob"], ["B-ORG", "I-ORG", "O", "B-PER"])
        tagger = LexiconTagger({"Acme": "ORG", "Corp": "ORG", "Bob": "PER"}, BILOU)
        result = evaluate_on_dataset(tagger, DatasetSplit("test", (doc,)), BIO)
        assert result["strict"]["micro"]["entity"]["f1"] == 1.0

    def test_bio_tagger_on_bilou_dataset(self):
        doc = word_doc(["Acme", "Corp", "hired"], ["B-ORG", "L-ORG", "O"], BILOU)
        tagger = LexiconTagger({"Acme": "ORG", "Corp": "ORG"}, BIO)
        result = evaluate_on_dataset(tagger, DatasetSplit("test", (doc,)), BILOU)
        assert result["strict"]["micro"]["entity"]["f1"] == 1.0
        assert result["lenient"]["micro"]["entity"]["f1"] == 1.0

    def test_dataset_scheme_is_the_default(self):
        class Undeclared:
            def tag(self, words):
                return [("I-ORG", 1.0)] * len(words)

        doc = word_doc(["Acme", "Corp"], ["I-ORG", "I-ORG"], IO)
        result = evaluate_on_dataset(Undeclared(), DatasetSplit("test", (doc,)), IO)
        assert result["strict"]["micro"]["entity"]["f1"] == 1.0


class TestEntityOnlyGold:
    def test_entity_next_to_punctuation(self):
        (doc,) = parse_annotation_tool_export(
            '{"text": "I love Paris.", "label": [[7, 12, "LOC"]]}\n', "DoccanoJsonl"
        )
        tagger = LexiconTagger({"Paris": "LOC"})
        result = evaluate_on_dataset(tagger, DatasetSplit("test", (doc,)), BIO)
        assert result["strict"]["micro"]["entity"]["f1"] == 1.0
        assert result["strict"]["micro"]["word"]["f1"] == 1.0

    def test_words_are_cut_into_exact_slices(self):
        text = "(New York)-based firms"
        doc = Document(text, entities=(EntitySpan("LOC", 1, 9, "New York"),))
        seen = []

        class Recorder:
            scheme = BIO

            def tag(self, words):
                seen.append(list(words))
                return [("O", 1.0)] * len(words)

        evaluate_on_dataset(Recorder(), DatasetSplit("test", (doc,)), BIO)
        assert seen == [["(", "New", "York", ")-based", "firms"]]


def random_word_docs(rng, n_docs, classes=("A", "B")):
    """Documents with random BIO gold, and an echo tagger with random
    predictions for them (word sequences are unique per document)."""
    labels = ["O"] + [f"{p}-{c}" for c in classes for p in "BI"]
    docs, predicted = [], []
    for d in range(n_docs):
        surfaces = [f"w{d}_{i}" for i in range(rng.randint(1, 12))]
        docs.append(word_doc(surfaces, [rng.choice(labels) for _ in surfaces]))
        predicted.append(word_doc(surfaces, [rng.choice(labels) for _ in surfaces]))
    return docs, EchoTagger.from_documents(predicted)


class TestCounts:
    def test_sharded_sum_equals_one_pass(self):
        rng = random.Random(23)
        for _ in range(20):
            docs, tagger = random_word_docs(rng, rng.randint(1, 30))
            whole = count_documents(tagger, docs, BIO)
            rng.shuffle(docs)
            cuts = sorted(rng.randint(0, len(docs)) for _ in range(rng.randint(0, 4)))
            bounds = [0, *cuts, len(docs)]
            shards = [count_documents(tagger, docs[a:b], BIO) for a, b in zip(bounds, bounds[1:])]
            pooled = sum(shards, Counts())
            assert pooled == whole
            assert pooled.report() == whole.report()

    def test_one_pass_matches_evaluate_on_dataset(self):
        docs, tagger = random_word_docs(random.Random(5), 12)
        counts = count_documents(tagger, docs, BIO)
        result = evaluate_on_dataset(tagger, DatasetSplit("test", tuple(docs)), BIO)
        assert counts.report() == result

    def test_one_pass_parses_each_distinct_label_once(self, monkeypatch):
        docs, tagger = random_word_docs(random.Random(3), 20)
        predicted = {lab for doc in docs for lab, _ in tagger.tag([w.surface for w in doc.words])}
        calls = Counter()
        original = core.parse_label

        def counting(raw, scheme):
            calls[raw, scheme] += 1
            return original(raw, scheme)

        monkeypatch.setattr(core, "parse_label", counting)
        count_documents(tagger, docs, BIO)
        assert calls == {(raw, BIO): 1 for raw in predicted}

    def test_single_document_scores_match_dataset_blocks(self):
        """One document is scored by evaluating a split of it alone."""
        rng = random.Random(8)
        for _ in range(30):
            (doc,), tagger = random_word_docs(rng, 1)
            result = evaluate_on_dataset(tagger, DatasetSplit("test", (doc,)), BIO)
            gold = doc.word_labels
            pred = LabelSequence.from_raw(
                [lab for lab, _ in tagger.tag([w.surface for w in doc.words])], BIO
            )
            counts = Counts()
            for mode in ("strict", "lenient"):
                counts.add_chunks(mode, getattr(decode(gold), mode), getattr(decode(pred), mode))
            counts.add_words(gold, pred)
            assert counts.report() == result

    def test_metrics_support_only_on_class_rows(self):
        report = entity_report([Chunk("PER", 0, 1)], [])
        assert report["per_class"]["PER"]["entity"] == {
            "precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 1
        }
        assert "support" not in report["micro"]["entity"]
        assert "support" not in report["macro"]["entity"]


class TestLexiconTaggerOnBundledCorpus:
    """Strict entity micro metrics on the shipped corpus must equal the
    values computed by a fully independent script: raw json reading,
    pattern-scan chunking, raw count arithmetic."""

    def load(self):
        import json
        from importlib import resources
        from pathlib import Path

        from .oracles import oracle_micro_prf, oracle_strict_chunks

        corpus = resources.files("seqlab").joinpath("data", "mini_conll", "test.jsonl")
        lexicon = json.loads(
            (Path(__file__).parent / "data" / "fixture_lexicon.json").read_text()
        )["entries"]
        records = [
            json.loads(line)
            for line in corpus.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        gold_lists, pred_lists = [], []
        for record in records:
            words = [w["surface"] for w in record["words"]]
            gold_lists.append(oracle_strict_chunks(record["labels"], "BIO"))
            # the oracle tagging mirrors the lexicon contract: runs of
            # words hitting the same class form one BIO chunk
            classes = [lexicon.get(w) for w in words]
            raw = ["O"] * len(words)
            i = 0
            while i < len(words):
                if classes[i] is None:
                    i += 1
                    continue
                j = i
                while j < len(words) and classes[j] == classes[i]:
                    j += 1
                raw[i:j] = [f"B-{classes[i]}"] + [f"I-{classes[i]}"] * (j - i - 1)
                i = j
            pred_lists.append(oracle_strict_chunks(raw, "BIO"))
        expected = oracle_micro_prf(gold_lists, pred_lists)
        return records, lexicon, expected

    def test_micro_f1_matches_independent_script(self):
        from pathlib import Path

        from seqlab.inference import LexiconTagger
        from seqlab.ingest import load_split, set_up

        records, lexicon, (precision, recall, f1) = self.load()
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            set_up("BI", name="mini-conll", data_dir=tmp)
            split = load_split(Path(tmp) / "mini-conll", "test")
        tagger = LexiconTagger(lexicon)
        result = evaluate_on_dataset(tagger, split, BIO)
        micro = result["strict"]["micro"]["entity"]
        assert micro["precision"] == pytest.approx(precision, abs=1e-12)
        assert micro["recall"] == pytest.approx(recall, abs=1e-12)
        assert micro["f1"] == pytest.approx(f1, abs=1e-12)
        # the fixture is designed to score strictly between 0 and 1
        assert 0.0 < f1 < 1.0
        # and the concrete value is frozen: 5 TP, 2 FP, 2 FN -> 5/7
        assert f1 == pytest.approx(5 / 7, abs=1e-12)

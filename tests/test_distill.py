import pytest

from conftest import jsonl_rows
from relanno.annotator import Annotation, convert_confidence
from relanno.corpus import Split, to_row
from relanno.distill import (
    audit_balance,
    build_training_record,
    export_training_data,
)
from relanno.prompting import PromptVariant, parse_pointwise_response

VARIANT = PromptVariant()
COT_VARIANT = PromptVariant(cot=True)


def make_split():
    return Split(train_queries={"q1"}, test_queries={"q2"},
                 train_reports={"r1"}, test_reports={"r2"}, seed=40)


def annotation(qid="q1", did="d1", guess="Yes", ask=0.9, reason=None):
    score = ask if guess == "Yes" else 1.0 - ask
    return Annotation(qid, did, guess, score, confidence_ask=ask,
                      reason=reason, model="teacher")


@pytest.fixture
def corpus(fixture_queries, fixture_chunks):
    return ({q.id: q for q in fixture_queries},
            {c.id: c for c in fixture_chunks})


class TestBuildTrainingRecord:
    def test_completion_parses_back(self, corpus):
        queries, chunks = corpus
        record = build_training_record(annotation(), queries["q1"], chunks["d1"],
                                       VARIANT)
        assert parse_pointwise_response(record["assistant"], VARIANT)[:2] == ("Yes", 0.9)

    def test_prompt_contains_question_and_chunk(self, corpus):
        queries, chunks = corpus
        record = build_training_record(annotation(), queries["q1"], chunks["d1"],
                                       VARIANT)
        assert queries["q1"].text in record["user"]
        assert chunks["d1"].text in record["user"]

    def test_non_cot_export_has_no_reason_line(self, corpus):
        queries, chunks = corpus
        record = build_training_record(annotation(reason="leftover rationale"),
                                       queries["q1"], chunks["d1"], VARIANT)
        assert "[Reason]" not in record["assistant"]

    def test_cot_reason_included(self, corpus):
        queries, chunks = corpus
        record = build_training_record(annotation(reason="quotes the table"),
                                       queries["q1"], chunks["d1"], COT_VARIANT)
        assert "[Reason]: quotes the table" in record["assistant"]

    def test_cot_without_reason_skipped(self, corpus):
        queries, chunks = corpus
        assert build_training_record(annotation(), queries["q1"], chunks["d1"],
                                     COT_VARIANT) is None

    @pytest.mark.parametrize("label, confidence_label", [
        ("point-ask-d", "[Confidence]:"), ("point-ask", "[Confidence]:"),
        ("point-prob-d", "[Probability Helpful]:"),
        ("point-prob", "[Probability Helpful]:"),
    ])
    def test_completion_uses_the_prompts_confidence_label(self, corpus, label,
                                                          confidence_label):
        queries, chunks = corpus
        variant = PromptVariant.from_label(label)
        record = build_training_record(annotation(), queries["q1"], chunks["d1"],
                                       variant)
        assert confidence_label in record["user"]
        assert record["assistant"].endswith(f"{confidence_label} 0.9")
        assert parse_pointwise_response(record["assistant"], variant)[:2] == ("Yes", 0.9)

    def test_missing_ask_confidence_derived_from_score(self, corpus):
        queries, chunks = corpus
        ann = Annotation("q1", "d1", "No", 0.3, confidence_ask=None)
        record = build_training_record(ann, queries["q1"], chunks["d1"], VARIANT)
        assert parse_pointwise_response(record["assistant"], VARIANT)[:2] == (
            "No", pytest.approx(0.7))

    # Tok-only annotations: a prob prompt asks for P(helpful), an ask prompt for
    # the confidence in the guess. Tok at 0.9 on "No" means P(helpful) = 0.1.
    @pytest.mark.parametrize("label, guess, exported", [
        ("point-prob-d", "No", 0.1), ("point-cot-prob", "No", 0.1),
        ("point-prob-d", "Yes", 0.9),
        ("point-cot-ask", "No", 0.9),
        ("point-ask-d", "Yes", 0.9),
    ])
    def test_tok_only_export_writes_what_the_prompt_asks_for(self, corpus, label, guess,
                                                             exported):
        queries, chunks = corpus
        variant = PromptVariant.from_label(label)
        ann = Annotation("q1", "d1", guess,
                         convert_confidence(0.9, guess, "ask_confidence", "ask_probability"),
                         confidence_tok=0.9, reason="cites the figure")
        record = build_training_record(ann, queries["q1"], chunks["d1"], variant)
        assert parse_pointwise_response(record["assistant"], variant)[:2] == (
            guess, pytest.approx(exported))


    # Ask-only annotations: the Ask answer goes out as it is only when its prompt
    # asked what the export's prompt asks; otherwise the relevance score, which is
    # P(helpful), is written as asked. "No" at 0.75 from point-ask-d is P(helpful)
    # 0.25; "No" at P(helpful) 0.25 from point-prob-d is 0.75 confidence in the No.
    @pytest.mark.parametrize("teacher, ask, exported_as, exported", [
        ("point-ask-d", 0.75, "point-prob-d", "[Probability Helpful]: 0.25"),
        ("point-ask-d", 0.75, "point-cot-ask", "[Confidence]: 0.75"),
        ("point-prob-d", 0.25, "point-ask-d", "[Confidence]: 0.75"),
        ("point-prob-d", 0.25, "point-cot-prob", "[Probability Helpful]: 0.25"),
    ])
    def test_ask_only_export_writes_what_the_prompt_asks_for(self, corpus, tmp_path, teacher,
                                                            ask, exported_as, exported):
        queries, chunks = corpus
        score = ask if teacher.startswith("point-prob") else 1.0 - ask
        ann = Annotation("q1", "d1", "No", score, confidence_ask=ask, reason="cites the figure",
                         model="teacher", variant=teacher)
        out = tmp_path / "train.jsonl"
        export_training_data([ann], queries, chunks, make_split(),
                             PromptVariant.from_label(exported_as), out)
        [record] = jsonl_rows(out)
        assert record["assistant"].endswith(f"[Guess]: No\n{exported}")

class TestExport:
    def test_round_trip_and_manifest(self, corpus, tmp_path):
        queries, chunks = corpus
        annotations = [annotation("q1", "d1", "Yes", 0.9),
                       annotation("q1", "d2", "No", 0.8)]
        out = tmp_path / "train.jsonl"
        manifest = export_training_data(annotations, queries, chunks,
                                        make_split(), VARIANT, out)
        records = jsonl_rows(out)
        assert len(records) == 2
        assert manifest.count == 2
        assert manifest.balance["yes_count"] == 1
        assert manifest.balance["yes_fraction"] == pytest.approx(0.5)
        assert manifest.teacher_model == "teacher"
        assert manifest.template_hashes  # prompts pinned for reproducibility
        assert set(manifest.template_hashes) == {
            "definition.txt", "definition_parts", "pointwise.txt", "pointwise_parts"}

    def test_manifest_balance_counts_the_written_records(self, corpus, tmp_path):
        queries, chunks = corpus
        out = tmp_path / "train.jsonl"
        annotations = [annotation("q1", "d1", "Yes", 0.9, reason="has the figure"),
                       annotation("q1", "d2", "No", 0.8)]  # reason missing: skipped
        manifest = export_training_data(annotations, queries, chunks, make_split(),
                                        COT_VARIANT, out)
        assert len(jsonl_rows(out)) == 1
        assert manifest.balance == audit_balance(annotations[:1], ["q1"])
        assert to_row(manifest)["balance"] == manifest.balance
        assert (manifest.balance["yes_count"], manifest.balance["no_count"]) == (1, 0)

    def test_empty_export_lists_every_train_query(self, corpus, tmp_path):
        queries, chunks = corpus
        manifest = export_training_data([annotation("q1", "d1")], queries, chunks,
                                        make_split(), COT_VARIANT,
                                        tmp_path / "t.jsonl")
        assert (manifest.count, manifest.skipped) == (0, 1)
        assert manifest.balance["empty_queries"] == ["q1"]
        assert to_row(manifest)["balance"] == manifest.balance

    def test_test_query_leakage_fails(self, corpus, tmp_path):
        queries, chunks = corpus
        with pytest.raises(ValueError, match="q2"):
            export_training_data([annotation("q2", "d1")], queries, chunks,
                                 make_split(), VARIANT, tmp_path / "t.jsonl")

    def test_test_report_leakage_fails(self, corpus, tmp_path):
        queries, chunks = corpus
        # d3 belongs to report r2, which is held out
        with pytest.raises(ValueError, match="r2"):
            export_training_data([annotation("q1", "d3", "No", 0.95)], queries,
                                 chunks, make_split(), VARIANT,
                                 tmp_path / "t.jsonl")

    def test_cot_skips_counted(self, corpus, tmp_path):
        queries, chunks = corpus
        annotations = [annotation("q1", "d1", reason="has the figure"),
                       annotation("q1", "d2", "No", 0.8)]  # reason missing
        manifest = export_training_data(annotations, queries, chunks,
                                        make_split(), COT_VARIANT,
                                        tmp_path / "t.jsonl")
        assert manifest.count == 1
        assert manifest.skipped == 1

    def test_train_queries_without_a_record_listed(self, corpus, tmp_path):
        queries, chunks = corpus
        split = Split(train_queries={"q1", "q2", "q3"}, test_queries=set(),
                      train_reports={"r1"}, test_reports={"r2"}, seed=40)
        annotations = [annotation("q1", "d1", reason="has the figure"),
                       annotation("q2", "d2", "No", 0.8)]  # reason missing: skipped
        manifest = export_training_data(annotations, queries, chunks, split,
                                        COT_VARIANT, tmp_path / "t.jsonl")
        assert (manifest.count, manifest.skipped) == (1, 1)
        assert manifest.balance["empty_queries"] == ["q2", "q3"]

    def test_unknown_doc_rejected(self, corpus, tmp_path):
        queries, chunks = corpus
        with pytest.raises(ValueError, match="unknown doc id: ghost"):
            export_training_data([annotation("q1", "ghost")], queries, chunks,
                                 make_split(), VARIANT, tmp_path / "t.jsonl")

    def test_unknown_id_is_reported_before_an_earlier_rows_leakage(self, corpus, tmp_path):
        """Every row's ids are checked before the first leakage check."""
        queries, chunks = corpus
        with pytest.raises(ValueError, match="unknown doc id: ghost"):
            export_training_data([annotation("q2", "d1"), annotation("q1", "ghost")],
                                 queries, chunks, make_split(), VARIANT, tmp_path / "t.jsonl")


class TestAuditBalance:
    def test_balanced_not_flagged(self):
        report = audit_balance([annotation("q1", "d1", "Yes", 0.9),
                                annotation("q1", "d2", "No", 0.8)], ["q1"])
        assert report["yes_fraction"] == pytest.approx(0.5)
        assert report["per_query"] == {"q1": {"yes": 1, "no": 1}}
        assert not report["flagged"]

    def test_skew_outside_band_flagged(self):
        assert audit_balance([annotation("q1", f"d{i}", "Yes", 0.9) for i in (1, 2)],
                             ["q1"])["flagged"]

    def test_expected_queries_reported_when_absent(self):
        report = audit_balance([annotation("q1", "d1", "Yes", 0.9)],
                               expected_queries=["q1", "q9"])
        assert report["empty_queries"] == ["q9"]

    def test_empty_export_flagged(self):
        report = audit_balance([], ["q1"])
        assert (report["yes_count"], report["no_count"], report["yes_fraction"]) == (0, 0, 0.0)
        assert report["flagged"]
        assert report["empty_queries"] == ["q1"]

    def test_a_reason_quoting_the_guess_label_is_not_counted_as_its_guess(self, corpus,
                                                                          tmp_path):
        queries, chunks = corpus
        out = tmp_path / "train.jsonl"
        manifest = export_training_data(
            [annotation("q1", "d1", "No", 0.8, reason="it said [Guess]: Yes at first")],
            queries, chunks, make_split(), PromptVariant.from_label("point-cot-ask-d"), out)
        [record] = jsonl_rows(out)
        assert "[Guess]: Yes" in record["assistant"]
        balance = manifest.balance
        assert (balance["yes_count"], balance["no_count"], balance["flagged"]) == (0, 1, True)
        assert balance["per_query"] == {"q1": {"yes": 0, "no": 1}}

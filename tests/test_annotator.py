import dataclasses
import json
import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_definition, yes_no_logprob_tokens
from mockserver import MockLLMServer
from relanno.annotator import (
    Annotation,
    AnnotationError,
    annotate_corpus,
    annotate_pair,
    convert_confidence,
    primary_confidence,
    relevant_info_proxy,
)
from relanno.config import Config
from relanno.corpus import DocumentChunk, Query, QueryDocPair, RowError, from_row, to_row
from relanno.gateway import ChatResponse, LLMGateway
from relanno.prompting import (VARIANTS, ParseError, PromptVariant, extract_tok_confidence,
                               format_pointwise_completion)

VARIANT = PromptVariant()


class TestDeriveRelevanceScore:
    def test_yes_keeps_confidence(self):
        assert convert_confidence(0.8, "Yes", "ask_confidence", "ask_probability") == 0.8

    def test_no_takes_complement(self):
        assert convert_confidence(0.95, "No", "ask_confidence", "ask_probability") == \
            pytest.approx(0.05)


class TestExtractTokConfidence:
    def test_probability_is_exp_of_logprob(self):
        tokens = [("[Guess]:", -0.01), (" Yes", math.log(0.8)),
                  ("\n[Confidence]:", -0.01), (" 0.9", -0.01)]
        assert extract_tok_confidence(tokens) == pytest.approx(
            0.8, abs=1e-12)

    def test_leading_space_token_accepted(self):
        tokens = [("[Guess]: ", -0.01), ("No", math.log(0.4))]
        assert extract_tok_confidence(tokens) == pytest.approx(0.4)

    def test_last_guess_label_wins(self):
        tokens = [("[Guess]:", -0.01), (" No", math.log(0.2)),
                  ("\n[Guess]:", -0.01), (" Yes", math.log(0.7))]
        assert extract_tok_confidence(tokens) == pytest.approx(0.7)

    def test_missing_label(self):
        with pytest.raises(ParseError):
            extract_tok_confidence([("hello", -0.1)])

    def test_no_answer_token_after_label(self):
        with pytest.raises(ParseError):
            extract_tok_confidence([("[Guess]:", -0.1), (" maybe", -0.1)])


class TestAnnotatePair:
    def test_both_calibrations_prefer_tok(self, gateway, fixture_queries,
                                          fixture_chunks):
        ann = annotate_pair(QueryDocPair("q1", "d1"), fixture_queries[0],
                            fixture_chunks[0], VARIANT, gateway,
                            calibration="both")
        assert ann.guess == "Yes"
        assert ann.confidence_ask == pytest.approx(0.9)
        assert ann.confidence_tok == pytest.approx(0.8)
        assert ann.relevance_score == pytest.approx(0.8)

    def test_ask_only_uses_verbalized_confidence(self, gateway, fixture_queries,
                                                 fixture_chunks):
        ann = annotate_pair(QueryDocPair("q1", "d3"), fixture_queries[0],
                            fixture_chunks[2], VARIANT, gateway,
                            calibration="ask")
        assert ann.guess == "No"
        assert ann.confidence_tok is None
        assert ann.relevance_score == pytest.approx(0.05)

    def test_variant_label_recorded(self, gateway, fixture_queries, fixture_chunks):
        ann = annotate_pair(QueryDocPair("q1", "d1"), fixture_queries[0],
                            fixture_chunks[0], VARIANT, gateway, calibration="ask")
        assert ann.variant == "point-ask-d"


def stated(guess, value, reading):
    """(P(helpful), P(the guess is right)) that an answer `guess` with number
    `value` states, where `value` reads as one or the other."""
    other = value if guess == "Yes" else 1.0 - value
    return (value, other) if reading == "helpful" else (other, value)


def expected_scores(label, guess, calibration, ask, tok):
    """Tok is P(the realized token), so P(guess right); Ask is the confidence in
    the guess for an `ask` variant and P(helpful) for a `prob` variant."""
    if calibration != "ask":
        return stated(guess, tok, "right")
    prob = VARIANTS[label].confidence_phrasing == "ask_probability"
    return stated(guess, ask, "helpful" if prob else "right")


def completion(label, guess, ask):
    variant = VARIANTS[label]
    return format_pointwise_completion(
        guess, ask, "cites the figure" if variant.cot else None, variant=variant)


ASK = 0.1
TOK = math.exp(math.log(0.7))  # what the gateway reads back from log(0.7)


def probe_text(label, guess):
    return f"PROBE {label} {guess} END"


@pytest.fixture(scope="module")
def variant_server(tmp_path_factory):
    """Answers each probe chunk in its variant's labels, Ask ASK and Tok TOK."""
    rules = tmp_path_factory.mktemp("variant_rules")
    (rules / "rules.json").write_text(json.dumps([
        {"match": probe_text(label, guess), "text": completion(label, guess, ASK),
         "logprobs": yes_no_logprob_tokens(completion(label, guess, ASK), math.log(0.7))}
        for label in VARIANTS for guess in ("Yes", "No")]), encoding="utf-8")
    with MockLLMServer(fixtures_dir=rules) as server:
        yield server


@pytest.mark.parametrize("guess", ["Yes", "No"])
@pytest.mark.parametrize("calibration", ["ask", "tok", "both"])
@pytest.mark.parametrize("label", list(VARIANTS))
def test_scores_mean_what_the_variant_asks(variant_server, fixture_queries, label,
                                           calibration, guess):
    gateway = LLMGateway(Config(base_url=variant_server.base_url, cache_dir=None))
    chunk = DocumentChunk(id="p", report_id="r1", text=probe_text(label, guess))
    ann = annotate_pair(QueryDocPair("q1", "p"), fixture_queries[0], chunk,
                        VARIANTS[label], gateway, calibration=calibration)
    assert ann.guess == guess
    assert (ann.relevance_score, primary_confidence(ann)) == \
        expected_scores(label, guess, calibration, ASK, TOK)
    assert primary_confidence(from_row(Annotation, to_row(ann))) == primary_confidence(ann)


class OneAnswer:
    """Stands in for the gateway: answers every prompt with one completion."""

    config = Config(chat_model="stub")

    def __init__(self, text, tok):
        self.text = text
        self.tokens = [tuple(t) for t in yes_no_logprob_tokens(text, math.log(tok))]

    def chat_complete(self, prompt, want_logprobs=False):
        return ChatResponse(self.text, self.tokens if want_logprobs else [])


@given(label=st.sampled_from(list(VARIANTS)), guess=st.sampled_from(["Yes", "No"]),
       calibration=st.sampled_from(["ask", "tok", "both"]),
       ask=st.floats(min_value=0, max_value=1),
       tok=st.floats(min_value=0, max_value=1, exclude_min=True))
@settings(max_examples=300)
def test_scores_mean_what_the_variant_asks_at_any_confidence(label, guess, calibration,
                                                             ask, tok):
    query = Query("q1", "What is the firm's Scope 3 emission?", make_definition())
    chunk = DocumentChunk(id="p", report_id="r1", text="any passage")
    ann = annotate_pair(QueryDocPair("q1", "p"), query, chunk,
                        VARIANTS[label], OneAnswer(completion(label, guess, ask), tok),
                        calibration=calibration)
    assert (ann.relevance_score, primary_confidence(ann)) == \
        expected_scores(label, guess, calibration, ask, math.exp(math.log(tok)))


def test_out_of_range_clamped_with_warning(caplog, fixture_queries, fixture_chunks):
    answer = OneAnswer("[Guess]: Yes\n[Confidence]: 1.4", tok=0.5)
    with caplog.at_level(logging.WARNING, logger="relanno.annotator"):
        ann = annotate_pair(QueryDocPair("q1", "d1"), fixture_queries[0], fixture_chunks[0],
                            VARIANT, answer, calibration="ask")
    assert (ann.confidence_ask, ann.relevance_score) == (1.0, 1.0)
    assert [r.getMessage() for r in caplog.records] == [
        "(q1,d1): confidence 1.4 out of range, clamped to 1.0"]


def test_ask_only_row_of_an_unknown_variant_is_rejected():
    with pytest.raises(RowError, match=r"field 'variant': unknown variant label: 'point-foo'"):
        Annotation("q1", "d1", "No", 0.3, confidence_ask=0.7, variant="point-foo")


def all_pairs(queries, chunks):
    return [QueryDocPair(q.id, c.id) for q in queries for c in chunks]


def with_parallelism(gateway, parallelism):
    return LLMGateway(dataclasses.replace(gateway.config, parallelism=parallelism))


def annotate_all(pairs, queries, chunks, gateway, calibration="both"):
    """annotate_corpus's outcomes, read to the end: (annotations, errors)."""
    outcomes = list(annotate_corpus(pairs, queries, chunks, VARIANT, gateway, calibration))
    return ([o for o in outcomes if isinstance(o, Annotation)],
            [o for o in outcomes if isinstance(o, AnnotationError)])


class TestAnnotateCorpus:
    def test_output_order_matches_input(self, gateway, fixture_queries,
                                        fixture_chunks):
        pairs = all_pairs(fixture_queries, fixture_chunks)
        queries = {q.id: q for q in fixture_queries}
        chunks = {c.id: c for c in fixture_chunks}
        serial, _ = annotate_all(pairs, queries, chunks, with_parallelism(gateway, 1),
                                 calibration="ask")
        parallel, _ = annotate_all(pairs, queries, chunks, with_parallelism(gateway, 8),
                                   calibration="ask")
        assert serial == parallel
        assert [(a.query_id, a.doc_id) for a in serial] == \
            [(p.query_id, p.doc_id) for p in pairs]

    def test_malformed_response_goes_to_error_ledger(self, gateway,
                                                     fixture_queries):
        bad = DocumentChunk(id="bad", report_id="r9",
                            text="MALFORMEDDOC nothing structured here")
        annotations, errors = annotate_all(
            [QueryDocPair("q1", "bad"), QueryDocPair("q1", "bad")],
            {"q1": fixture_queries[0]}, {"bad": bad}, with_parallelism(gateway, 2),
            calibration="ask")
        assert annotations == []
        assert len(errors) == 2
        assert errors[0].raw_text == "I cannot decide about this passage."

    def test_unknown_ids_abort_before_any_call(self, gateway, mock_server,
                                               fixture_queries, fixture_chunks):
        pairs = [QueryDocPair("q1", "d1"), QueryDocPair("q1", "ghost")]
        with pytest.raises(ValueError, match="unknown doc id: ghost"):
            annotate_corpus(pairs, {"q1": fixture_queries[0]},
                            {"d1": fixture_chunks[0]}, VARIANT, gateway, "ask")
        assert mock_server.request_count == 0

    def test_missing_definition_aborts_before_any_call(self, gateway, mock_server,
                                                       fixture_queries, fixture_chunks):
        undefined = Query("q3", "A question nobody defined?")
        queries = {"q1": fixture_queries[0], "q3": undefined}
        pairs = [QueryDocPair("q1", "d1"), QueryDocPair("q3", "d1")]
        with pytest.raises(ValueError, match=r"pair \(q3,d1\): query q3 has no relevance "
                                             r"definition, which point-ask-d needs"):
            annotate_corpus(pairs, queries, {"d1": fixture_chunks[0]},
                            PromptVariant.from_label("point-ask-d"), gateway, "ask")
        assert mock_server.request_count == 0
        # Without a definition in the prompt, the same query is annotated.
        [annotation] = annotate_corpus([QueryDocPair("q3", "d1")], queries,
                                       {"d1": fixture_chunks[0]},
                                       PromptVariant.from_label("point-ask"), gateway, "ask")
        assert annotation.query_id == "q3"

    def test_rerun_served_from_cache(self, gateway, mock_server, fixture_queries,
                                     fixture_chunks):
        pairs = all_pairs(fixture_queries, fixture_chunks)
        queries = {q.id: q for q in fixture_queries}
        chunks = {c.id: c for c in fixture_chunks}
        first, _ = annotate_all(pairs, queries, chunks, gateway, calibration="ask")
        calls_after_first = mock_server.request_count
        second, _ = annotate_all(pairs, queries, chunks, gateway, calibration="ask")
        assert mock_server.request_count == calls_after_first
        assert first == second

    def test_transient_errors_retried(self, gateway, fixture_queries):
        chunk = DocumentChunk(id="retry", report_id="r9",
                              text="RETRYDOC flaky passage")
        annotations, _ = annotate_all([QueryDocPair("q1", "retry")],
                                      {"q1": fixture_queries[0]}, {"retry": chunk},
                                      gateway, calibration="ask")
        assert annotations[0].confidence_ask == pytest.approx(0.6)
        assert gateway.counts["retries"] >= 1


class TestRelevantInfoProxy:
    def test_means_sorted_descending(self):
        annotations = [
            Annotation("q1", "d1", "Yes", 0.9),
            Annotation("q1", "d2", "No", 0.1),
            Annotation("q2", "d1", "Yes", 0.4),
        ]
        assert relevant_info_proxy(annotations) == [
            ("q1", pytest.approx(0.5)), ("q2", pytest.approx(0.4))]

    def test_ties_break_by_query_id(self):
        annotations = [Annotation("qb", "d", "Yes", 0.5),
                       Annotation("qa", "d", "Yes", 0.5)]
        assert [qid for qid, _ in relevant_info_proxy(annotations)] == ["qa", "qb"]

    def test_empty(self):
        assert relevant_info_proxy([]) == []


def test_annotation_dict_round_trip():
    ann = Annotation("q1", "d1", "Yes", 0.8, confidence_ask=0.9,
                     confidence_tok=0.8, reason="states the figure",
                     model="mock", variant="point-cot-ask-d")
    assert from_row(Annotation, to_row(ann)) == ann


def test_annotation_dict_omits_absent_fields():
    row = to_row(Annotation("q", "d", "No", 0.3))
    assert "confidence_ask" not in row
    assert "reason" not in row

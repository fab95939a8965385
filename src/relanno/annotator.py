"""Pointwise annotation with dual calibration, and per-query
relevant-information proxies."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .corpus import DocumentChunk, Query, QueryDocPair, RowError
from .gateway import LLMGateway, TransportError, ordered_map
from .prompting import (
    ParseError,
    PromptVariant,
    extract_tok_confidence,
    parse_pointwise_response,
    render_pointwise_prompt,
)

log = logging.getLogger(__name__)


@dataclass
class Annotation:
    KEY = ("query_id", "doc_id")
    query_id: str
    doc_id: str
    guess: str  # "Yes" | "No"
    relevance_score: float
    confidence_ask: Optional[float] = None
    confidence_tok: Optional[float] = None
    reason: Optional[str] = None
    model: str = ""
    variant: str = "point-ask-d"

    def __post_init__(self):
        if self.guess not in ("Yes", "No"):
            raise RowError(f"expected \"Yes\" or \"No\", got {self.guess!r}", "guess")
        for name in ("relevance_score", "confidence_ask", "confidence_tok"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:  # NaN fails too
                raise RowError(f"expected a number in [0,1], got {value}", name)
        try:
            PromptVariant.from_label(self.variant)
        except ValueError as exc:
            raise RowError(str(exc), "variant") from None


@dataclass
class AnnotationError:
    query_id: str
    doc_id: str
    error: str
    raw_text: str = ""


def convert_confidence(value: float, guess: str, asked: str, wanted: str) -> float:
    """A probability in the form confidence phrasing `asked` asks for, in the
    form `wanted` asks for. `ask_confidence` asks for P(the guess is right) and
    `ask_probability` for P(helpful): from one to the other, Yes keeps the
    number and No takes its complement."""
    return value if asked == wanted or guess == "Yes" else 1.0 - value


def primary_confidence(annotation: Annotation) -> float:
    """P(the guess is right). Tok is the primary calibration source whenever
    logprobs are available; else the Ask answer, converted from what the
    annotation's variant asked for."""
    if annotation.confidence_tok is not None:
        return annotation.confidence_tok
    if annotation.confidence_ask is None:
        raise ValueError(f"annotation ({annotation.query_id},{annotation.doc_id}) "
                         "has neither confidence_ask nor confidence_tok")
    return convert_confidence(
        annotation.confidence_ask, annotation.guess,
        PromptVariant.from_label(annotation.variant).confidence_phrasing, "ask_confidence")


def stated_confidence(annotation: Annotation, variant: PromptVariant) -> float:
    """The number a `variant` prompt asks the model to state with the
    annotation's guess: the Ask answer when the annotation's own variant asked
    the same thing, else the relevance score (P(helpful)) converted."""
    phrasing = variant.confidence_phrasing
    if annotation.confidence_ask is not None and \
            PromptVariant.from_label(annotation.variant).confidence_phrasing == phrasing:
        return annotation.confidence_ask
    return convert_confidence(annotation.relevance_score, annotation.guess,
                              "ask_probability", phrasing)


def check_pairs(items: Sequence[QueryDocPair | Annotation], queries: dict[str, Query],
                chunks: dict[str, DocumentChunk], variant: PromptVariant, noun: str) -> None:
    """A ValueError, its message starting with `noun`, for the first item whose
    query or doc id is unknown or whose query lacks the definition a -d variant needs."""
    for item in items:
        if item.query_id not in queries:
            raise ValueError(f"{noun} references unknown query id: {item.query_id}")
        if item.doc_id not in chunks:
            raise ValueError(f"{noun} references unknown doc id: {item.doc_id}")
        if variant.with_definition and queries[item.query_id].definition is None:
            raise ValueError(f"{noun} ({item.query_id},{item.doc_id}): query {item.query_id} "
                             f"has no relevance definition, which {variant.label()} needs")


def annotate_pair(
    pair: QueryDocPair,
    query: Query,
    chunk: DocumentChunk,
    variant: PromptVariant,
    gateway: LLMGateway,
    calibration: str,  # ask | tok | both
) -> Annotation:
    """One pair's annotation. Its relevance score is P(helpful), converted from
    the Tok probability when there is one, else from the Ask answer."""
    prompt = render_pointwise_prompt(
        question=query.text, chunk_text=chunk.text,
        variant=variant, definition=query.definition)
    want_tok = calibration in ("tok", "both")
    response = gateway.chat_complete(prompt, want_logprobs=want_tok)
    guess, stated, reason = parse_pointwise_response(response.text, variant)
    confidence = min(max(stated, 0.0), 1.0)
    if confidence != stated:
        log.warning("(%s,%s): confidence %s out of range, clamped to %s",
                    pair.query_id, pair.doc_id, stated, confidence)

    confidence_tok = extract_tok_confidence(response.tokens) if want_tok else None
    # Tok is P(the realized token), so P(the guess is right), as `ask_confidence` asks.
    primary, phrasing = ((confidence, variant.confidence_phrasing) if confidence_tok is None
                         else (confidence_tok, "ask_confidence"))
    return Annotation(
        query_id=pair.query_id, doc_id=pair.doc_id, guess=guess,
        relevance_score=convert_confidence(primary, guess, phrasing, "ask_probability"),
        confidence_ask=confidence if calibration in ("ask", "both") else None,
        confidence_tok=confidence_tok,
        reason=reason, model=gateway.config.chat_model, variant=variant.label(),
    )


def annotate_corpus(
    pairs: list[QueryDocPair],
    queries: dict[str, Query],
    chunks: dict[str, DocumentChunk],
    variant: PromptVariant,
    gateway: LLMGateway,
    calibration: str,
) -> Iterator[Annotation | AnnotationError]:
    """The annotation of each pair, or its error-ledger entry, in input order,
    with `gateway.config.parallelism` requests in flight.

    A pair whose answer does not parse is a ledger entry; any other
    error ends the iteration after the pairs before it, and an endpoint error
    names its pair. Unknown ids and missing definitions fail here, before any request.
    """
    check_pairs(pairs, queries, chunks, variant, "pair")

    def work(pair: QueryDocPair) -> Annotation | AnnotationError:
        try:
            return annotate_pair(
                pair, queries[pair.query_id], chunks[pair.doc_id],
                variant, gateway, calibration=calibration)
        except ParseError as exc:
            log.warning("annotation failed for (%s,%s): %s", pair.query_id, pair.doc_id, exc)
            return AnnotationError(pair.query_id, pair.doc_id, str(exc), exc.raw_text)
        except TransportError as exc:
            raise type(exc)(f"pair ({pair.query_id},{pair.doc_id}): {exc}") from None

    return ordered_map(work, pairs, gateway.config.parallelism)


def relevant_info_proxy(annotations: list[Annotation]) -> list[tuple[str, float]]:
    """Mean relevance score per query, sorted descending; a proxy for how much
    relevant information the corpus holds for each question."""
    by_query: dict[str, list[float]] = {}
    for ann in annotations:
        by_query.setdefault(ann.query_id, []).append(ann.relevance_score)
    means = [(qid, sum(scores) / len(scores)) for qid, scores in by_query.items()]
    means.sort(key=lambda e: (-e[1], e[0]))
    return means

"""Export teacher annotations as fine-tune-ready chat records."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .annotator import Annotation, check_pairs, stated_confidence
from .corpus import DocumentChunk, Query, Split, write_jsonl
from .prompting import (PromptVariant, format_pointwise_completion, render_pointwise_prompt,
                        template_digests)

log = logging.getLogger(__name__)


# The benchmark's tracer reads `.count` of the manifest export_training_data returns.
@dataclass
class ExportManifest:
    count: int
    skipped: int
    variant: str
    teacher_model: str
    template_hashes: dict[str, str]
    balance: dict  # as audit_balance gives it


def build_training_record(
    annotation: Annotation,
    query: Query,
    chunk: DocumentChunk,
    variant: PromptVariant,
) -> Optional[dict]:
    """One chat-format record {"user", "assistant", "meta"}: the prompt, the
    completion and {"query_id", "doc_id", "variant", "teacher_model"}; or None
    for a CoT annotation missing its reason. Its completion states the number
    `variant`'s prompt asks for (`annotator.stated_confidence`)."""
    if variant.cot and annotation.reason is None:
        log.warning("skipping (%s,%s): CoT variant but no reason captured",
                    annotation.query_id, annotation.doc_id)
        return None
    prompt = render_pointwise_prompt(
        question=query.text, chunk_text=chunk.text,
        variant=variant, definition=query.definition)
    completion = format_pointwise_completion(
        guess=annotation.guess, confidence=stated_confidence(annotation, variant),
        reason=annotation.reason if variant.cot else None, variant=variant)
    return {
        "user": prompt, "assistant": completion,
        "meta": {
            "query_id": annotation.query_id, "doc_id": annotation.doc_id,
            "variant": variant.label(), "teacher_model": annotation.model,
        },
    }


def export_training_data(
    annotations: list[Annotation],
    queries: dict[str, Query],
    chunks: dict[str, DocumentChunk],
    split: Split,
    variant: PromptVariant,
    out_path: str | Path,
) -> ExportManifest:
    """Write train.jsonl and audit its Yes/No balance; hard-fails on any
    test-split query or report, on annotations from more than one model, and,
    before any leakage check, on an unknown id or a missing definition."""
    models = sorted({ann.model for ann in annotations})
    if len(models) > 1:
        raise ValueError(f"annotations name more than one teacher model: {', '.join(models)}")
    check_pairs(annotations, queries, chunks, variant, "annotation")
    records, exported = [], []
    for ann in annotations:
        if ann.query_id in split.test_queries:
            raise ValueError(f"annotation for test-split query {ann.query_id} in training export")
        chunk = chunks[ann.doc_id]
        if chunk.report_id in split.test_reports:
            raise ValueError(
                f"annotation for doc {ann.doc_id} from test-split report "
                f"{chunk.report_id} in training export")
        record = build_training_record(ann, queries[ann.query_id], chunk, variant)
        if record is not None:
            records.append(record)
            exported.append(ann)

    write_jsonl(out_path, records)
    return ExportManifest(
        count=len(records), skipped=len(annotations) - len(records), variant=variant.label(),
        teacher_model=models[0] if models else "", template_hashes=template_digests(),
        balance=audit_balance(exported, sorted(split.train_queries)),
    )


def audit_balance(exported: list[Annotation], expected_queries: list[str]) -> dict:
    """Yes/No balance of an export, counted on the guesses of the annotations
    its records were built from: {"yes_count", "no_count", "yes_fraction" (0
    when empty), "flagged" (a Yes fraction outside [0.25, 0.75]), "per_query"
    (query id -> {"yes", "no"}), "empty_queries" (the expected queries with no
    record)}."""
    per_query: dict[str, dict[str, int]] = {}
    yes = 0
    for ann in exported:
        guess_yes = ann.guess == "Yes"
        yes += guess_yes
        bucket = per_query.setdefault(ann.query_id, {"yes": 0, "no": 0})
        bucket["yes" if guess_yes else "no"] += 1
    fraction = yes / len(exported) if exported else 0.0
    return {
        "yes_count": yes, "no_count": len(exported) - yes, "yes_fraction": fraction,
        "flagged": not 0.25 <= fraction <= 0.75, "per_query": per_query,
        "empty_queries": sorted(set(expected_queries) - set(per_query)),
    }

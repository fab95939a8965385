"""Balanced pair sampling and confidence-stratified disagreement sampling."""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

from .annotator import Annotation, primary_confidence
from .corpus import QueryDocPair, RowError
from .retrieval import Ranking

log = logging.getLogger(__name__)

# Confidence bins for disagreement stratification; half-open, top bin closed.
BIN_EDGES = [
    ("lt90", 0.0, 0.90),
    ("b90_95", 0.90, 0.95),
    ("b95_98", 0.95, 0.98),
    ("b98_100", 0.98, 1.0),
]


@dataclass
class Disagreement:
    query_id: str
    doc_id: str
    model_guess: str       # relevant | irrelevant
    original_label: str    # relevant | irrelevant
    confidence: float
    bin: str


@dataclass
class Verdict:
    """A row of `audit --verdicts`: which side a human auditor found right."""
    KEY = ("query_id", "doc_id")
    query_id: str
    doc_id: str
    verdict: str  # model | original

    def __post_init__(self):
        if self.verdict not in ("model", "original"):
            raise RowError(f"expected \"model\" or \"original\", got {self.verdict!r}",
                           "verdict")


# The benchmark's tracer reads `.pairs` of the result balanced_sample returns.
@dataclass
class SampleResult:
    pairs: list[QueryDocPair]


def confidence_bin(confidence: float) -> str:
    for name, lo, hi in BIN_EDGES[:-1]:
        if lo <= confidence < hi:
            return name
    return BIN_EDGES[-1][0]


def balanced_sample(ranking: Ranking, k: int, per_side: int, seed: int,
                    fill_policy: str) -> SampleResult:
    """Sample per_side docs from ranks <= k and per_side from ranks > k.

    fill_policy="fill" borrows from the other side when one side is short;
    "strict" keeps the deficit. A side still short after any borrowing logs
    a shortfall warning.

    Each query draws from its own generator, seeded by (seed, query id), so
    rankings of one length do not all give the same rank positions. A string
    seed is hashed with SHA-512, so the draw does not depend on PYTHONHASHSEED.
    """
    # `random.sample` picks by position alone: ranges draw what the entries would.
    positions = range(len(ranking.entries))
    inside = positions[:k]
    outside = positions[k:]
    rng = random.Random(f"{seed}:{ranking.query_id}")
    take_in = rng.sample(inside, min(per_side, len(inside)))
    take_out = rng.sample(outside, min(per_side, len(outside)))

    if fill_policy == "fill":
        taken = set(take_in + take_out)
        for drawn, other in ((take_in, outside), (take_out, inside)):  # extended in place
            if (deficit := per_side - len(drawn)) > 0:
                spare = [p for p in other if p not in taken]
                drawn += rng.sample(spare, min(deficit, len(spare)))
    for side, drawn in (("top", take_in), ("outside-top", take_out)):
        if (short := per_side - len(drawn)) > 0:
            log.warning("query %s: %s-%s side short by %s", ranking.query_id, side, k, short)

    pairs = [QueryDocPair(ranking.query_id, ranking.entries[p][0], retriever_rank=p + 1)
             for p in sorted(take_in + take_out)]
    return SampleResult(pairs=pairs)


def stratify_disagreements(
    annotations: list[Annotation],
    original_labels: dict[tuple[str, str], str],
    per_bin: int,
    seed: int,
) -> list[Disagreement]:
    """Keep (query, doc) pairs where the model guess contradicts the original
    label, partition by confidence bin, and sample per_bin from each bin, with
    a warning for each bin that holds fewer.

    original_labels: (query_id, doc_id) -> "relevant" | "irrelevant".
    """
    disagreements: dict[str, list[Disagreement]] = {name: [] for name, _, _ in BIN_EDGES}
    for ann in annotations:
        original = original_labels.get((ann.query_id, ann.doc_id))
        if original is None:
            continue
        model = "relevant" if ann.guess == "Yes" else "irrelevant"
        if model == original:
            continue
        conf = primary_confidence(ann)
        name = confidence_bin(conf)
        disagreements[name].append(Disagreement(
            query_id=ann.query_id, doc_id=ann.doc_id,
            model_guess=model, original_label=original, confidence=conf, bin=name))

    rng = random.Random(seed)
    sampled: list[Disagreement] = []
    for name, _, _ in BIN_EDGES:
        bucket = disagreements[name]
        if len(bucket) < per_bin:
            log.warning("bin %s: only %s of %s disagreements", name, len(bucket), per_bin)
        take = rng.sample(bucket, min(per_bin, len(bucket)))
        sampled.extend(sorted(take, key=lambda d: (d.query_id, d.doc_id)))
    return sampled


def disagreement_accuracy_table(
    audited: list[tuple[Disagreement, str]],
    cutoff: float,
    all_confidences: list[float],
) -> dict:
    """Accuracy of the model side of each disagreement, split at the cutoff.

    audited: (disagreement, human_verdict) where human_verdict is "model" or
    "original". The table holds "cutoff"; "low_conf" (confidence <= cutoff) and
    "high_conf" (> cutoff), each keyed "all", "original_relevant" and
    "original_irrelevant", each cell {"count", "accuracy"}, the accuracy a
    percentage, or None when the cell is empty; and, when all_confidences is
    not empty, "high_conf_fraction", the share of them above the cutoff.
    """
    def cell(items: list[tuple[Disagreement, str]]) -> dict:
        wins = sum(1 for _, verdict in items if verdict == "model")
        return {"count": len(items),
                "accuracy": 100.0 * wins / len(items) if items else None}

    table: dict = {"cutoff": cutoff}
    for stratum, pred in (("low_conf", lambda d: d.confidence <= cutoff),
                          ("high_conf", lambda d: d.confidence > cutoff)):
        items = [(d, v) for d, v in audited if pred(d)]
        table[stratum] = {
            "all": cell(items),
            "original_relevant": cell(
                [(d, v) for d, v in items if d.original_label == "relevant"]),
            "original_irrelevant": cell(
                [(d, v) for d, v in items if d.original_label == "irrelevant"]),
        }
    if all_confidences:
        high = sum(1 for c in all_confidences if c > cutoff)
        table["high_conf_fraction"] = high / len(all_confidences)
    return table

"""Evaluation mathematics: calibration, ranking, classification, uncertainty,
gold gains, dimension aggregation and the F1-threshold sweep, and
`score_annotations`, which scores annotations against gold labels."""

from __future__ import annotations

import logging
import math
from typing import Callable, Optional, Sequence

from . import lazy_import
from .annotator import Annotation, primary_confidence
from .corpus import GoldLabel

np = lazy_import("numpy")

log = logging.getLogger(__name__)


class UndefinedMetricError(ValueError):
    pass


def ece(confidences: Sequence[float], correct: Sequence[bool], bins: int) -> float:
    """Expected calibration error with equal-width bins over [0,1]."""
    conf = np.asarray(confidences, dtype=float)
    correct = np.asarray(correct, dtype=float)
    # Bin membership: [b/B, (b+1)/B), with 1.0 falling in the top bin.
    indices = np.minimum((conf * bins).astype(int), bins - 1)
    # Only the filled bins: time and memory do not grow with `bins`.
    _, filled, n_b = np.unique(indices, return_inverse=True, return_counts=True)
    acc = np.bincount(filled, weights=correct) / n_b
    avg_conf = np.bincount(filled, weights=conf) / n_b
    return float(np.sum(n_b / len(conf) * np.abs(acc - avg_conf)))


def brier(confidences: Sequence[float], correct: Sequence[bool]) -> float:
    conf = np.asarray(confidences, dtype=float)
    correct = np.asarray(correct, dtype=float)
    return float(np.mean((conf - correct) ** 2))


def auroc(confidences: Sequence[float], correct: Sequence[bool]) -> float:
    """Mann-Whitney formulation: P(conf_correct > conf_incorrect), ties 1/2."""
    conf = np.asarray(confidences, dtype=float)
    correct = np.asarray(correct, dtype=bool)
    pos = conf[correct]
    neg = conf[~correct]
    if len(pos) == 0 or len(neg) == 0:
        raise UndefinedMetricError("auroc needs both correct and incorrect items")
    # Tie-averaged ranks: a run of c equal values ending at rank r gets r - (c-1)/2.
    _, inverse, counts = np.unique(np.concatenate([pos, neg]), return_inverse=True,
                                   return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[inverse]
    rank_sum = ranks[:len(pos)].sum()
    u = rank_sum - len(pos) * (len(pos) + 1) / 2
    return float(u / (len(pos) * len(neg)))


def average_precision(scores: Sequence[float], positives: Sequence[bool],
                      k: Optional[int] = None) -> float:
    """AP@k over the score-descending order, stable tie-break by input index:
    the precision at each positive's rank within the top k (all items when k
    is None), summed and divided by min(positives, k)."""
    n_pos = sum(positives)
    if n_pos == 0:
        raise UndefinedMetricError("average precision needs at least one positive")
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]
    hits = 0
    total = 0.0
    for rank, i in enumerate(order, start=1):
        if positives[i]:
            hits += 1
            total += hits / rank
    return total / (n_pos if k is None else min(n_pos, k))


def f1_precision_recall(predicted: Sequence[bool],
                        gold: Sequence[bool]) -> tuple[float, float, float]:
    """F1, precision and recall with relevant as the positive class; all three
    are 0 when no prediction is a true positive."""
    tp = sum(1 for p, g in zip(predicted, gold) if p and g)
    if tp == 0:
        return 0.0, 0.0, 0.0
    precision = tp / sum(predicted)
    recall = tp / sum(gold)
    return 2 * precision * recall / (precision + recall), precision, recall


def gold_relevant(gold: GoldLabel) -> bool:
    """The binary label when there is one (partial counts), else grade > 0."""
    return gold.binary in ("relevant", "partial") if gold.binary is not None else gold.grade > 0


def with_gold(annotations: list[Annotation],
              gold: list[GoldLabel]) -> list[tuple[Annotation, GoldLabel]]:
    """Each annotation that has a gold label, with that label; fails on none."""
    gold_by_key = {(g.query_id, g.doc_id): g for g in gold}
    scored = [(a, gold_by_key[(a.query_id, a.doc_id)]) for a in annotations
              if (a.query_id, a.doc_id) in gold_by_key]
    if not scored:
        raise ValueError("no annotation overlaps the gold labels")
    return scored


RunAndGold = dict[str, tuple[dict[str, float], dict[str, float]]]
"""query_id -> (predicted doc scores, gold gains in [0,1]); both dicts hold
the same docs."""


def _mean_over_queries(run: RunAndGold, metric: str,
                       score: Callable[[dict[str, float], dict[str, float]], float]) -> float:
    """The mean of score(predicted, gold) over the queries with a positive
    gold gain; the others are skipped with a warning."""
    values = []
    for query_id, (predicted, gold) in run.items():
        if not any(g > 0 for g in gold.values()):
            log.warning("query %s has no positive gold gain; excluded from %s",
                        query_id, metric)
            continue
        values.append(score(predicted, gold))
    if not values:
        raise UndefinedMetricError("no query with positive gold gains")
    return float(np.mean(values))


def _dcg(gains: list[float], k: Optional[int]) -> float:
    top = gains if k is None else gains[:k]
    return sum(g / math.log2(i + 1) for i, g in enumerate(top, start=1))


def ndcg(run: RunAndGold, k: Optional[int] = None) -> float:
    """Macro-averaged nDCG@k; queries without any positive gain are skipped."""
    def query_ndcg(predicted: dict[str, float], gold: dict[str, float]) -> float:
        order = sorted(predicted, key=lambda d: (-predicted[d], d))
        gains = [gold.get(doc_id, 0.0) for doc_id in order]
        return _dcg(gains, k) / _dcg(sorted(gold.values(), reverse=True), k)
    return _mean_over_queries(run, "nDCG", query_ndcg)


def mean_average_precision(run: RunAndGold, k: Optional[int] = None) -> float:
    """Macro-averaged AP@k with gold binarized as gain > 0, ties broken by
    doc_id; queries without any positive gain are skipped."""
    def query_ap(predicted: dict[str, float], gold: dict[str, float]) -> float:
        doc_ids = sorted(predicted)
        return average_precision([predicted[d] for d in doc_ids],
                                 [gold[d] > 0 for d in doc_ids], k)
    return _mean_over_queries(run, "MAP", query_ap)


THREE_WAY_GAINS = {"relevant": 1.0, "partial": 0.5, "irrelevant": 0.0}


def gain(gold: GoldLabel, scheme: str) -> float:
    """The gain of a gold label under an `evaluate --scheme` choice: graded_1_3
    takes the gold grade, three_way and binary map the binary label."""
    if scheme == "graded_1_3":
        return gold.grade
    if scheme == "three_way":
        if gold.binary not in THREE_WAY_GAINS:
            raise ValueError(f"unknown three_way label: {gold.binary!r}")
        return THREE_WAY_GAINS[gold.binary]
    return 1.0 if gold.binary == "relevant" else 0.0


def _sort_counting_inversions(values: list) -> tuple[list, int]:
    """`values` sorted, and the number of pairs i < j with values[i] > values[j],
    by merge sort (Knight 1966)."""
    if len(values) < 2:
        return values, 0
    mid = len(values) // 2
    left, left_inversions = _sort_counting_inversions(values[:mid])
    right, right_inversions = _sort_counting_inversions(values[mid:])
    inversions = left_inversions + right_inversions
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        if right[j] < left[i]:
            merged.append(right[j])
            j += 1
            inversions += len(left) - i
        else:
            merged.append(left[i])
            i += 1
    return merged + left[i:] + right[j:], inversions


def kendall_tau(rank_a: list, rank_b: list) -> float:
    """Tau-b over the positions implied by two orderings of the same id set.

    Positions have no ties, so tau-b is (concordant - discordant) / pairs,
    where the discordant pairs are the inversions of b's positions in a's order.
    """
    if set(rank_a) != set(rank_b) or len(rank_a) != len(set(rank_a)):
        raise ValueError("rankings must be over the same id set without duplicates")
    if len(rank_a) < 2:
        raise ValueError("kendall_tau needs at least 2 items")
    pos_b = {doc_id: i for i, doc_id in enumerate(rank_b)}
    _, discordant = _sort_counting_inversions([pos_b[doc_id] for doc_id in rank_a])
    pairs = len(rank_a) * (len(rank_a) - 1) // 2
    return (pairs - 2 * discordant) / pairs


def aggregate_report(*, ece: Optional[float], brier: Optional[float],
                     auroc: Optional[float], f1: Optional[float], ndcg: Optional[float],
                     map: Optional[float], ap: Optional[float],
                     undefined: Optional[dict[str, str]] = None) -> dict:
    """The report `evaluate` writes: the dimensions `unc`, `bin`, `cal`, `info`
    and their average `avg` on a 0-100 scale, rounded to 2 dp; then `raw`, the
    sub-metrics as given; then, when not empty, `undefined`, the reason of each
    sub-metric passed as None. A dimension built from a None sub-metric, and
    the average, are None too.

    Calibration averages AUROC with 1-ECE and 1-Brier so that higher is
    uniformly better; the overall average weighs the four dimensions equally.
    """
    cal = (None if None in (auroc, ece, brier)
           else 100.0 * (auroc + (1 - ece) + (1 - brier)) / 3.0)
    info = None if None in (ndcg, map) else 100.0 * (ndcg + map) / 2.0
    unc = None if ap is None else 100.0 * ap
    binary = None if f1 is None else 100.0 * f1
    avg = (None if None in (unc, binary, cal, info)
           else (unc + binary + cal + info) / 4.0)
    report: dict = {name: None if value is None else round(value, 2) for name, value in
                    zip(("unc", "bin", "cal", "info", "avg"), (unc, binary, cal, info, avg))}
    report["raw"] = {"ece": ece, "brier": brier, "auroc": auroc, "f1": f1,
                     "ndcg": ndcg, "map": map, "ap": ap}
    if undefined:
        report["undefined"] = dict(undefined)
    return report


def _build_run(scored: list[tuple[Annotation, GoldLabel]], scheme: str) -> RunAndGold:
    """Per query, the predicted scores and gold gains of the annotated pairs."""
    run: RunAndGold = {}
    for ann, g in scored:
        predicted, gold_gains = run.setdefault(ann.query_id, ({}, {}))
        predicted[ann.doc_id] = ann.relevance_score
        try:
            gold_gains[ann.doc_id] = gain(g, scheme)
        except ValueError as exc:
            raise ValueError(f"gold label ({g.query_id},{g.doc_id}): {exc}") from None
    return run


def score_annotations(annotations: list[Annotation], gold: list[GoldLabel], scheme: str,
                      ece_bins: int, k: Optional[int]) -> dict:
    """The four-dimension report (`aggregate_report`) of the annotations that
    have a gold label; fails on none. ece_bins and the cutoff k, when given, are at least 1."""
    scored = with_gold(annotations, gold)
    confidences = [primary_confidence(a) for a, _ in scored]
    predicted_rel = [a.guess == "Yes" for a, _ in scored]
    gold_rel = [gold_relevant(g) for _, g in scored]
    correct = [p == g for p, g in zip(predicted_rel, gold_rel)]
    run = _build_run(scored, scheme)
    sub_metrics = {
        "ece": lambda: ece(confidences, correct, bins=ece_bins),
        "brier": lambda: brier(confidences, correct),
        "auroc": lambda: auroc(confidences, correct),
        "f1": lambda: f1_precision_recall(predicted_rel, gold_rel)[0],
        "ndcg": lambda: ndcg(run, k=k),
        "map": lambda: mean_average_precision(run, k=k),
        "ap": lambda: average_precision([1.0 - c for c in confidences],
                                        [g.uncertain for _, g in scored]),
    }
    values, undefined = {}, {}
    for name, compute in sub_metrics.items():
        try:
            values[name] = compute()
        except UndefinedMetricError as exc:
            values[name], undefined[name] = None, str(exc)
    return aggregate_report(**values, undefined=undefined)


def f1_threshold_sweep(
    relevance_scores: Sequence[float],
    gold_relevant: Sequence[bool],
    grid: Sequence[float],
) -> list[tuple[float, float, float, float]]:
    """(theta, f1, precision, recall) per theta of the grid, predicting
    relevant iff score >= theta."""
    return [(theta, *f1_precision_recall([s >= theta for s in relevance_scores],
                                         gold_relevant))
            for theta in grid]

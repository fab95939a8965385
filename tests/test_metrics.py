import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relanno.annotator import Annotation, convert_confidence
from relanno.corpus import GoldLabel
from relanno.metrics import (
    UndefinedMetricError,
    aggregate_report,
    auroc,
    average_precision,
    brier,
    ece,
    f1_precision_recall,
    f1_threshold_sweep,
    gain,
    gold_relevant,
    kendall_tau,
    mean_average_precision,
    ndcg,
    score_annotations,
)

# --- independent brute-force oracles ---------------------------------------

def oracle_auroc(confidences, correct):
    pos = [c for c, ok in zip(confidences, correct) if ok]
    neg = [c for c, ok in zip(confidences, correct) if not ok]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def oracle_average_precision(scores, positives):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    n_pos = sum(positives)
    total = 0.0
    hits = 0
    for rank, i in enumerate(order, start=1):
        if positives[i]:
            hits += 1
            total += hits / rank
    return total / n_pos


def oracle_ndcg_single(predicted, gold, k=None):
    order = sorted(predicted, key=lambda d: (-predicted[d], d))
    gains = [gold.get(d, 0.0) for d in order]
    ideal = sorted(gold.values(), reverse=True)

    def dcg(values):
        top = values if k is None else values[:k]
        return sum(g / math.log2(i + 1) for i, g in enumerate(top, start=1))

    return dcg(gains) / dcg(ideal)


def oracle_map(run, k=None):
    """Mean over the queries with a positive gain of AP@k: precision@r at each
    rank r <= k that holds a positive, over min(positives, k); ties by doc_id."""
    values = []
    for predicted, gold in run.values():
        relevant = {d for d, g in gold.items() if g > 0}
        if not relevant:
            continue
        order = sorted(predicted, key=lambda d: (-predicted[d], d))
        cutoff = len(order) if k is None else k
        precisions = [len(relevant & set(order[:r])) / r
                      for r in range(1, len(order) + 1)
                      if r <= cutoff and order[r - 1] in relevant]
        values.append(sum(precisions) / min(len(relevant), cutoff))
    return sum(values) / len(values)


def oracle_kendall_tau(rank_a, rank_b):
    pos_a = {d: i for i, d in enumerate(rank_a)}
    pos_b = {d: i for i, d in enumerate(rank_b)}
    ids = list(rank_a)
    concordant = discordant = 0
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            da = pos_a[ids[i]] - pos_a[ids[j]]
            db = pos_b[ids[i]] - pos_b[ids[j]]
            if da * db > 0:
                concordant += 1
            elif da * db < 0:
                discordant += 1
    n_pairs = len(ids) * (len(ids) - 1) / 2
    return (concordant - discordant) / n_pairs


def oracle_ece(confidences, correct, bins):
    total = 0.0
    n = len(confidences)
    for b in range(bins):
        lo, hi = b / bins, (b + 1) / bins
        members = [i for i, c in enumerate(confidences)
                   if lo <= c < hi or (b == bins - 1 and c == 1.0)]
        if not members:
            continue
        acc = sum(correct[i] for i in members) / len(members)
        avg = sum(confidences[i] for i in members) / len(members)
        total += len(members) / n * abs(acc - avg)
    return total


# --- calibration metrics ---------------------------------------------------

class TestEce:
    def test_perfect_calibration(self):
        assert ece([1.0, 1.0, 1.0], [True, True, True], bins=10) == 0.0

    def test_single_bin_hand_computation(self):
        assert ece([0.8] * 4, [True, True, True, False], bins=1) == pytest.approx(0.05)

    def test_maximal_miscalibration(self):
        assert ece([1.0, 1.0], [False, False], bins=10) == pytest.approx(1.0)

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(0)
        for _ in range(300):
            n = rng.randint(1, 60)
            bins = rng.choice([1, 3, 10, 37])
            conf = [rng.choice([rng.random(), round(rng.random(), 1)]) for _ in range(n)]
            correct = [rng.random() < 0.5 for _ in range(n)]
            assert ece(conf, correct, bins=bins) == pytest.approx(
                oracle_ece(conf, correct, bins), abs=1e-9)

    def test_one_item_per_bin(self):
        # 2**62 bins put these ten confidences in ten bins of their own, so
        # ECE is the mean of |correct - confidence|. No array of that many bins
        # fits in memory: the cost must not grow with the bin count.
        conf = [0.05 + i / 10 for i in range(10)]
        correct = [i % 3 == 0 for i in range(10)]
        expected = sum(abs(ok - c) for c, ok in zip(conf, correct)) / 10
        assert ece(conf, correct, bins=2**62) == pytest.approx(
            expected, abs=1e-12)


class TestBrier:
    def test_extremes(self):
        assert brier([1.0], [True]) == 0.0
        assert brier([1.0], [False]) == 1.0

    def test_hand_computation(self):
        assert brier([0.8, 0.6], [True, False]) == pytest.approx(0.20)

    @given(st.floats(min_value=0, max_value=1), st.integers(min_value=1, max_value=50),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=100)
    def test_constant_confidence_decomposition(self, c, n_correct, n_wrong):
        # brier = c^2 - 2ca + a for constant confidence c and accuracy a
        n = n_correct + n_wrong
        if n == 0:
            return
        a = n_correct / n
        assert brier([c] * n, [True] * n_correct + [False] * n_wrong) == pytest.approx(c * c - 2 * c * a + a, abs=1e-9)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.9, 0.1], [True, True, False]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5, 0.5, 0.5], [True, False, True]) == 0.5

    def test_four_pair_hand_computation(self):
        assert auroc([0.9, 0.8, 0.7, 0.6], [True, False, True, False]) == pytest.approx(0.75)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.5, 0.6], [True, True])


class TestAveragePrecision:
    def test_positives_first(self):
        assert average_precision([0.9, 0.8, 0.1], [True, True, False]) == 1.0

    def test_hand_computation(self):
        assert average_precision([0.9, 0.8, 0.7], [False, True, True]) == \
            pytest.approx((1 / 2 + 2 / 3) / 2)

    def test_single_positive_item(self):
        assert average_precision([0.4], [True]) == 1.0

    def test_no_positives_undefined(self):
        with pytest.raises(UndefinedMetricError):
            average_precision([0.5], [False])


class TestF1Binary:
    def test_perfect(self):
        assert f1_precision_recall([True, False], [True, False]) == (1.0, 1.0, 1.0)

    def test_no_predicted_positives(self):
        assert f1_precision_recall([False, False], [True, False]) == (0.0, 0.0, 0.0)

    def test_hand_computation(self):
        # TP=2, FP=1, FN=1
        predicted = [True, True, True, False]
        gold = [True, True, False, True]
        assert f1_precision_recall(predicted, gold) == pytest.approx((2 / 3, 2 / 3, 2 / 3))

    def test_partial_policy(self):
        assert gold_relevant(gold_label("partial")) is True
        assert gold_relevant(gold_label("relevant")) is True
        assert gold_relevant(gold_label("relevant", grade=0.0)) is True  # the label wins
        assert gold_relevant(gold_label(None)) is False
        assert gold_relevant(gold_label(None, grade=0.5)) is True


# --- ranking metrics -------------------------------------------------------

def single_query_run(predicted, gold):
    return {"q": (predicted, gold)}


class TestNdcg:
    def test_ideal_order(self):
        run = single_query_run({"a": 0.9, "b": 0.5, "c": 0.1},
                               {"a": 1.0, "b": 0.5, "c": 0.0})
        assert ndcg(run) == pytest.approx(1.0)

    def test_hand_computation(self):
        run = single_query_run({"a": 0.9, "b": 0.5, "c": 0.1},
                               {"a": 0.5, "b": 1.0, "c": 0.0})
        expected = (0.5 + 1 / math.log2(3)) / (1 + 0.5 / math.log2(3))
        assert ndcg(run) == pytest.approx(expected, abs=1e-4)
        assert ndcg(run) == pytest.approx(0.8597, abs=1e-4)

    def test_single_relevant_ranked_first(self):
        predicted = {f"d{i}": 1.0 - i / 5 for i in range(5)}
        run = single_query_run(predicted, {"d0": 1.0})
        assert ndcg(run) == pytest.approx(1.0)

    def test_queries_without_positives_excluded(self):
        run = {
            "good": ({"a": 0.9, "b": 0.1}, {"a": 1.0, "b": 0.0}),
            "empty": ({"a": 0.9, "b": 0.1}, {"a": 0.0, "b": 0.0}),
        }
        assert ndcg(run) == pytest.approx(1.0)

    def test_all_excluded_undefined(self):
        with pytest.raises(UndefinedMetricError):
            ndcg(single_query_run({"a": 0.9}, {"a": 0.0}))


class TestMap:
    def test_all_positives_first(self):
        run = single_query_run({"a": 0.9, "b": 0.8, "c": 0.1},
                               {"a": 1.0, "b": 1.0, "c": 0.0})
        assert mean_average_precision(run) == pytest.approx(1.0)

    def test_positives_at_ranks_two_and_four(self):
        run = single_query_run({"a": 0.9, "b": 0.8, "c": 0.7, "d": 0.6},
                               {"b": 1.0, "d": 1.0, "a": 0.0, "c": 0.0})
        assert mean_average_precision(run) == pytest.approx(0.5)

    def test_partial_counts_as_positive(self):
        run = single_query_run({"a": 0.9, "b": 0.1}, {"a": 0.5, "b": 0.0})
        assert mean_average_precision(run) == pytest.approx(1.0)


def gold_label(binary=None, grade=0.0):
    return GoldLabel("q", "d", grade=grade, binary=binary)


class TestGainMapping:
    def test_three_way(self):
        assert gain(gold_label("relevant"), "three_way") == 1.0
        assert gain(gold_label("partial"), "three_way") == 0.5
        assert gain(gold_label("irrelevant"), "three_way") == 0.0

    def test_graded(self):
        for grade in (0.0, 1 / 3, 0.5, 2 / 3, 1.0):
            assert gain(gold_label("relevant", grade), "graded_1_3") == grade

    def test_binary(self):
        assert gain(gold_label("relevant"), "binary") == 1.0
        assert gain(gold_label("irrelevant"), "binary") == 0.0

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown three_way label: None"):
            gain(gold_label(None), "three_way")


class TestKendallTau:
    def test_identical(self):
        assert kendall_tau([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_reversed(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_one_swap(self):
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3)

    def test_mismatched_sets_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 3])


class TestAggregateReport:
    BASE = {"ece": 0.1, "brier": 0.1, "auroc": 0.9, "ndcg": 0.8, "map": 0.6,
            "f1": 0.85, "ap": 0.4}

    def test_cal_dimension(self):
        assert aggregate_report(**self.BASE)["cal"] == pytest.approx(90.0)

    def test_info_dimension(self):
        assert aggregate_report(**self.BASE)["info"] == pytest.approx(70.0)

    def test_missing_sub_metric_named(self):
        incomplete = dict(self.BASE)
        del incomplete["ndcg"]
        with pytest.raises(TypeError, match="ndcg"):
            aggregate_report(**incomplete)

    def test_avg_is_mean_of_dimensions(self):
        report = aggregate_report(**self.BASE)
        assert report["avg"] == pytest.approx(
            (report["unc"] + report["bin"] + report["cal"] + report["info"]) / 4)


GRADES = {"relevant": 1.0, "partial": 0.5, "irrelevant": 0.0}
DIMENSIONS = {"cal": ("auroc", "ece", "brier"), "info": ("ndcg", "map"),
              "unc": ("ap",), "bin": ("f1",)}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["q1", "q2"]), st.sampled_from(["Yes", "No"]),
                       st.floats(min_value=0, max_value=1),
                       st.sampled_from(sorted(GRADES)), st.booleans()),
             min_size=1, max_size=8),
    st.sampled_from(["three_way", "graded_1_3", "binary"]),
    st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
)
def test_score_annotations_reports_what_is_defined(rows, scheme, k):
    """Any small gold set that overlaps the annotations gives a report: an
    undefined sub-metric is None with a reason, and so is every dimension
    and the average built from it."""
    annotations, gold = [], []
    for i, (query_id, guess, confidence, label, uncertain) in enumerate(rows):
        annotations.append(Annotation(query_id, f"d{i}", guess,
                                      convert_confidence(confidence, guess, "ask_confidence",
                                                         "ask_probability"),
                                      confidence_ask=confidence))
        gold.append(GoldLabel(query_id, f"d{i}", grade=GRADES[label], binary=label,
                              uncertain=uncertain))
    report = score_annotations(annotations, gold, scheme, ece_bins=10, k=k)
    assert set(report.get("undefined", {})) == {name for name, v in report["raw"].items()
                                                if v is None}
    for dimension, sub_metrics in DIMENSIONS.items():
        value = report[dimension]
        assert (value is None) == any(report["raw"][name] is None for name in sub_metrics)
        assert value is None or 0.0 <= value <= 100.0
    assert (report["avg"] is None) == any(report[d] is None for d in DIMENSIONS)


class TestThresholdSweep:
    def test_theta_zero_full_recall(self):
        [(_, _, _, recall)] = f1_threshold_sweep([0.9, 0.2, 0.5], [True, False, True], [0.0])
        assert recall == 1.0

    def test_theta_one_no_predictions(self):
        [(_, f1, _, _)] = f1_threshold_sweep([0.9, 0.2], [True, False], [1.0])
        assert f1 == 0.0

    def test_two_item_hand_check(self):
        [(_, f1, _, _)] = f1_threshold_sweep([0.9, 0.2], [True, False], [0.5])
        assert f1 == 1.0


# --- randomized oracle suite and invariance properties ---------------------

class TestRandomOracles:
    def test_auroc_matches_bruteforce(self):
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(2, 8)
            conf = [round(rng.random(), 2) for _ in range(n)]
            correct = [rng.random() < 0.5 for _ in range(n)]
            if not (any(correct) and not all(correct)):
                continue
            assert auroc(conf, correct) == pytest.approx(oracle_auroc(conf, correct), abs=1e-9)

    def test_ap_matches_bruteforce(self):
        rng = random.Random(2)
        for _ in range(300):
            n = rng.randint(1, 8)
            scores = [round(rng.random(), 2) for _ in range(n)]
            positives = [rng.random() < 0.5 for _ in range(n)]
            if not any(positives):
                continue
            assert average_precision(scores, positives) == pytest.approx(
                oracle_average_precision(scores, positives), abs=1e-9)

    def test_ndcg_matches_bruteforce(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 8)
            predicted = {f"d{i}": rng.random() for i in range(n)}
            gold = {f"d{i}": rng.choice([0.0, 0.5, 1.0]) for i in range(n)}
            if not any(gold.values()):
                continue
            k = rng.choice([None, 1, 3, 5])
            assert ndcg(single_query_run(predicted, gold), k=k) == pytest.approx(
                oracle_ndcg_single(predicted, gold, k), abs=1e-9)

    def test_map_matches_bruteforce(self):
        """Several queries, tied scores (rounded to 0.1) and docs inserted out
        of doc_id order, so the doc_id tie-break is exercised; one query in
        each run has no positive gain and is skipped."""
        rng = random.Random(6)
        for _ in range(300):
            run = {}
            for q in range(rng.randint(1, 4)):
                doc_ids = [f"d{i}" for i in range(rng.randint(1, 8))]
                rng.shuffle(doc_ids)
                run[f"q{q}"] = ({d: round(rng.random(), 1) for d in doc_ids},
                                {d: rng.choice([0.0, 0.5, 1.0]) for d in doc_ids})
            run["none"] = ({"d0": 0.3, "d1": 0.9}, {"d0": 0.0, "d1": 0.0})
            k = rng.choice([None, 1, 3, 5])
            if not any(g > 0 for _, gold in run.values() for g in gold.values()):
                with pytest.raises(UndefinedMetricError):
                    mean_average_precision(run, k=k)
                continue
            assert mean_average_precision(run, k=k) == pytest.approx(
                oracle_map(run, k), abs=1e-9)

    def test_sweep_is_f1_precision_recall_at_each_threshold(self):
        rng = random.Random(9)
        grid = [i / 10 for i in range(11)]
        for _ in range(200):
            n = rng.randint(1, 8)
            scores = [round(rng.random(), 1) for _ in range(n)]
            gold = [rng.random() < 0.5 for _ in range(n)]
            for theta, f1, precision, recall in f1_threshold_sweep(scores, gold, grid):
                assert (f1, precision, recall) == f1_precision_recall(
                    [s >= theta for s in scores], gold)

    def test_auroc_matches_bruteforce_large_with_ties(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(100, 500)
            conf = [round(rng.random(), 1) for _ in range(n)]
            correct = [rng.random() < 0.5 for _ in range(n)]
            assert auroc(conf, correct) == pytest.approx(oracle_auroc(conf, correct), abs=1e-9)

    def test_tau_matches_bruteforce(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(2, 8)
            a = list(range(n))
            b = list(range(n))
            rng.shuffle(a)
            rng.shuffle(b)
            assert kendall_tau(a, b) == pytest.approx(
                oracle_kendall_tau(a, b), abs=1e-9)

    def test_tau_matches_bruteforce_large(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(100, 300)
            a = [f"d{i}" for i in range(n)]
            rng.shuffle(a)
            b = list(a)
            if rng.random() < 0.5:
                rng.shuffle(b)
            else:  # nearly the same order: a few swaps
                for _ in range(rng.randint(1, 5)):
                    i, j = rng.randrange(n), rng.randrange(n)
                    b[i], b[j] = b[j], b[i]
            assert kendall_tau(a, b) == pytest.approx(
                oracle_kendall_tau(a, b), abs=1e-9)

    def test_rank_metrics_invariant_under_monotone_transforms(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(2, 8)
            conf = [rng.random() for _ in range(n)]
            correct = [rng.random() < 0.5 for _ in range(n)]
            if not (any(correct) and not all(correct)):
                continue

            def transform(x, a=rng.uniform(0.5, 3.0), b=rng.uniform(0, 2)):
                return a * x + b

            before = auroc(conf, correct)
            after = auroc([transform(c) for c in conf], correct)
            assert after == pytest.approx(before, abs=1e-9)
            assert average_precision(conf, correct) == pytest.approx(
                average_precision([transform(c) for c in conf], correct), abs=1e-9)

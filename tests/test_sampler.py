import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relanno.annotator import Annotation
from relanno.corpus import QueryDocPair, RowError
from relanno.retrieval import Ranking
from relanno.sampler import (
    Disagreement,
    balanced_sample,
    confidence_bin,
    disagreement_accuracy_table,
    stratify_disagreements,
)


def make_ranking(n):
    return Ranking(query_id="q", entries=[(f"d{i:03d}", 1.0 - i / n) for i in range(n)])


class TestBalancedSample:
    def test_exact_balance(self, caplog):
        result = balanced_sample(make_ranking(100), k=10, per_side=10, seed=1,
                                 fill_policy="strict")
        inside = [p for p in result.pairs if p.retriever_rank <= 10]
        outside = [p for p in result.pairs if p.retriever_rank > 10]
        assert len(inside) == 10 and len(outside) == 10
        assert caplog.messages == []

    def test_strict_shortfall(self, caplog):
        result = balanced_sample(make_ranking(60), k=5, per_side=30, seed=1,
                                 fill_policy="strict")
        inside = [p for p in result.pairs if p.retriever_rank <= 5]
        outside = [p for p in result.pairs if p.retriever_rank > 5]
        assert len(inside) == 5 and len(outside) == 30
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("relanno.sampler", "query q: top-5 side short by 25")]

    def test_fill_policy_borrows(self, caplog):
        result = balanced_sample(make_ranking(60), k=5, per_side=30, seed=1,
                                 fill_policy="fill")
        assert len(result.pairs) == 60
        assert caplog.messages == []

    @pytest.mark.parametrize("policy", ["strict", "fill"])
    def test_shortfall_after_borrowing_warns_under_either_policy(self, caplog, policy):
        """10 docs cannot fill 2 x 30: fill has nothing to borrow, so it is
        short as strict is, and says so with the same two lines."""
        result = balanced_sample(make_ranking(10), k=5, per_side=30, seed=1,
                                 fill_policy=policy)
        assert len(result.pairs) == 10
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("relanno.sampler", "query q: top-5 side short by 25"),
            ("relanno.sampler", "query q: outside-top-5 side short by 25")]

    def test_fill_that_borrows_too_little_warns_of_the_rest(self, caplog):
        result = balanced_sample(make_ranking(40), k=5, per_side=30, seed=1,
                                 fill_policy="fill")
        assert len(result.pairs) == 40
        assert caplog.messages == ["query q: top-5 side short by 20"]

    def test_deterministic(self):
        a = balanced_sample(make_ranking(50), k=5, per_side=10, seed=9, fill_policy="strict")
        b = balanced_sample(make_ranking(50), k=5, per_side=10, seed=9, fill_policy="strict")
        assert a.pairs == b.pairs

    def test_each_query_draws_its_own_ranks(self):
        ids = [f"d{i:03d}" for i in range(200)]
        first = Ranking(query_id="q1", entries=[(d, 1.0 - i / 200) for i, d in enumerate(ids)])
        second = Ranking(query_id="q2", entries=[(d, 1.0 - i / 200)
                                                 for i, d in enumerate(reversed(ids))])
        ranks = [[p.retriever_rank for p in balanced_sample(r, k=5, per_side=10, seed=9,
                                                            fill_policy="strict").pairs]
                 for r in (first, second)]
        assert ranks[0] != ranks[1]

    def test_empty_ranking_rejected(self):
        """A ranking refuses itself, so no empty one reaches balanced_sample."""
        with pytest.raises(RowError, match=r"^field 'entries': expected a list that is not "
                                           r"empty, got \[\]$"):
            Ranking(query_id="q", entries=[])

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=20),
           st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=999))
    @settings(max_examples=150)
    def test_unique_and_from_ranking(self, n, k, per_side, seed):
        ranking = make_ranking(n)
        result = balanced_sample(ranking, k=k, per_side=per_side, seed=seed,
                                 fill_policy="strict")
        ids = [p.doc_id for p in result.pairs]
        assert len(ids) == len(set(ids))
        assert set(ids) <= set(ranking.doc_ids())

    # Unique: a ranking that repeats a doc refuses itself.
    @given(st.lists(st.sampled_from(["d1", "d2", "d3", "d4"]) | st.text(min_size=1),
                    min_size=1, max_size=120, unique=True),
           st.integers(min_value=1, max_value=130), st.integers(min_value=1, max_value=70),
           st.integers(min_value=0, max_value=999) | st.text(), st.text(min_size=1),
           st.sampled_from(["strict", "fill"]))
    # caplog is cleared for each example.
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_pairs_as_sampling_the_ranked_entries(self, caplog, doc_ids, k, per_side,
                                                       seed, query_id, policy):
        """Drawing rank positions gives the pairs and warnings that drawing from
        a copied list of (doc_id, rank) entries gave."""
        caplog.clear()
        ranking = Ranking(query_id=query_id,
                          entries=[(d, 1.0 - i / len(doc_ids)) for i, d in enumerate(doc_ids)])
        result = balanced_sample(ranking, k=k, per_side=per_side, seed=seed, fill_policy=policy)
        assert (result.pairs, caplog.messages) == \
            sample_ranked_entries(ranking, k, per_side, seed, policy)


def sample_ranked_entries(ranking, k, per_side, seed, fill_policy):
    """The oracle: `balanced_sample` as it was when it sampled (doc_id, rank)
    tuples, returning (pairs, warnings), with the shortfall warnings logged
    after any borrowing under either policy."""
    ranked = [(doc_id, rank) for rank, (doc_id, _) in enumerate(ranking.entries, start=1)]
    inside = ranked[:k]
    outside = ranked[k:]
    rng = random.Random(f"{seed}:{ranking.query_id}")
    take_in = rng.sample(inside, min(per_side, len(inside)))
    take_out = rng.sample(outside, min(per_side, len(outside)))
    deficit_in = per_side - len(take_in)
    deficit_out = per_side - len(take_out)
    if fill_policy == "fill":
        if deficit_in > 0:
            spare = [e for e in outside if e not in take_out]
            take_in += rng.sample(spare, min(deficit_in, len(spare)))
        if deficit_out > 0:
            spare = [e for e in inside if e not in take_in]
            take_out += rng.sample(spare, min(deficit_out, len(spare)))
    warnings = []
    if per_side > len(take_in):
        warnings.append(f"query {ranking.query_id}: top-{k} side short by "
                        f"{per_side - len(take_in)}")
    if per_side > len(take_out):
        warnings.append(f"query {ranking.query_id}: outside-top-{k} side short by "
                        f"{per_side - len(take_out)}")
    pairs = [QueryDocPair(query_id=ranking.query_id, doc_id=doc_id, retriever_rank=rank)
             for doc_id, rank in sorted(take_in + take_out, key=lambda e: e[1])]
    return pairs, warnings


class TestConfidenceBins:
    @pytest.mark.parametrize("conf,expected", [
        (0.0, "lt90"), (0.89, "lt90"), (0.90, "b90_95"), (0.95, "b95_98"),
        (0.97, "b95_98"), (0.98, "b98_100"), (1.0, "b98_100"),
    ])
    def test_boundaries(self, conf, expected):
        assert confidence_bin(conf) == expected

    @given(st.floats(min_value=0, max_value=1))
    def test_every_confidence_has_exactly_one_bin(self, conf):
        assert confidence_bin(conf) in ("lt90", "b90_95", "b95_98", "b98_100")


def annotation(qid, did, guess, conf):
    score = conf if guess == "Yes" else 1.0 - conf
    return Annotation(qid, did, guess, score, confidence_ask=conf)


class TestStratifyDisagreements:
    def test_full_bins_give_four_times_per_bin(self, caplog):
        annotations = []
        labels = {}
        confs = {"lt90": 0.5, "b90_95": 0.92, "b95_98": 0.96, "b98_100": 0.99}
        i = 0
        for conf in confs.values():
            for _ in range(60):
                annotations.append(annotation("q", f"d{i}", "Yes", conf))
                labels[("q", f"d{i}")] = "irrelevant"
                i += 1
        sampled = stratify_disagreements(annotations, labels, per_bin=50, seed=3)
        assert len(sampled) == 200
        assert caplog.messages == []

    def test_no_disagreements(self):
        annotations = [annotation("q", "d0", "Yes", 0.9)]
        sampled = stratify_disagreements(
            annotations, {("q", "d0"): "relevant"}, per_bin=50, seed=0)
        assert sampled == []

    def test_agreeing_pairs_filtered_out(self):
        annotations = [annotation("q", "d0", "Yes", 0.99),
                       annotation("q", "d1", "No", 0.99)]
        labels = {("q", "d0"): "irrelevant", ("q", "d1"): "irrelevant"}
        sampled = stratify_disagreements(annotations, labels, per_bin=5, seed=0)
        assert [d.doc_id for d in sampled] == ["d0"]

    def test_deterministic(self):
        annotations = [annotation("q", f"d{i}", "Yes", 0.5) for i in range(20)]
        labels = {("q", f"d{i}"): "irrelevant" for i in range(20)}
        a = stratify_disagreements(annotations, labels, per_bin=5, seed=11)
        b = stratify_disagreements(annotations, labels, per_bin=5, seed=11)
        assert a == b


def disagreement(conf, original):
    model = "relevant" if original == "irrelevant" else "irrelevant"
    return Disagreement(query_id="q", doc_id=f"d{conf}{original}",
                        model_guess=model, original_label=original,
                        confidence=conf, bin=confidence_bin(conf))


class TestAccuracyTable:
    def test_all_model_wins(self):
        audited = [(disagreement(0.99, "irrelevant"), "model"),
                   (disagreement(0.50, "relevant"), "model")]
        table = disagreement_accuracy_table(audited, cutoff=0.95, all_confidences=[])
        assert table["high_conf"]["all"]["accuracy"] == 100.0
        assert table["low_conf"]["all"]["accuracy"] == 100.0

    def test_hand_computed_cells(self):
        audited = [
            (disagreement(0.99, "irrelevant"), "model"),
            (disagreement(0.98, "irrelevant"), "original"),
            (disagreement(0.60, "relevant"), "model"),
            (disagreement(0.70, "relevant"), "original"),
        ]
        table = disagreement_accuracy_table(audited, cutoff=0.95, all_confidences=[])
        assert table["high_conf"]["original_irrelevant"]["accuracy"] == pytest.approx(50.0)
        assert table["low_conf"]["original_relevant"]["accuracy"] == pytest.approx(50.0)
        assert table["high_conf"]["all"]["count"] == 2

    def test_empty_stratum_reported_absent(self):
        audited = [(disagreement(0.99, "irrelevant"), "model")]
        table = disagreement_accuracy_table(audited, cutoff=0.95, all_confidences=[])
        assert table["low_conf"]["all"]["accuracy"] is None
        assert table["high_conf"]["original_relevant"]["accuracy"] is None

    def test_matches_published_high_confidence_cell(self):
        # 21 of 23 model wins among high-confidence originally-irrelevant
        # disagreements reproduces the 91.30 accuracy figure.
        audited = [(disagreement(0.99, "irrelevant"),
                    "model" if i < 21 else "original") for i in range(23)]
        table = disagreement_accuracy_table(audited, cutoff=0.95, all_confidences=[])
        assert table["high_conf"]["original_irrelevant"]["accuracy"] == pytest.approx(
            91.30, abs=0.005)

    def test_high_conf_fraction(self):
        audited = [(disagreement(0.99, "irrelevant"), "model")]
        table = disagreement_accuracy_table(
            audited, cutoff=0.95, all_confidences=[0.99, 0.99, 0.5, 0.8])
        assert table["high_conf_fraction"] == pytest.approx(0.5)

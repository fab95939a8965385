import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relanno.corpus import DocumentChunk, Query
from relanno.config import Config
from relanno.gateway import LLMGateway
from relanno.metrics import f1_threshold_sweep
from mockserver import MockLLMServer, hash_embedding
from relanno.retrieval import (
    Ranking,
    cosine_similarity,
    load_rankings,
    rank_documents,
    save_rankings,
)
from relanno.sampler import balanced_sample


class TestCosineSimilarity:
    def test_identical_unit_vectors(self):
        scores = cosine_similarity([(1, 0), (0, 1)], [(1, 0), (0, 1)])
        assert scores == pytest.approx(np.eye(2))

    def test_orthogonal(self):
        assert cosine_similarity([(1, 0)], [(0, 1)]) == pytest.approx(np.zeros((1, 1)))

    def test_diagonal(self):
        scores = cosine_similarity([(1, 1)], [(1, 0), (0, 2)])
        assert scores == pytest.approx(np.full((1, 2), 1 / math.sqrt(2)), abs=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity([(0, 0)], [(1, 0)])
        with pytest.raises(ValueError):
            cosine_similarity([(1, 0)], [(1, 0), (0, 0)])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([(1, 0)], [(1, 0, 0)])


class TestRankDocuments:
    def test_verbatim_chunk_ranked_first(self, uncached_gateway):
        queries = [Query(id="q1", text="scope three emissions disclosure"),
                   Query(id="q2", text="board governance audit")]
        chunks = [
            DocumentChunk(id="far", report_id="r", text="board governance audit"),
            DocumentChunk(id="match", report_id="r",
                          text="scope three emissions disclosure"),
            DocumentChunk(id="near", report_id="r", text="emissions scope data"),
        ]
        rankings = rank_documents(queries, chunks, uncached_gateway)
        assert [r.query_id for r in rankings] == ["q1", "q2"]
        assert [r.doc_ids()[0] for r in rankings] == ["match", "far"]

    def test_single_chunk(self, uncached_gateway):
        [ranking] = rank_documents(
            [Query(id="q", text="anything")],
            [DocumentChunk(id="only", report_id="r", text="anything")],
            uncached_gateway)
        assert len(ranking.entries) == 1

    def test_duplicate_texts_tie_break_by_doc_id(self, uncached_gateway):
        query = Query(id="q", text="water usage")
        chunks = [
            DocumentChunk(id="b", report_id="r", text="water usage"),
            DocumentChunk(id="a", report_id="r", text="water usage"),
        ]
        [ranking] = rank_documents([query], chunks, uncached_gateway)
        assert ranking.doc_ids() == ["a", "b"]

    def test_empty_chunks_rejected(self, uncached_gateway):
        with pytest.raises(ValueError):
            rank_documents([Query(id="q", text="x")], [], uncached_gateway)

    def test_no_queries_no_requests(self, uncached_gateway, mock_server):
        chunks = [DocumentChunk(id="only", report_id="r", text="anything")]
        assert rank_documents([], chunks, uncached_gateway) == []
        assert mock_server.request_count == 0


def scalar_cosine(a, b):
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(x * x for x in b))
    return sum(x * y for x, y in zip(a, b)) / (norm_a * norm_b)


def reference_rankings(queries, chunks):
    """Oracle: per-query scalar cosine over the mock's embeddings, sorted by
    (-score, doc_id)."""
    rankings = []
    for query in queries:
        query_vec = hash_embedding(query.text)
        scored = [(c.id, scalar_cosine(query_vec, hash_embedding(c.text)))
                  for c in chunks]
        scored.sort(key=lambda e: (-e[1], e[0]))
        rankings.append(Ranking(query_id=query.id, entries=scored))
    return rankings


EMBED_CAP = 4
# A few words over the mock's 32 hash buckets give small integer vectors, with
# repeated texts, reordered texts (same vector) and tied scores.
TEXTS = st.lists(st.sampled_from(["scope", "water", "board", "audit", "plant"]),
                 min_size=1, max_size=4).map(" ".join)


@pytest.fixture(scope="module")
def capped_server():
    with MockLLMServer(max_embed_inputs=EMBED_CAP) as server:
        yield server


@given(query_texts=st.lists(TEXTS, min_size=1, max_size=4),
       chunk_texts=st.lists(TEXTS, min_size=1, max_size=8),
       batch_size=st.integers(min_value=1, max_value=EMBED_CAP),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_rankings_match_scalar_reference(capped_server, query_texts, chunk_texts,
                                         batch_size, data):
    queries = [Query(id=f"q{i}", text=t) for i, t in enumerate(query_texts)]
    ids = data.draw(st.permutations([f"d{i}" for i in range(len(chunk_texts))]))
    chunks = [DocumentChunk(id=i, report_id="r", text=t)
              for i, t in zip(ids, chunk_texts)]
    distinct = len(set(query_texts) | set(chunk_texts))
    with tempfile.TemporaryDirectory() as tmp:
        expected, got = Path(tmp, "expected.jsonl"), Path(tmp, "got.jsonl")
        save_rankings(expected, reference_rankings(queries, chunks))
        config = Config(base_url=capped_server.base_url,
                        cache_dir=str(Path(tmp, "cache")), embed_batch_size=batch_size)
        for requests_expected in (math.ceil(distinct / batch_size), 0):
            capped_server.reset_counters()
            save_rankings(got, rank_documents(queries, chunks, LLMGateway(config)))
            assert capped_server.request_count == requests_expected
            assert got.read_bytes() == expected.read_bytes()


def make_ranking(n=10):
    return Ranking(query_id="q", entries=[(f"d{i}", 1.0 - i / n) for i in range(n)])


def sampled_top_k(ranking, k):
    """Top-k retrieval as `sample` does it: with per_side at least the ranking's
    length, balanced_sample keeps every doc of rank <= k."""
    sample = balanced_sample(ranking, k=k, per_side=len(ranking.entries), seed=0,
                             fill_policy="strict")
    return [pair.doc_id for pair in sample.pairs if pair.retriever_rank <= k]


class TestRetrieveTopK:
    def test_basic(self):
        assert sampled_top_k(make_ranking(10), 5) == ["d0", "d1", "d2", "d3", "d4"]

    def test_k_larger_than_n(self):
        assert len(sampled_top_k(make_ranking(3), 5)) == 3

    def test_prefix_property(self):
        ranking = make_ranking(10)
        for k in range(1, 10):
            assert sampled_top_k(ranking, k) == sampled_top_k(ranking, k + 1)[:k]


def swept(scores, gold, theta):
    """(precision, recall) of threshold retrieval as `sweep` does it: a doc is
    retrieved iff its score >= theta."""
    [(_, _, precision, recall)] = f1_threshold_sweep(scores, gold, [theta])
    return precision, recall


class TestRetrieveByThreshold:
    SCORES = [0.9, 0.5, 0.2]

    def test_inclusive_cutoff(self):
        # only the doc scored exactly theta is relevant: it is retrieved, and
        # so is the one above it
        assert swept(self.SCORES, [False, True, False], 0.5) == (0.5, 1.0)

    def test_vacuous_threshold(self):
        assert swept(self.SCORES, [True, True, True], 0.0) == (1.0, 1.0)

    def test_top_threshold(self):
        assert swept(self.SCORES + [1.0], [False, False, False, True], 1.0) == (1.0, 1.0)

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=0, max_size=30),
           st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    @settings(max_examples=200)
    def test_monotone_in_theta(self, values, t1, t2):
        # every doc relevant, so recall is the share of docs retrieved
        gold = [True] * len(values)
        lo, hi = min(t1, t2), max(t1, t2)
        assert swept(values, gold, hi)[1] <= swept(values, gold, lo)[1]


def test_rankings_jsonl_round_trip(tmp_path):
    rankings = [make_ranking(4), Ranking(query_id="q2", entries=[("x", 0.5)])]
    path = tmp_path / "rankings.jsonl"
    save_rankings(path, rankings)
    assert load_rankings(path) == rankings

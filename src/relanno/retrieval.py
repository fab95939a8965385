"""Dense-retrieval ranking over chunks."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from . import lazy_import
from .corpus import DocumentChunk, Query, RowError, read_jsonl, write_jsonl
from .gateway import LLMGateway

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

np = lazy_import("numpy")


@dataclass
class Ranking:
    KEY = ("query_id",)
    query_id: str
    entries: list[tuple[str, float]]  # (doc_id, score), descending by score

    def __post_init__(self):
        if not self.entries:
            raise RowError("expected a list that is not empty, got []", "entries")
        index_of: dict[str, int] = {}
        for i, (doc_id, _) in enumerate(self.entries):
            if (first := index_of.setdefault(doc_id, i)) != i:
                raise RowError(f"doc id {doc_id!r} repeats entries[{first}]", f"entries[{i}]")

    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _ in self.entries]


def cosine_similarity(a: ArrayLike, b: ArrayLike) -> np.ndarray:
    """Cosine of each row of `a` (n x k) against each row of `b` (m x k), as n x m.

    Raw dot products are divided by the product of the norms; rows are not
    normalised first, so integer-valued vectors score exactly as
    `dot / (|a| * |b|)` does in scalar float64 arithmetic.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    norm_a = np.linalg.norm(a, axis=1)
    norm_b = np.linalg.norm(b, axis=1)
    if not (norm_a.all() and norm_b.all()):
        raise ValueError("cosine similarity undefined for zero vector")
    return (a @ b.T) / np.outer(norm_a, norm_b)


def rank_documents(queries: list[Query], chunks: list[DocumentChunk],
                   gateway: LLMGateway) -> list[Ranking]:
    """Rank every chunk for every query by cosine, descending, in one pass.

    Query and chunk texts go to the gateway in one `embed` call, and the
    scores come from views of the one float64 array it returns. Ties break
    lexicographically by doc_id so rankings are reproducible.
    """
    if not chunks:
        raise ValueError("rank_documents needs at least one chunk")
    if not queries:
        return []
    chunks = sorted(chunks, key=lambda c: c.id)
    vectors = gateway.embed([q.text for q in queries] + [c.text for c in chunks])
    scores = cosine_similarity(vectors[:len(queries)], vectors[len(queries):])
    # Columns are in doc_id order, so a stable sort keeps the doc_id tie-break.
    order = np.argsort(-scores, axis=1, kind="stable")
    ranked_scores = np.take_along_axis(scores, order, axis=1)
    doc_ids = [c.id for c in chunks]
    return [Ranking(query_id=query.id,
                    entries=[(doc_ids[j], s) for j, s in zip(columns, row)])
            for query, columns, row in zip(queries, order.tolist(), ranked_scores.tolist())]


def load_rankings(path: str | Path) -> list[Ranking]:
    return read_jsonl(path, Ranking)


def save_rankings(path: str | Path, rankings: list[Ranking]) -> None:
    write_jsonl(path, rankings)

"""Output check for one run of the loop against the answers in `model.py`.

`check_loop` returns the list of problems found; an empty list means the run's
outputs are correct. It reads only the files the loop wrote.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import model
from workloads import index_of

TIE = 1e-12      # reference scores closer than this may come in either order
SCORE_TOL = 1e-9


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


class ReferenceRanker:
    """Float64 numpy cosine ranking from the endpoint's embedding function."""

    def __init__(self):
        self._embedder = model.Embedder()
        self._cache: dict[str, np.ndarray] = {}

    def _unit_vectors(self, texts: list[str]) -> np.ndarray:
        rows = []
        for text in texts:
            vec = self._cache.get(text)
            if vec is None:
                vec = self._embedder.embed(text)
                vec = self._cache[text] = vec / np.linalg.norm(vec)
            rows.append(vec)
        return np.stack(rows)

    def scores(self, query_texts: list[str], doc_texts: list[str]) -> np.ndarray:
        """Cosine of each query (row) against each document (column)."""
        return self._unit_vectors(query_texts) @ self._unit_vectors(doc_texts).T


def check_rankings(out: Path, ranker: ReferenceRanker) -> list[str]:
    queries = {row["id"]: row["text"] for row in read_jsonl(out / "corpus/queries.jsonl")}
    docs = read_jsonl(out / "corpus/documents.jsonl")
    doc_ids = [row["id"] for row in docs]
    rankings = read_jsonl(out / "rankings.jsonl")
    problems = []
    if sorted(r["query_id"] for r in rankings) != sorted(queries):
        return ["rankings do not cover each query exactly once"]
    scores = ranker.scores([queries[r["query_id"]] for r in rankings],
                           [row["text"] for row in docs])
    for ranking, row_scores in zip(rankings, scores):
        qid = ranking["query_id"]
        ref = dict(zip(doc_ids, row_scores.tolist()))
        order = [doc_id for doc_id, _ in ranking["entries"]]
        if sorted(order) != sorted(doc_ids):
            problems.append(f"ranking of {qid} does not hold each document once")
            continue
        inversions = [i for i in range(len(order) - 1)
                      if ref[order[i]] < ref[order[i + 1]] - TIE]
        if inversions:
            i = inversions[0]
            problems.append(f"ranking of {qid}: {order[i]} before {order[i + 1]} "
                            f"but reference scores {ref[order[i]]!r} < {ref[order[i + 1]]!r}")
        off = [d for d, s in ranking["entries"] if abs(s - ref[d]) > SCORE_TOL]
        if off:
            problems.append(f"ranking of {qid}: {len(off)} scores differ from the reference")
    return problems


def check_annotations(out: Path, seed: int, malformed: set) -> list[str]:
    pairs = [(r["query_id"], r["doc_id"]) for r in read_jsonl(out / "pairs.jsonl")]
    annotations = read_jsonl(out / "annotations.jsonl")
    errors = read_jsonl(out / "errors.jsonl")
    problems = []
    seen: dict[tuple, int] = {}
    for row in annotations + errors:
        key = (row["query_id"], row["doc_id"])
        seen[key] = seen.get(key, 0) + 1
    if sorted(seen) != sorted(set(pairs)) or any(n != 1 for n in seen.values()) \
            or len(pairs) != len(set(pairs)):
        problems.append("sampled pairs are not each in the annotations or the error "
                        "ledger exactly once")
    wrong = 0
    for row in annotations:
        q, d = index_of(row["query_id"]), index_of(row["doc_id"])
        want = model.pair_answer(seed, q, d, malformed=False)
        if (row.get("guess") != want.guess
                or row.get("confidence_ask") != want.confidence_ask
                or row.get("confidence_tok") != math.exp(want.tok_logprob)):
            wrong += 1
    if wrong:
        problems.append(f"{wrong} annotations differ from the endpoint's answers")
    injected = {p for p in pairs if model.designated(malformed, index_of(p[0]), index_of(p[1]))}
    if {(r["query_id"], r["doc_id"]) for r in errors} != injected:
        problems.append(f"error ledger holds {len(errors)} pairs, not the "
                        f"{len(injected)} injected malformed answers")
    return problems


def check_report(out: Path) -> list[str]:
    with open(out / "report.json", encoding="utf-8") as f:
        report = json.load(f)
    bad = [k for k in ("unc", "bin", "cal", "info")
           if not isinstance(report.get(k), (int, float)) or not math.isfinite(report[k])]
    return [f"report.json has no finite value for {', '.join(bad)}"] if bad else []


def check_distill(out: Path) -> list[str]:
    want = len(read_jsonl(out / "train_annotations.jsonl"))
    got = len(read_jsonl(out / "train.jsonl"))
    return [] if want == got else [f"distill wrote {got} records for {want} train annotations"]


def check_loop(out: Path, spec: dict, ranker: ReferenceRanker) -> list[str]:
    """Every problem with the outputs of one loop run in `out`."""
    problems = []
    for check in (lambda: check_rankings(out, ranker),
                  lambda: check_annotations(out, spec["seed"], model.cells(spec["malformed"])),
                  lambda: check_report(out),
                  lambda: check_distill(out)):
        try:
            problems += check()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return problems

"""Workload definitions and the seeded input generator.

The generator writes what a user would hand to `relanno` (queries, chunks, gold
labels with `uncertain` flags, audit verdicts) plus the endpoint's spec. The
program sees only those files; the seed reaches it only through their content.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import model

MALFORMED_SHARE = 0.02
THROTTLED_SHARE = 0.01
PLANTED_PER_QUERY = 3
GOLD_EXTRA_PER_QUERY = 10
CHUNKS_PER_REPORT = 5


@dataclass(frozen=True)
class Workload:
    name: str
    queries: int
    docs: int
    k: int            # `relanno sample --k`
    per_side: int     # `relanno sample --per-side`
    throttled_share: float = THROTTLED_SHARE

    @property
    def covers_corpus(self) -> bool:
        """Whether `sample` picks every doc for every query (all Q x D pairs)."""
        return self.k <= self.per_side and self.docs <= self.k + self.per_side


# The endpoint's latency, the same for every workload. It is an assumption, not
# a measurement of a real API: 50 ms per chat request, spread +-25 ms
# deterministically per pair, and 250 ms per embedding request plus 0.05 ms
# per input. On rank-heavy that wait is about two fifths of `rank_s`; the rest
# is relanno's own work (cache reads, cosine, start-up). CPU-bound wall time
# swings by up to +-20% from minute to minute on small shared machines, and
# the wait keeps `rank_s` inside its bound while a doubling of the ranking
# work still moves it by about half.
LATENCY_MS = {"chat_base_ms": 50, "chat_spread_ms": 25,
              "embed_base_ms": 250, "embed_per_input_ms": 0.05}

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # No 429s here: among 160 pairs, where one backoff falls would shift
    # annotate's wall by seed.
    Workload("rank-heavy", queries=40, docs=800, k=2, per_side=2, throttled_share=0),
    Workload("annotate-remote", queries=20, docs=30, k=5, per_side=25),
)}


def query_id(q: int) -> str:
    return f"q{q:05d}"


def doc_id(d: int) -> str:
    return f"d{d:06d}"


def index_of(id_: str) -> int:
    return int(id_[1:])


def _designate(workload: Workload, seed: int, salt: str, share: float,
               skip: set) -> list[list]:
    """Cells that get an injected fault, chosen by hash so that their number is
    the same for every seed: single pairs when every pair is sampled, else
    whole queries (every sampled pair of that query)."""
    if workload.covers_corpus:
        cells = [(q, d) for q in range(workload.queries) for d in range(workload.docs)]
        count = round(share * len(cells))
    else:
        cells = [(q, None) for q in range(workload.queries)]
        count = max(1, round(share * len(cells))) if share else 0
    cells = sorted((c for c in cells if c not in skip),
                   key=lambda c: model.unit(seed, salt, *c))
    return [list(c) for c in sorted(cells[:count], key=lambda c: (c[0], c[1] or 0))]


def generate(workload: Workload, seed: int, out_dir: Path,
             latency_ms: dict = LATENCY_MS) -> dict:
    """Write inputs.{queries,documents,gold,verdicts}.jsonl and spec.json."""
    rng = random.Random(seed)
    vocab = model.VOCABULARY
    topics = [rng.sample(vocab, 5) for _ in range(workload.queries)]
    planted: dict[int, list[int]] = {}
    for q in range(workload.queries):
        for d in rng.sample(range(workload.docs), PLANTED_PER_QUERY):
            planted.setdefault(d, []).append(q)

    queries = [{"id": query_id(q), "text": "Which disclosures describe "
                f"{' '.join(topics[q])} in {model.query_tag(q)}"}
               for q in range(workload.queries)]
    documents = []
    for d in range(workload.docs):
        words = [w for q in planted.get(d, []) for w in rng.choices(topics[q], k=30)]
        words += rng.choices(vocab, k=rng.randint(130, 170) - len(words))
        rng.shuffle(words)
        documents.append({"id": doc_id(d), "report_id": f"r{d // CHUNKS_PER_REPORT:05d}",
                          "text": model.doc_tag(d) + " " + " ".join(words)})

    if workload.covers_corpus:
        gold_cells = [(q, d) for q in range(workload.queries) for d in range(workload.docs)]
    else:
        by_query = {q: set() for q in range(workload.queries)}
        for d, qs in planted.items():
            for q in qs:
                by_query[q].add(d)
        for q in by_query:
            by_query[q].update(rng.sample(range(workload.docs), GOLD_EXTRA_PER_QUERY))
        gold_cells = [(q, d) for q in by_query for d in sorted(by_query[q])]
    gold, verdicts = [], []
    for q, d in gold_cells:
        g = model.gold_label(seed, q, d)
        gold.append({"query_id": query_id(q), "doc_id": doc_id(d), "grade": g.grade,
                     "binary": g.binary, "uncertain": g.uncertain})
        verdicts.append({"query_id": query_id(q), "doc_id": doc_id(d),
                         "verdict": model.audit_verdict(seed, q, d)})

    malformed = _designate(workload, seed, "malformed", MALFORMED_SHARE, set())
    throttled = _designate(workload, seed, "throttled", workload.throttled_share,
                           {tuple(c) for c in malformed})
    spec = {"seed": seed, **latency_ms, "malformed": malformed, "throttled": throttled}

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, rows in (("queries", queries), ("documents", documents),
                       ("gold", gold), ("verdicts", verdicts)):
        with open(out_dir / f"{name}.jsonl", "w", encoding="utf-8") as f:
            f.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    with open(out_dir / "spec.json", "w", encoding="utf-8") as f:
        json.dump(spec, f, indent=1)
    return spec

"""Per-layer metrics of one traced loop, from the span files `tracer.py` wrote.

Each metric names the spans it is computed from. When one of those functions
was never found in the program, the metric is reported as absent (None).
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Spans:
    """All spans of one loop; ids are made unique across command files."""

    def __init__(self, paths: list[Path]):
        self.spans: list[dict] = []
        self.wrapped: set[str] = set()
        for n, path in enumerate(paths):
            with open(path, encoding="utf-8") as f:
                header = json.loads(f.readline())
                self.wrapped.update(header["wrapped"])
                for line in f:
                    span = json.loads(line)
                    span["id"] = (n, span["id"])
                    span["parent"] = None if span["parent"] is None else (n, span["parent"])
                    span["dur"] = span["end"] - span["start"]
                    self.spans.append(span)
        self.by_id = {s["id"]: s for s in self.spans}
        self.children: dict[tuple, list[dict]] = {}
        for s in self.spans:
            self.children.setdefault(s["parent"], []).append(s)

    def named(self, *names: str) -> list[dict]:
        exact = {n for n in names if not n.endswith("*")}
        prefixes = tuple(n[:-1] for n in names if n.endswith("*"))
        return [s for s in self.spans
                if s["name"] in exact or (prefixes and s["name"].startswith(prefixes))]

    def outermost(self, group: list[dict]) -> list[dict]:
        """Spans of the group that are not inside another span of the group."""
        ids = {s["id"] for s in group}
        out = []
        for s in group:
            parent = s["parent"]
            while parent is not None and parent not in ids:
                parent = self.by_id[parent]["parent"]
            if parent is None:
                out.append(s)
        return out

    def self_time(self, span: dict) -> float:
        """Duration minus the part of it that child spans cover."""
        intervals = sorted((max(c["start"], span["start"]), min(c["end"], span["end"]))
                           for c in self.children.get(span["id"], []))
        covered, reach = 0.0, span["start"]
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return span["dur"] - covered


def _total(spans: list[dict]) -> float:
    return sum(s["dur"] for s in spans)


# Each helper returns (span names it reads, function of Spans). A name ending
# in "*" matches every span name with that prefix.

def _calls(*names):
    return names, lambda t: len(t.named(*names))


def _time(*names):
    """Inclusive time of the outermost spans among names (no double counting)."""
    return names, lambda t: _total(t.outermost(t.named(*names)))


def _self(*names):
    return names, lambda t: sum(map(t.self_time, t.outermost(t.named(*names))))


def _sum(name, key):
    return (name,), lambda t: sum(s.get(key, 0) for s in t.named(name))


def _ms(name, p):
    return (name,), lambda t: 1000 * percentile([s["dur"] for s in t.named(name)], p)


def _ratio(num, den):
    (num_names, num_fn), (den_names, den_fn) = num, den

    def ratio(t):
        d = den_fn(t)
        return num_fn(t) / d if d else 0.0
    return num_names + den_names, ratio


def _failures(*names):
    return names, lambda t: sum(not s["ok"] for s in t.named(*names))


CHAT, EMBED, GET, PUT, HTTP = ("gateway.chat_complete", "gateway.embed", "gateway.cache.get",
                               "gateway.cache.put", "gateway.http")
CORPUS_READS = ("corpus.read_*", "corpus.load_*")
CORPUS_WRITES = ("corpus.write_*", "corpus.save_*")

# name -> (unit, better, (span names, function of Spans))
PER_LAYER = {
    "cli.import_s": ("s", "lower", _time("cli.import")),
    "cli.self_s": ("s", "lower", _self("cli.main")),
    "cli.commands": ("count", "lower", _calls("cli.main")),
    "corpus.read_s": ("s", "lower", _time(*CORPUS_READS)),
    "corpus.read_rows": ("count", "lower", _sum("corpus.read_jsonl", "n")),
    "corpus.write_s": ("s", "lower", _time(*CORPUS_WRITES)),
    "corpus.write_rows": ("count", "lower", _sum("corpus.write_jsonl", "n")),
    "gateway.chat_calls": ("count", "lower", _calls(CHAT)),
    "gateway.chat_s": ("s", "lower", _time(CHAT)),
    "gateway.chat_cache_hit_ratio": ("ratio", "higher", _ratio(_sum(CHAT, "cached"),
                                                               _calls(CHAT))),
    "gateway.embed_calls": ("count", "lower", _calls(EMBED)),
    "gateway.embed_texts": ("count", "lower", _sum(EMBED, "n")),
    "gateway.embed_s": ("s", "lower", _time(EMBED)),
    "gateway.cache_gets": ("count", "lower", _calls(GET)),
    "gateway.cache_hits": ("count", "higher", _sum(GET, "hit")),
    "gateway.cache_get_s": ("s", "lower", _time(GET)),
    "gateway.cache_puts": ("count", "lower", _calls(PUT)),
    "gateway.cache_put_s": ("s", "lower", _time(PUT)),
    "gateway.http_posts": ("count", "lower", _calls(HTTP)),
    "gateway.http_s": ("s", "lower", _time(HTTP)),
    "gateway.http_p50_ms": ("ms", "lower", _ms(HTTP, 50)),
    "gateway.http_p99_ms": ("ms", "lower", _ms(HTTP, 99)),
    "gateway.retries": ("count", "lower", _calls("gateway.sleep")),
    "gateway.backoff_s": ("s", "lower", _time("gateway.sleep")),
    "gateway.self_s": ("s", "lower", _self(CHAT, EMBED)),
    "retrieval.rank_calls": ("count", "lower", _calls("retrieval.rank_documents")),
    "retrieval.rank_self_s": ("s", "lower", _self("retrieval.rank_documents")),
    "retrieval.score_calls": ("count", "lower", _calls("retrieval.cosine_similarity")),
    "retrieval.score_s": ("s", "lower", _time("retrieval.cosine_similarity")),
    "retrieval.io_s": ("s", "lower", _time("retrieval.load_rankings", "retrieval.save_rankings")),
    "sampler.sample_s": ("s", "lower", _time("sampler.balanced_sample")),
    "sampler.pairs": ("count", "higher", _sum("sampler.balanced_sample", "n")),
    "sampler.stratify_s": ("s", "lower", _time("sampler.stratify_disagreements")),
    "prompting.template_loads": ("count", "lower", _calls("prompting.load_template")),
    "prompting.template_load_s": ("s", "lower", _time("prompting.load_template")),
    "prompting.render_calls": ("count", "lower", _calls("prompting.render_*")),
    "prompting.render_s": ("s", "lower", _time("prompting.render_*")),
    "prompting.parse_calls": ("count", "lower", _calls("prompting.parse_*")),
    "prompting.parse_s": ("s", "lower", _time("prompting.parse_*")),
    "prompting.parse_failures": ("count", "lower", _failures("prompting.parse_*")),
    "annotator.pairs": ("count", "higher", _sum("annotator.annotate_corpus", "n")),
    "annotator.errors": ("count", "lower", _sum("annotator.annotate_corpus", "errors")),
    "annotator.pair_p50_ms": ("ms", "lower", _ms("annotator.annotate_pair", 50)),
    "annotator.pair_p99_ms": ("ms", "lower", _ms("annotator.annotate_pair", 99)),
    # Sum of pair span time over annotate_corpus wall time: mean pairs in flight.
    "annotator.overlap": ("ratio", "higher", _ratio(_time("annotator.annotate_pair"),
                                                    _time("annotator.annotate_corpus"))),
    "annotator.self_s": ("s", "lower", (("annotator.annotate_corpus",), lambda t: sum(
        map(t.self_time, t.named("annotator.*"))))),
    "metrics.calls": ("count", "lower", _calls("metrics.*")),
    "metrics.s": ("s", "lower", _time("metrics.*")),
    "distill.records": ("count", "higher", _sum("distill.export_training_data", "n")),
    "distill.export_s": ("s", "lower", _time("distill.export_training_data")),
    "distill.audit_s": ("s", "lower", _time("distill.audit_balance")),
}

# Counters of the benchmark's endpoint during the traced loop.
ENDPOINT = {
    "endpoint.chat_requests": ("count", "lower", lambda e: e["chat_requests"]),
    "endpoint.embed_requests": ("count", "lower", lambda e: e["embed_requests"]),
    "endpoint.embed_inputs": ("count", "lower", lambda e: e["embed_inputs"]),
    "endpoint.request_mb": ("MB", "lower", lambda e: e["request_bytes"] / 1e6),
    "endpoint.response_mb": ("MB", "lower", lambda e: e["response_bytes"] / 1e6),
    "endpoint.peak_in_flight": ("count", "higher", lambda e: e["peak_in_flight"]),
    "endpoint.injected_429": ("count", "lower", lambda e: e["injected_429"]),
    "endpoint.injected_malformed": ("count", "lower", lambda e: e["injected_malformed"]),
}

OVERHEAD = ("trace.overhead_s", "s", "lower")

UNITS = {**{k: v[0] for k, v in PER_LAYER.items()}, **{k: v[0] for k, v in ENDPOINT.items()},
         OVERHEAD[0]: OVERHEAD[1]}


def layer_metrics(span_paths: list[Path], endpoint_stats: dict,
                  overhead_s: float) -> dict[str, float | None]:
    spans = Spans(span_paths)
    out: dict[str, float | None] = {}
    for name, (_, _, (needs, compute)) in PER_LAYER.items():
        present = all(n.endswith("*") or n in spans.wrapped for n in needs)
        out[name] = compute(spans) if present else None
    for name, (_, _, compute) in ENDPOINT.items():
        out[name] = compute(endpoint_stats)
    out[OVERHEAD[0]] = overhead_s
    return out

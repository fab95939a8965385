"""The benchmark's own checks: the oracle accepts a real loop's outputs and
rejects corrupted ones; BENCHMARK.json matches what run.py reports.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = HERE.parent
TINY = Workload("tiny", queries=4, docs=12, k=2, per_side=10)
NO_LATENCY = {"chat_base_ms": 0, "chat_spread_ms": 0, "embed_base_ms": 0, "embed_per_input_ms": 0}


@pytest.fixture(scope="module")
def loop_out(tmp_path_factory):
    """A real loop of the tiny workload, the same loop re-run on its cache, and
    the bench that ran them."""
    bench = run.Bench(ROOT, TINY, seed=3, work=tmp_path_factory.mktemp("work"),
                      latency_ms=NO_LATENCY)
    try:
        bench.set_up(0)
        loop = bench.loop("loop", bench.work / "cache")
        rerun = bench.loop("rerun", bench.work / "cache")
    finally:
        bench.endpoint.stop()
    return bench, loop, bench.work / "loop", rerun


def _copy(loop_out, tmp_path) -> Path:
    out = tmp_path / "out"
    shutil.copytree(loop_out[2], out)
    return out


def _check(loop_out, out: Path) -> list[str]:
    return oracle.check_loop(out, loop_out[0].spec, oracle.ReferenceRanker())


def test_real_loop_passes(loop_out):
    _, loop, out, _ = loop_out
    assert loop.problems == []
    assert loop.failed_pairs == 1 == len(oracle.read_jsonl(out / "errors.jsonl"))
    assert loop.stats["injected_malformed"] == 1


def test_rerun_on_a_filled_cache_sends_no_requests(loop_out):
    rerun = loop_out[3]
    assert rerun.problems == []
    assert rerun.stats["requests"] == 0


def test_corrupted_annotation_fails(loop_out, tmp_path):
    out = _copy(loop_out, tmp_path)
    rows = oracle.read_jsonl(out / "annotations.jsonl")
    rows[0]["guess"] = "No" if rows[0]["guess"] == "Yes" else "Yes"
    (out / "annotations.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert any("differ from the endpoint" in p for p in _check(loop_out, out))


def test_dropped_annotation_fails(loop_out, tmp_path):
    out = _copy(loop_out, tmp_path)
    lines = (out / "annotations.jsonl").read_text().splitlines(keepends=True)
    (out / "annotations.jsonl").write_text("".join(lines[1:]))
    assert any("exactly once" in p for p in _check(loop_out, out))


def test_corrupted_ranking_fails(loop_out, tmp_path):
    out = _copy(loop_out, tmp_path)
    rows = oracle.read_jsonl(out / "rankings.jsonl")
    entries = rows[0]["entries"]
    entries[0][0], entries[-1][0] = entries[-1][0], entries[0][0]
    (out / "rankings.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert any("ranking of" in p for p in _check(loop_out, out))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


def test_absent_function_is_reported_not_fatal(tmp_path):
    spans = tmp_path / "rank.spans.jsonl"
    spans.write_text(json.dumps({"wrapped": ["retrieval.rank_documents"]}) + "\n"
                     + json.dumps({"id": 0, "name": "retrieval.rank_documents", "parent": None,
                                   "thread": 1, "ok": True, "start": 0.0, "end": 1.0}) + "\n")
    stats = dict.fromkeys(("chat_requests", "embed_requests", "embed_inputs", "request_bytes",
                           "response_bytes", "peak_in_flight", "injected_429",
                           "injected_malformed"), 0)
    metrics = layers.layer_metrics([spans], stats, 0.0)
    assert metrics["retrieval.score_s"] is None
    assert metrics["retrieval.rank_calls"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rank-heavy",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

import csv
import io
import json
import logging
import math
import os
import re
import sqlite3
import stat
import subprocess
import sys
import threading
import time
from contextlib import closing
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import mockserver
from conftest import (CHAT_RULES, ENTRY, SRC, answer_200, jsonl_rows, make_definition,
                      one_json_error, run_entry)
from relanno import corpus as corpus_mod
from relanno import gateway as gateway_mod
from relanno import lazy_import
from relanno.annotator import Annotation
from relanno.cli import JsonLogFormatter, _check_flag, main
from relanno.config import BOUNDS
from relanno.retrieval import Ranking, save_rankings


@pytest.fixture
def workspace(tmp_path, mock_server, fixture_queries, fixture_chunks,
              fixture_gold):
    mock_server.reset_counters()
    corpus_mod.write_jsonl(tmp_path / "queries.jsonl", fixture_queries)
    corpus_mod.write_jsonl(tmp_path / "documents.jsonl", fixture_chunks)
    corpus_mod.write_jsonl(tmp_path / "gold.jsonl", (
        {"query_id": g.query_id, "doc_id": g.doc_id, "grade": g.grade,
         "binary": g.binary, "uncertain": g.uncertain}
        for g in fixture_gold))
    config = tmp_path / "relanno.conf"
    config.write_text(
        f"base_url={mock_server.base_url}\n"
        f"cache_dir={tmp_path / 'cache'}\n"
        "backoff_base=0.01\n",
        encoding="utf-8")
    return tmp_path


def run_cli(workspace, *args, expect_exit=0):
    runner = CliRunner()
    result = runner.invoke(main, ["--config", str(workspace / "relanno.conf"),
                                  *args])
    assert result.exit_code == expect_exit, result.output
    return result


def run_fresh(code, *args):
    """The stdout lines of `python -c code args...` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout.splitlines()


def test_cli_import_loads_no_scipy():
    # scipy.stats alone took over a second to import; every command process paid it.
    loaded = run_fresh("import sys, relanno.cli; "
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded == ["[]"]


# Runs `relanno ARGS...`, then prints its exit code and which of numpy and
# requests it executed. Each is checked by a submodule that only a real load
# imports: the lazy placeholder of the package itself is always in sys.modules.
PROBE = """\
import json, sys
from relanno.cli import main
try:
    main(sys.argv[1:], prog_name="relanno")
except SystemExit as exc:
    code = exc.code
markers = {"numpy": ("numpy._core", "numpy.core"), "requests": ("requests.adapters",)}
print(json.dumps({"exit": code, "loaded": sorted(
    name for name, subs in markers.items() if any(s in sys.modules for s in subs))}))
"""


def loop_command(workspace, name):
    """The arguments of one loop command on the fixtures, its inputs written first."""
    w = workspace
    queries, documents, gold = (str(w / n) for n in
                                ("queries.jsonl", "documents.jsonl", "gold.jsonl"))
    if name == "ingest":
        return ["ingest", "--queries", queries, "--documents", documents, "--gold", gold,
                "--out-dir", str(w / "corpus"), "--min-tokens", "1"]
    if name == "rank":
        return ["rank", "--queries", queries, "--documents", documents,
                "--out", str(w / "rankings.jsonl")]
    if name == "sample":
        save_rankings(w / "rankings.jsonl", [Ranking("q1", [("d1", 0.9), ("d2", 0.1)])])
        return ["sample", "--rankings", str(w / "rankings.jsonl"),
                "--out", str(w / "pairs.jsonl"), "--k", "1", "--per-side", "1"]
    if name == "define":
        return ["define", "--queries", queries, "--out", str(w / "defined.jsonl")]
    if name == "annotate":
        return ["annotate", "--pairs", str(write_all_pairs(w)), "--queries", queries,
                "--documents", documents, "--out", str(w / "annotations.jsonl"),
                "--calibration", "ask", "--parallelism", "8"]
    annotations, _ = annotate_all(w)
    if name == "evaluate":
        return ["evaluate", "--annotations", str(annotations), "--gold", gold,
                "--out", str(w / "report.json")]
    if name == "audit":
        return ["audit", "--annotations", str(annotations), "--original", gold,
                "--out", str(w / "disagreements.jsonl")]
    (w / "split.json").write_text(json.dumps({
        "train_queries": ["q1", "q2"], "test_queries": [],
        "train_reports": ["r1", "r2"], "test_reports": [], "seed": 40}), encoding="utf-8")
    return ["distill", "--annotations", str(annotations), "--queries", queries,
            "--documents", documents, "--split", str(w / "split.json"),
            "--out", str(w / "train.jsonl"), "--manifest", str(w / "manifest.json")]


@pytest.mark.parametrize("name,loaded", [
    ("ingest", []), ("rank", ["numpy", "requests"]), ("sample", []),
    ("define", ["requests"]), ("annotate", ["requests"]), ("evaluate", ["numpy"]),
    ("audit", []), ("distill", []),
])
def test_command_executes_only_the_heavy_packages_it_uses(workspace, name, loaded):
    *output, probe = run_fresh(PROBE, "--config", str(workspace / "relanno.conf"),
                               *loop_command(workspace, name))
    assert json.loads(probe) == {"exit": 0, "loaded": loaded}, output
    if name == "annotate":  # 8 worker threads in a process that loaded nothing yet
        assert json.loads(output[-1])["annotations"] == 8


def test_gateway_loads_requests_on_the_thread_that_builds_it():
    # A lazy module's first load is not thread-safe on every supported Python,
    # so it must not happen first inside annotate's worker threads.
    assert run_fresh("import sys\n"
                     "from relanno.config import Config\n"
                     "from relanno.gateway import LLMGateway\n"
                     "print('requests.adapters' in sys.modules)\n"
                     "LLMGateway(Config(base_url='http://127.0.0.1:9'))\n"
                     "print('requests.adapters' in sys.modules)") == ["False", "True"]


# Embeds two texts on a cold gateway whose one request is held open for 0.5 s,
# and prints whether numpy was loaded before the request and when it returned.
HELD_REQUEST = """\
import sys, time
from relanno.config import Config
from relanno.gateway import LLMGateway
gateway = LLMGateway(Config(base_url=sys.argv[1]))
post = gateway._post

def held(path, body, **kwargs):
    time.sleep(0.5)
    answer = post(path, body, **kwargs)
    print("numpy._core" in sys.modules)
    return answer

gateway._post = held
print("numpy._core" in sys.modules)
print(gateway.embed(["alpha", "beta"]).shape)
"""


def test_numpy_loads_while_the_first_embedding_request_is_in_flight(mock_server):
    assert run_fresh(HELD_REQUEST, mock_server.base_url) == [
        "False", "True", f"(2, {mockserver.EMBEDDING_DIM})"]


def test_lazy_import_of_a_missing_module_fails_at_once():
    with pytest.raises(ModuleNotFoundError, match="no_such_pkg"):
        lazy_import("no_such_pkg")
    assert "no_such_pkg" not in sys.modules


def test_lazy_import_returns_an_imported_module_as_it_is():
    assert lazy_import("json") is json


def test_group_and_subcommand_help():
    runner = CliRunner()
    assert runner.invoke(main, ["--help"]).exit_code == 0
    for name in ("ingest", "rank", "sample", "define", "annotate", "distill",
                 "evaluate", "audit", "sweep", "benchmark"):
        result = runner.invoke(main, [name, "--help"])
        assert result.exit_code == 0, name


class TestIngest:
    def test_writes_corpus_and_split(self, workspace):
        out_dir = workspace / "ingested"
        result = run_cli(workspace, "ingest",
                         "--queries", str(workspace / "queries.jsonl"),
                         "--documents", str(workspace / "documents.jsonl"),
                         "--gold", str(workspace / "gold.jsonl"),
                         "--out-dir", str(out_dir),
                         "--min-tokens", "1",
                         "--query-test-fraction", "0.5",
                         "--report-test-fraction", "0.5")
        summary = json.loads(result.output)
        assert summary["queries"] == 2
        assert summary["documents"] == 4
        split = corpus_mod.read_json(out_dir / "split.json", corpus_mod.Split)
        assert split.train_queries.isdisjoint(split.test_queries)
        assert split.train_reports.isdisjoint(split.test_reports)

    def test_validation_failure_exits_nonzero(self, workspace, fixture_queries):
        corpus_mod.write_jsonl(workspace / "dup.jsonl",
                              fixture_queries + fixture_queries[:1])
        result = run_cli(workspace, "ingest",
                         "--queries", str(workspace / "dup.jsonl"),
                         "--documents", str(workspace / "documents.jsonl"),
                         "--out-dir", str(workspace / "ingested"),
                         "--min-tokens", "1",
                         expect_exit=1)
        assert_one_line_json_error(result, "dup.jsonl:3: field 'id': \"q1\" repeats line 1")

    def test_stops_at_the_first_bad_row(self, workspace):
        # Two bad rows: a blank text on line 2, a repeated id on line 3.
        (workspace / "bad.jsonl").write_text("".join(json.dumps(row) + "\n" for row in [
            {"id": "d1", "report_id": "r1", "text": "One."},
            {"id": "d2", "report_id": "r1", "text": " "},
            {"id": "d1", "report_id": "r1", "text": "Three."}]), encoding="utf-8")
        message = one_json_error(
            "ingest", "--queries", workspace / "queries.jsonl",
            "--documents", workspace / "bad.jsonl", "--out-dir", workspace / "ingested")
        assert message.startswith(f"{workspace / 'bad.jsonl'}:2: field 'text': "), message
        assert not (workspace / "ingested").exists()

    def test_gold_on_a_merged_chunk_is_a_warning(self, workspace, caplog):
        # Eight one-sentence chunks of one report merge into one at the
        # default --min-tokens; gold names each of them as given.
        chunks = [corpus_mod.DocumentChunk(id=f"d{i}", report_id="r1" if i <= 8 else "r2",
                                           text=f"Sentence number {i} of the report.")
                  for i in range(1, 10)]
        corpus_mod.write_jsonl(workspace / "short.jsonl", chunks)
        corpus_mod.write_jsonl(workspace / "short_gold.jsonl", [
            corpus_mod.GoldLabel("q1", c.id, grade=0.0, binary="irrelevant")
            for c in chunks[:8]])
        result = run_cli(workspace, "ingest",
                         "--queries", str(workspace / "queries.jsonl"),
                         "--documents", str(workspace / "short.jsonl"),
                         "--gold", str(workspace / "short_gold.jsonl"),
                         "--out-dir", str(workspace / "ingested"))
        assert json.loads(result.output)["documents"] == 2
        [warning] = [r.getMessage() for r in caplog.records if "gold" in r.getMessage()]
        assert warning == ("gold labels on chunks merged into a neighbour: " + ", ".join(
            f"(q1,d{i}) -> d1" for i in range(2, 9)))


def rank_fixtures(workspace, expect_exit=0):
    return run_cli(workspace, "rank",
                   "--queries", str(workspace / "queries.jsonl"),
                   "--documents", str(workspace / "documents.jsonl"),
                   "--out", str(workspace / "rankings.jsonl"),
                   expect_exit=expect_exit)


def test_rank_writes_one_ranking_per_query(workspace):
    first = json.loads(rank_fixtures(workspace).output)
    rankings = jsonl_rows(workspace / "rankings.jsonl")
    assert [r["query_id"] for r in rankings] == ["q1", "q2"]
    assert all(len(r["entries"]) == 4 for r in rankings)
    # 2 queries + 4 chunks in one embedding request; a re-run is all cache.
    assert (first["embedded_texts"], first["network_calls"], first["retries"]) == (6, 1, 0)
    second = json.loads(rank_fixtures(workspace).output)
    assert (second["embedded_texts"], second["network_calls"]) == (0, 0)


def test_endpoint_command_summaries_print_the_gateway_counts(workspace):
    counts = ["embedded_texts", "network_calls", "retries", "backoff_s"]
    ranked = json.loads(rank_fixtures(workspace).output)
    assert list(ranked) == ["rankings", *counts, "out"]
    assert ranked["backoff_s"] == 0.0
    defined = json.loads(run_cli(workspace, "define", "--queries",
                                 str(workspace / "queries.jsonl"),
                                 "--out", str(workspace / "defined.jsonl")).output)
    assert list(defined) == ["queries", *counts, "out"]
    assert (defined["embedded_texts"], defined["network_calls"]) == (0, 2)
    _, annotated = annotate_all(workspace)
    assert list(annotated) == ["annotations", "errors", *counts, "out"]


def assert_one_line_json_error(result, *fragments):
    """Exit 1 and exactly one line on stderr: a JSON error holding each
    fragment, and not the quoted repr that `str()` gives a KeyError.

    `result` comes from `CliRunner`, in this process, where pytest's log
    capture already holds the root logger: `main` installs no JSON handler,
    so the command's log lines never reach `result.stderr`. To see them, run
    the command as its own process (`conftest.one_json_error`)."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # not an escaped traceback
    [line] = result.stderr.strip().splitlines()
    message = json.loads(line)["error"]
    assert not message.startswith(("'", '"')), message
    for fragment in fragments:
        assert fragment in message, message


class TestRankFailures:
    def test_empty_corpus(self, workspace):
        (workspace / "documents.jsonl").write_text("", encoding="utf-8")
        assert_one_line_json_error(rank_fixtures(workspace, expect_exit=1),
                                   "at least one chunk")

    @pytest.mark.parametrize("kind, name, row", [
        ("document", "documents.jsonl", {"id": "d9", "report_id": "r1", "text": " \n"}),
        ("query", "queries.jsonl", {"id": "q9", "text": ""})])
    def test_empty_text_is_named_before_any_request(self, workspace, mock_server,
                                                    kind, name, row):
        with open(workspace / name, "a", encoding="utf-8") as f:
            f.write(json.dumps(row) + "\n")
        line = {"document": 5, "query": 3}[kind]  # after the 4 chunks or the 2 queries
        assert_one_line_json_error(rank_fixtures(workspace, expect_exit=1),
                                   f"{name}:{line}: field 'text': expected a string that "
                                   f"is not blank, got {json.dumps(row['text'])}")
        assert mock_server.request_count == 0
        assert not (workspace / "rankings.jsonl").exists()

    def test_repeated_doc_id_is_refused_before_any_request(self, workspace, mock_server):
        with open(workspace / "documents.jsonl", "a", encoding="utf-8") as f:
            f.write(json.dumps({"id": "d2", "report_id": "r2", "text": "Again."}) + "\n")
        message = one_json_error(
            "--config", workspace / "relanno.conf", "rank",
            "--queries", workspace / "queries.jsonl", "--documents",
            workspace / "documents.jsonl", "--out", workspace / "rankings.jsonl")
        assert message == f"{workspace / 'documents.jsonl'}:5: field 'id': \"d2\" repeats line 2"
        assert mock_server.request_count == 0
        assert not (workspace / "rankings.jsonl").exists()

    def test_zero_norm_vector(self, workspace, monkeypatch):
        monkeypatch.setattr(mockserver, "hash_embedding",
                            lambda text: [0.0] * mockserver.EMBEDDING_DIM)
        assert_one_line_json_error(rank_fixtures(workspace, expect_exit=1),
                                   "zero vector")

    def test_dimensions_disagree_across_batches(self, workspace, monkeypatch):
        with open(workspace / "relanno.conf", "a", encoding="utf-8") as f:
            f.write("embed_batch_size=1\n")
        monkeypatch.setattr(mockserver, "hash_embedding",
                            lambda text: [1.0] * (16 if "GOVDOC" in text else 32))
        assert_one_line_json_error(rank_fixtures(workspace, expect_exit=1),
                                   "inconsistent embedding dimensions")

    @pytest.mark.parametrize("value, problem", [
        (None, "other than a list of numbers"), ("x", "other than a list of numbers"),
        (True, "other than a list of numbers"), (float("nan"), "not finite")])
    def test_malformed_vector(self, workspace, monkeypatch, value, problem):
        monkeypatch.setattr(mockserver, "hash_embedding", lambda text: (
            [1.0, value] if "GOVDOC" in text else [1.0, 2.0]))
        assert_one_line_json_error(rank_fixtures(workspace, expect_exit=1),
                                   "input 4 of 6", problem)
        assert not (workspace / "rankings.jsonl").exists()

    def test_answer_with_a_repeated_index(self, workspace, monkeypatch):
        body = json.dumps({"data": [{"index": 0, "embedding": [1.0, 2.0]}] * 6}).encode()
        monkeypatch.setattr(gateway_mod.requests.Session, "post",
                            lambda *args, **kwargs: answer_200(body))
        assert_one_line_json_error(rank_fixtures(workspace, expect_exit=1),
                                   "indices are not 0 to 5, each once")
        assert not (workspace / "rankings.jsonl").exists()


def test_rank_stopped_by_a_failing_batch_resumes_from_the_cache(
        tmp_path, fixture_queries, monkeypatch):
    texts = {f"d{i:02}": f"passage {i} about topic{i % 3}" for i in range(10)}
    corpus_mod.write_jsonl(tmp_path / "queries.jsonl", fixture_queries)
    corpus_mod.write_jsonl(tmp_path / "documents.jsonl", [
        corpus_mod.DocumentChunk(id=doc_id, report_id="r1", text=text)
        for doc_id, text in texts.items()])
    # 2 queries + 10 chunks in batches of 3: n = 4 requests. The chunk texts
    # follow the queries in doc_id order, so d04 opens batch k + 1 = 3.
    served = mockserver.hash_embedding
    monkeypatch.setattr(mockserver, "hash_embedding", lambda text: (
        [None] * mockserver.EMBEDDING_DIM if text == texts["d04"] else served(text)))

    def rank(server, name, expect_exit=0):
        (tmp_path / "relanno.conf").write_text(
            f"base_url={server.base_url}\ncache_dir={tmp_path / name}\n"
            "embed_batch_size=3\n", encoding="utf-8")
        return run_cli(tmp_path, "rank", "--queries", str(tmp_path / "queries.jsonl"),
                       "--documents", str(tmp_path / "documents.jsonl"),
                       "--out", str(tmp_path / f"{name}.jsonl"), expect_exit=expect_exit)

    with mockserver.MockLLMServer(max_embed_inputs=3) as server:
        assert_one_line_json_error(rank(server, "stopped", expect_exit=1), "input 0 of 3")
        assert server.request_count == 3
        monkeypatch.undo()
        server.reset_counters()
        resumed = json.loads(rank(server, "stopped").output)
        assert server.request_count == 4 - 2
        assert (resumed["embedded_texts"], resumed["network_calls"]) == (6, 2)
        rank(server, "clean")
    assert (tmp_path / "stopped.jsonl").read_bytes() == (tmp_path / "clean.jsonl").read_bytes()


def test_log_line_with_quotes_is_json():
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    handler.setFormatter(JsonLogFormatter())
    logger = logging.getLogger("relanno.test_log_format")
    logger.addHandler(handler)
    try:
        logger.warning('chunk "%s" merged into %s', "d1", 'd"2\\')
    finally:
        logger.removeHandler(handler)
    assert json.loads(stream.getvalue()) == {
        "level": "WARNING", "logger": "relanno.test_log_format",
        "msg": 'chunk "d1" merged into d"2\\'}


def test_cli_logs_under_one_name_however_it_is_run(workspace):
    # The fixture's chunks are short of the default --min-tokens: corpus warns
    # of each merged chunk that stays short, and ingest of the gold moved.
    args = ["ingest", "--queries", workspace / "queries.jsonl",
            "--documents", workspace / "documents.jsonl", "--gold", workspace / "gold.jsonl",
            "--out-dir", workspace / "ingested"]
    as_script = run_entry(*args)
    as_module = subprocess.run([sys.executable, "-m", "relanno.cli", *map(str, args)],
                               env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                               text=True, timeout=120)
    loggers = []
    for result in (as_script, as_module):
        assert result.returncode == 0, result.stderr
        loggers.append({json.loads(line)["logger"] for line in result.stderr.splitlines()})
    assert loggers == [{"relanno.corpus", "relanno.cli"}] * 2


def test_sample_balances_pairs(workspace):
    rankings = workspace / "rankings.jsonl"
    save_rankings(rankings, [Ranking(
        query_id="q1", entries=[(f"d{i}", 1.0 - i / 10) for i in range(10)])])
    out = workspace / "pairs.jsonl"
    result = run_cli(workspace, "sample", "--rankings", str(rankings),
                     "--out", str(out), "--k", "2", "--per-side", "2",
                     "--seed", "7")
    assert json.loads(result.output)["pairs"] == 4
    pairs = jsonl_rows(out)
    assert sum(p["retriever_rank"] <= 2 for p in pairs) == 2


def write_all_pairs(workspace):
    path = workspace / "pairs.jsonl"
    corpus_mod.write_jsonl(path, (
        {"query_id": qid, "doc_id": did}
        for qid in ("q1", "q2") for did in ("d1", "d2", "d3", "d4")))
    return path


def annotate_all(workspace, out_name="annotations.jsonl"):
    pairs = write_all_pairs(workspace)
    out = workspace / out_name
    result = run_cli(workspace, "annotate", "--pairs", str(pairs),
                     "--queries", str(workspace / "queries.jsonl"),
                     "--documents", str(workspace / "documents.jsonl"),
                     "--out", str(out), "--calibration", "ask")
    return out, json.loads(result.output)


class TestAnnotate:
    def test_annotates_every_pair(self, workspace):
        out, summary = annotate_all(workspace)
        assert summary["annotations"] == 8
        assert summary["errors"] == 0
        rows = jsonl_rows(out)
        by_key = {(r["query_id"], r["doc_id"]): r for r in rows}
        assert by_key[("q1", "d1")]["guess"] == "Yes"
        assert by_key[("q1", "d3")]["guess"] == "No"
        assert by_key[("q1", "d3")]["relevance_score"] == pytest.approx(0.05)

    def test_second_run_fully_cached(self, workspace):
        first_out, first = annotate_all(workspace, "first.jsonl")
        second_out, second = annotate_all(workspace, "second.jsonl")
        assert first["network_calls"] > 0
        assert second["network_calls"] == 0
        assert first_out.read_bytes() == second_out.read_bytes()

    def test_unknown_pair_id_fails(self, workspace):
        corpus_mod.write_jsonl(workspace / "bad_pairs.jsonl",
                               [{"query_id": "q1", "doc_id": "ghost"}])
        result = run_cli(workspace, "annotate",
                         "--pairs", str(workspace / "bad_pairs.jsonl"),
                         "--queries", str(workspace / "queries.jsonl"),
                         "--documents", str(workspace / "documents.jsonl"),
                         "--out", str(workspace / "out.jsonl"),
                         expect_exit=1)
        assert "ghost" in result.output


def test_prob_variant_ask_answer_is_p_helpful(workspace):
    """point-prob-d asks for P(helpful), so GOVDOC's "No" at 0.95 on (q1,d3) is a
    relevance score of 0.95 and a 0.05 confidence that the guess is right."""
    corpus_mod.write_jsonl(workspace / "pairs.jsonl", [{"query_id": "q1", "doc_id": "d3"}])
    out = workspace / "annotations.jsonl"
    run_cli(workspace, "annotate", "--pairs", str(workspace / "pairs.jsonl"),
            "--queries", str(workspace / "queries.jsonl"),
            "--documents", str(workspace / "documents.jsonl"),
            "--out", str(out), "--variant", "point-prob-d", "--calibration", "ask")
    [row] = jsonl_rows(out)
    assert (row["guess"], row["confidence_ask"], row["relevance_score"]) == ("No", 0.95, 0.95)
    # Against an original "relevant" label the No is a disagreement, binned by
    # the confidence that it is right.
    original = write_lines(workspace / "original.jsonl", json.dumps(
        {"query_id": "q1", "doc_id": "d3", "grade": 1.0, "binary": "relevant"}))
    run_cli(workspace, "audit", "--annotations", str(out), "--original", original,
            "--out", str(workspace / "d.jsonl"), "--per-bin", "1")
    [disagreement] = jsonl_rows(workspace / "d.jsonl")
    assert disagreement["confidence"] == pytest.approx(0.05)
    assert disagreement["bin"] == "lt90"


def test_files_beside_the_cache_are_neither_read_nor_changed(workspace):
    cache = workspace / "cache"
    cache.mkdir()
    files = {"report.json": b'{"avg": 80.0}\n',
             "split.json": b'{"train_queries": ["q1"], "test_queries": []}\n',
             "x.json": b'{"embedding": [0.1, '}
    for name, blob in files.items():
        (cache / name).write_bytes(blob)
    rank_fixtures(workspace)
    annotate_all(workspace)
    with closing(sqlite3.connect(cache / "responses.sqlite3")) as db:
        keys = [key for (key,) in db.execute("SELECT key FROM responses")]
    assert len(keys) == 6 + 8  # the texts rank embedded and the pairs annotated
    assert all(re.fullmatch("[0-9a-f]{64}", key) for key in keys)
    assert {name: (cache / name).read_bytes() for name in files} == files


class TestEvaluate:
    def test_report_values(self, workspace):
        annotations, _ = annotate_all(workspace)
        out = workspace / "report.json"
        run_cli(workspace, "evaluate", "--annotations", str(annotations),
                "--gold", str(workspace / "gold.jsonl"), "--out", str(out))
        report = json.loads(out.read_text(encoding="utf-8"))
        # guesses: six Yes, two No; TP=4, FP=2, FN=0 against binarized gold
        assert report["raw"]["f1"] == pytest.approx(0.8)
        # the two uncertain gold pairs carry the lowest confidence (0.55),
        # so uncertainty ranks them first
        assert report["unc"] == pytest.approx(100.0)
        for dimension in ("unc", "bin", "cal", "info", "avg"):
            assert 0.0 <= report[dimension] <= 100.0

    def test_deterministic_report_and_proxy(self, workspace):
        annotations, _ = annotate_all(workspace)
        outputs = []
        for tag in ("a", "b"):
            out = workspace / f"report_{tag}.json"
            proxy = workspace / f"proxy_{tag}.csv"
            run_cli(workspace, "evaluate", "--annotations", str(annotations),
                    "--gold", str(workspace / "gold.jsonl"),
                    "--out", str(out), "--proxy-out", str(proxy))
            outputs.append((out.read_bytes(), proxy.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_unannotated_gold_rows_are_not_mapped(self, workspace):
        # A gold row without `binary` fails three_way only if a pair is annotated.
        annotations, _ = annotate_all(workspace)
        gold, out = workspace / "gold.jsonl", workspace / "report.json"

        def report():
            run_cli(workspace, "evaluate", "--annotations", str(annotations),
                    "--gold", str(gold), "--out", str(out))
            return out.read_bytes()

        before = report()
        with gold.open("a", encoding="utf-8") as f:
            f.write(json.dumps({"query_id": "q9", "doc_id": "d9", "grade": 0.7}) + "\n")
        assert report() == before

    def test_no_overlap_fails(self, workspace):
        corpus_mod.write_jsonl(workspace / "other.jsonl", [
            {"query_id": "q9", "doc_id": "d9", "guess": "Yes",
             "relevance_score": 0.9, "confidence_ask": 0.9}])
        run_cli(workspace, "evaluate",
                "--annotations", str(workspace / "other.jsonl"),
                "--gold", str(workspace / "gold.jsonl"),
                "--out", str(workspace / "report.json"), expect_exit=1)

    def evaluate(self, workspace, annotations, gold):
        out = workspace / "report.json"
        result = run_cli(workspace, "evaluate", "--annotations", str(annotations),
                         "--gold", str(gold), "--out", str(out))
        report = json.loads(out.read_text(encoding="utf-8"))
        assert json.loads(result.stdout) == report
        return report

    def test_all_correct_leaves_auroc_and_calibration_null(self, workspace):
        annotations = workspace / "two.jsonl"
        corpus_mod.write_jsonl(annotations, [
            {"query_id": "q1", "doc_id": "d1", "guess": "Yes",
             "relevance_score": 0.9, "confidence_ask": 0.9},
            {"query_id": "q1", "doc_id": "d4", "guess": "Yes",
             "relevance_score": 0.6, "confidence_ask": 0.6}])
        report = self.evaluate(workspace, annotations, workspace / "gold.jsonl")
        assert report["undefined"] == {"auroc": "auroc needs both correct and incorrect items"}
        assert (report["raw"]["auroc"], report["cal"], report["avg"]) == (None, None, None)
        assert report["raw"]["f1"] == 1.0
        for dimension in ("unc", "bin", "info"):
            assert 0.0 <= report[dimension] <= 100.0

    def test_no_uncertain_gold_row_leaves_uncertainty_null(self, workspace):
        annotations, _ = annotate_all(workspace)
        gold = workspace / "certain.jsonl"
        corpus_mod.write_jsonl(gold, (
            {**row, "uncertain": False} for row in
            jsonl_rows(workspace / "gold.jsonl")))
        report = self.evaluate(workspace, annotations, gold)
        assert report["undefined"] == {"ap": "average precision needs at least one positive"}
        assert (report["raw"]["ap"], report["unc"], report["avg"]) == (None, None, None)
        for dimension in ("bin", "cal", "info"):
            assert 0.0 <= report[dimension] <= 100.0


class TestDistillCommand:
    def setup_corpus(self, workspace, test_queries):
        annotations, _ = annotate_all(workspace)
        split = {"train_queries": sorted({"q1", "q2"} - set(test_queries)),
                 "test_queries": sorted(test_queries),
                 "train_reports": ["r1", "r2"], "test_reports": [], "seed": 40}
        split_path = workspace / "split.json"
        split_path.write_text(json.dumps(split), encoding="utf-8")
        return annotations, split_path

    def distill(self, workspace, annotations, split_path, expect_exit=0):
        return run_cli(workspace, "distill", "--annotations", str(annotations),
                       "--queries", str(workspace / "queries.jsonl"),
                       "--documents", str(workspace / "documents.jsonl"),
                       "--split", str(split_path), "--out", str(workspace / "train.jsonl"),
                       "--manifest", str(workspace / "manifest.json"),
                       expect_exit=expect_exit)

    def test_export_with_manifest(self, workspace):
        annotations, split_path = self.setup_corpus(workspace, test_queries=[])
        result = self.distill(workspace, annotations, split_path)
        assert json.loads(result.output)["records"] == 8
        payload = json.loads((workspace / "manifest.json").read_text(encoding="utf-8"))
        assert payload["count"] == 8
        assert "balance" in payload

    def test_manifest_names_the_annotations_model(self, workspace, monkeypatch):
        annotations, split_path = self.setup_corpus(workspace, test_queries=[])
        monkeypatch.setenv("RELANNO_CHAT_MODEL", "other-model")
        self.distill(workspace, annotations, split_path)
        [model] = {a.model for a in corpus_mod.read_jsonl(annotations, Annotation)}
        payload = json.loads((workspace / "manifest.json").read_text(encoding="utf-8"))
        assert payload["teacher_model"] == model != "other-model"

    def test_annotations_from_two_models_exit_1(self, workspace):
        annotations, split_path = self.setup_corpus(workspace, test_queries=[])
        rows = corpus_mod.read_jsonl(annotations, Annotation)
        rows[-1].model = "other-model"
        corpus_mod.write_jsonl(annotations, rows)
        result = self.distill(workspace, annotations, split_path, expect_exit=1)
        assert_one_line_json_error(result, "more than one teacher model",
                                   f"{rows[0].model}, other-model")

    def test_leakage_exits_nonzero(self, workspace):
        annotations, split_path = self.setup_corpus(workspace,
                                                    test_queries=["q2"])
        result = self.distill(workspace, annotations, split_path, expect_exit=1)
        assert "q2" in result.output


class TestVariantErrors:
    """A variant label the pointwise template does not render fails with a
    one-line JSON error, whether it comes from the flag or the config."""

    LABELS = ["bogus", "point-foo", "list-d"]

    def variant_args(self, workspace, label, source):
        if source == "flag":
            return ["--variant", label]
        with open(workspace / "relanno.conf", "a", encoding="utf-8") as f:
            f.write(f"variant={label}\n")
        return []

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("label", LABELS)
    def test_annotate(self, workspace, label, source):
        args = self.variant_args(workspace, label, source)
        result = run_cli(workspace, "annotate",
                         "--pairs", str(write_all_pairs(workspace)),
                         "--queries", str(workspace / "queries.jsonl"),
                         "--documents", str(workspace / "documents.jsonl"),
                         "--out", str(workspace / "out.jsonl"), *args,
                         expect_exit=1)
        assert_one_line_json_error(result, f"unknown variant label: {label!r}")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("label", LABELS)
    def test_distill(self, workspace, label, source):
        annotations, _ = annotate_all(workspace)
        (workspace / "split.json").write_text(json.dumps({
            "train_queries": ["q1", "q2"], "test_queries": [],
            "train_reports": ["r1", "r2"], "test_reports": [], "seed": 40}),
            encoding="utf-8")
        args = self.variant_args(workspace, label, source)
        result = run_cli(workspace, "distill", "--annotations", str(annotations),
                         "--queries", str(workspace / "queries.jsonl"),
                         "--documents", str(workspace / "documents.jsonl"),
                         "--split", str(workspace / "split.json"),
                         "--out", str(workspace / "train.jsonl"),
                         "--manifest", str(workspace / "manifest.json"), *args,
                         expect_exit=1)
        assert_one_line_json_error(result, f"unknown variant label: {label!r}")
        assert not (workspace / "manifest.json").exists()


def test_sweep_csv(workspace):
    annotations, _ = annotate_all(workspace)
    out = workspace / "sweep.csv"
    run_cli(workspace, "sweep", "--annotations", str(annotations),
            "--gold", str(workspace / "gold.jsonl"), "--out", str(out),
            "--steps", "5")
    with open(out, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 5
    assert float(rows[0]["theta"]) == 0.0
    assert float(rows[0]["recall"]) == 1.0


def test_audit_writes_disagreements_and_table(workspace):
    annotations, _ = annotate_all(workspace)
    out = workspace / "disagreements.jsonl"
    run_cli(workspace, "audit", "--annotations", str(annotations),
            "--original", str(workspace / "gold.jsonl"),
            "--out", str(out), "--per-bin", "5", "--seed", "3")
    sampled = jsonl_rows(out)
    # model says Yes on (q1,d2) and (q2,d1) where gold says irrelevant
    assert {(d["query_id"], d["doc_id"]) for d in sampled} == {
        ("q1", "d2"), ("q2", "d1")}

    verdicts = workspace / "verdicts.jsonl"
    corpus_mod.write_jsonl(verdicts, (
        {"query_id": d["query_id"], "doc_id": d["doc_id"], "verdict": "model"}
        for d in sampled))
    table_out = workspace / "table.json"
    run_cli(workspace, "audit", "--annotations", str(annotations),
            "--original", str(workspace / "gold.jsonl"),
            "--out", str(out), "--per-bin", "5", "--seed", "3",
            "--verdicts", str(verdicts), "--table-out", str(table_out))
    table = json.loads(table_out.read_text(encoding="utf-8"))
    assert table["low_conf"]["all"]["count"] == 2
    assert table["low_conf"]["all"]["accuracy"] == pytest.approx(100.0)


def test_audit_table_out_without_verdicts_is_refused_before_any_input_is_read(workspace):
    """The table is written only for verdicts: a --table-out with none would
    write nothing and say nothing."""
    annotations = workspace / "annotations.jsonl"
    annotations.write_text("not JSON\n", encoding="utf-8")
    out, table = workspace / "disagreements.jsonl", workspace / "table.json"
    result = run_cli(workspace, "audit", "--annotations", str(annotations),
                     "--original", str(workspace / "gold.jsonl"), "--out", str(out),
                     "--table-out", str(table), expect_exit=1)
    assert_one_line_json_error(result, "--table-out needs --verdicts")
    assert not out.exists() and not table.exists()


def test_benchmark_reversed_rankings(workspace):
    entries = [(f"d{i}", 1.0 - i / 5) for i in range(5)]
    save_rankings(workspace / "a.jsonl", [Ranking("q1", entries)])
    save_rankings(workspace / "b.jsonl",
                  [Ranking("q1", list(reversed(entries)))])
    result = run_cli(workspace, "benchmark",
                     "--rankings-a", str(workspace / "a.jsonl"),
                     "--rankings-b", str(workspace / "b.jsonl"))
    payload = json.loads(result.output)
    assert payload["mean_kendall_tau"] == pytest.approx(-1.0)


def test_define_generates_definitions(workspace, fixture_queries):
    plain = [corpus_mod.Query(id=q.id, text=q.text) for q in fixture_queries]
    corpus_mod.write_jsonl(workspace / "plain.jsonl", plain)
    out = workspace / "defined.jsonl"
    run_cli(workspace, "define", "--queries", str(workspace / "plain.jsonl"),
            "--out", str(out))
    defined = corpus_mod.read_jsonl(out, corpus_mod.Query)
    assert all(q.definition is not None for q in defined)


def test_define_with_examples_improves_the_queries_that_have_them(
        workspace, mock_server, fixture_queries):
    plain = [corpus_mod.Query(id=q.id, text=q.text) for q in fixture_queries]
    corpus_mod.write_jsonl(workspace / "plain.jsonl", plain)
    # Rows out of alphabetical order: the prompt keeps the file's order.
    examples = write_lines(
        workspace / "examples.jsonl",
        json.dumps({"query_id": "q1", "example": "ZETA-ROW Scope 3 totals"}),
        json.dumps({"query_id": "q1", "example": "ALPHA-ROW upstream categories"}))
    out = workspace / "defined.jsonl"
    args = ["define", "--queries", str(workspace / "plain.jsonl"), "--out", str(out),
            "--examples", examples]
    run_cli(workspace, *args)
    defined = {q.id: q.definition.provenance
               for q in corpus_mod.read_jsonl(out, corpus_mod.Query)}
    assert defined == {"q1": "improved", "q2": "generated"}
    # Requests overlap, so they arrive in any order: match each to its query.
    improved, generated = sorted(mock_server.chat_prompts,
                                 key=lambda prompt: plain[0].text not in prompt)
    assert plain[0].text in improved and plain[1].text in generated
    assert improved.index("ZETA-ROW") < improved.index("ALPHA-ROW")
    assert "[BEGIN" not in generated and "ROW" not in generated

    mock_server.reset_counters()
    run_cli(workspace, *args)
    assert mock_server.request_count == 0


# A 400 at one item stops the run: only requests already in flight may follow.
DEFINITION_TEXT = next(r["text"] for r in CHAT_RULES if r["match"].startswith("An analyst"))


def fatal_error_run(tmp_path, parallelism, *args):
    """(result, requests sent) of one command against a mock that answers 400
    for FATAL, malformed text for MALFORMEDDOC and everything else after 50 ms."""
    (tmp_path / "rules").mkdir()
    (tmp_path / "rules" / "rules.json").write_text(json.dumps([
        {"match": "FATAL", "text": "", "status_sequence": [400]},
        {"match": "MALFORMEDDOC", "text": "I cannot decide about this passage."},
        {"match": "An analyst posts", "text": DEFINITION_TEXT, "delay_ms": 50},
        {"match": "", "text": "[Guess]: Yes\n[Confidence]: 0.7", "delay_ms": 50},
    ]), encoding="utf-8")
    config = tmp_path / "relanno.conf"
    config.write_text("cache_dir=\n", encoding="utf-8")
    with mockserver.MockLLMServer(fixtures_dir=tmp_path / "rules") as server:
        result = CliRunner().invoke(main, [
            "--config", str(config), *args, "--parallelism", str(parallelism)],
            env={"RELANNO_BASE_URL": server.base_url})
        return result, server.request_count


@pytest.mark.parametrize("parallelism", [1, 4])
def test_annotate_fatal_error_leaves_the_pairs_before_it(tmp_path, fixture_queries,
                                                         parallelism):
    fatal = 12
    texts = {i: f"PAIRDOC passage {i}" for i in range(40)}
    texts[3], texts[fatal] = "MALFORMEDDOC passage", "FATAL passage"
    corpus_mod.write_jsonl(tmp_path / "queries.jsonl", fixture_queries)
    corpus_mod.write_jsonl(tmp_path / "documents.jsonl", [
        corpus_mod.DocumentChunk(id=f"d{i}", report_id="r1", text=text)
        for i, text in texts.items()])
    pairs = [{"query_id": "q1", "doc_id": f"d{i}"} for i in texts]
    corpus_mod.write_jsonl(tmp_path / "pairs.jsonl", pairs)
    result, requests = fatal_error_run(
        tmp_path, parallelism, "annotate", "--pairs", str(tmp_path / "pairs.jsonl"),
        "--queries", str(tmp_path / "queries.jsonl"),
        "--documents", str(tmp_path / "documents.jsonl"),
        "--out", str(tmp_path / "annotations.jsonl"),
        "--errors", str(tmp_path / "errors.jsonl"), "--calibration", "ask")
    assert result.exit_code == 1, result.output
    assert "HTTP 400" in json.loads(result.stderr.strip().splitlines()[-1])["error"]
    written = {name: [f"{r['query_id']},{r['doc_id']}" for r in
                      jsonl_rows(tmp_path / f"{name}.jsonl")]
               for name in ("annotations", "errors")}
    expected = [f"q1,d{i}" for i in range(fatal)]
    assert written == {"annotations": [p for p in expected if p != "q1,d3"],
                       "errors": ["q1,d3"]}
    assert requests <= fatal + parallelism


@pytest.mark.parametrize("parallelism", [1, 4])
def test_define_fatal_error_sends_no_later_query(tmp_path, parallelism):
    fatal = 7
    corpus_mod.write_jsonl(tmp_path / "queries.jsonl", [
        corpus_mod.Query(id=f"q{i}", text="FATAL?" if i == fatal else f"Question {i}?")
        for i in range(30)])
    result, requests = fatal_error_run(
        tmp_path, parallelism, "define", "--queries", str(tmp_path / "queries.jsonl"),
        "--out", str(tmp_path / "defined.jsonl"))
    assert_one_line_json_error(result, "HTTP 400")
    assert requests <= fatal + parallelism
    assert not (tmp_path / "defined.jsonl").exists()


def test_define_transport_error_names_the_query(tmp_path):
    corpus_mod.write_jsonl(tmp_path / "queries.jsonl", [
        corpus_mod.Query(id=f"q{i}", text="FATAL?" if i == 7 else f"Question {i}?")
        for i in range(10)])
    result, _ = fatal_error_run(
        tmp_path, 4, "define", "--queries", str(tmp_path / "queries.jsonl"),
        "--out", str(tmp_path / "defined.jsonl"))
    assert_one_line_json_error(result, "query q7: endpoint error at ", "HTTP 400")


def test_define_stopped_by_a_failing_query_resumes_from_the_cache(tmp_path):
    # n = 8 queries, each with its own definition. The first request for q3 is
    # answered 400, so define stops with k = 3 answers cached.
    n, k = 8, 3
    corpus_mod.write_jsonl(tmp_path / "queries.jsonl", [
        corpus_mod.Query(id=f"q{i}", text=f"Question {i}?") for i in range(n)])
    (tmp_path / "rules").mkdir()
    (tmp_path / "rules" / "rules.json").write_text(json.dumps([
        {"match": f"Question {i}?", "text": DEFINITION_TEXT.replace("quantity", f"quantity {i}"),
         **({"status_sequence": [400, 200]} if i == k else {})}
        for i in range(n)]), encoding="utf-8")

    def define(server, name, expect_exit=0):
        (tmp_path / "relanno.conf").write_text(
            f"base_url={server.base_url}\ncache_dir={tmp_path / name}\n", encoding="utf-8")
        return run_cli(tmp_path, "define", "--queries", str(tmp_path / "queries.jsonl"),
                       "--out", str(tmp_path / f"{name}.jsonl"), "--parallelism", "1",
                       expect_exit=expect_exit)

    with mockserver.MockLLMServer(fixtures_dir=tmp_path / "rules") as server:
        assert_one_line_json_error(define(server, "stopped", expect_exit=1),
                                   f"query q{k}: endpoint error at ", "HTTP 400")
        assert server.request_count == k + 1
        define(server, "stopped")
        assert server.request_count == (k + 1) + (n - k)
        define(server, "clean")
    assert (tmp_path / "stopped.jsonl").read_bytes() == (tmp_path / "clean.jsonl").read_bytes()
    meanings = [q.definition.meaning
                for q in corpus_mod.read_jsonl(tmp_path / "clean.jsonl", corpus_mod.Query)]
    assert [f"quantity {i}" in m for i, m in enumerate(meanings)] == [True] * n


def test_annotate_transport_error_names_the_pair(tmp_path, fixture_queries):
    corpus_mod.write_jsonl(tmp_path / "queries.jsonl", fixture_queries)
    corpus_mod.write_jsonl(tmp_path / "documents.jsonl", [
        corpus_mod.DocumentChunk(id=f"d{i}", report_id="r1",
                                 text="FATAL passage" if i == 12 else f"passage {i}")
        for i in range(20)])
    corpus_mod.write_jsonl(tmp_path / "pairs.jsonl",
                           ({"query_id": "q1", "doc_id": f"d{i}"} for i in range(20)))
    result, _ = fatal_error_run(
        tmp_path, 4, "annotate", "--pairs", str(tmp_path / "pairs.jsonl"),
        "--queries", str(tmp_path / "queries.jsonl"),
        "--documents", str(tmp_path / "documents.jsonl"),
        "--out", str(tmp_path / "annotations.jsonl"), "--calibration", "ask")
    assert_one_line_json_error(result, "pair (q1,d12): endpoint error at ", "HTTP 400")


def test_annotate_answer_that_is_not_json_names_the_pair(workspace, monkeypatch):
    monkeypatch.setattr(gateway_mod.requests.Session, "post",
                        lambda *args, **kwargs: answer_200(b"<html>"))
    pairs = write_lines(workspace / "pairs.jsonl", json.dumps({"query_id": "q1", "doc_id": "d2"}))
    result = run_cli(workspace, "annotate", "--pairs", pairs,
                     "--queries", str(workspace / "queries.jsonl"),
                     "--documents", str(workspace / "documents.jsonl"),
                     "--out", str(workspace / "a.jsonl"), expect_exit=1)
    assert_one_line_json_error(result, "pair (q1,d2): endpoint answer from ",
                               "/chat/completions is not valid JSON")


class TestAnswerText:
    """Chat answers whose text a pair or query cannot be written with, or that
    answer under the other confidence label; each is run with and without a cache."""

    RULES = [
        # The emoji is split across two tokens, each holding half of its surrogate pair.
        {"match": "SPLITTOKENDOC", "text": "[Guess]: Yes \U0001f600\n[Confidence]: 0.7",
         "logprobs": [["[Guess]:", -0.05], [" Yes", -0.2], [" \ud83d", -0.05],
                      ["\ude00", -0.05], ["\n[Confidence]:", -0.05], [" 0.7", -0.05]]},
        {"match": "SURROGATEDOC", "text": "[Reason]: a lone \ud83d\n[Guess]: Yes\n"
                                          "[Confidence]: 0.7"},
        {"match": "OTHERLABELDOC", "text": "[Guess]: No\n[Probability Helpful]: 0.1"},
        {"match": "An analyst posts", "text": "Meaning of the question: a lone \ud83d"},
    ]

    def run(self, tmp_path, cached, command, *args, expect_exit=0):
        """(result, rows in the cache) of one command against a mock serving RULES."""
        rules = tmp_path / "rules"
        rules.mkdir(exist_ok=True)
        (rules / "rules.json").write_text(json.dumps(self.RULES), encoding="utf-8")
        cache = tmp_path / "cache"
        with mockserver.MockLLMServer(fixtures_dir=rules) as server:
            (tmp_path / "relanno.conf").write_text(
                f"base_url={server.base_url}\ncache_dir={cache if cached else ''}\n",
                encoding="utf-8")
            result = run_cli(tmp_path, command, *args, expect_exit=expect_exit)
        if not (cache / "responses.sqlite3").exists():
            return result, 0
        with closing(sqlite3.connect(cache / "responses.sqlite3")) as db:
            return result, db.execute("SELECT count(*) FROM responses").fetchone()[0]

    def annotate(self, tmp_path, cached, doc_text, *args, expect_exit=0):
        corpus_mod.write_jsonl(tmp_path / "queries.jsonl", [corpus_mod.Query(
            id="q1", text="Question?", definition=make_definition())])
        corpus_mod.write_jsonl(tmp_path / "documents.jsonl", [
            corpus_mod.DocumentChunk(id="d1", report_id="r1", text=doc_text)])
        pairs = write_lines(tmp_path / "pairs.jsonl", '{"query_id": "q1", "doc_id": "d1"}')
        return self.run(tmp_path, cached, "annotate", "--pairs", pairs,
                        "--queries", str(tmp_path / "queries.jsonl"),
                        "--documents", str(tmp_path / "documents.jsonl"),
                        "--out", str(tmp_path / "a.jsonl"),
                        "--errors", str(tmp_path / "e.jsonl"), *args, expect_exit=expect_exit)

    @pytest.mark.parametrize("cached", [False, True])
    def test_a_token_may_hold_half_a_surrogate_pair(self, tmp_path, cached):
        result, stored = self.annotate(tmp_path, cached, "SPLITTOKENDOC passage")
        [row] = jsonl_rows(tmp_path / "a.jsonl")
        assert row["confidence_tok"] == pytest.approx(math.exp(-0.2))
        assert stored == int(cached)
        if cached:  # and the stored answer reads back as it came
            first = (tmp_path / "a.jsonl").read_bytes()
            result, _ = self.annotate(tmp_path, cached, "SPLITTOKENDOC passage")
            assert json.loads(result.output)["network_calls"] == 0
            assert (tmp_path / "a.jsonl").read_bytes() == first

    @pytest.mark.parametrize("cached", [False, True])
    def test_content_with_a_lone_surrogate_names_the_pair(self, tmp_path, cached):
        result, stored = self.annotate(tmp_path, cached, "SURROGATEDOC passage",
                                       "--variant", "point-cot-ask-d", expect_exit=1)
        assert_one_line_json_error(
            result, "pair (q1,d1): chat endpoint answer's choices[0].message.content: "
                    "expected a string, got a lone surrogate at index 17")
        assert stored == 0
        assert jsonl_rows(tmp_path / "a.jsonl") == jsonl_rows(tmp_path / "e.jsonl") == []

    @pytest.mark.parametrize("cached", [False, True])
    def test_content_with_a_lone_surrogate_names_the_query(self, tmp_path, cached):
        corpus_mod.write_jsonl(tmp_path / "queries.jsonl",
                               [corpus_mod.Query(id="q1", text="Question?")])
        result, stored = self.run(tmp_path, cached, "define",
                                  "--queries", str(tmp_path / "queries.jsonl"),
                                  "--out", str(tmp_path / "d.jsonl"), expect_exit=1)
        assert_one_line_json_error(
            result, "query q1: chat endpoint answer's choices[0].message.content: "
                    "expected a string, got a lone surrogate")
        assert stored == 0

    @pytest.mark.parametrize("cached", [False, True])
    def test_ask_answer_under_the_probability_label_is_a_ledger_row(self, tmp_path, cached):
        """Read as a confidence in the No, it would have scored 0.9."""
        result, _ = self.annotate(tmp_path, cached, "OTHERLABELDOC passage",
                                  "--variant", "point-ask-d", "--calibration", "ask")
        assert json.loads(result.output)["errors"] == 1
        assert jsonl_rows(tmp_path / "a.jsonl") == []
        [error] = jsonl_rows(tmp_path / "e.jsonl")
        assert error["error"] == "no [Confidence] field found"


def test_killed_annotate_leaves_a_prefix_and_resumes_from_the_cache(tmp_path, fixture_queries):
    (tmp_path / "rules").mkdir()
    (tmp_path / "rules" / "rules.json").write_text(json.dumps([
        {"match": "", "text": "[Guess]: Yes\n[Confidence]: 0.7", "delay_ms": 30}]),
        encoding="utf-8")
    corpus_mod.write_jsonl(tmp_path / "queries.jsonl", fixture_queries)
    corpus_mod.write_jsonl(tmp_path / "documents.jsonl", [
        corpus_mod.DocumentChunk(id=f"d{i}", report_id="r1", text=f"passage {i}")
        for i in range(100)])
    pairs = [f"q1,d{i}" for i in range(100)]
    corpus_mod.write_jsonl(tmp_path / "pairs.jsonl", (
        dict(zip(("query_id", "doc_id"), p.split(","))) for p in pairs))

    def command(name):
        (tmp_path / f"{name}.conf").write_text(f"cache_dir={tmp_path / name}\n")
        return [sys.executable, "-c", "from relanno.cli import main; main()",
                "--config", str(tmp_path / f"{name}.conf"), "annotate",
                "--pairs", str(tmp_path / "pairs.jsonl"),
                "--queries", str(tmp_path / "queries.jsonl"),
                "--documents", str(tmp_path / "documents.jsonl"),
                "--out", str(tmp_path / f"{name}.jsonl"), "--calibration", "ask",
                "--parallelism", "2"]

    def keys(name):
        return [f"{r['query_id']},{r['doc_id']}"
                for r in jsonl_rows(tmp_path / f"{name}.jsonl")]

    with mockserver.MockLLMServer(fixtures_dir=tmp_path / "rules") as server:
        env = dict(os.environ, RELANNO_BASE_URL=server.base_url,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen(command("killed"), env=env, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 30
            while len(jsonl_rows(tmp_path / "killed.jsonl")
                       if (tmp_path / "killed.jsonl").exists() else []) < 10:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            proc.kill()
            proc.wait(timeout=30)
        written = keys("killed")
        assert (tmp_path / "killed.jsonl").read_text().endswith("\n")
        assert 10 <= len(written) < 100 and written == pairs[:len(written)]
        server.reset_counters()
        subprocess.run(command("killed"), env=env, check=True, capture_output=True)
        assert server.request_count <= 100 - len(written)  # written pairs come from the cache
        subprocess.run(command("clean"), env=env, check=True, capture_output=True)
    assert keys("killed") == pairs
    assert (tmp_path / "killed.jsonl").read_bytes() == (tmp_path / "clean.jsonl").read_bytes()


def sample_args(workspace, out):
    """`sample` over two short rankings, to `out`."""
    rankings = workspace / "rankings.jsonl"
    if not rankings.exists():
        save_rankings(rankings, [Ranking("q1", [("d1", 0.9), ("d2", 0.5), ("d3", 0.1)]),
                                 Ranking("q2", [("d2", 0.8), ("d3", 0.4), ("d1", 0.2)])])
    return ["sample", "--rankings", str(rankings), "--out", str(out),
            "--k", "1", "--per-side", "1"]


# Runs `relanno ARGS...` with each output row held up for a minute; touches
# the file named by its first argument when the first row is being written.
SLOW_WRITE = """\
import sys, time
from pathlib import Path
from relanno import corpus
from relanno.cli import main
line = corpus._jsonl_line

def slow_line(row):
    Path(sys.argv[1]).touch()
    time.sleep(60)
    return line(row)

corpus._jsonl_line = slow_line
main(sys.argv[2:], prog_name="relanno")
"""


def test_killed_sample_keeps_the_earlier_output(workspace):
    out, started = workspace / "pairs.jsonl", workspace / "started"
    run_cli(workspace, *sample_args(workspace, out))
    earlier = out.read_bytes()
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen([sys.executable, "-c", SLOW_WRITE, str(started),
                             *sample_args(workspace, out)], env=env, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not started.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        proc.kill()
        proc.wait(timeout=30)
    assert out.read_bytes() == earlier
    run_cli(workspace, *sample_args(workspace, out))
    assert out.read_bytes() == earlier
    assert not list(workspace.glob("*.partial"))


def test_sample_writes_a_fifo_in_place(workspace):
    run_cli(workspace, *sample_args(workspace, workspace / "plain.jsonl"))
    fifo = workspace / "pairs.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    run_cli(workspace, *sample_args(workspace, fifo))
    reader.join(timeout=30)
    assert received == [(workspace / "plain.jsonl").read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert not list(workspace.glob("*.partial"))


@pytest.mark.parametrize("name, count", [("sample", "pairs"), ("annotate", "annotations")])
def test_out_to_redirected_stdout_keeps_the_rows_then_the_summary(workspace, name, count):
    """`--out /dev/stdout > file`: the rows, published or streamed, then the
    summary line, all in the one file."""
    args = ["--config", str(workspace / "relanno.conf"), *loop_command(workspace, name)]
    args[args.index("--out") + 1] = "/dev/stdout"
    out = workspace / "out.txt"
    with open(out, "wb") as stdout:
        assert run_entry(*args, stdout=stdout).returncode == 0
    *rows, summary = out.read_text(encoding="utf-8").splitlines()
    assert json.loads(summary)[count] == len(rows) > 0
    assert all("query_id" in json.loads(row) for row in rows)


def cache_files(directory):
    return sorted(os.listdir(directory / "cache"))


@pytest.mark.parametrize("name", ["ingest", "rank", "sample", "define", "annotate",
                                  "evaluate", "audit", "distill"])
def test_own_process_ends_after_its_summary_line(workspace, name):
    """A command that ends its own process prints its summary line, and leaves
    the response cache closed: one file, no `-wal` or `-shm`."""
    result = run_entry("--config", workspace / "relanno.conf", *loop_command(workspace, name))
    assert result.returncode == 0, result.stderr
    [summary] = result.stdout.splitlines()
    assert isinstance(json.loads(summary), dict)
    if name in ("rank", "define", "annotate"):
        assert cache_files(workspace) == ["responses.sqlite3"]


def test_own_process_bad_input_is_one_json_line_and_exit_1(workspace):
    """Refused after annotate opened its cache: still closed."""
    pairs = write_lines(workspace / "pairs.jsonl",
                        json.dumps({"query_id": "q1", "doc_id": "ghost"}))
    result = run_entry("--config", workspace / "relanno.conf", "annotate", "--pairs", pairs,
                       "--queries", workspace / "queries.jsonl",
                       "--documents", workspace / "documents.jsonl",
                       "--out", workspace / "a.jsonl")
    assert result.returncode == 1 and result.stdout == ""
    [line] = result.stderr.splitlines()
    assert "unknown doc id: ghost" in json.loads(line)["error"]
    assert cache_files(workspace) == ["responses.sqlite3"]
    assert not (workspace / "a.jsonl").exists()


def test_own_process_usage_error_exits_2(workspace):
    result = run_entry("sample", "--out", workspace / "pairs.jsonl")
    assert result.returncode == 2 and result.stdout == ""
    assert "Missing option '--rankings'" in result.stderr


def test_own_process_fatal_annotate_keeps_a_prefix_and_closes_the_cache(tmp_path,
                                                                          fixture_queries):
    """Stopped by a 400 with requests in flight: whole rows before the failing
    pair, each of them in a closed cache."""
    fatal = 12
    corpus_mod.write_jsonl(tmp_path / "queries.jsonl", fixture_queries)
    corpus_mod.write_jsonl(tmp_path / "documents.jsonl", [
        corpus_mod.DocumentChunk(id=f"d{i}", report_id="r1",
                                 text="FATAL passage" if i == fatal else f"passage {i}")
        for i in range(40)])
    pairs = [{"query_id": "q1", "doc_id": f"d{i}"} for i in range(40)]
    corpus_mod.write_jsonl(tmp_path / "pairs.jsonl", pairs)
    (tmp_path / "rules").mkdir()
    (tmp_path / "rules" / "rules.json").write_text(json.dumps([
        {"match": "FATAL", "text": "", "status_sequence": [400]},
        {"match": "", "text": "[Guess]: Yes\n[Confidence]: 0.7", "delay_ms": 20},
    ]), encoding="utf-8")
    (tmp_path / "relanno.conf").write_text(f"cache_dir={tmp_path / 'cache'}\n")
    with mockserver.MockLLMServer(fixtures_dir=tmp_path / "rules") as server:
        result = run_entry("--config", tmp_path / "relanno.conf", "annotate",
                           "--pairs", tmp_path / "pairs.jsonl",
                           "--queries", tmp_path / "queries.jsonl",
                           "--documents", tmp_path / "documents.jsonl",
                           "--out", tmp_path / "a.jsonl", "--calibration", "ask",
                           "--parallelism", "4", env={"RELANNO_BASE_URL": server.base_url})
    assert result.returncode == 1
    [line] = result.stderr.splitlines()
    assert "HTTP 400" in json.loads(line)["error"]
    assert (tmp_path / "a.jsonl").read_text().endswith("\n")
    written = [{"query_id": r["query_id"], "doc_id": r["doc_id"]}
               for r in jsonl_rows(tmp_path / "a.jsonl")]
    assert written == pairs[:fatal]
    assert cache_files(tmp_path) == ["responses.sqlite3"]
    with closing(sqlite3.connect(tmp_path / "cache" / "responses.sqlite3")) as db:
        assert db.execute("SELECT count(*) FROM responses").fetchone()[0] >= fatal


def test_own_process_with_stdout_closed_exits_0(workspace):
    """Started with descriptor 1 closed, Python has no sys.stdout to flush."""
    result = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-c", ENTRY,
         "--config", str(workspace / "relanno.conf"),
         *sample_args(workspace, workspace / "pairs.jsonl")],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    assert (workspace / "pairs.jsonl").exists()


@pytest.mark.parametrize("code, status, stderr", [
    (None, 0, ""), (0, 0, ""), (3, 3, ""), ("stopped", 1, "stopped\n"),
])
def test_end_process_maps_the_exit_code_as_python_does(code, status, stderr):
    result = subprocess.run(
        [sys.executable, "-c", f"from relanno.cli import _end_process; _end_process({code!r})"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (status, stderr)


def test_main_given_args_raises_system_exit(workspace):
    """A Python caller that passes `args` keeps its interpreter."""
    with pytest.raises(SystemExit) as done:
        main(["--config", str(workspace / "relanno.conf"),
              *sample_args(workspace, workspace / "pairs.jsonl")])
    assert done.value.code == 0
    with pytest.raises(SystemExit) as done:
        main(["sample"])
    assert done.value.code == 2


def test_evaluate_to_a_closed_pipe_is_one_json_line_and_exit_1(workspace):
    """stdout is a pipe whose reader is gone, and block-buffered: the summary
    line cannot be written, and neither can it be at exit, which says nothing more."""
    args = loop_command(workspace, "evaluate")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_entry("--config", workspace / "relanno.conf", *args, stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 1
    [line] = result.stderr.splitlines()
    assert json.loads(line) == {"error": "[Errno 32] Broken pipe"}
    assert (workspace / "report.json").exists()


@pytest.mark.parametrize("name", ["rank", "define", "annotate", "annotate-fatal"])
def test_no_worker_thread_outlives_a_command(workspace, name):
    """What `main()` relies on to end the process without joining threads. In
    annotate-fatal, pair 0 fails while pair 1's request is still in flight."""
    def workers():
        return {t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")}

    before = workers()
    args = loop_command(workspace, name.removesuffix("-fatal"))
    if name == "annotate-fatal":
        (workspace / "rules").mkdir()
        (workspace / "rules" / "rules.json").write_text(json.dumps([
            {"match": "SCOPE3DOC", "text": "", "status_sequence": [400], "delay_ms": 100},
            {"match": "", "text": "[Guess]: Yes\n[Confidence]: 0.7", "delay_ms": 1000},
        ]), encoding="utf-8")
        args[args.index("--parallelism") + 1] = "2"
        with mockserver.MockLLMServer(fixtures_dir=workspace / "rules") as server:
            result = CliRunner().invoke(main, ["--config", str(workspace / "relanno.conf"),
                                               *args], env={"RELANNO_BASE_URL": server.base_url})
        assert_one_line_json_error(result, "HTTP 400")
    else:
        run_cli(workspace, *args)
    assert workers() <= before


def test_sample_through_a_symlink_replaces_the_file_it_names(workspace):
    run_cli(workspace, *sample_args(workspace, workspace / "plain.jsonl"))
    (workspace / "real").mkdir()
    target, link = workspace / "real" / "pairs.jsonl", workspace / "pairs.jsonl"
    target.write_text("earlier\n", encoding="utf-8")
    link.symlink_to(target)
    run_cli(workspace, *sample_args(workspace, link))
    assert link.is_symlink() and link.readlink() == target
    assert target.read_bytes() == (workspace / "plain.jsonl").read_bytes()
    assert not list(workspace.rglob("*.partial"))


def write_lines(path, *lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


NO_CONFIDENCE = json.dumps({"query_id": "q1", "doc_id": "d2", "guess": "Yes",
                            "relevance_score": 0.9})


class TestMissingConfidence:
    """A row with neither confidence names its pair instead of crashing."""

    def test_evaluate(self, workspace):
        rows = write_lines(workspace / "one.jsonl", NO_CONFIDENCE)
        result = run_cli(workspace, "evaluate", "--annotations", rows,
                         "--gold", str(workspace / "gold.jsonl"),
                         "--out", str(workspace / "report.json"), expect_exit=1)
        assert_one_line_json_error(result, "(q1,d2)", "neither confidence_ask nor confidence_tok")

    def test_audit(self, workspace):
        rows = write_lines(workspace / "one.jsonl", NO_CONFIDENCE)
        result = run_cli(workspace, "audit", "--annotations", rows,
                         "--original", str(workspace / "gold.jsonl"),
                         "--out", str(workspace / "d.jsonl"), expect_exit=1)
        assert_one_line_json_error(result, "(q1,d2)", "neither confidence_ask nor confidence_tok")


def flag_case(workspace, name):
    """Arguments for `command --flag value`, the name, on otherwise valid inputs."""
    command, flag, value = name.split()
    queries, documents, gold = (str(workspace / n) for n in
                                ("queries.jsonl", "documents.jsonl", "gold.jsonl"))
    if command == "sample":
        rankings = workspace / "rankings.jsonl"
        save_rankings(rankings, [Ranking("q1", [("d1", 0.9), ("d2", 0.1)])])
        args = ["--rankings", str(rankings), "--out", str(workspace / "p.jsonl")]
    elif command == "ingest":
        args = ["--queries", queries, "--documents", documents,
                "--out-dir", str(workspace / "c")]
    elif command == "define":
        args = ["--queries", queries, "--out", str(workspace / "d.jsonl")]
    elif command == "annotate":
        args = ["--pairs", str(write_all_pairs(workspace)), "--queries", queries,
                "--documents", documents, "--out", str(workspace / "a.jsonl")]
    else:
        annotations, _ = annotate_all(workspace)
        args = ["--annotations", str(annotations), "--out", str(workspace / "r.json"),
                "--original" if command == "audit" else "--gold", gold]
    return [command, *args, flag, value]


@pytest.mark.parametrize("name,fragment", [
    ("sample --k 0", "--k: must be at least 1, got 0"),
    ("sample --per-side 0", "--per-side: must be at least 1, got 0"),
    ("ingest --min-tokens 0", "--min-tokens: must be at least 1, got 0"),
    ("ingest --query-test-fraction 1.5",
     "--query-test-fraction: must be strictly between 0 and 1, got 1.5"),
    ("ingest --report-test-fraction nan", "--report-test-fraction: must be a finite number"),
    ("audit --per-bin -1", "--per-bin: must be at least 1, got -1"),
    ("audit --cutoff nan", "--cutoff: must be a finite number, got nan"),
    ("audit --cutoff 1.5", "--cutoff: must be between 0 and 1, got 1.5"),
    ("evaluate --ece-bins 0", "--ece-bins: must be at least 1, got 0"),
    ("evaluate --k 0", "--k: must be at least 1, got 0"),
    ("sweep --steps 0", "--steps: must be at least 1, got 0"),
    ("sweep --steps -4", "--steps: must be at least 1, got -4"),
    ("define --parallelism 0", "--parallelism: must be at least 1, got 0"),
    ("annotate --parallelism -3", "--parallelism: must be at least 1, got -3"),
])
def test_out_of_range_flag_is_one_json_error(workspace, name, fragment):
    result = run_cli(workspace, *flag_case(workspace, name), expect_exit=1)
    assert_one_line_json_error(result, fragment)


def test_every_numeric_flag_is_checked_against_the_config_bounds():
    """Each int or float flag passes `_check_flag`, and each name in the
    bounds table that no flag has is a config key set only by file or env."""
    numeric = [(command.name, param) for command in main.commands.values()
               for param in command.params if param.type in (click.INT, click.FLOAT)]
    assert {param.callback for _, param in numeric} == {_check_flag}, numeric
    flag_names = {param.name for _, param in numeric}
    assert set(BOUNDS) - flag_names == {"max_attempts", "backoff_base", "embed_batch_size"}


# The edge that leaves balanced_sample, annotate_pair and gain no
# value of their own to check.
@pytest.mark.parametrize("name", [
    "sample --fill-policy bogus", "annotate --calibration vibes", "evaluate --scheme nope",
])
def test_value_outside_a_choice_is_a_usage_error(workspace, name):
    result = run_cli(workspace, *flag_case(workspace, name), expect_exit=2)
    flag, value = name.split()[1:]
    assert f"Invalid value for '{flag}': '{value}' is not one of" in result.stderr


def bad_input_case(workspace, name):
    """(arguments, fragments the error must hold) for one malformed input."""
    w = workspace
    queries, documents, gold = (str(w / n) for n in
                                ("queries.jsonl", "documents.jsonl", "gold.jsonl"))
    annotations = write_lines(w / "ann.jsonl", json.dumps(
        {"query_id": "q1", "doc_id": "d1", "guess": "Yes", "relevance_score": 0.9,
         "confidence_ask": 0.9}))
    if name == "query without text":
        bad = write_lines(w / "bad.jsonl", json.dumps({"id": "q1", "text": "x"}),
                          json.dumps({"id": "q2"}))
        return ["rank", "--queries", bad, "--documents", documents,
                "--out", str(w / "r.jsonl")], ["bad.jsonl:2", "field 'text': missing"]
    if name == "pair without doc_id":
        bad = write_lines(w / "bad.jsonl", "", json.dumps({"query_id": "q1"}))
        return ["annotate", "--pairs", bad, "--queries", queries, "--documents", documents,
                "--out", str(w / "a.jsonl")], ["bad.jsonl:2", "field 'doc_id': missing"]
    if name == "ranking entry without score":
        bad = write_lines(w / "bad.jsonl", json.dumps(
            {"query_id": "q1", "entries": [["d2", 0.5], ["d1"]]}))
        return ["sample", "--rankings", bad, "--out", str(w / "p.jsonl")], [
            "bad.jsonl:1", "field 'entries[1]'", "expected a list of 2 items"]
    if name == "gold grade as a word":
        bad = write_lines(w / "bad.jsonl", json.dumps(
            {"query_id": "q1", "doc_id": "d1", "grade": "high"}))
        return ["evaluate", "--annotations", annotations, "--gold", bad,
                "--out", str(w / "r.json")], [
            "bad.jsonl:1", "field 'grade'", "expected a number, got \"high\""]
    if name == "broken JSONL line":
        bad = write_lines(w / "bad.jsonl", json.dumps({"id": "q1", "text": "x"}),
                          '{"id": "q2", "text": ')
        return ["define", "--queries", bad, "--out", str(w / "d.jsonl")], [
            "bad.jsonl:2", "not valid JSON"]
    if name == "split without train_queries":
        split = w / "split.json"
        split.write_text(json.dumps({"test_queries": [], "train_reports": [],
                                     "test_reports": [], "seed": 1}), encoding="utf-8")
        return ["distill", "--annotations", annotations, "--queries", queries,
                "--documents", documents, "--split", str(split),
                "--out", str(w / "t.jsonl"), "--manifest", str(w / "m.json")], [
            "split.json", "field 'train_queries': missing"]
    if name == "nested definition field":
        bad = write_lines(w / "bad.jsonl", json.dumps(
            {"id": "q1", "text": "x", "definition": {"meaning": 3}}))
        return ["define", "--queries", bad, "--out", str(w / "d.jsonl")], [
            "bad.jsonl:1", "field 'definition.meaning'", "expected a string, got 3"]
    if name == "gold grade beyond float range":
        bad = write_lines(w / "gold.jsonl", json.dumps(
            {"query_id": "q1", "doc_id": "d1", "grade": int("9" * 400)}))
        return ["evaluate", "--annotations", annotations, "--gold", bad,
                "--out", str(w / "r.json")], [
            "gold.jsonl:1", "field 'grade'", "expected a number within float range"]
    if name == "gold grade of 5000 digits":  # raw text: json.dumps hits the same limit
        bad = write_lines(w / "gold.jsonl",
                          '{"query_id": "q1", "doc_id": "d1", "grade": ' + "9" * 5000 + "}")
        return ["evaluate", "--annotations", annotations, "--gold", bad,
                "--out", str(w / "r.json")], [
            "gold.jsonl:1", "not valid JSON", "Exceeds the limit (4300 digits)"]
    if name == "split seed of 5000 digits":
        split = w / "split.json"
        split.write_text('{"train_queries": [], "test_queries": [], "train_reports": [],\n'
                         '"test_reports": [], "seed": ' + "9" * 5000 + "}", encoding="utf-8")
        return ["distill", "--annotations", annotations, "--queries", queries,
                "--documents", documents, "--split", str(split),
                "--out", str(w / "t.jsonl"), "--manifest", str(w / "m.json")], [
            "split.json", "not valid JSON", "Exceeds the limit (4300 digits)"]
    gold_grades = {"gold grade of 1e400": ("1e400", "expected a finite number, got inf"),
                   "gold grade that is NaN": ("NaN", "expected a finite number, got nan"),
                   "gold grade above 1": ("1.5", "expected a number in [0,1], got 1.5")}
    if name in gold_grades:
        literal, message = gold_grades[name]
        bad = write_lines(w / "gold.jsonl", '{"query_id": "q1", "doc_id": "d1", '
                          f'"binary": "relevant", "grade": {literal}}}')
        return ["evaluate", "--scheme", "graded_1_3", "--annotations", annotations,
                "--gold", bad, "--out", str(w / "r.json")], [
            "gold.jsonl:1", "field 'grade'", message]
    if name == "ranking score that is -Infinity":
        bad = write_lines(w / "bad.jsonl", '{"query_id": "q1", "entries": [["d1", -Infinity]]}')
        return ["sample", "--rankings", bad, "--out", str(w / "p.jsonl")], [
            "bad.jsonl:1", "field 'entries[0][1]'", "expected a finite number, got -inf"]
    if name == "query text with a lone surrogate":
        (w / "in").mkdir()
        bad = write_lines(w / "in" / "queries.jsonl", *(
            json.dumps({"id": f"q{i}", "text": text}) for i, text in
            enumerate(["one", "two", "three", "bad \ud800 text"], start=1)))
        return ["ingest", "--queries", bad, "--documents", documents,
                "--out-dir", str(w / "out")], [
            "queries.jsonl:4", "field 'text'", "expected a string, got a lone surrogate"]
    if name == "gold row without binary":
        bad = write_lines(w / "bad.jsonl", json.dumps(
            {"query_id": "q1", "doc_id": "d1", "grade": 0.7}))
        return ["evaluate", "--annotations", annotations, "--gold", bad,
                "--out", str(w / "r.json")], [
            "(q1,d1)", "unknown three_way label: None"]
    out_of_range = {
        "confidence out of range": ({"confidence_tok": -0.1}, "confidence_tok", "-0.1"),
        "score that is NaN": ({"relevance_score": float("nan")}, "relevance_score", "nan"),
        "guess that is Maybe": ({"guess": "Maybe"}, "guess", "'Maybe'"),
    }
    if name in out_of_range:
        change, field, shown = out_of_range[name]
        bad = write_lines(w / "bad.jsonl", json.dumps(
            {"query_id": "q1", "doc_id": "d1", "guess": "Yes", "relevance_score": 0.9,
             "confidence_tok": 0.9, **change}))
        return ["evaluate", "--annotations", bad, "--gold", gold,
                "--out", str(w / "r.json")], ["bad.jsonl:1", f"field '{field}'", shown]
    if name == "out path in a missing directory":
        rankings = w / "rankings.jsonl"
        save_rankings(rankings, [Ranking("q1", [("d1", 0.9), ("d2", 0.1)])])
        return ["sample", "--rankings", str(rankings),
                "--out", str(w / "nodir" / "pairs.jsonl")], [
            "No such file or directory", "pairs.jsonl"]
    if name == "uncertain as a string":
        bad = write_lines(w / "bad.jsonl", json.dumps(
            {"query_id": "q1", "doc_id": "d1", "grade": 1, "uncertain": "false"}))
        return ["sweep", "--annotations", annotations, "--gold", bad,
                "--out", str(w / "s.csv")], [
            "bad.jsonl:1", "field 'uncertain'", "expected true or false"]
    if name == "cache file that is not a database":
        (w / "cache").mkdir()
        (w / "cache" / "responses.sqlite3").write_text("not a database\n" * 100)
        return ["rank", "--queries", queries, "--documents", documents,
                "--out", str(w / "r.jsonl")], ["file is not a database"]
    if name == "definition answer without meaning":
        bad = write_lines(w / "bad.jsonl", json.dumps({"id": "q7", "text": "MALFORMEDDOC?"}))
        return ["define", "--queries", bad, "--out", str(w / "d.jsonl")], [
            "query q7: no meaning anchor in definition response"]
    if name == "definition answer with a blank meaning":
        bad = write_lines(w / "bad.jsonl", json.dumps({"id": "q7", "text": "BLANKMEANINGDOC?"}))
        return ["define", "--queries", bad, "--out", str(w / "d.jsonl")], [
            "query q7: field 'meaning': expected a string that is not blank, got \"\""]
    if name == "examples for unknown queries":
        examples = write_lines(w / "examples.jsonl",
                               json.dumps({"query_id": "q9", "example": "x"}),
                               json.dumps({"query_id": "q1", "example": "y"}),
                               json.dumps({"query_id": "q7", "example": "z"}))
        return ["define", "--queries", queries, "--out", str(w / "d.jsonl"),
                "--examples", examples], [
            "examples.jsonl", "examples for unknown query ids: q7, q9"]
    unknown_variant = {"ask-only row of an unknown variant": "confidence_ask",
                       "tok row of an unknown variant": "confidence_tok"}
    if name in unknown_variant:
        bad = write_lines(w / "bad.jsonl", json.dumps(
            {"query_id": "q1", "doc_id": "d1", "guess": "Yes", "relevance_score": 0.9,
             unknown_variant[name]: 0.9, "variant": "point-foo"}))
        return ["evaluate", "--annotations", bad, "--gold", gold,
                "--out", str(w / "r.json")], [
            "bad.jsonl:1", "field 'variant'", "unknown variant label: 'point-foo'"]
    if name == "verdict that is Model":
        bad = write_lines(w / "bad.jsonl", json.dumps(
            {"query_id": "q1", "doc_id": "d1", "verdict": "Model"}))
        return ["audit", "--annotations", annotations, "--original", gold,
                "--out", str(w / "d.jsonl"), "--verdicts", bad], [
            "bad.jsonl:1", "field 'verdict'", "expected \"model\" or \"original\", got 'Model'"]
    capitalised = {"gold binary that is Relevant": ["evaluate", "--scheme", "binary", "--gold"],
                   "original binary that is Relevant": ["audit", "--original"],
                   "gold binary that is Relevant to sweep": ["sweep", "--gold"]}
    if name in capitalised:
        bad = write_lines(w / "bad.jsonl", json.dumps(
            {"query_id": "q1", "doc_id": "d1", "grade": 1.0, "binary": "Relevant"}))
        return [*capitalised[name], bad, "--annotations", annotations,
                "--out", str(w / "out")], ["bad.jsonl:1", "field 'binary'", "got 'Relevant'"]
    if name == "pair with an unknown query id":
        pairs = write_lines(w / "pairs.jsonl", json.dumps({"query_id": "q9", "doc_id": "d1"}))
        return ["annotate", "--pairs", pairs, "--queries", queries, "--documents", documents,
                "--out", str(w / "a.jsonl")], ["pair references unknown query id: q9"]
    distilled = {
        "annotation with an unknown query id": (
            {"query_id": "q9", "confidence_ask": 0.9},
            ["annotation references unknown query id: q9"]),
        "annotation with an unknown doc id": (
            {"doc_id": "d99", "confidence_ask": 0.9},
            ["annotation references unknown doc id: d99"]),
        "score above 1 to distill": (
            {"relevance_score": 1.5, "confidence_tok": 0.9},
            ["bad.jsonl:1", "field 'relevance_score'", "1.5"]),
        "ask-only row of an unknown variant to distill": (
            {"confidence_ask": 0.9, "variant": "point-foo"},
            ["bad.jsonl:1", "field 'variant'", "unknown variant label: 'point-foo'"]),
    }
    if name in distilled:
        change, fragments = distilled[name]
        bad = write_lines(w / "bad.jsonl", json.dumps(
            {"query_id": "q1", "doc_id": "d1", "guess": "Yes", "relevance_score": 0.9,
             **change}))
        split = w / "split.json"
        split.write_text(json.dumps({"train_queries": ["q1", "q2"], "test_queries": [],
                                     "train_reports": ["r1", "r2"], "test_reports": [],
                                     "seed": 1}), encoding="utf-8")
        return ["distill", "--annotations", bad, "--queries", queries,
                "--documents", documents, "--split", str(split),
                "--out", str(w / "t.jsonl"), "--manifest", str(w / "m.json")], fragments
    if name == "rankings over different doc ids":
        save_rankings(w / "a.jsonl", [Ranking("q1", [("d1", 0.9), ("d2", 0.1)])])
        save_rankings(w / "b.jsonl", [Ranking("q1", [("d1", 0.9), ("d3", 0.1)])])
        return ["benchmark", "--rankings-a", str(w / "a.jsonl"),
                "--rankings-b", str(w / "b.jsonl")], [
            "query q1: rankings must be over the same id set"]
    raise AssertionError(name)


@pytest.mark.parametrize("name", [
    "query without text", "pair without doc_id", "ranking entry without score",
    "gold grade as a word", "broken JSONL line", "split without train_queries",
    "nested definition field", "uncertain as a string", "gold row without binary",
    "confidence out of range", "out path in a missing directory",
    "cache file that is not a database", "definition answer without meaning",
    "definition answer with a blank meaning",
    "rankings over different doc ids", "examples for unknown queries",
    "ask-only row of an unknown variant", "pair with an unknown query id",
    "annotation with an unknown query id", "annotation with an unknown doc id",
    "score that is NaN", "guess that is Maybe", "score above 1 to distill",
    "gold grade beyond float range", "gold grade of 5000 digits", "split seed of 5000 digits",
    "tok row of an unknown variant", "ask-only row of an unknown variant to distill",
    "verdict that is Model", "gold binary that is Relevant", "original binary that is Relevant",
    "gold binary that is Relevant to sweep", "gold grade of 1e400", "gold grade that is NaN",
    "gold grade above 1", "ranking score that is -Infinity", "query text with a lone surrogate",
])
def test_bad_input_row_is_one_json_error(workspace, name):
    args, fragments = bad_input_case(workspace, name)
    result = run_cli(workspace, *args, expect_exit=1)
    assert_one_line_json_error(result, *fragments)


@pytest.mark.parametrize("name, row, fragment", [
    ("queries.jsonl", {"id": "q1", "text": "Again?"}, ":3: field 'id': \"q1\" repeats line 1"),
    ("documents.jsonl", {"id": "d3", "report_id": "r2", "text": "Again."},
     ":5: field 'id': \"d3\" repeats line 3"),
    ("documents.jsonl", {"id": "d9", "report_id": "r2", "text": "   "},
     ":5: field 'text': expected a string that is not blank, got \"   \""),
], ids=["repeated query id", "repeated doc id", "blank document text"])
def test_annotate_refuses_a_bad_row_before_any_request(workspace, mock_server,
                                                         name, row, fragment):
    with open(workspace / name, "a", encoding="utf-8") as f:
        f.write(json.dumps(row) + "\n")
    pairs = write_all_pairs(workspace)
    with open(pairs, "a", encoding="utf-8") as f:
        f.write(json.dumps({"query_id": "q1", "doc_id": "d9"}) + "\n")
    message = one_json_error(
        "--config", workspace / "relanno.conf", "annotate", "--pairs", pairs,
        "--queries", workspace / "queries.jsonl", "--documents", workspace / "documents.jsonl",
        "--out", workspace / "annotations.jsonl", "--calibration", "ask")
    assert message == f"{workspace / name}{fragment}"
    assert mock_server.request_count == 0


def test_evaluate_refuses_an_irrelevant_gold_row_of_nonzero_grade(workspace, mock_server):
    annotations = workspace / "annotations.jsonl"
    corpus_mod.write_jsonl(annotations, [Annotation("q1", "d1", "Yes", 0.9, confidence_ask=0.9,
                                                    variant="point-ask")])
    gold = workspace / "gold.jsonl"
    with open(gold, "a", encoding="utf-8") as f:
        f.write(json.dumps({"query_id": "q1", "doc_id": "d1", "grade": 0.5,
                            "binary": "irrelevant"}) + "\n")
    message = one_json_error(
        "evaluate", "--scheme", "graded_1_3", "--annotations", annotations, "--gold", gold,
        "--out", workspace / "report.json")
    assert message == f"{gold}:9: field 'grade': expected 0 for an irrelevant label, got 0.5"
    assert not (workspace / "report.json").exists()
    assert mock_server.request_count == 0


@pytest.mark.parametrize("kind", ["pairs", "annotations", "gold", "verdicts", "rankings"])
def test_a_repeated_row_is_refused_before_any_request_or_output(workspace, mock_server, kind):
    annotations = workspace / "annotations.jsonl"
    corpus_mod.write_jsonl(annotations, [
        Annotation("q1", doc_id, "Yes", 0.9, confidence_ask=0.9, variant="point-ask")
        for doc_id in ("d1", "d2")])
    rankings = workspace / "rankings.jsonl"
    save_rankings(rankings, [Ranking("q1", [("d1", 0.9), ("d2", 0.1)])])
    verdicts = Path(write_lines(workspace / "verdicts.jsonl", json.dumps(
        {"query_id": "q1", "doc_id": "d1", "verdict": "model"})))
    pairs, gold, out = write_all_pairs(workspace), workspace / "gold.jsonl", workspace / "out"
    inputs = ["--queries", workspace / "queries.jsonl",
              "--documents", workspace / "documents.jsonl"]
    path, args = {
        "pairs": (pairs, ["annotate", "--pairs", pairs, *inputs, "--calibration", "ask"]),
        "annotations": (annotations, ["evaluate", "--annotations", annotations, "--gold", gold]),
        "gold": (gold, ["evaluate", "--annotations", annotations, "--gold", gold]),
        "verdicts": (verdicts, ["audit", "--annotations", annotations, "--original", gold,
                                "--verdicts", verdicts]),
        "rankings": (rankings, ["sample", "--rankings", rankings]),
    }[kind]
    # The first row, (q1,d1) or q1, again at the end.
    rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(rows) + rows[0], encoding="utf-8")
    message = one_json_error("--config", workspace / "relanno.conf", *args, "--out", out)
    key = "field 'query_id': \"q1\"" + ("" if kind == "rankings" else ", field 'doc_id': \"d1\"")
    assert message == f"{path}:{len(rows) + 1}: {key} repeats line 1"
    assert mock_server.request_count == 0
    assert not out.exists()


def test_define_refuses_a_blank_example_before_any_request(workspace, mock_server):
    examples = write_lines(workspace / "examples.jsonl",
                           json.dumps({"query_id": "q1", "example": " "}))
    message = one_json_error(
        "--config", workspace / "relanno.conf", "define", "--queries",
        workspace / "queries.jsonl", "--examples", examples, "--out", workspace / "defined.jsonl")
    assert message == (f"{examples}:1: field 'example': "
                       "expected a string that is not blank, got \" \"")
    assert mock_server.request_count == 0
    assert not (workspace / "defined.jsonl").exists()


def test_audit_with_a_bad_verdict_writes_no_output(workspace):
    args, fragments = bad_input_case(workspace, "verdict that is Model")
    assert_one_line_json_error(run_cli(workspace, *args, expect_exit=1), *fragments)
    assert not (workspace / "d.jsonl").exists()


def test_ingest_of_a_lone_surrogate_writes_nothing(workspace):
    args, fragments = bad_input_case(workspace, "query text with a lone surrogate")
    assert_one_line_json_error(run_cli(workspace, *args, expect_exit=1), *fragments)
    assert not (workspace / "out").exists()


def test_rankings_read_from_a_pipe(workspace):
    """A pipe can be read only once: a bad row's line is known from that one read."""
    good = json.dumps({"query_id": "q1", "entries": [["d1", 0.9], ["d2", 0.1]]})
    bad = json.dumps({"query_id": 7, "entries": []})

    def sample_from_pipe(*lines, expect_exit):
        read_end, write_end = os.pipe()
        try:
            with os.fdopen(write_end, "w", encoding="utf-8") as f:
                f.write("".join(line + "\n" for line in lines))
            return run_cli(workspace, "sample", "--rankings", f"/dev/fd/{read_end}",
                           "--out", str(workspace / "pairs.jsonl"), "--k", "1",
                           "--per-side", "1", expect_exit=expect_exit)
        finally:
            os.close(read_end)

    assert_one_line_json_error(sample_from_pipe(good, "", bad, expect_exit=1),
                               ":3: field 'query_id'", "expected a string, got 7")
    assert json.loads(sample_from_pipe(good, "", expect_exit=0).output)["pairs"] == 2


@pytest.mark.parametrize("command", ["annotate", "distill"])
def test_query_without_a_definition_fails_before_any_request(workspace, mock_server, command):
    w = workspace
    with open(w / "queries.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps({"id": "q3", "text": "A question nobody defined?"}) + "\n")
    common = ["--queries", str(w / "queries.jsonl"), "--documents", str(w / "documents.jsonl"),
              "--variant", "point-ask-d", "--out", str(w / "out.jsonl")]
    if command == "annotate":
        pairs = write_lines(w / "pairs.jsonl", *(json.dumps({"query_id": q, "doc_id": d})
                                                for q, d in [("q1", "d1"), ("q1", "d2"),
                                                             ("q3", "d1")]))
        args = ["annotate", "--pairs", pairs, "--calibration", "ask", *common]
    else:
        annotations = write_lines(w / "ann.jsonl", *(json.dumps(
            {"query_id": q, "doc_id": "d1", "guess": "Yes", "relevance_score": 0.9,
             "confidence_ask": 0.9}) for q in ("q1", "q3")))
        (w / "split.json").write_text(json.dumps({
            "train_queries": ["q1", "q2", "q3"], "test_queries": [],
            "train_reports": ["r1", "r2"], "test_reports": [], "seed": 1}), encoding="utf-8")
        args = ["distill", "--annotations", annotations, "--split", str(w / "split.json"),
                "--manifest", str(w / "m.json"), *common]
    pair = "pair (q3,d1)" if command == "annotate" else "annotation (q3,d1)"
    assert_one_line_json_error(run_cli(workspace, *args, expect_exit=1), pair,
                               "query q3 has no relevance definition, which point-ask-d needs")
    assert mock_server.request_count == 0
    assert not (w / "out.jsonl").exists()


# The output flag of each command that takes two outputs, besides `--out`.
SECOND_OUTPUT = {"annotate": "--errors", "evaluate": "--proxy-out", "audit": "--table-out",
                 "distill": "--manifest"}


@pytest.mark.parametrize("name", sorted(SECOND_OUTPUT))
def test_two_outputs_naming_one_file_are_refused(workspace, mock_server, name):
    """One JSON error naming both flags, before any request is sent or output
    opened. Both writers would otherwise write the one file: annotate's
    interleaved, the others' the second replacing the first."""
    flag = SECOND_OUTPUT[name]
    args = loop_command(workspace, name)
    out = args[args.index("--out") + 1]
    if flag in args:
        args[args.index(flag) + 1] = out
    else:
        args += [flag, out]
    if name == "audit":  # the table is written only for verdicts
        args += ["--verdicts", write_lines(workspace / "verdicts.jsonl")]
    mock_server.reset_counters()
    assert_one_line_json_error(run_cli(workspace, *args, expect_exit=1),
                               f"--out and {flag} name the same file: {out}")
    assert mock_server.request_count == 0
    assert not os.path.exists(out)


@pytest.mark.parametrize("alias", ["relative path", "symlink", "hard link"])
def test_an_output_named_again_by_another_path_is_refused(workspace, monkeypatch, alias):
    out = workspace / "annotations.jsonl"
    out.write_text("kept\n", encoding="utf-8")
    other = workspace / "errors.jsonl"
    if alias == "relative path":
        monkeypatch.chdir(workspace)
        other = "annotations.jsonl"
    elif alias == "symlink":
        other.symlink_to(out)
    else:
        os.link(out, other)
    result = run_cli(workspace, *loop_command(workspace, "annotate"), "--errors", str(other),
                     expect_exit=1)
    assert_one_line_json_error(result, "--out and --errors name the same file")
    assert out.read_text(encoding="utf-8") == "kept\n"


def test_both_outputs_to_redirected_stdout_keep_every_row(workspace):
    """`--out /dev/stdout --errors /dev/stdout > file` names one of the
    process's descriptors twice, which each writer shares: the annotations and
    the ledger rows in input order, then the summary, all in the one file."""
    with open(workspace / "documents.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps({"id": "d5", "report_id": "r2", "text": "MALFORMEDDOC"}) + "\n")
    args = loop_command(workspace, "annotate")
    with open(args[args.index("--pairs") + 1], "a", encoding="utf-8") as f:
        f.write(json.dumps({"query_id": "q2", "doc_id": "d5"}) + "\n")
    args[args.index("--out") + 1] = "/dev/stdout"
    out = workspace / "out.txt"
    with open(out, "wb") as stdout:
        result = run_entry("--config", workspace / "relanno.conf", *args,
                           "--errors", "/dev/stdout", stdout=stdout)
    assert result.returncode == 0, result.stderr
    *rows, summary = map(json.loads, out.read_text(encoding="utf-8").splitlines())
    assert [(row["doc_id"], "error" in row) for row in rows] == [
        *((d, False) for d in ("d1", "d2", "d3", "d4") * 2), ("d5", True)]
    assert (summary["annotations"], summary["errors"]) == (8, 1)


def test_an_output_named_again_by_the_file_stdout_is_redirected_to_is_refused(workspace):
    """`--out /dev/stdout --errors x > x` used to write both from offset 0 of x."""
    args = loop_command(workspace, "annotate")
    args[args.index("--out") + 1] = "/dev/stdout"
    out = workspace / "out.txt"
    with open(out, "wb") as stdout:
        result = run_entry("--config", workspace / "relanno.conf", *args,
                           "--errors", out, stdout=stdout)
    assert result.returncode == 1
    [line] = result.stderr.splitlines()
    assert json.loads(line) == {"error": f"--out and --errors name the same file: {out}"}
    assert out.read_bytes() == b""


def test_both_outputs_to_dev_null_are_discarded(workspace):
    args = loop_command(workspace, "evaluate")
    args[args.index("--out") + 1] = os.devnull
    run_cli(workspace, *args, "--proxy-out", os.devnull)

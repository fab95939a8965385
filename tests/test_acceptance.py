"""Acceptance suite: oracle, property, and reference-arithmetic checks for the
whole toolkit, plus an end-to-end determinism run against the mock server."""

import hashlib
import json
import math
import os
import random
import time

import pytest
from click.testing import CliRunner

from relanno import corpus as corpus_mod
from relanno.annotator import Annotation, convert_confidence
from relanno.cli import main
from relanno.corpus import DocumentChunk, GoldLabel, Query, Split, split_train_test
from relanno.distill import LeakageError, export_training_data
from relanno.metrics import (
    aggregate_report,
    auroc,
    average_precision,
    brier,
    ece,
    f1_threshold_sweep,
    gain,
    kendall_tau,
    mean_average_precision,
    ndcg,
)
from relanno.prompting import (
    PromptVariant,
    format_pointwise_completion,
    parse_pointwise_response,
)
from conftest import run_entry
from mockserver import MockLLMServer

# --- brute-force oracles (independent re-derivations, kept deliberately dumb)

def oracle_ece(confidences, correct, bins=10):
    total = 0.0
    for b in range(bins):
        lo, hi = b / bins, (b + 1) / bins
        members = [i for i, c in enumerate(confidences)
                   if lo <= c < hi or (b == bins - 1 and c == 1.0)]
        if members:
            acc = sum(correct[i] for i in members) / len(members)
            avg = sum(confidences[i] for i in members) / len(members)
            total += len(members) / len(confidences) * abs(acc - avg)
    return total


def oracle_brier(confidences, correct):
    return sum((c - float(ok)) ** 2
               for c, ok in zip(confidences, correct)) / len(confidences)


def oracle_auroc(confidences, correct):
    pos = [c for c, ok in zip(confidences, correct) if ok]
    neg = [c for c, ok in zip(confidences, correct) if not ok]
    wins = sum(1.0 if p > n else (0.5 if p == n else 0.0)
               for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def oracle_ap(scores, positives):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, total = 0, 0.0
    for rank, i in enumerate(order, start=1):
        if positives[i]:
            hits += 1
            total += hits / rank
    return total / sum(positives)


def oracle_ndcg(predicted, gold):
    order = sorted(predicted, key=lambda d: (-predicted[d], d))

    def dcg(values):
        return sum(g / math.log2(i + 1) for i, g in enumerate(values, start=1))

    return dcg([gold.get(d, 0.0) for d in order]) / dcg(
        sorted(gold.values(), reverse=True))


def oracle_map(predicted, gold):
    ids = sorted(predicted)
    return oracle_ap([predicted[d] for d in ids],
                     [gold.get(d, 0.0) > 0 for d in ids])


def oracle_tau(rank_a, rank_b):
    pos_a = {d: i for i, d in enumerate(rank_a)}
    pos_b = {d: i for i, d in enumerate(rank_b)}
    concordant = discordant = 0
    for i, x in enumerate(rank_a):
        for y in rank_a[i + 1:]:
            prod = (pos_a[x] - pos_a[y]) * (pos_b[x] - pos_b[y])
            concordant += prod > 0
            discordant += prod < 0
    n = len(rank_a)
    return (concordant - discordant) / (n * (n - 1) / 2)


def test_metric_oracle_suite():
    """1,000 random instances of size <= 8 per metric, tolerance 1e-9, < 10 s."""
    rng = random.Random(1234)
    started = time.monotonic()
    for _ in range(1000):
        n = rng.randint(2, 8)
        conf = [round(rng.random(), 3) for _ in range(n)]
        correct = [rng.random() < 0.5 for _ in range(n)]
        assert ece(conf, correct, bins=10) == pytest.approx(
            oracle_ece(conf, correct), abs=1e-9)
        assert brier(conf, correct) == pytest.approx(oracle_brier(conf, correct), abs=1e-9)
        if any(correct) and not all(correct):
            assert auroc(conf, correct) == pytest.approx(
                oracle_auroc(conf, correct), abs=1e-9)
            assert average_precision(conf, correct) == pytest.approx(
                oracle_ap(conf, correct), abs=1e-9)

        predicted = {f"d{i}": rng.random() for i in range(n)}
        gold = {f"d{i}": rng.choice([0.0, 0.5, 1.0]) for i in range(n)}
        if any(gold.values()):
            run = {"q": (predicted, gold)}
            assert ndcg(run) == pytest.approx(
                oracle_ndcg(predicted, gold), abs=1e-9)
            assert mean_average_precision(run) == pytest.approx(
                oracle_map(predicted, gold), abs=1e-9)

        a, b = list(range(n)), list(range(n))
        rng.shuffle(a)
        rng.shuffle(b)
        assert kendall_tau(a, b) == pytest.approx(oracle_tau(a, b), abs=1e-9)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"PASS metric oracle suite in {elapsed:.2f}s")


def test_synthetic_calibration():
    """confidence ~ U(0,1), correct ~ Bernoulli(confidence), N = 10,000:
    a perfectly calibrated source has ECE ~ 0 and Brier = E[c(1-c)] = 1/6."""
    rng = random.Random(7)
    conf, correct = [], []
    for _ in range(10_000):
        c = rng.random()
        conf.append(c)
        correct.append(rng.random() < c)
    started = time.monotonic()
    observed_ece = ece(conf, correct, bins=10)
    observed_brier = brier(conf, correct)
    elapsed = time.monotonic() - started
    assert observed_ece < 0.02
    assert observed_brier == pytest.approx(1 / 6, abs=0.01)
    assert elapsed < 1.0
    print(f"PASS synthetic calibration: ece={observed_ece:.4f} "
          f"brier={observed_brier:.4f} in {elapsed:.3f}s")


def dimension_sub_metrics(unc, bin_, cal, info):
    """Sub-metric dict whose four dimension scores equal the given values."""
    return {"ap": unc / 100, "f1": bin_ / 100,
            "auroc": cal / 100, "ece": 1 - cal / 100, "brier": 1 - cal / 100,
            "ndcg": info / 100, "map": info / 100}


class TestReferenceArithmetic:
    def test_consistent_reference_rows(self):
        # two published rows whose averages agree with the mean of the four
        # dimension scores
        report = aggregate_report(**dimension_sub_metrics(41.60, 82.11, 91.35, 89.19))
        assert report["avg"] == pytest.approx(76.06, abs=0.005)
        report = aggregate_report(**dimension_sub_metrics(29.71, 45.27, 85.46, 74.16))
        assert report["avg"] == pytest.approx(58.65, abs=0.005)
        print("PASS reference rows 76.06 and 58.65")

    def test_headline_reference_row(self):
        # The published headline row reports dimension scores
        # (54.01, 86.32, 91.10, 88.48) with average 80.00, but the arithmetic
        # mean of those four numbers is 79.9775. Even if every dimension score
        # were rounded from its true value, the average could shift by at most
        # 0.005, which cannot bridge the 0.0225 gap; the published 80.00 is not
        # reproducible from its own row. This check states the criterion as
        # published and is expected to fail; see the sibling test for rows
        # where the same arithmetic does reproduce the published average.
        report = aggregate_report(**dimension_sub_metrics(54.01, 86.32, 91.10, 88.48))
        assert report["avg"] == pytest.approx(80.00, abs=0.005)

    def test_gains(self):
        partial = GoldLabel("q", "d", grade=0.75, binary="partial")
        assert gain(partial, "three_way") == 0.5
        assert gain(partial, "graded_1_3") == 0.75
        print("PASS gains")


def test_format_round_trips():
    """10,000 random triples: render then parse is the identity."""
    rng = random.Random(99)
    words = ["cites", "the", "table", "emissions", "figure", "policy", "water"]
    for _ in range(10_000):
        guess = rng.choice(["Yes", "No"])
        confidence = round(rng.random(), rng.randint(0, 8))
        reason = (" ".join(rng.choices(words, k=rng.randint(1, 6)))
                  if rng.random() < 0.5 else None)
        variant = PromptVariant(cot=reason is not None)
        parsed_guess, parsed_confidence, parsed_reason = parse_pointwise_response(
            format_pointwise_completion(guess, confidence, reason, variant=variant),
            variant)
        assert parsed_guess == guess
        assert parsed_confidence == pytest.approx(confidence, abs=1e-12)
        assert parsed_reason == reason
    print("PASS format round-trips (10000 pointwise)")


def test_calibration_extraction():
    """Tok confidence equals exp(logprob) to 1e-12; Yes/No scores from one
    confidence are complementary."""
    from relanno.prompting import extract_tok_confidence

    rng = random.Random(5)
    for _ in range(200):
        p = rng.uniform(1e-6, 1.0)
        tokens = [("[Guess]:", -0.01), (" Yes", math.log(p)),
                  ("\n[Confidence]:", -0.01), (" 0.9", -0.01)]
        assert extract_tok_confidence(tokens) == pytest.approx(p, abs=1e-12)

    for _ in range(1000):
        c = rng.random()
        total = sum(convert_confidence(c, guess, "ask_confidence", "ask_probability")
                    for guess in ("Yes", "No"))
        assert total == pytest.approx(1.0, abs=1e-12)
    print("PASS calibration extraction and complement rule")


def test_threshold_behavior():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(0, 30)
        scores = [rng.random() for _ in range(n)]
        relevant = [rng.random() < 0.5 for _ in range(n)]
        grid = sorted(rng.random() for _ in range(rng.randint(2, 8)))
        recalls = [recall for _, _, _, recall in f1_threshold_sweep(scores, relevant, grid)]
        assert recalls == sorted(recalls, reverse=True)

    fixtures = [
        ([0.9, 0.5, 0.1], [True, False, True]),
        ([0.2, 0.2], [True, True]),
        ([1.0, 0.0], [False, True]),
    ]
    for scores, relevant in fixtures:
        [(_, _, _, recall)] = f1_threshold_sweep(scores, relevant, [0.0])
        assert recall == 1.0
    print("PASS threshold monotonicity and theta=0 recall")


def test_split_hygiene():
    rng = random.Random(8)
    for _ in range(1000):
        n_q = rng.randint(2, 20)
        n_r = rng.randint(2, 20)
        split = split_train_test(
            [f"q{i}" for i in range(n_q)], [f"r{i}" for i in range(n_r)],
            rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95), rng.randint(0, 10**6))
        assert split.train_queries.isdisjoint(split.test_queries)
        assert split.train_reports.isdisjoint(split.test_reports)
        assert split.train_queries | split.test_queries == {
            f"q{i}" for i in range(n_q)}

    split = Split(train_queries={"q1"}, test_queries={"q2"},
                  train_reports={"r1"}, test_reports={"r2"}, seed=0)
    queries = {"q1": Query(id="q1", text="t"), "q2": Query(id="q2", text="t")}
    chunks = {"d1": DocumentChunk(id="d1", report_id="r1", text="x"),
              "d2": DocumentChunk(id="d2", report_id="r2", text="x")}
    variant = PromptVariant(with_definition=False)

    def ann(qid, did):
        return Annotation(qid, did, "Yes", 0.9, confidence_ask=0.9)

    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        out = f"{tmp}/train.jsonl"
        with pytest.raises(LeakageError):
            export_training_data([ann("q2", "d1")], queries, chunks, split,
                                 variant, out)
        with pytest.raises(LeakageError):
            export_training_data([ann("q1", "d2")], queries, chunks, split,
                                 variant, out)
    print("PASS split hygiene (1000 draws) and leakage guard")


# SHA-256 of every output of the fixture loop (`run_pipeline`). A change that
# alters an output on purpose updates its digest here and names it in CHANGES.md.
GOLDEN_SHA256 = {
    "rankings.jsonl": "9cf761b1bf15353d48f3cf01ea608a1f3fc75dfe3ce550da3c87b098f8e5782e",
    "pairs.jsonl": "b92744c0d400428c0427bed260be511cb9b6f8327de6115f9e2c2d852adfd1d0",
    "defined.jsonl": "72cb7c77882b27421cd3615ab0597b02b901a4285822eb00a2d819abf748c554",
    "annotations.jsonl": "deb53a458b6c62d764622544c8a08d3e79ea27601735c3a0e6452a05a5c4362e",
    "report.json": "697b8439f5a770144fd62cae71589936fa6b689c9ab413ac518375fd85dd35d9",
    "disagreements.jsonl": "632ff3d6345b2dcc173d845005c8b8fcfcdeb2d44a94b366fe10e7762a09bd12",
    "train.jsonl": "0aff7e1dd00915d05daddedda56ee1e0d31505a91be72b67ff36e76872b5648d",
    "manifest.json": "2772c2ff6cc2c2e48272c0f672e1fd322733000bede686324694dac1e470cf1d",
}


def run_pipeline(tmp_path, mock_server, fixture_queries, fixture_chunks,
                 fixture_gold, tag, parallelism, own_process=False):
    """The fixture loop, ingest -> rank -> sample -> define -> annotate ->
    evaluate -> audit -> distill, with a private cache: the bytes of each output.
    With `own_process`, each command runs in its own process, as `relanno` does."""
    work = tmp_path / tag
    work.mkdir()
    corpus_mod.write_jsonl(work / "queries.jsonl", fixture_queries)
    corpus_mod.write_jsonl(work / "documents.jsonl", fixture_chunks)
    corpus_mod.write_jsonl(work / "gold.jsonl", (
        {"query_id": g.query_id, "doc_id": g.doc_id, "grade": g.grade,
         "binary": g.binary, "uncertain": g.uncertain} for g in fixture_gold))
    config = work / "relanno.conf"
    config.write_text(f"base_url={mock_server.base_url}\n"
                      f"cache_dir={work / 'cache'}\nbackoff_base=0.01\n",
                      encoding="utf-8")
    ingested = work / "ingested"

    runner = CliRunner()

    def invoke(*args):
        if own_process:
            result = run_entry("--config", config, *args)
            assert result.returncode == 0, result.stderr
        else:
            result = runner.invoke(main, ["--config", str(config), *map(str, args)])
            assert result.exit_code == 0, result.output

    invoke("ingest", "--queries", work / "queries.jsonl",
           "--documents", work / "documents.jsonl", "--gold", work / "gold.jsonl",
           "--out-dir", ingested, "--min-tokens", "1",
           "--query-test-fraction", "0.5", "--report-test-fraction", "0.5")
    invoke("rank", "--queries", ingested / "queries.jsonl",
           "--documents", ingested / "documents.jsonl", "--out", work / "rankings.jsonl")
    invoke("sample", "--rankings", work / "rankings.jsonl",
           "--out", work / "pairs.jsonl", "--k", "2", "--per-side", "2", "--seed", "11")
    invoke("define", "--queries", ingested / "queries.jsonl",
           "--out", work / "defined.jsonl", "--parallelism", parallelism)
    invoke("annotate", "--pairs", work / "pairs.jsonl",
           "--queries", work / "defined.jsonl",
           "--documents", ingested / "documents.jsonl",
           "--out", work / "annotations.jsonl",
           "--calibration", "both", "--parallelism", parallelism)
    invoke("evaluate", "--annotations", work / "annotations.jsonl",
           "--gold", work / "gold.jsonl", "--out", work / "report.json")
    invoke("audit", "--annotations", work / "annotations.jsonl",
           "--original", work / "gold.jsonl", "--out", work / "disagreements.jsonl")
    # distill refuses test-split data: keep train queries x train reports.
    split = corpus_mod.read_json(ingested / "split.json", Split)
    report_of = {c.id: c.report_id
                 for c in corpus_mod.read_jsonl(ingested / "documents.jsonl", DocumentChunk)}
    corpus_mod.write_jsonl(work / "train_annotations.jsonl", (
        a for a in corpus_mod.read_jsonl(work / "annotations.jsonl", Annotation)
        if a.query_id in split.train_queries and report_of[a.doc_id] in split.train_reports))
    invoke("distill", "--annotations", work / "train_annotations.jsonl",
           "--queries", work / "defined.jsonl",
           "--documents", ingested / "documents.jsonl",
           "--split", ingested / "split.json", "--out", work / "train.jsonl",
           "--manifest", work / "manifest.json", "--variant", "point-ask-d")
    return {name: (work / name).read_bytes()
            for name in ("rankings.jsonl", "pairs.jsonl", "defined.jsonl",
                         "annotations.jsonl", "report.json", "disagreements.jsonl",
                         "train.jsonl", "manifest.json")}


def test_end_to_end_determinism(tmp_path, mock_server, fixture_queries,
                                fixture_chunks, fixture_gold):
    """Every output of the fixture loop matches its pinned SHA-256, in repeated
    runs and at parallelism 1 and 8; whole check < 30 s."""
    mock_server.reset_counters()
    started = time.monotonic()
    runs = [
        run_pipeline(tmp_path, mock_server, fixture_queries, fixture_chunks,
                     fixture_gold, tag, parallelism)
        for tag, parallelism in (("serial_a", 1), ("serial_b", 1), ("wide", 8))
    ]
    elapsed = time.monotonic() - started
    for outputs in runs:
        assert {name: hashlib.sha256(blob).hexdigest()
                for name, blob in outputs.items()} == GOLDEN_SHA256
    report = json.loads(runs[0]["report.json"])
    assert set(report) == {"unc", "bin", "cal", "info", "avg", "raw"}
    assert elapsed < 30.0
    print(f"PASS end-to-end goldens in {elapsed:.2f}s")


def test_fixture_loop_in_own_processes_writes_the_golden_bytes(
        tmp_path, mock_server, fixture_queries, fixture_chunks, fixture_gold):
    """The loop as `relanno` runs it, each command ending its own process:
    every output is whole, and the cache is closed (no `-wal` or `-shm` left)."""
    outputs = run_pipeline(tmp_path, mock_server, fixture_queries, fixture_chunks,
                           fixture_gold, "processes", 8, own_process=True)
    assert {name: hashlib.sha256(blob).hexdigest()
            for name, blob in outputs.items()} == GOLDEN_SHA256
    assert sorted(os.listdir(tmp_path / "processes" / "cache")) == ["responses.sqlite3"]


def test_annotate_with_retries_is_byte_identical_at_parallelism_1_and_8(tmp_path,
                                                                        fixture_queries):
    """Three one-shot 429s among 20 pairs, some answered late: the same
    annotations.jsonl bytes whether one or eight requests are in flight."""
    throttled = {2, 9, 15}
    rules = tmp_path / "rules"
    rules.mkdir()
    (rules / "rules.json").write_text(json.dumps([
        {"match": f"DOC{i:02d}X",
         "text": f"[Guess]: {'Yes' if i % 2 else 'No'}\n[Confidence]: 0.{50 + 2 * i}",
         **({"status_sequence": [429, 200]} if i in throttled else {}),
         **({"delay_ms": 20} if i % 3 == 0 else {})}
        for i in range(20)]), encoding="utf-8")
    corpus_mod.write_jsonl(tmp_path / "queries.jsonl", fixture_queries)
    corpus_mod.write_jsonl(tmp_path / "documents.jsonl", [
        DocumentChunk(id=f"d{i}", report_id="r1", text=f"DOC{i:02d}X passage")
        for i in range(20)])
    corpus_mod.write_jsonl(tmp_path / "pairs.jsonl", (
        {"query_id": "q1", "doc_id": f"d{i}"} for i in range(20)))
    (tmp_path / "relanno.conf").write_text("cache_dir=\nbackoff_base=0.05\n",
                                           encoding="utf-8")
    outputs = {}
    with MockLLMServer(fixtures_dir=rules) as server:
        for parallelism in (1, 8):
            server.reset_counters()  # each run meets the same three 429s
            out = tmp_path / f"annotations_{parallelism}.jsonl"
            result = CliRunner().invoke(main, [
                "--config", str(tmp_path / "relanno.conf"), "annotate",
                "--pairs", str(tmp_path / "pairs.jsonl"),
                "--queries", str(tmp_path / "queries.jsonl"),
                "--documents", str(tmp_path / "documents.jsonl"),
                "--out", str(out), "--calibration", "both",
                "--parallelism", str(parallelism)],
                env={"RELANNO_BASE_URL": server.base_url})
            assert result.exit_code == 0, result.output
            summary = json.loads(result.stdout)
            assert (summary["annotations"], summary["retries"], summary["backoff_s"]) == \
                (20, 3, 0.15)
            outputs[parallelism] = out.read_bytes()
    assert outputs[1] == outputs[8]


# --- byte pins for outputs outside the fixture loop --------------------------
# SHA-256 of outputs that `GOLDEN_SHA256` does not cover: ingest on chunks that
# merge and stay short, an audit table with an empty stratum (its accuracy is
# null) and one with no annotations (no high_conf_fraction), and a sweep's CSV.
# A change that alters one on purpose updates its digest here and says so in
# CHANGES.md.
OUTPUT_SHA256 = {
    "ingested/queries.jsonl":
        "0e06f94ea87987814833fc6f7878ade83c6de0de1b77a0e6b1258f2e76105022",
    "ingested/documents.jsonl":
        "ac32123ca2fba85d8f6d5c49a11f82da68e97bdabdd3cfc9ff402fd6c428a9bb",
    "ingested/split.json":
        "cfd99d8458efa439e9636d1e91fee9940d3fa69c1419f8034d03f5150af60d2e",
    "disagreements.jsonl":
        "6c92794941122871a750006e884e5870698732ad259dffb8ed84803262c37795",
    "table.json": "cab1c6c0345ba0d13f5aef691b82fae7ac5def18b7a81651e7b95362256d0101",
    "empty_table.json": "0e5696f2fc9762aba157101d1da99d22ab13379db7d142f2a143636ea8f510c4",
    "sweep.csv": "9c2930dc951f34fe0a53772ef258210053e496507c4bb2434f31e935b89b3113",
}

PIN_DOCUMENTS = [
    ("a1", "r1", "Scope three emissions rose"),
    ("a2", "r1", "sharply"),
    ("a3", "r1", "Water use fell by ten percent overall"),
    ("a4", "r1", "Ends."),
    ("b1", "r2", "The"),
    ("b2", "r2", "board"),
    ("b3", "r2", "meets quarterly with auditors"),
    ("c1", "r3", "Short"),
]
# (query, doc, model guess, confidence, original label, auditor's verdict)
PIN_JUDGED = [
    ("q1", "a1", "Yes", 0.97, "irrelevant", "model"),
    ("q1", "a3", "No", 0.6, "relevant", "original"),
    ("q1", "b1", "Yes", 0.99, "irrelevant", "original"),
    ("q2", "a1", "No", 0.92, "relevant", "model"),
    ("q2", "a3", "Yes", 0.8, "irrelevant", "model"),
    ("q2", "b1", "Yes", 0.7, "relevant", None),
]


def run_pinned_commands(work):
    """ingest, audit (twice) and sweep on the pin inputs in their own
    processes: each command's stdout and stderr, by name."""
    corpus_mod.write_jsonl(work / "queries.jsonl", [
        Query(id="q1", text="What does the firm emit?"),
        Query(id="q2", text="How much water is used?"),
        Query(id="q3", text="Who audits the board?")])
    corpus_mod.write_jsonl(work / "documents.jsonl", (
        DocumentChunk(id=doc_id, report_id=report_id, text=text)
        for doc_id, report_id, text in PIN_DOCUMENTS))
    corpus_mod.write_jsonl(work / "ingest_gold.jsonl", [
        GoldLabel("q1", "a1", grade=1.0, binary="relevant"),
        GoldLabel("q1", "a2", grade=0.0, binary="irrelevant"),
        GoldLabel("q2", "b3", grade=0.5, binary="partial")])
    corpus_mod.write_jsonl(work / "annotations.jsonl", (
        Annotation(q, d, guess, conf if guess == "Yes" else 1 - conf,
                   confidence_ask=conf, variant="point-ask")
        for q, d, guess, conf, _, _ in PIN_JUDGED))
    corpus_mod.write_jsonl(work / "gold.jsonl", (
        GoldLabel(q, d, grade=float(label == "relevant"), binary=label)
        for q, d, _, _, label, _ in PIN_JUDGED))
    corpus_mod.write_jsonl(work / "verdicts.jsonl", (
        {"query_id": q, "doc_id": d, "verdict": verdict}
        for q, d, _, _, _, verdict in PIN_JUDGED if verdict))
    (work / "none.jsonl").write_text("", encoding="utf-8")
    commands = {
        "ingest": ["ingest", "--queries", "queries.jsonl", "--documents", "documents.jsonl",
                   "--gold", "ingest_gold.jsonl", "--out-dir", "ingested",
                   "--min-tokens", "5", "--query-test-fraction", "0.34",
                   "--report-test-fraction", "0.5", "--seed", "5"],
        "audit": ["audit", "--annotations", "annotations.jsonl", "--original", "gold.jsonl",
                  "--out", "disagreements.jsonl", "--per-bin", "5", "--seed", "3",
                  "--verdicts", "verdicts.jsonl", "--table-out", "table.json"],
        "empty_audit": ["audit", "--annotations", "none.jsonl", "--original", "gold.jsonl",
                        "--out", "no_disagreements.jsonl", "--per-bin", "1", "--seed", "3",
                        "--verdicts", "none.jsonl", "--table-out", "empty_table.json"],
        "sweep": ["sweep", "--annotations", "annotations.jsonl", "--gold", "gold.jsonl",
                  "--out", "sweep.csv", "--steps", "11"],
    }
    printed = {}
    for name, args in commands.items():
        result = run_entry(*args, cwd=work)
        assert result.returncode == 0, result.stderr
        printed[name] = (result.stdout, result.stderr)
    return printed


def test_outputs_outside_the_fixture_loop_match_their_pins(tmp_path):
    printed = run_pinned_commands(tmp_path)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in OUTPUT_SHA256} == OUTPUT_SHA256
    # What ingest logs about the merge: each short chunk, then the moved gold.
    assert [json.loads(line)["msg"] for line in printed["ingest"][1].splitlines()] == [
        "chunk a4 of report r1 remains short (1 < 5 tokens)",
        "chunk c1 of report r3 remains short (1 < 5 tokens)",
        "gold labels on chunks merged into a neighbour: (q1,a2) -> a1, (q2,b3) -> b1",
    ]
    assert json.loads(printed["ingest"][0]) == {
        "queries": 3, "documents": 5, "merged_from": 8, "out_dir": "ingested"}
    assert json.loads(printed["sweep"][0]) == {"points": 11, "out": "sweep.csv"}

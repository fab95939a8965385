"""Command-line interface exposing the annotation pipeline as subcommands."""

from __future__ import annotations

import csv
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import click

from . import corpus as corpus_mod
from . import distill as distill_mod
from .annotator import (
    annotate_corpus,
    annotation_from_dict,
    annotation_to_dict,
    primary_confidence,
    relevant_info_proxy,
)
from .config import load_config
from .distill import LeakageError
from .gateway import CapabilityError, GatewayConfig, LLMGateway, TransportError
from .metrics import (
    CalibrationInput,
    aggregate_report,
    auroc,
    average_precision,
    binarize_gold,
    brier,
    ece,
    f1_binary,
    f1_threshold_sweep,
    gain_mapping,
    kendall_tau,
    mean_average_precision,
    ndcg,
)
from .prompting import (
    ParseError,
    PromptVariant,
    parse_definition_response,
    render_definition_prompt,
    render_improved_definition_prompt,
)
from .retrieval import load_rankings, rank_documents, save_rankings
from .sampler import (
    balanced_sample,
    disagreement_accuracy_table,
    disagreement_from_dict,
    disagreement_to_dict,
    stratify_disagreements,
)
from .gateway import ChatRequest

log = logging.getLogger(__name__)


def _gateway(config: dict) -> LLMGateway:
    return LLMGateway(GatewayConfig(
        base_url=config["base_url"],
        chat_model=config["chat_model"],
        embedding_model=config["embedding_model"],
        api_key_env=config["api_key_env"],
        cache_dir=config["cache_dir"] or None,
        max_attempts=int(config["max_attempts"]),
        backoff_base=float(config["backoff_base"]),
        embed_batch_size=int(config["embed_batch_size"]),
    ))


class JsonLogFormatter(logging.Formatter):
    """One JSON object per log line, whatever characters the message holds."""

    def format(self, record: logging.LogRecord) -> str:
        return json.dumps({"level": record.levelname, "logger": record.name,
                           "msg": record.getMessage()})


def _fail(message: str) -> None:
    click.echo(json.dumps({"error": message}), err=True)
    sys.exit(1)


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="KEY=VALUE config file; env vars RELANNO_<KEY> override it.")
@click.option("--verbose", is_flag=True, help="Log at DEBUG level.")
@click.pass_context
def main(ctx, config_path, verbose):
    """Relevance annotation toolkit: annotate (query, document) pairs with
    calibrated confidence scores and evaluate annotators and retrievers."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(JsonLogFormatter())
    logging.basicConfig(level=logging.DEBUG if verbose else logging.INFO,
                        handlers=[handler])
    ctx.obj = load_config(config_path)


@main.command()
@click.option("--queries", "queries_path", required=True, type=click.Path(exists=True))
@click.option("--documents", "documents_path", required=True, type=click.Path(exists=True))
@click.option("--gold", "gold_path", type=click.Path(exists=True), default=None)
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--min-tokens", type=int, default=None,
              help="Merge adjacent chunks shorter than this many tokens.")
@click.option("--query-test-fraction", type=float, default=None)
@click.option("--report-test-fraction", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.pass_obj
def ingest(config, queries_path, documents_path, gold_path, out_dir,
           min_tokens, query_test_fraction, report_test_fraction, seed):
    """Validate a corpus, merge short chunks, and write a leakage-free split."""
    queries = corpus_mod.load_queries(queries_path)
    chunks = corpus_mod.load_chunks(documents_path)
    gold = corpus_mod.load_gold(gold_path) if gold_path else None

    min_tokens = min_tokens if min_tokens is not None else int(config["min_tokens"])
    merged = corpus_mod.merge_short_chunks(chunks, min_tokens)
    for warning in merged.warnings:
        log.warning("%s", warning)

    report = corpus_mod.validate_corpus(queries, merged.chunks, gold)
    if not report.ok:
        for finding in report.findings:
            log.error("%s", finding)
        _fail(f"corpus validation failed with {len(report.findings)} finding(s)")

    split = corpus_mod.split_train_test(
        [q.id for q in queries],
        [c.report_id for c in merged.chunks],
        query_test_fraction if query_test_fraction is not None
        else float(config["query_test_fraction"]),
        report_test_fraction if report_test_fraction is not None
        else float(config["report_test_fraction"]),
        seed if seed is not None else int(config["seed"]),
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus_mod.save_queries(out / "queries.jsonl", queries)
    corpus_mod.save_chunks(out / "documents.jsonl", merged.chunks)
    corpus_mod.save_split(out / "split.json", split)
    click.echo(json.dumps({
        "queries": len(queries), "documents": len(merged.chunks),
        "merged_from": len(chunks), "out_dir": str(out),
    }))


@main.command()
@click.option("--queries", "queries_path", required=True, type=click.Path(exists=True))
@click.option("--documents", "documents_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.pass_obj
def rank(config, queries_path, documents_path, out_path):
    """Rank documents per query with the dense embedding retriever."""
    queries = corpus_mod.load_queries(queries_path)
    chunks = corpus_mod.load_chunks(documents_path)
    try:
        gateway = _gateway(config)
        rankings = rank_documents(queries, chunks, gateway)
    except (TransportError, ValueError) as exc:
        _fail(str(exc))
    save_rankings(out_path, rankings)
    click.echo(json.dumps({
        "rankings": len(rankings), "embedded_texts": gateway.embedded_texts,
        "network_calls": gateway.network_calls, "retries": gateway.retry_count,
        "out": out_path,
    }))


@main.command()
@click.option("--rankings", "rankings_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--k", type=int, default=None)
@click.option("--per-side", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--fill-policy", type=click.Choice(["strict", "fill"]), default="strict")
@click.pass_obj
def sample(config, rankings_path, out_path, k, per_side, seed, fill_policy):
    """Sample balanced (query, document) pairs inside/outside the top-k."""
    k = k if k is not None else int(config["k"])
    per_side = per_side if per_side is not None else int(config["per_side"])
    seed = seed if seed is not None else int(config["seed"])
    rows = []
    for ranking in load_rankings(rankings_path):
        result = balanced_sample(ranking, k=k, per_side=per_side, seed=seed,
                                 fill_policy=fill_policy)
        for warning in result.warnings:
            log.warning("%s", warning)
        rows.extend(asdict(p) for p in result.pairs)
    corpus_mod.write_jsonl(out_path, rows)
    click.echo(json.dumps({"pairs": len(rows), "out": out_path}))


@main.command()
@click.option("--queries", "queries_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--examples", "examples_path", type=click.Path(exists=True), default=None,
              help="JSONL of {query_id, example}; triggers improved definitions.")
@click.pass_obj
def define(config, queries_path, out_path, examples_path):
    """Draft (or improve) a relevance definition for each query."""
    queries = corpus_mod.load_queries(queries_path)
    examples_by_query: dict[str, list[str]] = {}
    for row in corpus_mod.read_jsonl(examples_path) if examples_path else []:
        examples_by_query.setdefault(row["query_id"], []).append(row["example"])
    gateway = _gateway(config)
    for query in queries:
        gold_examples = examples_by_query.get(query.id)
        if gold_examples:
            prompt = render_improved_definition_prompt(query.text, gold_examples)
            provenance = "improved"
        else:
            prompt = render_definition_prompt(query.text)
            provenance = "generated"
        try:
            response = gateway.chat_complete(ChatRequest(
                model=config["chat_model"], user=prompt))
            query.definition = parse_definition_response(response.text, provenance)
        except (TransportError, ParseError) as exc:
            _fail(f"definition generation failed for query {query.id}: {exc}")
    corpus_mod.save_queries(out_path, queries)
    click.echo(json.dumps({"queries": len(queries), "out": out_path}))


@main.command()
@click.option("--pairs", "pairs_path", required=True, type=click.Path(exists=True))
@click.option("--queries", "queries_path", required=True, type=click.Path(exists=True))
@click.option("--documents", "documents_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--errors", "errors_path", type=click.Path(), default=None)
@click.option("--variant", default=None, help="Prompt variant label, e.g. point-ask-d.")
@click.option("--calibration", type=click.Choice(["ask", "tok", "both"]), default=None)
@click.option("--parallelism", type=int, default=1)
@click.pass_obj
def annotate(config, pairs_path, queries_path, documents_path, out_path,
             errors_path, variant, calibration, parallelism):
    """Annotate pairs pointwise with calibrated relevance scores."""
    queries = {q.id: q for q in corpus_mod.load_queries(queries_path)}
    chunks = {c.id: c for c in corpus_mod.load_chunks(documents_path)}
    pairs = [
        corpus_mod.QueryDocPair(
            query_id=row["query_id"], doc_id=row["doc_id"],
            retriever_rank=row.get("retriever_rank"),
            split=row.get("split", "unassigned"))
        for row in corpus_mod.read_jsonl(pairs_path)
    ]
    calibration = calibration or config["calibration"]
    try:
        variant = PromptVariant.from_label(variant or config["variant"])
        gateway = _gateway(config)
        result = annotate_corpus(
            pairs, queries, chunks, variant, gateway,
            calibration=calibration, model=config["chat_model"],
            parallelism=parallelism)
    except (TransportError, CapabilityError, KeyError, ValueError) as exc:
        _fail(str(exc))
    corpus_mod.write_jsonl(out_path, (annotation_to_dict(a) for a in result.annotations))
    if errors_path:
        corpus_mod.write_jsonl(errors_path, (asdict(e) for e in result.errors))
    click.echo(json.dumps({
        "annotations": len(result.annotations), "errors": len(result.errors),
        "network_calls": gateway.network_calls, "retries": gateway.retry_count,
        "out": out_path,
    }))


@main.command("distill")
@click.option("--annotations", "annotations_path", required=True,
              type=click.Path(exists=True))
@click.option("--queries", "queries_path", required=True, type=click.Path(exists=True))
@click.option("--documents", "documents_path", required=True, type=click.Path(exists=True))
@click.option("--split", "split_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--manifest", "manifest_path", required=True, type=click.Path())
@click.option("--variant", default=None)
@click.pass_obj
def distill_cmd(config, annotations_path, queries_path, documents_path,
                split_path, out_path, manifest_path, variant):
    """Export teacher annotations as chat-format training records."""
    annotations = [annotation_from_dict(r)
                   for r in corpus_mod.read_jsonl(annotations_path)]
    queries = {q.id: q for q in corpus_mod.load_queries(queries_path)}
    chunks = {c.id: c for c in corpus_mod.load_chunks(documents_path)}
    split = corpus_mod.load_split(split_path)
    try:
        variant = PromptVariant.from_label(variant or config["variant"])
        manifest = distill_mod.export_training_data(
            annotations, queries, chunks, split, variant, out_path,
            teacher_model=config["chat_model"])
    except (LeakageError, KeyError, ValueError) as exc:
        _fail(str(exc))
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(manifest.as_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    click.echo(json.dumps({"records": manifest.count, "skipped": manifest.skipped,
                           "out": out_path}))


def _build_run(annotation_rows: list[dict], gold: list[corpus_mod.GoldLabel],
               scheme: str) -> dict:
    if scheme == "graded_1_3":
        gains = {(g.query_id, g.doc_id): g.grade for g in gold}
    else:
        mapping = gain_mapping(scheme)
        gains = {(g.query_id, g.doc_id): mapping(g.binary) for g in gold}
    run: dict = {}
    for row in annotation_rows:
        predicted, gold_gains = run.setdefault(row["query_id"], ({}, {}))
        key = (row["query_id"], row["doc_id"])
        predicted[row["doc_id"]] = float(row["relevance_score"])
        if key in gains:
            gold_gains[row["doc_id"]] = gains[key]
    return run


@main.command()
@click.option("--annotations", "annotations_path", required=True,
              type=click.Path(exists=True))
@click.option("--gold", "gold_path", required=True, type=click.Path(exists=True))
@click.option("--scheme", type=click.Choice(["three_way", "graded_1_3", "binary"]),
              default="three_way")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--proxy-out", type=click.Path(), default=None,
              help="Also write per-query mean relevance scores as CSV.")
@click.option("--ece-bins", type=int, default=None)
@click.option("--k", type=int, default=None, help="Cutoff for nDCG@k / MAP@k.")
@click.pass_obj
def evaluate(config, annotations_path, gold_path, scheme, out_path,
             proxy_out, ece_bins, k):
    """Score annotations on the four dimensions and write report.json."""
    rows = corpus_mod.read_jsonl(annotations_path)
    gold = corpus_mod.load_gold(gold_path)
    gold_by_key = {(g.query_id, g.doc_id): g for g in gold}
    scored = [r for r in rows if (r["query_id"], r["doc_id"]) in gold_by_key]
    if not scored:
        _fail("no annotation overlaps the gold labels")

    confidences, correct, predicted_rel, gold_rel, uncertainty_scores, uncertain = \
        [], [], [], [], [], []
    for row in scored:
        g = gold_by_key[(row["query_id"], row["doc_id"])]
        is_relevant = (binarize_gold(g.binary) if g.binary is not None
                       else g.grade > 0)
        pred = row["guess"] == "Yes"
        conf = primary_confidence(row.get("confidence_ask"), row.get("confidence_tok"))
        confidences.append(conf)
        correct.append(pred == is_relevant)
        predicted_rel.append(pred)
        gold_rel.append(is_relevant)
        uncertainty_scores.append(1.0 - conf)
        uncertain.append(g.uncertain)

    calibration = CalibrationInput(confidences=confidences, correct=correct)
    run = _build_run(scored, gold, scheme)
    sub = {
        "ece": ece(calibration, bins=ece_bins or int(config["ece_bins"])),
        "brier": brier(calibration),
        "auroc": auroc(calibration),
        "f1": f1_binary(predicted_rel, gold_rel),
        "ndcg": ndcg(run, k=k),
        "map": mean_average_precision(run, k=k),
        "ap": average_precision(uncertainty_scores, uncertain),
    }
    report = aggregate_report(sub)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(report.rounded(), f, indent=2, sort_keys=True)
        f.write("\n")
    if proxy_out:
        annotations = [annotation_from_dict(r) for r in rows]
        with open(proxy_out, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["query_id", "mean_relevance_score"])
            for query_id, mean in relevant_info_proxy(annotations):
                writer.writerow([query_id, f"{mean:.6f}"])
    click.echo(json.dumps(report.rounded()))


@main.command()
@click.option("--annotations", "annotations_path", required=True,
              type=click.Path(exists=True))
@click.option("--original", "original_path", required=True, type=click.Path(exists=True),
              help="gold.jsonl-style file with the original binary labels.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--per-bin", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--verdicts", "verdicts_path", type=click.Path(exists=True), default=None,
              help="JSONL of {query_id, doc_id, verdict: model|original}.")
@click.option("--table-out", type=click.Path(), default=None)
@click.option("--cutoff", type=float, default=0.95)
@click.pass_obj
def audit(config, annotations_path, original_path, out_path, per_bin, seed,
          verdicts_path, table_out, cutoff):
    """Stratify model-vs-original disagreements; optionally score an audit."""
    rows = corpus_mod.read_jsonl(annotations_path)
    for row in rows:
        row["confidence"] = primary_confidence(row.get("confidence_ask"),
                                               row.get("confidence_tok"))
    original = {
        (g.query_id, g.doc_id): ("relevant" if binarize_gold(g.binary) or
                                 (g.binary is None and g.grade > 0) else "irrelevant")
        for g in corpus_mod.load_gold(original_path)
    }
    sampled, warnings = stratify_disagreements(
        rows, original,
        per_bin=per_bin if per_bin is not None else int(config["per_bin"]),
        seed=seed if seed is not None else int(config["seed"]))
    for warning in warnings:
        log.warning("%s", warning)
    corpus_mod.write_jsonl(out_path, (disagreement_to_dict(d) for d in sampled))

    if verdicts_path:
        verdict_by_key = {
            (row["query_id"], row["doc_id"]): row["verdict"]
            for row in corpus_mod.read_jsonl(verdicts_path)
        }
        audited = [
            (d, verdict_by_key[(d.query_id, d.doc_id)])
            for d in sampled if (d.query_id, d.doc_id) in verdict_by_key
        ]
        table = disagreement_accuracy_table(
            audited, cutoff=cutoff,
            all_confidences=[row["confidence"] for row in rows])
        serializable = {
            stratum: {name: asdict(cell) for name, cell in cells.items()}
            for stratum, cells in table.items() if isinstance(cells, dict)
        }
        serializable["cutoff"] = table["cutoff"]
        if "high_conf_fraction" in table:
            serializable["high_conf_fraction"] = table["high_conf_fraction"]
        destination = table_out or out_path + ".table.json"
        with open(destination, "w", encoding="utf-8") as f:
            json.dump(serializable, f, indent=2, sort_keys=True)
            f.write("\n")
    click.echo(json.dumps({"disagreements": len(sampled), "out": out_path}))


@main.command()
@click.option("--annotations", "annotations_path", required=True,
              type=click.Path(exists=True))
@click.option("--gold", "gold_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--steps", type=int, default=21, help="Grid points between 0 and 1.")
@click.pass_obj
def sweep(config, annotations_path, gold_path, out_path, steps):
    """F1 as a function of the relevance-score retrieval threshold."""
    rows = corpus_mod.read_jsonl(annotations_path)
    gold_by_key = {(g.query_id, g.doc_id): g for g in corpus_mod.load_gold(gold_path)}
    scores, relevant = [], []
    for row in rows:
        g = gold_by_key.get((row["query_id"], row["doc_id"]))
        if g is None:
            continue
        scores.append(float(row["relevance_score"]))
        relevant.append(binarize_gold(g.binary) if g.binary is not None
                        else g.grade > 0)
    if not scores:
        _fail("no annotation overlaps the gold labels")
    grid = [i / (steps - 1) for i in range(steps)] if steps > 1 else [0.0]
    points = f1_threshold_sweep(scores, relevant, grid)
    with open(out_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["theta", "f1", "precision", "recall"])
        for p in points:
            writer.writerow([f"{p.theta:.4f}", f"{p.f1:.6f}",
                             f"{p.precision:.6f}", f"{p.recall:.6f}"])
    click.echo(json.dumps({"points": len(points), "out": out_path}))


@main.command()
@click.option("--rankings-a", required=True, type=click.Path(exists=True))
@click.option("--rankings-b", required=True, type=click.Path(exists=True))
@click.pass_obj
def benchmark(config, rankings_a, rankings_b):
    """Rank correlation (Kendall's tau) between two rankings files."""
    a = {r.query_id: r for r in load_rankings(rankings_a)}
    b = {r.query_id: r for r in load_rankings(rankings_b)}
    shared = sorted(set(a) & set(b))
    if not shared:
        _fail("rankings files share no query ids")
    taus = {}
    for query_id in shared:
        try:
            taus[query_id] = kendall_tau(a[query_id].doc_ids(), b[query_id].doc_ids())
        except ValueError as exc:
            _fail(f"query {query_id}: {exc}")
    mean_tau = sum(taus.values()) / len(taus)
    click.echo(json.dumps({"mean_kendall_tau": mean_tau, "per_query": taus},
                          sort_keys=True))


if __name__ == "__main__":
    main()

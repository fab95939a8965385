"""Command-line interface exposing the annotation pipeline as subcommands."""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import os
import sqlite3
import sys
from contextlib import closing
from pathlib import Path
from typing import NoReturn

import click

from . import corpus as corpus_mod
from . import distill as distill_mod
from .annotator import (Annotation, AnnotationError, annotate_corpus, primary_confidence,
                        relevant_info_proxy)
from .config import CALIBRATIONS, KEYS, check_number, load_config
from .corpus import (DefinitionExample, DocumentChunk, GoldLabel, Query, QueryDocPair,
                     RelevanceDefinition, RowWriter, Split, check_distinct_outputs, read_json,
                     read_jsonl, write_csv, write_json, write_jsonl, written_in_place)
from .gateway import LLMGateway, TransportError, ordered_map
from .metrics import (f1_threshold_sweep, gain, gold_relevant, kendall_tau, score_annotations,
                      with_gold)
from .prompting import (
    PromptVariant,
    parse_definition_response,
    render_definition_prompt,
)
from .retrieval import load_rankings, rank_documents, save_rankings
from .sampler import (
    Verdict,
    balanced_sample,
    disagreement_accuracy_table,
    stratify_disagreements,
)

# Named, not __name__: run as `python -m relanno.cli`, this module is __main__.
log = logging.getLogger("relanno.cli")


class JsonLogFormatter(logging.Formatter):
    """One JSON object per log line, whatever characters the message holds."""

    def format(self, record: logging.LogRecord) -> str:
        return json.dumps({"level": record.levelname, "logger": record.name,
                           "msg": record.getMessage()})


def _end_process(code: object) -> NoReturn:
    """Exit with `code` as `sys.exit(code)` would, without the interpreter's
    teardown (module clearing, garbage collection, numpy's shutdown), which
    writes nothing: every output and the response cache are closed by their
    `with` blocks, and no worker thread is left running, before this runs.

    A flush that fails (stdout a closed pipe) prints nothing more: a command
    that failed keeps its status, and one that did not ends with 120, as
    Python's own exit gives.
    """
    if code is None or isinstance(code, int):
        status, message = code or 0, ""
    else:
        status, message = 1, f"{code}\n"
    logging.shutdown()
    for stream, text in ((sys.stdout, ""), (sys.stderr, message)):
        if stream is None:  # the descriptor was closed when the process started
            continue
        try:
            stream.write(text)
            stream.flush()
        except OSError:
            status = status or 120
    os._exit(status)


class _ErrorBoundary(click.Group):
    """Ends a command that fails on bad input, config, files or endpoint
    answers with one JSON line on stderr and exit 1. Click usage errors keep
    exit 2.

    Run as the process's own command line (`main()`, no `args`), the command
    ends the process with `_end_process`. Given `args`, `main` raises
    `SystemExit` as click's does, so a Python caller keeps its interpreter.
    """

    def main(self, args=None, prog_name=None, complete_var=None, standalone_mode=True,
             **extra):
        if args is not None or not standalone_mode:
            return super().main(args, prog_name, complete_var, standalone_mode, **extra)
        code = None
        try:
            super().main(args, prog_name, complete_var, standalone_mode, **extra)
        except SystemExit as exc:
            code = exc.code
        _end_process(code)

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, KeyError, OSError, sqlite3.Error, TransportError) as exc:
            click.echo(json.dumps({"error": str(exc)}), err=True)
            sys.exit(1)


def _check_flag(ctx: click.Context, param: click.Parameter, value):
    """A numeric flag's value, checked as config checks one. A ValueError, not
    a usage error, so that it ends the run as a bad config value does."""
    try:
        return value if value is None else check_number(param.name, value)
    except ValueError as exc:
        raise ValueError(f"{param.opts[0]}: {exc}") from None


# A click option of an int or a float.
_number_option = functools.partial(click.option, callback=_check_flag)


@click.group(cls=_ErrorBoundary)
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
    config = load_config(config_path)
    ctx.obj = config
    # Config values are the defaults of the subcommand options of the same name.
    ctx.default_map = {
        name: {p.name: getattr(config, p.name) for p in command.params if p.name in KEYS}
        for name, command in ctx.command.commands.items()
    }


@main.command()
@click.option("--queries", "queries_path", required=True, type=click.Path(exists=True))
@click.option("--documents", "documents_path", required=True, type=click.Path(exists=True))
@click.option("--gold", "gold_path", type=click.Path(exists=True), default=None)
@click.option("--out-dir", required=True, type=click.Path())
@_number_option("--min-tokens", type=int,
                help="Merge adjacent chunks shorter than this many tokens.")
@_number_option("--query-test-fraction", type=float)
@_number_option("--report-test-fraction", type=float)
@_number_option("--seed", type=int)
def ingest(queries_path, documents_path, gold_path, out_dir,
           min_tokens, query_test_fraction, report_test_fraction, seed):
    """Check a corpus, merge short chunks, and write a leakage-free split."""
    queries = read_jsonl(queries_path, Query)
    chunks = read_jsonl(documents_path, DocumentChunk)
    gold = (read_jsonl(gold_path, GoldLabel, known={"query_id": {q.id for q in queries},
                                                    "doc_id": {c.id for c in chunks}})
            if gold_path else [])

    merged, merged_into = corpus_mod.merge_short_chunks(chunks, min_tokens)
    moved = [f"({g.query_id},{g.doc_id}) -> {merged_into[g.doc_id]}"
             for g in gold if g.doc_id in merged_into]
    if moved:
        log.warning("gold labels on chunks merged into a neighbour: %s", ", ".join(moved))

    split = corpus_mod.split_train_test(
        [q.id for q in queries], [c.report_id for c in merged],
        query_test_fraction, report_test_fraction, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_jsonl(out / "queries.jsonl", queries)
    write_jsonl(out / "documents.jsonl", merged)
    write_json(out / "split.json", split)
    click.echo(json.dumps({
        "queries": len(queries), "documents": len(merged),
        "merged_from": len(chunks), "out_dir": str(out),
    }))


@main.command()
@click.option("--queries", "queries_path", required=True, type=click.Path(exists=True))
@click.option("--documents", "documents_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.pass_obj
def rank(config, queries_path, documents_path, out_path):
    """Rank documents per query with the dense embedding retriever."""
    queries = read_jsonl(queries_path, Query)
    chunks = read_jsonl(documents_path, DocumentChunk)
    with closing(LLMGateway(config)) as gateway:
        rankings = rank_documents(queries, chunks, gateway)
        save_rankings(out_path, rankings)
    click.echo(json.dumps({"rankings": len(rankings), **gateway.counts, "out": out_path}))


@main.command()
@click.option("--rankings", "rankings_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@_number_option("--k", type=int)
@_number_option("--per-side", type=int)
@_number_option("--seed", type=int)
@click.option("--fill-policy", type=click.Choice(["strict", "fill"]), default="strict")
def sample(rankings_path, out_path, k, per_side, seed, fill_policy):
    """Sample balanced (query, document) pairs inside/outside the top-k."""
    pairs = [pair for ranking in load_rankings(rankings_path)
             for pair in balanced_sample(ranking, k=k, per_side=per_side, seed=seed,
                                         fill_policy=fill_policy).pairs]
    write_jsonl(out_path, pairs)
    click.echo(json.dumps({"pairs": len(pairs), "out": out_path}))


_parallelism_option = _number_option(
    "--parallelism", type=int, help="Chat requests in flight at once.")


@main.command()
@click.option("--queries", "queries_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--examples", "examples_path", type=click.Path(exists=True), default=None,
              help="JSONL of {query_id, example}; triggers improved definitions.")
@_parallelism_option
@click.pass_obj
def define(config, queries_path, out_path, examples_path, parallelism):
    """Draft (or improve) a relevance definition for each query."""
    queries = read_jsonl(queries_path, Query)
    examples_by_query: dict[str, list[str]] = {}
    for row in read_jsonl(examples_path, DefinitionExample,
                          known={"query_id": {q.id for q in queries}}) if examples_path else []:
        examples_by_query.setdefault(row.query_id, []).append(row.example)

    def draft(query: Query) -> RelevanceDefinition:
        examples = examples_by_query.get(query.id, [])
        try:
            response = gateway.chat_complete(render_definition_prompt(query.text, examples))
            return parse_definition_response(response.text,
                                             "improved" if examples else "generated")
        except (ValueError, TransportError) as exc:
            raise type(exc)(f"query {query.id}: {exc}") from None

    with closing(LLMGateway(dataclasses.replace(config, parallelism=parallelism))) as gateway:
        definitions = ordered_map(draft, queries, gateway.config.parallelism)
        for query, definition in zip(queries, definitions):
            query.definition = definition
    write_jsonl(out_path, queries)
    click.echo(json.dumps({"queries": len(queries), **gateway.counts, "out": out_path}))


@main.command()
@click.option("--pairs", "pairs_path", required=True, type=click.Path(exists=True))
@click.option("--queries", "queries_path", required=True, type=click.Path(exists=True))
@click.option("--documents", "documents_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--errors", "errors_path", type=click.Path(), default=None)
@click.option("--variant", help="Prompt variant label, e.g. point-ask-d.")
@click.option("--calibration", type=click.Choice(CALIBRATIONS))
@_parallelism_option
@click.pass_obj
def annotate(config, pairs_path, queries_path, documents_path, out_path,
             errors_path, variant, calibration, parallelism):
    """Annotate pairs pointwise with calibrated relevance scores, writing each
    row as soon as the rows before it are written."""
    check_distinct_outputs("--out", out_path, "--errors", errors_path)
    queries = {q.id: q for q in read_jsonl(queries_path, Query)}
    chunks = {c.id: c for c in read_jsonl(documents_path, DocumentChunk)}
    pairs = read_jsonl(pairs_path, QueryDocPair, known={"query_id": queries, "doc_id": chunks})
    variant = PromptVariant.from_label(variant)
    written = {"annotations": 0, "errors": 0}
    # closing the outcomes: an error while writing also stops the requests not yet sent.
    with closing(LLMGateway(dataclasses.replace(config, parallelism=parallelism))) as gateway, \
            closing(annotate_corpus(pairs, queries, chunks, variant, gateway, calibration)) \
            as outcomes, RowWriter(out_path) as annotations, \
            RowWriter(errors_path or os.devnull) as ledger:
        for outcome in outcomes:
            if isinstance(outcome, AnnotationError):
                written["errors"] += 1
                ledger.write(outcome)
            else:
                written["annotations"] += 1
                annotations.write(outcome)
    click.echo(json.dumps({**written, **gateway.counts, "out": out_path}))


@main.command("distill")
@click.option("--annotations", "annotations_path", required=True,
              type=click.Path(exists=True))
@click.option("--queries", "queries_path", required=True, type=click.Path(exists=True))
@click.option("--documents", "documents_path", required=True, type=click.Path(exists=True))
@click.option("--split", "split_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--manifest", "manifest_path", required=True, type=click.Path())
@click.option("--variant")
def distill_cmd(annotations_path, queries_path, documents_path,
                split_path, out_path, manifest_path, variant):
    """Export teacher annotations as chat-format training records."""
    check_distinct_outputs("--out", out_path, "--manifest", manifest_path)
    queries = {q.id: q for q in read_jsonl(queries_path, Query)}
    chunks = {c.id: c for c in read_jsonl(documents_path, DocumentChunk)}
    annotations = read_jsonl(annotations_path, Annotation,
                             known={"query_id": queries, "doc_id": chunks})
    split = read_json(split_path, Split)
    manifest = distill_mod.export_training_data(
        annotations, queries, chunks, split, PromptVariant.from_label(variant), out_path)
    write_json(manifest_path, manifest)
    click.echo(json.dumps({"records": manifest.count, "skipped": manifest.skipped,
                           "out": out_path}))


@main.command()
@click.option("--annotations", "annotations_path", required=True,
              type=click.Path(exists=True))
@click.option("--gold", "gold_path", required=True, type=click.Path(exists=True))
@click.option("--scheme", type=click.Choice(["three_way", "graded_1_3", "binary"]),
              default="three_way",
              help="Gain of a relevant gold row in nDCG and MAP. Every dimension reads "
                   "a row as relevant by its label (partial counts), else grade > 0, and "
                   "an irrelevant row gains 0. binary: 1. three_way: 1, or 0.5 for "
                   "partial; a row without a label is refused. graded_1_3: its grade, "
                   "which lies in [0,1] (give a 1-3 grade g as (g - 1) / 2); a relevant "
                   "or partial row of grade 0 is refused.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--proxy-out", type=click.Path(), default=None,
              help="Also write, as CSV, the plain mean relevance_score of each query's "
                   "sampled pairs. It over-weights the top-k by about (N - k) / per_side, "
                   "so it does not estimate how much relevant information the corpus "
                   "holds.")
@_number_option("--ece-bins", type=int)
# Not the config's `k`, which is sample's top-k: the default here is no cutoff.
@_number_option("--k", "cutoff_k", type=int, default=None, help="Cutoff for nDCG@k / MAP@k.")
def evaluate(annotations_path, gold_path, scheme, out_path, proxy_out, ece_bins, cutoff_k):
    """Score annotations on the four dimensions and write report.json."""
    check_distinct_outputs("--out", out_path, "--proxy-out", proxy_out)
    annotations = read_jsonl(annotations_path, Annotation)
    gold = read_jsonl(gold_path, GoldLabel, check=functools.partial(gain, scheme=scheme))
    report = score_annotations(annotations, gold, scheme, ece_bins, cutoff_k)
    write_json(out_path, report)
    if proxy_out:
        write_csv(proxy_out, [("query_id", "mean_relevance_score"),
                              *((query_id, f"{mean:.6f}")
                                for query_id, mean in relevant_info_proxy(annotations))])
    click.echo(json.dumps(report))


@main.command()
@click.option("--annotations", "annotations_path", required=True,
              type=click.Path(exists=True))
@click.option("--original", "original_path", required=True, type=click.Path(exists=True),
              help="gold.jsonl-style file with the original binary labels.")
@click.option("--out", "out_path", required=True, type=click.Path())
@_number_option("--per-bin", type=int)
@_number_option("--seed", type=int)
@click.option("--verdicts", "verdicts_path", type=click.Path(exists=True), default=None,
              help="JSONL of {query_id, doc_id, verdict: model|original}.")
@click.option("--table-out", type=click.Path(), default=None)
@_number_option("--cutoff", type=float, default=0.95)
def audit(annotations_path, original_path, out_path, per_bin, seed,
          verdicts_path, table_out, cutoff):
    """Stratify model-vs-original disagreements; optionally score an audit."""
    if table_out and not verdicts_path:
        raise ValueError("--table-out needs --verdicts: the table scores the audited verdicts")
    if verdicts_path and not table_out and written_in_place(out_path):
        raise ValueError(f"--verdicts needs --table-out when --out is written in place: "
                         f"{out_path}")
    check_distinct_outputs("--out", out_path, "--table-out", table_out)
    annotations = read_jsonl(annotations_path, Annotation)
    original = {
        (g.query_id, g.doc_id): "relevant" if gold_relevant(g) else "irrelevant"
        for g in read_jsonl(original_path, GoldLabel)
    }
    # Read before --out is written, so a bad verdicts file leaves no output.
    verdicts = read_jsonl(verdicts_path, Verdict) if verdicts_path else []
    sampled = stratify_disagreements(annotations, original, per_bin=per_bin, seed=seed)
    write_jsonl(out_path, sampled)

    if verdicts_path:
        verdict_by_key = {(v.query_id, v.doc_id): v.verdict for v in verdicts}
        audited = [
            (d, verdict_by_key[(d.query_id, d.doc_id)])
            for d in sampled if (d.query_id, d.doc_id) in verdict_by_key
        ]
        table = disagreement_accuracy_table(
            audited, cutoff=cutoff,
            all_confidences=[primary_confidence(a) for a in annotations])
        write_json(table_out or out_path + ".table.json", table)
    click.echo(json.dumps({"disagreements": len(sampled), "out": out_path}))


@main.command()
@click.option("--annotations", "annotations_path", required=True,
              type=click.Path(exists=True))
@click.option("--gold", "gold_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@_number_option("--steps", type=int, default=21, help="Grid points between 0 and 1.")
def sweep(annotations_path, gold_path, out_path, steps):
    """F1 as a function of the relevance-score retrieval threshold."""
    scored = with_gold(read_jsonl(annotations_path, Annotation), read_jsonl(gold_path, GoldLabel))
    grid = [i / (steps - 1) for i in range(steps)] if steps > 1 else [0.0]
    points = f1_threshold_sweep([a.relevance_score for a, _ in scored],
                                [gold_relevant(g) for _, g in scored], grid)
    write_csv(out_path, [("theta", "f1", "precision", "recall"),
                         *((f"{theta:.4f}", f"{f1:.6f}", f"{precision:.6f}", f"{recall:.6f}")
                           for theta, f1, precision, recall in points)])
    click.echo(json.dumps({"points": len(points), "out": out_path}))


@main.command()
@click.option("--rankings-a", required=True, type=click.Path(exists=True))
@click.option("--rankings-b", required=True, type=click.Path(exists=True))
def benchmark(rankings_a, rankings_b):
    """Rank correlation (Kendall's tau) between two rankings files."""
    a = {r.query_id: r for r in load_rankings(rankings_a)}
    b = {r.query_id: r for r in load_rankings(rankings_b)}
    shared = sorted(set(a) & set(b))
    if not shared:
        raise ValueError("rankings files share no query ids")
    taus = {}
    for query_id in shared:
        try:
            taus[query_id] = kendall_tau(a[query_id].doc_ids(), b[query_id].doc_ids())
        except ValueError as exc:
            raise ValueError(f"query {query_id}: {exc}") from None
    mean_tau = sum(taus.values()) / len(taus)
    click.echo(json.dumps({"mean_kendall_tau": mean_tau, "per_query": taus},
                          sort_keys=True))


if __name__ == "__main__":
    main()

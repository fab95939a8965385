"""Every subcommand, fed config files, numeric flags and input files with
missing, mistyped, extra and blank fields and repeated rows, either works
(exit 0) or fails with exit 1 and exactly one JSON error line on stderr: never
a traceback, never a usage error."""

import copy
import functools
import json
import math
import operator
import tempfile
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from relanno.cli import main

DEFINITION = {"meaning": "The question asks about reported emissions.",
              "examples": ["A disclosed figure."], "provenance": "generated"}

# Valid contents of every input file a subcommand reads.
VALID = {
    "queries": [{"id": "q1", "text": "What is the firm's Scope 3 emission?",
                 "definition": DEFINITION},
                {"id": "q2", "text": "Does the report discuss water usage?",
                 "definition": DEFINITION}],
    "documents": [
        {"id": "d1", "report_id": "r1", "text": "SCOPE3DOC Scope 3 emissions of 1.2 Mt."},
        {"id": "d2", "report_id": "r1", "text": "WATERDOC Water usage fell by 10 percent."},
        {"id": "d3", "report_id": "r2", "text": "GOVDOC The board oversees audit matters.",
         "token_count": 7},
        {"id": "d4", "report_id": "r2", "text": "MIXDOC Emissions and water are reviewed."}],
    "gold": [{"query_id": "q1", "doc_id": "d1", "grade": 1.0, "binary": "relevant"},
             {"query_id": "q1", "doc_id": "d3", "grade": 0.0, "binary": "irrelevant"},
             {"query_id": "q2", "doc_id": "d2", "grade": 0.5, "binary": "partial",
              "uncertain": True},
             {"query_id": "q2", "doc_id": "d4", "grade": 0.0, "binary": "irrelevant"}],
    "rankings": [{"query_id": q, "entries": [["d1", 0.9], ["d2", 0.5], ["d3", 0.2],
                                             ["d4", 0.1]]} for q in ("q1", "q2")],
    "pairs": [{"query_id": "q1", "doc_id": "d1", "retriever_rank": 1},
              {"query_id": "q1", "doc_id": "d3", "retriever_rank": 3},
              {"query_id": "q2", "doc_id": "d2", "split": "train"},
              {"query_id": "q2", "doc_id": "d4"}],
    "annotations": [
        {"query_id": "q1", "doc_id": "d1", "guess": "Yes", "relevance_score": 0.9,
         "confidence_ask": 0.9, "confidence_tok": 0.8, "model": "m"},
        {"query_id": "q1", "doc_id": "d3", "guess": "Yes", "relevance_score": 0.6,
         "confidence_ask": 0.6, "reason": "says so"},
        {"query_id": "q2", "doc_id": "d2", "guess": "No", "relevance_score": 0.05,
         "confidence_tok": 0.95, "variant": "point-ask-d"},
        {"query_id": "q2", "doc_id": "d4", "guess": "Yes", "relevance_score": 0.97,
         "confidence_ask": 0.97}],
    "examples": [{"query_id": "q2", "example": "Water withdrawal figures."}],
    "verdicts": [{"query_id": "q1", "doc_id": "d3", "verdict": "model"},
                 {"query_id": "q2", "doc_id": "d4", "verdict": "original"}],
    "split": {"train_queries": ["q1", "q2"], "test_queries": [],
              "train_reports": ["r1", "r2"], "test_reports": [], "seed": 40},
}

# Each subcommand with its flags; NAME.jsonl / NAME.json stand for input files.
COMMANDS = {
    "ingest": ["--queries", "queries.jsonl", "--documents", "documents.jsonl",
               "--gold", "gold.jsonl", "--out-dir", "out"],
    "rank": ["--queries", "queries.jsonl", "--documents", "documents.jsonl",
             "--out", "out.jsonl"],
    "sample": ["--rankings", "rankings.jsonl", "--out", "out.jsonl"],
    "define": ["--queries", "queries.jsonl", "--examples", "examples.jsonl",
               "--out", "out.jsonl"],
    "annotate": ["--pairs", "pairs.jsonl", "--queries", "queries.jsonl",
                 "--documents", "documents.jsonl", "--out", "out.jsonl",
                 "--errors", "errors.jsonl"],
    "distill": ["--annotations", "annotations.jsonl", "--queries", "queries.jsonl",
                "--documents", "documents.jsonl", "--split", "split.json",
                "--out", "out.jsonl", "--manifest", "manifest.json"],
    "evaluate": ["--annotations", "annotations.jsonl", "--gold", "gold.jsonl",
                 "--out", "out.json", "--proxy-out", "proxy.csv"],
    "audit": ["--annotations", "annotations.jsonl", "--original", "gold.jsonl",
              "--verdicts", "verdicts.jsonl", "--out", "out.jsonl"],
    "sweep": ["--annotations", "annotations.jsonl", "--gold", "gold.jsonl",
              "--out", "out.csv"],
    "benchmark": ["--rankings-a", "rankings.jsonl", "--rankings-b", "rankings.jsonl"],
}

# ±10**400: an integer that JSON holds exactly and a float cannot.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from([10**400, -10**400])
    | st.floats() | st.text(max_size=4) | st.just(" "),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)


@st.composite
def mutated(draw, value):
    """value with one field or item dropped, retyped, added or mutated in turn,
    or one item of a list repeated after itself."""
    if not isinstance(value, (dict, list)) or not value:
        return draw(JSON_VALUES)
    kinds = ["drop", "retype", "extra", "descend", "replace"]
    kind = draw(st.sampled_from(kinds + ["repeat"] if isinstance(value, list) else kinds))
    if kind == "replace":
        return draw(JSON_VALUES)
    value = dict(value) if isinstance(value, dict) else list(value)
    key = draw(st.sampled_from(sorted(value)) if isinstance(value, dict)
               else st.integers(0, len(value) - 1))
    if kind == "drop":
        del value[key]
    elif kind == "retype":
        value[key] = draw(JSON_VALUES)
    elif kind == "descend":
        value[key] = draw(mutated(value[key]))
    elif kind == "repeat":
        value.insert(key, value[key])
    elif isinstance(value, dict):
        value[draw(st.text(max_size=4))] = draw(JSON_VALUES)
    else:
        value.append(draw(JSON_VALUES))
    return value


@st.composite
def file_contents(draw, name):
    """The text of one input file: valid, mutated, or with a broken line."""
    value = VALID[name]
    for _ in range(draw(st.integers(0, 2))):
        if isinstance(value, list) and value and draw(st.booleans()):  # mutate one row
            i = draw(st.integers(0, len(value) - 1))
            value = value[:i] + [draw(mutated(value[i]))] + value[i + 1:]
        else:  # the whole value: a JSONL file may lose, gain or repeat a row
            value = draw(mutated(value))
    if name == "split":
        text = json.dumps(value)
    elif isinstance(value, list):
        text = "".join(json.dumps(row) + "\n" for row in value)
    else:
        text = json.dumps(value) + "\n"
    if draw(st.integers(0, 9)) == 7:
        text = text[:draw(st.integers(0, len(text)))]
    return text


SAFE_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                    max_size=6)
KEYS = ["seed", "k", "per_side", "per_bin", "ece_bins", "min_tokens", "query_test_fraction",
        "report_test_fraction", "calibration", "variant", "embed_batch_size", "chat_model",
        "parallelism"]
GOOD_LINE = st.one_of(
    st.builds("{}={}".format, st.sampled_from(["seed", "k", "per_side", "per_bin",
                                               "ece_bins", "min_tokens"]),
              st.integers(1, 40)),
    st.builds("{}={}".format, st.sampled_from(["query_test_fraction",
                                               "report_test_fraction"]),
              st.floats(0.05, 0.95)),
    st.builds("parallelism={}".format, st.integers(1, 8)),
    st.builds("calibration={}".format, st.sampled_from(["ask", "tok", "both"])),
    st.builds("variant={}".format, st.sampled_from(["point-ask", "point-cot-prob-d"])))
BAD_LINE = st.one_of(
    st.builds("{}={}".format, st.sampled_from(KEYS),
              st.one_of(st.integers(-2, 40).map(str), st.floats(-1, 2).map(str), SAFE_TEXT)),
    st.sampled_from(["# comment", "", "varient=point-prob", "max_in_flight=2", "k",
                     "backoff_base=1e999", "max_attempts=0"]),
    SAFE_TEXT)
# Mostly values that load, so that most runs get past the config.
CONFIG_LINES = st.lists(st.one_of(GOOD_LINE, GOOD_LINE, GOOD_LINE, BAD_LINE), max_size=2)
# Each subcommand's int and float flags, and values of their type that are in
# range or not, finite or not: a value of the wrong type is a usage error.
NUMERIC_FLAGS = {name: [(p.opts[0], p.type) for p in command.params
                        if p.type in (click.INT, click.FLOAT)]
                 for name, command in main.commands.items()}
FLAG_VALUES = {click.INT: st.integers(-2, 40),
               click.FLOAT: st.floats(-1, 2) | st.sampled_from([math.nan, math.inf, -math.inf])}


@st.composite
def numeric_flags(draw, command):
    """At most one numeric flag of the command, with a value."""
    chosen = draw(st.lists(st.sampled_from(NUMERIC_FLAGS[command]), max_size=1)
                  if NUMERIC_FLAGS[command] else st.just([]))
    return [arg for flag, kind in chosen for arg in (flag, str(draw(FLAG_VALUES[kind])))]


def string_paths(value, path=()):
    """The path of keys and indices to each string inside value."""
    if isinstance(value, str):
        return [path]
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    return [p for key, item in items for p in string_paths(item, (*path, key))]


@st.composite
def repeated_or_blank(draw, name):
    """The text of one valid input file, or of one with a row repeated after
    itself, or with one string of a row made blank."""
    value = copy.deepcopy(VALID[name])
    if isinstance(value, dict):  # split.json
        return json.dumps(value)
    i = draw(st.integers(0, len(value) - 1))
    edit = draw(st.sampled_from(["none", "repeat", "blank"]))
    if edit == "repeat":
        value.insert(i, value[i])
    elif edit == "blank":
        *path, key = draw(st.sampled_from(string_paths(value[i])))
        functools.reduce(operator.getitem, path, value[i])[key] = " "
    return "".join(json.dumps(row) + "\n" for row in value)


def run_command(mock_server, command, contents, config_lines=(), flags=()):
    """Runs one subcommand on input files of the given text, by the flag value
    that names each, and checks that it works (exit 0) or fails with exit 1
    and exactly one JSON error line on stderr."""
    args = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for arg, text in contents.items():
            (work / arg).write_text(text, encoding="utf-8")
        config = work / "relanno.conf"
        config.write_text("\n".join([f"base_url={mock_server.base_url}",
                                     f"cache_dir={work / 'cache'}", "backoff_base=0.01",
                                     "min_tokens=1",
                                     *config_lines]) + "\n", encoding="utf-8")
        argv = ["--config", str(config), command,
                *(str(work / a) if "." in a or a == "out" else a for a in args), *flags]
        result = CliRunner().invoke(main, argv)
    if result.exit_code == 0:
        assert result.exception is None
        return
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    [line] = result.stderr.strip().splitlines()
    assert set(json.loads(line)) == {"error"}


def input_files(command):
    """The flag values of a command that name an input file."""
    return [arg for arg in COMMANDS[command] if arg.split(".")[0] in VALID]


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), config_lines=CONFIG_LINES)
def test_cli_never_crashes(mock_server, command, data, config_lines):
    contents = {arg: data.draw(file_contents(arg.split(".")[0]), label=arg)
                for arg in input_files(command)}
    run_command(mock_server, command, contents, config_lines,
                data.draw(numeric_flags(command), label="flags"))


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cli_never_crashes_on_a_repeated_row_or_a_blank_string(mock_server, command, data):
    run_command(mock_server, command, {
        arg: data.draw(repeated_or_blank(arg.split(".")[0]), label=arg)
        for arg in input_files(command)})

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from relanno.corpus import DocumentChunk, GoldLabel, Query, RelevanceDefinition
from relanno.config import Config
from relanno import gateway as gateway_mod
from relanno.gateway import LLMGateway
from mockserver import MockLLMServer


SRC = str(Path(__file__).resolve().parents[1] / "src")

# `relanno ARGS...` as its console script runs it: `main()` reads sys.argv and
# ends the process itself.
ENTRY = "import sys; from relanno.cli import main; sys.exit(main())"


def run_entry(*args, env=(), **kwargs) -> subprocess.CompletedProcess:
    """`relanno ARGS...` in its own process through ENTRY, with `env` added to
    the environment and without PYTHONUNBUFFERED, so stdout is block-buffered
    as in a shell pipeline. stdout and stderr are captured as text unless given."""
    environ = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    environ.update(env, PYTHONPATH=SRC)
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, "-c", ENTRY, *map(str, args)], env=environ,
                          text=True, timeout=120, **kwargs)


def one_json_error(*args, **kwargs) -> str:
    """The message of `relanno ARGS...` run through run_entry, which must exit 1
    with exactly one line on stderr, a JSON error. Run as its own process, the
    command's log lines reach stderr too, as `CliRunner` cannot show them."""
    result = run_entry(*args, **kwargs)
    assert result.returncode == 1, result.stderr
    [line] = result.stderr.splitlines()
    error = json.loads(line)
    assert list(error) == ["error"], line
    return error["error"]


def make_definition(topic="the firm's Scope 3 emission"):
    return RelevanceDefinition(
        meaning=f"The question is asking for information about {topic}.",
        examples=[f"Statements quantifying {topic}.",
                  f"Targets or plans concerning {topic}."],
        provenance="generated",
    )


@pytest.fixture
def fixture_queries():
    return [
        Query(id="q1", text="What is the firm's Scope 3 emission?",
              definition=make_definition()),
        Query(id="q2", text="Does the report discuss water usage?",
              definition=make_definition("water usage in operations")),
    ]


@pytest.fixture
def fixture_chunks():
    return [
        DocumentChunk(id="d1", report_id="r1",
                      text="SCOPE3DOC The firm reports Scope 3 emissions of 1.2 Mt CO2e."),
        DocumentChunk(id="d2", report_id="r1",
                      text="WATERDOC Water usage fell by 10 percent across plants."),
        DocumentChunk(id="d3", report_id="r2",
                      text="GOVDOC The board oversees governance and audit matters."),
        DocumentChunk(id="d4", report_id="r2",
                      text="MIXDOC Emissions and water management are reviewed yearly."),
    ]


@pytest.fixture
def fixture_gold():
    return [
        GoldLabel("q1", "d1", grade=1.0, binary="relevant"),
        GoldLabel("q1", "d2", grade=0.0, binary="irrelevant"),
        GoldLabel("q1", "d3", grade=0.0, binary="irrelevant"),
        GoldLabel("q1", "d4", grade=0.5, binary="partial", uncertain=True),
        GoldLabel("q2", "d1", grade=0.0, binary="irrelevant"),
        GoldLabel("q2", "d2", grade=1.0, binary="relevant"),
        GoldLabel("q2", "d3", grade=0.0, binary="irrelevant"),
        GoldLabel("q2", "d4", grade=0.5, binary="partial", uncertain=True),
    ]


def yes_no_logprob_tokens(text, answer_logprob):
    """Token list concatenating exactly to text, with the Yes/No answer token
    after the guess label carrying answer_logprob."""
    import re
    tokens = []
    seen_guess = False
    for surface in re.findall(r"\s*\S+|\s+$", text):
        if seen_guess and surface.strip().rstrip(".,") in ("Yes", "No"):
            tokens.append([surface, answer_logprob])
            seen_guess = False
            continue
        if "[Guess]:" in surface or surface.strip() == "[Guess]:":
            seen_guess = True
        tokens.append([surface, -0.05])
    return tokens


def jsonl_rows(path) -> list[dict]:
    """The JSON object on each non-blank line of a file, unchecked."""
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def answer_200(body: bytes, content_type=None):
    """A 200 response holding `body` as it came over the wire, its encoding
    taken from `content_type` as requests takes it from the header."""
    requests = gateway_mod.requests
    resp = requests.Response()
    resp.status_code, resp._content = 200, body
    if content_type is not None:
        resp.headers["Content-Type"] = content_type
    resp.encoding = requests.utils.get_encoding_from_headers(resp.headers)
    return resp


CHAT_RULES = [
    {"match": "RETRYDOC", "text": "[Guess]: Yes\n[Confidence]: 0.6",
     "status_sequence": [429, 200]},
    {"match": "MALFORMEDDOC", "text": "I cannot decide about this passage."},
    {"match": "BLANKMEANINGDOC", "text": ("Meaning of the question: \n"
                                          "Examples of information that the question "
                                          "is looking for:\n1. A disclosed figure.")},
    {"match": "SCOPE3DOC", "text": "[Guess]: Yes\n[Confidence]: 0.9",
     "logprobs": yes_no_logprob_tokens("[Guess]: Yes\n[Confidence]: 0.9",
                                       math.log(0.8))},
    {"match": "WATERDOC", "text": "[Guess]: Yes\n[Confidence]: 0.8"},
    {"match": "GOVDOC", "text": "[Guess]: No\n[Confidence]: 0.95"},
    {"match": "MIXDOC", "text": "[Guess]: Yes\n[Confidence]: 0.55"},
    {"match": "An analyst posts a <question> about a climate report",
     "text": ("Meaning of the question: The question asks about a reported "
              "quantity.\n"
              "Examples of information that the question is looking for:\n"
              "1. A disclosed figure.\n2. A stated target.")},
]


@pytest.fixture(scope="session")
def fixtures_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("chat_fixtures")
    with open(path / "rules.json", "w", encoding="utf-8") as f:
        json.dump(CHAT_RULES, f)
    return path


@pytest.fixture(scope="session")
def mock_server(fixtures_dir):
    with MockLLMServer(fixtures_dir=fixtures_dir) as server:
        yield server


@pytest.fixture
def gateway(mock_server, tmp_path):
    mock_server.reset_counters()
    return LLMGateway(Config(
        base_url=mock_server.base_url,
        cache_dir=str(tmp_path / "cache"),
        backoff_base=0.01,
    ))


@pytest.fixture
def uncached_gateway(mock_server):
    mock_server.reset_counters()
    return LLMGateway(Config(
        base_url=mock_server.base_url, cache_dir=None, backoff_base=0.01))

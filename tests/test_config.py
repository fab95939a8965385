import json
import time

import pytest
from click.testing import CliRunner

from conftest import jsonl_rows
from relanno import corpus as corpus_mod
from relanno.cli import main
from relanno.config import Config, load_config
from relanno.retrieval import Ranking, save_rankings
from test_cli import assert_one_line_json_error


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in Config.__dataclass_fields__:
        monkeypatch.delenv("RELANNO_" + key.upper(), raising=False)


def write_config(tmp_path, text):
    path = tmp_path / "relanno.conf"
    path.write_text(text, encoding="utf-8")
    return path


def invoke(config_path, *args):
    return CliRunner().invoke(main, ["--config", str(config_path), *args])


class TestPrecedence:
    def test_defaults(self):
        config = load_config()
        assert config == Config()
        assert (config.k, config.backoff_base, config.cache_dir) == (5, 0.5, None)
        assert config.parallelism == 8

    def test_file_over_default(self, tmp_path):
        config = load_config(write_config(tmp_path, "k=3\nbackoff_base=0.25\n"))
        assert (config.k, config.backoff_base) == (3, 0.25)
        assert config.seed == Config().seed

    def test_env_over_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RELANNO_K", "4")
        assert load_config(write_config(tmp_path, "k=3\n")).k == 4

    def test_flag_over_env_and_file(self, tmp_path, monkeypatch):
        rankings = tmp_path / "rankings.jsonl"
        save_rankings(rankings, [Ranking("q1", [(f"d{i}", 1.0 - i / 10) for i in range(10)])])
        config = write_config(tmp_path, "k=1\nper_side=2\n")
        monkeypatch.setenv("RELANNO_K", "1")
        out = tmp_path / "pairs.jsonl"
        result = invoke(config, "sample", "--rankings", str(rankings), "--out", str(out))
        assert json.loads(result.stdout)["pairs"] == 3  # top-1 side short by one
        result = invoke(config, "sample", "--rankings", str(rankings), "--out", str(out),
                        "--k", "2")
        assert json.loads(result.stdout)["pairs"] == 4
        assert sum(p["retriever_rank"] <= 2 for p in jsonl_rows(out)) == 2


def test_comments_and_blank_lines(tmp_path):
    config = load_config(write_config(
        tmp_path, "# a comment\n\n   \nseed = 7\n  # indented comment\nK=9\n"))
    assert (config.seed, config.k) == (7, 9)


def test_empty_cache_dir_means_no_cache(tmp_path):
    assert load_config(write_config(tmp_path, "cache_dir=\n")).cache_dir is None
    assert load_config(write_config(tmp_path, "cache_dir=c\n")).cache_dir == "c"


def test_api_key_env_var_is_not_a_config_key(tmp_path, monkeypatch):
    monkeypatch.setenv("RELANNO_API_KEY", "sk-test")
    monkeypatch.setenv("RELANNO_SOMETHING_ELSE", "1")
    assert load_config(write_config(tmp_path, "seed=1\n")).api_key_env == "RELANNO_API_KEY"


@pytest.mark.parametrize("text,fragments", [
    ("seed=1\nno equals sign\n", ["relanno.conf:2", "expected KEY=VALUE"]),
    ("varient=point-prob\n", ["relanno.conf:1", "unknown config key 'varient'"]),
    ("# old knob\nmax_in_flight=4\n", ["relanno.conf:2", "unknown config key 'max_in_flight'"]),
    ("k=abc\n", ["relanno.conf:1", "k: invalid literal for int()", "'abc'"]),
    ("k=2.5\n", ["relanno.conf:1", "k: invalid literal for int()", "'2.5'"]),
    ("backoff_base=fast\n", ["relanno.conf:1", "backoff_base: could not convert", "'fast'"]),
    ("calibration=logits\n", ["relanno.conf:1", "calibration: must be one of ask, tok, both"]),
    ("variant=point-foo\n", ["relanno.conf:1", "variant: unknown variant label: 'point-foo'"]),
    ("parallelism=0\n", ["relanno.conf:1", "parallelism: must be at least 1, got 0"]),
    ("parallelism=many\n", ["relanno.conf:1", "parallelism: invalid literal for int()"]),
    ("max_attempts=0\n", ["relanno.conf:1", "max_attempts: must be at least 1, got 0"]),
    ("embed_batch_size=0\n", ["relanno.conf:1", "embed_batch_size: must be at least 1, got 0"]),
    ("backoff_base=-1\n", ["relanno.conf:1", "backoff_base: must be at least 0, got -1.0"]),
    ("backoff_base=nan\n", ["relanno.conf:1", "backoff_base: must be a finite number, got nan"]),
    ("backoff_base=1e999\n", ["relanno.conf:1", "backoff_base: must be a finite number, got inf"]),
    ("k=0\n", ["relanno.conf:1", "k: must be at least 1, got 0"]),
    ("per_side=-3\n", ["relanno.conf:1", "per_side: must be at least 1, got -3"]),
    ("per_bin=0\n", ["relanno.conf:1", "per_bin: must be at least 1, got 0"]),
    ("ece_bins=0\n", ["relanno.conf:1", "ece_bins: must be at least 1, got 0"]),
    ("min_tokens=0\n", ["relanno.conf:1", "min_tokens: must be at least 1, got 0"]),
    ("query_test_fraction=1\n", ["relanno.conf:1", "query_test_fraction: must be strictly "
                                                   "between 0 and 1, got 1.0"]),
    ("report_test_fraction=0\n", ["relanno.conf:1", "report_test_fraction: must be strictly "
                                                    "between 0 and 1, got 0.0"]),
    # 0.5 * 2 ** 1998 s, the longest backoff, overflows a float; 1e300 s is past time.sleep.
    ("max_attempts=2000\n", ["max_attempts=2000 with backoff_base=0.5", "at most 1e+09 s"]),
    ("backoff_base=1e300\n", ["max_attempts=4 with backoff_base=1e+300", "at most 1e+09 s"]),
])
def test_bad_config_file_is_one_json_error(tmp_path, text, fragments):
    config = write_config(tmp_path, text)
    with pytest.raises(ValueError):
        load_config(config)
    # annotate has a --calibration choice: a bad file value must not reach
    # click, which would make it a usage error (exit 2).
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    result = invoke(config, "annotate", "--pairs", str(empty), "--queries", str(empty),
                    "--documents", str(empty), "--out", str(tmp_path / "out.jsonl"))
    assert_one_line_json_error(result, *fragments)


def test_longest_backoff_up_to_its_bound_loads(tmp_path):
    """The longest backoff is backoff_base * 2 ** (max_attempts - 2)."""
    assert load_config(write_config(tmp_path, "backoff_base=0\nmax_attempts=5000\n")) \
        .max_attempts == 5000
    assert load_config(write_config(tmp_path, "backoff_base=1e9\nmax_attempts=2\n")) \
        .backoff_base == 1e9
    with pytest.raises(ValueError, match="max_attempts=3 with backoff_base=1000000000.0"):
        load_config(write_config(tmp_path, "backoff_base=1e9\nmax_attempts=3\n"))


@pytest.mark.parametrize("name,value,fragment", [
    ("RELANNO_SEED", "x", "RELANNO_SEED: seed: invalid literal for int()"),
    ("RELANNO_QUERY_TEST_FRACTION", "half", "query_test_fraction: could not convert"),
    ("RELANNO_CALIBRATION", "ASK", "calibration: must be one of"),
    ("RELANNO_PARALLELISM", "-1", "RELANNO_PARALLELISM: parallelism: must be at least 1"),
    ("RELANNO_K", "0", "RELANNO_K: k: must be at least 1, got 0"),
    ("RELANNO_MAX_ATTEMPTS", "2000", "max_attempts=2000 with backoff_base=0.5"),
])
def test_bad_env_value_is_one_json_error(tmp_path, monkeypatch, name, value, fragment):
    monkeypatch.setenv(name, value)
    rankings = tmp_path / "rankings.jsonl"
    rankings.write_text("", encoding="utf-8")
    result = invoke(write_config(tmp_path, ""), "sample", "--rankings", str(rankings),
                    "--out", str(tmp_path / "pairs.jsonl"))
    assert_one_line_json_error(result, fragment)


@pytest.mark.parametrize("source", ["file", "environment"])
@pytest.mark.parametrize("url, problem", [
    ("htp://{address}", "must be an http or https URL with a host"),
    ("{address}", "must be an http or https URL with a host"),
    ("http://", "must be an http or https URL with a host"),
    ("http://{address}x", "Port could not be cast to integer"),
], ids=["bad scheme", "no scheme", "no host", "bad port"])
def test_unusable_base_url_is_refused_before_any_request(tmp_path, monkeypatch, mock_server,
                                                         fixture_queries, fixture_chunks,
                                                         source, url, problem):
    """A URL that no request can be sent to used to be retried max_attempts
    times, with backoff, and end in "retries exhausted"."""
    url = url.format(address=mock_server.base_url.removeprefix("http://"))
    if source == "file":
        config, where = write_config(tmp_path, f"base_url={url}\n"), "relanno.conf:1"
    else:
        monkeypatch.setenv("RELANNO_BASE_URL", url)
        config, where = write_config(tmp_path, ""), "RELANNO_BASE_URL"
    corpus_mod.write_jsonl(tmp_path / "queries.jsonl", fixture_queries)
    corpus_mod.write_jsonl(tmp_path / "documents.jsonl", fixture_chunks)
    mock_server.reset_counters()
    start = time.monotonic()
    result = invoke(config, "rank", "--queries", str(tmp_path / "queries.jsonl"),
                    "--documents", str(tmp_path / "documents.jsonl"),
                    "--out", str(tmp_path / "rankings.jsonl"))
    assert time.monotonic() - start < 1
    assert_one_line_json_error(result, f"{where}: base_url: {problem}")
    assert mock_server.request_count == 0


def test_https_base_url_with_a_path_loads(tmp_path):
    config = write_config(tmp_path, "base_url=https://api.example.com/v1\n")
    assert load_config(config).base_url == "https://api.example.com/v1"


def test_config_k_does_not_cut_evaluate(tmp_path, fixture_gold):
    """evaluate --k defaults to no cutoff; the config's k is sample's top-k."""
    annotations = tmp_path / "annotations.jsonl"
    corpus_mod.write_jsonl(annotations, (
        {"query_id": g.query_id, "doc_id": g.doc_id, "guess": "Yes" if i % 3 else "No",
         "relevance_score": 0.2 + i / 20, "confidence_ask": 0.6 + i / 40}
        for i, g in enumerate(fixture_gold)))
    gold = tmp_path / "gold.jsonl"
    corpus_mod.write_jsonl(gold, fixture_gold)
    reports = []
    for name, text in (("plain", ""), ("k1", "k=1\n")):
        out = tmp_path / f"report_{name}.json"
        result = invoke(write_config(tmp_path, text), "evaluate", "--annotations",
                        str(annotations), "--gold", str(gold), "--out", str(out))
        assert result.exit_code == 0, result.output
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    cut = tmp_path / "report_cut.json"
    invoke(write_config(tmp_path, ""), "evaluate", "--annotations", str(annotations),
           "--gold", str(gold), "--out", str(cut), "--k", "1")
    assert cut.read_bytes() != reports[0]  # the flag itself still cuts

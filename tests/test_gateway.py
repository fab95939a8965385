import gc
import json
import math
import re
import socket
import struct
import sys
import tempfile
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relanno import corpus as corpus_mod
from relanno import gateway as gateway_mod
from relanno.gateway import (
    LOOKAHEAD_PER_THREAD,
    LLMGateway,
    ResponseStore,
    TransportError,
    cache_key,
    ordered_map,
)
from relanno.config import Config
import mockserver
from mockserver import EMBEDDING_DIM, MockLLMServer, hash_embedding
from conftest import answer_200


def test_fixture_round_trip(uncached_gateway):
    response = uncached_gateway.chat_complete("Judge this: SCOPE3DOC passage")
    assert response.text == "[Guess]: Yes\n[Confidence]: 0.9"
    assert response.cached is False


def test_cache_contract(gateway, mock_server):
    first = gateway.chat_complete("Judge this: WATERDOC passage")
    calls_after_first = mock_server.request_count
    second = gateway.chat_complete("Judge this: WATERDOC passage")
    assert first.cached is False
    assert second.cached is True
    assert second.text == first.text
    assert mock_server.request_count == calls_after_first


def test_retry_on_429(gateway):
    response = gateway.chat_complete("Judge this: RETRYDOC passage")
    assert response.text == "[Guess]: Yes\n[Confidence]: 0.6"
    assert gateway.counts["retries"] == 1


def test_retries_exhausted():
    gateway = LLMGateway(Config(
        base_url="http://127.0.0.1:1", max_attempts=2, backoff_base=0.01))
    with pytest.raises(TransportError):
        gateway.chat_complete("hello")


def test_no_backoff_takes_attempts_past_float_range():
    """backoff_base=0 loads with any max_attempts; 2 ** 1024 is no float."""
    gateway = LLMGateway(Config(
        base_url="http://127.0.0.1:1", max_attempts=1030, backoff_base=0.0))
    with pytest.raises(TransportError, match="retries exhausted"):
        gateway.chat_complete("hello")
    assert (gateway.counts["retries"], gateway.counts["backoff_s"]) == (1029, 0)


def test_logprobs_captured(uncached_gateway):
    response = uncached_gateway.chat_complete("Judge this: SCOPE3DOC passage",
                                              want_logprobs=True)
    assert response.tokens
    assert all(lp <= 0 for _, lp in response.tokens)
    surfaces = "".join(s for s, _ in response.tokens)
    assert surfaces == response.text


@pytest.mark.parametrize("key, header", [("sk-test-123", "Bearer sk-test-123"), (None, None)],
                         ids=["key set", "key unset"])
def test_api_key_reaches_the_endpoint(mock_server, monkeypatch, key, header):
    if key is None:
        monkeypatch.delenv("RELANNO_API_KEY", raising=False)
    else:
        monkeypatch.setenv("RELANNO_API_KEY", key)
    mock_server.reset_counters()
    gateway = LLMGateway(Config(base_url=mock_server.base_url, cache_dir=None))
    gateway.chat_complete("SCOPE3DOC")
    gateway.embed(["SCOPE3DOC"])
    assert mock_server.authorizations == [header, header]


def test_a_netrc_entry_does_not_replace_the_api_key(mock_server, tmp_path, monkeypatch):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login someone password secret\n", encoding="utf-8")
    netrc.chmod(0o600)
    monkeypatch.setenv("NETRC", str(netrc))
    monkeypatch.setenv("RELANNO_API_KEY", "sk-test")
    mock_server.reset_counters()
    gateway = LLMGateway(Config(base_url=mock_server.base_url, cache_dir=None))
    gateway.chat_complete("SCOPE3DOC")
    gateway.embed(["SCOPE3DOC"])
    assert mock_server.authorizations == ["Bearer sk-test", "Bearer sk-test"]


def test_requests_go_through_the_proxy_the_environment_names(mock_server, monkeypatch):
    for name in ("http_proxy", "all_proxy", "ALL_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", mock_server.base_url)
    # Only the proxy's own address is ever looked up: the endpoint's host
    # exists nowhere, and a request sent past the proxy fails at once.
    lookup = socket.getaddrinfo

    def local_only(host, *args, **kwargs):
        if host != "127.0.0.1":
            raise socket.gaierror(f"no lookup of {host} in this test")
        return lookup(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", local_only)
    mock_server.reset_counters()
    gateway = LLMGateway(Config(base_url="http://relanno.invalid/v1", cache_dir=None,
                                max_attempts=1))
    assert gateway.chat_complete("SCOPE3DOC").text == "[Guess]: Yes\n[Confidence]: 0.9"
    assert mock_server.request_count == 1


def test_missing_logprobs_is_capability_error(uncached_gateway, monkeypatch):
    # Simulate an endpoint that ignores the logprobs request flag.
    original = uncached_gateway._post

    def strip_logprobs(path, body):
        raw = original(path, body)
        for choice in raw.get("choices", []):
            choice.pop("logprobs", None)
        return raw

    monkeypatch.setattr(uncached_gateway, "_post", strip_logprobs)
    with pytest.raises(TransportError, match="token logprobs"):
        uncached_gateway.chat_complete("SCOPE3DOC", want_logprobs=True)


def _without_logprobs(raw):
    for choice in raw["choices"]:
        choice.pop("logprobs")
    return raw


def _without_content(raw):
    del raw["choices"][0]["message"]["content"]
    return raw


def _with_logprobs(content=None, first=None):
    """The answer with its logprobs content, or the first entry of it, replaced."""
    def spoil(raw):
        logprobs = raw["choices"][0]["logprobs"]
        if first is None:
            logprobs["content"] = content
        else:
            logprobs["content"][0] = first
        return raw
    return spoil


ENTRY = r"choices\[0\]\.logprobs\.content\[0\]"


@pytest.mark.parametrize("spoil, error, match", [
    (_without_logprobs, TransportError, "token logprobs"),
    (lambda raw: {}, TransportError, r"lacks the field choices\[0\]\.message\.content"),
    (lambda raw: {"choices": []}, TransportError, "lacks the field choices"),
    (_without_content, TransportError, "lacks the field choices"),
    (_with_logprobs(content=[]), TransportError, "token logprobs"),
    (_with_logprobs(content={"token": "Yes", "logprob": -0.1}), TransportError,
     r"choices\[0\]\.logprobs\.content is not a list"),
    (_with_logprobs(first={"logprob": -0.1}), TransportError, ENTRY + r"\.token"),
    (_with_logprobs(first="[Guess]:"), TransportError, ENTRY + r"\.token"),
    (_with_logprobs(first={"token": "[Guess]:", "logprob": 0.5}), TransportError,
     ENTRY + r"\.logprob is not a number <= 0: 0\.5"),
    (_with_logprobs(first={"token": "[Guess]:", "logprob": "nan"}), TransportError,
     ENTRY + r"\.logprob is not a number <= 0: 'nan'"),
    (_with_logprobs(first={"token": "[Guess]:", "logprob": math.nan}), TransportError,
     ENTRY + r"\.logprob is not a number <= 0: nan"),
    (_with_logprobs(first={"token": "[Guess]:", "logprob": True}), TransportError,
     ENTRY + r"\.logprob is not a number <= 0: True"),
    (_with_logprobs(first={"token": "[Guess]:", "logprob": -10**400}), TransportError,
     ENTRY + r"\.logprob is outside float range"),
], ids=["no logprobs", "empty object", "no choices", "no content", "empty logprobs",
        "logprobs content an object", "entry without token", "entry a string",
        "positive logprob", "logprob a string", "NaN logprob", "logprob a bool",
        "logprob beyond float range"])
def test_answer_that_fails_is_not_cached(gateway, monkeypatch, spoil, error, match):
    """An answer that fails its parse is asked again once the endpoint is fixed."""
    real_post = gateway._post
    monkeypatch.setattr(gateway, "_post", lambda path, body: spoil(real_post(path, body)))
    with pytest.raises(error, match=match):
        gateway.chat_complete("SCOPE3DOC", want_logprobs=True)
    monkeypatch.setattr(gateway, "_post", real_post)
    response = gateway.chat_complete("SCOPE3DOC", want_logprobs=True)
    assert response.cached is False and response.tokens


def test_minus_infinity_logprob_is_probability_zero(gateway, monkeypatch):
    real_post = gateway._post
    spoil = _with_logprobs(first={"token": "[Guess]:", "logprob": -math.inf})
    monkeypatch.setattr(gateway, "_post", lambda path, body: spoil(real_post(path, body)))
    response = gateway.chat_complete("SCOPE3DOC", want_logprobs=True)
    assert response.tokens[0] == ("[Guess]:", -math.inf)


UTF8_BODY = '{"v": "caf\u00e9 \U0001f600"}'.encode("utf-8")


@pytest.mark.parametrize("content_type", [
    None, "application/json", "application/json; charset=utf-8",
    "application/json; charset=latin-1",  # a declared charset is not read
])
def test_answer_is_read_as_utf8(gateway, monkeypatch, content_type):
    monkeypatch.setattr(gateway._session, "post",
                        lambda *args, **kwargs: answer_200(UTF8_BODY, content_type))
    assert gateway._post("/chat/completions", {}) == {"v": "caf\u00e9 \U0001f600"}


@pytest.mark.parametrize("body, content_type, problem", [
    (b"<html>", None, "Expecting value"),
    (b'{"choices": [], "n": ' + b"9" * 5000 + b"}", None,
     r"Exceeds the limit \(4300 digits\)"),
    # Whatever the header says, a body that is not UTF-8 is refused.
    (b'\xef\xbb\xbf' + UTF8_BODY, None, "Unexpected UTF-8 BOM"),
    (b'\xef\xbb\xbf' + UTF8_BODY, "application/json", "Unexpected UTF-8 BOM"),
    ('{"v": "\u00e9"}'.encode("latin-1"), "application/json; charset=latin-1",
     "can't decode byte 0xe9 in position 7"),
    ('{"v": "\u00e9"}'.encode("utf-16"), "application/json; charset=utf-16",
     "can't decode byte 0xff in position 0"),
    ('{"v": "\u00e9"}'.encode("utf-16-le"), None, "can't decode byte 0xe9 in position 14"),
    (b'{"v": "a\xffb"}', "application/json", "can't decode byte 0xff in position 8"),
    (b'{"v": "caf\xe9 au lait"}', None, "can't decode byte 0xe9 in position 10"),
], ids=["html", "5000-digit integer", "BOM, no charset", "BOM, application/json",
        "charset=latin-1", "charset=utf-16", "UTF-16 without a BOM or charset",
        "invalid UTF-8 byte", "invalid UTF-8 byte, no charset"])
def test_answer_that_is_not_json_names_the_url(gateway, monkeypatch, body, content_type,
                                               problem):
    """It is sent once, never retried, and not cached: the next call asks again."""
    real_post = gateway._session.post
    monkeypatch.setattr(gateway._session, "post",
                        lambda *args, **kwargs: answer_200(body, content_type))
    url = re.escape(gateway.config.base_url + "/chat/completions")
    with pytest.raises(TransportError, match=f"answer from {url} is not valid JSON: .*{problem}"):
        gateway.chat_complete("SCOPE3DOC")
    assert (gateway.counts["network_calls"], gateway.counts["retries"]) == (1, 0)
    monkeypatch.setattr(gateway._session, "post", real_post)
    assert gateway.chat_complete("SCOPE3DOC").cached is False


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES, st.sampled_from([None, "application/json",
                                     "application/json; charset=utf-8",
                                     "application/json; charset=latin-1"]))
def test_any_utf8_json_answer_reads_as_json_loads_reads_it(value, content_type):
    blob = json.dumps(value, ensure_ascii=False).encode("utf-8")
    gateway = LLMGateway(Config(cache_dir=None))
    gateway._session.post = lambda *args, **kwargs: answer_200(blob, content_type)
    assert gateway._post("/chat/completions", {}) == json.loads(blob)


@pytest.mark.parametrize("status, retried, error", [
    (503, True, "retries exhausted for "), (400, False, "endpoint error at ")])
def test_error_body_with_an_invalid_byte_is_quoted_with_it_replaced(
        gateway, monkeypatch, status, retried, error):
    """A retryable status is retried as any other; the quoted body shows U+FFFD."""
    def answer(*args, **kwargs):
        resp = answer_200(b'{"error": "bad \xff byte"}', "application/json")
        resp.status_code = status
        return resp

    monkeypatch.setattr(gateway._session, "post", answer)
    monkeypatch.setattr(gateway_mod.time, "sleep", lambda s: None)
    with pytest.raises(TransportError) as err:
        gateway.chat_complete("SCOPE3DOC")
    assert str(err.value).startswith(error)
    assert str(err.value).endswith(f'HTTP {status}: {{"error": "bad \ufffd byte"}}')
    attempts = gateway.config.max_attempts if retried else 1
    assert (gateway.counts["network_calls"], gateway.counts["retries"]) == (attempts,
                                                                           attempts - 1)


def test_temperature_clamped_to_zero(uncached_gateway, monkeypatch):
    bodies = []
    original = uncached_gateway._post

    def spy(path, body):
        bodies.append(body)
        return original(path, body)

    monkeypatch.setattr(uncached_gateway, "_post", spy)
    for want_logprobs in (False, True):
        uncached_gateway.chat_complete("SCOPE3DOC", want_logprobs=want_logprobs)
    assert len(bodies) == 2
    for body in bodies:
        assert body["model"] == uncached_gateway.config.chat_model
        assert body["messages"] == [{"role": "user", "content": "SCOPE3DOC"}]
        assert (body["temperature"], body["max_tokens"]) == (0.0, 1024)
        assert type(body["temperature"]) is float  # 0 and 0.0 hash to different keys


# Cache keys as earlier versions computed them: if one changes, every answer
# cached under it is lost.
GOLDEN_CHAT_KEY = "c23ddad1c9524a345401367ef6079243985268250da43ce8c40eeed7cf169eb1"
GOLDEN_EMBEDDING_KEY = "4c3c7333b7a0457980a7f1c8e749588ab20a314e5bb4c1b54c88cc9d9472e22e"


def test_cache_keys_golden(mock_server, tmp_path):
    gateway = LLMGateway(Config(base_url=mock_server.base_url, cache_dir=str(tmp_path),
                                chat_model="mock"))
    keys = []
    get = gateway.cache.get
    gateway.cache.get = lambda key: keys.append(key) or get(key)
    gateway.chat_complete("Judge this: SCOPE3DOC passage", want_logprobs=True)
    gateway.embed(["water usage"])
    assert keys == [GOLDEN_CHAT_KEY, GOLDEN_EMBEDDING_KEY]


def assert_vectors(vectors, expected):
    """`vectors` is one (n, d) float64 array equal to the rows of `expected`."""
    assert isinstance(vectors, np.ndarray)
    assert vectors.dtype == np.float64
    assert vectors.shape == (len(expected), EMBEDDING_DIM)
    assert np.array_equal(vectors, np.array(expected))


def indexed(indices):
    """An embedding answer whose i-th item has index indices[i] and the row
    [0, k + 1] for the integer k that its index equals, 0 for any other."""
    return {"data": [{"index": index,
                      "embedding": [0.0, index + 1.0 if type(index) is int else 0.0]}
                     for index in indices]}


class TestEmbed:
    def test_shapes_aligned(self, uncached_gateway):
        vectors = uncached_gateway.embed(["a", "b"])
        assert len(vectors) == 2
        assert len(vectors[0]) == len(vectors[1]) > 0

    def test_repeated_text_identical(self, uncached_gateway):
        texts = ["water usage", "other", "water usage"]
        vectors = uncached_gateway.embed(texts)
        assert_vectors(vectors, [hash_embedding(t) for t in texts])
        assert np.array_equal(vectors[0], vectors[2])

    def test_cached_per_text(self, gateway, mock_server):
        first = gateway.embed(["alpha beta"])
        calls = mock_server.request_count
        again = gateway.embed(["alpha beta"])
        assert_vectors(again, [hash_embedding("alpha beta")])
        assert np.array_equal(again, first)
        assert mock_server.request_count == calls

    def test_batches_keep_input_order(self):
        texts = [f"passage{i} about topic{i % 3}" for i in range(10)]
        with MockLLMServer(max_embed_inputs=3) as server:
            gateway = LLMGateway(Config(base_url=server.base_url, embed_batch_size=3))
            vectors = gateway.embed(texts)
            assert server.request_count == 4
        assert_vectors(vectors, [hash_embedding(t) for t in texts])
        assert gateway.counts["embedded_texts"] == 10

    def test_batch_above_endpoint_cap_rejected(self):
        with MockLLMServer(max_embed_inputs=3) as server:
            gateway = LLMGateway(Config(base_url=server.base_url, embed_batch_size=4))
            with pytest.raises(TransportError, match="HTTP 400"):
                gateway.embed([f"text{i}" for i in range(4)])

    @pytest.mark.parametrize("value, problem", [
        (None, "other than a list of numbers"),
        ("0.5", "other than a list of numbers"),
        (float("nan"), "not finite"),
        (float("inf"), "not finite"),
        ([0.5], "other than a list of numbers"),
        (10**400, "other than a list of numbers"),  # no OverflowError
        pytest.param(True, "other than a list of numbers", id="bools among floats"),
    ])
    def test_malformed_answer_names_the_input_and_caches_nothing(
            self, gateway, monkeypatch, value, problem):
        texts = ["alpha", "beta BADVALUE", "gamma"]

        def served(text):
            vector = hash_embedding(text)
            if "BADVALUE" in text:
                vector[5] = value
            return vector

        monkeypatch.setattr(mockserver, "hash_embedding", served)
        keys = []
        put = gateway.cache.put
        gateway.cache.put = lambda key, value: keys.append(key) or put(key, value)
        with pytest.raises(TransportError, match=f"input 1 of 3 with .*{problem}"):
            gateway.embed(texts)
        assert keys == []

    @pytest.mark.parametrize("spoil", [
        lambda vector: [round(x * 8) for x in vector],
        lambda vector: vector[:5] + [2**64] + vector[6:],
        lambda vector: vector[:5] + [2**70] + vector[6:],
    ], ids=["integer-valued", "2**64", "2**70"])
    def test_numbers_other_than_floats_read_as_float64(self, gateway, monkeypatch, spoil):
        """Ints of any width in float range, as a float would be."""
        def served(text):
            return spoil(hash_embedding(text)) if "ODD" in text else hash_embedding(text)

        monkeypatch.setattr(mockserver, "hash_embedding", served)
        texts = ["alpha", "beta ODD", "gamma"]
        assert_vectors(gateway.embed(texts), [served(t) for t in texts])

    def test_a_batch_of_bool_rows_is_refused(self, uncached_gateway, monkeypatch):
        monkeypatch.setattr(mockserver, "hash_embedding", lambda text: [True, False] * 4)
        with pytest.raises(TransportError, match="input 0 of 2 with something other than "
                                                 "a list of numbers"):
            uncached_gateway.embed(["alpha", "beta"])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(),  # NaN, ±inf, ±0.0 and subnormals among them
        st.integers(min_value=-2**1100, max_value=2**1100),  # some beyond float range
        st.sampled_from([2**64, 10**400, True, False, None, "0.5", [0.5], []]),
    ), min_size=1, max_size=8))
    @example([0.0, -0.0, 5e-324, -2.5e-310, 2**64, 1.7976931348623157e308])
    @example([0.5, True, 0.25])
    @example([0.5, False])
    @example([0.5, 10**400])
    @example([0.5, None])
    @example([0.5, "0.5"])
    @example([0.5, [0.5]])
    @example([0.5, float("nan")])
    @example([float("inf"), 0.5])
    @example([-float("inf")])
    def test_a_row_is_read_as_corpus_reads_a_list_of_floats(self, row):
        """A row is read exactly when every item is an int or a float, never a
        bool, finite and within float range: the rule that a `list[float]`
        field of an input row follows. A refused row caches nothing of its batch."""
        try:
            expected = corpus_mod._decoder(list[float])(row)
        except corpus_mod.RowError:
            expected = None
        body = json.dumps({"data": [{"index": 0, "embedding": [1.0] * len(row)},
                                    {"index": 1, "embedding": row}]}).encode()
        with tempfile.TemporaryDirectory() as tmp:
            gateway = LLMGateway(Config(cache_dir=tmp))
            gateway._session.post = lambda *args, **kwargs: answer_200(body)
            try:
                if expected is None:
                    with pytest.raises(TransportError, match="input 1 of 2 with "):
                        gateway.embed(["good", "odd"])
                    for text in ("good", "odd"):
                        key = cache_key("embedding", gateway.config.embedding_model, text)
                        assert gateway.cache.get(key) is None
                else:
                    vectors = gateway.embed(["good", "odd"])
                    assert vectors[1].tobytes() == _bits(expected)
            finally:
                gateway.close()

    def test_each_distinct_text_is_keyed_once(self, mock_server, tmp_path, monkeypatch):
        keyed = []
        real_cache_key = gateway_mod.cache_key
        monkeypatch.setattr(gateway_mod, "cache_key",
                            lambda kind, model, text: keyed.append(text)
                            or real_cache_key(kind, model, text))
        texts = ["alpha", "beta", "alpha", "gamma", "beta"]
        config = Config(base_url=mock_server.base_url, cache_dir=str(tmp_path))
        mock_server.reset_counters()
        for run in ("cold", "warm"):
            keyed.clear()
            assert_vectors(LLMGateway(config).embed(texts), [hash_embedding(t) for t in texts])
            assert sorted(keyed) == ["alpha", "beta", "gamma"], run
        assert mock_server.request_count == 1

    @pytest.mark.parametrize("field", ["data", "index", "embedding"])
    def test_answer_without_a_field_names_it(self, uncached_gateway, monkeypatch, field):
        real_post = uncached_gateway._post

        def spoiled(path, body, **kwargs):
            raw = real_post(path, body, **kwargs)
            if field == "data":
                del raw["data"]
            else:
                del raw["data"][-1][field]
            return raw

        monkeypatch.setattr(uncached_gateway, "_post", spoiled)
        with pytest.raises(TransportError, match=f"embedding endpoint answer lacks the "
                                                 f"field {field}$"):
            uncached_gateway.embed(["alpha", "beta"])

    @pytest.mark.parametrize("body, problem", [
        pytest.param([], "is not a JSON object", id="a list"),
        pytest.param("data", "is not a JSON object", id="a string"),
        pytest.param({"data": {"index": 0, "embedding": [1.0, 0.0]}},
                     "data is not a list of objects", id="data an object"),
        pytest.param({"data": [[1.0, 0.0], [0.0, 1.0]]},
                     "data is not a list of objects", id="data of lists"),
        pytest.param({"data": [{"index": 0, "embedding": [1.0, 0.0]}, None]},
                     "data is not a list of objects", id="data holding null"),
        *(pytest.param(indexed(indices), "indices are not 0 to 1, each once",
                       id=f"indices {indices}")
          for indices in ([0, 0], [5, 7], [1, 2], [-1, 0], ["0", 1], [0, "1"], [0.0, 1],
                          [True, 0], [None, 1], [[0], 1])),
    ])
    def test_answer_not_indexed_0_to_count_is_refused(self, gateway, monkeypatch,
                                                       body, problem):
        """Each one fails with a TransportError, not a TypeError, and caches nothing."""
        monkeypatch.setattr(gateway._session, "post",
                            lambda *args, **kwargs: answer_200(json.dumps(body).encode()))
        with pytest.raises(TransportError, match=f"^embedding endpoint answer.* {problem}"):
            gateway.embed(["alpha", "beta"])
        for text in ("alpha", "beta"):
            key = cache_key("embedding", gateway.config.embedding_model, text)
            assert gateway.cache.get(key) is None

    def test_rows_are_placed_by_their_index(self, gateway, monkeypatch):
        body = json.dumps(indexed([2, 0, 1])).encode()
        monkeypatch.setattr(gateway._session, "post", lambda *args, **kwargs: answer_200(body))
        vectors = gateway.embed(["alpha", "beta", "gamma"])
        assert vectors.tolist() == [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]


class TestCacheKey:
    def test_identical_requests_equal_keys(self):
        a = cache_key("chat", "m", {"user": "x", "temperature": 0})
        b = cache_key("chat", "m", {"user": "x", "temperature": 0})
        assert a == b

    def test_temperature_changes_key(self):
        a = cache_key("chat", "m", {"user": "x", "temperature": 0})
        b = cache_key("chat", "m", {"user": "x", "temperature": 1})
        assert a != b

    def test_logprob_flag_changes_key(self):
        a = cache_key("chat", "m", {"user": "x", "logprobs": True})
        b = cache_key("chat", "m", {"user": "x", "logprobs": False})
        assert a != b


def test_tok_probability_in_unit_interval(uncached_gateway):
    response = uncached_gateway.chat_complete("SCOPE3DOC", want_logprobs=True)
    for _, logprob in response.tokens:
        assert 0 < math.exp(logprob) <= 1


def _bits(vector):
    return struct.pack(f"<{len(vector)}d", *vector)


class TestResponseStore:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
    @example([-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
              1.7976931348623157e308, -1e300, 1e300])
    def test_embed_caches_and_serves_vectors_bit_exact(self, mock_server, vector):
        served = {"served text": vector, "other": [1.0] * len(vector)}
        mock_server.reset_counters()
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(mockserver, "hash_embedding", served.__getitem__):
            config = Config(base_url=mock_server.base_url, cache_dir=tmp)
            fresh = LLMGateway(config).embed(["served text", "other"])
            key = cache_key("embedding", config.embedding_model, "served text")
            assert ResponseStore(tmp).get(key) == _bits(vector)
            hit = LLMGateway(config).embed(["other", "served text"])
            assert mock_server.request_count == 1
        assert fresh[0].tobytes() == hit[1].tobytes() == _bits(vector)

    def test_write_once(self, tmp_path):
        store = ResponseStore(tmp_path)
        store.put("k", b"first")
        store.put("k", b"second")
        assert store.get("k") == b"first"
        assert store.get("other") is None
        assert ResponseStore(tmp_path).get("k") == b"first"

    def test_threads_put_and_get_at_once(self, tmp_path):
        store = ResponseStore(tmp_path)
        errors = []
        start = threading.Barrier(8)

        def work(t):
            try:
                start.wait()
                for i in range(50):
                    store.put(f"{t}-{i}", f"{t}:{i}".encode())
                    assert store.get(f"{t}-{i}") == f"{t}:{i}".encode()
                    store.put(f"shared-{i}", f"{t}".encode())  # all threads race here
                    assert store.get(f"shared-{i}") is not None
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        reopened = ResponseStore(tmp_path)
        assert all(reopened.get(f"{t}-{i}") == f"{t}:{i}".encode()
                   for t in range(8) for i in range(50))
        assert all(reopened.get(f"shared-{i}") == store.get(f"shared-{i}")
                   and int(store.get(f"shared-{i}")) in range(8) for i in range(50))

    def test_second_gateway_serves_from_the_same_file(self, mock_server, tmp_path):
        config = Config(base_url=mock_server.base_url, cache_dir=str(tmp_path),
                        backoff_base=0.01)
        prompt = "Judge this: SCOPE3DOC passage"
        first = LLMGateway(config)
        chat = first.chat_complete(prompt, want_logprobs=True)
        vectors = first.embed(["alpha", "beta"])
        mock_server.reset_counters()
        second = LLMGateway(config)
        again = second.chat_complete(prompt, want_logprobs=True)
        assert (again.text, again.tokens, again.cached) == (chat.text, chat.tokens, True)
        reordered = second.embed(["beta", "alpha"])
        assert_vectors(reordered, [hash_embedding("beta"), hash_embedding("alpha")])
        assert np.array_equal(reordered, vectors[::-1])
        assert mock_server.request_count == 0
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".json"] == []


class TestOrderedMap:
    def test_results_in_input_order_at_any_parallelism(self):
        def slow_head(i):
            time.sleep(0.02 if i % 5 == 0 else 0.001)
            return i * i

        for parallelism in (1, 3, 8):
            assert list(ordered_map(slow_head, range(40), parallelism)) == \
                [i * i for i in range(40)]

    def test_failure_yields_the_items_before_it_and_starts_none_after(self):
        started = []

        def fn(i):
            started.append(i)
            if i == 10:
                raise RuntimeError("item 10")
            time.sleep(0.05)
            return i

        results = []
        with pytest.raises(RuntimeError, match="item 10"):
            for result in ordered_map(fn, range(100), 4):
                results.append(result)
        assert results == list(range(10))
        # Only calls already running on the 2 * parallelism threads when 10 failed.
        assert max(started) < 10 + 2 * 4

    def test_the_earliest_failed_item_is_the_error_raised(self):
        def fn(i):
            if i == 3:
                time.sleep(0.2)  # fails after item 5 has failed
                raise RuntimeError("item 3")
            if i == 5:
                raise RuntimeError("item 5")
            return i

        with pytest.raises(RuntimeError, match="item 3"):
            list(ordered_map(fn, range(8), 8))

    def test_closing_early_starts_no_further_call(self):
        started = []
        running = [0, 0]  # now, most at once
        lock = threading.Lock()

        def fn(i):
            with lock:
                started.append(i)
                running[0] += 1
                running[1] = max(running)
            time.sleep(0.02)
            with lock:
                running[0] -= 1
            return i

        # A full garbage collection here, 60-200 ms late in the suite, would let
        # more items start before close() than the 20 ms items allow.
        gc.disable()
        try:
            results = ordered_map(fn, range(1000), 2)
            assert next(results) == 0
            results.close()
        finally:
            gc.enable()
        count = len(started)
        time.sleep(0.1)
        # The first call on each of the 2 * parallelism threads, and the one
        # each may have started before close().
        assert len(started) == count <= 2 * (2 * 2)
        assert running[1] <= 2 * 2

    def test_a_slow_item_does_not_idle_the_other_threads(self):
        # Were the items queued ahead capped at `parallelism`, the second
        # thread would wait for item 0 after finishing item 1.
        finished = []

        def fn(i):
            time.sleep(0.5 if i == 0 else 0.005)
            finished.append(i)

        list(ordered_map(fn, range(20), 2))
        assert finished[-1] == 0

    def test_input_is_read_a_bounded_way_ahead(self):
        read = []

        def items():
            for i in range(10_000):
                read.append(i)
                yield i

        results = ordered_map(lambda i: i, items(), 2)
        assert next(results) == 0
        assert len(read) <= LOOKAHEAD_PER_THREAD * 2 + 1
        results.close()

    def test_prefix_before_the_first_failure_under_thread_switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for fail_at in (0, 1, 7, 63, 199):
                results = []

                def fn(i):
                    if i == fail_at:
                        raise ValueError(i)
                    return i

                with pytest.raises(ValueError) as caught:
                    for result in ordered_map(fn, range(200), 16):
                        results.append(result)
                assert (results, caught.value.args) == (list(range(fail_at)), (fail_at,))
        finally:
            sys.setswitchinterval(interval)

    def test_a_backoff_gives_its_slot_to_the_earliest_waiting_item(self, tmp_path,
                                                                    monkeypatch):
        grants = []  # (index, indices waiting at that moment, taken before)

        class RecordingSlots(gateway_mod._Slots):
            def take(self, index):
                with self._cond:  # reentrant: held from the grant to the record
                    super().take(index)
                    grants.append((index, set(self._waiting),
                                   any(g[0] == index for g in grants)))

        monkeypatch.setattr(gateway_mod, "_Slots", RecordingSlots)
        (tmp_path / "rules.json").write_text(json.dumps(
            [{"match": "PAIR0;", "text": "answer 0", "status_sequence": [429, 200]}]
            + [{"match": f"PAIR{i};", "text": f"answer {i}", "delay_ms": 20}
               for i in range(1, 30)]))
        finished = []
        with MockLLMServer(fixtures_dir=tmp_path) as server:
            gateway = LLMGateway(Config(base_url=server.base_url, backoff_base=0.1,
                                        parallelism=2))

            def ask(i):
                text = gateway.chat_complete(f"PAIR{i}; passage").text
                finished.append(i)
                return text

            assert list(ordered_map(ask, range(30), 2)) == [f"answer {i}" for i in range(30)]
        assert finished[0] != 0  # later items ran while item 0 waited
        assert [g[0] for g in grants if g[2]] == [0]  # its retry took a slot once more
        for index, waiting, _ in grants:
            assert all(index < w for w in waiting), (index, waiting)

    def test_no_retry_is_sent_after_an_earlier_item_failed(self, tmp_path):
        # Item 2 fails at its retry, 0.1 s in, while item 5 waits out a 0.4 s backoff.
        (tmp_path / "rules.json").write_text(json.dumps([
            {"match": "PAIR2;", "status_sequence": [503, 400], "text": "never"},
            {"match": "PAIR5;", "status_sequence": [429, 200], "text": "answer 5",
             "headers": {"Retry-After": "1"}},
        ]))
        finished = []
        with MockLLMServer(fixtures_dir=tmp_path) as server:
            gateway = LLMGateway(Config(base_url=server.base_url, backoff_base=0.1,
                                        max_attempts=4, parallelism=8))

            def ask(i):
                gateway.chat_complete(f"PAIR{i}; passage")
                finished.append(i)
                return i

            with pytest.raises(TransportError, match="HTTP 400"):
                list(ordered_map(ask, range(8), 8))
            prompts = server.chat_prompts
        assert prompts.count("PAIR5; passage") == 1  # sent, and not retried
        assert prompts.count("PAIR2; passage") == 2
        assert 5 not in finished


@settings(derandomize=True, max_examples=50, deadline=None)
@given(kinds=st.lists(st.sampled_from(["wire", "hit"]), max_size=40),
       failures=st.dictionaries(st.integers(0, 39), st.sampled_from(["400", "parse"]),
                                max_size=3),
       parallelism=st.sampled_from([1, 2, 8]))
def test_a_slot_is_held_only_while_a_request_is_on_the_wire(kinds, failures, parallelism):
    """ordered_map over items that are cached, go on the wire for a few ms, or
    fail at the wire (an HTTP 400) or off it (an answer that does not parse).
    It gives a sequential loop's prefix and error, never has more than
    `parallelism` requests on the wire, records a failure at the wire before
    its slot is freed, and gives no slot to an index after the earliest failure
    once that is recorded. No socket is opened."""
    for index, kind in failures.items():
        if index < len(kinds):
            kinds[index] = kind
    lock = threading.Lock()
    on_wire = [0, 0]  # now, most at once
    events = []  # (what, index): each grant, stop and give, in the order they happened

    def post(url, json, timeout):
        with lock:
            on_wire[0] += 1
            on_wire[1] = max(on_wire)
        time.sleep(0.001 * (1 + json["item"] % 2))
        with lock:
            on_wire[0] -= 1
        return mock.Mock(status_code=400 if kinds[json["item"]] == "400" else 200,
                         headers={}, content=b'{"item": %d}' % json["item"])

    gateway = LLMGateway(Config(base_url="http://127.0.0.1:9", max_attempts=1))
    gateway._session.post = post

    def work(i):
        if kinds[i] == "hit":
            return i
        if kinds[i] == "parse":
            raise ValueError(f"item {i}")
        return gateway._post("/chat/completions", {"item": i})["item"]

    def run(results):
        done = []
        try:
            done.extend(results)
        except (ValueError, TransportError) as exc:
            return done, repr(exc)
        return done, None

    expected = run(map(work, range(len(kinds))))

    class RecordingSlots(gateway_mod._Slots):
        # Each event is recorded under the lock that orders it against the others.
        def take(self, index):
            with self._cond:
                super().take(index)
                events.append(("grant", index))

        def stop(self, index):
            with self._cond:
                super().stop(index)
                events.append(("stop", index))

        def give(self):
            with self._cond:
                super().give()
                events.append(("give", gateway_mod._turn.held[1]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch between the steps of a grant
    try:
        with mock.patch.object(gateway_mod, "_Slots", RecordingSlots):
            assert run(ordered_map(work, range(len(kinds)), parallelism)) == expected
    finally:
        sys.setswitchinterval(interval)
    assert on_wire[1] <= parallelism
    stop_after = math.inf
    for what, index in events:
        if what == "stop":
            stop_after = min(stop_after, index)
        elif what == "grant":
            assert index <= stop_after, (index, stop_after)
    for what, index in events:
        if what == "give" and kinds[index] == "400":
            assert ("stop", index) in events[:events.index((what, index))]


@pytest.mark.parametrize("parallelism", [1, 4])
def test_a_429_backoff_holds_no_slot(tmp_path, parallelism):
    """While one pair waits out its backoff, the others use its slot, and no
    more than `parallelism` requests are ever in flight. The gateway's counts,
    updated from every thread, match what the endpoint served."""
    others = 5
    (tmp_path / "rules.json").write_text(json.dumps(
        [{"match": "PAIR0;", "text": "answer 0", "status_sequence": [429, 200]}]
        + [{"match": f"PAIR{i};", "text": f"answer {i}", "delay_ms": 30}
           for i in range(1, others + 1)]))
    finished = []
    with MockLLMServer(fixtures_dir=tmp_path) as server:
        gateway = LLMGateway(Config(base_url=server.base_url, backoff_base=0.3,
                                    parallelism=parallelism))

        def ask(i):
            text = gateway.chat_complete(f"PAIR{i}; passage").text
            finished.append(i)
            return text

        wide = list(ordered_map(ask, range(others + 1), parallelism))
        peak = server.peak_in_flight
        served = [server.request_count, server.injected_count]
        server.reset_counters()
        serial = [gateway.chat_complete(f"PAIR{i}; passage").text
                  for i in range(others + 1)]
        served = [served[0] + server.request_count, served[1] + server.injected_count]
    assert peak <= parallelism
    assert finished[-1] == 0 and sorted(finished) == list(range(others + 1))
    assert wide == serial == [f"answer {i}" for i in range(others + 1)]
    # Each pass: one request per pair, and PAIR0's 429 and its one retry.
    assert served == [2 * (others + 2), 2]
    assert gateway.counts == {"embedded_texts": 0, "network_calls": served[0],
                              "retries": served[1], "backoff_s": 0.6}


def test_cached_answers_finish_while_a_request_is_on_the_wire(tmp_path):
    """At parallelism 1, the cached pairs after a slow request are answered
    while it is on the wire: a cached answer waits for no slot. The results
    still come in input order."""
    (tmp_path / "rules.json").write_text(json.dumps(
        [{"match": "PAIR0;", "text": "answer 0", "delay_ms": 300}]
        + [{"match": f"PAIR{i};", "text": f"answer {i}"} for i in range(1, 7)]))
    finished = []
    with MockLLMServer(fixtures_dir=tmp_path) as server:
        gateway = LLMGateway(Config(base_url=server.base_url, parallelism=1,
                                    cache_dir=str(tmp_path / "cache")))
        for i in range(1, 7):
            gateway.chat_complete(f"PAIR{i}; passage")

        def ask(i):
            text = gateway.chat_complete(f"PAIR{i}; passage").text
            finished.append(i)
            return text

        assert list(ordered_map(ask, range(7), 1)) == [f"answer {i}" for i in range(7)]
        assert server.request_count == 7
    assert finished == [1, 2, 3, 4, 5, 6, 0]


def test_a_dropped_or_truncated_answer_is_retried_and_frees_its_slot(tmp_path):
    """A connection closed without an answer and a 200 cut at half its
    Content-Length each fail the send; each is retried once, and the slot it
    held goes back, so the run ends as a fault-free one does."""
    rules = [{"match": f"PAIR{i};", "text": f"answer {i}", "delay_ms": 10} for i in range(8)]

    def run(name, faults):
        (tmp_path / name).mkdir()
        (tmp_path / name / "rules.json").write_text(json.dumps(
            [dict(rule, **faults.get(i, {})) for i, rule in enumerate(rules)]))
        with MockLLMServer(fixtures_dir=tmp_path / name) as server:
            gateway = LLMGateway(Config(base_url=server.base_url, backoff_base=0.01,
                                        parallelism=2))
            results = list(ordered_map(
                lambda i: gateway.chat_complete(f"PAIR{i}; passage").text, range(8), 2))
            return results, gateway.counts, server.injected_count, server.peak_in_flight

    clean = run("clean", {})
    results, counts, injected, peak = run("faulty", {
        1: {"status_sequence": ["drop", 200]}, 4: {"status_sequence": ["truncate", 200]}})
    assert results == clean[0] == [f"answer {i}" for i in range(8)]
    assert (counts["retries"], counts["network_calls"], injected) == (2, 10, 2)
    assert peak <= 2


def test_connection_pool_holds_one_connection_per_request_in_flight():
    base_url = "http://127.0.0.1:9"
    adapter = LLMGateway(Config(base_url=base_url, parallelism=16))._session.get_adapter(
        base_url)
    assert adapter._pool_maxsize == 16
    assert adapter.poolmanager.connection_pool_kw["maxsize"] == 16


@pytest.mark.parametrize("header,expected", [
    ({"Retry-After": "1"}, 1.0),
    ({"Retry-After": "0"}, 0.0),
    ({"Retry-After": "30"}, 2.0),  # capped at the schedule's largest delay
    ({}, 0.5),  # the schedule's first delay
    ({"Retry-After": "1.5"}, 0.5),
    ({"Retry-After": "soon"}, 0.5),
    ({"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, 0.5),
])
def test_retry_after_delta_seconds_is_honoured(tmp_path, monkeypatch, header, expected):
    (tmp_path / "rules.json").write_text(json.dumps([
        {"match": "BUSY", "text": "ok", "status_sequence": [503, 200], "headers": header}]))
    sleeps = []
    monkeypatch.setattr(gateway_mod.time, "sleep", sleeps.append)
    with MockLLMServer(fixtures_dir=tmp_path) as server:
        gateway = LLMGateway(Config(base_url=server.base_url, max_attempts=4,
                                    backoff_base=0.5))
        assert gateway.chat_complete("BUSY").text == "ok"
    assert sleeps == [expected]

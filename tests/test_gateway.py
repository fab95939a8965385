import math

import pytest

from relanno.gateway import (
    CapabilityError,
    ChatRequest,
    GatewayConfig,
    LLMGateway,
    TransportError,
    cache_key,
)
from relanno.mockserver import MockLLMServer, hash_embedding


def test_fixture_round_trip(uncached_gateway):
    response = uncached_gateway.chat_complete(ChatRequest(
        model="mock", user="Judge this: SCOPE3DOC passage"))
    assert response.text == "[Guess]: Yes\n[Confidence]: 0.9"
    assert response.cached is False


def test_cache_contract(gateway, mock_server):
    request = ChatRequest(model="mock", user="Judge this: WATERDOC passage")
    first = gateway.chat_complete(request)
    calls_after_first = mock_server.request_count
    second = gateway.chat_complete(request)
    assert first.cached is False
    assert second.cached is True
    assert second.text == first.text
    assert mock_server.request_count == calls_after_first


def test_retry_on_429(gateway):
    response = gateway.chat_complete(ChatRequest(
        model="mock", user="Judge this: RETRYDOC passage"))
    assert response.text == "[Guess]: Yes\n[Confidence]: 0.6"
    assert gateway.retry_count == 1


def test_retries_exhausted():
    gateway = LLMGateway(GatewayConfig(
        base_url="http://127.0.0.1:1", max_attempts=2, backoff_base=0.01))
    with pytest.raises(TransportError):
        gateway.chat_complete(ChatRequest(model="mock", user="hello"))


def test_logprobs_captured(uncached_gateway):
    response = uncached_gateway.chat_complete(ChatRequest(
        model="mock", user="Judge this: SCOPE3DOC passage", want_logprobs=True))
    assert response.tokens
    assert all(lp <= 0 for _, lp in response.tokens)
    surfaces = "".join(s for s, _ in response.tokens)
    assert surfaces == response.text


def test_missing_logprobs_is_capability_error(uncached_gateway, monkeypatch):
    # Simulate an endpoint that ignores the logprobs request flag.
    original = uncached_gateway._post

    def strip_logprobs(path, body):
        raw = original(path, body)
        for choice in raw.get("choices", []):
            choice.pop("logprobs", None)
        return raw

    monkeypatch.setattr(uncached_gateway, "_post", strip_logprobs)
    with pytest.raises(CapabilityError):
        uncached_gateway.chat_complete(ChatRequest(
            model="mock", user="SCOPE3DOC", want_logprobs=True))


def test_empty_prompt_rejected(uncached_gateway):
    with pytest.raises(ValueError):
        uncached_gateway.chat_complete(ChatRequest(model="mock", user="  "))


def test_temperature_clamped_to_zero(uncached_gateway, monkeypatch):
    captured = {}
    original = uncached_gateway._post

    def spy(path, body):
        captured.update(body)
        return original(path, body)

    monkeypatch.setattr(uncached_gateway, "_post", spy)
    uncached_gateway.chat_complete(ChatRequest(
        model="mock", user="SCOPE3DOC", temperature=0.7))
    assert captured["temperature"] == 0.0


class TestEmbed:
    def test_shapes_aligned(self, uncached_gateway):
        response = uncached_gateway.embed(["a", "b"])
        assert len(response.vectors) == 2
        assert len(response.vectors[0]) == len(response.vectors[1]) > 0

    def test_repeated_text_identical(self, uncached_gateway):
        response = uncached_gateway.embed(["water usage", "other", "water usage"])
        assert response.vectors[0] == response.vectors[2]

    def test_empty_list_rejected(self, uncached_gateway):
        with pytest.raises(ValueError):
            uncached_gateway.embed([])

    def test_cached_per_text(self, gateway, mock_server):
        gateway.embed(["alpha beta"])
        calls = mock_server.request_count
        response = gateway.embed(["alpha beta"])
        assert mock_server.request_count == calls
        assert response.cached is True

    def test_batches_keep_input_order(self):
        texts = [f"passage{i} about topic{i % 3}" for i in range(10)]
        with MockLLMServer(max_embed_inputs=3) as server:
            gateway = LLMGateway(GatewayConfig(base_url=server.base_url,
                                               embed_batch_size=3))
            response = gateway.embed(texts)
            assert server.request_count == 4
        assert response.vectors == [hash_embedding(t) for t in texts]
        assert gateway.embedded_texts == 10

    def test_batch_above_endpoint_cap_rejected(self):
        with MockLLMServer(max_embed_inputs=3) as server:
            gateway = LLMGateway(GatewayConfig(base_url=server.base_url,
                                               embed_batch_size=4))
            with pytest.raises(TransportError, match="HTTP 400"):
                gateway.embed([f"text{i}" for i in range(4)])

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(ValueError):
            LLMGateway(GatewayConfig(base_url="http://127.0.0.1:1", embed_batch_size=0))


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
    response = uncached_gateway.chat_complete(ChatRequest(
        model="mock", user="SCOPE3DOC", want_logprobs=True))
    for _, logprob in response.tokens:
        assert 0 < math.exp(logprob) <= 1

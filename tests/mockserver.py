"""Deterministic mock endpoint speaking the chat-completions/embeddings wire shape.

Chat responses come from canned rules in a fixtures directory; embeddings are
a deterministic bag-of-words hash, so any pipeline run against this server is
bit-reproducible. Intended for tests and offline dry runs.

A rule answers every chat request whose user message contains its `match`
with its `text` (and `logprobs`). Optional fields: `status_sequence`, the
status of its 1st, 2nd, ... request (the last one repeats), where `"drop"`
closes the connection without answering and `"truncate"` sends a 200 whose
body stops at half its `Content-Length`; `headers`, sent with each answer
whose status is not 200; `delay_ms`, waited before each answer of status 200,
a truncated one included. Rules are written under the `[Confidence]:` label; a
prompt that asks for `[Probability Helpful]:` is answered under that label
instead, as a model that follows its prompt answers.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

EMBEDDING_DIM = 32
DEFAULT_CHAT_TEXT = "[Guess]: No\n[Confidence]: 0.5"
CONFIDENCE_LABEL = "[Confidence]:"
PROBABILITY_LABEL = "[Probability Helpful]:"


def tokenize_with_logprobs(text: str, logprob: float = -0.1) -> list[list]:
    """Split text into tokens whose concatenation reproduces it exactly."""
    return [[t, logprob] for t in re.findall(r"\s*\S+|\s+$", text)]


def hash_embedding(text: str, dim: int = EMBEDDING_DIM) -> list[float]:
    """Deterministic bag-of-words embedding; shared tokens yield similar vectors."""
    vec = [0.0] * dim
    for word in text.lower().split():
        digest = hashlib.sha256(word.encode("utf-8")).digest()
        vec[digest[0] % dim] += 1.0
    return vec


class _State:
    def __init__(self, rules: list[dict], max_embed_inputs: Optional[int]):
        self.rules = rules
        self.max_embed_inputs = max_embed_inputs
        self.hits: dict[int, int] = {}
        self.lock = threading.Lock()
        self.request_count = 0
        self.injected_count = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self.chat_prompts: list[str] = []
        self.authorizations: list[Optional[str]] = []


def _load_rules(fixtures_dir: Optional[str | Path]) -> list[dict]:
    if fixtures_dir is None:
        return []
    rules: list[dict] = []
    for path in sorted(Path(fixtures_dir).glob("*.json")):
        with open(path, encoding="utf-8") as f:
            loaded = json.load(f)
        rules.extend(loaded if isinstance(loaded, list) else [loaded])
    return rules


class _Handler(BaseHTTPRequestHandler):
    state: _State

    def log_message(self, *args):  # keep test output quiet
        pass

    def _send(self, status: int, body: dict, headers: Optional[dict] = None,
              truncate: bool = False) -> None:
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if truncate:
            payload = payload[:len(payload) // 2]
            self.close_connection = True
        self.wfile.write(payload)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        state = self.state
        with state.lock:
            state.request_count += 1
            state.authorizations.append(self.headers.get("Authorization"))
            state.in_flight += 1
            state.peak_in_flight = max(state.peak_in_flight, state.in_flight)
        try:
            if self.path.endswith("/chat/completions"):
                self._chat(body)
            elif self.path.endswith("/embeddings"):
                self._embeddings(body)
            else:
                self._send(404, {"error": f"unknown path {self.path}"})
        finally:
            with state.lock:
                state.in_flight -= 1

    def _chat(self, body: dict) -> None:
        user = ""
        for message in body.get("messages", []):
            if message.get("role") == "user":
                user = message.get("content", "")
        with self.state.lock:
            self.state.chat_prompts.append(user)
        rule = None
        rule_index = -1
        for i, candidate in enumerate(self.state.rules):
            if candidate.get("match", "") in user:
                rule, rule_index = candidate, i
                break

        status = 200
        if rule is not None and "status_sequence" in rule:
            with self.state.lock:
                hit = self.state.hits.get(rule_index, 0)
                self.state.hits[rule_index] = hit + 1
            sequence = rule["status_sequence"]
            status = sequence[min(hit, len(sequence) - 1)]
        if status != 200:
            with self.state.lock:
                self.state.injected_count += 1
        if status == "drop":
            self.close_connection = True
            return
        if status not in (200, "truncate"):
            self._send(status, {"error": {"message": f"injected status {status}"}},
                       rule.get("headers"))
            return
        if rule is not None and "delay_ms" in rule:
            time.sleep(rule["delay_ms"] / 1000)

        text = rule["text"] if rule is not None else DEFAULT_CHAT_TEXT
        logprobs = (rule or {}).get("logprobs") or tokenize_with_logprobs(text)
        if PROBABILITY_LABEL in user:
            text = text.replace(CONFIDENCE_LABEL, PROBABILITY_LABEL)
            logprobs = [[t.replace(CONFIDENCE_LABEL, PROBABILITY_LABEL), lp]
                        for t, lp in logprobs]
        choice: dict = {
            "index": 0,
            "message": {"role": "assistant", "content": text},
            "finish_reason": "stop",
        }
        if body.get("logprobs"):
            choice["logprobs"] = {
                "content": [{"token": t, "logprob": lp} for t, lp in logprobs]
            }
        self._send(200, {
            "id": "mock", "object": "chat.completion",
            "model": body.get("model", "mock"), "choices": [choice],
        }, truncate=status == "truncate")

    def _embeddings(self, body: dict) -> None:
        inputs = body.get("input", [])
        if isinstance(inputs, str):
            inputs = [inputs]
        cap = self.state.max_embed_inputs
        if cap is not None and len(inputs) > cap:
            self._send(400, {"error": {"message": (
                f"{len(inputs)} inputs exceed the limit of {cap} per request")}})
            return
        data = [
            {"object": "embedding", "index": i, "embedding": hash_embedding(text)}
            for i, text in enumerate(inputs)
        ]
        self._send(200, {
            "object": "list", "model": body.get("model", "mock"), "data": data,
        })


class MockLLMServer:
    """Background fixture server; use as a context manager or start()/stop().

    `max_embed_inputs` caps the inputs of one embedding request; above it the
    server answers HTTP 400, as hosted endpoints do. None means no cap.
    """

    def __init__(self, fixtures_dir: Optional[str | Path] = None, port: int = 0,
                 max_embed_inputs: Optional[int] = None):
        self._state = _State(_load_rules(fixtures_dir), max_embed_inputs)
        handler = type("BoundHandler", (_Handler,), {"state": self._state})
        self._server = ThreadingHTTPServer(("127.0.0.1", port), handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def request_count(self) -> int:
        return self._state.request_count

    @property
    def injected_count(self) -> int:
        """Requests answered from a rule's status_sequence with anything but
        200 (a status, a drop or a truncated answer) since the last reset."""
        return self._state.injected_count

    @property
    def peak_in_flight(self) -> int:
        """The most requests handled at once since the last reset."""
        return self._state.peak_in_flight

    @property
    def chat_prompts(self) -> list[str]:
        """The user message of each chat request since the last reset, in
        arrival order."""
        with self._state.lock:
            return list(self._state.chat_prompts)

    @property
    def authorizations(self) -> list[Optional[str]]:
        """The Authorization header of each request since the last reset
        (None where there was none), in arrival order."""
        with self._state.lock:
            return list(self._state.authorizations)

    def reset_counters(self) -> None:
        with self._state.lock:
            self._state.request_count = 0
            self._state.injected_count = 0
            self._state.peak_in_flight = self._state.in_flight
            self._state.chat_prompts.clear()
            self._state.authorizations.clear()
            self._state.hits.clear()

    def start(self) -> "MockLLMServer":
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2)
            self._thread = None

    def __enter__(self) -> "MockLLMServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

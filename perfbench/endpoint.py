"""The benchmark's endpoint: an OpenAI-style HTTP server with remote-like latency.

Run as its own process (`python3 perfbench/endpoint.py SPEC.json`); it prints
the port it listens on as its first line of output. It speaks
`/chat/completions` and `/embeddings` over HTTP/1.1 keep-alive and answers from
`model.py` only. It sleeps a deterministic latency per request, answers the
designated (query, doc) cells with one 429 or a malformed completion, and
counts what it receives: `GET /stats` returns the counters, `POST /reset`
zeroes them and forgets which cells were already throttled.

There is no cap on inputs per embedding request: batching is not measured.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import model

STATS = ("requests", "chat_requests", "embed_requests", "embed_inputs", "input_tokens",
         "request_bytes", "response_bytes", "peak_in_flight", "injected_429",
         "injected_malformed")


class State:
    def __init__(self, spec: dict):
        self.spec = spec
        self.seed = spec["seed"]
        self.malformed = model.cells(spec["malformed"])
        self.throttled = model.cells(spec["throttled"])
        self.embedder = model.Embedder()
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.stats = dict.fromkeys(STATS, 0)
            self.in_flight = 0
            self.throttled_done: set[tuple[int, int]] = set()

    def count(self, **deltas: int) -> None:
        with self.lock:
            for key, value in deltas.items():
                self.stats[key] += value


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    state: State

    def setup(self):
        super().setup()
        # Headers and body go out in one write; no Nagle/delayed-ACK stall.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, *args):
        pass

    def _send(self, status: int, body: dict) -> int:
        payload = json.dumps(body).encode()
        head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n").encode()
        self.wfile.write(head + payload)
        return len(payload)

    def do_GET(self):
        if self.path == "/stats":
            with self.state.lock:
                stats = dict(self.state.stats)
            self._send(200, stats)
        else:
            self._send(404, {"error": f"unknown path {self.path}"})

    def do_POST(self):
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            self.state.reset()
            self._send(200, {})
            return
        state = self.state
        with state.lock:
            state.in_flight += 1
            state.stats["peak_in_flight"] = max(state.stats["peak_in_flight"],
                                                state.in_flight)
        try:
            body = json.loads(raw)
            if self.path.endswith("/chat/completions"):
                status, answer = self._chat(body)
                state.count(chat_requests=1)
            elif self.path.endswith("/embeddings"):
                status, answer = self._embeddings(body)
                state.count(embed_requests=1)
            else:
                status, answer = 404, {"error": f"unknown path {self.path}"}
            sent = self._send(status, answer)
            state.count(requests=1, request_bytes=len(raw), response_bytes=sent)
        finally:
            with state.lock:
                state.in_flight -= 1

    def _chat(self, body: dict) -> tuple[int, dict]:
        state, spec = self.state, self.state.spec
        messages = body.get("messages", [])
        state.count(input_tokens=sum(len(m.get("content", "").split()) for m in messages))
        user = messages[-1].get("content", "") if messages else ""
        q_match, d_match = model.QUERY_TAG.search(user), model.DOC_TAG.search(user)
        if q_match is None:
            return 400, {"error": "prompt carries no query tag"}
        q = int(q_match.group(1))
        d = int(d_match.group(1)) if d_match else None
        spread = spec["chat_spread_ms"] * (2 * model.unit(state.seed, "latency", q, d) - 1)
        time.sleep(max(spec["chat_base_ms"] + spread, 0.0) / 1000)
        if d is None:
            return 200, _completion(body, model.definition_text(state.seed, q), None)
        if model.designated(state.throttled, q, d):
            with state.lock:
                first = (q, d) not in state.throttled_done
                state.throttled_done.add((q, d))
                if first:
                    state.stats["injected_429"] += 1
            if first:
                return 429, {"error": {"message": "rate limited"}}
        malformed = model.designated(state.malformed, q, d)
        if malformed:
            state.count(injected_malformed=1)
        answer = model.pair_answer(state.seed, q, d, malformed)
        return 200, _completion(body, answer.text, model.completion_tokens(answer))

    def _embeddings(self, body: dict) -> tuple[int, dict]:
        spec = self.state.spec
        inputs = body.get("input", [])
        if isinstance(inputs, str):
            inputs = [inputs]
        self.state.count(embed_inputs=len(inputs),
                         input_tokens=sum(len(t.split()) for t in inputs))
        time.sleep((spec["embed_base_ms"] + spec["embed_per_input_ms"] * len(inputs)) / 1000)
        embed = self.state.embedder.embed
        data = [{"object": "embedding", "index": i, "embedding": embed(t).tolist()}
                for i, t in enumerate(inputs)]
        return 200, {"object": "list", "model": body.get("model", ""), "data": data}


def _completion(body: dict, text: str, tokens) -> dict:
    choice: dict = {"index": 0, "finish_reason": "stop",
                    "message": {"role": "assistant", "content": text}}
    if body.get("logprobs") and tokens is not None:
        choice["logprobs"] = {"content": tokens}
    return {"object": "chat.completion", "model": body.get("model", ""), "choices": [choice]}


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(0)


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    handler = type("BoundHandler", (Handler,), {"state": State(spec)})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()

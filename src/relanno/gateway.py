"""Client for OpenAI-style chat-completion and embedding endpoints.

Captures per-token log probabilities, retries transient failures with
exponential backoff, and caches raw endpoint responses in one SQLite file so
corpus-scale runs are cheap to resume. An answer is read as UTF-8, as RFC 8259
§8.1 requires of JSON, whatever charset it declares: no other body is guessed
at. The gateway is thread-safe. Inside `ordered_map`, a request holds one of
`config.parallelism` slots only while it is on the wire (sent, answered and
decoded), and its connection pool holds one connection per slot; a backoff, a
cached answer, a prompt and the parsing of an answer hold none. A free slot
goes to the earliest item waiting for one.

numpy's first load is the one lazy load that runs off the calling thread:
`embed` starts it on a worker just before its first request and waits for it
before it first uses numpy, so a cold `rank` loads numpy while that request is
in flight. `lazy_import`'s rule holds, since no other thread reads numpy until
the worker's read returns, and an import error is raised on the calling thread.
As numpy may still be loading while an answer is parsed, each embedding of
numbers is parsed into a stdlib `array`; and the answer's bytes are freed before
its text is parsed, so that numpy, now resident sooner, does not raise the peak.
"""

from __future__ import annotations

import array
import collections
import hashlib
import itertools
import json
import logging
import math
import os
import re
import sqlite3
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from . import lazy_import
from .config import Config
from .corpus import RowError, check_unicode

np = lazy_import("numpy")
requests = lazy_import("requests")

log = logging.getLogger(__name__)

RETRYABLE_STATUS = {408, 429, 500, 502, 503, 504}
TIMEOUT_S = 60.0
# Items queued per slot ahead of the one `ordered_map` yields next: enough
# that the slots stay busy with later requests while one item waits out its
# backoff or a slow answer, and its cached neighbours need no slot at all.
LOOKAHEAD_PER_THREAD = 64

T = TypeVar("T")
R = TypeVar("R")


class TransportError(RuntimeError):
    """Endpoint unreachable, retries exhausted, or an answer lacking what is needed."""


# The benchmark's tracer reads `.cached` of the answer chat_complete returns.
@dataclass
class ChatResponse:
    text: str
    tokens: list[tuple[str, float]]
    model: str
    cached: bool = False


def cache_key(kind: str, model: str, payload: object) -> str:
    """Stable content hash over everything that determines an endpoint answer."""
    blob = json.dumps({"kind": kind, "model": model, "payload": payload},
                      sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class _Slots:
    """`count` slots, each one that comes free given to the earliest index
    waiting for one, and the index of the earliest item that failed: no slot
    is given to an index after it."""

    def __init__(self, count: int):
        self._cond = threading.Condition()
        self._free = count
        self._waiting: set[int] = set()
        self.stop_after = math.inf

    def stop(self, index: float) -> None:
        with self._cond:
            self.stop_after = min(self.stop_after, index)

    def take(self, index: int) -> None:
        with self._cond:
            self._waiting.add(index)
            self._cond.wait_for(lambda: self._free and index == min(self._waiting))
            self._waiting.remove(index)
            self._cond.notify_all()  # a slot may still be free for the next index
            if index > self.stop_after:
                raise _Stopped
            self._free -= 1

    def give(self) -> None:
        with self._cond:
            self._free += 1
            self._cond.notify_all()


class _Stopped(BaseException):
    """An item reached the wire after an earlier item failed."""


# `held`: the slots and item index of the `ordered_map` call this thread is
# running, or None.
_turn = threading.local()


def ordered_map(fn: Callable[[T], R], items: Iterable[T], parallelism: int) -> Iterator[R]:
    """fn(item) for each item, on 2 * parallelism threads, yielded in input
    order: the results and the error that a sequential loop would give.

    Each request that fn sends through the gateway holds one of `parallelism`
    slots while it is on the wire, and only then: a backoff, a cached answer
    and the work around a request hold none, so a cached item never waits
    behind a request. A slot that comes free goes to the earliest item waiting
    for one, so no later request overtakes an earlier one that waits. Up to
    LOOKAHEAD_PER_THREAD * parallelism items are queued ahead of the one
    yielded next, so one slow item does not idle the other slots, while memory
    stays bounded however many items there are.

    When fn raises for an item, no later item starts, and none sends a request
    or a retry once the failure is recorded: a request that fails records it
    before its slot is freed. The earlier items still run and are yielded,
    then the error of the first item that failed is raised. An Event would also
    stop an earlier item, so the earliest failed index is kept instead. Closing
    the iterator early starts no further call either.
    """
    slots = _Slots(parallelism)

    def call(index: int, item: T):
        if index > slots.stop_after:
            return None  # never yielded: the iterator stops at the failure
        _turn.held = (slots, index)
        try:
            return fn(item)
        except _Stopped:
            return None
        except BaseException:
            slots.stop(index)
            raise
        finally:
            _turn.held = None

    numbered = enumerate(items)
    pending = collections.deque()
    pool = ThreadPoolExecutor(max_workers=2 * parallelism)

    def submit(count: int) -> None:
        for index, item in itertools.islice(numbered, count):
            pending.append(pool.submit(call, index, item))

    try:
        submit(LOOKAHEAD_PER_THREAD * parallelism)
        while pending:
            result = pending.popleft().result()
            submit(1)
            yield result
    finally:
        slots.stop(-1)
        pool.shutdown(cancel_futures=True)


def _retry_after(value: Optional[str]) -> Optional[float]:
    """The seconds of a `Retry-After` header in delta-seconds form (RFC 9110
    §10.2.3); None when it is missing or not that form, an HTTP date included."""
    if value is None or not re.fullmatch(r"[0-9]+", value.strip()):
        return None
    return float(value.strip())


def _check_dimensions(dims: set[int]) -> None:
    if len(dims) > 1 or 0 in dims:
        raise TransportError(f"inconsistent embedding dimensions: {sorted(dims)}")


def _float_rows(obj: dict) -> dict:
    """The `object_hook` of an embedding answer, and the one rule for a row of
    numbers: an `embedding` whose items are all floats or ints (never bools)
    within float range becomes an `array.array("d")` as the answer is parsed,
    so its Python numbers are freed row by row, and an int wider than 64 bits
    is read as the float it rounds to. Any other value stays as it is, for
    `_batch_vectors` to refuse."""
    row = obj.get("embedding")
    if type(row) is list and set(map(type, row)) <= {float, int}:
        try:
            obj["embedding"] = array.array("d", row)
        except OverflowError:  # an integer beyond float range
            pass
    return obj


def _batch_vectors(raw: object, count: int, dims: set[int]) -> np.ndarray:
    """The `(count, d)` little-endian float64 array of one embedding answer,
    each row at the input its `index` names. Raises TransportError, naming the
    input, when the answer is not an object whose `data` is `count` objects
    indexed 0 to count-1, each once, with rows that `_float_rows` read as
    numbers, then when their dimensions disagree, then when one is not
    finite, so that nothing of a malformed batch is cached. Adds the dimension to `dims`."""
    if type(raw) is not dict:
        raise TransportError("embedding endpoint answer is not a JSON object")
    try:
        data = raw["data"]
        if type(data) is not list or any(type(item) is not dict for item in data):
            raise TransportError("embedding endpoint answer's data is not a list of objects")
        indices = [item["index"] for item in data]
        rows = [item["embedding"] for item in data]
    except KeyError as exc:
        raise TransportError(f"embedding endpoint answer lacks the field {exc.args[0]}") from None
    if len(data) != count:
        raise TransportError(
            f"embedding endpoint returned {len(data)} vectors for {count} inputs")
    if any(type(index) is not int for index in indices) or sorted(indices) != list(range(count)):
        raise TransportError(f"embedding endpoint answer's indices are not 0 to {count - 1}, "
                             "each once")
    rows = [row for _, row in sorted(zip(indices, rows))]  # the indices are distinct
    for index, row in enumerate(rows):
        if type(row) is not array.array:
            raise TransportError(f"embedding endpoint answered input {index} of {count} "
                                 "with something other than a list of numbers")
    dims |= set(map(len, rows))
    _check_dimensions(dims)
    vectors = np.array(rows)
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        raise TransportError(f"embedding endpoint answered input {int(np.argmin(finite))} "
                             f"of {count} with a value that is not finite")
    return vectors.astype("<f8", copy=False)


class ResponseStore:
    """Write-once store of endpoint answers keyed by content hash: one SQLite
    file, `<root>/responses.sqlite3`, in WAL mode. Values are bytes; each
    `put` is its own committed transaction, so a killed run keeps every answer
    it stored.
    """

    def __init__(self, root: str | Path):
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        # Autocommit: every statement commits alone.
        self._db = sqlite3.connect(root / "responses.sqlite3", isolation_level=None,
                                   check_same_thread=False)
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.execute(
            "CREATE TABLE IF NOT EXISTS responses (key TEXT PRIMARY KEY, value BLOB NOT NULL)")

    def get(self, key: str) -> Optional[bytes]:
        with self._lock:
            row = self._db.execute("SELECT value FROM responses WHERE key = ?",
                                   (key,)).fetchone()
        return row[0] if row else None

    def put(self, key: str, value: bytes) -> None:
        with self._lock:
            self._db.execute("INSERT OR IGNORE INTO responses VALUES (?, ?)", (key, value))

    def close(self) -> None:
        """Closes the connection; as the last one, it folds the WAL into the
        file and removes `-wal` and `-shm`."""
        with self._lock:
            self._db.close()


class LLMGateway:
    """Thread-safe handle to chat + embedding endpoints with caching."""

    def __init__(self, config: Config):
        self.config = config
        self.cache = ResponseStore(config.cache_dir) if config.cache_dir else None
        # Also loads `requests`, here on the thread that builds the gateway and
        # before any worker pool uses it (see `lazy_import`).
        self._session = requests.Session()
        # The environment is read once: per request, a netrc entry replaced the API key.
        self._session.trust_env = False
        if key := os.environ.get(config.api_key_env):
            self._session.headers["Authorization"] = f"Bearer {key}"
        self._session.proxies = requests.utils.get_environ_proxies(config.base_url)
        self._session.verify = (os.environ.get("REQUESTS_CA_BUNDLE")
                                or os.environ.get("CURL_CA_BUNDLE") or True)
        # One kept-alive connection per request in flight: the default pool
        # keeps 10 and drops and reopens connections above that.
        adapter = requests.adapters.HTTPAdapter(pool_maxsize=config.parallelism)
        for prefix in ("http://", "https://"):
            self._session.mount(prefix, adapter)
        # In summary-line order; backoff_s: seconds waited before retries, over all threads.
        self._counts = collections.Counter(
            {"embedded_texts": 0, "network_calls": 0, "retries": 0, "backoff_s": 0.0})
        self._counts_lock = threading.Lock()

    def close(self) -> None:
        """Closes the response cache and the connection pool; `counts` stays readable."""
        if self.cache:
            self.cache.close()
        self._session.close()

    @property
    def counts(self) -> dict[str, float]:
        """The counts so far, backoff_s to the millisecond."""
        with self._counts_lock:
            return dict(self._counts, backoff_s=round(self._counts["backoff_s"], 3))

    def _count(self, **amounts: float) -> None:
        with self._counts_lock:
            self._counts.update(amounts)  # adds, as a Counter does

    # --- transport ---------------------------------------------------------

    def _post(self, path: str, body: dict,
              object_hook: Optional[Callable[[dict], object]] = None) -> dict:
        """The parsed JSON of a 200 answer to `body`, each object passed through
        `object_hook` as `json.loads` does; transient failures are retried. A
        200 body that is not UTF-8 JSON is a TransportError, sent once and never
        retried; an error body is quoted with invalid bytes replaced.

        Each attempt holds a slot of the running `ordered_map` (outside one, a
        slot of its own) from before it is sent until its answer is decoded,
        and a failure raised here is recorded before that slot is freed. The
        backoff before a retry holds none."""
        url = self.config.base_url.rstrip("/") + path
        longest_delay = math.ldexp(self.config.backoff_base, max(self.config.max_attempts - 2, 0))
        slots, index = getattr(_turn, "held", None) or (_Slots(1), 0)
        delay = 0.0
        for attempt in itertools.count():
            if attempt:
                time.sleep(delay)
            slots.take(index)  # raises _Stopped after an earlier item failed
            try:
                self._count(network_calls=1, retries=int(attempt > 0), backoff_s=delay)
                delay = math.ldexp(self.config.backoff_base, attempt)  # before the next attempt
                try:
                    resp = self._session.post(url, json=body, timeout=TIMEOUT_S)
                except requests.RequestException as exc:
                    last_error = str(exc)
                    log.warning("request to %s failed (%s), attempt %d", url, exc, attempt + 1)
                else:
                    if resp.status_code == 200:
                        try:
                            text = resp.content.decode("utf-8")
                            del resp  # the bytes are freed before the text is parsed
                            return json.loads(text, object_hook=object_hook)
                        except ValueError as exc:  # not UTF-8, not JSON, or an int too long
                            raise TransportError(f"endpoint answer from {url} is not valid "
                                                 f"JSON: {exc}") from None
                    excerpt = resp.content[:200].decode("utf-8", "replace")
                    last_error = f"HTTP {resp.status_code}: {excerpt}"
                    if resp.status_code not in RETRYABLE_STATUS:
                        raise TransportError(f"endpoint error at {url}: {last_error}")
                    asked = _retry_after(resp.headers.get("Retry-After"))
                    if asked is not None:
                        delay = min(asked, longest_delay)
                    log.warning("retryable status from %s: %s", url, resp.status_code)
                if attempt + 1 >= self.config.max_attempts:
                    raise TransportError(f"retries exhausted for {url}: {last_error}")
            except BaseException:
                slots.stop(index)  # before a later item can take the slot
                raise
            finally:
                slots.give()

    # --- chat --------------------------------------------------------------

    def chat_complete(self, user: str, want_logprobs: bool = False) -> ChatResponse:
        """The chat model's answer to one user message."""
        model = self.config.chat_model
        # Reproducibility: the pipeline never runs above temperature 0.
        body = {
            "model": model,
            "messages": [{"role": "user", "content": user}],
            "temperature": 0.0,
            "max_tokens": 1024,
        }
        if want_logprobs:
            body["logprobs"] = True

        key = cache_key("chat", model, body)
        cached = self.cache.get(key) if self.cache else None
        if cached is not None:
            return self._parse_chat(json.loads(cached), model, want_logprobs, cached=True)
        raw = self._post("/chat/completions", body)
        # Parsed before it is cached, so an answer that fails is asked again.
        response = self._parse_chat(raw, model, want_logprobs, cached=False)
        if self.cache:
            # A token may hold half of a surrogate pair, which `json.loads` reads back.
            blob = json.dumps(raw, ensure_ascii=False).encode("utf-8", "surrogatepass")
            self.cache.put(key, blob)
        return response

    @staticmethod
    def _parse_chat(raw: dict, model: str, want_logprobs: bool, cached: bool) -> ChatResponse:
        try:
            choice = raw["choices"][0]
            text = choice["message"]["content"]
        except (KeyError, IndexError, TypeError):
            text = None
        if not isinstance(text, str):
            raise TransportError("chat endpoint answer lacks the field "
                                 "choices[0].message.content")
        try:
            check_unicode(text)  # the text is written to UTF-8 rows; its tokens are fragments
        except RowError as exc:
            raise TransportError(f"chat endpoint answer's choices[0].message.content: "
                                 f"{exc}") from None
        tokens: list[tuple[str, float]] = []
        if want_logprobs:
            try:
                entries = choice["logprobs"]["content"]
            except (KeyError, TypeError):
                entries = None
            if not entries:
                raise TransportError("endpoint did not return token logprobs; "
                                     "Tok calibration needs a logprob-capable endpoint")
            field = "chat endpoint answer's choices[0].logprobs.content"
            if not isinstance(entries, list):
                raise TransportError(f"{field} is not a list")
            for i, entry in enumerate(entries):
                entry = entry if isinstance(entry, dict) else {}
                token, logprob = entry.get("token"), entry.get("logprob")
                if not isinstance(token, str):
                    raise TransportError(f"{field}[{i}].token is not a string: {token!r}")
                # type(), not isinstance(): a bool is no logprob. NaN fails too.
                if type(logprob) not in (int, float) or not logprob <= 0:
                    raise TransportError(f"{field}[{i}].logprob is not a number <= 0: {logprob!r}")
                try:
                    tokens.append((token, float(logprob)))
                except OverflowError:  # an integer that JSON holds exactly and a float cannot
                    raise TransportError(f"{field}[{i}].logprob is outside float range") from None
        return ChatResponse(text=text, tokens=tokens, model=model, cached=cached)

    # --- embeddings --------------------------------------------------------

    def embed(self, texts: list[str]) -> np.ndarray:
        """Vectors for texts, one row per text in input order, as one
        `(len(texts), d)` float64 array.

        Each distinct text missing from the cache is sent once, in requests of
        at most `embed_batch_size` inputs. Every vector, cached or fresh, must
        have the same dimension; a batch that breaks this, or that holds
        anything but finite numbers, is not cached.
        """
        model = self.config.embedding_model
        positions: dict[str, list[int]] = {}
        for i, text in enumerate(texts):
            positions.setdefault(text, []).append(i)
        vectors: Optional[np.ndarray] = None  # allocated once the dimension is known
        dims: set[int] = set()

        def fill(text: str, row: np.ndarray) -> None:
            nonlocal vectors
            if vectors is None:
                vectors = np.empty((len(texts), row.size), dtype="<f8")
            vectors[positions[text]] = row

        # Each distinct text is keyed once; its fresh row is stored under that key.
        keys = {text: cache_key("embedding", model, text) for text in positions if self.cache}
        missing: list[str] = []
        for text in positions:
            hit = self.cache.get(keys[text]) if self.cache else None
            if hit is None:
                missing.append(text)
                continue
            row = np.frombuffer(hit, dtype="<f8")
            dims.add(row.size)
            _check_dimensions(dims)
            fill(text, row)
        batch_size = self.config.embed_batch_size
        # Leaving the block waits for the load, however the requests end.
        with ThreadPoolExecutor(max_workers=1) as loader:
            # numpy loads while the first request is in flight (see the module docstring).
            numpy_loaded = loader.submit(getattr, np, "ndarray") if missing else None
            for start in range(0, len(missing), batch_size):
                batch = missing[start:start + batch_size]
                raw = self._post("/embeddings", {"model": model, "input": batch},
                                 object_hook=_float_rows)
                numpy_loaded.result()  # raises an import error here, on the calling thread
                fresh = _batch_vectors(raw, len(batch), dims)
                del raw  # dropped before the next batch is sent
                for text, row in zip(batch, fresh):
                    fill(text, row)
                    if self.cache:
                        self.cache.put(keys[text], row.tobytes())
                self._count(embedded_texts=len(batch))
        return vectors

"""Run one `relanno` command with spans around the calls into each layer.

Usage: python3 perfbench/tracer.py SPANS.jsonl COMMAND [ARGS...]

The launcher imports `relanno.cli`, then wraps from the outside:
  - every public function of each layer module, rebound wherever the program
    holds a reference to it (so `from .x import f` call sites are traced);
  - the public `chat_complete`/`embed` methods of the gateway's classes;
  - any object a gateway holds that has `get` and `put` (its cache, whatever
    store it is), as `gateway.cache.get` / `gateway.cache.put`;
  - the gateway's `sleep` (backoff) and each HTTP request it sends.
A span is (id, name, start, end, parent, thread, ok, attributes). Spans stay
in memory and are written when the command exits. A function that does not
exist is simply not in the header's `wrapped` list, never an error.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
import types

LAYERS = ("corpus", "gateway", "retrieval", "sampler", "prompting", "annotator",
          "metrics", "distill")
GATEWAY_METHODS = ("chat_complete", "embed")

# What a span records besides its times, keyed by span name: the length of an
# argument, the rows a write consumes from an argument, or result attributes.
ARG_COUNTS = {"gateway.embed": "texts", "annotator.annotate_corpus": "pairs"}
ROW_ARGS = {"corpus.write_jsonl": "rows"}
RESULT_ATTRS = {
    "gateway.chat_complete": lambda r: {"cached": bool(getattr(r, "cached", False))},
    "corpus.read_jsonl": lambda r: {"n": len(r)},
    "sampler.balanced_sample": lambda r: {"n": len(r.pairs)},
    "annotator.annotate_corpus": lambda r: {"errors": len(r.errors)},
    "distill.export_training_data": lambda r: {"n": r.count},
    "gateway.cache.get": lambda r: {"hit": r is not None},
}


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self.wrapped: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        # A worker thread's first span belongs to what the main thread is inside.
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = {"id": next(self._ids), "name": name, "parent": parent,
                "thread": threading.get_ident(), "ok": True, "start": time.perf_counter()}
        stack.append(span["id"])
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn):
        attrs = RESULT_ATTRS.get(name)
        arg, row_arg = ARG_COUNTS.get(name), ROW_ARGS.get(name)
        signature = inspect.signature(fn) if arg or row_arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = None
            if row_arg:
                try:
                    bound = signature.bind(*args, **kwargs)
                except TypeError:
                    bound = None  # the call itself will raise
                if bound is not None and row_arg in bound.arguments:
                    rows = bound.arguments[row_arg] = _CountingRows(bound.arguments[row_arg])
                    args, kwargs = bound.args, bound.kwargs
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["ok"] = False
                raise
            finally:
                self.close(span)
            # A changed signature or result type loses the attribute, not the run.
            try:
                if arg:
                    span["n"] = len(signature.bind(*args, **kwargs).arguments[arg])
                if attrs:
                    span.update(attrs(result))
            except (AttributeError, KeyError, TypeError):
                pass
            if rows is not None:
                span["n"] = rows.n
            return result

        self.wrapped.append(name)
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"wrapped": self.wrapped}) + "\n")
            for span in self.spans:
                if "end" in span:
                    f.write(json.dumps(span) + "\n")


class _CountingRows:
    """Iterable passed to write functions so the rows they write get counted."""

    def __init__(self, rows):
        self._rows, self.n = rows, 0

    def __iter__(self):
        for row in self._rows:
            self.n += 1
            yield row


class _TracedStore:
    """Stand-in for a gateway's cache: forwards everything, times get and put."""

    def __init__(self, store, recorder: Recorder):
        self._store = store
        self.get = recorder.wrap("gateway.cache.get", store.get)
        self.put = recorder.wrap("gateway.cache.put", store.put)

    def __getattr__(self, name):
        return getattr(self._store, name)

    def __bool__(self):
        return bool(self._store)


def _is_store(value, session_type) -> bool:
    return (not isinstance(value, (dict, type, session_type))
            and callable(getattr(value, "get", None)) and callable(getattr(value, "put", None)))


def _store_tracing_init(recorder: Recorder, init, session_type):
    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for attr, value in list(vars(self).items()):
            if _is_store(value, session_type):
                setattr(self, attr, _TracedStore(value, recorder))
    return traced_init


def _relanno_modules() -> list[types.ModuleType]:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "relanno" or n.startswith("relanno."))]


def install(recorder: Recorder) -> None:
    replacements: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = sys.modules.get(f"relanno.{layer}")
        if module is None:
            continue
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != module.__name__:
                continue
            replacements[id(obj)] = (obj, recorder.wrap(f"{layer}.{attr}", obj))
    for module in _relanno_modules():
        for attr, obj in list(vars(module).items()):
            original, wrapper = replacements.get(id(obj), (None, None))
            if original is obj:
                setattr(module, attr, wrapper)
    gateway = sys.modules.get("relanno.gateway")
    if gateway is not None:
        _install_gateway(recorder, gateway)


def _install_gateway(recorder: Recorder, gateway: types.ModuleType) -> None:
    classes = [c for c in vars(gateway).values()
               if inspect.isclass(c) and c.__module__ == gateway.__name__
               and any(m in vars(c) for m in GATEWAY_METHODS)]
    for cls in classes:
        for method in GATEWAY_METHODS:
            if method in vars(cls):
                setattr(cls, method, recorder.wrap(f"gateway.{method}", vars(cls)[method]))
    namespace = vars(gateway)
    if isinstance(namespace.get("time"), types.ModuleType):
        proxy = types.SimpleNamespace(**{k: getattr(time, k) for k in dir(time)
                                         if not k.startswith("__")})
        proxy.sleep = recorder.wrap("gateway.sleep", time.sleep)
        gateway.time = proxy
    elif namespace.get("sleep") is time.sleep:
        gateway.sleep = recorder.wrap("gateway.sleep", time.sleep)

    requests = namespace.get("requests")
    session_type = type(None)
    if isinstance(requests, types.ModuleType):
        session_type = requests.Session
        requests.Session.request = recorder.wrap("gateway.http", requests.Session.request)
    for cls in classes:
        cls.__init__ = _store_tracing_init(recorder, cls.__init__, session_type)


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    start = time.perf_counter()
    import relanno.cli
    recorder.spans.append({"id": next(recorder._ids), "name": "cli.import", "parent": None,
                           "thread": threading.get_ident(), "ok": True,
                           "start": start, "end": time.perf_counter()})
    install(recorder)
    recorder.wrapped += ["cli.import", "cli.main"]
    span = recorder.open("cli.main")
    code = 0
    try:
        relanno.cli.main(args=args, prog_name="relanno")
    except SystemExit as exc:
        code = exc.code
    finally:
        recorder.close(span)
        recorder.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())

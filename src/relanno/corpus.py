"""Core data model, corpus ingestion, chunk normalization and train/test splitting."""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import logging
import math
import os
import random
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import (IO, Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union,
                    get_args, get_origin, get_type_hints)

log = logging.getLogger(__name__)


def _check_not_blank(value: str, name: str) -> None:
    """A RowError on field `name` when value is empty or whitespace only."""
    if not value.strip():
        raise RowError(f"expected a string that is not blank, got {_show(value)}", name)


@dataclass
class RelevanceDefinition:
    meaning: str
    examples: list[str] = field(default_factory=list)
    provenance: str = "generated"  # generated | improved | human

    def __post_init__(self):
        _check_not_blank(self.meaning, "meaning")


@dataclass
class DefinitionExample:
    """A row of `define --examples`: one gold example for a query."""
    KEY = ()  # a query may have many examples
    query_id: str
    example: str

    def __post_init__(self):
        _check_not_blank(self.example, "example")


@dataclass
class Query:
    KEY = ("id",)
    id: str
    text: str
    definition: Optional[RelevanceDefinition] = None

    def __post_init__(self):
        _check_not_blank(self.text, "text")


@dataclass
class DocumentChunk:
    KEY = ("id",)
    id: str
    report_id: str
    text: str

    def __post_init__(self):
        _check_not_blank(self.text, "text")


@dataclass
class QueryDocPair:
    KEY = ("query_id", "doc_id")
    query_id: str
    doc_id: str
    retriever_rank: Optional[int] = None


@dataclass
class GoldLabel:
    KEY = ("query_id", "doc_id")
    query_id: str
    doc_id: str
    grade: float
    binary: Optional[str] = None  # relevant | partial | irrelevant
    uncertain: bool = False

    def __post_init__(self):
        if not 0.0 <= self.grade <= 1.0:
            raise RowError(f"expected a number in [0,1], got {self.grade}", "grade")
        if self.binary not in (None, "relevant", "partial", "irrelevant"):
            raise RowError("expected \"relevant\", \"partial\", \"irrelevant\" or null, "
                           f"got {self.binary!r}", "binary")
        if self.binary == "irrelevant" and self.grade != 0.0:
            raise RowError(f"expected 0 for an irrelevant label, got {self.grade}", "grade")


@dataclass
class Split:
    train_queries: set[str]
    test_queries: set[str]
    train_reports: set[str]
    test_reports: set[str]
    seed: int


def merge_short_chunks(
    chunks: list[DocumentChunk],
    min_tokens: int,
) -> tuple[list[DocumentChunk], dict[str, str]]:
    """Greedily concatenate adjacent short chunks until each reaches min_tokens.

    Chunks must be in document order within each report; accumulation restarts
    at report boundaries. The trailing chunk of a report may stay short, with
    a warning. Returns (chunks, merged_into): the merged chunks, and the id of
    each chunk merged into a neighbour -> the id of that neighbour.
    """
    merged: list[DocumentChunk] = []
    merged_into: dict[str, str] = {}

    def flush(buffer: list[DocumentChunk]) -> None:
        if not buffer:
            return
        for absorbed in buffer[1:]:
            merged_into[absorbed.id] = buffer[0].id
        out = DocumentChunk(id=buffer[0].id, report_id=buffer[0].report_id,
                            text="\n".join(c.text for c in buffer))
        if (tokens := len(out.text.split())) < min_tokens:
            log.warning("chunk %s of report %s remains short (%s < %s tokens)",
                        out.id, out.report_id, tokens, min_tokens)
        merged.append(out)

    buffer: list[DocumentChunk] = []
    acc = 0
    current_report: Optional[str] = None
    for chunk in chunks:
        if current_report is not None and chunk.report_id != current_report:
            flush(buffer)
            buffer, acc = [], 0
        current_report = chunk.report_id
        buffer.append(chunk)
        acc += len(chunk.text.split())
        if acc >= min_tokens:
            flush(buffer)
            buffer, acc = [], 0
    flush(buffer)
    return merged, merged_into


def split_train_test(
    query_ids: Iterable[str],
    report_ids: Iterable[str],
    query_test_fraction: float,
    report_test_fraction: float,
    seed: int,
) -> Split:
    """Disjoint query/report partition, deterministic for a fixed seed."""
    queries = sorted(set(query_ids))
    reports = sorted(set(report_ids))
    if len(queries) < 2 or len(reports) < 2:
        raise ValueError("split impossible: need at least 2 queries and 2 reports")

    rng = random.Random(seed)

    def pick(ids: list[str], fraction: float) -> tuple[set[str], set[str]]:
        n_test = round(fraction * len(ids))
        n_test = min(max(n_test, 1), len(ids) - 1)
        test = set(rng.sample(ids, n_test))
        return set(ids) - test, test

    train_q, test_q = pick(queries, query_test_fraction)
    train_r, test_r = pick(reports, report_test_fraction)
    return Split(train_q, test_q, train_r, test_r, seed)


# --- Row codec and JSON I/O -------------------------------------------------

T = TypeVar("T")


class RowError(ValueError):
    """A row, or a field of one, that does not fit its dataclass."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(f"field {field!r}: {message}" if field else message)
        self.message = message
        self.field = field

    def within(self, key: str) -> RowError:
        """The same error seen from one level up; key is a field name or "[i]"."""
        sep = "" if not self.field or self.field.startswith("[") else "."
        return RowError(self.message, key + sep + self.field)


def _show(value: object) -> str:
    return json.dumps(value, ensure_ascii=False)[:40]


def _scalar(kinds: tuple[type, ...], what: str, convert: Optional[Callable] = None) -> Callable:
    def decode(value):
        # type(), not isinstance(): a bool must not pass as a number.
        if type(value) not in kinds:
            raise RowError(f"expected {what}, got {_show(value)}")
        try:
            return value if convert is None else convert(value)
        except OverflowError:  # an integer that JSON holds exactly and a float cannot
            raise RowError(f"expected {what} within float range, got {_show(value)}") from None
    return decode


def check_unicode(value: str) -> str:
    """value, unless it holds a lone surrogate, which no UTF-8 output can hold."""
    if value.isascii():
        return value
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise RowError(f"expected a string, got a lone surrogate at index {exc.start}") from None
    return value


def _finite(value: int | float) -> float:
    if not math.isfinite(value := float(value)):
        raise RowError(f"expected a finite number, got {value}")
    return value


# Built once, at import: each decoder keeps the function it was built with, so
# a wrapper later bound to the name `check_unicode` (the benchmark's tracer
# wraps every public function) is not called for each string decoded.
_SCALARS = {str: _scalar((str,), "a string", check_unicode),
            bool: _scalar((bool,), "true or false"),
            int: _scalar((int,), "an integer"),
            float: _scalar((int, float), "a number", _finite)}


def _decoder(hint) -> Callable:
    """Checks a JSON value against a type hint and returns the value to store."""
    origin, args = get_origin(hint), get_args(hint)
    if isinstance(hint, type) and is_dataclass(hint):
        return lambda value: from_row(hint, value)
    if origin in (Union, UnionType):
        [inner] = [a for a in args if a is not type(None)]
        decode = _decoder(inner)
        return lambda value: None if value is None else decode(value)
    if hint in _SCALARS:
        return _SCALARS[hint]
    if origin not in (list, set, tuple):
        raise TypeError(f"no row decoder for type {hint!r}")
    decoders = [_decoder(a) for a in args]
    size = len(decoders) if origin is tuple else None
    if size is None:
        decoders = itertools.repeat(decoders[0])  # one decoder for every item

    def decode_sequence(value):
        if type(value) is not list or size not in (None, len(value)):
            what = "a list" if size is None else f"a list of {size} items"
            raise RowError(f"expected {what}, got {_show(value)}")
        items = []
        for i, (decode, item) in enumerate(zip(decoders, value)):
            try:
                items.append(decode(item))
            except RowError as exc:
                raise exc.within(f"[{i}]") from None
        return items if origin is list else origin(items)
    return decode_sequence


@functools.cache
def _decoders(cls: type) -> list[tuple[str, Callable, bool]]:
    """(name, decoder, required) per field of cls."""
    hints = get_type_hints(cls)
    return [(f.name, _decoder(hints[f.name]),
             f.default is MISSING and f.default_factory is MISSING) for f in fields(cls)]


def from_row(cls: type[T], row: object) -> T:
    """A dataclass from a JSON object. Values must have the JSON type of their
    field: a number for float and int (never a bool or a string), null only
    for Optional, an object for a nested dataclass. Extra keys are ignored."""
    if type(row) is not dict:
        raise RowError(f"expected an object, got {_show(row)}")
    kwargs = {}
    for name, decode, required in _decoders(cls):
        if name in row:
            try:
                kwargs[name] = decode(row[name])
            except RowError as exc:
                raise exc.within(name) from None
        elif required:
            raise RowError("missing", name)
    return cls(**kwargs)


def to_row(obj: object) -> dict:
    """A dataclass as a JSON-ready dict, each value as `_encoded` gives it,
    with every field that is None left out."""
    return {f.name: _encoded(value) for f in fields(obj)
            if (value := getattr(obj, f.name)) is not None}


def _encoded(value: object) -> object:
    """value as JSON takes it: a dataclass as its row, a set as a sorted list,
    a dict with its values encoded; anything else, lists too, as it is."""
    if isinstance(value, (str, int, float, list)):  # most values, so tested first
        return value
    if is_dataclass(value):
        return to_row(value)
    if isinstance(value, set):
        return sorted(value)
    if isinstance(value, dict):
        return {k: _encoded(v) for k, v in value.items()}
    return value


def read_jsonl(path: str | Path, cls: type[T]) -> list[T]:
    """The rows of a JSONL file as cls objects, read once, so a pipe works too.
    Every line is decoded before any row is checked: a line that is not JSON
    is reported before a bad row. Either error names path:line. A row whose
    key repeats an earlier row's is an error naming both lines: cls.KEY, a
    class attribute and so no field, names the key's fields, () for none."""
    numbered = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if line:
                try:
                    numbered.append((lineno, json.loads(line)))
                except ValueError as exc:  # also an integer of more digits than int() reads
                    raise RowError(f"{path}:{lineno}: not valid JSON: "
                                   f"{getattr(exc, 'msg', exc)}") from None
    out, line_of_key = [], {}
    for lineno, row in numbered:
        try:
            obj = from_row(cls, row)
        except RowError as exc:
            raise RowError(f"{path}:{lineno}: {exc}") from None
        key = tuple(getattr(obj, name) for name in cls.KEY)
        if key and (first := line_of_key.setdefault(key, lineno)) != lineno:
            shown = ", ".join(f"field {name!r}: {_show(value)}"
                              for name, value in zip(cls.KEY, key))
            raise RowError(f"{path}:{lineno}: {shown} repeats line {first}")
        out.append(obj)
    return out


def _jsonl_line(obj: object) -> str:
    return json.dumps(_encoded(obj), ensure_ascii=False, sort_keys=True) + "\n"


def _own_fd(path: str | Path) -> Optional[int]:
    """The number of the file descriptor of this process that `path` names
    (/dev/stdout, /dev/stderr, /dev/fd/N, /proc/self/fd/N, or a symlink to
    one), else None. Such a path is written through a dup of the descriptor,
    which shares its offset: reopening it would replace or truncate the file
    that stdout is redirected to, and lose what the process prints there."""
    path = os.path.abspath(path)
    own = re.compile(rf"/(?:dev/fd|proc/{os.getpid()}(?:/task/[0-9]+)?/fd)/([0-9]+)")
    for _ in range(40):  # as many links as Linux follows
        head, name = os.path.split(path)
        path = os.path.join(os.path.realpath(head), name)
        if match := own.fullmatch(path):
            return int(match.group(1))
        try:
            path = os.path.join(head, os.readlink(path))
        except OSError:  # not a symlink, or not one this process may read
            return None
    return None


def _in_place(path: str | Path) -> bool:
    """Whether an output at path is written where it is, not published whole:
    one of this process's descriptors (/dev/stdout), written through a dup of
    it, or any other path that exists and is not a regular file (a FIFO)."""
    return _own_fd(path) is not None or (os.path.exists(path) and not os.path.isfile(path))


def check_distinct_outputs(flag: str, path: str, other_flag: str, other: Optional[str]) -> None:
    """Refuses two outputs of one command that name the same file, before any
    input is read: the second writer would replace the first's file or write
    over it. Paths are compared resolved, and as files when both exist (a hard
    link, or /dev/stdout redirected to the other path). Two outputs that are
    both written in place may share a file."""
    if other is None or (_in_place(path) and _in_place(other)):
        return
    if os.path.realpath(path) == os.path.realpath(other) or (
            os.path.exists(path) and os.path.exists(other) and os.path.samefile(path, other)):
        raise ValueError(f"{flag} and {other_flag} name the same file: {other}")


@contextlib.contextmanager
def _published(path: str | Path, newline: Optional[str] = None) -> Iterator[IO[str]]:
    """The one way a whole-file output is opened: as `<path>.partial` beside the file
    `path` names through any symlink, renamed onto it when the block ends cleanly and
    deleted on an error; or, when `_in_place(path)`, where it is."""
    if _in_place(path):
        fd = _own_fd(path)
        with open(path if fd is None else os.dup(fd), "w", encoding="utf-8",
                  newline=newline) as f:
            yield f
        return
    target = os.path.realpath(path)
    partial = target + ".partial"
    try:
        with open(partial, "w", encoding="utf-8", newline=newline) as f:
            yield f
        os.replace(partial, target)
    except BaseException:
        Path(partial).unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, rows: Iterable[object]) -> None:
    """One line per row: a dataclass or a dict, encoded as to_row encodes."""
    with _published(path) as f:
        for row in rows:
            f.write(_jsonl_line(row))


class RowWriter:
    """A new JSONL file of dataclass rows, written one row at a time as
    `write_jsonl` writes them. Each row is flushed as it is written, so a run
    that stops leaves a prefix of whole rows, not the earlier file. One of this
    process's descriptors is written through a dup of it, as `_published` does."""

    def __init__(self, path: str | Path):
        fd = _own_fd(path)
        self._file = open(path if fd is None else os.dup(fd), "w", encoding="utf-8")

    def write(self, obj: object) -> None:
        self._file.write(_jsonl_line(obj))
        self._file.flush()

    def __enter__(self) -> RowWriter:
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()


def read_json(path: str | Path, cls: type[T]) -> T:
    """One JSON document as a cls object, checked as from_row checks a row."""
    with open(path, encoding="utf-8") as f:
        try:
            row = json.load(f)
        except json.JSONDecodeError as exc:
            raise RowError(f"{path}:{exc.lineno}: not valid JSON: {exc.msg}") from None
        except ValueError as exc:  # an integer of more digits than int() reads
            raise RowError(f"{path}: not valid JSON: {exc}") from None
    try:
        return from_row(cls, row)
    except RowError as exc:
        raise RowError(f"{path}: {exc}") from None


def write_json(path: str | Path, obj: object) -> None:
    with _published(path) as f:
        f.write(json.dumps(_encoded(obj), indent=2, sort_keys=True) + "\n")


def write_csv(path: str | Path, rows: Iterable[Sequence]) -> None:
    with _published(path, newline="") as f:
        csv.writer(f).writerows(rows)

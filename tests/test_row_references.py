"""A function that reads queries (or documents) and also reads rows that name
them by id, in a `query_id` (or `doc_id`) field, passes `known` for that
field to `read_jsonl`: an unknown id is then refused where its row is read,
naming path:line, and a new command cannot skip the rule silently."""

import ast
import dataclasses
import importlib

from test_dead_code import PACKAGE, package_sources

# The row type that each referencing field names by id.
REFERENCES = {"query_id": "Query", "doc_id": "DocumentChunk"}


def _reads(function: ast.FunctionDef) -> list[tuple[str, set[str]]]:
    """(row type, the constant keys of its `known` dict) of each
    `read_jsonl(path, cls, known={...})` call in function."""
    found = []
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and "read_jsonl" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            keywords = {k.arg: k.value for k in node.keywords}
            [cls] = node.args[1:2] or [keywords["cls"]]
            known = keywords.get("known")
            keys = {k.value for k in known.keys if isinstance(k, ast.Constant)} \
                if isinstance(known, ast.Dict) else set()
            found.append((ast.unparse(cls).rsplit(".", 1)[-1], keys))
    return found


def reference_reads(sources: dict[str, str],
                    fields: dict[str, set[str]]) -> dict[str, list[str]]:
    """Function name -> `Cls.field` of each read in it, in sources (file name
    -> code), of a row type whose field names a row type the function also
    reads; each suffixed ` unchecked` when its call passes no `known` for
    that field. fields: row type -> its field names."""
    found = {}
    for code in sources.values():
        for node in ast.walk(ast.parse(code)):
            if not isinstance(node, ast.FunctionDef):
                continue
            reads = _reads(node)
            read = {cls for cls, _ in reads}
            for cls, known in reads:
                for field, target in REFERENCES.items():
                    if target in read and field in fields.get(cls, ()):
                        found.setdefault(node.name, []).append(
                            f"{cls}.{field}" + ("" if field in known else " unchecked"))
    return found


def row_fields() -> dict[str, set[str]]:
    classes = {}
    for path in PACKAGE.glob("[!_]*.py"):
        classes.update(vars(importlib.import_module(f"relanno.{path.stem}")))
    return {name: {f.name for f in dataclasses.fields(cls)} for name, cls in classes.items()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)}


def test_every_read_of_a_reference_beside_its_rows_passes_known():
    found = reference_reads(package_sources(), row_fields())
    # evaluate, audit, sweep, sample and benchmark read no queries or
    # documents, and rank reads no row that names them: the rule leaves them out.
    assert found == {
        "ingest": ["GoldLabel.query_id", "GoldLabel.doc_id"],
        "define": ["DefinitionExample.query_id"],
        "annotate": ["QueryDocPair.query_id", "QueryDocPair.doc_id"],
        "distill_cmd": ["Annotation.query_id", "Annotation.doc_id"],
    }


def test_scan_flags_each_reference_read_without_known():
    sources = {"a.py": (
        "def checked(p):\n    read_jsonl(p, Query)\n    read_jsonl(p, DocumentChunk)\n"
        "    read_jsonl(p, Pair, known={'query_id': q, 'doc_id': d})\n"
        "def half(p):\n    corpus.read_jsonl(p, corpus.Query)\n"
        "    read_jsonl(p, DocumentChunk)\n    read_jsonl(p, cls=Pair, known={'doc_id': d})\n"
        "def unchecked(p):\n    read_jsonl(p, Query)\n    read_jsonl(p, Pair, known=given)\n"
        "def exempt(p):\n    read_jsonl(p, Pair)\n    read_jsonl(p, Ranking)\n")}
    fields = {"Query": {"id"}, "DocumentChunk": {"id"}, "Pair": {"query_id", "doc_id"},
              "Ranking": {"query_id"}}
    # `known=given` is not a dict the scan can read: flagged, not trusted.
    assert reference_reads(sources, fields) == {
        "checked": ["Pair.query_id", "Pair.doc_id"],
        "half": ["Pair.query_id unchecked", "Pair.doc_id"],
        "unchecked": ["Pair.query_id unchecked"],
    }

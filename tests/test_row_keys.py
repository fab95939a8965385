"""Every row type that a command reads with `read_jsonl` declares its key, the
fields that no two rows of one file may share, as a `KEY` class attribute,
or declares itself keyless with `KEY = ()`: a new row type cannot skip the
rule that refuses a repeated row."""

import ast
import dataclasses
import importlib

from test_dead_code import PACKAGE, package_sources


def row_types_read(sources: dict[str, str]) -> set[str]:
    """The class argument of each `read_jsonl(path, cls)` call in sources
    (file name -> code), as written: `Query`, or `corpus.Query`."""
    found = set()
    for code in sources.values():
        for node in ast.walk(ast.parse(code)):
            if isinstance(node, ast.Call) and "read_jsonl" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                given = node.args[1:2] + [k.value for k in node.keywords if k.arg == "cls"]
                found.update(ast.unparse(arg) for arg in given)
    return found


def without_key(sources: dict[str, str], names: set[str]) -> list[str]:
    """Each of names that is not a class of sources assigning `KEY` in its body."""
    keyed = {node.name for code in sources.values() for node in ast.walk(ast.parse(code))
             if isinstance(node, ast.ClassDef) and any(
                 isinstance(statement, ast.Assign)
                 and any(getattr(target, "id", None) == "KEY" for target in statement.targets)
                 for statement in node.body)}
    return sorted(names - keyed)


def test_every_row_type_read_declares_its_key():
    sources = package_sources()
    names = row_types_read(sources)
    assert {"Query", "DocumentChunk", "QueryDocPair", "DefinitionExample", "Ranking"} <= names
    assert without_key(sources, names) == []


def test_each_key_names_fields_of_its_row_type():
    classes = {}
    for path in PACKAGE.glob("[!_]*.py"):
        classes.update(vars(importlib.import_module(f"relanno.{path.stem}")))
    for name in row_types_read(package_sources()):
        fields = [f.name for f in dataclasses.fields(classes[name])]
        assert "KEY" not in fields and set(classes[name].KEY) <= set(fields), name


def test_scan_flags_row_types_without_a_key():
    # Plain's annotated KEY does not count: in a dataclass it would be a field.
    sources = {
        "a.py": ("class Keyed:\n    KEY = ('id',)\n    id: str\n"
                 "class Keyless:\n    KEY = ()\n"
                 "class Plain:\n    id: str\n    KEY: tuple = ('id',)\n"),
        "b.py": ("from . import a\nfrom .a import Keyed, Keyless, Plain\n"
                 "def f(path):\n    read_jsonl(path, Keyed)\n    read_jsonl(path, Keyless)\n"
                 "    a.read_jsonl(path, cls=Plain)\n    read_jsonl(path, a.Keyed)\n"),
    }
    assert row_types_read(sources) == {"Keyed", "Keyless", "Plain", "a.Keyed"}
    assert without_key(sources, row_types_read(sources)) == ["Plain", "a.Keyed"]

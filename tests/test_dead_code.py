"""Every top-level function, class and constant in the package, public or
private, is used by the package itself, and every template is loaded by it:
code that only tests reach is deleted, not kept."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relanno"


def _is_click_command(node: ast.stmt) -> bool:
    """A function registered by `@<group>.command(...)`: click reaches it
    through the group's command table, never by name."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr == "command" for d in node.decorator_list)


def _defined_names(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def _used_names(tree: ast.AST) -> set[str]:
    """Names read in tree, bare (`name`) or as an attribute (`module.name`)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def unreferenced(sources: dict[str, str]) -> list[str]:
    """`module.name` of each top-level definition in sources (file name -> code)
    that no other top-level statement reads. Dunder names (`__all__`) are read
    by Python itself and are not checked."""
    statements = [(module, statement) for module, code in sorted(sources.items())
                  for statement in ast.parse(code).body]
    uses = [_used_names(statement) for _, statement in statements]
    dead = []
    for i, (module, statement) in enumerate(statements):
        if _is_click_command(statement):
            continue
        for name in _defined_names(statement):
            if not (name.startswith("__") and name.endswith("__")) and not any(
                    name in used for j, used in enumerate(uses) if j != i):
                dead.append(f"{module.removesuffix('.py')}.{name}")
    return dead


def unloaded_templates(sources: dict[str, str], templates: list[str]) -> list[str]:
    """Each template file name that no `load_template("<name>")` call in
    sources loads."""
    loaded = {node.args[0].value
              for code in sources.values() for node in ast.walk(ast.parse(code))
              if isinstance(node, ast.Call) and node.args
              and getattr(node.func, "id", getattr(node.func, "attr", None)) == "load_template"
              and isinstance(node.args[0], ast.Constant)}
    return [name for name in templates if name.removesuffix(".txt") not in loaded]


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}


def test_every_definition_is_used_by_the_package():
    sources = package_sources()
    assert len(sources) > 10
    assert unreferenced(sources) == []


def test_every_template_is_loaded_by_the_package():
    templates = sorted(path.name for path in (PACKAGE / "templates").glob("*.txt"))
    assert templates
    assert unloaded_templates(package_sources(), templates) == []


def test_scan_flags_definitions_that_only_their_own_body_uses():
    sources = {
        "a.py": ("__all__ = ['used']\nLIMIT = 3\n_private = 1\n_kept = 2\n"
                 "def used(n):\n    return n < LIMIT + _kept\n"
                 "def unused(n):\n    return unused(n - 1)\n"
                 "def _helper(n):\n    return _helper(n - 1)\n"
                 "class Dead:\n    def copy(self) -> 'Dead':\n        return Dead()\n"),
        "b.py": "from . import a\nprint(a.used(1))\n",
        "c.py": "def serve():\n    pass\n",
    }
    assert unreferenced(sources) == ["a._private", "a.unused", "a._helper", "a.Dead",
                                     "c.serve"]


def test_template_scan_flags_templates_no_call_loads():
    sources = {"a.py": ("from .p import load_template\nload_template('kept')\n"
                        "print('orphan')\n")}
    assert unloaded_templates(sources, ["kept.txt", "orphan.txt"]) == ["orphan.txt"]

"""Every public top-level function, class and constant in the package is used
by the package itself: code that only tests reach is deleted, not kept."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relanno"

# The documented test double: tests and offline dry runs start it, the package never does.
EXEMPT_MODULES = {"mockserver.py"}
# The paper's listwise (RankGPT) baseline: a Python entry point that no command runs yet.
EXEMPT_NAMES = {"annotator.listwise_rerank"}


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
    """`module.name` of each public top-level definition in sources (file name
    -> code) that no other top-level statement reads."""
    statements = [(module, statement) for module, code in sorted(sources.items())
                  for statement in ast.parse(code).body]
    uses = [_used_names(statement) for _, statement in statements]
    dead = []
    for i, (module, statement) in enumerate(statements):
        if module in EXEMPT_MODULES or _is_click_command(statement):
            continue
        for name in _defined_names(statement):
            qualified = f"{module.removesuffix('.py')}.{name}"
            if not name.startswith("_") and qualified not in EXEMPT_NAMES and not any(
                    name in used for j, used in enumerate(uses) if j != i):
                dead.append(qualified)
    return dead


def test_every_public_definition_is_used_by_the_package():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert len(sources) > 10
    assert unreferenced(sources) == []


def test_scan_flags_definitions_that_only_their_own_body_uses():
    sources = {
        "a.py": ("LIMIT = 3\n_private = 1\n"
                 "def used(n):\n    return n < LIMIT\n"
                 "def unused(n):\n    return unused(n - 1)\n"
                 "class Dead:\n    def copy(self) -> 'Dead':\n        return Dead()\n"),
        "b.py": "from . import a\nprint(a.used(1))\n",
        "mockserver.py": "def serve():\n    pass\n",
    }
    assert unreferenced(sources) == ["a.unused", "a.Dead"]

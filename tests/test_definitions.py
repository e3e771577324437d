"""Every module-level function of src/pradial is named somewhere in
src/pradial, tests/ or pradbench/ outside its own definition.

This stands in for a linter's dead-code rule: a function that nothing
calls, imports or passes around cannot linger as an unused copy."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pradial"
SOURCES = (sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
           + sorted((ROOT / "pradbench").rglob("*.py")))


def _names(node) -> Counter:
    """Identifiers that node reads: bare names, attributes and imports."""
    seen = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            seen[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            seen[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            seen.update(a.name for a in sub.names)
    return seen


def dead_definitions(modules: dict[str, str], others: list[str]) -> list[str]:
    """The module-level functions of modules (name -> source) that no
    source in modules or others names outside the function's own body."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    named = Counter()
    for tree in list(trees.values()) + [ast.parse(src) for src in others]:
        named += _names(tree)
    dead = []
    for mod, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and named[node.name] <= _names(node)[node.name]):
                dead.append(f"{mod}.{node.name}")
    return sorted(dead)


def test_checker_finds_dead_definitions():
    modules = {"a": "def used():\n    return 1\n\n"
                    "def unused(n):\n    return unused(n - 1) if n else 0\n",
               "b": "from a import used\n"}
    others = ["import a\nprint(a.used)\n"]
    assert dead_definitions(modules, others) == ["a.unused"]
    assert dead_definitions({"a": "def f():\n    pass\n"},
                            ["x = obj.f\n"]) == []


def test_no_dead_definitions():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text() for p in SOURCES if p.parent != SRC]
    assert dead_definitions(modules, others) == []

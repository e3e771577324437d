"""Two dead-code rules for the module-level functions of src/pradial and
the public methods of its public classes.

Every such definition is named somewhere in src/pradial, tests/ or
pradbench/ outside its own body.  A public one (no leading underscore)
must also be named by src/pradial outside its own body, by pradbench/, by
the acceptance battery or, as a whole word, by README.md: a function that
only its own tests call is not part of what the library does, however
well it is tested.

These stand in for a linter's dead-code rule: a function that nothing
calls, imports or passes around cannot linger as an unused copy."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pradial"
BENCH = sorted((ROOT / "pradbench").rglob("*.py"))
SOURCES = (sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
           + BENCH)


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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    """(qualified name, node) of each module-level function of tree and
    each public method of its public classes."""
    for node in tree.body:
        if isinstance(node, _FUNCTIONS):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, _FUNCTIONS)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def _unnamed(modules: dict[str, str], others: list[str]):
    """(module, qualified name, name) of each definition of modules (name
    -> source) that no source in modules or others names outside the
    definition's own body."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    named = Counter()
    for tree in list(trees.values()) + [ast.parse(src) for src in others]:
        named += _names(tree)
    for mod, tree in trees.items():
        for qualname, node in _definitions(tree):
            if named[node.name] <= _names(node)[node.name]:
                yield mod, qualname, node.name


def dead_definitions(modules: dict[str, str], others: list[str]) -> list[str]:
    """The definitions of modules that no source in modules or others
    names outside the definition's own body."""
    return sorted(f"{mod}.{qualname}"
                  for mod, qualname, _ in _unnamed(modules, others))


def unused_outside_tests(modules: dict[str, str], others: list[str],
                         text: str) -> list[str]:
    """The public definitions of modules that no source in modules or
    others names outside the definition's own body, and that text does
    not name as a whole word."""
    return sorted(f"{mod}.{qualname}"
                  for mod, qualname, name in _unnamed(modules, others)
                  if not name.startswith("_")
                  and not re.search(rf"\b{name}\b", text))


def test_checker_finds_dead_definitions():
    modules = {"a": "def used():\n    return 1\n\n"
                    "def unused(n):\n    return unused(n - 1) if n else 0\n",
               "b": "from a import used\n"}
    others = ["import a\nprint(a.used)\n"]
    assert dead_definitions(modules, others) == ["a.unused"]
    assert dead_definitions({"a": "def f():\n    pass\n"},
                            ["x = obj.f\n"]) == []


def test_checker_finds_unused_outside_tests():
    # tested is called, but only from a source outside others (a test);
    # a private helper is the first rule's business; documented is named
    # by the text, undocumented only inside a longer word
    modules = {"a": "def used():\n    return _helper()\n\n"
                    "def _helper():\n    return 1\n\n"
                    "def tested():\n    return 2\n\n"
                    "def documented():\n    return 3\n\n"
                    "def undocumented():\n    return 4\n"}
    others = ["import a\nprint(a.used())\n"]
    text = "Call `a.documented()`; undocumented_later is another name."
    assert unused_outside_tests(modules, others, text) == [
        "a.tested", "a.undocumented"]


def test_checker_finds_unused_methods():
    # a public method counts as a use of its name wherever it is called;
    # a private method and the methods of a private class are not covered
    modules = {"a": "class A:\n"
                    "    def used(self):\n        return self._helper()\n"
                    "    def _helper(self):\n        return 1\n"
                    "    def tested(self):\n        return 2\n"
                    "class _B:\n"
                    "    def hidden(self):\n        return 3\n"}
    others = ["from a import A\nprint(A().used())\n"]
    assert unused_outside_tests(modules, others, "") == ["a.A.tested"]


def test_no_dead_definitions():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text() for p in SOURCES if p.parent != SRC]
    assert dead_definitions(modules, others) == []


def test_no_unused_outside_tests():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text()
              for p in BENCH + [ROOT / "tests" / "test_acceptance.py"]]
    assert unused_outside_tests(modules, others,
                                (ROOT / "README.md").read_text()) == []

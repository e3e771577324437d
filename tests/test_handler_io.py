"""The subcommand handlers of src/pradial/cli.py do no I/O.

A handler returns its outputs and failure reason; cli.main alone makes the
output directory and writes the files, so this check keeps per-command
I/O from creeping back.  Only main's writers and the --config reader open
a file, so no handler reads one through a helper either."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "pradial" / "cli.py"

# called by name (print(...)) or as a method (path.mkdir(...))
IO_CALLS = {"write_csv", "write_json", "print", "open", "mkdir", "makedirs",
            "write_text", "write_bytes"}


def _called(node) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def io_calls(source: str) -> dict[str, list[str]]:
    """function name -> the I/O calls inside it, for every function whose
    name starts with cmd_ (nested functions and lambdas included)."""
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_"):
            found[fn.name] = sorted(
                name for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and (name := _called(node)) in IO_CALLS)
    return found


def openers(source: str) -> set[str]:
    """The functions that call open, each call counted in the innermost
    function around it; "<module>" for a call outside every function."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and _called(child) == "open":
                found.add(scope)
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_finds_io_calls():
    source = ("def cmd_a(cfg):\n"
              "    out.mkdir(parents=True)\n"
              "    write_csv(out / 'a.csv', ['x'], rows)\n"
              "    f = lambda: print('x')\n"
              "    return {}, None\n"
              "def cmd_b(cfg):\n"
              "    return {'b.json': dict(cfg)}, None\n"
              "def main():\n"
              "    print('main may')\n")
    assert io_calls(source) == {"cmd_a": ["mkdir", "print", "write_csv"],
                                "cmd_b": []}


def test_checker_finds_openers():
    source = ("CFG = open('a.json').read()\n"
              "def load():\n    with open('b') as fh:\n        return fh\n"
              "def main():\n    def inner():\n        return path.open()\n"
              "    return inner\n")
    assert openers(source) == {"<module>", "inner", "load"}


def test_handlers_do_no_io():
    found = io_calls(CLI.read_text())
    assert len(found) == 6  # one handler per subcommand
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_output_directory_made_in_main_only():
    tree = ast.parse(CLI.read_text())
    makers = [fn.name for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef)
              for node in ast.walk(fn)
              if isinstance(node, ast.Call) and _called(node) == "mkdir"]
    assert makers == ["main"]


def test_only_writers_and_config_reader_open_files():
    # a handler that calls a helper which opens a file slips past
    # test_handlers_do_no_io; this names every function that may open one
    allowed = {"main", "write_csv", "write_json", "_read_config"}
    assert openers(CLI.read_text()) <= allowed

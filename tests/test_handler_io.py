"""The subcommand handlers of src/pradial/cli.py do no I/O.

A handler returns its outputs and the list of checks the run failed;
cli.main alone makes the output directory, writes the files and words the
exit-3 line, so these checks keep per-command I/O and per-command wording
from creeping back.  Only main's writers and the --config reader open a
file, so no handler reads one through a helper either."""

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


def retained_wording(source: str) -> list[str]:
    """The function around each string constant (docstrings included)
    that holds "outputs retained", innermost first; "<module>" outside
    every function."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Constant) and isinstance(child.value, str)
                    and "outputs retained" in child.value):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def _text_or_none(node, fn) -> bool:
    """Whether node can be None or a string: a None or str constant, an
    f-string, a str method's result, a conditional or a sum with such a
    part, or a name that fn binds to one."""
    if isinstance(node, ast.Constant):
        return node.value is None or isinstance(node.value, str)
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return _text_or_none(node.func.value, fn)
    if isinstance(node, ast.IfExp):
        return _text_or_none(node.body, fn) or _text_or_none(node.orelse, fn)
    if isinstance(node, ast.BinOp):
        return _text_or_none(node.left, fn) or _text_or_none(node.right, fn)
    if isinstance(node, ast.Name):
        return any(_text_or_none(a.value, fn) for a in ast.walk(fn)
                   if isinstance(a, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == node.id
                           for t in a.targets))
    return False


def worded_returns(source: str) -> dict[str, list[int]]:
    """handler name -> the lines of its returns that are not a pair whose
    second value is a list of reasons: a pair whose second value can be
    None or a string, or no pair at all."""
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_"):
            found[fn.name] = sorted(
                node.lineno for node in ast.walk(fn)
                if isinstance(node, ast.Return)
                and not (isinstance(node.value, ast.Tuple)
                         and len(node.value.elts) == 2
                         and not _text_or_none(node.value.elts[1], fn)))
    return found


def test_checker_finds_io_calls():
    source = ("def cmd_a(cfg):\n"
              "    out.mkdir(parents=True)\n"
              "    write_csv(out / 'a.csv', ['x'], rows)\n"
              "    f = lambda: print('x')\n"
              "    return {}, []\n"
              "def cmd_b(cfg):\n"
              "    return {'b.json': dict(cfg)}, []\n"
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


def test_checker_finds_retained_wording():
    source = ('"""Says outputs retained."""\n'
              "def cmd_a(cfg):\n    return {}, ['x; outputs retained']\n"
              "def main():\n    def inner():\n"
              "        return f'{r}; outputs retained'\n"
              "    print('; outputs retained')\n")
    assert retained_wording(source) == ["<module>", "cmd_a", "inner", "main"]


def test_checker_finds_worded_returns():
    source = ("def cmd_a(cfg):\n"
              "    if cfg:\n        return {}, None\n"
              "    return {}, (f'{cfg}; outputs retained' if cfg else None)\n"
              "def cmd_b(cfg):\n"
              "    failure = None\n"
              "    if cfg:\n        failure = 'bad'\n"
              "    return {}, failure\n"
              "def cmd_c(cfg):\n"
              "    reasons = []\n"
              "    return {}, reasons\n"
              "def cmd_d(cfg):\n"
              "    return {}, '; '.join(cfg)\n"
              "def cmd_e(cfg):\n"
              "    return {}, ([] if cfg else ['x'])\n"
              "def cmd_f(cfg):\n"
              "    return {}\n")
    assert worded_returns(source) == {"cmd_a": [3, 4], "cmd_b": [9],
                                      "cmd_c": [], "cmd_d": [14],
                                      "cmd_e": [], "cmd_f": [18]}


def test_handlers_return_reason_lists():
    found = worded_returns(CLI.read_text())
    assert len(found) == 6  # one handler per subcommand
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_exit_3_line_worded_in_main_only():
    # one place words the exit-3 line, so every gate reads the same
    assert retained_wording(CLI.read_text()) == ["main"]


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

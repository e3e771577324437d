"""Every name that a module of src/pradial or of the tests imports is used
there, importing pradial loads no scipy module, and no command loads
scipy's heavy subpackages before it needs them.

The first stands in for a linter's unused-import rule."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "pradial"


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads.  A name listed in
    __all__ counts as read; ``from __future__`` imports are directives."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            read |= {e.value for e in node.value.elts}
    return sorted(imported - read)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport numpy as np\n"
              "from a import b, c as d, e\n"
              "__all__ = ['e']\nprint(d, np.pi)\n")
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py"))
                         + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Importing pradial loads numpy and the standard library only: even
# scipy.special costs more than numpy itself, and the exact samplers never
# call it, so every scipy function is imported in the function that calls
# it.  The subpackages below are loaded by no command that does not call
# them; scipy.special is loaded by the commands that evaluate a special
# function.  The process pool that formats big CSV tables is imported the
# same way, so that small outputs never load it.
HEAVY = ("scipy.stats", "scipy.integrate", "scipy.optimize",
         "scipy.interpolate", "scipy.linalg", "scipy.fft",
         "multiprocessing", "concurrent.futures.process")
# what no module loads at start-up: all of scipy, and the heavy rest
STARTUP = ("scipy", "multiprocessing", "concurrent.futures.process")


def import_time_modules(source: str) -> list[str]:
    """The modules a source file imports when it is itself imported: every
    import outside a function body, as a dotted name (``from a import b``
    gives ``a.b``)."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(a.name for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.extend(f"{child.module}.{a.name}" for a in child.names)
            visit(child)

    visit(ast.parse(source))
    return found


def heavy(modules, names=HEAVY) -> list[str]:
    """The modules that are one of names or inside one of them."""
    return sorted(m for m in modules
                  if any(m == h or m.startswith(h + ".") for h in names))


def test_checker_finds_import_time_modules():
    source = ("import numpy as np\nfrom scipy import stats\n"
              "from scipy.special import gammaln\nfrom . import rates\n"
              "class A:\n    from scipy.linalg import eigh\n"
              "if True:\n    import scipy.fft\n"
              "def f():\n    from scipy import integrate\n"
              "g = lambda: __import__('scipy.optimize')\n")
    assert import_time_modules(source) == [
        "numpy", "scipy.stats", "scipy.special.gammaln", "scipy.linalg.eigh",
        "scipy.fft"]
    assert heavy(import_time_modules(source)) == [
        "scipy.fft", "scipy.linalg.eigh", "scipy.stats"]
    assert heavy(import_time_modules(source), STARTUP) == [
        "scipy.fft", "scipy.linalg.eigh", "scipy.special.gammaln",
        "scipy.stats"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_heavy_import_at_module_level(path):
    assert heavy(import_time_modules(path.read_text()), STARTUP) == []


# the exact samplers draw with numpy alone
_EXACT = """
import tempfile
from pradial import cli
with tempfile.TemporaryDirectory() as out:
    for argv in (["--target", "cone"], ["--target", "pnpw"],
                 ["--target", "uniform", "--orthant"]):
        argv = ["sample", *argv, "--n", "3", "--count", "20"]
        assert cli.main(argv + ["--seed", "1", "--out", out]) == 0, argv
"""

_RUN = """
import tempfile
from pradial import cli
with tempfile.TemporaryDirectory() as out:
    for argv in (["sample", "--target", "cone", "--n", "3", "--count", "20"],
                 ["norm-const", "--weight", "delta", "--n", "3",
                  "--count", "200"],
                 ["ldp-verify", "--n-list", "5,10"]):
        assert cli.main(argv + ["--seed", "1", "--out", out]) == 0, argv
"""

# the tabulated psi runs its blocks on threads, not worker processes
_PSI_TAB = """
import numpy as np
from pradial.distributions import RadialLawW
from pradial.lpgeom import PsiSpec, psi_density
g = np.linspace(0.0, 40.0, 401)
dens = np.exp(-g)
law = RadialLawW.tabulated(grid=g, density=dens / np.trapezoid(dens, g))
psi_density(PsiSpec(n=5, p=2.0, law=law), np.linspace(0.0, 0.9, 50))
"""

# an analytic family is a pdf on a finite support: building one searches
# for no quantile, and no family needs scipy.stats
_ANALYTIC = """
from pradial.measures import MeasureRep
MeasureRep.semicircle(2.0), MeasureRep.arcsine(), MeasureRep.uniform()
MeasureRep.gen_gaussian_scaled(2.0, 0.5)
"""


@pytest.mark.parametrize("code, names", [
    pytest.param("import pradial.cli", STARTUP, id="import-cli"),
    pytest.param("import pradial", STARTUP, id="import-package"),
    pytest.param(_EXACT, STARTUP, id="sample-exact-targets"),
    pytest.param(_RUN, HEAVY, id="sample-norm-const-ldp-verify"),
    pytest.param(_ANALYTIC, HEAVY, id="analytic-families"),
    pytest.param(_PSI_TAB, HEAVY, id="tabulated-psi")])
def test_fresh_process_loads_no_heavy_subpackage(code, names):
    # a fresh interpreter, so that no other test has loaded them; the run
    # cases show that the cost did not move into the first call
    probe = code + "\nimport sys\nprint('\\n'.join(sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert heavy(proc.stdout.split(), names) == []

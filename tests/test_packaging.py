"""pradial runs from what pyproject.toml ships: the .py modules of
src/pradial and nothing else.

setuptools packages a module's data files only when package data or a
MANIFEST.in names them, and this project names none, so every subcommand
must run, and record the same manifest, from a copy of the modules
alone."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pradial import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "pradial"
PYPROJECT = SRC.parents[1] / "pyproject.toml"

# numpy calls the package may make, and the release that brought each
NUMPY_NEEDS = {r"np\.trapezoid\(": (2, 0), r"\.reshape\([^)]*copy=": (2, 1)}

# a small run of each subcommand that exits 0, its parameters otherwise
# the table's defaults; a subcommand missing here fails with a KeyError
RUNS = {
    "sample": ("--target", "cone", "--n", "3", "--count", "20"),
    "test-norm-law": ("--target", "euclid", "--n", "4", "--count", "200"),
    "rate": ("--target", "beta-euclid", "--x", "0.3"),
    "ldp-verify": ("--n-list", "20,40"),
    "asymptotics": ("--n-list", "50"),
    "norm-const": ("--n", "2", "--count", "50"),
}


def test_numpy_floor_covers_the_calls_made():
    # Python 3.10 has no tomllib, so the floor is read with a regex
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', PYPROJECT.read_text())
    assert floor, "pyproject.toml states no numpy floor"
    source = "".join(path.read_text() for path in SRC.glob("*.py"))
    needed = max((version for call, version in NUMPY_NEEDS.items()
                  if re.search(call, source)), default=(0, 0))
    assert (int(floor[1]), int(floor[2])) >= needed


def test_package_holds_modules_only():
    assert sorted(p.name for p in SRC.iterdir()
                  if p.suffix != ".py" and p.name != "__pycache__") == []


@pytest.fixture(scope="module")
def modules_only(tmp_path_factory):
    """A directory holding a copy of the package's .py files alone."""
    site = tmp_path_factory.mktemp("site")
    (site / "pradial").mkdir()
    for path in SRC.glob("*.py"):
        shutil.copy(path, site / "pradial")
    return site


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_copied_modules_run(modules_only, tmp_path, command):
    built, tree = tmp_path / "built", tmp_path / "tree"
    proc = subprocess.run(
        [sys.executable, "-m", "pradial.cli", command, *RUNS[command],
         "--out", str(built)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(modules_only)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert cli.main([command, *RUNS[command], "--out", str(tree)]) == 0
    assert (built / "manifest.json").read_bytes() == \
        (tree / "manifest.json").read_bytes()

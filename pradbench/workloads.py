"""The three workloads: their generated inputs, op lists and per-op checks.

An op is one CLI call (``pradial.cli.main([...])``, in process) or one
direct library call.  Ops run in sequence, one at a time.  Each op gets a
seed derived from the round seed; an op that exercises a known fault runs
at ``FAULT_SEED`` whatever the round seed, so it fails the same way in
every run.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import Verdict

FAULT_SEED = 1

FAULTS = {
    "F1": "M-family chain misses its exact Beta law at n=32: burn-in is a "
          "fixed 2000 coordinate flips, about 62 sweeps",
    "F2": "ldp-verify at n=4000: betainc underflows, prob_exact is 0, the "
          "gap is inf and the report writes non-strict 'Infinity' with exit 0",
}

CHAIN_DRAWS = 2000


@dataclass
class Op:
    name: str
    kind: str                     # sample | test-norm-law | rate | ...
    run: Callable[[int], object]  # seed -> raw result
    check: Callable[[object], tuple[list[Verdict], dict]]
    rows: int = 0                 # rows a sample op delivers
    fault: str | None = None


@dataclass
class Outcome:
    op: Op
    seconds: float
    verdicts: list[Verdict]
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# --- op helpers ---------------------------------------------------------------

def cli_op(cli, workdir: Path, name: str, kind: str, argv: list[str], check,
           rows: int = 0, fault: str | None = None) -> Op:
    out = workdir / name.replace(" ", "_").replace("=", "")

    def run(seed):
        code = cli.main(argv + ["--seed", str(seed), "--out", str(out)])
        return code, out

    return Op(name, kind, run, check, rows, fault)


def exit_ok(code) -> Verdict:
    return Verdict("exit code", code, 0, code == 0)


def read_json(path: Path) -> tuple[Verdict, dict]:
    verdict, obj = checks.check_strict_json(path.read_text())
    return verdict, (obj or {})


def read_rows(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def row_stats(path: Path, fn, chunk: int = 10_000):
    """fn applied to the rows of a CSV a chunk at a time, results stacked.
    Keeps the check's memory well below the sampler's, so the peak RSS
    stays the program's."""
    parts = []
    with open(path) as fh:
        next(fh)
        while lines := list(itertools.islice(fh, chunk)):
            parts.append(fn(np.loadtxt(lines, delimiter=",", ndmin=2)))
    return np.concatenate(parts, axis=-1)


def read_csv_dicts(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- chain-spectra ------------------------------------------------------------

def _chain_shape(family: str, n: int, beta: float = 2.0, p: float = 2.0) -> float:
    if family == "H":
        return (n + beta * n * (n - 1) / 2.0) / p
    return beta * n * n / p


class ChainSpectra:
    """sample and test-norm-law for eigen-PH and singular-PM at beta=2,
    p=2, n in {16, 32}.  Almost all time is spent in the chain."""

    targets = {"H": "eigen-PH", "M": "singular-PM"}
    min_rounds = 1

    def __init__(self, cli, workdir: Path):
        self.cli, self.workdir = cli, workdir
        self.oracles = {}

    def oracle(self, family, n):
        if (family, n) not in self.oracles:
            self.oracles[family, n] = checks.ensemble_directions(
                family, n, 4000, seed=derive_seed(17, n, ord(family)))
        return self.oracles[family, n]

    def sample_check(self, family, n):
        q = 2.0 if family == "H" else 1.0
        shape = _chain_shape(family, n)

        def check(res):
            code, out = res
            rows = read_rows(out / "samples.csv")
            ok, diag = read_json(out / "diagnostics.json")
            b = np.sum(np.abs(rows) ** q, axis=1)
            d = checks.direction_stat(rows, q)
            v = [Verdict("exit code", code, 0, code == 0,
                         f"chain_ok={diag.get('chain_ok')}, "
                         f"accept={diag.get('accept_rate', math.nan):.3f}"),
                 ok,
                 checks.check_close("rows", len(rows), CHAIN_DRAWS, 0),
                 checks.check_beta_ks(b, shape, 1.0),
                 checks.check_direction(d, self.oracle(family, n))]
            return v, {"ess_dir": checks.segment_ess(d)}

        return check

    def norm_law_check(self, family, n):
        shape = _chain_shape(family, n)

        def check(res):
            code, out = res
            ok, rep = read_json(out / "norm_law_report.json")
            return [exit_ok(code), ok] + checks.check_ks_report(
                rep, shape, 1.0, CHAIN_DRAWS), {}

        return check

    def ops(self, seed):
        ops = []
        for n in (16, 32):
            for family in ("H", "M"):
                target = self.targets[family]
                fault = "F1" if (family, n) == ("M", 32) else None
                common = ["--target", target, "--n", str(n), "--p", "2",
                          "--beta", "2", "--count", str(CHAIN_DRAWS)]
                ops.append(cli_op(self.cli, self.workdir, f"sample {target} n={n}",
                                  "sample", ["sample"] + common,
                                  self.sample_check(family, n),
                                  rows=CHAIN_DRAWS, fault=fault))
                ops.append(cli_op(self.cli, self.workdir,
                                  f"test-norm-law {target} n={n}", "test-norm-law",
                                  ["test-norm-law"] + common
                                  + ["--ks-pvalue-threshold", str(checks.P_MIN)],
                                  self.norm_law_check(family, n), fault=fault))
        return ops

    def warmup(self):
        for target in self.targets.values():
            self.cli.main(["sample", "--target", target, "--n", "4", "--count",
                           "40", "--out", str(self.workdir / "warmup")])


# --- exact-io -----------------------------------------------------------------

class ExactIO:
    """Exact samplers with CSV output, the Euclidean norm law, the weighted
    normalising constant and the exactly computable LDP event.  Never
    enters the chain."""

    n, rows = 50, 100_000
    min_rounds = 1
    theta, alpha = 0.3, 2.0
    ldp_count = 100_000

    def __init__(self, cli, workdir: Path):
        self.cli, self.workdir = cli, workdir

    def cone_check(self, res):
        code, out = res
        norm, x1 = row_stats(out / "samples.csv", lambda x: np.stack(
            [np.sqrt(np.sum(x ** 2, axis=1)), x[:, 0]]))
        n = self.n
        # x_1^2 of a cone point on the l_2 sphere is Beta(1/2, (n-1)/2)
        return [exit_ok(code), checks.check_close("rows", len(norm), self.rows, 0),
                checks.check_on_sphere(norm[:, None], 1.0),
                checks.check_beta_ks(x1 ** 2, 0.5, (n - 1) / 2.0,
                                     name="x_1^2 KS")], {}

    def pnpw_check(self, res):
        code, out = res
        b = row_stats(out / "samples.csv", lambda x: np.sum(x ** 2, axis=1))
        atoms = b >= 1.0 - 1e-12
        return [exit_ok(code), checks.check_close("rows", len(b), self.rows, 0),
                checks.check_atom_share(int(atoms.sum()), len(b), self.theta),
                checks.check_beta_ks(b[~atoms], self.n / 2.0, self.alpha)], {}

    def norm_law_check(self, res):
        code, out = res
        ok, rep = read_json(out / "norm_law_report.json")
        return [exit_ok(code), ok] + checks.check_ks_report(
            rep, self.n / 2.0, 1.0, 10 * self.rows), {}

    @staticmethod
    def norm_const_check(res):
        code, out = res
        ok, rep = read_json(out / "norm_const.json")
        return [exit_ok(code), ok, checks.check_norm_const(
            rep.get("log_norm_const", math.nan), rep.get("se_log", 0.0), 4)], {}

    def ldp_check(self, count):
        def check(res):
            code, out = res
            ok, _ = read_json(out / "ldp_report.json")
            rows = read_csv_dicts(out / "ldp_decay.csv")
            return [exit_ok(code), ok] + checks.check_ldp_rows(
                rows, 2.0, 0.1, 1.0, count), {}

        return check

    def ops(self, seed):
        cli, wd, n = self.cli, self.workdir, str(self.n)
        rows = str(self.rows)
        return [
            cli_op(cli, wd, "sample cone n=50", "sample",
                   ["sample", "--target", "cone", "--n", n, "--count", rows],
                   self.cone_check, rows=self.rows),
            cli_op(cli, wd, "sample pnpw n=50", "sample",
                   ["sample", "--target", "pnpw", "--n", n, "--theta",
                    str(self.theta), "--alpha", str(self.alpha), "--count", rows],
                   self.pnpw_check, rows=self.rows),
            cli_op(cli, wd, "test-norm-law euclid n=50", "test-norm-law",
                   ["test-norm-law", "--target", "euclid", "--n", n, "--count",
                    str(10 * self.rows), "--ks-pvalue-threshold",
                    str(checks.P_MIN)], self.norm_law_check),
            cli_op(cli, wd, "norm-const delta n=4", "norm-const",
                   ["norm-const", "--weight", "delta", "--beta", "2", "--n", "4",
                    "--count", str(10 * self.rows)], self.norm_const_check),
            cli_op(cli, wd, "ldp-verify mc n=20..160", "ldp-verify",
                   ["ldp-verify", "--monte-carlo", "--n-list", "20,40,80,160",
                    "--count", str(self.ldp_count)], self.ldp_check(self.ldp_count)),
            cli_op(cli, wd, "ldp-verify n=20..4000", "ldp-verify",
                   ["ldp-verify", "--n-list", "20,40,80,4000"],
                   self.ldp_check(None), fault="F2"),
        ]

    def warmup(self):
        out = str(self.workdir / "warmup")
        for argv in (["sample", "--target", "pnpw", "--n", "5", "--theta", "0.3",
                      "--count", "10"],
                     ["test-norm-law", "--target", "euclid", "--n", "5",
                      "--count", "100"],
                     ["norm-const", "--weight", "delta", "--n", "3", "--count", "100"],
                     ["ldp-verify", "--monte-carlo", "--n-list", "20", "--count",
                      "100"]):
            self.cli.main(argv + ["--out", out])


# --- functionals --------------------------------------------------------------

class Functionals:
    """rate on analytic, grid and atom measures, asymptotics, and direct
    calls to the Legendre transform and the tabulated psi density.  Reads
    the CSV inputs generated here."""

    beta, p, alpha = 2.0, 2.0, 1.0
    grid_cells, n_atoms, psi_points = 256, 2000, 400
    min_rounds = 2

    def __init__(self, cli, workdir: Path):
        from pradial import lpgeom, rates
        self.cli, self.workdir = cli, workdir
        self.lpgeom, self.rates = lpgeom, rates
        self.h_gate = self.beta / (2.0 * self.p)
        self.h_const = self.h_gate * checks.energy_constant(self.p)

    def make_inputs(self, seed):
        gen = np.random.default_rng(seed)
        self.grid_radius = 1.3 + 0.2 * gen.random()
        self.arcsine_radius = 1.1 + 0.2 * gen.random()
        r = self.grid_radius
        x = np.linspace(-r, r, self.grid_cells + 1)
        dens = np.sqrt(np.clip(r * r - x * x, 0.0, None))
        dens /= np.trapezoid(dens, x)
        self.grid_csv = self.workdir / "semicircle_grid.csv"
        _write_columns(self.grid_csv, ["x", "density"], [x, dens])
        self.atoms = checks.hermite_spectrum(self.n_atoms,
                                             derive_seed(seed, 1), 1.5)
        self.atoms_csv = self.workdir / "hermite_atoms.csv"
        _write_columns(self.atoms_csv, ["x"], [self.atoms])
        self.legendre_coef = (0.5 + gen.random(), 0.8 + 0.4 * gen.random(),
                              0.6 * gen.random() - 0.3)
        self.psi_s = np.sort(0.95 * gen.random(self.psi_points))

    def rate_check(self, want_value, tol, want_cone=None, cone_tol=None):
        def check(res):
            code, out = res
            ok, rep = read_json(out / "rate_report.json")
            v = [exit_ok(code), ok,
                 checks.check_close("rate value", rep.get("value", math.nan),
                                    want_value(), tol)]
            if want_cone is not None:
                v.append(checks.check_close(
                    "cone term", rep.get("summands", {}).get("cone", math.nan),
                    want_cone(), cone_tol))
            return v, {}

        return check

    def atoms_want(self):
        e = checks.atoms_energy(self.atoms)
        m = float(np.mean(self.atoms ** 2))
        return (self.beta / 2.0 * e + self.h_const
                + checks.emp_tail(self.h_gate, self.alpha, m))

    def atoms_sanity(self, res):
        v, info = self.rate_check(self.atoms_want, 1e-9)(res)
        # a 2000-atom spectrum sits within O(log N / N) of the semicircle
        v.append(checks.check_close("atom energy vs semicircle",
                                    checks.atoms_energy(self.atoms),
                                    checks.semicircle_energy(1.5), 0.02))
        return v, info

    def grid_want(self):
        r = self.grid_radius
        return self.grid_cone() + checks.emp_tail(self.h_gate, self.alpha, r * r / 4.0)

    def grid_cone(self):
        return self.beta / 2.0 * checks.semicircle_energy(self.grid_radius) + self.h_const

    def uniform_want(self):
        gate = self.beta / self.p
        cone = self.beta / 2.0 * checks.UNIFORM01_ENERGY + gate * checks.energy_constant(self.p)
        return cone + checks.emp_tail(gate, self.alpha, 0.5)

    def euclid_want(self, z=0.5):
        p = self.p
        entropy = (z - 1.0) / p - math.log(z) / p
        m = z / p
        return entropy + (1.0 - m) + checks.emp_tail(1.0 / p, self.alpha, m)

    @staticmethod
    def asymptotics_check(res):
        code, out = res
        last = read_csv_dicts(out / "asymptotics.csv")[-1]
        return [exit_ok(code)] + checks.check_ratios(
            {f"{k} at n={last['n']}": float(last[k])
             for k in ("laplace_ratio", "breitung_ratio")}), {}

    def legendre_run(self, seed):
        c1, c2, c3 = self.legendre_coef
        t = np.linspace(-3.0, 3.0, 1201)
        fs = [c1 * t ** 2, np.cosh(c2 * t), np.abs(t) ** 1.5 + c3 * t]
        biconj = [self.rates.legendre_biconjugate(t, f) for f in fs]
        tq = np.linspace(-6.0, 6.0, 2401)
        xs = np.linspace(-2.0, 2.0, 41)
        dual = self.rates.legendre_transform(tq, tq ** 2 / 2.0, xs)
        return t, fs, biconj, xs, dual

    @staticmethod
    def legendre_check(res):
        t, fs, biconj, xs, dual = res
        v = [checks.check_legendre(t, f, g, 100) for f, g in zip(fs, biconj)]
        v.append(checks.check_close("quadratic self-duality",
                                    np.max(np.abs(dual - xs ** 2 / 2.0)), 0.0, 1e-6))
        return v, {}

    def psi_run(self, seed):
        grid = np.linspace(0.0, 40.0, 4001)
        dens = np.exp(-grid)
        dens /= np.trapezoid(dens, grid)
        law = self.lpgeom.RadialLawW.tabulated(grid=grid, density=dens)
        spec = self.lpgeom.PsiSpec(n=5, p=2.0, law=law)
        return self.lpgeom.psi_density(spec, self.psi_s)

    def ops(self, seed):
        self.make_inputs(seed)
        cli, wd = self.cli, self.workdir
        hb = ["--p", "2", "--beta", "2"]
        emp = hb + ["--alpha", "1"]
        return [
            cli_op(cli, wd, "rate cone-H arcsine", "rate",
                   ["rate", "--target", "cone-H", "--analytic", "arcsine",
                    "--a", str(-self.arcsine_radius), "--b",
                    str(self.arcsine_radius)] + hb,
                   self.rate_check(lambda: self.beta / 2.0 * checks.arcsine_energy(
                       self.arcsine_radius) + self.h_const, 1e-6)),
            cli_op(cli, wd, "rate emp-H grid", "rate",
                   ["rate", "--target", "emp-H", "--grid-csv", str(self.grid_csv)] + emp,
                   self.rate_check(self.grid_want, 3e-3, self.grid_cone, 2e-3)),
            cli_op(cli, wd, "rate emp-H atoms", "rate",
                   ["rate", "--target", "emp-H", "--atoms-csv", str(self.atoms_csv)] + emp,
                   self.atoms_sanity),
            cli_op(cli, wd, "rate emp-M uniform", "rate",
                   ["rate", "--target", "emp-M", "--analytic", "uniform", "--a", "0",
                    "--b", "1"] + emp, self.rate_check(self.uniform_want, 1e-6)),
            cli_op(cli, wd, "rate emp-euclid scaled-np", "rate",
                   ["rate", "--target", "emp-euclid", "--analytic", "scaled-np",
                    "--z", "0.5", "--p", "2", "--alpha", "1"],
                   self.rate_check(self.euclid_want, 1e-6)),
            cli_op(cli, wd, "asymptotics", "asymptotics", ["asymptotics"],
                   self.asymptotics_check),
            Op("legendre biconjugate x3", "library", self.legendre_run,
               self.legendre_check),
            Op("psi tabulated Exp(1)", "library", self.psi_run,
               lambda res: ([checks.check_psi_one(res)], {})),
        ]

    def warmup(self):
        out = str(self.workdir / "warmup")
        self.cli.main(["rate", "--target", "emp-M", "--analytic", "uniform",
                       "--alpha", "1", "--out", out])
        self.cli.main(["asymptotics", "--n-list", "50", "--out", out])
        t = np.linspace(-1.0, 1.0, 16)
        self.rates.legendre_biconjugate(t, t ** 2)


def _write_columns(path: Path, header, columns):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([repr(float(v)) for v in row])


WORKLOADS = {"chain-spectra": ChainSpectra, "exact-io": ExactIO,
             "functionals": Functionals}

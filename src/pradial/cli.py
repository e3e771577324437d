"""Reproducible experiment harness.

Subcommands: sample, test-norm-law, rate, ldp-verify, asymptotics,
norm-const.  Every run writes a JSON manifest echoing the fully resolved
configuration; running a command again with the same configuration
produces byte-identical CSV output.

Exit codes: 0 success, 2 usage/parameter error, 3 statistical or chain
diagnostic failure, or a non-finite result (partial outputs are retained).
JSON outputs are strict: non-finite floats are written as "inf", "-inf"
or "nan".

Each subcommand's parameters are declared once, as the rows of its table
in COMMANDS (name, type, choices, default, fallback, required).  The
table generates the subcommand's flags and config keys and checks the
merged values.  Configuration merge order: a row's default < packaged
defaults (defaults.json) < --config file < explicit flags.  A config-file
value is checked like a flag: its text is parsed by the row's type and
held to the row's choices, so {"p": 2} is recorded as 2.0 and
{"n": "abc"} is a usage error.  The default output root comes from the
PRADIAL_OUTPUT_ROOT environment variable (falling back to ./pradial-out).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.special import betainc

from . import __version__
from .distributions import ParameterError, RadialLawW
from .lpgeom import sample_cone, sample_pnpw, sample_uniform_ball
from .matrixball import EnsembleSpec, sample_eigenvalues_PH, sample_sq_singular_PM
from .mcmc import estimate_norm_const, sample_weighted_pnpw
from .measures import MeasureRep
from .rng import RngStream
from .weights import WeightFn
from . import rates
from .lpgeom import norm_split_B

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STAT = 3

_DEFAULTS_PATH = Path(__file__).with_name("defaults.json")


def load_defaults() -> dict:
    with open(_DEFAULTS_PATH) as fh:
        return json.load(fh)


# cells formatted per block: bounds the Python objects alive at once
_CSV_BLOCK_CELLS = 1 << 14


def write_csv(path: Path, header, rows):
    """Write a header and rows (an array or a list of tuples) as CSV.

    Cells are numbers or strings free of commas, quotes and newlines, so
    no cell needs quoting.  A float cell, Python or numpy, is the ``repr``
    of its value widened to a Python float: the shortest text that reads
    back to the same bits.  The builtin ``format`` gives exactly that text
    for numpy scalars too, whatever numpy's print options, and costs no
    Python call per cell.  Rows go out in blocks, one write per block; an
    array block is boxed into Python scalars by a single ``tolist``.
    """
    step = max(1, _CSV_BLOCK_CELLS // len(header))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            if isinstance(block, np.ndarray):
                block = block.tolist()
            fh.write("".join([",".join(map(format, row)) + "\n"
                              for row in block]))


def _strict(o):
    """``o`` with numpy values made plain and non-finite floats spelled
    "inf", "-inf" or "nan", which strict JSON can hold."""
    if isinstance(o, dict):
        return {k: _strict(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_strict(v) for v in o]
    if isinstance(o, np.ndarray):
        return _strict(o.tolist())
    if isinstance(o, (float, np.floating)):
        v = float(o)
        if math.isfinite(v):
            return v
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    if isinstance(o, np.integer):
        return int(o)
    return o


def write_json(path: Path, obj):
    with open(path, "w") as fh:
        json.dump(_strict(obj), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def write_manifest(outdir: Path, command: str, config: dict, outputs: list,
                   overridden: bool):
    manifest = {
        "artifact": "pradial",
        "artifact_version": __version__,
        "defaults_version": load_defaults()["defaults_version"],
        "command": command,
        "config": config,
        "outputs": outputs,
        "threshold_overridden": overridden,
    }
    write_json(outdir / "manifest.json", manifest)


# --- parameter tables -----------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _n_list(text: str) -> str:
    """Checked, then kept as the text given, which the manifest records."""
    if min(int(s) for s in text.split(",")) < 1:
        raise ValueError(text)
    return text


_EXPECTS = {int: "an integer", float: "a number", bool: "true or false",
            _positive_int: "an integer >= 1",
            _n_list: "comma-separated integers >= 1"}


class Param:
    """One row of a subcommand's parameter table.

    name is the config key; the flag is --name with "-" for "_".  type
    parses the text of a value, from a flag or a config file alike (a
    bool row is a switch, and a config file gives it true or false);
    choices limit the parsed value.  default is recorded in the manifest
    when nothing else sets the parameter; fallback is used then but not
    recorded.
    """

    def __init__(self, name, type=float, choices=None, default=None,
                 fallback=None, required=False):
        self.name, self.type, self.choices = name, type, choices
        self.default, self.fallback = default, fallback
        self.required = required
        self.flag = "--" + name.replace("_", "-")

    def parse(self, raw):
        if self.type is bool:
            if isinstance(raw, bool):
                return raw
        else:
            try:
                value = self.type(str(raw))
            except ValueError:
                pass
            else:
                if self.choices is None or value in self.choices:
                    return value
        expects = (f"one of {', '.join(self.choices)}" if self.choices
                   else _EXPECTS[self.type])
        raise ParameterError(f"{self.flag} expects {expects}, got {raw!r}")


class _Config(dict):
    """The resolved parameters, as the manifest records them.  An unset
    parameter with a fallback reads as its fallback."""

    def __init__(self, fallbacks: dict):
        super().__init__()
        self.fallbacks = fallbacks

    def __missing__(self, name):
        return self.fallbacks[name]


def _read_config(path) -> dict:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:
            raise ParameterError(f"--config {path}: not JSON ({exc})") from None
    # manifests are accepted directly as config files
    if isinstance(cfg, dict) and "config" in cfg and "artifact" in cfg:
        cfg = cfg["config"]
    if not isinstance(cfg, dict):
        raise ParameterError(f"--config {path}: expected a JSON object")
    return cfg


def resolve_config(args: argparse.Namespace, params) -> tuple[dict, bool]:
    """Merge each row's default < defaults.json < config file < explicit
    flags, parse the winning value through its row, and report whether a
    flag changed a threshold that a default or the config file had set.
    Flags are declared with default None, so a non-None value means the
    user set it."""
    defaults = load_defaults()
    file_cfg = _read_config(args.config) if args.config else {}
    cfg = _Config({prm.name: prm.fallback for prm in params
                   if prm.fallback is not None})
    overridden, missing = False, []
    for prm in params:
        flag = getattr(args, prm.name)
        given = [v for v in (prm.default, defaults.get(prm.name),
                             file_cfg.get(prm.name), flag) if v is not None]
        if not given:
            if prm.required:
                missing.append(prm.name)
            continue
        cfg[prm.name] = prm.parse(given[-1])
        if (flag is not None and prm.name.endswith("threshold")
                and len(given) > 1 and prm.parse(given[-2]) != cfg[prm.name]):
            overridden = True
    if missing:
        raise ParameterError(
            f"missing required parameter(s): {', '.join(missing)}")
    return cfg, overridden


def _outdir(args) -> Path:
    root = os.environ.get("PRADIAL_OUTPUT_ROOT", "pradial-out")
    out = Path(args.out) if args.out else Path(root)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _law_from(cfg) -> RadialLawW:
    theta, alpha = cfg["theta"], cfg["alpha"]
    if theta == 1.0:
        return RadialLawW.dirac()
    if theta == 0.0:
        return RadialLawW.gamma(alpha)
    return RadialLawW.mixture(theta, alpha)


def _ensemble(cfg, law) -> EnsembleSpec:
    return EnsembleSpec(n=cfg["n"], p=cfg["p"], beta=cfg["beta"], law=law)


# --- sample -----------------------------------------------------------------

# target -> draw(cfg, law, rng), a PBallSample.  A draw's rows are its
# `points`; a chain target's `chain` holds its diagnostics, and the
# norm-split statistic of a row, sum |x_i|^q with q the sample's p, has
# the Beta shape (n + degree) / q.  The lambdas look samplers up when
# called, so a rebound module-level name is the one that runs.
_TARGETS = {
    "cone": lambda c, law, rng: sample_cone(
        c["n"], c["p"], rng, size=c["count"], positive=c["orthant"]),
    "uniform": lambda c, law, rng: sample_uniform_ball(
        c["n"], c["p"], rng, size=c["count"], positive=c["orthant"]),
    "pnpw": lambda c, law, rng: sample_pnpw(
        c["n"], c["p"], law, rng, size=c["count"], positive=c["orthant"]),
    "weighted-pnpw": lambda c, law, rng: sample_weighted_pnpw(
        c["n"], c["p"], WeightFn.delta_beta(c["beta"]), law, rng,
        size=c["count"]),
    "eigen-PH": lambda c, law, rng: sample_eigenvalues_PH(
        _ensemble(c, law), rng, size=c["count"]),
    "singular-PM": lambda c, law, rng: sample_sq_singular_PM(
        _ensemble(c, law), rng, size=c["count"]),
}

# the exact targets, whose laws are invariant under flipping one
# coordinate's sign; folding chain draws into the orthant changes their law
_ORTHANT_TARGETS = ("cone", "uniform", "pnpw")


def cmd_sample(args, cfg, overridden) -> int:
    if cfg["orthant"] and cfg["target"] not in _ORTHANT_TARGETS:
        print(f"--orthant is not supported for target {cfg['target']!r}",
              file=sys.stderr)
        return EXIT_USAGE
    outdir = _outdir(args)
    rng = RngStream(cfg["seed"])
    s = _TARGETS[cfg["target"]](cfg, _law_from(cfg), rng)
    chain = s.chain

    header = [f"x{i + 1}" for i in range(cfg["n"])]
    write_csv(outdir / "samples.csv", header, s.points)
    outputs = ["samples.csv"]
    if chain is not None:
        write_json(outdir / "diagnostics.json", {
            "chain_ok": chain.ok, "accept_rate": chain.accept_rate,
            "accept_per_chain": chain.accept_per_chain, "ess": chain.ess})
        outputs.append("diagnostics.json")
    write_manifest(outdir, "sample", cfg, outputs, overridden)
    if chain is not None and not chain.ok:
        print("chain diagnostics failed; outputs retained", file=sys.stderr)
        return EXIT_STAT
    return EXIT_OK


# --- test-norm-law -----------------------------------------------------------

def _norm_split_samples(cfg, rng):
    """B draws and the beta shape parameter for the selected target."""
    n, p = cfg["n"], cfg["p"]
    law = _law_from(cfg)
    if cfg["target"] == "euclid":
        m = cfg["m"]
        b = norm_split_B(n, p, m, law, rng, size=cfg["count"])
        return np.asarray(b), (n + m) / p
    s = _TARGETS[cfg["target"]](cfg, law, rng)
    # the norm-split statistic is recovered exactly from the draws
    b = np.sum(np.abs(s.points) ** s.p, axis=1)
    return b, (n + s.degree) / s.p


def cmd_test_norm_law(args, cfg, overridden) -> int:
    if "m" in cfg and cfg["target"] != "euclid":
        # a chain target's degree is its weight's, fixed by n and beta
        print(f"--m is not supported for target {cfg['target']!r}",
              file=sys.stderr)
        return EXIT_USAGE
    outdir = _outdir(args)
    rng = RngStream(cfg["seed"])
    b, shape = _norm_split_samples(cfg, rng)

    theta, alpha = cfg["theta"], cfg["alpha"]
    atoms = b >= 1.0 - 1e-12
    atom_frac = float(atoms.mean())
    cont = b[~atoms]
    report = {
        "n_samples": int(b.size),
        "atom_fraction": atom_frac,
        "expected_atom_fraction": theta,
        "beta_shape_a": shape,
        "beta_shape_b": alpha,
    }
    flagged = False
    if cont.size == 0 and theta < 1.0:
        report["flag"] = "no-continuous-part-samples"
        flagged = True
    else:
        if theta < 1.0:
            ks = stats.kstest(cont, lambda x: betainc(shape, alpha, x))
            report["ks_statistic"] = float(ks.statistic)
            report["p_value"] = float(ks.pvalue)
            flagged = ks.pvalue <= cfg["ks_pvalue_threshold"]
        # exact binomial interval for the atom count
        lo, hi = stats.binom.interval(load_defaults()["atom_confidence"],
                                      b.size, theta) if 0 < theta < 1 else (
            theta * b.size, theta * b.size)
        report["atom_count_interval"] = [int(lo), int(hi)]
        if not (lo <= atoms.sum() <= hi):
            report["flag"] = "atom-fraction-outside-interval"
            flagged = True
    write_json(outdir / "norm_law_report.json", report)
    write_manifest(outdir, "test-norm-law", cfg, ["norm_law_report.json"],
                   overridden)
    return EXIT_STAT if flagged else EXIT_OK


# --- rate -------------------------------------------------------------------

def _set(cfg, **names) -> dict:
    """Keyword arguments taken from the parameters that cfg sets."""
    return {arg: cfg[name] for arg, name in names.items() if name in cfg}


# --analytic family -> its measure; an unset --z, --a or --b takes the
# constructor's own default
_FAMILIES = {
    "scaled-np": lambda c: MeasureRep.gen_gaussian_scaled(c["p"],
                                                          **_set(c, z="z")),
    "arcsine": lambda c: MeasureRep.arcsine(**_set(c, a="a", b="b")),
    "uniform": lambda c: MeasureRep.uniform(**_set(c, a="a", b="b")),
    "semicircle": lambda c: MeasureRep.semicircle(**_set(c, radius="b")),
}


def _measure_from(cfg) -> MeasureRep:
    try:
        if cfg.get("atoms_csv"):
            data = np.loadtxt(cfg["atoms_csv"], delimiter=",", skiprows=1,
                              ndmin=1)
            if data.ndim != 1:
                raise ValueError("an atoms CSV has one column")
            return MeasureRep.from_atoms(data)
        if cfg.get("grid_csv"):
            x, density = np.loadtxt(cfg["grid_csv"], delimiter=",",
                                    skiprows=1, ndmin=2).T
            return MeasureRep.from_grid(x, density)
    except ValueError as exc:
        raise ParameterError(f"unreadable measure CSV: {exc}") from None
    return _FAMILIES[cfg["analytic"]](cfg)


def cmd_rate(args, cfg, overridden) -> int:
    spec = rates.RateFnSpec(target=cfg["target"], p=cfg["p"],
                            beta=cfg["beta"], alpha=cfg["alpha"],
                            ktheta=cfg["ktheta"], c=cfg["c"])
    scan = spec.kind == "beta" and "x" not in cfg
    mu = None if scan else _measure_from(cfg)
    outdir = _outdir(args)

    outputs = []
    report = {"target": spec.target, "p": spec.p, "beta": spec.beta,
              "alpha": spec.alpha, "ktheta": spec.ktheta, "c": spec.c}
    if scan:
        xs = np.linspace(cfg["x_min"], cfg["x_max"], cfg["x_steps"])
        rows = [(x, rates.rate_beta(float(x), spec)) for x in xs]
        write_csv(outdir / "rate_scan.csv", ["x", "rate"], rows)
        outputs.append("rate_scan.csv")
        # the first smallest finite value; the first row if none is
        # finite (rate_beta never returns nan)
        xmin, vmin = min(rows, key=lambda r: r[1])
        report["min_x"] = float(xmin)
        report["min_value"] = float(vmin)
    else:
        report.update(rates.rate(spec, mu, cfg.get("x")))

    write_json(outdir / "rate_report.json", report)
    outputs.append("rate_report.json")
    write_manifest(outdir, "rate", cfg, outputs, overridden)
    return EXIT_OK


# --- ldp-verify ---------------------------------------------------------------

def cmd_ldp_verify(args, cfg, overridden) -> int:
    p, bcut, alpha_rate = cfg["p"], cfg["event_b"], cfg["alpha_rate"]
    if not 0.0 < bcut <= 1.0:
        raise ParameterError(f"--event-b must lie in (0, 1], got {bcut!r}")
    outdir = _outdir(args)
    ns = [int(s) for s in cfg["n_list"].split(",")]
    spec = rates.RateFnSpec(target="beta-euclid", p=p, alpha=alpha_rate)
    # the rate decreases left of its minimizer x*, so its infimum over
    # the event {B <= b} is its value at min(b, x*)
    rate_inf = rates.rate_beta(min(bcut, rates.rate_beta_argmin(spec)), spec)

    rows = []
    rng = RngStream(cfg["seed"])
    for n, sub in zip(ns, rng.split(len(ns))):
        alpha_n = alpha_rate * n
        prob = float(betainc(n / p, alpha_n, bcut))
        decay = -np.log(prob) / n if prob > 0 else np.inf
        freq = ""
        censored = 0
        if cfg["monte_carlo"]:
            count = cfg["count"]
            b = norm_split_B(n, p, 0.0, RadialLawW.gamma(alpha_n), sub,
                             size=count)
            hits = int(np.sum(b <= bcut))
            if hits == 0:
                freq = 3.0 / count  # rule-of-three upper bound
                censored = 1
            else:
                freq = hits / count
        rows.append((n, prob, decay, freq, censored, rate_inf,
                     decay - rate_inf))
    write_csv(outdir / "ldp_decay.csv",
              ["n", "prob_exact", "neg_log_prob_over_n", "freq_mc",
               "censored", "rate_infimum", "gap"], rows)
    gaps = [r[-1] for r in rows]
    report = {"rate_infimum": rate_inf,
              "gap_final": gaps[-1],
              "gap_monotone_decreasing": all(
                  g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))}
    write_json(outdir / "ldp_report.json", report)
    write_manifest(outdir, "ldp-verify", cfg,
                   ["ldp_decay.csv", "ldp_report.json"], overridden)
    if not all(np.isfinite(gaps)):
        print("decay gap is not finite: the exact tail probability "
              "underflowed; outputs retained", file=sys.stderr)
        return EXIT_STAT
    return EXIT_OK


# --- asymptotics ----------------------------------------------------------------

def cmd_asymptotics(args, cfg, overridden) -> int:
    outdir = _outdir(args)
    ns = [int(s) for s in cfg["n_list"].split(",")]

    rows = []
    for n in ns:
        lap, est_l, lim_l = rates.laplace_check(
            lambda x: 1.0, lambda x: -(x - 0.3) ** 2, (0.0, 1.0), n, c=0.05)
        brt, est_b, lim_b = rates.breitung_check(
            lambda x: 1.0 + x, lambda x: -x - x * x, n, c=0.05)
        rows.append((n, lap, brt, est_l, lim_l, abs(est_l - lim_l),
                     est_b, lim_b, abs(est_b - lim_b)))
    write_csv(outdir / "asymptotics.csv",
              ["n", "laplace_ratio", "breitung_ratio", "adapted_laplace",
               "adapted_laplace_limit", "adapted_laplace_err",
               "adapted_breitung", "adapted_breitung_limit",
               "adapted_breitung_err"], rows)
    write_manifest(outdir, "asymptotics", cfg, ["asymptotics.csv"], overridden)
    return EXIT_OK


# --- norm-const ---------------------------------------------------------------

def _power_weight(m: float, n: int) -> WeightFn:
    """prod_i |x_i|^m, homogeneous of degree m n."""
    return WeightFn.custom(lambda x: m * np.sum(np.log(np.abs(x)), axis=-1),
                           m * n, name=f"|x|^{m}")


_WEIGHTS = {
    "one": lambda c: WeightFn.constant_one(),
    "delta": lambda c: WeightFn.delta_beta(c["beta"]),
    "nabla": lambda c: WeightFn.nabla_beta(c["beta"]),
    "power": lambda c: _power_weight(c["m"], c["n"]),
}


def cmd_norm_const(args, cfg, overridden) -> int:
    outdir = _outdir(args)
    n, p = cfg["n"], cfg["p"]
    weight = _WEIGHTS[cfg["weight"]](cfg)
    rng = RngStream(cfg["seed"])
    log_c, se = estimate_norm_const(n, p, weight, rng, size=cfg["count"])
    report = {"weight": weight.name, "n": n, "p": p,
              "log_norm_const": log_c, "se_log": se}
    write_json(outdir / "norm_const.json", report)
    write_manifest(outdir, "norm-const", cfg, ["norm_const.json"], overridden)
    if not np.isfinite(log_c):
        print("degenerate estimate: weight vanished on every draw",
              file=sys.stderr)
        return EXIT_STAT
    return EXIT_OK


# --- parser -------------------------------------------------------------------

# rate and asymptotics draw nothing, so they take no --count; they keep
# --seed because the benchmark (pradbench's cli_op) appends it to every
# CLI call it makes
_SEED = Param("seed", int)
_COMMON = (_SEED, Param("count", _positive_int))

# subcommand -> (help, handler, parameter table); the flags follow the
# table's order, then --out and --config
COMMANDS = {
    "sample": ("draw from one of the ball laws", cmd_sample, (
        Param("target", str, choices=tuple(_TARGETS), required=True),
        Param("n", int, required=True),
        Param("p"), Param("beta"), Param("theta"), Param("alpha"),
        Param("orthant", bool, default=False)) + _COMMON),
    "test-norm-law": ("KS/atom test of the norm-split statistic",
                      cmd_test_norm_law, (
        Param("target", str, choices=("euclid", "eigen-PH", "singular-PM"),
              required=True),
        Param("n", int, required=True),
        Param("p"), Param("m", fallback=0.0), Param("beta"), Param("theta"),
        Param("alpha"), Param("ks_pvalue_threshold")) + _COMMON),
    "rate": ("evaluate a rate function", cmd_rate, (
        Param("target", str, choices=rates.TARGETS, required=True),
        Param("p"), Param("beta"), Param("alpha"),
        Param("ktheta", str, choices=("critical", "greater"),
              default="critical"),
        Param("c", default=0.0), Param("x"),
        Param("x_min", fallback=0.01), Param("x_max", fallback=0.99),
        Param("x_steps", _positive_int, fallback=99),
        Param("atoms_csv", str), Param("grid_csv", str),
        Param("analytic", str, choices=tuple(_FAMILIES),
              fallback="scaled-np"),
        Param("z"), Param("a"), Param("b"), _SEED)),
    "ldp-verify": ("decay of an exactly computable tail event",
                   cmd_ldp_verify, (
        Param("event_b", default=0.1), Param("p"),
        Param("alpha_rate", default=1.0),
        Param("n_list", _n_list, fallback="20,40,80"),
        Param("monte_carlo", bool, default=False)) + _COMMON),
    "asymptotics": ("Laplace / boundary-Laplace ratio table",
                    cmd_asymptotics, (
        Param("n_list", _n_list, fallback="50,100,200,400"), _SEED)),
    "norm-const": ("normalization constant of a weighted density",
                   cmd_norm_const, (
        Param("weight", str, choices=tuple(_WEIGHTS), default="one"),
        Param("beta"), Param("m", fallback=1.0),
        Param("n", int, required=True), Param("p")) + _COMMON),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pradial",
        description="Weighted p-radial distributions on lp and matrix "
                    "p-balls: samplers, exact-law tests, rate functions, "
                    "and desk-scale LDP checks.")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, _, params) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        # values stay text here: resolve_config parses flags and
        # config-file values alike
        for prm in params:
            if prm.type is bool:
                sp.add_argument(prm.flag, action="store_true", default=None)
            else:
                sp.add_argument(prm.flag, default=None, choices=prm.choices)
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--config", default=None,
                        help="JSON config (a manifest is also accepted)")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    _, handler, params = COMMANDS[args.command]
    try:
        cfg, overridden = resolve_config(args, params)
        return handler(args, cfg, overridden)
    except ParameterError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # a missing or unreadable --config, --atoms-csv, --grid-csv or --out
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

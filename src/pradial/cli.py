"""Reproducible experiment harness.

Subcommands: sample, test-norm-law, rate, ldp-verify, asymptotics,
norm-const.  Every run writes a JSON manifest echoing the fully resolved
configuration; running a command again with the same configuration
produces byte-identical CSV output.

Exit codes: 0 success, 2 usage/parameter error, 3 statistical or chain
diagnostic failure, or a non-finite result (partial outputs are retained).
JSON outputs are strict: non-finite floats are written as "inf", "-inf"
or "nan".

Configuration merge order: packaged defaults < --config file < explicit
flags.  The default output root comes from the PRADIAL_OUTPUT_ROOT
environment variable (falling back to ./pradial-out).
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
from .mcmc import ChainConfig, estimate_norm_const, sample_weighted_pnpw
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


def resolve_config(args: argparse.Namespace, keys: list) -> tuple[dict, bool]:
    """Merge defaults < config file < explicit flags.  Flags are declared
    with default None, so a non-None value means the user set it (or the
    file supplied it)."""
    merged = {k: v for k, v in load_defaults().items()
              if k in keys or k in ("seed", "count")}
    file_cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        # manifests are accepted directly as config files
        if "config" in file_cfg and "artifact" in file_cfg:
            file_cfg = file_cfg["config"]
    overridden = False
    for k in keys:
        if k in file_cfg:
            merged[k] = file_cfg[k]
        v = getattr(args, k.replace("-", "_"), None)
        if v is not None:
            if k.endswith("threshold") and k in merged and merged[k] != v:
                overridden = True
            merged[k] = v
    return merged, overridden


def _require(cfg: dict, *names) -> str | None:
    missing = [k for k in names if cfg.get(k) is None]
    if missing:
        msg = f"missing required parameter(s): {', '.join(missing)}"
        print(msg, file=sys.stderr)
        return msg
    return None


def _outdir(args) -> Path:
    root = os.environ.get("PRADIAL_OUTPUT_ROOT", "pradial-out")
    out = Path(args.out) if args.out else Path(root)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _law_from(cfg) -> RadialLawW:
    theta = float(cfg["theta"])
    alpha = float(cfg["alpha"])
    if theta == 1.0:
        return RadialLawW.dirac()
    if theta == 0.0:
        return RadialLawW.gamma(alpha)
    return RadialLawW.mixture(theta, alpha)


# --- sample -----------------------------------------------------------------

_CHAIN_TARGETS = ("weighted-pnpw", "eigen-PH", "singular-PM")


def cmd_sample(args) -> int:
    keys = ["target", "n", "p", "beta", "theta", "alpha", "count", "seed",
            "orthant"]
    cfg, overridden = resolve_config(args, keys)
    cfg.setdefault("orthant", False)
    if _require(cfg, "target", "n"):
        return EXIT_USAGE
    target = cfg["target"]
    positive = bool(cfg["orthant"])
    if positive and target in _CHAIN_TARGETS:
        # the weights are not invariant under flipping one coordinate's
        # sign, so folding chain draws into the orthant changes their law
        print(f"--orthant is not supported for target {target!r}",
              file=sys.stderr)
        return EXIT_USAGE
    outdir = _outdir(args)
    rng = RngStream(int(cfg["seed"]))
    n, p, count = int(cfg["n"]), float(cfg["p"]), int(cfg["count"])
    law = _law_from(cfg)

    diag = None
    if target == "cone":
        points = sample_cone(n, p, rng, size=count, positive=positive).points
    elif target == "uniform":
        points = sample_uniform_ball(n, p, rng, size=count,
                                     positive=positive).points
    elif target == "pnpw":
        points = sample_pnpw(n, p, law, rng, size=count,
                             positive=positive).points
    elif target in _CHAIN_TARGETS:
        beta = float(cfg["beta"])
        if target == "weighted-pnpw":
            s = sample_weighted_pnpw(n, p, WeightFn.delta_beta(beta), law,
                                     rng, size=count)
            points, chain_ok, accept_rate = (s.points, s.chain.ok,
                                             s.chain.accept_rate)
        else:
            sampler = (sample_eigenvalues_PH if target == "eigen-PH"
                       else sample_sq_singular_PM)
            s = sampler(EnsembleSpec(n=n, p=p, beta=beta, law=law), rng,
                        size=count)
            points, chain_ok, accept_rate = s.spectra, s.chain_ok, s.accept_rate
        diag = {"chain_ok": chain_ok, "accept_rate": accept_rate}
    else:
        print(f"unknown sample target {target!r}", file=sys.stderr)
        return EXIT_USAGE

    header = [f"x{i + 1}" for i in range(n)]
    write_csv(outdir / "samples.csv", header, points)
    outputs = ["samples.csv"]
    if diag is not None:
        write_json(outdir / "diagnostics.json", diag)
        outputs.append("diagnostics.json")
    write_manifest(outdir, "sample", cfg, outputs, overridden)
    if diag is not None and not diag["chain_ok"]:
        print("chain diagnostics failed; outputs retained", file=sys.stderr)
        return EXIT_STAT
    return EXIT_OK


# --- test-norm-law -----------------------------------------------------------

def _norm_split_samples(cfg, rng):
    """B draws and the beta shape parameter for the selected target."""
    n, p = int(cfg["n"]), float(cfg["p"])
    count = int(cfg["count"])
    law = _law_from(cfg)
    target = cfg["target"]
    if target == "euclid":
        m = float(cfg.get("m", 0.0) or 0.0)
        b = norm_split_B(n, p, m, law, rng, size=count)
        shape = (n + m) / p
    elif target == "eigen-PH":
        beta = float(cfg["beta"])
        spec = EnsembleSpec(n=n, p=p, beta=beta, law=law)
        s = sample_eigenvalues_PH(spec, rng, size=count)
        # the norm-split statistic is recovered exactly from the spectrum
        b = np.sum(np.abs(s.spectra) ** p, axis=1)
        shape = (n + beta * n * (n - 1) / 2.0) / p
    elif target == "singular-PM":
        beta = float(cfg["beta"])
        spec = EnsembleSpec(n=n, p=p, beta=beta, law=law)
        s = sample_sq_singular_PM(spec, rng, size=count)
        q = p / 2.0
        b = np.sum(np.abs(s.spectra) ** q, axis=1)
        shape = beta * n * n / p
    else:
        raise ParameterError(f"unknown norm-law target {target!r}")
    return np.asarray(b), shape


def cmd_test_norm_law(args) -> int:
    keys = ["target", "n", "p", "m", "beta", "theta", "alpha", "count",
            "seed", "ks_pvalue_threshold"]
    cfg, overridden = resolve_config(args, keys)
    if _require(cfg, "target", "n"):
        return EXIT_USAGE
    outdir = _outdir(args)
    rng = RngStream(int(cfg["seed"]))
    try:
        b, shape = _norm_split_samples(cfg, rng)
    except ParameterError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE

    theta = float(cfg["theta"])
    alpha = float(cfg["alpha"])
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
            flagged = ks.pvalue <= float(cfg["ks_pvalue_threshold"])
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

def _measure_from(cfg) -> MeasureRep:
    if cfg.get("atoms_csv"):
        data = np.loadtxt(cfg["atoms_csv"], delimiter=",", skiprows=1, ndmin=1)
        return MeasureRep.from_atoms(data)
    if cfg.get("grid_csv"):
        data = np.loadtxt(cfg["grid_csv"], delimiter=",", skiprows=1, ndmin=2)
        return MeasureRep.from_grid(data[:, 0], data[:, 1])
    name = cfg.get("analytic") or "scaled-np"
    if name == "scaled-np":
        return MeasureRep.gen_gaussian_scaled(float(cfg["p"]),
                                              float(cfg.get("z", 1.0) or 1.0))
    if name == "arcsine":
        return MeasureRep.arcsine(float(cfg.get("a", -1.0) or -1.0),
                                  float(cfg.get("b", 1.0) or 1.0))
    if name == "uniform":
        return MeasureRep.uniform(float(cfg.get("a", 0.0) or 0.0),
                                  float(cfg.get("b", 1.0) or 1.0))
    if name == "semicircle":
        return MeasureRep.semicircle(float(cfg.get("b", 1.0) or 1.0))
    raise ParameterError(f"unknown analytic family {name!r}")


def cmd_rate(args) -> int:
    keys = ["target", "p", "beta", "alpha", "ktheta", "c", "x", "x_min",
            "x_max", "x_steps", "atoms_csv", "grid_csv", "analytic", "z",
            "a", "b", "seed"]
    cfg, overridden = resolve_config(args, keys)
    cfg.setdefault("ktheta", "critical")
    cfg.setdefault("c", 0.0)
    cfg.setdefault("alpha", 0.0)
    if _require(cfg, "target"):
        return EXIT_USAGE
    outdir = _outdir(args)
    try:
        spec = rates.RateFnSpec(target=cfg["target"], p=float(cfg["p"]),
                                beta=float(cfg["beta"]),
                                alpha=float(cfg["alpha"]),
                                ktheta=cfg["ktheta"], c=float(cfg["c"]))
    except ParameterError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE

    outputs = []
    report = {"target": spec.target, "p": spec.p, "beta": spec.beta,
              "alpha": spec.alpha, "ktheta": spec.ktheta, "c": spec.c}
    try:
        if spec.target.startswith("beta-"):
            if cfg.get("x") is not None:
                x = float(cfg["x"])
                report["x"] = x
                report["value"] = rates.rate_beta(x, spec)
                report["branch"] = ("greater" if spec.ktheta == "greater"
                                    else ("alpha-zero" if spec.alpha == 0.0
                                          else "alpha-positive"))
            else:
                xs = np.linspace(float(cfg.get("x_min", 0.01) or 0.01),
                                 float(cfg.get("x_max", 0.99) or 0.99),
                                 int(cfg.get("x_steps", 99) or 99))
                rows = [(x, rates.rate_beta(float(x), spec)) for x in xs]
                write_csv(outdir / "rate_scan.csv", ["x", "rate"], rows)
                outputs.append("rate_scan.csv")
                finite = [r for r in rows if np.isfinite(r[1])]
                xmin, vmin = min(finite, key=lambda r: r[1])
                report["min_x"] = float(xmin)
                report["min_value"] = float(vmin)
        elif spec.target.startswith("cone-"):
            mu = _measure_from(cfg)
            if spec.target == "cone-euclid":
                report["value"] = rates.rate_cone_euclid(mu, spec.p)
            elif spec.target == "cone-H":
                report["value"] = rates.rate_cone_H(mu, spec.p, spec.beta)
            else:
                report["value"] = rates.rate_cone_M(mu, spec.p, spec.beta)
            report["branch"] = ("finite" if np.isfinite(report["value"])
                                else "moment-gate")
        else:
            mu = _measure_from(cfg)
            item = rates.rate_emp_itemized(mu, spec)
            report.update(value=item["value"], branch=item["branch"],
                          summands=item["terms"])
    except ParameterError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE

    write_json(outdir / "rate_report.json", report)
    outputs.append("rate_report.json")
    write_manifest(outdir, "rate", cfg, outputs, overridden)
    return EXIT_OK


# --- ldp-verify ---------------------------------------------------------------

def cmd_ldp_verify(args) -> int:
    keys = ["event_b", "p", "alpha_rate", "n_list", "count", "seed",
            "monte_carlo"]
    cfg, overridden = resolve_config(args, keys)
    cfg.setdefault("event_b", 0.1)
    cfg.setdefault("alpha_rate", 1.0)
    cfg.setdefault("monte_carlo", False)
    outdir = _outdir(args)
    p = float(cfg["p"])
    bcut = float(cfg["event_b"])
    alpha_rate = float(cfg["alpha_rate"])
    n_list = cfg.get("n_list") or "20,40,80"
    ns = [int(s) for s in str(n_list).split(",")]
    spec = rates.RateFnSpec(target="beta-euclid", p=p, alpha=alpha_rate)
    # the rate function is decreasing left of its minimizer, so the infimum
    # over {x <= b} is checked by grid search
    xs = np.linspace(1e-6, bcut, 2000)
    rate_inf = min(rates.rate_beta(float(x), spec) for x in xs)

    rows = []
    rng = RngStream(int(cfg["seed"]))
    for n, sub in zip(ns, rng.split(len(ns))):
        alpha_n = alpha_rate * n
        prob = float(betainc(n / p, alpha_n, bcut))
        decay = -np.log(prob) / n if prob > 0 else np.inf
        freq = ""
        censored = 0
        if cfg["monte_carlo"]:
            count = int(cfg["count"])
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

def cmd_asymptotics(args) -> int:
    keys = ["n_list", "seed"]
    cfg, overridden = resolve_config(args, keys)
    outdir = _outdir(args)
    ns = [int(s) for s in str(cfg.get("n_list") or "50,100,200,400").split(",")]

    rows = []
    for n in ns:
        lap = rates.laplace_check(lambda x: 1.0,
                                  lambda x: -(x - 0.3) ** 2, (0.0, 1.0), n)
        brt = rates.breitung_check(lambda x: 1.0 + x,
                                   lambda x: -x - x * x, n)
        est_l, lim_l = rates.adapted_laplace_limit(
            lambda x: 1.0, lambda x: -(x - 0.3) ** 2, (0.0, 1.0), n, c=0.05)
        est_b, lim_b = rates.adapted_breitung_limit(
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

def cmd_norm_const(args) -> int:
    keys = ["weight", "beta", "m", "n", "p", "count", "seed"]
    cfg, overridden = resolve_config(args, keys)
    cfg.setdefault("weight", "one")
    if _require(cfg, "n"):
        return EXIT_USAGE
    outdir = _outdir(args)
    n, p = int(cfg["n"]), float(cfg["p"])
    name = cfg["weight"]
    if name == "one":
        weight = WeightFn.constant_one()
    elif name == "delta":
        weight = WeightFn.delta_beta(float(cfg["beta"]))
    elif name == "nabla":
        weight = WeightFn.nabla_beta(float(cfg["beta"]))
    elif name == "power":
        m = float(cfg.get("m", 1.0) or 1.0)
        weight = WeightFn.custom(
            lambda x: m * np.sum(np.log(np.abs(x)), axis=-1), m * n,
            name=f"|x|^{m}")
    else:
        print(f"unknown weight {name!r}", file=sys.stderr)
        return EXIT_USAGE
    rng = RngStream(int(cfg["seed"]))
    log_c, se = estimate_norm_const(n, p, weight, rng, size=int(cfg["count"]))
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

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pradial",
        description="Weighted p-radial distributions on lp and matrix "
                    "p-balls: samplers, exact-law tests, rate functions, "
                    "and desk-scale LDP checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--count", type=int, default=None)
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--config", default=None,
                        help="JSON config (a manifest is also accepted)")

    sp = sub.add_parser("sample", help="draw from one of the ball laws")
    sp.add_argument("--target", required=False, default=None,
                    choices=["cone", "uniform", "pnpw", "weighted-pnpw",
                             "eigen-PH", "singular-PM"])
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--orthant", action="store_true", default=None)
    common(sp)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("test-norm-law",
                        help="KS/atom test of the norm-split statistic")
    sp.add_argument("--target", default=None,
                    choices=["euclid", "eigen-PH", "singular-PM"])
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--m", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--ks-pvalue-threshold", dest="ks_pvalue_threshold",
                    type=float, default=None)
    common(sp)
    sp.set_defaults(func=cmd_test_norm_law)

    sp = sub.add_parser("rate", help="evaluate a rate function")
    sp.add_argument("--target", default=None,
                    choices=["cone-euclid", "beta-euclid", "emp-euclid",
                             "cone-H", "beta-H", "emp-H",
                             "cone-M", "beta-M", "emp-M"])
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--ktheta", default=None, choices=["critical", "greater"])
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--x", type=float, default=None)
    sp.add_argument("--x-min", dest="x_min", type=float, default=None)
    sp.add_argument("--x-max", dest="x_max", type=float, default=None)
    sp.add_argument("--x-steps", dest="x_steps", type=int, default=None)
    sp.add_argument("--atoms-csv", dest="atoms_csv", default=None)
    sp.add_argument("--grid-csv", dest="grid_csv", default=None)
    sp.add_argument("--analytic", default=None,
                    choices=["scaled-np", "arcsine", "uniform", "semicircle"])
    sp.add_argument("--z", type=float, default=None)
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--b", type=float, default=None)
    common(sp)
    sp.set_defaults(func=cmd_rate)

    sp = sub.add_parser("ldp-verify",
                        help="decay of an exactly computable tail event")
    sp.add_argument("--event-b", dest="event_b", type=float, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--alpha-rate", dest="alpha_rate", type=float,
                    default=None)
    sp.add_argument("--n-list", dest="n_list", default=None)
    sp.add_argument("--monte-carlo", dest="monte_carlo",
                    action="store_true", default=None)
    common(sp)
    sp.set_defaults(func=cmd_ldp_verify)

    sp = sub.add_parser("asymptotics",
                        help="Laplace / boundary-Laplace ratio table")
    sp.add_argument("--n-list", dest="n_list", default=None)
    common(sp)
    sp.set_defaults(func=cmd_asymptotics)

    sp = sub.add_parser("norm-const",
                        help="normalization constant of a weighted density")
    sp.add_argument("--weight", default=None,
                    choices=["one", "delta", "nabla", "power"])
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--m", type=float, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--p", type=float, default=None)
    common(sp)
    sp.set_defaults(func=cmd_norm_const)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Correctness checks computed apart from pradial.

Every checker returns a ``Verdict`` carrying its statistic, its threshold
and whether it passed.  The oracles are closed forms, scipy distributions,
or random-matrix spectra built here with ``numpy.linalg.eigvalsh``; none
of them calls into pradial.  ``self_tests`` feeds each checker a
deliberately wrong input and reports whether it was rejected, so that no
check is vacuous.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import integrate, stats
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import betaln, gammaln

# KS and binomial gates: a correct program trips one with probability
# about 1e-6 per test, so a run of a few dozen tests stays quiet.
P_MIN = 1e-6


@dataclass
class Verdict:
    name: str
    statistic: float
    threshold: float
    passed: bool
    detail: str = ""

    def to_dict(self):
        return asdict(self)


def _le(name, stat, thr, detail=""):
    """Pass when the statistic is at most the threshold."""
    stat = float(stat)
    return Verdict(name, stat, float(thr), bool(stat <= thr), detail)


def _gt(name, stat, thr, detail=""):
    """Pass when the statistic exceeds the threshold (p-values)."""
    stat = float(stat)
    return Verdict(name, stat, float(thr), bool(stat > thr), detail)


# --- statistics -------------------------------------------------------------

def ips_ess(x) -> float:
    """Effective sample size by Geyer's initial positive sequence."""
    x = np.asarray(x, dtype=float)
    m = x.size
    if m < 4:
        return float(m)
    x = x - x.mean()
    f = np.fft.rfft(x, 2 * m)
    acov = np.fft.irfft(f * np.conj(f), 2 * m)[:m]
    if acov[0] <= 0.0:
        return float(m)
    rho = acov / acov[0]
    pairs = rho[: 2 * (m // 2)].reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    tau = 2.0 * pairs[: stop[0] if stop.size else pairs.size].sum() - 1.0
    return float(m / max(tau, 1.0))


def segment_ess(x, segments: int = 4) -> float:
    """ESS summed over equal consecutive segments of a pooled series.

    Pooled chain output is the concatenation of independent chains, so
    splitting before estimating keeps chain seams out of the
    autocorrelation and lowers the estimator's spread.
    """
    return float(sum(ips_ess(s) for s in np.array_split(np.asarray(x), segments)))


def direction_stat(rows: np.ndarray, q: float) -> np.ndarray:
    """max_i x_i / ||x||_q per row: scale free, so its law under the chain
    is that of the matching Gaussian ensemble."""
    rows = np.asarray(rows, dtype=float)
    return rows.max(axis=1) / np.sum(np.abs(rows) ** q, axis=1) ** (1.0 / q)


def ks_pvalue_effective(d: float, n_eff: float, m: int) -> float:
    """Asymptotic two-sample KS p-value with n_eff effective draws on one
    side, which accounts for chain autocorrelation."""
    en = math.sqrt(n_eff * m / (n_eff + m))
    return float(stats.kstwobign.sf(en * d))


# --- random-matrix oracles --------------------------------------------------

def ensemble_directions(family: str, n: int, size: int, seed: int,
                        beta: int = 2, chunk: int = 250) -> np.ndarray:
    """Direction statistics of Gaussian-ensemble spectra.

    family "H": eigenvalues of a Hermitian (beta=2) or real symmetric
    (beta=1) Gaussian matrix, statistic max/||.||_2.  family "M":
    eigenvalues of A A* for a square complex (beta=2) or real (beta=1)
    Gaussian A, statistic max/||.||_1.  Scale does not matter for a
    direction, so no normalisation is applied.
    """
    gen = np.random.default_rng(seed)
    out = []
    for start in range(0, size, chunk):
        k = min(chunk, size - start)
        a = gen.standard_normal((k, n, n))
        if beta == 2:
            a = a + 1j * gen.standard_normal((k, n, n))
        at = np.conj(np.swapaxes(a, 1, 2))
        if family == "H":
            ev = np.linalg.eigvalsh((a + at) / 2.0)
            out.append(direction_stat(ev, 2.0))
        else:
            ev = np.clip(np.linalg.eigvalsh(a @ at), 0.0, None)
            out.append(direction_stat(ev, 1.0))
    return np.concatenate(out)


def hermite_spectrum(n: int, seed: int, radius: float) -> np.ndarray:
    """Sorted eigenvalues of the beta=2 Hermite tridiagonal model
    (Dumitriu-Edelman), scaled so the semicircle edge sits at radius."""
    gen = np.random.default_rng(seed)
    diag = gen.standard_normal(n) * math.sqrt(2.0)
    dof = 2.0 * np.arange(n - 1, 0, -1)
    off = np.sqrt(gen.chisquare(dof))
    ev = eigvalsh_tridiagonal(diag / math.sqrt(2.0), off / math.sqrt(2.0))
    return np.sort(ev) * radius / math.sqrt(4.0 * n)


# --- closed forms -----------------------------------------------------------

def energy_constant(p: float) -> float:
    """log(sqrt(pi) p Gamma(p/2) / (2^p sqrt(e) Gamma((p+1)/2)))."""
    return (0.5 * math.log(math.pi) + math.log(p) + math.lgamma(p / 2.0)
            - p * math.log(2.0) - 0.5 - math.lgamma((p + 1.0) / 2.0))


def semicircle_energy(radius: float) -> float:
    return -math.log(radius / 2.0) + 0.25


def arcsine_energy(radius: float) -> float:
    """Arcsine law on [-radius, radius]: capacity radius / 2."""
    return -math.log(radius / 2.0)


UNIFORM01_ENERGY = 1.5


def emp_tail(gate: float, alpha: float, moment: float) -> float:
    """The alpha > 0 summands of the empirical-measure rate beyond the
    cone rate (c = 0)."""
    return (gate * math.log(gate) - (gate + alpha) * math.log(gate + alpha)
            - alpha * math.log((1.0 - moment) / alpha))


def atoms_energy(x: np.ndarray) -> float:
    """-(1/N^2) sum_{i != j} log|x_i - x_j| for equal-weight atoms, summed
    row block by row block."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    total = 0.0
    for i in range(n - 1):
        total += float(np.sum(np.log(x[i + 1:] - x[i])))
    return -2.0 * total / (n * n)


def mehta_log_norm_const(n: int) -> float:
    """log C for C * int exp(-|x|^2) Delta_2(x) dx = 1 (Mehta's integral)."""
    s = sum(math.lgamma(j + 1.0) for j in range(1, n + 1))
    return -(-(n / 2.0) * math.log(2.0) - (n * (n - 1) / 2.0) * math.log(2.0)
             + (n / 2.0) * math.log(2.0 * math.pi) + s)


def log_beta_cdf(x: float, a: float, b: float) -> float:
    """log P(Beta(a, b) <= x) by quadrature in log space.

    Below the mode the log-density rises to x, so the integrand is
    rescaled by its value there and integrated over the window where it
    is not negligible; nothing underflows for any a, b.
    """
    def logf(t):
        return (a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t)

    top = logf(x)
    slope = (a - 1.0) / x - (b - 1.0) / (1.0 - x)
    lo = max(0.0, x - 80.0 / slope) if slope > 0 else 0.0
    val, _ = integrate.quad(lambda t: math.exp(logf(t) - top) if t > 0 else 0.0,
                            lo, x, limit=200, epsabs=0.0, epsrel=1e-12)
    return top + math.log(val) - betaln(a, b)


def beta_rate(x: float, gate: float, alpha: float) -> float:
    """Critical-speed beta rate with alpha > 0 and c = 0."""
    return (-gate * math.log(x / gate) - alpha * math.log((1.0 - x) / alpha)
            - (gate + alpha) * math.log(gate + alpha))


# --- checkers ---------------------------------------------------------------

def check_beta_ks(b, a: float, alpha: float, name="B-law KS") -> Verdict:
    res = stats.kstest(np.asarray(b), stats.beta(a, alpha).cdf)
    return _gt(name, res.pvalue, P_MIN,
               f"D={res.statistic:.4g}, N={np.size(b)}, Beta({a:g}, {alpha:g})")


def check_direction(d, oracle, name="direction KS") -> Verdict:
    d = np.asarray(d)
    n_eff = segment_ess(d)
    res = stats.ks_2samp(d, oracle)
    p = ks_pvalue_effective(res.statistic, n_eff, oracle.size)
    return _gt(name, p, P_MIN,
               f"D={res.statistic:.4g}, ESS={n_eff:.0f} of {d.size}, "
               f"oracle {oracle.size}")


def check_on_sphere(rows, p: float, tol: float = 1e-12) -> Verdict:
    err = np.max(np.abs(np.sum(np.abs(rows) ** p, axis=1) ** (1.0 / p) - 1.0))
    return _le("| ||x||_p - 1 |", err, tol, f"{len(rows)} rows")


def check_atom_share(atoms: int, total: int, theta: float) -> Verdict:
    lo, hi = stats.binom.interval(1.0 - P_MIN, total, theta)
    ok = lo <= atoms <= hi
    return Verdict("atom share", atoms / total, theta, bool(ok),
                   f"{atoms} atoms of {total}, interval [{lo:.0f}, {hi:.0f}]")


def check_close(name, got, want, tol) -> Verdict:
    got = float(got)
    err = abs(got - want) if math.isfinite(got) else math.inf
    return _le(name, err, tol, f"got {got!r}, want {want!r}")


def check_strict_json(text: str, name="strict JSON") -> tuple[Verdict, dict | None]:
    def refuse(token):
        raise ValueError(f"non-strict JSON constant {token}")

    try:
        obj = json.loads(text, parse_constant=refuse)
    except ValueError as exc:
        return Verdict(name, 1.0, 0.0, False, str(exc)), None
    return Verdict(name, 0.0, 0.0, True), obj


def check_ks_report(report: dict, shape_a: float, shape_b: float,
                    count: int) -> list[Verdict]:
    """A test-norm-law report: the Beta shape must equal the one derived
    here, the p-value must follow from the reported KS statistic, and the
    p-value must clear the gate."""
    out = [check_close("beta shape a", report.get("beta_shape_a", math.nan),
                       shape_a, 1e-9 * shape_a),
           check_close("beta shape b", report.get("beta_shape_b", math.nan),
                       shape_b, 1e-12),
           check_close("draws", report.get("n_samples", -1), count, 0)]
    d = float(report.get("ks_statistic", math.nan))
    p_rep = float(report.get("p_value", math.nan))
    p_own = float(stats.kstwo.sf(d, count)) if math.isfinite(d) else math.nan
    # the two tails agree to relative 1e-3 wherever either is representable
    err = abs(math.log(max(p_rep, 1e-300)) - math.log(max(p_own, 1e-300)))
    out.append(_le("p-value from D", err if math.isfinite(err) else math.inf,
                   1e-3, f"reported {p_rep:.4g}, recomputed {p_own:.4g}"))
    out.append(_gt("B-law KS", p_own, P_MIN, f"D={d:.4g}, N={count}"))
    return out


def check_norm_const(log_c: float, se: float, n: int) -> Verdict:
    want = mehta_log_norm_const(n)
    z = abs(log_c - want) / se if se > 0 else math.inf
    return _le("|log C - Mehta| / SE", z, 5.0,
               f"log C {log_c:.5f}, closed form {want:.5f}, SE {se:.4f}")


def check_ldp_rows(rows: list[dict], p: float, bcut: float,
                   alpha_rate: float, count: int | None) -> list[Verdict]:
    gate = 1.0 / p
    out = [check_close("rate infimum", rows[0]["rate_infimum"],
                       beta_rate(bcut, gate, alpha_rate), 1e-9)]
    worst, worst_n = 0.0, None
    for r in rows:
        n = int(r["n"])
        want = log_beta_cdf(bcut, n / p, alpha_rate * n)
        got = float(r["prob_exact"])
        err = abs(math.log(got) - want) / abs(want) if got > 0 else math.inf
        if err >= worst:
            worst, worst_n = err, n
        if count and not int(r["censored"]):
            hits = round(float(r["freq_mc"]) * count)
            lo, hi = stats.binom.interval(1.0 - P_MIN, count, math.exp(want))
            out.append(Verdict(f"MC hits n={n}", hits, hi, bool(lo <= hits <= hi),
                               f"interval [{lo:.0f}, {hi:.0f}]"))
    out.insert(0, _le("log P(B<=b) rel. err", worst, 1e-8,
                      f"worst at n={worst_n}"))
    return out


def check_legendre(t, f, biconj, trim: int) -> Verdict:
    err = np.max(np.abs(np.asarray(biconj)[trim:-trim] - f[trim:-trim]))
    return _le("biconjugate sup-norm", err, 1e-5, f"{t.size} knots, trim {trim}")


def check_psi_one(psi) -> Verdict:
    return _le("|psi - 1|", np.max(np.abs(np.asarray(psi) - 1.0)), 1e-6,
               f"{np.size(psi)} points")


def check_ratios(ratios: dict) -> list[Verdict]:
    return [_le(f"|{k} - 1|", abs(v - 1.0), 0.02) for k, v in ratios.items()]


# --- checker self-tests -----------------------------------------------------

def self_tests() -> list[Verdict]:
    """Each checker must reject a deliberately wrong input."""
    gen = np.random.default_rng(7)
    out = []

    def rejects(name, verdict):
        out.append(Verdict(f"rejects {name}", verdict.statistic,
                           verdict.threshold, not verdict.passed, verdict.detail))

    a = 128.0
    rejects("shifted Beta shape",
            check_beta_ks(gen.beta(1.25 * a, 1.0, size=2000), a, 1.0))
    oracle = ensemble_directions("H", 16, 1000, seed=11)
    rejects("n=12 directions against the n=16 oracle",
            check_direction(ensemble_directions("H", 12, 2000, seed=12), oracle))
    rows = gen.standard_normal((1000, 50))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rejects("cone rows scaled by 1.01", check_on_sphere(1.01 * rows, 2.0))
    rejects("atom share 0.35 against 0.3", check_atom_share(35000, 100000, 0.3))
    want = 0.25 * semicircle_energy(1.5)
    rejects("energy off by 1e-2", check_close("energy", want + 1e-2, want, 1e-6))
    rejects("grid energy off by 1e-2",
            check_close("energy", want + 1e-2, want, 2e-3))
    rejects("non-strict JSON report",
            check_strict_json('{"gap_final": Infinity}')[0])
    rejects("norm const 10 SE off",
            check_norm_const(mehta_log_norm_const(4) + 0.27, 0.027, 4))
    x = math.exp(log_beta_cdf(0.1, 10.0, 20.0))
    rejects("prob_exact off by 1%", check_ldp_rows(
        [{"n": 20, "prob_exact": 1.01 * x, "rate_infimum": beta_rate(0.1, 0.5, 1.0),
          "censored": 1, "freq_mc": 0.0}], 2.0, 0.1, 1.0, None)[0])
    t = np.linspace(-3.0, 3.0, 101)
    rejects("biconjugate off by 2e-5", check_legendre(t, t ** 2, t ** 2 + 2e-5, 10))
    rejects("psi off by 1e-5", check_psi_one(np.full(10, 1.0 + 1e-5)))
    rejects("ratio 1.03", check_ratios({"ratio": 1.03})[0])
    rep = {"beta_shape_a": 25.0, "beta_shape_b": 1.0, "n_samples": 1000,
           "ks_statistic": 0.2, "p_value": float(stats.kstwo.sf(0.2, 1000))}
    rejects("KS report with p below the gate",
            min(check_ks_report(rep, 25.0, 1.0, 1000), key=lambda v: v.passed))
    return out

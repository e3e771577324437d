"""Reproducible experiment harness.

Subcommands: sample, test-norm-law, rate, ldp-verify, asymptotics,
norm-const.  A subcommand's handler computes and writes nothing: it takes
the resolved configuration and returns (outputs, reasons).  outputs maps
each file name, in write order, to (header, rows) for a .csv or to a JSON
object for a .json; reasons lists the checks the run failed, one clause
each, and is empty when it passed.  main alone does the I/O: it makes the
output directory, writes the outputs and then manifest.json, which
records the resolved configuration and lists the outputs; a parameter
with a fallback is recorded only when something sets it.  Running a
command again with the same configuration produces byte-identical CSV
output.

Exit codes: 0 success, 2 usage/parameter error (nothing is written), 3
statistical or chain diagnostic failure, or a non-finite result (the
outputs are still written).  Every non-zero exit prints one line to
stderr.  main alone words the exit-3 line: the reasons joined by "; ",
then a last clause saying that the outputs are kept.  JSON outputs are
strict: non-finite floats are written as "inf", "-inf" or "nan".

Each subcommand's parameters are declared once, as the rows of its table
in COMMANDS (name, type, choices, default, fallback, required).  The
table generates the subcommand's flags and config keys and checks the
merged values.  Configuration merge order: a row's default < --config
file < explicit flags.  A config-file value is checked like a flag: its
text is parsed by the row's type and held to the row's choices, so
{"p": 2} is recorded as 2.0 and {"n": "abc"} is a usage error.  The
default output root comes from the PRADIAL_OUTPUT_ROOT environment
variable (falling back to ./pradial-out).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import threading
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .distributions import ParameterError, RadialLawW, beta_log_cdf
from .lpgeom import norm_split_B, sample_pnpw
from .matrixball import sample_spectra
from .mcmc import estimate_norm_const
from .measures import MeasureRep
from .rng import _BLOCK, RngStream, _row_blocks, _run_blocks
from .weights import KINDS, WeightFn
from . import rates

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STAT = 3

# cells a block, 96 scratch bytes each, and the most workers: the
# interpreter lock holds two to 1.3 times one's speed; each holds ~4 MB
_CSV_BLOCK_CELLS, _CSV_WORKERS = 1 << 14, 2


def _format_block(block, scratch):
    """The CSV text of a block of rows as bytes: a float array's in
    scratch (see _float_text), a list of tuples' through format."""
    if isinstance(block, np.ndarray):
        return _float_text(block, scratch)
    return "".join([",".join(map(format, r)) + "\n" for r in block]).encode()


# --- shortest round-trip text of float cells, in numpy --------------------------
#
# |x| is scaled to X = |x| 10^(16-e) in [1e16, 1e17) in double-double
# arithmetic (Dekker's exact product, 10^s held as hi + lo).  The decimal
# strings that read back to x lie in X +- h, h = ulp(x)/2 10^(16-e) in
# (0.55, 11.1), and repr writes the multiple of the largest 10^j nearest to
# X inside it.  Powers of two (an asymmetric interval), |x| outside
# (1e-280, 1e280) and any X within _MARGIN of an interval end or a tie go
# to repr itself.

_E_MIN, _E_MAX = -290, 290  # decimal exponents of the 10^(16-e) table
_MARGIN = 1e-9              # in units of X's last digit; X is good to 1e-14
_WIDTH = 48                 # canvas bytes a cell


@functools.lru_cache(maxsize=None)
def _text_tables():
    """Built from Python ints on first use: 10^(16-e) as hi + lo, the text
    of 0..9999 and of the exponents, and the canvas of each cell layout."""
    hi, lo = [], []
    for s in range(16 - _E_MIN, 15 - _E_MAX, -1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi.append(num / den)  # correctly rounded, as is every int / int
        h_num, h_den = hi[-1].as_integer_ratio()
        lo.append((num * h_den - h_num * den) / (den * h_den))
    # four digits, each followed by the 0xFF that keeps a "." or "e"
    four = np.frombuffer(b"".join(b"%c\xff%c\xff%c\xff%c\xff" % tuple(b"%04d" % i)
                                  for i in range(10 ** 4)), np.uint64)
    expo = np.frombuffer(b"".join(b"%+04d" % i for i in range(-400, 400)),
                         np.uint32)
    # "-" "0.000", digit i at column 6 + 2i and a "." after it ("e" after
    # the last), the exponent's sign and digits, the separator: a layout
    # keeps some, with 0xFF where a digit goes.  Layout (cls, k, neg): cls
    # is decpt + 3 for positional text (-4 < decpt <= 16), 20 and 21 for a
    # two- and three-digit exponent; k significant digits
    template = np.frombuffer(b"-0.000" + b"\xff." * 16 + b"\xffe\xff\xff\xff\xff,"
                             + bytes(_WIDTH - 45), np.uint8)
    cls, k, c = np.ogrid[:22, 1:18, :_WIDTH]
    decpt, pos = cls - 3, cls < 20
    digits = np.where(pos & (decpt > 0), np.maximum(k, decpt + 1), k)
    dot = np.where(pos, np.maximum(decpt, 0), k > 1)  # after digit dot - 1
    keep = ((c >= 6) & (c < 6 + 2 * digits) & (c % 2 == 0)
            | (dot > 0) & (c == 5 + 2 * dot) | (c == 44)
            | pos & (decpt <= 0) & (c >= 1) & (c < 3 - decpt)  # 0.000ddd
            | ~pos & np.isin(c, [39, 40, 42, 43]) | (cls == 21) & (c == 41))
    keep = np.stack([keep, keep | (c == 0)], axis=2)  # neg
    return (np.array(hi), np.array(lo), four, expo,
            (keep * template).reshape(-1, _WIDTH))


def _scale(a, e, hi, lo):
    """a 10^(16-e) as an integer N plus a fraction f in [0, 1)."""
    p = a * hi
    (ah, al), (bh, bl) = [(c - (c - v), v - (c - (c - v)))  # Veltkamp
                          for v in (a, hi) for c in [134217729.0 * v]]
    t = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo
    ft = np.floor(t)
    return p.astype(np.int64) + ft.astype(np.int64), t - ft


def _repr_cells(values):
    """repr of each value laid out as _WIDTH canvas bytes: the fallback."""
    return np.array([repr(v).encode().ljust(44, b"\0") + b","
                     for v in values.tolist()], "S48").view(np.uint8)


def _float_text(block, scratch):
    """The CSV text of a 2-D float block, each cell ``repr(float(v))``, as
    uint8 in scratch, floats of twice _WIDTH bytes a cell: the first half
    is a canvas of _WIDTH bytes a cell, zero where no text goes, and the
    second takes the digit chunks, then the canvas's nonzero bytes."""
    pow_hi, pow_lo, four, expo, layouts = _text_tables()
    rows, cols = block.shape
    v = np.ascontiguousarray(block, dtype=np.float64).ravel()
    canvas, spare = scratch[:v.size * _WIDTH // 4].reshape(2, -1)
    canvas = canvas.view(np.uint8).reshape(v.size, _WIDTH)
    a = np.abs(v)
    # repr writes the other cells; 1.0 stands in for them until it does
    fast = (a > 1e-280) & (a < 1e280) & (np.frexp(a)[0] != 0.5)
    a[~fast] = 1.0
    ex = np.frexp(a)[1]
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = pow_hi[e - _E_MIN], pow_lo[e - _E_MIN]
    N, f = _scale(a, e, hi, lo)
    # log10 may misplace X by one decade next to a power of ten
    off = np.flatnonzero((N < 10 ** 16) | (N >= 10 ** 17))
    e[off] += np.where(N[off] < 10 ** 16, -1, 1)
    hi[off], lo[off] = pow_hi[e[off] - _E_MIN], pow_lo[e[off] - _E_MIN]
    N[off], f[off] = _scale(a[off], e[off], hi[off], lo[off])
    h = np.ldexp(hi, ex - 54)
    # the nearest multiples of 100 and 10: at most one multiple of 100 fits
    # in the interval, and when one does, its trailing zeros set j
    r100 = N - N // 100 * 100
    r10 = r100 - r100 // 10 * 10
    lo100, lo10 = r100 + f, r10 + f
    up100, up10 = lo100 > 50, lo10 > 5
    d100, d10 = np.minimum(lo100, 100 - lo100), np.minimum(lo10, 10 - lo10)
    sure = ((np.abs(d100 - h) > _MARGIN) & (np.abs(d10 - h) > _MARGIN)
            & (np.abs(lo10 - 5) > _MARGIN) & (np.abs(f - 0.5) > _MARGIN))
    in100, in10 = d100 < h, d10 < h
    m = np.where(in100, N - r100 + 100 * up100,
                 np.where(in10, N - r10 + 10 * up10, N + (f > 0.5)))
    top = m == 10 ** 17
    m[top] = 10 ** 16
    # k significant digits: 17, 16, or 17 less the trailing zeros of m
    k = 17 - in10
    w = np.flatnonzero(in100)
    q, k[w] = m[w] // 100, 15
    while w.size:
        w, q = w[q % 10 == 0], q[q % 10 == 0] // 10
        k[w] -= 1
    decpt = e + 1 + top
    # the digits' temporaries go before the canvas is laid out
    del a, e, hi, lo, N, f, h, r100, r10, lo100, lo10, d100, d10
    # digit 0, then digits 1-16 in four chunks of four
    d0 = m // 10 ** 16
    chunks = spare[:4 * m.size].view(np.int64).reshape(4, m.size)
    chunks[0] = m - d0 * 10 ** 16
    chunks[2] = chunks[0] - chunks[0] // 10 ** 8 * 10 ** 8
    chunks[0] //= 10 ** 8
    chunks[1::2] = chunks[0::2] - chunks[0::2] // 10 ** 4 * 10 ** 4
    chunks[0::2] //= 10 ** 4
    cls = np.where((decpt > -4) & (decpt <= 16), decpt + 3,
                   np.where(np.abs(decpt - 1) < 100, 20, 21))
    # mode="clip" writes straight into out; the indices are in range
    np.take(layouts, (cls * 17 + k - 1) * 2 + (v < 0), axis=0, out=canvas,
            mode="clip")
    canvas[:, 6] &= (d0 + ord("0")).astype(np.uint8)
    for c, chunk in enumerate(chunks, 1):  # numpy's loop then runs down rows
        canvas.view(np.uint64)[:, c] &= four[chunk]
    canvas.view(np.uint32)[:, 10] &= expo[decpt + 399]
    slow = np.flatnonzero(~(fast & sure))
    canvas[slow] = _repr_cells(v[slow]).reshape(-1, _WIDTH)
    canvas.reshape(rows, cols, _WIDTH)[:, -1, 44] = ord("\n")
    # gathered without the GIL, in pieces that bound the index of kept bytes
    flat, text, n = canvas.reshape(-1), spare.view(np.uint8), 0
    for b in _row_blocks(flat.size, 1):
        i = np.flatnonzero(flat[b] != 0)
        n += np.take(flat[b], i, out=text[n:n + i.size], mode="clip").size
    return text[:n]


def write_csv(path: Path, header, rows):
    """Write a header and rows (a float array or a list of tuples) as CSV.

    Cells are numbers or strings free of commas, quotes and newlines, so
    no cell needs quoting.  A float cell, Python or numpy, is the ``repr``
    of its value widened to a Python float: the shortest text that reads
    back to the same bits.  Rows go out in blocks, one write per block.  A
    block of the array is formatted in numpy by ``_float_text``, which
    leaves to ``repr`` only the cells it cannot settle with certainty;
    other rows are boxed into Python scalars and go through the builtin
    ``format``, which gives that same text for numpy scalars too, whatever
    numpy's print options.

    Formatting costs more than the exact draws it writes, so a table of
    more than rng._BLOCK cells, the loops' block budget, is formatted on
    rng._run_blocks, one thread per CPU up to _CSV_WORKERS; a smaller one
    stays on the calling thread, where it leaves no second malloc arena.
    A worker formats each of its blocks into its runner scratch and writes
    the bytes once the blocks before it are written, so the file is that
    of a serial loop; a failed worker wakes every waiting one.
    """
    jobs = list(enumerate(_row_blocks(len(rows), len(header),
                                      _CSV_BLOCK_CELLS)))
    # a float block's canvas and text; tuples need none
    size = (jobs[0][1].stop * len(header) * _WIDTH // 4
            if isinstance(rows, np.ndarray) else 0)
    turn, written = threading.Condition(), [0]  # -1 once a worker failed

    def run(mine, scratch):
        try:
            for k, b in mine:
                text = _format_block(rows[b], scratch)
                with turn:
                    turn.wait_for(lambda: written[0] in (k, -1))
                    if written[0] < 0:
                        return
                    fh.write(text)
                    written[0] += 1
                    turn.notify_all()
        except BaseException:
            with turn:
                written[0] = -1
                turn.notify_all()
            raise

    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if len(rows) * len(header) > _BLOCK:
            _run_blocks(jobs, run, size, _CSV_WORKERS)
        else:
            run(jobs, np.empty(size))


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


_EXPECTS = {int: "an integer", float: "a finite number", bool: "true or false",
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
                if (self.choices is None or value in self.choices) and (
                        self.type is not float or math.isfinite(value)):
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
    """Merge each row's default < config file < explicit flags, parse the
    winning value through its row, and report whether a flag changed a
    threshold that a default or the config file had set.  Flags are
    declared with default None, so a non-None value means the user set
    it."""
    file_cfg = _read_config(args.config) if args.config else {}
    cfg = _Config({prm.name: prm.fallback for prm in params
                   if prm.fallback is not None})
    overridden, missing = False, []
    for prm in params:
        flag = getattr(args, prm.name)
        given = [v for v in (prm.default, file_cfg.get(prm.name), flag)
                 if v is not None]
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


def _law_from(cfg) -> RadialLawW:
    return RadialLawW(theta=cfg["theta"], alpha=cfg["alpha"])


# --- sample -----------------------------------------------------------------

# exact target -> the mixing law W it fixes for sample_pnpw, or None for
# the configured theta/alpha law.  These laws are invariant under
# flipping one coordinate's sign, so --orthant applies to them alone:
# folding chain draws into the orthant changes their law
_EXACT_LAWS = {"cone": RadialLawW.dirac(), "uniform": RadialLawW.exponential(),
               "pnpw": None}

# target -> draw(cfg, law, rng), a PBallSample.  A draw's rows are its
# `points`; a chain draw's `chain` holds its diagnostics (None when the
# spectral targets draw exactly, at p = 2), and the
# norm-split statistic of a row, sum |x_i|^q with q the sample's p, has
# the Beta shape (n + degree) / q.  The lambdas look samplers up when
# called, so a rebound module-level name is the one that runs.  A
# spectral target draws the matrixball family _SPECTRAL names.
_SPECTRAL = {"eigen-PH": "H", "singular-PM": "M"}
_TARGETS = {
    **dict.fromkeys(_EXACT_LAWS, lambda c, law, rng: sample_pnpw(
        c["n"], c["p"], _EXACT_LAWS[c["target"]] or law, rng,
        size=c["count"], positive=c["orthant"])),
    **dict.fromkeys(_SPECTRAL, lambda c, law, rng: sample_spectra(
        _SPECTRAL[c["target"]], c["n"], c["p"], c["beta"], law, rng,
        size=c["count"])),
}


def _chain_report(chain) -> dict:
    """A chain's diagnostics.  Only chain_ok, the acceptance window, gates
    an exit code; ess and rhat of ||x||_p^p, and ess_dir and rhat_dir of
    max|x_i| / ||x||_p, are reported, over the kept states counted in
    states, which may exceed the rows written."""
    return {"method": "chain", "chain_ok": chain.ok,
            "accept_rate": chain.accept_rate,
            "accept_per_chain": chain.accept_per_chain,
            "states": chain.states, "ess": chain.ess,
            "rhat": chain.rhat, "ess_dir": chain.ess_dir,
            "rhat_dir": chain.rhat_dir}


def cmd_sample(cfg):
    if cfg["orthant"] and cfg["target"] not in _EXACT_LAWS:
        raise ParameterError(
            f"--orthant is not supported for target {cfg['target']!r}")
    # at extreme p a draw overflows or divides 0 by 0: the check below
    # names the rows, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        s = _TARGETS[cfg["target"]](cfg, _law_from(cfg),
                                    RngStream(cfg["seed"]))
    outputs = {"samples.csv": ([f"x{i + 1}" for i in range(cfg["n"])],
                               s.points)}
    chain = s.chain
    if cfg["target"] not in _EXACT_LAWS:
        # the spectral targets draw exactly at p = 2, one independent state
        # a row
        outputs["diagnostics.json"] = (
            {"method": "exact", "states": len(s.points)} if chain is None
            else _chain_report(chain))
    reasons = [] if chain is None or chain.ok else ["chain diagnostics failed"]
    # a finite cell lies in [-1, 1], so the sum is finite unless a cell is not
    if not np.isfinite(s.points.sum()):
        rows = np.count_nonzero(~np.isfinite(s.points).all(axis=1))
        reasons.append(f"{rows} of {len(s.points)} rows of samples.csv hold "
                       "non-finite cells")
    return outputs, reasons


# --- test-norm-law -----------------------------------------------------------

_ATOM_CONFIDENCE = 0.99  # of the binomial interval for the atom count


def _norm_split_samples(cfg, rng):
    """B draws, the beta shape parameter and the chain's diagnostics
    (None for an exact draw) for the selected target."""
    n, p = cfg["n"], cfg["p"]
    law = _law_from(cfg)
    if cfg["target"] == "euclid":
        m = cfg["m"]
        b = norm_split_B(n, p, m, law, rng, size=cfg["count"])
        return np.asarray(b), (n + m) / p, None
    s = _TARGETS[cfg["target"]](cfg, law, rng)
    # the norm-split statistic is recovered exactly from the draws
    b = np.sum(np.abs(s.points) ** s.p, axis=1)
    return b, (n + s.degree) / s.p, (None if s.chain is None
                                       else _chain_report(s.chain))


def cmd_test_norm_law(cfg):
    from scipy import stats
    from scipy.special import betainc

    if "m" in cfg and cfg["target"] != "euclid":
        # a chain target's degree is its weight's, fixed by n and beta
        raise ParameterError(
            f"--m is not supported for target {cfg['target']!r}")
    b, shape, chain = _norm_split_samples(cfg, RngStream(cfg["seed"]))

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
    if chain is not None:
        report["chain"] = chain
    reasons = []
    # a finite B lies in [0, 1], so the sum is finite unless a draw is not
    if not np.isfinite(b.sum()):
        report["non_finite_b"] = b.size - np.count_nonzero(np.isfinite(b))
        reasons.append(f"{report['non_finite_b']} non-finite B draws")
    if cont.size == 0 and theta < 1.0:
        report["flag"] = "no-continuous-part-samples"
    else:
        if theta < 1.0:
            ks = stats.kstest(cont, lambda x: betainc(shape, alpha, x))
            report["ks_statistic"] = float(ks.statistic)
            report["p_value"] = float(ks.pvalue)
            threshold = cfg["ks_pvalue_threshold"]
            if ks.pvalue <= threshold:
                reasons.append(f"KS p-value {ks.pvalue:.3g} <= "
                               f"threshold {threshold}")
        # exact binomial interval for the atom count
        lo, hi = stats.binom.interval(_ATOM_CONFIDENCE, b.size,
                                      theta) if 0 < theta < 1 else (
            theta * b.size, theta * b.size)
        report["atom_count_interval"] = [int(lo), int(hi)]
        if not (lo <= atoms.sum() <= hi):
            report["flag"] = "atom-fraction-outside-interval"
    if "flag" in report:
        reasons.append(report["flag"])
    if chain is not None and not chain["chain_ok"]:
        reasons.append("chain diagnostics failed")
    return {"norm_law_report.json": report}, reasons


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
        with warnings.catch_warnings():
            # numpy warns, and returns an empty array, on a header-only file
            warnings.simplefilter("error", UserWarning)
            if cfg.get("atoms_csv"):
                data = np.loadtxt(cfg["atoms_csv"], delimiter=",",
                                  skiprows=1, ndmin=1)
                if data.ndim != 1:
                    raise ValueError("an atoms CSV has one column")
                return MeasureRep.from_atoms(data)
            if cfg.get("grid_csv"):
                x, density = np.loadtxt(cfg["grid_csv"], delimiter=",",
                                        skiprows=1, ndmin=2).T
                return MeasureRep.from_grid(x, density)
    except (ValueError, UserWarning) as exc:
        raise ParameterError(f"unreadable measure CSV: {exc}") from None
    return _FAMILIES[cfg["analytic"]](cfg)


def cmd_rate(cfg):
    spec = rates.RateFnSpec(target=cfg["target"], p=cfg["p"],
                            beta=cfg["beta"], alpha=cfg["alpha"],
                            ktheta=cfg["ktheta"], c=cfg["c"])
    outputs = {}
    report = {"target": spec.target, "p": spec.p, "beta": spec.beta,
              "alpha": spec.alpha, "ktheta": spec.ktheta, "c": spec.c}
    if spec.kind == "beta" and "x" not in cfg:
        xs = np.linspace(cfg["x_min"], cfg["x_max"], cfg["x_steps"])
        rows = [(x, rates.rate_beta(float(x), spec)) for x in xs]
        outputs["rate_scan.csv"] = (["x", "rate"], rows)
        # the first smallest finite value; the first row if none is
        # finite (rate_beta never returns nan)
        xmin, vmin = min(rows, key=lambda r: r[1])
        report["min_x"] = float(xmin)
        report["min_value"] = float(vmin)
    else:
        report.update(rates.rate(spec, _measure_from(cfg), cfg.get("x")))
    outputs["rate_report.json"] = report
    return outputs, []


# --- ldp-verify ---------------------------------------------------------------

def cmd_ldp_verify(cfg):
    from scipy.special import betainc

    p, bcut, alpha_rate = cfg["p"], cfg["event_b"], cfg["alpha_rate"]
    if not 0.0 < bcut <= 1.0:
        raise ParameterError(f"--event-b must lie in (0, 1], got {bcut!r}")
    if alpha_rate <= 0.0:
        raise ParameterError(f"--alpha-rate must be > 0, got {alpha_rate!r}")
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
        # finite where prob underflows to 0
        log_prob = beta_log_cdf(bcut, n / p, alpha_n)
        decay = -log_prob / n
        freq = ""
        censored = 0
        if cfg["monte_carlo"]:
            count = cfg["count"]
            b = norm_split_B(n, p, 0.0, RadialLawW(alpha=alpha_n), sub,
                             size=count)
            hits = int(np.sum(b <= bcut))
            if hits == 0:
                freq = 3.0 / count  # rule-of-three upper bound
                censored = 1
            else:
                freq = hits / count
        rows.append((n, prob, log_prob, decay, freq, censored, rate_inf,
                     decay - rate_inf))
    gaps = [r[-1] for r in rows]
    outputs = {
        "ldp_decay.csv": (["n", "prob_exact", "log_prob_exact",
                           "neg_log_prob_over_n", "freq_mc", "censored",
                           "rate_infimum", "gap"], rows),
        "ldp_report.json": {"rate_infimum": rate_inf, "gap_final": gaps[-1],
                            "gap_monotone_decreasing": all(
                                g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))}}
    return outputs, ([] if all(np.isfinite(gaps)) else
                     ["decay gap is not finite"])


# --- asymptotics ----------------------------------------------------------------

def cmd_asymptotics(cfg):
    ns = [int(s) for s in cfg["n_list"].split(",")]

    rows = []
    for n in ns:
        lap, est_l, lim_l = rates.laplace_check(
            lambda x: 1.0, lambda x: -(x - 0.3) ** 2, (0.0, 1.0), n, c=0.05)
        brt, est_b, lim_b = rates.breitung_check(
            lambda x: 1.0 + x, lambda x: -x - x * x, n, c=0.05)
        rows.append((n, lap, brt, est_l, lim_l, abs(est_l - lim_l),
                     est_b, lim_b, abs(est_b - lim_b)))
    return {"asymptotics.csv": (
        ["n", "laplace_ratio", "breitung_ratio", "adapted_laplace",
         "adapted_laplace_limit", "adapted_laplace_err", "adapted_breitung",
         "adapted_breitung_limit", "adapted_breitung_err"], rows)}, []


# --- norm-const ---------------------------------------------------------------

def cmd_norm_const(cfg):
    n, p, count, kind = cfg["n"], cfg["p"], cfg["count"], cfg["weight"]
    # --m is the exponent of the power weight, --beta of the others
    weight = WeightFn(kind, cfg["m"] if kind == "power" else cfg["beta"])
    log_c, se, ess = estimate_norm_const(n, p, weight, RngStream(cfg["seed"]),
                                         size=count)
    # below this many effective draws a few draws carry the estimate, and
    # se_log no longer measures its error
    floor = min(1000.0, count / 100.0)
    report = {"weight": weight.name, "n": n, "p": p,
              "log_norm_const": log_c, "se_log": se, "ess": ess,
              "ess_floor": floor}
    # a weight that vanished on every draw gives ess 0, and one draw, which
    # has no spread, gives nan: neither passes
    return {"norm_const.json": report}, (
        [] if ess >= floor else
        [f"importance ess {ess:.3g} below floor {floor:g}"])


# --- parser -------------------------------------------------------------------

# rows that several tables share, so that each default is written once.
# rate and asymptotics draw nothing, so they take no --count; they keep
# --seed because the benchmark (pradbench's cli_op) appends it to every
# CLI call it makes
_SEED = Param("seed", int, default=20240801)
_COMMON = (_SEED, Param("count", _positive_int, default=10000))
_P = Param("p", default=2.0)
_BETA = Param("beta", default=2.0)
_THETA = Param("theta", default=0.0)
_ALPHA = Param("alpha", default=1.0)

# recorded in every manifest: bump it when a recorded default changes
DEFAULTS_VERSION = 1

# subcommand -> (help, handler, parameter table); the flags follow the
# table's order, then --out and --config.  handler(cfg) returns (outputs,
# reasons), which main writes and words; see the module docstring
COMMANDS = {
    "sample": ("draw from one of the ball laws", cmd_sample, (
        Param("target", str, choices=tuple(_TARGETS), required=True),
        Param("n", _positive_int, required=True),
        _P, _BETA, _THETA, _ALPHA,
        Param("orthant", bool, default=False)) + _COMMON),
    "test-norm-law": ("KS/atom test of the norm-split statistic",
                      cmd_test_norm_law, (
        Param("target", str, choices=("euclid", "eigen-PH", "singular-PM"),
              required=True),
        Param("n", _positive_int, required=True),
        _P, Param("m", fallback=0.0), _BETA, _THETA, _ALPHA,
        Param("ks_pvalue_threshold", default=0.01)) + _COMMON),
    "rate": ("evaluate a rate function", cmd_rate, (
        Param("target", str, choices=rates.TARGETS, required=True),
        _P, _BETA, _ALPHA,
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
        Param("event_b", default=0.1), _P,
        Param("alpha_rate", default=1.0),
        Param("n_list", _n_list, fallback="20,40,80"),
        Param("monte_carlo", bool, default=False)) + _COMMON),
    "asymptotics": ("Laplace / boundary-Laplace ratio table",
                    cmd_asymptotics, (
        Param("n_list", _n_list, fallback="50,100,200,400"), _SEED)),
    "norm-const": ("normalization constant of a weighted density",
                   cmd_norm_const, (
        Param("weight", str, choices=KINDS, default="one"),
        _BETA, Param("m", fallback=1.0),
        Param("n", _positive_int, required=True), _P) + _COMMON),
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared
    by later ones (parsing does not change it); not at import, which each
    command-line call pays for."""
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
        outputs, reasons = handler(cfg)
        out = Path(args.out or os.environ.get("PRADIAL_OUTPUT_ROOT",
                                              "pradial-out"))
        out.mkdir(parents=True, exist_ok=True)
        for name, content in outputs.items():
            if name.endswith(".csv"):
                write_csv(out / name, *content)
            else:
                write_json(out / name, content)
        write_json(out / "manifest.json", {
            "artifact": "pradial", "artifact_version": __version__,
            "defaults_version": DEFAULTS_VERSION,
            "command": args.command, "config": cfg, "outputs": list(outputs),
            "threshold_overridden": overridden})
    except (ParameterError, OSError) as exc:
        # OSError: a missing or unreadable --config, --atoms-csv,
        # --grid-csv or --out
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    if not reasons:
        return EXIT_OK
    print("; ".join(reasons) + "; outputs retained", file=sys.stderr)
    return EXIT_STAT


if __name__ == "__main__":
    sys.exit(main())

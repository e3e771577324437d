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
from .rng import RngStream, _row_blocks, _run_blocks
from .weights import KINDS, WeightFn
from . import rates

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STAT = 3

# the most CSV workers: each holds 6.3 MB of scratch, and two format at
# 1.4-1.7 times one's speed under the interpreter lock
_CSV_WORKERS = 2


def _format_block(block, scratch):
    """The CSV text of a block of rows as bytes: a float array's in
    scratch (see _float_text), any other rows' through format."""
    if isinstance(block, np.ndarray) and block.dtype.kind == "f" and block.size:
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
_SLOTS = 12                 # scratch floats a cell: four of slot, four of text


@functools.lru_cache(maxsize=None)
def _text_tables():
    """Built on first use: 10^(16-e) as hi + lo from Python ints; the head
    words and 8 times their lengths; by decpt + 399 the class's first head,
    the tails and their lengths; by R the zero digits after R; the ASCII
    of 0..9999 as a word's low or high half."""
    hi, lo = [], []
    for s in range(16 - _E_MIN, 15 - _E_MAX, -1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi.append(num / den)  # correctly rounded, as is every int / int
        h_num, h_den = hi[-1].as_integer_ratio()
        lo.append((num * h_den - h_num * den) / (den * h_den))
    # class c: 0-3 "0." and c zeros (decpt = -c), 4 decpt 1, 5 decpt 2..16
    # (its point goes in later), 6 an exponent; then digit 0 and its point
    point = {4: (b".", b".0"), 5: (b"", b""), 6: (b".", b"")}
    heads = np.array([b"-"[:neg] + (b"0." + b"0" * c + b"%d" % d if c < 4 else
                                    b"%d" % d + point[c][one])
                      for c, one, neg, d in np.ndindex(7, 2, 2, 10)], "S8")
    dp = np.arange(-399, 401)
    cls = np.select([dp > 16, dp > 1, dp > 0, dp > -4], [6, 5, 4, -dp], 6)
    tails = np.array([b"," if c < 6 else b"e%+03d," % (i - 1)
                      for i, c in zip(dp.tolist(), cls.tolist())], "S8")
    zeros = np.array([b"0" * min(8, 16 - r) for r in range(17)], "S8")
    four = np.char.zfill(np.arange(10 ** 4).astype("S4"), 4).view(np.uint32)
    four = [np.left_shift(four, s, dtype=np.uint64) for s in (0, 32)]
    return (np.array(hi), np.array(lo), heads.view(np.uint64),
            8 * np.char.str_len(heads).astype(np.uint64), cls * 40,
            tails.view(np.uint64), np.char.str_len(tails),
            zeros.view(np.uint64), four)


def _scale(a, e, out):
    """a 10^(16-e) as an integer N plus a fraction f in [0, 1), with
    10^(16-e) itself: (N, f, hi), rows 0-2 of out, eight float rows of
    a's size, of which the other five are workspace."""
    pow_hi, pow_lo = _text_tables()[:2]
    t, f, hi, p, ah, al, bh, bl = out
    i = np.subtract(e, _E_MIN, out=t.view(np.int64))  # e's table row
    np.take(pow_hi, i, out=hi, mode="clip")
    np.take(pow_lo, i, out=f, mode="clip")  # lo until f
    np.multiply(a, hi, out=p)
    for v, vh, vl in ((a, ah, al), (hi, bh, bl)):  # Veltkamp: c = 134217729 v
        np.multiply(v, 134217729.0, out=vh)
        np.subtract(vh, v, out=vl)    # c - v
        np.subtract(vh, vl, out=vh)   # c - (c - v)
        np.subtract(v, vh, out=vl)
    # t = ((ah bh - p) + ah bl + al bh) + al bl + a lo, a term at a time
    np.multiply(ah, bh, out=t)
    t -= p
    for x, y in ((ah, bl), (bh, al), (al, bl), (f, a)):
        x *= y
        t += x
    np.subtract(t, np.floor(t, out=ah), out=f)
    N, ft = t.view(np.int64), al.view(np.int64)
    np.copyto(N, p, casting="unsafe")
    np.copyto(ft, ah, casting="unsafe")
    N += ft
    return N, f, hi


def _repr_cells(values):
    """The fallback: repr of each value and a comma, as the four words of a
    slot, and the lengths."""
    text = np.array([repr(v).encode() + b"," for v in values.tolist()], "S32")
    return text.view(np.uint64).reshape(-1, 4).T, np.char.str_len(text)


def _float_text(block, scratch):
    """The CSV text of a 2-D float block, each cell ``repr(float(v))``, as
    uint8 in scratch, _SLOTS rows of a float a cell, which hold every
    block-sized array it makes.  Until the digits are known, _scale works
    in 0-5 and 10; 6 holds v, 7 the bools, eight to a slot, 8 e, 9 N and
    then m, 10 R = k - 1, 11 |v|, then tmp.  Then each cell's text is laid
    out in a slot of four words in 0-3 and copied a word at a time to 6-9."""
    heads, shifts, row, tails, tlen, zeros, four = _text_tables()[2:]
    rows, cols = block.shape
    s = scratch[:_SLOTS * block.size].reshape(_SLOTS, -1)
    v, a, tmp = s[6], s[11], s[11]
    fast, sure, up100, up10, in100, in10, x, y = \
        s[7].view(np.bool_).reshape(8, -1)
    e, k = s[8].view(np.int64), s[10].view(np.int64)
    np.copyto(v.reshape(rows, cols), block)
    np.abs(v, out=a)
    mant = np.frexp(a, out=(s[0], s[1].view(np.int32)[:v.size]))[0]
    np.not_equal(mant, 0.5, out=fast)
    fast &= np.greater(a, 1e-280, out=x)
    fast &= np.less(a, 1e280, out=x)
    # repr writes the other cells; 1.0 stands in for them until it does
    np.copyto(a, 1.0, where=np.logical_not(fast, out=x))
    np.copyto(e, np.floor(np.log10(a, out=s[0]), out=s[0]), casting="unsafe")
    N, f, hi = _scale(a, e, [s[j] for j in (9, 0, 1, 2, 3, 4, 5, 10)])
    # log10 may misplace X by one decade next to a power of ten
    np.less(N, 10 ** 16, out=x)
    x |= np.greater_equal(N, 10 ** 17, out=y)
    off = np.flatnonzero(x)
    e[off] += np.where(N[off] < 10 ** 16, -1, 1)
    N[off], f[off], hi[off] = _scale(a[off], e[off], np.empty((8, off.size)))
    ex = np.frexp(a, out=(s[3], s[2].view(np.int32)[:v.size]))[1]
    h = np.ldexp(hi, np.subtract(ex, 54, out=ex), out=hi)
    # the nearest multiples of 100 and 10: at most one multiple of 100 fits
    # in the interval, and when one does, its trailing zeros set j
    r100, r10, d100, d10 = s[2].view(np.int64), s[3].view(np.int64), s[4], s[5]
    for r, q, unit in ((r100, N, 100), (r10, r100, 10)):
        np.floor_divide(q, unit, out=r)
        r *= unit
        np.subtract(q, r, out=r)
    for r, d, up, half in ((r100, d100, up100, 50), (r10, d10, up10, 5)):
        np.greater(np.add(r, f, out=d), half, out=up)  # d is lo100, lo10

    def far(z, mid):  # sure &= |z - mid| > _MARGIN
        np.abs(np.subtract(z, mid, out=tmp), out=tmp)
        np.logical_and(sure, np.greater(tmp, _MARGIN, out=x), out=sure)

    np.copyto(sure, fast)
    far(d10, 5)
    far(f, 0.5)
    for d, unit, inside in ((d100, 100, in100), (d10, 10, in10)):
        np.subtract(unit, d, out=tmp)
        np.minimum(d, tmp, out=d)
        far(d, h)
        np.less(d, h, out=inside)
    # m: the multiple of 100 or 10 in the interval, else X rounded
    np.greater(f, 0.5, out=x)
    for r, unit, up in ((r100, 100, up100), (r10, 10, up10)):
        np.subtract(N, r, out=r)
        r += np.multiply(up, unit, out=k)
    m = N
    m += x
    for r, inside in ((r10, in10), (r100, in100)):  # m = where(inside, r, m)
        r -= m
        m += np.multiply(r, inside, out=r)
    top = np.equal(m, 10 ** 17, out=y)
    np.copyto(m, 10 ** 16, where=top)
    # R = k - 1, k significant digits: 17, 16, or 17 less m's trailing zeros
    R = np.subtract(16, in10, out=k)
    w = np.flatnonzero(in100)
    q, R[w] = m[w] // 100, 14
    while w.size:
        w, q = w[q % 10 == 0], q[q % 10 == 0] // 10
        R[w] -= 1
    decpt = np.add(e, top, out=e)
    decpt += 400  # e + 1 + top, + 399 as the tables take it
    # each cell's text left-aligned in four words (slots 0-3): its head, its
    # digits 1-16 shifted past the head, and over those past R, its tail
    W, hix, t = s[:4].view(np.uint64), s[5].view(np.int64), s[11].view(np.int64)
    np.take(row, decpt, out=hix, mode="clip")
    mid = np.flatnonzero(np.equal(hix, 200, out=x))  # 10 <= |v| < 1e16
    hix += np.multiply(np.equal(R, 0, out=x), 20, out=t)
    hix += np.multiply(np.less(v, 0, out=x), 10, out=t)
    hix += np.floor_divide(m, 10 ** 16, out=t)  # digit 0
    m -= np.multiply(t, 10 ** 16, out=t)
    R[mid] = np.maximum(R[mid], decpt[mid] - 399)  # the point goes in later
    sh = np.take(shifts, hix, out=s[4].view(np.uint64), mode="clip")  # 8 H
    np.take(heads, hix, out=W[0], mode="clip")
    np.floor_divide(m, 10 ** 8, out=hix)  # digits 1-8 to W1, 9-16 to W2
    m -= np.multiply(hix, 10 ** 8, out=t)
    for q, out in ((hix, W[1]), (m, W[2])):
        np.floor_divide(q, 10 ** 4, out=t)
        q -= np.multiply(t, 10 ** 4, out=W[3].view(np.int64))
        np.take(four[0], t, out=out, mode="clip")
        out |= np.take(four[1], q, out=W[3], mode="clip")
    back = np.subtract(64, sh, out=hix.view(np.uint64))
    for j in (1, 2):
        W[j - 1] |= np.left_shift(W[j], sh, out=W[3])
        np.right_shift(W[j], back, out=W[j])
    # T, the tail, is XOR-ed over the zeros at byte q = H + R: word j gets T
    # << 8q - 64j and T >> 1 >> 64j - 8q - 1, a count outside 0-63 giving 0
    T = np.take(tails, decpt, out=m.view(np.uint64), mode="clip")
    T ^= np.take(zeros, R, out=W[3], mode="clip")
    q = np.add(np.right_shift(sh, 3, out=sh).view(np.int64), R, out=R)
    up, down = np.multiply(q, 8, out=sh.view(np.int64)), hix
    T1 = np.right_shift(T, 1, out=W[3])
    for j in range(3):  # up = 8 q - 64 j
        W[j] ^= np.left_shift(T, up.view(np.uint64), out=t.view(np.uint64))
        np.subtract(-1, up, out=down)
        W[j] ^= np.right_shift(T1, down.view(np.uint64), out=t.view(np.uint64))
        up -= 64
    np.right_shift(T1, np.subtract(-1, up, out=down).view(np.uint64), out=T1)
    L = np.add(q, np.take(tlen, decpt, out=t, mode="clip"), out=q)
    if mid.size:  # a point at byte sign + decpt, and the bytes after it
        at, carry = 8 * ((v[mid] < 0) + decpt[mid] - 399), np.uint64(0)
        for j in range(3):  # at counts the bits of word j from the point
            w, high = W[j][mid], [~np.uint64(0) << np.clip(
                at + b, 0, 64).astype(np.uint64) for b in (0, 8)]
            W[j][mid] = (w & ~high[0] | (w << np.uint64(8) | carry) & high[1]
                         | np.left_shift(np.uint64(46), at.view(np.uint64)))
            carry, at = w >> np.uint64(56), at - 64
        L[mid] += 1
    slow = np.flatnonzero(np.logical_not(sure, out=x))
    W[:, slow], L[slow] = _repr_cells(v[slow])
    # word j of a slot goes to byte o + 8 j of the text (slots 6-9), o =
    # cumsum(L) - L, for j = 3 (L > 24), 2, 1, 0: each copy writes over what
    # the ones before it wrote past their cells' ends.  Copies of one numpy
    # assignment, whose order is not given, overlap only after a cell under
    # 8 bytes (every cell has 4 or more, "0.0,"), so all its words go to o,
    # and then its text and the next cell's head again, 4 bytes at a time.
    short = np.flatnonzero(np.less(L, 8, out=x))
    big = np.flatnonzero(np.greater(L, 24, out=x))
    Ls, step = L[short], np.multiply(np.greater_equal(L, 8, out=x), 8, out=t)
    ends, o, at = np.cumsum(L, out=L), s[4].view(np.int64), hix
    o[:1], o[1:] = 0, ends[:-1]
    text = s[6:10].view(np.uint8).reshape(-1)
    u64, u32 = (np.lib.stride_tricks.as_strided(
        text.view(d), (text.size - 7,), (1,)) for d in (np.uint64, np.uint32))
    u64[o[big] + 24] = W[3][big]
    np.add(o, np.multiply(step, 2, out=at), out=at)
    for j in (2, 1, 0):
        u64[at] = W[j]
        at -= step
    head = np.concatenate((short, short[short < o.size - 1] + 1))
    u32[o[head]] = W[0][head]
    u32[o[short] + Ls - 4] = W[0][short] >> (8 * Ls - 32).view(np.uint64)
    text[ends.reshape(rows, cols)[:, -1] - 1] = ord("\n")
    return text[:ends[-1]]


def write_csv(path: Path, header, rows):
    """Write a header and rows (an array or a list of tuples) as CSV.

    Cells are numbers or strings free of commas, quotes and newlines, so
    no cell needs quoting.  A float cell, Python or numpy, is the ``repr``
    of its value widened to a Python float: the shortest text that reads
    back to the same bits.  Rows go out in the blocks of rng._row_blocks,
    one write per block.  A float array's block is formatted in numpy by
    ``_float_text``, which leaves to ``repr`` only the cells it cannot
    settle with certainty; other rows, an integer or bool array's too, go
    through the builtin ``format``, which gives a numpy scalar the text of
    its Python scalar, whatever numpy's print options.

    Formatting costs more than the exact draws it writes, so the blocks go
    to rng._run_blocks, one thread per CPU up to _CSV_WORKERS; a table of
    one block stays on the calling thread, where it leaves no second malloc
    arena.  A worker formats each of its blocks in its runner scratch and
    writes the bytes once the blocks before it are written, so the file is
    that of a serial loop; a failed worker wakes every waiting one.
    """
    jobs = list(enumerate(_row_blocks(len(rows), len(header))))
    # a float block's slots; other rows need none
    size = (jobs[0][1].stop * len(header) * _SLOTS
            if isinstance(rows, np.ndarray) and rows.dtype.kind == "f" else 0)
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
        _run_blocks(jobs, run, size, _CSV_WORKERS)


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
    if isinstance(o, np.generic):  # a numpy bool or integer
        return o.item()
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
            # stats.kstest's D and exact p from one sort; nan if a B is nan
            n, u = cont.size, betainc(shape, alpha, np.sort(cont))
            plus = (np.arange(1.0, n + 1) / n - u).max()
            minus = (u - np.arange(n) / n).max()
            d = plus if plus > minus else minus
            p = np.clip(stats.kstwo.sf(d, n), 0.0, 1.0)
            report["ks_statistic"], report["p_value"] = float(d), float(p)
            threshold = cfg["ks_pvalue_threshold"]
            if p <= threshold:
                reasons.append(f"KS p-value {p:.3g} <= threshold {threshold}")
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

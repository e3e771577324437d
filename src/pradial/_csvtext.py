"""The CSV text of a block of rows, which cli.write_csv writes.

_format_block alone tells a float array, formatted in numpy in the
caller's scratch of _SLOTS floats a cell, from other rows, formatted by
format.  Every name is private: it runs on rng._run_blocks threads,
where a public function would share the tracer's span stack.
"""

import functools

import numpy as np


def _format_block(block, scratch):
    """The CSV text of a block of rows as bytes: a float array's in
    scratch (see _float_text), any other rows' through format."""
    if isinstance(block, np.ndarray) and block.dtype.kind == "f" and block.size:
        return _float_text(block, scratch)
    return "".join([",".join(map(format, r)) + "\n" for r in block]).encode()


# --- shortest round-trip text of float cells, in numpy --------------------------
#
# |x| in (1e-280, 10) is scaled to X = |x| 10^(16-e) in [1e16, 1e17) in
# double-double arithmetic (Dekker's exact product, 10^s held as hi + lo).
# The decimal strings that read back to x lie in X +- h, h = ulp(x)/2
# 10^(16-e) in (0.55, 11.1), and repr writes the multiple of the largest
# 10^j nearest to X inside it.  repr itself, the one fallback, writes powers
# of two (an asymmetric interval), other |x|, any X that log10 put in the
# wrong decade and any X within _MARGIN of an interval end or a tie.

_E_MIN, _E_MAX = -290, 1    # decimal exponents of the 10^(16-e) table
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
    # class c: 0-3 "0." and c zeros (decpt = -c), 4 decpt 1, 5 an exponent;
    # then digit 0 and its point
    point = {4: (b".", b".0"), 5: (b".", b"")}
    heads = np.array([b"-"[:neg] + (b"0." + b"0" * c + b"%d" % d if c < 4 else
                                    b"%d" % d + point[c][one])
                      for c, one, neg, d in np.ndindex(6, 2, 2, 10)], "S8")
    dp = np.arange(-399, 401)
    cls = np.select([dp > 0, dp > -4], [4, -dp], 5)
    tails = np.array([b"," if c < 5 else b"e%+03d," % (i - 1)
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
    block-sized array it makes.  One pass settles the cells in (1e-280, 10)
    and repr the rest.  Until the digits are known, _scale works in 0-5 and
    10; 6 holds v, 7 the bools, eight to a slot, 8 e, 9 N and then m, 10
    R = k - 1, 11 |v|, then tmp.  Then each cell's text is laid out in a
    slot of four words in 0-3 and copied a word at a time to 6-9."""
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
    fast &= np.less(a, 10.0, out=x)
    # repr writes the other cells; 1.0 stands in for them until it does
    np.copyto(a, 1.0, where=np.logical_not(fast, out=x))
    np.copyto(e, np.floor(np.log10(a, out=s[0]), out=s[0]), casting="unsafe")
    N, f, hi = _scale(a, e, [s[j] for j in (9, 0, 1, 2, 3, 4, 5, 10)])
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
    sure &= np.greater_equal(N, 10 ** 16, out=x)  # log10 may misplace X by a
    sure &= np.less(N, 10 ** 17, out=x)           # decade next to 10^j
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
    hix += np.multiply(np.equal(R, 0, out=x), 20, out=t)
    hix += np.multiply(np.less(v, 0, out=x), 10, out=t)
    hix += np.floor_divide(m, 10 ** 16, out=t)  # digit 0
    m -= np.multiply(t, 10 ** 16, out=t)
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

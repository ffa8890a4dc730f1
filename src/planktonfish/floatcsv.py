"""CSV rows of floats, each field the bytes that ``'%.17g' % v`` gives.

``write_float_rows`` writes ``trajectory.csv`` and ``verification.csv``:
a header, then 2-D float blocks as CRLF rows.  A numpy kernel formats the
values a pass at a time, at most ``_PASS_VALUES`` of them, in buffers made
once per file.  ``'%.17g' % v`` itself formats only the values whose
digits the kernel cannot prove: nan, +-inf, |v| outside [1e-250, 1e250]
(so every subnormal), values within the guard of a rounding tie and the
few values, next to a power of ten, whose decade log10 misjudges.

Digits.  For a = |v| take E = floor(log10 a) and k = 16 - E, so that
D = a 10^k lies in [1e16, 1e17) unless log10 is off by one.  A table
holds 10^k as the double-double hi + lo, hi = fl(10^k) and lo = fl(10^k -
hi), computed from Python ints, whose true division is correctly rounded.
Dekker's product (Numer. Math. 18, 1971) splits a and hi into 26-bit
halves and gives p + e = a hi exactly; then c = fl(a lo), s = fl(e + c)
and the two-sum q + r = p + s.  With u = 2^-53 the error is bounded term
by term: |10^k - hi - lo| <= u^2 10^k, |c - a lo| <= u^2 D and the
rounding of s loses at most 2 u^2 D, so |q + r - D| <= 4 u^2 D < 5e-15.
Since q > 2^53 is an integer, F = q + floor(r) is floor(D) and
r - floor(r) is D's fraction, both to within 1e-14.  The digits are
proven when 1e16 <= F and D's fraction lies more than the guard, 1e-9,
from 1/2, so that rounding half to even to N is certain, and N < 1e17.  (A
D within 1e-14 of 1e16 has the same 17 digits in both decades.  N = 1e17
would carry into the next decade; it needs a below a power of ten 10^n by
less than 5e-18 of it.  No double lies that close below 1, and for n != 0
a faithful log10 returns n itself, so F < 1e16.)  Otherwise, as when
log10 is off by one or for the exact tie 1234567890123456.25, the value
falls back to '%.17g'.  The digits are those of N, and X = E.

Text.  '%.17g' writes fixed notation when -4 <= X < 17 and d.ddd e+-XX
otherwise, with trailing zeros and a bare point removed.  Each value gets
a 32-byte cell whose unused bytes are NUL; a pass's cells are written out
with the NULs deleted.  Bytes 0-5 hold the sign and, for X < 0 in fixed
notation, "0." and -X - 1 zeros (for +-0, "0" and no digits).  Bytes
6-23 hold the 18 digits of M = N + (9 I + 1) 10^(17 - q), where
I = N // 10^(17 - q): N with a digit 1 inserted after its first q digits,
q = X + 1 in fixed notation (0 when X < 0) and 1 in exponent form.  The
first two digits come from a table of 100 two-byte entries and the rest
four at a time from a table of 10^4 four-byte entries, each table or,
when every later group is zero, its companion, whose trailing zeros are
NUL.  The inserted 1 keeps the integer part out of that run of zeros; it
then becomes the point when a digit follows it and NUL otherwise.  Bytes
24-31 hold the exponent, if any, and the separator: "," or, after a row's
last field, CRLF.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

_PASS_VALUES = 4096  # floats per kernel pass; sizes the pass buffers
_LIMITS = (1e-250, 1e250)  # |v| the kernel formats
_GUARD = 1e-9  # least distance of D's fraction from 1/2
_K_MIN, _K_MAX = -240, 270  # 10^k table rows
_X_MIN, _X_MAX = -260, 260  # decimal exponent table rows
_ZERO, _FALLBACK = _X_MAX - _X_MIN + 1, _X_MAX - _X_MIN + 2  # their rows
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for doubles


def write_float_rows(path, header, blocks):
    """Write a header, then each 2-D float block's rows (CRLF, %.17g)."""
    kernel = _Pass(len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for rows in blocks:
            for s in range(0, rows.shape[0], kernel.rows):
                fh.write(kernel(rows[s:s + kernel.rows]))


def _percent_g(v: float) -> bytes:
    """The per-value fallback: ``'%.17g' % v``."""
    return b"%.17g" % v


def _digit_table(width: int, dtype) -> np.ndarray:
    """The ASCII digits of 0 .. 10^width - 1, then the same with trailing
    zeros NUL, one ``dtype`` word each."""
    i = np.arange(10 ** width, dtype=np.uint16)
    d = np.empty((2, i.size, width), dtype=np.uint8)
    for j in range(width):
        d[0, :, width - 1 - j] = i // 10 ** j % 10 + 48
    d[1] = d[0]
    d[1][np.logical_and.accumulate(d[0, :, ::-1] == 48, axis=1)[:, ::-1]] = 0
    return d.view(dtype).ravel()


def _words(texts) -> np.ndarray:
    """Byte strings of at most 8 bytes as NUL-padded 8-byte words."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), np.uint64)


@functools.cache
def _tables() -> SimpleNamespace:
    """Powers of ten and the per-exponent tables, built on first use."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            h = float(10 ** k)
            hi.append(h)
            lo.append(float(10 ** k - int(h)))
        else:
            d = 10 ** -k
            h = 1 / d
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * d) / (d * den))
    hi = np.array(hi)
    c = _SPLIT * hi
    hh = c - (c - hi)
    xs = range(_X_MIN, _X_MAX + 1)
    # per exponent row, then the zero row and the fallback row
    q = [min(max(x + 1, 0), 17) if -4 <= x < 17 else 1 for x in xs]
    prefix = [b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"" for x in xs]
    exponent = [b"" if -4 <= x < 17 else b"e%+03d" % x for x in xs]
    return SimpleNamespace(
        hi=hi, lo=np.array(lo), hh=hh, hl=hi - hh,
        # 10^(17 - q) for the inserted digit's position q
        shift=10 ** np.arange(17, -1, -1, dtype=np.int64),
        q=np.array(q + [0, 0]),
        sign=_words([b"", b"-"]),  # cell bytes 0-7
        prefix=_words(b"\0" + s for s in prefix + [b"0", b""]),
        exponent=_words(exponent + [b"", b""]))  # cell bytes 24-31


class _Pass:
    """Formats up to ``rows`` rows of ``cols`` floats into reused buffers."""

    def __init__(self, cols: int):
        self.rows = max(1, _PASS_VALUES // cols)
        n = self.rows * cols
        self.text = bytearray(32 * n)
        self.cells = np.frombuffer(self.text, np.uint8).reshape(n, 32)
        # cell bytes 29-30: the separator
        self.separator = np.tile(
            _words([b"\0" * 5 + b","] * (cols - 1) + [b"\0" * 5 + b"\r\n"]),
            self.rows)
        self.digits_at = np.arange(6, 32 * n, 32)
        # built per file, not cached with _tables(): 80 kB that would
        # otherwise stay resident for the rest of the process
        self.digit4 = _digit_table(4, np.uint32)
        self.digit2 = _digit_table(2, np.uint16)
        # float and int64 views of one pool of eight rows: the int names
        # F, N, row, M, spare, g and h take over the rows of a, ah, al, p,
        # e, w and x once these are dead; k (the 10^k row, then E, then q)
        # has the last row to itself
        self.pool = np.empty((8, n))

    def __call__(self, rows) -> bytearray:
        t = _tables()
        v = np.ascontiguousarray(rows, dtype=float).ravel()
        m = v.size
        a, ah, al, p, e, w, x, _ = self.pool[:, :m]
        F, N, row, M, spare, g, h, k = self.pool[:, :m].view(np.int64)
        # D = a 10^k = q + r, Dekker's product with one rounding after it
        np.abs(v, out=a)
        zero = a == 0.0
        ok = (a >= _LIMITS[0]) & (a <= _LIMITS[1])
        np.copyto(a, 1.0, where=~ok)
        np.floor(np.log10(a, out=w), out=w)  # E
        np.copyto(k, np.subtract(16 - _K_MIN, w, out=w), casting="unsafe")
        np.multiply(a, _SPLIT, out=ah)
        np.subtract(ah, a, out=al)
        np.subtract(ah, al, out=ah)
        np.subtract(a, ah, out=al)
        np.multiply(a, t.hi.take(k, out=w), out=p)
        t.hh.take(k, out=w)
        t.hl.take(k, out=x)
        np.multiply(ah, w, out=e)
        e -= p
        np.multiply(ah, x, out=ah)
        np.multiply(al, w, out=w)
        np.multiply(al, x, out=x)
        e += ah
        e += w
        e += x  # a hi - p, exactly
        np.multiply(a, t.lo.take(k, out=w), out=w)
        e += w  # s
        np.add(p, e, out=x)  # q
        e -= np.subtract(x, p, out=w)  # r
        np.floor(e, out=w)
        e -= w  # D's fraction
        np.copyto(N, w, casting="unsafe")
        np.copyto(F, x, casting="unsafe")
        F += N  # floor(D)
        np.subtract(16 - _K_MIN, k, out=k)  # E
        ok &= np.abs(np.subtract(e, 0.5, out=w), out=w) > _GUARD
        # round half to even is now certain
        np.add(F, e > 0.5, out=N)
        ok &= (F >= 10 ** 16) & (N < 10 ** 17)
        np.subtract(k, _X_MIN, out=row)
        np.copyto(row, _ZERO, where=zero)
        fallback = ~(ok | zero)
        np.copyto(row, _FALLBACK, where=fallback)
        # cell text but the digits: sign, prefix, exponent and separator
        u16, u32, u64 = (self.cells[:m].view(d)
                         for d in (np.uint16, np.uint32, np.uint64))
        np.bitwise_or(t.sign.take(np.signbit(v)), t.prefix.take(row),
                      out=u64[:, 0])
        np.bitwise_or(t.exponent.take(row), self.separator[:m],
                      out=u64[:, 3])
        # M: N with a 1 inserted after its first q digits
        t.q.take(row, out=k)
        t.shift.take(k, out=F)
        np.floor_divide(N, F, out=M)  # integer part
        point = np.multiply(M, F, out=g) != N
        point &= k > 0
        M *= 9
        M += 1
        M *= F
        M += N
        np.copyto(M, 0, where=zero)
        # its digits: the top two, then four groups of four in rows 3-6
        np.floor_divide(M, 10 ** 8, out=F)
        np.subtract(M, np.multiply(F, 10 ** 8, out=N), out=row)
        np.floor_divide(F, 10 ** 8, out=N)  # top
        F -= np.multiply(N, 10 ** 8, out=spare)
        np.floor_divide(F, 10 ** 4, out=M)
        np.subtract(F, np.multiply(M, 10 ** 4, out=g), out=spare)
        np.floor_divide(row, 10 ** 4, out=g)
        np.subtract(row, np.multiply(g, 10 ** 4, out=F), out=h)
        groups = self.pool[3:7, :m].view(np.int64)
        zeros = groups == 0
        later = np.empty_like(zeros)  # every later group is zero
        later[3] = True
        later[2] = zeros[3]
        np.logical_and(later[2], zeros[2], out=later[1])
        np.logical_and(later[1], zeros[1], out=later[0])
        groups += later * np.uint16(10 ** 4)
        for col, digits in enumerate(self.digit4.take(groups), 2):
            u32[:, col] = digits
        N += (later[0] & zeros[0]) * np.uint8(100)
        u16[:, 3] = self.digit2.take(N)
        self.cells.reshape(-1)[self.digits_at[:m] + k] = point * np.uint8(46)
        for i in np.flatnonzero(fallback):
            self.cells[i, :24] = np.frombuffer(
                _percent_g(v[i].item()).ljust(24, b"\0"), np.uint8)
        if m < self.cells.shape[0]:
            self.cells[m:] = 0
        return self.text.translate(None, b"\0")

"""Decimal text of floats: the numbers of the CSV and the SVG, in ``%``'s bytes,
from exact arithmetic (Dekker's two-product: Numer. Math. 18, 224, 1971)."""

import numpy as np

_POW10 = np.array([float(10**k) for k in range(17)])  # exact


def _rounded(x: np.ndarray, g: bool):
    """(integer part, first nf fraction digits as one integer, nf, mask of
    the values in fixed notation) of ``"%.12g" % v`` (g) or ``"%.2f" % v``
    for each float v of x, exact integers held as floats.  An exact power of
    ten scales |v| with one rounding; a product on a half goes by the sign
    of its exact error (Dekker's two-product, Veltkamp's split), a true tie
    to even.  log10 only estimates the exponent; exact comparisons settle
    it, so the digits depend on v's bits alone."""
    a = np.abs(x)
    ok = np.isfinite(a) if g else a < 1e11
    a[~ok] = 0.0
    if g:  # 10**(11 - e) scales |v| into [1e11, 1e12)
        e = np.clip(np.floor(np.log10(a + (a == 0.0))), -5, 11).astype(np.intp)
        s = a * _POW10[11 - e]
        e = np.clip(e - (s < 1e11) + (s >= 1e12), -5, 11)
    else:  # %f scales by 100: %g's arithmetic at e = 9
        e = np.full(x.shape, 9)
    p = _POW10[11 - e]
    s = a * p
    m = np.rint(s)
    tie = s - np.floor(s) == 0.5
    if tie.any():
        at, pt, st = a[tie], p[tie], s[tie]
        # Veltkamp's split: 2**27 + 1 cuts a float into two halves of 26 bits
        ah, ph = (134217729.0 * v - (134217729.0 * v - v) for v in (at, pt))
        err = ((ah * ph - st) + ah * (pt - ph) + (at - ah) * ph) + (at - ah) * (pt - ph)
        m[tie] = np.where(err == 0.0, m[tie], st + np.sign(err) * 0.5)
    if g:
        up = m == 1e12  # rounds up to the next power of ten
        e += up
        m[up] = 1e11
        zero = a == 0.0
        ok &= zero | ((s >= 1e11) & (s < 1e12) & (e >= -4) & (e <= 11))
        e[zero | ~ok] = 11
    m[~ok] = 0.0
    del a, s, p
    q = _POW10[11 - e]
    ip = np.floor(m / q)
    lo = int(e.min())  # >= -4: the fraction's digits reach down to 10**(lo - 11)
    m -= ip * q
    m *= _POW10[e - lo]
    return ip, m, 11 - lo, ok


def _decimal_text(block: np.ndarray, spec: str, end: str) -> str:
    """``spec % v`` ("%.12g" or "%.2f") for every float v of a non-empty 2-D
    block, "," between a row's values and ``end`` between rows, in the bytes
    of ``%``.  One row of NUL-initialised slots per value: sign, digits,
    point, digits, separator; one compress drops the NULs.  The rest
    (exponent notation, %f beyond 1e11, non-finite) comes from ``%``."""
    g = spec == "%.12g"
    x = block.ravel()
    ip, fr, nf, ok = _rounded(x, g)
    ni = len(str(int(ip.max())))
    text = np.array([spec % v for v in x[~ok].tolist()], dtype="S")
    width = max(ni + nf + 2, text.itemsize)
    t = np.zeros((width + 1, x.size), np.uint8)
    # the digits of the integer part and of the fraction, by uint32 // 10
    # chains of at most 9 digits, the last digit in the last slot
    for rows, v in ((t[1 : ni + 1], ip), (t[ni + 2 : ni + 2 + nf], fr)):
        for stop in range(len(rows), 0, -9):
            hi = np.floor(v / 1e9) if stop > 9 else 0.0
            c = (v - hi * 1e9).astype(np.uint32)
            v = hi
            for j in range(stop - 1, max(stop - 9, 0) - 1, -1):
                q = c // 10
                rows[j] = c - q * 10
                c = q
    del ip, fr
    # an integer digit is kept from the leading one on (the units digit
    # always), a %g fraction digit up to the last nonzero one, the point with it
    for kept, js in ((False, range(1, ni)), (not g, range(ni + 1 + nf, ni + 1, -1))):
        seen = np.full(x.size, kept)
        for j in js:
            seen |= t[j] != 0
            t[j] += seen.view(np.uint8) * 48
    t[ni] += 48
    t[ni + 1] = seen.view(np.uint8) * 46
    t[0] = np.signbit(x).view(np.uint8) * 45
    sep = t[width].reshape(block.shape)
    sep[:, :-1] = 44
    sep[:-1, -1] = ord(end)
    t[:width, ~ok] = text.astype(f"S{width}").view(np.uint8).reshape(-1, width).T
    return t.T[t.T != 0].tobytes().decode("ascii")

"""The ``'%.17g' % x`` text of float64 arrays, formed by numpy.

``cells(x)`` gives each value's text as one row of ``WIDTH`` bytes, NUL
padded (each row ends in a NUL), with the bytes of Python's
``'%.17g' % float(v)`` for every v.

Digits.  For k = floor(log10|x|), the 17 significant digits are the integer
M = round(|x| 10^(16 - k)), which lies in [10^16, 10^17).  The scaled value
s = |x| 10^(16 - k) is formed exactly enough to round: 10^e is a
double-double hi + lo (formed with int arithmetic on first use of each
exponent e, then kept), |x| hi is Dekker's exact two-product (numpy has no
FMA) and |x| lo adds the rest, so s is off by about 1e-14 at most.  A k
that log10 put one off is moved and s formed again, and so is a rounding
that carries to 10^17: at k + 1 it gives M = 10^16.  M is split into a
leading digit and four 4-digit chunks by int64 division, and each chunk is
looked up in a table of 10,000 4-byte codes.

Layout.  ``'%.17g'`` writes fixed notation for -4 <= k < 17 and exponent
notation otherwise, and drops the trailing zeros of M.  So the text is fixed
by the sign, by k in [-4, 17) or else the exponent's sign and width (2 or 3
digits), and by the number of significant digits: one row of a layout table
of 850 rows (and 3 more for infinities and NaN) lists, per output byte, the
source symbol it takes: a digit of M, a digit of |k| or a constant byte.
One gather forms every cell.  A zero takes the row of k = 0 and one digit,
with M = 0 for its digits.

Exactness.  A cell whose s lies within 1e-6 of a rounding tie, or with a
finite nonzero |x| outside [1e-280, 1e280] (where the double-double products
could underflow or overflow), takes Python's ``%`` for that cell alone.
"""

from __future__ import annotations

import numpy as np

# the longest text, -1.2345678901234567e-308, and a NUL that a writer may
# overwrite with a separator
WIDTH = 25
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_E_MIN, _E_MAX = -265, 298  # 16 - k over the fast range, k moved by one either way
_K_LIM = 300  # the layout classes are tabulated for |k| <= _K_LIM
_TIE_TOL = 1e-6
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter

# source symbols of a cell, 32 bytes written as 8 uint32 words: '-', '.',
# '0', the 17 digits of M (the leading one, then four 4-digit chunks, a word
# each), the 3 digits of |k| and 'e' (a word), then '+', 'i', 'n', 'f', 'a'
# and NUL
_N_SYMBOLS = 32
_MINUS, _DOT, _ZERO_DIGIT, _LEAD = 0, 1, 2, 3
_EXP_AT, _E, _PLUS = 20, 23, 24
_NUL = 31
_LETTER_AT = {c: 25 + i for i, c in enumerate("infa")}
_N_DIGITS = 17
# layout classes: k + 4 for fixed notation, then exponent notation by the
# exponent's sign and width, (+, 2), (+, 3), (-, 2), (-, 3)
_N_FIXED = 21
_N_CLASSES = _N_FIXED + 4
_N_KEYS = 2 * _N_CLASSES * _N_DIGITS
_INF, _NAN = _N_KEYS, _N_KEYS + 2  # "inf", "-inf", then "nan"

_tables: dict = {}


def _pow10_parts(e: int) -> tuple[float, float, float, float]:
    """10^e as hi + lo, hi the nearest double, and Dekker's split of hi.
    int true division rounds correctly, so lo is the nearest double to the
    exact remainder."""
    num, den = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
    hi = num / den
    a, b = hi.as_integer_ratio()
    lo = (num * b - a * den) / (den * b)
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    return hi, lo, hi_h, hi - hi_h


def _layout_row(text: str) -> bytes:
    """Source symbols of a layout written as ``text``: ``d`` for the next
    digit of M, ``x`` for the next digit of |k| (the last two or three),
    any other character itself; NUL padded."""
    symbol = {"-": _MINUS, ".": _DOT, "0": _ZERO_DIGIT, "e": _E, "+": _PLUS, **_LETTER_AT}
    digits = iter(range(_LEAD, _LEAD + _N_DIGITS))
    exp = iter(range(_EXP_AT + 3 - text.count("x"), _EXP_AT + 3))
    row = [next(digits) if c == "d" else next(exp) if c == "x" else symbol[c] for c in text]
    return bytes(row).ljust(WIDTH, bytes([_NUL]))


def _layout_text(neg: bool, cls: int, nd: int) -> str:
    """The layout of a value of sign ``neg``, class ``cls`` and ``nd``
    significant digits, as ``_layout_row`` reads it."""
    sign = "-" if neg else ""
    if cls < _N_FIXED:
        k = cls - 4
        if k < 0:
            return sign + "0." + "0" * (-k - 1) + "d" * nd
        point = "." + "d" * (nd - k - 1) if nd > k + 1 else ""
        return sign + "d" * (k + 1) + point
    neg_exp, wide = divmod(cls - _N_FIXED, 2)
    point = "." + "d" * (nd - 1) if nd > 1 else ""
    return sign + "d" + point + "e" + ("-" if neg_exp else "+") + "x" * (2 + wide)


def _words(text: bytes) -> np.ndarray:
    return np.frombuffer(text, dtype=np.uint32)


def _build_tables() -> dict:
    # every table is uint8 or uint32, formed from uint16 temporaries: the
    # tables take about 110 kB and forming them little more
    texts = [_layout_text(neg, cls, nd) for neg in (False, True)
             for cls in range(_N_CLASSES) for nd in range(1, _N_DIGITS + 1)]
    texts += ["inf", "-inf", "nan"]
    places = np.array([1000, 100, 10, 1], dtype=np.uint16)
    chunk = np.arange(10000, dtype=np.uint16)
    codes = (chunk[:, None] // places % 10 + ord("0")).astype(np.uint8)
    exp_codes = codes[:1000, 1:].copy()
    trailing = np.argmax(codes[:, ::-1] != ord("0"), axis=1).astype(np.uint8)
    # the place in M (leading digit 0) of chunk j's last nonzero digit, at
    # j * 10000 + chunk
    last = (np.array([[4], [8], [12], [16]], dtype=np.uint8) - trailing) * (chunk > 0)
    k = np.arange(-_K_LIM, _K_LIM + 1)
    cls = np.where((k >= -4) & (k < 17), k + 4, _N_FIXED + 2 * (k < 0) + (np.abs(k) >= 100))
    return {
        "layout": np.frombuffer(b"".join(map(_layout_row, texts)), dtype=np.uint8
                                ).reshape(-1, WIDTH),
        "digits4": _words(codes.tobytes()),
        "last_nonzero": last.ravel(),
        "exp3": _words(np.column_stack([exp_codes, np.full(1000, ord("e"), np.uint8)]).tobytes()),
        # the first layout key of each k, at k + _K_LIM
        "class_key": cls * _N_DIGITS,
        # the constant symbols, in the words of a cell
        "words": _words(b"-.0\0" + b"\0" * 20 + b"+infa\0\0\0"),
        # hi, lo, hi_h, hi_l of 10^e at column e - _E_MIN; NaN until formed
        "pow10": np.full((4, _E_MAX - _E_MIN + 1), np.nan),
    }


def _pow10(e: np.ndarray) -> np.ndarray:
    """(4, len(e)): hi, lo and the split of hi of 10^e, forming each
    exponent's entry on its first use."""
    pow10 = _tables["pow10"]
    col = e - _E_MIN
    parts = pow10.take(col, axis=1)
    missing = np.isnan(parts[0])
    if missing.any():
        for ei in set(e[missing].tolist()):
            pow10[:, ei - _E_MIN] = _pow10_parts(ei)
        parts = pow10.take(col, axis=1)
    return parts


def _scaled(ax: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer M nearest to s = ax 10^e (int64) and s - M, in [-0.5, 0.5].
    For s >= 2^53, p = fl(ax hi) is an integer and s = p + r, r the error of
    that product plus ax lo.  A smaller s (from a k one too large) gives an
    M below 10^16 all the same, which moves k."""
    hi, lo, hh, hl = _pow10(e)
    p = ax * hi
    c = _SPLIT * ax
    ah = c - (c - ax)
    al = ax - ah
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    r += ax * lo
    ri = np.rint(r)
    M = p.astype(np.int64)
    M += ri.astype(np.int64)
    r -= ri
    return M, r


def _decimal(ax: np.ndarray):
    """(k, M, slow): ax = M 10^(k - 16) to 17 digits, M in [10^16, 10^17),
    and the indices of the cells that Python's % must lay out instead."""
    k = np.floor(np.log10(ax)).astype(np.int64)
    M, frac = _scaled(ax, 16 - k)
    # log10 may put k one off at a power of ten: s = ax 10^(16-k) must lie in
    # [10^16, 10^17), and must not round up to 10^17.  A k that fails is
    # moved by one: s < 10^16 to k - 1, a rounding to 10^17 or more to k + 1
    # (where a carry to 10^17 rounds to exactly 10^16).
    high = M >= 10 ** 17
    moved = ((M - (frac < 0.0) < 10 ** 16) | high).nonzero()[0]
    if len(moved):
        k[moved] += np.where(high[moved], 1, -1)
        M[moved], frac[moved] = _scaled(ax[moved], 16 - k[moved])
        # an M that the one move left out of range (s within 0.5 below
        # 10^17 at k - 1) goes to Python's %, with a stand-in M
        stuck = moved[(M[moved] < 10 ** 16) | (M[moved] >= 10 ** 17)]
        M[stuck] = 10 ** 16
        moved = stuck
    # and so does a near tie
    return k, M, np.concatenate([(np.abs(frac) > 0.5 - _TIE_TOL).nonzero()[0], moved])


def _symbols(k: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The source symbols of each cell, (n, _N_SYMBOLS) bytes, and the place
    of M's last nonzero digit (the leading digit's place is 0)."""
    t = _tables
    n = len(M)
    # M = lead 10^16 + chunks[0] 10^12 + ... + chunks[3]
    halves = np.empty((2, n), dtype=np.int64)
    np.floor_divide(M, 10 ** 8, out=halves[0])
    np.subtract(M, halves[0] * 10 ** 8, out=halves[1])
    upper = halves // 10 ** 4
    chunks = np.empty((4, n), dtype=np.int64)
    np.subtract(halves, upper * 10 ** 4, out=chunks[1::2])
    lead = upper[0] // 10 ** 4
    np.subtract(upper[0], lead * 10 ** 4, out=chunks[0])
    chunks[2] = upper[1]
    src = np.empty((n, _N_SYMBOLS // 4), dtype=np.uint32)
    src[:] = t["words"]
    src[:, 1:5] = t["digits4"].take(chunks).T
    src[:, 5] = t["exp3"].take(np.abs(k))
    src = src.view(np.uint8)
    src[:, _LEAD] = lead + ord("0")
    chunks += np.array([[0], [10000], [20000], [30000]])
    return src, t["last_nonzero"].take(chunks).max(axis=0)


def cells(x: np.ndarray) -> np.ndarray:
    """The ``'%.17g' % float(v)`` bytes of every v of the float64 array
    ``x``, one NUL-padded row of ``WIDTH`` bytes per value, in x's order
    (shape x.shape + (WIDTH,))."""
    if not _tables:
        _tables.update(_build_tables())
    shape = np.shape(x)
    x = np.asarray(x, dtype=np.float64).ravel()
    ax = np.abs(x)
    # zeros, infinities, NaN and |x| outside the fast range: the digits of
    # 1.0 stand in
    other = (~((ax >= _FAST_MIN) & (ax <= _FAST_MAX))).nonzero()[0]
    ax[other] = 1.0
    k, M, slow = _decimal(ax)
    if len(other):
        # a zero is M = 0 at k = 0, which lays out as "0" (or "-0"); the
        # rest of ``other`` is rare
        zero = x[other] == 0.0
        M[other[zero]] = 0
        other = other[~zero]
    src, last = _symbols(k, M)
    # layout key: sign, class of k, and the number of significant digits
    key = _tables["class_key"].take(k + _K_LIM) + last
    key += np.signbit(x) * (_N_CLASSES * _N_DIGITS)
    if len(other):
        xo = x[other]
        special = ~np.isfinite(xo)
        key[other[special]] = np.where(np.isnan(xo[special]), _NAN,
                                       _INF + np.signbit(xo[special]))
        slow = np.concatenate([slow, other[~special]])
    # one gather: the flat index of each output byte's symbol (int32 where it
    # fits, which numpy forms faster than intp)
    index = np.int32 if len(x) < 2 ** 31 // _N_SYMBOLS else np.intp
    at = _tables["layout"].take(key, axis=0) + (
        np.arange(len(x), dtype=index) * _N_SYMBOLS)[:, None]
    out = src.ravel().take(at)
    for i in slow.tolist():
        out[i] = np.frombuffer(("%.17g" % x[i]).encode().ljust(WIDTH, b"\0"), dtype=np.uint8)
    return out.reshape(*shape, WIDTH)

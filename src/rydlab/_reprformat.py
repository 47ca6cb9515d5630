"""JSON arrays whose every number is the bytes of float.__repr__(x),
formatted in numpy.

repr prints the shortest decimal that rounds back to x and, of those, the
one nearest to x (Steele & White 1990; Gay's dtoa mode 0).  One repr call
and its join cost ~1.4 us; this formats a block of values in a few dozen
vectorised passes, ~0.2 us per value in blocks of 2048 (2-vCPU Xeon).

Digits.  With E = floor(log10|x|), y = |x|*10**(16 - E) lies in
[1e16, 1e17).  It is formed as a double-double against 10**(16 - E) held as
a (hi, lo) pair and split into an integer D and a fraction f, with an error
below 1e-14.

Shortest.  The decimals that round back to x are those in
[y - h-, y + h+], h+- half the gaps to the neighbouring doubles scaled by
the same power of ten (h+- lie in [0.55, 11.1]).  The shortest are the
multiples of the largest 10**j in that interval, and of those repr takes
the one nearest to y.  j <= 3 is settled from D mod 10**4 and f.

Layout.  The 17 - j significant digits go into repr's fixed notation when
the decimal point position E + 1 is in [-3, 16], and exponent notation
otherwise.  Each value fills a 40-byte slot: the separator ",\n    ", the
sign, then bytes taken from a constant row, from the digits, and from the
digits shifted one byte right (past the decimal point), through byte masks
looked up by (layout, j); the exponent comes from a table by E.  As in
rydlab._sciformat, the slots are one bytearray whose NUL bytes are dropped
when it is joined.

Fallback.  A value with an interval edge within 1e-9 of an integer, a tie
within 1e-9 between two candidates, j >= 4, y outside [1e16, 1e17) (log10
rounded across a power of ten), or that is 0, non-finite, subnormal or
outside [1e-280, 1e280) is float.__repr__ itself, spliced into its slot
with the block's other fallbacks in one assignment.
"""
from __future__ import annotations

import numpy as np

from ._ddmath import two_prod
from ._sciformat import _DIGITS, _POWER, _POWERS, _join

# A slot holds the separator in bytes 2-7, the sign in byte 8, "0.000" in
# bytes 10-14, the digits and the decimal point from byte _FIRST = 15 to
# byte 32 and the exponent in bytes 35-39.  Unused bytes are NUL.
_SEPARATOR = b",\n    "
_SLOT = 40
_FIRST = 15

# Interval edges and ties closer than this to y (in units of its last of 17
# digits; y is known to ~1e-14) are left to repr.
_MARGIN = 1e-9

# The slot's 64-bit words hold bytes 8w..8w+7, the lowest byte first.
_DIGIT_WORDS = _DIGITS.view(np.uint8).view("<u4").astype(np.uint64)


def _low_parts():
    """lo[k] with _POWER[k] + lo[k] = 10**k to ~1e-32 for |k| <= _POWERS,
    from integer arithmetic: 10**k - hi as a ratio of integers, rounded."""
    lo = []
    for k, hi in zip(range(-_POWERS, _POWERS + 1), _POWER.tolist()):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        a, b = hi.as_integer_ratio()
        lo.append((num * b - a * den) / (den * b))
    return np.array(lo)


_LO = _low_parts()


def _layouts():
    """Three tables of slot words, [word][key] with key = 4*layout + j and
    layout = E + 4 for fixed notation, 20 for exponent notation: the
    constant bytes, and the masks (0xff bytes) of the bytes taken from the
    digits and from the digits shifted one byte."""
    const = np.zeros((21, 4, _SLOT), np.uint8)
    unshifted = np.zeros_like(const)
    shifted = np.zeros_like(const)
    for layout in range(21):
        for j in range(4):
            p = 17 - j  # significant digits
            c, u, s = const[layout, j], unshifted[layout, j], shifted[layout, j]
            point = layout - 3  # digits before the decimal point
            if layout == 20:  # d.ddd, the exponent follows from its own table
                u[_FIRST] = 255
                c[_FIRST + 1] = ord(".")
                s[_FIRST + 2:_FIRST + 1 + p] = 255
            elif point <= 0:  # 0.000ddd
                c[10:12] = np.frombuffer(b"0.", np.uint8)
                c[12:12 - point] = ord("0")
                u[_FIRST:_FIRST + p] = 255
            elif point < p:  # ddd.ddd
                u[_FIRST:_FIRST + point] = 255
                c[_FIRST + point] = ord(".")
                s[_FIRST + 1 + point:_FIRST + 1 + p] = 255
            else:  # ddd000.0
                u[_FIRST:_FIRST + p] = 255
                c[_FIRST + p:_FIRST + point] = ord("0")
                c[_FIRST + point:_FIRST + point + 2] = np.frombuffer(b".0", np.uint8)
    return [np.ascontiguousarray(t.reshape(-1, _SLOT).view("<u8").T)
            for t in (const, unshifted, shifted)]


_CONST, _UNSHIFTED, _SHIFTED = _layouts()


# The last slot word by E + _POWERS: 'e', the sign and 2 or 3 digits in
# bytes 35-39, nothing where E + 1 is in [-3, 16] (fixed notation).
_EXPONENT = np.frombuffer(b"".join(
    bytes(8) if -4 <= e <= 15 else f"e{e:+03d}".encode().rjust(8, b"\0")
    for e in range(-_POWERS, _POWERS + 1)), "<u8")
_LAYOUT = np.array([4 * (e + 4) if -4 <= e <= 15 else 80 for e in range(-_POWERS, _POWERS + 1)])
_STEP = np.array([1.0, 10.0, 100.0, 1000.0])
_SEPARATOR_WORD = np.frombuffer(_SEPARATOR.rjust(8, b"\0"), "<u8")


def _shortest(block: np.ndarray):
    """(e, r, j, fast) for each x of a 1-d float64 block: e = E + _POWERS,
    and where fast holds, r is repr's 17-digit significand of |x| (a
    multiple of 10**j, j <= 3)."""
    a = np.abs(block)
    fast = (a >= 1e-280) & (a < 1e280)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64) + _POWERS  # E + _POWERS
    k = 2 * _POWERS + 16 - e  # 10**(16 - E)
    y, tail = two_prod(a, _POWER[k])
    tail += a * _LO[k]
    whole = np.floor(tail)
    d = y.astype(np.int64) + whole.astype(np.int64)
    fast &= (d >= 10**16) & (d < 10**17)
    # y mod 10**4, and the interval of decimals that read back as x; the gap
    # below a power of two is half the gap above
    low4 = d - d // 10**4 * 10**4
    z = low4 + (tail - whole)
    gap = np.spacing(a) * _POWER[k]
    low = z - np.where(a.view(np.uint64) << np.uint64(12) == 0, 0.25, 0.5) * gap
    high = z + 0.5 * gap
    # a multiple of 10**4 inside (j >= 4), or an edge within _MARGIN of an
    # integer (so of any multiple of 10**j): left to repr
    fast &= (low > 0.0) & (high < 1e4)
    fast &= (np.abs(low - np.rint(low)) > _MARGIN) & (np.abs(high - np.rint(high)) > _MARGIN)
    j = sum(np.floor(high / m) >= np.ceil(low / m) for m in _STEP[1:])
    step = _STEP[j]
    # the multiple of 10**j nearest y, or the one on its other side when the
    # nearest is outside the interval; a tie between the two is left to repr
    near = np.rint(z / step) * step
    fast &= np.abs(2.0 * np.abs(z - near) - step) > 2 * _MARGIN
    near += step * ((near < low).astype(np.float64) - (near > high))
    return e, d - low4 + near.astype(np.int64), j, fast


def _fill(slots: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Write the fast text of each x of a 1-d float64 block into its row of
    slots (5 64-bit words); return the mask of the values it formats
    correctly."""
    e, r, j, fast = _shortest(block)
    # the digits: the first, then four words of four
    first = r // 10**16
    r -= first * 10**16
    first += ord("0")
    high8 = r // 10**8
    low8 = r - high8 * 10**8
    q1 = high8 // 10**4
    q2 = high8 - q1 * 10**4
    q3 = low8 // 10**4
    q4 = low8 - q3 * 10**4
    word2 = _DIGIT_WORDS[q1] | _DIGIT_WORDS[q2] << np.uint64(32)
    word3 = _DIGIT_WORDS[q3] | _DIGIT_WORDS[q4] << np.uint64(32)
    first = first.astype(np.uint64)
    key = _LAYOUT[e] + j
    slots[:, 0] = _SEPARATOR_WORD
    slots[:, 1] = (_CONST[1][key] | (first << np.uint64(56)) & _UNSHIFTED[1][key]
                   | np.signbit(block).astype(np.uint64) * np.uint64(ord("-")))
    slots[:, 2] = (_CONST[2][key] | word2 & _UNSHIFTED[2][key]
                   | (word2 << np.uint64(8) | first) & _SHIFTED[2][key])
    slots[:, 3] = (_CONST[3][key] | word3 & _UNSHIFTED[3][key]
                   | (word3 << np.uint64(8) | word2 >> np.uint64(56)) & _SHIFTED[3][key])
    slots[:, 4] = _CONST[4][key] | (word3 >> np.uint64(56)) & _SHIFTED[4][key] | _EXPONENT[e]
    return fast


def json_values(values: np.ndarray) -> str:
    """The text ",\\n    " + float.__repr__(x) for each x of a 1-d float
    array."""
    block = np.asarray(values, np.float64)
    text = bytearray(_SLOT * block.size)
    slow = ~_fill(np.frombuffer(text, "<u8").reshape(-1, _SLOT // 8), block)
    return _join(text, _SLOT, np.flatnonzero(slow),
                 (_SEPARATOR + repr(x).encode() for x in block[slow].tolist()))

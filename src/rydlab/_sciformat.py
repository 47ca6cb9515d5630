"""CSV text whose every field is the bytes of '%.11e' % x, formatted in numpy.

One % call per field costs ~600 ns; this formats a block of rows in a few
dozen vectorised passes, ~50 ns per field in blocks of 2048 rows of the
three `autocorr` columns (2-vCPU Xeon).  With e = floor(log10|x|), moved
one decade at the fields where y = |x|*10**(11 - e) falls outside
[1e11, 1e12), the digits are m = rint(y), and m = 1e12 rolls over into the
next decade.  10**(11 - e) is correctly rounded, so y is within ~2 ulp
(< 3e-4) of the exact product and m is the correctly rounded mantissa
unless |y - m| is within 1e-3 of 1/2.  Those near-ties, and 0, non-finite,
subnormal and |x| outside [1e-280, 1e280) fields, are '%.11e' % x itself,
spliced into their slots in one assignment.

Each field fills a 20-byte slot of five 4-byte words (sign, d.ddddddddddd,
e, exponent sign, 3 exponent digits, separator) looked up in tables built
when the module is imported.  A block's slots are one bytearray, written
through a numpy view; its text is one copy of it without the NUL bytes,
decoded.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# 10**k for |k| <= _POWERS, correctly rounded: every 10**(11 - e) that a
# field in [1e-280, 1e280) needs.
_POWERS = 300
_POWER = np.array([float(f"1e{k}") for k in range(-_POWERS, _POWERS + 1)])


def _tables():
    """The four parts of a slot as lookup tables of native uint32 words,
    each holding 4 ASCII codes (0 for none):
    digits[n]               the 4 digits of n < 10**4
    lead[100*neg + d]       the sign, d's first digit, '.', d's second digit
    tail[100*neg + d]       the 2 digits of d, 'e', the exponent's sign
    exponent[1000*last + e] the digits of e < 1000 (2 below 100), then ','
                            or, in the last column, a newline
    """
    places = np.array([1000, 100, 10, 1], np.int16)
    ascii_digits = np.arange(10000, dtype=np.int16)[:, None] // places % 10 + ord("0")
    two = ascii_digits[:100, 2:]
    lead = np.zeros((2, 100, 4), np.uint8)
    lead[1, :, 0] = ord("-")
    lead[:, :, 1:4:2] = two
    lead[:, :, 2] = ord(".")
    tail = np.zeros((2, 100, 4), np.uint8)
    tail[:, :, :2] = two
    tail[:, :, 2] = ord("e")
    tail[:, :, 3] = [[ord("+")], [ord("-")]]
    exponent = np.zeros((2, 1000, 4), np.uint8)
    exponent[:, :, :3] = ascii_digits[:1000, 1:]
    exponent[:, :100, 0] = 0
    exponent[:, :, 3] = [[ord(",")], [ord("\n")]]
    return [np.ascontiguousarray(t, np.uint8).view(np.uint32).reshape(-1)
            for t in (ascii_digits, lead, tail, exponent)]


_DIGITS, _LEAD, _TAIL, _EXPONENT = _tables()


def _decimal(block: np.ndarray):
    """(e, m, fast) for the fields x of a 2-d float64 block, flattened:
    |x| = m * 10**(e - 11) with m in [10**11, 10**12) the correctly rounded
    digits wherever fast holds."""
    a = np.abs(block).ravel()
    fast = (a >= 1e-280) & (a < 1e280)
    a[~fast] = 1.0
    e = np.log10(a)
    e = np.floor(e, out=e).astype(np.int64)
    y = _POWER[_POWERS + 11 - e]
    y *= a
    # the decade, fixed where log10 missed it
    miss = np.flatnonzero((y < 1e11) | (y >= 1e12))
    e[miss] += np.where(y[miss] < 1e11, -1, 1)
    y[miss] = a[miss] * _POWER[_POWERS + 11 - e[miss]]
    # the digits, in the buffer of a, which is not read again
    m = np.rint(y, out=a)
    y -= m
    fast &= np.abs(y, out=y) < 0.5 - 1e-3
    up = np.flatnonzero(m >= 1e12)
    m[up] = 1e11
    e[up] += 1
    return e, m.astype(np.int64), fast


def _fill(slots: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Write the fast digits of each field of a 2-d float64 block into its
    row of slots (5 uint32 words); return the mask of the fields they
    format correctly.  Each temporary goes once its words are written, so
    about four int64 arrays of the block are alive at once."""
    e, m, fast = _decimal(block)
    top = m // 10**10
    m -= top * 10**10
    # the sign offsets are uint8 arrays, so they add no int64 temporary
    top += np.signbit(block).ravel() * np.uint8(100)
    slots[:, 0] = _LEAD[top]
    del top
    for word, unit in ((1, 10**6), (2, 100)):
        quad = m // unit
        m -= quad * unit
        slots[:, word] = _DIGITS[quad]
    m += (e < 0) * np.uint8(100)
    slots[:, 3] = _TAIL[m]
    e = np.abs(e, out=e).reshape(block.shape)
    e[:, -1] += 1000
    slots[:, 4] = _EXPONENT[e.ravel()]
    return fast


def _join(text: bytearray, width: int, index: np.ndarray, fields) -> str:
    """text, NUL-padded ASCII slots of `width` bytes, without its NUL bytes
    once slot index[n] is replaced by the bytes fields[n], all in one
    assignment."""
    spliced = b"".join(field.ljust(width, b"\0") for field in fields)
    np.frombuffer(text, np.uint8).reshape(-1, width)[index] = (
        np.frombuffer(spliced, np.uint8).reshape(-1, width))
    return text.translate(None, b"\0").decode("ascii")


def csv_rows(columns: Sequence[np.ndarray]) -> str:
    """The CSV rows of equal-length 1-d float columns."""
    block = np.column_stack(columns)
    text = bytearray(20 * block.size)
    slots = np.frombuffer(text, np.uint8).reshape(-1, 20)
    index = np.flatnonzero(~_fill(slots.view(np.uint32), block))
    ends = slots[index, -1].tobytes()  # each slot's own separator
    return _join(text, 20, index, (b"%.11e%c" % (x, end)
                                   for x, end in zip(block.ravel()[index].tolist(), ends)))

"""CSV text whose every field is the bytes of '%.11e' % x, formatted in numpy.

One % call per field costs ~600 ns; this formats a block of rows in a few
dozen vectorised passes.  With e = floor(log10|x|), corrected once so that
y = |x|*10**(11 - e) lies in [1e11, 1e12), the digits are m = rint(y), and
m = 1e12 rolls over into the next decade.  10**(11 - e) is correctly
rounded, so y is within ~2 ulp (< 3e-4) of the exact product and m is the
correctly rounded mantissa unless frac(y) is within 1e-3 of 1/2.  Those
near-ties, and 0, non-finite, subnormal and |x| outside [1e-280, 1e280)
fields, are '%.11e' % x itself, spliced into their slots.

Each field fills a 20-byte slot of five 4-byte words (sign, d.ddddddddddd,
e, exponent sign, 3 exponent digits, separator) looked up in tables built
when the module is imported; the NUL bytes of shorter fields are dropped
when the slots are joined.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

# Rows formatted at once, so that the temporaries stay small (~0.5 MB).  On
# a 2-vCPU Xeon host 2048 rows formatted fastest per field; 4096 rows took
# ~50% longer per field.
_FORMAT_ROWS = 2048

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


def _rows(block: np.ndarray) -> str:
    """The CSV rows of a 2-d float64 block."""
    a = np.abs(block)
    fast = (a >= 1e-280) & (a < 1e280)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a * _POWER[_POWERS + 11 - e]
    e += (y >= 1e12).astype(np.int64) - (y < 1e11)
    y = a * _POWER[_POWERS + 11 - e]
    fast &= np.abs(y - np.floor(y) - 0.5) > 1e-3
    m = np.rint(y)
    up = m >= 1e12
    m[up] = 1e11
    e += up
    m = m.astype(np.int64)
    slots = np.empty((*block.shape, 5), np.uint32)
    top, m = np.divmod(m, 10**10)
    slots[..., 0] = _LEAD[top + 100 * np.signbit(block)]
    quad, m = np.divmod(m, 10**6)
    slots[..., 1] = _DIGITS[quad]
    quad, m = np.divmod(m, 100)
    slots[..., 2] = _DIGITS[quad]
    slots[..., 3] = _TAIL[m + 100 * (e < 0)]
    e = np.abs(e)
    e[:, -1] += 1000
    slots[..., 4] = _EXPONENT[e]
    text = slots.view(np.uint8).reshape(-1, 20)
    index = np.flatnonzero(~fast)
    ends = text[index, -1].tobytes()  # each slot's own separator
    return _join(text, index, (b"%.11e%c" % (x, end)
                               for x, end in zip(block.ravel()[index].tolist(), ends)))


def _join(slots: np.ndarray, index, fields) -> str:
    """The text of slots, a 2-d uint8 array of NUL-padded ASCII slots, after
    slot index[n] is replaced by the bytes fields[n]."""
    for i, field in zip(index, fields):
        slots[i] = 0
        slots[i, :len(field)] = np.frombuffer(field, np.uint8)
    return slots.tobytes().translate(None, b"\0").decode("ascii")


def csv_rows(columns: Sequence[np.ndarray]) -> Iterator[str]:
    """CSV rows of equal-length 1-d float columns, _FORMAT_ROWS rows per
    piece of text."""
    for lo in range(0, len(columns[0]), _FORMAT_ROWS):
        yield _rows(np.column_stack([c[lo:lo + _FORMAT_ROWS] for c in columns]))

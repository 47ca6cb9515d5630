"""Compensated (double-double) arithmetic for phase reduction.

The oscillatory sums evaluated in this package need fractional parts of
ratios like t / T with t up to ~1e13 atomic units.  A naive double-precision
product followed by ``mod 1`` loses the low bits of the fraction once the
integer part grows past ~1e8, which visibly corrupts the late-time signal.
Every quantity here is therefore carried as an unevaluated pair
``(hi, lo)`` with ``hi + lo`` accurate to roughly 32 significant digits
(Dekker/Knuth error-free transformations).  All helpers are elementwise and
accept numpy arrays.
"""

from __future__ import annotations

import numpy as np

# Veltkamp splitter for binary64: 2**27 + 1.
_SPLIT = 134217729.0

# 2*pi as a double-double constant (hi = float(2*pi), lo = remainder).
TWO_PI_DD = (6.283185307179586, 2.4492935982947064e-16)


def two_sum(a, b):
    """Error-free sum: returns (s, e) with s + e == a + b exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def quick_two_sum(a, b):
    """Error-free sum assuming |a| >= |b|."""
    s = a + b
    e = b - (s - a)
    return s, e


def two_prod(a, b):
    """Error-free product: returns (p, e) with p + e == a * b exactly."""
    p = a * b
    ta = _SPLIT * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLIT * b
    bhi = tb - (tb - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def dd_add(x, y):
    xh, xl = x
    yh, yl = y
    s, e = two_sum(xh, yh)
    t, f = two_sum(xl, yl)
    e = e + t
    s, e = quick_two_sum(s, e)
    e = e + f
    return quick_two_sum(s, e)


def dd_neg(x):
    return (-x[0], -x[1])


def dd_mul(x, y):
    xh, xl = x
    yh, yl = y
    p, e = two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return quick_two_sum(p, e)


def dd_mul_f(x, f):
    """Double-double times plain float."""
    xh, xl = x
    p, e = two_prod(xh, f)
    e = e + xl * f
    return quick_two_sum(p, e)


def dd_div(x, y):
    """Double-double division, one refinement step (~1e-32 relative)."""
    xh, xl = x
    q1 = xh / y[0]
    r = dd_add(x, dd_neg(dd_mul_f(y, q1)))
    q2 = (r[0] + r[1]) / y[0]
    return quick_two_sum(q1, q2)


def dd_frac(x):
    """Fractional part of a double-double, collapsed to a float in [0, 1)."""
    hi, lo = x
    f = hi - np.floor(hi)
    s, e = two_sum(f, lo)
    r = (s - np.floor(s)) + e
    return r - np.floor(r)

"""The autocorrelation observable |A(t)|^2 on dense time grids.

For a packet with squared amplitudes p_k = |c_k|^2,

    |A(t)|^2 = | sum_k p_k exp(-2*pi*i nu_k t) |^2,

where the phase model only chooses the cycle rate nu_k: the exact
energy difference (E_{nbar+k} - E_{nbar}) / (2*pi) or its Taylor truncation

    nu_k = k/T_cl - k^2/t_rev + k^3/t_sr

to first, second, or third order.  Rates are held as double-double (hi, lo)
pairs and every phase nu_k t is reduced modulo one cycle in compensated
arithmetic, so the absolute phase error stays near 1e-16 cycles even at
t ~ t_sr (~1e13 a.u.), where naive products would have lost the fractional
part entirely.

On a uniform grid one amplitude kernel evaluates every model, and the
ring slice Psi(phi) of the circular module too (its rates are cycles per
radian).  With weights w_k, the global sample index split as i = B*j + m
and B = isqrt(count),

    A[B*j + m] = sum_k U[j, k] V[k, m],
    U[j, k] = w_k exp(-2*pi*i frac(nu_k t0 + nu_k dt B j)),
    V[k, m] = exp(-2*pi*i frac(nu_k dt m)),

so a grid of N samples and K terms costs K*(N/B + B) complex exponentials
and one K-deep complex matrix product.  Samples sit at the exact grid times
t0 + dt*i, not at the rounded floats of TimeGrid.times.  Blocks are anchored
on the global index i, so any global index range of a grid evaluates to
bitwise the same samples as the full run.  |A|^2 takes w_k = p_k.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _ddmath as dd
from .packet import CoefficientSet
from .spectrum import AtomSpec


class PhaseModel(enum.Enum):
    """Phase evaluation rule: exact energies or a Taylor truncation."""

    EXACT = "exact"
    ORDER1 = "order1"
    ORDER2 = "order2"
    ORDER3 = "order3"

    @property
    def taylor_order(self) -> int | None:
        """Truncation order, or None for exact energies."""
        return {"exact": None, "order1": 1, "order2": 2, "order3": 3}[self.value]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t0 + dt * i for i in range(count), atomic units."""

    t0: float
    dt: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not (self.dt > 0.0):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        end = self.t0 + self.dt * self.count
        if not math.isfinite(end):
            raise ValueError("grid overflow: t0 + dt*count is not finite")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.count)


def _check_a2(values: np.ndarray) -> np.ndarray:
    """values (a nonempty float array), once every |A|^2 sample in it is
    checked to be finite and inside [0, 1]; ValueError otherwise."""
    if not np.all(np.isfinite(values)):
        raise ValueError("autocorrelation samples must be finite")
    if float(values.min()) < 0.0 or float(values.max()) > 1.0 + 1e-12:
        raise ValueError("autocorrelation samples must lie in [0, 1]")
    return values


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled |A(t)|^2 series."""

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        _check_a2(values)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.values.size)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.values.size - 1)

    def window(self, t_lo: float, t_hi: float) -> "Signal":
        """Sub-signal covering [t_lo, t_hi]; raises if no samples fall inside."""
        i0, i1 = _window_indices(self.t0, self.dt, self.values.size, t_lo, t_hi)
        return Signal(
            t0=self.t0 + self.dt * i0, dt=self.dt, values=self.values[i0 : i1 + 1]
        )


def _window_indices(t0: float, dt: float, count: int, t_lo: float, t_hi: float):
    """First and last index i of the grid t0 + dt*i, 0 <= i < count, inside
    [t_lo, t_hi], as Signal.window selects them; raises if there is none."""
    i0 = max(0, int(math.ceil((t_lo - t0) / dt)))
    i1 = min(count - 1, int(math.floor((t_hi - t0) / dt)))
    if i1 < i0:
        raise ValueError("window contains no samples")
    return i0, i1


def _inverse_periods(nstar: float):
    """Double-double reciprocals of (T_cl, t_rev, t_sr) for a given n*."""
    ns = (nstar, 0.0)
    n2 = dd.two_prod(nstar, nstar)
    n3 = dd.dd_mul(n2, ns)
    t_cl = dd.dd_mul(dd.TWO_PI_DD, n3)
    t_rev = dd.dd_div(dd.dd_mul_f(dd.dd_mul(t_cl, ns), 2.0), (3.0, 0.0))
    t_sr = dd.dd_mul_f(dd.dd_mul(t_rev, ns), 0.75)
    one = (1.0, 0.0)
    return (
        dd.dd_div(one, t_cl),
        dd.dd_div(one, t_rev),
        dd.dd_div(one, t_sr),
    )


def _exact_cycle_rates(nstar: float, k: np.ndarray):
    """(E_{n*+k} - E_{n*}) / (2*pi) as double-doubles, cycles per a.u."""
    if np.any(nstar + k <= 0.0):
        bad = float(np.min(nstar + k))
        raise ValueError(f"no bound state at effective quantum number {bad}")
    one = (1.0, 0.0)
    a = dd.two_prod(nstar, nstar)
    nk = dd.two_sum(nstar, k)
    b = dd.dd_mul(nk, nk)
    delta = dd.dd_mul_f(dd.dd_add(dd.dd_div(one, a), dd.dd_neg(dd.dd_div(one, b))), 0.5)
    return dd.dd_div(delta, dd.TWO_PI_DD)


def _cycle_rates(model: PhaseModel, nstar: float, offsets):
    """The rate table: nu_k = theta_k(t) / (2*pi*t) as a double-double pair
    of arrays (hi, lo) aligned with offsets (an int or an array)."""
    k = np.asarray(offsets, dtype=float)
    order = model.taylor_order
    if order is None:
        return _exact_cycle_rates(nstar, k)
    inv1, inv2, inv3 = _inverse_periods(nstar)
    rate = dd.dd_mul_f(inv1, k)
    if order >= 2:
        rate = dd.dd_add(rate, dd.dd_mul_f(inv2, -k * k))
    if order >= 3:
        rate = dd.dd_add(rate, dd.dd_mul_f(inv3, k * k * k))
    return rate


def _cycles_at(rate, t):
    """frac(nu * t) in [0, 1) for a double-double rate and float times t."""
    p, e = dd.two_prod(t, rate[0])
    return dd.dd_frac((p, e + t * rate[1]))


def phase_cycles(model: PhaseModel, k, t, spec: AtomSpec):
    """Phase theta_k(t) / (2*pi) reduced into [0, 1).

    k (offsets) and t (times) may be scalars or arrays; they broadcast.
    The constant E_{nbar} reference phase is dropped (it cancels in |A|^2).
    """
    rate = _cycle_rates(model, spec.nstar, k)
    return _cycles_at(rate, np.asarray(t, dtype=float))


# Rows of U per matrix product.  Products always have this many rows and
# start at a multiple of it, so a sample's arithmetic never depends on the
# index range it was requested with (BLAS picks its kernel by shape).
_GEMM_ROWS = 32


def _u_rows(count: int, start: int, stop: int) -> tuple[int, int, int]:
    """(B, j0, j1): B = isqrt(count) columns of V, and the rows [j0, j1) of
    U that _amplitude_chunks forms for [start, stop), the blocks of B
    samples touching the range, widened to whole groups of _GEMM_ROWS."""
    block = math.isqrt(count)
    j0 = start // block // _GEMM_ROWS * _GEMM_ROWS
    j1 = -(-((stop - 1) // block + 1) // _GEMM_ROWS) * _GEMM_ROWS
    return block, j0, j1


def _kernel_bytes(terms: int, count: int, start: int = 0, stop: int | None = None) -> int:
    """Bytes of the tables _amplitude_chunks holds for `terms` terms over
    [start, stop) (default the whole grid) of a count-point grid: the rows
    of U and the B columns of V, K*(rows + B) complex values, plus one
    product of _GEMM_ROWS rows, _GEMM_ROWS*B more."""
    block, j0, j1 = _u_rows(count, start, count if stop is None else stop)
    return (terms * (j1 - j0 + block) + _GEMM_ROWS * block) * np.dtype(complex).itemsize


def _amplitude_chunks(
    weights: np.ndarray,
    rate,
    x0: float,
    dx: float,
    count: int,
    start: int,
    stop: int,
    size: int,
    squared: bool = False,
):
    """sum_k weights[k] exp(-2*pi*i frac(rate_k x)) at the exact points
    x = x0 + dx*i, i in [start, stop), of a count-point grid, yielded as
    consecutive arrays of `size` samples (the last may be shorter); with
    squared, re^2 + im^2 of each product instead.

    V, the rows of U and each product of _GEMM_ROWS rows are formed once,
    so memory is O(K*sqrt(count) + size) whatever the range, and any
    partition of [0, count) and any chunk size reproduce the full run
    bitwise.
    """
    if not 0 <= start < stop <= count:
        raise ValueError(f"index range [{start}, {stop}) not inside [0, {count})")
    block, j0, j1 = _u_rows(count, start, stop)
    per_sample = dd.dd_mul_f(rate, dx)
    j = np.arange(j0, j1, dtype=float)[:, None]
    row_cycles = dd.dd_frac(dd.dd_add(
        dd.dd_mul_f(rate, x0), dd.dd_mul_f(dd.dd_mul_f(per_sample, float(block)), j)
    ))
    u = weights * np.exp(-2j * np.pi * row_cycles)
    m = np.arange(block, dtype=float)
    col_rate = (per_sample[0][:, None], per_sample[1][:, None])
    v = np.exp(-2j * np.pi * dd.dd_frac(dd.dd_mul_f(col_rate, m)))
    span = _GEMM_ROWS * block  # samples per product
    formed = -1  # first sample of the product held
    for lo in range(start, stop, size):
        hi = min(lo + size, stop)
        out = np.empty(hi - lo, dtype=float if squared else complex)
        for first in range(lo // span * span, hi, span):
            if first != formed:
                r = first // block - j0
                held = (u[r : r + _GEMM_ROWS] @ v).reshape(-1)
                if squared:
                    held = held.real**2 + held.imag**2
                formed = first
            a, b = max(lo, first), min(hi, first + span)
            out[a - lo : b - lo] = held[a - first : b - first]
        yield out


def _a2_chunks(
    coeffs: CoefficientSet,
    model: PhaseModel,
    spec: AtomSpec,
    grid: TimeGrid,
    start: int,
    stop: int,
    size: int,
):
    """|A|^2 at the exact grid times t0 + dt*i for i in [start, stop), in
    chunks of `size` samples: the amplitude kernel with weights p_k."""
    rate = _cycle_rates(model, spec.nstar, coeffs.offsets)
    return _amplitude_chunks(coeffs.probabilities, rate, grid.t0, grid.dt, grid.count,
                             start, stop, size, squared=True)


def autocorrelation(
    coeffs: CoefficientSet, model: PhaseModel, spec: AtomSpec, grid: TimeGrid
) -> Signal:
    """Evaluate |A(t)|^2 at the exact grid times t0 + dt*i.

    Cost for N = grid.count samples and K terms: K*(N/B + B) complex
    exponentials with B = isqrt(N), plus one K-deep complex matrix product.
    Blocks are anchored on the global sample index, so evaluating any
    partition of [0, N) into index ranges with _a2_chunks yields bitwise
    the same samples.
    """
    values = next(_a2_chunks(coeffs, model, spec, grid, 0, grid.count, grid.count))
    return Signal(t0=grid.t0, dt=grid.dt, values=values)

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

On a uniform grid one kernel evaluates every model.  The global sample
index is split as i = B*j + m with B = isqrt(count), and

    A[B*j + m] = sum_k U[j, k] V[k, m],
    U[j, k] = p_k exp(-2*pi*i frac(nu_k t0 + nu_k dt B j)),
    V[k, m] = exp(-2*pi*i frac(nu_k dt m)),

so a grid of N samples and K terms costs K*(N/B + B) complex exponentials
and one K-deep complex matrix product.  Samples sit at the exact grid times
t0 + dt*i, not at the rounded floats of TimeGrid.times.  Blocks are anchored
on the global index i, so any global index range of a grid evaluates to
bitwise the same samples as the full run.
"""

from __future__ import annotations

import enum
import functools
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
        if float(values.min()) < 0.0 or float(values.max()) > 1.0 + 1e-12:
            raise ValueError("autocorrelation samples must lie in [0, 1]")
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
        i0 = max(0, int(math.ceil((t_lo - self.t0) / self.dt)))
        i1 = min(self.values.size - 1, int(math.floor((t_hi - self.t0) / self.dt)))
        if i1 < i0:
            raise ValueError("window contains no samples")
        return Signal(
            t0=self.t0 + self.dt * i0, dt=self.dt, values=self.values[i0 : i1 + 1]
        )


@functools.lru_cache(maxsize=None)
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


def phase(model: PhaseModel, k: int, t: float, spec: AtomSpec) -> float:
    """Phase theta_k(t) in radians, reduced modulo 2*pi into [0, 2*pi)."""
    return float(2.0 * math.pi * phase_cycles(model, k, np.float64(t), spec))


def _a2_over_times(
    coeffs: CoefficientSet, model: PhaseModel, spec: AtomSpec, times: np.ndarray
) -> np.ndarray:
    """|A|^2 at arbitrary times, one term at a time; independent per time
    point.  The reference the grid kernel is tested against."""
    hi, lo = _cycle_rates(model, spec.nstar, coeffs.offsets)
    amp = np.zeros(times.shape, dtype=np.complex128)
    for p, rate in zip(coeffs.probabilities, zip(hi, lo)):
        amp += p * np.exp(-2j * np.pi * _cycles_at(rate, times))
    return np.abs(amp) ** 2


# Rows of U per matrix product.  Products always have this many rows and
# start at a multiple of it, so a sample's arithmetic never depends on the
# index range it was requested with (BLAS picks its kernel by shape).
_GEMM_ROWS = 32


def _a2_over_range(
    coeffs: CoefficientSet,
    model: PhaseModel,
    spec: AtomSpec,
    grid: TimeGrid,
    start: int,
    stop: int,
) -> np.ndarray:
    """|A|^2 at the exact grid times t0 + dt*i for i in [start, stop).

    Blocks are anchored on the global index, so any partition of
    [0, grid.count) reproduces the full run bitwise.
    """
    if not 0 <= start < stop <= grid.count:
        raise ValueError(f"index range [{start}, {stop}) not inside [0, {grid.count})")
    rate = _cycle_rates(model, spec.nstar, coeffs.offsets)
    block = math.isqrt(grid.count)
    per_sample = dd.dd_mul_f(rate, grid.dt)
    # Rows of U: the blocks touching [start, stop), widened to whole groups.
    j0 = start // block // _GEMM_ROWS * _GEMM_ROWS
    j1 = -(-((stop - 1) // block + 1) // _GEMM_ROWS) * _GEMM_ROWS
    j = np.arange(j0, j1, dtype=float)[:, None]
    row_cycles = dd.dd_frac(dd.dd_add(
        dd.dd_mul_f(rate, grid.t0), dd.dd_mul_f(dd.dd_mul_f(per_sample, float(block)), j)
    ))
    u = coeffs.probabilities * np.exp(-2j * np.pi * row_cycles)
    m = np.arange(block, dtype=float)
    col_rate = (per_sample[0][:, None], per_sample[1][:, None])
    v = np.exp(-2j * np.pi * dd.dd_frac(dd.dd_mul_f(col_rate, m)))
    out = np.empty(stop - start)
    for r in range(0, j1 - j0, _GEMM_ROWS):
        first = (j0 + r) * block
        lo, hi = max(start, first), min(stop, first + _GEMM_ROWS * block)
        amp = (u[r : r + _GEMM_ROWS] @ v).reshape(-1)[lo - first : hi - first]
        out[lo - start : hi - start] = amp.real**2 + amp.imag**2
    return out


def autocorrelation(
    coeffs: CoefficientSet, model: PhaseModel, spec: AtomSpec, grid: TimeGrid
) -> Signal:
    """Evaluate |A(t)|^2 at the exact grid times t0 + dt*i.

    Cost for N = grid.count samples and K terms: K*(N/B + B) complex
    exponentials with B = isqrt(N), plus one K-deep complex matrix product.
    Blocks are anchored on the global sample index, so evaluating any
    partition of [0, N) into index ranges with _a2_over_range yields bitwise
    the same samples.
    """
    values = _a2_over_range(coeffs, model, spec, grid, 0, grid.count)
    return Signal(t0=grid.t0, dt=grid.dt, values=values)

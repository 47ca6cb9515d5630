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
t0 + dt*i, not at the rounded floats of TimeGrid.times.  The kernel of a
grid (_Kernel) forms its tables once and serves any global index range from
them, bitwise the same samples as the full run.  |A|^2 takes w_k = p_k.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import _ddmath as dd
from .packet import CoefficientSet
from .spectrum import AtomSpec, _Record


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


class TimeGrid(_Record):
    """Uniform time grid t0 + dt * i for i in range(count), atomic units."""

    t0: float
    dt: float
    count: int

    def __post_init__(self):
        _check_grid(self.t0, self.dt, self.count)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.count)


def _check_grid(start: float, step: float, count: int) -> None:
    """The rule of the uniform grids start + step*i, i in range(count), of
    TimeGrid, AngularGrid and Signal; ValueError where it fails."""
    if not (isinstance(count, (int, np.integer)) and not isinstance(count, bool)
            and count >= 1 and step > 0.0
            and math.isfinite(start) and math.isfinite(start + step * count)):
        raise ValueError(f"a uniform grid needs an integer count >= 1, a step > 0 and finite "
                         f"ends, got start {start}, step {step}, count {count!r}")


def _check_a2(values: np.ndarray) -> np.ndarray:
    """values (a nonempty float array), once every |A|^2 sample in it is
    checked to be finite and inside [0, 1]; ValueError otherwise."""
    if not np.all(np.isfinite(values)):
        raise ValueError("autocorrelation samples must be finite")
    if float(values.min()) < 0.0 or float(values.max()) > 1.0 + 1e-12:
        raise ValueError("autocorrelation samples must lie in [0, 1]")
    return values


class Signal(_Record):
    """Uniformly sampled |A(t)|^2 series."""

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("values must be a 1-d array")
        _check_grid(self.t0, self.dt, values.size)
        _check_a2(values)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.values.size)

    def window(self, t_lo: float, t_hi: float) -> "Signal":
        """Sub-signal covering [t_lo, t_hi]; raises if no samples fall inside."""
        i0, i1 = _window_indices(self.t0, self.dt, self.values.size, t_lo, t_hi)
        return Signal(
            t0=self.t0 + self.dt * i0, dt=self.dt, values=self.values[i0 : i1 + 1]
        )


def _window_indices(t0: float, dt: float, count: int, t_lo: float, t_hi: float):
    """First and last index i of the grid t0 + dt*i, 0 <= i < count, inside
    [t_lo, t_hi], as Signal.window selects them; an infinite bound reaches
    the grid's end.  ValueError at a NaN bound or if there is no index."""
    if math.isnan(t_lo) or math.isnan(t_hi):
        raise ValueError(f"window bounds must not be NaN, got [{t_lo}, {t_hi}]")
    # positions clipped to just past the grid before rounding: the same
    # indices, and no infinite float reaches math.ceil or math.floor
    i0 = math.ceil(min(max((t_lo - t0) / dt, 0.0), count))
    i1 = math.floor(min(max((t_hi - t0) / dt, -1.0), count - 1))
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


# Largest phase max_k |nu_k t| reduced, in cycles: the precision floor.  Past
# it the ~106-bit double-double phase keeps fewer fractional bits than a
# double holds in [0, 1) (at nbar = 48, 3e-12 off a 40-digit sum at 2^70
# cycles, 2e-2 at 2^100), and past ~1.3e300 a.u. the Veltkamp split of the
# time (_ddmath.two_prod) overflows into NaNs.
_MAX_CYCLES = 2**53


def _check_cycles(rate, x) -> None:
    """ValueError when a point is NaN, or when max_k |rate_k| * max |x|
    passes the precision floor or is NaN, for a double-double rate table
    and the points x (a.u. or radians) it is reduced at."""
    top = float(np.max(np.abs(x), initial=0.0))
    if math.isnan(top):
        raise ValueError("times must not be NaN")
    cycles = float(np.max(np.abs(rate[0]), initial=0.0)) * top
    if not cycles <= _MAX_CYCLES:
        raise ValueError(f"the phases reach {cycles:.3g} cycles at {top:g} a.u., past "
                         "the 2^53-cycle precision floor; use times nearer 0")


def phase_cycles(model: PhaseModel, k, t, spec: AtomSpec):
    """Phase theta_k(t) / (2*pi) reduced into [0, 1).

    k (offsets) and t (times) may be scalars or arrays; they broadcast.
    The constant E_{nbar} reference phase is dropped (it cancels in |A|^2).
    ValueError past the precision floor or at a NaN time (_check_cycles).
    """
    rate = _cycle_rates(model, spec.nstar, k)
    t = np.asarray(t, dtype=float)
    _check_cycles(rate, t)
    return _cycles_at(rate, t)


# Rows of U per matrix product.  Products always have this many rows and
# start at a multiple of it, so a sample's arithmetic never depends on the
# index range it was requested with (BLAS picks its kernel by shape).
_GEMM_ROWS = 32


def _kernel_bytes(terms: int, count: int) -> int:
    """Bytes of the tables a _Kernel holds for `terms` terms on a count-point
    grid: V, K*B complex values with B = isqrt(count), one slab of U,
    K*_GEMM_ROWS, and its product, _GEMM_ROWS*B.  They are formed once per
    grid and serve any index range, so the size depends on the grid only."""
    block = math.isqrt(count)
    return (terms * (block + _GEMM_ROWS) + _GEMM_ROWS * block) * np.dtype(complex).itemsize


# Largest amplitude-kernel table, in bytes (_kernel_bytes).  The kernel forms
# its tables in cache-sized tiles and squares the product in place, so a
# request peaks near its tables: 162 MB peak RSS for 134 MB at sigma = 10^3
# on a 2-vCPU Xeon.  It binds for wide packets, and for `verify` at large
# nbar (B grows as nbar): 37 terms at 10^7 samples hold 3.5 MB, sigma = 10^3
# (14,263 terms at nbar = 10^6) is admitted up to 308,024 samples, and
# `verify` at sigma = 2.5 and q = 3 up to nbar = 66,577 (173 MB peak RSS,
# where the 32-row product is half the tables).
MAX_KERNEL_BYTES = 1 << 27


# Table entries of U and V formed at a time.  The double-double temporaries
# then stay in cache instead of growing with the tables, and every entry
# goes through the same elementwise operations whatever the tile, so the
# tables are bitwise the same for any tile size.  The kernel at
# sigma = 1e3 and 8x10^4 samples took 0.67-0.72 s in tiles of 2^13, 2^14
# or 2^15 entries and 1.3 s forming whole tables (2-vCPU Xeon, 2 MB L2 per
# core); 2^14 keeps a float temporary at 128 kB.
_FORM_ENTRIES = 1 << 14


def _tiles(rows: int, cols: int):
    """Index pairs (r, c) of the blocks of at most _FORM_ENTRIES entries,
    whole rows wherever a row fits, that tile a rows x cols table."""
    width = min(cols, _FORM_ENTRIES)
    height = max(1, _FORM_ENTRIES // width)
    for r in range(0, rows, height):
        for c in range(0, cols, width):
            yield slice(r, r + height), slice(c, c + width)


class _Kernel:
    """The amplitude kernel of one count-point grid x = x0 + dx*i: evaluate
    gives sum_k weights[k] exp(-2*pi*i frac(rate_k x)) over any index
    range, or with squared re^2 + im^2 of each product.

    V is formed once per grid, and each product of _GEMM_ROWS rows from a
    slab of U formed just before it, into one buffer where it is also
    squared, so memory is V, one slab of U and the product (_kernel_bytes)
    plus the samples asked for, and any partition of [0, count) reproduces
    the full run bitwise.  U and V are formed in tiles of _FORM_ENTRIES
    entries, so the peak stays near the tables themselves: 1.10x at
    sigma = 1e3 on a 4096-point grid.  ValueError, before any table is
    allocated, past the precision floor at either grid end or past
    MAX_KERNEL_BYTES.
    """

    def __init__(self, weights, rate, x0: float, dx: float, count: int, squared=False):
        _check_cycles(rate, (x0, x0 + dx * (count - 1)))
        size = _kernel_bytes(weights.size, count)
        if size > MAX_KERNEL_BYTES:
            raise ValueError(f"{weights.size} terms on a {count}-point grid need {size} bytes "
                             f"of kernel tables, more than the {MAX_KERNEL_BYTES} byte budget; "
                             "use a narrower packet or fewer samples")
        self.weights, self.count, self.squared = weights, count, squared
        self.block = block = math.isqrt(count)
        per_sample = dd.dd_mul_f(rate, dx)
        self.at_x0 = dd.dd_mul_f(rate, x0)
        self.per_row = dd.dd_mul_f(per_sample, float(block))
        self.u = np.empty((_GEMM_ROWS, weights.size), dtype=complex)
        self.v = v = np.empty((weights.size, block), dtype=complex)
        m = np.arange(block, dtype=float)
        for r, c in _tiles(*v.shape):
            col_rate = (per_sample[0][r, None], per_sample[1][r, None])
            np.exp(-2j * np.pi * dd.dd_frac(dd.dd_mul_f(col_rate, m[c])), out=v[r, c])
        # the product, formed and squared in place; allocated once V is formed,
        # so that it is not held alongside V's formation temporaries
        self.prod = np.empty((_GEMM_ROWS, block), dtype=complex)
        self.formed = -1  # first sample of the product held

    def evaluate(self, start: int, stop: int) -> np.ndarray:
        """The samples at grid indices [start, stop), in a new array."""
        _check_range(start, stop, self.count)
        u, at_x0, per_row, block = self.u, self.at_x0, self.per_row, self.block
        flat = self.prod.reshape(-1)
        held = flat.real if self.squared else flat
        out = np.empty(stop - start, dtype=float if self.squared else complex)
        span = _GEMM_ROWS * block  # samples per product
        for first in range(start // span * span, stop, span):
            if first != self.formed:
                j = np.arange(first // block, first // block + _GEMM_ROWS, dtype=float)[:, None]
                for r, c in _tiles(*u.shape):
                    cycles = dd.dd_frac(dd.dd_add(
                        (at_x0[0][c], at_x0[1][c]),
                        dd.dd_mul_f((per_row[0][c], per_row[1][c]), j[r]),
                    ))
                    np.exp(-2j * np.pi * cycles, out=u[r, c])
                # the weights in one product over the slab: numpy rounds a complex
                # product differently when a tile one entry wide broadcasts an operand
                np.multiply(self.weights, u, out=u)
                np.matmul(u, self.v, out=self.prod)
                if self.squared:
                    np.square(flat.real, out=flat.real)
                    np.square(flat.imag, out=flat.imag)
                    np.add(flat.real, flat.imag, out=flat.real)
                self.formed = first
            a, b = max(start, first), min(stop, first + span)
            out[a - start : b - start] = held[a - first : b - first]
        return out


def _check_range(start: int, stop: int, count: int) -> None:
    if not 0 <= start < stop <= count:
        raise ValueError(f"index range [{start}, {stop}) not inside [0, {count})")


def _a2_kernel(coeffs: CoefficientSet, model: PhaseModel, spec: AtomSpec,
               grid: TimeGrid) -> _Kernel:
    """The kernel of |A|^2 at the exact grid times t0 + dt*i: weights p_k."""
    rate = _cycle_rates(model, spec.nstar, coeffs.offsets)
    return _Kernel(coeffs.probabilities, rate, grid.t0, grid.dt, grid.count, squared=True)


def autocorrelation(
    coeffs: CoefficientSet, model: PhaseModel, spec: AtomSpec, grid: TimeGrid
) -> Signal:
    """Evaluate |A(t)|^2 at the exact grid times t0 + dt*i: one run of the
    grid's kernel, whose cost the module docstring gives.  Any partition of
    the grid into index ranges of _a2_kernel yields bitwise these samples."""
    values = _a2_kernel(coeffs, model, spec, grid).evaluate(0, grid.count)
    return Signal(t0=grid.t0, dt=grid.dt, values=values)

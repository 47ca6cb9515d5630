"""Angular cross-sections of circular wave packets at fixed radius.

A circular state has l = m = n - 1; its nodeless radial function times the
equatorial value of Y_{n-1}^{n-1} gives the packet amplitude along a ring
in the orbital plane.  At n ~ 320 the factor (2r/n)^(n-1) alone reaches
~1e890, so all per-state magnitudes are formed in log space and only
ratios to the dominant state are ever exponentiated.  Slices are
unnormalized: a common arbitrary scale is the contract, not absolute
density.
"""

from __future__ import annotations

import math

import numpy as np

from . import _ddmath as dd
from .autocorr import PhaseModel, _check_grid, _check_range, _Kernel, phase_cycles
from .packet import CoefficientSet
from .spectrum import AtomSpec, _Record


class AngularGrid(_Record):
    """Uniform azimuthal grid phi0 + dphi * i, radians."""

    phi0: float
    dphi: float
    count: int

    def __post_init__(self):
        _check_grid(self.phi0, self.dphi, self.count)


class AngularSlice:
    """Complex amplitudes Psi(phi) at the points phi0 + dphi*i of an
    AngularGrid on a ring of radius r at time t, as angular_slice forms
    them from the ring's amplitude kernel.

    evaluate(lo, hi) forms Psi one index range at a time from the kernel,
    every amplitude checked to be finite (ValueError).  .values is the
    whole ring: formed on its first read, bitwise as any partition into
    ranges gives it, after which the kernel is dropped.
    """

    def __init__(self, grid: AngularGrid, kernel: _Kernel, t: float, r: float):
        self.phi0, self.dphi, self.count = grid.phi0, grid.dphi, grid.count
        self.t, self.r = t, r
        self._kernel, self._values = kernel, None

    def evaluate(self, lo: int, hi: int) -> np.ndarray:
        """Psi at grid indices [lo, hi)."""
        if self._kernel is None:
            _check_range(lo, hi, self.count)
            return self._values[lo:hi]
        return _check_psi(self._kernel.evaluate(lo, hi))

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            values = self.evaluate(0, self.count)
            values.flags.writeable = False
            self._values, self._kernel = values, None
        return self._values

    @property
    def phis(self) -> np.ndarray:
        return self.phi0 + self.dphi * np.arange(self.count)


def _check_psi(values: np.ndarray) -> np.ndarray:
    """values, once every amplitude in it is checked to be finite."""
    if not np.isfinite(values).all():
        raise ValueError("slice amplitudes must be finite")
    return values


def expectation_radius(nbar: float) -> float:
    """Orbital radius <r> = nbar (2 nbar + 1) / 2 of a circular state."""
    if not 1 <= nbar < math.inf:
        raise ValueError(f"nbar must be finite and >= 1, got {nbar}")
    return 0.5 * nbar * (2.0 * nbar + 1.0)


def log_amplitude(n: float, r: float):
    """log of the circular-state ring amplitude |r R_{n,n-1}(r) Y_{n-1}^{n-1}(pi/2)|.

    Expanding the normalization factorials through log-gamma cancels the
    (2n)! between the radial and angular parts, leaving

        log(2) - 2 log(n) + n log(r) - (n-1) log(n) - r/n
        - log(4*pi)/2 - lgamma(n).

    The radial measure factor r makes the ridge of the amplitude sit at
    r = n^2.  It is common to every term of a fixed-radius slice, so slice
    shapes are unaffected.  Accepts an array of quantum numbers, an array
    of radii, or both (broadcast); each element is bitwise the scalar
    formula's, since log(n) and lgamma(n) are math.log and math.lgamma of
    that element.
    """
    n = np.asarray(n, dtype=float)
    bad = n[~((1 <= n) & (n < math.inf))]
    if bad.size:
        raise ValueError(f"n must be finite and >= 1, got {bad[0]}")
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r) & (r > 0.0)):
        raise ValueError("radius must be finite and > 0")
    log_n = np.vectorize(math.log, otypes=[float])(n)
    out = (
        math.log(2.0)
        - 2.0 * log_n
        + n * np.log(r)
        - (n - 1.0) * log_n
        - r / n
        - 0.5 * math.log(4.0 * math.pi)
        - np.vectorize(math.lgamma, otypes=[float])(n)
    )
    return out if out.ndim else float(out)


def angular_slice(
    coeffs: CoefficientSet,
    spec: AtomSpec,
    t: float,
    grid: AngularGrid,
    r: float | None = None,
) -> AngularSlice:
    """Ring slice Psi(phi) at time t, exact energy phases.

    Each eigenstate contributes c_k * exp(L_k - L_max) * exp(i[(n_k - 1) phi
    - theta_k(t)]) with L_k its log amplitude at the ring radius and L_max
    the largest of them (the common-scale normalization).  r defaults to
    the expectation radius of the central state.  The sum is the amplitude
    kernel of the grid, with rates -(n_k - 1)/(2*pi) cycles per radian, so
    Psi sits at the exact grid angles phi0 + dphi*i.  The kernel's tables
    are formed here, once, and the slice returned holds them: Psi is formed
    by its evaluate(lo, hi) one index range at a time, or whole by .values.
    The rates need every n_k - 1 exact, so nbar + max|k| must stay below
    2^53 (ValueError), as must the phases theta_k(t) and the kernel tables
    (autocorr._Kernel).
    """
    thetas = phase_cycles(PhaseModel.EXACT, coeffs.offsets, t, spec)
    largest = spec.nbar + float(np.abs(coeffs.offsets).max())
    if largest >= 2.0**53:
        raise ValueError(f"nbar + max|k| must be below 2^53 for exact ring rates n_k - 1, "
                         f"got {largest:.6g}")
    if r is None:
        r = expectation_radius(spec.nbar)
    logs = log_amplitude(spec.nbar + coeffs.offsets, r)
    weights = coeffs.weights * np.exp(logs - logs.max()) * np.exp(-2j * np.pi * thetas)
    # finite weights of modulus <= 1 on unit phasors sum to a finite Psi
    _check_psi(weights)
    m = spec.nbar + coeffs.offsets - 1.0
    rate = dd.dd_div((-m, np.zeros_like(m)), dd.TWO_PI_DD)
    kernel = _Kernel(weights, rate, grid.phi0, grid.dphi, grid.count)
    return AngularSlice(grid, kernel, t, r)


def resemblance(slice_a: AngularSlice, slice_b: AngularSlice) -> float:
    """Overlap of |Psi| profiles, maximized over rigid rotation.

    Both slices must share the same grid and cover full turns: count*dphi
    a whole number (>= 1) of turns to 1e-9, or ValueError, since the
    correlation wraps each slice as a closed ring.  Revived packets reform
    at a classically advanced angle, so the comparison has to be
    angle-agnostic.  Returns a value in (0, 1], with 1 for identical
    profiles up to rotation and scale.
    """
    for s in (slice_a, slice_b):
        turns = s.count * s.dphi / (2.0 * math.pi)
        if not (round(turns) >= 1 and abs(turns - round(turns)) <= 1e-9):
            raise ValueError(f"slices must cover whole turns, got {turns:.6g} turns")
    if slice_a.count != slice_b.count or not math.isclose(
        slice_a.dphi, slice_b.dphi, rel_tol=1e-12
    ):
        raise ValueError("slices must share the same angular grid")
    a = np.abs(slice_a.values)
    b = np.abs(slice_b.values)
    corr = np.fft.ifft(np.fft.fft(a) * np.conj(np.fft.fft(b))).real
    return float(corr.max() / (np.linalg.norm(a) * np.linalg.norm(b)))

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
from dataclasses import dataclass

import numpy as np

from . import _ddmath as dd
from .autocorr import PhaseModel, _amplitude_chunks, phase_cycles
from .packet import CoefficientSet
from .spectrum import AtomSpec


@dataclass(frozen=True)
class AngularGrid:
    """Uniform azimuthal grid phi0 + dphi * i, radians."""

    phi0: float
    dphi: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not (self.dphi > 0.0):
            raise ValueError(f"dphi must be > 0, got {self.dphi}")


@dataclass(frozen=True)
class AngularSlice:
    """Complex amplitudes Psi(phi) on a ring of radius r at time t."""

    phi0: float
    dphi: float
    values: np.ndarray
    t: float
    r: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if not np.all(np.isfinite(values.real) & np.isfinite(values.imag)):
            raise ValueError("slice amplitudes must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def phis(self) -> np.ndarray:
        return self.phi0 + self.dphi * np.arange(self.values.size)


def expectation_radius(nbar: float) -> float:
    """Orbital radius <r> = nbar (2 nbar + 1) / 2 of a circular state."""
    if nbar < 1:
        raise ValueError(f"nbar must be >= 1, got {nbar}")
    return 0.5 * nbar * (2.0 * nbar + 1.0)


def log_amplitude(n: float, r: float):
    """log of the circular-state ring amplitude |r R_{n,n-1}(r) Y_{n-1}^{n-1}(pi/2)|.

    Expanding the normalization factorials through log-gamma cancels the
    (2n)! between the radial and angular parts, leaving

        log(2) - 2 log(n) + n log(r) - (n-1) log(n) - r/n
        - log(4*pi)/2 - lgamma(n).

    The radial measure factor r makes the ridge of the amplitude sit at
    r = n^2.  It is common to every term of a fixed-radius slice, so slice
    shapes are unaffected.  Accepts an array of radii.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r) & (r > 0.0)):
        raise ValueError("radius must be finite and > 0")
    out = (
        math.log(2.0)
        - 2.0 * math.log(n)
        + n * np.log(r)
        - (n - 1.0) * math.log(n)
        - r / n
        - 0.5 * math.log(4.0 * math.pi)
        - math.lgamma(n)
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
    the expectation radius of the central state.  The sum is one run of the
    amplitude kernel, with rates -(n_k - 1)/(2*pi) cycles per radian, so
    Psi sits at the exact grid angles phi0 + dphi*i.
    """
    if r is None:
        r = expectation_radius(spec.nbar)
    logs = np.array([log_amplitude(spec.nbar + int(k), r) for k in coeffs.offsets])
    thetas = phase_cycles(PhaseModel.EXACT, coeffs.offsets, t, spec)
    weights = coeffs.weights * np.exp(logs - logs.max()) * np.exp(-2j * np.pi * thetas)
    m = spec.nbar + coeffs.offsets - 1.0
    rate = dd.dd_div((-m, np.zeros_like(m)), dd.TWO_PI_DD)
    values = next(_amplitude_chunks(weights, rate, grid.phi0, grid.dphi, grid.count,
                                    0, grid.count, grid.count))
    return AngularSlice(phi0=grid.phi0, dphi=grid.dphi, values=values, t=t, r=r)


def resemblance(slice_a: AngularSlice, slice_b: AngularSlice) -> float:
    """Overlap of |Psi| profiles, maximized over rigid rotation.

    Both slices must share the same grid and cover full turns; revived
    packets reform at a classically advanced angle, so the comparison has
    to be angle-agnostic.  Returns a value in (0, 1], with 1 for identical
    profiles up to rotation and scale.
    """
    if slice_a.values.size != slice_b.values.size or not math.isclose(
        slice_a.dphi, slice_b.dphi, rel_tol=1e-12
    ):
        raise ValueError("slices must share the same angular grid")
    a = np.abs(slice_a.values)
    b = np.abs(slice_b.values)
    corr = np.fft.ifft(np.fft.fft(a) * np.conj(np.fft.fft(b))).real
    return float(corr.max() / (np.linalg.norm(a) * np.linalg.norm(b)))

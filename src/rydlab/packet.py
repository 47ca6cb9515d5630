"""Excitation-coefficient distributions and the pulse-duration calibration."""

from __future__ import annotations

import math

import numpy as np

from .spectrum import AtomSpec, _Record, to_si

# Default truncation: the narrowest symmetric window that drops at most this
# share of the Gaussian mass.  |A|^2 moves by 1-3x the dropped mass, so the
# signal does not depend on where the window is cut.
MAX_DROPPED_MASS = 1e-12

# Reach of the dropped-mass search: the Gaussian beyond 12 sigma is < 1e-31.
_SEARCH_SIGMAS = 12.0


class CoefficientSet(_Record):
    """Eigenstate amplitudes c_k indexed by the offset k = n - nbar.

    Offsets are contiguous integers, symmetric about 0 unless the window had
    to be clipped at small n.  Amplitudes are normalized so sum|c_k|^2 = 1;
    under the default phase convention they are real and nonnegative.
    """

    offsets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        offsets = np.asarray(self.offsets)
        # integral floats are taken as their integers; a float past int64,
        # NaN, a fraction or a bool would be cast to some other offset
        if offsets.dtype.kind not in "iu" and not (
                offsets.dtype.kind == "f" and np.all(np.abs(offsets) < 2.0**63)
                and np.all(offsets == np.trunc(offsets))):
            raise ValueError(f"offsets must be integers, got {offsets!r}")
        offsets = offsets.astype(np.int64, copy=False)
        weights = np.asarray(self.weights, dtype=np.complex128)
        if offsets.ndim != 1 or weights.ndim != 1:
            raise ValueError("offsets and weights must be 1-d arrays")
        if offsets.size == 0:
            raise ValueError("empty coefficient window")
        if offsets.size != weights.size:
            raise ValueError("offsets and weights must align")
        if np.any(np.diff(offsets) != 1):
            raise ValueError("offsets must be contiguous integers")
        norm = float(np.sum(np.abs(weights) ** 2))
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"weights not normalized: sum|c|^2 = {norm!r}")
        offsets.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "weights", weights)

    @property
    def probabilities(self) -> np.ndarray:
        """|c_k|^2 aligned with offsets."""
        return np.abs(self.weights) ** 2


def gaussian_packet(
    spec: AtomSpec, window_sigmas: float | None = None
) -> CoefficientSet:
    """Gaussian excitation distribution |c_k|^2 ~ exp(-k^2 / (2 sigma^2)).

    The window spans k = -h .. +h.  By default h is the smallest half-width
    that drops at most MAX_DROPPED_MASS of the discrete Gaussian mass
    (h = 11 at sigma = 1.5, 18 at 2.5, 36 at 5); an explicit window_sigmas
    w sets h = ceil(w*sigma) instead; w must be finite and in (0, 12], the
    default search reach (ValueError).  The window is clipped so every
    populated state has n >= 1 and n - defect > 0; states outside that range
    do not exist, so they count as neither kept nor dropped.  The squared
    weights are renormalized to unit sum.  Amplitudes are the positive
    square roots (real phase convention, which localizes the packet at
    phi = 0 at t = 0).
    """
    if window_sigmas is not None and not 0.0 < window_sigmas <= _SEARCH_SIGMAS:
        raise ValueError(f"window_sigmas must be finite and in (0, {_SEARCH_SIGMAS:g}], "
                         f"got {window_sigmas}")
    reach = math.ceil(
        (_SEARCH_SIGMAS if window_sigmas is None else window_sigmas) * spec.sigma
    )
    k = np.arange(-reach, reach + 1)
    n = spec.nbar + k
    k = k[(n >= 1.0) & (n - spec.defect > 0.0)]
    if k.size == 0:
        raise ValueError("coefficient window is empty after clipping")
    p = np.exp(-(k.astype(float) ** 2) / (2.0 * spec.sigma**2))
    if window_sigmas is None:
        # shell[j] is the mass at |k| = j, beyond[h] the mass at |k| > h.
        shell = np.bincount(np.abs(k), weights=p)
        beyond = np.append(np.cumsum(shell[:0:-1])[::-1], 0.0)
        half = int(np.argmax(beyond <= MAX_DROPPED_MASS * shell.sum()))
        keep = np.abs(k) <= half
        k, p = k[keep], p[keep]
    p /= p.sum()
    return CoefficientSet(offsets=k, weights=np.sqrt(p))


def pulse_duration(spec: AtomSpec) -> float:
    """Excitation-pulse duration in seconds matching the packet width.

    Calibration rule: (n*)^3 / (2 sigma) atomic units of time -- the
    one-parameter time-bandwidth relation anchored to 160 ps at
    (nbar=320, sigma=2.5) and 900 fs at (nbar=48, sigma=1.5).  It is a
    calibration, not a laser-physics model.
    """
    return to_si(spec.nstar**3 / (2.0 * spec.sigma))

"""Excitation-coefficient distributions and the pulse-duration calibration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import AtomSpec, to_si

# Default truncation: the Gaussian tail beyond 5 sigma is < 4e-6 of the peak.
DEFAULT_WINDOW_SIGMAS = 5.0


@dataclass(frozen=True)
class CoefficientSet:
    """Eigenstate amplitudes c_k indexed by the offset k = n - nbar.

    Offsets are contiguous integers, symmetric about 0 unless the window had
    to be clipped at small n.  Amplitudes are normalized so sum|c_k|^2 = 1;
    under the default phase convention they are real and nonnegative.
    """

    nbar: float
    offsets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        offsets = np.asarray(self.offsets, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.complex128)
        if offsets.size == 0:
            raise ValueError("empty coefficient window")
        if offsets.size != weights.size:
            raise ValueError("offsets and weights must align")
        if np.any(np.diff(offsets) != 1):
            raise ValueError("offsets must be contiguous integers")
        norm = float(np.sum(np.abs(weights) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"weights not normalized: sum|c|^2 = {norm!r}")
        offsets.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "weights", weights)

    @property
    def probabilities(self) -> np.ndarray:
        """|c_k|^2 aligned with offsets."""
        return np.abs(self.weights) ** 2

    def to_dict(self) -> dict:
        """JSON-ready record (offsets plus [re, im] amplitude pairs)."""
        return {
            "nbar": self.nbar,
            "offsets": [int(k) for k in self.offsets],
            "weights": [[float(c.real), float(c.imag)] for c in self.weights],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "CoefficientSet":
        weights = np.array([complex(re, im) for re, im in record["weights"]])
        return cls(
            nbar=float(record["nbar"]),
            offsets=np.array(record["offsets"], dtype=np.int64),
            weights=weights,
        )


def gaussian_packet(
    spec: AtomSpec, window_sigmas: float = DEFAULT_WINDOW_SIGMAS
) -> CoefficientSet:
    """Gaussian excitation distribution |c_k|^2 ~ exp(-k^2 / (2 sigma^2)).

    The window spans k = -ceil(w*sigma) .. +ceil(w*sigma), clipped so every
    populated state has n >= 1 and n - defect > 0, and the squared weights
    are renormalized to unit sum.  Amplitudes are the positive square roots
    (real phase convention, which localizes the packet at phi = 0 at t = 0).
    """
    half = math.ceil(window_sigmas * spec.sigma)
    k = np.arange(-half, half + 1)
    n = spec.nbar + k
    k = k[(n >= 1.0) & (n - spec.defect > 0.0)]
    if k.size == 0:
        raise ValueError("coefficient window is empty after clipping")
    p = np.exp(-(k.astype(float) ** 2) / (2.0 * spec.sigma**2))
    p /= p.sum()
    return CoefficientSet(nbar=spec.nbar, offsets=k, weights=np.sqrt(p))


def pulse_duration(spec: AtomSpec) -> float:
    """Excitation-pulse duration in seconds matching the packet width.

    Calibration rule: (n*)^3 / (2 sigma) atomic units of time -- the
    one-parameter time-bandwidth relation anchored to 160 ps at
    (nbar=320, sigma=2.5) and 900 fs at (nbar=48, sigma=1.5).  It is a
    calibration, not a laser-physics model.
    """
    return to_si(spec.nstar**3 / (2.0 * spec.sigma))

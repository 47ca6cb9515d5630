"""Subsidiary-packet theory of full and fractional superrevivals.

Near t = t_sr/q (q a multiple of 3) the wave packet decomposes into l
classically-evolving subsidiary packets shifted by multiples of
(alpha/l) T_cl, with complex weights

    b_s = (1/l) sum_{k'=0}^{l-1} exp[ 2*pi*i ( alpha*s*k'/l
                                              + 3*nbar*k'^2/(4q)
                                              - k'^3/q ) ].

The integer constants come from the prime structure of 2*nbar:

    l = q   (if 9 does not divide q),   l = q/3   (if 9 divides q),
    N = product over primes p | gcd-support of both 2*nbar and l of
        p^(multiplicity of p in 2*nbar),
    alpha = 2*nbar / N.

Taking the full prime power of every shared prime from 2*nbar makes
gcd(alpha, l) = 1, which is what guarantees sum_s |b_s|^2 = 1 and a single
nonzero weight at q = 6 (the full superrevival).  One nonzero weight means
the packet reforms as a single copy; several mean distinct subsidiary
packets (a fractional superrevival).  Either way the autocorrelation
acquires peaks with periodicity approximately (3/q) t_rev.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .spectrum import AtomSpec, timescales_from_nstar

if TYPE_CHECKING:
    from .packet import CoefficientSet

# |b_s| above this counts as nonzero; exact DFT zeros read ~2e-16 after
# the FFT, so about seven orders of margin remain.
NONZERO_WEIGHT_EPS = 1e-9


@dataclass(frozen=True)
class FractionSpec:
    """Denominator q of a candidate superrevival time t = t_sr / q; an
    integral float is taken as its int."""

    q: int

    def __post_init__(self):
        if not (isinstance(self.q, (int, np.integer))
                or isinstance(self.q, float) and self.q.is_integer()):
            raise ValueError(f"q must be an integer, got {self.q!r}")
        object.__setattr__(self, "q", int(self.q))
        if self.q <= 0:
            raise ValueError(f"q must be positive, got {self.q}")
        if self.q % 3 != 0:
            raise ValueError(f"q must be a multiple of 3, got {self.q}")


class IntegerConstants(NamedTuple):
    l: int
    N: int
    alpha: int


@dataclass(frozen=True)
class SuperrevivalTiming:
    """Predicted time center t_sr/q and comb periodicity (3/q) t_rev of one q."""

    q: int
    time_center: float
    periodicity: float


@dataclass(frozen=True)
class SuperrevivalPrediction(SuperrevivalTiming):
    """A timing with the subsidiary-packet weights b_s and their integers."""

    l: int
    alpha: int
    N: int
    b: np.ndarray
    kind: str


def _as_q(q) -> int:
    return (q if isinstance(q, FractionSpec) else FractionSpec(q)).q


def _as_integer_nbar(nbar) -> int:
    if isinstance(nbar, float) and not nbar.is_integer():
        raise ValueError(
            f"the subsidiary-packet integer arithmetic needs integer nbar, got {nbar}"
        )
    if nbar < 1:
        raise ValueError(f"nbar must be a positive integer, got {int(nbar)}")
    return int(nbar)


def integer_constants(nbar, q) -> IntegerConstants:
    """The integers (l, N, alpha) controlling the subsidiary-packet sum."""
    nbar = _as_integer_nbar(nbar)
    q = _as_q(q)
    l = q // 3 if q % 9 == 0 else q
    # N is the part of 2*nbar made of primes that divide l: divide out their
    # common factors until none is left.
    N, rest = 1, 2 * nbar
    g = math.gcd(rest, l)
    while g > 1:
        N *= g
        rest //= g
        g = math.gcd(rest, g)
    return IntegerConstants(l=l, N=N, alpha=(2 * nbar) // N)


def timing(nstar, q) -> SuperrevivalTiming:
    """The time center t_sr/q and periodicity (3/q) t_rev at effective
    quantum number nstar: all that verify reads of a prediction."""
    q = _as_q(q)
    scales = timescales_from_nstar(float(nstar))
    return SuperrevivalTiming(
        q=q, time_center=scales.t_sr / q, periodicity=(3.0 / q) * scales.t_rev
    )


def weights(nbar, q) -> SuperrevivalPrediction:
    """Subsidiary-packet weights b_s, with the timing(nbar, q) they hold at.

    The chirp phase 3*nbar*k'^2/(4q) - k'^3/q is held as an exact integer
    numerator mod m = 4q; each factor is reduced mod m before multiplying,
    so every intermediate stays below m^2 and int64 is exact for q up to
    ~7e8.  With large nbar a float phase would lose its fractional part to
    rounding.  Because l divides q, the shift term alpha*s*k'/l is a DFT
    kernel, so b is one inverse l-point FFT of the unimodular chirp, read
    at s -> alpha*s mod l: O(l log l).

    Precondition: b is the subsidiary-packet expansion only where the chirp
    is l-periodic in k', that is for nbar = 0 (mod 4), or nbar = 2 (mod 4)
    and q even.  Other pairs get weights all the same, but they do not
    expand the packet: reconstruct at t_sr/q reads 0.85-1.4 there (nbar =
    321-323, q = 6-21), against <= 4e-13 on the valid pairs.
    """
    nbar = _as_integer_nbar(nbar)
    q = _as_q(q)
    l, N, alpha = integer_constants(nbar, q)
    m = 4 * q
    k = np.arange(l, dtype=np.int64)
    chirp = ((3 * nbar) % m * (k * k % m) - 4 * (k * k % q) * k) % m
    b = np.fft.ifft(np.exp(2j * np.pi * chirp / m))[alpha % l * k % l]
    nonzero = int(np.count_nonzero(np.abs(b) > NONZERO_WEIGHT_EPS))
    return SuperrevivalPrediction(
        **vars(timing(nbar, q)),
        l=l,
        alpha=alpha,
        N=N,
        b=b,
        kind="full" if nonzero == 1 else "fractional",
    )


def timing_table(spec: AtomSpec, q_list: Sequence) -> list[SuperrevivalTiming]:
    """One timing per q, sorted by time center (a stable sort).

    Requires an integer effective quantum number, for which weights exist;
    the quantum-defect case is admitted only when nbar - defect lands on an
    integer.  Then q by q: the q is checked, then that integer (>= 1).
    """
    nstar = spec.nstar
    if abs(nstar - round(nstar)) > 1e-9:
        raise ValueError(
            f"integer effective quantum number required, got nstar = {nstar}"
        )
    nbar, timings = round(nstar), []
    for q in map(_as_q, q_list):
        if nbar < 1:
            raise ValueError(
                f"integer effective quantum number >= 1 required, got nstar = {nstar}"
            )
        timings.append(timing(nbar, q))
    timings.sort(key=lambda t: t.time_center)
    return timings


def prediction_table(
    spec: AtomSpec, q_list: Sequence
) -> list[SuperrevivalPrediction]:
    """weights for each q, in the order (and under the checks) of
    timing_table(spec, q_list)."""
    timings = timing_table(spec, q_list)
    return [weights(round(spec.nstar), t.q) for t in timings]


def reconstruct(
    coeffs: CoefficientSet,
    prediction: SuperrevivalPrediction,
    spec: AtomSpec,
    t: float,
) -> float:
    """Residual of the subsidiary-packet expansion at time t.

    Per offset k the third-order phase factor is compared with the
    superposition sum_s b_s exp(-2*pi*i k (t + s*alpha*T_cl/l) / T_cl), one
    l-point FFT of b read at k*alpha mod l.  The return value is the
    |c_k|-weighted root-sum-square difference, i.e. the L2 distance between
    the order-3 wave function and its subsidiary-packet reconstruction.  At
    exactly t = t_sr/q the quadratic-plus-cubic phase factor is periodic in
    k with period l and the b_s are its inverse discrete Fourier expansion,
    so the residual vanishes to rounding level.  The expansion is local: t
    must lie within t_rev of the prediction's time center.
    """
    # Imported here: weights and prediction_table run no phase model, so
    # `predict` never loads the kernel's layers.
    from .autocorr import PhaseModel, phase_cycles

    scales = timescales_from_nstar(spec.nstar)
    if not abs(t - prediction.time_center) <= scales.t_rev * (1.0 + 1e-9):
        raise ValueError("t outside the expansion's validity window "
                         "(|t - t_sr/q| <= t_rev)")
    l, alpha, b = prediction.l, prediction.alpha, prediction.b
    k = coeffs.offsets
    lin = np.exp(-2j * np.pi * phase_cycles(PhaseModel.ORDER1, k, t, spec))
    order3_factor = np.exp(-2j * np.pi * phase_cycles(PhaseModel.ORDER3, k, t, spec))
    # sum_s b_s exp(-2*pi*i (k*alpha mod l) s / l) is the DFT of b at k*alpha
    superposition = lin * np.fft.fft(b)[(k % l) * (alpha % l) % l]
    return math.sqrt(float(np.sum(
        coeffs.probabilities * np.abs(order3_factor - superposition) ** 2
    )))

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
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .autocorr import PhaseModel, phase_cycles
from .packet import CoefficientSet
from .spectrum import AtomSpec, timescales_from_nstar, to_si

# |b_s| above this counts as nonzero; exact DFT zeros only pick up ~1e-15
# of rounding, so nine orders of margin remain.
NONZERO_WEIGHT_EPS = 1e-9


@dataclass(frozen=True)
class FractionSpec:
    """Denominator q of a candidate superrevival time t = t_sr / q."""

    q: int

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError(f"q must be positive, got {self.q}")
        if self.q % 3 != 0:
            raise ValueError(f"q must be a multiple of 3, got {self.q}")


class IntegerConstants(NamedTuple):
    l: int
    N: int
    alpha: int


@dataclass(frozen=True)
class SuperrevivalPrediction:
    """Predicted structure at t ~ t_sr/q: weights, time window, periodicity."""

    q: int
    l: int
    alpha: int
    N: int
    b: np.ndarray
    time_center: float
    periodicity: float
    kind: str

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "l": self.l,
            "alpha": self.alpha,
            "N": self.N,
            "b": [[float(v.real), float(v.imag)] for v in self.b],
            "time_center_si": to_si(self.time_center),
            "periodicity_si": to_si(self.periodicity),
            "kind": self.kind,
        }


def _as_q(q) -> int:
    q = q.q if isinstance(q, FractionSpec) else int(q)
    FractionSpec(q)  # validates positivity and divisibility by 3
    return q


def _as_integer_nbar(nbar) -> int:
    if isinstance(nbar, float) and not nbar.is_integer():
        raise ValueError(
            f"the subsidiary-packet integer arithmetic needs integer nbar, got {nbar}"
        )
    return int(nbar)


def _prime_factors(m: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def integer_constants(nbar, q) -> IntegerConstants:
    """The integers (l, N, alpha) controlling the subsidiary-packet sum."""
    nbar = _as_integer_nbar(nbar)
    if nbar < 1:
        raise ValueError(f"nbar must be a positive integer, got {nbar}")
    q = _as_q(q)
    l = q // 3 if q % 9 == 0 else q
    N = 1
    for p, mult in _prime_factors(2 * nbar).items():
        if l % p == 0:
            N *= p**mult
    return IntegerConstants(l=l, N=N, alpha=(2 * nbar) // N)


def weights(nbar, q) -> SuperrevivalPrediction:
    """Subsidiary-packet weights b_s and the predicted time/periodicity.

    The three phase fractions are held as exact rationals and reduced
    modulo 1 before exponentiation; with large nbar the quadratic fraction
    3*nbar/(4q) would otherwise lose its fractional part to rounding.
    """
    nbar = _as_integer_nbar(nbar)
    q = _as_q(q)
    l, N, alpha = integer_constants(nbar, q)
    b = np.zeros(l, dtype=np.complex128)
    for s in range(l):
        acc = 0.0 + 0.0j
        for kp in range(l):
            frac = (
                Fraction(alpha * s * kp, l)
                + Fraction(3 * nbar * kp * kp, 4 * q)
                - Fraction(kp**3, q)
            ) % 1
            acc += np.exp(2j * np.pi * float(frac))
        b[s] = acc / l
    nonzero = int(np.count_nonzero(np.abs(b) > NONZERO_WEIGHT_EPS))
    scales = timescales_from_nstar(float(nbar))
    return SuperrevivalPrediction(
        q=q,
        l=l,
        alpha=alpha,
        N=N,
        b=b,
        time_center=scales.t_sr / q,
        periodicity=(3.0 / q) * scales.t_rev,
        kind="full" if nonzero == 1 else "fractional",
    )


def prediction_table(
    spec: AtomSpec, q_list: Sequence
) -> list[SuperrevivalPrediction]:
    """One prediction per q, sorted by time center.

    Requires an integer effective quantum number; the quantum-defect case is
    admitted only when nbar - defect lands on an integer.
    """
    nstar = spec.nstar
    if abs(nstar - round(nstar)) > 1e-9:
        raise ValueError(
            f"integer effective quantum number required, got nstar = {nstar}"
        )
    preds = [weights(int(round(nstar)), q) for q in q_list]
    preds.sort(key=lambda p: p.time_center)
    return preds


def reconstruct(
    coeffs: CoefficientSet,
    prediction: SuperrevivalPrediction,
    spec: AtomSpec,
    t: float,
) -> float:
    """Residual of the subsidiary-packet expansion at time t.

    Per offset k the third-order phase factor is compared with the
    superposition sum_s b_s exp(-2*pi*i k (t + s*alpha*T_cl/l) / T_cl); the
    return value is the |c_k|-weighted root-sum-square difference, i.e. the
    L2 distance between the order-3 wave function and its subsidiary-packet
    reconstruction.  At exactly t = t_sr/q the quadratic-plus-cubic phase
    factor is periodic in k with period l and the b_s are its inverse
    discrete Fourier expansion, so the residual vanishes to rounding level.
    The expansion is local: t must lie within t_rev of the prediction's
    time center.
    """
    scales = timescales_from_nstar(spec.nstar)
    if abs(t - prediction.time_center) > scales.t_rev * (1.0 + 1e-9):
        raise ValueError("t outside the expansion's validity window "
                         "(|t - t_sr/q| <= t_rev)")
    l, alpha, b = prediction.l, prediction.alpha, prediction.b
    k = coeffs.offsets
    lin = np.exp(-2j * np.pi * phase_cycles(PhaseModel.ORDER1, k, t, spec))
    order3_factor = np.exp(-2j * np.pi * phase_cycles(PhaseModel.ORDER3, k, t, spec))
    # (k * s * alpha) mod l, reduced before multiplying so int64 cannot wrap
    shift_steps = (np.outer(k, np.arange(l)) % l) * (alpha % l) % l
    shifts = np.exp(-2j * np.pi * shift_steps / l)
    superposition = lin * (shifts @ b)
    return math.sqrt(float(np.sum(
        coeffs.probabilities * np.abs(order3_factor - superposition) ** 2
    )))

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

Every phase of the sum is an integer multiple of 2*pi/(4q), so each term is
a 4q-th root of unity.  One private DFT, _chirp_dft, sums them directly in
the standard library up to l = _DIRECT_MAX_L and takes numpy's inverse FFT
above it; numpy is imported there and in reconstruct only, so a `predict`
at small q loads no numpy.  b is a tuple of complex either way.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .spectrum import AtomSpec, _check_number, _is_bool, _Record, timescales_from_nstar

if TYPE_CHECKING:
    from .packet import CoefficientSet

# |b_s| above this counts as nonzero.  Exact DFT zeros read <= 4e-17 from
# the direct sum and <= 1.7e-16 from the FFT (nbar = 320, q = 3..150), so
# about seven orders of margin remain.
NONZERO_WEIGHT_EPS = 1e-9

# Largest l whose b_s are summed directly (O(l^2), standard library only);
# larger l take numpy's FFT (O(l log l)).  650 is where one q's direct sum
# costs a cold `predict` as much as importing numpy.fft: on a 2-vCPU Xeon
# host (`predict --nbar 320 --sigma 2.5 --q Q`, 15 paired cold runs with
# one OpenBLAS thread) the direct sum was 3 ms faster at l = 633 and 4 ms
# slower at l = 669, at ~170 ns per term.  With OpenBLAS's default threads
# the import cost up to ~70 ms more, which only moves the crossover up.
_DIRECT_MAX_L = 650


class FractionSpec(_Record):
    """Denominator q of a candidate superrevival time t = t_sr / q; an
    integral float is taken as its int."""

    q: int

    def __post_init__(self):
        q = int(self.q) if isinstance(self.q, float) and self.q.is_integer() else self.q
        try:
            if isinstance(q, bool):  # operator.index takes a bool as 0 or 1
                raise TypeError
            q = operator.index(q)
        except TypeError:
            raise ValueError(f"q must be an integer, got {self.q!r}") from None
        object.__setattr__(self, "q", q)
        if self.q <= 0:
            raise ValueError(f"q must be positive, got {self.q}")
        if self.q % 3 != 0:
            raise ValueError(f"q must be a multiple of 3, got {self.q}")


class IntegerConstants(NamedTuple):
    l: int
    N: int
    alpha: int


class SuperrevivalTiming(_Record):
    """Predicted time center t_sr/q and comb periodicity (3/q) t_rev of one q."""

    q: int
    time_center: float
    periodicity: float


class SuperrevivalPrediction(SuperrevivalTiming):
    """A timing with the subsidiary-packet weights b_s and their integers."""

    l: int
    alpha: int
    N: int
    b: tuple[complex, ...]
    kind: str


def _as_q(q) -> int:
    return (q if isinstance(q, FractionSpec) else FractionSpec(q)).q


def _as_integer_nbar(nbar) -> int:
    """nbar as an int.  ValueError for a bool or numpy.bool_, for a value of
    any type that does not equal its int (a fraction, NaN, inf), which int()
    would truncate to another nbar, and for nbar < 1."""
    try:
        integer = int(nbar)
    except (TypeError, ValueError, OverflowError):
        integer = None
    if _is_bool(nbar) or integer is None or integer != nbar:
        raise ValueError(
            f"the subsidiary-packet integer arithmetic needs integer nbar, got {nbar!r}"
        )
    if integer < 1:
        raise ValueError(f"nbar must be a positive integer, got {integer}")
    return integer


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
    quantum number nstar (a number: not a bool, str or bytes): all that
    verify reads of a prediction."""
    _check_number("nstar", nstar)
    q = _as_q(q)
    scales = timescales_from_nstar(float(nstar))
    return SuperrevivalTiming(
        q=q, time_center=scales.t_sr / q, periodicity=(3.0 / q) * scales.t_rev
    )


def _unit_circle(m: int) -> tuple[list[float], list[float]]:
    """cos and sin of 2*pi*j/m for j in range(m), m a multiple of 4.  Each
    value is computed from an angle of at most pi/4, which keeps its error
    near half an ulp (a turn's angle would carry ~7e-16), and the
    quarter-turn symmetries hold exactly in the table."""
    quarter = m // 4
    c = [math.cos(math.tau * j / m) if 2 * j <= quarter
         else math.sin(math.tau * (quarter - j) / m) for j in range(quarter)]
    s = [0.0, *c[:0:-1]]
    minus_c, minus_s = [-x for x in c], [-x for x in s]
    return c + minus_s + minus_c + s, s + c + minus_s + minus_c


def _chirp_dft(a2: int, a3: int, m: int, L: int, alpha: int) -> tuple[complex, ...]:
    """The inverse L-point DFT of the chirp omega^chirp_k, read at s ->
    alpha*s mod L: b_s = (1/L) sum_{k<L} omega^(chirp_k + (m/L)*alpha*s*k)
    for s in range(L), with omega = exp(2*pi*i/m), chirp_k = (a2*k^2 +
    a3*k^3) mod m, and m a multiple of 4 and of L.

    The exponents are exact integers mod m; at large a2 a float phase would
    lose its fractional part to rounding.  Up to L = _DIRECT_MAX_L the sum
    is direct: row s holds the exponents, each next row adds (m/L)*alpha*k,
    and each term's cos and sin are read from one table of the m roots of
    unity and added with math.fsum, in O(L^2) without numpy.  Above it, b is
    one numpy inverse FFT, in O(L log L), of the chirp reduced mod m in
    int64 (exact for m up to ~3e9), indexed at alpha*s mod L.
    """
    if L <= _DIRECT_MAX_L:
        cos, sin = _unit_circle(m)
        row = [(a2 + a3 * k) * k * k % m for k in range(L)]
        step = [m // L * alpha * k % m for k in range(L)]
        b = []
        for _ in range(L):
            b.append(complex(math.fsum(map(cos.__getitem__, row)) / L,
                             math.fsum(map(sin.__getitem__, row)) / L))
            row = [(j + d) % m for j, d in zip(row, step)]
        return tuple(b)
    import numpy as np

    k = np.arange(L, dtype=np.int64)
    chirp = (a2 % m + a3 % m * k) % m * (k * k % m) % m
    return tuple(np.fft.ifft(np.exp(2j * np.pi * chirp / m))[alpha % L * k % L].tolist())


def weights(nbar, q) -> SuperrevivalPrediction:
    """Subsidiary-packet weights b_s, with the timing(nbar, q) they hold at.

    The chirp phase 3*nbar*k'^2/(4q) - k'^3/q is an integer numerator mod
    m = 4q.  Because l divides q, the shift term alpha*s*k'/l is a DFT
    kernel, so b is _chirp_dft(3*nbar, -4, m, l, alpha), a tuple of complex.

    Precondition: b is the subsidiary-packet expansion only where the chirp
    is l-periodic in k', that is for nbar = 0 (mod 4), or nbar = 2 (mod 4)
    and q even.  Other pairs get weights all the same, but they do not
    expand the packet: reconstruct at t_sr/q reads 0.85-1.4 there (nbar =
    321-323, q = 6-21), against <= 4e-13 on the valid pairs.
    """
    nbar = _as_integer_nbar(nbar)
    q = _as_q(q)
    l, N, alpha = integer_constants(nbar, q)
    b = _chirp_dft(3 * nbar, -4, 4 * q, l, alpha)
    # one nonzero weight is a full superrevival; a second settles the kind
    nonzero = (v for v in b if abs(v) > NONZERO_WEIGHT_EPS)
    full = next(nonzero, None) is not None and next(nonzero, None) is None
    return SuperrevivalPrediction(**vars(timing(nbar, q)), l=l, alpha=alpha, N=N, b=b,
                                  kind="full" if full else "fractional")


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
    # Imported here: weights and prediction_table run no phase model and
    # (up to _DIRECT_MAX_L) no FFT, so `predict` loads neither the kernel's
    # layers nor numpy.
    import numpy as np

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

"""Independent correctness oracles for the benchmark.

None of these import rydlab.  Each recomputes a quantity the program
outputs from the physics or the number theory directly:

* |A(t)|^2 in mpmath at 40 digits, with exact hydrogenic energies and the
  full Gaussian (no window), at exact grid times t0 + dt * i;
* the circular-packet ring amplitude Psi(phi) in mpmath, from the textbook
  radial function and spherical harmonic (factorials, not log-gamma);
* the weights b_s, with every phase reduced mod 1 exactly in integers;
* the properties a kept peak train must have.

Tolerances are derived, not tuned: a coefficient window may drop at most
the Gaussian tail beyond the seed's ceil(5 sigma) window, which moves
|A|^2 by a few times that tail mass and Psi by the summed tail amplitudes.
The extra 1e-9 admits sampling the exact grid time instead of the rounded
float time (a change of up to 4e-11 in |A|^2 at t ~ 5 ms).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import mpmath

# CODATA 2018 atomic unit of time, seconds: the unit of every --t flag.
ATOMIC_UNIT_OF_TIME = 2.4188843265857e-17

# The narrowest coefficient window any version may use, in sigmas.
SEED_WINDOW_SIGMAS = 5.0

# The oracle's own window: the Gaussian beyond 12 sigma is below 1e-31.
ORACLE_WINDOW_SIGMAS = 12.0

GRID_TIME_SLACK = 1e-9
WEIGHT_TOL = 1e-12


def kepler_period(nbar: float) -> float:
    """T_cl = 2 pi nbar^3, atomic units."""
    return 2.0 * math.pi * nbar**3


def _offsets(nbar: float, sigma: float, sigmas: float) -> range:
    half = math.ceil(sigmas * sigma)
    return range(max(-half, 1 - int(nbar)), half + 1)


def _gauss(k: int, sigma: float) -> float:
    return math.exp(-k * k / (2.0 * sigma * sigma))


def tail_mass(nbar: float, sigma: float) -> float:
    """Gaussian probability outside the seed's |k| <= ceil(5 sigma) window."""
    half = math.ceil(SEED_WINDOW_SIGMAS * sigma)
    return dropped_mass(nbar, sigma, max(-half, 1 - int(nbar)), half)


def a2_tolerance(nbar: float, sigma: float) -> float:
    """Allowed |A|^2 deviation from the full-Gaussian oracle."""
    return GRID_TIME_SLACK + 5.0 * tail_mass(nbar, sigma)


def _cycle_rate(n0, k: int, model: str):
    """theta_k / (2 pi t): exact energy difference or its Taylor truncation."""
    if model == "exact":
        return (1 / n0**2 - 1 / (n0 + k) ** 2) / (4 * mpmath.pi)
    t_cl = 2 * mpmath.pi * n0**3
    t_rev = 2 * n0 / 3 * t_cl
    t_sr = 3 * n0 / 4 * t_rev
    terms = (k / t_cl, -(k**2) / t_rev, k**3 / t_sr)
    return mpmath.fsum(terms[: int(model[-1])])


@lru_cache(maxsize=None)
def a2_exact(nbar: float, sigma: float, model: str, t0: float, dt: float, index: int) -> float:
    """|A(t0 + dt * index)|^2 for the full Gaussian packet; model is
    "exact" (hydrogenic energies) or "order1".."order3" (Taylor phases)."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t0) + mpmath.mpf(dt) * index
        n0 = mpmath.mpf(nbar)
        ks = _offsets(nbar, sigma, ORACLE_WINDOW_SIGMAS)
        p = [mpmath.exp(-mpmath.mpf(k * k) / (2 * mpmath.mpf(sigma) ** 2)) for k in ks]
        amp = mpmath.fsum(
            pk * mpmath.expj(-2 * mpmath.pi * _cycle_rate(n0, k, model) * t)
            for k, pk in zip(ks, p)
        )
        return float(abs(amp / mpmath.fsum(p)) ** 2)


def dropped_mass(nbar: float, sigma: float, lo: int, hi: int) -> float:
    """Gaussian probability outside the offsets lo..hi a packet kept."""
    full = _offsets(nbar, sigma, ORACLE_WINDOW_SIGMAS)
    total = math.fsum(_gauss(k, sigma) for k in full)
    return (total - math.fsum(_gauss(k, sigma) for k in range(lo, hi + 1))) / total


def grid_from_si(tmin: float, tmax: float, samples: int) -> tuple[float, float]:
    """(t0, dt) in atomic units of the CLI's --tmin/--tmax/--samples grid."""
    t0 = tmin / ATOMIC_UNIT_OF_TIME
    dt = 1.0 if samples == 1 else (tmax - tmin) / ATOMIC_UNIT_OF_TIME / (samples - 1)
    return t0, dt


def _ring_magnitude(n: int, r) -> mpmath.mpf:
    """|r R_{n,n-1}(r) Y_{n-1}^{n-1}(pi/2, 0)| from factorials."""
    radial = (
        mpmath.sqrt((mpmath.mpf(2) / n) ** 3 / mpmath.factorial(2 * n))
        * mpmath.exp(-r / n)
        * (2 * r / n) ** (n - 1)
    )
    l = n - 1
    angular = mpmath.sqrt(mpmath.factorial(2 * l + 1) / (4 * mpmath.pi)) / (
        2**l * mpmath.factorial(l)
    )
    return r * radial * angular


@lru_cache(maxsize=None)
def _slice_terms(nbar: int, sigma: float, t_au: float):
    """(n, c_k * w_k, theta_k) per state, w_k scaled to the largest state."""
    with mpmath.workdps(40):
        r = mpmath.mpf(nbar) * (2 * nbar + 1) / 2
        ks = list(_offsets(nbar, sigma, ORACLE_WINDOW_SIGMAS))
        g = [mpmath.exp(-mpmath.mpf(k * k) / (2 * mpmath.mpf(sigma) ** 2)) for k in ks]
        norm = mpmath.fsum(g)
        mags = [_ring_magnitude(nbar + k, r) for k in ks]
        top = max(mags)  # the central state, inside every window
        n0 = mpmath.mpf(nbar)
        t = mpmath.mpf(t_au)
        terms = []
        for k, gk, m in zip(ks, g, mags):
            theta = 2 * mpmath.pi * _cycle_rate(n0, k, "exact") * t
            terms.append((nbar + k, mpmath.sqrt(gk / norm) * m / top, theta))
        return terms


def slice_exact(nbar: int, sigma: float, t_au: float, phi: float) -> complex:
    """Psi(phi) on the expectation-radius ring, scaled as the CLI scales it."""
    with mpmath.workdps(40):
        psi = mpmath.fsum(
            amp * mpmath.expj((n - 1) * mpmath.mpf(phi) - theta)
            for n, amp, theta in _slice_terms(nbar, sigma, t_au)
        )
        return complex(psi)


def slice_tolerance(nbar: int, sigma: float, t_au: float) -> float:
    """Summed amplitude of the states outside the seed window, plus rounding."""
    half = math.ceil(SEED_WINDOW_SIGMAS * sigma)
    terms = _slice_terms(nbar, sigma, t_au)
    outside = sum(float(amp) for n, amp, _ in terms if abs(n - nbar) > half)
    scale = sum(float(amp) for _, amp, _ in terms)
    return 2.0 * outside + 1e-9 * scale


def integer_constants(nbar: int, q: int) -> tuple[int, int, int]:
    """(l, N, alpha) from the prime factorisation of 2 nbar."""
    l = q // 3 if q % 9 == 0 else q
    m, N, d = 2 * nbar, 1, 2
    while d * d <= m:
        power = 1
        while m % d == 0:
            m //= d
            power *= d
        if l % d == 0:
            N *= power
        d += 1
    if m > 1 and l % m == 0:
        N *= m
    return l, N, (2 * nbar) // N


@lru_cache(maxsize=None)
def weights_exact(nbar: int, q: int) -> tuple[complex, ...]:
    """b_s with each phase reduced mod 1 over the common denominator 4 q l."""
    l, _, alpha = integer_constants(nbar, q)
    den = 4 * q * l
    out = []
    for s in range(l):
        acc = 0j
        for k in range(l):
            num = (4 * q * alpha * s * k + 3 * nbar * k * k * l - 4 * l * k**3) % den
            acc += cmath.exp(2j * math.pi * num / den)
        out.append(acc / l)
    return tuple(out)


def peak_train_errors(times, heights, level, min_sep, dt, period) -> list[str]:
    """Property violations of a kept peak train (empty list when it holds)."""
    errors = []
    if len(times) < 3:
        return [f"only {len(times)} peaks kept"]
    gaps = [b - a for a, b in zip(times, times[1:])]
    # refinement moves each peak by at most half a sample
    if min(gaps) < min_sep - dt:
        errors.append(f"kept peaks {min(gaps)} apart, separation {min_sep}")
    if min(heights) < level * (1.0 - 1e-12):
        errors.append(f"peak height {min(heights)} below level {level}")
    spacing = sorted(gaps)[len(gaps) // 2]
    if abs(spacing - period) > 0.01 * period:
        errors.append(f"median spacing {spacing} not within 1% of {period}")
    return errors

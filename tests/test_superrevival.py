"""Subsidiary-packet weights, integer constants, and the reconstruction identity."""

import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydlab import (
    AtomSpec,
    FractionSpec,
    PhaseModel,
    SuperrevivalTiming,
    gaussian_packet,
    integer_constants,
    prediction_table,
    reconstruct,
    timescales,
    timing,
    timing_table,
    to_si,
    weights,
)
from rydlab.autocorr import phase_cycles
from rydlab.superrevival import _DIRECT_MAX_L, NONZERO_WEIGHT_EPS

REFERENCE_Q = (36, 18, 12, 9, 6)


def mp_weights(nbar, q, l, alpha):
    """Independent oracle: evaluate the weight sum at 50 digits without any
    rational reduction."""
    mp.mp.dps = 50
    out = []
    for s in range(l):
        acc = mp.mpc(0)
        for kp in range(l):
            x = (
                mp.mpf(alpha * s * kp) / l
                + mp.mpf(3 * nbar * kp * kp) / (4 * q)
                - mp.mpf(kp**3) / q
            )
            acc += mp.e ** (2j * mp.pi * x)
        out.append(complex(acc / l))
    return np.array(out)


def fraction_weights(nbar, q):
    """Exact-rational oracle: the direct O(l^2) double sum, with every phase
    reduced mod 1 as a Fraction before exponentiation."""
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
    return b


def assert_matches_fraction_oracle(nbar, q):
    pred = weights(nbar, q)
    oracle = fraction_weights(nbar, q)
    assert float(np.max(np.abs(pred.b - oracle))) <= 1e-14, f"nbar={nbar} q={q}"
    count = int(np.count_nonzero(np.abs(oracle) > NONZERO_WEIGHT_EPS))
    assert np.count_nonzero(np.abs(pred.b) > NONZERO_WEIGHT_EPS) == count
    assert pred.kind == ("full" if count == 1 else "fractional")


def test_integer_constants_320_q6():
    """2 nbar = 640 = 2^7 * 5 shares only the prime 2 with l = 6."""
    consts = integer_constants(320, 6)
    assert consts.l == 6
    assert consts.N == 128
    assert consts.alpha == 5


def test_integer_constants_320_q9():
    """9 | q switches l to q/3."""
    consts = integer_constants(320, 9)
    assert consts.l == 3
    assert consts.N == 1
    assert consts.alpha == 640


def test_integer_constants_48_q12():
    """2 nbar = 96 = 2^5 * 3 shares both primes with l = 12."""
    consts = integer_constants(48, 12)
    assert consts.l == 12
    assert consts.N == 96
    assert consts.alpha == 1


def test_integer_constants_coprimality():
    """Removing the full shared prime powers leaves gcd(alpha, l) = 1."""
    rng = np.random.default_rng(17)
    for _ in range(200):
        nbar = int(rng.integers(2, 2000))
        q = 3 * int(rng.integers(1, 20))
        consts = integer_constants(nbar, q)
        assert math.gcd(consts.alpha, consts.l) == 1
        assert consts.alpha * consts.N == 2 * nbar
        assert consts.l in (q, q // 3)


def trial_division_N(nbar, l):
    """N as the writer before the gcd loop found it: factor 2*nbar by trial
    division and keep the full power of each prime that divides l."""
    N, m, d = 1, 2 * nbar, 2
    while d * d <= m:
        power = 1
        while m % d == 0:
            power *= d
            m //= d
        if l % d == 0:
            N *= power
        d += 1 if d == 2 else 2
    if m > 1 and l % m == 0:
        N *= m
    return N


@settings(max_examples=300, deadline=None)
@given(powers=st.tuples(*[st.integers(0, 6)] * 4), cofactor=st.integers(1, 10**6),
       q=st.integers(1, 400).map(lambda j: 3 * j))
def test_integer_constants_N_matches_trial_division(powers, cofactor, q):
    """N from gcds is the trial-division N, for nbar with repeated small
    primes shared with l and a cofactor that may bring its own."""
    nbar = math.prod(p**k for p, k in zip((2, 3, 5, 7), powers)) * cofactor
    consts = integer_constants(nbar, q)
    assert consts.N == trial_division_N(nbar, consts.l)
    assert consts.N * consts.alpha == 2 * nbar


def test_integer_constants_at_prime_nbar_near_2_53():
    """A prime nbar near 2**53 costs a few gcds, where factoring 2*nbar by
    trial division would take ~10^8 steps."""
    nbar = 9007199254740881  # prime
    start = time.perf_counter()
    consts = [integer_constants(nbar, q) for q in (6, 18, 36, 300)]
    preds = prediction_table(AtomSpec(nbar, 2.5), [6, 12])
    assert time.perf_counter() - start < 1.0
    assert [c.N for c in consts] == [2, 2, 2, 2]
    assert all(c.alpha == nbar for c in consts)
    assert [p.N for p in preds] == [2, 2]


def test_integer_constants_domain_errors():
    with pytest.raises(ValueError):
        integer_constants(320, 5)  # not a multiple of 3
    with pytest.raises(ValueError):
        integer_constants(320, 0)
    with pytest.raises(ValueError):
        integer_constants(320.5, 6)  # integer theory only
    with pytest.raises(ValueError):
        FractionSpec(q=7)


def test_full_superrevival_single_weight():
    """q=6 concentrates all weight in one subsidiary packet, for both packets."""
    for nbar in (320, 48):
        pred = weights(nbar, 6)
        mags = np.abs(pred.b)
        nonzero = mags > 1e-9
        assert nonzero.sum() == 1
        assert mags.max() == pytest.approx(1.0, abs=1e-12)
        assert pred.kind == "full"


def test_fractional_superrevivals_multiple_weights():
    for q in (9, 12, 18, 36):
        pred = weights(320, q)
        assert (np.abs(pred.b) > 1e-9).sum() >= 2
        assert pred.kind == "fractional"


@pytest.mark.parametrize("nbar", [48, 320, 640])
def test_weights_match_fraction_oracle_every_q(nbar):
    """The FFT matches the exact-rational loop for every q = 3..150."""
    for q in range(3, 151, 3):
        assert_matches_fraction_oracle(nbar, q)


@settings(max_examples=30, deadline=None)
@given(nbar=st.integers(1, 2000), q=st.integers(1, 50).map(lambda j: 3 * j))
def test_weights_match_fraction_oracle_property(nbar, q):
    assert_matches_fraction_oracle(nbar, q)


def q_with_l_at(limit, above):
    """The q nearest limit with l = q (9 does not divide q), at most limit
    or, when above, past it."""
    q = limit - limit % 3 + (3 if above else 0)
    while q % 9 == 0:
        q += 3 if above else -3
    return q


@pytest.mark.parametrize("above", [False, True], ids=["direct", "fft"])
def test_weights_on_both_sides_of_the_direct_limit(above, monkeypatch):
    """l just below _DIRECT_MAX_L is summed directly, with no FFT; l just
    above it is one FFT.  Both match the exact-rational loop and give a
    tuple."""
    import numpy.fft

    q = q_with_l_at(_DIRECT_MAX_L, above)
    calls = []
    ifft = numpy.fft.ifft
    monkeypatch.setattr(numpy.fft, "ifft", lambda x: calls.append(len(x)) or ifft(x))
    assert_matches_fraction_oracle(320, q)
    pred = weights(320, q)
    assert (pred.l > _DIRECT_MAX_L) == above and pred.l >= _DIRECT_MAX_L - 6
    assert calls == ([q, q] if above else [])
    assert type(pred.b) is tuple and all(type(v) is complex for v in pred.b)
    assert pred.kind == "fractional"


def test_weights_at_large_l():
    """l = 299973, out of the exact loop's reach: five b_s against a
    single-s sum of phases reduced mod 1 in Python integers, and Parseval."""
    nbar, q = 640, 3 * 99991
    pred = weights(nbar, q)
    l, alpha = pred.l, pred.alpha
    assert l == q
    den = 4 * q * l
    chirp = [(3 * nbar * k * k * l - 4 * l * k**3) % den for k in range(l)]
    rng = np.random.default_rng(5)
    for s in rng.integers(0, l, 5).tolist():
        shift = 4 * q * alpha * s
        nums = np.array([(c + shift * k) % den for k, c in enumerate(chirp)], dtype=float)
        exact = np.exp(2j * np.pi * nums / den).sum() / l
        assert abs(pred.b[s] - exact) < 1e-14, f"s={s}"
    assert abs(float(np.sum(np.abs(pred.b) ** 2)) - 1.0) < 1e-12


def test_weights_against_high_precision_oracle():
    """The integer-reduced FFT matches direct 50-digit evaluation, also where
    the unreduced numerator 3*nbar*k'^2 would overflow int64."""
    for nbar, q in ((48, 12), (320, 36), (320, 9), (48, 6), (10**15, 147)):
        pred = weights(nbar, q)
        oracle = mp_weights(nbar, q, pred.l, pred.alpha)
        assert float(np.max(np.abs(pred.b - oracle))) < 1e-12


def test_weights_periodicity_fields():
    """q=36 at nbar=320: fractional, recurring every t_rev/12."""
    pred = weights(320, 36)
    ts = timescales(AtomSpec(320, 2.5))
    assert pred.kind == "fractional"
    assert pred.periodicity * 12.0 == pytest.approx(ts.t_rev, rel=1e-14)
    assert pred.time_center * 36.0 == pytest.approx(ts.t_sr, rel=1e-14)


def test_parseval_property():
    """sum |b_s|^2 = 1: the b_s are an inverse unitary DFT of unimodular
    values once gcd(alpha, l) = 1."""
    rng = np.random.default_rng(23)
    cases = [(320, q) for q in REFERENCE_Q] + [(48, q) for q in REFERENCE_Q]
    cases += [(int(rng.integers(2, 600)), 3 * int(rng.integers(1, 13))) for _ in range(25)]
    for nbar, q in cases:
        pred = weights(nbar, q)
        total = float(np.sum(np.abs(pred.b) ** 2))
        assert abs(total - 1.0) < 1e-10, f"nbar={nbar} q={q}: {total}"


def test_phase_factor_periodic_in_l():
    """g(k) = exp[2 pi i (3 nbar k^2/(4q) - k^3/q)] repeats under k -> k+l.

    Exact-rational check of the precondition for the subsidiary-packet
    expansion, for the two reference packets at every studied q.
    """
    for nbar in (48, 320):
        for q in REFERENCE_Q:
            l = integer_constants(nbar, q).l
            for k in range(-45, 46):
                g_k = (Fraction(3 * nbar * k * k, 4 * q) - Fraction(k**3, q)) % 1
                kl = k + l
                g_kl = (Fraction(3 * nbar * kl * kl, 4 * q) - Fraction(kl**3, q)) % 1
                assert g_k == g_kl, f"nbar={nbar} q={q} k={k}"


def test_alpha_units_permute_weight_multiset():
    """Replacing alpha by alpha*u (u a unit mod l) relabels the b_s without
    changing the multiset of magnitudes."""
    for nbar, q in ((320, 36), (48, 12), (320, 18)):
        pred = weights(nbar, q)
        l = pred.l
        base = np.sort(np.abs(pred.b))
        for u in range(2, l):
            if math.gcd(u, l) != 1:
                continue
            alt = mp_weights(nbar, q, l, (pred.alpha * u) % l)
            permuted = np.sort(np.abs(alt))
            assert np.allclose(permuted, base, atol=1e-12)


def test_reconstruction_identity_at_fraction_times():
    """Residual of the subsidiary-packet expansion vanishes at t = t_sr/q."""
    for nbar, sigma in ((320, 2.5), (48, 1.5)):
        spec = AtomSpec(nbar, sigma)
        coeffs = gaussian_packet(spec)
        ts = timescales(spec)
        for q in REFERENCE_Q:
            pred = weights(nbar, q)
            residual = reconstruct(coeffs, pred, spec, ts.t_sr / q)
            assert residual < 1e-9, f"nbar={nbar} q={q}: residual={residual:.2e}"


def test_reconstruction_identity_where_the_chirp_is_l_periodic():
    """The expansion holds to rounding at t = t_sr/q for both classes of
    pairs whose chirp 3*nbar*k'^2/(4q) - k'^3/q is l-periodic: nbar = 0
    (mod 4) at every q, and nbar = 2 (mod 4) at even q."""
    for nbar in (320, 322, 324):
        spec = AtomSpec(nbar, 2.5)
        coeffs = gaussian_packet(spec)
        ts = timescales(spec)
        for q in range(6, 22, 3 if nbar % 4 == 0 else 6):
            residual = reconstruct(coeffs, weights(nbar, q), spec, ts.t_sr / q)
            assert residual <= 1e-12, f"nbar={nbar} q={q}: residual={residual:.2e}"


def outer_product_reconstruct(coeffs, prediction, spec, t):
    """Reference: the residual with the superposition as a K x l outer
    product of shift exponentials times b (O(K*l) memory)."""
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


def test_reconstruction_matches_outer_product_reference():
    """The one-FFT superposition gives the outer-product residual, at the
    fraction times (residual ~0) and away from them (residual ~1.6)."""
    for nbar, sigma in ((320, 2.5), (48, 1.5)):
        spec = AtomSpec(nbar, sigma)
        coeffs = gaussian_packet(spec)
        ts = timescales(spec)
        for q in (*REFERENCE_Q, 150, 303):
            pred = weights(nbar, q)
            for shift in (0.0, 0.1, 0.37, -0.8):
                t = ts.t_sr / q + shift * ts.t_rev
                got = reconstruct(coeffs, pred, spec, t)
                want = outer_product_reconstruct(coeffs, pred, spec, t)
                assert abs(got - want) <= 1e-13, f"nbar={nbar} q={q} shift={shift}"


def test_reconstruction_at_large_l():
    """l = 299,973 weights: the K x l outer product would hold ~0.7 GB; the
    FFT form runs in well under a second and the identity still holds."""
    spec = AtomSpec(640, 5.0)
    coeffs = gaussian_packet(spec)
    pred = weights(640, 3 * 99991)
    assert pred.l == 3 * 99991
    start = time.perf_counter()
    residual = reconstruct(coeffs, pred, spec, timescales(spec).t_sr / pred.q)
    assert time.perf_counter() - start < 5.0
    assert residual < 1e-9


def test_reconstruction_is_local():
    """A revival time away from the expansion center the identity is gone."""
    spec = AtomSpec(320, 2.5)
    coeffs = gaussian_packet(spec)
    ts = timescales(spec)
    pred = weights(320, 6)
    residual = reconstruct(coeffs, pred, spec, ts.t_sr / 6.0 + ts.t_rev)
    assert residual > 1e-3


def test_reconstruction_window_precondition():
    spec = AtomSpec(320, 2.5)
    coeffs = gaussian_packet(spec)
    ts = timescales(spec)
    pred = weights(320, 6)
    with pytest.raises(ValueError):
        reconstruct(coeffs, pred, spec, ts.t_sr / 6.0 + 1.5 * ts.t_rev)


def test_reconstruction_refuses_nan_time():
    """NaN fails the window test instead of giving a NaN residual."""
    spec = AtomSpec(320, 2.5)
    with pytest.raises(ValueError, match="validity window"):
        reconstruct(gaussian_packet(spec), weights(320, 6), spec, math.nan)


def test_prediction_table_320():
    """Times 7.08, 14.2, 21.2, 28.3, 42.5 us; periodicities t_rev/12 ... t_rev/2."""
    spec = AtomSpec(320, 2.5)
    preds = prediction_table(spec, REFERENCE_Q)
    times_us = [to_si(p.time_center) * 1e6 for p in preds]
    assert times_us == pytest.approx([7.08, 14.2, 21.2, 28.3, 42.5], rel=0.01)
    ts = timescales(spec)
    fractions = [12, 6, 4, 3, 2]
    for pred, frac in zip(preds, fractions):
        assert pred.periodicity * frac == pytest.approx(ts.t_rev, rel=1e-14)
    assert [p.q for p in preds] == [36, 18, 12, 9, 6]


def test_prediction_table_48():
    preds = prediction_table(AtomSpec(48, 1.5), (12, 6))
    times_ns = [to_si(p.time_center) * 1e9 for p in preds]
    assert times_ns == pytest.approx([1.61, 3.23], rel=0.01)


def test_prediction_table_integer_defect():
    """nbar=321 with a unit defect reproduces the hydrogen nbar=320 table."""
    a = prediction_table(AtomSpec(321, 2.5, defect=1.0), (6,))[0]
    b = prediction_table(AtomSpec(320, 2.5), (6,))[0]
    assert a.time_center == b.time_center
    assert np.array_equal(a.b, b.b)
    with pytest.raises(ValueError):
        prediction_table(AtomSpec(320, 2.5, defect=0.31), (6,))


def test_timing_table_is_the_timing_of_prediction_table():
    """timing_table gives prediction_table's q, time centers and
    periodicities, bitwise and in its (stably sorted) order, and a
    prediction is a timing."""
    spec = AtomSpec(321, 2.5, defect=1.0)
    qs = (6, 36, 12, 18, 9, 12)
    preds = prediction_table(spec, qs)
    timings = timing_table(spec, qs)
    assert timings == [SuperrevivalTiming(p.q, p.time_center, p.periodicity) for p in preds]
    assert [t.q for t in timings] == [36, 18, 12, 12, 9, 6]
    assert all(isinstance(p, SuperrevivalTiming) for p in preds)
    assert timing(320, 6) == timings[-1]
    assert timing(320.0, FractionSpec(6)) == timings[-1]


@pytest.mark.parametrize("table", [timing_table, prediction_table])
def test_tables_refuse_in_one_order(table):
    """Both tables refuse a non-integer n* first, then check q by q, each q
    before the integer n* >= 1 (n* = 1e-10 rounds to 0)."""
    with pytest.raises(ValueError, match=r"integer effective quantum number required, "
                                         r"got nstar = 319.75"):
        table(AtomSpec(320, 2.5, defect=0.25), (4,))
    tiny = AtomSpec(1, 1e-11, defect=0.9999999999)
    with pytest.raises(ValueError, match=r"integer effective quantum number >= 1 required, "
                                         r"got nstar = 1\.0+\d*e-10"):
        table(tiny, (6, 4))
    with pytest.raises(ValueError, match="q must be a multiple of 3, got 4"):
        table(tiny, (4, 6))
    with pytest.raises(ValueError, match="q must be positive, got -3"):
        table(AtomSpec(320, 2.5), (6, -3))
    for q in (6.5, np.float64(12.9), "6"):
        with pytest.raises(ValueError, match="q must be an integer, got "):
            table(AtomSpec(320, 2.5), (6, q))


def test_bool_nbar_is_refused():
    """True is an int to isinstance, but not a quantum number; nor is a
    value of any type that does not equal its int, which int() would
    truncate to another nbar (np.float32(320.5) read as 320)."""
    for call in (integer_constants, weights):
        with pytest.raises(ValueError, match="integer nbar, got True"):
            call(True, 6)
        for nbar in (np.float32(320.5), Fraction(641, 2), 320.5, np.float64(320.5),
                     math.nan, math.inf, np.float32(math.nan), "320"):
            with pytest.raises(ValueError, match="integer nbar, got "):
                call(nbar, 6)
    assert integer_constants(np.int64(320), 6) == integer_constants(320.0, 6)
    for nbar in (np.float32(320.0), 320.0, np.int64(320), Fraction(640, 2)):
        assert integer_constants(nbar, 6) == integer_constants(320, 6) == (6, 128, 5)
        assert weights(nbar, 6) == weights(320, 6)


def test_fraction_spec_refuses_bool():
    """FractionSpec(True) is not a q of 1: it fails as a non-integer."""
    for q in (True, False, np.bool_(True)):
        with pytest.raises(ValueError, match="q must be an integer, got "):
            FractionSpec(q)
    assert type(FractionSpec(np.int64(6)).q) is int and FractionSpec(np.int64(6)).q == 6


def test_fraction_spec_accepted_everywhere():
    assert weights(320, FractionSpec(6)).q == 6
    assert type(FractionSpec(9.0).q) is int and timing(320, 9.0) == timing(320, 9)
    assert integer_constants(320, FractionSpec(9)).l == 3

"""The autocorrelation signal |A(t)|^2 and its phase models."""

import dataclasses
import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from rydlab import (
    AtomSpec,
    CoefficientSet,
    PhaseModel,
    Signal,
    TimeGrid,
    autocorrelation,
    from_si,
    gaussian_packet,
    timescales,
)
from rydlab.autocorr import _a2_chunks, _amplitude_chunks, _cycle_rates, phase_cycles
from rydlab.spectrum import MAX_NBAR

from conftest import a2_over_times, circular_distance


def naive_autocorrelation(coeffs, spec, times):
    """Independent oracle: direct summation with plain double arithmetic."""
    ns = spec.nstar
    amp = np.zeros(len(times), dtype=complex)
    e0 = -0.5 / ns**2
    for k, p in zip(coeffs.offsets, coeffs.probabilities):
        e = -0.5 / (ns + k) ** 2
        amp += p * np.exp(-1j * (e - e0) * np.asarray(times))
    return np.abs(amp) ** 2


def mp_cycle_rate(model, k, nstar):
    """Independent oracle: theta_k(t) / (2 pi t) at the working precision."""
    ns = mp.mpf(nstar)
    if model is PhaseModel.EXACT:
        return mp.mpf("0.5") * (1 / ns**2 - 1 / (ns + k) ** 2) / (2 * mp.pi)
    t_cl = 2 * mp.pi * ns**3
    t_rev = t_cl * 2 * ns / 3
    t_sr = t_rev * ns * 3 / 4
    order = model.taylor_order
    total = k / t_cl
    if order >= 2:
        total -= k * k / t_rev
    if order >= 3:
        total += k**3 / t_sr
    return total


def mp_phase_cycles(model, k, t, nstar):
    """Independent oracle: 60-digit evaluation of the phase in cycles."""
    mp.mp.dps = 60
    return float(mp.fmod(mp_cycle_rate(model, k, nstar) * mp.mpf(t), 1) % 1)


def mp_a2(coeffs, model, nstar, t0, dt, i):
    """Independent oracle: 40-digit |A|^2 at the exact grid time t0 + dt*i."""
    with mp.workdps(40):
        t = mp.mpf(t0) + mp.mpf(dt) * i
        amp = mp.fsum(
            mp.mpf(float(p)) * mp.expj(-2 * mp.pi * mp_cycle_rate(model, int(k), nstar) * t)
            for k, p in zip(coeffs.offsets, coeffs.probabilities)
        )
        return float(abs(amp) ** 2)


def test_unity_at_t_zero(spec320):
    coeffs = gaussian_packet(spec320)
    sig = autocorrelation(coeffs, PhaseModel.EXACT, spec320, TimeGrid(0.0, 1.0, 1))
    assert sig.values[0] == pytest.approx(1.0, abs=1e-12)


def test_single_state_packet_is_flat():
    """One populated eigenstate gives a unimodular phase factor: |A|^2 = 1."""
    spec = AtomSpec(100, 1.0)
    coeffs = CoefficientSet(offsets=np.array([0]), weights=np.array([1.0]))
    grid = TimeGrid(0.0, 1e9, 50)
    for model in PhaseModel:
        sig = autocorrelation(coeffs, model, spec, grid)
        assert np.all(np.abs(sig.values - 1.0) < 1e-12)


def test_matches_direct_summation_oracle(spec48, signal48, spec320, signal320):
    """The compensated evaluation agrees with naive direct summation,
    including deep into the superrevival regime (t ~ 1e12 a.u.)."""
    coeffs = gaussian_packet(spec48)
    oracle = naive_autocorrelation(coeffs, spec48, signal48.times)
    assert float(np.max(np.abs(signal48.values - oracle))) < 1e-6
    coeffs320 = gaussian_packet(spec320)
    late = signal320.times[::50]
    oracle320 = naive_autocorrelation(coeffs320, spec320, late)
    assert float(np.max(np.abs(signal320.values[::50] - oracle320))) < 1e-6


def test_bounded_by_one_on_randomized_specs():
    rng = np.random.default_rng(42)
    for _ in range(15):
        nbar = rng.uniform(20.0, 400.0)
        sigma = rng.uniform(0.6, 3.0)
        spec = AtomSpec(nbar, sigma, rng.uniform(0.0, 0.4))
        coeffs = gaussian_packet(spec)
        scales = timescales(spec)
        t0 = rng.uniform(0.0, scales.t_sr)
        grid = TimeGrid(t0, scales.t_cl / rng.integers(5, 40), 400)
        for model in PhaseModel:
            sig = autocorrelation(coeffs, model, spec, grid)
            assert float(sig.values.max()) <= 1.0 + 1e-12
            assert float(sig.values.min()) >= 0.0


def test_invariant_under_coefficient_phases(spec48):
    """|A|^2 depends only on |c_k|^2; randomizing phases changes nothing."""
    rng = np.random.default_rng(5)
    coeffs = gaussian_packet(spec48)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, coeffs.weights.size))
    rotated = dataclasses.replace(coeffs, weights=coeffs.weights * phases)
    grid = TimeGrid(0.0, timescales(spec48).t_cl / 7, 2000)
    a = autocorrelation(coeffs, PhaseModel.EXACT, spec48, grid)
    b = autocorrelation(rotated, PhaseModel.EXACT, spec48, grid)
    assert float(np.max(np.abs(a.values - b.values))) < 1e-12


def test_phase_order1_closes_after_classical_period(spec320):
    ts = timescales(spec320)
    got = 2.0 * math.pi * float(phase_cycles(PhaseModel.ORDER1, 1, ts.t_cl, spec320))
    assert circular_distance(got, 0.0) < 1e-9


def test_order1_model_is_simple_harmonic(spec320):
    """Equally spaced energies: the packet rephases completely every T_cl."""
    ts = timescales(spec320)
    coeffs = gaussian_packet(spec320)
    returns = a2_over_times(
        coeffs, PhaseModel.ORDER1, spec320, ts.t_cl * np.arange(1.0, 2000.0, 37.0)
    )
    assert float(np.min(returns)) > 1.0 - 1e-9


def test_phase_order2_closes_after_revival(spec48):
    """At nbar=48 both terms are integer turns at t_rev (2 nbar/3 = 32)."""
    ts = timescales(spec48)
    got = 2.0 * math.pi * float(phase_cycles(PhaseModel.ORDER2, 1, ts.t_rev, spec48))
    assert circular_distance(got, 0.0) < 1e-9


def test_phase_order3_rational_example(spec320):
    """k=2 at t = t_sr/6: exact rational bookkeeping of the three fractions.

    t/T_cl = nbar^2/12, t/t_rev = 3 nbar/24, t/t_sr = 1/6, so the total
    cycle count is an exact rational; the oracle reduces it mod 1.
    """
    nbar, k = 320, 2
    expected = (
        Fraction(k) * Fraction(nbar**2, 12)
        - Fraction(k**2) * Fraction(3 * nbar, 24)
        + Fraction(k**3, 6)
    ) % 1
    assert expected == 0  # the three fractional parts conspire to a full turn
    ts = timescales(spec320)
    got = 2.0 * math.pi * float(phase_cycles(PhaseModel.ORDER3, k, ts.t_sr / 6.0, spec320))
    assert circular_distance(got, 2.0 * math.pi * float(expected)) < 1e-8


@pytest.mark.parametrize("model", list(PhaseModel))
def test_phase_accuracy_against_mp_oracle(model, spec320):
    """Absolute phase error stays below 1e-6 rad out at t = t_sr."""
    ts = timescales(spec320)
    worst = 0.0
    for k in range(-13, 14):
        for t in (ts.t_sr, ts.t_sr / 6.0, 0.37 * ts.t_sr):
            want = mp_phase_cycles(model, k, t, spec320.nstar)
            got = float(phase_cycles(model, k, np.float64(t), spec320))
            worst = max(worst, circular_distance(got, want, period=1.0))
    assert worst * 2.0 * math.pi < 1e-6


def test_order2_model_periodic_in_revival_time(spec48):
    """2 nbar/3 = 32 is an integer at nbar=48: the order-2 signal has exact
    period t_rev."""
    ts = timescales(spec48)
    coeffs = gaussian_packet(spec48)
    dt = ts.t_rev / 197.0
    grid = TimeGrid(0.0, dt, 2 * 197)
    sig = autocorrelation(coeffs, PhaseModel.ORDER2, spec48, grid)
    first, second = sig.values[:197], sig.values[197:]
    assert float(np.max(np.abs(first - second))) < 1e-9


def test_exact_and_order3_agree_on_superrevival_structure(spec320):
    """Both models put a tall peak at the same place near t_sr/6.

    Fourth-order dephasing (the first term the order-3 model drops) shifts
    the exact comb by a few classical periods at these times, so agreement
    is at the T_cl scale, not the grid-step scale.
    """
    ts = timescales(spec320)
    coeffs = gaussian_packet(spec320)
    center = from_si(42.5e-6)
    dt = from_si(50e-12)
    count = int(2.0 * from_si(0.5e-6) / dt) + 1
    grid = TimeGrid(center - from_si(0.5e-6), dt, count)
    exact = autocorrelation(coeffs, PhaseModel.EXACT, spec320, grid)
    order3 = autocorrelation(coeffs, PhaseModel.ORDER3, spec320, grid)
    t_exact = exact.times[np.argmax(exact.values)]
    t_order3 = order3.times[np.argmax(order3.values)]
    assert abs(t_exact - t_order3) < 6.0 * ts.t_cl
    assert float(exact.values.max()) > 0.8
    assert float(order3.values.max()) > 0.8


def test_truncation_window_insensitivity(spec48, spec320, signal48, signal320):
    """Widening the coefficient window from 5 to 7 sigma barely moves |A|^2.

    The change is bounded by a few times the total weight beyond the 5-sigma
    cut (~4e-9 per dropped state at sigma=1.5, ~2.5e-8 at sigma=2.5).
    """
    for spec, sig, bound in ((spec48, signal48, 8e-8), (spec320, signal320, 5e-7)):
        base = gaussian_packet(spec, window_sigmas=5.0)
        wide = gaussian_packet(spec, window_sigmas=7.0)
        stride = max(1, sig.values.size // 20000)
        times = sig.times[::stride]
        a2_base = a2_over_times(base, PhaseModel.EXACT, spec, times)
        a2_wide = a2_over_times(wide, PhaseModel.EXACT, spec, times)
        delta = float(np.max(np.abs(a2_wide - a2_base)))
        assert delta < bound, f"nbar={spec.nbar}: truncation delta {delta:.3e}"


def test_revival_and_superrevival_peaks_320(signal320, spec320):
    """The signal has a revival peak near 1.06 us and its largest late-time
    peaks near 42.5 us."""
    ts = timescales(spec320)
    rev = signal320.window(ts.t_rev - 2 * ts.t_cl, ts.t_rev + 2 * ts.t_cl)
    assert float(rev.values.max()) > 0.5
    late = signal320.window(from_si(41.5e-6), from_si(43.5e-6))
    assert float(late.values.max()) > float(rev.values.max())


def test_partition_determinism(spec48):
    """Evaluating disjoint index ranges reproduces the full run bitwise."""
    coeffs = gaussian_packet(spec48)
    grid = TimeGrid(0.0, timescales(spec48).t_cl / 20.0, 5000)
    full = a2_over_times(coeffs, PhaseModel.EXACT, spec48, grid.times)
    parts = [
        a2_over_times(coeffs, PhaseModel.EXACT, spec48, chunk)
        for chunk in np.array_split(grid.times, 7)
    ]
    assert np.array_equal(np.concatenate(parts), full)
    again = a2_over_times(coeffs, PhaseModel.EXACT, spec48, grid.times)
    assert np.array_equal(again, full)


@pytest.fixture(scope="module")
def late_grid_640():
    """n=640, sigma=5 (51 terms) over t_sr/12 +- t_rev: phases of ~1e7 cycles."""
    spec = AtomSpec(640, 5.0)
    ts = timescales(spec)
    grid = TimeGrid(ts.t_sr / 12.0 - ts.t_rev, ts.t_cl / 20.0, 17_101)
    return spec, gaussian_packet(spec, window_sigmas=5.0), grid


@pytest.mark.parametrize("model", list(PhaseModel))
def test_grid_kernel_matches_mp_oracle_at_exact_grid_times(model, late_grid_640):
    spec, coeffs, grid = late_grid_640
    assert coeffs.offsets.size == 51
    values = autocorrelation(coeffs, model, spec, grid).values
    rng = np.random.default_rng(11)
    picks = {0, 1, grid.count - 1, *rng.integers(0, grid.count, 9).tolist()}
    worst = max(
        abs(values[i] - mp_a2(coeffs, model, spec.nstar, grid.t0, grid.dt, i))
        for i in picks
    )
    assert worst < 1e-13


def kernel_chunks(kernel, coeffs, model, spec, grid, start, stop, size):
    """Chunks of |A|^2 ("a2") or of the complex amplitude ("amplitude") with
    the packet's weights turned by fixed random phases, over one grid."""
    if kernel == "a2":
        return _a2_chunks(coeffs, model, spec, grid, start, stop, size)
    turns = np.exp(2j * np.pi * np.random.default_rng(3).random(coeffs.offsets.size))
    rate = _cycle_rates(model, spec.nstar, coeffs.offsets)
    return _amplitude_chunks(coeffs.weights * turns, rate, grid.t0, grid.dt, grid.count,
                             start, stop, size)


def full_run(kernel, coeffs, model, spec, grid):
    if kernel == "a2":
        return autocorrelation(coeffs, model, spec, grid).values
    return next(kernel_chunks(kernel, coeffs, model, spec, grid, 0, grid.count, grid.count))


def with_amplitude_kernel(values):
    """Each value for the |A|^2 kernel (ids unchanged) and again, id-prefixed,
    for the complex amplitude kernel."""
    return [pytest.param("a2", v, id=str(v)) for v in values] + [
        pytest.param("amplitude", v, id=f"amplitude-{v}") for v in values
    ]


@pytest.mark.parametrize("kernel, model", with_amplitude_kernel(list(PhaseModel)))
def test_index_ranges_reproduce_full_grid_bitwise(kernel, model, late_grid_640):
    """Uneven cuts, including single samples and cuts inside one block."""
    spec, coeffs, grid = late_grid_640
    full = full_run(kernel, coeffs, model, spec, grid)
    cuts = [0, 1, 2, 130, 131, 4099, 4500, 12_000, grid.count - 1, grid.count]
    parts = [
        next(kernel_chunks(kernel, coeffs, model, spec, grid, lo, hi, hi - lo))
        for lo, hi in zip(cuts, cuts[1:])
    ]
    assert np.array_equal(np.concatenate(parts), full)
    with pytest.raises(ValueError):
        next(kernel_chunks(kernel, coeffs, model, spec, grid, 5, 5, 0))
    with pytest.raises(ValueError):
        next(kernel_chunks(kernel, coeffs, model, spec, grid, 0, grid.count + 1,
                           grid.count + 1))


@pytest.mark.parametrize("kernel, size", with_amplitude_kernel([1, 7, 4159, 4160, 4161, 17_101]))
def test_chunk_sizes_reproduce_full_grid_bitwise(kernel, size, late_grid_640):
    """Chunks of any size, inside one 32-block matrix product (4160 samples
    here) or straddling two, concatenate to the full run bitwise."""
    spec, coeffs, grid = late_grid_640
    model = PhaseModel.ORDER3
    full = full_run(kernel, coeffs, model, spec, grid)
    chunks = list(kernel_chunks(kernel, coeffs, model, spec, grid, 0, grid.count, size))
    assert all(c.size == size for c in chunks[:-1]) and 0 < chunks[-1].size <= size
    assert np.array_equal(np.concatenate(chunks), full)
    sub = kernel_chunks(kernel, coeffs, model, spec, grid, 131, 12_000, size)
    assert np.array_equal(np.concatenate(list(sub)), full[131:12_000])


def test_signal_rejects_non_finite_samples():
    """NaN passes both range comparisons, so it needs its own check."""
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Signal(0.0, 1.0, [0.5, bad, 0.2])


@pytest.mark.parametrize("model", list(PhaseModel))
def test_grid_kernel_close_to_rounded_time_reference(model, late_grid_640):
    """Sampling t0 + dt*i exactly instead of the rounded float times moves
    |A|^2 by far less than 1e-10 (the times differ by ~1e-3 a.u.)."""
    spec, coeffs, grid = late_grid_640
    values = autocorrelation(coeffs, model, spec, grid).values
    reference = a2_over_times(coeffs, model, spec, grid.times)
    assert float(np.max(np.abs(values - reference))) < 1e-10


def test_phase_cycles_vectorised_over_offsets(spec320):
    """One call over all offsets equals one call per offset, bitwise."""
    t = 0.37 * timescales(spec320).t_sr
    ks = np.arange(-13, 14)
    for model in PhaseModel:
        together = phase_cycles(model, ks, t, spec320)
        one_by_one = [float(phase_cycles(model, int(k), t, spec320)) for k in ks]
        assert np.array_equal(together, np.array(one_by_one))


def test_million_sample_run_is_interactive():
    """Cost is linear in count x window; 1e6 samples x 25 terms in seconds."""
    spec = AtomSpec(320, 2.4)
    coeffs = gaussian_packet(spec, window_sigmas=5.0)
    assert coeffs.offsets.size == 25
    grid = TimeGrid(0.0, timescales(spec).t_cl / 20.0, 1_000_000)
    start = time.perf_counter()
    sig = autocorrelation(coeffs, PhaseModel.EXACT, spec, grid)
    elapsed = time.perf_counter() - start
    assert sig.values.size == 1_000_000
    assert elapsed < 20.0, f"1e6-sample evaluation took {elapsed:.1f} s"


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1e308, 10)  # grid end overflows


def test_signal_validation_and_window():
    with pytest.raises(ValueError):
        Signal(0.0, -1.0, np.array([0.5]))
    with pytest.raises(ValueError):
        Signal(0.0, 1.0, np.array([0.5, 1.5]))
    sig = Signal(10.0, 2.0, np.array([0.1, 0.2, 0.3, 0.4]))
    sub = sig.window(11.0, 15.0)
    assert sub.t0 == 12.0
    assert np.array_equal(sub.values, np.array([0.2, 0.3]))
    with pytest.raises(ValueError):
        sig.window(16.5, 17.0)


@pytest.mark.parametrize("model", list(PhaseModel), ids=lambda m: m.value)
def test_largest_nbar_keeps_rates_and_signal_finite(model):
    """At MAX_NBAR every rate table, the time scales and |A|^2 are finite;
    one step above it AtomSpec refuses the packet."""
    spec = AtomSpec(MAX_NBAR, 2.5)
    scales = timescales(spec)
    assert all(map(math.isfinite, (scales.t_cl, scales.t_rev, scales.t_sr)))
    coeffs = gaussian_packet(spec)
    hi, lo = _cycle_rates(model, spec.nstar, coeffs.offsets)
    assert np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))
    signal = autocorrelation(coeffs, model, spec, TimeGrid(0.0, scales.t_cl / 20, 64))
    assert np.all(np.isfinite(signal.values))
    with pytest.raises(ValueError, match="nbar must be <="):
        AtomSpec(np.nextafter(MAX_NBAR, math.inf), 2.5)

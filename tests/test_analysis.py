"""Peak detection, periodicity estimation, and prediction verification."""

import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rydlab import (
    AtomSpec,
    PeakTrain,
    Signal,
    TimeGrid,
    estimate_periodicity,
    find_peaks,
    from_si,
    prediction_table,
    timescales,
    timing_table,
    to_si,
    verify,
)
from rydlab import analysis
from rydlab.analysis import DEFAULT_THRESHOLD, DEFAULT_TOLERANCE, _median, _verify


def comb_signal(spacing, n_peaks, dt=0.05, width=0.4, amplitudes=None, noise=0.0, seed=0):
    """Synthetic train of Gaussian bumps with known spacing."""
    t_end = spacing * (n_peaks + 1)
    t = np.arange(0.0, t_end, dt)
    v = np.zeros_like(t)
    for i in range(n_peaks):
        center = spacing * (i + 1)
        a = 1.0 if amplitudes is None else amplitudes[i % len(amplitudes)]
        v += a * np.exp(-((t - center) ** 2) / (2.0 * width**2))
    if noise:
        rng = np.random.default_rng(seed)
        v += noise * rng.uniform(0.0, 1.0, v.size)
    v /= v.max() * 1.0000001
    return Signal(t0=0.0, dt=dt, values=v)


def test_constant_signal_has_no_peaks():
    sig = Signal(0.0, 1.0, np.full(100, 0.5))
    train = find_peaks(sig, threshold=0.3, min_separation=2.0)
    assert len(train) == 0


def test_equally_spaced_comb():
    """Spacing-7 comb: period 7, zero spread."""
    sig = comb_signal(spacing=7.0, n_peaks=9)
    train = find_peaks(sig, threshold=0.5, min_separation=3.0)
    assert len(train) == 9
    est = estimate_periodicity(train)
    assert est.period == pytest.approx(7.0, rel=1e-6)
    assert est.spread == pytest.approx(0.0, abs=1e-6)
    assert est.offset_from_prediction is None
    with_pred = estimate_periodicity(train, predicted_period=7.1)
    assert with_pred.offset_from_prediction == pytest.approx(-0.1, abs=1e-5)


def test_parabolic_refinement_recovers_off_grid_peak():
    """A single bump centered between samples is located to a small fraction
    of the grid step."""
    dt = 0.1
    t = np.arange(0.0, 20.0, dt)
    center = 10.037
    v = 0.9 * np.exp(-((t - center) ** 2) / (2.0 * 1.3**2))
    train = find_peaks(Signal(0.0, dt, v), threshold=0.5, min_separation=1.0)
    assert len(train) == 1
    assert abs(train.times[0] - center) < dt / 20.0


def test_detection_invariant_under_rescaling():
    sig = comb_signal(spacing=5.0, n_peaks=7, amplitudes=[1.0, 0.7])
    scaled = Signal(sig.t0, sig.dt, sig.values * 0.001)
    a = find_peaks(sig, threshold=0.4, min_separation=2.0)
    b = find_peaks(scaled, threshold=0.4, min_separation=2.0)
    assert len(a) == len(b)
    assert np.allclose(a.times, b.times, rtol=0, atol=1e-9)


def test_tallest_peak_wins_within_separation():
    """Alternating tall/short bumps at half spacing: the separation rule
    keeps the tall family."""
    sig = comb_signal(spacing=3.5, n_peaks=10, amplitudes=[1.0, 0.55])
    train = find_peaks(sig, threshold=0.3, min_separation=0.6 * 7.0)
    est = estimate_periodicity(train)
    assert est.period == pytest.approx(7.0, rel=0.02)
    assert np.all(train.heights > 0.8)


def test_periodicity_robust_to_small_noise():
    sig = comb_signal(spacing=6.0, n_peaks=12, noise=0.01, seed=3)
    train = find_peaks(sig, threshold=0.5, min_separation=3.6)
    est = estimate_periodicity(train)
    assert est.period == pytest.approx(6.0, rel=0.01)


def test_periodicity_needs_three_peaks():
    sig = comb_signal(spacing=7.0, n_peaks=2)
    train = find_peaks(sig, threshold=0.5, min_separation=3.0)
    with pytest.raises(ValueError):
        estimate_periodicity(train)


def test_peak_train_needs_increasing_times():
    """Empty and one-peak trains are valid; a NaN time fails the increasing
    rule, since NaN fails every comparison."""
    assert len(PeakTrain(np.array([]), np.array([]))) == 0
    assert len(PeakTrain(np.array([3.0]), np.array([0.5]))) == 1
    for times in ([0.0, math.nan, 2.0], [0.0, 2.0, 2.0], [1.0, 0.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            PeakTrain(np.array(times), np.ones(len(times)))


def test_peak_train_needs_1d_arrays():
    """times and heights are 1-d: a (1, 4) train would have len 4 and fail
    inside estimate_periodicity's median, and a scalar orders no peaks."""
    for times, heights in ((np.array([[1.0, 2.0, 3.0, 4.0]]), np.ones((1, 4))),
                           (np.array([1.0, 2.0, 3.0, 4.0]), np.ones((1, 4))),
                           (np.array(1.0), np.array(0.5))):
        with pytest.raises(ValueError, match="1-d"):
            PeakTrain(times, heights)
    train = PeakTrain([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0])
    assert len(train) == 4 and estimate_periodicity(train).period == 1.0


def test_find_peaks_parameter_validation(signal48):
    with pytest.raises(ValueError):
        find_peaks(signal48, threshold=0.0, min_separation=1.0)
    with pytest.raises(ValueError):
        find_peaks(signal48, threshold=1.5, min_separation=1.0)
    # NaN fails every comparison, so it cannot pass as a separation either
    for separation in (-1.0, math.nan):
        with pytest.raises(ValueError, match="min_separation"):
            find_peaks(signal48, threshold=0.5, min_separation=separation)


def test_classical_period_oscillation_48(signal48, spec48):
    """Direct-simulation oracle: peaks in the first 0.1 ns are spaced by the
    classical period 16.8 ps.

    The t=0 unity sample dominates a window-relative threshold, so detection
    here runs at 0.3; the collapsing classical peaks then stand out cleanly.
    """
    ts = timescales(spec48)
    sub = signal48.window(0.0, from_si(0.1e-9))
    train = find_peaks(sub, threshold=0.3, min_separation=ts.t_cl / 2.0)
    assert len(train) >= 4
    est = estimate_periodicity(train)
    assert to_si(ts.t_cl) == pytest.approx(16.8e-12, rel=0.01)
    assert est.period == pytest.approx(ts.t_cl, rel=0.05)


def test_superrevival_window_periodicities_48(signal48, spec48):
    """Measured spacings near 1.61 ns and 3.23 ns match t_rev/4 and t_rev/2."""
    ts = timescales(spec48)
    preds = prediction_table(spec48, (12, 6))
    entries = verify(preds, signal48)
    by_q = {e.q: e for e in entries}
    assert by_q[12].status == "pass"
    assert by_q[6].status == "pass"
    assert by_q[12].measured == pytest.approx(ts.t_rev / 4.0, rel=0.10)
    assert by_q[6].measured == pytest.approx(ts.t_rev / 2.0, rel=0.05)


def test_superrevival_peak_dominates_revival_48(signal48, spec48):
    """Late-time restructuring tops the t_rev revival peak."""
    ts = timescales(spec48)
    q6 = signal48.window(ts.t_sr / 6.0 - ts.t_rev, ts.t_sr / 6.0 + ts.t_rev)
    rev = signal48.window(ts.t_rev - 2.0 * ts.t_cl, ts.t_rev + 2.0 * ts.t_cl)
    assert float(q6.values.max()) > float(rev.values.max())


def test_verification_generalizes_beyond_reference_packets():
    """The q=12 and q=6 structures verify at an unrelated nbar as well."""
    from conftest import simulate

    spec = AtomSpec(60, 1.8)
    ts = timescales(spec)
    signal = simulate(spec, to_si(ts.t_sr / 6.0 + 2.0 * ts.t_rev))
    entries = verify(prediction_table(spec, (12, 6)), signal)
    assert all(e.status == "pass" for e in entries)
    assert all(e.deviation < 0.05 for e in entries)


@settings(max_examples=300, deadline=None)
@given(values=arrays(np.float64, st.integers(1, 2000),
                     elements=st.floats(min_value=0.0, allow_infinity=False)))
@example(values=np.array([2.0, 1.0]))
@example(values=np.array([1.0, 3.0, 3.0, 1.0]))
@example(values=np.full(7, 0.5))
@example(values=np.array([np.finfo(float).max] * 2))
def test_median_matches_numpy_bitwise(values):
    """The median of estimate_periodicity is np.median bit for bit on the
    finite, non-negative values it sees (spacings and their deviations):
    odd and even lengths up to 2000, ties (hypothesis fills large arrays
    with repeats) and sums that overflow."""
    with np.errstate(over="ignore"):
        want = np.float64(np.median(values))
        got = _median(values)
    assert np.float64(got).tobytes() == want.tobytes()


def test_verify_uncovered_windows_not_evaluated(spec48, signal48):
    """A signal that stops short of a prediction's window cannot judge it."""
    preds = prediction_table(spec48, (12, 6))
    ts = timescales(spec48)
    short = signal48.window(0.0, ts.t_rev)  # spans no prediction window
    entries = verify(preds, short)
    assert all(e.status == "not evaluated" for e in entries)
    assert all(e.measured is None for e in entries)


def test_verify_tight_tolerance_fails(spec48, signal48):
    entries = verify(prediction_table(spec48, (12, 6)), signal48, tolerance=1e-4)
    assert all(e.status == "fail" for e in entries)
    assert all(e.deviation is not None and e.deviation > 1e-4 for e in entries)


@pytest.mark.parametrize("detection", [
    {"tolerance": math.nan}, {"tolerance": -1.0}, {"tolerance": math.inf},
    {"threshold": 1.5},
], ids=["tolerance-nan", "tolerance-negative", "tolerance-inf", "threshold-1.5"])
def test_verify_rejects_bad_detection_parameters(detection, spec48, signal48):
    """What `rydlab verify` refuses with exit 2 the library refuses before
    any window is searched: a NaN or negative tolerance failed every window
    and an infinite one passed every window."""
    preds = prediction_table(spec48, (12, 6))
    with pytest.raises(ValueError, match=next(iter(detection))):
        verify(preds, signal48, **detection)

    def unreachable(start, stop):
        raise AssertionError("a window was evaluated")

    grid = TimeGrid(signal48.t0, signal48.dt, signal48.values.size)
    detection = {"threshold": DEFAULT_THRESHOLD, "tolerance": DEFAULT_TOLERANCE, **detection}
    with pytest.raises(ValueError):
        _verify(preds, grid, unreachable, **detection)


class RecordedSamples:
    """A sample function for _verify that slices signal, appending each
    (start, stop) it is asked for to calls, and a weak reference to each
    array it returns to refs, taken by _verify's window."""

    def __init__(self, signal: Signal):
        self.signal, self.calls, self.refs = signal, [], []

    def __call__(self, start, stop):
        self.calls.append((start, stop))
        values = np.array(self.signal.values[start:stop])
        self.refs.append(weakref.ref(values))
        return values


def signal_grid(signal: Signal) -> TimeGrid:
    return TimeGrid(signal.t0, signal.dt, signal.values.size)


def test_verify_asks_samples_once_per_covered_window_in_order(spec48, signal48):
    """samples is asked once for each covered window, in time order, for
    the index range Signal.window selects, and never for q = 39, whose
    window starts before t = 0 at nbar = 48."""
    timings = timing_table(spec48, (6, 39, 12))
    samples = RecordedSamples(signal48)
    entries = _verify(timings, signal_grid(signal48), samples, DEFAULT_THRESHOLD,
                      DEFAULT_TOLERANCE)
    spans = []
    for t in timings[1:]:
        t_rev = t.periodicity * t.q / 3.0
        window = signal48.window(t.time_center - t_rev, t.time_center + t_rev)
        start = round((window.t0 - signal48.t0) / signal48.dt)
        spans.append((start, start + window.values.size))
    assert [t.q for t in timings] == [39, 12, 6]
    assert samples.calls == spans
    assert entries == verify(timings, signal48)
    assert [e.status for e in entries] == ["not evaluated", "pass", "pass"]


def test_verify_asks_no_samples_when_no_window_is_covered(spec48, signal48):
    def unreachable(start, stop):
        raise AssertionError("samples were asked for")

    entries = _verify(timing_table(spec48, (39,)), signal_grid(signal48), unreachable,
                      DEFAULT_THRESHOLD, DEFAULT_TOLERANCE)
    assert [e.status for e in entries] == ["not evaluated"]


def test_verify_drops_each_window_before_it_asks_for_the_next(spec48, signal48):
    """The samples of a window are unreachable by the time the next window
    is asked for, and after the last window is judged."""
    samples = RecordedSamples(signal48)
    held = []

    def recorded(start, stop):
        held.append(sum(ref() is not None for ref in samples.refs))
        return samples(start, stop)

    _verify(timing_table(spec48, (39, 18, 12, 6)), signal_grid(signal48), recorded,
            DEFAULT_THRESHOLD, DEFAULT_TOLERANCE)
    assert len(samples.refs) == 3
    assert held == [0, 0, 0]
    assert all(ref() is None for ref in samples.refs)


# The tallest-first selection as it was before the nearest-neighbour bisect:
# every candidate checked against every kept peak.  Kept verbatim as the
# oracle for find_peaks; O(candidates x kept).
def reference_find_peaks(signal: Signal, threshold: float, min_separation: float) -> PeakTrain:
    """Local maxima above threshold * (window max), at least min_separation apart.

    threshold is a fraction of the maximum sample in the window (0 < threshold
    <= 1), so detection is invariant under uniform rescaling of the signal.
    When candidates crowd closer than min_separation the tallest wins.  Peak
    times and heights are refined with a parabola through the three samples
    around each maximum.  An empty train is a valid result, not an error.
    """
    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if min_separation < 0.0:
        raise ValueError(f"min_separation must be >= 0, got {min_separation}")
    v = signal.values
    if v.size < 3 or float(v.max()) <= 0.0:
        return PeakTrain(np.array([]), np.array([]))
    level = threshold * float(v.max())
    interior = np.arange(1, v.size - 1)
    is_max = (v[interior] > v[interior - 1]) & (v[interior] >= v[interior + 1])
    candidates = interior[is_max & (v[interior] >= level)]
    # tallest-first greedy selection under the separation constraint
    order = candidates[np.lexsort((candidates, -v[candidates]))]
    kept: list[int] = []
    for i in order:
        if all(abs(i - j) * signal.dt >= min_separation for j in kept):
            kept.append(int(i))
    kept.sort()
    times = np.empty(len(kept))
    heights = np.empty(len(kept))
    for out, i in enumerate(kept):
        a, b, c = v[i - 1], v[i], v[i + 1]
        curv = a - 2.0 * b + c
        shift = 0.5 * (a - c) / curv if curv != 0.0 else 0.0
        times[out] = signal.t0 + signal.dt * (i + shift)
        heights[out] = b - 0.25 * (a - c) * shift
    return PeakTrain(times=times, heights=heights)


def assert_same_train(got, want):
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.heights, want.heights)
    assert got.times.tobytes() == want.times.tobytes()
    assert got.heights.tobytes() == want.heights.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    levels=st.lists(st.integers(0, 4), min_size=1, max_size=200),
    scale=st.sampled_from([1, 2, 4, 7]),
    t0=st.floats(-1e3, 1e3),
    dt=st.floats(1e-3, 1e3),
    threshold=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
    separation=st.one_of(st.just(0.0), st.just(1e12), st.floats(0.0, 60.0)),
)
@example(levels=[0] * 50, scale=1, t0=0.0, dt=1.0, threshold=0.5, separation=2.0)
@example(levels=[3], scale=4, t0=0.0, dt=1.0, threshold=0.5, separation=0.0)
@example(levels=[1, 3], scale=4, t0=0.0, dt=1.0, threshold=0.5, separation=0.0)
@example(levels=[0, 1, 0, 2, 2, 0, 1, 1, 1, 0], scale=2, t0=0.0, dt=1.0,
         threshold=1.0, separation=0.0)
@example(levels=[0, 1, 0, 1, 0, 1, 0, 1, 0], scale=1, t0=-3.0, dt=0.5,
         threshold=0.5, separation=1e12)
@example(levels=[0, 2, 0, 1, 0, 2, 0, 2, 0], scale=2, t0=0.0, dt=0.1,
         threshold=0.3, separation=0.2)
def test_find_peaks_matches_reference(levels, scale, t0, dt, threshold, separation):
    """Bitwise the reference train on signals quantised to a few levels, so
    plateaus and tied heights are common; covers zero and whole-window
    separations, threshold 1, signals under 3 samples and all-zero ones."""
    values = np.array(levels, dtype=float) / scale
    sig = Signal(t0, dt, values / max(1.0, values.max()))
    assert_same_train(find_peaks(sig, threshold, separation),
                      reference_find_peaks(sig, threshold, separation))


def test_find_peaks_matches_reference_on_reference_packet(signal320, spec320):
    """2x10^4 samples of the n=320 signal at the benchmark's threshold and
    separation: the same train, bit for bit."""
    sub = signal320.window(0.0, from_si(5e-6))
    separation = 0.6 * timescales(spec320).t_cl
    train = find_peaks(sub, 0.3, separation)
    assert len(train) > 500
    assert_same_train(train, reference_find_peaks(sub, 0.3, separation))


def test_plateau_rule_differs_from_scipy():
    """Why the scipy oracle below avoids plateaus: find_peaks takes the
    first sample of a plateau, scipy.signal.find_peaks its middle."""
    scipy_signal = pytest.importorskip("scipy.signal")
    v = np.array([0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.0])
    train = find_peaks(Signal(0.0, 1.0, v), 0.5, 0.0)
    assert train.times.tolist() == [2.5]  # sample 2, refined half a step right
    assert scipy_signal.find_peaks(v, height=0.5)[0].tolist() == [4]


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 200),
    dt=st.floats(1e-3, 1e3),
    t0=st.floats(-1e3, 1e3),
    threshold=st.floats(1e-3, 1.0),
    distance=st.integers(1, 40),
)
def test_find_peaks_matches_scipy_where_rules_agree(data, n, dt, t0, threshold, distance):
    """Distinct sample values (no plateaus, no tied heights) and a separation
    of a whole number d of samples: scipy.signal.find_peaks with
    height=level, distance=d keeps the same samples.  Both keep a sample
    >= the level, strictly above both neighbours, tallest first, rejecting
    one closer than d samples to a kept one."""
    scipy_signal = pytest.importorskip("scipy.signal")
    values = (np.array(data.draw(st.permutations(range(n))), dtype=float) + 1.0) / n
    assert np.unique(values).size == n
    level = threshold * float(values.max())
    want, _ = scipy_signal.find_peaks(values, height=level, distance=distance)
    train = find_peaks(Signal(t0, dt, values), threshold, distance * dt)
    # distinct neighbours keep every parabola shift inside (-1/2, 1/2)
    kept = np.rint((train.times - t0) / dt).astype(int)
    assert kept.tolist() == want.tolist()


def test_find_peaks_is_not_quadratic(signal320, spec320):
    """The whole n=320 reference signal (1.8x10^5 samples, ~6,000 kept
    peaks) at the benchmark's threshold and separation.  The all-pairs
    selection took ~37 s here; the bisect one takes a few ms."""
    separation = 0.6 * timescales(spec320).t_cl
    assert signal320.values.size > 170_000
    start = time.perf_counter()
    train = find_peaks(signal320, 0.3, separation)
    elapsed = time.perf_counter() - start
    assert len(train) > 5_000
    assert elapsed < 5.0, f"find_peaks on {signal320.values.size} samples took {elapsed:.1f} s"


def test_find_peaks_compares_neighbours_through_views():
    """Candidates over 2x10^6 random samples take less traced memory than
    the samples themselves: comparing copies gathered through an index
    array peaked at ~4.1x them."""
    signal = Signal(t0=0.0, dt=1.0, values=np.random.default_rng(3).random(2_000_000))
    tracemalloc.start()
    try:
        train = find_peaks(signal, 0.999, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(train) > 1_000
    assert peak <= signal.values.nbytes

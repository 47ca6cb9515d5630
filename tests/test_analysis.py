"""Peak detection, periodicity estimation, and prediction verification."""

import numpy as np
import pytest

from rydlab import (
    AtomSpec,
    Signal,
    estimate_periodicity,
    find_peaks,
    from_si,
    prediction_table,
    timescales,
    to_si,
    verify,
)


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


def test_find_peaks_parameter_validation(signal48):
    with pytest.raises(ValueError):
        find_peaks(signal48, threshold=0.0, min_separation=1.0)
    with pytest.raises(ValueError):
        find_peaks(signal48, threshold=1.5, min_separation=1.0)
    with pytest.raises(ValueError):
        find_peaks(signal48, threshold=0.5, min_separation=-1.0)


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


def test_verification_entry_json(spec48, signal48):
    entries = verify(prediction_table(spec48, (6,)), signal48)
    record = entries[0].to_dict()
    assert set(record) == {
        "q", "predicted_si", "measured_si", "deviation", "peak_height", "n_peaks",
        "status",
    }
    assert record["status"] == "pass"
    assert record["predicted_si"] == pytest.approx(0.269e-9, rel=0.01)

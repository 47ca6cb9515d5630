"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one line, `criterion N [PASS|FAIL]: ...`, before asserting,
so a full `pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rydlab import (
    AtomSpec,
    PhaseModel,
    TimeGrid,
    autocorrelation,
    gaussian_packet,
    prediction_table,
    pulse_duration,
    reconstruct,
    timescales,
    to_si,
    verify,
    weights,
)
from rydlab.circular import AngularGrid, angular_slice, resemblance

from conftest import a2_over_times, simulate

REFERENCE_Q = (36, 18, 12, 9, 6)


def report(criterion: str, ok: bool, detail: str):
    print(f"criterion {criterion} [{'PASS' if ok else 'FAIL'}]: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_time_scales():
    ts320 = timescales(AtomSpec(320, 2.5))
    ts48 = timescales(AtomSpec(48, 1.5))
    rev320 = to_si(ts320.t_rev)
    sr320 = to_si(ts320.t_sr)
    rev48 = to_si(ts48.t_rev)
    ok = (
        abs(rev320 - 1.06e-6) / 1.06e-6 < 0.01
        and abs(sr320 - 255e-6) / 255e-6 < 0.01
        and abs(rev48 - 0.538e-9) / 0.538e-9 < 0.01
    )
    report(
        "1", ok,
        f"t_rev(320)={rev320*1e6:.4f}us (1.06 +-1%), "
        f"t_sr(320)={sr320*1e6:.1f}us (255 +-1%), "
        f"t_rev(48)={rev48*1e9:.4f}ns (0.538 +-1%)",
    )


def test_criterion_2_prediction_table_320():
    spec = AtomSpec(320, 2.5)
    ts = timescales(spec)
    preds = prediction_table(spec, REFERENCE_Q)
    times_us = [to_si(p.time_center) * 1e6 for p in preds]
    targets = [7.08, 14.2, 21.2, 28.3, 42.5]
    times_ok = all(
        abs(t - ref) / ref < 0.01 for t, ref in zip(times_us, targets)
    )
    # periodicity must be the correctly-rounded rational fraction of t_rev
    rational_ok = True
    for p in preds:
        exact = float(Fraction(ts.t_rev) * Fraction(3, p.q))
        if abs(p.periodicity - exact) > 2.0 * np.spacing(exact):
            rational_ok = False
    report(
        "2", times_ok and rational_ok,
        f"centers {[round(t, 2) for t in times_us]} us vs {targets} +-1%; "
        f"periodicities exact rationals of t_rev: {rational_ok}",
    )


def test_criterion_3_weight_structure():
    parseval_worst = 0.0
    full_ok = True
    for nbar in (320, 48):
        pred = weights(nbar, 6)
        nonzero = int((np.abs(pred.b) > 1e-9).sum())
        full_ok &= nonzero == 1 and pred.kind == "full"
    frac_ok = True
    for q in (9, 12, 18, 36):
        pred = weights(320, q)
        frac_ok &= int((np.abs(pred.b) > 1e-9).sum()) >= 2
    for nbar in (320, 48):
        for q in REFERENCE_Q:
            total = float(np.sum(np.abs(weights(nbar, q).b) ** 2))
            parseval_worst = max(parseval_worst, abs(total - 1.0))
    ok = full_ok and frac_ok and parseval_worst < 1e-10
    report(
        "3", ok,
        f"q=6 single-weight full (both nbar): {full_ok}; "
        f"q in 9/12/18/36 fractional at 320: {frac_ok}; "
        f"worst |sum|b|^2 - 1| = {parseval_worst:.2e} (< 1e-10)",
    )


def test_criterion_4_exact_reconstruction():
    worst = 0.0
    for nbar, sigma in ((320, 2.5), (48, 1.5)):
        spec = AtomSpec(nbar, sigma)
        coeffs = gaussian_packet(spec)
        ts = timescales(spec)
        for q in REFERENCE_Q:
            residual = reconstruct(coeffs, weights(nbar, q), spec, ts.t_sr / q)
            worst = max(worst, residual)
    report("4", worst < 1e-9, f"worst residual at t_sr/q = {worst:.2e} (< 1e-9)")


def test_criterion_5_signal_verification_48():
    spec = AtomSpec(48, 1.5)
    ts = timescales(spec)
    start = time.perf_counter()
    signal = simulate(spec, 4e-9)
    entries = verify(prediction_table(spec, (12, 6)), signal)
    elapsed = time.perf_counter() - start
    by_q = {e.q: e for e in entries}
    dev12 = abs(by_q[12].measured - ts.t_rev / 4.0) / (ts.t_rev / 4.0)
    dev6 = abs(by_q[6].measured - ts.t_rev / 2.0) / (ts.t_rev / 2.0)
    q6_max = float(
        signal.window(ts.t_sr / 6 - ts.t_rev, ts.t_sr / 6 + ts.t_rev).values.max()
    )
    rev_max = float(
        signal.window(ts.t_rev - 2 * ts.t_cl, ts.t_rev + 2 * ts.t_cl).values.max()
    )
    ok = dev12 < 0.10 and dev6 < 0.05 and q6_max > rev_max and elapsed < 10.0
    report(
        "5", ok,
        f"nbar=48: period@1.61ns dev={dev12:.2%} (<10%), "
        f"period@3.23ns dev={dev6:.2%} (<5%), "
        f"superrevival max {q6_max:.3f} > revival max {rev_max:.3f}, "
        f"runtime {elapsed:.1f}s (<10s)",
    )


def test_criterion_6_signal_verification_320():
    spec = AtomSpec(320, 2.5)
    start = time.perf_counter()
    signal = simulate(spec, 45e-6)
    entries = verify(prediction_table(spec, REFERENCE_Q), signal)
    elapsed = time.perf_counter() - start
    by_q = {e.q: e for e in entries}
    meas6 = to_si(by_q[6].measured)
    dev530 = abs(meas6 - 530e-9) / 530e-9
    frac_ok = all(
        by_q[q].status == "pass" and by_q[q].deviation < 0.10
        for q in (36, 18, 12, 9)
    )
    ok = dev530 < 0.05 and frac_ok and elapsed < 60.0
    detail_devs = {q: f"{by_q[q].deviation:.1%}" for q in REFERENCE_Q}
    report(
        "6", ok,
        f"nbar=320: measured T@42.5us = {meas6*1e9:.1f}ns vs 530ns "
        f"(dev {dev530:.2%} < 5%), window deviations {detail_devs} (<10%), "
        f"runtime {elapsed:.1f}s (<60s)",
    )


def test_criterion_7_pulse_duration_calibration():
    p320 = pulse_duration(AtomSpec(320, 2.5))
    p48 = pulse_duration(AtomSpec(48, 1.5))
    dev320 = abs(p320 - 160e-12) / 160e-12
    dev48 = abs(p48 - 900e-15) / 900e-15
    ok = dev320 < 0.03 and dev48 < 0.03
    report(
        "7", ok,
        f"pulse(320,2.5)={p320*1e12:.1f}ps vs 160ps ({dev320:.2%}), "
        f"pulse(48,1.5)={p48*1e15:.0f}fs vs 900fs ({dev48:.2%}), both <3%",
    )


def test_criterion_8a_unitarity_bounds():
    rng = np.random.default_rng(101)
    worst_start = 0.0
    worst_bound = 0.0
    for _ in range(10):
        spec = AtomSpec(rng.uniform(20, 400), rng.uniform(0.6, 3.0))
        coeffs = gaussian_packet(spec)
        scales = timescales(spec)
        grid = TimeGrid(0.0, rng.uniform(0.2, 5.0) * scales.t_cl, 500)
        sig = autocorrelation(coeffs, PhaseModel.EXACT, spec, grid)
        worst_start = max(worst_start, abs(float(sig.values[0]) - 1.0))
        worst_bound = max(worst_bound, float(sig.values.max()) - 1.0)
    ok = worst_start < 1e-12 and worst_bound < 1e-12
    report(
        "8a", ok,
        f"|A(0)|^2 off unity by <= {worst_start:.1e}; "
        f"max overshoot above 1 = {worst_bound:.1e}",
    )


def test_criterion_8b_phase_invariance():
    rng = np.random.default_rng(102)
    spec = AtomSpec(320, 2.5)
    coeffs = gaussian_packet(spec)
    grid = TimeGrid(0.0, timescales(spec).t_cl / 3.0, 3000)
    base = autocorrelation(coeffs, PhaseModel.EXACT, spec, grid)
    worst = 0.0
    for _ in range(5):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, coeffs.weights.size))
        rotated = dataclasses.replace(coeffs, weights=coeffs.weights * phases)
        sig = autocorrelation(rotated, PhaseModel.EXACT, spec, grid)
        worst = max(worst, float(np.max(np.abs(sig.values - base.values))))
    report("8b", worst < 1e-12, f"|A|^2 shift under coefficient phases: {worst:.1e}")


def test_criterion_8c_order2_periodicity_48():
    spec = AtomSpec(48, 1.5)
    ts = timescales(spec)
    coeffs = gaussian_packet(spec)
    dt = ts.t_rev / 211.0
    sig = autocorrelation(coeffs, PhaseModel.ORDER2, spec, TimeGrid(0.0, dt, 422))
    worst = float(np.max(np.abs(sig.values[:211] - sig.values[211:])))
    report("8c", worst < 1e-9, f"order-2 signal shift after t_rev: {worst:.1e}")


def test_criterion_8d_truncation_insensitivity():
    worst = 0.0
    details = []
    for nbar, sigma, horizon in ((48, 1.5, 4e-9), (320, 2.5, 45e-6)):
        spec = AtomSpec(nbar, sigma)
        base = simulate(spec, horizon)
        wide = gaussian_packet(spec, window_sigmas=7.0)
        stride = max(1, base.values.size // 20000)
        times = base.times[::stride]
        a2_wide = a2_over_times(wide, PhaseModel.EXACT, spec, times)
        delta = float(np.max(np.abs(a2_wide - base.values[::stride])))
        details.append(f"nbar={nbar}: {delta:.2e}")
        worst = max(worst, delta)
    report("8d", worst < 1e-8, "5->7 sigma max |A|^2 change " + ", ".join(details)
           + " (< 1e-8)")


def test_criterion_8e_parseval_and_shift_periodicity():
    worst = 0.0
    for nbar in (320, 48):
        for q in REFERENCE_Q:
            pred = weights(nbar, q)
            worst = max(worst, abs(float(np.sum(np.abs(pred.b) ** 2)) - 1.0))
    shift_ok = True
    for nbar in (320, 48):
        for q in REFERENCE_Q:
            l = weights(nbar, q).l
            for k in range(-40, 41):
                a = (Fraction(3 * nbar * k * k, 4 * q) - Fraction(k**3, q)) % 1
                kl = k + l
                b = (Fraction(3 * nbar * kl * kl, 4 * q) - Fraction(kl**3, q)) % 1
                shift_ok &= a == b
    ok = worst < 1e-10 and shift_ok
    report(
        "8e", ok,
        f"Parseval worst deviation {worst:.1e} (<1e-10); "
        f"k -> k+l phase periodicity exact: {shift_ok}",
    )


def test_criterion_8f_resemblance_ordering():
    spec = AtomSpec(320, 2.5)
    ts = timescales(spec)
    coeffs = gaussian_packet(spec)
    grid = AngularGrid(phi0=-math.pi, dphi=2 * math.pi / 4096, count=4096)

    def a2_peak(center, half_width):
        dt = ts.t_cl / 200.0
        g = TimeGrid(center - half_width, dt, int(2 * half_width / dt) + 1)
        sig = autocorrelation(coeffs, PhaseModel.EXACT, spec, g)
        return float(sig.times[np.argmax(sig.values)])

    t_rev_peak = a2_peak(ts.t_rev, 2.0 * ts.t_cl)
    t_sr_peak = a2_peak(ts.t_sr / 6.0, 60.0 * ts.t_cl)
    s0 = angular_slice(coeffs, spec, 0.0, grid)
    r_rev = resemblance(angular_slice(coeffs, spec, t_rev_peak, grid), s0)
    r_sr = resemblance(angular_slice(coeffs, spec, t_sr_peak, grid), s0)
    report(
        "8f", r_sr > r_rev,
        f"resemblance to initial packet: t_sr/6 {r_sr:.4f} > t_rev {r_rev:.4f}",
    )

"""Angular slices of circular packets and the log-domain state amplitudes."""

import math

import mpmath as mp
import numpy as np
import pytest

from rydlab import (
    AngularGrid,
    AngularSlice,
    AtomSpec,
    PhaseModel,
    TimeGrid,
    angular_slice,
    autocorrelation,
    expectation_radius,
    gaussian_packet,
    log_amplitude,
    resemblance,
    timescales,
)

from rydlab.autocorr import phase_cycles

GRID = AngularGrid(phi0=-math.pi, dphi=2.0 * math.pi / 4096, count=4096)


def mp_log_amplitude(n, r):
    """Independent oracle: assemble |r R_{n,n-1}(r) Y_{n-1}^{n-1}(pi/2)| from
    the textbook normalization factorials at 60 digits, then take the log."""
    mp.mp.dps = 60
    return float(mp_log_ring(n, r))


def mp_log_ring(n, r):
    """The log ring amplitude of mp_log_amplitude at the working precision."""
    n = mp.mpf(n)
    r = mp.mpf(r)
    radial = (
        mp.sqrt((2 / n) ** 3 / (2 * n * mp.factorial(2 * n - 1)))
        * mp.e ** (-r / n)
        * (2 * r / n) ** (n - 1)
    )
    angular = mp.sqrt(mp.factorial(2 * n - 1) / (4 * mp.pi)) / (
        2 ** (n - 1) * mp.factorial(n - 1)
    )
    return mp.log(r * radial * angular)


def mp_psi(coeffs, spec, t, r, indices):
    """Independent oracle: 40-digit Psi(phi) summed over the packet's own
    window at the exact GRID angles phi0 + dphi*i, scaled to the largest
    state as the program scales it; also returns sum_k |a_k|."""
    with mp.workdps(40):
        ns, t = mp.mpf(spec.nstar), mp.mpf(t)
        logs = [mp_log_ring(spec.nbar + int(k), r) for k in coeffs.offsets]
        top = max(logs)
        terms = [
            (mp.mpf(float(c.real)) * mp.exp(log - top),  # Gaussian c_k are real
             spec.nbar + int(k) - 1,
             (1 / ns**2 - 1 / (ns + int(k)) ** 2) / 2 * t)
            for k, c, log in zip(coeffs.offsets, coeffs.weights, logs)
        ]
        psi = [
            complex(mp.fsum(
                a * mp.expj(m * (mp.mpf(GRID.phi0) + mp.mpf(GRID.dphi) * int(i)) - theta)
                for a, m, theta in terms
            ))
            for i in indices
        ]
        return psi, float(mp.fsum(a for a, _, _ in terms))


def loop_slice(coeffs, spec, t, r):
    """Reference: Psi on GRID as a sum of one float exponential of
    (n_k - 1) * phi per state, the evaluation the amplitude kernel replaced."""
    phis = GRID.phi0 + GRID.dphi * np.arange(GRID.count)
    logs = np.array([log_amplitude(spec.nbar + int(k), r) for k in coeffs.offsets])
    scaled = np.exp(logs - logs.max())
    thetas = 2.0 * np.pi * phase_cycles(PhaseModel.EXACT, coeffs.offsets, t, spec)
    values = np.zeros(phis.shape, dtype=np.complex128)
    for k, c, w, theta in zip(coeffs.offsets, coeffs.weights, scaled, thetas):
        m = spec.nbar + float(k) - 1.0
        values += (c * w) * np.exp(1j * (m * phis - float(theta)))
    return values


def find_a2_peak(spec, center, half_width, dt):
    """Time of the |A(t)|^2 maximum inside [center-hw, center+hw]."""
    count = int(2.0 * half_width / dt) + 1
    grid = TimeGrid(center - half_width, dt, count)
    sig = autocorrelation(gaussian_packet(spec), PhaseModel.EXACT, spec, grid)
    return float(sig.times[np.argmax(sig.values)])


@pytest.fixture(scope="module")
def spec():
    return AtomSpec(320, 2.5)


@pytest.fixture(scope="module")
def coeffs(spec):
    return gaussian_packet(spec)


@pytest.fixture(scope="module")
def slice_t0(coeffs, spec):
    return angular_slice(coeffs, spec, 0.0, GRID)


@pytest.fixture(scope="module")
def revival_peak_time(spec):
    ts = timescales(spec)
    return find_a2_peak(spec, ts.t_rev, 2.0 * ts.t_cl, ts.t_cl / 200.0)


@pytest.fixture(scope="module")
def superrevival_peak_time(spec):
    # the tallest comb peak sits a few classical periods off t_sr/6
    ts = timescales(spec)
    return find_a2_peak(spec, ts.t_sr / 6.0, 60.0 * ts.t_cl, ts.t_cl / 200.0)


def test_expectation_radius_values():
    assert expectation_radius(320) == 102560.0
    assert expectation_radius(1) == 1.5
    assert expectation_radius(48) == 2328.0


def test_log_amplitude_ground_state_closed_form():
    """n=1, r=1: amplitude is 2 e^-1 |Y_0^0| times the unit radial measure."""
    expected = math.log(2.0 / math.sqrt(4.0 * math.pi)) - 1.0
    assert log_amplitude(1, 1.0) == pytest.approx(expected, rel=1e-14)


def test_log_amplitude_matches_factorial_oracle():
    for n, r in ((1, 1.0), (5, 30.0), (48, 2328.0), (315, 102560.0),
                 (320, 102400.0), (320, 102560.0), (325, 102560.0)):
        assert log_amplitude(n, r) == pytest.approx(mp_log_amplitude(n, r), rel=1e-12)


def test_log_amplitude_ridge_at_n_squared():
    """The ring amplitude of the n=320 circular state is largest at r = n^2."""
    r = np.linspace(0.5 * 320**2, 1.5 * 320**2, 20001)
    values = log_amplitude(320, r)
    step = r[1] - r[0]
    assert abs(r[np.argmax(values)] - 320**2) <= step


def test_packet_window_amplitudes_commensurate():
    """Across n = 315..325 at the packet radius the states stay within a
    handful of decades of each other (no overflow/underflow in the sum)."""
    r0 = expectation_radius(320)
    logs = [log_amplitude(n, r0) for n in range(315, 326)]
    assert all(math.isfinite(v) for v in logs)
    spread_decades = (max(logs) - min(logs)) / math.log(10.0)
    assert spread_decades < 10.0


@pytest.mark.parametrize("nbar, sigma", [(48, 1.5), (320, 2.5)])
def test_slice_matches_mp_oracle(nbar, sigma):
    """Eight random grid angles at t = 0, t_rev and t_sr/6.  Measured worst
    ~1.5e-13 of sum|a_k| (n = 320), mostly the float log amplitudes.  The
    whole slice stays within 5e-13 of the per-term loop (measured <= 3.6e-13,
    the rounding of the loop's float (n_k - 1) * phi)."""
    spec = AtomSpec(nbar, sigma)
    coeffs = gaussian_packet(spec)
    ts = timescales(spec)
    rng = np.random.default_rng(5)
    for t in (0.0, ts.t_rev, ts.t_sr / 6.0):
        values = angular_slice(coeffs, spec, t, GRID).values
        loop = loop_slice(coeffs, spec, t, expectation_radius(nbar))
        assert np.max(np.abs(values - loop)) <= 5e-13
        indices = rng.integers(0, GRID.count, 8)
        want, scale = mp_psi(coeffs, spec, t, expectation_radius(nbar), indices)
        worst = max(abs(values[i] - w) for i, w in zip(indices, want))
        assert worst <= 4e-13 * scale, f"t={t:.3e}: {worst / scale:.2e}"


def test_initial_slice_peaks_at_phi_zero(slice_t0):
    mags = np.abs(slice_t0.values)
    assert slice_t0.phis[np.argmax(mags)] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(mags))


def test_slice_is_2pi_periodic(coeffs, spec, revival_peak_time):
    grid = AngularGrid(phi0=-math.pi, dphi=2.0 * math.pi / 2048, count=4096)
    wide = angular_slice(coeffs, spec, revival_peak_time, grid)
    mags = np.abs(wide.values)
    rel = np.max(np.abs(mags[:2048] - mags[2048:])) / mags.max()
    assert rel < 1e-10


def test_classical_regime_shape_recurs_each_period():
    """A narrow packet barely disperses per orbit: |Psi| at t=0 and t=T_cl
    agree to ~2% relative RMS."""
    spec = AtomSpec(320, 1.0)
    coeffs = gaussian_packet(spec)
    ts = timescales(spec)
    a = np.abs(angular_slice(coeffs, spec, 0.0, GRID).values)
    b = np.abs(angular_slice(coeffs, spec, ts.t_cl, GRID).values)
    assert np.linalg.norm(a - b) / np.linalg.norm(a) < 0.02


def test_slice_insensitive_to_window_enlargement(spec, superrevival_peak_time):
    """5 -> 7 sigma window: amplitude weights of the extra states are the
    square roots of ~2.5e-8 probabilities, so the profile moves at ~1e-4."""
    base = angular_slice(
        gaussian_packet(spec, window_sigmas=5.0), spec, superrevival_peak_time, GRID
    )
    wide = angular_slice(
        gaussian_packet(spec, window_sigmas=7.0), spec, superrevival_peak_time, GRID
    )
    a, b = np.abs(base.values), np.abs(wide.values)
    assert np.linalg.norm(a - b) / np.linalg.norm(a) < 2e-4


def test_revival_slice_asymmetric_with_subsidiaries(coeffs, spec, revival_peak_time):
    """At the revival the packet reforms but drags subsidiary structure."""
    mags = np.abs(angular_slice(coeffs, spec, revival_peak_time, GRID).values)
    peak = int(np.argmax(mags))
    # mirror the profile about its peak: a symmetric packet would cancel
    rolled = np.roll(mags, -peak)
    asymmetry = np.linalg.norm(rolled[1:] - rolled[1:][::-1]) / np.linalg.norm(mags)
    assert asymmetry > 0.05
    # subsidiary maxima beyond the main lobe
    local_max = (mags[1:-1] > mags[:-2]) & (mags[1:-1] >= mags[2:])
    tall = local_max & (mags[1:-1] > 0.1 * mags.max())
    assert int(tall.sum()) >= 2


def test_superrevival_slice_resembles_initial_more_than_revival(
    coeffs, spec, slice_t0, revival_peak_time, superrevival_peak_time
):
    """The single reformed packet at t ~ t_sr/6 beats the revival's likeness
    to the initial packet, and carries a taller peak."""
    s_rev = angular_slice(coeffs, spec, revival_peak_time, GRID)
    s_sr = angular_slice(coeffs, spec, superrevival_peak_time, GRID)
    r_rev = resemblance(s_rev, slice_t0)
    r_sr = resemblance(s_sr, slice_t0)
    assert r_sr > r_rev
    assert np.abs(s_sr.values).max() > np.abs(s_rev.values).max()


def test_resemblance_properties(slice_t0):
    assert resemblance(slice_t0, slice_t0) == pytest.approx(1.0, abs=1e-12)
    rolled = AngularSlice(
        phi0=slice_t0.phi0,
        dphi=slice_t0.dphi,
        values=np.roll(slice_t0.values, 1234),
        t=slice_t0.t,
        r=slice_t0.r,
    )
    assert resemblance(rolled, slice_t0) == pytest.approx(1.0, abs=1e-9)
    other = AngularSlice(phi0=0.0, dphi=0.1, values=np.ones(7), t=0.0, r=1.0)
    with pytest.raises(ValueError):
        resemblance(slice_t0, other)


def test_grid_and_slice_validation():
    with pytest.raises(ValueError):
        AngularGrid(0.0, 0.0, 10)
    with pytest.raises(ValueError):
        AngularGrid(0.0, 0.1, 0)
    with pytest.raises(ValueError):
        AngularSlice(0.0, 0.1, np.array([1.0, np.inf]), 0.0, 1.0)
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            log_amplitude(320, bad)
    with pytest.raises(ValueError):
        log_amplitude(0, 1.0)

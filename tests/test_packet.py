"""Gaussian excitation distributions and the pulse-duration calibration."""

import math

import numpy as np
import pytest

from rydlab import AtomSpec, CoefficientSet, gaussian_packet, pulse_duration


def brute_force_probabilities(sigma, half):
    """Independent oracle: normalize exp(-k^2/(2 sigma^2)) by direct summation."""
    raw = {k: math.exp(-(k * k) / (2.0 * sigma * sigma)) for k in range(-half, half + 1)}
    total = sum(raw.values())
    return {k: v / total for k, v in raw.items()}


def brute_force_dropped_mass(sigma, half):
    """Independent oracle: Gaussian mass beyond |k| = half, over |k| <= 20 sigma."""
    reach = math.ceil(20.0 * sigma)
    raw = [math.exp(-(k * k) / (2.0 * sigma * sigma)) for k in range(-reach, reach + 1)]
    return math.fsum(raw[: reach - half] + raw[reach + half + 1 :]) / math.fsum(raw)


def test_gaussian_ratio_forced_by_form():
    """|c_0|^2 / |c_1|^2 = exp(1/(2 sigma^2)) for sigma = 2.5."""
    c = gaussian_packet(AtomSpec(320, 2.5))
    p = c.probabilities
    i0 = int(np.where(c.offsets == 0)[0][0])
    ratio = p[i0] / p[i0 + 1]
    assert ratio == pytest.approx(math.exp(1.0 / (2.0 * 2.5**2)), rel=1e-12)
    assert ratio == pytest.approx(1.0833, rel=1e-4)


def test_normalization():
    for nbar, sigma in ((320, 2.5), (48, 1.5), (36, 0.8), (100, 4.0)):
        c = gaussian_packet(AtomSpec(nbar, sigma))
        assert abs(float(np.sum(c.probabilities)) - 1.0) < 1e-12


def test_window_and_central_weight_48():
    """nbar=48, sigma=1.5: window k = -8..8 and |c_0|^2 from the oracle."""
    c = gaussian_packet(AtomSpec(48, 1.5), window_sigmas=5.0)
    assert c.offsets.min() == -8 and c.offsets.max() == 8
    oracle = brute_force_probabilities(1.5, 8)
    i0 = int(np.where(c.offsets == 0)[0][0])
    assert c.probabilities[i0] == pytest.approx(oracle[0], rel=1e-12)
    assert round(oracle[0], 4) == 0.2660
    for i, k in enumerate(c.offsets):
        assert c.probabilities[i] == pytest.approx(oracle[int(k)], rel=1e-12)


def test_default_window_is_smallest_dropping_at_most_1e12():
    """The default window drops <= 1e-12 of the mass; one state narrower on
    each side drops more."""
    for nbar, sigma in ((48, 1.5), (320, 2.5), (640, 5.0), (36, 0.8), (100, 4.0)):
        c = gaussian_packet(AtomSpec(nbar, sigma))
        half = int(c.offsets.max())
        assert c.offsets.min() == -half
        assert brute_force_dropped_mass(sigma, half) <= 1e-12
        assert brute_force_dropped_mass(sigma, half - 1) > 1e-12


def test_weights_symmetric_when_unclipped():
    c = gaussian_packet(AtomSpec(320, 2.5))
    assert np.allclose(c.weights, c.weights[::-1], rtol=0, atol=0)
    assert np.all(c.weights.real >= 0) and np.all(c.weights.imag == 0)


def test_window_clipped_at_small_n():
    """nbar=8, sigma=2: the 5-sigma window would reach n = -2; it clips at n = 1."""
    c = gaussian_packet(AtomSpec(8, 2.0), window_sigmas=5.0)
    assert c.offsets.min() == -7
    assert c.offsets.max() == 10
    assert abs(float(np.sum(c.probabilities)) - 1.0) < 1e-12


@pytest.mark.parametrize("window_sigmas, half", [
    (math.inf, None), (math.nan, None), (-1.0, None), (13.0, None), (5.0, 8), (7.0, 11),
])
def test_window_sigmas_range(window_sigmas, half):
    """An explicit window is finite and in (0, 12] sigma, the default search
    reach; the 5 and 7 sigma windows span k = -ceil(w*sigma) .. ceil(w*sigma)."""
    spec = AtomSpec(48, 1.5)
    if half is None:
        with pytest.raises(ValueError, match=r"window_sigmas must be finite and in \(0, 12\]"):
            gaussian_packet(spec, window_sigmas=window_sigmas)
    else:
        c = gaussian_packet(spec, window_sigmas=window_sigmas)
        assert c.offsets.tolist() == list(range(-half, half + 1))


def test_pulse_duration_paper_calibrations():
    """160 ps for (320, 2.5) and 900 fs for (48, 1.5), both within 3%."""
    assert pulse_duration(AtomSpec(320, 2.5)) == pytest.approx(160e-12, rel=0.03)
    assert pulse_duration(AtomSpec(48, 1.5)) == pytest.approx(900e-15, rel=0.03)


def test_pulse_duration_inverse_in_sigma():
    """Doubling sigma halves the duration exactly."""
    assert pulse_duration(AtomSpec(320, 5.0)) * 2.0 == pulse_duration(AtomSpec(320, 2.5))


def test_coefficient_set_validation():
    with pytest.raises(ValueError):
        CoefficientSet(offsets=np.array([-1, 1]), weights=np.array([0.6, 0.8]))
    with pytest.raises(ValueError):
        CoefficientSet(offsets=np.array([0, 1]), weights=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        CoefficientSet(offsets=np.array([], dtype=int), weights=np.array([]))
    # NaN fails every comparison, so it cannot pass as a normalized weight
    with pytest.raises(ValueError):
        CoefficientSet(offsets=np.array([0, 1]), weights=np.array([math.nan, 1.0]))
    with pytest.raises(ValueError):
        CoefficientSet(offsets=np.array([[0, 1]]), weights=np.array([[0.6, 0.8]]))
    # offsets that are not integers are refused, not truncated or cast
    for offsets in ([0.5, 1.5], [math.nan, 1.0], [0.0, math.inf], [2.0**63, 2.0**63 + 1],
                    [False, True]):
        with pytest.raises(ValueError, match="offsets must be integers"):
            CoefficientSet(offsets=np.array(offsets), weights=np.array([0.6, 0.8]))
    with pytest.raises(ValueError, match="offsets must be integers"):
        CoefficientSet(offsets=np.array([math.nan]), weights=np.array([1.0]))
    # integral floats stay valid, as their integers
    c = CoefficientSet(offsets=np.array([0.0, 1.0]), weights=np.array([0.6, 0.8]))
    assert c.offsets.dtype == np.int64 and c.offsets.tolist() == [0, 1]


def test_weights_are_immutable():
    c = gaussian_packet(AtomSpec(48, 1.5))
    with pytest.raises(ValueError):
        c.weights[0] = 1.0

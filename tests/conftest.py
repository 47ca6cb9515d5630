"""Shared fixtures: the two reference packets and their simulated signals,
plus the arbitrary-times |A|^2 reference."""

import math

import numpy as np
import pytest

from rydlab import (
    AtomSpec,
    PhaseModel,
    Signal,
    TimeGrid,
    autocorrelation,
    from_si,
    gaussian_packet,
    timescales,
)
from rydlab.autocorr import _cycle_rates, _cycles_at


@pytest.fixture(scope="session")
def spec320():
    return AtomSpec(nbar=320, sigma=2.5)


@pytest.fixture(scope="session")
def spec48():
    return AtomSpec(nbar=48, sigma=1.5)


def simulate(spec: AtomSpec, t_end_seconds: float, samples_per_period: int = 20) -> Signal:
    """Exact-energy |A(t)|^2 from 0 to t_end on the default grid density."""
    scales = timescales(spec)
    dt = scales.t_cl / samples_per_period
    count = int(math.ceil(from_si(t_end_seconds) / dt)) + 1
    coeffs = gaussian_packet(spec)
    return autocorrelation(coeffs, PhaseModel.EXACT, spec, TimeGrid(0.0, dt, count))


@pytest.fixture(scope="session")
def signal48(spec48):
    """nbar=48 reference signal over [0, 4 ns]."""
    return simulate(spec48, 4e-9)


@pytest.fixture(scope="session")
def signal320(spec320):
    """nbar=320 reference signal over [0, 45 us]."""
    return simulate(spec320, 45e-6)


def circular_distance(a: float, b: float, period: float = 2.0 * np.pi) -> float:
    """Distance between two angles on a circle of the given period."""
    d = math.fmod(abs(a - b), period)
    return min(d, period - d)


def a2_over_times(
    coeffs, model: PhaseModel, spec: AtomSpec, times: np.ndarray
) -> np.ndarray:
    """|A|^2 at arbitrary times, one term at a time; independent per time
    point.  The reference the grid kernel is tested against."""
    hi, lo = _cycle_rates(model, spec.nstar, coeffs.offsets)
    amp = np.zeros(times.shape, dtype=np.complex128)
    for p, rate in zip(coeffs.probabilities, zip(hi, lo)):
        amp += p * np.exp(-2j * np.pi * _cycles_at(rate, times))
    return np.abs(amp) ** 2

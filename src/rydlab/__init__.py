"""Numerical laboratory for the long-term revival structure of Rydberg wave packets.

The pipeline: build a Gaussian excitation distribution around a central
quantum number, evolve it with exact or Taylor-truncated hydrogenic phases,
evaluate the autocorrelation |A(t)|^2, predict where full and fractional
superrevivals appear from the subsidiary-packet weights, and verify the
predicted periodicities against the simulated signal.
"""

from .analysis import (
    PeakTrain,
    PeriodicityEstimate,
    VerificationEntry,
    estimate_periodicity,
    find_peaks,
    verify,
)
from .autocorr import PhaseModel, Signal, TimeGrid, autocorrelation
from .circular import (
    AngularGrid,
    AngularSlice,
    angular_slice,
    expectation_radius,
    log_amplitude,
    resemblance,
)
from .packet import CoefficientSet, gaussian_packet, pulse_duration
from .spectrum import (
    ATOMIC_UNIT_OF_TIME,
    AtomSpec,
    TimeScales,
    energy,
    from_si,
    timescales,
    to_si,
)
from .superrevival import (
    FractionSpec,
    IntegerConstants,
    SuperrevivalPrediction,
    integer_constants,
    prediction_table,
    reconstruct,
    weights,
)

__version__ = "0.1.0"

__all__ = [
    "ATOMIC_UNIT_OF_TIME",
    "AngularGrid",
    "AngularSlice",
    "AtomSpec",
    "CoefficientSet",
    "FractionSpec",
    "IntegerConstants",
    "PeakTrain",
    "PeriodicityEstimate",
    "PhaseModel",
    "Signal",
    "SuperrevivalPrediction",
    "TimeGrid",
    "TimeScales",
    "VerificationEntry",
    "angular_slice",
    "autocorrelation",
    "energy",
    "estimate_periodicity",
    "expectation_radius",
    "find_peaks",
    "from_si",
    "gaussian_packet",
    "integer_constants",
    "log_amplitude",
    "prediction_table",
    "pulse_duration",
    "reconstruct",
    "resemblance",
    "timescales",
    "to_si",
    "verify",
    "weights",
]

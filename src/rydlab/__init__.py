"""Numerical laboratory for the long-term revival structure of Rydberg wave packets.

The pipeline: build a Gaussian excitation distribution around a central
quantum number, evolve it with exact or Taylor-truncated hydrogenic phases,
evaluate the autocorrelation |A(t)|^2, predict where full and fractional
superrevivals appear from the subsidiary-packet weights, and verify the
predicted periodicities against the simulated signal.

The public names are resolved on first use (PEP 562): `rydlab.X` and
`from rydlab import X` import only the layer that defines X, so a process
loads the layers it runs and no others.  `rydlab.<layer>` is that layer's
module.
"""

from importlib import import_module

# The layer module that defines each public name.
_LAYER_OF = {
    name: layer
    for layer, names in {
        "analysis": ("PeakTrain", "PeriodicityEstimate", "VerificationEntry",
                     "estimate_periodicity", "find_peaks", "verify"),
        "autocorr": ("PhaseModel", "Signal", "TimeGrid", "autocorrelation"),
        "circular": ("AngularGrid", "AngularSlice", "angular_slice", "expectation_radius",
                     "log_amplitude", "resemblance"),
        "packet": ("CoefficientSet", "gaussian_packet", "pulse_duration"),
        "spectrum": ("ATOMIC_UNIT_OF_TIME", "AtomSpec", "TimeScales", "energy", "from_si",
                     "timescales", "to_si"),
        "superrevival": ("FractionSpec", "IntegerConstants", "SuperrevivalPrediction",
                         "SuperrevivalTiming", "integer_constants", "prediction_table",
                         "reconstruct", "timing", "timing_table", "weights"),
    }.items()
    for name in names
}
_LAYERS = frozenset(_LAYER_OF.values()) | {"cli"}

__version__ = "0.1.0"

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    if name in _LAYERS:
        return import_module(f".{name}", __name__)
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAYER_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__, as an eager import would
    return value


def __dir__():
    return sorted({*globals(), *_LAYER_OF, *_LAYERS})

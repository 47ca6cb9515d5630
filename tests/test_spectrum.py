"""Eigenenergies, time scales, and unit conversions."""

import math

import numpy as np
import pytest

from rydlab import (
    ATOMIC_UNIT_OF_TIME,
    AngularGrid,
    AtomSpec,
    CoefficientSet,
    FractionSpec,
    PeakTrain,
    PeriodicityEstimate,
    Signal,
    SuperrevivalPrediction,
    SuperrevivalTiming,
    TimeGrid,
    TimeScales,
    VerificationEntry,
    energy,
    from_si,
    timescales,
    timing,
    to_si,
    weights,
)
from rydlab.spectrum import MAX_NBAR, MAX_SIGMA, timescales_from_nstar


def test_energy_ground_and_first_excited():
    """Hydrogen reference points: E_1 = -1/2, E_2 = -1/8 hartree."""
    assert energy(1, 0) == -0.5
    assert energy(2, 0) == -0.125


def test_energy_with_defect_direct_arithmetic():
    """energy(48, 0.05) equals the hand-evaluated -1/(2 * 47.95^2)."""
    expected = -1.0 / (2.0 * 47.95**2)
    got = energy(48, 0.05)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(-2.174667e-4, rel=1e-6)


def test_energy_defect_shift_identity():
    """energy(n, d) == energy(n - d, 0) over a grid of (n, d)."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = rng.uniform(1.0, 500.0)
        d = rng.uniform(0.0, 0.9)
        assert energy(n, d) == energy(n - d, 0.0)


def test_energy_domain_error():
    with pytest.raises(ValueError):
        energy(1, 1.0)
    with pytest.raises(ValueError):
        energy(0.5, 0.9)


def test_timescales_paper_values_320():
    """nbar=320: revival at ~1.06 us and superrevival at ~255 us."""
    ts = timescales(AtomSpec(320, 2.5))
    assert to_si(ts.t_rev) == pytest.approx(1.06e-6, rel=0.01)
    assert to_si(ts.t_sr) == pytest.approx(255e-6, rel=0.01)


def test_timescales_paper_value_48():
    """nbar=48: revival at ~0.538 ns."""
    ts = timescales(AtomSpec(48, 1.5))
    assert to_si(ts.t_rev) == pytest.approx(0.538e-9, rel=0.01)


def test_timescale_ratios_machine_precision():
    """t_rev/t_cl == 2 n*/3 and t_sr/t_rev == 3 n*/4 to machine precision."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        nbar = rng.uniform(2.0, 600.0)
        sigma = rng.uniform(0.5, nbar / 6.0)
        defect = rng.uniform(0.0, 0.5)
        spec = AtomSpec(nbar, sigma, defect)
        ts = timescales(spec)
        ns = spec.nstar
        assert ts.t_cl == pytest.approx(2.0 * math.pi * ns**3, rel=1e-14)
        assert ts.t_rev / ts.t_cl == pytest.approx(2.0 * ns / 3.0, rel=1e-14)
        assert ts.t_sr / ts.t_rev == pytest.approx(3.0 * ns / 4.0, rel=1e-14)


def test_timescales_reproduce_taylor_coefficients():
    """The three clocks match the energy derivatives at nbar*.

    Independent oracle: central finite differences of energy(n) around
    n* = 48.  The expansion coefficients satisfy E' = 2*pi/T_cl,
    E''/2 = -2*pi/t_rev, E'''/6 = 2*pi/t_sr.
    """
    ns = 48.0
    ts = timescales(AtomSpec(48, 1.5))
    h = 0.05
    e = {m: energy(ns + m * h) for m in (-2, -1, 0, 1, 2)}
    d1 = (e[1] - e[-1]) / (2 * h)
    d2 = (e[1] - 2 * e[0] + e[-1]) / h**2
    d3 = (e[2] - 2 * e[1] + 2 * e[-1] - e[-2]) / (2 * h**3)
    assert d1 == pytest.approx(2.0 * math.pi / ts.t_cl, rel=1e-4)
    assert d2 / 2.0 == pytest.approx(-2.0 * math.pi / ts.t_rev, rel=1e-4)
    assert d3 / 6.0 == pytest.approx(2.0 * math.pi / ts.t_sr, rel=1e-3)


def test_integer_defect_reproduces_hydrogen_downstream():
    """A unit defect at nbar+1 lands on the same n* as hydrogen at nbar."""
    shifted = timescales(AtomSpec(321, 2.5, defect=1.0))
    hydrogen = timescales(AtomSpec(320, 2.5))
    assert shifted == hydrogen


def test_to_si_values():
    assert to_si(0.0) == 0.0
    # one classical period of the nbar=320 packet
    t_cl_au = 2.0 * math.pi * 320**3
    assert to_si(t_cl_au) == pytest.approx(t_cl_au * 2.41888e-17, rel=1e-5)
    assert to_si(t_cl_au) == pytest.approx(4.98e-9, rel=1e-3)
    assert to_si(math.pi * 320**5) == pytest.approx(255e-6, rel=0.01)


def test_si_round_trip():
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, 1e13, 50):
        assert from_si(to_si(t)) == pytest.approx(t, rel=1e-15)
    assert ATOMIC_UNIT_OF_TIME == pytest.approx(2.4188843265857e-17, rel=0, abs=0)


def test_atom_spec_validation():
    with pytest.raises(ValueError):
        AtomSpec(nbar=0.5, sigma=0.1)
    with pytest.raises(ValueError):
        AtomSpec(nbar=48, sigma=0.0)
    with pytest.raises(ValueError):
        AtomSpec(nbar=48, sigma=1.5, defect=-0.1)
    with pytest.raises(ValueError, match="sigma must be <="):
        AtomSpec(nbar=1e12, sigma=math.nextafter(MAX_SIGMA, math.inf))
    assert AtomSpec(nbar=1e12, sigma=MAX_SIGMA).sigma == MAX_SIGMA
    with pytest.raises(ValueError):
        AtomSpec(nbar=48, sigma=47.9, defect=0.5)  # distribution reaches n <= 0
    spec = AtomSpec(48, 1.5, 0.35)
    assert spec.nstar == pytest.approx(47.65)
    # a bool is not read as 0 or 1, whether Python's or numpy's
    for args in ((True, 0.5), (np.bool_(True), 0.5), (48, True), (48, np.bool_(True)),
                 (48, 1.5, False), (48, 1.5, np.bool_(False))):
        with pytest.raises(ValueError, match="must be a number, not a bool"):
            AtomSpec(*args)
    # nor is text read as a number, as float() would read it
    for args, kind in ((("48", 1.5), "str"), ((48, "1.5"), "str"), ((48, 1.5, " 0.35 "), "str"),
                       ((b"48", 1.5), "bytes"), ((48, 1.5, b"0.35"), "bytes")):
        with pytest.raises(ValueError, match=f"must be a number, not a {kind}; got "):
            AtomSpec(*args)


def test_timescales_need_nstar_up_to_max_nbar():
    """n* in (0, MAX_NBAR], the bound AtomSpec puts on nbar, gives finite
    time scales; past it, or at NaN, timescales_from_nstar refuses n*, and
    so do timing and weights, which read it."""
    scales = timescales_from_nstar(MAX_NBAR)
    assert all(map(math.isfinite, (scales.t_cl, scales.t_rev, scales.t_sr)))
    for bad in (0.0, -1.0, math.nan, math.inf, np.nextafter(MAX_NBAR, math.inf), 1e62):
        with pytest.raises(ValueError, match="nstar must be in"):
            timescales_from_nstar(bad)
    for call in (lambda: timing(math.inf, 6), lambda: timing(1e62, 6),
                 lambda: weights(10**62, 6)):
        with pytest.raises(ValueError, match="nstar must be in"):
            call()


# A sample of each of the 12 record types and its repr, as
# @dataclass(frozen=True) printed it before the records derived from
# spectrum._Record.
RECORD_REPRS = {
    "AtomSpec": (lambda: AtomSpec(48, 1.5, 0.25),
                 "AtomSpec(nbar=48.0, sigma=1.5, defect=0.25)"),
    "TimeScales": (lambda: TimeScales(t_cl=1.0, t_rev=2.5, t_sr=3.75),
                   "TimeScales(t_cl=1.0, t_rev=2.5, t_sr=3.75)"),
    "CoefficientSet": (lambda: CoefficientSet([-1, 0, 1], [0.6, 0.0, 0.8]),
                       "CoefficientSet(offsets=array([-1,  0,  1]), "
                       "weights=array([0.6+0.j, 0. +0.j, 0.8+0.j]))"),
    "TimeGrid": (lambda: TimeGrid(0.0, 0.5, 4), "TimeGrid(t0=0.0, dt=0.5, count=4)"),
    "Signal": (lambda: Signal(1.0, 0.25, [0.5, 1.0]),
               "Signal(t0=1.0, dt=0.25, values=array([0.5, 1. ]))"),
    "AngularGrid": (lambda: AngularGrid(-1.5, 0.75, 4),
                    "AngularGrid(phi0=-1.5, dphi=0.75, count=4)"),
    "PeakTrain": (lambda: PeakTrain([1.0, 2.0], [0.5, 0.25]),
                  "PeakTrain(times=array([1., 2.]), heights=array([0.5 , 0.25]))"),
    "PeriodicityEstimate": (lambda: PeriodicityEstimate(2.0, 0.125),
                            "PeriodicityEstimate(period=2.0, spread=0.125, "
                            "offset_from_prediction=None)"),
    "VerificationEntry": (lambda: VerificationEntry(6, 2.0, 2.5, 0.25, 0.75, 5, "pass"),
                          "VerificationEntry(q=6, predicted=2.0, measured=2.5, deviation=0.25, "
                          "peak_height=0.75, n_peaks=5, status='pass')"),
    "FractionSpec": (lambda: FractionSpec(6.0), "FractionSpec(q=6)"),
    "SuperrevivalTiming": (lambda: SuperrevivalTiming(6, 100.0, 2.5),
                           "SuperrevivalTiming(q=6, time_center=100.0, periodicity=2.5)"),
    "SuperrevivalPrediction": (
        lambda: SuperrevivalPrediction(6, 100.0, 2.5, 2, 1, 4, (1j, 0j), "full"),
        "SuperrevivalPrediction(q=6, time_center=100.0, periodicity=2.5, l=2, alpha=1, "
        "N=4, b=(1j, 0j), kind='full')"),
}


@pytest.mark.parametrize("name", RECORD_REPRS)
def test_record_repr_matches_dataclass(name):
    make, text = RECORD_REPRS[name]
    record = make()
    assert type(record).__name__ == name
    assert repr(record) == text


@pytest.mark.parametrize("name", RECORD_REPRS)
def test_record_is_frozen(name):
    """Assigning or deleting a field, or any other attribute, raises
    AttributeError (as dataclasses.FrozenInstanceError did) and changes
    nothing; vars() still reads the fields."""
    record = RECORD_REPRS[name][0]()
    before = repr(record)
    field = next(iter(vars(record)))
    for attribute in (field, "other"):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(record, attribute, 1)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(record, attribute)
    assert repr(record) == before and "other" not in vars(record)


def test_record_equality_and_hash():
    """Records of one type compare and hash as their field tuples; records
    of another type, or tuples, are never equal to them; a record with an
    ndarray field is unhashable."""
    spec = AtomSpec(320, 2.5)
    assert spec == AtomSpec(nbar=320.0, sigma=2.5, defect=0.0)
    assert hash(spec) == hash(AtomSpec(320.0, 2.5)) == hash((320.0, 2.5, 0.0))
    assert spec != AtomSpec(320, 2.6) and spec != AtomSpec(320, 2.5, 0.5)
    assert spec != (320.0, 2.5, 0.0) and spec.__eq__((320.0, 2.5, 0.0)) is NotImplemented
    timed = SuperrevivalTiming(6, 1.0, 2.0)
    assert timed != TimeScales(6.0, 1.0, 2.0)  # equal field tuples, other type
    assert timed != SuperrevivalPrediction(6, 1.0, 2.0, 2, 1, 4, (), "full")
    entry = VerificationEntry(12, 1.0, None, None, None, 0, "not evaluated")
    assert hash(entry) == hash((12, 1.0, None, None, None, 0, "not evaluated"))
    assert {weights(320, 6), weights(320, 6), timing(320, 6)} == {weights(320, 6),
                                                                  timing(320, 6)}
    assert len({FractionSpec(6), FractionSpec(6.0), FractionSpec(9)}) == 2
    for name in ("CoefficientSet", "Signal", "PeakTrain"):  # ndarray fields
        with pytest.raises(TypeError, match="unhashable"):
            hash(RECORD_REPRS[name][0]())


def test_record_construction():
    """Fields by position, keyword or default; TypeError for a missing,
    unknown or repeated field, or too many positional arguments."""
    assert AtomSpec(48, 1.5) == AtomSpec(sigma=1.5, nbar=48) == AtomSpec(48, sigma=1.5,
                                                                       defect=0.0)
    assert AtomSpec(48, 1.5).defect == 0.0
    assert PeriodicityEstimate(2.0, 0.125).offset_from_prediction is None
    estimate = PeriodicityEstimate(2.0, 0.125, offset_from_prediction=-0.5)
    assert estimate.offset_from_prediction == -0.5
    for call, message in (
        (lambda: AtomSpec(48), "missing field 'sigma'"),
        (lambda: AtomSpec(nbar=48, defect=0.1), "missing field 'sigma'"),
        (lambda: AtomSpec(48, 1.5, nstar=48), "unexpected field 'nstar'"),
        (lambda: AtomSpec(48, 1.5, nbar=48), "multiple values for field 'nbar'"),
        (lambda: AtomSpec(48, 1.5, 0.0, 1.0), "takes 3 fields, got 4 positional"),
        (lambda: TimeScales(1.0, 2.0), "missing field 't_sr'"),
    ):
        with pytest.raises(TypeError, match=message):
            call()


def test_prediction_fields_follow_timing_fields():
    """SuperrevivalPrediction's fields are SuperrevivalTiming's, then its
    own, in that order in the constructor, repr and vars()."""
    pred = weights(320, 6)
    assert list(vars(timing(320, 6))) == ["q", "time_center", "periodicity"]
    assert list(vars(pred)) == ["q", "time_center", "periodicity", "l", "alpha", "N", "b",
                                "kind"]
    assert SuperrevivalPrediction(*vars(pred).values()) == pred
    assert SuperrevivalPrediction(**vars(pred)) == pred

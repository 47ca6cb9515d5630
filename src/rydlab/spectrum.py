"""Hydrogenic eigenenergies, characteristic time scales, and unit conversion.

Everything internal runs in hartree atomic units; seconds appear only at
the I/O boundary.  The three clocks of the long-term dynamics are

    T_cl  = 2*pi*n*^3          classical Kepler period
    t_rev = (2*n*/3) * T_cl    revival time
    t_sr  = (3*n*/4) * t_rev   superrevival time

with n* = nbar - delta the effective (quantum-defected) central quantum
number.

The record types of every layer (AtomSpec and TimeScales here, TimeGrid,
CoefficientSet, PeakTrain, SuperrevivalPrediction, ...) derive from one
private base, _Record: plain frozen classes with the construction,
equality, hashing and repr of a frozen dataclass, but no code generated or
compiled per class, and no import of dataclasses (which loads inspect, ast,
dis and tokenize) in any command.
"""

from __future__ import annotations

import math
import sys

# Atomic unit of time in seconds (hbar / E_h).
ATOMIC_UNIT_OF_TIME = 2.4188843265857e-17

# Largest nbar.  The double-double rate tables split t_sr = pi*n*^5 by the
# Veltkamp factor 2**27 + 1, which overflows past n* ~ 8e59; the time
# scales themselves overflow past ~3.6e61.
MAX_NBAR = 1e59

# Largest sigma.  gaussian_packet searches 12 sigma either side of nbar
# (24,001 offsets at the bound) before it trims the window to ~7 sigma, and
# the kernel holds 1.5-2 kB per kept term even on small grids: a 4096-point
# slice peaks at 55 MB at sigma = 1e3 and at 263 MB at sigma = 1e4, a
# 10^4-sample autocorr at 62 MB and 340 MB.
MAX_SIGMA = 1e3


def _is_bool(value) -> bool:
    """True for a bool or a numpy.bool_, which float() and int() would read
    as 0 or 1.  numpy is not imported: a numpy.bool_ exists only once it is."""
    numpy = sys.modules.get("numpy")
    return isinstance(value, bool) or (numpy is not None and isinstance(value, numpy.bool_))


def _check_number(name: str, value) -> None:
    """ValueError for a bool or numpy.bool_ (_is_bool), a str or bytes, which
    float() would read as a number."""
    if _is_bool(value) or isinstance(value, (str, bytes)):
        kind = "bool" if _is_bool(value) else type(value).__name__
        raise ValueError(f"{name} must be a number, not a {kind}; got {value!r}")


class _Record:
    """Base of the frozen record types.

    A subclass's fields are its base's, then the names it annotates itself,
    in order; a class attribute with a field's name is that field's default.
    The constructor takes the fields by position or keyword (TypeError for a
    missing, unknown or repeated one), stores them in the instance __dict__
    and then calls __post_init__, which may normalize a field with
    object.__setattr__.  Assigning or deleting an attribute raises
    AttributeError.  Records are equal when they are of the same type and
    their field tuples are equal, hash as that tuple, and print as
    Name(field=value, ...): the semantics of @dataclass(frozen=True).
    """

    _fields = ()  # the field names, set for each subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} fields, "
                            f"got {len(args)} positional arguments")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected field {field!r}")
            if field in values:
                raise TypeError(f"{cls.__name__}() got multiple values for field {field!r}")
            values[field] = value
        for field in fields:
            if field not in values:
                if not hasattr(cls, field):
                    raise TypeError(f"{cls.__name__}() missing field {field!r}")
                values[field] = getattr(cls, field)
        self.__dict__.update({field: values[field] for field in fields})
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{field}={value!r}" for field, value in zip(self._fields, self._values())) + ")"


class AtomSpec(_Record):
    """Parameters of a simulated wave packet.

    nbar:   central principal quantum number (real, in [1, MAX_NBAR])
    sigma:  width of the excitation distribution in units of n, in
            (0, MAX_SIGMA]
    defect: quantum defect delta for a single angular-momentum channel (>= 0)
    """

    nbar: float
    sigma: float
    defect: float = 0.0

    def __post_init__(self):
        for field in self._fields:
            value = getattr(self, field)
            _check_number(field, value)
            object.__setattr__(self, field, float(value))
        if not (self.nbar >= 1.0):
            raise ValueError(f"nbar must be >= 1, got {self.nbar}")
        if not (self.nbar <= MAX_NBAR):
            raise ValueError(
                f"nbar must be <= {MAX_NBAR:g}, beyond which the time scales and "
                f"phase rates are not finite; got {self.nbar}"
            )
        if not (self.sigma > 0.0):
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not (self.sigma <= MAX_SIGMA):
            raise ValueError(
                f"sigma must be <= {MAX_SIGMA:g}, beyond which the coefficient window "
                f"outgrows its offset budget; got {self.sigma}"
            )
        if not (self.defect >= 0.0):
            raise ValueError(f"defect must be >= 0, got {self.defect}")
        if not (self.nbar - self.defect > self.sigma):
            raise ValueError(
                "distribution reaches nonphysical n <= 0: need "
                f"nbar - defect > sigma, got {self.nbar} - {self.defect} "
                f"<= {self.sigma}"
            )

    @property
    def nstar(self) -> float:
        """Effective central quantum number nbar - defect."""
        return self.nbar - self.defect


class TimeScales(_Record):
    """The three characteristic times, in atomic units."""

    t_cl: float
    t_rev: float
    t_sr: float


def energy(n: float, defect: float = 0.0) -> float:
    """Bound-state energy -1/(2*(n - defect)^2) in hartree.

    Raises ValueError when the effective quantum number n - defect is not
    positive.
    """
    neff = n - defect
    if not (neff > 0.0):
        raise ValueError(f"effective quantum number must be > 0, got {neff}")
    return -0.5 / (neff * neff)


def timescales(spec: AtomSpec) -> TimeScales:
    """Classical period, revival time, and superrevival time for a packet.

    The values are chained so that t_rev/t_cl == 2*n*/3 and
    t_sr/t_rev == 3*n*/4 hold to machine precision.
    """
    return timescales_from_nstar(spec.nstar)


def timescales_from_nstar(nstar: float) -> TimeScales:
    """TimeScales for an effective quantum number given directly, in
    (0, MAX_NBAR] as AtomSpec bounds nbar (ValueError outside)."""
    if not 0.0 < nstar <= MAX_NBAR:
        raise ValueError(f"nstar must be in (0, {MAX_NBAR:g}], got {nstar}")
    t_cl = 2.0 * math.pi * nstar**3
    t_rev = (2.0 * nstar / 3.0) * t_cl
    t_sr = (3.0 * nstar / 4.0) * t_rev
    return TimeScales(t_cl=t_cl, t_rev=t_rev, t_sr=t_sr)


def to_si(t_au: float) -> float:
    """Convert a time from atomic units to seconds."""
    return t_au * ATOMIC_UNIT_OF_TIME


def from_si(t_seconds: float) -> float:
    """Convert a time from seconds to atomic units."""
    return t_seconds / ATOMIC_UNIT_OF_TIME

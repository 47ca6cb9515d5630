"""Peak extraction and periodicity checks for autocorrelation signals.

find_peaks():            threshold + minimum-separation peak detection with
                         parabolic sub-sample refinement.
estimate_periodicity():  robust (median) spacing of a peak train.
verify():                compare measured periodicities in the windows
                         around each predicted superrevival against the
                         predicted (3/q) t_rev values.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from .autocorr import Signal
from .spectrum import to_si
from .superrevival import SuperrevivalPrediction

# Detection defaults for superrevival windows.  The relative threshold
# rejects classical-period ripple; the separation of 0.6 periods keeps one
# (the tallest) peak per predicted period, which is what makes the median
# spacing track the comb periodicity instead of half-period subsidiaries.
DEFAULT_THRESHOLD = 0.3
DEFAULT_SEPARATION_FACTOR = 0.6

# Relative periodicity tolerance of a pass verdict.
DEFAULT_TOLERANCE = 0.10


@dataclass(frozen=True)
class PeakTrain:
    """Refined peak times and heights inside a time window."""

    times: np.ndarray
    heights: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        heights = np.asarray(self.heights, dtype=float)
        if times.size != heights.size:
            raise ValueError("times and heights must align")
        if times.size and np.any(np.diff(times) <= 0):
            raise ValueError("peak times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "heights", heights)

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class PeriodicityEstimate:
    """Median peak spacing with a robust spread measure.

    offset_from_prediction is measured minus predicted period (None when no
    prediction was supplied); it absorbs the small classical-period
    correction to the nominal (3/q) t_rev periodicity, which this package
    measures rather than predicts.
    """

    period: float
    spread: float
    offset_from_prediction: float | None = None


@dataclass(frozen=True)
class VerificationEntry:
    """Outcome of checking one prediction against a signal."""

    q: int
    predicted: float
    measured: float | None
    deviation: float | None
    peak_height: float | None
    n_peaks: int
    status: str  # "pass" | "fail" | "not evaluated"

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "predicted_si": to_si(self.predicted),
            "measured_si": None if self.measured is None else to_si(self.measured),
            "deviation": self.deviation,
            "peak_height": self.peak_height,
            "n_peaks": self.n_peaks,
            "status": self.status,
        }


def find_peaks(signal: Signal, threshold: float, min_separation: float) -> PeakTrain:
    """Local maxima above threshold * (window max), at least min_separation apart.

    threshold is a fraction of the maximum sample in the window (0 < threshold
    <= 1), so detection is invariant under uniform rescaling of the signal; a
    sample is above it when it is >= the level.  A local maximum is an
    interior sample strictly above its left neighbour and >= its right one,
    so the first sample of a plateau counts.  When candidates crowd closer
    than min_separation the tallest wins (ties: the earliest).  Peak times
    and heights are refined with a parabola through the three samples
    around each maximum.  An empty train is a valid result, not an error.

    Cost: one O(C log C) sort of the C candidates, then a bisect per
    candidate into the sorted kept indices.  The separation test is monotone
    in the index distance, so only the nearest kept peak on each side can
    reject a candidate.
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
    for i in order.tolist():
        slot = bisect_left(kept, i)
        if (slot == 0 or (i - kept[slot - 1]) * signal.dt >= min_separation) and (
            slot == len(kept) or (kept[slot] - i) * signal.dt >= min_separation
        ):
            kept.insert(slot, i)
    k = np.array(kept, dtype=np.intp)
    a, b, c = v[k - 1], v[k], v[k + 1]
    curv = a - 2.0 * b + c
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(curv != 0.0, 0.5 * (a - c) / curv, 0.0)
    times = signal.t0 + signal.dt * (k + shift)
    heights = b - 0.25 * (a - c) * shift
    return PeakTrain(times=times, heights=heights)


def _median(values: np.ndarray) -> float:
    """np.median of a nonempty float array without NaNs, bitwise: the middle
    of the sorted values, or (a + b) / 2 of the middle two.  np.median
    imports numpy.ma on its first call, which costs more than the peaks."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


def estimate_periodicity(
    train: PeakTrain, predicted_period: float | None = None
) -> PeriodicityEstimate:
    """Median spacing of a peak train; needs at least three peaks.

    The median, not the mean, so one missed or spurious peak cannot drag
    the estimate.  Spread is the median absolute deviation of the spacings.
    """
    if len(train) < 3:
        raise ValueError(
            f"periodicity estimation needs >= 3 peaks, got {len(train)}"
        )
    spacings = np.diff(train.times)
    period = _median(spacings)
    spread = _median(np.abs(spacings - period))
    offset = None if predicted_period is None else period - predicted_period
    return PeriodicityEstimate(
        period=period, spread=spread, offset_from_prediction=offset
    )


def _search_window(pred: SuperrevivalPrediction, t0: float, dt: float, count: int):
    """The window time_center +- t_rev (the revival time implied by the
    prediction) that verify searches on the grid t0 + dt*i, 0 <= i < count,
    as (t_lo, t_hi); None when the grid does not cover it."""
    t_rev = pred.periodicity * pred.q / 3.0
    lo, hi = pred.time_center - t_rev, pred.time_center + t_rev
    if lo >= t0 - dt and hi <= t0 + dt * (count - 1) + dt:
        return lo, hi
    return None


def _judge(
    pred: SuperrevivalPrediction, window: Signal | None, threshold: float, tolerance: float
) -> VerificationEntry:
    """The entry of one prediction from the samples of its window (see
    verify); "not evaluated" when window is None."""
    entry = VerificationEntry(
        q=pred.q, predicted=pred.periodicity, measured=None, deviation=None,
        peak_height=None, n_peaks=0, status="not evaluated",
    )
    if window is None:
        return entry
    train = find_peaks(window, threshold, DEFAULT_SEPARATION_FACTOR * pred.periodicity)
    height = float(train.heights.max()) if len(train) else None
    entry = replace(entry, peak_height=height, n_peaks=len(train), status="fail")
    if len(train) >= 3:
        est = estimate_periodicity(train, predicted_period=pred.periodicity)
        deviation = abs(est.offset_from_prediction) / pred.periodicity
        entry = replace(entry, measured=est.period, deviation=deviation,
                        status="pass" if deviation <= tolerance else "fail")
    return entry


def verify(
    predictions: list[SuperrevivalPrediction],
    signal: Signal,
    threshold: float = DEFAULT_THRESHOLD,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[VerificationEntry]:
    """Check each prediction's window of the signal for the predicted comb.

    For every prediction the window time_center +- t_rev (the revival time
    implied by the prediction) is searched for peaks at least
    DEFAULT_SEPARATION_FACTOR periodicities apart; the measured median
    spacing must match the predicted periodicity within tolerance
    (relative).  Windows not fully covered by the signal yield status
    "not evaluated"; windows with fewer than three detected peaks fail.
    """
    entries = []
    for pred in predictions:
        span = _search_window(pred, signal.t0, signal.dt, signal.values.size)
        window = None if span is None else signal.window(*span)
        entries.append(_judge(pred, window, threshold, tolerance))
    return entries

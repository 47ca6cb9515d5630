"""Peak extraction and periodicity checks for autocorrelation signals.

find_peaks():            threshold + minimum-separation peak detection with
                         parabolic sub-sample refinement.
estimate_periodicity():  robust (median) spacing of a peak train.
verify():                compare measured periodicities in the windows
                         around each predicted superrevival against the
                         predicted (3/q) t_rev values.

verify() and `rydlab verify` judge through one loop, _verify, which plans the
covered windows and asks a sample source for their samples (see _verify):
verify() slices its signal, the command runs the |A|^2 kernel on each one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import TYPE_CHECKING

import numpy as np

from .autocorr import Signal, TimeGrid, _window_indices
from .spectrum import _Record

if TYPE_CHECKING:
    from .superrevival import SuperrevivalTiming

# Detection defaults for superrevival windows.  The relative threshold
# rejects classical-period ripple; the separation of 0.6 periods keeps one
# (the tallest) peak per predicted period, which is what makes the median
# spacing track the comb periodicity instead of half-period subsidiaries.
DEFAULT_THRESHOLD = 0.3
DEFAULT_SEPARATION_FACTOR = 0.6

# Relative periodicity tolerance of a pass verdict.
DEFAULT_TOLERANCE = 0.10


class PeakTrain(_Record):
    """Refined peak times and heights inside a time window."""

    times: np.ndarray
    heights: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        heights = np.asarray(self.heights, dtype=float)
        if times.ndim != 1 or heights.ndim != 1:
            raise ValueError("times and heights must be 1-d arrays")
        if times.size != heights.size:
            raise ValueError("times and heights must align")
        if not np.all(np.diff(times) > 0):
            raise ValueError("peak times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "heights", heights)

    def __len__(self) -> int:
        return self.times.size


class PeriodicityEstimate(_Record):
    """Median peak spacing with a robust spread measure.

    offset_from_prediction is measured minus predicted period (None when no
    prediction was supplied); it absorbs the small classical-period
    correction to the nominal (3/q) t_rev periodicity, which this package
    measures rather than predicts.
    """

    period: float
    spread: float
    offset_from_prediction: float | None = None


class VerificationEntry(_Record):
    """Outcome of checking one prediction against a signal."""

    q: int
    predicted: float
    measured: float | None
    deviation: float | None
    peak_height: float | None
    n_peaks: int
    status: str  # "pass" | "fail" | "not evaluated"


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
    _check_threshold(threshold)
    if not min_separation >= 0.0:
        raise ValueError(f"min_separation must be >= 0, got {min_separation}")
    v = signal.values
    if v.size < 3 or float(v.max()) <= 0.0:
        return PeakTrain(np.array([]), np.array([]))
    level = threshold * float(v.max())
    mid = v[1:-1]
    candidates = np.flatnonzero((mid > v[:-2]) & (mid >= v[2:]) & (mid >= level)) + 1
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


def _window_range(pred: SuperrevivalTiming, grid: TimeGrid):
    """The index range [start, stop) of the window time_center +- t_rev (the
    revival time implied by the prediction) that verify searches on grid, as
    Signal.window selects it; None when the grid does not cover the window."""
    t_rev = pred.periodicity * pred.q / 3.0
    lo, hi = pred.time_center - t_rev, pred.time_center + t_rev
    if not (lo >= grid.t0 - grid.dt and hi <= grid.t0 + grid.dt * (grid.count - 1) + grid.dt):
        return None
    first, last = _window_indices(grid.t0, grid.dt, grid.count, lo, hi)
    return first, last + 1


def _judge(
    pred: SuperrevivalTiming, window: Signal | None, threshold: float, tolerance: float
) -> VerificationEntry:
    """The entry of one prediction from the samples of its window (see
    verify); "not evaluated" when window is None."""
    measured = deviation = height = None
    n_peaks, status = 0, "not evaluated"
    if window is not None:
        train = find_peaks(window, threshold, DEFAULT_SEPARATION_FACTOR * pred.periodicity)
        n_peaks, status = len(train), "fail"
        if n_peaks:
            height = float(train.heights.max())
        if n_peaks >= 3:
            est = estimate_periodicity(train, predicted_period=pred.periodicity)
            measured = est.period
            deviation = abs(est.offset_from_prediction) / pred.periodicity
            status = "pass" if deviation <= tolerance else "fail"
    return VerificationEntry(q=pred.q, predicted=pred.periodicity, measured=measured,
                             deviation=deviation, peak_height=height, n_peaks=n_peaks,
                             status=status)


def verify(
    predictions: list[SuperrevivalTiming],
    signal: Signal,
    threshold: float = DEFAULT_THRESHOLD,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[VerificationEntry]:
    """Check each prediction's window of the signal for the predicted comb.

    A prediction is a SuperrevivalTiming (timing_table) or a full
    SuperrevivalPrediction (prediction_table); only its q, time_center and
    periodicity are read.

    For every prediction the window time_center +- t_rev (the revival time
    implied by the prediction) is searched for peaks at least
    DEFAULT_SEPARATION_FACTOR periodicities apart; the measured median
    spacing must match the predicted periodicity within tolerance
    (relative).  Windows not fully covered by the signal yield status
    "not evaluated"; windows with fewer than three detected peaks fail.
    ValueError, before any window is searched, unless 0 < threshold <= 1
    and tolerance is finite and > 0 (_check_detection).
    """
    return _verify(predictions, TimeGrid(signal.t0, signal.dt, signal.values.size),
                   lambda _: lambda start, stop: signal.values[start:stop], threshold, tolerance)


def _check_threshold(threshold: float) -> None:
    """ValueError unless 0 < threshold <= 1 (find_peaks, verify)."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")


def _check_detection(threshold: float, tolerance: float) -> None:
    """ValueError unless 0 < threshold <= 1 and tolerance is finite and > 0:
    NaN fails every comparison and is not JSON, and an infinite tolerance
    would pass every evaluated window."""
    _check_threshold(threshold)
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")


def _verify(predictions: list[SuperrevivalTiming], grid: TimeGrid, source,
            threshold: float, tolerance: float) -> list[VerificationEntry]:
    """The entries of verify for |A|^2 on grid.  source(covered) is called
    once, before any window is evaluated, with the (timing, (start, stop)) of
    each window the grid covers, in order, and never when it covers none; it
    returns samples(start, stop), the samples at grid indices [start, stop),
    asked for each of those windows in order and dropped as soon as the last
    one returns, before its samples are checked and judged."""
    _check_detection(threshold, tolerance)
    plan = [(pred, _window_range(pred, grid)) for pred in predictions]
    covered = [(pred, span) for pred, span in plan if span is not None]
    samples = source(covered) if covered else None
    entries, left = [], len(covered)
    for pred, span in plan:
        window = values = None  # not held while the next window is evaluated
        if span is not None:
            values, left = samples(*span), left - 1
            samples = samples if left else None
            window = Signal(grid.t0 + grid.dt * span[0], grid.dt, values)
        entries.append(_judge(pred, window, threshold, tolerance))
    return entries

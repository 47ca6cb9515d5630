"""Peak extraction and periodicity checks for autocorrelation signals.

find_peaks():            threshold + minimum-separation peak detection with
                         parabolic sub-sample refinement.
estimate_periodicity():  robust (median) spacing of a peak train.
verify():                compare measured periodicities in the windows
                         around each predicted superrevival against the
                         predicted (3/q) t_rev values.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    window: tuple[float, float]

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
    <= 1), so detection is invariant under uniform rescaling of the signal.
    When candidates crowd closer than min_separation the tallest wins.  Peak
    times and heights are refined with a parabola through the three samples
    around each maximum.  An empty train is a valid result, not an error.
    """
    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if min_separation < 0.0:
        raise ValueError(f"min_separation must be >= 0, got {min_separation}")
    v = signal.values
    window = (signal.t0, signal.t_end)
    if v.size < 3 or float(v.max()) <= 0.0:
        return PeakTrain(np.array([]), np.array([]), window)
    level = threshold * float(v.max())
    interior = np.arange(1, v.size - 1)
    is_max = (v[interior] > v[interior - 1]) & (v[interior] >= v[interior + 1])
    candidates = interior[is_max & (v[interior] >= level)]
    # tallest-first greedy selection under the separation constraint
    order = candidates[np.lexsort((candidates, -v[candidates]))]
    kept: list[int] = []
    for i in order:
        if all(abs(i - j) * signal.dt >= min_separation for j in kept):
            kept.append(int(i))
    kept.sort()
    times = np.empty(len(kept))
    heights = np.empty(len(kept))
    for out, i in enumerate(kept):
        a, b, c = v[i - 1], v[i], v[i + 1]
        curv = a - 2.0 * b + c
        shift = 0.5 * (a - c) / curv if curv != 0.0 else 0.0
        times[out] = signal.t0 + signal.dt * (i + shift)
        heights[out] = b - 0.25 * (a - c) * shift
    return PeakTrain(times=times, heights=heights, window=window)


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
    period = float(np.median(spacings))
    spread = float(np.median(np.abs(spacings - period)))
    offset = None if predicted_period is None else period - predicted_period
    return PeriodicityEstimate(
        period=period, spread=spread, offset_from_prediction=offset
    )


def verify(
    predictions: list[SuperrevivalPrediction],
    signal: Signal,
    half_width: float | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    separation_factor: float = DEFAULT_SEPARATION_FACTOR,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[VerificationEntry]:
    """Check each prediction's window of the signal for the predicted comb.

    For every prediction a window time_center +- half_width (default: the
    revival time implied by the prediction) is searched for peaks; the
    measured median spacing must match the predicted periodicity within
    tolerance (relative).  Windows not fully covered by the signal yield
    status "not evaluated"; windows with fewer than three detected peaks
    fail.
    """
    entries = []
    for pred in predictions:
        t_rev = pred.periodicity * pred.q / 3.0
        hw = t_rev if half_width is None else half_width
        lo, hi = pred.time_center - hw, pred.time_center + hw
        if lo < signal.t0 - signal.dt or hi > signal.t_end + signal.dt:
            entries.append(
                VerificationEntry(
                    q=pred.q, predicted=pred.periodicity, measured=None,
                    deviation=None, peak_height=None, n_peaks=0,
                    status="not evaluated",
                )
            )
            continue
        train = find_peaks(
            signal.window(lo, hi), threshold, separation_factor * pred.periodicity
        )
        height = float(train.heights.max()) if len(train) else None
        if len(train) < 3:
            entries.append(
                VerificationEntry(
                    q=pred.q, predicted=pred.periodicity, measured=None,
                    deviation=None, peak_height=height, n_peaks=len(train),
                    status="fail",
                )
            )
            continue
        est = estimate_periodicity(train, predicted_period=pred.periodicity)
        deviation = abs(est.period - pred.periodicity) / pred.periodicity
        entries.append(
            VerificationEntry(
                q=pred.q,
                predicted=pred.periodicity,
                measured=est.period,
                deviation=deviation,
                peak_height=height,
                n_peaks=len(train),
                status="pass" if deviation <= tolerance else "fail",
            )
        )
    return entries

"""Power-law fits and shape comparisons for gap-scaling data.

The scaling claims this package checks are statements about exponents:
the crossing gap grows like a power of the electric field in one regime
and like a power of |sin theta| in another. Fits are ordinary least
squares in log-log space over an explicit window; nothing here ever
selects a window on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FIT_MODELS = ("power-in-E", "power-in-sin-theta")

MIN_FIT_POINTS = 5


class FitError(ValueError):
    """Base class for fitting failures."""


class InsufficientDataError(FitError):
    """Fewer usable points than the fit requires."""


class NonPositiveDataError(FitError):
    """Log-log fitting needs strictly positive abscissa and ordinate."""


@dataclass(frozen=True)
class FitResult:
    """Power-law fit y = coefficient * u^exponent.

    u is the raw abscissa for the power-in-E model and |sin x| for the
    power-in-sin-theta model. rms_residual is relative: the root mean
    square of (y - fit)/y. window is the (min, max) abscissa range of the
    points actually used.
    """

    model: str
    coefficient: float
    exponent: float
    rms_residual: float
    window: tuple

    def __post_init__(self) -> None:
        if self.model not in FIT_MODELS:
            raise FitError(f"unknown fit model {self.model!r}")
        if not (math.isfinite(self.exponent) and self.rms_residual >= 0.0):
            raise FitError("fit produced a non-finite exponent or residual")


def fit_power_law(x, y, model: str, window=None) -> FitResult:
    """Least-squares power-law fit in log-log space.

    window, when given, is an inclusive (min, max) range applied to the
    raw x values before any transformation. At least 5 points must remain
    and every transformed abscissa and ordinate must be positive.
    """
    if model not in FIT_MODELS:
        raise FitError(f"unknown fit model {model!r}; choose from {FIT_MODELS}")
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise FitError("x and y must be one-dimensional and equally long")
    if window is not None:
        lo, hi = float(window[0]), float(window[1])
        if not lo < hi:
            raise FitError("fit window must satisfy min < max")
        keep = (xs >= lo) & (xs <= hi)
        xs, ys = xs[keep], ys[keep]
    if xs.size < MIN_FIT_POINTS:
        raise InsufficientDataError(
            f"{xs.size} points in the fit window, need at least {MIN_FIT_POINTS}")
    u = np.abs(np.sin(xs)) if model == "power-in-sin-theta" else xs
    if np.any(u <= 0.0) or np.any(ys <= 0.0):
        raise NonPositiveDataError(
            "all abscissa and ordinate values must be positive for a log fit")
    design = np.vstack([np.ones_like(u), np.log(u)]).T
    coef, *_ = np.linalg.lstsq(design, np.log(ys), rcond=None)
    try:
        coefficient = math.exp(coef[0])
    except OverflowError:
        raise FitError(f"fit coefficient exp({coef[0]:.6g}) overflows a float") from None
    exponent = float(coef[1])
    fit_values = coefficient * u ** exponent
    rms = float(np.sqrt(np.mean(((ys - fit_values) / ys) ** 2)))
    return FitResult(model=model, coefficient=coefficient, exponent=exponent,
                     rms_residual=rms,
                     window=(float(xs.min()), float(xs.max())))


def shape_rms_scaled(y, model_values) -> float:
    """Absolute RMS misfit after amplitude scaling, normalized by the peak.

    Every point counts the same, so the large-gap region near the peak
    dominates. This is the metric used for shape contests between
    candidate exponents; a misfit relative to each data point would
    overweight the tails, where the gap is small.
    """
    ys = np.asarray(y, dtype=float)
    ms = np.asarray(model_values, dtype=float)
    if ys.shape != ms.shape or ys.ndim != 1:
        raise FitError("data and model shapes must match")
    denom = float(np.dot(ms, ms))
    if denom == 0.0:
        raise FitError("model values are identically zero")
    peak = float(np.max(np.abs(ys)))
    if peak == 0.0:
        raise FitError("data values are identically zero")
    amp = float(np.dot(ys, ms)) / denom
    return float(np.sqrt(np.mean((ys - amp * ms) ** 2))) / peak


def best_shape_exponent(theta, gaps, candidates=(1, 2, 3)) -> int:
    """Which |sin theta|^p shape fits the gap curve best.

    Scores each candidate exponent with shape_rms_scaled and returns the
    winner. Ties go to the smallest exponent.
    """
    ths = np.asarray(theta, dtype=float)
    best_p = None
    best_score = None
    for p in candidates:
        score = shape_rms_scaled(gaps, np.abs(np.sin(ths)) ** p)
        if best_score is None or score < best_score:
            best_score = score
            best_p = p
    return int(best_p)

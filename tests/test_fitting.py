"""Power-law fitting and shape comparison."""

import math

import numpy as np
import pytest

from ohcross.fitting import (FIT_MODELS, FitError, FitResult,
                             InsufficientDataError, MIN_FIT_POINTS,
                             NonPositiveDataError, best_shape_exponent,
                             fit_power_law, shape_rms_scaled)


class TestFitPowerLaw:
    def test_exact_cubic(self):
        x = np.linspace(1.0, 10.0, 20)
        res = fit_power_law(x, 2.0 * x ** 3, "power-in-E")
        assert res.exponent == pytest.approx(3.0, abs=1e-12)
        assert res.coefficient == pytest.approx(2.0, rel=1e-12)
        assert res.rms_residual < 1e-12
        assert res.model == "power-in-E"
        assert res.window == (1.0, 10.0)

    def test_window_is_inclusive_and_reported(self):
        x = np.arange(1.0, 13.0)
        y = 5.0 * x ** 2
        res = fit_power_law(x, y, "power-in-E", window=(3.0, 9.0))
        assert res.window == (3.0, 9.0)
        assert res.exponent == pytest.approx(2.0, abs=1e-12)

    def test_window_reports_actual_extent(self):
        # window edges between sample points: report the surviving extent
        x = np.arange(1.0, 13.0)
        res = fit_power_law(x, x ** 2, "power-in-E", window=(2.5, 8.5))
        assert res.window == (3.0, 8.0)

    def test_window_must_be_ordered(self):
        x = np.arange(1.0, 13.0)
        with pytest.raises(FitError):
            fit_power_law(x, x ** 2, "power-in-E", window=(5.0, 5.0))

    def test_too_few_points(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert len(x) == MIN_FIT_POINTS - 1
        with pytest.raises(InsufficientDataError):
            fit_power_law(x, x ** 2, "power-in-E")

    def test_window_can_starve_the_fit(self):
        x = np.arange(1.0, 13.0)
        with pytest.raises(InsufficientDataError):
            fit_power_law(x, x ** 2, "power-in-E", window=(4.0, 6.0))

    def test_rejects_nonpositive_values(self):
        x = np.linspace(1.0, 5.0, 9)
        y = x.copy()
        y[3] = 0.0
        with pytest.raises(NonPositiveDataError):
            fit_power_law(x, y, "power-in-E")
        with pytest.raises(NonPositiveDataError):
            fit_power_law(x - 2.0, x ** 2, "power-in-E")

    def test_rejects_unknown_model(self):
        x = np.linspace(1.0, 5.0, 9)
        with pytest.raises(FitError):
            fit_power_law(x, x, "power-in-B")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(FitError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0], "power-in-E")

    def test_sin_theta_model(self):
        theta = np.linspace(0.2, math.pi / 2.0, 15)
        gaps = 0.7 * np.abs(np.sin(theta)) ** 2
        res = fit_power_law(theta, gaps, "power-in-sin-theta")
        assert res.exponent == pytest.approx(2.0, abs=1e-10)
        assert res.coefficient == pytest.approx(0.7, rel=1e-10)

    def test_sin_theta_rejects_nodes(self):
        theta = np.linspace(0.0, math.pi / 2.0, 15)
        with pytest.raises(NonPositiveDataError):
            fit_power_law(theta, np.ones_like(theta), "power-in-sin-theta")

    def test_overflowing_coefficient_raises_fit_error(self):
        # valid data whose intercept is ln 1e320: the coefficient overflows
        x = np.linspace(1e-10, 2e-10, 8)
        y = 1e300 * (x / 1e-10) ** 2
        with pytest.raises(FitError, match=r"fit coefficient exp\(736\.8\d*\) overflows"):
            fit_power_law(x, y, "power-in-E")

    def test_noise_leaves_exponent_close(self):
        rng = np.random.default_rng(5)
        x = np.linspace(2.0, 20.0, 40)
        y = 3.0 * x ** 1.5 * np.exp(rng.normal(0.0, 1e-3, x.size))
        res = fit_power_law(x, y, "power-in-E")
        assert res.exponent == pytest.approx(1.5, abs=5e-3)
        assert res.rms_residual < 5e-3


class TestFitResult:
    def test_rejects_bad_model(self):
        with pytest.raises(FitError):
            FitResult(model="nope", coefficient=1.0, exponent=1.0,
                      rms_residual=0.0, window=(0.0, 1.0))

    def test_rejects_non_finite(self):
        with pytest.raises(FitError):
            FitResult(model=FIT_MODELS[0], coefficient=1.0,
                      exponent=float("nan"), rms_residual=0.0,
                      window=(0.0, 1.0))


class TestShapeMetrics:
    def test_perfect_shape_scores_zero(self):
        theta = np.linspace(0.3, 1.4, 12)
        y = 4.2 * np.sin(theta) ** 3
        assert shape_rms_scaled(y, np.sin(theta) ** 3) < 1e-14

    def test_amplitude_is_free(self):
        theta = np.linspace(0.3, 1.4, 12)
        m = np.sin(theta) ** 2
        assert shape_rms_scaled(10.0 * m, m) < 1e-14
        assert shape_rms_scaled(0.01 * m, m) < 1e-14

    def test_wrong_shape_scores_high(self):
        theta = np.linspace(0.3, 1.4, 12)
        y = np.sin(theta) ** 3
        assert shape_rms_scaled(y, np.sin(theta)) > 0.01

    def test_zero_model_rejected(self):
        with pytest.raises(FitError):
            shape_rms_scaled([1.0, 2.0], [0.0, 0.0])

    def test_zero_data_rejected(self):
        with pytest.raises(FitError, match="data values are identically zero"):
            shape_rms_scaled([0.0, 0.0], [1.0, 2.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FitError):
            shape_rms_scaled([1.0, 2.0, 3.0], [1.0, 2.0])


class TestBestShapeExponent:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_recovers_each_candidate(self, p):
        theta = np.linspace(0.3, math.pi / 2.0, 25)
        gaps = 1.3 * np.abs(np.sin(theta)) ** p
        assert best_shape_exponent(theta, gaps) == p

    def test_tie_goes_to_smallest(self):
        theta = np.linspace(0.3, 1.2, 10)
        gaps = np.abs(np.sin(theta))
        assert best_shape_exponent(theta, gaps, candidates=(1, 1)) == 1

    def test_custom_candidates(self):
        theta = np.linspace(0.3, 1.2, 10)
        gaps = np.abs(np.sin(theta)) ** 4
        assert best_shape_exponent(theta, gaps, candidates=(2, 4, 6)) == 4

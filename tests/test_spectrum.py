"""Closed-form spectrum against LAPACK eigvalsh and exact cases."""

import math

import numpy as np
import pytest

from ohcross.hamiltonian import build_hamiltonian
from ohcross.model import (FieldConfiguration, MoleculeParameters,
                           ScaledParameters, b_tilde_from_field,
                           scale_parameters)
from ohcross.spectrum import (CharPoly, HermiticityViolationError,
                              SpectrumError, analytic_eigenvalues,
                              analytic_spectrum, characteristic_polynomial,
                              eigenvalue_at, eigenvalues_from_charpoly,
                              numeric_eigenvalues, numeric_levels,
                              numeric_levels_along_b)

MOL = MoleculeParameters()


def params(b_tilde=0.0, e_tilde=0.0, theta=0.0):
    return ScaledParameters(b_tilde=b_tilde, e_tilde=e_tilde,
                            delta_tilde=8.335, theta=theta)


def random_params(rng):
    cfg = FieldConfiguration(e_field=float(rng.uniform(0, 5e5)),
                             b_field=float(rng.uniform(0, 0.3)),
                             theta=float(rng.uniform(0, math.pi)))
    return scale_parameters(MOL, cfg)


class TestCharPoly:
    def test_odd_coefficients_vanish(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = random_params(rng)
            cp = characteristic_polynomial(build_hamiltonian(p))
            top = max(abs(c) for c in cp.coeffs)
            for k in (1, 3, 5, 7):
                assert abs(cp.coeffs[k]) <= 1e-9 * top
            assert cp.coeffs[8] == pytest.approx(1.0, abs=1e-12)

    def test_constant_term_is_determinant(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            p = random_params(rng)
            h = build_hamiltonian(p)
            cp = characteristic_polynomial(h)
            det = float(np.linalg.det(np.asarray(h)))
            assert cp.coeffs[0] == pytest.approx(det, abs=1e-10 * max(1.0, abs(det)))

    def test_zero_field_quadruple_root(self):
        cp = characteristic_polynomial(build_hamiltonian(params()))
        even = cp.even_part()
        # (m - (delta/10)^2)^4 expanded
        r = (8.335 / 10.0) ** 2
        binom = (r ** 4, -4.0 * r ** 3, 6.0 * r ** 2, -4.0 * r, 1.0)
        for got, want in zip(even.coeffs, binom):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_rejects_odd_contamination(self):
        with pytest.raises(SpectrumError):
            CharPoly(coeffs=(1.0, 0.5, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0))

    def test_rejects_non_monic(self):
        with pytest.raises(SpectrumError):
            CharPoly(coeffs=(1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 2.0))


class TestClosedFormRoots:
    def test_complex_root_raises(self):
        # even part (m^2 + 1)(m^2 - 3m + 2) has a conjugate pair
        cp = CharPoly(coeffs=(2.0, 0.0, -3.0, 0.0, 3.0, 0.0, -3.0, 0.0, 1.0))
        with pytest.raises(HermiticityViolationError):
            eigenvalues_from_charpoly(cp)

    def test_negative_root_raises(self):
        # even part (m+1)(m-1)(m-2)(m-3) has root -1
        cp = CharPoly(coeffs=(-6.0, 0.0, 5.0, 0.0, 5.0, 0.0, -5.0, 0.0, 1.0))
        with pytest.raises(HermiticityViolationError):
            eigenvalues_from_charpoly(cp)

    def test_exact_biquadratic_case(self):
        # even part (m-1)(m-4)(m-9)(m-16)
        cp = CharPoly(coeffs=(576.0, 0.0, -820.0, 0.0, 273.0, 0.0,
                              -30.0, 0.0, 1.0))
        ms = eigenvalues_from_charpoly(cp)
        for got, want in zip(ms, (1.0, 4.0, 9.0, 16.0)):
            assert got == pytest.approx(want, rel=1e-12)


class TestAnalyticSpectrum:
    def test_matches_iterative_on_random_configs(self):
        rng = np.random.default_rng(14)
        for _ in range(150):
            p = random_params(rng)
            a = analytic_eigenvalues(p).lambdas
            n = numeric_eigenvalues(p).lambdas
            scale = max(abs(v) for v in n)
            for x, y in zip(a, n):
                assert abs(x - y) <= 1e-9 * scale

    def test_parallel_fields_closed_form(self):
        # At theta = 0 the matrix splits into four 2x2 blocks, so every
        # level is b m / 10 +- hypot(delta, e mu-entry) / 10 exactly.
        rng = np.random.default_rng(15)
        for _ in range(60):
            p = params(b_tilde=float(rng.uniform(0, 17)),
                       e_tilde=float(rng.uniform(0, 8.4)), theta=0.0)
            closed = []
            for m in (-3.0, -1.0, 1.0, 3.0):
                center = p.b_tilde * m / 10.0
                rad = math.hypot(p.delta_tilde / 10.0, p.e_tilde * m / 10.0)
                closed += [center - rad, center + rad]
            closed.sort(reverse=True)
            lam = analytic_eigenvalues(p).lambdas
            scale = max(abs(v) for v in closed)
            for got, want in zip(lam, closed):
                assert abs(got - want) <= 1e-9 * scale

    def test_mirror_antisymmetry(self):
        rng = np.random.default_rng(16)
        for _ in range(80):
            p = random_params(rng)
            lam = analytic_eigenvalues(p).lambdas
            scale = max(abs(v) for v in lam)
            for i in range(8):
                assert abs(lam[i] + lam[7 - i]) <= 1e-9 * max(scale, 1e-30)

    def test_field_sign_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            b = float(rng.uniform(0, 17))
            e = float(rng.uniform(0, 8.4))
            th = float(rng.uniform(0, math.pi))
            base = analytic_eigenvalues(params(b, e, th)).lambdas
            flip_b = analytic_eigenvalues(params(-b, e, th)).lambdas
            flip_e = analytic_eigenvalues(params(b, -e, th)).lambdas
            scale = max(abs(v) for v in base)
            for x, y, z in zip(base, flip_b, flip_e):
                assert abs(x - y) <= 1e-9 * max(scale, 1e-30)
                assert abs(x - z) <= 1e-9 * max(scale, 1e-30)

    def test_near_crossing_config_survives(self):
        # quartic double root splits into a conjugate pair at eps scale;
        # this exact configuration used to trip the reality check
        p = scale_parameters(MOL, FieldConfiguration(
            b_field=0.05, theta=math.pi / 3.0))
        lam = analytic_eigenvalues(p).lambdas
        assert lam[3] > 0.0

    def test_tiny_smallest_level_is_refined(self):
        # just off the first zero-field crossing the smallest level is
        # four orders below the largest; the product identity restores
        # its relative accuracy
        b = 8.335 / 3.0 * 1.001
        p = params(b_tilde=b, e_tilde=0.0, theta=0.9)
        lam4 = analytic_eigenvalues(p).level(4)
        exact = (3.0 * b / 10.0) - 8.335 / 10.0
        assert lam4 == pytest.approx(exact, rel=1e-9)

    def test_level_labels_descend(self):
        p = params(b_tilde=5.0, e_tilde=1.0, theta=1.0)
        levels = analytic_eigenvalues(p)
        for label in range(1, 8):
            assert levels.level(label) >= levels.level(label + 1)
        assert eigenvalue_at(p, 1) == levels.level(1)
        with pytest.raises(ValueError):
            levels.level(0)
        with pytest.raises(ValueError):
            levels.level(9)

    def test_zero_field_spectrum_values(self):
        lam = analytic_eigenvalues(params()).lambdas
        half = 8.335 / 10.0
        for v in lam[:4]:
            assert v == pytest.approx(half, rel=1e-12)
        for v in lam[4:]:
            assert v == pytest.approx(-half, rel=1e-12)

    def test_known_tie_at_matched_fields(self):
        # b equal to the full splitting gives levels 2delta/5, delta/5,
        # delta/5, 0, 0, -delta/5, -delta/5, -2delta/5. The m = lambda^2
        # quartic has a double root and an exact zero root here, so the
        # closed-form route carries sqrt(eps)-level noise; the LAPACK
        # route keeps full absolute accuracy.
        d = 8.335
        p = params(b_tilde=d, theta=0.3)
        want = [2 * d / 5, d / 5, d / 5, 0.0, 0.0, -d / 5, -d / 5, -2 * d / 5]
        for got, expect in zip(analytic_eigenvalues(p).lambdas, want):
            assert got == pytest.approx(expect, abs=2e-7)
        for got, expect in zip(numeric_eigenvalues(p).lambdas, want):
            assert got == pytest.approx(expect, abs=1e-12)


def lapack_levels(p):
    return np.sort(np.linalg.eigvalsh(build_hamiltonian(p)))[::-1]


class TestBatchedSpectrum:
    def sweep(self, e_vcm, theta, b_max=0.3, points=201):
        base = scale_parameters(MOL, FieldConfiguration(e_field=e_vcm * 100.0,
                                                        theta=theta))
        bts = b_tilde_from_field(np.linspace(0.0, b_max, points))
        return base, bts, analytic_spectrum(bts, base.e_tilde,
                                            base.delta_tilde, theta)

    def test_sweeps_match_lapack(self):
        rng = np.random.default_rng(21)
        fields = [0.0, 5000.0] + [float(v) for v in rng.uniform(0.0, 5000.0, 4)]
        angles = [0.0, math.pi / 2.0, math.pi, float(rng.uniform(0.0, math.pi))]
        for e_vcm in fields:
            for theta in angles:
                base, bts, levels = self.sweep(e_vcm, theta)
                assert levels.shape == (201, 8)
                for bt, row in zip(bts, levels):
                    want = lapack_levels(base.with_b_tilde(float(bt)))
                    assert np.abs(row - want).max() <= 1e-9 * np.abs(want).max()

    def test_zero_field_rows_are_exact(self):
        # At B = 0 the quartic in lambda^2 has two double roots, which the
        # quartic route only resolves to sqrt(eps); the closed form at
        # B = 0 matches LAPACK to rounding for every E and theta.
        rng = np.random.default_rng(22)
        for _ in range(40):
            p = random_params(rng).with_b_tilde(0.0)
            row = analytic_spectrum(0.0, p.e_tilde, p.delta_tilde, p.theta)[0]
            assert np.abs(row - lapack_levels(p)).max() <= 1e-12

    def test_double_root_polish_keeps_its_root(self):
        # B = 0, E = 4458.01 V/cm, theta = 175.581 deg: the even quartic has
        # the double roots 1.24987 and 5.69101. An unguarded Newton step
        # from noise-level f and f' used to land on the other root.
        p = scale_parameters(MOL, FieldConfiguration(
            e_field=445801.0, theta=math.radians(175.581)))
        h = build_hamiltonian(p)
        ms = eigenvalues_from_charpoly(characteristic_polynomial(h))
        want = np.sort(np.linalg.eigvalsh(h))[4:] ** 2
        assert np.abs(np.array(ms) - want).max() <= 1e-6 * want.max()

    def test_single_point_equals_batched_row(self):
        rng = np.random.default_rng(23)
        points = [random_params(rng) for _ in range(30)]
        levels = analytic_spectrum([p.b_tilde for p in points],
                                   [p.e_tilde for p in points],
                                   points[0].delta_tilde,
                                   [p.theta for p in points])
        for p, row in zip(points, levels):
            assert analytic_eigenvalues(p).lambdas == tuple(row.tolist())

    def test_inputs_broadcast(self):
        assert analytic_spectrum(1.0, 2.0, 8.335, 0.5).shape == (1, 8)
        grid = analytic_spectrum(np.linspace(0.0, 5.0, 6)[:, None],
                                 np.array([0.0, 2.0]), 8.335, 0.5)
        assert grid.shape == (12, 8)
        assert np.array_equal(grid[1::2], analytic_spectrum(
            np.linspace(0.0, 5.0, 6), 2.0, 8.335, 0.5))
        with pytest.raises(ValueError):
            analytic_spectrum(1.0, 2.0, 0.0, 0.5)

    def test_first_failing_point_raises(self):
        # Weak fields put a near-quadruple root in the quartic, which the
        # reality check rejects (an open validity-domain defect). A batch
        # raises the error that point raises alone.
        weak = scale_parameters(MOL, FieldConfiguration(
            e_field=1000.0, b_field=1e-7, theta=math.pi / 3.0))
        good = scale_parameters(MOL, FieldConfiguration(
            e_field=1000.0, b_field=0.05, theta=math.pi / 3.0))
        with pytest.raises(HermiticityViolationError) as alone:
            analytic_eigenvalues(weak)
        with pytest.raises(HermiticityViolationError) as batched:
            analytic_spectrum([good.b_tilde, weak.b_tilde, good.b_tilde],
                              weak.e_tilde, weak.delta_tilde, weak.theta)
        assert str(batched.value) == str(alone.value)

    def test_strong_fields_match_lapack(self):
        # Up to 30 T the quartic's constant term reaches 1e20; the degree
        # stays 4 because the monic quartic is solved without trimming.
        for e_vcm, theta in ((0.0, 0.0), (5000.0, 1.0), (1000.0, math.pi / 2.0)):
            base, bts, levels = self.sweep(e_vcm, theta, b_max=30.0, points=31)
            for bt, row in zip(bts, levels):
                want = lapack_levels(base.with_b_tilde(float(bt)))
                assert np.abs(row - want).max() <= 1e-9 * np.abs(want).max()


class TestNumericOracle:
    # (E in V/cm, B in tesla, theta in degrees): weak field, the 2.879 kV/cm
    # confluence, and 10 MV/m with 30 T at parallel fields.
    HARD_POINTS = ((10.0, 1e-6, 60.0), (2879.3, 0.05, 60.0), (1e5, 30.0, 0.0))

    @staticmethod
    def mp_levels(p):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            values = mpmath.eigsy(mpmath.matrix(build_hamiltonian(p).tolist()),
                                  eigvals_only=True)
            return np.array(sorted((float(v) for v in values), reverse=True))

    def check(self, p):
        want = self.mp_levels(p)
        got = np.array(numeric_eigenvalues(p).lambdas)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("e_vcm, b_tesla, theta_deg", HARD_POINTS)
    def test_hard_points_match_mpmath(self, e_vcm, b_tesla, theta_deg):
        self.check(scale_parameters(MOL, FieldConfiguration(
            e_field=e_vcm * 100.0, b_field=b_tesla,
            theta=math.radians(theta_deg))))

    def test_exact_crossing_matches_mpmath(self):
        # Levels 2 and 3 cross exactly here, the point where the closed
        # form's double root splits worst.
        self.check(params(b_tilde=0.00287993541763346, e_tilde=0.155))


class TestLevelsAlongB:
    def test_rows_equal_numeric_levels_bitwise(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = random_params(rng)
            h0 = build_hamiltonian(p.with_b_tilde(0.0))
            bs = np.concatenate([[0.0], rng.uniform(0.0, 20.0, 40)])
            rows = numeric_levels_along_b(h0, bs)
            assert rows.shape == (41, 8)
            for b, row in zip(bs, rows):
                want = numeric_levels(p.with_b_tilde(float(b)))
                assert row.tobytes() == want.tobytes()

    def test_scalar_field_gives_one_row(self):
        p = params(b_tilde=1.3, e_tilde=0.4, theta=1.0)
        h0 = build_hamiltonian(p.with_b_tilde(0.0))
        got = numeric_levels_along_b(h0, 1.3)
        assert got.shape == (8,)
        assert got.tobytes() == numeric_levels(p).tobytes()

"""Fixed-degree polynomial solvers against independent oracles."""

import math

import numpy as np
import pytest

from ohcross.algebra import (CUBIC_RESIDUAL_REL, AlgebraError, _residuals,
                             numeric_roots, solve_monic_cubics,
                             solve_monic_quartics, solve_quartic)
from ohcross.discriminant import g_coefficients
from ohcross.model import FieldConfiguration, MoleculeParameters, scale_parameters


def sorted_roots(values):
    return sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


class TestPolynomial:
    """Residuals of one ascending coefficient array at given points."""

    def test_horner_evaluation(self):
        c = (-6.0, 11.0, -6.0, 1.0)  # (x-1)(x-2)(x-3)
        res = _residuals(c, [1.0, 4.0, 1j])
        assert res[0] == pytest.approx(0.0, abs=1e-15)
        # scale sum_k |c_k| |x|^k: 210 at x = 4 and 24 at |x| = 1
        assert res[1] == pytest.approx(6.0 / 210.0, rel=1e-12)
        assert res[2] == pytest.approx(abs((1j - 1) * (1j - 2) * (1j - 3)) / 24.0,
                                       rel=1e-12)

    def test_eval_magnitude_bounds_value(self):
        assert all(r <= 1.0 for r in _residuals((1.0, -3.0, 2.0), [-2.0, 0.5, 3.0]))


class TestCubic:
    """solve_monic_cubics rows: (a0, a1, a2) of z^3 + a2 z^2 + a1 z + a0."""

    @staticmethod
    def roots_of(a0, a1, a2):
        roots, resid = solve_monic_cubics(np.array([[a0, a1, a2]]))
        assert np.all(resid <= CUBIC_RESIDUAL_REL)
        return roots[0]

    def test_known_real_roots(self):
        roots = sorted_roots(self.roots_of(-6.0, 11.0, -6.0).tolist())
        for got, want in zip(roots, (1.0, 2.0, 3.0)):
            assert got == pytest.approx(want, abs=1e-10)

    def test_triple_root(self):
        # (x - 2)^3: all three copies come back
        roots = self.roots_of(-8.0, 12.0, -6.0)
        assert roots.shape == (3,)
        for z in roots:
            assert z == pytest.approx(2.0, abs=1e-4)

    def test_complex_pair(self):
        # (x - 1)(x^2 + 1)
        roots = self.roots_of(-1.0, 1.0, -1.0).tolist()
        real = [z for z in roots if abs(z.imag) < 1e-9]
        assert len(real) == 1
        assert real[0].real == pytest.approx(1.0, abs=1e-10)

    def test_random_cubics_match_companion_roots(self):
        rng = np.random.default_rng(101)
        rows = rng.uniform(-5, 5, size=(300, 3))
        roots, resid = solve_monic_cubics(rows)
        assert np.all(resid <= CUBIC_RESIDUAL_REL)
        for coeffs, mine in zip(rows, roots):
            ref = sorted_roots(np.roots([1.0, coeffs[2], coeffs[1], coeffs[0]])
                               .astype(complex).tolist())
            scale = max(1.0, max(abs(z) for z in ref))
            for a, b in zip(sorted_roots(mine.tolist()), ref):
                assert abs(a - b) <= 1e-7 * scale


class TestQuartic:
    def test_known_roots(self):
        # (x-1)(x+1)(x-2)(x+2) = x^4 - 5x^2 + 4
        roots = sorted(z.real for z in solve_quartic((4.0, 0.0, -5.0, 0.0, 1.0)))
        for got, want in zip(roots, (-2.0, -1.0, 1.0, 2.0)):
            assert got == pytest.approx(want, abs=1e-10)

    def test_biquadratic_with_complex_pairs(self):
        # x^4 + 5x^2 + 4 = (x^2+1)(x^2+4)
        imag = sorted(z.imag for z in solve_quartic((4.0, 0.0, 5.0, 0.0, 1.0)))
        for got, want in zip(imag, (-2.0, -1.0, 1.0, 2.0)):
            assert got == pytest.approx(want, abs=1e-10)

    def test_double_root_pair(self):
        # (x^2 - 2x + 5)^2, roots 1 +- 2i doubled: all four copies come back
        roots = solve_quartic((25.0, -20.0, 14.0, -4.0, 1.0))
        assert roots.shape == (4,)
        for z in roots:
            assert abs(z - (1.0 + 2.0j * np.sign(z.imag))) < 1e-6

    def test_scales_non_monic_input(self):
        roots = sorted(z.real for z in solve_quartic((8.0, 0.0, -10.0, 0.0, 2.0)))
        assert roots[0] == pytest.approx(-2.0, abs=1e-9)

    def test_random_quartics_match_companion_roots(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            c = rng.uniform(-4, 4, size=4)
            mine = sorted_roots(solve_quartic(tuple(c) + (1.0,)).tolist())
            ref = sorted_roots(np.roots([1.0, c[3], c[2], c[1], c[0]])
                               .astype(complex).tolist())
            scale = max(1.0, max(abs(z) for z in ref))
            for a, b in zip(mine, ref):
                assert abs(a - b) <= 1e-6 * scale

    def test_rejects_wrong_degree(self):
        # a vanishing leading coefficient fails the residual bound
        with pytest.raises(AlgebraError):
            solve_quartic((1.0, 2.0, 1.0, 0.0, 0.0))


class TestQuarticRows:
    def test_rows_match_companion_roots(self):
        rng = np.random.default_rng(203)
        rows = rng.uniform(-4, 4, size=(200, 4))
        roots, resid = solve_monic_quartics(rows)
        assert roots.shape == (200, 4)
        assert np.all(resid <= 1e-8)
        for row, mine in zip(rows, roots):
            ref = np.roots([1.0, row[3], row[2], row[1], row[0]]).astype(complex)
            scale = max(1.0, float(np.abs(ref).max()))
            for a, b in zip(sorted_roots(mine.tolist()), sorted_roots(ref.tolist())):
                assert abs(a - b) <= 1e-6 * scale

    def test_rows_with_repeated_roots(self):
        rows = np.array([(25.0, -20.0, 14.0, -4.0),   # (1 +- 2i) twice
                         (6.0, -17.0, 17.0, -7.0),    # 1 twice, 2, 3
                         (4.0, 0.0, -5.0, 0.0),       # +-1, +-2
                         (0.0, 0.0, 0.0, 0.0)])       # 0 four times
        want = [(1 - 2j, 1 - 2j, 1 + 2j, 1 + 2j), (1, 1, 2, 3),
                (-2, -1, 1, 2), (0, 0, 0, 0)]
        roots, resid = solve_monic_quartics(rows)
        assert np.all(resid <= 1e-8)
        for mine, ref in zip(roots, want):
            for a, b in zip(sorted_roots(mine.tolist()), ref):
                assert abs(a - b) <= 1e-6

    def test_batch_rows_equal_one_row_calls(self):
        rows = np.random.default_rng(204).uniform(-4, 4, size=(50, 4))
        roots, resid = solve_monic_quartics(rows)
        for i in range(len(rows)):
            one_root, one_resid = solve_monic_quartics(rows[i:i + 1])
            assert np.array_equal(one_root[0], roots[i])
            assert one_resid[0] == resid[i]

    def test_non_finite_row_fails_residual(self):
        _, resid = solve_monic_quartics(np.array([[4.0, 0.0, -5.0, 0.0],
                                                  [np.nan, 0.0, 1.0, 0.0]]))
        assert resid[0] <= 1e-8
        assert not resid[1] <= 1e-8


class TestNumericRoots:
    def test_matches_known_factorization(self):
        p = (-120.0, 274.0, -225.0, 85.0, -15.0, 1.0)
        roots = sorted(z.real for z in numeric_roots(p))
        for got, want in zip(roots, (1.0, 2.0, 3.0, 4.0, 5.0)):
            assert got == pytest.approx(want, abs=1e-7)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(AlgebraError):
            numeric_roots((0.0,))
        with pytest.raises(AlgebraError):
            numeric_roots((1.0, 2.0, 0.0))

    def test_constant_rejected(self):
        with pytest.raises(AlgebraError):
            numeric_roots((3.0,))

    @pytest.mark.parametrize("e_vcm", [4500.0, 10000.0, 40000.0])
    def test_octic_matches_mpmath(self, e_vcm):
        # the octic's coefficients span 2e14 to 2e29 here; all eight roots
        # must come from the full coefficient array
        mpmath = pytest.importorskip("mpmath")
        p = scale_parameters(MoleculeParameters(), FieldConfiguration(
            e_field=e_vcm * 100.0, b_field=0.0, theta=math.radians(60.0)))
        coeffs = g_coefficients(p.e_tilde, p.delta_tilde, p.theta)
        mine = numeric_roots(coeffs).tolist()
        assert len(mine) == 8
        with mpmath.workdps(60):
            ref = mpmath.polyroots([mpmath.mpf(c) for c in coeffs[::-1]],
                                   maxsteps=500, extraprec=400)
        for want in (complex(z) for z in ref):
            got = min(mine, key=lambda z: abs(z - want))
            assert abs(got - want) <= 1e-6 * abs(want)
            mine.remove(got)

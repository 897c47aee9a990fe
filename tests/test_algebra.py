"""Fixed-degree polynomial solvers against independent oracles."""

import math

import numpy as np
import pytest

from ohcross.algebra import (CUBIC_RESIDUAL_REL, NUMERIC_RESIDUAL_REL,
                             QUARTIC_RESIDUAL_REL, AlgebraError, horner,
                             numeric_roots, residuals, solve_monic_cubics,
                             solve_monic_quartics)
from ohcross.discriminant import g_coefficients
from ohcross.model import FieldConfiguration, MoleculeParameters, scale_parameters
from ohcross.spectrum import shifted_quartic_coefficients


def sorted_roots(values):
    return sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def one_quartic(coeffs):
    """Roots of c0 + ... + c4 z^4 as one monic row of solve_monic_quartics,
    which must meet the quartic residual bound."""
    c = np.asarray(coeffs, dtype=float)
    roots, resid = solve_monic_quartics((c[:4] / c[4])[None])
    assert resid[0] <= QUARTIC_RESIDUAL_REL
    return roots[0]


class TestPolynomial:
    """horner and residuals of one ascending coefficient array."""

    def test_horner_evaluation(self):
        c = np.array([-6.0, 11.0, -6.0, 1.0])  # (x-1)(x-2)(x-3)
        assert horner(c, 4.0) == 6.0
        res = residuals(c, np.array([1.0, 4.0, 1j]))
        assert res[0] == pytest.approx(0.0, abs=1e-15)
        # scale sum_k |c_k| |x|^k: 210 at x = 4 and 24 at |x| = 1
        assert res[1] == pytest.approx(6.0 / 210.0, rel=1e-12)
        assert res[2] == pytest.approx(abs((1j - 1) * (1j - 2) * (1j - 3)) / 24.0,
                                       rel=1e-12)

    def test_eval_magnitude_bounds_value(self):
        assert np.all(residuals(np.array([1.0, -3.0, 2.0]),
                                np.array([-2.0, 0.5, 3.0])) <= 1.0)

    def test_coefficients_broadcast_against_points(self):
        # two quadratics, one per column, each at its own point
        c = np.array([[1.0, -4.0], [0.0, 0.0], [1.0, 1.0]])
        assert horner(c, np.array([2.0, 2.0])).tolist() == [5.0, 0.0]
        assert horner((1.0, 2.0, 3.0), 2.0) == 17.0


def python_residuals(coeffs, roots):
    """The residual rule in plain Python floats, one root at a time."""
    scale = max(abs(c) for c in coeffs)
    out = []
    for z in roots:
        value, magnitude, size = 0j, 0.0, abs(z)
        for c in reversed(coeffs):
            value = value * z + c
            magnitude = magnitude * size + abs(c)
        out.append(abs(value) / max(scale, magnitude))
    return np.array(out)


def unrolled_row_residuals(a, z):
    """The monic-row residuals as the row solvers wrote them out by hand."""
    mag, size = np.abs(a), np.abs(z)
    if a.shape[1] == 3:
        value = ((z + a[:, 2:]) * z + a[:, 1:2]) * z + a[:, :1]
        terms = ((size + mag[:, 2:]) * size + mag[:, 1:2]) * size + mag[:, :1]
    else:
        value = (((z + a[:, 3:]) * z + a[:, 2:3]) * z + a[:, 1:2]) * z + a[:, :1]
        terms = ((((size + mag[:, 3:]) * size + mag[:, 2:3]) * size
                  + mag[:, 1:2]) * size + mag[:, :1])
    scale = np.maximum(mag.max(axis=1), 1.0)[:, None]
    return np.abs(value) / np.maximum(scale, terms)


class TestResidualRule:
    """residuals against independent evaluations of the same rule.

    numpy's vectorized complex product and modulus may round differently
    from CPython's scalar ones (with FMA they do), so against plain Python
    floats the residuals agree to the rounding of Horner's rule, about
    2 n eps for degree n, and every verdict at the bounds is the same.
    Against the row formulas it replaced they agree bit for bit.
    """

    @staticmethod
    def assert_matches_python(coeffs, roots, got, bound):
        want = python_residuals(list(coeffs), list(roots))
        assert np.all(np.abs(got - want) <= 4.0 * len(coeffs) * 2.0 ** -53)
        assert np.array_equal(got <= bound, want <= bound)

    @pytest.mark.parametrize("e_vcm", [4500.0, 10000.0, 40000.0])
    def test_octic_roots(self, e_vcm):
        for theta in np.linspace(0.05, math.pi - 0.05, 12):
            p = scale_parameters(MoleculeParameters(), FieldConfiguration(
                e_field=e_vcm * 100.0, theta=float(theta)))
            c = np.array(g_coefficients(p.e_tilde, p.delta_tilde, p.theta))
            roots = numeric_roots(c)
            self.assert_matches_python(c, roots, residuals(c, roots),
                                       NUMERIC_RESIDUAL_REL)

    @pytest.mark.parametrize("degree", [3, 4])
    def test_random_rows(self, degree):
        rng = np.random.default_rng(205 + degree)
        a = rng.uniform(-5.0, 5.0, (400, degree)) * 10.0 ** rng.uniform(-4, 4, (400, degree))
        solve = solve_monic_cubics if degree == 3 else solve_monic_quartics
        bound = CUBIC_RESIDUAL_REL if degree == 3 else QUARTIC_RESIDUAL_REL
        roots, resid = solve(a)
        per_root = unrolled_row_residuals(a, roots)
        assert np.array_equal(resid, per_root if degree == 3 else per_root.max(axis=1))
        for row, z, got in zip(a, roots, per_root):
            self.assert_matches_python(row.tolist() + [1.0], z, got, bound)


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
        roots = sorted(z.real for z in one_quartic((4.0, 0.0, -5.0, 0.0, 1.0)))
        for got, want in zip(roots, (-2.0, -1.0, 1.0, 2.0)):
            assert got == pytest.approx(want, abs=1e-10)

    def test_biquadratic_with_complex_pairs(self):
        # x^4 + 5x^2 + 4 = (x^2+1)(x^2+4)
        imag = sorted(z.imag for z in one_quartic((4.0, 0.0, 5.0, 0.0, 1.0)))
        for got, want in zip(imag, (-2.0, -1.0, 1.0, 2.0)):
            assert got == pytest.approx(want, abs=1e-10)

    def test_double_root_pair(self):
        # (x^2 - 2x + 5)^2, roots 1 +- 2i doubled: all four copies come back
        roots = one_quartic((25.0, -20.0, 14.0, -4.0, 1.0))
        assert roots.shape == (4,)
        for z in roots:
            assert abs(z - (1.0 + 2.0j * np.sign(z.imag))) < 1e-6

    def test_scales_non_monic_input(self):
        roots = sorted(z.real for z in one_quartic((8.0, 0.0, -10.0, 0.0, 2.0)))
        assert roots[0] == pytest.approx(-2.0, abs=1e-9)

    def test_random_quartics_match_companion_roots(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            c = rng.uniform(-4, 4, size=4)
            mine = sorted_roots(one_quartic(tuple(c) + (1.0,)).tolist())
            ref = sorted_roots(np.roots([1.0, c[3], c[2], c[1], c[0]])
                               .astype(complex).tolist())
            scale = max(1.0, max(abs(z) for z in ref))
            for a, b in zip(mine, ref):
                assert abs(a - b) <= 1e-6 * scale


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


def reference_solve_monic_quartics(a):
    """solve_monic_quartics as first written, with its own cubic and polish:
    all three branches' candidates and the split stacked, a where over them
    and take_along_axis to select. The kernel must match it bit for bit."""
    def cubic_roots(a2, a1, a0):
        p = a1 - a2 * a2 / 3.0
        q = 2.0 * a2 ** 3 / 27.0 - a2 * a1 / 3.0 + a0
        shift = (-a2 / 3.0)[..., None]
        sq = np.sqrt((q * q / 4.0 + p ** 3 / 27.0).astype(complex))
        u3_plus = -q / 2.0 + sq
        u3_minus = -q / 2.0 - sq
        u3 = np.where(np.abs(u3_plus) >= np.abs(u3_minus), u3_plus, u3_minus)
        triple = (u3 == 0)[..., None]
        unity = complex(-0.5, math.sqrt(3.0) / 2.0)
        uk = ((np.where(u3 == 0, 1.0, u3) ** (1.0 / 3.0))[..., None]
              * np.array([1.0, unity, unity ** 2]))
        return np.where(triple, shift, uk - p[..., None] / (3.0 * uk) + shift)

    def polish(c, z):
        slope_c = c[1:] * np.arange(1.0, 5.0)[:, None, None]
        value = horner(c, z)
        live = np.ones(z.shape, dtype=bool)
        for _ in range(2):
            step = z - value / horner(slope_c, z)
            step_value = horner(c, step)
            live &= np.abs(step_value) < np.abs(value)
            z = np.where(live, step, z)
            value = np.where(live, step_value, value)
        return z

    a = np.asarray(a, dtype=float)
    a0, a1, a2, a3 = a.T
    with np.errstate(all="ignore"):
        q = a2 - 3.0 * a3 * a3 / 8.0
        r = a1 - a2 * a3 / 2.0 + a3 ** 3 / 8.0
        s = a0 - a1 * a3 / 4.0 + a2 * a3 * a3 / 16.0 - 3.0 * a3 ** 4 / 256.0
        zs = cubic_roots(2.0 * q, q * q - 4.0 * s, -r * r)
        qscale = np.sqrt(np.maximum(np.maximum(np.abs(q), np.sqrt(np.abs(s))), 1e-300))
        proot = np.sqrt(zs)
        disc = np.sqrt((q * q - 4.0 * s).astype(complex))
        ra = np.sqrt((-q + disc) / 2.0)
        rb = np.sqrt((-q - disc) / 2.0)
        split = np.stack([ra, -ra, rb, -rb], axis=1)[:, None, :]
        q3, r3, s3 = q[:, None, None], r[:, None, None], s[:, None, None]
        b1 = (q[:, None] + zs - r[:, None] / proot) / 2.0
        b2 = (q[:, None] + zs + r[:, None] / proot) / 2.0
        d1 = np.sqrt(proot * proot - 4.0 * b1)
        d2 = np.sqrt(proot * proot - 4.0 * b2)
        ferrari = np.stack([(-proot + d1) / 2.0, (-proot - d1) / 2.0,
                            (proot + d2) / 2.0, (proot - d2) / 2.0], axis=2)
        degenerate = (np.abs(proot) < 1e-9 * qscale[:, None])[:, :, None]
        cand = np.where(degenerate, split, ferrari)
        res = np.abs(horner((s3, r3, q3, 0.0, 1.0), cand)).sum(axis=2)
        best = np.argmin(np.where(np.isnan(res), np.inf, res), axis=1)
        us = np.take_along_axis(cand, best[:, None, None], axis=1)[:, 0, :]
        c = np.concatenate([a.T, np.ones((1, len(a)))])[:, :, None]
        roots = polish(c, us - (a3 / 4.0)[:, None])
    return roots, residuals(c, roots).max(axis=1)


class TestQuarticBits:
    """solve_monic_quartics against its reference, bit for bit."""

    @staticmethod
    def assert_same_bits(rows):
        roots, resid = solve_monic_quartics(rows)
        want_roots, want_resid = reference_solve_monic_quartics(rows)
        assert np.array_equal(roots.view(np.uint64), want_roots.view(np.uint64))
        assert np.array_equal(resid.view(np.uint64), want_resid.view(np.uint64))

    @staticmethod
    def audit_domain_rows(n, seed):
        rng = np.random.default_rng(seed)
        p = scale_parameters(MoleculeParameters(), FieldConfiguration(
            *rng.uniform((0.0, 0.0, 0.0), (5e5, 0.3, math.pi), (n, 3)).T))
        return shifted_quartic_coefficients(p.b_tilde, p.e_tilde,
                                            p.delta_tilde, p.theta)

    @pytest.mark.parametrize("n", [2, 20, 200, 2000])
    def test_audit_domain_rows(self, n):
        self.assert_same_bits(self.audit_domain_rows(n, n))

    def test_one_row_calls(self):
        rows = self.audit_domain_rows(200, 5)
        rows[100:] = np.random.default_rng(6).uniform(-4, 4, size=(100, 4))
        for i in range(len(rows)):
            self.assert_same_bits(rows[i:i + 1])

    def test_biquadratic_split_rows(self):
        # a1 = a3 = 0 makes r = 0: a zero resolvent root takes the split
        rows = np.random.default_rng(7).uniform(-4, 4, size=(100, 4))
        rows[:, 1] = rows[:, 3] = 0.0
        rows[0] = (4.0, 0.0, -5.0, 0.0)
        self.assert_same_bits(rows)
        for i in range(0, len(rows), 9):
            self.assert_same_bits(rows[i:i + 1])

    def test_non_finite_rows(self):
        values = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -2.5, 1e300)
        rows = np.array([(a0, a1, a2, a3) for a0 in values for a1 in values
                         for a2 in values for a3 in values])
        self.assert_same_bits(rows)
        for i in range(0, len(rows), 37):
            self.assert_same_bits(rows[i:i + 1])


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

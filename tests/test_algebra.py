"""Polynomial solvers against independent oracles."""

import numpy as np
import pytest

from ohcross.algebra import (ComplexRootSet, DegreeError, Polynomial,
                             ZeroPolynomialError, merge_roots,
                             numeric_roots, solve_cubic, solve_monic_quartics,
                             solve_quartic)


def sorted_roots(values):
    return sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


class TestPolynomial:
    def test_degree_and_trim(self):
        p = Polynomial((1.0, 2.0, 0.0))
        assert p.degree == 1
        q = Polynomial((1.0, 1.0, 1e-20))
        assert q.degree == 1  # dust-sized leading term trimmed

    def test_zero_polynomial(self):
        assert Polynomial((0.0, 0.0)).is_zero
        assert Polynomial((0.0,)).degree == -1

    def test_horner_evaluation(self):
        p = Polynomial((-6.0, 11.0, -6.0, 1.0))  # (x-1)(x-2)(x-3)
        assert p(1.0) == pytest.approx(0.0, abs=1e-12)
        assert p(4.0) == pytest.approx(6.0, rel=1e-12)
        assert p(1j) == pytest.approx((1j - 1) * (1j - 2) * (1j - 3), rel=1e-12)

    def test_eval_magnitude_bounds_value(self):
        p = Polynomial((1.0, -3.0, 2.0))
        for x in (-2.0, 0.5, 3.0):
            assert abs(p(x)) <= p.eval_magnitude(x) + 1e-15


def test_merge_roots_clusters_close_values():
    raw = [1.0 + 0j, 1.0 + 1e-12j, 2.0 + 0j]
    rs = merge_roots(raw, merge_rel=1e-8)
    assert rs.count == 3
    assert len(rs.roots) == 2
    assert rs.multiplicities[rs.roots.index(min(rs.roots, key=abs))] == 2


def test_merge_roots_keeps_distinct_values():
    rs = merge_roots([1.0 + 0j, 1.5 + 0j, -2.0 + 0j])
    assert rs.multiplicities == (1, 1, 1)


class TestCubic:
    def test_known_real_roots(self):
        p = Polynomial((-6.0, 11.0, -6.0, 1.0))
        roots = sorted_roots(solve_cubic(p).expanded())
        for got, want in zip(roots, (1.0, 2.0, 3.0)):
            assert got == pytest.approx(want, abs=1e-10)

    def test_triple_root(self):
        # (x - 2)^3
        p = Polynomial((-8.0, 12.0, -6.0, 1.0))
        rs = solve_cubic(p)
        assert sum(rs.multiplicities) == 3
        for z in rs.roots:
            assert z == pytest.approx(2.0, abs=1e-4)

    def test_complex_pair(self):
        # (x - 1)(x^2 + 1)
        p = Polynomial((-1.0, 1.0, -1.0, 1.0))
        roots = solve_cubic(p).expanded()
        real = [z for z in roots if abs(z.imag) < 1e-9]
        assert len(real) == 1
        assert real[0].real == pytest.approx(1.0, abs=1e-10)

    def test_random_cubics_match_companion_roots(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            coeffs = rng.uniform(-5, 5, size=3)
            p = Polynomial((float(coeffs[0]), float(coeffs[1]),
                            float(coeffs[2]), 1.0))
            mine = sorted_roots(solve_cubic(p).expanded())
            ref = sorted_roots(np.roots([1.0, coeffs[2], coeffs[1], coeffs[0]])
                               .astype(complex).tolist())
            scale = max(1.0, max(abs(z) for z in ref))
            for a, b in zip(mine, ref):
                assert abs(a - b) <= 1e-7 * scale

    def test_rejects_wrong_degree(self):
        with pytest.raises(DegreeError):
            solve_cubic(Polynomial((1.0, 1.0, 1.0)))


class TestQuartic:
    def test_known_roots(self):
        # (x-1)(x+1)(x-2)(x+2) = x^4 - 5x^2 + 4
        p = Polynomial((4.0, 0.0, -5.0, 0.0, 1.0))
        roots = sorted(z.real for z in solve_quartic(p).expanded())
        for got, want in zip(roots, (-2.0, -1.0, 1.0, 2.0)):
            assert got == pytest.approx(want, abs=1e-10)

    def test_biquadratic_with_complex_pairs(self):
        # x^4 + 5x^2 + 4 = (x^2+1)(x^2+4)
        p = Polynomial((4.0, 0.0, 5.0, 0.0, 1.0))
        imag = sorted(z.imag for z in solve_quartic(p).expanded())
        for got, want in zip(imag, (-2.0, -1.0, 1.0, 2.0)):
            assert got == pytest.approx(want, abs=1e-10)

    def test_double_root_pair(self):
        # (x^2 - 2x + 5)^2, roots 1 +- 2i doubled
        p = Polynomial((25.0, -20.0, 14.0, -4.0, 1.0))
        rs = solve_quartic(p)
        assert sum(rs.multiplicities) == 4
        for z in rs.expanded():
            assert abs(z - (1.0 + 2.0j * np.sign(z.imag))) < 1e-6

    def test_scales_non_monic_input(self):
        p = Polynomial((8.0, 0.0, -10.0, 0.0, 2.0))
        roots = sorted(z.real for z in solve_quartic(p).expanded())
        assert roots[0] == pytest.approx(-2.0, abs=1e-9)

    def test_random_quartics_match_companion_roots(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            c = rng.uniform(-4, 4, size=4)
            p = Polynomial((float(c[0]), float(c[1]), float(c[2]),
                            float(c[3]), 1.0))
            mine = sorted_roots(solve_quartic(p).expanded())
            ref = sorted_roots(np.roots([1.0, c[3], c[2], c[1], c[0]])
                               .astype(complex).tolist())
            scale = max(1.0, max(abs(z) for z in ref))
            for a, b in zip(mine, ref):
                assert abs(a - b) <= 1e-6 * scale

    def test_rejects_wrong_degree(self):
        with pytest.raises(DegreeError):
            solve_quartic(Polynomial((1.0, 2.0, 1.0)))


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
        p = Polynomial((-120.0, 274.0, -225.0, 85.0, -15.0, 1.0))
        roots = sorted(z.real for z in numeric_roots(p).expanded())
        for got, want in zip(roots, (1.0, 2.0, 3.0, 4.0, 5.0)):
            assert got == pytest.approx(want, abs=1e-7)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            numeric_roots(Polynomial((0.0,)))

    def test_constant_rejected(self):
        with pytest.raises(DegreeError):
            numeric_roots(Polynomial((3.0,)))


def test_root_set_expanded_respects_multiplicity():
    rs = ComplexRootSet(roots=(1.0 + 0j, 2.0 + 0j), multiplicities=(2, 1))
    assert rs.expanded() == [1.0 + 0j, 1.0 + 0j, 2.0 + 0j]
    assert rs.count == 3

"""Closed-form spectrum against LAPACK eigvalsh and exact cases."""

import math

import numpy as np
import pytest

from ohcross.algebra import ResidualError
from ohcross.hamiltonian import build_hamiltonian
from ohcross.model import (FieldConfiguration, MoleculeParameters,
                           ScaledParameters, b_tilde_from_field,
                           scale_parameters)
from ohcross.spectrum import (HermiticityViolationError, analytic_spectrum,
                              lambda_squared_rows,
                              numeric_level_derivatives_along_b,
                              numeric_levels, numeric_levels_along_b,
                              shifted_quartic_coefficients)

MOL = MoleculeParameters()


def params(b_tilde=0.0, e_tilde=0.0, theta=0.0):
    return ScaledParameters(b_tilde=b_tilde, e_tilde=e_tilde,
                            delta_tilde=8.335, theta=theta)


def one_point(p):
    """The closed-form levels at one parameter set, a one-point call."""
    return tuple(analytic_spectrum(p.b_tilde, p.e_tilde, p.delta_tilde,
                                   p.theta)[0].tolist())


def random_params(rng):
    cfg = FieldConfiguration(e_field=float(rng.uniform(0, 5e5)),
                             b_field=float(rng.uniform(0, 0.3)),
                             theta=float(rng.uniform(0, math.pi)))
    return scale_parameters(MOL, cfg)


def faddeev_leverrier(h):
    """Ascending coefficients of det(lambda I - H) by the Faddeev-LeVerrier
    recurrence, the reference for the frozen shifted quartic."""
    c = np.zeros(9)
    c[8] = 1.0
    m = h
    for k in range(1, 9):
        c[8 - k] = -np.trace(m) / k
        m = h @ (m + c[8 - k] * np.eye(8))
    return c


def even_part_from_shifted(a, delta_tilde):
    """Ascending coefficients in m = lambda^2 of the monic quartic
    u^4 + a3 u^3 + a2 u^2 + a1 u + a0 with u = m - (delta_tilde/10)^2."""
    shift = np.polynomial.Polynomial([-(delta_tilde / 10.0) ** 2, 1.0])
    quartic = np.polynomial.Polynomial(list(a) + [1.0])
    return quartic(shift).coef


class TestCharPoly:
    def test_odd_coefficients_vanish(self):
        # Faddeev-LeVerrier on the matrix: the odd terms vanish and the even
        # ones are the frozen quartic shifted back to m = lambda^2.
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = random_params(rng)
            c = faddeev_leverrier(build_hamiltonian(p))
            top = np.abs(c).max()
            assert np.abs(c[1::2]).max() <= 1e-9 * top
            a = shifted_quartic_coefficients(p.b_tilde, p.e_tilde,
                                             p.delta_tilde, p.theta)
            even = even_part_from_shifted(a, p.delta_tilde)
            assert np.abs(even - c[0::2]).max() <= 1e-9 * top

    def test_constant_term_is_determinant(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            p = random_params(rng)
            det = float(np.linalg.det(build_hamiltonian(p)))
            a = shifted_quartic_coefficients(p.b_tilde, p.e_tilde,
                                             p.delta_tilde, p.theta)
            const = even_part_from_shifted(a, p.delta_tilde)[0]
            assert const == pytest.approx(det, abs=1e-10 * max(1.0, abs(det)))

    def test_zero_field_quadruple_root(self):
        # (m - (delta/10)^2)^4 is u^4: every lower coefficient is exactly 0
        a = shifted_quartic_coefficients(0.0, 0.0, 8.335, 0.7)
        assert a.tolist() == [0.0, 0.0, 0.0, 0.0]
        r = (8.335 / 10.0) ** 2
        for got in lambda_squared_rows(a[None], r)[0]:
            assert got == pytest.approx(r, rel=1e-12)

    def test_sympy_rederivation(self):
        sp = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix
        # r stands for sqrt(3) and s for sin(theta), reduced once expanded
        b, e, d, c, s, r, lam, u = sp.symbols("b e d c s r lam u")
        ang = sp.Matrix([[-3 * c, r * s, 0, 0], [r * s, -c, 2 * s, 0],
                         [0, 2 * s, c, r * s], [0, 0, r * s, 3 * c]])
        h = sp.zeros(8, 8)
        h[:4, :4] = sp.diag(-3, -1, 1, 3) * b / 10 - sp.eye(4) * d / 10
        h[4:, 4:] = sp.diag(-3, -1, 1, 3) * b / 10 + sp.eye(4) * d / 10
        h[:4, 4:] = -ang * e / 10
        h[4:, :4] = -ang * e / 10
        dm = DomainMatrix.from_Matrix(h)
        charpoly = sum(dm.domain.to_sympy(k) * lam ** (8 - i)
                       for i, k in enumerate(dm.charpoly()))
        charpoly = sp.rem(sp.rem(charpoly, r ** 2 - 3, r), s ** 2 + c ** 2 - 1, s)
        poly = sp.Poly(charpoly, lam)
        assert all(poly.coeff_monomial(lam ** k) == 0 for k in (1, 3, 5, 7))
        shifted = sp.Poly(sp.expand(sum(
            poly.coeff_monomial(lam ** (2 * k)) * (u + d ** 2 / 100) ** k
            for k in range(5))), u)
        assert shifted.degree() == 4 and shifted.LC() == 1
        rng = np.random.default_rng(18)
        for _ in range(5):
            bt, et, dt, th = (rng.uniform(0, 17), rng.uniform(0, 8.4),
                              rng.uniform(1, 10), rng.uniform(0, np.pi))
            at = {b: bt, e: et, d: dt, c: np.cos(th)}
            want = [float(shifted.coeff_monomial(u ** k).subs(at)) for k in range(4)]
            got = shifted_quartic_coefficients(bt, et, dt, th)
            assert got == pytest.approx(want, rel=1e-10)


class TestClosedFormRoots:
    # lambda_squared_rows with a zero shift: the quartics are in lambda^2
    def test_complex_root_raises(self):
        # (m^2 + 1)(m^2 - 3m + 2) has a conjugate pair
        with pytest.raises(HermiticityViolationError):
            lambda_squared_rows([[2.0, -3.0, 3.0, -3.0]], 0.0)

    def test_negative_root_raises(self):
        # (m+1)(m-1)(m-2)(m-3) has root -1
        with pytest.raises(HermiticityViolationError):
            lambda_squared_rows([[-6.0, 5.0, 5.0, -5.0]], 0.0)

    def test_exact_biquadratic_case(self):
        # (m-1)(m-4)(m-9)(m-16)
        ms = lambda_squared_rows([[576.0, -820.0, 273.0, -30.0]], 0.0)[0]
        for got, want in zip(ms, (1.0, 4.0, 9.0, 16.0)):
            assert got == pytest.approx(want, rel=1e-12)


class TestAnalyticSpectrum:
    def test_matches_iterative_on_random_configs(self):
        rng = np.random.default_rng(14)
        for _ in range(150):
            p = random_params(rng)
            a = one_point(p)
            n = numeric_levels(build_hamiltonian(p))
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
            lam = one_point(p)
            scale = max(abs(v) for v in closed)
            for got, want in zip(lam, closed):
                assert abs(got - want) <= 1e-9 * scale

    def test_mirror_antisymmetry(self):
        rng = np.random.default_rng(16)
        for _ in range(80):
            p = random_params(rng)
            lam = one_point(p)
            scale = max(abs(v) for v in lam)
            for i in range(8):
                assert abs(lam[i] + lam[7 - i]) <= 1e-9 * max(scale, 1e-30)

    def test_field_sign_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            b = float(rng.uniform(0, 17))
            e = float(rng.uniform(0, 8.4))
            th = float(rng.uniform(0, math.pi))
            base = one_point(params(b, e, th))
            flip_b = one_point(params(-b, e, th))
            flip_e = one_point(params(b, -e, th))
            scale = max(abs(v) for v in base)
            for x, y, z in zip(base, flip_b, flip_e):
                assert abs(x - y) <= 1e-9 * max(scale, 1e-30)
                assert abs(x - z) <= 1e-9 * max(scale, 1e-30)

    def test_near_crossing_config_survives(self):
        # quartic double root splits into a conjugate pair at eps scale;
        # this exact configuration used to trip the reality check
        p = scale_parameters(MOL, FieldConfiguration(
            b_field=0.05, theta=math.pi / 3.0))
        lam = one_point(p)
        assert lam[3] > 0.0

    def test_tiny_smallest_level_is_refined(self):
        # just off the first zero-field crossing the smallest level is
        # three orders below the largest; lambda^2 = u + (delta/10)^2
        # cancels there, which costs it eps (delta/10)^2 / lambda^2
        b = 8.335 / 3.0 * 1.001
        p = params(b_tilde=b, e_tilde=0.0, theta=0.9)
        lam4 = one_point(p)[3]
        exact = (3.0 * b / 10.0) - 8.335 / 10.0
        assert lam4 == pytest.approx(exact, rel=1e-9)

    def test_level_labels_descend(self):
        p = params(b_tilde=5.0, e_tilde=1.0, theta=1.0)
        lam = one_point(p)
        for label in range(1, 8):
            assert lam[label - 1] >= lam[label]

    def test_zero_field_spectrum_values(self):
        lam = one_point(params())
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
        for got, expect in zip(one_point(p), want):
            assert got == pytest.approx(expect, abs=2e-7)
        for got, expect in zip(numeric_levels(build_hamiltonian(p)), want):
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
        # B = 0, E = 4458.01 V/cm, theta = 175.581 deg: the quartic in
        # lambda^2 has the double roots 1.24987 and 5.69101, and the row
        # kernel must keep both rather than land twice on one.
        p = scale_parameters(MOL, FieldConfiguration(
            e_field=445801.0, theta=math.radians(175.581)))
        a = shifted_quartic_coefficients(0.0, p.e_tilde, p.delta_tilde, p.theta)
        ms = lambda_squared_rows(a[None], (p.delta_tilde / 10.0) ** 2)[0]
        want = np.sort(np.linalg.eigvalsh(build_hamiltonian(p)))[4:] ** 2
        assert np.abs(ms - want).max() <= 1e-6 * want.max()

    def test_single_point_equals_batched_row(self):
        rng = np.random.default_rng(23)
        points = [random_params(rng) for _ in range(30)]
        levels = analytic_spectrum([p.b_tilde for p in points],
                                   [p.e_tilde for p in points],
                                   points[0].delta_tilde,
                                   [p.theta for p in points])
        for p, row in zip(points, levels):
            assert one_point(p) == tuple(row.tolist())

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
        # A NaN field fails the residual bound; a batch raises the error
        # that point raises alone.
        good = scale_parameters(MOL, FieldConfiguration(
            e_field=1000.0, b_field=0.05, theta=math.pi / 3.0))
        bad = good.with_b_tilde(math.nan)
        with pytest.raises(ResidualError) as alone:
            one_point(bad)
        with pytest.raises(ResidualError) as batched:
            analytic_spectrum([good.b_tilde, bad.b_tilde, good.b_tilde],
                              good.e_tilde, good.delta_tilde, good.theta)
        assert str(batched.value) == str(alone.value)
        # among rows failing different checks the lowest row wins
        nan_row, complex_row = [math.nan] * 4, [2.0, -3.0, 3.0, -3.0]
        exact_row = [576.0, -820.0, 273.0, -30.0]
        with pytest.raises(HermiticityViolationError):
            lambda_squared_rows([exact_row, complex_row, nan_row], 0.0)
        with pytest.raises(ResidualError):
            lambda_squared_rows([exact_row, nan_row, complex_row], 0.0)

    def test_weak_fields_match_lapack(self):
        # 800 log-uniform weak-field points, B 1e-8 to 1e-4 T and E 1 to
        # 1000 V/cm, where the quartic in lambda^2 is near a quadruple root
        rng = np.random.default_rng(3)
        b_tesla = 10.0 ** rng.uniform(-8.0, -4.0, 800)
        e_vcm = 10.0 ** rng.uniform(0.0, 3.0, 800)
        theta = rng.uniform(0.0, math.pi, 800)
        points = [scale_parameters(MOL, FieldConfiguration(
            e_field=float(e) * 100.0, b_field=float(b), theta=float(th)))
            for b, e, th in zip(b_tesla, e_vcm, theta)]
        got = analytic_spectrum([p.b_tilde for p in points],
                                [p.e_tilde for p in points],
                                points[0].delta_tilde, theta)
        for p, row in zip(points, got):
            want = lapack_levels(p)
            assert np.abs(row - want).max() <= 1e-9 * np.abs(want).max()

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
        got = numeric_levels(build_hamiltonian(p))
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
                want = numeric_levels(build_hamiltonian(p.with_b_tilde(float(b))))
                assert row.tobytes() == want.tobytes()

    def test_two_dimensional_field_grid_bitwise(self):
        # the catalog scans every seed's bracket as one (seeds, points) grid
        rng = np.random.default_rng(14)
        p = random_params(rng)
        h0 = build_hamiltonian(p.with_b_tilde(0.0))
        bs = np.concatenate([[0.0], rng.uniform(0.0, 20.0, 23)]).reshape(4, 6)
        rows = numeric_levels_along_b(h0, bs)
        assert rows.shape == (4, 6, 8)
        for b, row in zip(bs.ravel(), rows.reshape(-1, 8)):
            want = numeric_levels(build_hamiltonian(p.with_b_tilde(float(b))))
            assert row.tobytes() == want.tobytes()

    def test_scalar_field_gives_one_row(self):
        p = params(b_tilde=1.3, e_tilde=0.4, theta=1.0)
        h0 = build_hamiltonian(p.with_b_tilde(0.0))
        got = numeric_levels_along_b(h0, 1.3)
        assert got.shape == (8,)
        assert got.tobytes() == numeric_levels(build_hamiltonian(p)).tobytes()

    def test_derivatives_match_central_differences(self):
        # Hellmann-Feynman slopes and second-order perturbation curvatures
        # against central differences of the eigvalsh levels, and each row
        # of the stack bit for bit its one-point call
        rng = np.random.default_rng(15)
        p = random_params(rng)
        h0 = build_hamiltonian(p.with_b_tilde(0.0))
        bs = rng.uniform(0.5, 20.0, 25)
        got = numeric_level_derivatives_along_b(h0, bs)
        slopes, curvatures = got
        step = 1e-4
        up, mid, down = (numeric_levels_along_b(h0, bs + s) for s in (step, 0.0, -step))
        assert np.abs((up - down) / (2.0 * step) - slopes).max() <= 1e-7
        fd = (up - 2.0 * mid + down) / step ** 2
        assert (np.abs(fd - curvatures) <= 1e-5 * np.maximum(1.0, np.abs(fd))).all()
        for k, b in enumerate(bs):
            for whole, one in zip(got, numeric_level_derivatives_along_b(h0, b)):
                assert one.shape == (8,)
                assert whole[k].tobytes() == one.tobytes()

    def test_stack_rows_equal_one_matrix_calls_bitwise(self):
        rng = np.random.default_rng(13)
        h = np.stack([build_hamiltonian(random_params(rng)) for _ in range(30)])
        rows = numeric_levels(h.reshape(5, 6, 8, 8))
        assert rows.shape == (5, 6, 8)
        for row, one in zip(rows.reshape(30, 8), h):
            assert row.tobytes() == numeric_levels(one).tobytes()

"""Discriminant factorization, reduced forms, and the audit machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ohcross import discriminant, spectrum
from ohcross.algebra import horner
from ohcross.discriminant import (DET_IDENTITY_TOL, F0_CONSTANT,
                                  LOCALIZE_CONSISTENCY_TOL, REL_FLOOR,
                                  SPECIAL_ANGLE_TOL, TRIPLE_TOL, ZERO_FIELD_TOL,
                                  AuditReport, G_NAMES, _faulted,
                                  _localize_fault, _section,
                                  _special_angle_forms, audit_triple,
                                  discriminant_from_eigenvalues,
                                  eval_f0_tilde, eval_f1_tilde, eval_f2_tilde,
                                  f1_quartic_coefficients,
                                  f2_magnitude_tilde, f2_zero_field_tilde,
                                  g_coefficients, relative_spread)
from ohcross.hamiltonian import build_hamiltonian
from ohcross.model import (FieldConfiguration, MoleculeParameters,
                           ScaledParameters, scale_parameters)
from ohcross.spectrum import analytic_spectrum, numeric_levels

D = 8.335
MOL = MoleculeParameters()


def params(b_tilde, e_tilde=0.0, theta=0.7):
    return ScaledParameters(b_tilde=b_tilde, e_tilde=e_tilde,
                            delta_tilde=D, theta=theta)


def random_params(rng):
    cfg = FieldConfiguration(e_field=float(rng.uniform(0, 5e5)),
                             b_field=float(rng.uniform(0.001, 0.3)),
                             theta=float(rng.uniform(0, math.pi)))
    return scale_parameters(MOL, cfg)


def columns(ps):
    """b_tilde, e_tilde, delta_tilde and theta of parameter sets as arrays."""
    return tuple(np.array([getattr(p, name) for p in ps])
                 for name in ("b_tilde", "e_tilde", "delta_tilde", "theta"))


def identity_routes(ps):
    """f1, 10^8 det H and 5^8 times the squared mirror-pair product of the
    closed-form levels, one array entry per parameter set."""
    b, e, d, th = columns(ps)
    lam = analytic_spectrum(b, e, d, th)
    mirror = np.prod(lam[:, :4] - lam[:, 7:3:-1], axis=1)
    dets = np.linalg.det(np.stack([build_hamiltonian(p) for p in ps]))
    return eval_f1_tilde(b, e, d, th), 1e8 * dets, 5.0 ** 8 * mirror * mirror


def factored_discriminant(ps):
    """f0 f1 f2^2 at each parameter set."""
    b, e, d, th = columns(ps)
    f2 = eval_f2_tilde(b, e, d, th)
    return eval_f0_tilde(b) * eval_f1_tilde(b, e, d, th) * f2 * f2


class TestF0:
    def test_frozen_unit_value(self):
        assert eval_f0_tilde(1.0) == pytest.approx(5.699868278390783e-41,
                                                   rel=1e-15)
        assert F0_CONSTANT == 81.0 / (2 ** 10 * 5 ** 56)

    def test_eighth_power_scaling(self):
        assert eval_f0_tilde(2.0) == pytest.approx(256.0 * eval_f0_tilde(1.0),
                                                   rel=1e-15)
        assert eval_f0_tilde(3.0) / eval_f0_tilde(1.0) == pytest.approx(
            3.0 ** 8, rel=1e-14)

    def test_vanishes_at_zero_field(self):
        assert eval_f0_tilde(0.0) == 0.0


class TestF1:
    def test_zero_field_factorization(self):
        # f1 = 81 (x - d^2/9)^2 (x - d^2)^2 at zero electric field
        rng = np.random.default_rng(31)
        for _ in range(60):
            b = float(rng.uniform(0.1, 17.0))
            x = b * b
            closed = 81.0 * (x - D * D / 9.0) ** 2 * (x - D * D) ** 2
            got = eval_f1_tilde(b, 0.0, D, float(rng.uniform(0, math.pi)))
            assert got == pytest.approx(closed, rel=1e-10)

    def test_zero_field_coefficients_closed_form(self):
        c0, c2, c4, c6 = f1_quartic_coefficients(0.0, D, 1.3)
        d2 = D * D
        # expand (x - d^2/9)^2 (x - d^2)^2
        assert c6 == pytest.approx(-2.0 * (d2 / 9.0 + d2), rel=1e-14)
        assert c4 == pytest.approx((d2 / 9.0) ** 2 + d2 * d2
                                   + 4.0 * (d2 / 9.0) * d2, rel=1e-14)
        assert c2 == pytest.approx(-2.0 * (d2 / 9.0) * d2 * (d2 / 9.0 + d2),
                                   rel=1e-14)
        assert c0 == pytest.approx(((d2 / 9.0) * d2) ** 2, rel=1e-14)

    def test_cancellation_floor_at_exact_crossings(self):
        # At the double roots the true value is zero; floating point
        # leaves a residue bounded by eps times the term magnitude sum.
        eps = 2.3e-16
        for b in (D / 3.0, D):
            c0, c2, c4, c6 = f1_quartic_coefficients(0.0, D, 0.8)
            x = b * b
            mag = abs(c0) + abs(c2) * x + abs(c4) * x * x \
                + abs(c6) * x ** 3 + x ** 4
            assert abs(eval_f1_tilde(b, 0.0, D, 0.8)) <= 10.0 * 81.0 * eps * mag

    def test_determinant_identity_on_random_configs(self):
        rng = np.random.default_rng(32)
        ps = [random_params(rng) for _ in range(120)]
        assert relative_spread(identity_routes(ps)).max() <= 1e-8

    def test_identity_routes_agree(self):
        f1, det, pair = identity_routes([params(b_tilde=4.0, e_tilde=2.0)])
        assert f1[0] == pytest.approx(det[0], rel=1e-10)
        assert f1[0] == pytest.approx(pair[0], rel=1e-10)


class TestGTable:
    def test_zero_field_reduction_is_exact(self):
        # the E-carrying coefficients vanish exactly; each other one is a
        # single term, num * (k * z^c) with z^c the evaluator's chain of
        # multiplications, so it equals that product bit for bit
        g = g_coefficients(0.0, D, 0.456)
        z = [1.0]
        for _ in range(6):
            z.append(z[-1] * (D * D))
        want = (0.0, 0.0, 0.0, 0.0,
                512.0 * (1.0 * z[6]), 1024.0 * (-5.0 * z[5]), 512.0 * (33.0 * z[4]),
                4096.0 * (-5.0 * z[3]), 8192.0 * (1.0 * z[2]))
        assert g == want
        assert want[4:] == pytest.approx((512.0 * D ** 12, -5120.0 * D ** 10,
                                          16896.0 * D ** 8, -20480.0 * D ** 6,
                                          8192.0 * D ** 4), rel=1e-15)

    def test_names_cover_even_degrees(self):
        assert G_NAMES == ("g0", "g2", "g4", "g6", "g8",
                           "g10", "g12", "g14", "g16")
        assert len(g_coefficients(1.0, D, 1.0)) == 9

    def test_fault_multiplies_named_coefficient(self):
        clean = g_coefficients(2.0, D, 1.1)
        hurt = _faulted(clean, ("g6", -1.0))
        for name, a, b in zip(G_NAMES, clean, hurt):
            if name == "g6":
                assert b == -a
            else:
                assert b == a

    # (e_tilde, theta) with delta_tilde = D
    CONFIGS = ((4.99, 0.17), (3.26, 2.2), (5.69, 2.77))

    def test_scalar_calls_equal_array_rows(self):
        e, th = (np.array(col) for col in zip(*self.CONFIGS))
        table = g_coefficients(e, D, th)
        for k, (ek, tk) in enumerate(self.CONFIGS):
            assert ([float(g).hex() for g in g_coefficients(ek, D, tk)]
                    == [float(g[k]).hex() for g in table])

    def test_within_16_eps_of_the_term_sum(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            for ek, tk in self.CONFIGS:
                y, z = mp.mpf(ek) ** 2, mp.mpf(D) ** 2
                w = mp.cos(mp.mpf(tk)) ** 2
                for got, (scale, row) in zip(g_coefficients(ek, D, tk),
                                             discriminant._OCTIC.rows):
                    terms = [mp.mpf(scale[0]) / scale[1] * k * y ** b * z ** c * w ** d
                             for (b, c), ks in row.items() for d, k in enumerate(ks)]
                    bound = 16 * np.finfo(float).eps * mp.fsum(map(abs, terms))
                    assert abs(got - mp.fsum(terms)) <= bound

    def test_stacked_table_equals_per_slice_tables(self):
        # the audit's one table over main | zero-field | special-angle rows
        # against one table per section, the zero-field one at scalar E = 0
        rng = np.random.default_rng(39)
        e = np.concatenate([rng.uniform(0.0, 8.4, 20), np.zeros(4), rng.uniform(0.0, 8.4, 4)])
        th = np.concatenate([rng.uniform(0.0, math.pi, 24),
                             rng.choice([0.0, math.pi / 2.0, math.pi], 4)])
        stacked = np.array(g_coefficients(e, D, th))
        parts = [g_coefficients(e[:20], D, th[:20]), g_coefficients(0.0, D, th[20:24]),
                 g_coefficients(e[24:], D, th[24:])]
        sliced = np.concatenate([np.broadcast_arrays(*part) for part in parts], axis=1)
        assert stacked.tobytes() == sliced.tobytes()

    def test_unknown_fault_name_rejected(self):
        with pytest.raises(ValueError, match="unknown octic coefficient 'g7'"):
            audit_triple(n_samples=5, seed=1, fault=("g7", 2.0))


class TestBroadcasting:
    def test_arrays_match_scalar_calls(self):
        rng = np.random.default_rng(38)
        b, e, th = (rng.uniform(0.0, hi, (5, 8)) for hi in (17.0, 8.4, math.pi))
        f1 = eval_f1_tilde(b, e, D, th)
        f2 = eval_f2_tilde(b, e, D, th)
        mag = f2_magnitude_tilde(b, e, D, th)
        assert f1.shape == f2.shape == mag.shape == (5, 8)
        for args, got1, got2, scale in zip(
                zip(b.ravel().tolist(), e.ravel().tolist(), th.ravel().tolist()),
                f1.ravel(), f2.ravel(), mag.ravel()):
            bk, ek, tk = args
            c0, c2, c4, c6 = f1_quartic_coefficients(ek, D, tk)
            x = bk * bk
            f1_scale = 81.0 * (x ** 4 + abs(c6) * x ** 3 + abs(c4) * x * x
                               + abs(c2) * x + abs(c0))
            assert abs(got1 - eval_f1_tilde(bk, ek, D, tk)) <= 1e-13 * f1_scale
            assert abs(got2 - eval_f2_tilde(bk, ek, D, tk)) <= 1e-13 * scale
            assert scale == pytest.approx(f2_magnitude_tilde(bk, ek, D, tk),
                                          rel=1e-13)


class TestReducedForms:
    def test_zero_field_form(self):
        rng = np.random.default_rng(33)
        for _ in range(80):
            b = float(rng.uniform(0.0, 17.0))
            th = float(rng.uniform(0, math.pi))
            general = eval_f2_tilde(b, 0.0, D, th)
            closed = f2_zero_field_tilde(b, D)
            mag = f2_magnitude_tilde(b, 0.0, D, th)
            assert abs(general - closed) <= 1e-12 * max(mag, 1e-300)

    def test_parallel_form(self):
        rng = np.random.default_rng(34)
        for th in (0.0, math.pi):
            for _ in range(60):
                b = float(rng.uniform(0.0, 17.0))
                e = float(rng.uniform(0.0, 8.4))
                general = eval_f2_tilde(b, e, D, th)
                closed = _special_angle_forms(b, e, D)[0]
                mag = f2_magnitude_tilde(b, e, D, th)
                assert abs(general - closed) <= 1e-8 * max(mag, 1e-300)

    def test_perpendicular_form(self):
        rng = np.random.default_rng(35)
        for _ in range(60):
            b = float(rng.uniform(0.0, 17.0))
            e = float(rng.uniform(0.0, 8.4))
            general = eval_f2_tilde(b, e, D, math.pi / 2.0)
            closed = _special_angle_forms(b, e, D)[1]
            mag = f2_magnitude_tilde(b, e, D, math.pi / 2.0)
            assert abs(general - closed) <= 1e-8 * max(mag, 1e-300)

    def test_zero_field_octic_roots(self):
        # x = d^2/4 and x = d^2 are roots of the reduced squared quartic
        for b in (D / 2.0, D):
            mag = f2_magnitude_tilde(b, 0.0, D, 1.0)
            assert abs(f2_zero_field_tilde(b, D)) <= 1e-12 * mag


class TestTripleAgreement:
    def test_product_matches_eigenvalue_discriminant(self):
        rng = np.random.default_rng(36)
        ps = [random_params(rng) for _ in range(120)]
        direct = discriminant_from_eigenvalues(
            numeric_levels(np.stack([build_hamiltonian(p) for p in ps])))
        np.testing.assert_allclose(factored_discriminant(ps), direct, rtol=1e-6)

    def test_stack_equals_row_calls_bitwise(self):
        rng = np.random.default_rng(37)
        lam = np.sort(rng.normal(size=(200, 8)), axis=1)[:, ::-1]
        stacked = discriminant_from_eigenvalues(lam)
        assert stacked.shape == (200,)
        for row, got in zip(lam.tolist(), stacked):
            # the pairwise product on Python floats, in the documented order
            want = 1.0
            for i in range(8):
                for j in range(i + 1, 8):
                    diff = row[i] - row[j]
                    want *= diff * diff
            one = discriminant_from_eigenvalues(row)
            assert one.tobytes() == got.tobytes() == np.float64(want).tobytes()


def exact_rows(table, y, z, w):
    """The rows of a MonomialTable at rational y, z, w, in exact rationals."""
    return [Fraction(*scale) * sum(k * y ** b * z ** c * w ** d
                                  for (b, c), ks in row.items() for d, k in enumerate(ks))
            for scale, row in table.rows]


@pytest.mark.parametrize("cos, sin, b, e", [
    (Fraction(3, 5), Fraction(4, 5), Fraction(3, 2), Fraction(2, 3)),
    (Fraction(5, 13), Fraction(12, 13), Fraction(5, 4), Fraction(5, 2)),
    (Fraction(8, 17), Fraction(15, 17), Fraction(7, 3), Fraction(1, 7))])
def test_octic_table_factors_the_discriminant_exactly(cos, sin, b, e):
    # at rational points the discriminant of det(lambda I - H) over
    # Q(sqrt 3) is f0 f1 f2^2, with f2 from the octic table's integers and
    # f1 from the closed form of f1_quartic_coefficients, itself 10^8 det H
    sp = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    d = Fraction(8335, 1000)
    c, s, bt, et, dt = (sp.Rational(v.numerator, v.denominator) for v in (cos, sin, b, e, d))
    r = sp.sqrt(3)
    ang = sp.Matrix([[-3 * c, r * s, 0, 0], [r * s, -c, 2 * s, 0],
                     [0, 2 * s, c, r * s], [0, 0, r * s, 3 * c]])
    h = sp.zeros(8, 8)
    h[:4, :4] = sp.diag(-3, -1, 1, 3) * bt / 10 - sp.eye(4) * dt / 10
    h[4:, 4:] = sp.diag(-3, -1, 1, 3) * bt / 10 + sp.eye(4) * dt / 10
    h[:4, 4:] = h[4:, :4] = -ang * et / 10
    dm = DomainMatrix.from_list_sympy(8, 8, h.tolist(), extension=True)
    assert dm.domain == sp.QQ.algebraic_field(r)
    lam, m = sp.Symbol("lam"), sp.Symbol("m")
    charpoly = [dm.domain.to_sympy(k) for k in dm.charpoly()]
    disc = sp.discriminant(sp.Poly(charpoly, lam))
    x, e2, d2 = b * b, e * e, d * d
    c2t = 2 * cos * cos - 1
    c4t = 2 * c2t * c2t - 1
    c6 = -Fraction(20, 9) * d2 - 4 * e2 * c2t
    c4 = Fraction(118, 81) * d2 * d2 + Fraction(4, 3) * (7 - 2 * c2t) * e2 * d2 + 2 * e2 * e2 * (2 + c4t)
    c2 = -Fraction(4, 81) * (d2 + 9 * e2) * (5 * d2 * d2 + 9 * c2t * e2 * e2 - 7 * (c2t - 3) * d2 * e2)
    c0 = (d2 * d2 + 9 * e2 * e2 + 10 * d2 * e2) ** 2 / 81
    f1 = 81 * (x ** 4 + c6 * x ** 3 + c4 * x ** 2 + c2 * x + c0)
    assert 10 ** 8 * dm.domain.to_sympy(dm.det()) == sp.Rational(f1.numerator, f1.denominator)
    f2 = sum(g * x ** k for k, g in enumerate(exact_rows(discriminant._OCTIC, e2, d2, cos * cos)))
    want = Fraction(81, 2 ** 10 * 5 ** 56) * x ** 4 * f1 * f2 * f2
    assert disc == sp.Rational(want.numerator, want.denominator)
    # det(lambda I - H) = Q(lambda^2), and f2 = (2^5 5^24 / 9) disc_m(Q) / b^4,
    # where disc_m(Q) = prod (m_k - m_l)^2 over Q's real roots m = lambda^2:
    # the identity that keeps f2 >= 0 on the real B axis
    assert charpoly[1::2] == [0] * 4
    disc_q = sp.discriminant(sp.Poly(charpoly[::2], m))
    assert disc_q > 0
    assert sp.Rational(f2.numerator, f2.denominator) == \
        sp.Rational(2 ** 5 * 5 ** 24, 9) * disc_q / bt ** 4


class TestAudit:
    def test_clean_audit_passes(self):
        report = audit_triple(n_samples=150, seed=7)
        assert isinstance(report, AuditReport)
        assert report.passed
        assert report.suspects == ()
        names = [s.name for s in report.sections]
        assert names == ["triple-agreement", "determinant-identity",
                         "zero-field-form", "special-angle-form"]
        for sec in report.sections:
            assert sec.passed
            assert sec.max_rel_error <= sec.tolerance

    def test_batched_spectrum_keeps_sample_counts(self):
        # Each section's maximum equals an array recomputation from the
        # public pieces on the same draws, taken in the same order.
        report = audit_triple(n_samples=20, seed=11)
        assert report.passed
        assert [s.samples for s in report.sections] == [20, 20, 4, 4]
        rng = np.random.default_rng(11)

        def draw(e_field, theta):
            return scale_parameters(MOL, FieldConfiguration(
                e_field=e_field(), b_field=float(rng.uniform(0.0, 0.3)),
                theta=theta()))

        def uniform(hi):
            return lambda: float(rng.uniform(0.0, hi))

        main = [draw(uniform(5e5), uniform(math.pi)) for _ in range(20)]
        zero = [draw(lambda: 0.0, uniform(math.pi)) for _ in range(4)]
        special = []
        for _ in range(4):
            angle = float(rng.choice([0.0, math.pi / 2.0, math.pi]))
            special.append(draw(uniform(5e5), lambda: angle))

        b, e, d, th = columns(main)
        triple = relative_spread([
            discriminant_from_eigenvalues(analytic_spectrum(b, e, d, th)),
            discriminant_from_eigenvalues(
                numeric_levels(np.stack([build_hamiltonian(p) for p in main]))),
            factored_discriminant(main)])
        b, e, d, th = columns(zero)
        zero_rel = (np.abs(eval_f2_tilde(b, e, d, th) - f2_zero_field_tilde(b, d))
                    / f2_magnitude_tilde(b, e, d, th))
        b, e, d, th = columns(special)
        parallel, perpendicular = _special_angle_forms(b, e, d)
        closed = np.where(th == math.pi / 2.0, perpendicular, parallel)
        special_rel = (np.abs(eval_f2_tilde(b, e, d, th) - closed)
                       / f2_magnitude_tilde(b, e, d, th))
        want = [triple.max(), relative_spread(identity_routes(main)).max(),
                zero_rel.max(), special_rel.max()]
        assert [s.max_rel_error for s in report.sections] == want

    @pytest.mark.parametrize("seed", [475, 1506, 1608, 2100])
    def test_closed_form_spectrum_passes_audit(self, seed):
        # seeds whose samples once breached the triple-agreement or
        # determinant-identity tolerance through the closed-form spectrum
        assert audit_triple(n_samples=20, seed=seed).passed

    def test_section_lookup(self):
        report = audit_triple(n_samples=60, seed=7)
        sec = report.section("triple-agreement")
        assert sec.samples == 60
        with pytest.raises(KeyError):
            report.section("nope")

    def test_seeded_reproducibility(self):
        a = audit_triple(n_samples=80, seed=123)
        b = audit_triple(n_samples=80, seed=123)
        for s, t in zip(a.sections, b.sections):
            assert s.max_rel_error == t.max_rel_error

    def test_sign_flip_fault_is_localized(self):
        report = audit_triple(n_samples=150, seed=7, fault=("g6", -1.0))
        assert not report.passed
        assert report.suspects == ("g6",)
        assert not report.section("triple-agreement").passed

    def test_sign_flip_fault_is_localized_on_every_seed(self):
        # at some seeds the worst breaching sample fits no single
        # coefficient; a later breaching sample then names g6
        for seed in range(300):
            report = audit_triple(n_samples=20, seed=seed, fault=("g6", -1.0))
            assert report.suspects == ("g6",), seed
            assert min(report.scores.values()) <= LOCALIZE_CONSISTENCY_TOL, seed

    @pytest.mark.parametrize("name,factor", [
        ("g4", -1.0), ("g10", 1.05), ("g2", 0.0), ("g16", 0.98)])
    def test_other_faults_localized(self, name, factor):
        report = audit_triple(n_samples=100, seed=3, fault=(name, factor))
        assert not report.passed
        assert report.suspects == (name,)


def sectionwise_audit(n_samples, seed, fault=None):
    """The audit as one array pass per section, with its own scaling, octic
    table and Horner passes: the route audit_triple stacked into one pass."""
    rng = np.random.default_rng(seed)

    def form_error(closed, p):
        clean = g_coefficients(p.e_tilde, p.delta_tilde, p.theta)
        x = p.b_tilde * p.b_tilde
        scale = np.maximum(horner([abs(g) for g in clean], x), REL_FLOOR)
        return np.abs(horner(_faulted(clean, fault), x) - closed) / scale

    fields = rng.uniform((0.0, 0.0, 0.0), (5e5, 0.3, math.pi), (n_samples, 3))
    main = scale_parameters(MOL, FieldConfiguration(*fields.T))
    b, e, d, th = main.b_tilde, main.e_tilde, main.delta_tilde, main.theta
    h = build_hamiltonian(main)
    lam = analytic_spectrum(b, e, d, th)
    f1 = eval_f1_tilde(b, e, d, th)
    f2 = horner(_faulted(g_coefficients(e, d, th), fault), b * b)
    triple = relative_spread([discriminant_from_eigenvalues(lam),
                              discriminant_from_eigenvalues(numeric_levels(h)),
                              eval_f0_tilde(b) * f1 * f2 * f2])
    mirror = np.multiply.reduce(lam[:, :4] - lam[:, 7:3:-1], axis=1)
    identity = relative_spread([f1, 1e8 * np.linalg.det(h),
                                5.0 ** 8 * mirror * mirror])
    sections = [_section("triple-agreement", triple, TRIPLE_TOL),
                _section("determinant-identity", identity, DET_IDENTITY_TOL)]

    n_side = max(1, n_samples // 5)
    fields = rng.uniform((0.0, 0.0), (0.3, math.pi), (n_side, 2))
    zero = scale_parameters(MOL, FieldConfiguration(0.0, *fields.T))
    sections.append(_section("zero-field-form", form_error(
        f2_zero_field_tilde(zero.b_tilde, d), zero), ZERO_FIELD_TOL))

    theta, e_field, b_field = np.array([
        [rng.choice([0.0, math.pi / 2.0, math.pi]), *rng.uniform((0.0, 0.0), (5e5, 0.3))]
        for _ in range(n_side)]).T
    special = scale_parameters(MOL, FieldConfiguration(e_field, b_field, theta))
    b, e = special.b_tilde, special.e_tilde
    parallel, perpendicular = _special_angle_forms(b, e, d)
    closed = np.where(theta == math.pi / 2.0, perpendicular, parallel)
    special_rel = form_error(closed, special)
    sections.append(_section("special-angle-form", special_rel, SPECIAL_ANGLE_TOL))

    passed = all(sec.passed for sec in sections)
    suspects, scores = (), {}
    if not passed:
        rel, tol, p = triple, TRIPLE_TOL, main
        if sections[0].passed and special_rel.max() > 0.0:
            rel, tol, p = special_rel, SPECIAL_ANGLE_TOL, special
        # the worst sample, then the other breaching ones by breach, until
        # one's best score is consistent; if none is, the worst's result
        worst = int(np.argmax(rel))
        tried = []
        for i in [worst] + sorted((i for i in range(len(rel))
                                   if i != worst and rel[i] > tol),
                                  key=lambda i: -rel[i]):
            tried.append(_localize_fault(ScaledParameters(
                float(p.b_tilde[i]), float(p.e_tilde[i]), d,
                float(p.theta[i])), fault))
            if min(tried[-1][1].values()) <= LOCALIZE_CONSISTENCY_TOL:
                break
        else:
            tried.append(tried[0])
        suspects, scores = tried[-1]
    return AuditReport(sections=tuple(sections), suspects=suspects,
                       scores=scores, passed=passed)


class TestOnePassAudit:
    # a g4 fault of 5e-8 leaves triple-agreement passing at some seeds and
    # fails the special-angle section, so the fault is localized there
    @pytest.mark.parametrize("fault", [None, ("g6", -1.0), ("g4", 1.0 + 5e-8)])
    def test_equals_sectionwise_route_over_seeds(self, fault):
        for seed in range(50):
            assert (repr(audit_triple(n_samples=20, seed=seed, fault=fault))
                    == repr(sectionwise_audit(20, seed, fault)))

    @pytest.mark.parametrize("n_samples", [1, 4, 5, 20, 100])
    def test_equals_sectionwise_route_over_sample_counts(self, n_samples):
        for fault in (None, ("g6", -1.0)):
            assert (repr(audit_triple(n_samples=n_samples, seed=3, fault=fault))
                    == repr(sectionwise_audit(n_samples, 3, fault)))

    def test_equals_sectionwise_route_on_breaching_seed(self):
        # the closed-form spectrum breaches triple-agreement at one sample
        report = audit_triple(n_samples=20, seed=454419505)
        assert not report.passed and report.scores
        assert repr(report) == repr(sectionwise_audit(20, 454419505))

    def test_one_table_and_one_scaling(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        # one call each per audit, however many samples: a split pass fails
        for module, fn in ((discriminant, discriminant.g_coefficients),
                           (discriminant, discriminant.scale_parameters),
                           (discriminant, discriminant.discriminant_from_eigenvalues),
                           (discriminant, discriminant.numeric_levels),
                           (spectrum, spectrum.solve_monic_quartics)):
            monkeypatch.setattr(module, fn.__name__, counted(fn))
        for n_samples in (1, 20, 100):
            calls.clear()
            assert audit_triple(n_samples=n_samples, seed=1).passed
            assert sorted(calls) == [
                "discriminant_from_eigenvalues", "g_coefficients",
                "numeric_levels", "scale_parameters", "solve_monic_quartics"]

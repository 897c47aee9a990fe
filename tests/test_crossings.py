"""Crossing location, classification, and the resolvent machinery."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohcross import algebra, crossings
from ohcross.algebra import QUARTIC_RESIDUAL_REL, ResidualError, numeric_roots
from ohcross.crossings import (CrossingRecord, NoCriticalFieldError,
                               b1_approx_tilde, b1_exact_tilde,
                               critical_field_tilde, crossing_catalog,
                               gap_lowest_pair, pair_gap, resolvent_analysis)
from ohcross.discriminant import f1_quartic_coefficients, g_coefficients
from ohcross.hamiltonian import along_b, build_hamiltonian
from ohcross.model import (FieldConfiguration, MoleculeParameters,
                           ScaledParameters, b_field_from_tilde,
                           e_tilde_from_field, scale_parameters)
from ohcross.spectrum import numeric_level_derivatives, numeric_levels

D = 8.335
MOL = MoleculeParameters()
B_PER_TILDE = 1.0 / 55.98497974429082


def params(e_tilde=0.0, theta=0.7, b_tilde=0.0):
    return ScaledParameters(b_tilde=b_tilde, e_tilde=e_tilde,
                            delta_tilde=D, theta=theta)


def from_fields(e_vcm, theta):
    return scale_parameters(MOL, FieldConfiguration(
        e_field=e_vcm * 100.0, b_field=0.0, theta=theta))


class TestResolvent:
    def test_depression_matches_quartic(self):
        c0, c2, c4, c6 = f1_quartic_coefficients(2.0, D, 1.1)
        data = resolvent_analysis(2.0, D, 1.1)
        assert data.q == pytest.approx(c4 - 3.0 * c6 * c6 / 8.0, rel=1e-14)
        assert data.r == pytest.approx(
            (8.0 * c2 - 4.0 * c4 * c6 + c6 ** 3) / 8.0, rel=1e-14)
        assert data.s == pytest.approx(
            c0 - c6 * (64.0 * c2 - 16.0 * c4 * c6 + 3.0 * c6 ** 3) / 256.0,
            rel=1e-13)

    def test_sign_conditions_across_domain(self):
        rng = np.random.default_rng(41)
        for _ in range(600):
            e = float(rng.uniform(1e-6, 10.0))
            th = float(rng.uniform(1e-6, math.pi - 1e-6))
            data = resolvent_analysis(e, D, th)
            assert data.delta_c <= 0.0
            assert data.g_c > 0.0

    def test_zero_field_value(self):
        data = resolvent_analysis(0.0, D, 0.9)
        assert data.c_r == pytest.approx(16.0 * D ** 4 / 81.0, rel=1e-12)
        assert data.r == pytest.approx(0.0, abs=1e-9)

    def test_resolvent_vanishes_at_critical_field(self):
        ec = critical_field_tilde(D, math.pi / 2.0)
        data = resolvent_analysis(ec, D, math.pi / 2.0)
        assert abs(data.c_r) <= 1e-8 * (16.0 * D ** 4 / 81.0)


class TestCriticalField:
    def test_perpendicular_value(self):
        ec = critical_field_tilde(D, math.pi / 2.0)
        assert ec == pytest.approx(D / math.sqrt(3.0), rel=1e-14)

    def test_matches_stated_lab_field(self):
        # about 2.880 kV/cm for the default molecule
        ec = critical_field_tilde(D, math.pi / 2.0)
        kvcm = ec / e_tilde_from_field(1.0, MOL) / 1e5
        assert kvcm == pytest.approx(2.879278176, rel=1e-8)
        assert kvcm == pytest.approx(2.880, abs=1e-3)

    def test_domain_boundary(self):
        critical_field_tilde(D, math.pi / 6.0 + 1e-6)
        critical_field_tilde(D, 5.0 * math.pi / 6.0 - 1e-6)
        for theta in (0.0, math.pi / 6.0, 5.0 * math.pi / 6.0, math.pi):
            with pytest.raises(NoCriticalFieldError):
                critical_field_tilde(D, theta)

    def test_general_angle_formula(self):
        theta = 1.0
        ec = critical_field_tilde(D, theta)
        assert ec == pytest.approx(
            D / math.sqrt(1.0 - 2.0 * math.cos(2.0 * theta)), rel=1e-14)


class TestFirstCrossing:
    def test_zero_field_is_exactly_a_third(self):
        for theta in (0.0, 0.5, math.pi / 2.0, math.pi):
            assert b1_exact_tilde(0.0, D, theta) == pytest.approx(D / 3.0,
                                                                  rel=1e-14)
            assert b1_approx_tilde(0.0, D, theta) == pytest.approx(D / 3.0,
                                                                   rel=1e-14)

    def test_frozen_location_at_500_vcm(self):
        # frozen from a dense eigensolver gap search built from raw
        # constants, independent of every closed form in the package
        p = from_fields(500.0, math.pi / 3.0)
        b1 = b_field_from_tilde(b1_exact_tilde(p.e_tilde, D, p.theta))
        assert b1 == pytest.approx(0.050982789849686586, abs=1e-7)

    def test_approximation_within_one_percent_below_500_vcm(self):
        for e_vcm in np.linspace(0.0, 500.0, 26):
            p = from_fields(float(e_vcm), math.pi / 3.0)
            exact = b1_exact_tilde(p.e_tilde, D, p.theta)
            approx = b1_approx_tilde(p.e_tilde, D, p.theta)
            assert abs(exact - approx) / exact < 0.01

    def test_quadratic_approximation_form(self):
        e, theta = 1.5, 0.9
        expect = D / 3.0 + 3.0 * (3.0 + math.cos(2.0 * theta)) * e * e / (8.0 * D)
        assert b1_approx_tilde(e, D, theta) == pytest.approx(expect, rel=1e-14)

    def test_continuous_through_critical_field(self):
        ec = critical_field_tilde(D, math.pi / 2.0)
        lo = b1_exact_tilde(ec * (1.0 - 1e-4), D, math.pi / 2.0)
        mid = b1_exact_tilde(ec, D, math.pi / 2.0)
        hi = b1_exact_tilde(ec * (1.0 + 1e-4), D, math.pi / 2.0)
        assert lo < mid < hi
        assert hi - lo < 5e-4 * mid

    def test_grows_with_field(self):
        values = [b1_exact_tilde(e, D, 1.2) for e in (0.0, 1.0, 2.0, 4.0)]
        assert values == sorted(values)


class TestGapMeasurement:
    def test_exact_crossing_reports_zero(self):
        p = params(theta=math.pi / 3.0).with_b_tilde(D / 3.0)
        assert gap_lowest_pair(p) == 0.0

    def test_frozen_avoided_gap_at_one_kvcm(self):
        p = from_fields(1000.0, math.pi / 3.0)
        b1 = b1_exact_tilde(p.e_tilde, D, p.theta)
        gap = gap_lowest_pair(p.with_b_tilde(b1))
        # frozen from the independent dense search: 0.02720007102 GHz
        assert gap == pytest.approx(0.02720007102, rel=1e-6)

    def test_pair_gap_labels(self):
        p = params(e_tilde=1.0, theta=1.0, b_tilde=3.0)
        g45 = pair_gap(p, (4, 5))
        g12 = pair_gap(p, (1, 2))
        assert g45 == gap_lowest_pair(p)
        assert g12 >= 0.0

    def test_gap_scaling_is_cubic_at_small_fields(self):
        theta = math.pi / 3.0
        gaps = []
        for e_vcm in (20.0, 40.0):
            p = from_fields(e_vcm, theta)
            b1 = b1_exact_tilde(p.e_tilde, D, p.theta)
            gaps.append(gap_lowest_pair(p.with_b_tilde(b1)))
        assert gaps[1] / gaps[0] == pytest.approx(8.0, rel=0.02)


class TestGapMinimumRefinement:
    # 40-digit zeros of g' near the five `crossings --theta-deg 60 --e-vcm
    # 1000` records, in tesla: secant on g' from mpmath.eigsy at 40 digits
    # on the same double H0 and Z (b_tilde scaled by b_field_from_tilde(1.0))
    README_MINIMA = (0.005300744708023984, 0.05460259784784871,
                     0.08457209673571694, 0.1528700797004903,
                     0.1544316344647772)

    def test_readme_locations_at_forty_digit_minima(self):
        cat = crossing_catalog(from_fields(1000.0, math.pi / 3.0))
        assert len(cat) == len(self.README_MINIMA)
        for rec, want in zip(cat, self.README_MINIMA):
            assert abs(rec.b_location - want) <= 1e-11

    @pytest.mark.parametrize("e_vcm, theta_deg", [(1000.0, 60.0), (3000.0, 130.0),
                                                  (2000.0, 45.0)])
    def test_seed_bits_do_not_move_locations(self, monkeypatch, e_vcm, theta_deg):
        p = from_fields(e_vcm, math.radians(theta_deg))
        want = crossing_catalog(p)
        seeds = crossings._seeds
        for factor in (1.0 + 4.4e-16, 1.0 - 4.4e-16, 1.0 + 2e-15):
            monkeypatch.setattr(crossings, "_seeds",
                                lambda xs, f=factor: [s * f for s in seeds(xs)])
            got = crossing_catalog(p)
            assert [(r.kind, r.pair, r.source) for r in got] \
                == [(r.kind, r.pair, r.source) for r in want]
            for a, b in zip(got, want):
                assert abs(a.b_location - b.b_location) <= 1e-13

    def test_real_crossing_by_bisection(self):
        # at zero electric field levels 4 and 5 cross exactly at b = d/3, a
        # kink of the gap where every Newton step overshoots or meets a
        # non-finite g''; the bisection steps end within the tolerance
        h0 = build_hamiltonian(from_fields(0.0, 0.9))
        b_min, gap = crossings._refine_gap_minima(h0, np.array([[4], [5]]),
                                                  np.array([2.0]), np.array([3.5]))
        assert abs(b_min[0] - D / 3.0 * B_PER_TILDE) <= 1e-13
        assert gap[0] == 0.0

    def test_edge_minimum_discards_bracket(self):
        # the (4, 5) gap falls all the way across [1.0, 2.0] towards d/3
        h0 = build_hamiltonian(from_fields(0.0, 0.9))
        b_min, gap = crossings._refine_gap_minima(
            h0, np.array([[4, 4], [5, 5]]), np.array([1.0, 2.0]), np.array([2.0, 3.5]))
        assert math.isnan(b_min[0]) and math.isnan(gap[0])
        assert abs(b_min[1] - D / 3.0 * B_PER_TILDE) <= 1e-13


def scan_gaps(h0, labels, grid):
    """Floored pair gaps (labels (2, n)) at every point of grid (n, k), from
    one stacked eigensolve."""
    gaps = crossings._floored_gap(numeric_levels(along_b(h0, grid.ravel())),
                                  np.repeat(labels, grid.shape[1], axis=1))
    return gaps.reshape(grid.shape)


def full_scan_minimum(h0, labels, grid):
    """np.argmin over the whole scan: the reference _coarse_minimum prunes."""
    return np.argmin(scan_gaps(h0, labels, grid), axis=1)


def catalog_pool(n, seed):
    """(E in V/cm, theta in degrees) drawn like the benchmark's crossing
    catalogs: E uniform in 0-5 kV/cm, theta uniform, every eighth at 0, 90
    or 180 degrees."""
    rng = np.random.default_rng(seed)
    configs = []
    for k in range(n):
        e, theta = rng.uniform(0.0, 5000.0), rng.uniform(0.0, 180.0)
        configs.append((e, (0.0, 90.0, 180.0)[k // 8 % 3] if k % 8 == 0 else theta))
    return configs


class TestPrunedCoarseScan:
    @staticmethod
    def refinements(monkeypatch, configs):
        """((h0, labels, lo, hi), (b_min, gap)) of each _refine_gap_minima
        call that the catalogs at configs (V/cm, degrees) make."""
        seen, refine = [], crossings._refine_gap_minima

        def spy(*args):
            seen.append((args, refine(*args)))
            return seen[-1][1]

        with monkeypatch.context() as m:
            m.setattr(crossings, "_refine_gap_minima", spy)
            for e, theta in configs:
                crossing_catalog(from_fields(e, math.radians(theta)))
        return seen

    @staticmethod
    def assert_full_scan_bits(monkeypatch, h0, labels, lo, hi, points=None,
                              got=None):
        """The pruned k_min is the full scan's on the bracket grid (or on
        one of `points` points), and _refine_gap_minima's locations and
        gaps (got, when already computed) are bit for bit those it gives
        on the full scan."""
        grid = np.linspace(lo, hi, points or crossings._COARSE_POINTS, axis=1)
        k_min = crossings._coarse_minimum(h0, labels, grid)
        full = full_scan_minimum(h0, labels, grid)
        assert k_min.tolist() == full.tolist()
        if points is None:
            got = got or crossings._refine_gap_minima(h0, labels, lo, hi)
            with monkeypatch.context() as m:
                m.setattr(crossings, "_coarse_minimum", lambda *args: full)
                want = crossings._refine_gap_minima(h0, labels, lo, hi)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
        return k_min

    @staticmethod
    def real_record_brackets(p):
        """(h0, labels, lo, hi) of brackets centred on the real records of
        the catalog at p, clamped at zero field."""
        cat = crossing_catalog(p)
        assert all(rec.kind == "real" for rec in cat)
        labels = np.array([rec.pair for rec in cat]).T
        centres = np.array([rec.b_location for rec in cat]) / b_field_from_tilde(1.0)
        half = crossings.SEARCH_HALF_WIDTH_TILDE
        return build_hamiltonian(p), labels, np.maximum(centres - half, 0.0), centres + half

    def test_catalog_pool_brackets(self, monkeypatch):
        edges = clamped = 0
        for (h0, labels, lo, hi), got in self.refinements(monkeypatch,
                                                          catalog_pool(200, 18)):
            k_min = self.assert_full_scan_bits(monkeypatch, h0, labels, lo, hi, got=got)
            edges += np.sum((k_min == 0) | (k_min == crossings._COARSE_POINTS - 1))
            clamped += np.sum(lo == 0.0)
        # spurious seeds (edge minima) and brackets clamped at zero field
        assert edges > 0 and clamped > 0

    @pytest.mark.parametrize("e_vcm, theta_deg", [(11245.0, 180.0), (1500.0, 0.0)])
    def test_exact_crossings(self, monkeypatch, e_vcm, theta_deg):
        # the catalog's own brackets, then one centred on each of its real
        # records, where the grid gap at the centre floors to zero
        for args, got in self.refinements(monkeypatch, [(e_vcm, theta_deg)]):
            self.assert_full_scan_bits(monkeypatch, *args, got=got)
        h0, labels, lo, hi = self.real_record_brackets(
            from_fields(e_vcm, math.radians(theta_deg)))
        self.assert_full_scan_bits(monkeypatch, h0, labels, lo, hi)
        grid = np.linspace(lo, hi, crossings._COARSE_POINTS, axis=1)
        assert np.sum(scan_gaps(h0, labels, grid) == 0.0) >= 4

    def test_mirror_points_tie_at_zero_field(self, monkeypatch):
        # at zero electric field the (4, 5) gap is 0.6 |b - d/3|, the same at
        # mirror points of d/3: on a bracket centred on the crossing the
        # centre floors to zero; shifted by half a grid step, the two
        # central points tie as the minimum and the first one wins
        h0 = build_hamiltonian(from_fields(0.0, 0.9))
        labels = np.array([[4], [5]])
        half_step = crossings.SEARCH_HALF_WIDTH_TILDE / (crossings._COARSE_POINTS - 1)
        for shift, minima in ((0.0, [40]), (half_step, [40, 41])):
            lo, hi = np.array([D / 3.0 - 0.15 - shift]), np.array([D / 3.0 + 0.15 - shift])
            gaps = scan_gaps(h0, labels, np.linspace(lo, hi, 81, axis=1))[0]
            assert np.flatnonzero(gaps == gaps.min()).tolist() == minima
            assert self.assert_full_scan_bits(monkeypatch, h0, labels, lo,
                                              hi).tolist() == minima[:1]

    @pytest.mark.parametrize("e_vcm, theta_deg", [(0.0, 50.0), (1500.0, 0.0),
                                                  (11245.0, 180.0)])
    def test_fine_grid_through_the_measurement_floor(self, monkeypatch, e_vcm,
                                                     theta_deg):
        # 81 points 5e-13 apart across exact crossings: gaps drop from
        # above GAP_MEASUREMENT_FLOOR to zero between neighbours, faster
        # than the Lipschitz bound alone allows; the floor term of the
        # margin keeps the first zero measured
        p = from_fields(e_vcm, math.radians(theta_deg))
        cat = [rec for rec in crossing_catalog(p) if rec.b_location > 0.0]
        labels = np.array([rec.pair for rec in cat]).T
        centres = np.array([rec.b_location for rec in cat]) / b_field_from_tilde(1.0)
        h0 = build_hamiltonian(p)
        lo, hi = centres - 2e-11, centres + 2e-11
        k_min = self.assert_full_scan_bits(monkeypatch, h0, labels, lo, hi, 81)
        gaps = scan_gaps(h0, labels, np.linspace(lo, hi, 81, axis=1))
        # records seeded within 1e-7 GHz of a crossing need not lie this close
        through = ((gaps.min(axis=1) == 0.0)
                   & (gaps[:, 0] > crossings.GAP_MEASUREMENT_FLOOR))
        assert through.sum() >= 2
        assert (gaps[through, k_min[through]] == 0.0).all()

    def test_edge_minimum(self, monkeypatch):
        h0 = build_hamiltonian(from_fields(0.0, 0.9))
        labels = np.array([[4, 4], [5, 5]])
        k_min = self.assert_full_scan_bits(monkeypatch, h0, labels,
                                           np.array([1.0, 2.0]), np.array([2.0, 3.5]))
        assert k_min[0] == crossings._COARSE_POINTS - 1

    @pytest.mark.parametrize("e_vcm, theta_deg", [(0.0, 50.0), (1500.0, 0.0),
                                                  (11245.0, 180.0)])
    def test_every_bracket_offset(self, monkeypatch, e_vcm, theta_deg):
        # 81-point brackets around exact crossings, shifted in quarter grid
        # steps so the zero gap, and the two points that straddle it, land
        # at every lattice position from one edge to the other; all rows in
        # one call
        p = from_fields(e_vcm, math.radians(theta_deg))
        step = 2.0 * crossings.SEARCH_HALF_WIDTH_TILDE / (crossings._COARSE_POINTS - 1)
        cat = [rec for rec in crossing_catalog(p)
               if rec.b_location / b_field_from_tilde(1.0) >= 80.0 * step]
        centres = np.array([rec.b_location for rec in cat]) / b_field_from_tilde(1.0)
        shifts = np.arange(4 * 80 + 1) / 4.0
        lo = (centres[:, None] - shifts * step).ravel()
        labels = np.repeat(np.array([rec.pair for rec in cat]).T, len(shifts), axis=1)
        k_min = self.assert_full_scan_bits(monkeypatch, build_hamiltonian(p), labels,
                                           lo, lo + 80.0 * step, 81)
        assert set(k_min.tolist()) == set(range(81))

    @pytest.mark.parametrize("points", [0, 1, 2, 16, 17, 18, 33, 80, 82, 100])
    def test_grids_of_10m_plus_1_points_only(self, points):
        h0 = build_hamiltonian(from_fields(0.0, 0.9))
        grid = np.linspace(np.array([1.0]), np.array([2.0]), points, axis=1)
        with pytest.raises(ValueError, match=r"10 m \+ 1 grid points, not %d" % points):
            crossings._coarse_minimum(h0, np.array([[4], [5]]), grid)

    @staticmethod
    def scan_calls(monkeypatch) -> list:
        """The matrices of each eigensolve, one list per _coarse_minimum
        call from here on."""
        sizes, scan = [], crossings._coarse_minimum

        def counted(h):
            sizes[-1].append(h.size // 64)
            return numeric_levels(h)

        def coarse(*args):
            sizes.append([])
            with monkeypatch.context() as m:
                m.setattr(crossings, "numeric_levels", counted)
                return scan(*args)

        monkeypatch.setattr(crossings, "_coarse_minimum", coarse)
        return sizes

    def test_v_shaped_gaps_measure_few_points(self, monkeypatch):
        # the four brackets at 11245 V/cm antiparallel close on exact
        # crossings, where the gaps are V-shaped: round one's 36 stops
        # bound away every other point but the two beside the kink in each
        # bracket at 0.367 T, where the gap's slope is a third of L and the
        # curvature allowance leaves them open; round two measures those 4
        sizes = self.scan_calls(monkeypatch)
        assert crossing_catalog(from_fields(11245.0, math.pi))
        assert len(sizes) == 1 and len(sizes[0]) == 2
        assert sum(sizes[0]) <= 40

    def test_two_nonempty_eigensolves_per_scan(self, monkeypatch):
        sizes = self.scan_calls(monkeypatch)
        for e, theta in catalog_pool(60, 1):
            crossing_catalog(from_fields(e, math.radians(theta)))
        assert sizes and all(1 <= len(calls) <= 2 and min(calls) > 0 for calls in sizes)
        # at zero electric field the (4, 5) gap 0.6 |b - d/3| has slope L:
        # on a bracket centred on its zero, round one's stops rule out every
        # other point, and round two is not called
        sizes.clear()
        lo = np.array([D / 3.0 - 0.15])
        k_min = crossings._coarse_minimum(build_hamiltonian(from_fields(0.0, 0.9)),
                                          np.array([[4], [5]]),
                                          np.linspace(lo, lo + 0.3, 81, axis=1))
        assert k_min.tolist() == [40] and sizes == [[9]]

    def test_curvature_bound(self):
        # -g'' <= (L^2 / 2)(1/s_up + 1/s_down) for every pair i < j, with
        # s_up = lambda_(i-1) - lambda_i and s_down = lambda_j - lambda_(j+1)
        # (+inf at the ends of the spectrum), wherever both sides are finite;
        # the worst case comes close, so a constant twice too large shows
        assert crossings._CURVATURE == pytest.approx(0.18)
        b = np.linspace(0.0, 20.0, 2001)
        worst = 0.0
        for e_vcm, theta_deg in itertools.product((0.0, 300.0, 1000.0, 5000.0),
                                                  (0.0, 30.0, 47.3, 90.0, 123.4, 180.0)):
            h0 = build_hamiltonian(from_fields(e_vcm, math.radians(theta_deg)))
            ends = np.full((len(b), 1), np.inf)
            levels = np.hstack((ends, numeric_levels(along_b(h0, b)), -ends))
            _, curvatures = numeric_level_derivatives(along_b(h0, b))
            for i, j in itertools.combinations(range(1, 9), 2):
                with np.errstate(divide="ignore", invalid="ignore"):
                    g2 = curvatures[:, i - 1] - curvatures[:, j - 1]
                    bound = crossings._CURVATURE * (1.0 / (levels[:, i - 1] - levels[:, i])
                                                    + 1.0 / (levels[:, j] - levels[:, j + 1]))
                finite = np.isfinite(g2) & np.isfinite(bound)
                assert (-g2[finite] <= bound[finite]).all()
                finite &= bound > 0.0
                worst = max(worst, np.max(-g2[finite] / bound[finite], initial=0.0))
        assert 0.9 < worst <= 1.0

    def test_concave_gap_needs_the_curvature_term(self, monkeypatch):
        # A level of slope 0.1 (state 2) crosses the lower branch of an
        # avoided crossing between slopes 0.3 and -0.3 (states 3 and 4,
        # coupled by 0.025) twice, near b = 0.953 and 0.987. The lower
        # branch bends down, so between the crossings the (4, 5) gap is
        # concave (g'' down to -3.4 where s_up = 0.05 gives the bound 3.6).
        # On [0.81, 1.01] the stops 60 and 70 straddle that stretch: their
        # secant slope, taken as if the gap were convex there, overshoots
        # and prunes point 57 next to the first crossing, the full scan's
        # minimum, so the scan returns 71 next to the second. No such
        # bracket exists at zero electric field or parallel fields, where
        # every level is linear in b and the separation test alone rules
        # out the concave kinks.
        h0 = np.diag([5.0, 4.0, 0.176, 0.0, 0.6, -4.0, -5.0, -6.0])
        h0[3, 4] = h0[4, 3] = 0.025
        labels = np.array([[4], [5]])
        lo, hi = np.array([0.81]), np.array([1.01])
        k_min = self.assert_full_scan_bits(monkeypatch, h0, labels, lo, hi, 81)
        assert k_min.tolist() == [57]
        monkeypatch.setattr(crossings, "_CURVATURE", 0.0)
        assert crossings._coarse_minimum(
            h0, labels, np.linspace(lo, hi, 81, axis=1)).tolist() == [71]

    def test_edge_segment_line_needs_the_curvature_term(self, monkeypatch):
        # The gap of test_concave_gap_needs_the_curvature_term on [0.94, 1.14]:
        # the full scan's minimum, point 5, lies in the first segment, which
        # has no left neighbour and so only its right line. That line takes
        # its slope from stops 10 and 20, across the concave stretch between
        # the two crossings; taken as if the gap were convex there, it
        # prunes point 5, and the scan returns 19 next to the second crossing.
        h0 = np.diag([5.0, 4.0, 0.176, 0.0, 0.6, -4.0, -5.0, -6.0])
        h0[3, 4] = h0[4, 3] = 0.025
        labels = np.array([[4], [5]])
        lo, hi = np.array([0.94]), np.array([1.14])
        k_min = self.assert_full_scan_bits(monkeypatch, h0, labels, lo, hi, 81)
        assert k_min.tolist() == [5]
        monkeypatch.setattr(crossings, "_CURVATURE", 0.0)
        assert crossings._coarse_minimum(
            h0, labels, np.linspace(lo, hi, 81, axis=1)).tolist() == [19]

    def test_bounds_below_every_inner_gap(self, monkeypatch):
        # the per-point bounds of round one, checked where they come close
        # (the concave brackets of the two curvature tests) and on the
        # catalog pool's brackets: at every point strictly inside a
        # segment, bound <= the full scan's floored gap + 2 delta. The
        # argmin tests cannot tell a too-tight bound, as long as no point
        # it prunes is the minimum.
        h0 = np.diag([5.0, 4.0, 0.176, 0.0, 0.6, -4.0, -5.0, -6.0])
        h0[3, 4] = h0[4, 3] = 0.025
        brackets = [(h0, np.array([[4], [5]]), np.array([lo]), np.array([lo + 0.2]))
                    for lo in (0.81, 0.94)]
        brackets += [args for args, _ in
                     self.refinements(monkeypatch, catalog_pool(200, 18))]
        stride = crossings._SCAN_STRIDE
        for h0, labels, lo, hi in brackets:
            grid = np.linspace(lo, hi, crossings._COARSE_POINTS, axis=1)
            _, inner, bound, delta = crossings._coarse_bounds(h0, labels, grid)
            n, m = bound.shape[:2]
            gaps = scan_gaps(h0, labels, grid)[:, :-1].reshape(n, m, stride)[..., 1:]
            assert (grid[:, :-1].reshape(n, m, stride)[..., 1:] == inner).all()
            assert (bound <= gaps + 2.0 * delta).all()

    def test_catalog_pool_measures_few_points_per_bracket(self, monkeypatch):
        # round one's 9 stops and round two's points, over the pool's 1,078
        # brackets: 20.6 per bracket; a scan whose curvature bounds take
        # four-stop windows, and none at a row's edges, measures 29.2
        sizes = self.scan_calls(monkeypatch)
        brackets = sum(len(args[2]) for args, _ in
                       self.refinements(monkeypatch, catalog_pool(200, 18)))
        assert sum(map(sum, sizes)) / brackets <= 21.0

    def test_whole_domain_scans_equal_full_scans(self, monkeypatch):
        # E log-uniform over 1 V/cm - 100 kV/cm; theta uniform, or within
        # 1e-9 - 1e-3 of an angle where the levels or the factors change form
        special = st.sampled_from([0.0, math.pi / 6.0, math.pi / 2.0,
                                   5.0 * math.pi / 6.0, math.pi])
        shift = st.builds(lambda sign, power: sign * 10.0 ** power,
                          st.sampled_from([-1.0, 1.0]), st.floats(-9.0, -3.0))
        near = st.builds(lambda a, d: min(max(a + d, 0.0), math.pi), special, shift)

        @settings(derandomize=True, max_examples=60, deadline=None, database=None)
        @given(st.floats(0.0, 5.0), st.one_of(st.floats(0.0, math.pi), near))
        def check(log_e, theta):
            for args, got in self.refinements(monkeypatch,
                                              [(10.0 ** log_e, math.degrees(theta))]):
                self.assert_full_scan_bits(monkeypatch, *args, got=got)

        check()

    @pytest.mark.parametrize("half_width, configs", [(0.6, 20), (1.5, 8)])
    def test_wide_grids_at_todays_spacing(self, monkeypatch, half_width, configs):
        step = 2.0 * crossings.SEARCH_HALF_WIDTH_TILDE / (crossings._COARSE_POINTS - 1)
        points = round(2.0 * half_width / step) + 1
        for (h0, labels, lo, hi), _ in self.refinements(monkeypatch,
                                                        catalog_pool(configs, 19)):
            centres = (lo + hi) / 2.0
            self.assert_full_scan_bits(monkeypatch, h0, labels,
                                       np.maximum(centres - half_width, 0.0),
                                       centres + half_width, points)


class TestCatalogZeroField:
    def test_known_location_set(self):
        cat = crossing_catalog(from_fields(0.0, math.pi / 3.0))
        locations = sorted(r.b_location for r in cat)
        want = sorted([0.0, D / 3.0 * B_PER_TILDE, D / 2.0 * B_PER_TILDE,
                       D * B_PER_TILDE, D * B_PER_TILDE])
        assert len(locations) == len(want)
        for got, expect in zip(locations, want):
            assert got == pytest.approx(expect, abs=1e-6)

    def test_all_real_with_zero_gap(self):
        for rec in crossing_catalog(from_fields(0.0, 1.0)):
            assert rec.kind == "real"
            assert rec.gap == 0.0

    def test_coincident_distinct_pairs_both_kept(self):
        cat = crossing_catalog(from_fields(0.0, math.pi / 3.0))
        at_top = [r for r in cat
                  if abs(r.b_location - D * B_PER_TILDE) < 1e-5]
        pairs = sorted(r.pair for r in at_top)
        assert pairs == [(2, 3), (4, 5)]
        sources = {r.source for r in at_top}
        assert sources == {"f1-analytic", "f2-octic"}

    def test_sorted_and_typed(self):
        cat = crossing_catalog(from_fields(0.0, 0.4))
        assert isinstance(cat, tuple)
        keys = [(float(f"{r.b_location:.12g}"), r.pair) for r in cat]
        assert keys == sorted(keys)
        assert all(isinstance(r, CrossingRecord) for r in cat)

    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_printed_ties_order_by_pair(self, monkeypatch, nudge):
        # (2, 3) and (4, 5) both cross at b_tilde = delta_tilde; moving the
        # quartic's roots by an ulp either way must not reorder them
        factor_roots = crossings._factor_roots

        def nudged(p):
            (f1, source), f2 = factor_roots(p)
            return [(f1 * (1.0 + nudge * 2.0 ** -52), source), f2]

        monkeypatch.setattr(crossings, "_factor_roots", nudged)
        at_top = [r for r in crossing_catalog(from_fields(0.0, math.pi / 3.0))
                  if f"{r.b_location:.12g}" == f"{D * B_PER_TILDE:.12g}"]
        assert [r.pair for r in at_top] == [(2, 3), (4, 5)]


class TestCatalogAvoided:
    def test_first_crossing_becomes_avoided(self):
        cat = crossing_catalog(from_fields(1000.0, math.pi / 3.0))
        near = [r for r in cat if abs(r.b_location - 0.0546026) < 1e-4]
        assert len(near) == 1
        rec = near[0]
        assert rec.kind == "avoided"
        assert rec.pair == (4, 5)
        assert rec.source == "f1-analytic"
        assert rec.gap == pytest.approx(0.0272001, rel=1e-4)

    def test_every_record_avoided_at_generic_angle(self):
        cat = crossing_catalog(from_fields(1000.0, math.pi / 3.0))
        assert len(cat) == 5
        assert all(r.kind == "avoided" for r in cat)
        assert all(r.gap > 0.0 for r in cat)

    def test_no_same_pair_duplicates(self):
        rng = np.random.default_rng(44)
        for _ in range(12):
            e_vcm = float(rng.uniform(50.0, 3000.0))
            th = float(rng.uniform(0.2, math.pi - 0.2))
            cat = crossing_catalog(from_fields(e_vcm, th))
            seen = []
            for r in cat:
                for b, pair in seen:
                    assert not (pair == r.pair
                                and abs(b - r.b_location) < 1e-6)
                seen.append((r.b_location, r.pair))
                # the dedupe needs no source preference: the quartic gives
                # pair (4, 5) only and the octic never does
                assert (r.pair == (4, 5)) == (r.source == "f1-analytic")


class TestSpecialAngleRoutes:
    def test_parallel_route_matches_octic(self):
        p = from_fields(2000.0, 0.0)
        special = [r.b_location for r in crossing_catalog(p)
                   if r.source == "f2-parallel"]
        gs = g_coefficients(p.e_tilde, D, 0.0)
        # at parallel fields the octic is the reduced quartic squared, so
        # every numeric root shows up twice, split by about sqrt(eps): a
        # real double root can come back as a pair 1e-7 off the real axis.
        # Keep those, and collapse the duplicates.
        xs = [z.real for z in numeric_roots(gs).tolist()
              if abs(z.imag) <= 1e-6 * max(1.0, abs(z)) and z.real >= 0.0]
        general = []
        for b in sorted(b_field_from_tilde(math.sqrt(x)) for x in xs):
            if not general or b - general[-1] > 1e-6:
                general.append(b)
        assert len(special) == len(general)
        for a, b in zip(special, general):
            assert a == pytest.approx(b, abs=1e-6)

    def test_parallel_fields_never_avoid(self):
        cat = crossing_catalog(from_fields(2000.0, 0.0))
        assert all(r.kind == "real" for r in cat)
        assert {r.source for r in cat} == {"f1-analytic", "f2-parallel"}

    def test_antiparallel_same_as_parallel(self):
        a = [r.b_location for r in crossing_catalog(from_fields(1500.0, 0.0))]
        b = [r.b_location for r in crossing_catalog(from_fields(1500.0, math.pi))]
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x == pytest.approx(y, abs=1e-9)

    def test_real_root_kept_whatever_the_sign_of_its_rounding_noise(self):
        # x = 1.0299 is a real root of the parallel-field quartic at
        # 2 kV/cm; a solver may leave +-1e-44j on it
        p = from_fields(2000.0, 0.0)
        x = 1.029896602916097
        up = crossings._seeds([complex(x, 1e-44)])
        down = crossings._seeds([complex(x, -1e-44)])
        assert up == down == [cmath.sqrt(x).real]
        hits = [r for r in crossing_catalog(p)
                if r.b_location == up[0] * b_field_from_tilde(1.0)]
        assert len(hits) == 1 and hits[0].kind == "real"
        assert pair_gap(p.with_b_tilde(up[0]), hits[0].pair) < 1e-7

    def test_conjugate_pair_gives_one_record(self):
        x = 1.029896602916097
        pair = [complex(x, 1e-9), complex(x, -1e-9)]
        assert len(crossings._seeds(pair)) == 1

    def test_perpendicular_route_structure(self):
        p = from_fields(2000.0, math.pi / 2.0)
        cat = crossing_catalog(p)
        assert any(r.source == "f2-perpendicular" for r in cat)
        zero = [r for r in cat if r.b_location == 0.0]
        assert len(zero) == 1 and zero[0].kind == "real"
        # the linear factor puts an exact crossing at sqrt((d^2+8e^2)/4)
        loc = b_field_from_tilde(
            math.sqrt((D * D + 8.0 * p.e_tilde ** 2) / 4.0))
        hits = [r for r in cat if abs(r.b_location - loc) < 1e-6]
        assert len(hits) == 1
        assert hits[0].kind == "real"
        assert hits[0].pair == (3, 4)

    @pytest.mark.parametrize("theta_deg, octic_calls",
                             [(60.0, 1), (0.0, 0), (90.0, 0), (180.0, 0)])
    def test_one_closed_form_call_per_catalog(self, monkeypatch, theta_deg,
                                              octic_calls):
        # the f1 quartic and a special-angle quartic are rows of one solve;
        # only generic angles root the octic
        calls = {"solve_monic_quartics": 0, "numeric_roots": 0}
        for name in calls:
            def counted(*args, _fn=getattr(crossings, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(crossings, name, counted)
        p = from_fields(3000.0, math.radians(theta_deg))
        for expected in (1, 2):
            crossing_catalog(p)
            assert calls == {"solve_monic_quartics": expected,
                             "numeric_roots": octic_calls * expected}


class TestMirror:
    def test_mirror_adds_negated_locations(self):
        p = from_fields(800.0, 1.0)
        plain = crossing_catalog(p)
        mirrored = crossing_catalog(p, include_mirror=True)
        positive = [r for r in plain if r.b_location > 0.0]
        assert len(mirrored) == len(plain) + len(positive)
        for rec in positive:
            twins = [m for m in mirrored
                     if m.pair == rec.pair
                     and m.b_location == pytest.approx(-rec.b_location,
                                                       abs=1e-12)]
            assert len(twins) == 1
            assert twins[0].kind == rec.kind
            assert twins[0].gap == pytest.approx(rec.gap, rel=1e-12)


def test_cluster_roots_merges_close_values():
    roots = crossings._cluster_roots([2.0 + 0j, 1.0 + 1e-12j, 1.0 + 0j])
    assert roots == [1.0 + 0.5e-12j, 2.0 + 0j]
    # a real double root split by rounding gives one seed
    x = 1.029896602916097
    split = [x * (1.0 + 2e-9), x * (1.0 - 2e-9)]
    assert len(crossings._seeds(split)) == 1


def test_cluster_roots_keeps_distinct_values():
    assert crossings._cluster_roots([1.5, -2.0 + 0j, 1.0]) == [-2.0, 1.0, 1.5]


def test_f1_records_source_and_pair():
    cat = crossing_catalog(from_fields(600.0, 1.1))
    assert any(rec.source == "f1-analytic" for rec in cat)
    for rec in cat:
        assert (rec.source == "f1-analytic") == (rec.pair == (4, 5))


def per_point_records(xs, p, source):
    """The catalog's candidate pipeline seed by seed, measuring every gap
    with one matrix build and eigensolve per field point through pair_gap:
    the pair, the real/avoided decision, each open seed's coarse scan and
    edge discard, and the gap at the refined location. Only the Newton
    iteration is the catalog's, run on each bracket alone."""
    tesla_per_tilde = b_field_from_tilde(1.0)

    def adjacent_pair(q):
        levels = np.linalg.eigvalsh(crossings.build_hamiltonian(q))[::-1]
        best = None
        for i, j in crossings._ADJACENT_PAIRS:
            gap = float(levels[i - 1] - levels[j - 1])
            if best is None or gap < best[0] - crossings.GAP_MEASUREMENT_FLOOR:
                best = (gap, (i, j))
        return best[1]

    def refine(pair, seed):
        lo = max(seed - crossings.SEARCH_HALF_WIDTH_TILDE, 0.0)
        hi = seed + crossings.SEARCH_HALF_WIDTH_TILDE
        grid = np.linspace(lo, hi, crossings._COARSE_POINTS).tolist()
        values = [pair_gap(p.with_b_tilde(b), pair) for b in grid]
        k_min = min(range(len(grid)), key=values.__getitem__)
        if k_min in (0, len(grid) - 1):
            return None
        b_min = float(crossings._refine_gap_minima(
            build_hamiltonian(p.with_b_tilde(0.0)), np.array(pair)[:, None],
            np.array([lo]), np.array([hi]))[0][0])
        b_tilde = b_min / tesla_per_tilde
        assert grid[k_min - 1] < b_tilde < grid[k_min + 1]
        return b_min, pair_gap(p.with_b_tilde(b_tilde), pair)

    roots = crossings._cluster_roots(xs)
    if not roots:
        return []
    top = max(abs(x) for x in roots)
    records, seen = [], set()
    for x in roots:
        x = complex(x)
        if abs(x) < crossings.ROOT_SNAP_REL * top:
            x = complex(0.0)
        elif abs(x.imag) < crossings.IMAG_SNAP_REL * abs(x):
            x = complex(x.real)
        if x.imag < 0.0 or x in seen or (x.imag == 0.0 and x.real < 0.0):
            continue
        seen.add(x)
        seed = cmath.sqrt(x).real
        p_seed = p.with_b_tilde(seed)
        pair = (4, 5) if source == "f1-analytic" else adjacent_pair(p_seed)
        if pair_gap(p_seed, pair) < crossings.GAP_CLASSIFICATION_THRESHOLD:
            records.append(CrossingRecord(seed * tesla_per_tilde, "real",
                                          pair, 0.0, source))
            continue
        refined = refine(pair, seed)
        if refined is None:
            continue
        b_min, gap_min = refined
        if gap_min < crossings.GAP_CLASSIFICATION_THRESHOLD:
            records.append(CrossingRecord(b_min, "real", pair, 0.0, source))
        else:
            records.append(CrossingRecord(b_min, "avoided", pair, gap_min,
                                          source))
    return records


def per_point_catalog(p, include_mirror):
    """crossing_catalog over per_point_records of both factors' roots,
    with its deduplication, mirror and order."""
    records = [rec for xs, source in crossings._factor_roots(p)
               for rec in per_point_records(xs, p, source)]
    kept = []
    for rec in sorted(records, key=lambda r: (r.b_location, r.pair)):
        if not any(other.pair == rec.pair
                   and abs(other.b_location - rec.b_location) < crossings.DEDUPE_B_TESLA
                   for other in kept):
            kept.append(rec)
    if include_mirror:
        kept += [CrossingRecord(-r.b_location, r.kind, r.pair, r.gap, r.source)
                 for r in kept if r.b_location > 0.0]
    return tuple(sorted(kept, key=lambda r: (float(f"{r.b_location:.12g}"), r.pair)))


class TestSharedZeroFieldMatrix:
    E_VCM = (100.0, 450.0, 1000.0, 2879.3, 5000.0)
    THETAS = (0.0, math.pi / 2.0, math.pi) + tuple(
        np.random.default_rng(45).uniform(0.0, math.pi, 3).tolist())
    # where split f1 seeds refine to exact crossings
    EXTRA_E_VCM = {math.pi: (11245.0,)}

    @pytest.mark.parametrize("theta", THETAS)
    def test_catalog_equals_per_point_route(self, theta):
        configs = [(from_fields(e, theta), mirror)
                   for e in self.E_VCM + self.EXTRA_E_VCM.get(theta, ())
                   for mirror in (False, True)]
        got = [crossing_catalog(p, include_mirror=m) for p, m in configs]
        want = [per_point_catalog(p, m) for p, m in configs]
        assert got == want
        assert all(want)

    @pytest.mark.parametrize("e_vcm, theta_deg, calls, matrices", [
        (1000.0, 60.0, 7, 185), (3000.0, 60.0, 7, 110),
        (11245.0, 180.0, 34, 172), (4500.0, 90.0, 7, 71),
    ])
    def test_catalog_eigensolve_count(self, monkeypatch, e_vcm, theta_deg, calls,
                                      matrices):
        # one seed call, two rounds of the pruned coarse scan (every 10th
        # point, then the points the bounds keep), one eigh per Newton step
        # and one final gap call; at 11245 V/cm antiparallel the four
        # brackets close on exact crossings by bisection, and round one's
        # stops rule out all but 4 points of their V-shaped gaps
        sizes = []
        for name in ("numeric_levels", "numeric_level_derivatives"):
            def counted(h, solve=globals()[name]):
                sizes.append(h.size // 64)
                return solve(h)

            monkeypatch.setattr(crossings, name, counted)
        assert crossing_catalog(from_fields(e_vcm, math.radians(theta_deg)))
        assert len(sizes) == calls
        assert sum(sizes) == matrices

    def test_catalog_builds_the_matrix_once(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return build_hamiltonian(p)

        # spectrum builds no matrix itself: numeric_levels takes one
        monkeypatch.setattr(crossings, "build_hamiltonian", counted)
        cat = crossing_catalog(from_fields(1000.0, math.pi / 3.0))
        assert len(cat) == 5
        assert len(calls) == 1


def _resolvent_grid():
    """E x theta pairs: generic fields, the special angles 0, pi/2 and pi,
    and 1e-4 either side of the critical field at three angles."""
    es, ths = [], []
    for th in (0.0, 0.3, math.pi / 3.0, math.pi / 2.0, 2.0, math.pi):
        for e in (0.0, 0.5, 2.0, 4.0, 7.0):
            es.append(e)
            ths.append(th)
    for th in (math.pi / 3.0, math.pi / 2.0, 2.0):
        ec = critical_field_tilde(D, th)
        for factor in (1.0 - 1e-4, 1.0, 1.0 + 1e-4):
            es.append(ec * factor)
            ths.append(th)
    return np.array(es), np.array(ths)


# Before the depressed coefficients took their factored forms in
# sin^2 theta, the two discriminant routes disagreed at MISMATCH_POINT
# (about 30 kV/cm at 0.5 degrees); the tests now inject that mismatch.
# The closed form overflows at OVERFLOW_POINT.
MISMATCH_POINT = (50.13980101272537, math.radians(0.5))
OVERFLOW_POINT = (1e200, 1.0)
GOOD_POINT = (2.0, 1.0)

# Where the parent closed form printed b1 = 16.583 instead of 13.832
# (96% off): theta = 2.555 rad, E = E_c (1 + 1e-8), and its composed root.
GUARD_POINT = (critical_field_tilde(D, 2.555) * (1.0 + 1e-8), 2.555)
GUARD_ROOT_BEFORE = complex(157.85468829342312, 358.97415844621634)


def _b1_at(points):
    e, th = (np.array(v) for v in zip(*points))
    return b1_exact_tilde(e, D, th)


def _error_alone(point):
    with pytest.raises(ValueError) as info:
        b1_exact_tilde(point[0], D, point[1])
    return info.type, str(info.value)


@pytest.fixture
def mismatch(monkeypatch):
    """Perturb q at MISMATCH_POINT's field, so that only there the two
    discriminant routes disagree."""
    depressed = crossings._depressed

    def broken(e, d, theta):
        q, r, s, disc = depressed(e, d, theta)
        return q * np.where(e == MISMATCH_POINT[0], 1.0 + 1e-6, 1.0), r, s, disc

    monkeypatch.setattr(crossings, "_depressed", broken)


def b1_mpmath(e_tilde, delta_tilde, theta):
    """The smallest Re sqrt(x) over the roots x of the f1 quartic, in
    50-digit mpmath from the same double inputs. On every sample of
    TestFirstCrossingAccuracy where extraprec 60 or 100 converges it gives
    the same floats as 200. At exactly parallel fields the quartic has
    double roots: 100 does not converge at 5 of 240 such points from
    100 V/cm to 100 kV/cm, 200 at none."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        e2, d2 = mp.mpf(e_tilde) ** 2, mp.mpf(delta_tilde) ** 2
        c2t, c4t = mp.cos(2 * mp.mpf(theta)), mp.cos(4 * mp.mpf(theta))
        c6 = -20 * d2 / 9 - 4 * e2 * c2t
        c4 = 118 * d2 ** 2 / 81 + 4 * (7 - 2 * c2t) * e2 * d2 / 3 + 2 * e2 ** 2 * (2 + c4t)
        c2 = -4 * (d2 + 9 * e2) * (5 * d2 ** 2 + 9 * c2t * e2 ** 2
                                   - 7 * (c2t - 3) * d2 * e2) / 81
        c0 = (d2 ** 2 + 9 * e2 ** 2 + 10 * d2 * e2) ** 2 / 81
        roots = mp.polyroots([1, c6, c4, c2, c0], maxsteps=200, extraprec=200)
        return float(min(mp.re(mp.sqrt(x)) for x in roots))


def _worst_error(e, th):
    got = b1_exact_tilde(e, D, th)
    want = np.array([b1_mpmath(ek, D, tk) for ek, tk in zip(e.tolist(), th.tolist())])
    return float(np.max(np.abs(got - want) / want))


def test_cube_root_kernel_never_vanishes():
    # c_r divides by d_b; over the whole field range (E = 0 at each special
    # angle), the critical field and the special angles |Re d_b| stays
    # above the scale of q, r and s
    rng = np.random.default_rng(64)
    ratio = np.concatenate([np.zeros(5), 10.0 ** rng.uniform(-7.0, math.log10(12.0), 4000)])
    th = rng.uniform(0.0, math.pi, ratio.size)
    special = np.array([0.0, math.pi / 6.0, math.pi / 2.0, 5.0 * math.pi / 6.0, math.pi])
    th[:1000] = special[np.arange(1000) % 5]
    tc = rng.uniform(math.pi / 6.0 + 1e-3, 5.0 * math.pi / 6.0 - 1e-3, 500)
    e = np.concatenate([ratio * D, D / np.sqrt(1.0 - 2.0 * np.cos(2.0 * tc))])
    data = resolvent_analysis(e, D, np.concatenate([th, tc]))
    lim_scale = np.maximum(np.maximum(np.abs(data.q), np.sqrt(np.abs(data.s))),
                           np.abs(data.r) ** (2.0 / 3.0))
    assert np.all(np.abs(data.d_b) >= lim_scale)


class TestFirstCrossingAccuracy:
    """b1 against 50-digit mpmath where the c0..c6 route lost it."""

    def test_critical_band(self):
        rng = np.random.default_rng(61)
        th = rng.uniform(math.pi / 6.0 + 0.05, 5.0 * math.pi / 6.0 - 0.05, 300)
        offset = 10.0 ** rng.uniform(-9.0, -1.0, 300) * rng.choice([-1.0, 1.0], 300)
        ec = D / np.sqrt(1.0 - 2.0 * np.cos(2.0 * th))
        assert _worst_error(ec * (1.0 + offset), th) <= 1e-12

    def test_near_parallel(self):
        rng = np.random.default_rng(62)
        th = 10.0 ** rng.uniform(-4.0, math.log10(0.03), 200)
        e = e_tilde_from_field(10.0 ** rng.uniform(5.0, 7.0, 200), MOL)
        assert _worst_error(e, th) <= 1e-12

    def test_near_parallel_grid_raises_nothing(self):
        # 40 angles from 1e-4 to 0.3 rad x 60 fields from 100 V/cm to
        # 100 kV/cm, log-spaced; one point in 40 is checked against mpmath
        th = np.geomspace(1e-4, 0.3, 40)
        e = e_tilde_from_field(np.geomspace(1e4, 1e7, 60), MOL)
        b1 = b1_exact_tilde(e[:, None], D, th[None, :])
        assert b1.shape == (60, 40) and np.all(np.isfinite(b1))
        ee, tt = np.broadcast_arrays(e[:, None], th[None, :])
        assert _worst_error(ee.ravel()[::40], tt.ravel()[::40]) <= 1e-12

    def test_whole_proposed_domain(self):
        # E log-uniform from 1 V/cm to 100 kV/cm, at generic angles and at
        # each special angle and 1e-9 rad either side of it
        rng = np.random.default_rng(65)
        special = np.array([0.0, math.pi / 6.0, math.pi / 2.0,
                            5.0 * math.pi / 6.0, math.pi])
        near = np.add.outer(special, [-1e-9, 0.0, 1e-9]).ravel()
        th = np.concatenate([rng.uniform(0.0, math.pi, 100),
                             np.clip(near, 0.0, math.pi)])
        e = e_tilde_from_field(10.0 ** rng.uniform(2.0, 7.0, th.size), MOL)
        assert _worst_error(e, th) <= 1e-12

    def test_composed_root_guard(self, monkeypatch):
        e, th = GUARD_POINT
        assert b1_exact_tilde(e, D, th) == pytest.approx(b1_mpmath(e, D, th),
                                                         rel=1e-12)
        # the parent's composed root misses the quartic by far more than
        # the guard's bound ...
        c0, c2, c4, c6 = f1_quartic_coefficients(e, D, th)
        x = GUARD_ROOT_BEFORE
        resid = abs((((x + c6) * x + c4) * x + c2) * x + c0) / (
            abs(x) ** 4 + abs(c6) * abs(x) ** 3 + abs(c4) * abs(x) ** 2
            + abs(c2) * abs(x) + abs(c0))
        assert resid > 1e3 * QUARTIC_RESIDUAL_REL
        assert cmath.sqrt(x).real == pytest.approx(16.583174, rel=1e-6)
        # ... and without the Newton step the pass composes that root
        # again, from the noise in c_r, and the guard stops it
        monkeypatch.setattr(crossings, "RESOLVENT_NEWTON_REL", 0.0)
        with pytest.raises(crossings.CrossingError, match="composed first-crossing root"):
            b1_exact_tilde(e, D, th)

    def test_sympy_rederivation(self):
        sp = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix
        # f1 / 81 is 10^8 det H / 81 in x = b^2; r stands for sqrt(3)
        b, e, d, c, s, r, S, x = sp.symbols("b e d c s r S x")
        ang = sp.Matrix([[-3 * c, r * s, 0, 0], [r * s, -c, 2 * s, 0],
                         [0, 2 * s, c, r * s], [0, 0, r * s, 3 * c]])
        h = sp.zeros(8, 8)
        h[:4, :4] = sp.diag(-3, -1, 1, 3) * b / 10 - sp.eye(4) * d / 10
        h[4:, 4:] = sp.diag(-3, -1, 1, 3) * b / 10 + sp.eye(4) * d / 10
        h[:4, 4:] = h[4:, :4] = -ang * e / 10
        dm = DomainMatrix.from_Matrix(h)
        det = sp.Poly(sp.rem(sp.expand(dm.domain.to_sympy(dm.det())),
                             r ** 2 - 3, r), s, c)
        # only even powers of sin and cos appear: write them in S = sin^2
        f1 = sp.Poly(sp.expand(sum(
            k * S ** (i // 2) * (1 - S) ** (j // 2) * 10 ** 8 / 81
            for (i, j), k in zip(det.monoms(), det.coeffs())).subs(b, sp.sqrt(x))), x)
        assert f1.degree() == 4 and f1.LC() == 1
        c0, c2, c4, c6 = (f1.coeff_monomial(x ** k) for k in range(4))
        q = c4 - sp.Rational(3, 8) * c6 ** 2
        rr = (8 * c2 - 4 * c4 * c6 + c6 ** 3) / 8
        ss = c0 - c6 * (64 * c2 - 16 * c4 * c6 + 3 * c6 ** 3) / 256
        derived = [sp.expand(v) for v in (q, rr, ss, q ** 2 - 4 * ss)]
        # the factors the forms keep: S in r and q^2 - 4s, and in r the one
        # that vanishes at the critical field
        assert sp.rem(derived[1], S * (d ** 2 + e ** 2 - 4 * S * e ** 2), S) == 0
        assert sp.rem(derived[3], S, S) == 0
        rng = np.random.default_rng(63)
        points = [(rng.uniform(0, 8.4), rng.uniform(1, 10), rng.uniform(0, np.pi))
                  for _ in range(4)] + [(60.0, D, 1e-3), (5.0, D, math.pi - 2e-3)]
        for et, dt, th in points:
            at = {e: sp.Rational(et), d: sp.Rational(dt),
                  S: sp.Rational(float(np.sin(th) ** 2))}
            want = [float(v.subs(at)) for v in derived]
            got = crossings._depressed(et, dt, th)
            assert got == pytest.approx(want, rel=1e-12)
        # at parallel fields r and q^2 - 4s vanish exactly
        assert crossings._depressed(60.0, D, 0.0)[1::2] == (0.0, 0.0)


class TestBatchedRoute:
    """Array calls against one call per point, bit for bit."""

    def test_arrays_equal_point_calls(self):
        e, th = _resolvent_grid()
        data = resolvent_analysis(e, D, th)
        b1 = b1_exact_tilde(e, D, th)
        gaps = gap_lowest_pair(ScaledParameters(b1, e, D, th))
        for k in range(e.size):
            one = resolvent_analysis(float(e[k]), D, float(th[k]))
            for name in ("q", "r", "s", "delta_c", "g_c", "c_r", "d_b"):
                assert (np.float64(getattr(one, name)).tobytes()
                        == getattr(data, name)[k].tobytes()), name
            b1_one = b1_exact_tilde(float(e[k]), D, float(th[k]))
            assert np.float64(b1_one).tobytes() == b1[k].tobytes()
            gap_one = gap_lowest_pair(params(float(e[k]), float(th[k]), b1_one))
            assert np.float64(gap_one).tobytes() == gaps[k].tobytes()

    def test_shapes_broadcast_and_scalars_stay_floats(self):
        e, th = np.array([0.5, 2.0, 4.0]), np.array([0.3, 1.2])
        b1 = b1_exact_tilde(e[:, None], D, th[None, :])
        assert b1.shape == (3, 2)
        assert resolvent_analysis(e[:, None], D, th).q.shape == (3, 2)
        assert b1[2, 1] == b1_exact_tilde(4.0, D, 1.2)
        assert b1_approx_tilde(e, D, 0.3)[1] == b1_approx_tilde(2.0, D, 0.3)
        assert type(b1_exact_tilde(2.0, D, 1.2)) is float
        assert type(resolvent_analysis(2.0, D, 1.2).c_r) is float
        assert type(b1_approx_tilde(2.0, D, 1.2)) is float
        assert type(gap_lowest_pair(params(2.0, 1.2, 3.0))) is float

    @pytest.mark.parametrize("points, failing, kind", [
        ((GOOD_POINT, OVERFLOW_POINT, MISMATCH_POINT), OVERFLOW_POINT,
         crossings.CrossingError),
        ((GOOD_POINT, MISMATCH_POINT, OVERFLOW_POINT), MISMATCH_POINT,
         crossings.ResolventMismatchError),
        ((OVERFLOW_POINT, GOOD_POINT, MISMATCH_POINT), OVERFLOW_POINT,
         crossings.CrossingError),
    ])
    def test_lowest_failing_point_raises_as_alone(self, points, failing, kind,
                                                  mismatch):
        alone, message = _error_alone(failing)
        assert alone is kind
        with pytest.raises(kind) as info:
            _b1_at(points)
        assert str(info.value) == message
        if failing is OVERFLOW_POINT:
            assert message.startswith("resolvent closed form overflows at "
                                      "e_tilde = 1e+200, ")

    @staticmethod
    def _break_cubic(monkeypatch, row, residual=False):
        """Move the confirming roots of one row (w -> 2w + 1), keeping the
        residuals of the true roots, so that only its branch check fails;
        with residual, its residual bound fails as well."""
        solve = algebra.solve_monic_cubics

        def broken(a):
            roots, resid = solve(a)
            if row < len(roots):
                roots[row] = 2.0 * roots[row] + 1.0
                if residual:
                    resid[row] = np.nan
            return roots, resid

        monkeypatch.setattr(crossings, "solve_monic_cubics", broken)

    def test_branch_check_order(self, monkeypatch, mismatch):
        self._break_cubic(monkeypatch, 1)
        # a lower point's branch check comes before a later point's
        # overflow or discriminant mismatch
        for later in (MISMATCH_POINT, OVERFLOW_POINT):
            with pytest.raises(crossings.BranchError, match="principal-branch"):
                _b1_at((GOOD_POINT, GOOD_POINT, later))
        # and after a lower point's failures
        with pytest.raises(crossings.ResolventMismatchError):
            _b1_at((GOOD_POINT, MISMATCH_POINT, GOOD_POINT))
        with pytest.raises(crossings.CrossingError, match="overflows"):
            _b1_at((GOOD_POINT, OVERFLOW_POINT, GOOD_POINT))
        with pytest.raises(crossings.BranchError, match="principal-branch"):
            _b1_at((GOOD_POINT, GOOD_POINT))

    def test_residual_then_branch_then_composed_root(self, monkeypatch):
        # within one point the residual bound comes first, the composed
        # root's guard last
        monkeypatch.setattr(crossings, "RESOLVENT_NEWTON_REL", 0.0)
        self._break_cubic(monkeypatch, 1, residual=True)
        with pytest.raises(ResidualError):
            _b1_at((GOOD_POINT, GUARD_POINT))
        self._break_cubic(monkeypatch, 1)
        with pytest.raises(crossings.BranchError, match="principal-branch"):
            _b1_at((GOOD_POINT, GUARD_POINT))
        self._break_cubic(monkeypatch, 2)
        with pytest.raises(crossings.CrossingError, match="composed first-crossing"):
            _b1_at((GOOD_POINT, GUARD_POINT))

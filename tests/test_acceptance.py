"""Acceptance checks for the level-crossing analysis package.

Ten end-to-end criteria, each one test. Every test appends a one-line
summary to the terminal report (see conftest.py), so a full run prints a
pass/fail line per criterion. Tolerances are part of the package
contract; do not loosen them to make a failure go away.
"""

import math
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES

from ohcross.algebra import QUARTIC_RESIDUAL_REL, solve_monic_quartics
from ohcross.crossings import (_refine_gap_minima, b1_approx_tilde,
                               b1_exact_tilde, critical_field_tilde,
                               crossing_catalog, gap_lowest_pair, pair_gap,
                               resolvent_analysis)
from ohcross.discriminant import (_special_angle_forms,
                                  discriminant_from_eigenvalues,
                                  eval_f0_tilde, eval_f1_tilde, eval_f2_tilde,
                                  f1_quartic_coefficients,
                                  f2_magnitude_tilde, f2_zero_field_tilde,
                                  relative_spread)
from ohcross.fitting import best_shape_exponent, fit_power_law
from ohcross.model import (BOHR_MAGNETON, REDUCED_PLANCK, FieldConfiguration,
                           MoleculeParameters, ScaledParameters,
                           b_field_from_tilde, e_tilde_from_field,
                           scale_parameters)
from ohcross.hamiltonian import build_hamiltonian
from ohcross.spectrum import analytic_spectrum, numeric_levels

MOL = MoleculeParameters()
D = scale_parameters(MOL, FieldConfiguration()).delta_tilde


def record(line):
    ACCEPTANCE_LINES.append(line)


def params_from_fields(e_vcm, b_tesla, theta):
    return scale_parameters(MOL, FieldConfiguration(
        e_field=e_vcm * 100.0, b_field=b_tesla, theta=theta))


@pytest.fixture(scope="module")
def thousand_spectra():
    """1000 seeded field configurations with both spectral routes."""
    rng = np.random.default_rng(90210)
    entries = []
    start = time.monotonic()
    for _ in range(1000):
        p = params_from_fields(float(rng.uniform(0.0, 5000.0)),
                               float(rng.uniform(0.0, 0.3)),
                               float(rng.uniform(0.0, math.pi)))
        analytic = analytic_spectrum(p.b_tilde, p.e_tilde, p.delta_tilde, p.theta)
        entries.append((p, analytic[0].tolist(),
                        numeric_levels(build_hamiltonian(p))))
    elapsed = time.monotonic() - start
    return entries, elapsed


def test_criterion_01_zero_field_crossing_location():
    start = time.monotonic()
    # route 1: closed form from the raw constants
    closed = (5.0 * REDUCED_PLANCK * MOL.lambda_doubling
              / (12.0 * BOHR_MAGNETON))
    # route 2: smallest positive root of the quartic factor at E = 0
    roots, resid = solve_monic_quartics([f1_quartic_coefficients(0.0, D, 0.9)])
    assert resid[0] <= QUARTIC_RESIDUAL_REL
    # both roots are double at E = 0, so allow the sqrt(eps) imaginary split
    xs = [z.real for z in roots[0].tolist()
          if abs(z.imag) <= 1e-6 * max(1.0, abs(z)) and z.real > 0.0]
    from_factor = b_field_from_tilde(math.sqrt(min(xs)))
    # route 3: direct gap minimum of the middle pair
    h0 = build_hamiltonian(params_from_fields(0.0, 0.0, 0.9))
    b_min, _ = _refine_gap_minima(h0, np.array([[4], [5]]), np.array([2.0]),
                                  np.array([3.5]))
    from_search = float(b_min[0])
    elapsed = time.monotonic() - start

    for value in (closed, from_factor, from_search):
        assert value == pytest.approx(0.049626, abs=1e-4)
    assert max(closed, from_factor, from_search) \
        - min(closed, from_factor, from_search) < 1e-6
    assert elapsed < 1.0
    record(f"[PASS] criterion 1: zero-field crossing at "
           f"{closed:.6f} T by 3 routes (spread "
           f"{max(closed, from_factor, from_search) - min(closed, from_factor, from_search):.2e} T, "
           f"{elapsed:.2f} s)")


def test_criterion_02_analytic_matches_iterative(thousand_spectra):
    entries, elapsed = thousand_spectra
    worst = 0.0
    for p, analytic, numeric in entries:
        scale = max(1e-30, max(abs(v) for v in numeric))
        for a, n in zip(analytic, numeric):
            worst = max(worst, abs(a - n) / scale)
    assert worst <= 1e-9
    assert elapsed < 5.0
    record(f"[PASS] criterion 2: analytic vs iterative eigenvalues, "
           f"worst rel {worst:.2e} over 1000 configs ({elapsed:.2f} s)")


def test_criterion_03_mirror_pairing_and_field_evenness(thousand_spectra):
    entries, _ = thousand_spectra
    lam = np.array([analytic for _, analytic, _ in entries])
    b, e, d, th = (np.array([getattr(p, name) for p, _, _ in entries])
                   for name in ("b_tilde", "e_tilde", "delta_tilde", "theta"))
    worst_pair = float(np.abs(lam + lam[:, ::-1]).max())
    # one array call per flipped field; each row is the one-point call's
    worst_flip = max(float(np.abs(lam - analytic_spectrum(b_flip, e_flip, d, th)).max())
                     for b_flip, e_flip in ((-b, e), (b, -e)))
    assert worst_pair <= 1e-9
    assert worst_flip <= 1e-9
    record(f"[PASS] criterion 3: mirror pairing {worst_pair:.2e}, "
           f"field-sign evenness {worst_flip:.2e} over the same sample")


def test_criterion_04_discriminant_triple_agreement():
    rng = np.random.default_rng(4242)
    start = time.monotonic()
    ps = [ScaledParameters(b_tilde=float(rng.uniform(0.05, 15.0)),
                           e_tilde=float(rng.uniform(0.05, 10.0)),
                           delta_tilde=D,
                           theta=float(rng.uniform(0.01, math.pi - 0.01)))
          for _ in range(1000)]
    b, e, th = (np.array([getattr(p, name) for p in ps])
                for name in ("b_tilde", "e_tilde", "theta"))
    h = np.stack([build_hamiltonian(p) for p in ps])
    f1 = eval_f1_tilde(b, e, D, th)
    f2 = eval_f2_tilde(b, e, D, th)
    product = eval_f0_tilde(b) * f1 * f2 * f2
    direct = discriminant_from_eigenvalues(numeric_levels(h))
    scale = np.maximum(np.maximum(np.abs(direct), np.abs(product)), 1e-30)
    worst_product = float((np.abs(direct - product) / scale).max())
    # f1 = 10^8 det H = 5^8 (product of the mirror-pair differences)^2
    lam = analytic_spectrum(b, e, D, th)
    mirror = np.prod(lam[:, :4] - lam[:, 7:3:-1], axis=1)
    worst_identity = float(relative_spread(
        [f1, 1e8 * np.linalg.det(h), 5.0 ** 8 * mirror * mirror]).max())
    elapsed = time.monotonic() - start
    assert worst_product <= 1e-6
    assert worst_identity <= 1e-8
    assert elapsed < 10.0
    record(f"[PASS] criterion 4: factored vs eigenvalue discriminant "
           f"{worst_product:.2e}, determinant identity {worst_identity:.2e} "
           f"over 1000 configs ({elapsed:.2f} s)")


def test_criterion_05_reduced_octic_forms():
    # part 1: the zero-field crossing set from the octic route
    p0 = params_from_fields(0.0, 0.0, math.pi / 3.0)
    # the octic has double roots at zero field; collapse the numeric splits
    locations = []
    for b in sorted(r.b_location for r in crossing_catalog(p0)
                    if r.source == "f2-octic"):
        if not locations or b - locations[-1] > 1e-5:
            locations.append(b)
    expected = (0.0, 0.074439, 0.148878)
    assert len(locations) == 3
    for got, want in zip(locations, expected):
        assert got == pytest.approx(want, abs=1e-4)
    # part 2: reduced special-angle forms against the general coefficients
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(200):
        b = float(rng.uniform(0.1, 12.0))
        e = float(rng.uniform(0.1, 8.0))
        mag0 = f2_magnitude_tilde(b, 0.0, D, 0.7)
        worst = max(worst, abs(f2_zero_field_tilde(b, D)
                               - eval_f2_tilde(b, 0.0, D, 0.7)) / mag0)
        parallel, perpendicular = _special_angle_forms(b, e, D)
        for theta in (0.0, math.pi):
            mag = f2_magnitude_tilde(b, e, D, theta)
            worst = max(worst, abs(parallel - eval_f2_tilde(b, e, D, theta)) / mag)
        mag = f2_magnitude_tilde(b, e, D, math.pi / 2.0)
        worst = max(worst, abs(perpendicular
                               - eval_f2_tilde(b, e, D, math.pi / 2.0)) / mag)
    assert worst <= 1e-8
    record(f"[PASS] criterion 5: zero-field crossings at "
           f"({locations[0]:.6f}, {locations[1]:.6f}, {locations[2]:.6f}) T, "
           f"reduced forms within {worst:.2e} of general coefficients")


def test_criterion_06_first_crossing_approximation():
    theta = math.pi / 3.0
    worst = 0.0
    for e_vcm in np.linspace(0.0, 500.0, 51):
        p = params_from_fields(float(e_vcm), 0.0, theta)
        exact = b1_exact_tilde(p.e_tilde, D, theta)
        approx = b1_approx_tilde(p.e_tilde, D, theta)
        worst = max(worst, abs(exact - approx) / exact)
    assert worst < 0.01
    record(f"[PASS] criterion 6: quadratic first-crossing approximation "
           f"within {worst:.2e} relative up to 500 V/cm")


def test_criterion_07_gap_scaling_in_electric_field():
    theta = math.pi / 3.0
    es = np.linspace(10.0, 70.0, 13)
    gaps = []
    for e_vcm in es:
        p = params_from_fields(float(e_vcm), 0.0, theta)
        b1 = b1_exact_tilde(p.e_tilde, D, theta)
        gaps.append(gap_lowest_pair(p.with_b_tilde(b1)))
    fit = fit_power_law(es, gaps, "power-in-E")
    assert fit.exponent == pytest.approx(3.00, abs=0.05)
    # coefficient is documented in internal units: GHz per (V/cm)^3
    assert 1e-12 < fit.coefficient < 1e-10
    record(f"[PASS] criterion 7: gap grows as E^{fit.exponent:.4f} over "
           f"[10, 70] V/cm, coefficient {fit.coefficient:.3e} GHz/(V/cm)^3")


def test_criterion_08_gap_scaling_in_angle():
    thetas = np.linspace(math.pi / 6.0, math.pi / 2.0, 25)
    results = []
    for e_vcm, want in ((300.0, 3), (1400.0, 2), (4000.0, 1)):
        gaps = []
        for theta in thetas:
            p = params_from_fields(e_vcm, 0.0, float(theta))
            b1 = b1_exact_tilde(p.e_tilde, D, p.theta)
            gaps.append(gap_lowest_pair(p.with_b_tilde(b1)))
        fit = fit_power_law(thetas, gaps, "power-in-sin-theta")
        assert fit.exponent == pytest.approx(want, abs=0.3)
        assert best_shape_exponent(thetas, gaps) == want
        results.append(f"{fit.exponent:.2f}@{e_vcm:.0f}")
    record("[PASS] criterion 8: gap shape exponents "
           + ", ".join(results) + " V/cm (want 3, 2, 1)")


def test_criterion_09_resolvent_sign_structure():
    # lo + (hi - lo) * random() is rng.uniform's own arithmetic, so these are
    # the draws of alternating uniform(1e-6, 10) and uniform(1e-6, pi - 1e-6)
    # calls bit for bit
    lo, hi = np.array([1e-6, 1e-6]), np.array([10.0, math.pi - 1e-6])
    e, theta = (lo + (hi - lo) * np.random.default_rng(11).random((10000, 2))).T
    data = resolvent_analysis(e, D, theta)
    assert (data.delta_c <= 0.0).all()
    assert (data.g_c > 0.0).all()
    worst_delta = data.delta_c.max()
    ec = critical_field_tilde(D, math.pi / 2.0)
    at_crit = resolvent_analysis(ec, D, math.pi / 2.0)
    natural = resolvent_analysis(0.0, D, math.pi / 2.0).c_r
    assert abs(at_crit.c_r) <= 1e-8 * natural
    ec_kvcm = ec / e_tilde_from_field(1.0, MOL) / 1e5
    assert ec_kvcm == pytest.approx(2.880, abs=2e-3)
    record(f"[PASS] criterion 9: cubic discriminant <= 0 and G_c > 0 on "
           f"10000 samples (max {worst_delta:.1e}); confluence at "
           f"{ec_kvcm:.4f} kV/cm with C_r = {at_crit.c_r:.1e}")


def test_criterion_10_catalog_locations_are_gap_minima():
    rng = np.random.default_rng(77)
    start = time.monotonic()
    checked = 0
    worst = 0.0
    tilde_per_tesla = scale_parameters(MOL, FieldConfiguration(b_field=1.0)).b_tilde
    for _ in range(50):
        p = params_from_fields(float(rng.uniform(100.0, 3000.0)), 0.0,
                               float(rng.uniform(0.3, math.pi - 0.3)))
        for rec in crossing_catalog(p):
            if rec.kind != "avoided":
                continue
            step = 2e-5
            grid = rec.b_location + np.arange(-25, 26) * step
            # one stacked pair_gap call; each row is the one-point call's
            gaps = pair_gap(p.with_b_tilde(grid * tilde_per_tesla), rec.pair)
            k = int(np.argmin(gaps))
            assert 0 < k < len(grid) - 1
            worst = max(worst, abs(float(grid[k]) - rec.b_location))
            checked += 1
    elapsed = time.monotonic() - start
    assert worst <= 1e-4
    assert elapsed < 30.0
    record(f"[PASS] criterion 10: {checked} avoided crossings sit at "
           f"dense-grid gap minima (worst offset {worst:.1e} T, "
           f"{elapsed:.2f} s)")

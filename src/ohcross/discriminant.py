"""Closed-form factorization of the spectral discriminant.

The discriminant of the degree-8 characteristic polynomial, taken as a
product over all eigenvalue pairs, factors exactly as f0 * f1 * f2^2 in
the squared field variable x = b_tilde^2:

  f0  constant times b_tilde^8, the zero-field degeneracy factor
  f1  quartic in x; its real roots are exact crossings of the two levels
      that meet at zero energy (there det H = 0)
  f2  octic in x; real roots mark further exact crossings, complex roots
      govern avoided crossings

The coefficients of f2 in x, and the two quartics f2 collapses to at the
special angles, are frozen below as tables of integers that
algebra.MonomialTable reads. Every evaluator broadcasts over arrays of
field points. Every factor is cross-checked against eigenvalue products
computed by two independent spectral routes; audit_triple drives that
comparison over a randomized sample, one array pass over all sampled
sections, and can localize a corrupted octic coefficient.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import MonomialTable, horner
from .hamiltonian import build_hamiltonian
from .model import (FieldConfiguration, MoleculeParameters, ScaledParameters,
                    scale_parameters)
from .spectrum import analytic_spectrum, numeric_levels, numeric_levels_along_b

# Leading constant of the pure-power factor f0 = F0_CONSTANT * b_tilde^8.
F0_CONSTANT = 81.0 / (2 ** 10 * 5 ** 56)

# Floor for relative comparisons so that exact zeros compare clean.
REL_FLOOR = 1e-30

TRIPLE_TOL = 1e-6
DET_IDENTITY_TOL = 1e-8
ZERO_FIELD_TOL = 1e-12
SPECIAL_ANGLE_TOL = 1e-8

# A coefficient is localized as faulty when its monomial consistency error
# stays below this while the alternatives are order unity.
LOCALIZE_CONSISTENCY_TOL = 0.05

G_NAMES = ("g0", "g2", "g4", "g6", "g8", "g10", "g12", "g14", "g16")

# (i, j) level pairs of discriminant_from_eigenvalues, in its order
_PAIRS = np.triu_indices(8, k=1)

# the special angles the audit draws from: parallel, perpendicular, antiparallel
_ANGLES = (0.0, math.pi / 2.0, math.pi)


def relative_spread(values):
    """Largest pairwise difference over the largest magnitude across the
    first axis of values; 0 where that magnitude is at most REL_FLOOR."""
    v = np.asarray(values, dtype=float)
    top = np.abs(v).max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(top <= REL_FLOOR, 0.0, (v.max(axis=0) - v.min(axis=0)) / top)


def eval_f0_tilde(b_tilde):
    """Pure-power discriminant factor, 81/(2^10 5^56) times b_tilde^8."""
    return F0_CONSTANT * b_tilde ** 8


def f1_quartic_coefficients(e_tilde, delta_tilde, theta) -> tuple:
    """Monic-quartic coefficients (c0, c2, c4, c6) of f1/81 in x = b_tilde^2."""
    c2t = np.cos(2.0 * theta)
    c4t = np.cos(4.0 * theta)
    e2 = e_tilde * e_tilde
    d2 = delta_tilde * delta_tilde
    c6 = -20.0 / 9.0 * d2 - 4.0 * e2 * c2t
    c4 = (118.0 / 81.0 * d2 * d2 + 4.0 / 3.0 * (7.0 - 2.0 * c2t) * e2 * d2
          + 2.0 * e2 * e2 * (2.0 + c4t))
    c2 = -4.0 / 81.0 * (d2 + 9.0 * e2) * (5.0 * d2 * d2 + 9.0 * c2t * e2 * e2
                                          - 7.0 * (c2t - 3.0) * d2 * e2)
    c0 = (d2 * d2 + 9.0 * e2 * e2 + 10.0 * d2 * e2) ** 2 / 81.0
    return c0, c2, c4, c6


def eval_f1_tilde(b_tilde, e_tilde, delta_tilde, theta):
    """Quartic discriminant factor f1 at x = b_tilde^2, equal to 10^8 det H."""
    c0, c2, c4, c6 = f1_quartic_coefficients(e_tilde, delta_tilde, theta)
    return 81.0 * horner((c0, c2, c4, c6, 1.0), b_tilde * b_tilde)


def _faulted(table: tuple, fault) -> tuple:
    """The octic table with a (name, factor) fault applied, if any."""
    if fault is None:
        return table
    name, factor = fault
    if name not in G_NAMES:
        raise ValueError(f"unknown octic coefficient {name!r}")
    k = G_NAMES.index(name)
    return table[:k] + (table[k] * float(factor),) + table[k + 1:]


# (g0, g2, ..., g16) in y = e_tilde^2, z = delta_tilde^2 and w = cos^2 theta
_OCTIC = MonomialTable((
    ((8192, 1), {(10, 0): (0, 0, 9), (9, 1): (0, 36, -26), (8, 2): (0, 4, -3)}),
    ((4096, 1), {(9, 0): (0, 0, 144, -369), (8, 1): (0, 360, -1387, 732),
        (7, 2): (0, 143, -496, 278), (6, 3): (0, 11, -37, 21)}),
    ((512, 1), {(8, 0): (0, 0, 4032, -17712, 22329),
        (7, 1): (0, 5344, -30192, 59934, -22506),
        (6, 2): (64, 7168, -33421, 51860, -21113),
        (5, 3): (16, 1602, -7152, 10460, -4266),
        (4, 4): (1, 94, -413, 594, -243)}),
    ((512, 1), {(7, 0): (0, 0, 8064, -44280, 89316, -73800),
        (6, 1): (0, 3840, -20872, 53628, -85356, 17120),
        (5, 2): (192, 4352, 6296, -19683, -9286, 4879),
        (4, 3): (120, 2980, -1787, -4784, 921), (3, 4): (20, 509, -674, -105),
        (2, 5): (1, 24, -35)}),
    ((512, 1), {(6, 0): (0, 0, 10080, -59040, 133974, -147600, 90000),
        (5, 1): (0, -480, 11072, -35118, 57726, 9320),
        (4, 2): (144, -5312, 1928, 15638, 6154), (3, 3): (512, -1830, 3162, 2016),
        (2, 4): (190, -86, 339), (1, 5): (24, 6), (0, 6): (1,)}),
    ((1024, 1), {(5, 0): (0, 0, 4032, -22140, 44658, -36900),
        (4, 1): (0, -992, 7116, -10332, -11612), (3, 2): (-32, -472, -1588, -4533),
        (2, 3): (-304, -340, -631), (1, 4): (-78, -47), (0, 5): (-5,)}),
    ((512, 1), {(4, 0): (0, 0, 4032, -17712, 22329),
        (3, 1): (0, -480, -944, 14004), (2, 2): (-96, 2032, 2622),
        (1, 3): (240, 420), (0, 4): (33,)}),
    ((4096, 1), {(3, 0): (0, 0, 144, -369), (2, 1): (0, 48, -343),
        (1, 2): (0, -75), (0, 3): (-5,)}),
    ((8192, 1), {(2, 0): (0, 0, 9), (1, 1): (0, 10), (0, 2): (1,)}),
))


def g_coefficients(e_tilde, delta_tilde, theta) -> tuple:
    """Coefficients (g0, g2, ..., g16) of the octic factor f2 in x = b_tilde^2.

    The name gk carries the degree in b_tilde, so gk multiplies x^(k/2).
    Each entry has the broadcast shape of the inputs.
    """
    c = np.cos(theta)
    return tuple(_OCTIC(e_tilde * e_tilde, delta_tilde * delta_tilde, c * c))


def eval_f2_tilde(b_tilde, e_tilde, delta_tilde, theta):
    """Octic discriminant factor f2 at x = b_tilde^2 (enters squared)."""
    return horner(g_coefficients(e_tilde, delta_tilde, theta), b_tilde * b_tilde)


def f2_magnitude_tilde(b_tilde, e_tilde, delta_tilde, theta):
    """Sum of absolute octic terms at x = b_tilde^2, the cancellation scale.

    Near a root of f2 the signed value cancels to far below its largest
    term, so honest agreement checks must be measured against this scale
    rather than against the signed value.
    """
    gs = g_coefficients(e_tilde, delta_tilde, theta)
    return horner([abs(g) for g in gs], b_tilde * b_tilde)


def f2_zero_field_tilde(b_tilde, delta_tilde):
    """Closed form of f2 at zero electric field:
    512 x^4 d^4 (4x^2 - 5x d^2 + d^4)^2 with x = b_tilde^2."""
    x = b_tilde * b_tilde
    d2 = delta_tilde * delta_tilde
    quad = 4.0 * x * x - 5.0 * x * d2 + d2 * d2
    return 512.0 * x ** 4 * d2 * d2 * quad * quad


# the parallel, then the perpendicular quartic, ascending in x, in y and z
_SPECIAL_ANGLE_QUARTICS = MonomialTable((
    ((1, 1), {(4, 0): (4,)}), ((1, 1), {(3, 0): (-25,), (2, 1): (-5,)}),
    ((1, 1), {(2, 0): (42,), (1, 1): (10,), (0, 2): (1,)}),
    ((1, 1), {(1, 0): (-25,), (0, 1): (-5,)}), ((1, 1), {(0, 0): (4,)}),
    ((1, 1), {(4, 0): (1,)}), ((1, 1), {(3, 0): (4,), (2, 1): (1,)}),
    ((1, 1), {(2, 0): (6,), (1, 1): (8,), (0, 2): (1,)}),
    ((1, 1), {(1, 0): (4,), (0, 1): (-2,)}), ((1, 1), {(0, 0): (1,)}),
))


def _special_angle_quartics(e_tilde, delta_tilde) -> tuple:
    """Ascending coefficients, along the first axis, of the quartics in x
    behind f2 at the special angles: (parallel, perpendicular).

    At parallel or antiparallel fields f2 is 512 (d^4 + 10 d^2 e^2 + 9 e^4)
    times the square of the first; at perpendicular fields the second is
    its one unsquared factor.
    """
    q = _SPECIAL_ANGLE_QUARTICS(e_tilde * e_tilde, delta_tilde * delta_tilde, 0.0)
    return q[:5], q[5:]


def _special_angle_forms(b_tilde, e_tilde, delta_tilde) -> tuple:
    """f2 at (parallel, perpendicular) fields from one build of their quartics.

    At parallel or antiparallel fields the octic collapses to a constant
    times a perfect square of a quartic in x: every crossing at these
    angles is exact, none is avoided. At perpendicular fields two squared
    factors carry exact crossings; the final quartic factor is not squared,
    so its roots sit at simple zeros where the crossing behavior differs
    from every other special geometry.
    """
    x = b_tilde * b_tilde
    e2 = e_tilde * e_tilde
    d2 = delta_tilde * delta_tilde
    par, perp = (horner(q, x) for q in _special_angle_quartics(e_tilde, delta_tilde))
    lin = -4.0 * x + d2 + 8.0 * e2
    return (512.0 * (d2 * d2 + 10.0 * d2 * e2 + 9.0 * e2 * e2) * par * par,
            512.0 * x * x * d2 * d2 * lin * lin * perp)


def discriminant_from_eigenvalues(lambdas):
    """Product of squared differences over all pairs of the eight levels
    along the last axis, multiplied in the order (0, 1), (0, 2), ..., (6, 7)."""
    v = np.asarray(lambdas, dtype=float)
    diff = v[..., _PAIRS[0]] - v[..., _PAIRS[1]]
    return np.multiply.reduce(diff * diff, axis=-1)


@dataclass(frozen=True)
class AuditSection:
    """One audit block: worst relative error over its sample."""

    name: str
    samples: int
    max_rel_error: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class AuditReport:
    """Outcome of the randomized factorization audit.

    suspects is empty when every section passes; on a breach it names the
    octic coefficients whose corruption reproduces the observed residuals.
    scores maps each coefficient name to its monomial consistency error
    (small means implicated) whenever localization ran.
    """

    sections: tuple
    suspects: tuple
    scores: dict
    passed: bool

    def section(self, name: str) -> AuditSection:
        return {sec.name: sec for sec in self.sections}[name]


def _localize_fault(p: ScaledParameters, fault) -> tuple:
    """Identify which octic coefficient explains a factorization breach.

    Strategy: the residual between the evaluated octic and the spectral
    oracle sqrt(D / (f0 f1)) must be a single monomial a x^k when exactly
    one coefficient is off. Nine nodes geometrically spread around the
    breaching field value give nine residuals; for each candidate degree
    the monomial amplitude is estimated by a median and the consistency of
    the remaining residuals against that single monomial is scored. The
    corrupted degree scores near zero, all others order unity.
    """
    e, d, th = p.e_tilde, p.delta_tilde, p.theta
    x_center = max(p.b_tilde * p.b_tilde, 1e-3 * d * d)
    nodes = np.array([x_center * 2.0 ** ((k - 4) / 4.0) for k in range(9)])
    bt = np.sqrt(nodes)
    levels = numeric_levels_along_b(build_hamiltonian(p.with_b_tilde(0.0)), bt)
    d_total = discriminant_from_eigenvalues(levels)
    denom = eval_f0_tilde(bt) * eval_f1_tilde(bt, e, d, th)
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.where(denom != 0.0, np.abs(d_total / denom), 0.0)
    used = horner(_faulted(g_coefficients(e, d, th), fault), bt * bt)
    resid = used - np.where(used >= 0.0, 1.0, -1.0) * np.sqrt(mag)
    resid_scale = float(np.median(np.abs(resid)))
    powers = nodes ** np.arange(len(G_NAMES))[:, None]  # row k: x^k at each node
    amps = np.median(resid / powers, axis=1, keepdims=True)
    miss = np.median(np.abs(resid - amps * powers), axis=1)
    scores = dict(zip(G_NAMES, (miss / max(resid_scale, REL_FLOOR)).tolist()))
    suspects = tuple(sorted(n for n, s in scores.items() if s <= LOCALIZE_CONSISTENCY_TOL))
    return suspects, scores


def _section(name: str, rel, tolerance: float) -> AuditSection:
    worst = float(np.max(rel))
    return AuditSection(name, len(rel), worst, tolerance, worst <= tolerance)


def audit_triple(molecule: MoleculeParameters = None, n_samples: int = 1000,
                 seed: int = 7, fault=None) -> AuditReport:
    """Randomized audit of the discriminant factorization.

    Four sections, each with its own tolerance:
      triple-agreement      discriminant by closed form vs eigenvalue
                            products from two independent spectral routes
      determinant-identity  the three-route f1 identity
      zero-field-form       octic table vs its zero-field closed form,
                            measured against the term-magnitude scale
      special-angle-form    octic table vs the parallel and perpendicular
                            closed forms, same scale convention

    The first two sections share n_samples draws, the others take
    max(1, n_samples // 5) each. All draws go straight into one table of
    rows main | zero-field | special-angle, scaled in one call, with one
    octic table and one Horner pass over it and over its magnitudes; each
    section is a slice. The matrices, spectra and determinants are of the
    main rows only, and both spectra's discriminants are one call. On a
    failing section the fault localizer runs at the worst breaching
    configuration, then at the other breaching ones in decreasing order of
    breach until one's best score is within LOCALIZE_CONSISTENCY_TOL (else
    the worst's result stands), and fills `suspects`. `fault` is the
    self-test hook: a (name, factor) pair multiplies the named octic
    coefficient wherever the audit evaluates the table, and an unknown
    name raises ValueError.
    """
    if n_samples < 1:
        raise ValueError(f"audit samples must be at least 1, got {n_samples}")
    if seed < 0:
        raise ValueError(f"audit seed must be non-negative, got {seed}")
    mol = molecule if molecule is not None else MoleculeParameters()
    rng = np.random.default_rng(seed)
    n_side = max(1, n_samples // 5)
    n, k = n_samples, n_samples + n_side  # main [:n], zero-field [n:k], special [k:]
    # (E, B, theta) rows main | zero-field | special-angle, drawn in place
    # in the order of one call per value: the main rows, the zero-field
    # (B, theta), then per special sample an angle draw before (E, B)
    rows = np.zeros((k + n_side, 3))
    rows[:n] = (5e5, 0.3, math.pi) * rng.random((n, 3))
    rows[n:k, 1:] = (0.3, math.pi) * rng.random((n_side, 2))
    for row in rows[k:]:
        row[2] = _ANGLES[rng.integers(3)]
        row[:2] = (5e5, 0.3) * rng.random(2)
    p = scale_parameters(mol, FieldConfiguration(*rows.T))
    b, e, d, th = p.b_tilde, p.e_tilde, p.delta_tilde, p.theta
    g = g_coefficients(e, d, th)
    f2 = horner(_faulted(g, fault), b * b)
    scale = np.maximum(horner(np.abs(g), b * b), REL_FLOOR)

    h = build_hamiltonian(ScaledParameters(b[:n], e[:n], d, th[:n]))
    lam = analytic_spectrum(b[:n], e[:n], d, th[:n])
    f1 = eval_f1_tilde(b[:n], e[:n], d, th[:n])
    spectral = discriminant_from_eigenvalues(np.stack([lam, numeric_levels(h)]))
    triple = relative_spread([*spectral, eval_f0_tilde(b[:n]) * f1 * f2[:n] * f2[:n]])
    # 5^8 times the squared product of the mirror-pair differences
    # (1,8), (2,7), (3,6), (4,5) is 10^8 det H as well
    mirror = np.multiply.reduce(lam[:, :4] - lam[:, 7:3:-1], axis=1)
    identity = relative_spread([f1, 1e8 * np.linalg.det(h),
                                5.0 ** 8 * mirror * mirror])
    # the zero-field and special-angle rows: the octic against its closed
    # forms, over the term-magnitude scale
    parallel, perpendicular = _special_angle_forms(b[k:], e[k:], d)
    closed = np.concatenate([f2_zero_field_tilde(b[n:k], d), np.where(
        th[k:] == math.pi / 2.0, perpendicular, parallel)])
    form_rel = np.abs(f2[n:] - closed) / scale[n:]
    special_rel = form_rel[n_side:]
    sections = [_section("triple-agreement", triple, TRIPLE_TOL),
                _section("determinant-identity", identity, DET_IDENTITY_TOL),
                _section("zero-field-form", form_rel[:n_side], ZERO_FIELD_TOL),
                _section("special-angle-form", special_rel, SPECIAL_ANGLE_TOL)]

    passed = all(sec.passed for sec in sections)
    suspects, scores = (), {}
    if not passed:
        # the main section's samples; the special-angle ones only when the
        # main section passed and some special sample disagreed at all
        rel, tol, first = triple, TRIPLE_TOL, 0
        if sections[0].passed and special_rel.max() > 0.0:
            rel, tol, first = special_rel, SPECIAL_ANGLE_TOL, k
        # the first worst sample, then the other breaching ones by breach
        worst = int(np.argmax(rel))
        order = [worst] + [i for i in np.argsort(-rel, kind="stable").tolist()
                           if i != worst and rel[i] > tol]
        found = (_localize_fault(ScaledParameters(
            float(b[i]), float(e[i]), d, float(th[i])), fault)
            for i in first + np.array(order))
        at_worst = next(found)
        # the first whose best score fits one coefficient, else the worst's
        suspects, scores = next(
            (r for r in itertools.chain([at_worst], found)
             if min(r[1].values()) <= LOCALIZE_CONSISTENCY_TOL), at_worst)
    return AuditReport(sections=tuple(sections), suspects=suspects,
                       scores=scores, passed=passed)

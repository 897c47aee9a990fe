"""Closed-form factorization of the spectral discriminant.

The discriminant of the degree-8 characteristic polynomial, taken as a
product over all eigenvalue pairs, factors exactly as f0 * f1 * f2^2 in
the squared field variable x = b_tilde^2:

  f0  constant times b_tilde^8, the zero-field degeneracy factor
  f1  quartic in x; its real roots are exact crossings of the two levels
      that meet at zero energy (there det H = 0)
  f2  octic in x; real roots mark further exact crossings, complex roots
      govern avoided crossings

Every evaluator broadcasts over arrays of field points. Every factor is
cross-checked against eigenvalue products computed by two independent
spectral routes; audit_triple drives that comparison over a randomized
sample, one array pass per section, and can localize a corrupted octic
coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import horner
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


def g_coefficients(e_tilde, delta_tilde, theta) -> tuple:
    """Coefficients (g0, g2, ..., g16) of the octic factor f2 in x = b_tilde^2.

    The name gk carries the degree in b_tilde, so gk multiplies x^(k/2).
    Each entry has the broadcast shape of the inputs.
    """
    c = np.cos(theta)
    c2 = np.cos(2.0 * theta)
    c4 = np.cos(4.0 * theta)
    c6 = np.cos(6.0 * theta)
    c8 = np.cos(8.0 * theta)
    c10 = np.cos(10.0 * theta)
    E = e_tilde
    D = delta_tilde
    g16 = 8192 * (D**4 + 5 * (1 + c2) * D**2 * E**2 + 9 * c**4 * E**4)
    g14 = -2048 * (9 * c**4 * (9 + 41 * c2) * E**6 + 10 * D**6
                   + c**2 * (247 + 343 * c2) * D**2 * E**4 + 150 * c**2 * D**4 * E**2)
    g12 = 64 * (264 * D**8 + 240 * (15 + 7 * c2) * D**6 * E**2
                + 2 * (7613 + 9308 * c2 + 1311 * c4) * D**4 * E**4
                + 9 * c**4 * (3155 + 2052 * c2 + 2481 * c4) * E**8
                + 4 * c**2 * (8599 + 13060 * c2 + 3501 * c4) * D**2 * E**6)
    g10 = -32 * (160 * D**10 + 16 * (203 + 47 * c2) * D**8 * E**2
                 + 4 * (5685 + 3884 * c2 + 631 * c4) * D**6 * E**4
                 + 36 * c**4 * (1620 + 5367 * c2 + 1188 * c4 + 1025 * c6) * E**10
                 + 4 * c**2 * (39498 + 56409 * c2 + 27750 * c4 + 2903 * c6) * D**2 * E**8
                 + (72962 + 100955 * c2 + 33550 * c4 + 4533 * c6) * D**4 * E**6)
    g8 = 8 * (64 * D**12 + 192 * D**10 * E**2 * (9 + c2)
              + 8 * D**8 * E**4 * (2193 + 1012 * c2 + 339 * c4)
              + 16 * D**6 * E**6 * (5651 + 6444 * c2 + 3093 * c4 + 252 * c6)
              + 72 * E**12 * c**4 * (8253 + 6804 * c2 + 7786 * c4 + 900 * c6 + 625 * c8)
              + 4 * D**2 * E**10 * c**2 * (199593 + 305817 * c2 + 135562 * c4
                                           + 38183 * c6 + 1165 * c8)
              + D**4 * E**8 * (305959 + 533164 * c2 + 289236 * c4 + 55892 * c6
                               + 3077 * c8))
    g6 = (-(D**10) * (64 + 2816 * c2 + 2240 * c4)
          - 16 * D**8 * E**2 * (354 + 4215 * c2 + 3326 * c4 + 105 * c6)
          - 1152 * E**10 * c**4 * (1620 + 5367 * c2 + 1188 * c4 + 1025 * c6)
          - 64 * D**2 * E**8 * c**2 * (67824 + 129141 * c2 + 44446 * c4
                                       + 12779 * c6 - 1070 * c8)
          - 4 * D**6 * E**4 * (38821 + 159112 * c2 + 117620 * c4 + 11768 * c6
                               - 921 * c8)
          + D**4 * E**6 * (-1413318 - 3053506 * c2 - 1941176 * c4 - 392525 * c6
                           + 11646 * c8 + 4879 * c10)) * E**4
    g4 = 4 * (1575 * D**8 + D**8 * (1616 * c2 + 844 * c4)
              + 144 * E**8 * c**4 * (3155 + 2052 * c2 + 2481 * c4)
              + 8 * D**2 * E**6 * c**2 * (91042 + 69141 * c2 + 52350 * c4 - 11253 * c6)
              + 432 * D**8 * c6
              + D**4 * E**4 * (198181 + 249080 * c2 + 118740 * c4 + 38536 * c6
                               - 21113 * c8)
              + 2 * D**6 * E**2 * (15185 + 16752 * c2 + 8580 * c4 + 3856 * c6
                                   - 2133 * c8)
              - 243 * D**8 * c8) * E**8
    g2 = 512 * c**2 * (D**6 * (3 - 64 * c2) - 36 * E**6 * c**2 * (9 + 41 * c2)
                       + 21 * D**6 * c4 + 2 * D**4 * E**2 * (-3 - 436 * c2 + 139 * c4)
                       + 4 * D**2 * E**4 * (-118 - 655 * c2 + 183 * c4)) * E**12
    g0 = 4096 * E**16 * (D**2 + 9 * E**2) * c**2 * (5 * D**2 + E**2
                                                    + (-3 * D**2 + E**2) * c2)
    return g0, g2, g4, g6, g8, g10, g12, g14, g16


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


def _form_error(closed, p: ScaledParameters, fault):
    """|eval_f2_tilde with the fault - closed| over the clean
    f2_magnitude_tilde at p, both from one coefficient table."""
    clean = g_coefficients(p.e_tilde, p.delta_tilde, p.theta)
    x = p.b_tilde * p.b_tilde
    scale = np.maximum(horner([abs(g) for g in clean], x), REL_FLOOR)
    return np.abs(horner(_faulted(clean, fault), x) - closed) / scale


def f2_zero_field_tilde(b_tilde, delta_tilde):
    """Closed form of f2 at zero electric field:
    512 x^4 d^4 (4x^2 - 5x d^2 + d^4)^2 with x = b_tilde^2."""
    x = b_tilde * b_tilde
    d2 = delta_tilde * delta_tilde
    quad = 4.0 * x * x - 5.0 * x * d2 + d2 * d2
    return 512.0 * x ** 4 * d2 * d2 * quad * quad


def _special_angle_quartics(e_tilde, delta_tilde) -> tuple:
    """Ascending coefficients, along the first axis, of the quartics in x
    behind f2 at the special angles: (parallel, perpendicular).

    At parallel or antiparallel fields f2 is 512 (d^4 + 10 d^2 e^2 + 9 e^4)
    times the square of the first; at perpendicular fields the second is
    its one unsquared factor.
    """
    e2 = e_tilde * e_tilde
    d2 = delta_tilde * delta_tilde
    return tuple(np.stack(np.broadcast_arrays(*coeffs)) for coeffs in (
        (4.0 * e2 ** 4, -5.0 * e2 * e2 * (d2 + 5.0 * e2),
         d2 * d2 + 10.0 * d2 * e2 + 42.0 * e2 * e2, -5.0 * (d2 + 5.0 * e2), 4.0),
        (e2 ** 4, e2 * e2 * (d2 + 4.0 * e2),
         d2 * d2 + 8.0 * d2 * e2 + 6.0 * e2 * e2, -2.0 * (d2 - 2.0 * e2), 1.0)))


def f2_parallel_tilde(b_tilde, e_tilde, delta_tilde):
    """Closed form of f2 for parallel or antiparallel fields.

    The octic collapses to a constant times a perfect square of a quartic
    in x: every crossing at these angles is exact, none is avoided.
    """
    e2 = e_tilde * e_tilde
    d2 = delta_tilde * delta_tilde
    front = d2 * d2 + 10.0 * d2 * e2 + 9.0 * e2 * e2
    quart = horner(_special_angle_quartics(e_tilde, delta_tilde)[0],
                   b_tilde * b_tilde)
    return 512.0 * front * quart * quart


def f2_perpendicular_tilde(b_tilde, e_tilde, delta_tilde):
    """Closed form of f2 for perpendicular fields.

    Two squared factors carry exact crossings; the final quartic factor is
    not squared, so its roots sit at simple zeros where the crossing
    behavior differs from every other special geometry.
    """
    x = b_tilde * b_tilde
    d2 = delta_tilde * delta_tilde
    lin = -4.0 * x + d2 + 8.0 * (e_tilde * e_tilde)
    quart = horner(_special_angle_quartics(e_tilde, delta_tilde)[1], x)
    return 512.0 * x * x * d2 * d2 * lin * lin * quart


def discriminant_from_eigenvalues(lambdas):
    """Product of squared differences over all level pairs along the last
    axis, multiplied in the order (0, 1), (0, 2), ..., (6, 7)."""
    v = np.asarray(lambdas, dtype=float)
    i, j = np.triu_indices(v.shape[-1], k=1)
    diff = v[..., i] - v[..., j]
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
    best = min(scores.values())
    suspects = tuple(sorted(n for n, s in scores.items()
                            if s <= max(LOCALIZE_CONSISTENCY_TOL, best)))
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
    max(1, n_samples // 5) each; every section is one array pass. On a
    failing section the fault localizer runs at the worst breaching
    configuration and fills `suspects`. `fault` is the self-test hook: a
    (name, factor) pair multiplies the named octic coefficient wherever the
    audit evaluates the table, and an unknown name raises ValueError.
    """
    if n_samples < 1:
        raise ValueError(f"audit samples must be at least 1, got {n_samples}")
    mol = molecule if molecule is not None else MoleculeParameters()
    rng = np.random.default_rng(seed)

    # (E, B, theta) rows, drawn in the order of one call per value
    fields = rng.uniform((0.0, 0.0, 0.0), (5e5, 0.3, math.pi), (n_samples, 3))
    main = scale_parameters(mol, FieldConfiguration(*fields.T))
    b, e, d, th = main.b_tilde, main.e_tilde, main.delta_tilde, main.theta
    h = build_hamiltonian(main)
    lam = analytic_spectrum(b, e, d, th)
    f1 = eval_f1_tilde(b, e, d, th)
    f2 = horner(_faulted(g_coefficients(e, d, th), fault), b * b)
    triple = relative_spread([discriminant_from_eigenvalues(lam),
                              discriminant_from_eigenvalues(numeric_levels(h)),
                              eval_f0_tilde(b) * f1 * f2 * f2])
    # 5^8 times the squared product of the mirror-pair differences
    # (1,8), (2,7), (3,6), (4,5) is 10^8 det H as well
    mirror = np.multiply.reduce(lam[:, :4] - lam[:, 7:3:-1], axis=1)
    identity = relative_spread([f1, 1e8 * np.linalg.det(h),
                                5.0 ** 8 * mirror * mirror])
    sections = [_section("triple-agreement", triple, TRIPLE_TOL),
                _section("determinant-identity", identity, DET_IDENTITY_TOL)]

    n_side = max(1, n_samples // 5)
    fields = rng.uniform((0.0, 0.0), (0.3, math.pi), (n_side, 2))
    zero = scale_parameters(mol, FieldConfiguration(0.0, *fields.T))
    sections.append(_section("zero-field-form", _form_error(
        f2_zero_field_tilde(zero.b_tilde, d), zero, fault), ZERO_FIELD_TOL))

    # per sample an angle draw, then (E, B)
    theta, e_field, b_field = np.array([
        [rng.choice([0.0, math.pi / 2.0, math.pi]), *rng.uniform((0.0, 0.0), (5e5, 0.3))]
        for _ in range(n_side)]).T
    special = scale_parameters(mol, FieldConfiguration(e_field, b_field, theta))
    b, e = special.b_tilde, special.e_tilde
    closed = np.where(theta == math.pi / 2.0, f2_perpendicular_tilde(b, e, d),
                      f2_parallel_tilde(b, e, d))
    special_rel = _form_error(closed, special, fault)
    sections.append(_section("special-angle-form", special_rel, SPECIAL_ANGLE_TOL))

    passed = all(sec.passed for sec in sections)
    suspects, scores = (), {}
    if not passed:
        # the first worst sample; the special-angle one only when the main
        # section passed and some special sample disagreed at all
        worst, p = int(np.argmax(triple)), main
        if sections[0].passed and special_rel.max() > 0.0:
            worst, p = int(np.argmax(special_rel)), special
        suspects, scores = _localize_fault(ScaledParameters(
            float(p.b_tilde[worst]), float(p.e_tilde[worst]), d,
            float(p.theta[worst])), fault)
    return AuditReport(sections=tuple(sections), suspects=suspects,
                       scores=scores, passed=passed)

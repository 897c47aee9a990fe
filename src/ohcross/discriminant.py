"""Closed-form factorization of the spectral discriminant.

The discriminant of the degree-8 characteristic polynomial, taken as a
product over all eigenvalue pairs, factors exactly as f0 * f1 * f2^2 in
the squared field variable x = b_tilde^2:

  f0  constant times b_tilde^8, the zero-field degeneracy factor
  f1  quartic in x; its real roots are exact crossings of the two levels
      that meet at zero energy (there det H = 0)
  f2  octic in x; real roots mark further exact crossings, complex roots
      govern avoided crossings

Every factor here is cross-checked against eigenvalue products computed by
two independent spectral routes; audit_triple drives that comparison over
a randomized sample and can localize a corrupted octic coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import build_hamiltonian
from .model import (FieldConfiguration, MoleculeParameters, ScaledParameters,
                    scale_parameters)
from .spectrum import analytic_spectrum, numeric_eigenvalues

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


def relative_spread(values, floor: float = REL_FLOOR) -> float:
    """Largest pairwise difference over the largest magnitude, floored."""
    top = max(abs(v) for v in values)
    if top <= floor:
        return 0.0
    return (max(values) - min(values)) / top


def eval_f0_tilde(b_tilde: float) -> float:
    """Pure-power discriminant factor, 81/(2^10 5^56) times b_tilde^8."""
    return F0_CONSTANT * b_tilde ** 8


def f1_quartic_coefficients(e_tilde: float, delta_tilde: float,
                            theta: float) -> tuple:
    """Monic-quartic coefficients (c0, c2, c4, c6) of f1/81 in x = b_tilde^2."""
    c2t = math.cos(2.0 * theta)
    c4t = math.cos(4.0 * theta)
    e2 = e_tilde * e_tilde
    d2 = delta_tilde * delta_tilde
    c6 = -20.0 / 9.0 * d2 - 4.0 * e2 * c2t
    c4 = (118.0 / 81.0 * d2 * d2 + 4.0 / 3.0 * (7.0 - 2.0 * c2t) * e2 * d2
          + 2.0 * e2 * e2 * (2.0 + c4t))
    c2 = -4.0 / 81.0 * (d2 + 9.0 * e2) * (5.0 * d2 * d2 + 9.0 * c2t * e2 * e2
                                          - 7.0 * (c2t - 3.0) * d2 * e2)
    c0 = (d2 * d2 + 9.0 * e2 * e2 + 10.0 * d2 * e2) ** 2 / 81.0
    return c0, c2, c4, c6


def eval_f1_tilde(b_tilde: float, e_tilde: float, delta_tilde: float,
                  theta: float) -> float:
    """Quartic discriminant factor f1 at x = b_tilde^2.

    Equal to 10^8 det H; see determinant_identity_check for the live
    comparison of that identity along two more routes.
    """
    c0, c2, c4, c6 = f1_quartic_coefficients(e_tilde, delta_tilde, theta)
    x = b_tilde * b_tilde
    return 81.0 * ((((x + c6) * x + c4) * x + c2) * x + c0)


def g_coefficients(e_tilde: float, delta_tilde: float, theta: float,
                   fault=None) -> tuple:
    """Coefficients (g0, g2, ..., g16) of the octic factor f2 in x = b_tilde^2.

    The name gk carries the degree in b_tilde, so gk multiplies x^(k/2).
    `fault` is an audit hook: a (name, factor) pair multiplies the named
    coefficient, letting the self-test machinery inject a known corruption.
    """
    c = math.cos(theta)
    c2 = math.cos(2.0 * theta)
    c4 = math.cos(4.0 * theta)
    c6 = math.cos(6.0 * theta)
    c8 = math.cos(8.0 * theta)
    c10 = math.cos(10.0 * theta)
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
    table = [g0, g2, g4, g6, g8, g10, g12, g14, g16]
    if fault is not None:
        name, factor = fault
        if name not in G_NAMES:
            raise ValueError(f"unknown octic coefficient {name!r}")
        table[G_NAMES.index(name)] *= float(factor)
    return tuple(float(g) for g in table)


def eval_f2_tilde(b_tilde: float, e_tilde: float, delta_tilde: float,
                  theta: float, fault=None) -> float:
    """Octic discriminant factor f2 at x = b_tilde^2 (enters squared)."""
    gs = g_coefficients(e_tilde, delta_tilde, theta, fault=fault)
    x = b_tilde * b_tilde
    acc = 0.0
    for g in reversed(gs):
        acc = acc * x + g
    return acc


def f2_magnitude_tilde(b_tilde: float, e_tilde: float, delta_tilde: float,
                       theta: float, fault=None) -> float:
    """Sum of absolute octic terms at x = b_tilde^2, the cancellation scale.

    Near a root of f2 the signed value cancels to far below its largest
    term, so honest agreement checks must be measured against this scale
    rather than against the signed value.
    """
    gs = g_coefficients(e_tilde, delta_tilde, theta, fault=fault)
    x = b_tilde * b_tilde
    acc = 0.0
    for g in reversed(gs):
        acc = acc * x + abs(g)
    return acc


def f2_zero_field_tilde(b_tilde: float, delta_tilde: float) -> float:
    """Closed form of f2 at zero electric field:
    512 x^4 d^4 (4x^2 - 5x d^2 + d^4)^2 with x = b_tilde^2."""
    x = b_tilde * b_tilde
    d2 = delta_tilde * delta_tilde
    quad = 4.0 * x * x - 5.0 * x * d2 + d2 * d2
    return 512.0 * x ** 4 * d2 * d2 * quad * quad


def f2_parallel_tilde(b_tilde: float, e_tilde: float, delta_tilde: float) -> float:
    """Closed form of f2 for parallel or antiparallel fields.

    The octic collapses to a constant times a perfect square of a quartic
    in x: every crossing at these angles is exact, none is avoided.
    """
    x = b_tilde * b_tilde
    e2 = e_tilde * e_tilde
    d2 = delta_tilde * delta_tilde
    front = d2 * d2 + 10.0 * d2 * e2 + 9.0 * e2 * e2
    quart = (4.0 * x ** 4 - 5.0 * (d2 + 5.0 * e2) * x ** 3
             + (d2 * d2 + 10.0 * d2 * e2 + 42.0 * e2 * e2) * x * x
             - 5.0 * e2 * e2 * (d2 + 5.0 * e2) * x + 4.0 * e2 ** 4)
    return 512.0 * front * quart * quart


def f2_perpendicular_tilde(b_tilde: float, e_tilde: float,
                           delta_tilde: float) -> float:
    """Closed form of f2 for perpendicular fields.

    Two squared factors carry exact crossings; the final quartic factor is
    not squared, so its roots sit at simple zeros where the crossing
    behavior differs from every other special geometry.
    """
    x = b_tilde * b_tilde
    e2 = e_tilde * e_tilde
    d2 = delta_tilde * delta_tilde
    lin = -4.0 * x + d2 + 8.0 * e2
    quart = (x ** 4 - 2.0 * (d2 - 2.0 * e2) * x ** 3
             + (d2 * d2 + 8.0 * d2 * e2 + 6.0 * e2 * e2) * x * x
             + e2 * e2 * (d2 + 4.0 * e2) * x + e2 ** 4)
    return 512.0 * x * x * d2 * d2 * lin * lin * quart


def discriminant_from_eigenvalues(lambdas) -> float:
    """Product of squared differences over all level pairs."""
    vals = list(lambdas)
    acc = 1.0
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            diff = vals[i] - vals[j]
            acc *= diff * diff
    return acc


@dataclass(frozen=True)
class DiscriminantFactors:
    """The three closed-form factors and their product f0 * f1 * f2^2."""

    f0: float
    f1: float
    f2: float
    product: float


def evaluate_factors(p: ScaledParameters, fault=None) -> DiscriminantFactors:
    """All discriminant factors at one scaled configuration."""
    f0 = eval_f0_tilde(p.b_tilde)
    f1 = eval_f1_tilde(p.b_tilde, p.e_tilde, p.delta_tilde, p.theta)
    f2 = eval_f2_tilde(p.b_tilde, p.e_tilde, p.delta_tilde, p.theta, fault=fault)
    return DiscriminantFactors(f0=f0, f1=f1, f2=f2, product=f0 * f1 * f2 * f2)


@dataclass(frozen=True)
class IdentityReport:
    """Three routes to the same quantity 10^8 det H.

    f1_value      the closed-form quartic factor
    det_value     10^8 times LAPACK's determinant
    pair_product  5^8 times the squared product of the four differences
                  between mirror levels (1,8), (2,7), (3,6), (4,5)
    """

    f1_value: float
    det_value: float
    pair_product: float
    max_rel_error: float


def determinant_identity_check(p: ScaledParameters, lambdas) -> IdentityReport:
    """Evaluate the determinant identity for f1 along all three routes.

    `lambdas` is the closed-form spectrum at p, descending.
    """
    f1_value = eval_f1_tilde(p.b_tilde, p.e_tilde, p.delta_tilde, p.theta)
    det_value = 1e8 * float(np.linalg.det(build_hamiltonian(p)))
    diffs = ((lambdas[0] - lambdas[7]) * (lambdas[1] - lambdas[6])
             * (lambdas[2] - lambdas[5]) * (lambdas[3] - lambdas[4]))
    pair_product = 5.0 ** 8 * diffs * diffs
    spread = relative_spread([f1_value, det_value, pair_product])
    return IdentityReport(f1_value=f1_value, det_value=det_value,
                          pair_product=pair_product, max_rel_error=spread)


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
        for sec in self.sections:
            if sec.name == name:
                return sec
        raise KeyError(name)


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
    nodes = [x_center * 2.0 ** ((k - 4) / 4.0) for k in range(9)]
    resid = []
    for x in nodes:
        bt = math.sqrt(x)
        q = p.with_b_tilde(bt)
        lam = numeric_eigenvalues(q).lambdas
        d_total = discriminant_from_eigenvalues(lam)
        denom = eval_f0_tilde(bt) * eval_f1_tilde(bt, e, d, th)
        mag = abs(d_total / denom) if denom != 0.0 else 0.0
        used = eval_f2_tilde(bt, e, d, th, fault=fault)
        sign = 1.0 if used >= 0.0 else -1.0
        resid.append(used - sign * math.sqrt(mag))
    resid_scale = float(np.median(np.abs(resid)))
    scores = {}
    for k, name in enumerate(G_NAMES):
        powers = np.array([x ** k for x in nodes])
        amps = np.array(resid) / powers
        a_star = float(np.median(amps))
        miss = np.abs(np.array(resid) - a_star * powers)
        scores[name] = float(np.median(miss) / max(resid_scale, REL_FLOOR))
    best = min(scores.values())
    suspects = tuple(sorted(n for n, s in scores.items()
                            if s <= max(LOCALIZE_CONSISTENCY_TOL, best)))
    return suspects, scores


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

    On a failing section the fault localizer runs at the worst breaching
    configuration and fills `suspects`.
    """
    mol = molecule if molecule is not None else MoleculeParameters()
    rng = np.random.default_rng(seed)
    sections = []
    worst_cfg = None
    worst_rel = -1.0

    n_main = max(1, n_samples)
    main = []
    for _ in range(n_main):
        cfg = FieldConfiguration(e_field=float(rng.uniform(0.0, 5e5)),
                                 b_field=float(rng.uniform(0.0, 0.3)),
                                 theta=float(rng.uniform(0.0, math.pi)))
        main.append(scale_parameters(mol, cfg))
    levels = analytic_spectrum([p.b_tilde for p in main],
                               [p.e_tilde for p in main], main[0].delta_tilde,
                               [p.theta for p in main])
    triple_max = 0.0
    det_max = 0.0
    for p, lam_a in zip(main, levels.tolist()):
        lam_n = numeric_eigenvalues(p).lambdas
        d_analytic = discriminant_from_eigenvalues(lam_a)
        d_numeric = discriminant_from_eigenvalues(lam_n)
        d_closed = evaluate_factors(p, fault=fault).product
        rel = relative_spread([d_analytic, d_numeric, d_closed])
        if rel > triple_max:
            triple_max = rel
        if rel > worst_rel:
            worst_rel = rel
            worst_cfg = p
        det_max = max(det_max,
                      determinant_identity_check(p, lam_a).max_rel_error)
    sections.append(AuditSection("triple-agreement", n_main, triple_max,
                                 TRIPLE_TOL, triple_max <= TRIPLE_TOL))
    sections.append(AuditSection("determinant-identity", n_main, det_max,
                                 DET_IDENTITY_TOL, det_max <= DET_IDENTITY_TOL))

    n_side = max(1, n_samples // 5)
    zero_max = 0.0
    for _ in range(n_side):
        cfg = FieldConfiguration(e_field=0.0,
                                 b_field=float(rng.uniform(0.0, 0.3)),
                                 theta=float(rng.uniform(0.0, math.pi)))
        p = scale_parameters(mol, cfg)
        table = eval_f2_tilde(p.b_tilde, 0.0, p.delta_tilde, p.theta, fault=fault)
        closed = f2_zero_field_tilde(p.b_tilde, p.delta_tilde)
        scale = f2_magnitude_tilde(p.b_tilde, 0.0, p.delta_tilde, p.theta)
        rel = abs(table - closed) / max(scale, REL_FLOOR)
        zero_max = max(zero_max, rel)
    sections.append(AuditSection("zero-field-form", n_side, zero_max,
                                 ZERO_FIELD_TOL, zero_max <= ZERO_FIELD_TOL))

    special_max = 0.0
    special_worst = None
    for _ in range(n_side):
        th = float(rng.choice([0.0, math.pi / 2.0, math.pi]))
        cfg = FieldConfiguration(e_field=float(rng.uniform(0.0, 5e5)),
                                 b_field=float(rng.uniform(0.0, 0.3)),
                                 theta=th)
        p = scale_parameters(mol, cfg)
        table = eval_f2_tilde(p.b_tilde, p.e_tilde, p.delta_tilde, p.theta,
                              fault=fault)
        if th == math.pi / 2.0:
            closed = f2_perpendicular_tilde(p.b_tilde, p.e_tilde, p.delta_tilde)
        else:
            closed = f2_parallel_tilde(p.b_tilde, p.e_tilde, p.delta_tilde)
        scale = f2_magnitude_tilde(p.b_tilde, p.e_tilde, p.delta_tilde, p.theta)
        rel = abs(table - closed) / max(scale, REL_FLOOR)
        if rel > special_max:
            special_max = rel
            special_worst = p
    sections.append(AuditSection("special-angle-form", n_side, special_max,
                                 SPECIAL_ANGLE_TOL, special_max <= SPECIAL_ANGLE_TOL))

    passed = all(sec.passed for sec in sections)
    suspects: tuple = ()
    scores: dict = {}
    if not passed:
        target = worst_cfg
        if sections[0].passed and special_worst is not None:
            target = special_worst
        if target is not None:
            suspects, scores = _localize_fault(target, fault)
    return AuditReport(sections=tuple(sections), suspects=suspects,
                       scores=scores, passed=passed)

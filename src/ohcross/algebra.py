"""Shared exact and numeric algebra kernels.

Closed-form cubic and quartic solvers (depression plus resolvent cubic),
the quartic one row-wise over arrays of quartics, and a companion-matrix
numeric root finder. The numeric root finder is deliberately independent
of the closed forms so each side can serve as an oracle for the other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

COEFF_TRIM_REL = 1e-14
ROOT_MERGE_REL = 1e-8
CUBIC_RESIDUAL_REL = 1e-9
QUARTIC_RESIDUAL_REL = 1e-8
NUMERIC_RESIDUAL_REL = 1e-8

_CUBE_ROOT_OF_UNITY = complex(-0.5, math.sqrt(3.0) / 2.0)
_CUBE_ROOT_POWERS = np.array([1.0, _CUBE_ROOT_OF_UNITY, _CUBE_ROOT_OF_UNITY ** 2])


class AlgebraError(ValueError):
    """Base class for kernel failures."""


class DegreeError(AlgebraError):
    """Polynomial degree does not match what the operation requires."""


class ZeroPolynomialError(AlgebraError):
    """All coefficients vanish, so roots are undefined."""


class ResidualError(AlgebraError):
    """A computed root or decomposition failed its residual bound."""


@dataclass(frozen=True)
class Polynomial:
    """Real-coefficient polynomial with coefficients in ascending degree order.

    High-order coefficients whose magnitude is at most 1e-14 times the
    largest coefficient magnitude are trimmed at construction, so the stored
    leading coefficient is always significant. The all-zero polynomial is
    kept as a single zero entry.
    """

    coeffs: tuple

    def __init__(self, coeffs) -> None:
        vals = [float(c) for c in coeffs]
        if not vals:
            vals = [0.0]
        top = max(abs(c) for c in vals)
        if top == 0.0:
            object.__setattr__(self, "coeffs", (0.0,))
            return
        cut = COEFF_TRIM_REL * top
        k = len(vals) - 1
        while k > 0 and abs(vals[k]) <= cut:
            k -= 1
        object.__setattr__(self, "coeffs", tuple(vals[:k + 1]))

    @property
    def degree(self) -> int:
        """Degree after trimming; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    @property
    def max_abs_coeff(self) -> float:
        return max(abs(c) for c in self.coeffs)

    def __call__(self, x):
        acc = 0.0 if not isinstance(x, complex) else complex(0.0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_magnitude(self, x) -> float:
        """Sum of |c_i| |x|^i, the natural residual scale at x."""
        ax = abs(x)
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * ax + abs(c)
        return acc


@dataclass(frozen=True)
class ComplexRootSet:
    """Roots with multiplicities, ordered by (real part, imaginary part).

    Roots closer than 1e-8 relative are merged with summed multiplicity,
    since analytically degenerate roots split under floating point. The
    total multiplicity always equals the polynomial degree.
    """

    roots: tuple
    multiplicities: tuple

    @property
    def count(self) -> int:
        return sum(self.multiplicities)

    def expanded(self) -> list:
        """Roots repeated according to multiplicity."""
        out = []
        for z, m in zip(self.roots, self.multiplicities):
            out.extend([z] * m)
        return out


def merge_roots(raw, merge_rel: float = ROOT_MERGE_REL) -> ComplexRootSet:
    """Cluster near-identical roots and order the result deterministically."""
    pts = sorted((complex(z) for z in raw), key=lambda z: (z.real, z.imag))
    clusters = []  # [root sum, count]
    for z in pts:
        joined = False
        for cl in clusters:
            mean = cl[0] / cl[1]
            tol = merge_rel * max(abs(z), abs(mean))
            if abs(z - mean) <= tol:
                cl[0] += z
                cl[1] += 1
                joined = True
                break
        if not joined:
            clusters.append([z, 1])
    final = sorted(((s / n, n) for s, n in clusters),
                   key=lambda item: (item[0].real, item[0].imag))
    return ComplexRootSet(roots=tuple(z for z, _ in final),
                          multiplicities=tuple(n for _, n in final))


def _check_residuals(poly: Polynomial, roots, rel: float) -> None:
    for z in roots:
        scale = max(poly.max_abs_coeff, poly.eval_magnitude(z))
        if abs(poly(z)) > rel * scale:
            raise ResidualError(
                f"root {z} has residual {abs(poly(z)):.3e}, "
                f"above {rel:.1e} of scale {scale:.3e}")


def _polish(monic_ascending, z, steps: int = 2):
    """Guarded complex Newton steps on a monic polynomial."""
    def val(x):
        acc = complex(0.0)
        for c in reversed(monic_ascending):
            acc = acc * x + c
        return acc

    def deriv(x):
        acc = complex(0.0)
        n = len(monic_ascending) - 1
        for k in range(n, 0, -1):
            acc = acc * x + k * monic_ascending[k]
        return acc

    z = complex(z)
    fz = val(z)
    for _ in range(steps):
        d = deriv(z)
        if d == 0:
            break
        z_new = z - fz / d
        f_new = val(z_new)
        if abs(f_new) >= abs(fz):
            break
        z, fz = z_new, f_new
    return z


def _cubic_monic_roots(a2: float, a1: float, a0: float) -> list:
    """All roots of z^3 + a2 z^2 + a1 z + a0, closed form, complex."""
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2 ** 3 / 27.0 - a2 * a1 / 3.0 + a0
    shift = -a2 / 3.0
    if p == 0.0 and q == 0.0:
        return [complex(shift)] * 3
    sq = cmath.sqrt(complex(q * q / 4.0 + p ** 3 / 27.0))
    u3_plus = -q / 2.0 + sq
    u3_minus = -q / 2.0 - sq
    u3 = u3_plus if abs(u3_plus) >= abs(u3_minus) else u3_minus
    if u3 == 0:
        return [complex(shift)] * 3
    u = u3 ** (1.0 / 3.0)
    out = []
    uk = u
    for _ in range(3):
        out.append(uk - p / (3.0 * uk) + shift)
        uk = uk * _CUBE_ROOT_OF_UNITY
    return out


def solve_cubic(poly: Polynomial) -> ComplexRootSet:
    """Closed-form roots of a degree-3 polynomial.

    Each returned root satisfies |p(root)| <= 1e-9 times the coefficient
    magnitude scale at that root.
    """
    if poly.degree != 3:
        raise DegreeError(f"solve_cubic needs degree 3, got {poly.degree}")
    lead = poly.coeffs[3]
    monic = (poly.coeffs[0] / lead, poly.coeffs[1] / lead,
             poly.coeffs[2] / lead, 1.0)
    roots = _cubic_monic_roots(monic[2], monic[1], monic[0])
    roots = [_polish(monic, z) for z in roots]
    _check_residuals(poly, roots, CUBIC_RESIDUAL_REL)
    return merge_roots(roots)


def _monic_quartic_rows(a, z):
    """Each row of monic quartic coefficients a (N, 4) at z (N, k)."""
    return (((z + a[:, 3:]) * z + a[:, 2:3]) * z + a[:, 1:2]) * z + a[:, :1]


def _polish_quartic_roots(a, z):
    """Two guarded complex Newton steps on rows of monic quartics.

    Row i of `a` holds (a0, a1, a2, a3); z holds that row's root estimates.
    A root keeps a step only if it lowers |p|, and stops at its first
    rejected step. Returns the polished roots and p at them.
    """
    value = _monic_quartic_rows(a, z)
    live = np.ones(z.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(2):
            slope = ((4.0 * z + 3.0 * a[:, 3:]) * z + 2.0 * a[:, 2:3]) * z + a[:, 1:2]
            step = z - value / slope
            step_value = _monic_quartic_rows(a, step)
            live &= np.abs(step_value) < np.abs(value)
            z = np.where(live, step, z)
            value = np.where(live, step_value, value)
    return z, value


def _cubic_monic_roots_rows(a2, a1, a0):
    """Row-wise _cubic_monic_roots: the three roots of each row, (N, 3)."""
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2 ** 3 / 27.0 - a2 * a1 / 3.0 + a0
    shift = (-a2 / 3.0)[:, None]
    sq = np.sqrt((q * q / 4.0 + p ** 3 / 27.0).astype(complex))
    u3_plus = -q / 2.0 + sq
    u3_minus = -q / 2.0 - sq
    u3 = np.where(np.abs(u3_plus) >= np.abs(u3_minus), u3_plus, u3_minus)
    # u3 vanishes exactly when p = q = 0: a triple root at the shift
    triple = (u3 == 0)[:, None]
    uk = (np.where(u3 == 0, 1.0, u3) ** (1.0 / 3.0))[:, None] * _CUBE_ROOT_POWERS
    return np.where(triple, shift, uk - p[:, None] / (3.0 * uk) + shift)


def solve_monic_quartics(a):
    """Closed-form roots of many monic quartics at once.

    Row i of `a` holds (a0, a1, a2, a3) of z^4 + a3 z^3 + a2 z^2 + a1 z + a0.
    Each row is depressed and solved through all three resolvent branches,
    keeping the least-residual one (the biquadratic split stands in for a
    degenerate branch), then gets two guarded complex Newton steps.
    Near-identical roots are not merged. Returns the roots, shape (N, 4),
    and per row the worst |p(root)| over its coefficient magnitude scale;
    rows above 1e-8 fail the residual bound, which the caller enforces.
    Non-finite rows report NaN.
    """
    a = np.asarray(a, dtype=float)
    a0, a1, a2, a3 = a.T
    q = a2 - 3.0 * a3 * a3 / 8.0
    r = a1 - a2 * a3 / 2.0 + a3 ** 3 / 8.0
    s = a0 - a1 * a3 / 4.0 + a2 * a3 * a3 / 16.0 - 3.0 * a3 ** 4 / 256.0
    with np.errstate(all="ignore"):
        zs = _cubic_monic_roots_rows(2.0 * q, q * q - 4.0 * s, -r * r)
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
        res = np.abs(((cand * cand + q3) * cand + r3) * cand + s3).sum(axis=2)
        best = np.argmin(np.where(np.isnan(res), np.inf, res), axis=1)
        us = np.take_along_axis(cand, best[:, None, None], axis=1)[:, 0, :]
        roots, value = _polish_quartic_roots(a, us - (a3 / 4.0)[:, None])
        mag = np.abs(roots)
        coeff_scale = np.maximum(np.abs(a).max(axis=1), 1.0)[:, None]
        term_scale = _monic_quartic_rows(np.abs(a), mag)
        resid = (np.abs(value) / np.maximum(coeff_scale, term_scale)).max(axis=1)
    return roots, resid


def solve_quartic(poly: Polynomial) -> ComplexRootSet:
    """Closed-form roots of a degree-4 polynomial.

    One row through solve_monic_quartics after scaling to monic. Each root
    satisfies |p(root)| <= 1e-8 times the coefficient magnitude scale at
    that root.
    """
    if poly.degree != 4:
        raise DegreeError(f"solve_quartic needs degree 4, got {poly.degree}")
    lead = poly.coeffs[4]
    roots, resid = solve_monic_quartics([[c / lead for c in poly.coeffs[:4]]])
    if not resid[0] <= QUARTIC_RESIDUAL_REL:
        raise ResidualError(
            f"quartic root residual {resid[0]:.3e} is above "
            f"{QUARTIC_RESIDUAL_REL:.1e} of its scale")
    return merge_roots(roots[0])


def numeric_roots(poly: Polynomial) -> ComplexRootSet:
    """All complex roots via companion-matrix eigenvalues.

    Serves as the independent numeric oracle for the closed-form solvers
    and as the general root finder for degrees they do not cover. Each root
    satisfies |p(root)| <= 1e-8 times the coefficient magnitude scale.
    """
    if poly.is_zero:
        raise ZeroPolynomialError("zero polynomial has no defined roots")
    if poly.degree < 1:
        raise DegreeError("numeric_roots needs degree >= 1")
    raw = np.roots(np.array(poly.coeffs[::-1], dtype=float))
    roots = sorted((complex(z) for z in raw), key=lambda z: (z.real, z.imag))
    _check_residuals(poly, roots, NUMERIC_RESIDUAL_REL)
    return merge_roots(roots)

"""Fixed-degree algebra kernels.

Closed-form cubic and quartic solvers (depression plus resolvent cubic)
that work row-wise over arrays of polynomials, one-row calls into them,
and a companion-matrix numeric root finder. The numeric root finder is
deliberately independent of the closed forms so each side can serve as an
oracle for the other. Every polynomial is an array of coefficients in
ascending degree order, and every root set is a plain complex array:
repeated roots are returned as often as they occur, never merged.
"""

from __future__ import annotations

import math

import numpy as np

CUBIC_RESIDUAL_REL = 1e-9
QUARTIC_RESIDUAL_REL = 1e-8
NUMERIC_RESIDUAL_REL = 1e-8

_CUBE_ROOT_OF_UNITY = complex(-0.5, math.sqrt(3.0) / 2.0)
_CUBE_ROOT_POWERS = np.array([1.0, _CUBE_ROOT_OF_UNITY, _CUBE_ROOT_OF_UNITY ** 2])


class AlgebraError(ValueError):
    """Base class for kernel failures."""


class ResidualError(AlgebraError):
    """A computed root or decomposition failed its residual bound."""


def _residuals(coeffs, roots) -> list:
    """|p(z)| at each root of one polynomial over its coefficient magnitude
    scale there, max(max_k |c_k|, sum_k |c_k| |z|^k).

    coeffs are ascending. A plain loop: at eight roots it costs a few
    microseconds, where numpy evaluation costs tens in per-call overhead.
    Non-finite input gives NaN.
    """
    scale = max(abs(c) for c in coeffs)
    out = []
    for z in roots:
        value, magnitude, size = 0j, 0.0, abs(z)
        for c in reversed(coeffs):
            value = value * z + c
            magnitude = magnitude * size + abs(c)
        out.append(abs(value) / max(scale, magnitude))
    return out


def _check(residuals, bound: float, what: str) -> None:
    """Raise ResidualError for the first residual not within bound (NaN
    included)."""
    for resid in residuals:
        if not resid <= bound:
            raise ResidualError(f"{what} root residual {resid:.3e} is above "
                                f"{bound:.1e} of its scale")


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
    """The three roots of each monic cubic z^3 + a2 z^2 + a1 z + a0.

    The coefficients are arrays of one shape, or numpy scalars for a single
    cubic; the roots gain a last axis of length 3.
    """
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2 ** 3 / 27.0 - a2 * a1 / 3.0 + a0
    shift = (-a2 / 3.0)[..., None]
    sq = np.sqrt((q * q / 4.0 + p ** 3 / 27.0).astype(complex))
    u3_plus = -q / 2.0 + sq
    u3_minus = -q / 2.0 - sq
    u3 = np.where(np.abs(u3_plus) >= np.abs(u3_minus), u3_plus, u3_minus)
    # u3 vanishes exactly when p = q = 0: a triple root at the shift
    triple = (u3 == 0)[..., None]
    uk = (np.where(u3 == 0, 1.0, u3) ** (1.0 / 3.0))[..., None] * _CUBE_ROOT_POWERS
    return np.where(triple, shift, uk - p[..., None] / (3.0 * uk) + shift)


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


def solve_monic_cubics(a):
    """Closed-form roots of many monic cubics at once.

    Row i of `a` holds (a0, a1, a2) of z^3 + a2 z^2 + a1 z + a0. Returns the
    roots, shape (N, 3), and each root's |p(root)| over its coefficient
    magnitude scale, max(max_k |c_k|, sum_k |c_k| |root|^k) with the
    leading 1 included; roots above 1e-9 fail the residual bound, which the
    caller enforces. Non-finite rows report NaN.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(all="ignore"):
        roots = _cubic_monic_roots_rows(a[:, 2], a[:, 1], a[:, 0])
        value = ((roots + a[:, 2:]) * roots + a[:, 1:2]) * roots + a[:, :1]
        mag, size = np.abs(a), np.abs(roots)
        terms = ((size + mag[:, 2:]) * size + mag[:, 1:2]) * size + mag[:, :1]
        scale = np.maximum(mag.max(axis=1), 1.0)[:, None]
        resid = np.abs(value) / np.maximum(scale, terms)
    return roots, resid


def solve_quartic(coeffs) -> np.ndarray:
    """Closed-form roots of c0 + c1 z + ... + c4 z^4.

    One row through solve_monic_quartics after scaling to monic. Each root
    satisfies |p(root)| <= 1e-8 times the coefficient magnitude scale at
    that root, or ResidualError is raised; a zero leading coefficient
    fails that bound.
    """
    c = np.asarray(coeffs, dtype=float)
    with np.errstate(all="ignore"):
        roots, resid = solve_monic_quartics((c[:4] / c[4])[None])
    _check(resid, QUARTIC_RESIDUAL_REL, "quartic")
    return roots[0]


def numeric_roots(coeffs) -> np.ndarray:
    """All complex roots of c0 + c1 x + ... + cn x^n from companion-matrix
    eigenvalues.

    Serves as the independent numeric oracle for the closed-form solvers
    and as the root finder of the octic, on its full coefficient array.
    Each root satisfies |p(root)| <= 1e-8 times the coefficient magnitude
    scale at that root, or ResidualError is raised.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size < 2 or c[-1] == 0.0:
        raise AlgebraError("numeric_roots needs degree >= 1 and a nonzero "
                           "leading coefficient")
    roots = np.roots(c[::-1]).astype(complex)
    _check(_residuals(c.tolist(), roots.tolist()), NUMERIC_RESIDUAL_REL, "numeric")
    return roots

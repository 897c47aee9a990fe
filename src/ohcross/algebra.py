"""Fixed-degree algebra kernels.

Closed-form cubic and quartic solvers (depression plus resolvent cubic)
that work row-wise over arrays of polynomials, one polynomial per row,
and a companion-matrix numeric root finder. The numeric root finder is
deliberately independent of the closed forms so each side can serve as an
oracle for the other. Every polynomial is an array of coefficients in
ascending degree order, evaluated by the one `horner` and checked at its
roots by the one `residuals` rule, and every root set is a plain complex
array: repeated roots are returned as often as they occur, never merged.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ValidationError

CUBIC_RESIDUAL_REL = 1e-9
QUARTIC_RESIDUAL_REL = 1e-8
NUMERIC_RESIDUAL_REL = 1e-8

_CUBE_ROOT_OF_UNITY = complex(-0.5, math.sqrt(3.0) / 2.0)
_CUBE_ROOT_POWERS = np.array([1.0, _CUBE_ROOT_OF_UNITY, _CUBE_ROOT_OF_UNITY ** 2])
# the slope of a monic quartic in _monic_rows' layout: a1, 2 a2, 3 a3, 4
_SLOPE_MULTIPLIERS = np.arange(1.0, 5.0)[:, None, None]


class AlgebraError(ValidationError):
    """Base class for kernel failures."""


class ResidualError(AlgebraError):
    """A computed root or decomposition failed its residual bound."""


class RootOverflowError(ResidualError):
    """A residual is not finite: the coefficients or roots overflowed."""


def horner(coeffs, x):
    """c_0 + c_1 x + ... + c_n x^n by Horner's rule. The coefficients are
    ascending along the first axis (a sequence or an array) and each c_k
    broadcasts against x."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


class MonomialTable:
    """Rows ((num, den), {(b, c): (k_0, k_1, ...)}) of integers, each the
    polynomial num / den * sum_d k_d y^b z^c w^d with at least one term.

    A call at y, z, w gives the rows along a new first axis. Powers are
    chains of multiplications and each row sums its terms point by point,
    so a scalar call equals its entry of an array call bit for bit.
    """

    def __init__(self, rows):
        self.rows = rows
        t = np.array([(r, k, b, c, d) for r, (_, row) in enumerate(rows)
                      for (b, c), ks in row.items() for d, k in enumerate(ks) if k])
        self._starts = np.searchsorted(t[:, 0], np.arange(len(rows)))
        self._k, self._b, self._c, self._d = t[:, 1:2] * 1.0, t[:, 2], t[:, 3], t[:, 4]
        self._top = t[:, 2:].max()
        self._num, self._den = np.array([scale for scale, _ in rows]).T[:, :, None] * 1.0

    def __call__(self, y, z, w):
        yzw = np.broadcast_arrays(*(np.asarray(u, dtype=float) for u in (y, z, w)))
        flat = np.reshape(yzw, (3, -1))
        q = np.multiply.accumulate([np.ones_like(flat)] + [flat] * self._top)
        terms = self._k * q[self._b, 0] * (q[self._c, 1] * q[self._d, 2])
        s = self._num * np.add.reduceat(terms, self._starts, axis=0) / self._den
        return s.reshape((len(self.rows),) + yzw[0].shape)


def residuals(coeffs, roots, value=None):
    """|p(z)| at each root over its coefficient magnitude scale there,
    max(max_k |c_k|, sum_k |c_k| |z|^k), for a coefficient array laid out
    as in horner; value is horner(coeffs, roots) where the caller already
    has it. Non-finite input gives NaN."""
    c = np.asarray(coeffs)
    mag = np.abs(c)
    with np.errstate(all="ignore"):
        if value is None:
            value = horner(c, roots)
        return np.abs(value) / np.maximum(mag.max(axis=0), horner(mag, np.abs(roots)))


def _check(values, bound: float, what: str) -> None:
    """Raise ResidualError for the first residual not within bound,
    RootOverflowError if it is not finite."""
    for resid in values:
        if not resid <= bound:
            raise (ResidualError if math.isfinite(resid) else RootOverflowError)(
                f"{what} root residual {resid:.3e} is above {bound:.1e} of its scale")


def _monic_rows(a):
    """Rows (a_0, ..., a_{n-1}) of monic polynomials as the ascending
    coefficients of horner, leading 1 included, shaped (n + 1, N, 1) to
    broadcast against roots of shape (N, k)."""
    return np.concatenate([a.T, np.ones((1, len(a)))])[:, :, None]


def _polish_quartic_roots(c, z):
    """Two guarded complex Newton steps on rows of monic quartics.

    c holds the quartics as _monic_rows gives them; z holds each row's root
    estimates and is overwritten. A root keeps a step only if it lowers |p|,
    and stops at its first rejected step. Returns the polished roots and p
    at them. The caller sets the floating-point error state.
    """
    slope_c = c[1:] * _SLOPE_MULTIPLIERS
    value = horner(c, z)
    live = np.ones(z.shape, dtype=bool)
    for _ in range(2):
        step = z - value / horner(slope_c, z)
        step_value = horner(c, step)
        live &= np.abs(step_value) < np.abs(value)
        np.copyto(z, step, where=live)
        np.copyto(value, step_value, where=live)
    return z, value


def _cubic_monic_roots_rows(a2, a1, a0):
    """The three roots of each monic cubic z^3 + a2 z^2 + a1 z + a0, from
    coefficient arrays of one shape, along a new last axis of length 3."""
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2 ** 3 / 27.0 - a2 * a1 / 3.0 + a0
    shift = (-a2 / 3.0)[..., None]
    sq = np.sqrt((q * q / 4.0 + p ** 3 / 27.0).astype(complex))
    u3_plus = -q / 2.0 + sq
    u3_minus = -q / 2.0 - sq
    u3 = np.where(np.abs(u3_plus) >= np.abs(u3_minus), u3_plus, u3_minus)
    # u3 vanishes exactly when p = q = 0: a triple root at the shift
    triple = u3 == 0
    any_triple = triple.any()
    if any_triple:
        u3 = np.where(triple, 1.0, u3)
    uk = (u3 ** (1.0 / 3.0))[..., None] * _CUBE_ROOT_POWERS
    roots = uk - p[..., None] / (3.0 * uk) + shift
    return np.where(triple[..., None], shift, roots) if any_triple else roots


def solve_monic_quartics(a):
    """Closed-form roots of many monic quartics at once.

    Row i of `a` holds (a0, a1, a2, a3) of z^4 + a3 z^3 + a2 z^2 + a1 z + a0.
    Each row is depressed and solved through all three resolvent branches,
    whose candidates share one (N, 3, 4) array, keeping the least-residual
    one (the biquadratic split, built only when some branch is degenerate,
    stands in for it), then gets two guarded complex Newton steps.
    Near-identical roots are not merged. Returns the roots, shape (N, 4),
    and per row the worst of their residuals; rows above 1e-8 fail the
    residual bound, which the caller enforces. Non-finite rows report NaN.
    """
    a = np.asarray(a, dtype=float)
    a0, a1, a2, a3 = a.T
    with np.errstate(all="ignore"):
        q = a2 - 3.0 * a3 * a3 / 8.0
        r = a1 - a2 * a3 / 2.0 + a3 ** 3 / 8.0
        s = a0 - a1 * a3 / 4.0 + a2 * a3 * a3 / 16.0 - 3.0 * a3 ** 4 / 256.0
        zs = _cubic_monic_roots_rows(2.0 * q, q * q - 4.0 * s, -r * r)
        proot = np.sqrt(zs)
        pp, neg = proot * proot, -proot
        qz, rp = q[:, None] + zs, r[:, None] / proot
        b1, b2 = (qz - rp) / 2.0, (qz + rp) / 2.0
        d1 = np.sqrt(pp - 4.0 * b1)
        d2 = np.sqrt(pp - 4.0 * b2)
        # the candidates of each branch; a degenerate branch takes the split
        cand = np.empty(zs.shape + (4,), dtype=complex)
        cand[..., 0] = (neg + d1) / 2.0
        cand[..., 1] = (neg - d1) / 2.0
        cand[..., 2] = (proot + d2) / 2.0
        cand[..., 3] = (proot - d2) / 2.0
        qscale = np.sqrt(np.maximum(np.maximum(np.abs(q), np.sqrt(np.abs(s))), 1e-300))
        degenerate = np.abs(proot) < 1e-9 * qscale[:, None]
        if degenerate.any():
            disc = np.sqrt((q * q - 4.0 * s).astype(complex))
            ra = np.sqrt((-q + disc) / 2.0)
            rb = np.sqrt((-q - disc) / 2.0)
            split = np.stack([ra, -ra, rb, -rb], axis=1)[:, None, :]
            np.copyto(cand, split, where=degenerate[:, :, None])
        q3, r3, s3 = q[:, None, None], r[:, None, None], s[:, None, None]
        res = np.abs(horner((s3, r3, q3, 0.0, 1.0), cand)).sum(axis=2)
        best = np.argmin(np.where(np.isnan(res), np.inf, res), axis=1)
        c = _monic_rows(a)
        roots, value = _polish_quartic_roots(
            c, cand[np.arange(len(best)), best] - (a3 / 4.0)[:, None])
    return roots, residuals(c, roots, value).max(axis=1)


def solve_monic_cubics(a):
    """Closed-form roots of many monic cubics at once.

    Row i of `a` holds (a0, a1, a2) of z^3 + a2 z^2 + a1 z + a0. Returns the
    roots, shape (N, 3), and their residuals; roots above 1e-9 fail the
    residual bound, which the caller enforces. Non-finite rows report NaN.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(all="ignore"):
        roots = _cubic_monic_roots_rows(a[:, 2], a[:, 1], a[:, 0])
    return roots, residuals(_monic_rows(a), roots)


def numeric_roots(coeffs) -> np.ndarray:
    """All complex roots of c0 + c1 x + ... + cn x^n from companion-matrix
    eigenvalues.

    Serves as the independent numeric oracle for the closed-form solvers
    and as the root finder of the octic, on its full coefficient array.
    Each root's residual must be within 1e-8, or ResidualError is raised.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size < 2 or c[-1] == 0.0:
        raise AlgebraError("numeric_roots needs degree >= 1 and a nonzero "
                           "leading coefficient")
    roots = np.roots(c[::-1]).astype(complex)
    _check(residuals(c, roots), NUMERIC_RESIDUAL_REL, "numeric")
    return roots

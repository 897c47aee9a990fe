"""Level energies of the eight-state model, closed form and numeric.

The characteristic polynomial of the field Hamiltonian contains only even
powers because the spectrum is symmetric about zero. That reduces the
degree-8 problem to a quartic in lambda^2. Written in the shift
u = lambda^2 - (delta_tilde/10)^2 its coefficients are short polynomials
in the squared scaled fields, frozen below, and every one below the
leading term vanishes at zero field, so weak fields lose nothing to
cancellation. LAPACK's symmetric eigensolver on the same matrix is the one
independent numeric route, used both as the oracle for the closed form and
to measure gaps near crossings.

Both routes run on whole arrays of field points. The closed form evaluates
the frozen coefficients and solves the quartics row-wise. The numeric
route only measures: it takes a stack of matrices, formed by the
hamiltonian module, into one eigvalsh call (eigh for the derivatives).
"""

from __future__ import annotations

import numpy as np

from .algebra import (QUARTIC_RESIDUAL_REL, ResidualError, RootOverflowError,
                      _raise_first, solve_monic_quartics)
from .hamiltonian import DH_DB_TILDE
from .model import ValidationError

# At a level crossing the quartic has a double root, which backward error
# of order eps in the coefficients splits into a conjugate pair with
# imaginary part of order sqrt(eps) ~ 1.5e-8 relative. The reality check
# must clear that noise floor; genuine asymmetry faults show up at O(1).
IMAG_ROOT_REL = 1e-6
NEGATIVE_ROOT_REL = 1e-6

# Added to the level splittings lambda_i - lambda_k, the infinite diagonal
# drops the k = i term of the curvature sums
_NO_SELF_TERM = np.diag(np.full(8, np.inf))
_NO_SELF_TERM.setflags(write=False)


class SpectrumError(ValidationError):
    """Raised when spectrum computation breaks one of its contracts."""


class HermiticityViolationError(SpectrumError):
    """Quartic roots came out complex or negative beyond tolerance.

    For a real symmetric Hamiltonian every m = lambda^2 root must be real
    and nonnegative, so a violation indicates corrupted input or a solver
    fault rather than physics.
    """


def shifted_quartic_coefficients(b_tilde, e_tilde, delta_tilde, theta) -> np.ndarray:
    """Monic quartic of det(lambda I - H) in u = lambda^2 - (delta_tilde/10)^2.

    The scaled inputs broadcast against each other; the last axis of the
    result holds (a0, a1, a2, a3) of u^4 + a3 u^3 + a2 u^2 + a1 u + a0.
    They are polynomials in x = b_tilde^2, y = e_tilde^2, z = delta_tilde^2
    and w = cos^2 theta, derived symbolically from the 8x8 matrix (the
    tests re-derive them with sympy), and all four vanish at zero field.
    """
    x, y, z = (np.asarray(v, dtype=float) ** 2 for v in (b_tilde, e_tilde, delta_tilde))
    w = np.cos(theta) ** 2
    a3 = -(x + y) / 5.0
    a2 = (59.0 * x * x - 164.0 * w * x * y - 20.0 * x * z + 118.0 * x * y
          + 59.0 * y * y) / 5000.0
    a1 = -3.0 * (15.0 * x ** 3 - 60.0 * w * x * x * y - 12.0 * x * x * z
                 + 45.0 * x * x * y + 32.0 * w * x * y * z - 60.0 * w * x * y * y
                 - 44.0 * x * y * z + 45.0 * x * y * y + 15.0 * y ** 3) / 250000.0
    a0 = 9.0 * (9.0 * x ** 4 - 72.0 * w * x ** 3 * y - 40.0 * x ** 3 * z
                + 36.0 * x ** 3 * y + 144.0 * w * w * x * x * y * y
                + 32.0 * w * x * x * y * z - 144.0 * w * x * x * y * y
                + 16.0 * x * x * z * z + 48.0 * x * x * y * z + 54.0 * x * x * y * y
                + 128.0 * w * x * y * y * z - 72.0 * w * x * y ** 3
                - 168.0 * x * y * y * z + 36.0 * x * y ** 3 + 9.0 * y ** 4) / 1e8
    return np.stack(np.broadcast_arrays(a0, a1, a2, a3), axis=-1)


def lambda_squared_rows(a, shift) -> np.ndarray:
    """The four lambda^2 = u + shift of each row of monic quartics in u.

    Row i of `a` holds (a0, a1, a2, a3); `shift` broadcasts against the
    rows. Roots come from the closed-form quartic and must meet its 1e-8
    residual bound (RootOverflowError where the residual is not finite);
    each lambda^2 must be real and nonnegative to 1e-6 of the largest.
    They are then clamped at zero and returned ascending, shape (N, 4). If
    any row fails, the lowest failing row raises, as it would alone: the
    residual bound before the reality and sign checks.
    """
    roots, resid = solve_monic_quartics(a)
    m = roots + np.reshape(shift, (-1, 1))
    scale = np.abs(m).max(axis=1, keepdims=True)
    live = scale > 0.0
    imag = live & ~(np.abs(m.imag) <= IMAG_ROOT_REL * scale)
    off_sign = imag | (live & (m.real < -NEGATIVE_ROOT_REL * scale))
    j = np.argmax(off_sign, axis=1)
    _raise_first((
        (~np.isfinite(resid), lambda i: RootOverflowError(
            "lambda^2 quartic overflows in double precision")),
        (~(resid <= QUARTIC_RESIDUAL_REL), lambda i: ResidualError(
            f"lambda^2 root residual {resid[i]:.3e} is above "
            f"{QUARTIC_RESIDUAL_REL:.1e} of its scale")),
        (off_sign.any(axis=1), lambda i: HermiticityViolationError(
            f"lambda^2 root {complex(m[i, j[i]])} "
            f"{'has a non-real part' if imag[i, j[i]] else 'is negative'} "
            "beyond tolerance")),
    ))
    return np.sort(np.maximum(m.real, 0.0), axis=1)


def analytic_spectrum(b_tilde, e_tilde, delta_tilde, theta) -> np.ndarray:
    """Closed-form levels at many field points, shape (N, 8), descending.

    The scaled inputs (see ScaledParameters) broadcast against each other
    and are flattened to N points. Every point passes the checks of the
    closed-form route; if any fails, the error of the first failing point
    is raised. At b_tilde = 0 the spectrum is exact for any E and theta:
    lambda^2 takes the values (delta/10)^2 + (e/10)^2 and
    (delta/10)^2 + 9 (e/10)^2, each twice, which the quartic could only
    approach through sqrt(eps)-split double roots.
    """
    b, e, d, th = (x.ravel() for x in np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (b_tilde, e_tilde, delta_tilde, theta))))
    if not np.all(d > 0.0):
        raise ValueError("delta_tilde must be strictly positive")
    half = np.empty((b.size, 4))
    zero = b == 0.0
    field = slice(None)
    if zero.any():
        inner = np.hypot(d[zero] / 10.0, e[zero] / 10.0)
        outer = np.hypot(d[zero] / 10.0, 3.0 * e[zero] / 10.0)
        half[zero] = np.stack([inner, inner, outer, outer], axis=1)
        field = ~zero
    # coefficients past the float range fail lambda_squared_rows' residual
    with np.errstate(over="ignore", invalid="ignore"):
        a = shifted_quartic_coefficients(b[field], e[field], d[field], th[field])
    half[field] = np.sqrt(lambda_squared_rows(a, (d[field] / 10.0) ** 2))
    return np.concatenate([half[:, ::-1], -half], axis=1)


def numeric_levels(h) -> np.ndarray:
    """The levels of one matrix or a stack (..., 8, 8) by LAPACK eigvalsh,
    descending along the last axis: the one numeric route, independent of
    the closed form. A row of a stack equals the one-matrix call bit for
    bit."""
    return np.linalg.eigvalsh(h)[..., ::-1]


def numeric_level_derivatives(h) -> tuple:
    """b_tilde slopes v_i^T Z' v_i and curvatures 2 sum_{k!=i} (v_k^T Z' v_i)^2
    / (lambda_i - lambda_k) (Z' = diag(DH_DB_TILDE)) of the levels, descending,
    of one matrix or a stack (..., 8, 8) by one stacked eigh; (..., 8) each,
    not finite where levels meet."""
    levels, v = (a[..., ::-1] for a in np.linalg.eigh(h))
    couplings = np.swapaxes(v, -1, -2) @ (DH_DB_TILDE[:, None] * v)
    splits = levels[..., None, :] - levels[..., :, None] + _NO_SELF_TERM
    with np.errstate(divide="ignore", invalid="ignore"):
        curvatures = 2.0 * (couplings ** 2 / splits).sum(axis=-2)
    return np.diagonal(couplings, axis1=-2, axis2=-1), curvatures

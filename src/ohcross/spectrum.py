"""Level energies of the eight-state model, closed form and numeric.

The characteristic polynomial of the field Hamiltonian contains only even
powers because the spectrum is symmetric about zero. That reduces the
degree-8 problem to a quartic in m = lambda^2, which the closed-form
quartic solver handles. LAPACK's symmetric eigensolver on the same matrix
is the one independent numeric route, used both as the oracle for the
closed form and to measure gaps near crossings.

Both routes run on whole arrays of field points. Along B the matrix is
H = H0 + (b_tilde/10) Z, with H0 built once per distinct (E, delta, theta),
Z the fixed Zeeman diagonal, and H bit for bit build_hamiltonian's for
b_tilde >= 0. A numeric sweep is one stacked eigvalsh call; a closed-form
one is stacked matrix products, a row-wise quartic solve and a determinant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (QUARTIC_RESIDUAL_REL, Polynomial, ResidualError,
                      polish_quartic_roots, solve_monic_quartics)
from .hamiltonian import ZEEMAN_DIAGONAL, build_hamiltonian
from .model import ScaledParameters

ODD_COEFF_REL = 1e-9
CONSTANT_TERM_REL = 1e-10
# At a level crossing the even quartic has a double root, which backward
# error of order eps in the coefficients splits into a conjugate pair with
# imaginary part of order sqrt(eps) ~ 1.5e-8 relative. The reality check
# must clear that noise floor; genuine asymmetry faults show up at O(1).
IMAG_ROOT_REL = 1e-6
NEGATIVE_ROOT_REL = 1e-6
DET_REFINE_RATIO = 1e-6

_DIAG = np.arange(8)


class SpectrumError(ValueError):
    """Raised when spectrum computation breaks one of its contracts."""


class HermiticityViolationError(SpectrumError):
    """Quartic roots came out complex or negative beyond tolerance.

    For a real symmetric Hamiltonian every m = lambda^2 root must be real
    and nonnegative, so a violation indicates corrupted input or a solver
    fault rather than physics.
    """


def _raise_first(failures) -> None:
    """Raise for the lowest failing row, as a point-by-point pass would.

    `failures` lists (bad rows mask, error for row i) pairs in the order
    the checks run; at the lowest failing row the earliest check wins.
    """
    first = None
    for bad, error in failures:
        rows = np.flatnonzero(bad)
        if rows.size and (first is None or rows[0] < first[0]):
            first = (rows[0], error)
    if first is not None:
        raise first[1](first[0])


def _coefficient_failures(c) -> list:
    """Monic and odd-coefficient checks on rows of 9 ascending coefficients."""
    top = np.abs(c).max(axis=1, keepdims=True)
    odd = ~(np.abs(c[:, 1::2]) <= ODD_COEFF_REL * top)

    def odd_error(i):
        k = 2 * int(np.argmax(odd[i])) + 1
        return SpectrumError(f"odd coefficient at degree {k} is {c[i, k]:.3e}, "
                             "spectrum symmetry violated")

    return [(~(np.abs(c[:, 8] - 1.0) <= 1e-12),
             lambda i: SpectrumError("characteristic polynomial must be monic")),
            (odd.any(axis=1), odd_error)]


@dataclass(frozen=True)
class CharPoly:
    """Characteristic polynomial det(lambda I - H), ascending coefficients.

    Always degree 8 and monic. Odd coefficients must vanish (the spectrum
    is symmetric about zero); they are checked against 1e-9 of the largest
    coefficient magnitude and then usable terms live at even indices only.
    """

    coeffs: tuple

    def __post_init__(self) -> None:
        if len(self.coeffs) != 9:
            raise SpectrumError("characteristic polynomial must have 9 coefficients")
        _raise_first(_coefficient_failures(np.array([self.coeffs], dtype=float)))

    def even_part(self) -> Polynomial:
        """Quartic in m = lambda^2 carrying the full spectral content."""
        return Polynomial(self.coeffs[0::2])


def _charpoly_rows(h, failures) -> np.ndarray:
    """Faddeev-LeVerrier on a stack of 8x8 matrices, one matmul per degree.

    Returns (N, 9) ascending coefficients and appends the checks to
    `failures`: the constant term against LAPACK's determinant to 1e-10
    relative, then the monic and odd-coefficient checks.
    """
    c = np.zeros((len(h), 9))
    c[:, 8] = 1.0
    m = h
    for k in range(1, 9):
        c[:, 8 - k] = -np.trace(m, axis1=1, axis2=2) / k
        if k < 8:
            acc = m.copy()
            acc[:, _DIAG, _DIAG] += c[:, 8 - k, None]
            m = h @ acc
    det = np.linalg.det(h)
    scale = np.maximum(np.maximum(np.abs(c[:, 0]), np.abs(det)), 1.0)
    failures.append((
        ~(np.abs(c[:, 0] - det) <= CONSTANT_TERM_REL * scale),
        lambda i: SpectrumError(f"constant term {c[i, 0]:.6e} disagrees with "
                                f"determinant {det[i]:.6e}")))
    failures.extend(_coefficient_failures(c))
    return c


def characteristic_polynomial(h) -> CharPoly:
    """Coefficients of det(lambda I - H) by the Faddeev-LeVerrier recurrence.

    The constant term is cross-checked against LAPACK's determinant to
    1e-10 relative before the result is returned.
    """
    mat = np.asarray(h, dtype=float)
    if mat.shape != (8, 8):
        raise SpectrumError("expected an 8x8 matrix")
    failures = []
    c = _charpoly_rows(mat[None], failures)
    _raise_first(failures)
    return CharPoly(coeffs=tuple(c[0].tolist()))


@dataclass(frozen=True)
class Spectrum:
    """All eight level energies in internal GHz units, sorted descending."""

    lambdas: tuple
    params: ScaledParameters

    def __post_init__(self) -> None:
        if len(self.lambdas) != 8:
            raise SpectrumError("spectrum must hold exactly 8 levels")
        for lo, hi in zip(self.lambdas[1:], self.lambdas[:-1]):
            if lo > hi:
                raise SpectrumError("levels must be sorted descending")

    def level(self, label: int) -> float:
        """Energy of level `label`, counted 1..8 from the top."""
        if not 1 <= label <= 8:
            raise SpectrumError(f"level label must be 1..8, got {label}")
        return self.lambdas[label - 1]


def _lambda_squared_rows(c, failures) -> np.ndarray:
    """The four m = lambda^2 values of each row of coefficients, ascending.

    Roots come from the closed-form quartic, must be real and nonnegative
    to 1e-6 of the largest root, get up to three Newton steps on the
    quartic (each kept only if it lowers |f|), are clamped at zero, and
    the smallest is refined through the determinant product identity when
    it is more than six orders below the largest (the quartic solve loses
    relative accuracy exactly there).
    """
    quart = c[:, 0:8:2]
    roots, resid = solve_monic_quartics(quart)
    failures.append((
        ~(resid <= QUARTIC_RESIDUAL_REL),
        lambda i: ResidualError(f"lambda^2 root residual {resid[i]:.3e} is above "
                                f"{QUARTIC_RESIDUAL_REL:.1e} of its scale")))
    scale = np.abs(roots).max(axis=1, keepdims=True)
    live = scale > 0.0
    imag = live & ~(np.abs(roots.imag) <= IMAG_ROOT_REL * scale)
    negative = live & (roots.real < -NEGATIVE_ROOT_REL * scale)

    def root_error(i):
        j = int(np.argmax(imag[i] | negative[i]))
        what = "has a non-real part" if imag[i, j] else "is negative"
        return HermiticityViolationError(
            f"lambda^2 root {complex(roots[i, j])} {what} beyond tolerance")

    failures.append(((imag | negative).any(axis=1), root_error))
    m, _ = polish_quartic_roots(quart, roots.real, 3)
    m = np.sort(np.maximum(m, 0.0), axis=1)
    others = m[:, 1] * m[:, 2] * m[:, 3]
    # det(H) equals the product of the four lambda^2 values
    refine = (m[:, 3] > 0.0) & (m[:, 0] < DET_REFINE_RATIO * m[:, 3]) & (others > 0.0)
    m[refine, 0] = np.maximum(c[refine, 0] / others[refine], 0.0)
    return m


def eigenvalues_from_charpoly(cp: CharPoly) -> list:
    """The four m = lambda^2 values, ascending, via the closed-form quartic.

    The same route and checks as every row of analytic_spectrum.
    """
    failures = []
    m = _lambda_squared_rows(np.array([cp.coeffs], dtype=float), failures)
    _raise_first(failures)
    return m[0].tolist()


def _along_b(h0, b_tilde) -> np.ndarray:
    """H0 + (b_tilde/10) Z stacked over b_tilde; h0 is one matrix or one per
    b_tilde. Below b_tilde = 0 it writes +0.0 where build_hamiltonian has -0.0."""
    b = np.asarray(b_tilde, dtype=float)
    h = np.empty(b.shape + (8, 8))
    h[...] = h0
    h[..., _DIAG, _DIAG] += (b / 10.0)[..., None] * ZEEMAN_DIAGONAL
    return h


def analytic_spectrum(b_tilde, e_tilde, delta_tilde, theta) -> np.ndarray:
    """Closed-form levels at many field points, shape (N, 8), descending.

    The scaled inputs (see ScaledParameters) broadcast against each other
    and are flattened to N points. Every point passes the checks of the
    closed-form route; if any fails, the error of the first failing point
    is raised. At b_tilde = 0 the spectrum is exact for any E and theta:
    lambda^2 takes the values (delta/10)^2 + (e/10)^2 and
    (delta/10)^2 + 9 (e/10)^2, each twice, which the quartic route could
    only approach through sqrt(eps)-split double roots.
    """
    b, e, d, th = (x.ravel() for x in np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (b_tilde, e_tilde, delta_tilde, theta))))
    if not np.all(d > 0.0):
        raise ValueError("delta_tilde must be strictly positive")
    half = np.empty((b.size, 4))
    zero = b == 0.0
    inner = np.hypot(d[zero] / 10.0, e[zero] / 10.0)
    outer = np.hypot(d[zero] / 10.0, 3.0 * e[zero] / 10.0)
    half[zero] = np.stack([inner, inner, outer, outer], axis=1)
    field = ~zero
    if field.any():
        keys, which = np.unique(np.stack([e[field], d[field], th[field]], axis=1),
                                axis=0, return_inverse=True)
        h0 = np.stack([build_hamiltonian(ScaledParameters(0.0, *k))
                       for k in keys.tolist()])
        h = _along_b(h0[which.reshape(-1)], b[field])
        failures = []
        m = _lambda_squared_rows(_charpoly_rows(h, failures), failures)
        _raise_first(failures)
        half[field] = np.sqrt(m)
    return np.concatenate([half[:, ::-1], -half], axis=1)


def analytic_eigenvalues(params: ScaledParameters) -> Spectrum:
    """Closed-form spectrum at the given scaled field configuration."""
    lams = analytic_spectrum(params.b_tilde, params.e_tilde,
                             params.delta_tilde, params.theta)[0]
    return Spectrum(lambdas=tuple(lams.tolist()), params=params)


def numeric_levels(params: ScaledParameters) -> np.ndarray:
    """The eight levels by LAPACK eigvalsh, descending, independent of the
    closed form, as a bare array."""
    return np.linalg.eigvalsh(build_hamiltonian(params))[::-1]


def numeric_levels_along_b(h0, b_tilde) -> np.ndarray:
    """numeric_levels, bit for bit, at an array of b_tilde >= 0 from h0 (the
    matrix at b_tilde = 0) in one stacked eigvalsh call; shape (..., 8)."""
    return np.linalg.eigvalsh(_along_b(h0, b_tilde))[..., ::-1]


def numeric_eigenvalues(params: ScaledParameters) -> Spectrum:
    """numeric_levels as a Spectrum, the oracle for analytic_eigenvalues."""
    return Spectrum(lambdas=tuple(numeric_levels(params).tolist()), params=params)


def eigenvalue_at(params: ScaledParameters, label: int) -> float:
    """Single level energy, label counted 1..8 from the top level down."""
    return analytic_eigenvalues(params).level(label)

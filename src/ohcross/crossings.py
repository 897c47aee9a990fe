"""Location and classification of level crossings in the magnetic field.

Two discriminant factors carry all crossing information as functions of
x = b_tilde^2. The quartic factor governs the pair of levels that meet at
zero energy: its real roots are exact crossings and its complex roots mark
avoided ones, located through a resolvent-cubic closed form. The octic
factor covers the remaining adjacent-pair crossings and is rooted
numerically, or through reduced closed forms at the parallel and
perpendicular geometries where it collapses.

Every candidate is validated against the spectrum of one zero-field
matrix: one stacked eigensolve measures all seeds, then a coarse scan
around each open seed measures every 10th grid point and then only the
points that a first-order (Lipschitz) and a second-order (curvature) lower
bound on the gap cannot rule out, and lockstep Newton steps on the gap's
slope find its interior gap minimum. Seeds without such a minimum are discarded.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (CUBIC_RESIDUAL_REL, QUARTIC_RESIDUAL_REL, RootOverflowError,
                      _check, horner, numeric_roots, solve_monic_cubics,
                      solve_monic_quartics)
from .discriminant import (REL_FLOOR, _special_angle_quartics,
                           f1_quartic_coefficients, g_coefficients)
from .hamiltonian import DH_DB_TILDE, along_b, build_hamiltonian
from .model import ScaledParameters, ValidationError, b_field_from_tilde
from .spectrum import numeric_level_derivatives, numeric_levels

# Measured pair gap below this (internal GHz) classifies a crossing as exact.
GAP_CLASSIFICATION_THRESHOLD = 1e-7

# Gaps below this (internal GHz) sit at the eigensolver noise level and are
# reported as exactly zero.
GAP_MEASUREMENT_FLOOR = 1e-12

# |x| below this fraction of the largest root magnitude snaps to x = 0.
ROOT_SNAP_REL = 1e-9

# Imaginary parts below this fraction of |x| are treated as rounding noise.
IMAG_SNAP_REL = 1e-7

# Roots closer than this fraction of their magnitude are one repeated root.
ROOT_MERGE_REL = 1e-8

# A resolvent value below this fraction of |q| takes one Newton step on
# the resolvent cubic before it enters the first-crossing composition.
RESOLVENT_NEWTON_REL = 1e-2

# Half width, in the internal field variable, of the gap-minimum search.
SEARCH_HALF_WIDTH_TILDE = 0.15

# Records of the same level pair closer than this (tesla) are duplicates.
DEDUPE_B_TESLA = 1e-6

_COARSE_POINTS = 81
# _coarse_minimum's first round measures every _SCAN_STRIDE-th grid point
_SCAN_STRIDE = 10
# Lipschitz constant of a pair gap in b_tilde: the spread of dH/d(b_tilde)
_GAP_LIPSCHITZ = DH_DB_TILDE.max() - DH_DB_TILDE.min()
# a pair gap's curvature is at least -_CURVATURE (1/s_up + 1/s_down)
_CURVATURE = _GAP_LIPSCHITZ ** 2 / 2.0
_NEWTON_TOL_TESLA = 1e-13

# Adjacent same-sign level pairs tracked by the octic factor (1-based).
_ADJACENT_PAIRS = ((1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8))

_SPECIAL_ANGLE_TOL = 1e-12


class CrossingError(ValidationError):
    """Base class for crossing-analysis failures."""


class NoCriticalFieldError(CrossingError):
    """The critical electric field does not exist at this angle."""


class BranchError(CrossingError):
    """Closed-form resolvent branch disagrees with the numeric cubic root."""


class ResolventMismatchError(CrossingError):
    """The two quartic-discriminant routes disagree beyond tolerance."""


@dataclass(frozen=True)
class ResolventData:
    """Depressed-quartic data and the resolvent-cubic root for the f1 factor.

    Each field is a float, or an array of the inputs' broadcast shape.

    q, r, s     depressed coefficients after removing the cubic term
    delta_c     quartic discriminant, closed product form
    g_c         the strictly positive polynomial factor inside delta_c
    c_r         the branch-resolved resolvent value entering the location
                composition (a quarter of the largest real cubic root)
    d_b         real part of the principal-branch cube-root kernel
    """

    q: float
    r: float
    s: float
    delta_c: float
    g_c: float
    c_r: float
    d_b: float


def _depressed(e_tilde, delta_tilde, theta) -> tuple:
    """Depressed coefficients q, r, s of the f1 quartic, and q^2 - 4s.

    All four are written in S = sin^2 theta (tests re-derive them with
    sympy). r and q^2 - 4s keep their exact factor S, so neither is left to
    cancel out of c0..c6 near parallel fields, and r keeps its factor
    d^2 + e^2 - 4 S e^2, which vanishes exactly at the critical field.
    """
    e2, d2 = e_tilde * e_tilde, delta_tilde * delta_tilde
    d4 = d2 * d2
    se2 = np.sin(theta) ** 2 * e2
    u = se2 * (se2 - e2)  # S^2 e^4 - S e^4
    q = -8.0 / 81.0 * (81.0 * u - 189.0 * d2 * se2 + 4.0 * d4)
    r = 128.0 / 9.0 * d2 * se2 * (d2 + e2 - 4.0 * se2)
    s = 16.0 / 6561.0 * (6561.0 * u * u + 16038.0 * d2 * se2 ** 3
                         - 8991.0 * d4 * se2 * se2 - 4374.0 * d2 * e2 * se2 * se2
                         + 1080.0 * d4 * d2 * se2 + 1944.0 * d4 * e2 * se2
                         + 16.0 * d4 * d4)
    disc = -1024.0 / 81.0 * d2 * se2 * (36.0 * se2 * se2 - 35.0 * d2 * se2
                                         - 27.0 * e2 * se2 + 2.0 * d4 + 2.0 * d2 * e2)
    return q, r, s, disc


def _first_crossing(e_tilde, delta_tilde, theta) -> tuple:
    """resolvent_analysis and b1_exact_tilde in one array pass.

    Returns the inputs' broadcast shape, the seven ResolventData fields and
    b1, each flat over the points (a scalar runs as one point, so it gives
    the same bits alone as in a sweep). The lowest failing point raises
    its first failing check, in this order: a non-finite value, the
    discriminant routes, the confirming cubic's residual bound, a real
    cubic root, branch agreement, and the composed root in the quartic.
    """
    args = np.broadcast_arrays(e_tilde, delta_tilde, theta)
    e, d, th = (np.ravel(a).astype(float) for a in args)
    with np.errstate(all="ignore"):
        q, r, s, disc = _depressed(e, d, th)
        sin2 = np.sin(th) ** 2
        e2, d2 = e * e, d * d
        g_c = (32.0 * d2 ** 3 + 32.0 * e2 * d2 * d2 * (1.0 + 23.0 * sin2)
               + 1152.0 * e2 * e2 * d2 * sin2 * (3.0 + sin2)
               + 2592.0 * e2 ** 3 * sin2 * np.cos(th) ** 4)
        delta_c = (-(2.0 / 3.0) ** 2 * (32.0 / 3.0) ** 9 * (d * e2) ** 4
                   * (d2 + 9.0 * e2) ** 3 * sin2 ** 4 * g_c)
        big_c = 2.0 * q ** 3 - 72.0 * q * s + 27.0 * r * r
        big_p = q * q + 12.0 * s
        delta_generic = 2.0 ** 24 * (big_c * big_c - 4.0 * big_p ** 3)
        scale = 2.0 ** 24 * np.maximum(big_c * big_c, 4.0 * np.abs(big_p) ** 3)

        # principal-branch cube-root composition of the resolvent value
        inner = (12.0 * q ** 3 * r * r + 81.0 * r ** 4
                 - 48.0 * q * (q ** 3 + 9.0 * r * r) * s
                 + 384.0 * q * q * s * s - 768.0 * s ** 3)
        kernel = ((2.0 / 3.0) * q ** 3 + 9.0 * r * r - 24.0 * q * s
                  + np.sqrt(inner.astype(complex)))
        d_b = 3.0 ** (1.0 / 3.0) * kernel ** (1.0 / 3.0)
        lim_scale = np.maximum(np.maximum(np.abs(q), np.sqrt(np.abs(s))),
                               np.abs(r) ** (2.0 / 3.0))
        c_r = (2.0 ** (1.0 / 3.0) * (2.0 * q * q + 24.0 * s) / (24.0 * d_b)
               + 2.0 ** (2.0 / 3.0) * d_b / 24.0).real - q / 6.0

        # Near the critical field c_r tends to zero under about eps |q| of
        # noise. One Newton step on the resolvent cubic z^3 + 2q z^2 +
        # (q^2 - 4s) z - r^2 from z = 4 c_r removes it, and the cubic then
        # gives |r| / (4 sqrt(c_r)) as sqrt((z + q)^2 - 4s) / 2, with no 0/0.
        near = c_r <= RESOLVENT_NEWTON_REL * np.abs(q)
        z = 4.0 * c_r
        z = np.where(near, z - horner((-r * r, disc, 2.0 * q, 1.0), z)
                     / horner((disc, 4.0 * q, 3.0), z), z)
        c_r = z / 4.0
        # The sign of e^2 (1 - 2 cos 2 theta) - d^2 picks the branch pair,
        # -sqrt(c_r) below the critical field and +sqrt(c_r) above it; r
        # carries that factor negated, so sign * r is -|r| on both sides.
        sign = np.where(e2 * (4.0 * sin2 - 1.0) < d2, -1.0, 1.0)
        half_root = np.where(near, np.sqrt(np.maximum(disc + z * (2.0 * q + z), 0.0)),
                             np.abs(r) / (2.0 * np.sqrt(c_r))) / 2.0
        c0, c2, c4, c6 = f1_quartic_coefficients(e, d, th)
        re = sign * np.sqrt(np.maximum(c_r, 0.0)) - c6 / 4.0
        im = np.sqrt(np.maximum(q / 2.0 + c_r - half_root, 0.0))
        b1 = np.sqrt(np.maximum((re + np.hypot(re, im)) / 2.0, 0.0))

        # The confirming cubic is solved in a scaled variable z = alpha w so
        # all coefficients stay O(1); otherwise a huge constant term (r^2
        # grows like the eighth power of the field) would swamp the leading 1.
        alpha = np.maximum(np.maximum(np.abs(2.0 * q), np.sqrt(np.abs(disc))),
                           np.maximum(np.cbrt(r * r), REL_FLOOR))
        zs, resid = solve_monic_cubics(np.stack(
            [-r * r / alpha ** 3, disc / (alpha * alpha), 2.0 * q / alpha], axis=1))
        real = np.abs(zs.imag) <= 1e-8 * np.maximum(1.0, np.abs(zs))
        reference = np.where(real, alpha[:, None] * zs.real, -np.inf).max(axis=1) / 4.0
        # Near the critical field both routes tend to zero, so the tolerance
        # also scales with the resolvent; a wrong branch would err at the
        # full resolvent scale, eight orders above it.
        tol = np.maximum(np.maximum(1e-8 * np.maximum(np.abs(c_r), np.abs(reference)),
                                    1e-9 * lim_scale), REL_FLOOR)

        # the composed root x = re + i im (b1 = Re sqrt(x)) in the quartic,
        # over its terms alone, tighter than algebra.residuals' scale
        x = re + 1j * im
        a = (c0, c2, c4, c6, 1.0)
        root_resid = np.abs(horner(a, x)) / horner([abs(c) for c in a], np.abs(x))
        fields = (q, r, s, delta_c, g_c, c_r, d_b.real)
        finite = np.isfinite(np.stack(fields + (disc, delta_generic, scale, alpha, b1)))
        checks = (
            (~finite.all(axis=0), lambda i: CrossingError(
                f"resolvent closed form overflows at e_tilde = {e[i]:.6g}, "
                f"delta_tilde = {d[i]:.6g}, theta = {th[i]:.6g}")),
            (np.abs(delta_c - delta_generic) > 1e-9 * np.maximum(scale, REL_FLOOR),
             lambda i: ResolventMismatchError(
                 f"discriminant routes disagree: {delta_c[i]:.6e} vs "
                 f"{delta_generic[i]:.6e}")),
            # _check raises its own ResidualError
            (~(resid <= CUBIC_RESIDUAL_REL).all(axis=1),
             lambda i: _check(resid[i], CUBIC_RESIDUAL_REL, "cubic")),
            (~real.any(axis=1),
             lambda i: BranchError("resolvent cubic has no real root")),
            (np.abs(c_r - reference) > tol, lambda i: BranchError(
                f"principal-branch resolvent {c_r[i]:.12e} disagrees with "
                f"largest cubic root {reference[i]:.12e}")),
            (~(root_resid <= QUARTIC_RESIDUAL_REL), lambda i: CrossingError(
                f"composed first-crossing root residual {root_resid[i]:.3e} is "
                f"above {QUARTIC_RESIDUAL_REL:.1e} of its scale")),
        )
    failing = np.stack([mask for mask, _ in checks])
    if failing.any():
        i = np.flatnonzero(failing.any(axis=0))[0]
        raise checks[np.argmax(failing[:, i])][1](i)
    return args[0].shape, fields, b1


def _out(values, shape: tuple):
    """values in the given shape, or a Python float for a 0-d result."""
    values = np.reshape(values, shape)
    return float(values) if values.ndim == 0 else values


def resolvent_analysis(e_tilde, delta_tilde, theta) -> ResolventData:
    """Depression, discriminant and resolvent root of the quartic factor.

    The discriminant is computed along two routes: the closed product form
    and 2^24 (C^2 - 4 P^3) with C = 2q^3 - 72qs + 27r^2, P = q^2 + 12s.
    They must agree to 1e-9 of the cancellation scale or
    ResolventMismatchError is raised.

    The resolvent value c_r comes from the principal-branch complex cube
    root composition, with one Newton step where it is below
    RESOLVENT_NEWTON_REL of |q|. It must match a quarter of the largest
    real root of z^3 + 2q z^2 + (q^2-4s) z - r^2 from the independent
    cubic solver, or BranchError is raised.

    The inputs broadcast, and the fields take their shape; scalar input
    gives floats. The pass and its checks are b1_exact_tilde's.
    """
    shape, fields, _ = _first_crossing(e_tilde, delta_tilde, theta)
    return ResolventData(*(_out(field, shape) for field in fields))


def critical_field_tilde(delta_tilde: float, theta: float) -> float:
    """Electric field (internal units) where the first crossing changes
    character: delta_tilde / sqrt(1 - 2 cos 2 theta).

    Exists only for angles strictly between pi/6 and 5 pi/6; outside,
    NoCriticalFieldError is raised.
    """
    denom = 1.0 - 2.0 * math.cos(2.0 * theta)
    if denom <= 0.0:
        raise NoCriticalFieldError(
            f"no critical field at theta = {theta:.6f}: the first crossing "
            "keeps one character for every field strength")
    return delta_tilde / math.sqrt(denom)


def b1_exact_tilde(e_tilde, delta_tilde, theta):
    """Closed-form location (internal units) of the first crossing of the
    zero-energy level pair.

    Composition of the branch-resolved resolvent value with the depressed
    coefficients; the branch pair switches at the critical field. Reduces
    to delta_tilde / 3 exactly when the electric field vanishes. The
    composed root must satisfy the f1 quartic to QUARTIC_RESIDUAL_REL of
    its term scale, or CrossingError is raised. Broadcasts like
    resolvent_analysis, whose errors it raises; scalar input gives a float.
    """
    shape, _, b1 = _first_crossing(e_tilde, delta_tilde, theta)
    return _out(b1, shape)


def b1_approx_tilde(e_tilde, delta_tilde, theta):
    """Small-field expansion of the first-crossing location:
    delta/3 + 3 (3 + cos 2 theta) e^2 / (8 delta). Broadcasts."""
    value = (delta_tilde / 3.0
             + 3.0 * (3.0 + np.cos(2.0 * theta)) * e_tilde * e_tilde
             / (8.0 * delta_tilde))
    return _out(value, np.shape(value))


def pair_gap(p: ScaledParameters, pair):
    """Measured energy gap (internal GHz) between two labeled levels.

    Measured with a symmetric eigensolver rather than the quartic closed
    form: the symmetric eigenproblem keeps absolute accuracy near eps
    times the matrix norm even at a near-degeneracy, while the route
    through m = lambda^2 loses exactly the small splitting of interest
    there. Gaps below GAP_MEASUREMENT_FLOOR are indistinguishable from
    solver noise and are reported as zero. Array fields of p give one gap
    per point from one stacked eigvalsh call; scalar fields give a float.
    """
    gap = _floored_gap(numeric_levels(build_hamiltonian(p)), pair)
    return _out(gap, gap.shape)


def _floored_gap(levels, pair):
    """Pair gap along the last axis of levels, zeroed below the floor. Label
    arrays (2, n) pick one pair per row of levels (n, 8)."""
    i, j = pair
    rows = np.arange(len(levels)) if np.ndim(i) else ...
    gap = levels[rows, i - 1] - levels[rows, j - 1]
    return np.where(gap > GAP_MEASUREMENT_FLOOR, gap, 0.0)


def gap_lowest_pair(p: ScaledParameters):
    """Gap between the two levels that meet at zero energy (labels 4, 5)."""
    return pair_gap(p, (4, 5))


@dataclass(frozen=True)
class CrossingRecord:
    """One located crossing of a specific level pair.

    b_location  magnetic field in tesla
    kind        "real" when the measured gap closes below the
                classification threshold, else "avoided"
    pair        1-based level labels (i, j) with i < j
    gap         measured minimal gap in internal GHz (0.0 for real)
    source      which factor and route produced the candidate
    """

    b_location: float
    kind: str
    pair: tuple
    gap: float
    source: str


def _minimal_adjacent_pair(levels) -> tuple:
    """Adjacent same-sign pair with the smallest gap in one set of
    descending levels; ties take smallest i.

    Mirror-image pairs have gaps equal to rounding, so a candidate must
    beat the incumbent by more than the measurement floor to displace it.
    """
    best = None
    for i, j in _ADJACENT_PAIRS:
        gap = float(levels[i - 1] - levels[j - 1])
        if best is None or gap < best[0] - GAP_MEASUREMENT_FLOOR:
            best = (gap, (i, j))
    return best[1]


def _coarse_bounds(h0, labels, grid):
    """Round one of _coarse_minimum on the floored pair gaps (labels (2, n),
    i < j) at the points of grid (n, k) (internal units, ascending,
    k = 10 m + 1, m >= 1) from h0, the zero-field matrix. Returns gaps
    (n, k), measured at every _SCAN_STRIDE-th point (the rows' ends among
    them) and +inf elsewhere; inner (n, m, _SCAN_STRIDE - 1), the points
    strictly inside each segment between those stops; bound, of inner's
    shape, where the floored gap measured at each of those points is at
    least bound - 2 delta; and delta.

    Noise. LAPACK's eigenvalues are within a small multiple of eps |H| (64
    here, which also covers the matrix build and the subtraction), so a
    measured floored gap G, and a measured level separation, is within
    delta = GAP_MEASUREMENT_FLOOR + 64 eps |H| of the true one.

    First order. For fixed labels the gap g = lambda_i - lambda_j of
    H0 + b Z' (Z' = diag(DH_DB_TILDE), dH/db) is Lipschitz in b with
    L = max Z' - min Z': by Weyl every level moves by db times a number
    in [min Z', max Z']. Between measured points l < r a grid point x then
    measures at least G_l - L (x - x_l) and G_r - L (x_r - x), less 2 delta.

    Second order. With v_k the eigenvectors and c_k = v_k^T Z' v_i,
    lambda_i'' = 2 sum_k c_k^2 / (lambda_i - lambda_k). Its only negative
    terms couple i to the levels above it, each at least -2 c_k^2 / s_up
    with s_up = lambda_(i-1) - lambda_i; likewise -lambda_j'' has negative
    terms only from the levels below j, each at least -2 c_k^2 / s_down
    with s_down = lambda_j - lambda_(j+1). sum_k c_k^2 is the variance of
    Z' under |v_i|^2, at most (L/2)^2 by Popoviciu, so
        g'' >= -(L^2 / 2) (1/s_up + 1/s_down),
    where a missing neighbour (the end of the spectrum) counts as s = inf.
    Where i meets j, or a level between them, g has a convex kink, which
    the bound allows; where i meets i - 1 or j meets j + 1 the bound has no
    finite value. The separations are L-Lipschitz too, so on a window of
    three measured stops they are at least their smallest value measured
    there, less L times the window's width plus 2 delta. For measured
    x_a < x_l < x_r < x_b, the left bound needs a window [x_a, x_r] and
    the right one [x_l, x_b]. Where both separation bounds of a window are
    positive, take M = (L^2 / 2)(1/s_up + 1/s_down) from them: then
        phi = g + (M/2) (x - x_l)^2
    is convex on [x_a, x_r], and on [x_l, x_r] phi' is at least phi's
    secant slope over [x_a, x_l],
        S = (g_l - g_a) / (x_l - x_a) - (M/2) (x_l - x_a),
    known from the measured gaps to within 2 delta over x_l - x_a. So at
    x = x_l + u in the segment g >= g_l + S u - (M/2) u^2. The right bound
    is the mirror image: phi = g + (M/2) (x - x_r)^2 on [x_l, x_b], with
    phi's secant slope over [x_r, x_b], from (x_r, g_r). A grid point
    measures at least either bound's value there less 2 delta. A segment
    at a row's edge has no outer neighbour on that side and takes its
    inner bound alone; a row of one segment takes the first order ones
    alone.

    Each segment's outer neighbours are one stride out, and each point
    strictly inside a segment is bounded by the largest of the four bounds
    there.
    """
    n, k = grid.shape
    m = (k - 1) // _SCAN_STRIDE
    if m < 1 or (k - 1) % _SCAN_STRIDE:
        raise ValueError(f"the coarse scan takes {_SCAN_STRIDE} m + 1 grid points, not {k}")
    norm = np.linalg.norm(h0) + np.abs(DH_DB_TILDE).max() * np.max(
        np.abs(grid), initial=0.0)
    delta = GAP_MEASUREMENT_FLOOR + 64.0 * np.finfo(float).eps * norm
    # round one; the levels padded with +inf above and -inf below:
    # separations at the ends of the spectrum are +inf
    stops = grid[:, ::_SCAN_STRIDE]
    ends = np.full((stops.size, 1), np.inf)
    levels = np.hstack((ends, numeric_levels(along_b(h0, stops.ravel())), -ends))
    i, j = np.repeat(labels, m + 1, axis=1)
    at = np.arange(stops.size)
    # x, the floored gap, s_up and s_down at each stop
    measured = np.vstack((stops.ravel(), _floored_gap(levels[:, 1:-1], (i, j)),
                          levels[at, (i - 1, j)] - levels[at, (i, j + 1)]))
    gaps = np.full((n, k), np.inf)
    gaps[:, ::_SCAN_STRIDE] = measured[1].reshape(n, m + 1)
    # each segment's (a, l, r, b) stops, NaN beyond a row's edge
    padded = np.full((4, n, m + 3), np.nan)
    padded[..., 1:-1] = measured.reshape(4, n, m + 1)
    quad = np.stack([padded[..., t:t + m, None] for t in range(4)], axis=1)
    (xa, xl, xr, xb), (ga, gl, gr, gb) = quad[:2]
    inner = grid[:, :-1].reshape(n, m, _SCAN_STRIDE)[..., 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        # M / 2 of the left bound over [x_a, x_r] and of the right one over [x_l, x_b]
        half_lo, half_hi = (
            np.where((s > 0.0).all(axis=0), _CURVATURE * (1.0 / s).sum(axis=0), np.nan) / 2.0
            for s in (quad[2:, :3].min(axis=1) - (_GAP_LIPSCHITZ * (xr - xa) + 2.0 * delta),
                      quad[2:, 1:].min(axis=1) - (_GAP_LIPSCHITZ * (xb - xl) + 2.0 * delta)))
        lo = (gl - ga - 2.0 * delta) / (xl - xa) - half_lo * (xl - xa)
        hi = (gb - gr + 2.0 * delta) / (xb - xr) + half_hi * (xb - xr)
        # the four bounds at the points strictly inside each segment
        u, w = inner - xl, xr - inner
        bound = functools.reduce(np.fmax, (gl - _GAP_LIPSCHITZ * u, gr - _GAP_LIPSCHITZ * w,
                                           gl + (lo - half_lo * u) * u,
                                           gr - (hi + half_hi * w) * w))
    return gaps, inner, bound, delta


def _coarse_minimum(h0, labels, grid):
    """np.argmin, row by row, of the floored pair gaps (labels (2, n), i < j)
    at the points of grid (n, k) (internal units, ascending, k = 10 m + 1,
    m >= 1) from h0, the zero-field matrix, measuring only the points that
    could hold the minimum.

    Round one (_coarse_bounds) measures every _SCAN_STRIDE-th point and
    bounds the gap at each point between them. Round two measures, in one
    stacked eigensolve for all rows, the points whose bound is at most the
    row's best measured gap plus 2 delta, if any. No other point can be the
    minimum or tie with it, so the argmin over the measured points (the
    rest +inf) is the full scan's, first index on ties included.
    """
    gaps, inner, bound, delta = _coarse_bounds(h0, labels, grid)
    rows, segments, points = np.nonzero(~(bound > gaps.min(axis=1)[:, None, None]
                                          + 2.0 * delta))
    if rows.size:
        gaps[rows, segments * _SCAN_STRIDE + points + 1] = _floored_gap(
            numeric_levels(along_b(h0, inner[rows, segments, points])), labels[:, rows])
    return np.argmin(gaps, axis=1)


def _refine_gap_minima(h0, labels, lo, hi):
    """Interior minima of the pair gaps (labels (2, n)) in the brackets
    [lo, hi] (internal units) from h0, the zero-field matrix: the minimum
    of an 81-point coarse scan per bracket (_coarse_minimum, which measures
    only the points that can hold it, in two stacked eigensolves for all
    brackets, and returns the full scan's argmin), then lockstep Newton
    steps on g' = 0 within two scan steps of each coarse minimum (g', g''
    from one stacked eigh per step), bisecting where a step leaves the
    bracket or g'' <= 0. Returns the locations
    (tesla) and gaps (bit for bit pair_gap's), NaN where the coarse minimum
    is on the edge: a spurious seed."""
    tesla_per_tilde = b_field_from_tilde(1.0)
    grid = np.linspace(lo, hi, _COARSE_POINTS, axis=1)
    k_min = _coarse_minimum(h0, labels, grid)
    live = found = np.flatnonzero((k_min > 0) & (k_min < _COARSE_POINTS - 1))
    a, x, b = (grid[live, k_min[live] + shift] for shift in (-1, 0, 1))
    i, j = labels[:, live] - 1
    b_min, gap = np.full((2, len(lo)), np.nan)
    tol = _NEWTON_TOL_TESLA / tesla_per_tilde
    while live.size:
        slopes, curvatures = numeric_level_derivatives(along_b(h0, x))
        rows = np.arange(live.size)
        # g'' is not finite where a third level meets level i or j
        with np.errstate(divide="ignore", invalid="ignore"):
            g1, g2 = (d[rows, i] - d[rows, j] for d in (slopes, curvatures))
            newton = x - g1 / g2
        # x replaces the bracket end on its side (brackets shrink every step);
        # a Newton step within tol ends the search even if it rounds onto it
        a, b = np.where(g1 >= 0.0, a, x), np.where(g1 >= 0.0, x, b)
        take = (g2 > 0.0) & ((a < newton) & (newton < b) | (abs(newton - x) <= tol))
        moved = np.where(take, newton, (a + b) / 2.0)
        done = abs(moved - x) <= tol
        b_min[live[done]] = moved[done]
        live, a, x, b, i, j = (v[~done] for v in (live, a, moved, b, i, j))
    gap[found] = _floored_gap(numeric_levels(along_b(h0, b_min[found])), labels[:, found])
    return b_min * tesla_per_tilde, gap


def _cluster_roots(xs) -> list:
    """One root per cluster of roots within 1e-8 relative, ordered by
    (real, imaginary part).

    A repeated root comes back from the solvers split by rounding. Taken
    in that order, a root joins the first cluster whose running mean lies
    within ROOT_MERGE_REL of it, and each cluster is represented by its
    mean.
    """
    clusters = []  # [root sum, count]
    for z in sorted(map(complex, xs), key=lambda z: (z.real, z.imag)):
        for cl in clusters:
            mean = cl[0] / cl[1]
            if abs(z - mean) <= ROOT_MERGE_REL * max(abs(z), abs(mean)):
                cl[0] += z
                cl[1] += 1
                break
        else:
            clusters.append([z, 1])
    return sorted((total / n for total, n in clusters),
                  key=lambda z: (z.real, z.imag))


def _factor_roots(p: ScaledParameters) -> list:
    """Each discriminant factor's x-roots with its source name, quartic first:
    the full octic rooted numerically at generic angles, the collapsed closed
    forms (lower degree, exact root structure) at parallel and perpendicular
    fields. The f1 quartic and a special-angle quartic (made monic) are rows
    of one closed-form solve, whose residual bound holds in row order.
    Roots that overflow raise CrossingError naming the fields."""
    e, d, th = p.e_tilde, p.delta_tilde, p.theta
    parallel = abs(th) <= _SPECIAL_ANGLE_TOL or abs(th - math.pi) <= _SPECIAL_ANGLE_TOL
    perpendicular = abs(th - math.pi / 2.0) <= _SPECIAL_ANGLE_TOL
    try:
        with np.errstate(all="ignore"):
            rows = [f1_quartic_coefficients(e, d, th)]
            if parallel or perpendicular:
                q = _special_angle_quartics(e, d)[int(perpendicular)]
                rows.append(q[:4] / q[4])
            roots, resid = solve_monic_quartics(rows)
            _check(resid, QUARTIC_RESIDUAL_REL, "quartic")
            if parallel:
                f2 = roots[1], "f2-parallel"
            elif perpendicular:
                # the squared factors x^2 and (d^2 + 8 e^2 - 4x)^2 add their roots
                x_lin = (d * d + 8.0 * (e * e)) / 4.0
                f2 = [0j, complex(x_lin), *roots[1].tolist()], "f2-perpendicular"
            else:
                f2 = numeric_roots(g_coefficients(e, d, th)), "f2-octic"
    except RootOverflowError as err:
        raise CrossingError(f"discriminant factors overflow at e_tilde = {e:.6g}, "
                            f"delta_tilde = {d:.6g}, theta = {th:.6g}") from err
    return [(roots[0], "f1-analytic"), f2]


def _seeds(xs) -> list:
    """Field seeds Re[sqrt(x)] (internal units) of one factor's x-roots.

    Repeated roots are clustered first (_cluster_roots). Tiny magnitudes
    then snap to x = 0 and tiny imaginary parts snap to the real axis,
    whatever the sign of that rounding noise. Roots still carrying a
    negative imaginary part are conjugate partners and skipped, as are
    repeats of a root already seen. Negative real x has no field location
    and is dropped.
    """
    roots = _cluster_roots(xs)
    top = max((abs(x) for x in roots), default=0.0)
    seeds, seen = [], set()
    for x in roots:
        if abs(x) < ROOT_SNAP_REL * top:
            x = complex(0.0)
        elif abs(x.imag) < IMAG_SNAP_REL * abs(x):
            x = complex(x.real)
        if x.imag < 0.0 or x in seen or (x.imag == 0.0 and x.real < 0.0):
            continue
        seen.add(x)
        seeds.append(cmath.sqrt(x).real)
    return seeds


def crossing_catalog(p: ScaledParameters, include_mirror: bool = False) -> tuple:
    """All validated crossings at the given electric configuration.

    Every seed of both factors (_seeds) is measured on one zero-field
    matrix in one stacked eigensolve. The quartic's pair is (4, 5); the
    octic's is the minimal adjacent pair at the seed. A gap below
    GAP_CLASSIFICATION_THRESHOLD at the seed makes a real record there;
    the others must survive _refine_gap_minima, whose gap classifies them.

    Records are deduplicated (of one pair's records within 1e-6 T the
    lowest-field one is kept; the quartic gives pair (4, 5) only and the
    octic never does) and sorted by field location to 12 significant
    digits, then by pair. Locations at negative field are the mirror image
    of the positive ones because the spectrum is even in B; they are
    suppressed unless include_mirror is set.
    """
    h0 = build_hamiltonian(p.with_b_tilde(0.0))
    found = [(seed, source) for xs, source in _factor_roots(p) for seed in _seeds(xs)]
    seeds = np.array([seed for seed, _ in found])
    levels = numeric_levels(along_b(h0, seeds))
    pairs = [(4, 5) if source == "f1-analytic" else _minimal_adjacent_pair(row)
             for (_, source), row in zip(found, levels)]
    labels = np.array(pairs, dtype=int).reshape(-1, 2).T
    b_location, gap = seeds * b_field_from_tilde(1.0), _floored_gap(levels, labels)
    refine = ~(gap < GAP_CLASSIFICATION_THRESHOLD)
    if refine.any():
        lo, hi = seeds[refine] + np.array([[-1.0], [1.0]]) * SEARCH_HALF_WIDTH_TILDE
        b_location[refine], gap[refine] = _refine_gap_minima(h0, labels[:, refine],
                                                             np.maximum(lo, 0.0), hi)
    records = []
    for b, g, pair, (_, source) in zip(b_location.tolist(), gap.tolist(), pairs, found):
        if not math.isnan(b):
            real = g < GAP_CLASSIFICATION_THRESHOLD
            records.append(CrossingRecord(b, "real" if real else "avoided",
                                          pair, 0.0 if real else g, source))
    kept = []
    for rec in sorted(records, key=lambda r: (r.b_location, r.pair)):
        if not any(other.pair == rec.pair
                   and abs(other.b_location - rec.b_location) < DEDUPE_B_TESLA
                   for other in kept):
            kept.append(rec)
    if include_mirror:
        kept += [CrossingRecord(-r.b_location, r.kind, r.pair, r.gap, r.source)
                 for r in kept if r.b_location > 0.0]
    # records that agree to the 12 printed digits are ordered by pair, so
    # their order does not hang on the last bits of their roots
    return tuple(sorted(kept, key=lambda r: (float(f"{r.b_location:.12g}"), r.pair)))

"""Dense 8x8 Stark-Zeeman matrix built from the scaled field variables.

The matrix acts on the eight-state space spanned by two parity doublets of
the four magnetic sublevels m = -3/2..3/2. build_hamiltonian writes it in
one pass from three 4x4 pieces: a Zeeman diagonal, a doublet-splitting
multiple of the identity and a symmetric electric-coupling block whose
angle structure (angular_coupling) mixes adjacent m.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ScaledParameters

_SQRT3 = math.sqrt(3.0)

# Zeeman diagonal pattern: magnetic quantum numbers scaled to integers.
_M_PATTERN = (-3.0, -1.0, 1.0, 3.0)

# Diagonal of dH/d(b_tilde/10): the pattern on both parity blocks, so that
# H(b_tilde) = H(0) + (b_tilde/10) diag(ZEEMAN_DIAGONAL), bit for bit when
# b_tilde >= 0 (below zero build_hamiltonian's off-diagonal zeros in the
# Zeeman blocks are -0.0).
ZEEMAN_DIAGONAL = np.array(_M_PATTERN + _M_PATTERN)
ZEEMAN_DIAGONAL.setflags(write=False)


def angular_coupling(theta) -> np.ndarray:
    """Symmetric 4x4 angle structure of the electric coupling block.

    Diagonal carries the cos(theta) projection weighted by the m pattern,
    the first off-diagonal carries the sin(theta) mixing of adjacent m.
    An array of angles gives a stack of shape theta.shape + (4, 4).
    """
    c, s = np.cos(theta), np.sin(theta)
    m = np.zeros(np.shape(theta) + (4, 4))
    for k, weight in enumerate(_M_PATTERN):
        m[..., k, k] = weight * c
    for k, weight in enumerate((_SQRT3, 2.0, _SQRT3)):
        m[..., k, k + 1] = m[..., k + 1, k] = weight * s
    m.setflags(write=False)
    return m


def build_hamiltonian(p: ScaledParameters) -> np.ndarray:
    """The read-only symmetric matrix [[a1 - a2, -c], [-c, a1 + a2]].

    a1 = (b_tilde/10) diag(-3,-1,1,3) is the Zeeman diagonal,
    a2 = (delta_tilde/10) I the doublet splitting and
    c = (e_tilde/10) angular_coupling(theta) the electric coupling, all in
    the internal GHz unit. The result is exactly symmetric because the same
    -c array fills both off-diagonal blocks and c itself is symmetric by
    construction. Fields of p may be arrays; they broadcast, and the result
    stacks one matrix per point, shape (..., 8, 8), each equal bit for bit
    to the matrix built from that point alone.
    """
    b, e, d = (np.asarray(v, dtype=float)[..., None, None] / 10.0
               for v in (p.b_tilde, p.e_tilde, p.delta_tilde))
    a1 = b * np.diag(_M_PATTERN)
    a2 = d * np.eye(4)
    c = e * angular_coupling(p.theta)
    lower, upper = a1 - a2, a1 + a2
    h = np.empty(np.broadcast(lower, c).shape[:-2] + (8, 8))
    h[..., :4, :4] = lower
    h[..., 4:, 4:] = upper
    h[..., :4, 4:] = h[..., 4:, :4] = -c
    h.setflags(write=False)
    return h


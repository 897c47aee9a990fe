"""Dense 8x8 Stark-Zeeman matrices built from the scaled field variables.

Every matrix of the package is formed here, on the eight-state space of two
parity doublets of the four magnetic sublevels m = -3/2..3/2: a doublet
splitting and a symmetric electric-coupling block whose angle structure
(angular_coupling) mixes adjacent m make the zero-field matrix H0, and
along_b, the one place B enters, adds the Zeeman diagonal to it.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ScaledParameters

_SQRT3 = math.sqrt(3.0)

# Zeeman diagonal pattern: magnetic quantum numbers scaled to integers.
_M_PATTERN = (-3.0, -1.0, 1.0, 3.0)

# Diagonal Z of dH/d(b_tilde/10): the pattern on both parity blocks, so
# that H(b_tilde) = H(0) + (b_tilde/10) diag(ZEEMAN_DIAGONAL).
ZEEMAN_DIAGONAL = np.array(_M_PATTERN + _M_PATTERN)
ZEEMAN_DIAGONAL.setflags(write=False)

# Diagonal of dH/d(b_tilde) = Z/10, the slope of the levels in b_tilde.
DH_DB_TILDE = ZEEMAN_DIAGONAL / 10.0
DH_DB_TILDE.setflags(write=False)


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


def along_b(h0, b_tilde) -> np.ndarray:
    """H0 + (b_tilde/10) diag(ZEEMAN_DIAGONAL): the matrices at the fields
    b_tilde from zero-field matrices h0 (..., 8, 8), whose leading shape
    broadcasts against b_tilde's; a new writable array."""
    b = np.asarray(b_tilde, dtype=float)
    shape = np.broadcast(h0[..., 0, 0], b).shape
    h = np.empty(shape + (8, 8))
    h[...] = h0
    h.reshape(shape + (64,))[..., ::9] += (b / 10.0)[..., None] * ZEEMAN_DIAGONAL
    return h


def build_hamiltonian(p: ScaledParameters) -> np.ndarray:
    """The read-only symmetric matrix [[a1 - a2, -c], [-c, a1 + a2]].

    a1 = (b_tilde/10) diag(-3,-1,1,3) is the Zeeman diagonal,
    a2 = (delta_tilde/10) I the doublet splitting and
    c = (e_tilde/10) angular_coupling(theta) the electric coupling, all in
    the internal GHz unit; along_b adds a1 to the zero-field matrix. The
    result is exactly symmetric because the same -c array fills both
    off-diagonal blocks and c itself is symmetric by construction. Fields
    of p may be arrays; they broadcast, and the result stacks one matrix
    per point, shape (..., 8, 8), each equal bit for bit to the matrix
    built from that point alone.
    """
    e, d = (np.asarray(v, dtype=float) / 10.0 for v in (p.e_tilde, p.delta_tilde))
    c = e[..., None, None] * angular_coupling(p.theta)
    shape = np.broadcast(d, c[..., 0, 0]).shape
    h0 = np.zeros(shape + (8, 8))
    h0[..., :4, 4:] = h0[..., 4:, :4] = -c
    diagonal = h0.reshape(shape + (64,))[..., ::9]
    diagonal[..., :4], diagonal[..., 4:] = -d[..., None], d[..., None]
    h = along_b(h0, p.b_tilde)
    h.setflags(write=False)
    return h

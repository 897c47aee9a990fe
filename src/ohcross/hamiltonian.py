"""Dense 8x8 Stark-Zeeman matrix built from the scaled field variables.

The matrix acts on the eight-state space spanned by two parity doublets of
the four magnetic sublevels m = -3/2..3/2. It is assembled from three 4x4
blocks: a Zeeman diagonal, a doublet-splitting multiple of the identity and
a symmetric electric-coupling block whose angle structure mixes adjacent m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def angular_coupling(theta: float) -> np.ndarray:
    """Symmetric 4x4 angle structure of the electric coupling block.

    Diagonal carries the cos(theta) projection weighted by the m pattern,
    the first off-diagonal carries the sin(theta) mixing of adjacent m.
    """
    c = math.cos(theta)
    s = math.sin(theta)
    m = np.array([
        [-3.0 * c, _SQRT3 * s, 0.0, 0.0],
        [_SQRT3 * s, -c, 2.0 * s, 0.0],
        [0.0, 2.0 * s, c, _SQRT3 * s],
        [0.0, 0.0, _SQRT3 * s, 3.0 * c],
    ])
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class BlockMatrices:
    """The three 4x4 blocks: Zeeman diagonal a1, doublet identity a2,
    electric coupling c. All entries in the internal GHz unit."""

    a1: np.ndarray
    a2: np.ndarray
    c: np.ndarray


def build_blocks(p: ScaledParameters) -> BlockMatrices:
    """Blocks from scaled parameters.

    a1 = (b_tilde/10) diag(-3,-1,1,3), a2 = (delta_tilde/10) I,
    c = (e_tilde/10) times the angular coupling structure.
    """
    a1 = (p.b_tilde / 10.0) * np.diag(_M_PATTERN)
    a2 = (p.delta_tilde / 10.0) * np.eye(4)
    c = (p.e_tilde / 10.0) * angular_coupling(p.theta)
    for block in (a1, a2, c):
        block.setflags(write=False)
    return BlockMatrices(a1=a1, a2=a2, c=c)


def assemble(blocks: BlockMatrices) -> np.ndarray:
    """Assemble the full symmetric matrix [[a1 - a2, -c], [-c, a1 + a2]].

    The result is exactly symmetric because the same -c array fills both
    off-diagonal blocks and c itself is symmetric by construction.
    """
    h = np.zeros((8, 8))
    h[:4, :4] = blocks.a1 - blocks.a2
    h[4:, 4:] = blocks.a1 + blocks.a2
    h[:4, 4:] = -blocks.c
    h[4:, :4] = -blocks.c
    h.setflags(write=False)
    return h


def build_hamiltonian(p: ScaledParameters) -> np.ndarray:
    """Convenience wrapper: blocks plus assembly in one call."""
    return assemble(build_blocks(p))


def format_matrix(h: np.ndarray) -> str:
    """Plain-text dump: one row per line, entries space separated.

    Values are printed with 12 significant digits in the internal unit.
    """
    lines = []
    for row in np.asarray(h):
        # v + 0.0 turns negative zeros into plain zeros before printing
        lines.append(" ".join(format(float(v) + 0.0, ".12g") for v in row))
    return "\n".join(lines) + "\n"

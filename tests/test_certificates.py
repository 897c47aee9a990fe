"""Exact certificates for the printed spectrum cells.

Each cell of a `spectrum` golden file is meant to be the 12-digit rounding
of an eigenvalue of the 8x8 matrix of doubles the command builds. That is
decided exactly with integers alone. Every double is a dyadic rational and
the ends of a cell's rounding interval are decimal ones, so mu I - H
scales to an integer matrix for mu at either end, times the unit. The
leading principal minors of that matrix, from fraction-free (Bareiss)
elimination, change sign once per eigenvalue of H above mu (Sylvester's
law of inertia in Jacobi's form), so they count the eigenvalues below mu.
Cell k (descending) is certified when fewer than 9 - k eigenvalues lie
below its interval's low end and at least 9 - k below its high end.

The matrices are rebuilt from each golden's own command line, as the CLI
builds them: theta from math.radians of the degrees given and B from
np.linspace. The theta printed in the provenance header has only 12
digits, and matrices built from it fail hundreds of cells.
"""

import math
import pathlib
import shlex
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from ohcross.cli import build_parser
from ohcross.hamiltonian import build_hamiltonian
from ohcross.model import (GHZ_PER_INVERSE_CM, FieldConfiguration,
                           MoleculeParameters, molecule_from_config,
                           scale_parameters)

DATA = pathlib.Path(__file__).parent / "data"

# Each spectrum golden's command line, and the most cells it may hold that
# fail their certificate: a ratchet, lowered as the closed form improves.
# The ten at theta = 0 are degenerate levels, where the closed form's double
# roots split by about sqrt(eps).
SPECTRA = {
    "spectrum_e2500_theta60.csv":
        ("spectrum --e-vcm 2500 --theta-deg 60 --b-max 0.3 --points 201", 0),
    "spectrum_e2500_theta0_ghz.csv":
        ("spectrum --e-vcm 2500 --theta-deg 0 --b-max 0.3 --points 201 --unit ghz", 10),
    "spectrum_config.csv":
        ("spectrum --e-vcm 1000 --theta-deg 60 --b-max 0.3 --points 31 "
         "--config mol.json", 0),
}

UNITS = {"percm": GHZ_PER_INVERSE_CM, "ghz": 1.0}


def integer_matrix(h):
    """H as (2^s H, s): integer entries from the exact binary values."""
    ratios = [float(x).as_integer_ratio() for x in np.ravel(h)]
    s = max(den.bit_length() - 1 for _, den in ratios)
    flat = [num << (s - den.bit_length() + 1) for num, den in ratios]
    return [flat[8 * i:8 * i + 8] for i in range(8)], s


def leading_minors(a):
    """The leading principal minors D1..Dn of an integer matrix by Bareiss
    elimination without pivoting, or None at a zero pivot."""
    a = [row[:] for row in a]
    n, prev, minors = len(a), 1, []
    for k in range(n):
        pivot = a[k][k]
        if pivot == 0:
            return None
        minors.append(pivot)
        for i in range(k + 1, n):
            row, lead = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * a[k][j]) // prev
        prev = pivot
    return minors


def levels_below(h_int, mu: Fraction) -> int:
    """How many eigenvalues of H lie below mu, where h_int is
    integer_matrix(H)."""
    entries, s = h_int
    num, den = mu.numerator << s, mu.denominator
    a = [[(num if i == j else 0) - den * x for j, x in enumerate(row)]
         for i, row in enumerate(entries)]
    minors = leading_minors(a)
    if minors is None:
        raise ArithmeticError(f"a leading minor of mu I - H is zero at mu = {mu}")
    above = sum((lo < 0) != (hi < 0) for lo, hi in zip([1] + minors, minors))
    return len(entries) - above


def rounding_interval(cell: str):
    """The ends of the reals that print as this %.12g cell."""
    d = Decimal(cell)
    half = Fraction(5) * Fraction(10) ** (d.adjusted() - 12)
    c = Fraction(d)
    # below a power of ten the next shorter cell is ten times closer
    toward_zero = half / 10 if abs(d) == Decimal(1).scaleb(d.adjusted()) else half
    return ((c - toward_zero, c + half) if c > 0 else (c - half, c + toward_zero))


def failing_cells(matrices, cells, unit: float):
    """(row, level) of each cell whose rounding interval, times the unit,
    does not hold its eigenvalue."""
    u = Fraction(unit)
    failed = []
    for row, (h, levels) in enumerate(zip(matrices, cells)):
        h_int = integer_matrix(h)
        for k, cell in enumerate(levels, start=1):
            lo, hi = rounding_interval(cell)
            if not levels_below(h_int, lo * u) <= 8 - k < levels_below(h_int, hi * u):
                failed.append((row, k))
    return failed


def golden_spectrum(name):
    """The CLI's matrices for one golden, its level cells and its unit."""
    argv, _ = SPECTRA[name]
    args = build_parser().parse_args(shlex.split(argv))
    mol = (molecule_from_config(DATA / args.config) if args.config
           else MoleculeParameters())
    p = scale_parameters(mol, FieldConfiguration(
        e_field=args.e_vcm * 100.0, b_field=np.linspace(args.b_min, args.b_max, args.points),
        theta=math.radians(args.theta_deg)))
    lines = (DATA / name).read_text().splitlines()
    cells = [line.split(",")[1:] for line in lines if not line.startswith("#")][1:]
    return build_hamiltonian(p), cells, UNITS[args.unit]


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_printed_levels_are_certified(name):
    matrices, cells, unit = golden_spectrum(name)
    assert len(cells) == len(matrices) and {len(row) for row in cells} == {8}
    failed = failing_cells(matrices, cells, unit)
    assert len(failed) <= SPECTRA[name][1], failed


def test_a_bumped_cell_fails_alone():
    matrices, cells, unit = golden_spectrum("spectrum_e2500_theta60.csv")
    # one unit more in the 12th significant digit of one cell
    row = list(cells[100])
    cell = Decimal(row[2])
    row[2] = str(cell + Decimal(1).scaleb(cell.adjusted() - 11))
    assert failing_cells(matrices[100:101], [cells[100]], unit) == []
    assert failing_cells(matrices[100:101], [row], unit) == [(0, 3)]


def test_a_matrix_entry_one_ulp_away_is_told_apart():
    # bisect one certified level to an interval far narrower than an ulp of
    # the matrix, then move the diagonal entry that weighs most in its
    # eigenvector up by one ulp: the level leaves the interval
    matrices, cells, unit = golden_spectrum("spectrum_e2500_theta60.csv")
    h, k = np.array(matrices[100]), 4
    lo, hi = (end * Fraction(unit) for end in rounding_interval(cells[100][k - 1]))
    h_int = integer_matrix(h)
    for _ in range(64):
        mid = (lo + hi) / 2
        if levels_below(h_int, mid) <= 8 - k:
            lo = mid
        else:
            hi = mid
    assert levels_below(h_int, lo) <= 8 - k < levels_below(h_int, hi)
    j = int(np.argmax(np.abs(np.linalg.eigh(h)[1][:, 8 - k])))
    h[j, j] = math.nextafter(h[j, j], math.inf)
    moved = integer_matrix(h)
    assert levels_below(moved, lo) <= 8 - k
    assert levels_below(moved, hi) <= 8 - k

"""Exact level-crossing analysis for an eight-state Stark-Zeeman model.

The package builds the 8x8 field-coupled Hamiltonian, computes its spectrum
in closed form through the quartic in the squared eigenvalue, factorizes the
level-crossing discriminant, and locates real and avoided crossings exactly.
Every closed form is paired with an independent numerical route so the two
can be audited against each other.

The names below are the documented entry points; everything else is
importable from its submodule. The closed forms are array entries; one
field point is a one-point call.
"""

from .crossings import b1_exact_tilde, crossing_catalog, gap_lowest_pair
from .discriminant import audit_triple
from .fitting import best_shape_exponent, fit_power_law
from .model import (FieldConfiguration, MoleculeParameters, b_field_from_tilde,
                    b_tilde_from_field, scale_parameters)
from .plotting import render_line_plot
from .spectrum import analytic_spectrum

__version__ = "1.0.0"

__all__ = [
    "FieldConfiguration", "MoleculeParameters", "__version__",
    "analytic_spectrum", "audit_triple", "b1_exact_tilde",
    "b_field_from_tilde", "b_tilde_from_field",
    "best_shape_exponent", "crossing_catalog", "fit_power_law",
    "gap_lowest_pair", "render_line_plot", "scale_parameters",
]

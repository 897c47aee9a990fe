"""Exact level-crossing analysis for an eight-state Stark-Zeeman model.

The package builds the 8x8 field-coupled Hamiltonian, computes its spectrum
in closed form through the quartic in the squared eigenvalue, factorizes the
level-crossing discriminant, and locates real and avoided crossings exactly.
Every closed form is paired with an independent numerical route so the two
can be audited against each other.

The names in ``__all__`` are the documented entry points; everything else is
importable from its submodule. The closed forms are array entries; one
field point is a one-point call.

``import ohcross`` loads no submodule: each entry point is imported from its
submodule on first access (PEP 562), so a command-line launch pays only for
the modules its command runs.
"""

import importlib

__version__ = "1.0.0"

# Each documented entry point and the submodule that defines it.
_EXPORTS = {
    "FieldConfiguration": "model", "MoleculeParameters": "model",
    "b_field_from_tilde": "model", "b_tilde_from_field": "model",
    "scale_parameters": "model",
    "analytic_spectrum": "spectrum",
    "audit_triple": "discriminant",
    "b1_exact_tilde": "crossings", "crossing_catalog": "crossings",
    "gap_lowest_pair": "crossings",
    "best_shape_exponent": "fitting", "fit_power_law": "fitting",
    "render_line_plot": "plotting",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name):
    """Import an entry point from its submodule on first access."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

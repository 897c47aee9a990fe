"""Exact level-crossing analysis for an eight-state Stark-Zeeman model.

The package builds the 8x8 field-coupled Hamiltonian, computes its spectrum
in closed form through the quartic in the squared eigenvalue, factorizes the
level-crossing discriminant, and locates real and avoided crossings exactly.
Every closed form is paired with an independent numerical route so the two
can be audited against each other.
"""

from .algebra import (AlgebraError, ComplexRootSet, Polynomial,
                      numeric_roots, solve_cubic, solve_quartic,
                      symmetric_eigenvalues)
from .crossings import (CrossingRecord, CrossingError, NoCriticalFieldError,
                        b1_approx_tilde, b1_exact, b1_exact_tilde,
                        critical_field_tilde, crossing_catalog, f1_crossings,
                        f2_crossings, gap_lowest_pair, pair_gap,
                        resolvent_analysis)
from .discriminant import (AuditReport, DiscriminantFactors, audit_triple,
                           determinant_identity_check, eval_f0_tilde,
                           eval_f1_tilde, eval_f2_tilde, evaluate_factors,
                           f1_quartic_coefficients, g_coefficients)
from .fitting import (FitError, FitResult, best_shape_exponent, fit_power_law,
                      shape_rms_relative, shape_rms_scaled)
from .hamiltonian import (angular_coupling, assemble, build_blocks,
                          build_hamiltonian, format_matrix)
from .model import (DEFAULT_CONSTANTS, ConfigError, EnergyUnit,
                    FieldConfiguration, MoleculeParameters, PhysicalConstants,
                    ScaledParameters, b_field_from_tilde, b_tilde_from_field,
                    convert_energy, e_field_from_tilde, molecule_from_config,
                    scale_parameters)
from .plotting import PlotError, render_line_plot
from .spectrum import (CharPoly, Spectrum, SpectrumError,
                       analytic_eigenvalues, analytic_spectrum,
                       characteristic_polynomial, eigenvalue_at,
                       eigenvalues_from_charpoly, numeric_eigenvalues)

__version__ = "1.0.0"

__all__ = [
    "AlgebraError", "AuditReport", "CharPoly", "ComplexRootSet",
    "ConfigError", "CrossingError", "CrossingRecord", "DEFAULT_CONSTANTS",
    "DiscriminantFactors", "EnergyUnit", "FieldConfiguration", "FitError",
    "FitResult", "MoleculeParameters", "NoCriticalFieldError",
    "PhysicalConstants", "PlotError", "Polynomial", "ScaledParameters",
    "Spectrum", "SpectrumError", "analytic_eigenvalues", "analytic_spectrum",
    "angular_coupling", "assemble", "audit_triple", "b1_approx_tilde",
    "b1_exact", "b1_exact_tilde", "b_field_from_tilde", "b_tilde_from_field",
    "best_shape_exponent", "build_blocks", "build_hamiltonian", "characteristic_polynomial",
    "convert_energy", "critical_field_tilde", "crossing_catalog",
    "determinant_identity_check", "e_field_from_tilde", "eigenvalue_at",
    "eigenvalues_from_charpoly", "eval_f0_tilde", "eval_f1_tilde",
    "eval_f2_tilde", "evaluate_factors", "f1_crossings",
    "f1_quartic_coefficients", "f2_crossings", "fit_power_law",
    "format_matrix", "g_coefficients", "gap_lowest_pair",
    "molecule_from_config", "numeric_eigenvalues", "numeric_roots",
    "pair_gap", "render_line_plot", "resolvent_analysis",
    "scale_parameters", "shape_rms_relative", "shape_rms_scaled",
    "solve_cubic", "solve_quartic", "symmetric_eigenvalues",
]

"""The fixed CODATA constants, the model inputs and their scaling.

Every number the package reports is for ground-state OH in one set of
CODATA 2018 constants, held here as module constants. Molecule parameters
default to OH and may be read from one JSON config file; field
configurations map onto the scaled GHz variables. The internal energy
unit throughout the package is frequency in GHz (energy divided by the
Planck constant). That choice keeps every spectral quantity of order
0.1..100, so even the degree-56 eigenvalue-difference product evaluated by
the discriminant routines stays comfortably inside double-precision range;
in SI joules the same product underflows to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * math.pi

# CODATA 2018, SI units. PLANCK is exact by definition; REDUCED_PLANCK is
# derived from it rather than stored as a rounded literal, so that
# PLANCK = 2*pi*REDUCED_PLANCK holds to machine precision.
PLANCK = 6.62607015e-34              # J s, exact
REDUCED_PLANCK = PLANCK / _TWO_PI    # J s
BOHR_MAGNETON = 9.2740100783e-24     # J/T
DEBYE = 1e-21 / 299792458.0          # C m (1e-21 over the exact speed of light)

# 1 inverse centimeter expressed in GHz (the speed of light in cm/ns).
GHZ_PER_INVERSE_CM = 29.9792458


class ConfigError(ValueError):
    """Raised for malformed molecule configuration input."""


class ValidationError(ValueError):
    """Base class of the run-time checks a result fails: the command line
    exits 2 for these, and 1 for every other input error."""


@dataclass(frozen=True)
class MoleculeParameters:
    """Molecular inputs for the two-doublet model.

    lambda_doubling: parity-doublet splitting as an angular frequency (rad/s)
    electric_dipole: body-frame electric dipole moment (C m)

    Defaults are the OH ground-state values used for all reference numbers:
    a 1.667 GHz doublet and a 1.66 debye dipole.
    """

    lambda_doubling: float = _TWO_PI * 1.667e9
    electric_dipole: float = 1.66 * DEBYE

    def __post_init__(self) -> None:
        if not self.lambda_doubling > 0.0:
            raise ValueError("lambda_doubling must be strictly positive")
        if not self.electric_dipole > 0.0:
            raise ValueError("electric_dipole must be strictly positive")


@dataclass(frozen=True)
class FieldConfiguration:
    """Applied static fields, each a float or an array; arrays broadcast.

    e_field: electric field magnitude in V/m, finite and nonnegative
    b_field: magnetic field magnitude in tesla, finite; negative values are
        accepted so evenness of the spectrum under B -> -B can be exercised
        directly
    theta: angle between the electric and magnetic field vectors, rad, [0, pi]

    The rules run in this order, each over every entry.
    """

    e_field: float = 0.0
    b_field: float = 0.0
    theta: float = 0.0

    def __post_init__(self) -> None:
        e, b, theta = map(np.asarray, (self.e_field, self.b_field, self.theta))
        # NaN is not negative: it fails the finiteness rule below
        if (e < 0.0).any():
            raise ValueError("e_field must be >= 0")
        for name, field in (("e_field", e), ("b_field", b)):
            if not np.isfinite(field).all():
                raise ValueError(f"{name} must be finite")
        if not ((0.0 <= theta) & (theta <= math.pi)).all():
            raise ValueError("theta must lie in [0, pi]")


@dataclass(frozen=True)
class ScaledParameters:
    """Working variables of all closed-form expressions, as GHz frequencies.

    b_tilde = 4 mu_B B / h
    e_tilde = 2 mu_e E / h
    delta_tilde = 5 hbar Delta / h

    theta is carried through unchanged. Only delta_tilde is constrained here;
    b_tilde inherits the sign of B and theta is unrestricted so that internal
    symmetry checks may evaluate formulas anywhere on the circle. For a
    sweep, b_tilde, e_tilde and theta may be arrays that broadcast.
    """

    b_tilde: float
    e_tilde: float
    delta_tilde: float
    theta: float

    def __post_init__(self) -> None:
        if not self.delta_tilde > 0.0:
            raise ValueError("delta_tilde must be strictly positive")

    def with_b_tilde(self, b_tilde: float) -> "ScaledParameters":
        """Copy with a replaced magnetic-field variable."""
        return ScaledParameters(b_tilde, self.e_tilde, self.delta_tilde, self.theta)


def scale_parameters(mol: MoleculeParameters,
                     cfg: FieldConfiguration) -> ScaledParameters:
    """Map physical fields to the scaled GHz variables.

    Linear in B and in E separately; theta passes through. ValueError if a
    field is too large for its scaled variable to be finite.
    """
    b_tilde = b_tilde_from_field(cfg.b_field)
    e_tilde = e_tilde_from_field(cfg.e_field, mol)
    delta_tilde = 5.0 * REDUCED_PLANCK * mol.lambda_doubling / PLANCK / 1e9
    return ScaledParameters(b_tilde, e_tilde, delta_tilde, cfg.theta)


def _scaled(scale, field, name: str, unit: str):
    """scale(field) as one array pass, a float for a scalar; ValueError
    names the overflowing field value farthest from zero, a sweep's bound."""
    field = np.asarray(field, dtype=float)
    with np.errstate(over="ignore"):
        value = scale(field)
    finite = np.isfinite(value)
    if not finite.all():
        raise ValueError(f"{name} {max(field[~finite].flat, key=abs):.6g} {unit} "
                         "overflows its scaled GHz variable")
    return float(value) if value.ndim == 0 else value


def b_tilde_from_field(b_field):
    """The magnetic-field scaling alone, tesla to GHz; takes arrays too."""
    return _scaled(lambda b: 4.0 * BOHR_MAGNETON * b / PLANCK / 1e9,
                   b_field, "b_field", "T")


def e_tilde_from_field(e_field, mol: MoleculeParameters):
    """The electric-field scaling alone, V/m to GHz; takes arrays too."""
    return _scaled(lambda e: 2.0 * mol.electric_dipole * e / PLANCK / 1e9,
                   e_field, "e_field", "V/m")


def b_field_from_tilde(b_tilde: float) -> float:
    """Invert the magnetic-field scaling: GHz variable back to tesla."""
    return b_tilde * 1e9 * PLANCK / (4.0 * BOHR_MAGNETON)


def molecule_from_config(path) -> MoleculeParameters:
    """Build MoleculeParameters from a JSON config file.

    Recognized keys (both optional, defaults fill the rest):
      delta_ghz    lambda-doubling splitting Delta/(2 pi) in GHz
      mu_e_debye   electric dipole moment in debye

    @param path: path to a JSON file; OSError if it cannot be read
    @return: validated MoleculeParameters
    """
    import json

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - {"delta_ghz", "mu_e_debye"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in data:
        if not isinstance(data[key], (int, float)) or isinstance(data[key], bool):
            raise ConfigError(f"config key {key} must be a number")
        if data[key] <= 0:
            raise ConfigError(f"config key {key} must be positive")
    kwargs = {}
    if "delta_ghz" in data:
        kwargs["lambda_doubling"] = _TWO_PI * float(data["delta_ghz"]) * 1e9
    if "mu_e_debye" in data:
        kwargs["electric_dipole"] = float(data["mu_e_debye"]) * DEBYE
    return MoleculeParameters(**kwargs)

"""Physical constants, unit conversion and the scaled field parameterization.

The internal energy unit throughout the package is frequency in GHz
(energy divided by the Planck constant). That choice keeps every spectral
quantity of order 0.1..100, so even the degree-56 eigenvalue-difference
product evaluated by the discriminant routines stays comfortably inside
double-precision range; in SI joules the same product underflows to zero.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass

_TWO_PI = 2.0 * math.pi

# 1 inverse centimeter expressed in GHz (the speed of light in cm/ns).
GHZ_PER_INVERSE_CM = 29.9792458


class ConfigError(ValueError):
    """Raised for malformed molecule configuration input."""


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants, CODATA 2018, in SI units.

    planck and speed_of_light are exact by definition; reduced_planck is
    derived from planck rather than stored as a rounded literal so that the
    planck = 2*pi*reduced_planck identity holds to machine precision.
    """

    planck: float = 6.62607015e-34                    # J s, exact
    reduced_planck: float = 6.62607015e-34 / _TWO_PI  # J s
    bohr_magneton: float = 9.2740100783e-24           # J/T
    speed_of_light: float = 299792458.0               # m/s, exact
    debye: float = 1e-21 / 299792458.0                # C m

    def __post_init__(self) -> None:
        for name in ("planck", "reduced_planck", "bohr_magneton",
                     "speed_of_light", "debye"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"constant {name} must be strictly positive")
        if abs(self.planck - _TWO_PI * self.reduced_planck) > 1e-12 * self.planck:
            raise ValueError("planck inconsistent with reduced_planck")


DEFAULT_CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class MoleculeParameters:
    """Molecular inputs for the two-doublet model.

    lambda_doubling: parity-doublet splitting as an angular frequency (rad/s)
    electric_dipole: body-frame electric dipole moment (C m)

    Defaults are the OH ground-state values used for all reference numbers:
    a 1.667 GHz doublet and a 1.66 debye dipole.
    """

    lambda_doubling: float = _TWO_PI * 1.667e9
    electric_dipole: float = 1.66 * (1e-21 / 299792458.0)

    def __post_init__(self) -> None:
        if not self.lambda_doubling > 0.0:
            raise ValueError("lambda_doubling must be strictly positive")
        if not self.electric_dipole > 0.0:
            raise ValueError("electric_dipole must be strictly positive")


@dataclass(frozen=True)
class FieldConfiguration:
    """Applied static fields.

    e_field: electric field magnitude in V/m, nonnegative
    b_field: magnetic field magnitude in tesla; negative values are accepted
        so evenness of the spectrum under B -> -B can be exercised directly
    theta: angle between the electric and magnetic field vectors, rad, [0, pi]
    """

    e_field: float = 0.0
    b_field: float = 0.0
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not self.e_field >= 0.0:
            raise ValueError("e_field must be >= 0")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")


@dataclass(frozen=True)
class ScaledParameters:
    """Working variables of all closed-form expressions, as GHz frequencies.

    b_tilde = 4 mu_B B / h
    e_tilde = 2 mu_e E / h
    delta_tilde = 5 hbar Delta / h

    theta is carried through unchanged. Only delta_tilde is constrained here;
    b_tilde inherits the sign of B and theta is unrestricted so that internal
    symmetry checks may evaluate formulas anywhere on the circle.
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


class EnergyUnit(enum.Enum):
    """Supported energy unit tags for program output."""

    GHZ = "internal-GHz"
    INVERSE_CM = "inverse-cm"
    JOULE = "joule"


def scale_parameters(mol: MoleculeParameters, cfg: FieldConfiguration,
                     constants: PhysicalConstants = DEFAULT_CONSTANTS) -> ScaledParameters:
    """Map physical fields to the scaled GHz variables.

    Linear in B and in E separately; theta passes through.
    """
    h = constants.planck
    b_tilde = b_tilde_from_field(cfg.b_field, constants)
    e_tilde = 2.0 * mol.electric_dipole * cfg.e_field / h / 1e9
    delta_tilde = 5.0 * constants.reduced_planck * mol.lambda_doubling / h / 1e9
    return ScaledParameters(b_tilde, e_tilde, delta_tilde, cfg.theta)


def b_tilde_from_field(b_field, constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """The magnetic-field scaling alone, tesla to GHz; takes arrays too."""
    return 4.0 * constants.bohr_magneton * b_field / constants.planck / 1e9


def b_field_from_tilde(b_tilde: float,
                       constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Invert the magnetic-field scaling: GHz variable back to tesla."""
    return b_tilde * 1e9 * constants.planck / (4.0 * constants.bohr_magneton)


def e_field_from_tilde(e_tilde: float, mol: MoleculeParameters,
                       constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Invert the electric-field scaling: GHz variable back to V/m."""
    return e_tilde * 1e9 * constants.planck / (2.0 * mol.electric_dipole)


def convert_energy(value: float, from_unit: EnergyUnit, to_unit: EnergyUnit,
                   constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Exact linear conversion between the supported energy units.

    Conversions route through the internal GHz unit; same-unit conversion
    returns the value unchanged (bit-for-bit).
    """
    if not isinstance(from_unit, EnergyUnit) or not isinstance(to_unit, EnergyUnit):
        raise TypeError("from_unit and to_unit must be EnergyUnit members")
    if from_unit is to_unit:
        return value
    if from_unit is EnergyUnit.GHZ:
        ghz = value
    elif from_unit is EnergyUnit.INVERSE_CM:
        ghz = value * GHZ_PER_INVERSE_CM
    else:  # joule
        ghz = value / (constants.planck * 1e9)
    if to_unit is EnergyUnit.GHZ:
        return ghz
    if to_unit is EnergyUnit.INVERSE_CM:
        return ghz / GHZ_PER_INVERSE_CM
    return ghz * constants.planck * 1e9


def molecule_from_config(source) -> MoleculeParameters:
    """Build MoleculeParameters from a JSON config file or a mapping.

    Recognized keys (both optional, defaults fill the rest):
      delta_ghz    lambda-doubling splitting Delta/(2 pi) in GHz
      mu_e_debye   electric dipole moment in debye

    @param source: path to a JSON file, a JSON string, or a dict
    @return: validated MoleculeParameters
    """
    if isinstance(source, dict):
        data = source
    elif isinstance(source, (str, os.PathLike)):
        text = None
        if isinstance(source, os.PathLike) or os.path.exists(source):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = str(source)
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        raise ConfigError("config source must be a path, JSON text or a dict")
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
        kwargs["electric_dipole"] = float(data["mu_e_debye"]) * DEFAULT_CONSTANTS.debye
    return MoleculeParameters(**kwargs)

"""Units, constants, and input validation."""

import json
import math
import re

import numpy as np
import pytest

from ohcross.cli import _GHZ_PER_UNIT
from ohcross.model import (BOHR_MAGNETON, DEBYE, GHZ_PER_INVERSE_CM, PLANCK,
                           REDUCED_PLANCK, ConfigError, FieldConfiguration,
                           MoleculeParameters, ScaledParameters,
                           b_field_from_tilde, b_tilde_from_field,
                           e_tilde_from_field,
                           molecule_from_config, scale_parameters)

# Frozen against the defining expressions recomputed from raw constants:
#   field scale   = 4 mu_B / h per tesla, in GHz
#   dipole scale  = 2 mu_e / h per (V/m), in GHz, at mu_e = 1.66 D
B_TILDE_PER_TESLA = 55.98497974429082
E_TILDE_PER_KVCM = 1.671326700424179
DELTA_TILDE = 8.335


def test_constants_match_defining_values():
    assert PLANCK == 6.62607015e-34
    assert BOHR_MAGNETON == 9.2740100783e-24
    assert REDUCED_PLANCK == PLANCK / (2.0 * math.pi)
    assert DEBYE == 1e-21 / 299792458.0
    assert GHZ_PER_INVERSE_CM == 29.9792458


def test_molecule_defaults():
    mol = MoleculeParameters()
    assert mol.lambda_doubling == pytest.approx(2.0 * math.pi * 1.667e9, rel=1e-15)
    assert mol.electric_dipole == pytest.approx(1.66 * DEBYE, rel=1e-15)


def test_field_scale_factor_frozen():
    p = scale_parameters(MoleculeParameters(), FieldConfiguration(b_field=1.0))
    assert p.b_tilde == pytest.approx(B_TILDE_PER_TESLA, rel=1e-14)
    # independent recomputation from raw constants
    direct = 4.0 * 9.2740100783e-24 / 6.62607015e-34 * 1e-9
    assert p.b_tilde == pytest.approx(direct, rel=1e-14)


def test_dipole_scale_factor_frozen():
    p = scale_parameters(MoleculeParameters(), FieldConfiguration(e_field=1e5))
    assert p.e_tilde == pytest.approx(E_TILDE_PER_KVCM, rel=1e-14)
    direct = 2.0 * (1.66 * 1e-21 / 299792458.0) / 6.62607015e-34 * 1e5 * 1e-9
    assert p.e_tilde == pytest.approx(direct, rel=1e-14)


def test_splitting_scale_exact():
    p = scale_parameters(MoleculeParameters(), FieldConfiguration())
    assert p.delta_tilde == pytest.approx(DELTA_TILDE, rel=1e-12)


def test_scaling_is_linear_in_fields():
    mol = MoleculeParameters()
    p1 = scale_parameters(mol, FieldConfiguration(e_field=2e4, b_field=0.05))
    p2 = scale_parameters(mol, FieldConfiguration(e_field=4e4, b_field=0.10))
    assert p2.b_tilde == pytest.approx(2.0 * p1.b_tilde, rel=1e-14)
    assert p2.e_tilde == pytest.approx(2.0 * p1.e_tilde, rel=1e-14)


def test_tilde_roundtrips():
    mol = MoleculeParameters()
    assert b_field_from_tilde(B_TILDE_PER_TESLA) == pytest.approx(1.0, rel=1e-13)
    p = scale_parameters(mol, FieldConfiguration(e_field=3.3e4, b_field=0.21, theta=0.4))
    assert b_field_from_tilde(p.b_tilde) == pytest.approx(0.21, rel=1e-13)


def test_array_scalings_equal_scalar_ones():
    mol = MoleculeParameters()
    fields = np.array([0.0, 1e-7, 0.05, 3.3e4, 1e5, 1e280])
    e = e_tilde_from_field(fields, mol)
    b = b_tilde_from_field(-fields)
    for k, field in enumerate(fields.tolist()):
        p = scale_parameters(mol, FieldConfiguration(e_field=field, b_field=-field))
        assert e[k].tobytes() == np.float64(p.e_tilde).tobytes()
        assert b[k].tobytes() == np.float64(p.b_tilde).tobytes()
    assert type(e_tilde_from_field(2e4, mol)) is float


def test_field_too_large_to_scale_rejected():
    mol = MoleculeParameters()
    with pytest.raises(ValueError, match="b_field 1e\\+308 T overflows"):
        scale_parameters(mol, FieldConfiguration(b_field=1e308))
    # of the overflowing entries, the one farthest from zero: a sweep's bound
    with pytest.raises(ValueError, match="e_field 1e\\+308 V/m overflows"):
        e_tilde_from_field(np.array([0.0, 5e307, 1e308]), mol)
    with pytest.raises(ValueError, match="b_field -1e\\+308 T overflows"):
        b_tilde_from_field(np.array([0.0, -5e307, -1e308]))
    with pytest.raises(ValueError, match="b_field -1e\\+308 T"):
        b_tilde_from_field(np.float64(-1e308))


def test_theta_passes_through_unchanged():
    p = scale_parameters(MoleculeParameters(), FieldConfiguration(theta=1.234))
    assert p.theta == 1.234


def test_with_b_tilde_replaces_only_field():
    p = ScaledParameters(b_tilde=1.0, e_tilde=2.0, delta_tilde=8.335, theta=0.5)
    q = p.with_b_tilde(4.0)
    assert q.b_tilde == 4.0
    assert (q.e_tilde, q.delta_tilde, q.theta) == (2.0, 8.335, 0.5)
    assert p.b_tilde == 1.0


def test_energy_conversion_ghz_to_inverse_cm():
    # the CLI prints energies as internal GHz divided by its unit table
    assert _GHZ_PER_UNIT == {"percm": GHZ_PER_INVERSE_CM, "ghz": 1.0}
    percm = _GHZ_PER_UNIT["percm"]
    assert GHZ_PER_INVERSE_CM / percm == pytest.approx(1.0, rel=1e-14)
    assert 0.8335 / percm == pytest.approx(0.027802567334, rel=1e-10)


def test_field_configuration_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FieldConfiguration(e_field=-1.0)
    with pytest.raises(ValueError):
        FieldConfiguration(theta=-0.01)
    with pytest.raises(ValueError):
        FieldConfiguration(theta=math.pi + 0.01)
    for fields in ({"e_field": math.inf}, {"e_field": math.nan}, {"b_field": math.nan},
                   {"b_field": math.inf}, {"b_field": -math.inf}):
        with pytest.raises(ValueError, match="must be finite"):
            FieldConfiguration(**fields)
    # negative magnetic field is legitimate
    FieldConfiguration(b_field=-0.2)


@pytest.mark.parametrize("name, bad", [
    ("e_field", -1.0), ("e_field", math.nan), ("e_field", math.inf),
    ("b_field", math.nan), ("b_field", -math.inf),
    ("theta", -0.01), ("theta", math.pi + 0.01), ("theta", math.nan)])
@pytest.mark.parametrize("index", [0, 3, 6])
def test_field_configuration_checks_arrays_elementwise(name, bad, index):
    with pytest.raises(ValueError) as scalar:
        FieldConfiguration(**{name: bad})
    fields = {key: np.linspace(0.0, 1.0, 7) for key in ("e_field", "b_field", "theta")}
    fields[name][index] = bad
    with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
        FieldConfiguration(**fields)


def test_field_configuration_array_checks_keep_their_order():
    # a bad e_field anywhere is reported before a bad theta anywhere, as
    # the checks of one float run
    with pytest.raises(ValueError, match="e_field must be >= 0"):
        FieldConfiguration(e_field=np.array([1.0, -1.0]), theta=np.array([-1.0, 0.0]))
    with pytest.raises(ValueError, match="b_field must be finite"):
        FieldConfiguration(b_field=np.array([0.0, math.inf]), theta=np.array([9.0, 0.0]))


def test_array_configuration_scales_like_its_points():
    mol = MoleculeParameters()
    rows = np.array([[0.0, -0.2, 0.0], [3.3e4, 0.0, 1.0], [1e5, 0.21, math.pi]])
    p = scale_parameters(mol, FieldConfiguration(*rows.T))
    for k, row in enumerate(rows.tolist()):
        one = scale_parameters(mol, FieldConfiguration(*row))
        assert (p.e_tilde[k], p.b_tilde[k], p.theta[k]) == (
            one.e_tilde, one.b_tilde, one.theta)
        assert type(one.b_tilde) is float and type(one.e_tilde) is float
    assert type(b_tilde_from_field(np.float64(0.5))) is float


def test_scaled_parameters_requires_positive_splitting():
    with pytest.raises(ValueError):
        ScaledParameters(b_tilde=0.0, e_tilde=0.0, delta_tilde=0.0, theta=0.0)
    with pytest.raises(ValueError):
        ScaledParameters(b_tilde=0.0, e_tilde=0.0, delta_tilde=-1.0, theta=0.0)


def write_config(tmp_path, text):
    path = tmp_path / "mol.json"
    path.write_text(text, encoding="utf-8")
    return path


def test_molecule_from_config_dict_and_json(tmp_path):
    mol = molecule_from_config(
        write_config(tmp_path, json.dumps({"delta_ghz": 2.0, "mu_e_debye": 1.0})))
    assert mol.lambda_doubling == pytest.approx(2.0 * math.pi * 2.0e9, rel=1e-14)
    assert mol.electric_dipole == pytest.approx(DEBYE, rel=1e-14)

    text = json.dumps({"delta_ghz": 1.667, "mu_e_debye": 1.66})
    path = write_config(tmp_path, text)
    mol2 = molecule_from_config(path)
    default = MoleculeParameters()
    assert mol2.lambda_doubling == pytest.approx(default.lambda_doubling, rel=1e-14)

    mol3 = molecule_from_config(str(path))
    assert mol3.electric_dipole == pytest.approx(default.electric_dipole, rel=1e-14)


def test_molecule_from_config_partial_keeps_defaults(tmp_path):
    mol = molecule_from_config(write_config(tmp_path, '{"delta_ghz": 1.0}'))
    assert mol.lambda_doubling == pytest.approx(2.0 * math.pi * 1e9, rel=1e-14)
    assert mol.electric_dipole == MoleculeParameters().electric_dipole


@pytest.mark.parametrize("field", ["lambda_doubling", "electric_dipole"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
def test_molecule_parameters_must_be_positive(field, value):
    # the config loader rejects such keys first, so only a direct
    # construction reaches these checks
    with pytest.raises(ValueError, match=f"{field} must be strictly positive"):
        MoleculeParameters(**{field: value})


def test_molecule_from_config_rejects_garbage(tmp_path):
    for text in ('{"delta_ghz": -1.0, "mu_e_debye": 1.0}',
                 '{"delta_ghz": 1.0, "mu_e_debye": 1.0, "extra": 2}',
                 "{not json",
                 "[1, 2]",
                 '{"delta_ghz": "x", "mu_e_debye": 1.0}'):
        with pytest.raises(ConfigError):
            molecule_from_config(write_config(tmp_path, text))

"""Structure of the assembled 8x8 matrix."""

import math

import numpy as np
import pytest

from ohcross.cli import run
from ohcross.hamiltonian import (ZEEMAN_DIAGONAL, angular_coupling,
                                 build_hamiltonian)
from ohcross.model import ScaledParameters, b_field_from_tilde


def params(b=1.0, e=1.0, theta=0.5):
    return ScaledParameters(b_tilde=b, e_tilde=e, delta_tilde=8.335, theta=theta)


def test_angular_coupling_rows():
    theta = 0.7
    c, s = math.cos(theta), math.sin(theta)
    m = angular_coupling(theta)
    expected = np.array([
        [-3.0 * c, math.sqrt(3.0) * s, 0.0, 0.0],
        [math.sqrt(3.0) * s, -c, 2.0 * s, 0.0],
        [0.0, 2.0 * s, c, math.sqrt(3.0) * s],
        [0.0, 0.0, math.sqrt(3.0) * s, 3.0 * c],
    ])
    assert np.array_equal(m, expected)


def test_angular_coupling_is_read_only():
    m = angular_coupling(0.3)
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_assembled_layout():
    # [[a1 - a2, -c], [-c, a1 + a2]] with a1 the Zeeman diagonal, a2 the
    # doublet splitting and c the electric coupling, signed zeros included
    rng = np.random.default_rng(43)
    for _ in range(50):
        p = params(b=float(rng.uniform(-20, 20)), e=float(rng.uniform(0, 10)),
                   theta=float(rng.uniform(0, math.pi)))
        a1 = (p.b_tilde / 10.0) * np.diag([-3.0, -1.0, 1.0, 3.0])
        a2 = (8.335 / 10.0) * np.eye(4)
        c = (p.e_tilde / 10.0) * angular_coupling(p.theta)
        expected = np.block([[a1 - a2, -c], [-c, a1 + a2]])
        assert build_hamiltonian(p).tobytes() == expected.tobytes()


def test_hamiltonian_exactly_symmetric():
    rng = np.random.default_rng(42)
    for _ in range(25):
        p = params(b=float(rng.uniform(-20, 20)),
                   e=float(rng.uniform(0, 10)),
                   theta=float(rng.uniform(0, math.pi)))
        h = build_hamiltonian(p)
        assert np.array_equal(h, h.T)
        with pytest.raises(ValueError):
            h[1, 2] = 9.9


def test_zero_fields_give_pure_splitting():
    h = build_hamiltonian(params(b=0.0, e=0.0))
    half = 8.335 / 10.0
    assert np.array_equal(h[:4, :4], -half * np.eye(4))
    assert np.array_equal(h[4:, 4:], half * np.eye(4))
    assert not h[:4, 4:].any()


def test_trace_is_zero():
    p = params(b=3.7, e=2.1, theta=0.9)
    assert build_hamiltonian(p).trace() == pytest.approx(0.0, abs=1e-14)


def test_hamiltonian_command_layout(capsys):
    # b_tilde = 1 at zero electric field, theta = 0
    assert run(["hamiltonian", "--b-tesla", repr(b_field_from_tilde(1.0))]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert len(lines) == 8
    assert all(len(line.split()) == 8 for line in lines)
    assert text.endswith("\n")
    # no negative zeros in the dump
    assert "-0 " not in text and not text.endswith("-0\n")
    first = [float(v) for v in lines[0].split()]
    assert first[0] == pytest.approx(-0.3 - 0.8335, rel=1e-12)


def with_zeeman(p, b):
    """build_hamiltonian at b_tilde = 0 plus the (b/10) Z diagonal."""
    h = np.array(build_hamiltonian(p.with_b_tilde(0.0)))
    h[np.arange(8), np.arange(8)] += (b / 10.0) * ZEEMAN_DIAGONAL
    return h


class TestZeroFieldSplit:
    """H(b) = H(0) + (b/10) Z holds bit for bit for b >= 0, which lets a
    crossing catalog build H(0) once and reuse it at every field."""

    def test_zero_field(self):
        p = params(b=0.0, e=2.3, theta=0.8)
        assert with_zeeman(p, 0.0).tobytes() == build_hamiltonian(p).tobytes()

    def test_random_nonnegative_fields(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            p = params(b=float(rng.uniform(0, 20)), e=float(rng.uniform(0, 10)),
                       theta=float(rng.uniform(0, math.pi)))
            assert (with_zeeman(p, p.b_tilde).tobytes()
                    == build_hamiltonian(p).tobytes())

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2.0, math.pi])
    def test_special_angles(self, theta):
        rng = np.random.default_rng(8)
        for b in [0.0, 1e-9, 0.5, 3.0] + rng.uniform(0, 20, 20).tolist():
            p = params(b=b, e=float(rng.uniform(0, 10)), theta=theta)
            assert (with_zeeman(p, b).tobytes()
                    == build_hamiltonian(p).tobytes())

    def test_negative_fields_differ_only_in_signed_zeros(self):
        # build_hamiltonian writes -0.0 off the diagonal of the Zeeman
        # blocks when b < 0, where the split writes +0.0
        p = params(b=-0.4, e=1.0, theta=0.7)
        split, direct = with_zeeman(p, p.b_tilde), build_hamiltonian(p)
        assert np.array_equal(split, direct)
        assert split.tobytes() != direct.tobytes()

    def test_stacked_eigvalsh_rows_equal_single_calls(self):
        rng = np.random.default_rng(9)
        stack = np.stack([build_hamiltonian(params(
            b=float(rng.uniform(0, 20)), e=float(rng.uniform(0, 10)),
            theta=float(rng.uniform(0, math.pi)))) for _ in range(200)])
        rows = np.linalg.eigvalsh(stack)
        for h, row in zip(stack, rows):
            assert np.linalg.eigvalsh(h).tobytes() == row.tobytes()


def test_stack_equals_one_matrix_calls():
    # negative B (whose Zeeman-block zeros are -0.0), B = +-0.0, E = 0 and
    # the special angles included; every byte of every matrix must agree
    rng = np.random.default_rng(44)
    b = rng.uniform(-20, 20, 40)
    b[:2] = (-0.0, 0.0)
    e = rng.uniform(0, 10, 40)
    e[2] = 0.0
    th = rng.uniform(0, math.pi, 40)
    th[3:6] = (0.0, math.pi / 2.0, math.pi)
    stack = build_hamiltonian(ScaledParameters(b, e, 8.335, th))
    assert stack.shape == (40, 8, 8)
    assert angular_coupling(th).shape == (40, 4, 4)
    for k in range(40):
        one = build_hamiltonian(params(b=float(b[k]), e=float(e[k]),
                                       theta=float(th[k])))
        assert stack[k].tobytes() == one.tobytes()
        assert angular_coupling(th)[k].tobytes() == angular_coupling(float(th[k])).tobytes()
    assert np.signbit(stack[0, 0, 1]) and not np.signbit(stack[1, 0, 1])


def test_scalar_fields_broadcast_against_arrays():
    b = np.array([[-1.5], [2.0]])
    th = np.array([0.0, 0.4, math.pi])
    stack = build_hamiltonian(params(b=b, e=3.0, theta=th))
    assert stack.shape == (2, 3, 8, 8)
    for i in range(2):
        for j in range(3):
            one = build_hamiltonian(params(b=float(b[i, 0]), e=3.0, theta=float(th[j])))
            assert stack[i, j].tobytes() == one.tobytes()

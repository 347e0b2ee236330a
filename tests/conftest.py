"""Shared fixtures."""

import math
import os

# One BLAS thread, set before numpy loads: a multi-threaded BLAS slows
# the small products the tests make whenever another process holds a CPU.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from qelim.schemes import pbr_basis
from qelim.states import Angle, qubit_state


def _dilated_ancilla_effects(angle, twist):
    """Ancilla-scheme effects from a full unitary dilation, ancillas traced out.

    The unitary V on (system, ancilla) sends |+-t>|0> to
    |+-22.5 deg>|phi_+->, with cos(2mu) = sqrt(2) cos(2t), and maps the
    complement of the inputs' span onto that of the outputs' span
    through the 2x2 unitary twist, so each twist completes the coupling
    to a different unitary. Both qubits go through V, the conclusive
    basis is measured on the system wires and both ancillas are traced
    out. Returns {exclusion mask: operator}, with the failure operator
    I - sum of the others under mask 0.
    """
    half = Angle(math.pi / 8.0)
    mu = 0.5 * math.acos(min(1.0, math.sqrt(2.0) * angle.overlap))
    e0 = np.array([1.0, 0.0])
    x = np.stack([np.kron(qubit_state(angle, s), e0) for s in (1, -1)], axis=1)
    y = np.stack(
        [np.kron(qubit_state(half, s), [math.cos(mu), s * math.sin(mu)]) for s in (1, -1)],
        axis=1,
    )
    x_perp = np.linalg.qr(x, mode="complete")[0][:, 2:]
    y_perp = np.linalg.qr(y, mode="complete")[0][:, 2:]
    v = y @ np.linalg.pinv(x) + y_perp @ twist @ x_perp.conj().T
    assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-12)
    # m[s_out, a_out, s_in]: V with its ancilla input fixed to |0>
    m = v.reshape(2, 2, 2, 2)[:, :, :, 0]
    out = {}
    for e in pbr_basis(half).effects:
        op = np.einsum(
            "xas,zbt,xzyw,yar,wbu->stru", m.conj(), m.conj(), e.op.reshape(2, 2, 2, 2), m, m
        ).reshape(4, 4)
        out[e.excludes.mask] = op
    out[0] = np.eye(4) - sum(out.values())
    return out


@pytest.fixture
def dilated_ancilla_effects():
    """Reference ancilla effects for two different completions of the coupling."""
    twists = (np.eye(2), np.array([[0.0, 1j], [1.0, 0.0]]))
    return lambda angle: [_dilated_ancilla_effects(angle, w) for w in twists]


def _grid_pbar(probs):
    q = np.rint(np.clip(probs, 0.0, None) * 2.0 ** 40)
    return q / q.sum()


@pytest.fixture
def grid_pbar():
    """The distribution monte_carlo samples: probabilities rounded to 2**-40, renormalised."""
    return _grid_pbar


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


@pytest.fixture
def same_bits():
    """Assert equal dtype, shape and values, and the same sign bit on every zero."""
    return _assert_same_bits

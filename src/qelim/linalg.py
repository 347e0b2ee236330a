"""Dense linear algebra for small multi-qubit operators.

Vectors are 1-D numpy arrays and operators square 2-D arrays
(row-major, 0-based). The dtype follows the inputs: real data, as every
scheme builds at a real angle, stay float64 and take real arithmetic,
and complex data take complex arithmetic through numpy's type
promotion. Kronecker products and rank-one projectors build the
schemes' operators. A Kronecker product is one broadcast multiply, not
a call of np.kron: on 2x2 and 4x4 operands numpy's fixed per-call
cost, not arithmetic, sets the time, and np.kron spends some 20 us
where the multiply spends 4. Eigenvalues of Hermitian operators come from LAPACK
through numpy.linalg.eigvalsh, behind a shape and Hermiticity check,
real symmetric or complex Hermitian as the input's dtype says. Every
function is pure and leaves its inputs untouched, so results can be
shared freely between threads.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12


class DimensionMismatch(ValueError):
    """Operands do not have compatible shapes."""


class NotHermitian(ValueError):
    """Matrix is not Hermitian within tolerance."""


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor as the most significant index.

    Bit-identical to np.kron: a gains a unit axis after each of its axes
    and b one before each of its axes, so one broadcast multiply forms
    every entry as the single product a[i, j] * b[k, l], already in the
    product's row-major order. Inputs of lower rank get leading unit
    axes first, as np.kron gives them.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    rank = max(a.ndim, b.ndim)
    a_shape = (1,) * (rank - a.ndim) + a.shape
    b_shape = (1,) * (rank - b.ndim) + b.shape
    out = a.reshape([d for n in a_shape for d in (n, 1)]) * b.reshape(
        [d for n in b_shape for d in (1, n)]
    )
    return out.reshape([m * n for m, n in zip(a_shape, b_shape)])


def kron_all(factors) -> np.ndarray:
    """Kronecker product of a sequence, left to right."""
    factors = list(factors)
    if not factors:
        raise ValueError("kron_all needs at least one factor")
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = kron(out, f)
    return out


def outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rank-one matrix |x><y|, i.e. result[i, j] = x[i] * conj(y[j])."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim != 1 or y.ndim != 1:
        raise DimensionMismatch("outer expects 1-D vectors")
    return np.outer(x, y.conj())


def projector(x: np.ndarray) -> np.ndarray:
    """Rank-one projector |x><x| (not normalised beyond what x carries)."""
    return outer(x, x)


def frob_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance ||a - b||_F."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def is_hermitian(a: np.ndarray) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    adjoint = a.conj().T if a.dtype.kind == "c" else a.T
    return float(np.max(np.abs(a - adjoint))) <= HERMITIAN_TOL


def eig_hermitian(a: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    Raises DimensionMismatch if the input is not square and NotHermitian
    if it fails the Hermiticity tolerance; LAPACK reads only one
    triangle, so an unchecked non-Hermitian input would pass silently.
    A real input is solved as a real symmetric matrix, a complex one as
    a complex Hermitian matrix.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not is_hermitian(a):
        raise NotHermitian("matrix is not Hermitian within 1e-12")
    return np.linalg.eigvalsh(a)

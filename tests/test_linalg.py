"""Tests for the dense linear algebra helpers."""

import numpy as np
import pytest

from qelim.linalg import (
    DimensionMismatch,
    NotHermitian,
    eig_hermitian,
    frob_dist,
    is_hermitian,
    kron,
    kron_all,
    outer,
    projector,
)


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


class TestBasics:
    def test_kron_matches_numpy(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(kron(a, b), np.kron(a, b))

    def test_kron_all_three_factors(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        z = np.array([[1.0, 0.0], [0.0, -1.0]])
        i2 = np.eye(2)
        out = kron_all([x, i2, z])
        np.testing.assert_allclose(out, np.kron(np.kron(x, i2), z))
        assert out.shape == (8, 8)

    def test_kron_all_single_factor_is_copy(self):
        m = np.eye(3)
        out = kron_all([m])
        np.testing.assert_allclose(out, m)

    def test_kron_all_empty_raises(self):
        with pytest.raises(ValueError):
            kron_all([])

    def test_outer_conjugates_second_argument(self):
        x = np.array([1.0, 1j])
        got = outer(x, x)
        expected = np.array([[1.0, -1j], [1j, 1.0]])
        np.testing.assert_allclose(got, expected)
        assert is_hermitian(got)

    def test_projector_is_idempotent(self):
        v = np.array([0.6, 0.8j])
        p = projector(v)
        np.testing.assert_allclose(p @ p, p, atol=1e-14)
        np.testing.assert_allclose(np.trace(p), 1.0, atol=1e-14)

    def test_projector_keeps_input_weight(self):
        # the trace carries the squared norm of the input vector
        v = np.array([3.0, 4.0])
        p = projector(v)
        np.testing.assert_allclose(np.trace(p), 25.0, atol=1e-12)

    def test_frob_dist(self):
        a = np.zeros((2, 2))
        b = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert frob_dist(a, b) == pytest.approx(5.0)

    def test_frob_dist_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            frob_dist(np.eye(2), np.eye(3))

    def test_is_hermitian(self):
        assert is_hermitian(np.eye(4))
        assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestKronBitIdentity:
    """kron is one broadcast multiply; it must reproduce np.kron bit for bit."""

    RNG = np.random.default_rng(14)
    W = RNG.standard_normal((4, 2)) + 1j * RNG.standard_normal((4, 2))
    SIGNED = np.array([[0.0, -0.0], [-1.5, 2.0]])
    CASES = {
        "vectors": (np.array([0.6, -0.0]), np.array([-0.0, 0.8j])),
        "real matrices": (SIGNED, np.array([[1.0, -0.0], [0.0, -3.0]])),
        "complex matrices": (W[:2], -W[2:].conj()),
        "strided slices": (W[0::2], W[1::2]),
        "transposed": (W.T, SIGNED),
        "non-square": (W, RNG.standard_normal((2, 3))),
        "vector then matrix": (np.array([1.0, -0.0j]), W),
        "matrix then vector": (SIGNED, np.array([-0.0, 1.0, 2.0j])),
        "3-D then vector": (RNG.standard_normal((2, 1, 2)), np.array([1.0, -1.0])),
        "scalar": (np.array(-0.0), W),
        "lists": ([[1.0, 0.0], [0.0, -1.0]], [1.0, -0.0]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_kron_matches_numpy_bits(self, case, same_bits):
        a, b = (np.asarray(x, dtype=complex) for x in self.CASES[case])
        same_bits(kron(a, b), np.kron(a, b))
        same_bits(kron(b, a), np.kron(b, a))
        # raw input keeps its own dtype, as np.kron's does
        same_bits(kron(*self.CASES[case]), np.kron(*self.CASES[case]))

    def test_kron_all_matches_numpy_chain_bits(self, same_bits):
        factors = [self.W[0::2], self.SIGNED, np.array([-0.0, 1.0]), self.W[1::2]]
        want = np.asarray(factors[0], dtype=complex)
        for f in factors[1:]:
            want = np.kron(want, np.asarray(f, dtype=complex))
        same_bits(kron_all(factors), want)


class TestDtypeFollowsInputs:
    """Real inputs give float64, and one complex input makes the result complex."""

    REAL = np.array([[1.0, -2.0], [0.5, 3.0]])
    VEC = np.array([0.6, -0.8])

    def test_real_inputs_stay_float64(self):
        assert kron(self.REAL, self.VEC).dtype == np.float64
        assert kron_all([self.REAL, self.REAL, self.VEC]).dtype == np.float64
        assert outer(self.VEC, self.VEC).dtype == np.float64
        assert projector(self.VEC).dtype == np.float64

    def test_one_complex_input_makes_the_result_complex(self, same_bits):
        z = self.VEC * np.exp(0.3j)
        assert kron(self.REAL, z).dtype == np.complex128
        assert kron_all([self.REAL, z, self.REAL]).dtype == np.complex128
        same_bits(outer(self.VEC, z), np.outer(self.VEC, z.conj()))
        same_bits(projector(z), np.outer(z, z.conj()))
        assert frob_dist(z, self.VEC) == np.linalg.norm(z - self.VEC)


class TestJacobi:
    """eig_hermitian (LAPACK via numpy) against exact spectra and eigvalsh."""

    def test_diagonal_matrix_passthrough(self):
        d = np.diag([3.0, -1.0, 2.0])
        np.testing.assert_allclose(eig_hermitian(d), [-1.0, 2.0, 3.0])

    def test_pauli_x_eigenvalues(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(eig_hermitian(x), [-1.0, 1.0], atol=1e-15)

    def test_complex_hermitian_2x2(self):
        m = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -1.0]])
        vals = eig_hermitian(m)
        # roots of l^2 - 6 = 0 shifted: eigenvalues of [[1, c],[c*, -1]]
        expected = np.array([-np.sqrt(6.0), np.sqrt(6.0)])
        np.testing.assert_allclose(vals, expected, atol=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8, 12, 16, 64])
    def test_matches_numpy_eigvalsh(self, dim):
        rng = np.random.default_rng(1000 + dim)
        m = random_hermitian(dim, rng)
        np.testing.assert_allclose(eig_hermitian(m), np.linalg.eigvalsh(m), atol=1e-10)

    def test_real_symmetric_large(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((16, 16))
        m = (m + m.T) / 2
        np.testing.assert_allclose(eig_hermitian(m), np.linalg.eigvalsh(m), atol=1e-10)

    def test_values_sorted_ascending(self):
        rng = np.random.default_rng(11)
        m = random_hermitian(9, rng)
        assert np.all(np.diff(eig_hermitian(m)) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            eig_hermitian(np.zeros((2, 3)))

    def test_eig_hermitian_values_only(self):
        m = np.diag([2.0, 1.0])
        np.testing.assert_allclose(eig_hermitian(m), [1.0, 2.0])

    def test_min_eigenvalue(self):
        m = np.diag([0.5, -0.25, 1.0])
        assert eig_hermitian(m)[0] == pytest.approx(-0.25, abs=1e-14)

    def test_rank_one_projector_spectrum(self):
        v = np.array([1.0, 1j, -1.0]) / np.sqrt(3.0)
        p = projector(v)
        np.testing.assert_allclose(eig_hermitian(p), [0.0, 0.0, 1.0], atol=1e-14)


class TestRealPath:
    """Real data take real LAPACK; complex-typed data the complex path."""

    @pytest.mark.parametrize("dim", [2, 4, 16, 64])
    def test_real_valued_complex_input_matches_complex_eigvalsh(self, dim):
        rng = np.random.default_rng(2000 + dim)
        m = rng.standard_normal((dim, dim))
        m = ((m + m.T) / (2.0 * dim)).astype(complex)
        np.testing.assert_allclose(eig_hermitian(m), np.linalg.eigvalsh(m), rtol=0, atol=1e-14)

    def test_real_non_symmetric_still_rejected(self):
        # a 64 x 64 symmetric matrix with one entry off by 1e-9, as
        # large as local_usd's operators at n = 6
        big = np.random.default_rng(3064).standard_normal((64, 64))
        big = big + big.T
        assert is_hermitian(big)
        big[63, 0] += 1e-9
        for m in (np.array([[1.0, 0.5], [0.0, 1.0]]), big):
            for a in (m.astype(complex), m):
                assert not is_hermitian(a)
                with pytest.raises(NotHermitian):
                    eig_hermitian(a)

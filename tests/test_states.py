"""Tests for angles, sign patterns, qubit states, and ensembles."""

import math

import numpy as np
import pytest

from qelim.states import (
    Angle,
    Ensemble,
    SignPattern,
    all_patterns,
    orth_state,
    product_state,
    qubit_state,
    uniform_ensemble,
)


class TestAngle:
    def test_from_degrees_round_trip(self):
        a = Angle.from_two_theta_deg(30.0)
        assert a.two_theta_deg == pytest.approx(30.0, abs=1e-12)
        assert a.theta == pytest.approx(math.radians(15.0), abs=1e-15)

    def test_overlap_is_cos_two_theta(self):
        a = Angle.from_two_theta_deg(60.0)
        assert a.overlap == pytest.approx(0.5, abs=1e-15)

    def test_endpoints_allowed(self):
        assert Angle.from_two_theta_deg(0.0).overlap == pytest.approx(1.0)
        assert Angle.from_two_theta_deg(90.0).overlap == pytest.approx(0.0, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Angle.from_two_theta_deg(-1.0)
        with pytest.raises(ValueError):
            Angle.from_two_theta_deg(90.5)
        with pytest.raises(ValueError):
            Angle(theta=1.0)

    def test_frozen(self):
        a = Angle.from_two_theta_deg(45.0)
        with pytest.raises(Exception):
            a.theta = 0.1


class TestQubitStates:
    def test_plus_state_components(self):
        a = Angle.from_two_theta_deg(45.0)
        v = qubit_state(a, +1)
        np.testing.assert_allclose(
            v, [0.9238795325112867, 0.3826834323650898], atol=1e-15
        )

    def test_minus_state_components(self):
        a = Angle.from_two_theta_deg(45.0)
        v = qubit_state(a, -1)
        np.testing.assert_allclose(
            v, [0.9238795325112867, -0.3826834323650898], atol=1e-15
        )

    def test_pair_overlap(self):
        for deg in [0.0, 10.0, 30.0, 45.0, 60.0, 90.0]:
            a = Angle.from_two_theta_deg(deg)
            got = (qubit_state(a, +1) @ qubit_state(a, -1)).real
            assert got == pytest.approx(a.overlap, abs=1e-14)

    def test_orth_state_is_orthogonal(self):
        a = Angle.from_two_theta_deg(33.0)
        for sign in (+1, -1):
            dot = (qubit_state(a, sign) @ orth_state(a, sign)).real
            assert dot == pytest.approx(0.0, abs=1e-15)

    def test_orth_state_components(self):
        # orth of |+theta> is sin(theta)|0> - cos(theta)|1>
        a = Angle.from_two_theta_deg(60.0)
        t = a.theta
        np.testing.assert_allclose(
            orth_state(a, +1), [math.sin(t), -math.cos(t)], atol=1e-15
        )
        np.testing.assert_allclose(
            orth_state(a, -1), [math.sin(t), math.cos(t)], atol=1e-15
        )

    def test_bad_sign_rejected(self):
        a = Angle.from_two_theta_deg(45.0)
        with pytest.raises(ValueError):
            qubit_state(a, 0)
        with pytest.raises(ValueError):
            orth_state(a, 2)

    def test_zero_plus_states_at_45(self):
        # at 2*theta = 90 the pair is |0> against |1> up to the rotation used here
        a = Angle.from_two_theta_deg(90.0)
        plus = qubit_state(a, +1)
        minus = qubit_state(a, -1)
        np.testing.assert_allclose(np.abs(plus), [2**-0.5, 2**-0.5], atol=1e-15)
        assert (plus @ minus).real == pytest.approx(0.0, abs=1e-15)


class TestSignPattern:
    def test_from_string_round_trip(self):
        p = SignPattern.from_string("+-+")
        assert p.n == 3
        assert p.bits == 0b010
        assert str(p) == "+-+"
        assert p.signs == (+1, -1, +1)

    def test_leftmost_is_lowest_bit(self):
        p = SignPattern.from_string("-++")
        assert p.bits == 0b001

    def test_hamming(self):
        plus = SignPattern.from_string("++")
        minus = SignPattern.from_string("--")
        assert plus.hamming(plus) == 0
        assert plus.hamming(minus) == 2
        assert SignPattern.from_string("+-+-").hamming(
            SignPattern.from_string("++++")
        ) == 2
        with pytest.raises(ValueError):
            plus.hamming(SignPattern.from_string("+++"))

    def test_all_patterns_order(self):
        pats = all_patterns(2)
        assert [str(p) for p in pats] == ["++", "-+", "+-", "--"]
        assert [p.bits for p in pats] == [0, 1, 2, 3]

    def test_bad_string(self):
        with pytest.raises(ValueError):
            SignPattern.from_string("+0-")
        with pytest.raises(ValueError):
            SignPattern.from_string("")

    def test_bits_out_of_range(self):
        with pytest.raises(ValueError):
            SignPattern(n=2, bits=4)
        with pytest.raises(ValueError):
            SignPattern(n=0, bits=0)


class TestProductState:
    def test_two_qubit_amplitudes(self):
        a = Angle.from_two_theta_deg(40.0)
        c = math.cos(a.theta)
        s = math.sin(a.theta)
        v = product_state(a, SignPattern.from_string("+-"))
        expected = np.kron([c, s], [c, -s])
        np.testing.assert_allclose(v, expected, atol=1e-15)

    def test_leftmost_qubit_is_most_significant_axis(self):
        a = Angle.from_two_theta_deg(40.0)
        c = math.cos(a.theta)
        s = math.sin(a.theta)
        v = product_state(a, SignPattern.from_string("-+"))
        # first (left) qubit carries the minus sign
        expected = np.kron([c, -s], [c, s])
        np.testing.assert_allclose(v, expected, atol=1e-15)

    def test_normalized(self):
        a = Angle.from_two_theta_deg(70.0)
        for p in all_patterns(3):
            v = product_state(a, p)
            assert (v @ v).real == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_overlap_scales_with_hamming_distance(self, n):
        a = Angle.from_two_theta_deg(55.0)
        pats = all_patterns(n)
        vecs = [product_state(a, p) for p in pats]
        for i, pi in enumerate(pats):
            for j, pj in enumerate(pats):
                dist = bin(pi.bits ^ pj.bits).count("1")
                got = (vecs[i] @ vecs[j]).real
                assert got == pytest.approx(a.overlap**dist, abs=1e-12)


class TestEnsemble:
    def test_uniform_ensemble_shape(self):
        a = Angle.from_two_theta_deg(45.0)
        ens = uniform_ensemble(a, 2)
        assert ens.size == 4
        assert ens.dim == 4
        np.testing.assert_allclose(ens.priors, [0.25] * 4)

    def test_uniform_ensemble_matches_pattern_order(self):
        a = Angle.from_two_theta_deg(30.0)
        ens = uniform_ensemble(a, 2)
        for k, p in enumerate(all_patterns(2)):
            np.testing.assert_allclose(
                ens.states[k], product_state(a, p), atol=1e-15
            )

    @pytest.mark.parametrize("deg", [0.0, 1e-9, 13.0, 45.0, 60.0, 89.0, 90.0])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_uniform_ensemble_is_product_states_bit_for_bit(self, deg, n, same_bits):
        # the ensemble is built with one broadcast multiply per qubit; each
        # row must equal product_state's Kronecker chain, zero signs included
        a = Angle.from_two_theta_deg(deg)
        ens = uniform_ensemble(a, n)
        assert len(ens.states) == 1 << n
        for state, p in zip(ens.states, all_patterns(n)):
            same_bits(state, product_state(a, p))
        assert np.array_equal(ens.priors, np.full(1 << n, 1.0 / (1 << n)))

    @pytest.mark.parametrize("deg", [0.0, 30.0, 45.0, 90.0])
    def test_states_are_float64(self, deg):
        # the pair is real at every real angle, and so is every product
        a = Angle.from_two_theta_deg(deg)
        for s in (+1, -1):
            assert qubit_state(a, s).dtype == np.float64
            assert orth_state(a, s).dtype == np.float64
        for n in (1, 3):
            assert {s.dtype for s in uniform_ensemble(a, n).states} == {np.dtype(np.float64)}
            for p in all_patterns(n):
                assert product_state(a, p).dtype == np.float64

    def test_prior_validation(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            Ensemble(states=(v,), priors=(0.5, 0.5))
        with pytest.raises(ValueError):
            Ensemble(states=(v, v), priors=(0.7, 0.7))
        with pytest.raises(ValueError):
            Ensemble(states=(v, v), priors=(1.5, -0.5))

    @pytest.mark.parametrize(
        "priors",
        [(np.nan, 1.0), (np.nan, np.nan), (np.inf, 0.0), (np.inf, -np.inf), (1.0, -np.inf)],
    )
    def test_rejects_nonfinite_priors(self, priors):
        # NaN fails every comparison, so a check written as "reject if
        # negative or off 1" lets it through
        v = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            Ensemble(states=(v, v), priors=priors)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            Ensemble(
                states=(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])),
                priors=(0.5, 0.5),
            )

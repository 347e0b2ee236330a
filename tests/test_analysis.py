"""Tests for closed-form probabilities, bounds, and the discrimination gap."""

import math

import numpy as np
import pytest

from qelim.analysis import (
    MAX_BOUND_QUBITS,
    BoundReport,
    discrimination_gap,
    discrimination_gap_max,
    elimination_bound,
    eliminate_one_fail_prob,
    eliminate_two_fail_prob,
    eliminate_two_outcome_probs,
    local_avg_eliminated,
    pair_threshold,
    usd_success_prob,
)
from qelim.states import Angle


class TestFailProbs:
    def test_eliminate_one_frozen_values(self):
        assert eliminate_one_fail_prob(
            Angle.from_two_theta_deg(30.0)
        ) == pytest.approx(0.5490381056766581, abs=1e-14)
        assert eliminate_one_fail_prob(
            Angle.from_two_theta_deg(10.0)
        ) == pytest.approx(0.9520159574010663, abs=1e-14)

    def test_eliminate_one_limits(self):
        assert eliminate_one_fail_prob(
            Angle.from_two_theta_deg(0.0)
        ) == pytest.approx(1.0, abs=1e-14)
        assert eliminate_one_fail_prob(
            Angle.from_two_theta_deg(45.0)
        ) == pytest.approx(0.0, abs=1e-12)

    def test_eliminate_one_two_routes(self):
        # (c - s)(1 + s) with c = cos 2theta, s = sin 2theta must equal the
        # amplitude route 1 - t^2 (2 + t)^2 times cos^4 theta ... derived
        # directly from the |00> weight and the state overlap
        for deg in [5.0, 15.0, 25.0, 40.0]:
            a = Angle.from_two_theta_deg(deg)
            t = math.tan(a.theta)
            weight = 1.0 - t * t * (2.0 + t) ** 2
            amp_route = weight * (math.cos(a.theta) ** 4) * 4 / 4
            # each of the four states has |<00|s>|^2 = cos^4 theta
            assert eliminate_one_fail_prob(a) == pytest.approx(
                amp_route, abs=1e-12
            )

    def test_eliminate_two_frozen_value(self):
        assert eliminate_two_fail_prob(
            Angle.from_two_theta_deg(60.0)
        ) == pytest.approx(0.125, abs=1e-12)

    def test_eliminate_two_zero_beyond_threshold(self):
        thr = math.degrees(pair_threshold())
        for deg in [thr, thr + 0.5, 80.0, 90.0]:
            a = Angle.from_two_theta_deg(deg)
            assert eliminate_two_fail_prob(a) == pytest.approx(0.0, abs=1e-12)

    def test_eliminate_two_route_identity(self):
        # 2 cos^4 theta - 1 must equal ((1 + cos 2theta)^2 - 2) / 2
        for deg in [10.0, 30.0, 50.0, 60.0]:
            a = Angle.from_two_theta_deg(deg)
            alt = ((1.0 + a.overlap) ** 2 - 2.0) / 2.0
            assert eliminate_two_fail_prob(a) == pytest.approx(
                max(0.0, alt), abs=1e-12
            )

    def test_threshold_location(self):
        thr = math.degrees(pair_threshold())
        assert thr == pytest.approx(65.53, abs=0.01)
        assert math.cos(pair_threshold()) == pytest.approx(
            2**0.5 - 1, abs=1e-14
        )

    def test_usd_success(self):
        a = Angle.from_two_theta_deg(60.0)
        assert usd_success_prob(a) == pytest.approx(0.5, abs=1e-14)
        assert usd_success_prob(
            Angle.from_two_theta_deg(90.0)
        ) == pytest.approx(1.0, abs=1e-14)


class TestOutcomeProbs:
    def test_probabilistic_branch_values(self):
        # below the threshold the single-flip pairs carry s^2 c^2 and the
        # diagonal pairs s^4
        for deg in [20.0, 40.0, 60.0, 65.0]:
            a = Angle.from_two_theta_deg(deg)
            probs = eliminate_two_outcome_probs(a)
            s2 = math.sin(a.theta) ** 2
            c2 = math.cos(a.theta) ** 2
            assert probs["not(++,+-)"] == pytest.approx(s2 * c2, abs=1e-12)
            assert probs["not(+-,-+)"] == pytest.approx(s2 * s2, abs=1e-12)

    def test_deterministic_branch_values(self):
        # past the threshold the pair overlap alone fixes the distribution
        for deg in [66.0, 70.0, 75.0, 90.0]:
            a = Angle.from_two_theta_deg(deg)
            probs = eliminate_two_outcome_probs(a)
            c = a.overlap
            assert probs["not(++,+-)"] == pytest.approx(c / 2, abs=1e-12)
            assert probs["not(+-,-+)"] == pytest.approx(0.5 - c, abs=1e-12)

    def test_routes_coincide_at_threshold(self):
        a = Angle(theta=pair_threshold() / 2)
        probs = eliminate_two_outcome_probs(a)
        s2 = math.sin(a.theta) ** 2
        c2 = math.cos(a.theta) ** 2
        assert probs["not(++,+-)"] == pytest.approx(s2 * c2, abs=1e-10)
        assert probs["not(++,+-)"] == pytest.approx(a.overlap / 2, abs=1e-10)
        assert probs["not(+-,-+)"] == pytest.approx(s2 * s2, abs=1e-10)
        assert probs["not(+-,-+)"] == pytest.approx(0.5 - a.overlap, abs=1e-10)

    def test_sum_to_one(self):
        for deg in [30.0, 60.0, 80.0]:
            a = Angle.from_two_theta_deg(deg)
            assert sum(eliminate_two_outcome_probs(a).values()) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_fail_key_only_when_positive(self):
        assert "fail" in eliminate_two_outcome_probs(
            Angle.from_two_theta_deg(60.0)
        )
        assert "fail" not in eliminate_two_outcome_probs(
            Angle.from_two_theta_deg(70.0)
        )


class TestLocalBound:
    def test_frozen_values(self):
        a = Angle.from_two_theta_deg(45.0)
        assert local_avg_eliminated(a, 2) == pytest.approx(
            1.085786437626905, abs=1e-14
        )
        assert local_avg_eliminated(a, 3) == pytest.approx(
            3.025126265847084, abs=1e-14
        )

    def test_closed_form(self):
        for deg in [0.0, 30.0, 45.0, 70.0, 90.0]:
            a = Angle.from_two_theta_deg(deg)
            for n in (1, 2, 3, 4):
                expected = 2**n - (1.0 + a.overlap) ** n
                assert local_avg_eliminated(a, n) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_orthogonal_pair_eliminates_all_but_one(self):
        a = Angle.from_two_theta_deg(90.0)
        assert local_avg_eliminated(a, 3) == pytest.approx(7.0, abs=1e-12)

    def test_bound_report(self):
        a = Angle.from_two_theta_deg(45.0)
        rep = elimination_bound(a, 2)
        assert isinstance(rep, BoundReport)
        assert rep.n == 2
        assert rep.cap(1) == pytest.approx(rep.bound, abs=1e-15)
        assert rep.cap(2) == pytest.approx(rep.bound / 2, abs=1e-15)
        with pytest.raises(ValueError):
            rep.cap(0)
        with pytest.raises(ValueError):
            rep.cap(5)

    def test_bound_qubit_limit(self):
        a = Angle.from_two_theta_deg(45.0)
        rep = elimination_bound(a, MAX_BOUND_QUBITS)
        assert len(rep.per_k_caps) == 2**MAX_BOUND_QUBITS - 1
        with pytest.raises(ValueError, match="up to 16 qubits"):
            elimination_bound(a, MAX_BOUND_QUBITS + 1)


class TestDiscriminationGap:
    def test_zero_at_endpoints(self):
        for n in range(2, 7):
            assert discrimination_gap(0.0, n) == pytest.approx(0.0, abs=1e-12)
            assert discrimination_gap(1.0, n) == pytest.approx(0.0, abs=1e-12)

    def test_zero_for_single_qubit(self):
        for f in np.linspace(0.0, 1.0, 11):
            assert discrimination_gap(float(f), 1) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_positive_interior(self):
        for n in range(2, 7):
            for f in np.linspace(0.05, 0.95, 19):
                assert discrimination_gap(float(f), n) > 1e-6

    def test_frozen_value(self):
        assert discrimination_gap(0.5, 2) == pytest.approx(1.0, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            discrimination_gap(-0.1, 2)
        with pytest.raises(ValueError):
            discrimination_gap(1.1, 2)
        with pytest.raises(ValueError):
            discrimination_gap(0.5, 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_max_satisfies_stationarity(self, n):
        f_star, g_star = discrimination_gap_max(n)
        lhs = (1.0 + f_star) ** (n - 1)
        rhs = (2**n - 1) * (1.0 - f_star) ** (n - 1)
        assert lhs == pytest.approx(rhs, rel=1e-8)
        assert g_star == pytest.approx(
            2**n - 2.0 * (1.0 + f_star) ** (n - 1), abs=1e-8
        )
        assert g_star == pytest.approx(discrimination_gap(f_star, n), abs=1e-8)

    def test_max_beats_grid(self):
        for n in (2, 3, 4):
            _, g_star = discrimination_gap_max(n)
            grid = max(
                discrimination_gap(float(f), n)
                for f in np.linspace(0.0, 1.0, 101)
            )
            assert g_star >= grid - 1e-9

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_max_matches_bisection(self, n):
        # the root of the slope, found without the closed form
        def slope(f):
            return (2.0**n - 1.0) * (1.0 - f) ** (n - 1) - (1.0 + f) ** (n - 1)

        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if slope(mid) > 0.0 else (lo, mid)
        f_star, g_star = discrimination_gap_max(n)
        assert f_star == pytest.approx((lo + hi) / 2.0, abs=1e-14)
        assert g_star == pytest.approx(discrimination_gap((lo + hi) / 2.0, n), rel=1e-14)

    def test_max_rejects_small_n(self):
        with pytest.raises(ValueError):
            discrimination_gap_max(1)


class TestComparison:
    def test_dominates_split_strategies(self):
        for deg in [20.0, 45.0, 70.0]:
            a = Angle.from_two_theta_deg(deg)
            both = usd_success_prob(a)
            assert 0.0 <= both <= 1.0

    def test_frozen_value(self):
        a = Angle.from_two_theta_deg(90.0)
        assert usd_success_prob(a) == pytest.approx(1.0, abs=1e-12)

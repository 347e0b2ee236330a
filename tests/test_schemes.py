"""Tests for the measurement scheme constructors."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qelim.analysis import (
    eliminate_one_fail_prob,
    eliminate_two_fail_prob,
    local_avg_eliminated,
    pair_threshold,
    usd_success_prob,
)
from qelim.linalg import frob_dist, kron_all, outer
from qelim.povm import (
    Effect,
    ExclusionSet,
    Povm,
    outcome_probabilities,
    validate,
)
from qelim.schemes import (
    MAX_LOCAL_QUBITS,
    PAIR_THRESHOLD_OVERLAP,
    BadLabels,
    DegenerateAngle,
    TooManyQubits,
    UnsupportedAngle,
    ancilla_eliminate_one,
    eliminate_one,
    eliminate_two,
    local_usd,
    pbr_basis,
    symmetrize,
    tensor,
    usd_qubit,
)
from qelim.states import Angle, uniform_ensemble
from qelim.verify import audit_bound


def fail_effect(povm):
    ops = [e for e in povm.effects if e.excludes.is_failure]
    assert len(ops) <= 1
    return ops[0] if ops else None


class TestPbrBasis:
    def test_valid_at_45(self):
        a = Angle.from_two_theta_deg(45.0)
        report = validate(pbr_basis(a), uniform_ensemble(a, 2))
        assert report.ok, report.violations

    def test_four_rank_one_effects(self):
        a = Angle.from_two_theta_deg(45.0)
        povm = pbr_basis(a)
        assert len(povm.effects) == 4
        for eff in povm.effects:
            vals = np.linalg.eigvalsh(eff.op)
            np.testing.assert_allclose(vals, [0, 0, 0, 1], atol=1e-12)

    def test_effect_k_excludes_pattern_k(self):
        a = Angle.from_two_theta_deg(45.0)
        povm = pbr_basis(a)
        for k, eff in enumerate(povm.effects):
            assert eff.excludes.mask == 1 << k

    def test_each_outcome_probability_quarter(self):
        a = Angle.from_two_theta_deg(45.0)
        stats = outcome_probabilities(pbr_basis(a), uniform_ensemble(a, 2))
        np.testing.assert_allclose(stats.probs, [0.25] * 4, atol=1e-12)

    def test_rejects_other_angles(self):
        with pytest.raises(UnsupportedAngle):
            pbr_basis(Angle.from_two_theta_deg(44.0))
        with pytest.raises(UnsupportedAngle):
            pbr_basis(Angle.from_two_theta_deg(46.0))

    def test_zero_plus_convention(self):
        a = Angle.from_two_theta_deg(45.0)
        povm = pbr_basis(a, zero_plus=True)
        # same operators up to the basis rotation, still a valid POVM on the
        # rotated ensemble; completeness is convention independent
        total = sum(e.op for e in povm.effects)
        assert frob_dist(total, np.eye(4)) <= 1e-12

    def test_zero_plus_differs_from_symmetric(self):
        a = Angle.from_two_theta_deg(45.0)
        p1 = pbr_basis(a)
        p2 = pbr_basis(a, zero_plus=True)
        assert frob_dist(p1.effects[0].op, p2.effects[0].op) > 1e-3


class TestEliminateOne:
    ANGLES = [0.0, 5.0, 10.0, 20.0, 30.0, 40.0, 44.9]

    @pytest.mark.parametrize("deg", ANGLES)
    def test_valid_on_domain(self, deg):
        a = Angle.from_two_theta_deg(deg)
        report = validate(eliminate_one(a), uniform_ensemble(a, 2))
        assert report.ok, (deg, report.violations)

    @pytest.mark.parametrize("deg", ANGLES)
    def test_fail_prob_closed_form(self, deg):
        a = Angle.from_two_theta_deg(deg)
        stats = outcome_probabilities(eliminate_one(a), uniform_ensemble(a, 2))
        assert stats.fail_prob == pytest.approx(
            eliminate_one_fail_prob(a), abs=1e-12
        )

    def test_fail_prob_value_at_30(self):
        a = Angle.from_two_theta_deg(30.0)
        assert eliminate_one_fail_prob(a) == pytest.approx(
            0.5490381056766581, abs=1e-14
        )

    def test_failure_weight_on_00_only(self):
        a = Angle.from_two_theta_deg(25.0)
        eff = fail_effect(eliminate_one(a))
        expected = np.zeros((4, 4))
        t = math.tan(a.theta)
        expected[0, 0] = 1.0 - t * t * (2.0 + t) ** 2
        np.testing.assert_allclose(eff.op, expected, atol=1e-12)

    def test_single_pattern_exclusions(self):
        a = Angle.from_two_theta_deg(20.0)
        povm = eliminate_one(a)
        masks = sorted(e.excludes.mask for e in povm.effects)
        assert masks == [0, 1, 2, 4, 8]

    def test_rejects_domain_edge(self):
        with pytest.raises(UnsupportedAngle):
            eliminate_one(Angle.from_two_theta_deg(45.0))
        with pytest.raises(UnsupportedAngle):
            eliminate_one(Angle.from_two_theta_deg(60.0))

    def test_zero_angle_all_weight_on_failure(self):
        a = Angle.from_two_theta_deg(0.0)
        stats = outcome_probabilities(eliminate_one(a), uniform_ensemble(a, 2))
        assert stats.fail_prob == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("deg", ANGLES)
    def test_matches_per_pattern_signs(self, deg, same_bits):
        # effect b is the projector on base * s_b, where s_b flips the
        # sign of every entry whose pattern differs from ++ where b does
        a = Angle.from_two_theta_deg(deg)
        t = math.tan(a.theta)
        base = np.array([t * (1.0 + 0.5 * t), -0.5, -0.5, -0.5])
        for b, e in enumerate(eliminate_one(a).effects[:4]):
            signs = np.array(
                [(-1.0) ** ((idx >> 1) * (b & 1) + (idx & 1) * (b >> 1)) for idx in range(4)]
            )
            same_bits(e.op, outer(base * signs, base * signs))


class TestAncillaEliminateOne:
    ANGLES = [45.0, 50.0, 55.0, 65.0, 75.0, 85.0, 90.0]

    @pytest.mark.parametrize("deg", ANGLES)
    def test_valid_on_domain(self, deg):
        a = Angle.from_two_theta_deg(deg)
        report = validate(ancilla_eliminate_one(a), uniform_ensemble(a, 2))
        assert report.ok, (deg, report.violations)

    @pytest.mark.parametrize("deg", ANGLES)
    def test_failure_weight_negligible(self, deg):
        a = Angle.from_two_theta_deg(deg)
        eff = fail_effect(ancilla_eliminate_one(a))
        assert eff is not None
        assert np.linalg.norm(eff.op) <= 1e-10

    def test_matches_pbr_at_45(self):
        a = Angle.from_two_theta_deg(45.0)
        anc = ancilla_eliminate_one(a)
        pbr = pbr_basis(a)
        anc_by_mask = {e.excludes.mask: e.op for e in anc.effects}
        for eff in pbr.effects:
            assert frob_dist(anc_by_mask[eff.excludes.mask], eff.op) <= 1e-10

    def test_completion_order_invariance(self, dilated_ancilla_effects):
        # a full unitary dilation, completed two different ways, traced
        # down to the system gives the library's isometry-built effects
        for deg in (50.0, 60.0, 75.0, 90.0):
            a = Angle.from_two_theta_deg(deg)
            lib = {e.excludes.mask: e.op for e in ancilla_eliminate_one(a).effects}
            for ref in dilated_ancilla_effects(a):
                assert sorted(ref) == sorted(lib)
                for mask, op in ref.items():
                    assert frob_dist(lib[mask], op) <= 1e-10, (deg, mask)

    def test_uniform_outcomes_at_45(self):
        a = Angle.from_two_theta_deg(45.0)
        stats = outcome_probabilities(
            ancilla_eliminate_one(a), uniform_ensemble(a, 2)
        )
        by_mask = {
            e.excludes.mask: p
            for e, p in zip(ancilla_eliminate_one(a).effects, stats.probs)
        }
        for k in range(4):
            assert by_mask[1 << k] == pytest.approx(0.25, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(UnsupportedAngle):
            ancilla_eliminate_one(Angle.from_two_theta_deg(44.0))
        with pytest.raises(DegenerateAngle):
            ancilla_eliminate_one(Angle.from_two_theta_deg(0.0))

    @pytest.mark.parametrize("deg", ANGLES + [47.3, 60.0, 70.5])
    def test_shared_basis_matches_inline_build(self, deg, same_bits):
        # the 45 degree conclusive basis is built once, at import; the
        # effects must keep the bits of a build that makes it per call
        a = Angle.from_two_theta_deg(deg)
        got = ancilla_eliminate_one(a)
        want = ancilla_with_inline_basis(a)
        assert [(e.excludes, e.label) for e in got.effects] == [
            (e.excludes, e.label) for e in want.effects
        ]
        for g, w in zip(got.effects, want.effects):
            same_bits(g.op, w.op)

    def test_later_calls_ignore_mutated_effects(self, same_bits):
        # nothing built once may leak into a result: writing into one
        # call's operators leaves every later call as it was
        a = Angle.from_two_theta_deg(60.0)
        first = ancilla_eliminate_one(a)
        for e in first.effects:
            e.op[...] = 7.0
        again = ancilla_eliminate_one(a)
        for g, w in zip(again.effects, ancilla_with_inline_basis(a).effects):
            same_bits(g.op, w.op)
        b = Angle.from_two_theta_deg(30.0)
        want = [e.op.copy() for e in symmetrize(eliminate_one(b)).effects]
        for e in symmetrize(eliminate_one(b)).effects:
            e.op[...] = 7.0
        for g, w in zip(symmetrize(eliminate_one(b)).effects, want):
            same_bits(g.op, w)



def ancilla_with_inline_basis(angle):
    """ancilla_eliminate_one with the conclusive basis built inside the call."""
    half = Angle(math.pi / 8.0)
    basis = pbr_basis(half)
    mu = 0.5 * math.acos(min(1.0, math.sqrt(2.0) * angle.overlap))

    def qubit(a, s):
        return np.array([math.cos(a.theta), s * math.sin(a.theta)])

    y = np.stack(
        [np.kron(qubit(half, s), np.array([math.cos(mu), s * math.sin(mu)])) for s in (+1, -1)],
        axis=1,
    )
    cos_t, sin_t = math.cos(angle.theta), math.sin(angle.theta)
    x_inv = np.array([[sin_t, cos_t], [sin_t, -cos_t]]) / (2.0 * sin_t * cos_t)
    w = y @ x_inv
    kraus = [np.kron(w[a::2], w[b::2]) for a in (0, 1) for b in (0, 1)]
    effects = []
    total = np.zeros((4, 4))
    for eff in basis.effects:
        op = sum(k.conj().T @ eff.op @ k for k in kraus)
        op = (op + op.conj().T) / 2.0
        total += op
        effects.append(Effect(op, eff.excludes, eff.label))
    fail_op = np.eye(4) - total
    fail_op = (fail_op + fail_op.conj().T) / 2.0
    effects.append(Effect(fail_op, ExclusionSet(2, 0), "fail"))
    return Povm(tuple(effects))


class TestEliminateTwo:
    ANGLES = [5.0, 20.0, 40.0, 60.0, 65.0, 66.0, 70.0, 80.0, 90.0]

    @pytest.mark.parametrize("deg", ANGLES)
    def test_valid_on_domain(self, deg):
        a = Angle.from_two_theta_deg(deg)
        report = validate(eliminate_two(a), uniform_ensemble(a, 2))
        assert report.ok, (deg, report.violations)

    @pytest.mark.parametrize("deg", ANGLES)
    def test_fail_prob_closed_form(self, deg):
        a = Angle.from_two_theta_deg(deg)
        stats = outcome_probabilities(eliminate_two(a), uniform_ensemble(a, 2))
        assert stats.fail_prob == pytest.approx(
            eliminate_two_fail_prob(a), abs=1e-12
        )

    def test_every_click_excludes_two(self):
        a = Angle.from_two_theta_deg(50.0)
        for eff in eliminate_two(a).effects:
            if not eff.excludes.is_failure:
                assert eff.excludes.size == 2

    def test_six_informative_outcomes(self):
        a = Angle.from_two_theta_deg(60.0)
        povm = eliminate_two(a)
        masks = sorted(
            e.excludes.mask for e in povm.effects if not e.excludes.is_failure
        )
        # all six two-element subsets of the four patterns
        assert masks == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]

    def test_outcome_probs_at_60(self):
        a = Angle.from_two_theta_deg(60.0)
        stats = outcome_probabilities(eliminate_two(a), uniform_ensemble(a, 2))
        by_label = dict(zip(stats.labels, stats.probs))
        s2 = math.sin(a.theta) ** 2
        c2 = math.cos(a.theta) ** 2
        # probabilistic branch: single-flip pairs carry s^2 c^2, the two
        # diagonal pairs s^4 each
        assert by_label["not(++,+-)"] == pytest.approx(s2 * c2, abs=1e-12)
        assert by_label["not(+-,-+)"] == pytest.approx(s2 * s2, abs=1e-12)

    def test_outcome_probs_at_70(self):
        a = Angle.from_two_theta_deg(70.0)
        stats = outcome_probabilities(eliminate_two(a), uniform_ensemble(a, 2))
        by_label = dict(zip(stats.labels, stats.probs))
        # deterministic branch: the pair overlap alone sets the distribution
        assert by_label["not(++,+-)"] == pytest.approx(a.overlap / 2, abs=1e-12)
        assert by_label["not(+-,-+)"] == pytest.approx(0.5 - a.overlap, abs=1e-12)

    def test_deterministic_below_threshold(self):
        thr_deg = math.degrees(pair_threshold())
        a = Angle.from_two_theta_deg(thr_deg + 1.0)
        stats = outcome_probabilities(eliminate_two(a), uniform_ensemble(a, 2))
        assert stats.fail_prob == pytest.approx(0.0, abs=1e-12)

    def test_branch_continuity_at_threshold(self):
        thr_deg = math.degrees(pair_threshold())
        lo = Angle.from_two_theta_deg(thr_deg - 1e-7)
        hi = Angle.from_two_theta_deg(thr_deg + 1e-7)
        p_lo = eliminate_two(lo)
        p_hi = eliminate_two(hi)
        lo_by_mask = {e.excludes.mask: e.op for e in p_lo.effects}
        for eff in p_hi.effects:
            if eff.excludes.is_failure:
                continue
            assert frob_dist(lo_by_mask[eff.excludes.mask], eff.op) <= 1e-5

    def test_rejects_zero_angle(self):
        with pytest.raises(UnsupportedAngle):
            eliminate_two(Angle.from_two_theta_deg(0.0))

    def test_threshold_constant(self):
        assert PAIR_THRESHOLD_OVERLAP == pytest.approx(2**0.5 - 1, abs=1e-15)


class TestUsdQubit:
    @pytest.mark.parametrize("deg", [10.0, 30.0, 45.0, 60.0, 90.0])
    def test_valid(self, deg):
        a = Angle.from_two_theta_deg(deg)
        report = validate(usd_qubit(a), uniform_ensemble(a, 1))
        assert report.ok, report.violations

    def test_success_prob(self):
        a = Angle.from_two_theta_deg(45.0)
        stats = outcome_probabilities(usd_qubit(a), uniform_ensemble(a, 1))
        assert 1.0 - stats.fail_prob == pytest.approx(
            usd_success_prob(a), abs=1e-12
        )
        assert usd_success_prob(a) == pytest.approx(
            0.2928932188134524, abs=1e-14
        )

    def test_identifying_effect_never_misfires(self):
        a = Angle.from_two_theta_deg(30.0)
        povm = usd_qubit(a)
        ens = uniform_ensemble(a, 1)
        for eff in povm.effects:
            if eff.excludes.is_failure:
                continue
            for k, state in enumerate(ens.states):
                if eff.excludes.mask & (1 << k):
                    assert abs(state @ eff.op @ state) <= 1e-12

    def test_orthogonal_pair_discriminates_perfectly(self):
        a = Angle.from_two_theta_deg(90.0)
        stats = outcome_probabilities(usd_qubit(a), uniform_ensemble(a, 1))
        assert stats.fail_prob == pytest.approx(0.0, abs=1e-12)

    def test_identical_pair_always_fails(self):
        a = Angle.from_two_theta_deg(0.0)
        stats = outcome_probabilities(usd_qubit(a), uniform_ensemble(a, 1))
        assert stats.fail_prob == pytest.approx(1.0, abs=1e-12)


class TestLocalUsd:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_valid(self, n):
        a = Angle.from_two_theta_deg(45.0)
        report = validate(local_usd(a, n), uniform_ensemble(a, n))
        assert report.ok, report.violations

    def test_outcome_count(self):
        a = Angle.from_two_theta_deg(45.0)
        assert len(local_usd(a, 2).effects) == 9
        assert len(local_usd(a, 3).effects) == 27

    def test_avg_eliminated_closed_form(self):
        a = Angle.from_two_theta_deg(45.0)
        for n in (1, 2, 3):
            stats = outcome_probabilities(local_usd(a, n), uniform_ensemble(a, n))
            assert stats.avg_eliminated == pytest.approx(
                local_avg_eliminated(a, n), abs=1e-10
            )

    def test_avg_eliminated_value_n2(self):
        a = Angle.from_two_theta_deg(45.0)
        assert local_avg_eliminated(a, 2) == pytest.approx(
            1.085786437626905, abs=1e-14
        )

    def test_exclusion_counts(self):
        a = Angle.from_two_theta_deg(45.0)
        povm = local_usd(a, 2)
        # k identified qubits knock out 2^n - 2^(n-k) patterns
        for eff in povm.effects:
            k = sum(ch != "f" for ch in eff.label)
            assert eff.excludes.size == 4 - 2 ** (2 - k)

    def test_qubit_cap(self):
        a = Angle.from_two_theta_deg(45.0)
        with pytest.raises(TooManyQubits):
            local_usd(a, MAX_LOCAL_QUBITS + 1)
        with pytest.raises(ValueError):
            local_usd(a, 0)

    @pytest.mark.parametrize("deg", [0.0, 17.0, 45.0, 63.0, 90.0])
    def test_matches_per_pattern_loop(self, deg, same_bits):
        # bit for bit the np.kron chain of the usd_qubit operators
        a = Angle.from_two_theta_deg(deg)
        ops = {ch: e.op for ch, e in zip("+-f", usd_qubit(a).effects)}
        for n in range(1, MAX_LOCAL_QUBITS + 1):
            got = local_usd(a, n).effects
            want = reference_local_usd(a, n)
            assert len(got) == len(want) == 3 ** n
            for e, (op, label, mask) in zip(got, want):
                same_bits(e.op, functools.reduce(np.kron, [ops[ch] for ch in label]))
                assert np.array_equal(e.op, op)
                assert e.label == label
                assert e.excludes.n == n
                assert e.excludes.mask == mask

    def test_audit_never_holds_every_operator(self):
        # the 729 float64 operators of 64 x 64 would take 24 MB at once;
        # the product keeps a 2 MB prefix and forms one stack at a time
        a = Angle.from_two_theta_deg(45.0)
        tracemalloc.start()
        try:
            povm = local_usd(a, 6)
            report = audit_bound(povm, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 6 * 2 ** 20
        assert {e.op.dtype for e in povm.effects} == {np.dtype(np.float64)}


def reference_local_usd(angle, n):
    """(operator, label, exclusion mask) per outcome, from a per-pattern loop.

    Each outcome is a Kronecker product of usd_qubit effects, and its
    consistent patterns are found by checking every pattern against
    every identified qubit.
    """
    ops = [e.op for e in usd_qubit(angle).effects]  # id(+), id(-), fail
    full_mask = (1 << (1 << n)) - 1
    out = []
    for combo in itertools.product(range(3), repeat=n):
        consistent = 0
        for p in range(1 << n):
            bits = [(p >> i) & 1 for i in range(n)]
            if all(k == 2 or k == bit for k, bit in zip(combo, bits)):
                consistent |= 1 << p
        label = "".join("+-f"[k] for k in combo)
        out.append((kron_all([ops[k] for k in combo]), label, full_mask ^ consistent))
    return out


class TestTensor:
    @pytest.mark.parametrize("deg", [30.0, 60.0, 80.0])
    @pytest.mark.parametrize("usd_first", [True, False])
    def test_product_statistics_multiply(self, deg, usd_first):
        a = Angle.from_two_theta_deg(deg)
        usd, two = usd_qubit(a), eliminate_two(a)
        povm = tensor(usd, two) if usd_first else tensor(two, usd)
        assert povm.n == 3
        assert len(povm.effects) == len(usd.effects) * len(two.effects)
        report = validate(povm, uniform_ensemble(a, 3))
        assert report.ok, report.violations
        # consistent counts multiply, and the uniform ensemble is a product
        avg_usd = outcome_probabilities(usd, uniform_ensemble(a, 1)).avg_eliminated
        avg_two = outcome_probabilities(two, uniform_ensemble(a, 2)).avg_eliminated
        stats = outcome_probabilities(povm, uniform_ensemble(a, 3))
        assert stats.avg_eliminated == pytest.approx(
            8.0 - (2.0 - avg_usd) * (4.0 - avg_two), abs=1e-12
        )

    def test_leftmost_factor_most_significant(self):
        a = Angle.from_two_theta_deg(60.0)
        usd, two = usd_qubit(a), eliminate_two(a)
        povm = tensor(usd, two)
        first = povm.effects[0]
        assert first.label == usd.effects[0].label + two.effects[0].label
        np.testing.assert_array_equal(first.op, np.kron(usd.effects[0].op, two.effects[0].op))
        # id(+) on qubit 0 and not(++,+-) on qubits 1, 2: consistent
        # patterns have qubit 0 '+' and qubits 1, 2 in {-+, --}
        consistent = {"+-+", "+--"}
        assert {str(p) for p in first.excludes.patterns()} == {
            "".join(s) for s in itertools.product("+-", repeat=3)
        } - consistent

    @pytest.mark.parametrize("deg", [30.0, 60.0, 80.0])
    def test_operators_equal_nested_kron(self, deg, same_bits):
        # "phased" conjugates eliminate_two by a diagonal unitary, so its
        # operators carry genuinely complex entries of either sign
        a = Angle.from_two_theta_deg(deg)
        usd, two = usd_qubit(a), eliminate_two(a)
        d = np.exp(1j * np.arange(4))
        phased = Povm(
            effects=tuple(
                Effect(op=d[:, None] * e.op * d.conj(), excludes=e.excludes, label=e.label)
                for e in two.effects
            )
        )
        # real or complex, every operator is bit for bit the np.kron chain
        for factors in [(usd, two), (usd, two, usd), (phased, usd, phased), (usd, phased)]:
            povm = tensor(*factors)
            outcomes = list(itertools.product(*[m.effects for m in factors]))
            assert len(povm.effects) == len(outcomes)
            for e, parts in zip(povm.effects, outcomes):
                same_bits(e.op, functools.reduce(np.kron, [part.op for part in parts]))
                assert e.label == "".join(part.label for part in parts)

    def test_one_complex_factor_keeps_every_operator_complex(self):
        a = Angle.from_two_theta_deg(60.0)
        usd = usd_qubit(a)
        d = np.exp(1j * np.arange(2))
        phased = Povm(
            effects=tuple(
                Effect(op=d[:, None] * e.op * d.conj(), excludes=e.excludes, label=e.label)
                for e in usd.effects
            )
        )
        assert {e.op.dtype for e in tensor(usd, usd).effects} == {np.dtype(np.float64)}
        for factors in [(phased, usd), (usd, phased), (usd, usd, phased)]:
            assert {e.op.dtype for e in tensor(*factors).effects} == {np.dtype(np.complex128)}

    def test_single_factor_is_unchanged(self):
        a = Angle.from_two_theta_deg(30.0)
        base = eliminate_one(a)
        for e, f in zip(tensor(base).effects, base.effects):
            assert np.array_equal(e.op, f.op)
            assert e.label == f.label and e.excludes == f.excludes

    def test_needs_a_factor(self):
        with pytest.raises(ValueError):
            tensor()


class TestOperatorDtype:
    """Operators follow their inputs: float64 at a real angle, complex once an input is."""

    @pytest.mark.parametrize("deg", [0.0, 10.0, 30.0, 44.0, 45.0, 60.0, 70.0, 90.0])
    def test_real_angle_gives_float64_operators(self, deg):
        a = Angle.from_two_theta_deg(deg)
        two = eliminate_one(a) if deg < 45.0 else ancilla_eliminate_one(a)
        povms = [two, usd_qubit(a), local_usd(a, 3), tensor(usd_qubit(a), two, usd_qubit(a))]
        if deg < 45.0:
            povms.append(symmetrize(two))
        if deg == 45.0:
            povms += [pbr_basis(a), pbr_basis(a, zero_plus=True)]
        if deg > 0.0:
            povms.append(eliminate_two(a))
        for povm in povms:
            assert {e.op.dtype for e in povm.effects} == {np.dtype(np.float64)}

    def test_complex_input_gives_complex_operators(self):
        a = Angle.from_two_theta_deg(30.0)
        d = np.exp(1j * np.arange(4))
        phased = Povm(
            effects=tuple(
                Effect(op=d[:, None] * e.op * d.conj(), excludes=e.excludes, label=e.label)
                for e in eliminate_one(a).effects
            )
        )
        for povm in (symmetrize(phased), tensor(usd_qubit(a), phased, usd_qubit(a))):
            assert {e.op.dtype for e in povm.effects} == {np.dtype(np.complex128)}


def build_asymmetric_zero_error_povm(angle):
    """A hand-tuned unambiguous POVM without the sign-flip symmetry.

    Each informative effect is a rank-one projector onto a vector whose
    first amplitude is pinned so the opposite-sign pattern never clicks.
    """
    t = math.tan(angle.theta)

    def flip_vec(amp01, amp10, amp11, flip):
        c00 = -(amp01 + amp10) * t - amp11 * t * t
        base = np.array([c00, amp01, amp10, amp11])
        signs = np.array(
            [
                (-1.0) ** ((i >> 1) * (flip & 1) + (i & 1) * ((flip >> 1) & 1))
                for i in range(4)
            ]
        )
        return base * signs

    effects = []
    for flip in range(4):
        amps = (-0.4, -0.4, -0.4) if flip < 2 else (-0.45, -0.4, -0.35)
        v = flip_vec(*amps, flip)
        effects.append(
            Effect(
                op=outer(v, v),
                excludes=ExclusionSet(n=2, mask=1 << flip),
                label="not(%d)" % flip,
            )
        )
    total = sum(e.op for e in effects)
    effects.append(
        Effect(
            op=np.eye(4) - total,
            excludes=ExclusionSet(n=2, mask=0),
            label="fail",
        )
    )
    return Povm(effects=tuple(effects))


class TestSymmetrize:
    ANGLE = Angle.from_two_theta_deg(30.0)

    def test_fixture_is_valid_and_asymmetric(self):
        povm = build_asymmetric_zero_error_povm(self.ANGLE)
        ens = uniform_ensemble(self.ANGLE, 2)
        assert validate(povm, ens).ok
        flip = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
        asym = frob_dist(
            povm.effects[0].op, flip @ povm.effects[3].op @ flip
        )
        assert asym > 0.01

    def test_output_is_valid(self):
        povm = build_asymmetric_zero_error_povm(self.ANGLE)
        ens = uniform_ensemble(self.ANGLE, 2)
        assert validate(symmetrize(povm), ens).ok

    def test_output_is_covariant(self):
        povm = symmetrize(build_asymmetric_zero_error_povm(self.ANGLE))
        by_mask = {e.excludes.mask: e.op for e in povm.effects}
        u = np.diag([1.0, -1.0])
        # conjugating by a flip of the left qubit (pattern bit 0) permutes
        # the informative effects accordingly
        g = np.kron(u, np.eye(2))
        got = g @ by_mask[1 << 0b00] @ g
        assert frob_dist(got, by_mask[1 << 0b01]) <= 1e-12
        # and the right-qubit flip toggles pattern bit 1
        h = np.kron(np.eye(2), u)
        got = h @ by_mask[1 << 0b00] @ h
        assert frob_dist(got, by_mask[1 << 0b10]) <= 1e-12

    def test_idempotent(self):
        povm = symmetrize(build_asymmetric_zero_error_povm(self.ANGLE))
        again = symmetrize(povm)
        for e1, e2 in zip(povm.effects, again.effects):
            assert frob_dist(e1.op, e2.op) <= 1e-12

    def test_failure_branch_diagonal(self):
        povm = symmetrize(build_asymmetric_zero_error_povm(self.ANGLE))
        eff = fail_effect(povm)
        off = eff.op - np.diag(np.diag(eff.op))
        assert np.linalg.norm(off) <= 1e-14

    def test_preserves_failure_probability(self):
        raw = build_asymmetric_zero_error_povm(self.ANGLE)
        sym = symmetrize(raw)
        ens = uniform_ensemble(self.ANGLE, 2)
        p_raw = outcome_probabilities(raw, ens).fail_prob
        p_sym = outcome_probabilities(sym, ens).fail_prob
        assert p_sym == pytest.approx(p_raw, abs=1e-12)

    @pytest.mark.parametrize("deg", [5.0, 20.0, 30.0, 44.0])
    @pytest.mark.parametrize("with_fail", [True, False])
    def test_matches_per_flip_loop(self, deg, with_fail, same_bits):
        # symmetrize forms all sixteen conjugations in one batched product;
        # each effect must keep the bits of a loop over the group
        inputs = (
            build_asymmetric_zero_error_povm(self.ANGLE),
            eliminate_one(Angle.from_two_theta_deg(deg)),
        )
        for povm in inputs:
            if not with_fail:
                povm = Povm(tuple(e for e in povm.effects if not e.excludes.is_failure))
            got = symmetrize(povm)
            want = symmetrize_per_flip(povm)
            assert len(got.effects) == len(want) == 4 + with_fail
            for e, (op, mask, label) in zip(got.effects, want):
                assert (e.excludes.mask, e.label) == (mask, label)
                same_bits(e.op, op)

    def test_fixed_point_on_symmetric_input(self):
        a = Angle.from_two_theta_deg(30.0)
        povm = eliminate_one(a)
        sym = symmetrize(povm)
        for e1, e2 in zip(povm.effects, sym.effects):
            assert frob_dist(e1.op, e2.op) <= 1e-12

    def test_rejects_wrong_shapes(self):
        a = Angle.from_two_theta_deg(45.0)
        with pytest.raises(BadLabels):
            symmetrize(usd_qubit(a))  # one qubit, not two
        with pytest.raises(BadLabels):
            symmetrize(eliminate_two(Angle.from_two_theta_deg(60.0)))


def symmetrize_per_flip(povm):
    """symmetrize as a loop over the four sign flips: (op, mask, label) per effect."""
    u = np.diag([1.0, -1.0])
    i2 = np.eye(2)
    group = [(np.eye(4), 0), (np.kron(u, i2), 1), (np.kron(i2, u), 2), (np.kron(u, u), 3)]
    singles, fail = {}, None
    for e in povm.effects:
        if e.excludes.is_failure:
            fail = (np.zeros((4, 4)) if fail is None else fail) + e.op
        else:
            b = e.excludes.mask.bit_length() - 1
            singles[b] = singles.get(b, np.zeros((4, 4))) + e.op
    out = []
    for target, label in enumerate(["not(++)", "not(-+)", "not(+-)", "not(--)"]):
        op = np.zeros((4, 4))
        for g, flip in group:
            op = op + g @ singles[target ^ flip] @ g
        out.append((op / 4.0, 1 << target, label))
    if fail is not None:
        op = np.zeros((4, 4))
        for g, _ in group:
            op = op + g @ fail @ g
        out.append((op / 4.0, 0, "fail"))
    return out

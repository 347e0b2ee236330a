"""Tests for POVM containers, validation, and outcome statistics."""

import numpy as np
import pytest

from qelim.linalg import DimensionMismatch
from qelim.povm import (
    DEFAULT_TOL,
    Effect,
    ExclusionSet,
    InvalidPovm,
    Povm,
    outcome_probabilities,
    validate,
)
from qelim.schemes import ancilla_eliminate_one, eliminate_two, local_usd, pbr_basis
from qelim.states import Angle, Ensemble, uniform_ensemble


class TestExclusionSet:
    def test_of_builds_mask(self):
        e = ExclusionSet.of(2, "++", "--")
        assert e.mask == 0b1001
        assert e.size == 2
        assert not e.is_failure

    def test_failure_set(self):
        e = ExclusionSet(n=2, mask=0)
        assert e.is_failure
        assert e.size == 0
        assert e.patterns() == []

    def test_patterns_and_str(self):
        e = ExclusionSet.of(2, "++", "-+")
        assert [str(p) for p in e.patterns()] == ["++", "-+"]
        assert str(e) == "{++,-+}"

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            ExclusionSet(n=1, mask=4)
        with pytest.raises(ValueError):
            ExclusionSet(n=0, mask=0)
        with pytest.raises(ValueError):
            ExclusionSet.of(2, "+++")


class TestPovmContainer:
    def test_singleton_identity(self):
        eff = Effect(op=np.eye(2), excludes=ExclusionSet(n=1, mask=0), label="fail")
        p = Povm(effects=(eff,))
        assert p.n == 1
        assert p.dim == 2
        assert p.labels == ["fail"]

    def test_mixed_dims_rejected(self):
        a = Effect(op=np.eye(2), excludes=ExclusionSet(n=1, mask=0))
        b = Effect(op=np.eye(4), excludes=ExclusionSet(n=2, mask=0))
        with pytest.raises(DimensionMismatch):
            Povm(effects=(a, b))

    def test_dim_pattern_mismatch_rejected(self):
        # a 2-qubit exclusion set cannot ride on a 2-dim operator
        with pytest.raises(DimensionMismatch):
            Povm(
                effects=(
                    Effect(op=np.eye(2), excludes=ExclusionSet(n=2, mask=0)),
                )
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Povm(effects=())

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            Povm(
                effects=(
                    Effect(op=np.zeros((2, 3)), excludes=ExclusionSet(n=1, mask=0)),
                )
            )


class TestValidate:
    def test_identity_only_is_valid(self):
        ens = uniform_ensemble(Angle.from_two_theta_deg(45.0), 1)
        p = Povm(
            effects=(Effect(op=np.eye(2), excludes=ExclusionSet(n=1, mask=0)),)
        )
        report = validate(p, ens)
        assert report.ok
        assert report.violations == []
        assert report.completeness_residual <= 1e-14

    def test_split_identity_is_valid(self):
        ens = uniform_ensemble(Angle.from_two_theta_deg(45.0), 1)
        eff = lambda: Effect(op=np.eye(2) / 2, excludes=ExclusionSet(n=1, mask=0))
        report = validate(Povm(effects=(eff(), eff())), ens)
        assert report.ok

    def test_unambiguity_violation_detected(self):
        # claiming the identity excludes a state is a lie: it fires on it
        ens = uniform_ensemble(Angle.from_two_theta_deg(45.0), 1)
        p = Povm(
            effects=(Effect(op=np.eye(2), excludes=ExclusionSet.of(1, "+")),)
        )
        report = validate(p, ens)
        assert not report.ok
        assert any("click probability" in v for v in report.violations)
        assert report.unambiguity_residuals[0] > 0.5

    def test_incomplete_set_detected(self):
        ens = uniform_ensemble(Angle.from_two_theta_deg(45.0), 1)
        p = Povm(
            effects=(Effect(op=np.eye(2) / 2, excludes=ExclusionSet(n=1, mask=0)),)
        )
        report = validate(p, ens)
        assert not report.ok
        assert any("completeness" in v for v in report.violations)
        # frobenius distance between I/2 and I in two dimensions
        assert report.completeness_residual == pytest.approx(
            0.5 * 2**0.5, abs=1e-12
        )

    def test_negative_effect_detected(self):
        ens = uniform_ensemble(Angle.from_two_theta_deg(45.0), 1)
        neg = np.diag([1.5, 1.0])
        comp = np.eye(2) - neg
        p = Povm(
            effects=(
                Effect(op=neg, excludes=ExclusionSet(n=1, mask=0)),
                Effect(op=comp, excludes=ExclusionSet(n=1, mask=0)),
            )
        )
        report = validate(p, ens)
        assert not report.ok
        assert any("min eigenvalue" in v for v in report.violations)
        assert min(report.min_eigenvalues) < -0.4

    def test_non_hermitian_effect_detected(self):
        ens = uniform_ensemble(Angle.from_two_theta_deg(45.0), 1)
        skew = np.array([[0.5, 0.5], [0.0, 0.5]])
        p = Povm(
            effects=(
                Effect(op=skew, excludes=ExclusionSet.of(1, "+"), label="skew"),
                Effect(op=np.eye(2) / 2, excludes=ExclusionSet(n=1, mask=0)),
            )
        )
        report = validate(p, ens)
        assert not report.ok
        assert "skew: operator is not Hermitian" in report.violations
        assert np.isnan(report.min_eigenvalues[0])
        assert np.isnan(report.unambiguity_residuals[0])
        assert report.min_eigenvalues[1] == pytest.approx(0.5, abs=1e-15)
        assert report.unambiguity_residuals[1] == 0.0

    def test_dimension_mismatch_with_ensemble(self):
        ens = uniform_ensemble(Angle.from_two_theta_deg(45.0), 2)
        p = Povm(
            effects=(Effect(op=np.eye(2), excludes=ExclusionSet(n=1, mask=0)),)
        )
        with pytest.raises(DimensionMismatch):
            validate(p, ens)

    def test_default_tol_value(self):
        assert DEFAULT_TOL == 1e-10

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-10])
    def test_rejects_nonfinite_or_negative_tol(self, tol):
        # a NaN tolerance would let every comparison pass
        ens = uniform_ensemble(Angle.from_two_theta_deg(45.0), 1)
        p = Povm(
            effects=(Effect(op=np.eye(2) / 2, excludes=ExclusionSet(n=1, mask=0)),)
        )
        with pytest.raises(ValueError, match="tol"):
            validate(p, ens, tol=tol)


class TestOutcomeStats:
    def test_pbr_uniform_quarters(self):
        a = Angle.from_two_theta_deg(45.0)
        povm = pbr_basis(a)
        ens = uniform_ensemble(a, 2)
        stats = outcome_probabilities(povm, ens)
        np.testing.assert_allclose(stats.probs, [0.25] * 4, atol=1e-12)
        assert stats.fail_prob == pytest.approx(0.0, abs=1e-12)
        assert stats.avg_eliminated == pytest.approx(1.0, abs=1e-12)

    def test_eliminate_two_probs_at_60(self):
        a = Angle.from_two_theta_deg(60.0)
        povm = eliminate_two(a)
        ens = uniform_ensemble(a, 2)
        stats = outcome_probabilities(povm, ens)
        by_label = dict(zip(stats.labels, stats.probs))
        for lab in ("not(++,+-)", "not(++,-+)", "not(+-,--)", "not(-+,--)"):
            assert by_label[lab] == pytest.approx(0.1875, abs=1e-12)
        for lab in ("not(+-,-+)", "not(++,--)"):
            assert by_label[lab] == pytest.approx(0.0625, abs=1e-12)
        assert stats.fail_prob == pytest.approx(0.125, abs=1e-12)
        assert stats.avg_eliminated == pytest.approx(2 * 0.875, abs=1e-12)

    def test_probs_sum_to_one(self):
        a = Angle.from_two_theta_deg(72.0)
        povm = eliminate_two(a)
        ens = uniform_ensemble(a, 2)
        stats = outcome_probabilities(povm, ens)
        assert sum(stats.probs) == pytest.approx(1.0, abs=1e-12)

    def test_average_eliminated_shortcut(self):
        a = Angle.from_two_theta_deg(60.0)
        povm = eliminate_two(a)
        ens = uniform_ensemble(a, 2)
        stats = outcome_probabilities(povm, ens)
        assert stats.avg_eliminated == pytest.approx(1.75, abs=1e-12)

    @pytest.mark.parametrize("case", ["ancilla-one", "local-usd", "phased"])
    def test_clicks_match_direct_evaluation(self, case):
        # <psi|E|psi> one state at a time; "phased" turns the ancilla POVM
        # and the states complex by one diagonal unitary, which leaves every
        # click probability unchanged
        a = Angle.from_two_theta_deg(70.0)
        n = 3 if case == "local-usd" else 2
        povm = local_usd(a, 3) if case == "local-usd" else ancilla_eliminate_one(a)
        ens = uniform_ensemble(a, n)
        if case == "phased":
            d = np.exp(1j * np.arange(povm.dim))
            povm = Povm(
                effects=tuple(
                    Effect(op=d[:, None] * e.op * d.conj(), excludes=e.excludes)
                    for e in povm.effects
                )
            )
            ens = Ensemble(tuple(d * s for s in ens.states), ens.priors)
        direct = np.array(
            [[np.vdot(s, e.op @ s).real for s in ens.states] for e in povm.effects]
        )
        stats = outcome_probabilities(povm, ens)
        np.testing.assert_allclose(stats.probs, direct @ ens.priors, rtol=0, atol=1e-14)
        report = validate(povm, ens)
        assert report.ok
        want = [
            max([abs(direct[i, p.bits]) for p in e.excludes.patterns()], default=0.0)
            for i, e in enumerate(povm.effects)
        ]
        np.testing.assert_allclose(
            report.unambiguity_residuals, want, rtol=0, atol=1e-14
        )

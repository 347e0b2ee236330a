"""Tests for POVM containers, validation, and outcome statistics."""

import numpy as np
import pytest

from qelim.linalg import DimensionMismatch, NotHermitian, eig_hermitian, frob_dist
from qelim.povm import (
    _STACK_ENTRIES,
    DEFAULT_TOL,
    Effect,
    ExclusionSet,
    InvalidPovm,
    Povm,
    ValidationReport,
    _clicks,
    _ProductEffect,
    outcome_probabilities,
    validate,
)
from qelim.schemes import (
    ancilla_eliminate_one,
    eliminate_one,
    eliminate_two,
    local_usd,
    pbr_basis,
    symmetrize,
    tensor,
    usd_qubit,
)
from qelim.states import Angle, Ensemble, uniform_ensemble
from qelim.verify import monte_carlo


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

    def test_nan_ensemble_fails_an_invalid_povm(self):
        # eliminate_one(10 deg) clicks on patterns it excludes at 30 deg;
        # NaN states must not hide that behind NaN clicks
        povm = eliminate_one(Angle.from_two_theta_deg(10.0))
        ens = uniform_ensemble(Angle.from_two_theta_deg(30.0), 2)
        assert not validate(povm, ens).ok
        nan_ens = Ensemble(tuple(np.full(4, np.nan) for _ in range(4)), ens.priors)
        report = validate(povm, nan_ens)
        assert not report.ok
        for e, resid in zip(povm.effects, report.unambiguity_residuals):
            if e.excludes.is_failure:
                assert resid == 0.0
                continue
            assert np.isnan(resid)
            (p,) = e.excludes.patterns()
            assert f"{e.label}: excluded pattern {p} has click probability nan" in report.violations

    def test_infinite_click_is_a_violation_with_nan_residual(self):
        # a state of norm 1e200 overflows its click to inf
        ens = uniform_ensemble(Angle.from_two_theta_deg(45.0), 1)
        states = (np.array([1e200, 0.0]), ens.states[1])
        p = Povm(
            effects=(
                Effect(op=np.diag([1.0, 0.0]), excludes=ExclusionSet.of(1, "+"), label="x"),
                Effect(op=np.diag([0.0, 1.0]), excludes=ExclusionSet(n=1, mask=0)),
            )
        )
        with np.errstate(over="ignore"):
            report = validate(p, Ensemble(states, ens.priors))
        assert report.violations == ["x: excluded pattern + has click probability inf"]
        assert np.isnan(report.unambiguity_residuals[0])
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


def reference_validate(povm, ensemble, tol):
    """validate's checks with one loop step per excluded pattern of each effect."""
    clicks = _clicks(povm, np.array(ensemble.states))
    report = ValidationReport(tol=tol)
    total = np.zeros((povm.dim, povm.dim))
    for i, e in enumerate(povm.effects):
        name = e.label or f"effect {i}"
        try:
            lo = float(eig_hermitian(e.op)[0])
        except NotHermitian:
            report.violations.append(f"{name}: operator is not Hermitian")
            report.min_eigenvalues.append(float("nan"))
            report.unambiguity_residuals.append(float("nan"))
            continue
        report.min_eigenvalues.append(lo)
        if lo < -tol:
            report.violations.append(f"{name}: min eigenvalue {lo:.3e} < -{tol:.0e}")
        resid = 0.0
        for p in e.excludes.patterns():
            overlap = float(clicks[i, p.bits])
            resid = max(resid, abs(overlap))
            if abs(overlap) > tol:
                report.violations.append(
                    f"{name}: excluded pattern {p} has click probability {overlap:.3e}"
                )
        report.unambiguity_residuals.append(resid)
        total = total + e.op
    residual = frob_dist(total, np.eye(povm.dim))
    report.completeness_residual = residual
    if residual > tol:
        report.violations.append(f"completeness residual {residual:.3e} > {tol:.0e}")
    return report


class TestValidateMatchesPerPatternLoop:
    @staticmethod
    def perturbed(angle):
        """local_usd(angle, 3) with one effect clicking on excluded patterns.

        Effect "+ff" gains weight on two states it claims to exclude and
        loses some on a basis vector, so it is indefinite; effect "-+f"
        turns non-Hermitian.
        """
        povm = local_usd(angle, 3)
        ens = uniform_ensemble(angle, 3)
        effects = list(povm.effects)
        i = povm.labels.index("+ff")
        excluded = [p.bits for p in effects[i].excludes.patterns()]
        x = ens.states[excluded[0]] + ens.states[excluded[-1]]
        op = effects[i].op + 0.05 * np.outer(x, x.conj())
        op[7, 7] -= 0.5
        effects[i] = Effect(op, effects[i].excludes, effects[i].label)
        j = povm.labels.index("-+f")
        skew = effects[j].op.copy()
        skew[0, 1] += 0.1
        effects[j] = Effect(skew, effects[j].excludes, effects[j].label)
        return Povm(tuple(effects)), ens

    @pytest.mark.parametrize("deg", [20.0, 45.0, 70.0])
    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.0, 1e-3])
    def test_same_report(self, deg, tol):
        povm, ens = self.perturbed(Angle.from_two_theta_deg(deg))
        got = validate(povm, ens, tol=tol)
        want = reference_validate(povm, ens, tol)
        assert got.violations == want.violations
        np.testing.assert_array_equal(got.unambiguity_residuals, want.unambiguity_residuals)
        np.testing.assert_array_equal(got.min_eigenvalues, want.min_eigenvalues)
        assert got.completeness_residual == want.completeness_residual
        # the perturbation must reach every branch of the loop
        assert sum("excluded pattern" in v for v in got.violations) >= 2
        assert any("min eigenvalue" in v for v in got.violations)
        assert "-+f: operator is not Hermitian" in got.violations

    def test_exact_zero_click_passes_at_zero_tol(self):
        # at 2t = 0 both states are |0>, which diag(0, 1) never sees
        ens = uniform_ensemble(Angle.from_two_theta_deg(0.0), 1)
        povm = Povm(
            effects=(
                Effect(op=np.diag([0.0, 1.0]), excludes=ExclusionSet.of(1, "+", "-")),
                Effect(op=np.diag([1.0, 0.0]), excludes=ExclusionSet(n=1, mask=0)),
            )
        )
        got, want = validate(povm, ens, tol=0.0), reference_validate(povm, ens, 0.0)
        assert got.ok and want.ok
        assert got.unambiguity_residuals == want.unambiguity_residuals == [0.0, 0.0]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_same_report_on_the_valid_povm(self, n):
        a = Angle.from_two_theta_deg(63.0)
        povm, ens = local_usd(a, n), uniform_ensemble(a, n)
        got, want = validate(povm, ens), reference_validate(povm, ens, DEFAULT_TOL)
        assert got.ok and want.ok
        assert got.unambiguity_residuals == want.unambiguity_residuals
        assert got.min_eigenvalues == want.min_eigenvalues


# Every scheme, with the angles (2t in degrees) it is defined at.
KERNEL_SCHEMES = (
    (pbr_basis, lambda d: d == 45.0),
    (eliminate_one, lambda d: d < 45.0),
    (lambda a: symmetrize(eliminate_one(a)), lambda d: d < 45.0),
    (ancilla_eliminate_one, lambda d: d >= 45.0),
    (eliminate_two, lambda d: d > 0.0),
    (usd_qubit, lambda d: True),
    (lambda a: local_usd(a, 3), lambda d: True),
    (lambda a: local_usd(a, 4), lambda d: True),
)


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

    @pytest.mark.parametrize("deg", [3.0 * k for k in range(31)])
    def test_probs_keep_complex_arithmetic(self, deg, grid_pbar):
        # real ensembles and operators take real arithmetic; its
        # probabilities keep those of the complex per-effect product to
        # 1e-15, and on monte_carlo's 2**-40 grid bit for bit, so seeded
        # counts do not hang on the dtype
        a = Angle.from_two_theta_deg(deg)
        for build, defined in KERNEL_SCHEMES:
            if not defined(deg):
                continue
            povm = build(a)
            ens = uniform_ensemble(a, povm.n)
            assert np.array(ens.states).dtype == np.float64
            s = np.array(ens.states, dtype=complex)
            want = np.array(
                [np.real(np.sum(s.conj() * (s @ e.op.T), axis=1)) for e in povm.effects]
            ) @ ens.priors
            got = outcome_probabilities(povm, ens).probs
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
            assert np.array_equal(grid_pbar(got), grid_pbar(want))

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


def per_effect_clicks(povm, states):
    """_clicks as a loop over the effects, one product per operator."""
    s_conj = states.conj()
    return np.array(
        [np.einsum("sd,sd->s", s_conj, states @ e.op.T).real for e in povm.effects]
    )


def _stacked_click_cases():
    def below(deg):
        return deg < 45.0

    builders = [
        ("pbr", lambda a: pbr_basis(a), lambda d: d == 45.0),
        ("eliminate-one", eliminate_one, below),
        ("symmetrized", lambda a: symmetrize(eliminate_one(a)), below),
        ("ancilla-one", ancilla_eliminate_one, lambda d: d >= 45.0),
        ("eliminate-two", eliminate_two, lambda d: d > 0.0),
        ("usd", usd_qubit, lambda d: True),
        ("local-usd-4", lambda a: local_usd(a, 4), lambda d: True),
        ("local-usd-6", lambda a: local_usd(a, 6), lambda d: d in (30.0, 90.0)),
    ]
    return [
        pytest.param(build, deg, id=f"{name}-{deg:g}")
        for name, build, ok in builders
        for deg in (0.0, 20.0, 44.0, 45.0, 60.0, 70.0, 90.0, 30.0)
        if ok(deg)
    ]


class TestStackedClicks:
    @pytest.mark.parametrize("build, deg", _stacked_click_cases())
    def test_stacked_products_equal_per_effect_loop(self, build, deg, same_bits):
        # _clicks takes the operators in stacks, several products per
        # call (local_usd at n = 6 spans many stacks); each click
        # must keep the bits of the per-effect product whatever the dtypes:
        # real states, complex-typed copies of them, and a phased POVM
        # with real or phased states
        a = Angle.from_two_theta_deg(deg)
        povm = build(a)
        states = np.array(uniform_ensemble(a, povm.n).states)
        assert states.dtype == np.float64
        d = np.exp(1j * np.arange(povm.dim))
        phased = Povm(
            effects=tuple(
                Effect(op=d[:, None] * e.op * d.conj(), excludes=e.excludes)
                for e in povm.effects
            )
        )
        cases = [
            (povm, states),
            (povm, states.astype(complex)),
            (phased, states),
            (phased, states * d),
        ]
        for p, s in cases:
            want = per_effect_clicks(p, s)
            assert want.shape == (len(povm.effects), 1 << povm.n)
            same_bits(_clicks(p, s), want)



def dense_copy(povm):
    """The same POVM with every operator formed and held by its effect."""
    return Povm(tuple(Effect(e.op.copy(), e.excludes, e.label) for e in povm.effects))


def _product_cases():
    cases = [(n, deg) for n in range(1, 6) for deg in (0.0, 30.0, 57.0, 90.0)]
    cases += [(6, 30.0), (6, 75.5)]
    return [pytest.param(n, deg, id=f"local-usd-{n}-{deg:g}") for n, deg in cases]


class TestProductPovm:
    """tensor's factored POVMs against dense copies of themselves."""

    @staticmethod
    def assert_same_calls(product, ens, same_bits):
        dense = dense_copy(product)
        got, want = validate(product, ens), validate(dense, ens)
        valid = want.ok
        assert got.violations == want.violations
        same_bits(got.min_eigenvalues, want.min_eigenvalues)
        same_bits(got.unambiguity_residuals, want.unambiguity_residuals)
        same_bits(got.completeness_residual, want.completeness_residual)
        got, want = outcome_probabilities(product, ens), outcome_probabilities(dense, ens)
        same_bits(got.probs, want.probs)
        assert (got.fail_prob, got.avg_eliminated) == (want.fail_prob, want.avg_eliminated)
        if valid:
            got = monte_carlo(product, ens, 10 ** 6, 3)
            want = monte_carlo(dense, ens, 10 ** 6, 3)
            assert got.counts == want.counts
            assert got.analytic == want.analytic
        return valid

    @pytest.mark.parametrize("n, deg", _product_cases())
    def test_local_usd_same_bits_as_dense(self, n, deg, same_bits):
        a = Angle.from_two_theta_deg(deg)
        assert self.assert_same_calls(local_usd(a, n), uniform_ensemble(a, n), same_bits)

    @pytest.mark.parametrize("deg", [30.0, 70.0])
    def test_phased_tensor_same_bits_as_dense(self, deg, same_bits):
        # complex operators on real states, which they are not
        # unambiguous for, and on states given the same phases
        a = Angle.from_two_theta_deg(deg)
        d = np.exp(1j * np.arange(4))
        phased = Povm(
            tuple(Effect(d[:, None] * e.op * d.conj(), e.excludes, e.label)
                  for e in eliminate_two(a).effects)
        )
        product = tensor(usd_qubit(a), phased, usd_qubit(a))
        ens = uniform_ensemble(a, 4)
        d_all = np.kron(np.kron(np.ones(2), d), np.ones(2))
        assert not self.assert_same_calls(product, ens, same_bits)
        ens = Ensemble(tuple(d_all * s for s in ens.states), ens.priors)
        assert self.assert_same_calls(product, ens, same_bits)

    def test_stacks_stay_bounded_and_reading_forms_no_operator(self, monkeypatch):
        # construction, dim, validate and outcome_probabilities read the
        # factors, never an effect's op, and no stack exceeds _STACK_ENTRIES
        def refuse(effect):
            raise AssertionError("an operator was formed through Effect.op")

        a = Angle.from_two_theta_deg(57.0)
        monkeypatch.setattr(_ProductEffect, "op", property(refuse))
        for n in (2, 4, 6):
            povm = local_usd(a, n)
            assert povm.dim == 1 << n
            ens = uniform_ensemble(a, n)
            assert validate(povm, ens).ok
            outcome_probabilities(povm, ens)
            sizes = [ops.size for ops in povm._stacks()]
            assert sum(sizes) == 3 ** n * 4 ** n
            assert max(sizes) <= _STACK_ENTRIES

"""Tests for numeric certification and the Monte Carlo sampler."""

import math
import warnings

import numpy as np
import pytest

from qelim.analysis import eliminate_two_fail_prob, local_avg_eliminated, pair_threshold
from qelim.povm import Effect, ExclusionSet, InvalidPovm, Povm, outcome_probabilities
from qelim.schemes import (
    UnsupportedAngle,
    ancilla_eliminate_one,
    eliminate_one,
    eliminate_two,
    local_usd,
    pbr_basis,
    usd_qubit,
)
from qelim.states import Angle, Ensemble, uniform_ensemble
from qelim.verify import (
    BLOCK_SIZE,
    MAX_SHOTS,
    CertReport,
    _block_state,
    audit_bound,
    certify_one,
    certify_two,
    monte_carlo,
)


ONE_DEGS = [float(d) for d in np.linspace(0.0, 45.0, 1801)[:-1]] + [
    1e-9,
    45.0 - 1e-9,
    math.nextafter(45.0, 0.0),
]
TWO_DEGS = [float(d) for d in np.linspace(0.0, 90.0, 3601)[1:]] + [
    1e-9,
    math.degrees(pair_threshold()),
    math.nextafter(math.degrees(pair_threshold()), 0.0),
    math.nextafter(math.degrees(pair_threshold()), 90.0),
]


class TestCertifyOne:
    @pytest.mark.parametrize("deg", [10.0, 30.0, 40.0])
    def test_grid_cannot_beat_closed_form(self, deg):
        rep = certify_one(Angle.from_two_theta_deg(deg))
        assert rep.ok, rep
        assert rep.gap >= -1e-12
        assert rep.gap <= 1e-12

    def test_report_fields(self):
        rep = certify_one(Angle.from_two_theta_deg(30.0))
        assert isinstance(rep, CertReport)
        assert rep.oracle == pytest.approx(rep.closed_form, abs=1e-12)
        assert len(rep.params["amplitudes"]) == 3

    def test_rejects_out_of_domain(self):
        with pytest.raises(UnsupportedAngle):
            certify_one(Angle.from_two_theta_deg(45.0))

    def test_exact_over_dense_angles(self):
        # 0 deg, where both slab planes of the polytope are degenerate,
        # up to the last float below 45 deg
        for deg in ONE_DEGS:
            a = Angle.from_two_theta_deg(deg)
            assert a.two_theta < math.pi / 4.0
            rep = certify_one(a)
            assert rep.verdict == "pass", (deg, rep)
            assert abs(rep.gap) <= 1e-12, (deg, rep.gap)

    def test_default_runs_no_grid(self):
        rep = certify_one(Angle.from_two_theta_deg(30.0))
        assert rep.params["grid_steps"] == 0
        assert rep.params["refine_iters"] == 0
        assert "grid_oracle" not in rep.params

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"refine_iters": 40},
            {"grid_steps": -1},
            {"refine_iters": -1},
            {"grid_steps": 5, "refine_iters": -2},
        ],
    )
    def test_rejects_grid_settings_that_run_no_grid(self, kwargs):
        with pytest.raises(ValueError):
            certify_one(Angle.from_two_theta_deg(30.0), **kwargs)

    @pytest.mark.parametrize("deg", [10.0, 30.0, 40.0])
    def test_old_grid_never_beats_vertices(self, deg):
        rep = certify_one(Angle.from_two_theta_deg(deg), grid_steps=61, refine_iters=40)
        assert rep.ok, rep
        assert rep.params["grid_oracle"] >= rep.oracle - 1e-12

    def test_coarse_grid_still_passes(self):
        # a coarse blind grid is only a cross-check: it cannot do better
        # than the exact vertex optimum, so the verdict stays a pass
        rep = certify_one(Angle.from_two_theta_deg(20.0), grid_steps=31, refine_iters=40)
        assert rep.ok
        assert rep.params["grid_oracle"] >= rep.oracle - 1e-12


class TestCertifyTwo:
    @pytest.mark.parametrize("deg", [40.0, 60.0, 66.0, 70.0, 90.0])
    def test_weight_search_matches_closed_form(self, deg):
        rep = certify_two(Angle.from_two_theta_deg(deg))
        assert rep.ok, rep
        assert abs(rep.gap) <= 1e-12

    def test_success_value(self):
        a = Angle.from_two_theta_deg(60.0)
        rep = certify_two(a)
        assert rep.closed_form == pytest.approx(
            1.0 - eliminate_two_fail_prob(a), abs=1e-15
        )

    def test_conjecture_tag_below_threshold_only(self):
        assert "conjecture" in certify_two(Angle.from_two_theta_deg(60.0)).claim
        assert "conjecture" not in certify_two(Angle.from_two_theta_deg(70.0)).claim

    def test_rejects_degenerate(self):
        with pytest.raises(UnsupportedAngle):
            certify_two(Angle.from_two_theta_deg(0.0))

    def test_exact_over_dense_angles(self):
        # from just above 0 deg through the pair threshold to 90 deg
        for deg in TWO_DEGS:
            rep = certify_two(Angle.from_two_theta_deg(deg))
            assert rep.verdict == "pass", (deg, rep)
            assert abs(rep.gap) <= 1e-12, (deg, rep.gap)

    def test_default_runs_no_grid(self):
        rep = certify_two(Angle.from_two_theta_deg(60.0))
        assert rep.params["grid_steps"] == 0
        assert rep.params["zoom_rounds"] == 0
        assert "grid_oracle" not in rep.params

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"zoom_rounds": 3},
            {"grid_steps": -1},
            {"zoom_rounds": -1},
            {"grid_steps": 7, "zoom_rounds": -2},
        ],
    )
    def test_rejects_grid_settings_that_run_no_grid(self, kwargs):
        with pytest.raises(ValueError):
            certify_two(Angle.from_two_theta_deg(60.0), **kwargs)

    @pytest.mark.parametrize("deg", [40.0, 60.0, 90.0])
    def test_old_grid_never_beats_vertices(self, deg):
        rep = certify_two(Angle.from_two_theta_deg(deg), grid_steps=201, zoom_rounds=6)
        assert rep.ok, rep
        assert rep.params["grid_oracle"] <= rep.oracle + 1e-12

    def test_grid_stays_inside_the_polygon(self):
        # a grid point just past the cap can score above the optimum
        # (1.0000000000002498 at 90 deg with a 1e-12 slack), so the grid
        # must admit only points inside the polygon
        for half_deg in range(1, 181):
            rep = certify_two(
                Angle.from_two_theta_deg(half_deg / 2.0), grid_steps=201, zoom_rounds=6
            )
            assert rep.params["grid_oracle"] <= rep.oracle, (half_deg / 2.0, rep)
            assert rep.verdict == "pass", (half_deg / 2.0, rep)

    def test_vertex_weights_reach_the_optimum(self):
        # the reported (gamma, beta) is feasible and attains the oracle
        a = Angle.from_two_theta_deg(60.0)
        rep = certify_two(a)
        s2, c2 = math.sin(a.theta) ** 2, math.cos(a.theta) ** 2
        gamma, beta = rep.params["gamma"], rep.params["beta"]
        assert 0.0 <= gamma <= min(1.0 / (4.0 * s2), 1.0 / (2.0 * c2)) + 1e-12
        assert 0.0 <= beta <= 1.0 / (2.0 * c2 * c2) + 1e-12
        assert 4.0 * s2 * gamma + 2.0 * s2 * s2 * beta <= 1.0 + 1e-12
        alpha = max(0.0, (1.0 - 2.0 * gamma * c2) / 2.0)
        succ = (
            8.0 * gamma * s2 * c2 * c2
            + alpha * 4.0 * s2 * c2
            + 4.0 * beta * s2 * s2 * c2 * c2
        )
        assert succ == pytest.approx(rep.oracle, abs=1e-15)


class TestAuditBound:
    def test_all_schemes_within_benchmark(self):
        cases = [
            (pbr_basis(Angle.from_two_theta_deg(45.0)), 45.0),
            (eliminate_one(Angle.from_two_theta_deg(30.0)), 30.0),
            (ancilla_eliminate_one(Angle.from_two_theta_deg(60.0)), 60.0),
            (eliminate_two(Angle.from_two_theta_deg(60.0)), 60.0),
            (usd_qubit(Angle.from_two_theta_deg(45.0)), 45.0),
            (local_usd(Angle.from_two_theta_deg(45.0), 2), 45.0),
        ]
        for povm, deg in cases:
            rep = audit_bound(povm, Angle.from_two_theta_deg(deg))
            assert rep.ok, (deg, rep)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_local_usd_saturates(self, n):
        a = Angle.from_two_theta_deg(45.0)
        rep = audit_bound(local_usd(a, n), a)
        assert rep.ok
        # the per-qubit strategy achieves its own benchmark exactly
        assert abs(rep.gap) <= 1e-10
        assert rep.oracle == pytest.approx(local_avg_eliminated(a, n), abs=1e-10)

    def test_eliminate_two_pair_cap_tight(self):
        # while the overlap stays above sqrt(2) - 1 the pair cap is met
        # with equality: 2 p(exclude 2) = 4 - (1 + cos 2t)^2
        for deg in [10.0, 30.0, 50.0, 60.0, 65.0]:
            a = Angle.from_two_theta_deg(deg)
            rep = audit_bound(eliminate_two(a), a)
            assert rep.ok
            pair_rate = 2.0 * rep.params["per_k_prob"]["2"]
            assert pair_rate == pytest.approx(
                4.0 - (1.0 + a.overlap) ** 2, abs=1e-10
            )

    def test_eliminate_two_all_clicks_pair_past_threshold(self):
        # past the threshold failure vanishes, so every click excludes two
        for deg in [66.0, 70.0, 90.0]:
            a = Angle.from_two_theta_deg(deg)
            rep = audit_bound(eliminate_two(a), a)
            assert rep.ok
            assert rep.params["per_k_prob"]["2"] == pytest.approx(
                1.0, abs=1e-12
            )

    def test_invalid_povm_rejected(self):
        bad = Povm(
            effects=(
                Effect(op=np.eye(4) * 0.5, excludes=ExclusionSet(n=2, mask=0)),
            )
        )
        with pytest.raises(InvalidPovm):
            audit_bound(bad, Angle.from_two_theta_deg(45.0))


class TestMonteCarlo:
    def test_reproducible_counts(self):
        a = Angle.from_two_theta_deg(45.0)
        povm = pbr_basis(a)
        ens = uniform_ensemble(a, 2)
        r1 = monte_carlo(povm, ens, shots=20000, seed=7)
        r2 = monte_carlo(povm, ens, shots=20000, seed=7)
        assert r1.counts == r2.counts

    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40 + 3, 2 ** 63 + 5, 2 ** 64 + 9])
    def test_counts_equal_a_fresh_generator_per_block(self, seed, grid_pbar):
        # monte_carlo re-keys one Philox per block; its counts must be
        # those of a fresh Philox keyed by the exact 64-bit words
        # [seed mod 2**64, block] drawing from the gridded distribution,
        # for every block, the last one short
        a = Angle.from_two_theta_deg(60.0)
        povm = ancilla_eliminate_one(a)
        ens = uniform_ensemble(a, 2)
        shots = 3 * BLOCK_SIZE + 1234
        pbar = grid_pbar(outcome_probabilities(povm, ens).probs)
        want = np.zeros(pbar.size, dtype=np.int64)
        for block, start in enumerate(range(0, shots, BLOCK_SIZE)):
            key = np.array([seed % 2 ** 64, block], dtype=np.uint64)
            want += np.random.Generator(np.random.Philox(key=key)).multinomial(
                min(BLOCK_SIZE, shots - start), pbar
            )
        assert monte_carlo(povm, ens, shots=shots, seed=seed).counts == want.tolist()

    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40 + 3, 2 ** 63 - 1])
    def test_seeds_below_2_63_keep_their_key(self, seed):
        # the exact key changes nothing where the old conversion through
        # numpy's default integer type was exact
        for block in (0, 1, 152587):
            old = np.asarray([seed & (2 ** 64 - 1), block]).astype(np.uint64)
            key = _block_state(seed, block)["state"]["key"]
            assert key.dtype == old.dtype and np.array_equal(key, old)

    def test_numpy_integer_seeds_draw_as_python_ints(self):
        a = Angle.from_two_theta_deg(45.0)
        povm = pbr_basis(a)
        ens = uniform_ensemble(a, 2)
        want = monte_carlo(povm, ens, shots=20000, seed=7).counts
        for seed in (np.int64(7), np.uint64(7), np.int32(7)):
            assert monte_carlo(povm, ens, shots=20000, seed=seed).counts == want

    def test_high_seeds_keep_their_low_bits(self):
        a = Angle.from_two_theta_deg(45.0)
        povm = pbr_basis(a)
        ens = uniform_ensemble(a, 2)
        r1 = monte_carlo(povm, ens, shots=20000, seed=2 ** 63 + 1)
        r2 = monte_carlo(povm, ens, shots=20000, seed=2 ** 63 + 2)
        assert r1.counts != r2.counts

    def test_largest_seed_warns_nothing(self):
        a = Angle.from_two_theta_deg(45.0)
        povm = pbr_basis(a)
        ens = uniform_ensemble(a, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = monte_carlo(povm, ens, shots=20000, seed=2 ** 64 - 1)
        assert sum(rep.counts) == 20000
        key = _block_state(2 ** 64 - 1, 0)["state"]["key"]
        assert key.tolist() == [2 ** 64 - 1, 0]

    def test_counts_ignore_the_click_kernel(self):
        # real states and complex-typed copies of them give probabilities
        # that differ at roundoff here, and seeded counts that agree
        a = Angle.from_two_theta_deg(60.0)
        povm = ancilla_eliminate_one(a)
        ens = uniform_ensemble(a, 2)
        wide = Ensemble(tuple(s.astype(complex) for s in ens.states), ens.priors)
        real_probs = outcome_probabilities(povm, ens).probs
        real = monte_carlo(povm, ens, shots=10 ** 6, seed=7).counts
        assert not np.array_equal(outcome_probabilities(povm, wide).probs, real_probs)
        assert monte_carlo(povm, wide, shots=10 ** 6, seed=7).counts == real

    def test_seed_changes_stream(self):
        a = Angle.from_two_theta_deg(45.0)
        povm = pbr_basis(a)
        ens = uniform_ensemble(a, 2)
        r1 = monte_carlo(povm, ens, shots=20000, seed=7)
        r2 = monte_carlo(povm, ens, shots=20000, seed=8)
        assert r1.counts != r2.counts

    def test_frequencies_near_analytic(self):
        a = Angle.from_two_theta_deg(60.0)
        povm = eliminate_two(a)
        ens = uniform_ensemble(a, 2)
        shots = 200000
        rep = monte_carlo(povm, ens, shots=shots, seed=3)
        for freq, p in zip(rep.freqs, rep.analytic):
            sigma = max((p * (1 - p) / shots) ** 0.5, 1e-9)
            assert abs(freq - p) <= 5 * sigma

    def test_counts_sum_to_shots(self):
        a = Angle.from_two_theta_deg(45.0)
        povm = local_usd(a, 2)
        ens = uniform_ensemble(a, 2)
        rep = monte_carlo(povm, ens, shots=12345, seed=1)
        assert sum(rep.counts) == 12345

    def test_single_shot(self):
        a = Angle.from_two_theta_deg(45.0)
        povm = pbr_basis(a)
        ens = uniform_ensemble(a, 2)
        rep = monte_carlo(povm, ens, shots=1, seed=0)
        assert sum(rep.counts) == 1

    def test_multi_block_continues_stream(self):
        # shots spanning several blocks still land exactly
        a = Angle.from_two_theta_deg(45.0)
        povm = usd_qubit(a)
        ens = uniform_ensemble(a, 1)
        shots = BLOCK_SIZE + 17
        rep = monte_carlo(povm, ens, shots=shots, seed=5)
        assert sum(rep.counts) == shots

    def test_shot_split_invariance(self):
        # one call of n shots equals two calls whose blocks align
        a = Angle.from_two_theta_deg(45.0)
        povm = pbr_basis(a)
        ens = uniform_ensemble(a, 2)
        whole = monte_carlo(povm, ens, shots=2 * BLOCK_SIZE, seed=11)
        assert sum(whole.counts) == 2 * BLOCK_SIZE
        # block 0 is shared, so the longer run only adds block 1's counts
        first = monte_carlo(povm, ens, shots=BLOCK_SIZE, seed=11)
        extra = np.array(whole.counts) - np.array(first.counts)
        assert (extra >= 0).all()
        assert extra.sum() == BLOCK_SIZE

    def test_zero_probability_outcomes_never_click(self):
        # an exactly zero effect, and a failure effect whose analytic
        # probability is roundoff around zero past 45 deg
        a = Angle.from_two_theta_deg(45.0)
        null = Effect(op=np.zeros((4, 4)), excludes=ExclusionSet(n=2, mask=0b1111))
        padded = Povm(effects=pbr_basis(a).effects + (null,))
        b = Angle.from_two_theta_deg(60.0)
        cases = [
            (padded, uniform_ensemble(a, 2)),
            (ancilla_eliminate_one(b), uniform_ensemble(b, 2)),
        ]
        for povm, ens in cases:
            rep = monte_carlo(povm, ens, shots=3 * BLOCK_SIZE, seed=2)
            zero = [c for c, p in zip(rep.counts, rep.analytic) if p <= 0.0]
            assert zero and all(c == 0 for c in zero)
            assert sum(rep.counts) == 3 * BLOCK_SIZE

    def test_chi2_below_one_in_a_million_quantile(self):
        a = Angle.from_two_theta_deg(37.0)
        povm = local_usd(a, 3)
        ens = uniform_ensemble(a, 3)
        shots = 10**6
        rep = monte_carlo(povm, ens, shots=shots, seed=12)
        p = np.array(rep.analytic)
        assert (p > 0.0).all()
        assert rep.dof == p.size - 1 == 26
        expected = shots * p
        want = float(np.sum((np.array(rep.counts) - expected) ** 2 / expected))
        assert rep.chi2 == pytest.approx(want, rel=1e-9)
        assert chi2_sf(rep.chi2, rep.dof) > 1e-6

    def test_chi2_mean_matches_dof(self):
        # over many seeds the statistic averages to its degrees of freedom
        a = Angle.from_two_theta_deg(60.0)
        povm = eliminate_two(a)
        ens = uniform_ensemble(a, 2)
        reps = [monte_carlo(povm, ens, shots=5000, seed=s) for s in range(400)]
        dof = reps[0].dof
        assert dof == len(povm.effects) - 1
        mean = sum(r.chi2 for r in reps) / len(reps)
        # the mean of 400 draws has standard deviation sqrt(2 dof / 400)
        assert abs(mean - dof) <= 5.0 * math.sqrt(2.0 * dof / len(reps))

    @pytest.mark.parametrize(
        "build, n, dof",
        [
            (usd_qubit, 1, 1),
            (eliminate_two, 2, 1),
            (lambda a: local_usd(a, 2), 2, 3),
        ],
        ids=["usd", "eliminate-two", "local-usd"],
    )
    def test_dof_skips_roundoff_outcomes(self, build, n, dof):
        # at 90 deg these schemes have outcomes whose analytic probability
        # is roundoff (1e-32 to 1e-16) and which can never click
        a = Angle.from_two_theta_deg(90.0)
        povm = build(a)
        rep = monte_carlo(povm, uniform_ensemble(a, n), shots=1000, seed=3)
        assert len(povm.effects) > dof + 1
        assert rep.dof == dof

    def test_chi2_sf_reference_values(self):
        # 95 % quantiles of the chi-squared distribution
        assert chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, rel=1e-9)
        assert chi2_sf(5.991464547107979, 2) == pytest.approx(0.05, rel=1e-9)
        assert chi2_sf(38.88513865983007, 26) == pytest.approx(0.05, rel=1e-9)

    def test_rejects_zero_shots(self):
        a = Angle.from_two_theta_deg(45.0)
        with pytest.raises(ValueError):
            monte_carlo(pbr_basis(a), uniform_ensemble(a, 2), shots=0, seed=1)

    def test_rejects_shots_above_the_cap(self):
        # checked before any block is drawn, so the refusal is immediate
        a = Angle.from_two_theta_deg(45.0)
        assert MAX_SHOTS == 10**10
        for shots in (MAX_SHOTS + 1, np.int64(10**14)):
            with pytest.raises(ValueError, match="at most 10000000000"):
                monte_carlo(pbr_basis(a), uniform_ensemble(a, 2), shots=shots, seed=1)

    @pytest.mark.parametrize("shots", [2.5, 3.0, np.float64(10.0), True, "10"])
    def test_rejects_non_integral_shots(self, shots):
        a = Angle.from_two_theta_deg(45.0)
        with pytest.raises(ValueError, match="integer"):
            monte_carlo(pbr_basis(a), uniform_ensemble(a, 2), shots=shots, seed=1)

    def test_accepts_numpy_integer_shots(self):
        a = Angle.from_two_theta_deg(45.0)
        rep = monte_carlo(pbr_basis(a), uniform_ensemble(a, 2), shots=np.int64(100), seed=1)
        assert rep.shots == 100 and type(rep.shots) is int
        assert sum(rep.counts) == 100

    def test_rejects_invalid_povm(self):
        a = Angle.from_two_theta_deg(45.0)
        bad = Povm(
            effects=(
                Effect(op=np.eye(4) * 0.5, excludes=ExclusionSet(n=2, mask=0)),
            )
        )
        with pytest.raises(InvalidPovm):
            monte_carlo(bad, uniform_ensemble(a, 2), shots=10, seed=1)


def chi2_sf(x, dof):
    """Upper tail of the chi-squared distribution with integer dof.

    Starts from the closed forms for one and two degrees of freedom and
    climbs two at a time: Q(k + 2, x) = Q(k, x) + (x/2)^(k/2) e^(-x/2) / Gamma(k/2 + 1).
    """
    half = x / 2.0
    k = 2 - dof % 2
    q = math.exp(-half) if k == 2 else math.erfc(math.sqrt(half))
    while k < dof:
        q += math.exp((k / 2.0) * math.log(half) - half - math.lgamma(k / 2.0 + 1.0))
        k += 2
    return q

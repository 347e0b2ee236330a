"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS or FAIL
line, and then asserts. Run with -s to see the lines:

    pytest tests/test_acceptance.py -v -s
"""

import math

import numpy as np

from qelim.analysis import (
    discrimination_gap,
    discrimination_gap_max,
    eliminate_one_fail_prob,
    eliminate_two_fail_prob,
    eliminate_two_outcome_probs,
    local_avg_eliminated,
    pair_threshold,
)
from qelim.linalg import frob_dist
from qelim.povm import outcome_probabilities, validate
from qelim.schemes import (
    ancilla_eliminate_one,
    eliminate_one,
    eliminate_two,
    local_usd,
    pbr_basis,
    usd_qubit,
)
from qelim.states import Angle, all_patterns, product_state, uniform_ensemble
from qelim.verify import audit_bound, certify_one, certify_two, monte_carlo

TOL = 1e-10


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_all_schemes_validate():
    cases = []
    for deg in (45.0 - 1e-12, 45.0, 45.0 + 1e-12):
        cases.append(("pbr", pbr_basis(Angle.from_two_theta_deg(deg)), deg, 2))
    for deg in (10.0, 25.0, 40.0):
        cases.append(
            ("eliminate-one", eliminate_one(Angle.from_two_theta_deg(deg)), deg, 2)
        )
    for deg in (50.0, 70.0, 90.0):
        cases.append(
            (
                "ancilla-one",
                ancilla_eliminate_one(Angle.from_two_theta_deg(deg)),
                deg,
                2,
            )
        )
    for deg in (30.0, 60.0, 80.0):
        cases.append(
            ("eliminate-two", eliminate_two(Angle.from_two_theta_deg(deg)), deg, 2)
        )
    for deg in (20.0, 45.0, 70.0):
        cases.append(("usd", usd_qubit(Angle.from_two_theta_deg(deg)), deg, 1))
    for deg in (30.0, 45.0, 60.0):
        cases.append(
            ("local-usd", local_usd(Angle.from_two_theta_deg(deg), 2), deg, 2)
        )

    bad = []
    for name, povm, deg, n in cases:
        rep = validate(povm, uniform_ensemble(Angle.from_two_theta_deg(deg), n), tol=TOL)
        if not rep.ok:
            bad.append((name, deg, rep.violations))
    report(
        1,
        not bad,
        f"positivity, completeness and unambiguity hold at {TOL:g} for "
        f"{len(cases)} scheme/angle cases" + (f"; failures: {bad}" if bad else ""),
    )


def test_criterion_2_single_elimination_closed_form():
    degs = np.linspace(0.0, 45.0, 51)[:-1]
    worst = 0.0
    for deg in degs:
        a = Angle.from_two_theta_deg(float(deg))
        stats = outcome_probabilities(eliminate_one(a), uniform_ensemble(a, 2))
        worst = max(worst, abs(stats.fail_prob - eliminate_one_fail_prob(a)))
    grid_ok = worst <= 1e-12

    cert_gaps = {}
    for deg in (10.0, 30.0, 40.0):
        rep = certify_one(Angle.from_two_theta_deg(deg))
        cert_gaps[deg] = rep.gap
    cert_ok = all(-1e-12 <= g <= 1e-12 for g in cert_gaps.values())

    report(
        2,
        grid_ok and cert_ok,
        f"single-exclusion failure probability matches its closed form on a "
        f"{len(degs)}-point grid (worst {worst:.2e}) and exact vertex "
        f"enumeration confirms optimality within 1e-12 (gaps "
        + ", ".join(f"{d:g} deg: {g:.2e}" for d, g in cert_gaps.items())
        + ")",
    )


def test_criterion_3_pair_elimination_closed_form():
    degs = np.linspace(0.0, 90.0, 51)[1:]
    worst_fail = 0.0
    worst_prob = 0.0
    for deg in degs:
        a = Angle.from_two_theta_deg(float(deg))
        stats = outcome_probabilities(eliminate_two(a), uniform_ensemble(a, 2))
        worst_fail = max(
            worst_fail, abs(stats.fail_prob - eliminate_two_fail_prob(a))
        )
        closed = eliminate_two_outcome_probs(a)
        by_label = dict(zip(stats.labels, stats.probs))
        for lab, p in closed.items():
            worst_prob = max(worst_prob, abs(by_label.get(lab, 0.0) - p))
    grid_ok = worst_fail <= 1e-12 and worst_prob <= 1e-12

    thr_deg = math.degrees(pair_threshold())
    thr_ok = abs(thr_deg - 65.53) <= 0.01

    eps = 1e-9
    lo = eliminate_two(Angle.from_two_theta_deg(thr_deg - eps))
    hi = eliminate_two(Angle.from_two_theta_deg(thr_deg + eps))
    lo_by_mask = {e.excludes.mask: e.op for e in lo.effects}
    jump = 0.0
    for e in hi.effects:
        if e.excludes.is_failure:
            continue
        jump = max(jump, frob_dist(lo_by_mask[e.excludes.mask], e.op))
    cont_ok = jump <= 1e-10

    report(
        3,
        grid_ok and thr_ok and cont_ok,
        f"pair-exclusion probabilities match closed forms on a "
        f"{len(degs)}-point grid (worst {max(worst_fail, worst_prob):.2e}), "
        f"failure first vanishes at {thr_deg:.4f} deg, and the two weight "
        f"branches join continuously there (operator jump {jump:.2e})",
    )


def test_criterion_4_local_benchmark_value():
    a = Angle.from_two_theta_deg(45.0)
    stats = outcome_probabilities(local_usd(a, 2), uniform_ensemble(a, 2))
    target = 4.0 - (1.0 + 2**-0.5) ** 2
    approx_ok = abs(stats.avg_eliminated - 1.08579) <= 5e-4
    exact_ok = abs(stats.avg_eliminated - target) <= 1e-12
    report(
        4,
        approx_ok and exact_ok,
        f"per-qubit discrimination on two qubits at 45 deg eliminates "
        f"{stats.avg_eliminated:.6f} patterns on average, equal to "
        f"4 - (1 + 2**-0.5)**2 within 1e-12",
    )


def test_criterion_5_benchmark_audits():
    cases = [
        ("pbr", pbr_basis(Angle.from_two_theta_deg(45.0)), 45.0),
        ("eliminate-one", eliminate_one(Angle.from_two_theta_deg(30.0)), 30.0),
        (
            "ancilla-one",
            ancilla_eliminate_one(Angle.from_two_theta_deg(60.0)),
            60.0,
        ),
        ("eliminate-two", eliminate_two(Angle.from_two_theta_deg(60.0)), 60.0),
        ("usd", usd_qubit(Angle.from_two_theta_deg(45.0)), 45.0),
        ("local-usd", local_usd(Angle.from_two_theta_deg(45.0), 2), 45.0),
    ]
    audit_bad = [
        name
        for name, povm, deg in cases
        if not audit_bound(povm, Angle.from_two_theta_deg(deg)).ok
    ]

    sat_bad = []
    a45 = Angle.from_two_theta_deg(45.0)
    for n in (1, 2, 3, 4):
        rep = audit_bound(local_usd(a45, n), a45)
        if abs(rep.gap) > 1e-10:
            sat_bad.append(n)

    tight_bad = []
    for deg in np.linspace(5.0, 65.0, 13):
        a = Angle.from_two_theta_deg(float(deg))
        if a.overlap < 2**0.5 - 1:
            continue
        rep = audit_bound(eliminate_two(a), a)
        pair_rate = 2.0 * rep.params["per_k_prob"]["2"]
        if abs(pair_rate - (4.0 - (1.0 + a.overlap) ** 2)) > 1e-10:
            tight_bad.append(deg)

    ok = not audit_bad and not sat_bad and not tight_bad
    report(
        5,
        ok,
        "every scheme stays within the local elimination benchmark, the "
        "per-qubit strategy saturates it for n = 1..4, and pair exclusion "
        "meets the K = 2 cap with equality while the overlap exceeds "
        "sqrt(2) - 1"
        + ("" if ok else f"; failures: {audit_bad} {sat_bad} {tight_bad}"),
    )


def test_criterion_6_discrimination_gap():
    grid_bad = []
    for n in range(1, 7):
        gaps = [discrimination_gap(float(f), n) for f in np.linspace(0.0, 1.0, 101)]
        if min(gaps) < -1e-12:
            grid_bad.append(("negative", n))
        if n >= 2 and min(gaps[1:-1]) <= 1e-6:
            grid_bad.append(("interior", n))
        if abs(gaps[0]) > 1e-12 or abs(gaps[-1]) > 1e-12:
            grid_bad.append(("endpoint", n))
        if n == 1 and max(abs(g) for g in gaps) > 1e-12:
            grid_bad.append(("single-qubit", n))

    stat_bad = []
    for n in range(2, 7):
        f_star, g_star = discrimination_gap_max(n)
        lhs = (1.0 + f_star) ** (n - 1)
        rhs = (2**n - 1) * (1.0 - f_star) ** (n - 1)
        if abs(lhs - rhs) > 1e-8 * max(1.0, abs(rhs)):
            stat_bad.append(n)
        if abs(g_star - (2**n - 2.0 * (1.0 + f_star) ** (n - 1))) > 1e-8:
            stat_bad.append(n)

    ok = not grid_bad and not stat_bad
    report(
        6,
        ok,
        "the all-but-one exclusion advantage over discrimination is "
        "nonnegative everywhere, strictly positive inside (0, 1) for two or "
        "more qubits, zero at the endpoints and for one qubit, and its "
        "maximum satisfies the stationarity identity"
        + ("" if ok else f"; failures: {grid_bad} {stat_bad}"),
    )


def test_criterion_7_ancilla_construction(dilated_ancilla_effects):
    bad = []
    for deg in (45.0, 55.0, 65.0, 75.0, 90.0):
        a = Angle.from_two_theta_deg(deg)
        povm = ancilla_eliminate_one(a)
        rep = validate(povm, uniform_ensemble(a, 2), tol=TOL)
        if not rep.ok:
            bad.append(("validate", deg))
        fail_ops = [e.op for e in povm.effects if e.excludes.is_failure]
        if fail_ops and np.linalg.norm(fail_ops[0]) > 1e-10:
            bad.append(("fail-weight", deg))

    a45 = Angle.from_two_theta_deg(45.0)
    anc = {e.excludes.mask: e.op for e in ancilla_eliminate_one(a45).effects}
    for e in pbr_basis(a45).effects:
        if frob_dist(anc[e.excludes.mask], e.op) > 1e-10:
            bad.append(("pbr-match", e.excludes.mask))

    for deg in (50.0, 60.0, 75.0, 90.0):
        a = Angle.from_two_theta_deg(deg)
        lib = {e.excludes.mask: e.op for e in ancilla_eliminate_one(a).effects}
        for ref in dilated_ancilla_effects(a):
            for mask, op in ref.items():
                if mask not in lib or frob_dist(lib[mask], op) > 1e-10:
                    bad.append(("completion", deg, mask))

    report(
        7,
        not bad,
        "the coupling-unitary construction is unambiguous with negligible "
        "failure weight across 45..90 deg, reduces to the entangled basis "
        "at 45 deg, and matches a unitary dilation however it is completed"
        + ("" if not bad else f"; failures: {bad}"),
    )


def test_criterion_8_monte_carlo():
    shots = 10**6
    cases = [
        ("pbr", pbr_basis(Angle.from_two_theta_deg(45.0)), 45.0, 2),
        ("eliminate-two", eliminate_two(Angle.from_two_theta_deg(60.0)), 60.0, 2),
        ("local-usd", local_usd(Angle.from_two_theta_deg(45.0), 2), 45.0, 2),
    ]
    stat_bad = []
    repeat_bad = []
    worst_sigma = 0.0
    for name, povm, deg, n in cases:
        ens = uniform_ensemble(Angle.from_two_theta_deg(deg), n)
        sim = monte_carlo(povm, ens, shots=shots, seed=42)
        again = monte_carlo(povm, ens, shots=shots, seed=42)
        if sim.counts != again.counts:
            repeat_bad.append(name)
        for freq, p in zip(sim.freqs, sim.analytic):
            sigma = math.sqrt(max(p * (1.0 - p), 1e-300) / shots)
            if sigma > 0:
                worst_sigma = max(worst_sigma, abs(freq - p) / sigma)
        if any(
            abs(f - p) > 5.0 * math.sqrt(max(p * (1.0 - p), 0.0) / shots) + 1e-12
            for f, p in zip(sim.freqs, sim.analytic)
        ):
            stat_bad.append(name)

    ok = not stat_bad and not repeat_bad
    report(
        8,
        ok,
        f"one million sampled shots stay within five binomial deviations of "
        f"the analytic outcome distribution for three schemes (worst "
        f"{worst_sigma:.2f} sigma) and repeat runs are bitwise identical"
        + ("" if ok else f"; failures: {stat_bad} {repeat_bad}"),
    )


def test_criterion_9_overlap_law():
    worst = 0.0
    for n in (1, 2, 3, 4):
        a = Angle.from_two_theta_deg(55.0)
        pats = all_patterns(n)
        vecs = [product_state(a, p) for p in pats]
        for i, pi in enumerate(pats):
            for j, pj in enumerate(pats):
                got = (vecs[i] @ vecs[j]).real
                want = a.overlap ** pi.hamming(pj)
                worst = max(worst, abs(got - want))
    report(
        9,
        worst <= 1e-12,
        f"product-state overlaps follow cos(2t) raised to the Hamming "
        f"distance for up to four qubits (worst deviation {worst:.2e})",
    )

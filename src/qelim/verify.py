"""Numerical certificates for the closed forms, plus a sampling check.

The certify functions re-derive optimal rates over the measurement
families, blind to the closed forms they are judged against. Each
search is the maximum of a convex function over a small polytope, and
a convex function takes its maximum over a polytope at a vertex, so
the polytope's vertices are enumerated and the best one is the exact
optimum. Agreement to roundoff is evidence; an optimum beating a
closed form is a red flag the report surfaces as a failed verdict. A
blind grid search can be asked for as a further cross-check.

monte_carlo draws finite-shot outcome counts with a counter-based
generator. Shots are independent and only their counts are kept, so
the counts of a block are one multinomial draw over the ensemble-averaged
click distribution. Shots are partitioned into fixed blocks keyed by
(seed, block index), and block counts are summed, so the result is a
pure function of (povm, ensemble, shots, seed) no matter how the
blocks would be distributed over workers.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    eliminate_one_fail_prob,
    eliminate_two_fail_prob,
    local_avg_eliminated,
)
from .povm import DEFAULT_TOL, InvalidPovm, Povm, outcome_probabilities, validate
from .schemes import PAIR_THRESHOLD_OVERLAP, UnsupportedAngle
from .states import Angle, Ensemble, uniform_ensemble

BLOCK_SIZE = 1 << 16
# monte_carlo rounds its outcome distribution to multiples of 2**-40,
# so that roundoff in the click kernel cannot reach the draws.
_PBAR_GRID = 2.0 ** 40
# monte_carlo refuses more shots than this. A run at the cap makes
# 152,588 block draws, a few seconds; a mistyped count fails at once.
MAX_SHOTS = 10 ** 10

ORACLE_BEAT_TOL = 1e-12
ORACLE_MATCH_TOL = 1e-12
FEASIBLE_SLACK = 1e-12
BOUND_TOL = 1e-9


@dataclass
class CertReport:
    """One certified claim: a closed form against an independent number."""

    claim: str
    closed_form: float
    oracle: float
    gap: float
    params: dict = field(default_factory=dict)
    verdict: str = "fail"

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"


@dataclass
class SimReport:
    """Finite-shot outcome counts next to the analytic probabilities.

    chi2 is Pearson's statistic of the counts over the outcomes whose
    probability exceeds povm.DEFAULT_TOL, the tolerance below which
    validate calls a click probability zero, and dof is their number
    minus one.
    """

    shots: int
    seed: int
    labels: list
    counts: list
    freqs: list
    analytic: list
    max_abs_dev: float
    avg_eliminated: float
    chi2: float
    dof: int


# Every choice of k of m constraints, keyed by (m, k), for the two
# polytopes the certifiers search: certify_one's 8 caps in 3 unknowns
# and certify_two's 5 caps in 2.
_PICKS = {
    (m, k): np.array(list(itertools.combinations(range(m), k)))
    for m, k in ((8, 3), (5, 2))
}


def _vertices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vertices of the polytope {x : a @ x <= b}, one per row.

    Every choice of dim(x) constraints is solved as equalities in one
    batched solve. Choices with a zero determinant (parallel planes, or
    a constraint whose normal vanishes) meet in no single point and are
    dropped; of the rest, the points that satisfy every constraint
    within FEASIBLE_SLACK are the vertices.
    """
    picks = _PICKS[b.size, a.shape[1]]
    systems = a[picks]
    keep = np.linalg.det(systems) != 0.0
    points = np.linalg.solve(systems[keep], b[picks[keep]][..., None])[..., 0]
    return points[np.all(points @ a.T <= b + FEASIBLE_SLACK, axis=1)]


def _check_grid(grid_steps: int, rounds: int, rounds_name: str) -> None:
    """Reject grid settings that are negative or refine a grid that never runs."""
    if grid_steps < 0 or rounds < 0:
        raise ValueError(f"grid_steps and {rounds_name} must be nonnegative")
    if rounds > 0 and grid_steps == 0:
        raise ValueError(f"{rounds_name} > 0 needs grid_steps > 0, since no grid runs")


def certify_one(angle: Angle, grid_steps: int = 0, refine_iters: int = 0) -> CertReport:
    """Find the lowest failure rate in the sign-flip covariant rank-one family.

    The pattern-excluding vector has free amplitudes c = (c01, c10, c11)
    on |01>, |10>, |11>; the zero-error condition pins its |00>
    amplitude to c00 = -(c01 + c10) t - c11 t^2 with t = tan(theta), and
    the common weight is pushed to 1 / max_i c_i^2, the largest that
    keeps the effects below the identity. The success rate is then
    gain(c) / max_i c_i^2 with
    gain = C^2 c00^2 + S C (c01^2 + c10^2) + S^2 c11^2, where
    C = cos^2(theta) and S = sin^2(theta).
    The ratio does not change when c is scaled, so its maximum is the
    maximum of gain over the polytope where all four amplitudes lie in
    [-1, 1]. gain is a convex quadratic, and a convex function takes its
    maximum over a polytope at a vertex, so the best of the polytope's
    vertices is the exact optimum.

    With grid_steps > 0 a blind grid search over [-1, 1]^3, refined by
    refine_iters rounds of coordinate steps of halving size, runs as a
    cross-check: its failure rate goes into params["grid_oracle"], and
    the verdict fails if it beats the vertex optimum by more than
    ORACLE_BEAT_TOL. Negative settings, and refine_iters > 0 without a
    grid, raise ValueError.
    """
    _check_grid(grid_steps, refine_iters, "refine_iters")
    if not (0.0 <= angle.two_theta < math.pi / 4.0):
        raise UnsupportedAngle(
            "certification of single elimination needs 0 <= 2*theta < 45 deg"
        )
    t = math.tan(angle.theta)
    c2 = math.cos(angle.theta) ** 2
    s2 = math.sin(angle.theta) ** 2
    # maps (c01, c10, c11) to (c00, c01, c10, c11); the polytope is |pin @ c| <= 1
    pin = np.vstack([[-t, -t, -t * t], np.eye(3)])
    corners = _vertices(np.vstack([pin, -pin]), np.ones(8))
    gains = (corners @ pin.T) ** 2 @ np.array([c2 * c2, s2 * c2, s2 * c2, s2 * s2])
    k = int(np.argmax(gains))
    best_fail = 1.0 - float(gains[k])

    closed = eliminate_one_fail_prob(angle)
    gap = best_fail - closed
    ok = -ORACLE_BEAT_TOL <= gap <= ORACLE_MATCH_TOL
    params = {
        "grid_steps": grid_steps,
        "refine_iters": refine_iters,
        "amplitudes": [float(x) for x in corners[k]],
    }
    if grid_steps > 0:
        grid_fail = _grid_one(t, c2, s2, grid_steps, refine_iters)
        params["grid_oracle"] = grid_fail
        ok = ok and grid_fail >= best_fail - ORACLE_BEAT_TOL
    return CertReport(
        claim="single-pattern exclusion failure probability is optimal "
        "within the covariant rank-one family",
        closed_form=closed,
        oracle=best_fail,
        gap=gap,
        params=params,
        verdict="pass" if ok else "fail",
    )


def _grid_one(t: float, c2: float, s2: float, grid_steps: int, refine_iters: int) -> float:
    """Lowest failure rate of certify_one's family on a refined grid."""
    w00, w01, w11 = c2 * c2, s2 * c2, s2 * s2

    def fail_of(c01, c10, c11):
        c00 = -(c01 + c10) * t - c11 * t * t
        sq00, sq01, sq10, sq11 = c00 * c00, c01 * c01, c10 * c10, c11 * c11
        top = np.maximum(np.maximum(sq00, sq01), np.maximum(sq10, sq11))
        gain = sq00 * w00 + (sq01 + sq10) * w01 + sq11 * w11
        with np.errstate(invalid="ignore", divide="ignore"):
            out = 1.0 - np.where(top > 0.0, gain / top, 0.0)
        return out

    axis = np.linspace(-1.0, 1.0, grid_steps)
    g01, g10, g11 = np.meshgrid(axis, axis, axis, indexing="ij")
    fails = fail_of(g01, g10, g11)
    flat = int(np.argmin(fails))
    best = np.array(
        [g01.ravel()[flat], g10.ravel()[flat], g11.ravel()[flat]], dtype=float
    )
    best_fail = float(fails.ravel()[flat])

    step = float(axis[1] - axis[0]) if grid_steps > 1 else 1.0
    for _ in range(refine_iters):
        for k in range(3):
            for delta in (step, -step):
                trial = best.copy()
                trial[k] = min(1.0, max(-1.0, trial[k] + delta))
                f = float(fail_of(*trial))
                if f < best_fail:
                    best_fail = f
                    best = trial
        step /= 2.0
    return best_fail


def certify_two(angle: Angle, grid_steps: int = 0, zoom_rounds: int = 0) -> CertReport:
    """Find the highest pair-exclusion success rate over the weight polytope.

    The three weights obey three linear caps. For fixed (gamma, beta)
    the correlated-pair weight alpha is pushed to its own cap,
    max(0, (1 - 2 gamma cos^2(theta)) / 2), which leaves a success rate
    that is the larger of two affine functions of (gamma, beta), so convex. Its
    maximum over the polygon 0 <= gamma <= gamma_hi, 0 <= beta <= beta_hi,
    4 sin^2(theta) gamma + 2 sin^4(theta) beta <= 1 therefore sits at a
    vertex, and the best vertex is the exact optimum. The kink
    gamma = 1 / (2 cos^2(theta)) of alpha's cap needs no points of its
    own: a convex maximum is found among the polygon's vertices, and the
    kink lies at or beyond gamma_hi.

    With grid_steps > 0 a blind grid search over the same polygon,
    re-centered and shrunk over zoom_rounds rounds, runs as a
    cross-check: its success rate goes into params["grid_oracle"], and
    the verdict fails if it beats the vertex optimum by more than
    ORACLE_BEAT_TOL. Negative settings, and zoom_rounds > 0 without a
    grid, raise ValueError.
    """
    _check_grid(grid_steps, zoom_rounds, "zoom_rounds")
    if angle.theta <= 0.0:
        raise UnsupportedAngle(
            "certification of pair elimination needs 0 < 2*theta <= 90 deg"
        )
    s2 = math.sin(angle.theta) ** 2
    c2 = math.cos(angle.theta) ** 2
    gamma_hi = min(1.0 / (4.0 * s2), 1.0 / (2.0 * c2))
    beta_hi = 1.0 / (2.0 * c2 * c2)
    caps = np.array(
        [[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [4.0 * s2, 2.0 * s2 * s2]]
    )
    gamma, beta = _vertices(caps, np.array([0.0, gamma_hi, 0.0, beta_hi, 1.0])).T
    succ = _pair_success(gamma, beta, s2, c2)
    k = int(np.argmax(succ))
    best_succ = float(succ[k])

    closed = 1.0 - eliminate_two_fail_prob(angle)
    gap = best_succ - closed
    ok = abs(gap) <= ORACLE_MATCH_TOL and gap <= BOUND_TOL
    params = {
        "grid_steps": grid_steps,
        "zoom_rounds": zoom_rounds,
        "gamma": float(gamma[k]),
        "beta": float(beta[k]),
    }
    if grid_steps > 0:
        grid_succ = _grid_two(s2, c2, gamma_hi, beta_hi, grid_steps, zoom_rounds)
        params["grid_oracle"] = grid_succ
        ok = ok and grid_succ <= best_succ + ORACLE_BEAT_TOL
    claim = "pair-exclusion weights achieve the closed-form success probability"
    if angle.overlap > PAIR_THRESHOLD_OVERLAP:
        claim += " (conjecture-consistent)"
    return CertReport(
        claim=claim,
        closed_form=closed,
        oracle=best_succ,
        gap=gap,
        params=params,
        verdict="pass" if ok else "fail",
    )


def _pair_success(gamma, beta, s2: float, c2: float):
    """certify_two's success rate, with alpha pushed to its cap."""
    alpha = np.clip((1.0 - 2.0 * gamma * c2) / 2.0, 0.0, None)
    return (
        8.0 * gamma * s2 * c2 * c2
        + alpha * (4.0 * s2 * c2)
        + 4.0 * beta * s2 * s2 * c2 * c2
    )


def _grid_two(
    s2: float, c2: float, gamma_hi: float, beta_hi: float, grid_steps: int, zoom_rounds: int
) -> float:
    """Highest success rate of certify_two's polygon on a zooming grid.

    A grid point must meet the cap exactly: with FEASIBLE_SLACK it could
    sit just outside the polygon and report a success rate above 1.
    """

    def success_of(gamma, beta):
        feasible = 2.0 * beta * s2 * s2 + 4.0 * gamma * s2 <= 1.0
        return np.where(feasible, _pair_success(gamma, beta, s2, c2), -np.inf)

    g_lo, g_hi = 0.0, gamma_hi
    b_lo, b_hi = 0.0, beta_hi
    best_succ = -np.inf
    best = (0.0, 0.0)
    for _ in range(zoom_rounds):
        gs = np.linspace(g_lo, g_hi, grid_steps)
        bs = np.linspace(b_lo, b_hi, grid_steps)
        gg, bb = np.meshgrid(gs, bs, indexing="ij")
        succ = success_of(gg, bb)
        flat = int(np.argmax(succ))
        if float(succ.ravel()[flat]) > best_succ:
            best_succ = float(succ.ravel()[flat])
            best = (float(gg.ravel()[flat]), float(bb.ravel()[flat]))
        g_step = gs[1] - gs[0] if grid_steps > 1 else g_hi
        b_step = bs[1] - bs[0] if grid_steps > 1 else b_hi
        g_lo = max(0.0, best[0] - 2.0 * g_step)
        g_hi = min(gamma_hi, best[0] + 2.0 * g_step)
        b_lo = max(0.0, best[1] - 2.0 * b_step)
        b_hi = min(beta_hi, best[1] + 2.0 * b_step)
    return best_succ


def audit_bound(povm: Povm, angle: Angle, tol: float = BOUND_TOL) -> CertReport:
    """Check a POVM against the local elimination benchmark.

    Validates the POVM on the uniform ensemble first, then checks the
    average excluded count and, for every exclusion size K present, the
    cap K * p(exclude K) against 2^n - (1 + cos 2t)^n.
    """
    n = povm.n
    ensemble = uniform_ensemble(angle, n)
    report = validate(povm, ensemble)
    if not report.ok:
        raise InvalidPovm("; ".join(report.violations))
    stats = outcome_probabilities(povm, ensemble)
    bound = local_avg_eliminated(angle, n)

    per_k: dict[int, float] = {}
    for e, p in zip(povm.effects, stats.probs):
        k = e.excludes.size
        if k:
            per_k[k] = per_k.get(k, 0.0) + float(p)
    ok = stats.avg_eliminated <= bound + tol
    worst = -np.inf
    for k, p in sorted(per_k.items()):
        excess = k * p - bound
        worst = max(worst, excess)
        if excess > tol:
            ok = False
    return CertReport(
        claim="average excluded count within the local benchmark",
        closed_form=bound,
        oracle=stats.avg_eliminated,
        gap=bound - stats.avg_eliminated,
        params={
            "n": n,
            "two_theta_deg": angle.two_theta_deg,
            "per_k_prob": {str(k): p for k, p in sorted(per_k.items())},
            "worst_cap_excess": float(worst) if per_k else 0.0,
        },
        verdict="pass" if ok else "fail",
    )


def _block_state(seed: int, block: int) -> dict:
    """The state of a fresh Philox keyed by (seed, block): counter 0, empty buffer.

    The key words are the exact 64-bit values seed mod 2**64 and block,
    built as uint64 directly: a key list goes through numpy's default
    integer type, which turns a word at or above 2**63 into a float
    and drops its low bits. A numpy integer seed is taken as the Python
    integer it holds, since masking an int64 with 2**64 - 1 overflows.
    Setting the state on an existing Philox gives the draws of a fresh
    Philox with that key without building a bit generator, whose
    constructor also draws an OS-entropy seed that the key discards.
    """
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([operator.index(seed) & (2 ** 64 - 1), block], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def monte_carlo(povm: Povm, ensemble: Ensemble, shots: int, seed: int) -> SimReport:
    """Sample outcome counts of preparation-then-measurement shots, reproducibly.

    Drawing a state from the priors and then an outcome from its click
    distribution gives each shot the outcome distribution
    pbar = priors @ clicks, so the counts are Multinomial(shots, pbar).
    Each block of BLOCK_SIZE shots takes one multinomial draw from the
    generator keyed by (seed mod 2**64, block index), which costs
    O(outcomes) rather than O(shots); one Philox serves every block,
    re-keyed before each. Results are bitwise reproducible for fixed
    (povm, ensemble, shots, seed). shots above MAX_SHOTS are refused.

    pbar is rounded to multiples of 2**-40 and renormalised before the
    draws. numpy draws a multinomial as a chain of binomials, so at an
    exact tie a roundoff change in pbar would swap two counts; on the
    grid, probabilities that differ only by roundoff (a real against a
    complex kernel, one BLAS against another) have identical bits and
    ties stay exact. A probability within roundoff of a grid midpoint
    can still round either way, with odds of about |dp| * 2**40 (near
    1e-4 for dp ~ 1e-16). The rounding biases each outcome by about
    2**-41, and outcomes below 2**-41 never click; those lie far under
    DEFAULT_TOL, which chi2 already skips.
    """
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be at most {MAX_SHOTS}, got {shots}")
    shots = int(shots)
    report = validate(povm, ensemble)
    if not report.ok:
        raise InvalidPovm("; ".join(report.violations))

    stats = outcome_probabilities(povm, ensemble)
    grid = np.rint(np.clip(stats.probs, 0.0, None) * _PBAR_GRID)
    pbar = grid / grid.sum()
    counts = np.zeros(pbar.size, dtype=np.int64)
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    for block, start in enumerate(range(0, shots, BLOCK_SIZE)):
        bits.state = _block_state(seed, block)
        counts += rng.multinomial(min(BLOCK_SIZE, shots - start), pbar)

    freqs = counts / shots
    sizes = np.array([e.excludes.size for e in povm.effects], dtype=float)
    live = pbar > DEFAULT_TOL
    expected = shots * pbar[live]
    return SimReport(
        shots=shots,
        seed=seed,
        labels=list(povm.labels),
        counts=[int(c) for c in counts],
        freqs=[float(f) for f in freqs],
        analytic=[float(p) for p in stats.probs],
        max_abs_dev=float(np.max(np.abs(freqs - stats.probs))),
        avg_eliminated=float(np.dot(freqs, sizes)),
        chi2=float(np.sum((counts[live] - expected) ** 2 / expected)),
        dof=int(np.count_nonzero(live)) - 1,
    )

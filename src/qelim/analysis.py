"""Closed-form success rates, bounds and gaps for elimination schemes.

Everything here is a formula; the matching constructions live in
schemes and the numerical cross-checks in verify. Angles follow the
states module (half angle t, pair overlap cos 2t). Several functions
take the overlap itself, since that is the natural variable for the
local-versus-collective comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .schemes import PAIR_THRESHOLD_OVERLAP
from .states import Angle


def eliminate_one_fail_prob(angle: Angle) -> float:
    """Failure probability of single-pattern exclusion on two qubits.

    (cos 2t - sin 2t)(1 + sin 2t), clamped at zero; it vanishes for
    2t >= 45 deg where the conclusive basis takes over.
    """
    c, s = math.cos(angle.two_theta), math.sin(angle.two_theta)
    return max(0.0, (c - s) * (1.0 + s))


def eliminate_two_fail_prob(angle: Angle) -> float:
    """Failure probability of pair exclusion: max(0, 2 cos^4 t - 1)."""
    return max(0.0, 2.0 * math.cos(angle.theta) ** 4 - 1.0)


def pair_threshold() -> float:
    """The angle 2t (radians) above which pair exclusion never fails."""
    return math.acos(PAIR_THRESHOLD_OVERLAP)


def eliminate_two_outcome_probs(angle: Angle) -> dict[str, float]:
    """Uniform-ensemble outcome probabilities of the pair-exclusion POVM.

    Keys match the effect labels of schemes.eliminate_two. Below the
    deterministic threshold the four one-qubit pairs carry cos(2t)/2
    each; above it they carry sin^2 t cos^2 t and a failure outcome
    appears.
    """
    c = angle.overlap
    if c <= PAIR_THRESHOLD_OVERLAP:
        single = c / 2.0
        corr = 0.5 - c
        fail = 0.0
    else:
        s2 = math.sin(angle.theta) ** 2
        c2 = math.cos(angle.theta) ** 2
        single = s2 * c2
        corr = s2 * s2
        fail = 2.0 * c2 * c2 - 1.0
    probs = {
        "not(++,+-)": single,
        "not(++,-+)": single,
        "not(+-,--)": single,
        "not(-+,--)": single,
        "not(+-,-+)": corr,
        "not(++,--)": corr,
    }
    if fail > 0.0:
        probs["fail"] = fail
    return probs


def usd_success_prob(angle: Angle) -> float:
    """Per-qubit probability that unambiguous discrimination concludes."""
    return 1.0 - angle.overlap


def local_avg_eliminated(angle: Angle, n: int) -> float:
    """Mean states excluded by per-qubit discrimination: 2^n - (1 + cos 2t)^n."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return 2.0 ** n - (1.0 + angle.overlap) ** n


@dataclass
class BoundReport:
    """The local elimination benchmark at one angle and qubit count.

    bound caps the expected number of excluded patterns of any
    unambiguous measurement built from per-qubit discrimination, and
    bound / K caps the probability of excluding K patterns at once.
    """

    n: int
    overlap: float
    bound: float
    per_k_caps: list

    def cap(self, k: int) -> float:
        if not 1 <= k <= 2**self.n - 1:
            raise ValueError(
                "k must lie in 1..%d, got %d" % (2**self.n - 1, k)
            )
        return self.bound / k


MAX_BOUND_QUBITS = 16


def elimination_bound(angle: Angle, n: int) -> BoundReport:
    """Bound 2^n - (1 + cos 2t)^n with its per-K corollaries.

    The report lists all 2^n - 1 caps, so n is limited to
    MAX_BOUND_QUBITS: at 16 qubits the list already holds 65,535 caps.
    """
    if n > MAX_BOUND_QUBITS:
        raise ValueError(
            f"the bound lists all 2^n - 1 per-K caps and supports up to "
            f"{MAX_BOUND_QUBITS} qubits, got {n}"
        )
    bound = local_avg_eliminated(angle, n)
    caps = [(k, bound / k) for k in range(1, 2 ** n)]
    return BoundReport(n=n, overlap=angle.overlap, bound=bound, per_k_caps=caps)


def discrimination_gap(overlap: float, n: int) -> float:
    """How far all-at-once exclusion of 2^n - 1 patterns falls short.

    g = 2^n - (1 + f)^n - (2^n - 1)(1 - f)^n at per-qubit failure rate
    f = overlap: the local average minus what full identification at the
    per-qubit success rate would deliver. Nonnegative on [0, 1], zero
    only at the endpoints and for n = 1.
    """
    if not (0.0 <= overlap <= 1.0):
        raise ValueError(f"overlap must lie in [0, 1], got {overlap!r}")
    if n < 1:
        raise ValueError("need at least one qubit")
    return 2.0 ** n - (1.0 + overlap) ** n - (2.0 ** n - 1.0) * (1.0 - overlap) ** n


def discrimination_gap_max(n: int) -> tuple[float, float]:
    """Interior maximum of discrimination_gap in the overlap, in closed form.

    The derivative vanishes once on (0, 1), where
    (1 + f*)^(n-1) = (2^n - 1)(1 - f*)^(n-1). With r = (2^n - 1)^(1/(n-1))
    that is (1 + f*) / (1 - f*) = r, so f* = (r - 1) / (r + 1), and the
    gap there equals 2^n - 2 (1 + f*)^(n-1).
    """
    if n < 2:
        raise ValueError("the gap is identically zero for n = 1")
    r = (2.0 ** n - 1.0) ** (1.0 / (n - 1))
    f = (r - 1.0) / (r + 1.0)
    return f, 2.0 ** n - 2.0 * (1.0 + f) ** (n - 1)

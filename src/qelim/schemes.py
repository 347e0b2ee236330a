"""Measurement constructions that exclude preparations without error.

Six schemes for qubits drawn from the pair |+t>, |-t>:

* pbr_basis: the orthonormal conclusive basis, two qubits, 2t = 45 deg.
* eliminate_one: rules out one of the four sign patterns, 2t < 45 deg.
* ancilla_eliminate_one: couples each qubit to an ancilla and reduces
  to the 45 degree basis, covering 45 deg <= 2t <= 90 deg.
* eliminate_two: rules out a pair of patterns, succeeding always once
  cos(2t) <= sqrt(2) - 1.
* usd_qubit / local_usd: unambiguous discrimination per qubit, the
  local benchmark the collective schemes are measured against.

tensor() measures several schemes side by side on consecutive qubit
blocks; local_usd is the n-fold tensor power of usd_qubit.

Sign-flip covariance is the organising symmetry: conjugating by
U = diag(1, -1) on a qubit swaps |+t> and |-t|, and symmetrize()
averages any two-qubit eliminate-one measurement over that group.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import kron, projector
from .povm import Effect, ExclusionSet, Povm
from .states import Angle, SignPattern, orth_state, qubit_state

# cos(2t) at and below which pair elimination succeeds deterministically
PAIR_THRESHOLD_OVERLAP = math.sqrt(2.0) - 1.0

_PBR_OVERLAP_TOL = 1e-9

_E0 = np.array([1.0, 0.0])
_E1 = np.array([0.0, 1.0])
_SIGN_FLIP = np.diag([1.0, -1.0])
_EYE2 = np.eye(2)
# The two-qubit sign flips, indexed by the pattern bits each toggles.
_SIGN_FLIPS = np.stack(
    [
        np.eye(4),
        kron(_SIGN_FLIP, _EYE2),
        kron(_EYE2, _SIGN_FLIP),
        kron(_SIGN_FLIP, _SIGN_FLIP),
    ]
)
# Exclusion set and label of the outcome that rules out two-qubit
# pattern b, for b = 0..3.
_SINGLES = tuple((ExclusionSet(2, 1 << b), f"not({SignPattern(2, b)})") for b in range(4))


class UnsupportedAngle(ValueError):
    """The requested angle lies outside the scheme's domain."""


class DegenerateAngle(ValueError):
    """The two states coincide, so the construction is ill-defined."""


class BadLabels(ValueError):
    """Effects do not carry the exclusion sets the operation needs."""


class TooManyQubits(ValueError):
    """Qubit count exceeds the supported range."""


def pbr_basis(angle: Angle, zero_plus: bool = False) -> Povm:
    """Orthonormal two-qubit basis excluding one sign pattern per click.

    Exists only at 2t = 45 deg. For each pattern (a, b) the basis vector
    (|a, b_perp> + |a_perp, b>) / sqrt(2) is orthogonal to |a, b> and to
    the other three basis vectors. With zero_plus=True the construction
    is expressed for the pair {|0>, |+>} instead of the symmetric pair;
    the two versions differ by a single-qubit rotation.
    """
    if abs(angle.overlap - 2.0 ** -0.5) > _PBR_OVERLAP_TOL:
        raise UnsupportedAngle(
            f"conclusive basis needs 2*theta = 45 deg, got {angle.two_theta_deg!r} deg"
        )
    if zero_plus:
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
        pair = (_E0, plus)
        perp = (_E1, minus)
    else:
        pair = (qubit_state(angle, +1), qubit_state(angle, -1))
        perp = (orth_state(angle, +1), orth_state(angle, -1))

    effects = []
    for bits in range(4):
        i, j = bits & 1, (bits >> 1) & 1
        vec = (kron(pair[i], perp[j]) + kron(perp[i], pair[j])) / math.sqrt(2.0)
        effects.append(Effect(projector(vec), *_SINGLES[bits]))
    return Povm(tuple(effects))


def eliminate_one(angle: Angle) -> Povm:
    """Exclude a single sign pattern of two qubits, 0 <= 2t < 45 deg.

    One rank-one effect per pattern, all four related by sign flips, plus
    a failure effect proportional to |00><00|. The amplitudes
    (tan(t)(1 + tan(t)/2), -1/2, -1/2, -1/2) make each effect orthogonal
    to its target pattern and the failure weight is what the sum rule
    leaves over; the weight reaches zero exactly at 2t = 45 deg.
    """
    if not (0.0 <= angle.two_theta < math.pi / 4.0):
        raise UnsupportedAngle(
            f"single elimination needs 0 <= 2*theta < 45 deg, got "
            f"{angle.two_theta_deg!r} deg; the ancilla construction covers "
            f"45 to 90 deg"
        )
    t = math.tan(angle.theta)
    base = np.array([t * (1.0 + 0.5 * t), -0.5, -0.5, -0.5])

    # sign flip b maps the effect that excludes ++ to the one that
    # excludes pattern b; the flip's diagonal holds its signs
    effects = [
        Effect(projector(base * signs), *_SINGLES[flip])
        for flip, signs in enumerate(np.diagonal(_SIGN_FLIPS, axis1=1, axis2=2))
    ]
    fail_coef = 1.0 - t * t * (2.0 + t) ** 2
    fail_op = np.zeros((4, 4))
    fail_op[0, 0] = fail_coef
    effects.append(Effect(fail_op, ExclusionSet(2, 0), "fail"))
    return Povm(tuple(effects))


# The 45 degree pair and its conclusive basis, which every
# ancilla_eliminate_one call measures; built once, at import.
_HALF = Angle(math.pi / 8.0)
_HALF_BASIS = pbr_basis(_HALF)
_HALF_OPS = np.stack([e.op for e in _HALF_BASIS.effects])


def ancilla_eliminate_one(angle: Angle) -> Povm:
    """Deterministic single-pattern exclusion for 45 deg <= 2t <= 90 deg.

    Each qubit is coupled to a fresh |0> ancilla by the isometry
    W = Y X^-1, X = [|+t>, |-t>], Y = [|+22.5 deg>|phi_+>, |-22.5 deg>|phi_->],
    which maps the pair down to the 45 degree pair; the conclusive basis
    is measured on the two system wires and the ancillas are discarded.
    The ancilla states phi_+- = cos(mu)|0> +- sin(mu)|1> absorb the
    excess overlap: cos(2mu) = sqrt(2) cos(2t) keeps the inner product at
    cos(2t), so W is an isometry. With K_a = <a|W on each qubit, every
    effect is sum_ab (K_a x K_b)^dag E (K_a x K_b) for a conclusive-basis E.
    """
    if angle.theta == 0.0:
        raise DegenerateAngle("theta = 0 leaves nothing to couple to")
    if not (math.pi / 8.0 - 1e-12 <= angle.theta <= math.pi / 4.0 + 1e-12):
        raise UnsupportedAngle(
            f"ancilla construction needs 45 <= 2*theta <= 90 deg, got "
            f"{angle.two_theta_deg!r} deg; eliminate_one covers 0 to 45 deg"
        )
    mu = 0.5 * math.acos(min(1.0, math.sqrt(2.0) * angle.overlap))
    phi = {s: np.array([math.cos(mu), s * math.sin(mu)]) for s in (+1, -1)}
    y = np.stack([kron(qubit_state(_HALF, s), phi[s]) for s in (+1, -1)], axis=1)
    cos_t, sin_t = math.cos(angle.theta), math.sin(angle.theta)
    # inverse of X = [[cos_t, cos_t], [sin_t, -sin_t]]
    x_inv = np.array([[sin_t, cos_t], [sin_t, -cos_t]]) / (2.0 * sin_t * cos_t)
    w = y @ x_inv  # rows ordered (system, ancilla)
    kraus = np.stack([kron(w[a::2], w[b::2]) for a in (0, 1) for b in (0, 1)])

    # pulled[i, k] is conclusive-basis effect i pulled back through Kraus
    # operator k, all sixteen in one batched product
    pulled = kraus.conj().transpose(0, 2, 1) @ _HALF_OPS[:, None] @ kraus
    ops = sum(pulled[:, k] for k in range(len(kraus)))
    ops = (ops + ops.conj().transpose(0, 2, 1)) / 2.0
    effects = []
    total = np.zeros_like(ops[0])
    for op, eff in zip(ops, _HALF_BASIS.effects):
        total += op
        effects.append(Effect(op, eff.excludes, eff.label))
    fail_op = np.eye(4) - total
    fail_op = (fail_op + fail_op.conj().T) / 2.0
    effects.append(Effect(fail_op, ExclusionSet(2, 0), "fail"))
    return Povm(tuple(effects))


# eliminate_two's six informative outcomes, in effect order: the
# pattern pair each excludes, and its label.
_PAIR_OUTCOMES = tuple(
    (ExclusionSet.of(2, *pats), f"not({','.join(pats)})")
    for pats in (
        ("++", "+-"),
        ("++", "-+"),
        ("+-", "--"),
        ("-+", "--"),
        ("+-", "-+"),
        ("++", "--"),
    )
)


def eliminate_two(angle: Angle) -> Povm:
    """Exclude one of the six pattern pairs of two qubits, 0 < 2t <= 90 deg.

    Four rank-one effects handle the single-qubit pairs (first or second
    qubit pinned to one sign) and two rank-two effects handle the
    correlated pairs (equal or different signs). Once the overlap
    cos(2t) drops to sqrt(2) - 1 or below, the weights can be chosen so
    that no failure outcome is needed.
    """
    if angle.theta <= 0.0:
        raise UnsupportedAngle("pair elimination needs 0 < 2*theta <= 90 deg")
    s2 = math.sin(angle.theta) ** 2
    c2 = math.cos(angle.theta) ** 2
    beta = 1.0 / (2.0 * c2 * c2)
    deterministic = angle.overlap <= PAIR_THRESHOLD_OVERLAP
    if deterministic:
        gamma = (1.0 - (s2 / c2) ** 2) / (4.0 * s2)
        alpha = 0.5 - gamma * c2
    else:
        gamma = 1.0 / (2.0 * c2)
        alpha = 0.0

    first_plus = kron(orth_state(angle, +1), _E0)
    second_plus = kron(_E0, orth_state(angle, +1))
    second_minus = kron(_E0, orth_state(angle, -1))
    first_minus = kron(orth_state(angle, -1), _E0)
    psi_p01 = np.array([0.0, 1.0, 1.0, 0.0])
    psi_m01 = np.array([0.0, 1.0, -1.0, 0.0])
    psi_pcs = np.array([s2, 0.0, 0.0, c2])
    psi_mcs = np.array([s2, 0.0, 0.0, -c2])

    ops = (
        gamma * projector(first_plus),
        gamma * projector(second_plus),
        gamma * projector(second_minus),
        gamma * projector(first_minus),
        alpha * projector(psi_p01) + beta * projector(psi_pcs),
        alpha * projector(psi_m01) + beta * projector(psi_mcs),
    )
    effects = [Effect(op, excl, label) for op, (excl, label) in zip(ops, _PAIR_OUTCOMES)]
    if not deterministic:
        fail_op = np.zeros((4, 4))
        fail_op[0, 0] = 2.0 - (1.0 + s2 / c2) ** 2
        effects.append(Effect(fail_op, ExclusionSet(2, 0), "fail"))
    return Povm(tuple(effects))


def usd_qubit(angle: Angle) -> Povm:
    """Unambiguous discrimination of |+t> vs |-t> at the known optimum.

    The identifying effects are weighted projectors onto the state
    orthogonal to the rival, with weight 1/(1 + cos 2t), giving success
    probability 1 - cos(2t) on either input.
    """
    w = 1.0 / (1.0 + angle.overlap)
    id_plus = w * projector(orth_state(angle, -1))
    id_minus = w * projector(orth_state(angle, +1))
    fail = np.eye(2) - id_plus - id_minus
    fail = (fail + fail.conj().T) / 2.0
    return Povm(
        (
            Effect(id_plus, ExclusionSet.of(1, "-"), "id(+)"),
            Effect(id_minus, ExclusionSet.of(1, "+"), "id(-)"),
            Effect(fail, ExclusionSet(1, 0), "fail"),
        )
    )


def tensor(*povms: Povm) -> Povm:
    """Product measurement on consecutive qubit blocks, leftmost factor first.

    A product outcome takes one outcome per factor, the first factor
    varying slowest. Its operator is the Kronecker product of theirs
    (leftmost factor most significant), its label joins theirs, and it
    excludes every pattern outside the product of their consistent sets.

    The operators come from Povm.product, which keeps them factored:
    the product of every factor but the last, beside the last factor's
    operators. Every operator is formed from single products a * b, in
    the same left-to-right order as a chain of kron calls, so it is
    bit-identical to that chain over the factors' operators. The dtype
    follows the factors: float64 when all are real, as every scheme is
    at a real angle, and complex128 once any factor is complex.
    """
    if not povms:
        raise ValueError("tensor needs at least one POVM")
    first, *rest = povms
    labels = [e.label for e in first.effects]
    keeps = [_full_mask(first.n) ^ e.excludes.mask for e in first.effects]
    width = first.n
    for factor in rest:
        f_keeps = [_full_mask(factor.n) ^ e.excludes.mask for e in factor.effects]
        keeps = [_place(keep, f_keep, width) for keep in keeps for f_keep in f_keeps]
        labels = [label + e.label for label in labels for e in factor.effects]
        width += factor.n
    return Povm.product(
        [np.stack([e.op for e in povm.effects]) for povm in povms],
        [ExclusionSet(width, _full_mask(width) ^ keep) for keep in keeps],
        labels,
    )


def _place(keep: int, f_keep: int, width: int) -> int:
    """Consistent set of a widened outcome.

    keep is the consistent set of the first width qubits and f_keep that
    of the next factor; each pattern p in f_keep places a copy of keep
    at offset p << width.
    """
    joint = 0
    for p in range(f_keep.bit_length()):
        if (f_keep >> p) & 1:
            joint |= keep << (p << width)
    return joint


def _full_mask(n: int) -> int:
    return (1 << (1 << n)) - 1


MAX_LOCAL_QUBITS = 6


def local_usd(angle: Angle, n: int) -> Povm:
    """Independent per-qubit discrimination on n qubits.

    The n-fold tensor power of usd_qubit: each qubit yields +, - or
    failure, and an outcome identifying k qubits excludes the
    2**n - 2**(n-k) patterns that contradict any of them. The label
    records the per-qubit results, leftmost qubit first.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    if n > MAX_LOCAL_QUBITS:
        raise TooManyQubits(f"local discrimination supports up to {MAX_LOCAL_QUBITS} qubits")
    single = Povm(
        tuple(Effect(e.op, e.excludes, ch) for e, ch in zip(usd_qubit(angle).effects, "+-f"))
    )
    return tensor(*[single] * n)


def symmetrize(povm: Povm) -> Povm:
    """Average a two-qubit eliminate-one POVM over the sign-flip group.

    The input must carry the four singleton exclusion sets, plus
    optionally failure effects. Each output effect is the group average
    that pairs conjugation by a sign flip with the correspondingly
    flipped target pattern, so the result is covariant, idempotent under
    repeated symmetrization, and has a diagonal failure effect. Failure
    probability on the uniform ensemble is unchanged.
    """
    if povm.n != 2:
        raise BadLabels("symmetrization is defined for two-qubit POVMs")
    # float64 zeros: every sum below takes the effects' dtype by promotion
    singles: dict[int, np.ndarray] = {}
    fail = np.zeros((4, 4))
    has_fail = False
    for e in povm.effects:
        if e.excludes.is_failure:
            fail = fail + e.op
            has_fail = True
        elif e.excludes.size == 1:
            bits = e.excludes.patterns()[0].bits
            singles[bits] = singles.get(bits, np.zeros((4, 4))) + e.op
        else:
            raise BadLabels(f"unexpected exclusion set {e.excludes}")
    if sorted(singles) != [0, 1, 2, 3]:
        raise BadLabels("need one effect per single pattern (plus optional failure)")

    # terms[t, f] conjugates the effect for pattern t ^ f by flip f, all
    # in one batched product; a fifth row does the same for the failure
    rows = [[singles[t ^ f] for f in range(4)] for t in range(4)]
    if has_fail:
        rows.append([fail] * 4)
    terms = _SIGN_FLIPS @ np.array(rows) @ _SIGN_FLIPS
    ops = np.zeros((len(rows), 4, 4))
    for f in range(4):
        ops = ops + terms[:, f]
    ops = ops / 4.0
    effects = [Effect(op, excl, label) for op, (excl, label) in zip(ops, _SINGLES)]
    if has_fail:
        effects.append(Effect(ops[4], ExclusionSet(2, 0), "fail"))
    return Povm(tuple(effects))

"""POVMs whose outcomes rule states out rather than identify them.

An Effect couples a positive operator with the set of sign patterns
its click excludes with certainty. The failure outcome is nothing
special: an ordinary effect whose exclusion set is empty.

A product POVM, as schemes.tensor builds, keeps its operators factored:
the product of every factor but the last, formed once, beside the last
factor's operators. Its operators are formed from the two only when
read, a few rows at a time, so they never exist all at once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import DimensionMismatch, NotHermitian, eig_hermitian, frob_dist
from .states import Ensemble, SignPattern

DEFAULT_TOL = 1e-10
# Operator entries per stack of Povm._stacks: 2**16 entries are 16
# effects at n = 6, 512 KB of float64 or 1 MB of complex128 operators,
# so the working memory stays bounded whatever n is. Smaller stacks
# cost a product POVM more widening calls: one _clicks pass over
# local_usd at n = 6 took 19.6 ms with 2**14 entries, 15.1 ms with
# 2**15 and 13.2 ms with 2**16, against 13.0 ms for the dense
# operators (one BLAS thread); 2**17 gained nothing more.
_STACK_ENTRIES = 1 << 16


class InvalidPovm(ValueError):
    """A POVM failed validation where a valid one is required."""


@dataclass(frozen=True)
class ExclusionSet:
    """Subset of the 2**n sign patterns, packed as a bitmask.

    Bit p of mask refers to the pattern whose SignPattern.bits value is
    p, which is also its index in a uniform ensemble. mask == 0 marks
    the failure outcome (nothing excluded).
    """

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        if not (0 <= self.mask < (1 << (1 << self.n))):
            raise ValueError(f"mask {self.mask} out of range for n={self.n}")

    @classmethod
    def of(cls, n: int, *patterns: str) -> "ExclusionSet":
        """Build from '+-' style pattern strings."""
        mask = 0
        for s in patterns:
            p = SignPattern.from_string(s)
            if p.n != n:
                raise ValueError(f"pattern {s!r} is not on {n} qubits")
            mask |= 1 << p.bits
        return cls(n, mask)

    @property
    def size(self) -> int:
        """Number of patterns excluded."""
        return bin(self.mask).count("1")

    @property
    def is_failure(self) -> bool:
        return self.mask == 0

    def patterns(self) -> list[SignPattern]:
        return [SignPattern(self.n, b) for b in range(1 << self.n) if (self.mask >> b) & 1]

    def __str__(self) -> str:
        return "{" + ",".join(str(p) for p in self.patterns()) + "}"


@dataclass(frozen=True)
class Effect:
    """One measurement operator plus the patterns its outcome excludes."""

    op: np.ndarray
    excludes: ExclusionSet
    label: str = ""


def _widen(ops: np.ndarray, f_ops: np.ndarray) -> np.ndarray:
    """Kronecker product of every operator of ops with every one of f_ops.

    Row a * len(f_ops) + x of the result is ops[a] (x) f_ops[x], ops
    most significant. Each entry (x, i, j) of f_ops takes one scalar
    multiply: ops times it fill the strided slice [:, x, :, i, :, j] of
    the widened array, whose dtype is the np.result_type of the two
    stacks. Every entry is the single product a * b, in the order of a
    left-to-right chain of kron calls, so every operator is
    bit-identical to that chain; a broadcast over six axes would run
    numpy's inner loop over axes of length 2.
    """
    (k, d), (f_k, f_d) = ops.shape[:2], f_ops.shape[:2]
    wide = np.empty((k, f_k, d, f_d, d, f_d), dtype=np.result_type(ops, f_ops))
    for x, i, j in np.ndindex(f_k, f_d, f_d):
        np.multiply(ops, f_ops[x, i, j], out=wide[:, x, :, i, :, j])
    return wide.reshape(k * f_k, d * f_d, d * f_d)


class _ProductEffect(Effect):
    """An effect of a product POVM, whose operator is formed when read.

    parts holds one operator of the POVM's prefix and one of its last
    factor; op widens the one by the other with _widen, so it is formed
    from the same single products as the POVM's stacks.
    """

    def __init__(self, parts, excludes, label):
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "excludes", excludes)
        object.__setattr__(self, "label", label)

    @property
    def op(self) -> np.ndarray:
        prefix_op, last_op = self.parts
        return _widen(prefix_op[None], last_op[None])[0]


@dataclass(frozen=True)
class Povm:
    """A complete measurement: effects summing to the identity.

    _factors is None for a dense POVM, whose effects hold their
    operators, and (prefix, last) for one that Povm.product built.
    """

    effects: tuple
    _factors: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.effects) == 0:
            raise ValueError("a POVM needs at least one effect")
        n = self.effects[0].excludes.n
        dim = self.dim
        # a product's operator shapes follow from its factors
        dense = self._factors is None
        for e in self.effects:
            if e.excludes.n != n:
                raise DimensionMismatch("effects disagree on qubit count")
            if dense and e.op.shape != (dim, dim):
                raise DimensionMismatch("effects disagree on operator shape")
        if dim != 1 << n:
            raise DimensionMismatch(f"operator dim {dim} does not match {n} qubits")

    @classmethod
    def product(cls, stacks, excludes, labels) -> "Povm":
        """The product of factors given as operator stacks, leftmost most significant.

        stacks[m] holds factor m's operators as one (k_m, d_m, d_m)
        array. Outcomes take the first factor slowest; excludes and
        labels give each outcome's exclusion set and label in that
        order. One factor gives a dense POVM on the rows of its stack.
        With more, the POVM keeps the prefix, the product of every
        factor but the last, as one array, and the last factor's
        stack; at n = 6 the prefix of local_usd is 243 operators of
        32x32, 2 MB, where all 729 operators would take 24 MB.
        """
        if len(stacks) == 1:
            return cls(tuple(map(Effect, stacks[0], excludes, labels)))
        prefix = functools.reduce(_widen, stacks[:-1])
        last = stacks[-1]
        parts = itertools.product(prefix, last)
        return cls(tuple(map(_ProductEffect, parts, excludes, labels)), (prefix, last))

    @property
    def n(self) -> int:
        return self.effects[0].excludes.n

    @property
    def dim(self) -> int:
        if self._factors is None:
            return self.effects[0].op.shape[0]
        prefix, last = self._factors
        return prefix.shape[1] * last.shape[1]

    @property
    def labels(self) -> list[str]:
        return [e.label for e in self.effects]

    @property
    def _dtype(self) -> np.dtype:
        """dtype of the operator stacks, which the completeness sum takes."""
        if self._factors is None:
            return np.result_type(*{e.op.dtype for e in self.effects})
        return np.result_type(*self._factors)

    def _stacks(self):
        """The operators in effect order, as (k, dim, dim) stacks.

        A stack holds about _STACK_ENTRIES entries. A dense POVM stacks
        its effects' operators. A product POVM widens a few prefix rows
        at a time by the last factor, so only one stack of its operators
        exists at once, and each is the operator its effect's op forms.
        """
        step = max(1, _STACK_ENTRIES // self.dim ** 2)
        if self._factors is None:
            for i in range(0, len(self.effects), step):
                yield np.stack([e.op for e in self.effects[i : i + step]])
        else:
            prefix, last = self._factors
            rows = max(1, step // len(last))
            for i in range(0, len(prefix), rows):
                yield _widen(prefix[i : i + rows], last)


@dataclass
class ValidationReport:
    """Outcome of the three POVM checks at one tolerance.

    violations is empty exactly when positivity, completeness and
    unambiguity all hold at tol.
    """

    tol: float
    min_eigenvalues: list = field(default_factory=list)
    completeness_residual: float = 0.0
    unambiguity_residuals: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class OutcomeStats:
    """Per-effect click probabilities for a given ensemble."""

    labels: list
    probs: np.ndarray
    fail_prob: float
    avg_eliminated: float


def _clicks(povm: Povm, states: np.ndarray) -> np.ndarray:
    """Click probabilities Re <psi|E|psi>, one row per effect, one column per state.

    states holds one state per row. The operators come from
    Povm._stacks, one batched product per stack: one numpy call per
    stack rather than per effect, while the working memory stays at one
    stack plus the states, also for a product POVM, whose operators are
    never formed all at once. Each stacked product is the per-effect
    product, so the clicks are bit-identical to a loop over the effects.
    The dtype follows the inputs: real states and operators take real
    arithmetic, and a complex state or operator makes the product
    complex by numpy's type promotion.
    """
    s_conj = states.conj()
    return np.concatenate([_stack_clicks(states, s_conj, ops) for ops in povm._stacks()])


def _stack_clicks(states: np.ndarray, s_conj: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """_clicks of one (k, dim, dim) operator stack: k rows, one column per state."""
    return np.einsum("sd,esd->es", s_conj, states @ ops.transpose(0, 2, 1)).real


def _exclusion_matrix(povm: Povm) -> np.ndarray:
    """Boolean (effect, pattern) matrix whose entry [i, p] is bit p of effect i's mask."""
    patterns = 1 << povm.n
    width = (patterns + 7) // 8
    raw = b"".join(e.excludes.mask.to_bytes(width, "little") for e in povm.effects)
    bits = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(povm.effects), width),
        axis=1,
        bitorder="little",
    )
    return bits[:, :patterns].astype(bool)


def validate(povm: Povm, ensemble: Ensemble, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check positivity, completeness and unambiguity of a POVM.

    Unambiguity is checked against the ensemble: for every effect and
    every pattern it claims to exclude, the click probability on that
    ensemble state must vanish within tol. tol must be finite and
    nonnegative: every comparison with NaN is false, so a NaN tol would
    pass any POVM. A NaN or infinite click on an excluded pattern is a
    violation, and the effect's residual is NaN. Clicks, eigenvalues
    and the completeness sum are computed in the dtype of the states
    and operators: real data take real arithmetic, complex data complex
    arithmetic. They come from one pass over Povm._stacks, in effect
    order, so a product POVM never holds all its operators.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    dim = povm.dim
    if ensemble.dim != dim:
        raise DimensionMismatch(
            f"POVM dim {dim} does not match ensemble dim {ensemble.dim}"
        )
    if ensemble.size < 1 << povm.n:
        raise DimensionMismatch("ensemble does not cover all sign patterns")

    states = np.array(ensemble.states)
    s_conj = states.conj()
    clicks = []
    lows = []  # lowest eigenvalue per effect, None where not Hermitian
    total = np.zeros((dim, dim), dtype=povm._dtype)
    for ops in povm._stacks():
        clicks.append(_stack_clicks(states, s_conj, ops))
        for op in ops:
            try:
                lows.append(float(eig_hermitian(op)[0]))
            except NotHermitian:
                lows.append(None)
                continue
            total += op

    clicks = np.concatenate(clicks)[:, : 1 << povm.n]
    overlaps = np.where(_exclusion_matrix(povm), np.abs(clicks), 0.0)
    # a NaN click fails every comparison: flag each click not within
    # tol, and give an effect with a NaN or infinite click a NaN residual
    resids = overlaps.max(axis=1).tolist()
    if math.inf in resids:
        resids = [math.nan if r == math.inf else r for r in resids]
    flagged: dict[int, list] = {}
    for i, p in zip(*np.nonzero(~(overlaps <= tol))):
        flagged.setdefault(int(i), []).append(int(p))

    report = ValidationReport(tol=tol)
    for i, (e, lo) in enumerate(zip(povm.effects, lows)):
        name = e.label or f"effect {i}"
        if lo is None:
            report.violations.append(f"{name}: operator is not Hermitian")
            report.min_eigenvalues.append(float("nan"))
            report.unambiguity_residuals.append(float("nan"))
            continue
        report.min_eigenvalues.append(lo)
        if lo < -tol:
            report.violations.append(f"{name}: min eigenvalue {lo:.3e} < -{tol:.0e}")
        for p in flagged.get(i, ()):
            report.violations.append(
                f"{name}: excluded pattern {SignPattern(povm.n, p)} has click "
                f"probability {float(clicks[i, p]):.3e}"
            )
        report.unambiguity_residuals.append(resids[i])

    residual = frob_dist(total, np.eye(dim))
    report.completeness_residual = residual
    if residual > tol:
        report.violations.append(f"completeness residual {residual:.3e} > {tol:.0e}")
    return report


def outcome_probabilities(povm: Povm, ensemble: Ensemble) -> OutcomeStats:
    """Click probabilities averaged over the ensemble priors.

    The arithmetic follows the dtype of the states and operators, as in
    validate: real for every scheme's uniform ensemble at a real angle.
    """
    if ensemble.dim != povm.dim:
        raise DimensionMismatch(
            f"POVM dim {povm.dim} does not match ensemble dim {ensemble.dim}"
        )
    probs = _clicks(povm, np.array(ensemble.states)) @ ensemble.priors
    fail = float(sum(p for p, e in zip(probs, povm.effects) if e.excludes.is_failure))
    avg = float(sum(p * e.excludes.size for p, e in zip(probs, povm.effects)))
    return OutcomeStats(
        labels=list(povm.labels), probs=probs, fail_prob=fail, avg_eliminated=avg
    )

"""POVMs whose outcomes rule states out rather than identify them.

An Effect couples a positive operator with the set of sign patterns
its click excludes with certainty. The failure outcome is nothing
special: an ordinary effect whose exclusion set is empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import DimensionMismatch, NotHermitian, eig_hermitian, frob_dist
from .states import Ensemble, SignPattern

DEFAULT_TOL = 1e-10
# Operator entries per stacked product in _clicks: 2**14 entries are
# four effects at n = 6, 128 KB of float64 or 256 KB of complex128
# operators, so the working memory stays bounded whatever n is.
_STACK_ENTRIES = 1 << 14


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


@dataclass(frozen=True)
class Povm:
    """A complete measurement: effects summing to the identity."""

    effects: tuple

    def __post_init__(self):
        if len(self.effects) == 0:
            raise ValueError("a POVM needs at least one effect")
        n = self.effects[0].excludes.n
        dim = self.effects[0].op.shape[0]
        for e in self.effects:
            if e.excludes.n != n:
                raise DimensionMismatch("effects disagree on qubit count")
            if e.op.shape != (dim, dim):
                raise DimensionMismatch("effects disagree on operator shape")
        if dim != 1 << n:
            raise DimensionMismatch(f"operator dim {dim} does not match {n} qubits")

    @property
    def n(self) -> int:
        return self.effects[0].excludes.n

    @property
    def dim(self) -> int:
        return self.effects[0].op.shape[0]

    @property
    def labels(self) -> list[str]:
        return [e.label for e in self.effects]


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

    states holds one state per row. The operators go through in stacks
    of at most _STACK_ENTRIES entries, one batched product per stack:
    one numpy call per stack rather than per effect, while the working
    memory stays at one stack plus the states, where all 729 operators
    of local_usd at n = 6 would take 24 MB. Each stacked product is the
    per-effect product, so the clicks are bit-identical to a loop over
    the effects. The dtype follows the inputs: real states and operators
    take real arithmetic, and a complex state or operator makes the
    product complex by numpy's type promotion.
    """
    effects = povm.effects
    step = max(1, _STACK_ENTRIES // povm.dim ** 2)
    stacks = (
        np.stack([e.op for e in effects[i : i + step]]).transpose(0, 2, 1)
        for i in range(0, len(effects), step)
    )
    s_conj = states.conj()
    return np.concatenate(
        [np.einsum("sd,esd->es", s_conj, states @ ops_t).real for ops_t in stacks]
    )


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
    pass any POVM. Clicks, eigenvalues and the completeness sum are
    computed in the dtype of the states and operators: real data take
    real arithmetic, complex data complex arithmetic.
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

    clicks = _clicks(povm, np.array(ensemble.states))[:, : 1 << povm.n]
    excluded = _exclusion_matrix(povm)
    overlaps = np.abs(clicks)
    # fmax ignores NaN, so a NaN click never becomes a residual
    resids = np.fmax.reduce(np.where(excluded, overlaps, 0.0), axis=1).tolist()
    flagged: dict[int, list] = {}
    for i, p in zip(*np.nonzero(excluded & (overlaps > tol))):
        flagged.setdefault(int(i), []).append(int(p))

    report = ValidationReport(tol=tol)
    total = np.zeros((dim, dim), dtype=np.result_type(*{e.op.dtype for e in povm.effects}))
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
        for p in flagged.get(i, ()):
            report.violations.append(
                f"{name}: excluded pattern {SignPattern(povm.n, p)} has click "
                f"probability {float(clicks[i, p]):.3e}"
            )
        report.unambiguity_residuals.append(resids[i])
        total += e.op

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

"""The qubit pair cos(t)|0> +/- sin(t)|1> and its n-fold products.

A sender picks, for each of n qubits, one of the two pure states
|+t> = cos(t)|0> + sin(t)|1> or |-t> = cos(t)|0> - sin(t)|1>, so a
preparation is a sign pattern of length n. The pair overlap is
<-t|+t> = cos(2t), which is the one number most formulas care about.

Angles live here once: the command line speaks in degrees of 2t, the
rest of the package in radians of t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import kron_all

_ANGLE_SLACK = 1e-12


@dataclass(frozen=True)
class Angle:
    """Half angle t in radians, restricted to 0 <= t <= pi/4.

    The upper end (2t = 90 degrees) is the orthogonal pair, the lower
    end (t = 0) the fully degenerate one.
    """

    theta: float

    def __post_init__(self):
        if not (-_ANGLE_SLACK <= self.theta <= math.pi / 4 + _ANGLE_SLACK):
            raise ValueError(
                f"half angle must satisfy 0 <= theta <= pi/4, got {self.theta!r}"
            )

    @classmethod
    def from_two_theta_deg(cls, deg: float) -> "Angle":
        return cls(math.radians(deg) / 2.0)

    @property
    def two_theta(self) -> float:
        return 2.0 * self.theta

    @property
    def two_theta_deg(self) -> float:
        return math.degrees(2.0 * self.theta)

    @property
    def overlap(self) -> float:
        """Inner product <-t|+t> = cos(2t)."""
        return math.cos(2.0 * self.theta)


@dataclass(frozen=True)
class SignPattern:
    """Choice of sign for each of n qubits.

    bits packs the pattern with bit i describing qubit i, counted from
    the left; a set bit means that qubit carries |-t>. The bits value
    doubles as the pattern's index everywhere a mask or an ensemble
    enumerates all 2**n patterns.
    """

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        if not (0 <= self.bits < (1 << self.n)):
            raise ValueError(f"bits {self.bits} out of range for n={self.n}")

    @classmethod
    def from_string(cls, s: str) -> "SignPattern":
        """Parse '+-' style notation, leftmost character first."""
        if not s or any(ch not in "+-" for ch in s):
            raise ValueError(f"pattern must be a nonempty string of + and -, got {s!r}")
        bits = 0
        for i, ch in enumerate(s):
            if ch == "-":
                bits |= 1 << i
        return cls(len(s), bits)

    @property
    def signs(self) -> tuple[int, ...]:
        """+1 or -1 per qubit, leftmost first."""
        return tuple(-1 if (self.bits >> i) & 1 else 1 for i in range(self.n))

    def hamming(self, other: "SignPattern") -> int:
        if self.n != other.n:
            raise ValueError("patterns differ in length")
        return bin(self.bits ^ other.bits).count("1")

    def __str__(self) -> str:
        return "".join("-" if (self.bits >> i) & 1 else "+" for i in range(self.n))


def all_patterns(n: int) -> list[SignPattern]:
    return [SignPattern(n, b) for b in range(1 << n)]


def qubit_state(angle: Angle, sign: int) -> np.ndarray:
    """Single qubit state (cos t, sign * sin t) for sign = +1 or -1, as float64."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return np.array([math.cos(angle.theta), sign * math.sin(angle.theta)])


def orth_state(angle: Angle, sign: int) -> np.ndarray:
    """Unit state orthogonal to qubit_state(angle, sign): (sin t, -sign * cos t), float64."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return np.array([math.sin(angle.theta), -sign * math.cos(angle.theta)])


def product_state(angle: Angle, pattern: SignPattern) -> np.ndarray:
    """Tensor product over the pattern, leftmost qubit most significant."""
    return kron_all([qubit_state(angle, s) for s in pattern.signs])


@dataclass(frozen=True)
class Ensemble:
    """States with prior probabilities, indexed consistently with masks."""

    states: tuple
    priors: np.ndarray

    def __post_init__(self):
        if len(self.states) != len(self.priors):
            raise ValueError("one prior per state required")
        if len(self.states) == 0:
            raise ValueError("empty ensemble")
        dim = len(self.states[0])
        if any(len(s) != dim for s in self.states):
            raise ValueError("all states must share one dimension")
        p = np.asarray(self.priors, dtype=float)
        # every comparison with NaN is false, so a NaN prior fails this
        # test as written; an infinite one makes the sum miss 1
        if not (np.all(p >= -1e-15) and abs(float(p.sum()) - 1.0) <= 1e-12):
            raise ValueError("priors must be finite, nonnegative and sum to 1")

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return len(self.states[0])


def uniform_ensemble(angle: Angle, n: int) -> Ensemble:
    """All 2**n sign-pattern products with equal priors, in pattern order.

    The states are built all at once, one broadcast multiply per qubit:
    widening by qubit k sends the pattern index p to b * 2**k + p for
    sign b and the amplitude index d to 2 * d + j, the order of
    product_state's left-to-right Kronecker chain, so every state is
    bit-identical to product_state of its pattern. The states are the
    rows of one (2**n, 2**n) array.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    pair = np.stack([qubit_state(angle, +1), qubit_state(angle, -1)])
    states = pair
    for _ in range(n - 1):
        k = states.shape[0]
        states = (states[None, :, :, None] * pair[:, None, None, :]).reshape(2 * k, 2 * k)
    return Ensemble(tuple(states), np.full(1 << n, 1.0 / (1 << n)))

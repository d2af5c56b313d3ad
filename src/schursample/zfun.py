"""Closed-form partition functions for finite, free-boundary, and pyramidal
Schur processes.

Values are exact rationals whenever every parameter is rational and the word
is short enough (<= 40 symbols); otherwise they are carried in log space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Optional, Sequence

from .rules import MODES, boundary_mode  # zfun.MODES names the modes for callers
from .sampler import DivergenceError
from .unbounded import PyramidalSampler
from .words import Rel, epsilon

EXACT_WORD_LIMIT = 40


@dataclass(frozen=True)
class ZValue:
    """A positive normalizing constant, possibly divergent.

    ``exact`` is set in the rational regime; ``log`` always holds the natural
    log of the value when finite.
    """

    finite: bool
    exact: Optional[Fraction] = None
    log: Optional[float] = None

    def __float__(self) -> float:
        if not self.finite:
            return math.inf
        return float(self.exact) if self.exact is not None else math.exp(self.log)

    def __str__(self) -> str:
        if not self.finite:
            return "divergent"
        if self.exact is not None:
            return str(self.exact)
        if abs(self.log) < 690:  # exp stays within double range
            return f"{math.exp(self.log):.12g}"
        return f"exp({self.log:.12g})"


def _all_rational(values) -> bool:
    return all(isinstance(v, Rational) for v in values)


def _require_parameters(values) -> None:
    for v in values:
        if not (isinstance(v, Rational) or math.isfinite(v)) or v < 0:
            raise ValueError(f"parameters must be finite and nonnegative, got {v}")


class _Accumulator:
    """Multiplies factors (1 + e*x)^e exactly or in log space."""

    def __init__(self, exact_mode: bool):
        self.exact_mode = exact_mode
        self.value = Fraction(1) if exact_mode else None
        self.log = 0.0
        self.finite = True

    def mul(self, x, e: int):
        if not self.finite:
            return
        if e == -1 and x >= 1:
            self.finite = False
            return
        if self.exact_mode:
            x = Fraction(x)
            self.value = self.value * (1 + x) if e == 1 else self.value / (1 - x)
        self.log += math.log1p(float(x)) if e == 1 else -math.log1p(-float(x))

    def result(self) -> ZValue:
        if not self.finite:
            return ZValue(finite=False)
        return ZValue(True, self.value if self.exact_mode else None, self.log)


def _mul_pairs(acc: _Accumulator, word: tuple, z: Sequence, t=None) -> None:
    """Multiply in, for each left symbol i and each later symbol j,
    (1 + eps_ij z_i z_j)^eps_ij if j is a right symbol, with eps = +1
    exactly for the mixed (primed/unprimed) pairs, and with ``t`` given
    (1 + delta t^2 z_i z_j)^delta if j is a left one, with delta = -1
    exactly when the two symbols are equal."""
    for i in range(len(word)):
        if not word[i].left:
            continue
        for j in range(i + 1, len(word)):
            if not word[j].left:
                acc.mul(z[i] * z[j], epsilon(word[i], word[j]))
            elif t is not None:
                acc.mul(t * t * z[i] * z[j], -1 if word[i] == word[j] else 1)


def z_finite(word: Sequence[Rel], z: Sequence) -> ZValue:
    """Partition function of the finite Schur process: the product of
    (1 + eps_ij z_i z_j)^eps_ij over left-before-right index pairs, with
    eps = +1 exactly for the mixed (primed/unprimed) pairs."""
    word = tuple(word)
    if len(z) != len(word):
        raise ValueError("parameter list does not match word length")
    _require_parameters(z)
    acc = _Accumulator(_all_rational(z) and len(word) <= EXACT_WORD_LIMIT)
    _mul_pairs(acc, word, z)
    return acc.result()


def z_symmetric(word: Sequence[Rel], z: Sequence, t, mode: str = "free") -> ZValue:
    """Partition function of the right-free Schur process with boundary
    weight t^|free partition|: a left symbol whose diagonal rule draws
    Geom(x^p) in the mode adds the factor 1 / (1 - (t z_i)^p), and each
    pair of left symbols the factor of ``_mul_pairs``."""
    _, rules = boundary_mode(mode)
    word = tuple(word)
    if len(z) != len(word):
        raise ValueError("parameter list does not match word length")
    _require_parameters((*z, t))
    acc = _Accumulator(_all_rational(z) and isinstance(t, Rational)
                       and len(word) <= EXACT_WORD_LIMIT)
    for i, s in enumerate(word):
        power = rules["VV" if s.primed else "HH"][2] if s.left else 0
        if power:  # p = 1 or 2; a float product past the range is inf
            tz = t * z[i]
            acc.mul(tz if power == 1 else tz * tz, -1)
    _mul_pairs(acc, word, z, t)
    return acc.result()


def z_pyramidal(params, convention) -> ZValue:
    """Infinite product (1 + eps_ij a_i b_j)^eps_ij over i, j >= 0.

    This is 1 / P(K = -infinity) of the pyramidal sampler, so the value is
    read from its certified truncation table (relative error <= 1e-15).
    """
    try:
        return ZValue(True, None, -PyramidalSampler(params, convention).log_p_empty())
    except DivergenceError:
        return ZValue(finite=False)

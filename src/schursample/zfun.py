"""Closed-form partition functions for finite, free-boundary, and pyramidal
Schur processes.

Values are exact rationals whenever every parameter is rational and the word
is short enough (<= 40 symbols); otherwise they are carried in log space.
A parameter is what ``words.is_parameter`` accepts, the samplers' test, and
every factor's product is ``words.product``, exact where a float product
would overflow; the log of an exact factor past the float range is taken
from its numerator and denominator.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
from numbers import Rational
from typing import Optional, Sequence

from .partitions import FrozenRecord
from .rules import MODES, boundary_mode  # zfun.MODES names the modes for callers
from .sampler import DivergenceError
from .unbounded import PyramidalSampler
from .words import FLOAT_MAX, Rel, epsilon, is_parameter, product

EXACT_WORD_LIMIT = 40


class ZValue(FrozenRecord):
    """A positive normalizing constant, possibly divergent.

    ``exact`` is set in the rational regime; ``log`` always holds the natural
    log of the value when finite.
    """

    def __init__(self, finite: bool, exact: Optional[Fraction] = None,
                 log: Optional[float] = None):
        self.__dict__.update(finite=finite, exact=exact, log=log)

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


def _parameters(word: Sequence[Rel], z: Sequence, *t):
    """(the word as a tuple, whether the value is exact), once z matches
    the word and every value of z and t is a parameter
    (``words.is_parameter``).  The value is exact when every value is
    rational and the word is at most EXACT_WORD_LIMIT symbols long."""
    word = tuple(word)
    if len(z) != len(word):
        raise ValueError("parameter list does not match word length")
    for v in (*z, *t):
        if not is_parameter(v):
            raise ValueError(f"parameters must be finite and nonnegative, got {v}")
    return word, len(word) <= EXACT_WORD_LIMIT and all(isinstance(v, Rational) for v in (*z, *t))


def _log1p(x) -> float:
    """log(1 + x) for a factor x > -1.  Past the float range x is an exact
    int or Fraction, and log(1 + x) rounds to log(x), which is taken from
    its numerator and denominator."""
    if x <= FLOAT_MAX:
        return math.log1p(float(x))
    return math.log(x.numerator) - math.log(x.denominator)


def _fold(factors, exact: bool) -> ZValue:
    """The product of (1 + e*x)^e over the (x, e) pairs of ``factors``,
    exact if ``exact``, and always in log space; divergent at the first
    x >= 1 with e = -1, whose later factors are not formed."""
    value, log = Fraction(1), 0.0
    for x, e in factors:
        if e == -1 and x >= 1:
            return ZValue(finite=False)
        if exact:
            x = Fraction(x)
            value = value * (1 + x) if e == 1 else value / (1 - x)
        log += _log1p(x) if e == 1 else -_log1p(-x)
    return ZValue(True, value if exact else None, log)


def _pairs(word: tuple, z: Sequence, t=None):
    """For each left symbol i and each later symbol j, the factor
    (1 + eps_ij z_i z_j)^eps_ij if j is a right symbol, with eps = +1
    exactly for the mixed (primed/unprimed) pairs, and with ``t`` given
    (1 + delta t^2 z_i z_j)^delta if j is a left one, with delta = -1
    exactly when the two symbols are equal; as (x, sign) pairs, every
    product formed by ``words.product``."""
    for i, j in combinations(range(len(word)), 2):
        if word[i].left and not word[j].left:
            yield product(z[i], z[j]), epsilon(word[i], word[j])
        elif word[i].left and t is not None:
            yield reduce(product, (t, t, z[i], z[j])), -1 if word[i] == word[j] else 1


def z_finite(word: Sequence[Rel], z: Sequence) -> ZValue:
    """Partition function of the finite Schur process: the product of
    (1 + eps_ij z_i z_j)^eps_ij over left-before-right index pairs, with
    eps = +1 exactly for the mixed (primed/unprimed) pairs.  An exact
    factor past the float range is carried in log space too."""
    word, exact = _parameters(word, z)
    return _fold(_pairs(word, z), exact)


def z_symmetric(word: Sequence[Rel], z: Sequence, t, mode: str = "free") -> ZValue:
    """Partition function of the right-free Schur process with boundary
    weight t^|free partition|: a left symbol whose diagonal rule draws
    Geom(x^p) in the mode adds the factor 1 / (1 - (t z_i)^p), and each
    pair of left symbols the factor of ``_pairs``."""
    _, rules = boundary_mode(mode)
    word, exact = _parameters(word, z, t)
    powers = [rules["VV" if s.primed else "HH"][2] if s.left else 0 for s in word]  # p = 0, 1, 2
    tz = [product(t, zi) for zi in z]
    diagonal = ((tz[i] if p == 1 else product(tz[i], tz[i]), -1) for i, p in enumerate(powers) if p)
    return _fold(chain(diagonal, _pairs(word, z, t)), exact)


def z_pyramidal(params, convention) -> ZValue:
    """Infinite product (1 + eps_ij a_i b_j)^eps_ij over i, j >= 0.

    This is 1 / P(K = -infinity) of the pyramidal sampler, so the value is
    read from its certified truncation table (relative error <= 1e-15).
    """
    try:
        return ZValue(True, None, -PyramidalSampler(params, convention).log_p_empty())
    except DivergenceError:
        return ZValue(finite=False)

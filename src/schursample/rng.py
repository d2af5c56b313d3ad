"""Seeded random source with entropy accounting.

The generator is CPython's Mersenne Twister (``random.Random``), recorded in
output metadata as ``mt19937``.  Geometric variates use floating-point
inversion k = floor(ln U / ln xi), an O(1) approximation of the real-number
model; exact bit-level geometric sampling is out of scope.
"""
from __future__ import annotations

import math
import random
from itertools import accumulate
from typing import List, Optional, Tuple

from .partitions import Record

ALGORITHM = "mt19937"

_MIX = 0x9E3779B97F4A7C15  # golden-ratio increment for derived streams


class EntropyLedger(Record):
    """Counts of the random variates consumed by a sampling run."""

    def __init__(self, geometric_draws: int = 0, bernoulli_draws: int = 0):
        self.geometric_draws = geometric_draws
        self.bernoulli_draws = bernoulli_draws

    @property
    def total(self) -> int:
        return self.geometric_draws + self.bernoulli_draws


def variates(odds: List[float], geometric: List[bool]) -> tuple:
    """A row of variates for :meth:`RandomSource.row_drawer`: Geom(xi)
    where geometric[k] is true and else Bernoulli(xi / (1 + xi)), for
    xi = odds[k].  Unchecked: the parameters must be floats that
    ``geometric`` and ``bernoulli`` accept.

    Variate k is one float a: Bernoulli(a) if 0 < a < 1, a geometric with
    log(xi) = a if a < 0, else the constant int(a), which reads no entropy
    (p in {0, 1}, xi = 0).  A row is made once and drawn from many times.
    """
    steps = [(math.log(x) if x else 0) if g else x / (1.0 + x) for x, g in zip(odds, geometric)]
    return steps, list(accumulate(geometric, initial=0)), odds, geometric


class RandomSource:
    """Reproducible stream of geometric / Bernoulli / Poisson variates.

    With ``log_draws=True`` every variate is appended to ``draw_log`` as a
    (kind, parameter, value) triple; the entropy-optimality tests replay
    these logs against reconstructed inputs.
    """

    algorithm = ALGORITHM

    def __init__(self, seed: int, log_draws: bool = False):
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self.ledger = EntropyLedger()
        self.draw_log: Optional[List[Tuple[str, float, int]]] = [] if log_draws else None

    def child(self, run_index: int) -> "RandomSource":
        """Independent stream for batch run ``run_index`` (same log setting)."""
        derived = (self.seed + _MIX * (run_index + 1)) % (1 << 64)
        return RandomSource(derived, log_draws=self.draw_log is not None)

    def uniform(self) -> float:
        u = self._rng.random()
        while u <= 0.0:
            u = self._rng.random()
        return u

    def geometric(self, xi: float) -> int:
        """P(k) = (1 - xi) * xi^k for k >= 0; requires 0 <= xi < 1."""
        xi = float(xi)
        if not 0.0 <= xi < 1.0:
            raise ValueError(f"geometric parameter must be in [0,1), got {xi}")
        if xi == 0.0:
            k = 0
        else:
            k = int(math.log(self.uniform()) / math.log(xi))
        self.ledger.geometric_draws += 1
        if self.draw_log is not None:
            self.draw_log.append(("geom", xi, k))
        return k

    def bernoulli(self, p: float) -> int:
        """P(1) = p; degenerate p in {0, 1} consumes no underlying entropy."""
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli parameter must be in [0,1], got {p}")
        if p == 0.0:
            b = 0
        elif p == 1.0:
            b = 1
        else:
            b = 1 if self.uniform() < p else 0
        self.ledger.bernoulli_draws += 1
        if self.draw_log is not None:
            self.draw_log.append(("bern", p, b))
        return b

    def row_drawer(self):
        """A function (row, stop) -> the first ``stop`` variates of a row
        made by :func:`variates`, each drawn, counted and logged as one
        ``geometric`` or ``bernoulli`` call would draw, count and log it.

        The uniforms come from ``uniform``: the stock one is inlined as its
        generator call, with a draw of 0.0 drawn again, and an overridden
        or wrapped one is called."""
        uniform = self.uniform
        rand = self._rng.random if type(self).uniform is _UNIFORM else uniform
        ledger, draw_log, ln = self.ledger, self.draw_log, math.log

        def draw(row: tuple, stop: int) -> List[int]:
            steps, geoms, odds, geometric = row
            values = [
                (1 if (rand() or uniform()) < a else 0) if 0.0 < a < 1.0
                else int(ln(rand() or uniform()) / a) if a < 0.0 else int(a)
                for a in steps[:stop]
            ]
            ledger.geometric_draws += geoms[stop]
            ledger.bernoulli_draws += stop - geoms[stop]
            if draw_log is not None:
                draw_log.extend([
                    ("geom", x, v) if g else ("bern", x / (1.0 + x), v)
                    for x, g, v in zip(odds, geometric, values)
                ])
            return values

        return draw

    def poisson(self, theta: float) -> int:
        """Poisson variate by CDF inversion; large means are split additively
        (a Poisson(a+b) is a sum of independent Poisson(a) and Poisson(b))."""
        theta = float(theta)
        if theta < 0:
            raise ValueError("poisson mean must be nonnegative")
        if theta == 0.0:
            return 0
        if theta > 30.0:
            halves = int(math.ceil(theta / 30.0))
            return sum(self.poisson(theta / halves) for _ in range(halves))
        u = self.uniform()
        k = 0
        p = math.exp(-theta)
        cdf = p
        while u > cdf:
            k += 1
            p *= theta / k
            cdf += p
            if p == 0.0:  # float underflow guard far in the tail
                break
        return k

    def shuffle(self, items: list) -> list:
        self._rng.shuffle(items)
        return items

    def permutation(self, n: int) -> list:
        return self.shuffle(list(range(n)))


_UNIFORM = RandomSource.uniform  # the stock uniform, which row_drawer inlines


def as_source(src) -> RandomSource:
    """The random source of a sampler's ``src`` argument: an int seeds a new
    RandomSource, a RandomSource (or subclass) is used as it is."""
    if isinstance(src, RandomSource):
        return src
    if isinstance(src, int):
        return RandomSource(src)
    raise TypeError(f"seed must be an int or a RandomSource, got {type(src).__name__}")

"""Seeded random source with entropy accounting.

The generator is CPython's Mersenne Twister (``random.Random``), recorded in
output metadata as ``mt19937``.  Geometric variates use floating-point
inversion k = floor(ln U / ln xi), an O(1) approximation of the real-number
model; exact bit-level geometric sampling is out of scope.

A Bernoulli(p) draw is ``1 if uniform() < p else 0``, one ``random()``
call, and ``RandomSource.row_drawer`` draws most rows that way.  A row of
Bernoulli(p) draws alone with one p, as every row of a uniform Aztec
diamond is, is read in bulk on the stock generator: one
``getrandbits(64 n)`` call reads the 2n words that n ``random()`` calls
would read, in the same order, and the top byte of each draw's first word
decides it but in about 2 cases in 256, which read the draw's uniform in
full (:func:`_bernoulli_row`).  So the draws, the generator's state, the
ledger and the draw log are those of the per-draw path.
"""
from __future__ import annotations

import math
import random
from itertools import accumulate
from typing import List, Optional, Tuple

from .partitions import Record

ALGORITHM = "mt19937"

_MIX = 0x9E3779B97F4A7C15  # golden-ratio increment for derived streams
# The shortest row that row_drawer reads in bulk: at 8 Bernoulli(1/2)
# draws one getrandbits call and the per-draw loop each take about 2 us
# (CPython 3.11, 2-CPU x86-64 host), and below that the loop is faster.
_BULK_MIN = 8


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
    A row of at least ``_BULK_MIN`` Bernoulli(p) variates alone, with one
    p in (0, 1), also holds the table that reads them in bulk
    (:func:`_bernoulli_row`).
    """
    steps = [(math.log(x) if x else 0) if g else x / (1.0 + x) for x, g in zip(odds, geometric)]
    p = steps[0] if len(steps) >= _BULK_MIN else 0.0
    bulk = 0.0 < p < 1.0 and not any(geometric) and steps.count(p) == len(steps)
    return steps, list(accumulate(geometric, initial=0)), odds, geometric, bulk and _table(p)


def _table(p: float) -> bytes:
    """The ``translate`` table of Bernoulli(p) on the top byte T of a
    uniform U: floor(256 U) = T < c = floor(256 p) gives U < p, and T > c
    gives U >= p, so T maps to 1 or 0.  T = c, where U may lie on either
    side of p, and T = 0, where U may be 0.0, which is drawn again, map to
    2, undecided."""
    c = int(256 * p)
    table = bytearray(b"\x01" * c + bytes(256 - c))
    table[0] = table[c] = 2
    return bytes(table)


def _bernoulli_row(getrandbits, raw: bytes, p: float, table: bytes) -> bytearray:
    """The Bernoulli(p) draws of the uniforms in ``raw``, one byte each:
    ``raw`` is ``getrandbits(64 n).to_bytes(8 n, "little")`` of a stock
    generator, and the n draws equal n draws of ``1 if uniform() < p
    else 0`` on it, which would leave it in the state that this leaves it.

    CPython's ``random()`` reads two 32-bit words, a and b, and returns
    ((a >> 5) * 2^26 + (b >> 6)) / 2^53; ``getrandbits(64 n)`` reads the
    same 2n words in the same order, the first one lowest.  So bytes
    8t .. 8t + 7 of ``raw`` are draw t's a and b, and byte 8t + 3 is the
    top byte of its a, floor(256 U).  ``table`` (:func:`_table`) decides
    every draw by that byte but those it maps to 2, which read their U in
    full; a U of 0.0 is drawn again, as ``uniform`` draws it, from the
    next slot, and the draws after it read one slot on, the last one from
    words that ``getrandbits`` reads then."""
    values = bytearray(raw[3::8].translate(table))
    t = values.find(2)
    while t >= 0:
        a = int.from_bytes(raw[8 * t : 8 * t + 4], "little") >> 5
        b = int.from_bytes(raw[8 * t + 4 : 8 * t + 8], "little") >> 6
        u = (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)
        if not u:
            more = raw[8 * t + 8 :] + getrandbits(64).to_bytes(8, "little")
            values[t:] = _bernoulli_row(getrandbits, more, p, table)
            break
        values[t] = u < p
        t = values.find(2, t + 1)
    return values


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
        or wrapped one is called.  With the stock uniform on a stock
        ``random.Random`` generator, a row of Bernoulli(p) variates alone,
        with one p, is read in bulk (:func:`_bernoulli_row`): one
        ``getrandbits`` call reads the words that the ``stop`` uniforms
        would read, in their order, so its draws are theirs."""
        uniform = self.uniform
        stock = type(self).uniform is _UNIFORM
        rand = self._rng.random if stock else uniform
        bits = self._rng.getrandbits if stock and type(self._rng) is random.Random else None
        ledger, draw_log, ln = self.ledger, self.draw_log, math.log

        def draw(row: tuple, stop: int) -> List[int]:
            steps, geoms, odds, geometric, table = row
            if table and bits and stop >= _BULK_MIN:
                raw = bits(64 * stop).to_bytes(8 * stop, "little")
                values = list(_bernoulli_row(bits, raw, steps[0], table))
            else:
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

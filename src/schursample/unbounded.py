"""Sampling of pyramidal (bi-infinite) Schur processes and Plancherel limits.

A pyramidal process is a two-sided sequence of partitions, interlaced toward
a center and eventually empty, weighted by two summable parameter sequences.
Sampling truncates at a random Cantor-pairing index K: the box at K receives
a conditioned draw, boxes below K ordinary draws (one prepared row per
anti-diagonal), boxes above K zeros, and the finite growth sweep over the
truncation word does the rest; it skips the boxes that stay empty, which
are about half of the truncated corner, and runs no kernel on a quiet box,
which most of the others are.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import mul, neg
from typing import Dict, List, Optional, Tuple

from . import words
from .partitions import EMPTY, FrozenRecord, Partition, Record, first_break
from .rng import RandomSource, as_source, variates
from .sampler import DivergenceError, grow_profile
from .words import Rel, Word, precompute_par

K_BRACKET_REL = 1e-15  # documented resolution of the CDF bracket for K


def cantor_pair(i: int, j: int) -> int:
    """k(i, j) = (i+j)(i+j+1)/2 + j, a bijection N x N -> N."""
    return (i + j) * (i + j + 1) // 2 + j


def cantor_unpair(k: int) -> Tuple[int, int]:
    """The inverse of cantor_pair.  The anti-diagonal t = i + j is exact: with
    k = t(t + 1)/2 + j and 0 <= j <= t, 8k + 1 = (2t + 1)^2 + 8j < (2t + 3)^2."""
    t = (math.isqrt(8 * k + 1) - 1) // 2
    j = k - t * (t + 1) // 2
    return t - j, j


def _fits_float(v) -> bool:
    """Whether v is a parameter (``words.is_parameter``) that a float holds."""
    return words.is_parameter(v) and v <= words.FLOAT_MAX


class ParamSeq(FrozenRecord):
    """A nonnegative parameter sequence with a computable tail sum.

    Two generators cover the models in scope: explicit finite lists, and
    geometric families coeff * ratio^i (summable for ratio < 1).
    """

    def __init__(self, kind: str, values: tuple = (), coeff: float = 0.0, ratio: float = 0.0):
        self.__dict__.update(kind=kind, values=values, coeff=coeff, ratio=ratio)

    @staticmethod
    def finite(values) -> "ParamSeq":
        values = tuple(values)
        if not all(map(_fits_float, values)):
            raise ValueError(f"parameters must be finite and nonnegative floats, got {values}")
        return ParamSeq("finite", values=tuple(map(float, values)))

    @staticmethod
    def geometric(coeff: float, ratio: float) -> "ParamSeq":
        if not (_fits_float(ratio) and ratio < 1 and _fits_float(coeff)):
            raise ValueError(
                f"geometric family needs finite coeff >= 0 and 0 <= ratio < 1, "
                f"got coeff={coeff!r}, ratio={ratio!r}"
            )
        return ParamSeq("geometric", coeff=float(coeff), ratio=float(ratio))

    def __getitem__(self, i: int) -> float:
        if self.kind == "finite":
            return self.values[i] if i < len(self.values) else 0.0
        return self.coeff * self.ratio**i

    def total(self) -> float:
        return self.tail(0)

    def tail(self, m: int) -> float:
        """Upper bound on sum_{i >= m} of the sequence (exact here)."""
        if self.kind == "finite":
            return float(sum(self.values[m:]))
        return self.coeff * self.ratio**m / (1 - self.ratio)

    def sup(self, m: int) -> float:
        """max_{i >= m} of the sequence."""
        if self.kind == "finite":
            return max(self.values[m:], default=0.0)
        return self.coeff * self.ratio**m


class PyramidalParameters(FrozenRecord):
    """The (a_i) and (b_j) weight sequences of a pyramidal process."""

    def __init__(self, a: ParamSeq, b: ParamSeq):
        self.__dict__.update(a=a, b=b)

    def c(self, i: int, j: int, eps: int) -> float:
        ab = self.a[i] * self.b[j]
        return ab if eps == -1 else ab / (1 + ab)

    @staticmethod
    def q_volume(q: float) -> "PyramidalParameters":
        """a_i = b_i = q^(i + 1/2), the q^Volume specialization."""
        if not 0 < q < 1:
            raise ValueError("q must lie in (0,1)")
        g = ParamSeq.geometric(math.sqrt(q), q)
        return PyramidalParameters(g, g)


class WordConvention(FrozenRecord):
    """The relation symbols on each side of the center, with period 2:
    ``left[i % 2]`` relates lambda(-i-1) to lambda(-i) and ``right[j % 2]``
    relates lambda(j) to lambda(j+1).  Box (i, j) pairs left symbol i with
    right symbol j: its kind and sign are words.box_kind and words.epsilon."""

    def __init__(self, left: Tuple[Rel, Rel], right: Tuple[Rel, Rel], name: str = "custom"):
        self.__dict__.update(left=left, right=right, name=name)

    def epsilon(self, i: int, j: int) -> int:
        return words.epsilon(self.left[i % 2], self.right[j % 2])

    def box_kind(self, i: int, j: int) -> str:
        return words.box_kind(self.left[i % 2], self.right[j % 2])

    @staticmethod
    def plane_partitions() -> "WordConvention":
        return WordConvention((Rel.LH, Rel.LH), (Rel.RH, Rel.RH), "plane-partitions")

    @staticmethod
    def pyramid() -> "WordConvention":
        """Alternating relations: the innermost left relation is primed,
        the innermost right one plain."""
        return WordConvention((Rel.LV, Rel.LH), (Rel.RH, Rel.RV), "pyramid")


class PyramidalSample(Record):
    def __init__(self, lambdas: Dict[int, Partition], params: PyramidalParameters,
                 convention: WordConvention, seed: Optional[int], truncation_index: Optional[int]):
        self.lambdas = lambdas
        self.params = params
        self.convention = convention
        self.seed = seed
        self.truncation_index = truncation_index  # None encodes K = -infinity

    def lam(self, i: int) -> Partition:
        return self.lambdas.get(i, EMPTY)

    def support(self) -> Tuple[int, int]:
        keys = [i for i, v in self.lambdas.items() if v]
        return (min(keys), max(keys)) if keys else (0, 0)

    def validate(self) -> None:
        lo, hi = self.support()
        m = max(hi, -lo) + 1
        lambdas = [self.lam(k) for k in range(-m, m + 1)]
        i = first_break(truncation_word(self.convention, m), lambdas)
        if i is not None:
            raise ValueError(f"interlacing fails between lambda({i - m - 1}) and lambda({i - m})")


class PyramidalSampler:
    """Caches the truncation-index CDF for one parameter set.

    P(K <= k) is the product of (1 - c_ij) over boxes after k in Cantor
    order.  The cache is one table over anti-diagonals s = i + j: entry s is
    the sum of log(1 - c) over the boxes with i + j < s, built in one pass
    from each anti-diagonal's sum and a bound on the mass past it.  When
    a_i b_j depends only on i + j (geometric a and b with one ratio, as for
    q-volume) both are closed forms on plain floats (_closed_sums), the sum
    one in the anti-diagonal's number of eps = +1 boxes; otherwise both are
    summed term by term.  The table stops at the first anti-diagonal past
    which the bound is at most 1e-15 of the total (relative), and
    log P(empty) is the midpoint of that bracket, an explicit approximation
    of the idealized real-number model.  Sampling K bisects the table for
    the anti-diagonal, then walks its boxes in Cantor order; a draw inside
    the tail bracket resolves to the last box of the table.
    """

    def __init__(self, params: PyramidalParameters, convention: WordConvention):
        self.params = params
        self.conv = convention
        a, b = params.a, params.b
        # a_i b_j = coeff * ratio^(i+j) when both families share one ratio
        self._closed = a.kind == b.kind == "geometric" and a.ratio == b.ratio
        self._diag = None  # _diag[s] = sum_{i+j < s} log(1 - c_ij)
        self._log_all = None

    def _c(self, i: int, j: int) -> float:
        eps = self.conv.epsilon(i, j)
        c = self.params.c(i, j, eps)
        if c >= 1:
            raise DivergenceError((i, j), self.conv.box_kind(i, j), c)
        return c

    def _diag_sum(self, s: int) -> float:
        """sum of log(1 - c) over the boxes with i + j = s, box by box."""
        return sum(math.log1p(-self._c(s - j, j)) for j in range(s + 1))

    def _mass_past(self, s: int) -> float:
        """Upper bound on -sum log(1 - c) over the boxes with i + j >= s."""
        a, b = self.params.a, self.params.b
        m = (s + 1) // 2  # every such box has i >= m or j >= m
        cmax = max(a.sup(m) * b.sup(0), a.sup(0) * b.sup(m))
        if cmax >= 1:
            return math.inf
        mass = sum(a[i] * b.tail(s - i) for i in range(s)) + a.tail(s) * b.total()
        # -log(1 - c) <= ab / (1 - ab) for eps = -1 and <= ab for eps = +1
        return mass / (1 - cmax)

    def _closed_sums(self):
        """(term, bound), the closed case's _diag_sum and _mass_past on plain
        floats: a_i b_j = x_(i+j), x_s = ca cb r^s, and box (s - j, j) has
        eps = +1 by the parities of s and j alone.  A term with x_s >= 1 is
        summed box by box, which names the first divergent box."""
        ca, cb, r = self.params.a.coeff, self.params.b.coeff, self.params.a.ratio
        is_plus = [[self.conv.epsilon(s - j, j) == 1 for j in (0, 1)] for s in (0, 1)]
        d = 1 - r
        spread = r / d**2

        def term(s: int) -> float:
            x = ca * (cb * r**s)
            if x >= 1:
                return self._diag_sum(s)
            even, odd = is_plus[s % 2]  # boxes with j even, j odd
            plus = (s // 2 + 1 if even else 0) + ((s + 1) // 2 if odd else 0)
            return (s + 1 - plus) * math.log1p(-x) - plus * math.log1p(x)

        def bound(s: int) -> float:
            rm = r ** ((s + 1) // 2)
            cmax = max(ca * rm * cb, ca * (cb * rm))
            if cmax >= 1:
                return math.inf
            return ca * (cb * r**s) * ((s + 1) / d + spread) / (1 - cmax)

        return term, bound

    def _closed_mass(self, terms: int) -> float:
        """Upper bound on -sum log(1 - c) over all boxes in the closed case:
        each of the s + 1 boxes on anti-diagonal s has -log(1 - c) <= x / (1 - x),
        x = a_0 b_s.  The first ``terms`` anti-diagonals are summed, the rest
        bounded by a geometric tail, as x_s <= x_terms r^(s - terms)."""
        a0, b, r = self.params.a[0], self.params.b, self.params.a.ratio
        if a0 * b[0] >= 1:
            return math.inf
        head = math.fsum((s + 1) * x / (1 - x) for s in range(terms) for x in (a0 * b[s],))
        x = a0 * b[terms]
        return head + x / (1 - x) * ((terms + 1) / (1 - r) + r / (1 - r) ** 2)

    def log_p_empty(self) -> float:
        """log P(K = -infinity) = sum over all boxes of log(1 - c).

        In the closed case the tail bound falls with s and no partial sum
        exceeds _closed_mass, so a q whose bound at the cap is still above
        that sum's bracket cannot converge and is refused before the loop.
        """
        if self._log_all is not None:
            return self._log_all
        cap = (1 << 20) + 1
        term, bound = self._diag_sum, self._mass_past
        if self._closed:
            term, bound = self._closed_sums()
            # the bulk of the mass sits on about 1/(1 - r) anti-diagonals; past
            # cap/16 of them the geometric tail alone is tight enough to refuse
            mass = self._closed_mass(min(math.ceil(1 / (1 - self.params.a.ratio)), cap >> 4))
            if bound(cap) > K_BRACKET_REL * max(mass, 1e-6):
                raise ArithmeticError("tail bound fails to converge")
        diag = [0.0]
        hi, lo = 0.0, 0.0  # compensated running sum, hi + lo
        while True:
            s = len(diag) - 1
            past = bound(s)
            if past <= K_BRACKET_REL * max(abs(diag[-1]), 1e-6):
                self._diag = diag
                self._log_all = diag[-1] - past / 2
                return self._log_all
            if s >= cap:
                raise ArithmeticError("tail bound fails to converge")
            x = term(s)
            t = hi + x
            lo += (hi - t) + x if abs(hi) >= abs(x) else (x - t) + hi
            hi = t
            diag.append(hi + lo)

    def sample_truncation_index(self, src: RandomSource) -> Optional[int]:
        """K distributed as the largest active box index; None means no box
        fired (the empty process)."""
        log_all = self.log_p_empty()
        v = src.uniform()
        log_v = math.log(v)
        if log_v <= log_all:
            return None
        target = log_all - log_v  # K: first box whose running sum reaches target
        diag = self._diag
        s = min(bisect_left(diag, -target, key=neg), len(diag) - 1) - 1
        acc = diag[s]
        for j in range(s + 1):
            acc += math.log1p(-self._c(s - j, j))
            if acc <= target:
                break
        return cantor_pair(s - j, j)

    def sample(self, src: RandomSource | int) -> PyramidalSample:
        src = as_source(src)
        k = self.sample_truncation_index(src)
        if k is None:
            return PyramidalSample({}, self.params, self.conv, src.seed, None)
        i0, j0 = cantor_unpair(k)
        eps0 = self.conv.epsilon(i0, j0)
        g0 = 1 if eps0 == 1 else 1 + src.geometric(self.params.c(i0, j0, eps0))
        s0 = i0 + j0
        a = [self.params.a[i] for i in range(s0 + 1)]
        b = [self.params.b[j] for j in range(s0 + 1)]
        # on an anti-diagonal s, box (s - j, j) draws a geometric (eps = -1)
        # by the parities of s and j alone
        flags = [[self.conv.epsilon(s - j, j) == -1 for j in (0, 1)] for s in (0, 1)]
        draw = src.row_drawer()
        rows = [[] for _ in range(s0 + 1)]  # rows[j][i]: the input of box (i, j)
        for s in range(s0 + 1):  # the boxes before K in Cantor order: j rising
            n = s + 1 if s < s0 else j0
            odds = list(map(mul, a[s::-1], b[:n]))
            geometric = (flags[s % 2] * (n // 2 + 1))[:n]
            for row, g in zip(rows, draw(variates(odds, geometric), n)):
                row.append(g)  # box (s - j, j) is entry s - j of row j
        rows[j0].append(g0)
        lambdas = grow_pyramidal(self.conv, rows, s0 + 1)
        return PyramidalSample(lambdas, self.params, self.conv, src.seed, k)


def grow_pyramidal(convention: WordConvention, rows: List[list], m: int) -> Dict[int, Partition]:
    """Grow the m x m corner: the growth sweep over the finite word
    ``truncation_word(convention, m)``, whose box (u, v) is corner box
    (m - u, m - v).  ``rows[j][i]`` is the input of corner box (i, j) for
    j < m; an entry past the end of a list is 0.  Returns the nonempty
    lambda(k), keyed by k."""
    plan = precompute_par(truncation_word(convention, m), (0,) * (2 * m))

    def row_input(v: int, stop: int) -> list:
        row = rows[m - v]  # boxes (1, v) .. (stop, v) are entries stop - 1 .. 0
        return [0] * (stop - len(row)) + row[stop - 1 :: -1]

    lambdas = grow_profile(plan, row_input)
    return {k - m: lam for k, lam in enumerate(lambdas) if lam}


def unbounded_schur_sample(
    params: PyramidalParameters,
    convention: WordConvention,
    src: RandomSource | int,
) -> PyramidalSample:
    """One exact sample of the pyramidal Schur process."""
    return PyramidalSampler(params, convention).sample(src)


def truncation_word(convention: WordConvention, m: int) -> Word:
    """The 2m-symbol finite word of the process truncated at a_i = b_i = 0
    for i >= m."""
    lefts = (convention.left[i % 2] for i in range(m - 1, -1, -1))
    return (*lefts, *(convention.right[j % 2] for j in range(m)))


def rsk_shape(letters: list) -> Partition:
    """Shape of the RSK insertion tableau of a word, by Schensted row
    insertion; it equals the shape of the word's growth diagram (Fomin)."""
    rows: list = []
    for x in letters:
        for row in rows:
            k = bisect_right(row, x)
            if k == len(row):
                row.append(x)
                break
            row[k], x = x, row[k]
        else:
            rows.append([x])
    return tuple(len(row) for row in rows)


def _check_word_mean(name: str, mean: float) -> None:
    """Refuse, before any draw, a Poisson mean past the longest word the
    package expands: RSK inserts a word of about that many letters."""
    if mean > words.MAX_WORD_LENGTH:
        raise ValueError(
            f"{name} = {mean!r} exceeds {words.MAX_WORD_LENGTH}, the longest word "
            "this package expands; RSK would insert a word of about that many letters"
        )


def plancherel_sample(theta: float, src: RandomSource | int) -> Partition:
    """Poissonized Plancherel measure: P(lambda) ~ theta^n (f^lambda / n!)^2.

    Draw N ~ Poisson(theta), insert a uniform N-permutation by RSK, and
    keep the shape.  A theta above ``words.MAX_WORD_LENGTH`` is refused.
    """
    src = as_source(src)
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be positive and finite, got {theta!r}")
    _check_word_mean("theta", theta)
    n = src.poisson(theta)
    perm = src.permutation(n)
    return rsk_shape(perm)


def mixed_plancherel_sample(a: float, bs, src: RandomSource | int) -> Partition:
    """Mixed exponential/ordinary specialization:
    P(lambda) ~ a^|lambda| (f^lambda / |lambda|!) s_lambda(b_0, b_1, ...).

    Each line i carries an independent Poisson(a * b_i) point count; points
    are ordered uniformly in time and the word of their lines is inserted
    by RSK.  A mean a * sum(b) above ``words.MAX_WORD_LENGTH`` is refused.
    """
    src = as_source(src)
    if not (_fits_float(a) and a > 0):
        raise ValueError(f"need a finite a > 0, got a={a!r}")
    bs = ParamSeq.finite(bs).values  # the line intensities
    _check_word_mean("a * sum(b)", a * sum(bs))
    letters: list = []
    for i, b in enumerate(bs):
        letters.extend([i] * src.poisson(a * b))
    src.shuffle(letters)
    return rsk_shape(letters)

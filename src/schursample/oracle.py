"""Brute-force ground truth: support enumeration, exact probabilities,
statistical distances, and exhaustive bijection certification.

Everything here is independent of the growth-rule implementations (except
``verify_bijections``, whose entire purpose is to exercise them): interlaced
sequences are enumerated directly from the strip definitions, and weights are
exact rationals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from numbers import Rational
from typing import Dict, List, Mapping, Sequence, Tuple

from .partitions import (
    EMPTY,
    Partition,
    conjugate,
    has_even_parts,
    interlaces_h,
    part,
    partitions_up_to,
)
from . import rules
from .words import Rel, Word, q_volume_parameters
from .zfun import MODE_EVEN_COLUMNS, MODE_FREE


# ---------------------------------------------------------------------------
# strip enumeration (the oracle's own, no growth rules involved)

def horizontal_strips_above(mu: Partition, budget: int) -> List[Partition]:
    """All nu >= mu with nu/mu a horizontal strip and |nu| - |mu| <= budget."""
    out: List[Partition] = []
    ell = len(mu)

    def rec(i: int, acc: List[int], left: int):
        if i > ell + 1:
            out.append(tuple(v for v in acc if v))
            return
        lo = part(mu, i)
        hi = part(mu, i - 1) if i > 1 else lo + left
        hi = min(hi, lo + left)
        for v in range(lo, hi + 1):
            acc.append(v)
            rec(i + 1, acc, left - (v - lo))
            acc.pop()

    rec(1, [], budget)
    return out


def vertical_strips_above(mu: Partition, budget: int) -> List[Partition]:
    """All nu with 0 <= nu_i - mu_i <= 1 and |nu| - |mu| <= budget.

    Below the stored rows of mu the strip may continue with any number of
    extra rows of length 1 (a column tail).
    """
    out: List[Partition] = []
    ell = len(mu)

    def rec(i: int, acc: List[int], left: int):
        if i > ell:
            for k in range(left + 1):
                out.append(tuple(v for v in acc if v) + (1,) * k)
            return
        lo = part(mu, i)
        prev = acc[-1] if acc else None
        for d in (0, 1):
            v = lo + d
            if d == 1 and (left == 0 or (prev is not None and v > prev)):
                continue
            acc.append(v)
            rec(i + 1, acc, left - d)
            acc.pop()

    rec(1, [], max(budget, 0))
    return out


def horizontal_strips_below(mu: Partition) -> List[Partition]:
    """All kappa <= mu with mu/kappa a horizontal strip (finite set)."""
    rows = product(*(range(lo, hi + 1) for hi, lo in zip(mu, mu[1:] + (0,))))
    return [tuple(v for v in kappa if v) for kappa in rows]


def vertical_strips_below(mu: Partition) -> List[Partition]:
    out: List[Partition] = []
    ell = len(mu)

    def rec(i: int, acc: List[int]):
        if i > ell:
            out.append(tuple(v for v in acc if v))
            return
        prev = acc[-1] if acc else None
        for d in (0, 1):
            v = part(mu, i) - d
            if v < 0 or (prev is not None and v > prev):
                continue
            acc.append(v)
            rec(i + 1, acc)
            acc.pop()

    rec(1, [])
    return out


def extensions(mu: Partition, rel: Rel, cap: int) -> List[Partition]:
    """All lam with ``mu rel lam`` and |lam| <= cap."""
    budget = cap - sum(mu)
    if rel == Rel.LH:
        return horizontal_strips_above(mu, budget)
    if rel == Rel.LV:
        return vertical_strips_above(mu, budget)
    if rel == Rel.RH:
        return horizontal_strips_below(mu)
    return vertical_strips_below(mu)


# ---------------------------------------------------------------------------
# hook-class caps: which partitions can appear at a given position

def _hook_counts(word: Word) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """For each position i, the (plain, primed) counts of the left steps up
    to i and of the right steps after it.

    A slice reached from empty by a plain and b primed left steps satisfies
    lam_{a+1} <= b, and symmetrically from the right.
    """
    def running(steps, left: bool) -> List[Tuple[int, int]]:
        out, a, b = [], 0, 0
        for s in steps:
            if s.left == left:
                a, b = a + (not s.primed), b + s.primed
            out.append((a, b))
        return out

    return list(zip(running(word, True), running(word[:0:-1], False)[::-1] + [(0, 0)]))


def slice_cap(word: Word) -> int:
    """An upper bound on |lambda(i)|, valid when the word has finite support
    (no plain-plain or primed-primed left/right pair).

    If a plain left step precedes position i, every later right step is
    primed and can only lower the width by one, so width <= #primed rights
    after; otherwise width <= #primed lefts before.  Heights are bounded by
    the conjugate argument.
    """
    best = 0
    for (al, bl), (ar, br) in _hook_counts(word)[:-1]:
        width = br if al > 0 else bl
        height = ar if bl > 0 else al
        best = max(best, width * height)
    return best


def word_has_finite_support(word: Word) -> bool:
    """No right step follows a left step of the same primedness."""
    seen = set()
    for s in word:
        if s.left:
            seen.add(s.primed)
        elif s.primed in seen:
            return False
    return True


# ---------------------------------------------------------------------------
# the slice walk behind every support: a forward DP and an enumerator, both
# taking the end condition ``free``.  None is the closed end: the last slice
# is empty, so each slice must fit the hook of the right steps after it.  A
# pair (t, mode) is the free end: a last slice lam obeying the mode weighs
# t^|lam|.

def _end_weight(lam: Partition, free):
    if free is None:
        return int(lam == EMPTY)
    t, mode = free
    if mode != MODE_FREE and not has_even_parts(lam, mode == MODE_EVEN_COLUMNS):
        return 0
    return t ** sum(lam)


def _steps(word: Word, zz: tuple, cap: int, free):
    """steps(i, mu) lists each slice lam allowed after mu at step i with its
    factor z_i^||lam| - |mu||."""
    room = [right if free is None else None for _, right in _hook_counts(word)]
    factor = lru_cache(maxsize=None)(lambda i, k: zz[i] ** k)
    return lambda i, mu: [
        (lam, factor(i, abs(sum(lam) - sum(mu))))
        for lam in extensions(mu, word[i], cap)
        if room[i] is None or part(lam, room[i][0] + 1) <= room[i][1]
    ]


def _slice_dp(word: Word, zz: tuple, cap: int, free) -> Fraction:
    """Total weight of the sequences with every slice at most ``cap``."""
    steps = _steps(word, zz, cap, free)
    states: Dict[Partition, Fraction] = {EMPTY: Fraction(1)}
    for i in range(len(word)):
        new: Dict[Partition, Fraction] = {}
        for mu, w in states.items():
            for lam, dz in steps(i, mu):
                new[lam] = new.get(lam, 0) + w * dz
        states = new
    return sum((w * _end_weight(lam, free) for lam, w in states.items()), Fraction(0))


def _sequences(word: Word, zz: tuple, cap: int, free):
    """Yield (sequence, weight) for every sequence that _slice_dp sums."""
    steps = _steps(word, zz, cap, free)

    def rec(seq: List[Partition], w: Fraction):
        if len(seq) > len(word):
            end = _end_weight(seq[-1], free)
            if end:  # w * 1 is w: a closed end costs no product
                yield tuple(seq), w * end if end != 1 else w
            return
        for lam, dz in steps(len(seq) - 1, seq[-1]):
            yield from rec(seq + [lam], w * dz)

    return rec([EMPTY], Fraction(1))


# ---------------------------------------------------------------------------
# weighted support

@dataclass
class WeightedSupport:
    """Exact weights of every interlaced sequence within the weight cap,
    plus a rational upper bound on the mass that the cap missed."""

    word: Word
    z: tuple
    cap: int
    entries: Dict[tuple, Fraction]
    tail_bound: Fraction

    @cached_property
    def total(self) -> Fraction:
        return _slice_dp(self.word, self.z, self.cap, None)

    @property
    def complete(self) -> bool:
        return self.tail_bound == 0


class SupportSizeError(RuntimeError):
    pass


def _as_fractions(z) -> tuple:
    out = []
    for v in z:
        if not isinstance(v, Rational):
            raise TypeError("the oracle works with exact rational parameters")
        out.append(Fraction(v))
    return tuple(out)


def sequence_weight(word: Word, z: Sequence, lambdas: Sequence[Partition]) -> Fraction:
    """Exact Boltzmann weight prod z_i^(|weight(lam_i) - weight(lam_{i-1})|),
    recomputed from the sequence alone."""
    zz = _as_fractions(z)
    w = Fraction(1)
    for i in range(1, len(lambdas)):
        w *= zz[i - 1] ** abs(sum(lambdas[i]) - sum(lambdas[i - 1]))
    return w


def enumerate_support(
    word: Sequence[Rel],
    z: Sequence,
    cap: int,
    max_entries: int = 2_000_000,
    refine_tail_to: int = 0,
) -> WeightedSupport:
    """All word-interlaced sequences with every |lambda(i)| <= cap, with the
    tail bound of :func:`escape_mass_bound`."""
    word = tuple(word)
    zz = _as_fractions(z)
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    entries: Dict[tuple, Fraction] = {}
    for seq, w in _sequences(word, zz, cap, None):
        if len(entries) >= max_entries:
            raise SupportSizeError(f"support enumeration exceeded {max_entries} entries")
        entries[seq] = w
    tail = escape_mass_bound(word, zz, cap, refine_to=refine_tail_to)
    return WeightedSupport(word, zz, cap, entries, tail)


def sum_weights_dp(word: Sequence[Rel], z: Sequence, cap: int) -> Fraction:
    """Exact sum of weights over the same capped support, without
    materializing the sequences."""
    return _slice_dp(tuple(word), _as_fractions(z), cap, None)


# ---------------------------------------------------------------------------
# escape-mass (tail) bounds via a one-dimensional weight-path relaxation

_S_DEFAULT_Z = 80
_S_DEFAULT_Q = 160


@lru_cache(maxsize=None)
def _p_le_rows(r: int, s_max: int) -> tuple:
    """Table of #partitions of t into at most r parts, t = 0..s_max."""
    row = [1] + [0] * s_max
    for k in range(1, r + 1):
        for t in range(k, s_max + 1):
            row[t] += row[t - k]
        # standard bounded-parts recurrence: p_{<=k}(t) = p_{<=k-1}(t) + p_{<=k}(t-k)
    return tuple(row)


@lru_cache(maxsize=None)
def _hook_count_table(a: int, b: int, s_max: int) -> tuple:
    """Upper bounds on #partitions of t inside the (a, b) hook class."""
    pa = _p_le_rows(a, s_max)
    pb = _p_le_rows(b, s_max)
    out = []
    for t in range(s_max + 1):
        out.append(sum(pa[s] * pb[t - s] for s in range(t + 1)))
    return tuple(out)


def _interior_count_tables(word: Word, s_max: int) -> List[tuple]:
    tables = []
    for (al, bl), (ar, br) in _hook_counts(word)[:-1]:
        tl = _hook_count_table(al, bl, s_max)
        tr = _hook_count_table(ar, br, s_max)
        tables.append(tuple(min(x, y) for x, y in zip(tl, tr)))
    return tables


def _path_mass(word, zz, q, bound: int, tables, s_max: int) -> List[float]:
    """1-D relaxation: for each final value t, the sum over slice-weight
    paths (all values <= bound) of an upper bound on the sequence mass
    carrying that weight profile.

    Steps cost z_i^|difference| in z-mode and nothing in q-mode; the value t
    after step i picks up the partition-count cap ``tables[i][t]`` (times
    q^t in q-mode) wherever a table is given.
    """
    cur = [0.0] * (s_max + 1)
    cur[0] = 1.0
    qq = float(q) if q is not None else 1.0
    for i, rel in enumerate(word):
        step = 1.0 if q is not None else float(zz[i])
        nxt = [0.0] * (s_max + 1)
        run = 0.0
        for t in range(bound + 1) if rel.left else range(bound, -1, -1):
            run = run * step + cur[t]
            nxt[t] = run
        if i < len(tables):
            table = tables[i]
            qpow = 1.0
            for t in range(bound + 1):
                nxt[t] *= table[t] * qpow
                qpow *= qq
        cur = nxt
    return cur


def _crude_beyond(degree: int, x: float, s_max: int) -> float:
    """Bound on sum_{t > s_max} (t + 1)^degree x^t, the mass of paths whose
    maximum exceeds s_max."""
    total = 0.0
    t = s_max + 1
    term = (t + 1) ** degree * x**t
    while True:
        # the term ratio decreases in t, so once it certifies below 1 the
        # remaining sum is dominated by a geometric series at that ratio
        ratio = x * ((t + 2) / (t + 1)) ** degree
        if ratio < 0.95:
            return total + term / (1 - ratio)
        total += term
        t += 1
        term = (t + 1) ** degree * x**t
        if t > 100 * (s_max + 100):
            raise ArithmeticError("crude tail bound does not converge")


def _volume_q(word: Word, zz: tuple):
    """The q with zz == q_volume_parameters(word, q) for some 0 < q < 1, or
    None.  The first parameter fixes q: it is q^-1 on a left symbol and q
    on a right one."""
    if not word or zz[0] == 0:
        return None
    q = 1 / zz[0] if word[0].left else zz[0]
    return q if 0 < q < 1 and zz == q_volume_parameters(word, q) else None


def escape_mass_bound(word: Word, z, cap: int, refine_to: int = 0) -> Fraction:
    """Rational upper bound on the weight of sequences with some slice
    heavier than ``cap``.

    For finite-support words the bound is 0 once cap covers the support.
    Otherwise a one-dimensional relaxation over slice weights is summed up
    to an internal horizon, plus a certified polynomial-times-geometric
    bound beyond it; the float arithmetic is inflated by 1e-6 before
    rationalizing, which dwarfs the accumulated rounding error.  When z is
    exactly the q^Volume specialization of the word, the relaxation weighs
    slice weights by q (q-mode); otherwise it weighs the steps by z, which
    needs every z_i < 1 (z-mode).

    With ``refine_to`` > cap, the mass with maxima in (cap, refine_to] is
    computed exactly by the slice DP and only the remainder is relaxed,
    which tightens the bound by the multiplicity slack of the relaxation.
    """
    word = tuple(word)
    zz = _as_fractions(z)
    if word_has_finite_support(word) and cap >= slice_cap(word):
        return Fraction(0)
    exact_part = Fraction(0)
    if refine_to > cap:
        exact_part = sum_weights_dp(word, zz, refine_to) - sum_weights_dp(word, zz, cap)
        cap = refine_to
    q = _volume_q(word, zz)
    s_max = _S_DEFAULT_Q if q is not None else _S_DEFAULT_Z
    s_max = max(s_max, 2 * cap + 2)
    hooks = _hook_counts(word)[:-1]
    tables = _interior_count_tables(word, s_max)
    full = _path_mass(word, zz, q, s_max, tables, s_max)[0]
    capped = _path_mass(word, zz, q, cap, tables, s_max)[0]
    degree = (len(word) - 1) + sum(
        max(min(al + bl, ar + br) - 1, 0) for (al, bl), (ar, br) in hooks
    )
    if q is not None:
        x = float(q)
    else:
        zmax = max((float(v) for v in zz), default=0.0)
        if zmax >= 1:
            raise ValueError("z-mode tail bound needs all parameters < 1")
        x = zmax * zmax
    esc = max(full - capped, 0.0) + _crude_beyond(degree, x, s_max)
    # the difference of two nearly equal DP sums can cancel below the float
    # precision; full * 1e-12 strictly dominates that rounding loss
    bound = (esc + full * 1e-12) * (1 + 1e-6) + 1e-295
    return exact_part + Fraction(bound).limit_denominator(10**30) + Fraction(1, 10**25)


# ---------------------------------------------------------------------------
# right-free (symmetric) support

@dataclass
class SymmetricSupport:
    """Exact weights t^|free| * prod z^|diffs| of right-free sequences with
    every slice within the cap and the free end obeying the mode.  The total
    comes from the slice DP; the entries are enumerated on first access."""

    word: Word
    z: tuple
    t: Fraction
    mode: str
    cap: int
    tail_bound: Fraction

    @cached_property
    def entries(self) -> Dict[tuple, Fraction]:
        return dict(_sequences(self.word, self.z, self.cap, (self.t, self.mode)))

    @cached_property
    def total(self) -> Fraction:
        return _slice_dp(self.word, self.z, self.cap, (self.t, self.mode))


def enumerate_symmetric_support(
    word: Sequence[Rel], z: Sequence, t, cap: int, mode: str = MODE_FREE
) -> SymmetricSupport:
    """All right-free word-interlaced sequences (the free end included) with
    slices at most ``cap``."""
    word = tuple(word)
    zz = _as_fractions(z)
    tt = Fraction(t)
    tail = _symmetric_escape_bound(word, zz, tt, cap)
    return SymmetricSupport(word, zz, tt, mode, cap, tail)


def _symmetric_escape_bound(word: Word, zz, tt: Fraction, cap: int) -> Fraction:
    """Upper bound on the right-free mass with some slice above the cap;
    needs all z_i < 1 and t <= 1."""
    if tt > 1:
        raise ValueError("tail bound needs t <= 1")
    zmax = max((float(v) for v in zz), default=0.0)
    if zmax >= 1:
        raise ValueError("tail bound needs all parameters < 1")
    # hook caps from the left side only (the right end is free)
    left_counts = [left for left, _ in _hook_counts(word)]
    degree = len(word) + sum(a + b for a, b in left_counts)
    tf = float(tt)

    def parts(s_max: int) -> Tuple[float, float]:
        """The path part (maxima in (cap, s_max]) and the crude part (maxima
        beyond s_max) of the bound at horizon s_max."""
        tables = [_hook_count_table(a, b, s_max) for a, b in left_counts]

        def mass(bound: int) -> float:
            cur = _path_mass(word, zz, None, bound, tables, s_max)
            return sum(w * tf**v for v, w in enumerate(cur))

        full = mass(s_max)
        path = max(full - mass(cap), 0.0) + full * 1e-12
        return path, _crude_beyond(degree, zmax, s_max)

    # the crude part falls and the path part rises with the horizon, so
    # double it until the path relaxation carries the bound
    s_max = max(_S_DEFAULT_Z, 2 * cap + 2)
    path, crude = parts(s_max)
    while crude > path:
        s_max *= 2
        path, crude = parts(s_max)
    bound = (path + crude) * (1 + 1e-6) + 1e-295
    return Fraction(bound).limit_denominator(10**30) + Fraction(1, 10**25)


# ---------------------------------------------------------------------------
# probabilities and distances

def exact_probability(lambdas: Sequence[Partition], support: WeightedSupport) -> Fraction:
    key = tuple(lambdas)
    if key not in support.entries:
        raise KeyError(f"sequence not in enumerated support: {key}")
    return support.entries[key] / support.total


def tv_distance(empirical: Mapping[tuple, int], support: WeightedSupport) -> float:
    """Half L1 distance between the empirical law and the truncated exact
    law, plus any empirical mass falling outside the support."""
    nsamples = sum(empirical.values())
    if nsamples == 0:
        raise ValueError("empty empirical histogram")
    total = support.total
    acc = 0.0
    overflow = 0.0
    for key, count in empirical.items():
        if key in support.entries:
            continue
        overflow += count / nsamples
    for key, weight in support.entries.items():
        phat = empirical.get(key, 0) / nsamples
        acc += abs(phat - float(weight / total))
    return acc / 2.0 + overflow


def chi_square_statistic(
    empirical: Mapping[tuple, int], probs: Mapping[tuple, float], nsamples: int
) -> Tuple[float, int]:
    """Pearson statistic against the given cell probabilities plus an
    implicit overflow cell; returns (statistic, degrees of freedom)."""
    stat = 0.0
    covered = 0.0
    seen = 0
    for key, p in probs.items():
        exp = nsamples * p
        obs = empirical.get(key, 0)
        covered += p
        if exp > 0:
            stat += (obs - exp) ** 2 / exp
            seen += 1
    out_obs = nsamples - sum(empirical.get(k, 0) for k in probs)
    out_exp = nsamples * max(1.0 - covered, 0.0)
    if out_exp > 0:
        stat += (out_obs - out_exp) ** 2 / out_exp
        seen += 1
    return stat, seen - 1


def chi_square_pvalue(stat: float, dof: int) -> float:
    from scipy.stats import chi2

    return float(chi2.sf(stat, dof))


def hook_length_f(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    n = sum(lam)
    conj = conjugate(lam)
    out = math.factorial(n)
    for i, row in enumerate(lam):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            out //= hook
    return out


# ---------------------------------------------------------------------------
# bijection certification

@dataclass
class BijectionReport:
    checked: int = 0
    hit_targets: int = 0
    counterexamples: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def _verify_box_type(kind: str, max_weight: int, report: BijectionReport) -> None:
    parts = partitions_up_to(max_weight)
    pre_l, pre_m = rules.BOX_PRE[kind]
    post_l, post_m = rules.BOX_POST[kind]
    rand_range = (0, 1) if kind in ("HV", "VH") else range(2 * max_weight + 1)
    for lam in parts:
        for mu in parts:
            image = {}
            for kap in parts:
                if not (pre_l(lam, kap) and pre_m(mu, kap)):
                    continue
                for r in rand_range:
                    nu = rules.grow(kind, lam, mu, kap, r)
                    if sum(lam) + sum(mu) + r != sum(kap) + sum(nu):
                        report.counterexamples.append(
                            f"{kind} weight balance fails at {lam},{mu},{kap},{r}"
                        )
                    if nu in image:
                        report.counterexamples.append(
                            f"{kind} not injective at {lam},{mu}: {image[nu]} and "
                            f"{(kap, r)} both give {nu}"
                        )
                    image[nu] = (kap, r)
                    report.checked += 1
            # surjectivity over the reachable weight window
            for nu in partitions_up_to(2 * max_weight):
                if not (post_l(nu, lam) and post_m(nu, mu)):
                    continue
                if kind in ("HV", "VH") and nu not in image:
                    report.counterexamples.append(
                        f"{kind} misses target {nu} from {lam},{mu}"
                    )
                if kind in ("HH", "VV"):
                    try:
                        kap, r = rules.shrink(kind, lam, nu, mu)
                    except rules.GrowthError as exc:
                        report.counterexamples.append(
                            f"{kind} target {nu} from {lam},{mu} has no preimage: {exc}"
                        )
                        continue
                    if rules.grow(kind, lam, mu, kap, r) != nu:
                        report.counterexamples.append(
                            f"{kind} shrink/grow roundtrip fails at {lam},{mu},{nu}"
                        )
                report.hit_targets += 1


def _verify_diagonal(kind: str, max_weight: int, report: BijectionReport) -> None:
    parts = partitions_up_to(max_weight)
    parity_ok = lambda lam: kind == "H" or has_even_parts(lam, kind == "HEC")
    for mu in parts:
        image = {}
        for kap in parts:
            if not interlaces_h(mu, kap) or not parity_ok(kap):
                continue
            grange = (0,) if kind == "HEC" else range(2 * max_weight + 1)
            for g in grange:
                nu = rules.grow_diag(kind, mu, kap, g)
                if kind == "H":
                    balanced = 2 * sum(mu) + g == sum(kap) + sum(nu)
                elif kind == "HER":
                    balanced = 2 * sum(mu) + 2 * g == sum(kap) + sum(nu)
                else:
                    balanced = 2 * sum(mu) == sum(kap) + sum(nu)
                if not balanced:
                    report.counterexamples.append(
                        f"diag {kind} weight balance fails at {mu},{kap},{g}"
                    )
                if nu in image:
                    report.counterexamples.append(
                        f"diag {kind} not injective at {mu}: {image[nu]} vs {(kap, g)}"
                    )
                image[nu] = (kap, g)
                report.checked += 1
        for nu in partitions_up_to(2 * max_weight):
            if not interlaces_h(nu, mu) or not parity_ok(nu):
                continue
            try:
                kap, g = rules.shrink_diag(kind, mu, nu)
            except rules.GrowthError as exc:
                report.counterexamples.append(
                    f"diag {kind} target {nu} from {mu} unreached: {exc}"
                )
                continue
            report.hit_targets += 1


def verify_bijections(max_weight: int = 6) -> BijectionReport:
    """Exhaustively certify all growth rules (the four box types and the
    three diagonal reflection rules) up to the given weight: injectivity,
    surjectivity onto the valid targets, inverse round trips, and weight
    balances.  Every rule runs through the checked entry points
    ``rules.grow`` and ``rules.grow_diag``, which also assert the HV block
    interleaving."""
    report = BijectionReport()
    for kind in ("HH", "HV", "VH", "VV"):
        _verify_box_type(kind, max_weight, report)
    for kind in ("H", "HER", "HEC"):
        _verify_diagonal(kind, max_weight, report)
    return report

"""Brute-force ground truth: support enumeration, exact probabilities,
statistical distances, and exhaustive bijection certification.

Everything here is independent of the growth-rule implementations (except
``verify_bijections``, whose entire purpose is to exercise them): interlaced
sequences are enumerated directly from the strip definitions, and weights are
exact rationals.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from numbers import Rational
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .partitions import (
    EMPTY,
    Partition,
    Record,
    conjugate,
    has_even_parts,
    interlaces_h,
    interlaces_v,
    part,
    partitions_up_to,
)
from . import rules
from .words import Rel, Word, q_volume_parameters


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
    """All nu with 0 <= nu_i - mu_i <= 1 and |nu| - |mu| <= budget: the
    conjugates of the horizontal strips above the conjugate of mu."""
    return [conjugate(nu) for nu in horizontal_strips_above(conjugate(mu), budget)]


def horizontal_strips_below(mu: Partition) -> List[Partition]:
    """All kappa <= mu with mu/kappa a horizontal strip (finite set)."""
    rows = product(*(range(lo, hi + 1) for hi, lo in zip(mu, mu[1:] + (0,))))
    return [tuple(v for v in kappa if v) for kappa in rows]


def vertical_strips_below(mu: Partition) -> List[Partition]:
    """All kappa with 0 <= mu_i - kappa_i <= 1, by conjugation."""
    return [conjugate(k) for k in horizontal_strips_below(conjugate(mu))]


def extensions(mu: Partition, rel: Rel, cap: int) -> List[Partition]:
    """All lam with ``mu rel lam`` and |lam| <= cap.  The slice walk starts
    at the empty slice and keeps every slice within cap >= 0, so the budget
    it passes is never negative."""
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
# pair (t, parity) is the free end: a last slice lam with the parity of the
# boundary mode weighs t^|lam|.

def _end_weight(lam: Partition, free):
    if free is None:
        return int(lam == EMPTY)
    t, parity = free
    return t ** sum(lam) if has_even_parts(lam, parity) else 0


def _steps(word: Word, zz: tuple, cap: int, free):
    """steps(i, mu) lists each slice lam allowed after mu at step i with its
    factor z_i^||lam| - |mu||."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
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

class Support(Record):
    """Exact weights of the word-interlaced sequences with every slice
    within the weight cap, plus a rational upper bound on the mass that the
    cap missed.  ``free`` is the end condition of the slice walk: None for
    the closed end, or (t, parity) for the free end, where a last slice lam
    with the parity of the boundary mode weighs t^|lam|.  The total comes
    from the slice DP and the entries are enumerated on first access."""

    def __init__(self, word: Word, z: tuple, cap: int, free: Optional[Tuple[Fraction, str]],
                 tail_bound: Fraction):
        self.word = word
        self.z = z
        self.cap = cap
        self.free = free
        self.tail_bound = tail_bound

    @cached_property
    def entries(self) -> Dict[tuple, Fraction]:
        return dict(_sequences(self.word, self.z, self.cap, self.free))

    @cached_property
    def total(self) -> Fraction:
        return _slice_dp(self.word, self.z, self.cap, self.free)

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
) -> Support:
    """All word-interlaced sequences with every |lambda(i)| <= cap, with the
    tail bound of :func:`escape_mass_bound`.  The entries are enumerated
    here, so that ``max_entries`` guards this call."""
    word = tuple(word)
    zz = _as_fractions(z)
    entries: Dict[tuple, Fraction] = {}
    for seq, w in _sequences(word, zz, cap, None):
        if len(entries) >= max_entries:
            raise SupportSizeError(f"support enumeration exceeded {max_entries} entries")
        entries[seq] = w
    sup = Support(word, zz, cap, None, escape_mass_bound(word, zz, cap, refine_tail_to))
    sup.entries = entries
    return sup


def sum_weights_dp(word: Sequence[Rel], z: Sequence, cap: int) -> Fraction:
    """Exact sum of weights over the same capped support, without
    materializing the sequences."""
    return _slice_dp(tuple(word), _as_fractions(z), cap, None)


def enumerate_symmetric_support(
    word: Sequence[Rel], z: Sequence, t, cap: int, mode: str = "free"
) -> Support:
    """All right-free word-interlaced sequences (the free end included) with
    slices at most ``cap``; the tail bound needs all z_i < 1 and t <= 1."""
    parity, _ = rules.boundary_mode(mode)
    word = tuple(word)
    zz = _as_fractions(z)
    free = (Fraction(t), parity)
    return Support(word, zz, cap, free, _tail_bound(word, zz, cap, free))


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


def _tail_bound(word: Word, zz: tuple, cap: int, free) -> Fraction:
    """Rational upper bound on the mass of the sequences with some slice
    heavier than ``cap``, for the end condition ``free`` of the slice walk.

    A one-dimensional relaxation over slice weights is summed up to a
    horizon (the path part), plus a certified polynomial-times-geometric
    bound on the paths whose maximum lies beyond it (the crude part).  The
    crude part falls and the path part rises with the horizon, so the
    horizon doubles until the path part carries the bound.  The float
    arithmetic is inflated by 1e-6 before rationalizing, which dwarfs the
    accumulated rounding error.

    At the closed end a slice fits both the hook class of the left steps
    before it and that of the right steps after it, and the path must end
    at 0.  When z is exactly the q^Volume specialization of the word, the
    relaxation weighs slice weights by q (q-mode); otherwise it weighs the
    steps by z, which needs every z_i < 1 (z-mode).  At the free end only
    the left hook class bounds a slice, a path ending at v weighs t^v, which
    needs t <= 1, and the relaxation is in z-mode.
    """
    hooks = _hook_counts(word)
    zmax = max((float(v) for v in zz), default=0.0)
    if free is None:
        q = _volume_q(word, zz)
        hooks = hooks[:-1]  # the last slice is empty
        counts = lambda s_max: [
            tuple(map(min, _hook_count_table(*left, s_max), _hook_count_table(*right, s_max)))
            for left, right in hooks
        ]
        end = lambda cur: cur[0]
        degree = (len(word) - 1) + sum(
            max(min(al + bl, ar + br) - 1, 0) for (al, bl), (ar, br) in hooks
        )
        x = float(q) if q is not None else zmax * zmax
    else:
        if free[0] > 1:
            raise ValueError("tail bound needs t <= 1")
        q, t = None, float(free[0])
        counts = lambda s_max: [_hook_count_table(*left, s_max) for left, _ in hooks]
        end = lambda cur: sum(w * t**v for v, w in enumerate(cur))
        degree = len(word) + sum(al + bl for (al, bl), _ in hooks)
        x = zmax
    if q is None and zmax >= 1:
        raise ValueError("z-mode tail bound needs all parameters < 1")

    def parts(s_max: int) -> Tuple[float, float, float]:
        """The path part (maxima in (cap, s_max]), its rounding slack, and
        the crude part (maxima beyond s_max) of the bound."""
        tables = counts(s_max)
        full = end(_path_mass(word, zz, q, s_max, tables, s_max))
        capped = end(_path_mass(word, zz, q, cap, tables, s_max))
        # the difference of two nearly equal DP sums can cancel below the
        # float precision; full * 1e-12 strictly dominates that rounding loss
        return max(full - capped, 0.0), full * 1e-12, _crude_beyond(degree, x, s_max)

    s_max = max(_S_DEFAULT_Q if q is not None else _S_DEFAULT_Z, 2 * cap + 2)
    path, slack, crude = parts(s_max)
    while crude > path + slack:
        s_max *= 2
        path, slack, crude = parts(s_max)
    bound = (path + crude + slack) * (1 + 1e-6) + 1e-295
    return Fraction(bound).limit_denominator(10**30) + Fraction(1, 10**25)


def escape_mass_bound(word: Word, z, cap: int, refine_to: int = 0) -> Fraction:
    """Rational upper bound on the weight of sequences with some slice
    heavier than ``cap``.

    For finite-support words the bound is 0 once cap covers the support;
    otherwise it is the closed-end tail bound.

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
    return exact_part + _tail_bound(word, zz, cap, None)


# ---------------------------------------------------------------------------
# probabilities and distances

def exact_probability(lambdas: Sequence[Partition], support: Support) -> Fraction:
    key = tuple(lambdas)
    if key not in support.entries:
        raise KeyError(f"sequence not in enumerated support: {key}")
    return support.entries[key] / support.total


def tv_distance(empirical: Mapping[tuple, int], support: Support) -> float:
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
    """The upper tail P(X >= stat) of a chi-square X on ``dof`` (an int)
    degrees of freedom, in closed form (Abramowitz & Stegun 26.4.4, 26.4.5).
    With y = stat / 2, a = dof / 2 and t(s) = e^-y y^s / Gamma(s + 1), it is
    t(a - 1) + t(a - 2) + ... down to t(0) for even dof, which is
    P(Poisson(y) < a), and down to t(1/2), plus erfc(sqrt(y)), for odd dof.
    For y < a it is 1 minus the lower tail t(a) + t(a + 1) + ..., whose
    terms fall from the first: a tail near 1 is then formed from a small
    sum, so it does not rise with stat by rounding.  Each term is formed in
    the log domain, so none underflows before the others are summed.  As
    ``scipy.stats.chi2.sf``: nan for dof <= 0 or a nan stat, 1.0 for
    stat <= 0 and 0.0 for stat = inf."""
    if dof <= 0 or stat != stat:
        return math.nan
    if stat <= 0 or stat == math.inf:
        return 1.0 if stat <= 0 else 0.0
    y, a = stat / 2, dof / 2
    log_y = math.log(y)
    term = lambda s: math.exp(s * log_y - y - math.lgamma(s + 1))
    if y < a:
        lower = [term(a)]
        while lower[-1] > 1e-17 * lower[0]:
            lower.append(term(a + len(lower)))
        return 1.0 - math.fsum(lower)
    head = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
    return math.fsum([head, *(term(a - n) for n in range(1, dof // 2 + 1))])


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

class BijectionReport(Record):
    def __init__(self, checked: int = 0, hit_targets: int = 0,
                 counterexamples: Optional[List[str]] = None):
        self.checked = checked
        self.hit_targets = hit_targets
        self.counterexamples = [] if counterexamples is None else counterexamples

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def _certify(
    label: str, grow, shrink, inputs, targets, outer: int, rand_weight: int,
    report: BijectionReport,
) -> None:
    """Certify one rule with its outer corners fixed: ``grow(kappa, rand)``
    must map the inputs injectively, balance outer + rand_weight * rand =
    |kappa| + |nu|, and every target must shrink to an input that grew to
    it.  ``shrink`` raises GrowthError for a target without a preimage."""
    image = {}
    for kap, r in inputs:
        nu = grow(kap, r)
        if outer + rand_weight * r != sum(kap) + sum(nu):
            report.counterexamples.append(f"{label}: weight balance fails at {kap},{r}")
        if nu in image:
            report.counterexamples.append(
                f"{label}: not injective, {image[nu]} and {(kap, r)} both give {nu}"
            )
        image[nu] = (kap, r)
        report.checked += 1
    for nu in targets:
        try:
            pre = shrink(nu)
        except rules.GrowthError as exc:
            report.counterexamples.append(f"{label}: target {nu} has no preimage: {exc}")
            continue
        if image.get(nu) != pre:
            report.counterexamples.append(
                f"{label}: target {nu} shrinks to {pre}, which does not grow to it"
            )
        report.hit_targets += 1


# a strip predicate -> the generators of the kappa below and the nu above
# that satisfy it: pred(lam, kappa) and pred(nu, lam)
_STRIPS = {
    interlaces_h: (horizontal_strips_below, horizontal_strips_above),
    interlaces_v: (vertical_strips_below, vertical_strips_above),
}


def _verify_box_type(kind: str, max_weight: int, report: BijectionReport) -> None:
    """Certify box rule ``kind`` at every corner (lam, mu) up to max_weight;
    the inputs kappa are generated below lam and the targets nu above lam,
    then filtered by their relation to mu."""
    parts = partitions_up_to(max_weight)
    pre_l, pre_m = rules.BOX_PRE[kind]
    post_l, post_m = rules.BOX_POST[kind]
    rands = (0, 1) if kind in ("HV", "VH") else range(2 * max_weight + 1)
    for lam in parts:
        below = _STRIPS[pre_l][0](lam)
        above = _STRIPS[post_l][1](lam, 2 * max_weight - sum(lam))
        for mu in parts:
            _certify(
                f"{kind} at {lam},{mu}",
                lambda kap, r: rules.grow(kind, lam, mu, kap, r),
                lambda nu: rules.shrink(kind, lam, nu, mu),
                [(kap, r) for kap in below if pre_m(mu, kap) for r in rands],
                [nu for nu in above if post_m(nu, mu)],
                sum(lam) + sum(mu), 1, report,
            )


def _verify_diagonal(mode: str, max_weight: int, report: BijectionReport) -> None:
    parity, diagonal = rules.boundary_mode(mode)
    _, kind, power = diagonal["HH"]
    parity_ok = lambda lam: has_even_parts(lam, parity)
    gs = range(2 * max_weight + 1) if power else (0,)
    for mu in partitions_up_to(max_weight):
        _certify(
            f"diag {kind} at {mu}",
            lambda kap, g: rules.grow_diag(kind, mu, kap, g),
            lambda nu: rules.shrink_diag(kind, mu, nu),
            [(kap, g) for kap in horizontal_strips_below(mu) if parity_ok(kap) for g in gs],
            [nu for nu in horizontal_strips_above(mu, 2 * max_weight - sum(mu)) if parity_ok(nu)],
            2 * sum(mu), power, report,
        )


def verify_bijections(max_weight: int = 6) -> BijectionReport:
    """Exhaustively certify all growth rules (the four box types and the
    three diagonal reflection rules) up to the given weight: injectivity,
    surjectivity onto the valid targets, inverse round trips, and weight
    balances.  Every rule runs through the checked entry points
    ``rules.grow`` / ``rules.grow_diag`` and their inverses ``rules.shrink``
    / ``rules.shrink_diag``."""
    report = BijectionReport()
    for kind in ("HH", "HV", "VH", "VV"):
        _verify_box_type(kind, max_weight, report)
    for mode in rules.MODES:
        _verify_diagonal(mode, max_weight, report)
    return report

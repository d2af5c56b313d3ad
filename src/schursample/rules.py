"""The local growth bijections and their inverses.

Each ``grow_*`` rule maps three corner partitions plus one random integer to
the fourth corner of a growth-diagram box, bijectively in (kappa, rand) for
fixed (lam, mu).  Weight balance: |lam| + |mu| + rand = |kappa| + |nu| for the
four box rules; the diagonal rules balance 2|mu| + G (or + 2G, or + 0).

The diagonal (Littlewood) rules are Cauchy rules on a doubled corner: the
free and even-columns rules run ``grow_hh`` (``grow_vv`` for a VV box) on
the corner (mu, mu), and the even-rows rule runs ``grow_hh`` on the corner
(C, F) with C_i = 2*ceil(mu_i/2), F_i = 2*floor(mu_i/2) and input 2G.  The
VV even-columns rule is the conjugate of the even-rows one, and
``shrink_diag`` inverts every diagonal rule with the Cauchy inverse on the
same corner.

The ``grow_*`` kernels and their inverses ``shrink_*`` check nothing, so
the growth sweep and the inverse sweep pay only the per-box cost.  A box
kernel pads its partitions with zeros once, to n = max(len(lam), len(mu))
+ 1 rows, and makes one O(n) pass over them (``shrink_hv`` from the bottom
row up).  ``grow_vv`` walks the columns of its inputs and conjugates only
its output; ``shrink_vv`` and ``grow_diag_v_ec`` conjugate in
O(len + largest part).  A grow kernel whose corner is empty returns at once.

On Maya bitsets (:func:`~schursample.partitions.to_bits`)
``grow_hv_lanes`` runs the HV rule, and its inverse on complements turned
in a rectangle, in a score of big-int operations with no loop over the
rows, on many boxes at once: each box is one lane of the ints.  The sweeps
run it once per anti-diagonal of a plan whose boxes are all HV or VH.

The checked entry points :func:`grow` and :func:`grow_diag` assert the input
range, strip preconditions, output interlacing and weight balance around a
kernel (the HV block interleaving follows from the strip preconditions; the
tests assert it).  ``shrink`` and ``shrink_diag`` always validate, since
they must report inconsistent inputs: the checked rule must accept the
recovered pair and regrow nu from it.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

from .partitions import (
    Partition,
    conjugate,
    has_even_parts,
    interlaces_h,
    interlaces_v,
)

_INF = float("inf")


class GrowthError(ValueError):
    pass


def _require(cond: bool, msg: str):
    if not cond:
        raise GrowthError(msg)


def grow_hh(lam: Partition, mu: Partition, kap: Partition, g: int) -> Partition:
    """Cauchy rule: nu_1 = max(lam_1, mu_1) + G and
    nu_i = max(lam_i, mu_i) + min(lam_{i-1}, mu_{i-1}) - kap_{i-1} for i > 1.

    Requires lam >= kap and mu >= kap (horizontal strips); produces nu with
    nu >= lam and nu >= mu.
    """
    if not lam and not mu:
        return (g,) if g else ()
    n = max(len(lam), len(mu)) + 1
    L = lam + (0,) * (n - len(lam))
    M = mu + (0,) * (n - len(mu))
    K = kap + (0,) * (n - len(kap))
    pl, pm = L[0], M[0]
    rows = [(pl if pl > pm else pm) + g]
    for li, mi, kp in zip(L[1:], M[1:], K):
        rows.append((li if li > mi else mi) + (pl if pl < pm else pm) - kp)
        pl, pm = li, mi
    if not rows[-1]:
        rows.pop()
    return tuple(rows)


def grow_vv(lam: Partition, mu: Partition, kap: Partition, g: int) -> Partition:
    """Dual of grow_hh: the Cauchy rule on the columns, so that
    conjugate(nu) = grow_hh(conjugate(lam), conjugate(mu), conjugate(kap), g).

    Walks the columns of lam, mu and kap with one row pointer each, so it
    never builds their conjugates.
    """
    if not lam and not mu:
        return (1,) * g
    a, b, k = len(lam), len(mu), len(kap)  # lengths of column 1
    cols = [(a if a > b else b) + g]
    pa, pb = a, b
    for c in range(1, max(lam[:1] + mu[:1]) + 1):
        # a, b become the lengths of column c + 1 of lam and mu, k of column c of kap
        while a and lam[a - 1] <= c:
            a -= 1
        while b and mu[b - 1] <= c:
            b -= 1
        while k and kap[k - 1] < c:
            k -= 1
        cols.append((a if a > b else b) + (pa if pa < pb else pb) - k)
        pa, pb = a, b
    if not cols[-1]:
        cols.pop()
    return conjugate(cols)


def grow_hv(lam: Partition, mu: Partition, kap: Partition, b: int) -> Partition:
    """Dual Cauchy rule with a cascading bit.

    Requires kap <' lam (vertical strip) and kap < mu; produces nu with
    nu >= lam and nu >=' mu.  Row i is a j-position when
    lam_i <= mu_i < lam_{i-1} (nu may gain a box there) and an i-position
    when mu_{i+1} < lam_i <= mu_i (kappa may lack one there).  The input bit
    is consumed at the first j-position; each i-position emits the next bit
    lam_i - kap_i, consumed at the next j-position.
    """
    if not lam and not mu:
        return (b,) if b else ()
    n = max(len(lam), len(mu)) + 1
    L = lam + (0,) * (n - len(lam))
    M = mu + (0,) * (n + 1 - len(mu))
    K = kap + (0,) * (n - len(kap))
    rows = []
    bit = b
    prev = _INF
    for li, mi, m_next, kp in zip(L, M, M[1:], K):
        if li > mi:  # neither a j- nor an i-position
            rows.append(li)
        else:
            rows.append(mi + bit if mi < prev else mi)
            if m_next < li:
                bit = li - kp
        prev = li
    if not rows[-1]:
        rows.pop()
    return tuple(rows)


def grow_vh(lam: Partition, mu: Partition, kap: Partition, b: int) -> Partition:
    """Mirror of grow_hv with the roles of lam and mu exchanged: requires
    lam > kap and mu >' kap, produces nu >=' lam and nu >= mu."""
    return grow_hv(mu, lam, kap, b)


def grow_hv_lanes(L: int, M: int, K: int, b: int, masks, inverse: bool = False):
    """grow_hv on Maya bitsets packed as lanes of one int: lane k of L, M
    and K holds the bitsets of lam, mu and kappa of one box, and lane k of
    the result the bitset of its nu; bit 0 of lane k of ``b`` is its input.

    ``masks`` is (G, D, DJ).  Every lane is W bits wide: G holds the top
    bit of each lane, a guard that is 0 in every argument, and D the W - 1
    bits below it.  A lane holds the low W - 1 bits of a bitset
    (:func:`~schursample.partitions.to_bits`) whose tail of particles
    starts at least three bits below the guard.  The lanes do not mix: a
    subtraction first sets the guards of its minuend, so no borrow crosses
    them; an addition carries at most into a guard; a left shift by one
    moves guards across lanes, 0 in every shifted value, and the right
    shift moves bits 0, which are 0 in T and M and so in A and Jr; and ~x
    is x ^ D.  DJ is D when growing.

    Bit p of a lane is the row i with i - part_i + c = p, so each row of
    grow_hv is a particle.  T holds the kappa particles of the rows
    lam_i = kap_i + 1; those of them where mu has a particle too
    (mu_i = kap_i) are the rows A with lam_i > mu_i, where nu takes lam's
    particle.  The other T rows are i-positions that emit 1 (S1); a row
    lam_i = kap_i emits 0, one bit above kappa's particle, and is an
    i-position when mu has no particle there.  The cascading bit is a
    segmented fill done with one carry: F marks the positions whose last
    i-position at or below them emitted 1 (the input bit sits at bit 0),
    and each j-position in F (Jr) moves its mu particle one bit down, which
    is nu_j = mu_j + 1.

    With ``inverse`` the same body runs shrink_hv on complements turned 180
    degrees in an a x b rectangle (:func:`~schursample.partitions.turn`),
    whose parts and lengths exceed those of lam, mu and nu: called as (mu^c, lam^c, nu^c, 0) it
    returns kappa^c and F & (G >> 1), the sign bits of F.  Turning puts the
    bottom row, where the pass of shrink_hv starts, at the low bits, where
    the fill starts, and the bit the fill carries past the topmost
    i-position is the input b, the sign of F.  A turned complement has
    length a, so M's tail starts at bit a + b + 2, a j-position the fill
    must not reach; j- and i-positions interleave, so that is the only
    j-position above the topmost i-position, and DJ is D without it.
    """
    G, D, DJ = masks
    # K - L is (K & ~L) - (L & ~K): lam's moved particles
    T = ((((K | G) - L) & D) << 1) & D
    A = M & T
    MB = M ^ A
    S1 = T ^ A | b  # i-positions emitting 1, and the input bit
    IM = S1 | ((K ^ T) << 1) & (M ^ D)  # every i-position
    F = ((((IM ^ D) + (S1 << 1)) & IM) | G) - S1
    Jr = MB & ((L << 1) ^ DJ) & F
    nu = (MB ^ Jr) | ((A | Jr) >> 1)
    return (nu, F & (G >> 1)) if inverse else nu


def shrink_hh(lam: Partition, nu: Partition, mu: Partition) -> Tuple[Partition, int]:
    """Inverse of grow_hh: G = nu_1 - max(lam_1, mu_1) and
    kap_i = max(lam_{i+1}, mu_{i+1}) + min(lam_i, mu_i) - nu_{i+1}."""
    n = max(len(lam), len(mu)) + 1
    L = lam + (0,) * (n - len(lam))
    M = mu + (0,) * (n - len(mu))
    N = nu + (0,) * (n - len(nu))
    rows = [
        (li if li > mi else mi) + (pl if pl < pm else pm) - ni
        for pl, pm, li, mi, ni in zip(L, M, L[1:], M[1:], N[1:])
    ]
    while rows and not rows[-1]:
        rows.pop()
    return tuple(rows), N[0] - (L[0] if L[0] > M[0] else M[0])


def shrink_vv(lam: Partition, nu: Partition, mu: Partition) -> Tuple[Partition, int]:
    """Inverse of grow_vv: shrink_hh on the conjugates."""
    kap, g = shrink_hh(conjugate(lam), conjugate(nu), conjugate(mu))
    return conjugate(kap), g


def shrink_hv(lam: Partition, nu: Partition, mu: Partition) -> Tuple[Partition, int]:
    """Inverse of grow_hv, in one pass from the bottom row up.

    The pass carries the bit of the next j-position below, nu_j - mu_j.  An
    i-position takes that bit back, kap_i = lam_i - bit; every other row
    has kap_i = min(lam_i, mu_i).  The bit left at the top is the input b.
    """
    n = max(len(lam), len(mu)) + 1
    L = (_INF,) + lam + (0,) * (n - len(lam))  # L[i] = lam_i
    M = mu + (0,) * (n + 1 - len(mu))
    N = nu + (0,) * (n - len(nu))
    rows = []  # kappa from the bottom up
    bit = 0
    for li, prev, mi, m_next, ni in zip(
        L[n:0:-1], L[n - 1 :: -1], M[n - 1 :: -1], M[n:0:-1], N[n - 1 :: -1]
    ):
        if li > mi:  # neither a j- nor an i-position
            k = mi
        else:
            k = li - bit if m_next < li else li
            if mi < prev:
                bit = ni - mi
        rows.append(k)
    rows.reverse()
    while rows and not rows[-1]:
        rows.pop()
    return tuple(rows), bit


def shrink_vh(lam: Partition, nu: Partition, mu: Partition) -> Tuple[Partition, int]:
    """Inverse of grow_vh: shrink_hv with the roles of lam and mu exchanged."""
    return shrink_hv(mu, nu, lam)


# The sweep calls the tuple kernels through GROW, so a caller may substitute
# them on a plan that holds tuples; the checked entry points use their own
# table.  SHRINK[kind](lam, nu, mu) is the unchecked inverse of the same
# kernel: (kappa, rand), valid only when nu has a preimage.  A plan whose
# boxes are all HV or VH holds Maya bitsets (ShapePlan.bitsets), and its
# sweeps run grow_hv_lanes on whole anti-diagonals instead.
_KERNELS = {"HH": grow_hh, "HV": grow_hv, "VH": grow_vh, "VV": grow_vv}
GROW = dict(_KERNELS)
SHRINK = {"HH": shrink_hh, "HV": shrink_hv, "VH": shrink_vh, "VV": shrink_vv}

# Strip relations of a box: BOX_PRE[kind] = (lam vs kappa, mu vs kappa) for
# the inputs, BOX_POST[kind] = (nu vs lam, nu vs mu) for the output; nu/lam
# is the same kind of strip as mu/kappa, and nu/mu as lam/kappa.
BOX_PRE = {
    "HH": (interlaces_h, interlaces_h),
    "HV": (interlaces_v, interlaces_h),
    "VH": (interlaces_h, interlaces_v),
    "VV": (interlaces_v, interlaces_v),
}
BOX_POST = {kind: pre[::-1] for kind, pre in BOX_PRE.items()}


def grow(kind: str, lam: Partition, mu: Partition, kap: Partition, rand: int) -> Partition:
    """The box rule of ``kind`` with every pre- and postcondition asserted;
    raises GrowthError on the first one that fails."""
    if kind in ("HV", "VH"):
        _require(rand in (0, 1), f"{kind} box takes a bit, got {rand}")
    else:
        _require(rand >= 0, "G must be nonnegative")
    pre_l, pre_m = BOX_PRE[kind]
    _require(pre_l(lam, kap), f"{kind} precondition on lam, kappa fails: {lam} {kap}")
    _require(pre_m(mu, kap), f"{kind} precondition on mu, kappa fails: {mu} {kap}")
    nu = _KERNELS[kind](lam, mu, kap, rand)
    post_l, post_m = BOX_POST[kind]
    _require(post_l(nu, lam) and post_m(nu, mu), f"{kind} output interlacing")
    _require(sum(lam) + sum(mu) + rand == sum(kap) + sum(nu), f"{kind} weight balance")
    return nu


def shrink(kind: str, lam: Partition, nu: Partition, mu: Partition) -> Tuple[Partition, int]:
    """Invert the matching grow rule: the unique (kappa, rand) with
    grow(kind, lam, mu, kappa, rand) == nu.  Raises GrowthError when no
    preimage exists: the checked rule refuses the recovered pair (its strip
    preconditions also make kappa a partition) or grows another nu."""
    kap, rand = SHRINK[kind](lam, nu, mu)
    check = grow(kind, lam, mu, kap, rand)
    if check != nu:
        raise GrowthError(
            f"no preimage: grow({kind}, {lam}, {mu}, {kap}, {rand}) = {check} != {nu}"
        )
    return kap, rand


def _halves(mu: Partition) -> Tuple[Partition, Partition]:
    """The corner (C, F) of the even-rows rule: C_i = 2*ceil(mu_i/2) and
    F_i = 2*floor(mu_i/2)."""
    return tuple(v + v % 2 for v in mu), tuple(v - v % 2 for v in mu if v > 1)


def grow_diag_h(mu: Partition, kap: Partition, g: int) -> Partition:
    """Diagonal (free boundary) rule: the Cauchy rule on the corner (mu, mu),
    nu_1 = mu_1 + G and nu_i = mu_i + mu_{i-1} - kap_{i-1}; balances
    2|mu| + G = |kap| + |nu|."""
    return grow_hh(mu, mu, kap, g)


def grow_diag_h_er(mu: Partition, kap: Partition, g: int) -> Partition:
    """Even-rows diagonal rule: the Cauchy rule on the corner _halves(mu) with
    input 2G, nu_1 = 2*ceil(mu_1/2) + 2G and
    nu_i = 2*ceil(mu_i/2) + 2*floor(mu_{i-1}/2) - kap_{i-1}.

    Maps even-rowed kappa < mu to even-rowed nu > mu; balances 2|mu| + 2G.
    """
    return grow_hh(*_halves(mu), kap, 2 * g)


def grow_diag_h_ec(mu: Partition, kap: Partition) -> Partition:
    """Even-columns diagonal rule (deterministic): nu_1 = mu_1 and
    nu_i = mu_i + mu_{i-1} - kap_{i-1}; balances 2|mu| = |kap| + |nu|."""
    return grow_diag_h(mu, kap, 0)


def grow_diag_v(mu: Partition, kap: Partition, g: int) -> Partition:
    """Conjugated free diagonal rule, for VV-type diagonal boxes: the dual
    Cauchy rule on the corner (mu, mu)."""
    return grow_vv(mu, mu, kap, g)


def grow_diag_v_er(mu: Partition, kap: Partition) -> Partition:
    """Even-rows constraint on a VV diagonal box: conjugating turns it into
    the even-columns rule, so this variant is deterministic.  Maps kappa
    (even rows, kappa <' mu) to nu (even rows, nu >' mu)."""
    return grow_diag_v(mu, kap, 0)


def grow_diag_v_ec(mu: Partition, kap: Partition, g: int) -> Partition:
    """Even-columns constraint on a VV diagonal box: the conjugated
    even-rows rule, consuming one geometric value."""
    if not mu:
        return (1,) * (2 * g)
    return conjugate(grow_diag_h_er(conjugate(mu), conjugate(kap), g))


# kind -> (kernel, strip relation of mu over kappa and of nu over mu, parity
#          of kappa and nu, power p of the draw G ~ Geom(x^p), which the
#          balance counts p times; 0 marks a deterministic rule, with no G)
_DIAG_RULES = {
    "H": (grow_diag_h, interlaces_h, None, 1),
    "HER": (grow_diag_h_er, interlaces_h, "rows", 2),
    "HEC": (grow_diag_h_ec, interlaces_h, "columns", 0),
    "V": (grow_diag_v, interlaces_v, None, 1),
    "VER": (grow_diag_v_er, interlaces_v, "rows", 0),
    "VEC": (grow_diag_v_ec, interlaces_v, "columns", 2),
}

# Boundary mode -> the diagonal rule kinds of its HH and VV boxes: the
# diagonal box of a plain left symbol is HH, that of a primed one VV.  The
# three modes are the three Littlewood identities.
_MODES = {"free": ("H", "V"), "even_rows": ("HER", "VER"), "even_columns": ("HEC", "VEC")}
MODES = tuple(_MODES)


def boundary_mode(mode: str) -> Tuple[Optional[str], Dict[str, tuple]]:
    """The parity that ``mode`` asks of the free partition (None, "rows" or
    "columns") and its diagonal rules, box kind (HH or VV) -> (kernel, rule
    kind, draw power).  Raises ValueError for an unknown mode."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    hh, vv = _MODES[mode]
    rule = lambda kind: (_DIAG_RULES[kind][0], kind, _DIAG_RULES[kind][3])
    return _DIAG_RULES[hh][2], {"HH": rule(hh), "VV": rule(vv)}


def grow_diag(kind: str, mu: Partition, kap: Partition, g: int) -> Partition:
    """The diagonal rule of ``kind`` in {H, HER, HEC, V, VER, VEC} with
    every pre- and postcondition asserted; the deterministic HEC and VER
    rules take g = 0.  Raises GrowthError on the first check that fails."""
    kernel, strip, parity, g_weight = _DIAG_RULES[kind]
    if g_weight:
        _require(g >= 0, "G must be nonnegative")
    else:
        _require(g == 0, f"diag-{kind} is deterministic, got G = {g}")
    _require(strip(mu, kap), f"diag-{kind} precondition on mu, kappa fails: {mu} {kap}")
    _require(has_even_parts(kap, parity), f"kappa must have even {parity}, got {kap}")
    nu = kernel(mu, kap, g) if g_weight else kernel(mu, kap)
    _require(has_even_parts(nu, parity), f"diag-{kind} output must have even {parity}")
    _require(strip(nu, mu), f"diag-{kind} output interlacing")
    _require(2 * sum(mu) + g_weight * g == sum(kap) + sum(nu), f"diag-{kind} weight balance")
    return nu


def shrink_diag(kind: str, mu: Partition, nu: Partition) -> Tuple[Partition, int]:
    """Invert a diagonal rule; kind in {H, HER, HEC, V, VER, VEC}.

    Returns (kappa, G); G is 0 for the deterministic even-columns rules.
    """
    if kind.startswith("V"):
        # conjugation swaps the even-rows and even-columns constraints
        dual = {"V": "H", "VER": "HEC", "VEC": "HER"}[kind]
        kap, g = shrink_diag(dual, conjugate(mu), conjugate(nu))
        return conjugate(kap), g
    g_weight = _DIAG_RULES[kind][3]
    c, f = _halves(mu) if kind == "HER" else (mu, mu)
    kap, g = shrink_hh(c, nu, f)
    g, excess = divmod(g, g_weight) if g_weight else (0, g)
    _require(not excess, f"no preimage for diagonal {kind}: top row {nu} over {mu}")
    if grow_diag(kind, mu, kap, g) != nu:
        raise GrowthError(f"no preimage for diagonal {kind}: roundtrip mismatch")
    return kap, g

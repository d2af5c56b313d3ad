"""Exact sampling of Schur processes by growth of the encoded shape.

:func:`grow_profile` is the one growth sweep.  It asks for the random
inputs one row at a time, ``row_input(j, stop)`` for the boxes (1, j) ..
(stop, j) of the rows it grows, in row-major order, and returns the
m + n + 1 boundary partitions.  Every box's input comes from its own row,
a symmetric diagonal box's too.  :func:`check_parameters` checks every
parameter and returns the prepared rows of the draws, one per distinct
row; the finite sampler ``schur_sample`` draws row j as one call of
``RandomSource.row_drawer`` on row j - 1 of that table, which draws,
counts and logs as one ``bernoulli`` or ``geometric`` call per box.  The
symmetric sampler (which passes a diagonal rule and grows one triangle)
and the pyramidal one (which grows its finite truncation word) run on the
same sweep.

:func:`shrink_profile` is the same sweep run backwards on tuples: it peels
the shape off the boundary and recovers every box's input, row by row.

On a plan whose boxes are all HV or VH (``ShapePlan.bitsets``, as on
Aztec and other steep words) the growth sweep is domino shuffling: the
boxes of one anti-diagonal do not depend on each other, so each
anti-diagonal is one call of ``rules.grow_hv_lanes`` on Maya bitsets
(``partitions.to_bits``) packed as lanes of one int, one lane per point.
The inputs are staged one byte per box first, and only two anti-diagonals
and the boundary's lanes are kept; the sweep decodes only the m + n + 1
boundary partitions.  :func:`reconstruct_inputs` inverts it the same way
(:func:`_shrink_diagonals`), on the boundary's partitions encoded as
complements turned in a rectangle, and decodes nothing; both read the
boundary's boxes from ``ShapePlan.boundary_points``.  Every other plan
is grown row by row on one profile of tuples with ``rules.GROW``.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .partitions import (
    EMPTY,
    Partition,
    Record,
    from_bits,
    is_partition,
    require_closed,
    require_interlaced,
    to_bits,
    turn,
)
from .rng import ALGORITHM, RandomSource, as_source, variates
from .rules import GROW, SHRINK, GrowthError, grow_hv_lanes
from .words import FLOAT_MAX, Rel, ShapePlan, Word, is_parameter, precompute_par, product

Box = Tuple[int, int]

_INF = float("inf")
_GEOMETRIC = frozenset(("HH", "VV"))  # the box kinds that draw a geometric
_POLICY = "parameters must be finite and nonnegative, also as floats"


class DivergenceError(ValueError):
    """A geometric box parameter is >= 1, so the measure does not exist;
    or it is < 1 but rounds to 1.0, so the float draw cannot be made."""

    def __init__(self, box: Box, kind: str, xi):
        self.box, self.kind, self.xi = box, kind, xi
        super().__init__(
            f"box {box} of type {kind} has parameter {xi} >= 1; "
            "the geometric weight diverges"
        )


class SampleStats(Record):
    def __init__(self, boxes: int = 0, work: int = 0):
        self.boxes = boxes
        self.work = work  # candidate-row updates, for the complexity guard


class ProcessSample(Record):
    """Output sequence of a sampling run with enough metadata to replay it."""

    def __init__(self, word: Word, z: tuple, seed: Optional[int], lambdas: Tuple[Partition, ...],
                 rng_algorithm: str = ALGORITHM, stats: Optional[SampleStats] = None,
                 draw_log: Optional[list] = None):
        self.word = word
        self.z = z
        self.seed = seed
        self.lambdas = lambdas
        self.rng_algorithm = rng_algorithm
        self.stats = stats
        self.draw_log = draw_log

    def validate(self) -> None:
        require_closed(self.word, self.lambdas, ValueError)
        require_interlaced(self.word, self.lambdas, ValueError)

    @property
    def volume(self) -> int:
        return sum(sum(l) for l in self.lambdas)


def _refuse(box: Box, kind: str, xi) -> None:
    """Raise the error of a box whose parameter xi fails the check: a
    non-parameter, or a Bernoulli weight past the float range, is a
    ValueError, and a geometric weight whose float is >= 1 a
    DivergenceError.  A weight is named as it is if it lies in
    [1, FLOAT_MAX], and else by its float: 1.0 if it rounds up to 1, inf
    past the float range."""
    if is_parameter(xi):
        xi = xi if 1 <= xi <= FLOAT_MAX else float(xi) if xi < 1 else _INF
        if xi < _INF or kind in _GEOMETRIC:
            raise DivergenceError(box, kind, xi)
    raise ValueError(f"box {box} of type {kind} has parameter {xi}; {_POLICY}")


def check_parameters(plan: ShapePlan, diagonal=None) -> List[tuple]:
    """Check every parameter before any draw, naming the first bad box, and
    return the prepared rows of the draws: ``table[j - 1]`` is the row of
    variates (``rng.variates``) of boxes (1, j), (2, j), ..., Geom(x_i y_j)
    on HH/VV boxes and Bernoulli(x_i y_j / (1 + x_i y_j)) on HV/VH boxes,
    for ``RandomSource.row_drawer``.

    Every x_i and y_j must be a parameter (``words.is_parameter``), checked
    before any product is formed; a ValueError names the first box that
    uses a bad one, or its symbol if no box does.  Each x_i y_j is formed
    by ``words.product``, exact where a float product would overflow.  A
    Bernoulli (HV/VH) weight past the float range raises ValueError, and a
    geometric (HH/VV) one whose float is >= 1 raises DivergenceError, which
    covers an exact weight >= 1 and one that rounds up to 1.0.  Rows with
    equal y_j and symbol share one prepared row, so each product is formed
    and checked once per distinct (y_j, symbol).  A symmetric sampler
    passes ``diagonal(i, kind)``, the geometric weight drawn at the
    diagonal box (i, i), or None where that box draws nothing; it is
    refused like a product.  The boxes below the diagonal mirror those
    above it and are skipped, and so is the diagonal, which the row does
    not hold.
    """
    x, y, v, kinds = plan.x, plan.y, plan.v, plan.row_kinds
    if not all(map(is_parameter, x + y if diagonal is None else x)):  # symmetric: x == y
        # the first box that uses a bad one (i <= j on a symmetric plan),
        # x_i before y_j, names it
        for i, j in plan.boxes():
            bad = [p for p in (x[i - 1], y[j - 1]) if not is_parameter(p)]
            if bad and (diagonal is None or i <= j):
                _refuse((i, j), kinds[j - 1][i - 1], bad[0])
        # else its symbol: the parameters in word order
        left, right = iter(x), iter(y[::-1])
        z = [next(left if s.left else right) for s in plan.word]
        k = next(k for k, p in enumerate(z) if not is_parameter(p))
        raise ValueError(
            f"symbol {k + 1} ({plan.word[k].value}) of the word has parameter {z[k]}; {_POLICY}"
        )
    # (type and value of y_j, its repr if 0, which tells -0.0 from 0.0, and
    # the prime of the row symbol) -> (floats by column, the row's kinds); a
    # Fraction's value is its (numerator, denominator), as Fraction.__hash__
    # runs in Python
    rows = {}
    keys = []
    for j, row_len in enumerate(plan.pi, start=1):
        yj, row_kinds = y[j - 1], kinds[j - 1]
        value = yj.as_integer_ratio() if type(yj) is Fraction else yj or repr(yj)
        key = (type(yj), value, v[j - 1].primed)
        floats = rows.setdefault(key, ([], row_kinds))[0]
        stop = row_len if diagonal is None else min(row_len, j - 1)
        for i in range(len(floats), stop):  # the entries before were checked
            xi = product(x[i], yj)
            f = float(xi) if xi <= FLOAT_MAX else _INF
            if f == _INF or (f >= 1 and row_kinds[i] in _GEOMETRIC):
                _refuse((i + 1, j), row_kinds[i], xi)
            floats.append(f)
        keys.append(key)
        if diagonal is not None and j <= row_len:
            xi = diagonal(j, row_kinds[j - 1])
            if xi is not None and not (xi < 1 and float(xi) < 1):
                _refuse((j, j), row_kinds[j - 1], xi)
    # made once the loop is over, since a later row may extend a shared list
    made = {
        key: variates(floats, list(map(_GEOMETRIC.__contains__, row_kinds[: len(floats)])))
        for key, (floats, row_kinds) in rows.items()
    }
    return [made[key] for key in keys]


def grow_profile(plan: ShapePlan, row_input, diagonal=None, stats=None):
    """The growth sweep: fill the encoded shape of ``plan`` and return the
    m + n + 1 boundary partitions (entry k is lambda(k)).

    ``row_input(j, stop)`` gives the random inputs of boxes (1, j) ..
    (stop, j); it is called once per row, rows rising, the canonical draw
    order.  A plan whose sweeps hold bitsets (``ShapePlan.bitsets``: every
    box HV or every box VH) is grown one anti-diagonal at a time by
    :func:`_grow_diagonals`.  Any other plan is grown row by row, keeping
    one profile of m + 1 tuples: entry i holds tau(i, j) for the last row j
    that reached column i.  A quiet box runs no kernel: every box kernel
    keeps nu >= lam, nu >= mu and |nu| = |lam| + |mu| - |kap| + g, so with
    g = 0, lam == kap gives nu = mu and mu == kap gives nu = lam, which the
    sweep assigns (a symmetric diagonal box keeps its rule).  A row starts
    at its first box that can be nonempty, so its leading dead boxes (g = 0,
    lam = mu = kap = ()) cost no loop either.  The skip may reach a
    symmetric row's diagonal box (j, j): every diagonal rule keeps
    2|mu| + p g = |kap| + |nu|, and there mu = tau(j - 1, j) and
    kap = tau(j - 1, j - 1) are empty, as every earlier box of the row was
    skipped, so with g = 0 it grows the empty partition too.  ``stats``
    counts every box as if its kernel ran, a skipped dead box with work 1.

    With ``diagonal`` the sweep is symmetric and the shape must be
    self-conjugate: only boxes with i <= j are grown, so row j asks for
    stop = min(pi_j, j) inputs, and diagonal box (i, i) is
    ``diagonal(i, kind, mu, kap, g)`` with mu = tau(i - 1, i),
    kap = tau(i - 1, i - 1) and g the last input of row i; the boundary
    after the diagonal point mirrors the boundary before it.  A symmetric
    plan has HH or VV boxes on its diagonal, so it holds tuples.
    """
    if plan.bitsets:
        stage, step = _stage(plan), len(plan.pi) + 1
        for j, row_len in enumerate(plan.pi, start=1):
            row = bytes(row_input(j, row_len)).translate(_PRESENT)
            stage[step + j : row_len * step + j + 1 : step] = row  # _row(plan, j)
        lambdas = [EMPTY] * (len(plan.word) + 1)
        for k, bits in _grow_diagonals(plan, stage, stats).items():
            lambdas[k] = from_bits(bits)
        return tuple(lambdas)
    pi, m, n = plan.pi, len(plan.x), len(plan.y)
    nrows = len(pi)
    kinds = plan.row_kinds
    grow, empty = GROW, EMPTY
    profile = [empty] * (m + 1)
    segments = []  # per-row boundary pieces, assembled at the end
    for j in range(1, nrows + 1):
        row_len = pi[j - 1]
        stop = row_len if diagonal is None else min(row_len, j)
        diag_i = 0 if diagonal is None else j  # the column of the row's diagonal box
        inputs = row_input(j, stop)
        start = 0  # skip the row's leading dead boxes
        while start < stop and not inputs[start] and not profile[start + 1]:
            start += 1
        if stats is not None:
            stats.boxes += start
            stats.work += start  # max(len lam, len mu) + 1 with both empty
        prev_diag = empty  # tau(i - 1, j - 1)
        for i, kind in enumerate(kinds[j - 1][start:stop], start=start + 1):
            lam, above = profile[i - 1], profile[i]  # tau(i - 1, j), tau(i, j - 1)
            g = inputs[i - 1]
            if i == diag_i:
                nu = diagonal(i, kind, lam, prev_diag, g)
            elif not g and lam == prev_diag:  # a quiet box
                nu = above
            elif not g and above == prev_diag:
                nu = lam
            else:
                nu = grow[kind](lam, above, prev_diag, g)
            if stats is not None:
                stats.boxes += 1
                stats.work += max(len(lam), len(above)) + 1
            profile[i] = nu
            prev_diag = above
        segments.append(profile[pi[j] if j < nrows else 0 : row_len + 1])
    lambdas = [EMPTY] * (n - nrows)  # padded empty rows on the vertical axis
    for seg in reversed(segments):
        lambdas.extend(seg)
    lambdas.extend([EMPTY] * (m - (pi[0] if pi else 0) + 1))
    if diagonal is not None:
        lambdas[n + 1 :] = reversed(lambdas[:n])
    return tuple(lambdas)


# The anti-diagonal sweeps of bitset plans.  The inputs are staged one byte
# per box, in column-major order with columns of len(pi) + 1 bytes, so that
# a row and an anti-diagonal are both slices with a step: box (i, j) is at
# byte i * (len(pi) + 1) + j and holds 2 | input, and every other point
# holds 0.  Anti-diagonal d holds the points (i, d - i) for i from
# max(0, d - len(pi)) to min(pi_1, d), each one lane of a packed int.

_PRESENT = bytes(2 | v & 1 for v in range(256))
_INPUT = bytes(v & 1 for v in range(256))


def _stage(plan: ShapePlan) -> bytearray:
    return bytearray((plan.pi[0] + 1) * (len(plan.pi) + 1) if plan.pi else 0)


def _row(plan: ShapePlan, j: int) -> slice:
    """The bytes of row j's boxes in the stage."""
    step = len(plan.pi) + 1
    return slice(step + j, plan.pi[j - 1] * step + j + 1, step)


def _shift(x: int, s: int) -> int:
    return x << s if s >= 0 else x >> -s


def _boundary(plan: ShapePlan) -> Dict[int, list]:
    """Anti-diagonal d -> the list of (k, i) for the boundary points
    (i, d - i) with i, j >= 1, which are boxes, whose tau is lambda(k); the
    other boundary points are on the axes and empty.  Its largest key is
    the last anti-diagonal that holds a box."""
    out = {}
    for k, (i, j) in enumerate(plan.boundary_points()):
        if i and j:
            out.setdefault(i + j, []).append((k, i))
    return out


def _lanes(plan: ShapePlan, stage: bytearray, W: int, diagonals):
    """The lanes of W bits of the plan's anti-diagonals: yields, for each
    anti-diagonal d of ``diagonals``, (d, lo, hi, D, low, B, box): its
    first and last lane, the data bits (all but the top guard bit) and the
    bits 0 of its lanes, its staged bytes in bits 0..7 of the lanes, and
    the data bits of its boxes' lanes."""
    nrows, top, Wb = len(plan.pi), plan.pi[0], W // 8
    data = int.from_bytes((b"\xff" * (Wb - 1) + b"\x7f") * (top + 1), "little")
    ones = int.from_bytes((b"\x01" + bytes(Wb - 1)) * (top + 1), "little")
    buf = bytearray((top + 1) * Wb)  # only the first byte of a lane is written
    view = memoryview(buf)
    for d in diagonals:
        lo, hi = d - nrows if d > nrows else 0, d if d < top else top
        D = data >> (top - hi + lo) * W
        low = ones & D
        size = (hi - lo + 1) * Wb
        buf[:size:Wb] = stage[lo * nrows + d : hi * nrows + d + 1 : nrows]
        B = int.from_bytes(view[:size], "little")
        P = (B >> 1) & low
        yield d, lo, hi, D, low, B, (P << (W - 1)) - P


def _grow_diagonals(plan: ShapePlan, stage: bytearray, stats=None) -> Dict[int, int]:
    """The growth of a bitset plan from its staged inputs, one call of
    ``rules.grow_hv_lanes`` per anti-diagonal, each box a lane: returns
    {k: the bitset of lambda(k)} for the boundary's boxes; the other
    boundary points are empty.

    Point (i, j) holds the bitset of tau(i, j) at the offset j + 1 on an HV
    plan and i + 1 on a VH plan.  The offset exceeds the first part, since
    each box is a vertical strip over one neighbour: a first part grows by
    one at most per row (column) and the length by one at most per column
    (row).  So every tail starts below bit i + j + 3, and lanes of
    max(pi_j + j) + 5 bits or more hold every point.  A box reads two
    lanes of anti-diagonal d - 1 and one of d - 2, shifted by whole lanes
    and, where the offset is one less, by one bit.  The axes' lanes are
    reset to empty bitsets and the lanes of points outside the shape to 0.

    ``SampleStats.work`` adds max(len lam, len mu) + 1 per box.  At the
    offset c, the tail of lam & mu starts at bit max(len lam, len mu) + c + 1,
    so the work is read from the tails: ``tails`` holds the tail of every
    point's bitset, the tail of lam & mu is tails(lam) & tails(mu), and that
    of nu is nu & tails(lam & mu), as nu is at most one row longer than both.
    """
    pi, nrows = plan.pi, len(plan.pi)
    if not pi:
        return {}
    hv = plan.row_kinds[0][0] == "HV"
    wanted = _boundary(plan)
    last = max(wanted)
    W = (last + 12) // 8 * 8
    full = 1 << (W - 1)
    # the empty bitsets at the offsets 1 (E) and d + 1 (full - (4 << d))
    E = full - 4
    D2, lo2, D1, lo1 = E, 0, full - 8 | E << W if hv else E | full - 8 << W, 0
    tails, ones = D1, 0
    found = {}
    for d, lo, hi, D, low, B, box in _lanes(plan, stage, W, range(2, last + 1)):
        sL, sM, sK = (lo1 + 1 - lo) * W + (not hv), (lo1 - lo) * W + hv, (lo2 + 1 - lo) * W + 1
        L = D1 << sL & D
        M = (D1 << sM if sM >= 0 else D1 >> -sM) & D
        K = (D2 << sK if sK >= 0 else D2 >> -sK) & D
        masks = (D + low, D, D)
        nu = grow_hv_lanes(L, M, K, B & low, masks) if hv else grow_hv_lanes(M, L, K, B & low, masks)
        # tau(0, d) in lane 0 and tau(d, 0) in lane d
        axes = (full - (4 << d) if hv else E) if lo == 0 else 0
        if hi == d:
            axes |= (E if hv else full - (4 << d)) << (d - lo) * W
        nu = nu & box | axes
        if stats is not None:
            Y = tails << sL & (tails << sM if sM >= 0 else tails >> -sM) & box
            ones += Y.bit_count()  # W - 1 - (the tail's first bit) per box
            tails = nu & Y | axes
        for k, i in wanted.get(d, ()):
            found[k] = (nu >> (i - lo) * W & full - 1) - full
        D2, lo2, D1, lo1 = D1, lo1, nu, lo
    if stats is not None:
        # minus the offsets, j + 1 (HV) or i + 1 (VH), summed over the boxes
        boxes = sum(pi)
        offsets = sum(map(mul, pi, range(2, nrows + 2)) if hv else map(mul, pi, pi))
        stats.boxes += boxes
        stats.work += boxes * (W - 1) - ones - (offsets if hv else (offsets + 3 * boxes) // 2)
    return found


def _shrink_diagonals(plan: ShapePlan, lambdas: Sequence[Partition]):
    """The inverse of _grow_diagonals: (stage, bits), the staged inputs
    recovered from the boundary partitions ``lambdas`` and the bitsets
    ``bits`` of the boundary's boxes at the offsets of _grow_diagonals,
    which a forward replay must give again.  One call of
    ``rules.grow_hv_lanes`` with ``inverse`` per anti-diagonal, from the
    last one down.

    Point (i, j) holds the complement of tau(i, j) turned in the rectangle
    of (i + 1) rows and j + 1 columns on an HV plan, (j + 1) x (i + 1) on a
    VH plan (``partitions.turn``), which reaches past its length and its
    first part; so every tail on anti-diagonal d starts at bit d + 4.  Box
    (i, j) runs in the rectangle of its nu: the lam or mu that has one row
    fewer gains the turned row, a shift by one bit and bit 2, and the
    other, one column fewer, turns bit d + 3 into a hole; kappa loses both.
    Anti-diagonals d and d - 1 give the kappas of d's boxes, which with the
    boundary points on d - 2 make anti-diagonal d - 2; the recovered bits
    go to the stage.
    """
    stage = _stage(plan)
    if not plan.pi:
        return stage, {}
    pi, nrows = plan.pi, len(plan.pi)
    for j in range(1, nrows + 1):
        stage[_row(plan, j)] = b"\x02" * pi[j - 1]
    hv = plan.row_kinds[0][0] == "HV"
    on_diagonals = _boundary(plan)
    last = max(on_diagonals)
    W = (last + 14) // 8 * 8
    Wb = W // 8
    bits, points = {}, []
    for d, on in on_diagonals.items():
        for k, i in on:
            bits[k] = v = to_bits(lambdas[k], d - i + 1 if hv else i + 1)
            points.append((i, d - i, v))
    # and the two points of the boundary on the axes that no box shrinks to
    points += [(0, nrows, to_bits(EMPTY, nrows + 1 if hv else 1))]
    points += [(pi[0], 0, to_bits(EMPTY, 1 if hv else pi[0] + 1))]
    edge = {}  # anti-diagonal -> (i, lane bytes) of the boundary points on it
    for i, j, v in points:
        # v has the offset b = j + 1 (i + 1) of the rectangle, v << 1 has b + 1
        lane = turn(v << 1, i + 1, j + 1) if hv else turn(v << 1, j + 1, i + 1)
        edge.setdefault(i + j, []).append((i, (lane & (1 << (W - 1)) - 1).to_bytes(Wb, "little")))

    def boundary(d: int) -> int:
        if d not in edge:
            return 0
        lo, hi = max(0, d - nrows), min(pi[0], d)
        buf = bytearray((hi - lo + 1) * Wb)
        for i, lane in edge[d]:
            buf[(i - lo) * Wb : (i - lo + 1) * Wb] = lane
        return int.from_bytes(buf, "little")

    N, D1, lo1 = boundary(last), boundary(last - 1), max(0, last - 1 - nrows)
    for d, lo, hi, D, low, B, box in _lanes(plan, stage, W, range(last, 1, -1)):
        # lam (lane i - 1) and mu (lane i) in the rectangle of nu
        sL, sM = (lo1 + 1 - lo) * W, (lo1 - lo) * W
        if hv:
            Lc, Mc = D1 << sL + 1 & D | low << 2, _shift(D1, sM) & D ^ low << d + 3
        else:
            Lc, Mc = D1 << sL & D ^ low << d + 3, _shift(D1, sM + 1) & D | low << 2
        masks = (D + low, D, D ^ low << d + 4)  # DJ without the tail's first bit
        kap, signs = grow_hv_lanes(Mc, Lc, N, 0, masks, True) if hv else grow_hv_lanes(
            Lc, Mc, N, 0, masks, True
        )
        inputs = B | (signs >> W - 2) & low
        stage[lo * nrows + d : hi * nrows + d + 1 : nrows] = inputs.to_bytes(
            (hi - lo + 1) * Wb, "little"
        )[::Wb]
        kap = ((kap ^ low << 2) >> 1 & D | low << d + 2) & box  # in its own rectangle
        lo2 = max(0, d - 2 - nrows)
        N, D1, lo1 = D1, boundary(d - 2) | _shift(kap, (lo - 1 - lo2) * W), lo2
    return stage, bits


def schur_sample(
    word: Sequence[Rel], z: Sequence, src: RandomSource | int, *, count: Optional[int] = None
) -> ProcessSample | List[ProcessSample]:
    """Draw one exact sample of the Schur process of ``word`` with parameters
    ``z``, storing one profile of m + 1 partitions.  With a logging ``src``
    the sample's ``draw_log`` holds the draws of this call alone.

    With ``count=n`` it returns the list of n samples drawn from the streams
    ``src.child(0)`` .. ``src.child(n - 1)``, equal (with their ``stats``
    and ``draw_log``) to n calls on those streams.  The plan and the checked
    draw rows are made once for the batch, before any draw."""
    src = as_source(src)
    plan = precompute_par(word, z)
    table, zt = check_parameters(plan), tuple(z)

    def one(src: RandomSource) -> ProcessSample:
        draw = src.row_drawer()
        stats, logged = SampleStats(), len(src.draw_log or ())
        lambdas = grow_profile(plan, lambda j, stop: draw(table[j - 1], stop), stats=stats)
        return ProcessSample(
            word=plan.word,
            z=zt,
            seed=src.seed,
            lambdas=lambdas,
            stats=stats,
            draw_log=None if src.draw_log is None else src.draw_log[logged:],
        )

    return one(src) if count is None else [one(src.child(k)) for k in range(count)]


# Another name for schur_sample, left out of the package's API: the
# benchmark's aztec workload (perfbench/workloads.py) is its one caller, and
# ROADMAP item 9 retires it with the next change to the benchmark.
in_place_boundary_sample = schur_sample


def shrink_profile(plan: ShapePlan, lambdas: Sequence[Partition], diagonal=None):
    """The inverse of grow_profile: from its boundary partitions ``lambdas``,
    which must be a valid sequence (the kernels are unchecked), the inputs
    of every box, row by row: entry j - 1 lists those of (1, j), (2, j), ...

    It keeps one profile of tau(i, j) as tuples on every plan: row j is
    shrunk right to left, each box giving tau(i - 1, j - 1), and those
    kappas with the boundary of row j - 1 make the next profile.  A quiet
    box runs no kernel here either: nu == mu gives (kappa, input) =
    (lam, 0) and nu == lam gives (mu, 0), since that pair grows nu and the
    preimage is unique.  (On a bitset plan :func:`reconstruct_inputs` runs
    :func:`_shrink_diagonals` instead.)  With ``diagonal`` only the boxes
    i <= j are shrunk; box (i, i) gives ``diagonal(i, kind, mu, nu)`` =
    (kappa, input) with mu = tau(i - 1, i).
    """
    pi, nrows = plan.pi, len(plan.pi)
    rows = [[] for _ in range(nrows + 1)]  # rows[j]: boundary tau(i, j), i rising
    for (i, j), lam in zip(plan.boundary_points(), lambdas):
        if j <= nrows and (diagonal is None or i <= j):
            rows[j].append(lam)
    inputs = [None] * nrows
    profile = rows[nrows]
    for j in range(nrows, 0, -1):
        stop = pi[j - 1] if diagonal is None else min(pi[j - 1], j)
        kinds = plan.row_kinds[j - 1]
        kaps, row = [], []
        mu = rows[j - 1][0] if rows[j - 1] else EMPTY  # tau(stop, j - 1)
        for i in range(stop, 0, -1):
            lam, nu = profile[i - 1], profile[i]
            if i == j and diagonal is not None:
                mu, rand = diagonal(i, kinds[i - 1], lam, nu)
            elif nu == mu:  # a quiet box
                mu, rand = lam, 0
            elif nu == lam:
                rand = 0
            else:
                mu, rand = SHRINK[kinds[i - 1]](lam, nu, mu)
            kaps.append(mu)  # tau(i - 1, j - 1), the mu of the next box
            row.append(rand)
        kaps.reverse()
        row.reverse()
        inputs[j - 1] = row
        profile = kaps + rows[j - 1]
    return inputs


def reconstruct_inputs(sample: ProcessSample) -> Dict[Box, int]:
    """Recover the per-box random inputs from the output sequence alone: the
    draw log of the forward run, keyed by box in row-major order.

    The inverse sweep :func:`shrink_profile` recovers them, and one forward
    replay certifies them: they must be in range (g >= 0, a bit on HV/VH
    boxes) and regrow the sample.  Inputs in range regrow a sequence that
    interlaces, so the certificate also checks the interlacing (a corrupt
    sample can give an input out of range that regrows it); only when it
    fails is the sample checked step by step, which names the first step
    that does not interlace, and else GrowthError is raised.  A bitset plan
    is shrunk and regrown on the bitsets of the boundary's boxes, which the
    replay compares without decoding them; since tuples that are not
    partitions, such as (2, 0), can have the bitset of one, every slice
    must also be a partition.
    """
    lambdas = tuple(sample.lambdas)
    require_closed(sample.word, lambdas, ValueError)
    plan = precompute_par(sample.word, sample.z)
    if not plan.bitsets:
        rows = shrink_profile(plan, lambdas)
        regrown = all(
            0 <= g and (g <= 1 or kind in _GEOMETRIC)
            for row, kinds in zip(rows, plan.row_kinds)
            for g, kind in zip(row, kinds)
        ) and grow_profile(plan, lambda j, stop: rows[j - 1]) == lambdas
        inputs = chain.from_iterable(rows)
    else:
        stage, bits = _shrink_diagonals(plan, lambdas)
        empty = set(range(len(lambdas))) - bits.keys()
        regrown = (
            _grow_diagonals(plan, stage) == bits
            and not any(lambdas[k] for k in empty)
            and all(map(is_partition, lambdas))
        )
        inputs = chain.from_iterable(
            stage[_row(plan, j)].translate(_INPUT) for j in range(1, len(plan.pi) + 1)
        )
    if not regrown:
        sample.validate()
        raise GrowthError("the recovered inputs do not regrow the sample")
    return dict(zip(plan.boxes(), inputs))

"""Exact sampling of Schur processes by growth of the encoded shape.

:func:`grow_profile` is the one growth sweep.  It fills the encoded shape
row by row with the local rules, stores one profile of m + 1 partitions and
returns the m + n + 1 boundary partitions.  The finite sampler
``schur_sample`` runs on it, and so do the symmetric sampler (which passes a
diagonal rule and grows one triangle) and the pyramidal one (which grows its
finite truncation word).  ``in_place_boundary_sample`` is another name for
``schur_sample``.

:func:`shrink_profile` is the same sweep run backwards: it peels the shape
off the boundary with one profile and recovers every box's input.

Both sweeps choose the representation from the plan.  On a plan whose boxes
are all HV or VH (``ShapePlan.bit_offset``, as on Aztec and other steep
words) the profile holds Maya bitsets (``partitions.to_bits``) and each box
is one call of ``rules.grow_hv_bits``, a dozen big-int operations; the
growth sweep decodes only the m + n + 1 boundary partitions, and the
inverse sweep encodes only them, as complements turned in a rectangle, and
decodes nothing.  Every other plan holds tuples and calls ``rules.GROW``.

:func:`run_growth` keeps the whole grid of tuples and takes any traversal
order; it is the reference that the tests compare the sweep against.  Its
``"diagonal"`` order is domino shuffling on Aztec words, and it grows the
same grid as the sweep from the same inputs.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .partitions import (
    EMPTY,
    Partition,
    from_bits,
    require_closed,
    require_interlaced,
    to_bits,
    turned_bits,
)
from .rng import ALGORITHM, RandomSource
from .rules import GROW, GROW_BITS, SHRINK, SHRINK_BITS, GrowthError
from .words import Rel, ShapePlan, Word, precompute_par

Box = Tuple[int, int]

_INF = float("inf")
_MAX = sys.float_info.max


class DivergenceError(ValueError):
    """A geometric box parameter is >= 1, so the measure does not exist;
    or it is < 1 but rounds to 1.0, so the float draw cannot be made."""

    def __init__(self, box: Box, kind: str, xi):
        self.box, self.kind, self.xi = box, kind, xi
        super().__init__(
            f"box {box} of type {kind} has parameter {xi} >= 1; "
            "the geometric weight diverges"
        )


@dataclass
class SampleStats:
    boxes: int = 0
    work: int = 0  # candidate-row updates, for the complexity guard


@dataclass
class ProcessSample:
    """Output sequence of a sampling run with enough metadata to replay it."""

    word: Word
    z: tuple
    seed: Optional[int]
    lambdas: Tuple[Partition, ...]
    rng_algorithm: str = ALGORITHM
    stats: Optional[SampleStats] = None
    draw_log: Optional[list] = None

    def validate(self) -> None:
        require_closed(self.word, self.lambdas, ValueError)
        require_interlaced(self.word, self.lambdas, ValueError)

    @property
    def volume(self) -> int:
        return sum(sum(l) for l in self.lambdas)


def _product(a, b):
    """a * b, or inf where a float operand makes an exact one overflow."""
    try:
        return a * b
    except OverflowError:
        return _INF


def _refuse(box: Box, kind: str, xi) -> None:
    """Raise the error of a box whose parameter xi fails the check."""
    if not 0 <= xi < _INF or (xi > _MAX and kind not in ("HH", "VV")):
        raise ValueError(
            f"box {box} of type {kind} has parameter {xi}; "
            "parameters must be finite and nonnegative, also as floats"
        )
    raise DivergenceError(box, kind, xi if xi >= 1 else float(xi))


def check_parameters(plan: ShapePlan, diagonal=None) -> List[List[float]]:
    """Check every parameter before any draw, naming the first bad box, and
    return the float parameters of the draws: ``table[j - 1][i - 1]`` is
    float(x_i y_j).

    A negative or non-finite parameter (or one past the float range) raises
    ValueError; a geometric (HH/VV) parameter whose float is >= 1 raises
    DivergenceError, which covers an exact parameter >= 1 and one that
    rounds up to 1.0.  Rows with equal y_j and symbol share one list, so
    each product is formed and checked once per distinct (y_j, symbol).  A
    symmetric sampler passes ``diagonal(i, kind)``, the geometric parameter
    drawn at the diagonal box (i, i), or None where that box draws nothing;
    the boxes below the diagonal mirror those above it and are skipped.
    """
    x, y, v, kinds = plan.x, plan.y, plan.v, plan.row_kinds
    rows = {}  # (type and repr of y_j, row symbol) -> floats by column
    table = []
    for j, row_len in enumerate(plan.pi, start=1):
        yj, row_kinds = y[j - 1], kinds[j - 1]
        floats = rows.setdefault((type(yj), repr(yj), v[j - 1]), [])
        stop = row_len if diagonal is None else min(row_len, j - 1)
        for i in range(len(floats), stop):  # the entries before were checked
            xi = _product(x[i], yj)
            f = float(xi) if 0 <= xi <= _MAX else _INF
            if f == _INF or (f >= 1 and row_kinds[i] in ("HH", "VV")):
                _refuse((i + 1, j), row_kinds[i], xi)
            floats.append(f)
        table.append(floats)
        if diagonal is not None and j <= row_len:
            xi = diagonal(j, row_kinds[j - 1])
            if xi is not None and not 0 <= xi < 1:
                _refuse((j, j), row_kinds[j - 1], xi)
    return table


def box_draw(table: List[List[float]], src: RandomSource):
    """The per-box draw from ``src``, as a function (i, j, kind) -> input:
    Geom(x_i y_j) on HH/VV boxes, Bernoulli(x_i y_j / (1 + x_i y_j)) on
    HV/VH boxes, with the products from the table of
    :func:`check_parameters`."""
    geom, bern = src.geometric, src.bernoulli

    def draw(i: int, j: int, kind: str) -> int:
        xi = table[j - 1][i - 1]
        return geom(xi) if kind in ("HH", "VV") else bern(xi / (1.0 + xi))

    return draw


def grow_profile(plan: ShapePlan, box_input, diagonal=None, stats=None):
    """The growth sweep: fill the encoded shape of ``plan`` row by row and
    return the m + n + 1 boundary partitions (entry k is lambda(k)).

    ``box_input(i, j, kind)`` gives the random input of box (i, j); it is
    called in row-major order, the canonical draw order.  Only one profile
    of m + 1 partitions is kept: entry i holds tau(i, j) for the last row j
    that reached column i.

    With ``diagonal`` the sweep is symmetric and the shape must be
    self-conjugate: only boxes with i <= j are grown, diagonal box (i, i)
    is ``diagonal(i, kind, mu, kap)`` with mu = tau(i - 1, i) and
    kap = tau(i - 1, i - 1), and the boundary after the diagonal point
    mirrors the boundary before it.

    The profile holds Maya bitsets when the plan has a ``bit_offset`` and
    tuples otherwise (a symmetric plan has HH or VV boxes on its diagonal);
    the boundary partitions are returned as tuples either way.
    """
    pi, m, n = plan.pi, plan.m, plan.n
    nrows = len(pi)
    kinds = plan.row_kinds
    c = plan.bit_offset
    if c is None:
        grow, empty = GROW, EMPTY
        box_work = lambda lam, mu: max(len(lam), len(mu)) + 1
    else:
        grow, empty = GROW_BITS, to_bits(EMPTY, c)
        # max(len(lam), len(mu)) + 1: the tail of a bitset starts at len + c + 1
        box_work = lambda lam, mu: (~(lam & mu)).bit_length() - c
    profile = [empty] * (m + 1)
    segments = []  # per-row boundary pieces, assembled at the end
    for j in range(1, nrows + 1):
        row_len = pi[j - 1]
        stop = row_len if diagonal is None else min(row_len, j)
        prev_diag = empty  # tau(i - 1, j - 1)
        for i, kind in enumerate(kinds[j - 1][:stop], start=1):
            lam, above = profile[i - 1], profile[i]  # tau(i - 1, j), tau(i, j - 1)
            if i == j and diagonal is not None:
                nu = diagonal(i, kind, lam, prev_diag)
            else:
                nu = grow[kind](lam, above, prev_diag, box_input(i, j, kind))
            if stats is not None:
                stats.boxes += 1
                stats.work += box_work(lam, above)
            profile[i] = nu
            prev_diag = above
        segments.append(profile[pi[j] if j < nrows else 0 : row_len + 1])
    lambdas = [EMPTY] * (n - nrows)  # padded empty rows on the vertical axis
    for seg in reversed(segments):
        lambdas.extend(seg if c is None else map(from_bits, seg))
    lambdas.extend([EMPTY] * (m - (pi[0] if pi else 0) + 1))
    if diagonal is not None:
        lambdas[n + 1 :] = reversed(lambdas[:n])
    return tuple(lambdas)


def run_growth(
    plan: ShapePlan, inputs: Dict[Box, int], order: str = "row_major"
) -> Dict[Box, Partition]:
    """Fill the shape with the local rules under the given per-box inputs.

    Any traversal respecting the coordinatewise partial order yields the same
    grid; ``diagonal`` order (by i + j) realizes domino shuffling on Aztec
    words.
    """
    if order == "row_major":
        boxes: Iterable[Box] = plan.boxes()
    elif order == "diagonal":
        boxes = plan.boxes_diagonal()
    else:
        raise ValueError(f"unknown traversal order {order!r}")
    tau: Dict[Box, Partition] = {}
    get = tau.get
    for i, j in boxes:
        lam = get((i - 1, j), EMPTY)
        mu = get((i, j - 1), EMPTY)
        kap = get((i - 1, j - 1), EMPTY)
        tau[(i, j)] = GROW[plan.box_type(i, j)](lam, mu, kap, inputs[(i, j)])
    return tau


def boundary_lambdas(plan: ShapePlan, grid: Dict[Box, Partition]) -> Tuple[Partition, ...]:
    return tuple(grid.get(pt, EMPTY) for pt in plan.boundary_points())


def schur_sample(
    word: Sequence[Rel], z: Sequence, src: RandomSource | int
) -> ProcessSample:
    """Draw one exact sample of the Schur process of ``word`` with parameters
    ``z``, storing one profile of m + 1 partitions."""
    if isinstance(src, int):
        src = RandomSource(src)
    plan = precompute_par(word, z)
    table = check_parameters(plan)
    stats = SampleStats()
    lambdas = grow_profile(plan, box_draw(table, src), stats=stats)
    return ProcessSample(
        word=plan.word,
        z=tuple(z),
        seed=src.seed,
        lambdas=lambdas,
        stats=stats,
        draw_log=list(src.draw_log) if src.draw_log is not None else None,
    )


# Another name for schur_sample, which already stores O(m + n) partitions;
# kept for the callers that use it.
in_place_boundary_sample = schur_sample


def shrink_profile(plan: ShapePlan, lambdas: Sequence[Partition], diagonal=None):
    """The inverse of grow_profile: from its boundary partitions ``lambdas``,
    which must be a valid sequence (the kernels are unchecked), yield
    ((i, j), input) for every box in reverse row-major order.

    One profile of tau(i, j) is kept: row j is shrunk right to left, each box
    giving tau(i - 1, j - 1), and those kappas with the boundary of row
    j - 1 make the next profile.  With ``diagonal`` only the boxes i <= j are
    shrunk; box (i, i) gives ``diagonal(i, kind, mu, nu)`` = (kappa, input)
    with mu = tau(i - 1, i).

    On a plan with a ``bit_offset`` the profile holds the Maya bitsets of
    complements turned in an a x b rectangle (``partitions.turned_bits``)
    and each box runs ``rules.SHRINK_BITS``; only the boundary is encoded.
    """
    pi, nrows = plan.pi, len(plan.pi)
    if plan.bit_offset is None:
        shrink, encode = SHRINK, lambda lam: lam
    else:
        # every tau(i, j) lies inside a boundary partition, so the rectangle
        # reaches one row and one column past the largest boundary ones
        a = max(map(len, lambdas)) + 1
        b = max((lam[0] for lam in lambdas if lam), default=0) + 1
        shrink, encode = SHRINK_BITS, lambda lam: turned_bits(lam, a, b)
    rows = [[] for _ in range(nrows + 1)]  # rows[j]: boundary tau(i, j), i rising
    for (i, j), lam in zip(plan.boundary_points(), lambdas):
        if j <= nrows and (diagonal is None or i <= j):
            rows[j].append(encode(lam))
    profile = rows[nrows]
    for j in range(nrows, 0, -1):
        stop = pi[j - 1] if diagonal is None else min(pi[j - 1], j)
        kinds = plan.row_kinds[j - 1]
        kaps = []
        mu = rows[j - 1][0] if rows[j - 1] else encode(EMPTY)  # tau(stop, j - 1)
        for i in range(stop, 0, -1):
            if i == j and diagonal is not None:
                mu, rand = diagonal(i, kinds[i - 1], profile[i - 1], profile[i])
            else:
                mu, rand = shrink[kinds[i - 1]](profile[i - 1], profile[i], mu)
            kaps.append(mu)  # tau(i - 1, j - 1), the mu of the next box
            yield (i, j), rand
        kaps.reverse()
        profile = kaps + rows[j - 1]


def reconstruct_inputs(sample: ProcessSample) -> Dict[Box, int]:
    """Recover the per-box random inputs from the output sequence alone: the
    draw log of the forward run, keyed by box in row-major order.

    The inverse sweep :func:`shrink_profile` recovers them, and one forward
    replay certifies them: they must regrow the sample, else GrowthError.
    """
    sample.validate()
    plan = precompute_par(sample.word, sample.z)
    inputs = dict(reversed(list(shrink_profile(plan, sample.lambdas))))
    if grow_profile(plan, lambda i, j, kind: inputs[i, j]) != tuple(sample.lambdas):
        raise GrowthError("the recovered inputs do not regrow the sample")
    return inputs

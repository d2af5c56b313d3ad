"""Codecs between interlaced partition sequences and concrete tiling models.

Conventions for steep tilings (pinned against the 2x2 Aztec diamond and the
width-5 pyramid reconstructions in the tests):

* diagonal k of the tiling carries the Maya diagram of lambda(k), shifted
  upward by sigma_k = #{i <= k : w_i is < or >'} (the vertical steps of the
  minimal tiling path);
* a domino always spans two consecutive diagonals k, k+1 and links position
  p to p (horizontal domino) or p to p+1 (vertical domino);
* the dominoes between k and k+1 pair the particles of the two diagonals
  when w_{k+1} is primed and the holes otherwise, row by row; their sign is
  negative (particle cells) in the primed case, positive in the plain case.
"""
from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from .partitions import (
    FrozenRecord,
    MayaWindow,
    Partition,
    Record,
    conjugate,
    from_maya,
    require_closed,
    require_interlaced,
)
from .words import Rel, Word, encoded_shape


class CodecError(ValueError):
    pass


def _require_tableau(shape: Partition, rows: tuple, values) -> None:
    """The shape is a partition, the rows have its lengths, and ``values``,
    the rows of entry values, hold integers."""
    if any(a < b for a, b in zip(shape, shape[1:])) or (shape and shape[-1] < 1):
        raise CodecError(f"shape {list(shape)} is not a partition")
    if tuple(len(r) for r in rows) != shape:
        raise CodecError("row lengths do not match the shape")
    for r, row in enumerate(values, start=1):
        for c, v in enumerate(row, start=1):
            if not isinstance(v, int):
                raise CodecError(f"entry {v!r} at row {r}, column {c} is not an integer")


# ---------------------------------------------------------------------------
# reverse plane partitions

class HeightMatrix(FrozenRecord):
    """A reverse plane partition: ``rows[r-1]`` is row r (the r-th part of
    the shape, drawn at the bottom in French convention), a tuple of ints
    non-decreasing along rows and up columns."""

    def __init__(self, shape: Partition, rows: tuple):
        self.__dict__.update(shape=shape, rows=rows)

    def validate(self) -> None:
        _require_tableau(self.shape, self.rows, self.rows)
        for r, row in enumerate(self.rows, start=1):
            for c, (x, y) in enumerate(zip(row, row[1:]), start=2):
                if x > y:
                    raise CodecError(f"row {r} decreases at column {c}")
        for r, (prev, row) in enumerate(zip(self.rows, self.rows[1:]), start=2):
            for c, (x, y) in enumerate(zip(prev, row), start=1):
                if x > y:
                    raise CodecError(f"column {c} decreases at row {r}")
        if self.rows and self.rows[0][0] < 0:  # the smallest entry, rows being monotone
            raise CodecError(f"entry {self.rows[0][0]} at row 1, column 1 is negative")


def to_plane_partition(word: Sequence[Rel], lambdas: Sequence[Partition]) -> HeightMatrix:
    """Fold an unprimed interlaced sequence into the reverse plane partition
    whose diagonal slices are the lambda(k)."""
    word = tuple(word)
    if any(s.primed for s in word):
        raise CodecError("plane partitions need an unprimed word")
    require_closed(word, lambdas, CodecError)
    require_interlaced(word, lambdas, CodecError)
    shape = encoded_shape(word)
    n = sum(1 for s in word if not s.left)
    parts = [iter(lam) for lam in lambdas]  # diagonal k from its top cell down
    rows = [  # top row first; cell (r + 1, c + 1) lies on diagonal c - r + n
        tuple(next(parts[c - r + n], 0) for c in range(shape[r]))
        for r in range(len(shape) - 1, -1, -1)
    ]
    hm = HeightMatrix(shape, tuple(reversed(rows)))
    hm.validate()
    return hm


def from_plane_partition(word: Sequence[Rel], hm: HeightMatrix) -> Tuple[Partition, ...]:
    """Read the diagonal slices back; inverse of :func:`to_plane_partition`."""
    word = tuple(word)
    hm.validate()
    if hm.shape != encoded_shape(word):
        raise CodecError(f"shape {list(hm.shape)} is not the shape of the word")
    n = sum(1 for s in word if not s.left)
    diagonals: List[List[int]] = [[] for _ in range(len(word) + 1)]  # rising along the rows
    for r, row in enumerate(hm.rows):
        for c, v in enumerate(row):
            if v:
                diagonals[c - r + n].append(v)
    return tuple(tuple(reversed(d)) for d in diagonals)


# ---------------------------------------------------------------------------
# steep tilings

def _domino_fault(domino, signs) -> str:
    """What makes ``domino`` no domino of a tiling whose steps have
    ``signs``."""
    k, p, vertical, sign = domino
    for name, v in (("k", k), ("pos2", p), ("sign", sign)):
        if type(v) is not int:
            return f"{name} {v!r} is not an integer"
    if type(vertical) is not bool:
        return f"vertical {vertical!r} is not a bool"
    if not 0 <= k < len(signs):
        return f"step {k} is not in 0..{len(signs) - 1}"
    return f"pos2 {p} is even" if p % 2 == 0 else f"step {k} needs sign {signs[k]}"


class DominoTiling(Record):
    """A steep tiling, its dominoes the plain tuples (k, pos2, vertical,
    sign) in sorted order.  A domino covers the cell at doubled Maya
    position pos2 on diagonal k and the cell at pos2 + 2 (vertical) or
    pos2 (horizontal) on diagonal k + 1; its sign is +1 when both cells
    are holes and -1 when both are particles.  ``window`` is the doubled
    positions [lo, hi] covered per diagonal."""

    def __init__(self, word: Word, window: Tuple[int, int], dominoes: tuple):
        self.word = word
        self.window = window
        self.dominoes = dominoes

    def validate(self) -> None:
        """A steep word, odd integer window bounds, and dominoes of integer
        k, pos2 and sign and bool vertical on its steps at odd positions,
        signed -1 on a primed step and +1 on a plain one, no two on one
        cell.  Dominoes may lie outside the window."""
        _require_steep(self.word, self.window)
        n = len(self.word)
        signs = [-1 if s.primed else 1 for s in self.word]
        m = n + 1  # the cell (k, p), 0 <= k <= n, has the key p * m + k
        cells = set()
        for k, p, vertical, sign in self.dominoes:
            if not (type(k) is type(p) is type(sign) is int and type(vertical) is bool
                    and 0 <= k < n and p % 2 and sign == signs[k]):
                d = (k, p, vertical, sign)
                raise CodecError(f"domino {d}: {_domino_fault(d, signs)}")
            a = p * m + k
            b = a + (2 * m + 1 if vertical else 1)  # (k + 1, p + 2 * vertical)
            if a in cells or b in cells:
                p, k = divmod(a if a in cells else b, m)
                raise CodecError(f"two dominoes cover the cell at diagonal {k}, {p}")
            cells.add(a)
            cells.add(b)


def word_shifts(word: Sequence[Rel]) -> Tuple[int, ...]:
    """sigma_k for k = 0..n: vertical steps of the minimal-tiling path."""
    out = [0]
    for s in word:
        out.append(out[-1] + (1 if s in (Rel.LH, Rel.RV) else 0))
    return tuple(out)


def is_steep_word(word: Sequence[Rel]) -> bool:
    """Odd positions primed, even positions plain (1-based), even length."""
    return len(word) % 2 == 0 and all(s.primed == (i % 2 == 0) for i, s in enumerate(word))


def _require_steep(word: Word, window: Optional[Tuple[int, int]]) -> None:
    """A steep word and, if given, a window of two odd integer bounds."""
    if not is_steep_word(word):
        raise CodecError("not a steep word: needs alternating primed/plain symbols")
    if window is None:
        return
    if len(window) != 2:
        raise CodecError(f"window must be two bounds, got {list(window)}")
    if not all(type(b) is int for b in window):
        raise CodecError(f"window bounds must be integers, got {list(window)}")
    if window[0] % 2 == 0 or window[1] % 2 == 0:
        raise CodecError("window bounds must be doubled half-integers (odd)")


def _step_dominoes(k: int, a: Partition, b: Partition, s: int, t: int, flip: int,
                   lo: int, hi: int) -> List[Tuple[int, int, bool, int]]:
    """The dominoes (k, p, q != p, -flip) of step k + 1, one for each row i
    whose marks p and q reach the window [lo, hi], in increasing p.

    With ``flip`` = 1 row i is the particle at 2(a_i - i + s) + 1 on the
    left diagonal and 2(b_i - i + t) + 1 on the right one; with ``flip`` =
    -1, and a, b the conjugates, it is the hole at 2(i - a_i + s) - 1 and
    2(i - b_i + t) - 1.  Every row that a or b reaches must move its mark
    by 0 or 2.  The rows past both are vacuum: they move by 2(t - s), which
    is 0 or 2 because sigma steps by 0 or 1, and their marks fall (particles)
    or rise (holes) by 2 a row, so the ones in the window are a run.
    """
    rows = max(len(a), len(b))
    a = tuple(a) + (0,) * (rows - len(a))
    b = tuple(b) + (0,) * (rows - len(b))
    marks = [
        (2 * (flip * (x - i) + s) + flip, 2 * (flip * (y - i) + t) + flip)
        for i, x, y in zip(range(1, rows + 1), a, b)
    ]
    for p, q in marks:
        if q - p not in (0, 2):
            raise CodecError(
                f"sequence does not interlace at step {k + 1}: mark moves from {p} to {q}"
            )
    if flip == 1:  # vacuum p = 2(s - i) + 1 <= hi and q = 2(t - i) + 1 >= lo
        first, last = s + (1 - hi) // 2, t + (1 - lo) // 2
    else:  # vacuum q = 2(t + i) - 1 >= lo and p = 2(s + i) - 1 <= hi
        first, last = (lo + 1) // 2 - t, (hi + 1) // 2 - s
    marks += [
        (2 * (s - flip * i) + flip, 2 * (t - flip * i) + flip)
        for i in range(max(first, rows + 1), last + 1)
    ]
    if flip == 1:
        marks.reverse()
    sign = -flip
    return [(k, p, q != p, sign) for p, q in marks if lo <= p <= hi or lo <= q <= hi]


def to_steep_tiling(
    word: Sequence[Rel],
    lambdas: Sequence[Partition],
    window: Optional[Tuple[int, int]] = None,
) -> DominoTiling:
    """Encode an interlaced sequence of a steep word as a domino tiling.

    ``window`` (doubled positions, odd bounds) fixes which part of the
    infinite strip is materialized; it defaults to the deviation range of
    the sequence plus one frame domino on each side.  The dominoes come out
    sorted, by step and then by position.
    """
    word = tuple(word)
    _require_steep(word, window)  # a default window has odd bounds
    require_closed(word, lambdas, CodecError)
    shifts = word_shifts(word)
    if window is None:
        lo = min(2 * (s - len(lam)) - 1 for s, lam in zip(shifts, lambdas)) - 2
        hi = max(2 * (s + (lam[0] if lam else 0)) + 1 for s, lam in zip(shifts, lambdas)) + 2
        window = (lo, hi)
    lo, hi = window
    dominoes: List[Tuple[int, int, bool, int]] = []
    for k, rel in enumerate(word):
        a, b = lambdas[k], lambdas[k + 1]
        if rel.primed:  # a primed step pairs the particles, a plain one the holes
            flip = 1
        else:
            flip, a, b = -1, conjugate(a), conjugate(b)
        dominoes += _step_dominoes(k, a, b, shifts[k], shifts[k + 1], flip, lo, hi)
    return DominoTiling(word, window, tuple(dominoes))


def from_steep_tiling(tiling: DominoTiling) -> Tuple[Partition, ...]:
    """Decode the per-diagonal Maya diagrams back into partitions."""
    tiling.validate()
    lo, hi = tiling.window
    n = len(tiling.word)
    marks: List[Dict[int, bool]] = [dict() for _ in range(n + 1)]
    for k, p, vertical, sign in tiling.dominoes:
        marks[k][p] = marks[k + 1][p + 2 if vertical else p] = sign < 0
    # interior diagonals are fully covered (particles by the primed-step
    # matching on one side, holes by the plain-step one on the other);
    # diagonal 0 only stores its particles, diagonal n only its holes
    return tuple(
        from_maya(MayaWindow(lo, tuple(marks[k].get(p, k == n) for p in range(lo, hi + 1, 2))))
        for k in range(n + 1)
    )


def aztec_cell(n: int, k: int, pos2: int) -> bool:
    """Does the diagonal-k cell at doubled Maya position pos2 lie in the
    size-n Aztec diamond?  The Maya position is the doubled vertical offset
    of the square center from the region center; the horizontal offset
    follows from the diagonal index."""
    cy2 = pos2
    cx2 = pos2 + 2 * (n - k)
    return abs(cx2) + abs(cy2) <= 2 * n


def aztec_region_dominoes(tiling: DominoTiling, n: int) -> frozenset:
    return frozenset(
        (k, p, vertical, sign)
        for k, p, vertical, sign in tiling.dominoes
        if aztec_cell(n, k, p) and aztec_cell(n, k + 1, p + 2 * vertical)
    )


# ---------------------------------------------------------------------------
# plane overpartitions

class OverpartitionTableau(FrozenRecord):
    """Shape-filling by integers with overline flags, each row a tuple of
    cells (v, over); an overlined k stands for the half-integer k - 1/2, so
    a cell compares by its key 2v - over."""

    def __init__(self, shape: Partition, rows: tuple):
        self.__dict__.update(shape=shape, rows=rows)

    def validate(self) -> None:
        _require_tableau(self.shape, self.rows, ([v for v, _ in row] for row in self.rows))
        keys = [[2 * v - over for v, over in row] for row in self.rows]
        for r, row in enumerate(keys, start=1):
            for c, (x, y) in enumerate(zip(row, row[1:]), start=2):
                if x < y:
                    raise CodecError(f"row {r} increases at column {c}")
                if x == y and x % 2:  # of equal overlined entries only the last may be
                    raise CodecError(f"non-final overline of {(x + 1) // 2} in row {r}")
        for r, (prev, row) in enumerate(zip(keys, keys[1:]), start=2):
            for c, (x, y) in enumerate(zip(prev, row), start=1):
                if x < y:
                    raise CodecError(f"column {c} increases at row {r}")
                if x == y and x % 2 == 0:  # of equal entries the later must be overlined
                    raise CodecError(f"repeated {x // 2} in column {c} not overlined")
        if any(row[-1][0] < 1 for row in self.rows):  # a row's smallest entry is its last
            raise CodecError(f"entries must be at least 1, got {min(r[-1][0] for r in self.rows)}")


def overpartition_word(n: int) -> Word:
    return (Rel.LH, Rel.LV) * n


def to_plane_overpartition(
    word: Sequence[Rel], lambdas: Sequence[Partition]
) -> OverpartitionTableau:
    """Encode a right-free sequence of word (<, <')^n as a plane
    overpartition: lambda(i) is the set of cells with value > n - i/2, so
    the cells that lambda(i) adds to a row hold n - (i - 1)/2 for odd i and
    an overlined n - i/2 + 1 for even i."""
    word = tuple(word)
    n = len(word) // 2
    if word != overpartition_word(n):
        raise CodecError("plane overpartitions need the word (<<')^n")
    if len(lambdas) < 2 * n + 1:
        raise CodecError("need the right-free sequence up to the free partition")
    if lambdas[0]:
        raise CodecError(f"the first slice must be empty, got {lambdas[0]}")
    require_interlaced(word, lambdas, CodecError)
    shape = tuple(lambdas[2 * n])
    rows: List[List[Tuple[int, bool]]] = [[] for _ in shape]
    for i in range(1, 2 * n + 1):
        cell = (n - (i - 1) // 2, False) if i % 2 else (n - i // 2 + 1, True)
        for row, length in zip(rows, lambdas[i]):
            row += [cell] * (length - len(row))
    tab = OverpartitionTableau(shape, tuple(map(tuple, rows)))
    tab.validate()
    return tab


def from_plane_overpartition(tab: OverpartitionTableau, n: int) -> Tuple[Partition, ...]:
    """Level sets of the tableau, whose values must lie in 1..n: lambda(i)
    collects cells with value above n - i/2.  A cell (v, over) enters at
    slice 2(n - v) + 1 + over, and running sums per row give the slices."""
    if n < 0:
        raise CodecError(f"n must be at least 0, got {n}")
    tab.validate()
    if tab.rows and tab.rows[0][0][0] > n:  # the largest entry
        raise CodecError(f"entry {tab.rows[0][0][0]} in row 1 is above n = {n}")
    sums = []
    for row in tab.rows:
        enters = [0] * (2 * n + 1)
        for v, over in row:
            enters[2 * (n - v) + 1 + over] += 1
        sums.append(list(accumulate(enters)))
    return tuple(tuple(s[i] for s in sums if s[i]) for i in range(2 * n + 1))

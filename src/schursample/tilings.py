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

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .partitions import (
    MayaWindow,
    Partition,
    conjugate,
    from_maya,
)
from .words import Rel, Word, encoded_shape


class CodecError(ValueError):
    pass


def _require_closed(word: Word, lambdas: Sequence[Partition]) -> None:
    """A finite sequence has one slice more than its word and empty ends."""
    if len(lambdas) != len(word) + 1:
        raise CodecError(
            f"a word of {len(word)} symbols needs {len(word) + 1} slices, got {len(lambdas)}"
        )
    if lambdas[0] or lambdas[-1]:
        raise CodecError(f"the end slices must be empty, got {lambdas[0]} and {lambdas[-1]}")


# ---------------------------------------------------------------------------
# reverse plane partitions

@dataclass(frozen=True)
class HeightMatrix:
    """A reverse plane partition: ``rows[r-1]`` is row r (the r-th part of
    the shape, drawn at the bottom in French convention), non-decreasing
    along rows and up columns."""

    shape: Partition
    rows: tuple  # tuple[tuple[int, ...], ...]

    def entry(self, c: int, r: int) -> int:
        return self.rows[r - 1][c - 1]

    def validate(self) -> None:
        if tuple(len(r) for r in self.rows) != self.shape:
            raise CodecError("row lengths do not match the shape")
        for r, row in enumerate(self.rows, start=1):
            for c in range(1, len(row) + 1):
                if c > 1 and row[c - 2] > row[c - 1]:
                    raise CodecError(f"row {r} decreases at column {c}")
                if r > 1 and c <= len(self.rows[r - 2]) and self.rows[r - 2][c - 1] > row[c - 1]:
                    raise CodecError(f"column {c} decreases at row {r}")


def to_plane_partition(word: Sequence[Rel], lambdas: Sequence[Partition]) -> HeightMatrix:
    """Fold an unprimed interlaced sequence into the reverse plane partition
    whose diagonal slices are the lambda(k)."""
    word = tuple(word)
    if any(s.primed for s in word):
        raise CodecError("plane partitions need an unprimed word")
    _require_closed(word, lambdas)
    shape = encoded_shape(word)
    n = sum(1 for s in word if not s.left)
    rows: List[List[int]] = [[0] * ln for ln in shape]
    seen = [0] * len(lambdas)  # cells of each diagonal in the rows below
    for r in range(len(shape) - 1, -1, -1):
        row = rows[r]
        for c in range(shape[r]):
            k = c - r + n  # the diagonal of row r + 1, column c + 1
            lam, i = lambdas[k], seen[k]
            row[c] = lam[i] if i < len(lam) else 0
            seen[k] = i + 1
    hm = HeightMatrix(tuple(shape), tuple(tuple(r) for r in rows))
    hm.validate()
    return hm


def from_plane_partition(word: Sequence[Rel], hm: HeightMatrix) -> Tuple[Partition, ...]:
    """Read the diagonal slices back; inverse of :func:`to_plane_partition`."""
    word = tuple(word)
    hm.validate()
    n = sum(1 for s in word if not s.left)
    out: List[Partition] = []
    for k in range(len(word) + 1):
        d = k - n
        vals = []
        for r in range(1, len(hm.shape) + 1):
            c = r + d
            if 1 <= c <= hm.shape[r - 1]:
                vals.append(hm.entry(c, r))
        vals.sort(reverse=True)
        out.append(tuple(v for v in vals if v))
    return tuple(out)


# ---------------------------------------------------------------------------
# steep tilings

class Domino(NamedTuple):
    """One domino in diagonal coordinates: it covers the cell at doubled
    Maya position ``pos2`` on diagonal ``k`` and the cell at ``pos2 + 2``
    (vertical) or ``pos2`` (horizontal) on diagonal k + 1.  Dominoes order
    as the tuples (k, pos2, vertical, sign)."""

    k: int
    pos2: int
    vertical: bool
    sign: int  # +1: both cells are holes; -1: both are particles

    def cells(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        return (self.k, self.pos2), (self.k + 1, self.pos2 + (2 if self.vertical else 0))


@dataclass
class DominoTiling:
    word: Word
    window: Tuple[int, int]  # doubled positions [lo, hi] covered per diagonal
    dominoes: tuple  # tuple[Domino, ...], sorted


def word_shifts(word: Sequence[Rel]) -> Tuple[int, ...]:
    """sigma_k for k = 0..n: vertical steps of the minimal-tiling path."""
    out = [0]
    for s in word:
        out.append(out[-1] + (1 if s in (Rel.LH, Rel.RV) else 0))
    return tuple(out)


def is_steep_word(word: Sequence[Rel]) -> bool:
    """Odd positions primed, even positions plain (1-based), even length."""
    word = tuple(word)
    if len(word) % 2:
        return False
    return all(s.primed == (i % 2 == 0) for i, s in enumerate(word))


def _step_marks(k: int, a: Partition, b: Partition, s: int, t: int, flip: int,
                lo: int, hi: int) -> List[Tuple[int, int]]:
    """The marks (p, q) that row i of step k + 1 links, for the rows whose
    marks reach the window [lo, hi], in increasing p.

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
    return [(p, q) for p, q in marks if lo <= p <= hi or lo <= q <= hi]


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
    if not is_steep_word(word):
        raise CodecError("not a steep word: needs alternating primed/plain symbols")
    _require_closed(word, lambdas)
    shifts = word_shifts(word)
    if window is None:
        lo = min(2 * (s - len(lam)) - 1 for s, lam in zip(shifts, lambdas)) - 2
        hi = max(2 * (s + (lam[0] if lam else 0)) + 1 for s, lam in zip(shifts, lambdas)) + 2
        window = (lo, hi)
    lo, hi = window
    if lo % 2 == 0 or hi % 2 == 0:
        raise CodecError("window bounds must be doubled half-integers (odd)")
    dominoes: List[Domino] = []
    for k, rel in enumerate(word):
        a, b = lambdas[k], lambdas[k + 1]
        if rel.primed:  # a primed step pairs the particles, a plain one the holes
            flip = 1
        else:
            flip, a, b = -1, conjugate(a), conjugate(b)
        marks = _step_marks(k, a, b, shifts[k], shifts[k + 1], flip, lo, hi)
        dominoes += [Domino(k, p, q != p, -flip) for p, q in marks]
    return DominoTiling(word, window, tuple(dominoes))


def from_steep_tiling(tiling: DominoTiling) -> Tuple[Partition, ...]:
    """Decode the per-diagonal Maya diagrams back into partitions."""
    lo, hi = tiling.window
    n = len(tiling.word)
    marks: List[Dict[int, bool]] = [dict() for _ in range(n + 1)]
    for d in tiling.dominoes:
        for k, p in d.cells():
            if 0 <= k <= n and lo <= p <= hi:
                if p in marks[k] and marks[k][p] != (d.sign < 0):
                    raise CodecError(f"conflicting dominoes at diagonal {k}, {p}")
                marks[k][p] = d.sign < 0
    out = []
    for k in range(n + 1):
        # interior diagonals are fully covered (particles by the primed-step
        # matching on one side, holes by the plain-step one on the other);
        # diagonal 0 only stores its particles, diagonal n only its holes
        default = k == n
        cells = tuple(
            marks[k].get(p, default) for p in range(lo, hi + 1, 2)
        )
        out.append(from_maya(MayaWindow(lo, cells)))
    return tuple(out)


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
        d
        for d in tiling.dominoes
        if all(aztec_cell(n, k, p) for k, p in d.cells())
    )


# ---------------------------------------------------------------------------
# plane overpartitions

@dataclass(frozen=True)
class OverpartitionTableau:
    """Shape-filling by integers with overline flags; an overlined k stands
    for the half-integer k - 1/2."""

    shape: Partition
    rows: tuple  # tuple[tuple[(int, bool), ...], ...]

    def numeric(self, c: int, r: int) -> float:
        v, over = self.rows[r - 1][c - 1]
        return v - 0.5 if over else float(v)

    def validate(self) -> None:
        if tuple(len(r) for r in self.rows) != self.shape:
            raise CodecError("row lengths do not match the shape")
        for r, row in enumerate(self.rows, start=1):
            for c in range(2, len(row) + 1):
                if self.numeric(c - 1, r) < self.numeric(c, r):
                    raise CodecError(f"row {r} increases at column {c}")
            # only the last occurrence of an integer may be overlined
            for c in range(1, len(row)):
                v, over = row[c - 1]
                if over and c < len(row) and row[c][0] == v:
                    raise CodecError(f"non-final overline of {v} in row {r}")
        ncols = self.shape[0] if self.shape else 0
        for c in range(1, ncols + 1):
            col = [
                self.rows[r - 1][c - 1]
                for r in range(1, len(self.shape) + 1)
                if self.shape[r - 1] >= c
            ]
            for idx in range(1, len(col)):
                if col[idx - 1][0] == col[idx][0] and not col[idx][1]:
                    raise CodecError(f"repeated {col[idx][0]} in column {c} not overlined")
            for idx in range(1, len(col)):
                if self.numeric(c, idx) < self.numeric(c, idx + 1):
                    raise CodecError(f"column {c} increases at row {idx + 1}")


def overpartition_word(n: int) -> Word:
    return (Rel.LH, Rel.LV) * n


def to_plane_overpartition(
    word: Sequence[Rel], lambdas: Sequence[Partition]
) -> OverpartitionTableau:
    """Encode a right-free sequence of word (<, <')^n as a plane
    overpartition: lambda(i) is the set of cells with value > n - i/2."""
    word = tuple(word)
    n2 = len(word)
    if n2 % 2 or word != overpartition_word(n2 // 2):
        raise CodecError("plane overpartitions need the word (<<')^n")
    n = n2 // 2
    if len(lambdas) < n2 + 1:
        raise CodecError("need the right-free sequence up to the free partition")
    shape = lambdas[n2]
    rows: List[List[Tuple[int, bool]]] = []
    for r in range(1, len(shape) + 1):
        row = []
        for c in range(1, shape[r - 1] + 1):
            first = next(
                i for i in range(n2 + 1) if len(lambdas[i]) >= r and lambdas[i][r - 1] >= c
            )
            if first % 2:
                row.append((n - (first - 1) // 2, False))
            else:
                row.append((n - first // 2 + 1, True))
        rows.append(tuple(row))
    tab = OverpartitionTableau(tuple(shape), tuple(rows))
    tab.validate()
    return tab


def from_plane_overpartition(tab: OverpartitionTableau, n: int) -> Tuple[Partition, ...]:
    """Level sets of the tableau: lambda(i) collects cells with numeric
    value above n - i/2."""
    tab.validate()
    out = []
    for i in range(2 * n + 1):
        threshold = n - i / 2
        rows = []
        for r in range(1, len(tab.shape) + 1):
            cnt = sum(
                1
                for c in range(1, tab.shape[r - 1] + 1)
                if tab.numeric(c, r) > threshold
            )
            rows.append(cnt)
        out.append(tuple(v for v in rows if v))
    return tuple(out)

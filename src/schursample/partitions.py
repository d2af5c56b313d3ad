"""Integer partitions as plain tuples, plus interlacing and Maya diagrams.

A partition is a tuple of weakly decreasing positive integers; ``()`` is the
empty partition.  All functions treat partitions as having an implicit
infinite tail of zero parts, so ``part(lam, i)`` is total.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Optional, Tuple

Partition = Tuple[int, ...]

EMPTY: Partition = ()


def make(parts: Iterable[int]) -> Partition:
    """Normalize an iterable of row lengths into a partition tuple.

    Trailing zeros are trimmed; raises ValueError if the remaining parts are
    not weakly decreasing positive integers (bools are not integers here).
    """
    p = list(parts)
    while p and type(p[-1]) is int and p[-1] == 0:
        p.pop()
    for i, v in enumerate(p):
        if type(v) is not int:
            raise ValueError(f"parts must be integers, got {v!r}")
        if v <= 0:
            raise ValueError(f"parts must be positive, got {v}")
        if i and p[i - 1] < v:
            raise ValueError(f"parts must be weakly decreasing, got {p}")
    return tuple(p)


def part(lam: Partition, i: int) -> int:
    """1-based part accessor; 0 beyond the stored length."""
    if i < 1:
        raise ValueError(f"part index must be >= 1, got {i}")
    return lam[i - 1] if i <= len(lam) else 0


def conjugate(lam: Partition) -> Partition:
    """Transpose the Young diagram: result_i = #{j : lam_j >= i}.

    Runs in O(len(lam) + lam_1): the columns lam_{j+1} < i <= lam_j all
    have length j, so each row adds its columns in one block.
    """
    out = []
    j = len(lam)
    prev = 0
    for v in reversed(lam):
        if v != prev:
            out += [j] * (v - prev)
            prev = v
        j -= 1
    return tuple(out)


def has_even_parts(lam: Partition, parity: Optional[str]) -> bool:
    """Every row of lam (every column, with parity "columns") has even
    length; parity None asks nothing."""
    parts = conjugate(lam) if parity == "columns" else lam
    return parity is None or all(v % 2 == 0 for v in parts)


def contains(lam: Partition, mu: Partition) -> bool:
    """mu is a subdiagram of lam."""
    return len(mu) <= len(lam) and all(lam[i] >= mu[i] for i in range(len(mu)))


def interlaces_h(lam: Partition, mu: Partition) -> bool:
    """lam >= mu in the horizontal-strip sense: lam1 >= mu1 >= lam2 >= mu2 ..."""
    return all(x >= y >= z for x, y, z in zip_longest(lam, mu, lam[1:], fillvalue=0))


def interlaces_v(lam: Partition, mu: Partition) -> bool:
    """lam/mu is a vertical strip: 0 <= lam_i - mu_i <= 1 for all i."""
    return all(y <= x <= y + 1 for x, y in zip_longest(lam, mu, fillvalue=0))


def interlaces(lam: Partition, mu: Partition, rel) -> bool:
    """Check ``lam rel mu`` for a relation symbol from :mod:`schursample.words`.

    The two left symbols are defined by swapping arguments of the right ones,
    so ``interlaces(lam, mu, LH)`` means mu >= lam (a horizontal strip mu/lam).
    """
    if rel.left:
        lam, mu = mu, lam
    return interlaces_v(lam, mu) if rel.primed else interlaces_h(lam, mu)


def first_break(word, lambdas) -> Optional[int]:
    """The first step i >= 1 where lambda(i - 1) and lambda(i) do not relate
    by word[i - 1], or None."""
    steps = zip(word, lambdas, lambdas[1:])
    return next((i for i, (rel, a, b) in enumerate(steps, 1) if not interlaces(a, b, rel)), None)


def require_closed(word, lambdas, error) -> None:
    """A finite sequence has one slice more than its word and empty ends;
    raises ``error`` otherwise."""
    if len(lambdas) != len(word) + 1:
        raise error(
            f"a word of {len(word)} symbols needs {len(word) + 1} slices, got {len(lambdas)}"
        )
    if lambdas[0] or lambdas[-1]:
        raise error(f"the end slices must be empty, got {lambdas[0]} and {lambdas[-1]}")


def require_interlaced(word, lambdas, error) -> None:
    """At every step k, slice k - 1 relates to slice k by the k-th symbol;
    raises ``error`` at the first step that fails."""
    i = first_break(word, lambdas)
    if i is not None:
        a, rel, b = lambdas[i - 1], word[i - 1].value, lambdas[i]
        raise error(f"sequence does not interlace at step {i}: {a} {rel} {b} fails")


@dataclass(frozen=True)
class MayaWindow:
    """A finite window of a Maya diagram.

    Positions are half-integers stored doubled: cell k sits at doubled
    position ``offset + 2*k``.  Everything left of the window is a particle,
    everything right of it a hole.
    """

    offset: int
    cells: tuple  # tuple[bool, ...]; True = particle

    def positions(self):
        return [self.offset + 2 * k for k in range(len(self.cells))]


def to_maya(lam: Partition, shift: int = 0, window: tuple | None = None) -> MayaWindow:
    """Maya diagram of ``lam``: particles at lam_i - i + 1/2 + shift.

    ``window`` is an optional (lo, hi) pair of doubled half-integer positions
    (odd integers, inclusive); it must cover every position where the diagram
    differs from the vacuum, otherwise ValueError is raised.
    """
    lo_dev = 2 * (shift - len(lam)) + 1
    hi_dev = 2 * (shift + part(lam, 1)) - 1
    if window is None:
        lo, hi = (lo_dev, hi_dev) if lam else (2 * shift - 1, 2 * shift + 1)
    else:
        lo, hi = window
        if lo % 2 == 0 or hi % 2 == 0:
            raise ValueError("window bounds must be doubled half-integers (odd)")
        if lam and (lo > lo_dev or hi < hi_dev):
            raise ValueError("window too small: Maya diagram would be truncated")
    particles = {2 * (lam[i] - (i + 1)) + 1 + 2 * shift for i in range(len(lam))}
    # below the stored parts the diagram is the vacuum: particles at -i+1/2+shift
    vacuum_top = 2 * (shift - len(lam)) - 1
    cells = tuple(
        pos in particles or pos <= vacuum_top for pos in range(lo, hi + 1, 2)
    )
    return MayaWindow(lo, cells)


def from_maya(m: MayaWindow) -> Partition:
    """Recover the partition by counting holes to the left of each particle."""
    holes = 0
    rows = []
    for c in m.cells:
        if c:
            rows.append(holes)
        else:
            holes += 1
    rows.reverse()
    return make(rows)


def partitions_of(n: int):
    """All partitions of weight exactly n, lexicographically."""
    out = []

    def rec(rem, maxpart, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        for v in range(min(rem, maxpart), 0, -1):
            acc.append(v)
            rec(rem - v, v, acc)
            acc.pop()

    rec(n, n, [])
    return out


def partitions_up_to(n: int):
    """All partitions of weight <= n."""
    out = []
    for k in range(n + 1):
        out.extend(partitions_of(k))
    return out

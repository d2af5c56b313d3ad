"""Integer partitions as plain tuples, plus interlacing, Maya diagrams and
Maya bitsets.

A partition is a tuple of weakly decreasing positive integers; ``()`` is the
empty partition.  All functions treat partitions as having an implicit
infinite tail of zero parts, so ``part(lam, i)`` is total.

This leaf module also holds the package's record bases, ``Record`` and
``FrozenRecord``.
"""
from __future__ import annotations

from itertools import accumulate, zip_longest
from operator import ge, sub
from typing import Iterable, Optional, Tuple

Partition = Tuple[int, ...]

EMPTY: Partition = ()


class Record:
    """A plain record.  Its fields are the parameters of its class's own
    ``__init__``, in order, read once per class; records of one class
    compare and print by their fields, and a mutable record is unhashable."""

    def __init_subclass__(cls):
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A record that hashes by its fields and refuses assignment; its
    ``__init__`` sets the fields through ``self.__dict__``."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a frozen {type(self).__name__}")


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


def is_partition(lam: Partition) -> bool:
    """lam is weakly decreasing and its parts are positive, with no
    trailing zeros: the form that :func:`make` returns."""
    return not lam or (lam[-1] > 0 and all(map(ge, lam, lam[1:])))


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


class MayaWindow(FrozenRecord):
    """A finite window of a Maya diagram.

    Positions are half-integers stored doubled: cell k sits at doubled
    position ``offset + 2*k``.  Everything left of the window is a particle,
    everything right of it a hole.  ``cells`` is a tuple of bools, True for
    a particle.
    """

    def __init__(self, offset: int, cells: tuple):
        self.__dict__.update(offset=offset, cells=cells)

    def positions(self):
        return [self.offset + 2 * k for k in range(len(self.cells))]


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


def to_bits(lam: Partition, c: int) -> int:
    """Maya bitset of lam with offset c > lam_1: bit i - lam_i + c is set for
    every row i >= 1, so row 1 is the lowest particle, and the rows past
    len(lam) are the sign-extended ones of a negative int.

    Read from the top, the bits below that tail are lam_len zeros, a one,
    lam_{len-1} - lam_len zeros, ..., the one of row 1 and c + 1 - lam_1
    zeros.
    """
    runs = ["0" * g for g in map(sub, lam[::-1], (0,) + lam[:0:-1])]
    runs.append("0" * (c + 1 - (lam[0] if lam else 0)))
    return int("1".join(runs), 2) - (1 << (len(lam) + c + 1))


def from_bits(v: int) -> Partition:
    """The partition of a Maya bitset made by :func:`to_bits` with any offset:
    lam_i is the number of holes above row i's particle and below the tail,
    which starts at bit (~v).bit_length()."""
    tail = (~v).bit_length()
    # [3:] drops "0b" and the tail's lowest particle, which keeps the holes
    # just below it as leading zeros
    runs = bin(v & ((2 << tail) - 1))[3:].split("1")
    runs.pop()  # the holes below row 1
    return tuple(accumulate(map(len, runs)))[::-1]


def turn(v: int, a: int, b: int) -> int:
    """From lam's bitset v = to_bits(lam, b + 1), the bitset with the same
    offset of the complement of lam in the a x b rectangle turned 180
    degrees: (b - lam_a, ..., b - lam_1).  Needs len(lam) <= a and
    lam_1 <= b.  Turning reverses the window of bits 2 .. a + b + 1, below
    which both have holes and above which particles."""
    width = a + b
    window = format((v >> 2) & ((1 << width) - 1), f"0{width}b")
    return (int(window[::-1], 2) << 2) - (1 << (width + 2))


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

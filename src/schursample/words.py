"""Interlacing words, encoded shapes, and the box-type precomputation.

The compact ASCII syntax for words is ``<`` and ``>`` with an optional ``'``
suffix for the primed symbols, plus ``(...)^n`` repetition, e.g. ``"(<'>)^2"``
for the size-2 Aztec diamond word.
"""
from __future__ import annotations

import math
import re
import sys
from enum import Enum
from functools import cached_property
from itertools import chain, repeat
from fractions import Fraction
from numbers import Rational, Real
from typing import Dict, List, Sequence, Tuple

from .partitions import FrozenRecord, Partition, conjugate, make


class Rel(Enum):
    """One of the four interlacing relation symbols.  Each member sets
    ``left`` (a ``<``) and ``primed`` (a ``'`` suffix) once, when made."""

    LH = "<"
    RH = ">"
    LV = "<'"
    RV = ">'"

    def __init__(self, value: str):
        self.left = value[0] == "<"
        self.primed = value[-1] == "'"

    @property
    def inverse(self) -> "Rel":
        """The symbol with the same prime that points the other way."""
        return _INVERSE[self]

    def __repr__(self):
        return f"Rel({self.value!r})"


_INVERSE = {Rel.LH: Rel.RH, Rel.RH: Rel.LH, Rel.LV: Rel.RV, Rel.RV: Rel.LV}

Word = Tuple[Rel, ...]

_TOKEN = re.compile(r"\s*(?:(<'|>'|<|>)|(\()|(\)\s*\^\s*(\d+)))")

MAX_WORD_LENGTH = 10**6  # longest word parse_word expands, in symbols

# The largest float, as an int: a comparison with it is exact for ints,
# floats and Fractions alike, and a Fraction compares with an int without
# turning the float into a Fraction first.
FLOAT_MAX = int(sys.float_info.max)


def _check_length(n: int) -> None:
    if n > MAX_WORD_LENGTH:
        raise ValueError(f"word expands to {n} symbols, more than {MAX_WORD_LENGTH}")


def parse_word(text: str) -> Word:
    """Parse the ASCII word syntax; raises ValueError on bad input,
    including words longer than MAX_WORD_LENGTH symbols."""
    out: List[Rel] = []
    stack: List[int] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad word syntax at {text[pos:]!r}")
        pos = m.end()
        sym, open_, close, rep = m.group(1), m.group(2), m.group(3), m.group(4)
        if sym:
            _check_length(len(out) + 1)
            out.append(Rel(sym))
        elif open_:
            stack.append(len(out))
        else:
            if not stack:
                raise ValueError("unbalanced ')' in word")
            start = stack.pop()
            _check_length(start + (len(out) - start) * int(rep))
            out[start:] = out[start:] * int(rep)
    if stack:
        raise ValueError("unbalanced '(' in word")
    return tuple(out)


def format_word(w: Sequence[Rel]) -> str:
    return "".join(s.value for s in w)


def encoded_shape(w: Sequence[Rel]) -> Partition:
    """Young diagram whose boundary path records the word.

    Part k of the result is the number of left symbols preceding the k-th
    right symbol counted from the end of the word.
    """
    lefts = 0
    parts = []
    for s in w:
        if s.left:
            lefts += 1
        else:
            parts.append(lefts)
    parts.reverse()
    return make(parts)


_KINDS = (("HH", "HV"), ("VH", "VV"))  # [left.primed][right.primed]


def box_kind(left: Rel, right: Rel) -> str:
    """Local-rule type of a box whose column symbol is ``left`` and row
    symbol is ``right``: H for a plain symbol, V for a primed one."""
    return _KINDS[left.primed][right.primed]


def epsilon(left: Rel, right: Rel) -> int:
    """+1 for the Bernoulli (mixed) pairs, -1 for the geometric pairs.

    This one predicate, with box_kind, feeds the finite and symmetric
    samplers, the pyramidal sampler (through its WordConvention) and the
    partition-function evaluators, so the sign conventions cannot drift.
    """
    return 1 if left.primed != right.primed else -1


class ShapePlan(FrozenRecord):
    """Precomputed data for filling the encoded shape of a word.

    ``pi`` is the encoded shape; boxes are indexed (i, j) with j the row
    (row 1 = first part of pi) and 1 <= i <= pi_j.  ``u``/``x`` list the left
    symbols and their parameters in word order; ``v``/``y`` list the right
    symbols and parameters with v[0] belonging to the *last* right symbol of
    the word (that is the row-1 symbol of the shape).
    """

    def __init__(self, word: Word, pi: Partition, x: tuple, y: tuple,
                 u: Tuple[Rel, ...], v: Tuple[Rel, ...]):
        self.__dict__.update(word=word, pi=pi, x=x, y=y, u=u, v=v)

    @cached_property
    def row_kinds(self) -> List[List[str]]:
        """kinds[j - 1][i - 1] is the kind of box (i, j),
        ``box_kind(u[i - 1], v[j - 1])``, for every column i <= m; rows with
        the same symbol share one list.  Computed once per plan, for the
        parameter check and the growth sweep."""
        # keyed by the prime, which alone sets the kinds of a row symbol
        by_prime = {p: [_KINDS[u.primed][p] for u in self.u] for p in {s.primed for s in self.v}}
        return [by_prime[s.primed] for s in self.v]

    @property
    def bitsets(self) -> bool:
        """Whether the sweeps hold Maya bitsets (partitions.to_bits) in
        place of tuples: every box is HV, or every box is VH, that is, the
        left symbols share one prime and the right symbols the other."""
        u, v = self.u, self.v
        alike = u and v and u.count(u[0]) == len(u) and v.count(v[0]) == len(v)
        return bool(alike) and u[0].primed != v[0].primed

    @cached_property
    def sweep(self) -> Tuple[Partition, Dict[int, list], List[slice]]:
        """(pi, wanted, rows) of a bitset plan, made once per plan for the
        anti-diagonal sweeps of ``sampler``: the all-VH shape they run on;
        anti-diagonal d -> the list of (k, i) for the boundary's boxes
        (i, d - i) in it, whose tau is lambda(k), the other boundary points
        being on the axes and empty; and the slice of the plan's row j of
        boxes in their stage, rows[j - 1], where box (i, j) of that shape is
        byte i * (len(pi) + 1) + j.  The largest key of ``wanted`` is the
        last anti-diagonal that holds a box.  A VH plan gives its own shape,
        whose rows are slices with a step.  An HV plan gives the conjugate
        shape, where the plan's box (i, j) is (j, i) and its row j is column
        j, a slice without a step."""
        pi, vh = self.pi, self.u[0].primed
        wanted = {}
        for k, (i, j) in enumerate(self.boundary_points()):
            if i and j:
                wanted.setdefault(i + j, []).append((k, i if vh else j))
        shape = pi if vh else conjugate(pi)
        step = len(shape) + 1
        if vh:
            rows = [slice(step + j, p * step + j + 1, step) for j, p in enumerate(pi, 1)]
        else:
            rows = [slice(j * step + 1, j * step + p + 1) for j, p in enumerate(pi, 1)]
        return shape, wanted, rows

    def boxes(self):
        """Row-major box order (the default fill order), as an iterator of
        (i, j)."""
        return chain.from_iterable(
            zip(range(1, p + 1), repeat(j)) for j, p in enumerate(self.pi, start=1)
        )

    def boundary_points(self):
        """Lattice points on the boundary of pi (padded with empty rows up to
        the number of right symbols), clockwise from (0, n) on the vertical
        axis to (m, 0) on the horizontal axis; point k carries lambda(k)."""
        i, j = 0, len(self.y)
        pts = [(i, j)]
        for s in self.word:
            if s.left:
                i += 1
            else:
                j -= 1
            pts.append((i, j))
        return pts


def precompute_par(w: Sequence[Rel], z: Sequence) -> ShapePlan:
    """Split the word into column/row symbols with their parameters.

    x_k is the parameter of the k-th left symbol in word order; y_k the
    parameter of the k-th right symbol counted from the end of the word.
    """
    w = tuple(w)
    if len(z) != len(w):
        raise ValueError(f"got {len(z)} parameters for a word of length {len(w)}")
    u, x, v_rev, y_rev = [], [], [], []
    for s, zz in zip(w, z):
        if s.left:
            u.append(s)
            x.append(zz)
        else:
            v_rev.append(s)
            y_rev.append(zz)
    return ShapePlan(
        word=w,
        pi=encoded_shape(w),
        x=tuple(x),
        y=tuple(y_rev[::-1]),
        u=tuple(u),
        v=tuple(v_rev[::-1]),
    )


def is_parameter(v) -> bool:
    """Whether v can weight a symbol: a real number >= 0, finite if it is a
    float.  An int or a Fraction may lie past the float range."""
    if isinstance(v, float):
        return 0 <= v < math.inf
    # a Rational has the sign of its numerator, which compares faster
    return isinstance(v, Rational) and v.numerator >= 0 or isinstance(v, Real) and 0 <= v < math.inf


def product(a, b):
    """a * b for two parameters: Python's own product, unless a float
    product overflows (an int or Fraction past the float range times a
    float raises, two finite floats give inf).  Then it is the exact
    Fraction(a) * Fraction(b), since a float is a dyadic rational."""
    try:
        ab = a * b
    except OverflowError:
        return Fraction(a) * Fraction(b)
    return Fraction(a) * Fraction(b) if isinstance(ab, float) and ab == math.inf else ab


def quotient(a, b):
    """a / b for two parameters, b > 0, with the exact fallback of
    :func:`product`."""
    try:
        q = a / b
    except OverflowError:
        return Fraction(a) / Fraction(b)
    return Fraction(a) / Fraction(b) if isinstance(q, float) and q == math.inf else q


def q_volume_parameters(w: Sequence[Rel], q):
    """Parameters making the measure proportional to q^(total volume):
    z_i = q^-i on left symbols and q^i on right symbols.

    Raises ValueError, naming the symbol, when a float q^-i overflows.
    """
    if not 0 < q < 1:
        raise ValueError(f"q must lie in (0,1), got {q}")
    z = []
    for i, s in enumerate(w, start=1):
        try:
            z.append(q ** -i if s.left else q ** i)
        except OverflowError:
            raise ValueError(
                f"symbol {i} ({s.value}) of the word needs the parameter q^-{i}, "
                f"which overflows a float at q={q}"
            ) from None
    return tuple(z)


def symmetrize(w: Sequence[Rel], z: Sequence):
    """Return (w concatenated with its reversed-and-inverted copy, z with its
    reverse).  The resulting plan has x_i = y_i for all i."""
    w = tuple(w)
    wsym = w + tuple(s.inverse for s in reversed(w))
    zsym = tuple(z) + tuple(reversed(tuple(z)))
    return wsym, zsym


def parse_number(text: str):
    """``a/b`` and integer literals give exact rationals, anything else a
    float (``inf`` and ``nan`` included)."""
    if "/" in text or ("." not in text and "e" not in text.lower()):
        try:
            return Fraction(text)
        except ValueError:
            pass  # inf, nan: float spellings with no '.' or 'e'
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    return float(text)


def parse_params(text: str, n: int | None = None):
    """Parse a comma-separated parameter list; ``a/b`` gives exact rationals."""
    out = tuple(parse_number(t.strip()) for t in text.split(",") if t.strip())
    if n is not None and len(out) != n:
        raise ValueError(f"expected {n} parameters, got {len(out)}")
    return out

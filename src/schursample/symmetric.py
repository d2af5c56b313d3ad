"""Sampling of right-free (symmetric) Schur processes.

The word is reflected into w . w*, the boundary weight t is folded into the
parameters (z_i -> t^{+-1} z_i), and the growth sweep
:func:`~schursample.sampler.grow_profile` fills the i <= j triangle of the
square shape: an off-diagonal box and its mirror image share one draw, and
a diagonal box runs the one-sided reflection rule selected by the boundary
mode (free, even rows, or even columns).  The sampler reads those rules from
this module's ``grow_diag_*`` names on each call, so a caller may
substitute them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Optional, Sequence, Tuple

from .partitions import EMPTY, Partition, has_even_parts, interlaces
from .rng import ALGORITHM, RandomSource
from .rules import (
    grow_diag_h,
    grow_diag_h_ec,
    grow_diag_h_er,
    grow_diag_v,
    grow_diag_v_ec,
    grow_diag_v_er,
)
from .sampler import box_draw, check_parameters, grow_profile
from .words import Rel, Word, precompute_par, symmetrize
from .zfun import MODE_EVEN_COLUMNS, MODE_EVEN_ROWS, MODE_FREE, MODES


@dataclass
class SymmetricSample:
    """Palindromic output sequence of length 2n + 1; entry n is the free
    partition, constrained by the boundary mode."""

    word: Word
    z: tuple
    t: object
    mode: str
    seed: Optional[int]
    lambdas: Tuple[Partition, ...]
    rng_algorithm: str = ALGORITHM

    @property
    def free_partition(self) -> Partition:
        return self.lambdas[len(self.word)]

    def validate(self) -> None:
        n = len(self.word)
        if len(self.lambdas) != 2 * n + 1:
            raise ValueError("symmetric sequence has wrong length")
        if self.lambdas[0] != EMPTY or self.lambdas[-1] != EMPTY:
            raise ValueError("sequence must start and end empty")
        for i in range(2 * n + 1):
            if self.lambdas[i] != self.lambdas[2 * n - i]:
                raise ValueError("sequence is not palindromic")
        lam = self.free_partition
        if self.mode != MODE_FREE and not has_even_parts(lam, self.mode == MODE_EVEN_COLUMNS):
            raise ValueError(f"free partition {lam} breaks the {self.mode} boundary mode")
        wsym, _ = symmetrize(self.word, self.z)
        for i, rel in enumerate(wsym, start=1):
            if not interlaces(self.lambdas[i - 1], self.lambdas[i], rel):
                raise ValueError(f"interlacing fails at step {i}")


def fold_boundary_weight(word: Sequence[Rel], z: Sequence, t):
    """Replace (Z; t) by the equivalent (Z-bar; 1): multiply left-symbol
    parameters by t and divide right-symbol ones."""
    if t == 1:
        return tuple(z)
    return tuple(zz * t if s.left else zz / t for s, zz in zip(word, z))


def symmetric_schur_sample(
    word: Sequence[Rel],
    z: Sequence,
    t,
    mode: str,
    src: RandomSource | int,
) -> SymmetricSample:
    """One exact sample of the right-free Schur process of ``word`` with
    parameters (z; t) and the given boundary mode."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if t <= 0:
        raise ValueError("the boundary weight t must be positive")
    if isinstance(src, int):
        src = RandomSource(src)
    word = tuple(word)
    zbar = fold_boundary_weight(word, z, t)
    wsym, zsym = symmetrize(word, zbar)
    plan = precompute_par(wsym, zsym)
    # diagonal box kind -> (rule, power p of its Geom(x^p) draw; 0: no draw)
    if mode == MODE_FREE:
        diag_rules = {"HH": (grow_diag_h, 1), "VV": (grow_diag_v, 1)}
    elif mode == MODE_EVEN_ROWS:
        diag_rules = {"HH": (grow_diag_h_er, 2), "VV": (grow_diag_v_er, 0)}
    else:
        diag_rules = {"HH": (grow_diag_h_ec, 0), "VV": (grow_diag_v_ec, 2)}

    def diagonal_param(i: int, kind: str):
        power = diag_rules[kind][1]
        return float(plan.x[i - 1]) ** power if power else None

    def diagonal(i: int, kind: str, mu: Partition, kap: Partition) -> Partition:
        rule, power = diag_rules[kind]
        if not power:
            return rule(mu, kap)
        return rule(mu, kap, src.geometric(diagonal_param(i, kind)))

    table = check_parameters(plan, diagonal_param)
    lambdas = grow_profile(plan, box_draw(table, src), diagonal)
    return SymmetricSample(
        word=word, z=tuple(z), t=t, mode=mode, seed=src.seed, lambdas=lambdas
    )


def symmetric_weight(sample: SymmetricSample):
    """Unnormalized weight t^|free| * prod z_i^(|weight changes|) over the
    first n steps; exact when the parameters are."""
    n = len(sample.word)
    exact = all(isinstance(v, Rational) for v in sample.z) and isinstance(
        sample.t, Rational
    )
    w = Fraction(1) if exact else 1.0
    tt = Fraction(sample.t) if exact else float(sample.t)
    w *= tt ** sum(sample.free_partition)
    for i in range(1, n + 1):
        zz = Fraction(sample.z[i - 1]) if exact else float(sample.z[i - 1])
        w *= zz ** abs(sum(sample.lambdas[i]) - sum(sample.lambdas[i - 1]))
    return w

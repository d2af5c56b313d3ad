"""Sampling of right-free (symmetric) Schur processes.

The word is reflected into w . w*, the boundary weight t is folded into the
parameters (z_i -> t^{+-1} z_i), and the growth sweep
:func:`~schursample.sampler.grow_profile` fills the i <= j triangle of the
square shape: an off-diagonal box and its mirror image share one draw, and
a diagonal box runs the one-sided reflection rule that the mode table in
``rules`` gives the boundary mode (free, even rows, or even columns).  Row
j's inputs are its off-diagonal draws and then its diagonal box's input:
a Geom(x_j^p) draw, or 0 where the rule is deterministic and draws
nothing.  The sampler reads those rules from this module's ``grow_diag_*``
names once per call, a batch's call included, so a caller may substitute
them.
:func:`reconstruct_symmetric_inputs` runs the inverse sweep on the same
triangle, recovers the rows of inputs and replays them.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .partitions import Partition, Record, has_even_parts, require_closed, require_interlaced
from .rng import ALGORITHM, RandomSource, as_source
from .rules import (
    GrowthError,
    boundary_mode,
    grow_diag_h,  # the grow_diag_* names are read by _diagonal_rules
    grow_diag_h_ec,
    grow_diag_h_er,
    grow_diag_v,
    grow_diag_v_ec,
    grow_diag_v_er,
    shrink_diag,
)
from .sampler import check_parameters, grow_profile, shrink_profile
from .words import Rel, ShapePlan, Word, is_parameter, precompute_par, product, quotient, symmetrize


class SymmetricSample(Record):
    """Palindromic output sequence of length 2n + 1; entry n is the free
    partition, constrained by the boundary mode."""

    def __init__(self, word: Word, z: tuple, t, mode: str, seed: Optional[int],
                 lambdas: Tuple[Partition, ...], rng_algorithm: str = ALGORITHM):
        self.word = word
        self.z = z
        self.t = t
        self.mode = mode
        self.seed = seed
        self.lambdas = lambdas
        self.rng_algorithm = rng_algorithm

    @property
    def free_partition(self) -> Partition:
        return self.lambdas[len(self.word)]

    def validate(self) -> None:
        parity, _ = boundary_mode(self.mode)
        wsym, _ = symmetrize(self.word, self.z)
        require_closed(wsym, self.lambdas, ValueError)
        if self.lambdas[::-1] != self.lambdas:
            raise ValueError("sequence is not palindromic")
        lam = self.free_partition
        if not has_even_parts(lam, parity):
            raise ValueError(f"free partition {lam} breaks the {self.mode} boundary mode")
        require_interlaced(wsym, self.lambdas, ValueError)


def fold_boundary_weight(word: Sequence[Rel], z: Sequence, t):
    """Replace (Z; t) by the equivalent (Z-bar; 1): multiply left-symbol
    parameters by t and divide right-symbol ones, by ``words.product`` and
    ``words.quotient``, exact where a float result would overflow.  A
    non-parameter is kept as it is, for ``check_parameters`` to name."""
    if t == 1:
        return tuple(z)
    return tuple(zz if not is_parameter(zz) else product(zz, t) if s.left else quotient(zz, t)
                 for s, zz in zip(word, z))


def symmetric_schur_sample(
    word: Sequence[Rel],
    z: Sequence,
    t,
    mode: str,
    src: RandomSource | int,
    *,
    count: Optional[int] = None,
) -> SymmetricSample | List[SymmetricSample]:
    """One exact sample of the right-free Schur process of ``word`` with
    parameters (z; t) and the given boundary mode.

    With ``count=n`` it returns the list of n samples drawn from the streams
    ``src.child(0)`` .. ``src.child(n - 1)``, equal to n calls on those
    streams.  The diagonal rules, the plan, the checked draw rows and the
    diagonal parameters are made once for the batch, before any draw."""
    rules = _diagonal_rules(mode)
    if not is_parameter(t) or t == 0:
        raise ValueError(f"the boundary weight t must be positive and finite, got {t}")
    src = as_source(src)
    word, zt = tuple(word), tuple(z)
    plan = _symmetric_plan(word, z, t)

    # diag[j - 1]: the Geom(x_j^p) parameter of diagonal box (j, j), None
    # where it draws nothing; formed once, as check_parameters asks for it
    # row by row, and a float once it has refused every float >= 1
    diag = [None] * len(plan.pi)

    def diagonal_param(i: int, kind: str):
        # x^p for p = 1 or 2, exact where a float x * x would overflow
        power, x = rules[kind][2], plan.x[i - 1]
        xi = diag[i - 1] = None if not power else x if power == 1 else product(x, x)
        return xi

    table = check_parameters(plan, diagonal_param)
    diag = [None if xi is None else float(xi) for xi in diag]

    def one(src: RandomSource) -> SymmetricSample:
        draw = src.row_drawer()

        def row_input(j: int, stop: int) -> List[int]:
            row = draw(table[j - 1], min(stop, j - 1))
            if stop == j:  # and the diagonal box (j, j) last
                xi = diag[j - 1]
                row.append(0 if xi is None else src.geometric(xi))
            return row

        lambdas = _grow(plan, rules, row_input)
        return SymmetricSample(word=word, z=zt, t=t, mode=mode, seed=src.seed, lambdas=lambdas)

    return one(src) if count is None else [one(src.child(k)) for k in range(count)]


def _symmetric_plan(word: Word, z: Sequence, t) -> ShapePlan:
    """The plan of the reflected word w . w*, with t folded into z."""
    return precompute_par(*symmetrize(word, fold_boundary_weight(word, z, t)))


def _diagonal_rules(mode: str):
    """Diagonal box kind -> (grow rule, shrink_diag kind, power p of its
    Geom(x^p) draw; 0: no draw) of the boundary mode.  Each grow rule is
    read from this module's name of the kernel on every call."""
    _, rules = boundary_mode(mode)
    return {box: (globals()[kernel.__name__], kind, power)
            for box, (kernel, kind, power) in rules.items()}


def _grow(plan: ShapePlan, rules, row_input) -> Tuple[Partition, ...]:
    """grow_profile over the i <= j triangle: diagonal box (i, i) runs its
    rule, with G the last input of row i where the rule draws."""

    def diagonal(i: int, kind: str, mu: Partition, kap: Partition, g: int) -> Partition:
        rule, _, power = rules[kind]
        return rule(mu, kap, g) if power else rule(mu, kap)

    return grow_profile(plan, row_input, diagonal)


def reconstruct_symmetric_inputs(sample: SymmetricSample) -> List[int]:
    """The inputs of the boxes that draw, in draw-log order, recovered from
    the output alone by the inverse sweep (``shrink_diag`` on the diagonal)
    and certified by one forward replay, which must regrow the sample."""
    sample.validate()
    plan = _symmetric_plan(sample.word, sample.z, sample.t)
    rules = _diagonal_rules(sample.mode)
    rows = shrink_profile(
        plan, sample.lambdas, lambda i, kind, mu, nu: shrink_diag(rules[kind][1], mu, nu)
    )
    inputs = [
        rand for j, row in enumerate(rows, start=1) for i, rand in enumerate(row, start=1)
        if i < j or rules[plan.row_kinds[i - 1][i - 1]][2]
    ]
    replay = _grow(plan, rules, lambda j, stop: rows[j - 1])
    if replay != tuple(sample.lambdas):
        raise GrowthError("the recovered inputs do not regrow the sample")
    return inputs


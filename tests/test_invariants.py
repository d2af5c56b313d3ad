"""Cross-module identities: commutation sums, weight forms, factorization."""
from fractions import Fraction

import pytest

from schursample.oracle import (
    horizontal_strips_above,
    horizontal_strips_below,
    sequence_weight,
    vertical_strips_above,
    vertical_strips_below,
)
from schursample.rules import GrowthError
from schursample.sampler import reconstruct_inputs, schur_sample
from schursample.words import parse_word, precompute_par, q_volume_parameters
from schursample.zfun import z_finite


def test_cauchy_commutation_sum_hh():
    # sum over nu above both lam and mu of x^(|nu|-|lam|) y^(|nu|-|mu|)
    # equals 1/(1-xy) times the kappa sum below both, at xy = 0.3
    x, y = 0.6, 0.5
    for lam, mu in [((2, 1), (1, 1)), ((3,), (2, 2)), ((), (1,))]:
        above_l = set(horizontal_strips_above(lam, 30 - sum(lam)))
        above_m = set(horizontal_strips_above(mu, 30 - sum(mu)))
        lhs = sum(
            x ** (sum(nu) - sum(lam)) * y ** (sum(nu) - sum(mu))
            for nu in above_l & above_m
        )
        below = set(horizontal_strips_below(lam)) & set(horizontal_strips_below(mu))
        rhs = sum(
            x ** (sum(mu) - sum(k)) * y ** (sum(lam) - sum(k)) for k in below
        ) / (1 - x * y)
        assert abs(lhs - rhs) < 1e-9, (lam, mu)


def test_dual_cauchy_commutation_sum_hv():
    # nu >= lam (rows), nu >=' mu (columns): factor (1 + xy), exact finite sums
    x, y = Fraction(3, 5), Fraction(1, 2)
    for lam, mu in [((2, 1), (1, 1)), ((1,), (2,)), ((), ())]:
        cap = sum(lam) + sum(mu) + 12
        above = set(horizontal_strips_above(lam, cap - sum(lam))) & set(
            vertical_strips_above(mu, cap - sum(mu))
        )
        lhs = sum(
            x ** (sum(nu) - sum(lam)) * y ** (sum(nu) - sum(mu)) for nu in above
        )
        below = set(vertical_strips_below(lam)) & set(horizontal_strips_below(mu))
        rhs = (1 + x * y) * sum(
            x ** (sum(mu) - sum(k)) * y ** (sum(lam) - sum(k)) for k in below
        )
        # the nu sum is finite here: above lam in rows and mu in columns caps it
        assert lhs == rhs, (lam, mu)


def test_q_volume_weight_is_q_to_the_volume():
    q = Fraction(1, 2)
    for text in ["<>", "(<)^2(>)^2", "<<'>>'", "(<'>)^3"]:
        w = parse_word(text)
        z = q_volume_parameters(w, q)
        for seed in range(40):
            s = schur_sample(w, tuple(float(v) for v in z), seed)
            vol = sum(sum(l) for l in s.lambdas)
            assert sequence_weight(w, z, s.lambdas) == q**vol


def test_z_factorizes_across_forced_empty_junction():
    # appending a block with no rights (or prepending one with no lefts)
    # leaves the partition function unchanged: the subprocesses decouple
    z = [Fraction(1, 3)] * 8
    for u_text, v_text in [("<<'>>'", "<<"), ("<>", "<'<")]:
        u, v = parse_word(u_text), parse_word(v_text)
        zu, zv = z[: len(u)], z[: len(v)]
        assert z_finite(u + v, zu + zv).exact == z_finite(u, zu).exact
        assert z_finite(tuple(s.inverse for s in v) + u, zv + zu).exact == z_finite(
            u, zu
        ).exact


def test_reconstruct_bits_of_the_max_aztec2_tiling():
    # the all-vertical 2x2 Aztec tiling comes from bit 1 in all three boxes
    w = parse_word("(<'>)^2")
    s = schur_sample(w, (1, 1, 1, 1), 0)
    s.lambdas = ((), (1, 1), (1,), (2,), ())
    assert reconstruct_inputs(s) == {(1, 1): 1, (2, 1): 1, (1, 2): 1}


def test_reconstruct_refuses_slices_that_are_not_partitions():
    # (2, 0) and (2, 0, 1) have the Maya bitset of (2,), and (1, 1, 0) that
    # of (1, 1), so the bitset certificate alone would take each for the
    # tiling above
    w = parse_word("(<'>)^2")
    s = schur_sample(w, (1, 1, 1, 1), 0)
    for lambdas, error in [
        (((), (1, 1), (1,), (2, 0), ()), GrowthError),
        (((), (1, 1, 0), (1,), (2,), ()), GrowthError),
        (((), (1, 1), (1,), (2, 0, 1), ()), ValueError),  # does not interlace with ()
    ]:
        s.lambdas = lambdas
        with pytest.raises(error):
            reconstruct_inputs(s)


def test_plan_totals():
    for text in ["<<'>>'", "(<'>)^3", "><><"]:
        w = parse_word(text)
        plan = precompute_par(w, tuple(Fraction(1, 2) for _ in w))
        assert len(plan.x) + len(plan.y) == len(w)


def test_maya_particle_positions_match_definition():
    # a Maya window with particles at doubled lam_i - i + 1/2 + shift for
    # every row i >= 1 decodes to lam; the bitset holds row i at i - lam_i + c
    from schursample.partitions import MayaWindow, from_maya, to_bits

    lam, shift = (3, 1, 1), 2
    expected = {2 * (lam[i] - (i + 1) + shift) + 1 for i in range(len(lam))}
    vacuum_top = 2 * (shift - len(lam)) - 1  # row len(lam) + 1
    lo, hi = vacuum_top - 6, max(expected) + 4
    cells = tuple(p in expected or p <= vacuum_top for p in range(lo, hi + 1, 2))
    assert from_maya(MayaWindow(lo, cells)) == lam
    c = 4
    v = to_bits(lam, c)
    got = {p for p in range(len(lam) + c + 1) if v >> p & 1}
    assert got == {i + 1 - lam[i] + c for i in range(len(lam))}
    assert all(v >> p & 1 for p in range(len(lam) + c + 1, len(lam) + c + 40))

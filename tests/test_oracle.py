from fractions import Fraction

import pytest

from schursample import rules
from schursample.oracle import (
    SupportSizeError,
    enumerate_support,
    enumerate_symmetric_support,
    escape_mass_bound,
    exact_probability,
    hook_length_f,
    horizontal_strips_above,
    horizontal_strips_below,
    sequence_weight,
    slice_cap,
    sum_weights_dp,
    tv_distance,
    verify_bijections,
    vertical_strips_above,
    vertical_strips_below,
    word_has_finite_support,
)
from schursample.partitions import EMPTY, interlaces_h, interlaces_v, partitions_up_to
from schursample.words import parse_word, q_volume_parameters
from schursample.zfun import z_finite


def test_strip_generators_against_predicates():
    cases = [(mu, 4) for mu in partitions_up_to(5)]
    cases += [(mu, budget) for mu in partitions_up_to(6) for budget in range(7)]
    for mu, budget in cases:
        above_h = set(horizontal_strips_above(mu, budget))
        expect = {
            nu
            for nu in partitions_up_to(sum(mu) + budget)
            if interlaces_h(nu, mu)
        }
        assert above_h == expect
        above_v = set(vertical_strips_above(mu, budget))
        expect = {
            nu
            for nu in partitions_up_to(sum(mu) + budget)
            if interlaces_v(nu, mu)
        }
        assert above_v == expect
        below_h = set(horizontal_strips_below(mu))
        assert below_h == {k for k in partitions_up_to(sum(mu)) if interlaces_h(mu, k)}
        below_v = set(vertical_strips_below(mu))
        assert below_v == {k for k in partitions_up_to(sum(mu)) if interlaces_v(mu, k)}


def test_every_slice_walk_refuses_a_negative_cap():
    # so the strip generators never see a negative budget
    w = parse_word("<'>")
    z = (Fraction(1, 2),) * 2
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        sum_weights_dp(w, z, -1)
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        enumerate_support(w, z, -1)
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        enumerate_symmetric_support(w, z, Fraction(1, 2), -1).total


def test_enumerate_single_pair():
    w = parse_word("<>")
    x = y = Fraction(1, 2)
    sup = enumerate_support(w, (x, y), cap=3)
    assert set(sup.entries) == {
        (EMPTY, EMPTY, EMPTY),
        (EMPTY, (1,), EMPTY),
        (EMPTY, (2,), EMPTY),
        (EMPTY, (3,), EMPTY),
    }
    for key, weight in sup.entries.items():
        assert weight == (x * y) ** sum(key[1])


def test_enumerate_aztec_2_is_uniform_8():
    w = parse_word("(<'>)^2")
    sup = enumerate_support(w, (Fraction(1),) * 4, cap=100)
    assert len(sup.entries) == 8
    assert sup.complete
    assert all(wt == 1 for wt in sup.entries.values())
    some = next(iter(sup.entries))
    assert exact_probability(some, sup) == Fraction(1, 8)


def test_enumerate_trivial_word():
    sup = enumerate_support(parse_word(">><"), (1, 1, 1), cap=5)
    assert sup.entries == {(EMPTY,) * 4: Fraction(1)}
    assert exact_probability((EMPTY,) * 4, sup) == 1


def test_enumeration_guard():
    w = parse_word("(<)^3(>)^3")
    with pytest.raises(SupportSizeError):
        enumerate_support(w, (Fraction(1, 2),) * 6, cap=30, max_entries=100)


def test_finite_support_detection():
    assert word_has_finite_support(parse_word("(<'>)^3"))
    assert word_has_finite_support(parse_word("<>'"))
    assert not word_has_finite_support(parse_word("<>"))
    assert not word_has_finite_support(parse_word("<'<>'>"))
    assert slice_cap(parse_word("(<'>)^2")) >= 2


def test_weights_match_independent_recompute():
    w = parse_word("<<'>'>")
    z = tuple(Fraction(1, k + 2) for k in range(4))
    sup = enumerate_support(w, z, cap=8)
    for seq, weight in sup.entries.items():
        assert weight == sequence_weight(w, z, seq)


def test_dp_equals_materialized_sum():
    w = parse_word("<<'>><'")
    z = tuple(Fraction(1, 3) for _ in w)
    sup = enumerate_support(w, z, cap=9)
    assert sum_weights_dp(w, z, cap=9) == sup.total


def test_z_finite_vs_bruteforce_bracket():
    w = parse_word("(<)^2(>)^2")
    z = q_volume_parameters(w, Fraction(1, 2))
    sup = enumerate_support(w, z, cap=12, refine_tail_to=40)
    zf = z_finite(w, z).exact
    assert sup.total <= zf <= sup.total + sup.tail_bound
    assert sup.tail_bound < Fraction(1, 1000) * zf


def test_escape_bound_reads_q_from_z():
    # q^Volume weights are recognised: the q-mode bound, equal to the one a
    # hand-passed q = 1/2 gave, where z-mode would refuse z_1 = 2
    w = parse_word("<>")
    assert escape_mass_bound(w, q_volume_parameters(w, Fraction(1, 2)), 6) == Fraction(
        1342178622349078953266152388762717, 85899345920000000000000000000000000
    )


@pytest.mark.parametrize("text", ["<>", "><>"])
def test_escape_bound_is_z_mode_for_other_weights(text):
    # z_1 = 1/2 means q = 2 on "<>" and q = 1/2 on "><>", whose q^Volume
    # weights are (1/2, 4, 1/8): neither z is q^Volume, so the z-mode bound
    # applies and the bracket holds
    w = parse_word(text)
    z = (Fraction(1, 2),) * len(w)
    sup = enumerate_support(w, z, cap=3)
    assert sup.total + sup.tail_bound >= z_finite(w, z).exact


def test_escape_bound_zero_for_finite_words():
    w = parse_word("(<'>)^3")
    assert escape_mass_bound(w, (Fraction(1),) * 6, cap=slice_cap(w)) == 0


def test_symmetric_tail_bound_refuses_a_ratio_stuck_above_its_cutoff():
    # the tail terms (v + 1)^5 (24/25)^v have ratio -> 0.96, never below 0.95
    with pytest.raises(ArithmeticError, match="does not converge"):
        enumerate_symmetric_support(
            parse_word("<<'"), (Fraction(24, 25),) * 2, Fraction(1, 2), cap=2
        )


def test_tv_distance_examples():
    w = parse_word("(<'>)^2")
    sup = enumerate_support(w, (Fraction(1),) * 4, cap=100)
    exact_counts = {seq: 125 for seq in sup.entries}
    assert tv_distance(exact_counts, sup) == 0
    point = {next(iter(sup.entries)): 1000}
    assert abs(tv_distance(point, sup) - 7 / 8) < 1e-12
    stray = {(EMPTY, (5, 5), EMPTY): 10}
    assert tv_distance(stray, sup) == pytest.approx(0.5 + 1.0)


def test_hook_length_f():
    assert hook_length_f(EMPTY) == 1
    assert hook_length_f((2, 1)) == 2
    assert hook_length_f((2, 2)) == 2
    assert hook_length_f((3, 2)) == 5
    total = sum(hook_length_f(l) ** 2 for l in partitions_up_to(5) if sum(l) == 5)
    assert total == 120  # sum of f^2 over |lam| = 5 equals 5!


def test_verify_bijections_small():
    report = verify_bijections(3)
    assert report.passed, report.counterexamples[:5]
    assert report.checked > 0 and report.hit_targets > 0


def test_verify_bijections_reports_a_wrong_preimage(monkeypatch):
    shrink = rules.shrink

    def off_by_one(kind, lam, nu, mu):
        kap, rand = shrink(kind, lam, nu, mu)
        return kap, rand + 1

    monkeypatch.setattr(rules, "shrink", off_by_one)
    report = verify_bijections(2)
    assert not report.passed

import math
from fractions import Fraction

import pytest

from schursample import rules
from schursample.oracle import (
    SupportSizeError,
    chi_square_pvalue,
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


# (dof, x, scipy.stats.chi2.sf(x, dof)) from scipy 1.17.1, for x = r * dof at
# r in (0.01, 0.1, 0.5, 0.9, 1, 1.25, 2, 5), where the tail is >= 1e-290
CHI2_SF = (
    (1, 0.01, 0.920344325445942),
    (1, 0.1, 0.7518296340458492),
    (1, 0.5, 0.47950012218695337),
    (1, 0.9, 0.34278171114790873),
    (1, 1.0, 0.31731050786291115),
    (1, 1.25, 0.26355247728296954),
    (1, 2.0, 0.15729920705028105),
    (1, 5.0, 0.025347318677468325),
    (2, 0.02, 0.990049833749168),
    (2, 0.2, 0.9048374180359595),
    (2, 1.0, 0.6065306597126334),
    (2, 1.8, 0.4065696597405992),
    (2, 2.0, 0.36787944117144245),
    (2, 2.5, 0.2865047968601901),
    (2, 4.0, 0.1353352832366127),
    (2, 10.0, 0.006737946999085468),
    (3, 0.03, 0.9986303948188087),
    (3, 0.30000000000000004, 0.9600284803068776),
    (3, 1.5, 0.6822703303362125),
    (3, 2.7, 0.4402272943602312),
    (3, 3.0, 0.3916251762710877),
    (3, 3.75, 0.28975578119338535),
    (3, 6.0, 0.11161022509471268),
    (3, 15.0, 0.0018166489665723214),
    (4, 0.04, 0.9998026467728904),
    (4, 0.4, 0.9824769036935782),
    (4, 2.0, 0.7357588823428847),
    (4, 3.6, 0.46283688702044234),
    (4, 4.0, 0.40600584970983794),
    (4, 5.0, 0.2872974951836458),
    (4, 8.0, 0.0915781944436709),
    (4, 20.0, 0.0004993992273873336),
    (7, 0.07, 0.9999993289114677),
    (7, 0.7000000000000001, 0.9983357368454033),
    (7, 3.5, 0.8352254826103422),
    (7, 6.3, 0.5051889407557321),
    (7, 7.0, 0.42887985755305486),
    (7, 8.75, 0.2711068782822828),
    (7, 14.0, 0.051181353413065414),
    (7, 35.0, 1.1184430509074334e-05),
    (10, 0.1, 0.9999999975020487),
    (10, 1.0, 0.9998278843700441),
    (10, 5.0, 0.8911780189141513),
    (10, 9.0, 0.5321035763747151),
    (10, 10.0, 0.44049328506521257),
    (10, 12.5, 0.2529853233092983),
    (10, 20.0, 0.029252688076961124),
    (10, 50.0, 2.669083424904495e-07),
    (31, 0.31, 1.0),
    (31, 3.1, 0.999999999959784),
    (31, 15.5, 0.9908119181479433),
    (31, 27.900000000000002, 0.6263228024176233),
    (31, 31.0, 0.46621250621750804),
    (31, 38.75, 0.1597207504311753),
    (31, 62.0, 0.0007793409160726119),
    (31, 155.0, 1.9982611735101816e-18),
    (40, 0.4, 1.0),
    (40, 4.0, 0.9999999999999356),
    (40, 20.0, 0.9965456580241432),
    (40, 36.0, 0.6509161279807018),
    (40, 40.0, 0.4702572668392401),
    (40, 50.0, 0.1335748340856504),
    (40, 80.0, 0.0001763028977385677),
    (40, 200.0, 3.764893576001532e-23),
    (59, 0.59, 1.0),
    (59, 5.9, 1.0),
    (59, 29.5, 0.9995356245518807),
    (59, 53.1, 0.6916146582842809),
    (59, 59.0, 0.4755119972953301),
    (59, 73.75, 0.09358167801247524),
    (59, 118.0, 8.076425555912488e-06),
    (59, 295.0, 4.276199845640744e-33),
    (100, 1.0, 1.0),
    (100, 10.0, 1.0),
    (100, 50.0, 0.9999930466947524),
    (100, 90.0, 0.7531979655998298),
    (100, 100.0, 0.48119168452795674),
    (100, 125.0, 0.0459899323791504),
    (100, 200.0, 1.1784500720979781e-08),
    (100, 500.0, 1.720121005369523e-54),
    (501, 5.01, 1.0),
    (501, 50.1, 1.0),
    (501, 250.5, 1.0),
    (501, 450.90000000000003, 0.947119295370776),
    (501, 501.0, 0.4915977714290517),
    (501, 626.25, 0.00011266964172536957),
    (501, 1002.0, 1.0356050544102753e-35),
    (501, 2505.0, 5.341660871795269e-263),
    (2001, 20.01, 1.0),
    (2001, 200.10000000000002, 1.0),
    (2001, 1000.5, 1.0),
    (2001, 1800.9, 0.9994516891789966),
    (2001, 2001.0, 0.4957958067483724),
    (2001, 2501.25, 1.0594273538915346e-13),
    (2001, 4002.0, 5.871947339464085e-136),
    (5001, 50.01, 1.0),
    (5001, 500.1, 1.0),
    (5001, 2500.5, 1.0),
    (5001, 4500.900000000001, 0.9999998835246912),
    (5001, 5001.0, 0.4973406448157478),
    (5001, 6251.25, 2.1661059247986245e-31),
)


@pytest.mark.parametrize("dof, x, sf", CHI2_SF)
def test_chi_square_tail_matches_scipy(dof, x, sf):
    assert chi_square_pvalue(x, dof) == pytest.approx(sf, rel=1e-10, abs=0)


@pytest.mark.parametrize(
    "x, dof, sf",
    [(0.0, 3, 1.0), (-2.5, 4, 1.0), (-math.inf, 1, 1.0), (math.inf, 3, 0.0),
     (math.inf, 4, 0.0), (1e308, 7, 0.0)],
)
def test_chi_square_tail_at_the_ends(x, dof, sf):
    assert chi_square_pvalue(x, dof) == sf


@pytest.mark.parametrize("x, dof", [(1.0, 0), (0.0, 0), (1.0, -1), (math.nan, 3), (math.nan, 0)])
def test_chi_square_tail_is_nan_where_scipy_says_nan(x, dof):
    assert math.isnan(chi_square_pvalue(x, dof))


@pytest.mark.parametrize("dof", [1, 2, 3, 8, 41, 500, 2001])
def test_chi_square_tail_does_not_increase(dof):
    tails = [chi_square_pvalue(dof * r / 200, dof) for r in range(0, 2001)]
    assert all(b <= a for a, b in zip(tails, tails[1:]))
    assert tails[0] == 1.0 and 0 <= tails[-1] < 0.002

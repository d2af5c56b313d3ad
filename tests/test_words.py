import math
from fractions import Fraction

import pytest

from schursample.partitions import conjugate
from schursample.words import (
    Rel,
    box_kind,
    encoded_shape,
    epsilon,
    format_word,
    parse_number,
    parse_params,
    parse_word,
    precompute_par,
    q_volume_parameters,
    symmetrize,
)

LH, RH, LV, RV = Rel.LH, Rel.RH, Rel.LV, Rel.RV
MIXED_WORD = (LH, LV, RH, RV, LH, RV, LH, RV)  # an 8-symbol word mixing all cases


def test_parse_and_format():
    assert parse_word("<'><'>") == (LV, RH, LV, RH)
    assert parse_word("(<'>)^3") == (LV, RH) * 3
    assert parse_word("(<)^2(>)^2") == (LH, LH, RH, RH)
    assert format_word(MIXED_WORD) == "<<'>>'<>'<>'"
    assert parse_word(format_word(MIXED_WORD)) == MIXED_WORD
    with pytest.raises(ValueError):
        parse_word("<x")
    with pytest.raises(ValueError):
        parse_word("(<>")


def test_parse_word_caps_nested_expansion():
    assert len(parse_word("((<'>)^100)^100")) == 20_000
    with pytest.raises(ValueError, match="symbols"):
        parse_word("(((<'>)^100)^100)^100")  # 2,000,000 symbols


def test_parse_number():
    assert parse_number("3") == 3 and isinstance(parse_number("3"), Fraction)
    assert parse_number("-2/6") == Fraction(-1, 3)
    for text in ("0.5", "1e-3", "2E5"):
        assert parse_number(text) == float(text) and isinstance(parse_number(text), float)
    assert parse_number("-inf") == float("-inf")
    assert math.isnan(parse_number("nan"))
    with pytest.raises(ValueError, match="'1/0'"):
        parse_number("1/0")
    with pytest.raises(ValueError):
        parse_number("x")
    assert parse_params(" 1/2, 0.25 ,3", 3) == (Fraction(1, 2), 0.25, Fraction(3))
    with pytest.raises(ValueError, match="expected 2"):
        parse_params("1,2,3", 2)


def test_encoded_shape_examples():
    assert encoded_shape(MIXED_WORD) == (4, 3, 2, 2)
    assert encoded_shape((RH, RH, LH)) == ()
    for n in range(1, 6):
        assert encoded_shape(parse_word(f"(<'>)^{n}")) == tuple(range(n, 0, -1))


def test_precompute_par_running_example():
    z = tuple(Fraction(k, 7) for k in range(1, 9))
    plan = precompute_par(MIXED_WORD, z)
    assert plan.pi == (4, 3, 2, 2)
    assert plan.x == (z[0], z[1], z[4], z[6])
    assert plan.y == (z[7], z[5], z[3], z[2])
    assert plan.u == (LH, LV, LH, LH)
    assert plan.v == (RV, RV, RV, RH)
    # row 1 is the long bottom row, row 4 the top one next to the word start
    kind = lambda i, j: plan.row_kinds[j - 1][i - 1]  # of box (i, j)
    assert kind(1, 4) == "HH"
    assert kind(2, 4) == "VH"
    assert kind(1, 3) == "HV"
    assert kind(2, 3) == "VV"
    assert kind(1, 1) == "HV"
    assert kind(2, 1) == "VV"
    assert kind(4, 1) == "HV"


def test_precompute_par_aztec():
    plan = precompute_par(parse_word("(<'>)^2"), (1, 1, 1, 1))
    assert plan.pi == (2, 1)
    assert all(plan.row_kinds[j - 1][i - 1] == "VH" for i, j in plan.boxes())
    assert plan.x == (1, 1) and plan.y == (1, 1)


def test_precompute_par_length_mismatch():
    with pytest.raises(ValueError):
        precompute_par(MIXED_WORD, (1, 2, 3))


def test_boundary_points_follow_word():
    plan = precompute_par(MIXED_WORD, (1,) * 8)
    pts = plan.boundary_points()
    assert pts[0] == (0, 4) and pts[-1] == (4, 0)
    assert len(pts) == 9
    for (i0, j0), (i1, j1), s in zip(pts, pts[1:], MIXED_WORD):
        assert (i1 - i0, j1 - j0) == ((1, 0) if s.left else (0, -1))


def test_q_volume_parameters():
    z = q_volume_parameters((LH, RH), 0.5)
    assert z == (2.0, 0.25)
    assert z[0] * z[1] == 0.5
    zq = q_volume_parameters((LH, LH, RH, RH), Fraction(9, 10))
    q = Fraction(9, 10)
    assert zq == (1 / q, 1 / q**2, q**3, q**4)
    plan = precompute_par((LH, LH, RH, RH), zq)
    assert all(0 < plan.x[i - 1] * plan.y[j - 1] < 1 for i, j in plan.boxes())
    with pytest.raises(ValueError):
        q_volume_parameters((LH, RH), 1.5)


def test_q_volume_parameters_overflow_names_the_symbol():
    word = parse_word("(<)^2000(>)^2000")
    with pytest.raises(ValueError, match=r"symbol 1990 \(<\).*q=0\.7"):
        q_volume_parameters(word, 0.7)


def test_symmetrize():
    w, z = symmetrize((LH, RV), ("z1", "z2"))
    assert w == (LH, RV, LV, RH)
    assert z == ("z1", "z2", "z2", "z1")
    assert symmetrize((), ()) == ((), ())


def test_symmetrize_parameters_match():
    base = (LH, LV, RH)
    w, z = symmetrize(base, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
    plan = precompute_par(w, z)
    assert plan.x == plan.y
    assert len(plan.x) == len(base)


def test_symmetrized_shape_self_conjugate():
    words = [()]
    for n in range(1, 7):
        new = []
        for w in words:
            if len(w) == n - 1:
                new.extend(w + (s,) for s in Rel)
        words.extend(new)
    for w in words:
        wsym, _ = symmetrize(w, (1,) * len(w))
        sh = encoded_shape(wsym)
        assert sh == conjugate(sh)


def test_encoded_shape_weight_counts_left_right_pairs():
    import itertools

    for w in itertools.product(Rel, repeat=4):
        pairs = sum(
            1
            for a in range(4)
            for b in range(a + 1, 4)
            if w[a].left and not w[b].left
        )
        assert sum(encoded_shape(w)) == pairs


def test_epsilon_table():
    assert epsilon(LH, RV) == 1 and epsilon(LV, RH) == 1
    assert epsilon(LH, RH) == -1 and epsilon(LV, RV) == -1


def test_symbols_carry_their_side_and_prime():
    assert [(s.left, s.primed) for s in (LH, RH, LV, RV)] == [
        (True, False), (False, False), (True, True), (False, True)
    ]


def test_box_kind_and_sign_read_the_two_primes():
    # rows: the column symbol, columns: the row symbol, both in order LH, RH, LV, RV
    kinds = [[box_kind(a, b) for b in (LH, RH, LV, RV)] for a in (LH, RH, LV, RV)]
    assert kinds == [
        ["HH", "HH", "HV", "HV"],
        ["HH", "HH", "HV", "HV"],
        ["VH", "VH", "VV", "VV"],
        ["VH", "VH", "VV", "VV"],
    ]
    signs = [[epsilon(a, b) for b in (LH, RH, LV, RV)] for a in (LH, RH, LV, RV)]
    assert signs == [
        [-1, -1, 1, 1],
        [-1, -1, 1, 1],
        [1, 1, -1, -1],
        [1, 1, -1, -1],
    ]


@pytest.mark.parametrize("text", [")^2", "<>)^2", "(<)^2)^3"])
def test_parse_word_refuses_an_unbalanced_close(text):
    with pytest.raises(ValueError, match=r"unbalanced '\)' in word"):
        parse_word(text)

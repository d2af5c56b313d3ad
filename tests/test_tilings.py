import random

import pytest

from schursample.oracle import enumerate_support
from schursample.partitions import EMPTY
from schursample.sampler import schur_sample
from schursample.symmetric import symmetric_schur_sample
from schursample.tilings import (
    CodecError,
    DominoTiling,
    HeightMatrix,
    OverpartitionTableau,
    aztec_region_dominoes,
    from_plane_overpartition,
    from_plane_partition,
    from_steep_tiling,
    overpartition_word,
    to_plane_overpartition,
    to_plane_partition,
    to_steep_tiling,
    word_shifts,
)
from schursample.words import Rel, parse_word, q_volume_parameters


# --- flips of steep tilings -------------------------------------------------

def flip_distance_check(tiling):
    """Number of flips from the minimal tiling: the volume of the decoded
    sequence (each flip adds or removes one box on one diagonal)."""
    return sum(sum(l) for l in from_steep_tiling(tiling))


def enumerate_flips(tiling):
    """All flippable 2x2 blocks, as the pair of dominoes (k, pos2,
    vertical, sign) to replace."""
    have = frozenset(tiling.dominoes)
    out = []
    for d in tiling.dominoes:
        k, p, vertical, sign = d
        if vertical:
            partner = (k + 1, p, True, -sign)
        else:
            partner = (k + 1, p + 2, False, -sign)
        if partner in have:
            out.append((d, partner))
    return out


def apply_flip(tiling, pair):
    a, b = pair
    k, p, vertical, sign = a
    assert b[0] == k + 1
    have = set(tiling.dominoes)
    have.discard(a)
    have.discard(b)
    if vertical:
        have.add((k, p, False, sign))
        have.add((k + 1, p + 2, False, b[3]))
    else:
        have.add((k, p, True, sign))
        have.add((k + 1, p, True, b[3]))
    return DominoTiling(tiling.word, tiling.window, tuple(sorted(have)))

RPP_WORD = parse_word("<<<>><<>>")
RPP_SEQ = (
    EMPTY, (1,), (3, 1), (4, 2), (2, 2), (2,), (3, 2), (4, 2), (2,), EMPTY,
)
RPP_ROWS = (
    (0, 0, 2, 2, 2),
    (0, 2, 2, 3, 4),
    (1, 2, 2),
    (1, 3, 4),
)

AZTEC2_SEQ = (EMPTY, (1, 1), (1,), (2,), EMPTY)
PYRAMID5_WORD = parse_word("<'<<'<<'>>'>>'>")
PYRAMID5_SEQ = (
    EMPTY, (1,), (1, 1), (2, 2), (2, 2, 2), (3, 3, 2),
    (3, 2), (2, 1), (2,), (1,), EMPTY,
)


def test_plane_partition_known_example():
    hm = to_plane_partition(RPP_WORD, RPP_SEQ)
    assert hm.shape == (5, 5, 3, 3)
    assert hm.rows == RPP_ROWS
    assert from_plane_partition(RPP_WORD, hm) == RPP_SEQ


def test_plane_partition_trivial_and_errors():
    w = parse_word("<<>>")
    hm = to_plane_partition(w, (EMPTY,) * 5)
    assert all(all(v == 0 for v in row) for row in hm.rows)
    with pytest.raises(CodecError):
        to_plane_partition(parse_word("<'>"), (EMPTY, (1,), EMPTY))
    bad = HeightMatrix((2,), ((2, 1),))
    with pytest.raises(CodecError):
        bad.validate()


def test_plane_partition_roundtrip_random():
    rnd = random.Random(0)
    for trial in range(300):
        m, n = rnd.randrange(1, 5), rnd.randrange(1, 5)
        w = parse_word(f"(<)^{m}(>)^{n}")
        z = q_volume_parameters(w, 0.5)
        s = schur_sample(w, z, trial)
        hm = to_plane_partition(w, s.lambdas)
        assert from_plane_partition(w, hm) == s.lambdas
    for trial in range(300):  # random unprimed words give non-rectangular shapes
        w = tuple(rnd.choice((Rel.LH, Rel.RH)) for _ in range(rnd.randrange(1, 9)))
        s = schur_sample(w, q_volume_parameters(w, 0.5), trial)
        hm = to_plane_partition(w, s.lambdas)
        assert from_plane_partition(w, hm) == s.lambdas


def test_word_shifts():
    # vertical steps of the minimal path at < and >'
    assert word_shifts(parse_word("(<'>)^2")) == (0,) * 5
    assert word_shifts(PYRAMID5_WORD) == (0, 0, 1, 1, 2, 2, 2, 3, 3, 4, 4)


def test_aztec2_known_tiling():
    w = parse_word("(<'>)^2")
    tiling = to_steep_tiling(w, AZTEC2_SEQ)
    expected = frozenset(  # (k, pos2, vertical, sign)
        [
            (0, -3, True, -1),
            (0, -1, True, -1),
            (1, -3, True, 1),
            (2, 1, True, -1),
            (3, -1, True, 1),
            (3, 1, True, 1),
        ]
    )
    assert aztec_region_dominoes(tiling, 2) == expected
    assert from_steep_tiling(tiling) == AZTEC2_SEQ


def test_minimal_tiling_structure():
    # the w-minimal tiling: dominoes follow the staircase of the minimal
    # path, vertical exactly where the path steps down (shift increments)
    w = PYRAMID5_WORD
    tiling = to_steep_tiling(w, (EMPTY,) * 11, window=(-9, 9))
    shifts = word_shifts(w)
    for k, _, vertical, _ in tiling.dominoes:
        assert vertical == (shifts[k + 1] - shifts[k] == 1)
    assert flip_distance_check(tiling) == 0
    assert from_steep_tiling(tiling) == (EMPTY,) * 11


def test_pyramid_width5_roundtrip():
    tiling = to_steep_tiling(PYRAMID5_WORD, PYRAMID5_SEQ)
    assert from_steep_tiling(tiling) == PYRAMID5_SEQ
    assert flip_distance_check(tiling) == sum(sum(l) for l in PYRAMID5_SEQ)


def test_flip_distance_aztec2():
    # |(1,1)| + |(1)| + |(2)| = 2 + 1 + 2
    tiling = to_steep_tiling(parse_word("(<'>)^2"), AZTEC2_SEQ)
    assert flip_distance_check(tiling) == 5


def test_steep_roundtrip_random():
    rnd = random.Random(5)
    for trial in range(200):
        n = rnd.randrange(1, 5)
        w = parse_word(f"(<'>)^{n}")
        s = schur_sample(w, (1,) * (2 * n), trial)
        t = to_steep_tiling(w, s.lambdas)
        assert from_steep_tiling(t) == s.lambdas
    for trial in range(100):
        s = schur_sample(PYRAMID5_WORD, q_volume_parameters(PYRAMID5_WORD, 0.6), trial)
        t = to_steep_tiling(PYRAMID5_WORD, s.lambdas)
        assert from_steep_tiling(t) == s.lambdas


@pytest.mark.parametrize(
    "codec,text,lambdas",
    [
        (to_plane_partition, "<>", (EMPTY, (5,), EMPTY, EMPTY, EMPTY)),
        (to_plane_partition, "<>", ((1,), (1,), EMPTY)),
        (to_steep_tiling, "<'>", (EMPTY, (1,))),
        (to_steep_tiling, "<'>", (EMPTY, (1,), (1,))),
    ],
)
def test_codecs_refuse_a_sequence_of_the_wrong_shape(codec, text, lambdas):
    with pytest.raises(CodecError, match="slices"):
        codec(parse_word(text), lambdas)


def test_steep_rejects_bad_words():
    with pytest.raises(CodecError):
        to_steep_tiling(parse_word("<>"), (EMPTY, (1,), EMPTY))


def test_flips_change_volume_by_one_aztec2():
    w = parse_word("(<'>)^2")
    window = (-7, 7)
    sup = enumerate_support(w, (1,) * 4, cap=100)
    tilings = {
        frozenset(to_steep_tiling(w, seq, window=window).dominoes): sum(map(sum, seq))
        for seq in sup.entries
    }
    assert len(tilings) == 8
    for seq in sup.entries:
        t = to_steep_tiling(w, seq, window=window)
        vol = flip_distance_check(t)
        for pair in enumerate_flips(t):
            flipped = apply_flip(t, pair)
            new_vol = flip_distance_check(flipped)
            assert abs(new_vol - vol) == 1


def test_aztec_codec_counts():
    for n, count in ((1, 2), (2, 8), (3, 64)):
        w = parse_word(f"(<'>)^{n}")
        sup = enumerate_support(w, (1,) * (2 * n), cap=100)
        window = (-2 * n - 3, 2 * n + 3)
        distinct = {
            frozenset(to_steep_tiling(w, seq, window=window).dominoes) for seq in sup.entries
        }
        assert len(distinct) == count == 2 ** (n * (n + 1) // 2)


OVERPARTITION_SEQ = (
    EMPTY, (1,), (2,), (2, 2), (3, 3, 1), (5, 3, 1), (5, 4, 1), (5, 4, 1, 1),
    (5, 4, 2, 1),
)


def test_overpartition_known_example():
    w = overpartition_word(4)
    tab = to_plane_overpartition(w, OVERPARTITION_SEQ)
    assert tab.shape == (5, 4, 2, 1)
    expected = (
        ((4, False), (4, True), (3, True), (2, False), (2, False)),
        ((3, False), (3, False), (3, True), (2, True)),
        ((3, True), (1, True)),
        ((1, False),),
    )
    assert tab.rows == expected
    assert from_plane_overpartition(tab, 4) == OVERPARTITION_SEQ


def test_overpartition_roundtrip_random():
    n = 3
    w = overpartition_word(n)
    z = tuple([0.3, 0.25] * n)
    for seed in range(300):
        s = symmetric_schur_sample(w, z, 0.5, "free", seed)
        seq = s.lambdas[: 2 * n + 1]
        tab = to_plane_overpartition(w, seq)
        assert from_plane_overpartition(tab, n) == seq


def test_overpartition_rejects_wrong_word():
    with pytest.raises(CodecError):
        to_plane_overpartition(parse_word("<<"), (EMPTY, (1,), (1,)))


def test_overpartition_decoder_refuses_a_negative_n():
    tab = to_plane_overpartition(overpartition_word(1), (EMPTY, (1,), (1,)))
    assert from_plane_overpartition(OverpartitionTableau((), ()), 0) == (EMPTY,)
    with pytest.raises(CodecError, match="entry 1 in row 1 is above n = 0"):
        from_plane_overpartition(tab, 0)  # once decoded to ((1,),), a non-empty slice 0
    with pytest.raises(CodecError, match="n must be at least 0, got -1"):
        from_plane_overpartition(tab, -1)


def test_monotonicity_iff_interlacing():
    # a valid interlaced sequence gives a monotone filling; breaking the
    # interlacing at one slice breaks monotonicity
    w = RPP_WORD
    hm = to_plane_partition(w, RPP_SEQ)
    hm.validate()
    broken = list(RPP_SEQ)
    broken[4] = (1,)  # (4,2) > (1) fails the horizontal-strip condition
    with pytest.raises(CodecError):
        to_plane_partition(w, tuple(broken))


@pytest.mark.parametrize(
    "codec,text,lambdas,named",
    [
        # the one-cell fold never reads part 2 of lambda(1)
        (to_plane_partition, "<>", (EMPTY, (2, 1), EMPTY), "interlace at step 1"),
        (to_plane_partition, "<<>>", (EMPTY, (1,), (2,), (1, 1), EMPTY), "interlace at step 3"),
        (
            to_plane_overpartition, "<<'", (EMPTY, (3, 1), (1,), (3, 1), EMPTY),
            "interlace at step 1",
        ),
        (to_plane_overpartition, "<<'", (EMPTY, (3,), (1,)), "interlace at step 2"),
        (to_plane_overpartition, "<<'", ((1,), (1,), (1,)), "first slice must be empty"),
    ],
)
def test_tableau_encoders_refuse_a_sequence_that_does_not_interlace(codec, text, lambdas, named):
    with pytest.raises(CodecError, match=named):
        codec(parse_word(text), lambdas)


def test_plane_partition_decoder_refuses_a_shape_the_word_does_not_encode():
    # a valid 2x2 reverse plane partition once decoded to ((1,), (2, 1), (1,))
    hm = HeightMatrix((2, 2), ((1, 1), (1, 2)))
    hm.validate()
    with pytest.raises(CodecError, match="shape"):
        from_plane_partition(parse_word("<>"), hm)


def test_height_matrix_refuses_a_negative_entry():
    # once decoded to ((), (-2,), ()), a slice with a negative part
    with pytest.raises(CodecError, match="entry -2 at row 1, column 1 is negative"):
        from_plane_partition(parse_word("<>"), HeightMatrix((1,), ((-2,),)))
    with pytest.raises(CodecError, match="entry -1 at row 1, column 1 is negative"):
        HeightMatrix((2, 1), ((-1, 0), (0,))).validate()
    HeightMatrix((2, 1), ((0, 0), (0,))).validate()


def test_overpartition_tableau_refuses_an_entry_below_one():
    # (0, False) once decoded to ((), (), ()), its cell dropped
    with pytest.raises(CodecError, match="entries must be at least 1, got 0"):
        from_plane_overpartition(OverpartitionTableau((1,), (((0, False),),)), 1)
    # the smallest entry of the tableau ends a row, here not the last one
    tab = OverpartitionTableau((2, 1), (((2, False), (0, True)), ((1, False),)))
    with pytest.raises(CodecError, match="at least 1"):
        tab.validate()
    OverpartitionTableau((2, 1), (((2, False), (1, True)), ((1, False),))).validate()


def test_overpartition_decoder_refuses_an_entry_above_n():
    # (3, False) with n = 1 once decoded to ((1,), (1,), (1,)): a non-empty slice 0
    tab = OverpartitionTableau((1,), (((3, False),),))
    with pytest.raises(CodecError, match="entry 3 in row 1 is above n = 1"):
        from_plane_overpartition(tab, 1)
    over = OverpartitionTableau((1,), (((2, True),),))  # 3/2 lies above 1 as well
    with pytest.raises(CodecError, match="above n = 1"):
        from_plane_overpartition(over, 1)
    assert from_plane_overpartition(tab, 3) == (EMPTY, (1,), (1,), (1,), (1,), (1,), (1,))
    assert from_plane_overpartition(over, 2) == (EMPTY, EMPTY, (1,), (1,), (1,))


@pytest.mark.parametrize("shape, rows", [((1, 2), ((0,), (0, 0))), ((1, 0), ((0,), ()))])
def test_tableaux_refuse_a_shape_that_is_not_a_partition(shape, rows):
    with pytest.raises(CodecError, match="not a partition"):
        HeightMatrix(shape, rows).validate()
    over = tuple(tuple((1, False) for _ in row) for row in rows)
    with pytest.raises(CodecError, match="not a partition"):
        OverpartitionTableau(shape, over).validate()


def test_steep_tiling_check_accepts_every_flip_of_small_aztec_diamonds():
    # a flip may move a domino wholly outside the window; that is allowed
    flips = outside = 0
    for n in (1, 2, 3):
        w = parse_word(f"(<'>)^{n}")
        sup = enumerate_support(w, (1,) * (2 * n), cap=100)
        for window in ((-2 * n - 3, 2 * n + 3), (-2 * n - 1, 2 * n + 1), (-1, 1), (1, 5)):
            for seq in sup.entries:
                t = to_steep_tiling(w, seq, window=window)
                t.validate()
                for pair in enumerate_flips(t):
                    flipped = apply_flip(t, pair)
                    flipped.validate()
                    lo, hi = window
                    flips += 1
                    outside += any(
                        not (lo <= p <= hi or lo <= p + 2 * vertical <= hi)
                        for _, p, vertical, _ in flipped.dominoes
                    )
    assert flips > 500 and outside > 0


W1 = parse_word("<'>")


@pytest.mark.parametrize(
    "tiling, named",
    [
        (DominoTiling(parse_word("<>"), (-3, 3), ()), "not a steep word"),
        (DominoTiling(W1, (-3, 2), ()), "window bounds"),
        (DominoTiling(W1, (-3, 3), ((2, 1, False, 1),)), "step 2 is not in 0..1"),
        (DominoTiling(W1, (-3, 3), ((-1, 1, False, 1),)), "step -1 is not in 0..1"),
        (DominoTiling(W1, (-3, 3), ((0, 2, False, -1),)), "pos2 2 is even"),
        (DominoTiling(W1, (-3, 3), ((0, 1, False, 5),)), "step 0 needs sign -1"),
        (DominoTiling(W1, (-3, 3), ((1, 1, True, -1),)), "step 1 needs sign 1"),
        (
            DominoTiling(W1, (-3, 3), ((0, 1, False, -1), (0, 1, True, -1))),
            "two dominoes cover the cell at diagonal 0, 1",
        ),
        (
            DominoTiling(W1, (-3, 3), ((0, -1, True, -1), (1, 1, False, 1))),
            "two dominoes cover the cell at diagonal 1, 1",
        ),
        (
            DominoTiling(W1, (-3, 3), ((1, 1, False, 1), (1, 1, False, 1))),
            "two dominoes cover the cell at diagonal 1, 1",
        ),
        (
            DominoTiling(W1, (-3, 3), ((0, -5, True, -1), (1, -3, True, 1))),
            "two dominoes cover the cell at diagonal 1, -3",
        ),
        (DominoTiling(W1, (-3, 3), ((0, 1.0, False, -1),)), "pos2 1.0 is not an integer"),
        (DominoTiling(W1, (-3, 3), ((0.0, 1, False, -1),)), "k 0.0 is not an integer"),
        (DominoTiling(W1, (-3, 3), ((False, 1, False, -1),)), "k False is not an integer"),
        (DominoTiling(W1, (-3, 3), ((0, 1, False, -1.0),)), "sign -1.0 is not an integer"),
        (DominoTiling(W1, (-3, 3), ((0, 1, 1, -1),)), "vertical 1 is not a bool"),
        (DominoTiling(W1, (-3.0, 3), ()), r"window bounds must be integers, got \[-3.0, 3\]"),
    ],
)
def test_steep_tiling_check_names_the_fault(tiling, named):
    with pytest.raises(CodecError, match=named):
        tiling.validate()
    with pytest.raises(CodecError, match=named):
        from_steep_tiling(tiling)


@pytest.mark.parametrize(
    "word, window, named",
    [("<>", None, "not a steep word"), ("<>", (-3, 3), "not a steep word"),
     ("<'>", (-2, 3), "window bounds"), ("<'>", None, "needs 3 slices")],
)
def test_steep_encoder_checks_the_word_before_the_slices(word, window, named):
    with pytest.raises(CodecError, match=named):
        to_steep_tiling(parse_word(word), [()], window=window)

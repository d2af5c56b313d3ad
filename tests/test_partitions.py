import pytest
from hypothesis import given, strategies as st

from schursample.partitions import (
    EMPTY,
    MayaWindow,
    Partition,
    conjugate,
    first_break,
    from_bits,
    from_maya,
    interlaces,
    interlaces_h,
    interlaces_v,
    make,
    part,
    partitions_of,
    partitions_up_to,
    to_bits,
)
from schursample.words import Rel, parse_word

from bits_reference import turned_bits


partition_strategy = st.lists(st.integers(1, 12), max_size=8).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


# --- helpers that only these tests use --------------------------------------

def contains(lam: Partition, mu: Partition) -> bool:
    """mu is a subdiagram of lam."""
    return len(mu) <= len(lam) and all(lam[i] >= mu[i] for i in range(len(mu)))


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


def test_make_trims_and_validates():
    assert make([3, 1, 0, 0]) == (3, 1)
    assert make([]) == ()
    with pytest.raises(ValueError):
        make([1, 2])
    with pytest.raises(ValueError):
        make([2, -1])


@pytest.mark.parametrize("parts, bad", [([1.5], "1.5"), ([2, 1.0], "1.0"), ([True], "True"),
                                        ([1, False], "False"), ([2, 0.0], "0.0")])
def test_make_refuses_a_part_that_is_not_an_integer(parts, bad):
    with pytest.raises(ValueError, match=f"parts must be integers, got {bad}$"):
        make(parts)


def test_part_accessor_is_total():
    lam = (5, 2)
    assert [part(lam, i) for i in range(1, 5)] == [5, 2, 0, 0]


def test_conjugate_examples():
    assert conjugate((2, 2, 2, 1, 1)) == (5, 3)
    assert conjugate(EMPTY) == EMPTY
    assert conjugate((5, 2)) == (2, 2, 1, 1, 1)


def test_conjugate_involution_exhaustive_weight_20():
    for lam in partitions_up_to(20):
        assert conjugate(conjugate(lam)) == lam


def test_interlacing_examples():
    assert interlaces_h((3, 1), (2, 1))
    assert interlaces_v((2, 1), (1, 1))
    assert not interlaces_v((3, 1), (1, 1))
    for rel in Rel:
        assert interlaces((2, 2), (2, 2), rel)


def test_interlacing_conjugation_duality_weight_12():
    parts = partitions_up_to(12)
    for lam in parts:
        for mu in parts:
            assert interlaces_h(lam, mu) == interlaces_v(conjugate(lam), conjugate(mu))


def ref_interlaces_h(lam, mu):
    """The part()-based walk that the zip pass replaced."""
    n = max(len(lam), len(mu))
    return all(part(lam, i) >= part(mu, i) >= part(lam, i + 1) for i in range(1, n + 1))


def ref_interlaces_v(lam, mu):
    n = max(len(lam), len(mu))
    return all(0 <= part(lam, i) - part(mu, i) <= 1 for i in range(1, n + 1))


def test_interlacing_matches_the_part_walk_exhaustively_weight_10():
    parts = partitions_up_to(10)
    for lam in parts:
        for mu in parts:
            assert interlaces_h(lam, mu) == ref_interlaces_h(lam, mu), (lam, mu)
            assert interlaces_v(lam, mu) == ref_interlaces_v(lam, mu), (lam, mu)


def test_first_break_names_the_first_failing_step():
    word = parse_word("<<'>>'")
    good = (EMPTY, (2,), (2, 1), (2,), (1,))
    assert first_break(word, good) is None
    assert first_break(word, (EMPTY, (2, 1), (2, 1), (2,), (1,))) == 1
    assert first_break(word, (EMPTY, (2,), (2, 1), EMPTY, (1,))) == 3
    assert first_break(word, (EMPTY, (2,), (2, 1), (2,), (3,))) == 4
    assert first_break((), (EMPTY,)) is None


def test_interlacing_implies_containment():
    for lam in partitions_up_to(8):
        for mu in partitions_up_to(8):
            if interlaces_h(lam, mu):
                assert contains(lam, mu)
                assert sum(lam) >= sum(mu)


def test_maya_vacuum():
    m = to_maya(EMPTY, 0, window=(-7, 7))
    for pos, cell in zip(m.positions(), m.cells):
        assert cell == (pos < 0)


def test_maya_known_pattern():
    # (2,2,2,1,1): particles at 1.5, 0.5, -0.5, -2.5, -3.5 and vacuum below
    m = to_maya((2, 2, 2, 1, 1), 0)
    got = {p for p, c in zip(m.positions(), m.cells) if c}
    assert got == {3, 1, -1, -5, -7}
    full = to_maya((2, 2, 2, 1, 1), 0, window=(-13, 13))
    got = {p for p, c in zip(full.positions(), full.cells) if c}
    # below the deviation range the tail continues at -5.5, -6.5, ...
    assert got == {3, 1, -1, -5, -7} | {-11, -13}


def test_maya_window_too_small():
    with pytest.raises(ValueError):
        to_maya((3, 1), 0, window=(-1, 1))


@given(partition_strategy, st.integers(-3, 3))
def test_maya_round_trip(lam, shift):
    assert from_maya(to_maya(lam, shift)) == lam
    wide = to_maya(lam, shift, window=(2 * shift - 31, 2 * shift + 31))
    assert from_maya(wide) == lam


@given(partition_strategy, st.integers(1, 20))
def test_maya_bitset_round_trip(lam, extra):
    c = (lam[0] if lam else 0) + extra
    v = to_bits(lam, c)
    assert v == sum(1 << (i - p + c) for i, p in enumerate(lam, 1)) - (1 << (len(lam) + 1 + c))
    assert from_bits(v) == lam
    assert (~v).bit_length() - 1 - c == len(lam)


def test_maya_bitset_known_values():
    assert to_bits(EMPTY, 3) == -1 << 4
    # (2, 1): rows 1 and 2 at bits 1 - 2 + 3 = 2 and 2 - 1 + 3 = 4, tail from bit 6
    assert to_bits((2, 1), 3) == 0b10100 - (1 << 6)
    assert from_bits(-1) == EMPTY == from_bits(-1 << 9)


@given(partition_strategy, st.integers(0, 3), st.integers(0, 3))
def test_turned_bits_is_the_bitset_of_the_turned_complement(lam, da, db):
    a = len(lam) + da
    b = (lam[0] if lam else 0) + db
    explicit = make(b - part(lam, a + 1 - i) for i in range(1, a + 1))
    assert turned_bits(lam, a, b) == to_bits(explicit, b + 1)
    assert from_bits(turned_bits(lam, a, b)) == explicit


def test_partitions_of_counts():
    counts = [len(partitions_of(n)) for n in range(8)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15]

import math
from fractions import Fraction

import pytest

from schursample.unbounded import ParamSeq, PyramidalParameters, WordConvention
from schursample.words import parse_word
from schursample.zfun import z_finite, z_pyramidal, z_symmetric


def test_aztec_counts():
    for n, count in ((1, 2), (2, 8), (3, 64)):
        out = z_finite(parse_word(f"(<'>)^{n}"), (1,) * (2 * n))
        assert out.finite and out.exact == count
        assert count == 2 ** (n * (n + 1) // 2)


def test_single_pair_normalizer():
    x, y = Fraction(1, 2), Fraction(1, 2)
    out = z_finite(parse_word("<>"), (x, y))
    assert out.exact == Fraction(4, 3)


def test_no_pairs_is_one():
    out = z_finite(parse_word("><"), (1, 1))
    assert out.exact == 1


def test_divergence_flag():
    out = z_finite(parse_word("<>"), (1, 1))
    assert not out.finite
    assert math.isinf(float(out))


def test_log_mode_for_long_words():
    w = parse_word("(<)^21(>)^21")
    z = tuple(0.3 for _ in w)
    out = z_finite(w, z)
    assert out.finite and out.exact is None
    expected = -21 * 21 * math.log1p(-0.09)
    assert abs(out.log - expected) < 1e-9


def test_z_symmetric_examples():
    z = (Fraction(1, 3),)
    t = Fraction(1, 2)
    w = parse_word("<")
    assert z_symmetric(w, z, t, "free").exact == Fraction(1, 1 - Fraction(1, 6))
    assert z_symmetric(w, z, t, "even_rows").exact == Fraction(
        1, 1 - Fraction(1, 36)
    )
    assert z_symmetric(w, z, t, "even_columns").exact == 1


def test_z_symmetric_matches_folded_parameters():
    # (Z; t) equals (Z-bar; 1) with z_i multiplied/divided by t
    w = parse_word("<<'><>'")
    z = tuple(Fraction(1, k + 3) for k in range(len(w)))
    t = Fraction(2, 5)
    zbar = tuple(
        zz * t if s.left else zz / t for s, zz in zip(w, z)
    )
    a = z_symmetric(w, z, t, "free")
    b = z_symmetric(w, zbar, Fraction(1), "free")
    assert a.exact == b.exact


def test_z_pyramidal_macmahon():
    # all-unprimed with a_i = b_i = q^(i+1/2): prod (1 - q^n)^(-n)
    q = 0.5
    params = PyramidalParameters.q_volume(q)
    conv = WordConvention.plane_partitions()
    out = z_pyramidal(params, conv)
    expected = -sum(n * math.log1p(-(q**n)) for n in range(1, 200))
    assert out.finite
    assert abs(out.log - expected) < 1e-9


def test_z_pyramidal_macmahon_to_double_precision():
    # at q = 0.9 the MacMahon sum needs about 400 terms; fsum is exact to 1 ulp
    q = 0.9
    out = z_pyramidal(PyramidalParameters.q_volume(q), WordConvention.plane_partitions())
    expected = math.fsum(-n * math.log1p(-(q**n)) for n in range(1, 2000))
    assert out.finite
    assert abs(out.log - expected) <= 1e-14 * expected


def test_z_pyramidal_divergence():
    g = ParamSeq.geometric(1.5, 0.5)  # a_1 b_0 = 1.125 on a plain box
    for conv in (WordConvention.plane_partitions(), WordConvention.pyramid()):
        out = z_pyramidal(PyramidalParameters(g, g), conv)
        assert not out.finite
        assert math.isinf(float(out))


def test_z_pyramidal_trivial():
    params = PyramidalParameters(a=ParamSeq.finite([]), b=ParamSeq.finite([]))
    out = z_pyramidal(params, WordConvention.plane_partitions())
    assert out.finite and abs(out.log) == 0.0


@pytest.mark.parametrize("text,z", [("<>", (math.nan, 1.0)), ("<>'", (math.inf, 1.0))])
def test_z_refuses_non_finite_parameters(text, z):
    w = parse_word(text)
    with pytest.raises(ValueError, match="finite"):
        z_finite(w, z)
    with pytest.raises(ValueError, match="finite"):
        z_symmetric(w, z, 0.5)
    with pytest.raises(ValueError, match="finite"):
        z_symmetric(w, (0.5, 0.5), math.nan)


@pytest.mark.parametrize("text,z", [("<>", (Fraction(-1, 2), 0.5)), ("<'>", (-2.0, 1.0))])
def test_z_refuses_negative_parameters(text, z):
    w = parse_word(text)
    with pytest.raises(ValueError, match="parameters must be finite and nonnegative"):
        z_finite(w, z)
    with pytest.raises(ValueError, match="parameters must be finite and nonnegative"):
        z_symmetric(w, z, 1)


def test_z_symmetric_refuses_a_negative_boundary_weight():
    with pytest.raises(ValueError, match="parameters must be finite and nonnegative, got -1/2"):
        z_symmetric(parse_word("<"), (Fraction(1, 3),), Fraction(-1, 2))

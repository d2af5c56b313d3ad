"""The parameter policy of ``words``: one predicate says what a parameter
is, and one product (with its quotient) forms x_i y_j, t z_i, z_i / t and
x^p, exactly where a float result would overflow.  The finite and
symmetric samplers and the partition functions all decide through them."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schursample import rules, symmetric
from schursample.rng import RandomSource
from schursample.sampler import DivergenceError, schur_sample
from schursample.symmetric import symmetric_schur_sample
from schursample.unbounded import ParamSeq, mixed_plancherel_sample
from schursample.words import Rel, is_parameter, parse_word, product, quotient
from schursample.zfun import z_finite, z_symmetric

BAD = "parameters must be finite and nonnegative, also as floats"


def test_a_parameter_is_a_real_number_at_least_zero_and_finite_as_a_float():
    for v in (0, -0.0, 0.3, Fraction(1, 3), 2, 10**400, Fraction(10**400, 3), 1e-300, True):
        assert is_parameter(v), v
    for v in (-0.5, -1, Fraction(-1, 2), math.nan, math.inf, "a", None, 1j, (0.5,)):
        assert not is_parameter(v), v


def test_the_product_is_pythons_own_unless_the_float_product_overflows():
    for a, b in ((0.3, 0.7), (Fraction(1, 3), 0.5), (2, Fraction(1, 3)), (10**400, 10**400)):
        ab = product(a, b)
        assert ab == a * b and type(ab) is type(a * b)
    # an int past the float range times a float would raise OverflowError
    assert product(10**400, 1e-300) == Fraction(10**400) * Fraction(1e-300)
    assert product(0.5, Fraction(10**400)) == 5 * 10**399
    # two finite floats whose float product would be inf
    assert product(1e200, 1e200) == Fraction(1e200) ** 2
    assert quotient(0.5, 10**400) == Fraction(1, 2 * 10**400)
    assert quotient(1e200, 1e-200) == Fraction(1e200) / Fraction(1e-200)
    assert quotient(0.3, 2) == 0.15


@pytest.mark.parametrize(
    "text, z, expected",
    [
        ("<>", (10**400, 1.0), "divergent"),
        ("<'>", (10**400, 1.0), "exp(921.034037198)"),
        ("<'>", (10**400, 1e-300), "1e+100"),
        ("<'>", (1e200, 1e200), "exp(921.034037198)"),
    ],
)
def test_z_finite_takes_a_product_past_the_float_range_exactly(text, z, expected):
    assert str(z_finite(parse_word(text), z)) == expected


def test_z_symmetric_takes_a_diagonal_weight_past_the_float_range_exactly():
    assert str(z_symmetric(parse_word("<"), (10**400,), 1.0)) == "divergent"


def test_folding_the_boundary_weight_past_the_float_range_is_exact():
    # t z = 10**400 / 2 on the free diagonal box diverges, named by its float
    with pytest.raises(DivergenceError, match=r"^box \(1, 1\) of type HH has parameter inf >= 1"):
        symmetric_schur_sample(parse_word("<"), (10**400,), 0.5, "free", 1)
    # z / t = 0.5 / 10**400 weights no box
    s = symmetric_schur_sample(parse_word(">"), (0.5,), 10**400, "free", 1)
    assert s.lambdas == ((), (), ())


def test_a_bernoulli_weight_formed_past_the_float_range_samples():
    # x y = 10**400 * 1e-300, about 1e100: the draw is 1 with float probability 1
    for seed in range(5):
        assert schur_sample(parse_word("<'>"), (10**400, 1e-300), seed).lambdas == ((), (1,), ())


def test_a_negative_parameter_paired_with_zero_is_refused_at_its_box():
    # the product is -0.0, which a test of its sign let through
    with pytest.raises(ValueError, match=rf"^box \(1, 1\) of type HH has parameter -0.5; {BAD}$"):
        schur_sample(parse_word("<>"), (0, -0.5), 1)
    for mode in rules.MODES:
        src = RandomSource(1, log_draws=True)
        # the reflected word <><> weights box (1, 2) with y_2 = -0.5
        match = rf"^box \(1, 2\) of type HH has parameter -0.5; {BAD}$"
        with pytest.raises(ValueError, match=match):
            symmetric_schur_sample(parse_word("<>"), (0, -0.5), 1, mode, src)
        assert src.draw_log == []


def test_a_bad_parameter_that_no_box_uses_is_named_by_its_symbol():
    with pytest.raises(ValueError, match=rf"^symbol 1 \(>\) of the word has parameter -1; {BAD}$"):
        schur_sample(parse_word("><"), (-1, -1), 1)
    # the reflected word >><< has no box
    with pytest.raises(ValueError, match=rf"^symbol 2 \(>\) of the word has parameter nan; {BAD}$"):
        symmetric_schur_sample(parse_word(">>"), (0.5, math.nan), 1, "free", 1)


def test_a_parameter_that_is_no_number_is_refused_at_its_box():
    with pytest.raises(ValueError, match=rf"^box \(1, 1\) of type HH has parameter a; {BAD}$"):
        schur_sample(parse_word("<>"), ("a", 0.5), 1)
    with pytest.raises(ValueError, match=rf"^box \(1, 1\) of type HH has parameter a; {BAD}$"):
        symmetric_schur_sample(parse_word("<"), ("a",), 0.5, "free", 1)


def test_both_factors_are_checked_before_the_product():
    # (-0.5) * (-0.5) = 0.25 would pass a test of the product's sign
    with pytest.raises(ValueError, match=rf"^box \(1, 1\) of type HH has parameter -0.5; {BAD}$"):
        schur_sample(parse_word("<>"), (-0.5, -0.5), 1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ParamSeq.finite((0.5, 10**400)),
        lambda: ParamSeq.geometric(10**400, 0.5),
        lambda: mixed_plancherel_sample(1.0, [10**400], 1),
        lambda: mixed_plancherel_sample(10**400, [1.0], 1),
    ],
    ids=["finite", "geometric", "mixed-line", "mixed-a"],
)
def test_the_float_only_families_refuse_a_value_past_the_float_range(make):
    with pytest.raises(ValueError, match=str(10**400)):
        make()


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, "a", 0])
def test_a_bad_boundary_weight_is_refused_before_any_plan_or_draw(monkeypatch, t):
    def no_plan(*args):
        raise AssertionError("a plan was made")

    monkeypatch.setattr(symmetric, "precompute_par", no_plan)
    src = RandomSource(0, log_draws=True)
    with pytest.raises(ValueError, match="boundary weight t"):
        symmetric_schur_sample(parse_word("<"), (0.5,), t, "free", src)
    assert src.draw_log == []


VALUES = (0, -0.0, 0.3, Fraction(1, 3), 2, 10**400, 1e-300, 1e200, -0.5, math.nan, math.inf, "a")


def _outcome(call):
    """None if the call returns, else its ValueError or TypeError; any other
    exception, a bare OverflowError included, fails the test."""
    try:
        call()
    except (ValueError, TypeError) as err:
        return err
    return None


def _refuses_a_parameter(err) -> bool:
    return isinstance(err, ValueError) and "parameters must be finite and nonnegative" in str(err)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(list(Rel)), max_size=4).flatmap(
    lambda w: st.tuples(
        st.just(tuple(w)),
        st.tuples(*[st.sampled_from(VALUES)] * len(w)),
        st.sampled_from(VALUES),
    )
))
def test_the_samplers_and_the_partition_functions_agree_on_what_a_parameter_is(case):
    word, z, t = case
    z_err = _outcome(lambda: z_finite(word, z))
    err = _outcome(lambda: schur_sample(word, z, 0))
    if _refuses_a_parameter(z_err):
        assert isinstance(err, ValueError) and not isinstance(err, DivergenceError), err
    for mode in rules.MODES:
        z_err = _outcome(lambda: z_symmetric(word, z, t, mode))
        err = _outcome(lambda: symmetric_schur_sample(word, z, t, mode, 0))
        if _refuses_a_parameter(z_err):
            assert isinstance(err, ValueError) and not isinstance(err, DivergenceError), err

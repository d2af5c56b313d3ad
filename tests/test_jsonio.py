import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from schursample import jsonio
from schursample.rng import RandomSource
from schursample.sampler import ProcessSample, schur_sample
from schursample.symmetric import SymmetricSample
from schursample.tilings import CodecError
from schursample.words import Rel, parse_word
from schursample.zfun import MODES

numbers = st.one_of(
    st.integers(-10**30, 10**30),
    st.fractions(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.inf, -math.inf]),
)
words = st.lists(st.sampled_from(list(Rel)), max_size=8).map(tuple)
partitions = st.lists(st.integers(1, 9), max_size=5).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)
seeds = st.one_of(st.none(), st.integers(0, 2**63))


def assert_same_numbers(back, orig):
    """Rationals come back as equal Fractions, floats as the same float."""
    assert len(back) == len(orig)
    for b, o in zip(back, orig):
        assert b == o
        assert isinstance(b, float if isinstance(o, float) else Fraction)


@given(st.data(), words, seeds)
def test_process_sample_json_round_trip(data, word, seed):
    z = tuple(data.draw(numbers) for _ in word)
    lambdas = tuple(data.draw(partitions) for _ in range(len(word) + 1))
    s = ProcessSample(word=word, z=z, seed=seed, lambdas=lambdas)
    back = jsonio.loads(jsonio.dumps(s))
    assert back == s
    assert_same_numbers(back.z, z)


@given(st.data(), words, numbers, st.sampled_from(MODES), seeds)
def test_symmetric_sample_json_round_trip(data, word, t, mode, seed):
    z = tuple(data.draw(numbers) for _ in word)
    lambdas = tuple(data.draw(partitions) for _ in range(2 * len(word) + 1))
    s = SymmetricSample(word=word, z=z, t=t, mode=mode, seed=seed, lambdas=lambdas)
    back = jsonio.loads(jsonio.dumps(s))
    assert back == s
    assert_same_numbers(back.z + (back.t,), z + (t,))


def test_logged_sample_json_round_trip():
    s = schur_sample(parse_word("(<'>)^2"), (1, 1, 1, 1), RandomSource(3, log_draws=True))
    assert s.draw_log
    back = jsonio.loads(jsonio.dumps(s))
    assert back.draw_log == s.draw_log
    assert back.lambdas == s.lambdas


@pytest.mark.parametrize("text", ["[1]", "null", "3", '"process-sample"'])
def test_loads_refuses_a_line_that_is_not_a_json_object(text):
    with pytest.raises(ValueError, match="a record must be a JSON object"):
        jsonio.loads(text)


def test_loads_keeps_an_overpartition_entry_as_written():
    record = {"kind": "plane-overpartition", "shape": [1], "rows": [[[1.5, False]]]}
    with pytest.raises(CodecError, match="entry 1.5 at row 1, column 1 is not an integer"):
        jsonio.loads(json.dumps(record))

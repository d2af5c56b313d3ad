import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from schursample import jsonio
from schursample.rng import RandomSource
from schursample.sampler import ProcessSample, reconstruct_inputs, schur_sample
from schursample.symmetric import SymmetricSample, symmetric_schur_sample
from schursample.tilings import (
    CodecError,
    to_plane_overpartition,
    to_plane_partition,
    to_steep_tiling,
)
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


def _records():
    """Process samples (half with draw logs), symmetric samples in every
    mode and the three views, in a fixed order."""
    for text, z in [
        ("(<'>)^3", (1,) * 6),
        ("(<)^2(>)^2", (Fraction(1, 2), 0.25, 1, Fraction(1, 3))),
        ("<'<>>'<>", (0.5, 0.25, 0.3, 0.7, 0.2, 0.9)),
    ]:
        for seed in range(20):
            yield schur_sample(parse_word(text), z, RandomSource(seed, log_draws=seed % 2 == 1))
    for mode in ("free", "even_rows", "even_columns"):
        for t in (1, Fraction(4, 5), 0.8):
            for seed in range(10):
                yield symmetric_schur_sample(parse_word("(<<')^4"), (0.45,) * 8, t, mode, seed)
    for seed in range(10):
        w = parse_word("(<)^2(>)^2")
        yield to_plane_partition(w, schur_sample(w, (Fraction(1, 2),) * 4, seed).lambdas)
        w = parse_word("(<'>)^3")
        yield to_steep_tiling(w, schur_sample(w, (1,) * 6, seed).lambdas)
        w = parse_word("(<<')^2")
        yield to_plane_overpartition(w, symmetric_schur_sample(w, (0.5,) * 4, 1, "free", seed).lambdas)


def test_records_and_their_round_trips_are_pinned():
    """The bytes of 180 records of every kind that ``dumps`` writes, and of
    each record read back and written again, pinned by digest."""
    digest = hashlib.sha256()
    for obj in _records():
        text = jsonio.dumps(obj)
        digest.update(f"{text}\n{jsonio.dumps(jsonio.loads(text))}\n".encode())
    assert digest.hexdigest() == (
        "7b2fec60498875ef114ac25925602c9439afc011d4fb9ae674db0b4b29d9e5c5"
    )


def test_a_sample_logs_only_its_own_draws():
    # two samples from one logging source: the second keeps only its draws
    src = RandomSource(1, log_draws=True)
    first = schur_sample(parse_word("(<'>)^2"), (1,) * 4, src)
    second = schur_sample(parse_word("(<'>)^2"), (1,) * 4, src)
    for s in (first, second):
        values = [v for _, _, v in s.draw_log]
        assert values == list(reconstruct_inputs(s).values())
        assert jsonio.loads(jsonio.dumps(s)).draw_log == s.draw_log
    assert src.draw_log == first.draw_log + second.draw_log

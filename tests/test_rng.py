import math
import random

import pytest

from schursample import rng
from schursample.rng import RandomSource, variates
from schursample.sampler import schur_sample
from schursample.symmetric import symmetric_schur_sample
from schursample.unbounded import (
    PyramidalParameters,
    PyramidalSampler,
    WordConvention,
    mixed_plancherel_sample,
    plancherel_sample,
)
from schursample.words import parse_word


def test_determinism():
    a = RandomSource(12345)
    b = RandomSource(12345)
    assert [a.geometric(0.7) for _ in range(50)] == [b.geometric(0.7) for _ in range(50)]
    assert [a.bernoulli(0.3) for _ in range(50)] == [b.bernoulli(0.3) for _ in range(50)]


def test_child_streams_differ():
    src = RandomSource(9)
    c0, c1 = src.child(0), src.child(1)
    assert [c0.geometric(0.5) for _ in range(20)] != [c1.geometric(0.5) for _ in range(20)]


def test_geometric_degenerate_and_errors():
    src = RandomSource(1)
    assert all(src.geometric(0.0) == 0 for _ in range(10))
    with pytest.raises(ValueError):
        src.geometric(1.0)
    with pytest.raises(ValueError):
        src.geometric(-0.1)


def test_geometric_moments():
    src = RandomSource(2024)
    n = 200_000
    draws = [src.geometric(0.5) for _ in range(n)]
    mean = sum(draws) / n
    # mean xi/(1-xi) = 1, var xi/(1-xi)^2 = 2
    assert abs(mean - 1.0) < 3 * math.sqrt(2.0 / n)
    p0 = sum(1 for d in draws if d == 0) / n
    assert abs(p0 - 0.5) < 3 * math.sqrt(0.25 / n)


def test_geometric_mass_at_zero_xi09():
    src = RandomSource(7)
    n = 200_000
    p0 = sum(1 for _ in range(n) if src.geometric(0.9) == 0) / n
    assert abs(p0 - 0.1) < 3 * math.sqrt(0.09 / n)


def test_bernoulli():
    src = RandomSource(3)
    assert src.bernoulli(0.0) == 0 and src.bernoulli(1.0) == 1
    n = 200_000
    mean = sum(src.bernoulli(0.25) for _ in range(n)) / n
    assert abs(mean - 0.25) < 3 * math.sqrt(0.25 * 0.75 / n)


def test_poisson_moments():
    src = RandomSource(11)
    n = 100_000
    for theta in (0.5, 4.0, 45.0):
        draws = [src.poisson(theta) for _ in range(n // (1 if theta < 40 else 10))]
        m = len(draws)
        mean = sum(draws) / m
        assert abs(mean - theta) < 4 * math.sqrt(theta / m)


def test_draw_log():
    src = RandomSource(5, log_draws=True)
    src.geometric(0.5)
    src.bernoulli(0.5)
    assert [entry[0] for entry in src.draw_log] == ["geom", "bern"]
    assert src.ledger.total == 2


def _one_call_each(src, odds, geometric):
    return [
        src.geometric(x) if g else src.bernoulli(x / (1.0 + x)) for x, g in zip(odds, geometric)
    ]


def test_row_draw_equals_one_call_per_variate():
    rnd = random.Random(4)
    for trial in range(200):
        n = rnd.randrange(12)
        geometric = [rnd.random() < 0.5 for _ in range(n)]
        odds = [
            rnd.choice((0.0, -0.0, 0.3, 0.9, 1e-300)) if g else rnd.choice((0.0, -0.0, 0.5, 2.5, 1e300))
            for g in geometric
        ]
        stop = rnd.randrange(n + 1)
        one, row = RandomSource(trial, log_draws=True), RandomSource(trial, log_draws=True)
        expected = _one_call_each(one, odds[:stop], geometric[:stop])
        assert row.row_drawer()(variates(odds, geometric), stop) == expected
        assert row.ledger == one.ledger
        assert repr(row.draw_log) == repr(one.draw_log)  # -0.0 logged as -0.0
        assert row._rng.getstate() == one._rng.getstate()


class CountedUniform(RandomSource):
    """A source whose uniform is its own: every other uniform is 0.5."""

    def uniform(self):
        self.calls = getattr(self, "calls", 0) + 1
        return 0.5 if self.calls % 2 else super().uniform()


def test_row_draw_takes_an_overridden_or_wrapped_uniform(monkeypatch):
    odds, geometric = [1.0, 0.25, 3.0, 0.5], [False, True, False, True]
    one, row = CountedUniform(9), CountedUniform(9)
    expected = _one_call_each(one, odds, geometric)
    assert row.row_drawer()(variates(odds, geometric), 4) == expected
    assert row.calls == one.calls == 4
    # the stock uniform wrapped on the class, as a tracer wraps it
    expected = _one_call_each(RandomSource(9), odds, geometric)
    calls = []
    stock = RandomSource.uniform
    monkeypatch.setattr(RandomSource, "uniform", lambda self: calls.append(1) or stock(self))
    assert RandomSource(9).row_drawer()(variates(odds, geometric), 4) == expected
    assert len(calls) == 4


class _Subclass(RandomSource):
    pass


def test_as_source_takes_an_int_or_a_random_source():
    src = _Subclass(4)
    assert rng.as_source(src) is src
    made = rng.as_source(7)
    assert type(made) is RandomSource and made.seed == 7
    with pytest.raises(TypeError, match="seed must be an int or a RandomSource, got float"):
        rng.as_source(1.5)


@pytest.mark.parametrize(
    "entry",
    [
        lambda seed: schur_sample(parse_word("<>"), (0.5, 0.5), seed),
        lambda seed: symmetric_schur_sample(parse_word("<"), (0.5,), 1, "free", seed),
        lambda seed: PyramidalSampler(
            PyramidalParameters.q_volume(0.5), WordConvention.pyramid()
        ).sample(seed),
        lambda seed: plancherel_sample(3.0, seed),
        lambda seed: mixed_plancherel_sample(1.0, [0.5, 0.5], seed),
    ],
    ids=["schur", "symmetric", "pyramidal", "plancherel", "mixed_plancherel"],
)
def test_every_sampler_refuses_a_seed_of_another_type(entry):
    assert entry(3) == entry(RandomSource(3))
    for seed in (1.5, "3", None):
        with pytest.raises(TypeError, match=f"got {type(seed).__name__}"):
            entry(seed)

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


class WordStream:
    """CPython's ``random()`` and ``getrandbits(k)`` on a list of 32-bit
    words, read in order; ``read`` counts the words read."""

    def __init__(self, words):
        self.words, self.read = list(words), 0

    def _word(self):
        self.read += 1
        return self.words[self.read - 1]

    def random(self):
        a, b = self._word() >> 5, self._word() >> 6
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)

    def getrandbits(self, k):
        if k <= 32:
            return self._word() >> (32 - k)
        out = 0
        for i in range((k - 1) // 32 + 1):  # the first word lowest
            w, left = self._word(), k - 32 * i
            out |= (w >> (32 - left) if left < 32 else w) << 32 * i
        return out


def _words(seed, n=4000):
    gen = random.Random(seed)
    return [gen.getrandbits(32) for _ in range(n)]


@pytest.mark.parametrize("seed", [0, 1, 2024, 2**40 + 3])
def test_word_stream_is_cpythons_generator(seed):
    stream, gen = WordStream(_words(seed)), random.Random(seed)
    for k in (1, 31, 32, 33, 64, 100, 1, 12800):
        assert [stream.random() for _ in range(5)] == [gen.random() for _ in range(5)]
        assert stream.getrandbits(k) == gen.getrandbits(k)


def _per_draw(rand, n, p):
    """n draws of ``1 if uniform() < p else 0``, uniform() redrawing 0.0."""
    values = []
    for _ in range(n):
        u = rand()
        while u <= 0.0:
            u = rand()
        values.append(1 if u < p else 0)
    return values


def _bulk(getrandbits, n, p):
    raw = getrandbits(64 * n).to_bytes(8 * n, "little")
    return list(rng._bernoulli_row(getrandbits, raw, p, rng._table(p)))


# p = 1/2; k/256 exactly; below 1/256; above 255/256; just below k/256
PS = [0.5, 37 / 256, 1 / 256, 3e-4, 1 - 3e-4, 255 / 256, math.nextafter(37 / 256, 0)]


@pytest.mark.parametrize("n", [1, 2, 7, 200])
@pytest.mark.parametrize("p", PS)
def test_bulk_row_equals_the_per_draw_path(n, p):
    for seed in range(40):
        bulk, one = random.Random(seed), random.Random(seed)
        assert _bulk(bulk.getrandbits, n, p) == _per_draw(one.random, n, p)
        assert bulk.random() == one.random()


def _zeros(slots, n, seed=5):
    """A word stream whose uniforms at ``slots`` are 0.0: words (a, b) with
    a >> 5 == b >> 6 == 0, the first of them 0 and 0, the rest 31 and 63."""
    words = _words(seed)
    for k, t in enumerate(slots):
        words[2 * t : 2 * t + 2] = (0, 0) if k == 0 else (31, 63)
    return words


@pytest.mark.parametrize("n", [1, 2, 7, 200])
@pytest.mark.parametrize("where", ["first", "middle", "last", "twice", "thrice-at-end"])
def test_bulk_row_draws_a_zero_uniform_again(n, where):
    t = {"first": 0, "middle": n // 2, "last": n - 1, "twice": n // 2, "thrice-at-end": n - 1}[where]
    slots = {"twice": [t, t + 1], "thrice-at-end": [t, t + 1, t + 2]}.get(where, [t])
    for p in PS:
        bulk, one = WordStream(_zeros(slots, n)), WordStream(_zeros(slots, n))
        assert _bulk(bulk.getrandbits, n, p) == _per_draw(one.random, n, p)
        assert bulk.read == one.read == 2 * (n + len(slots))


def test_bulk_row_at_a_uniform_equal_to_p():
    # U = 37/256 exactly, and the uniforms next to it, at slot 3 of 7
    for a, b in [(37 << 24, 0), (37 << 24, 1 << 6), ((37 << 24) - 32, 0xFFFFFFFF)]:
        words = _words(9)
        words[6:8] = a, b
        for p in (37 / 256, math.nextafter(37 / 256, 0), math.nextafter(37 / 256, 1)):
            bulk, one = WordStream(words), WordStream(words)
            assert _bulk(bulk.getrandbits, 7, p) == _per_draw(one.random, 7, p)


def _bernoulli_row_of(p, n):
    """A row of n Bernoulli variates of about p, with the p it draws."""
    row = variates([p / (1.0 - p)] * n, [False] * n)
    return row, row[0][0]


@pytest.mark.parametrize("n", [8, 9, 200])
@pytest.mark.parametrize("p", PS)
def test_row_drawer_reads_a_one_parameter_row_in_bulk(monkeypatch, n, p):
    calls = []
    bulk = rng._bernoulli_row
    monkeypatch.setattr(rng, "_bernoulli_row", lambda *a: calls.append(1) or bulk(*a))
    row, q = _bernoulli_row_of(p, n)
    for seed in range(20):
        one, src = RandomSource(seed, log_draws=True), RandomSource(seed, log_draws=True)
        expected = [one.bernoulli(q) for _ in range(n)]
        assert src.row_drawer()(row, n) == expected
        assert src.ledger == one.ledger
        assert repr(src.draw_log) == repr(one.draw_log)
        assert src._rng.random() == one._rng.random()
    assert len(calls) == 20


def test_rows_that_are_not_read_in_bulk():
    assert not variates([1.0] * 7, [False] * 7)[4]  # too short to repay the call
    assert variates([1.0] * 8, [False] * 8)[4]
    assert not variates([1.0] * 7 + [2.0], [False] * 8)[4]  # two parameters
    assert not variates([1.0] * 8, [False] * 7 + [True])[4]  # a geometric
    assert not variates([0.0] * 8, [False] * 8)[4]  # p = 0 reads no entropy
    assert not variates([1e300] * 8, [False] * 8)[4]  # nor p = 1


def test_bulk_row_keeps_an_overridden_uniform_or_another_generator(monkeypatch):
    monkeypatch.setattr(rng, "_bernoulli_row", None)  # any bulk read would fail
    row, p = _bernoulli_row_of(0.5, 200)
    for src in (FixedUniform(0.25), FixedUniform(0.75)):
        assert src.row_drawer()(row, 200) == [int(src.u < p)] * 200
    src, one = RandomSource(3), WordStream(_words(3, 1000))
    src._rng = WordStream(_words(3, 1000))
    assert src.row_drawer()(row, 200) == _per_draw(one.random, 200, p)
    assert src._rng.read == one.read


def test_a_batch_of_bulk_rows_equals_single_calls():
    word, z = parse_word("(<'>)^12"), (1,) * 24
    batch = schur_sample(word, z, RandomSource(8, log_draws=True), count=4)
    parent = RandomSource(8, log_draws=True)
    assert batch == [schur_sample(word, z, parent.child(k)) for k in range(4)]


class FixedUniform(RandomSource):
    """A source whose every uniform is u."""

    def __init__(self, u):
        super().__init__(0)
        self.u = u

    def uniform(self):
        return self.u


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

"""A batch (``count=n``) plans and checks once and then draws, from the
streams ``src.child(0)`` .. ``src.child(n - 1)``, what n single calls on
those streams draw."""
from fractions import Fraction

import pytest

from schursample import cli, sampler, symmetric
from schursample.rng import RandomSource
from schursample.rules import MODES
from schursample.sampler import DivergenceError, reconstruct_inputs, schur_sample
from schursample.symmetric import symmetric_schur_sample
from schursample.words import ShapePlan, parse_word, precompute_par


@pytest.fixture
def children(monkeypatch):
    """The streams that ``RandomSource.child`` makes, in order."""
    made = []
    child = RandomSource.child

    def recording(self, k):
        made.append(child(self, k))
        return made[-1]

    monkeypatch.setattr(RandomSource, "child", recording)
    return made


@pytest.mark.parametrize(
    "text, z",
    [
        ("(<'>)^4", (1,) * 8),  # a bitset plan
        ("(<>')^4", (0.5, 1, 2, 1, 0.25, 3, 1, 0.75)),  # an all-HV one, swept transposed
        ("<<'>><'>", (0.5, 0.25, 0.75, 0.5, 0.125, 0.5)),  # a tuple plan, float z
        ("<<'>><'>", (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1, 2),
                     Fraction(1, 8), Fraction(1, 2))),  # exact z
    ],
    ids=["bitset", "bitset-hv", "float", "fraction"],
)
def test_a_finite_batch_equals_single_calls_on_the_children(text, z):
    word, n = parse_word(text), 7
    plan = precompute_par(word, z)
    assert plan.bitsets == text.startswith("(<")  # all VH, or all HV and swept transposed
    kinds = {kind for row in plan.row_kinds for kind in row}
    assert kinds == {"(<'>)^4": {"VH"}, "(<>')^4": {"HV"}}.get(text, {"HH", "VH"})
    batch = schur_sample(word, z, RandomSource(11, log_draws=True), count=n)
    base = RandomSource(11, log_draws=True)
    singles = [schur_sample(word, z, base.child(k)) for k in range(n)]
    assert len(batch) == n
    assert batch == singles  # lambdas, seed, stats and draw_log alike
    assert all(s.draw_log for s in batch) and len({s.seed for s in batch}) == n
    assert len({s.lambdas for s in batch}) > 1
    for s in batch:  # each sample's inputs are its own draws, recovered from it alone
        assert list(reconstruct_inputs(s).values()) == [g for _, _, g in s.draw_log]


@pytest.mark.parametrize("mode", MODES)
def test_a_symmetric_batch_equals_single_calls_on_the_children(mode, children):
    word, z, t, n = parse_word("(<<')^3"), (0.45,) * 6, 0.8, 6
    batch = symmetric_schur_sample(word, z, t, mode, RandomSource(4, log_draws=True), count=n)
    batch_streams = children[:]
    base = RandomSource(4, log_draws=True)
    singles = [symmetric_schur_sample(word, z, t, mode, base.child(k)) for k in range(n)]
    assert batch == singles
    assert [s.draw_log for s in batch_streams] == [s.draw_log for s in children[n:]]
    assert [s.ledger for s in batch_streams] == [s.ledger for s in children[n:]]
    assert any(s.ledger.geometric_draws for s in batch_streams)


def test_count_none_is_the_single_sample_of_the_stream_itself():
    word, z = parse_word("<'>"), (0.5, 0.5)
    assert schur_sample(word, z, 3, count=None) == schur_sample(word, z, 3)
    assert schur_sample(word, z, 3, count=1) == [schur_sample(word, z, RandomSource(3).child(0))]
    assert schur_sample(word, z, 3, count=0) == []


@pytest.mark.parametrize(
    "z, error, match",
    [((1, 1), DivergenceError, "diverges"), ((-0.5, 1), ValueError, "nonnegative")],
    ids=["divergent", "negative"],
)
def test_a_bad_parameter_stops_a_batch_before_any_draw(z, error, match, children):
    src = RandomSource(0, log_draws=True)
    with pytest.raises(error, match=match) as batch_err:
        schur_sample(parse_word("<>"), z, src, count=5)
    with pytest.raises(error) as single_err:
        schur_sample(parse_word("<>"), z, 0)
    assert str(batch_err.value) == str(single_err.value)
    assert src.ledger.total == 0 and src.draw_log == [] and children == []


def test_a_divergent_symmetric_batch_stops_before_any_draw(children):
    src = RandomSource(0, log_draws=True)
    with pytest.raises(DivergenceError) as batch_err:
        symmetric_schur_sample(parse_word("<<'"), (2, 0.5), 1, "free", src, count=5)
    with pytest.raises(DivergenceError) as single_err:
        symmetric_schur_sample(parse_word("<<'"), (2, 0.5), 1, "free", 0)
    assert str(batch_err.value) == str(single_err.value)
    assert src.ledger.total == 0 and src.draw_log == [] and children == []


def test_a_symmetric_batch_keeps_the_order_of_its_errors():
    word, bad_z = parse_word("<<'"), (2, -1)
    # mode, then t, then the seed's type, then the parameters
    with pytest.raises(ValueError, match="mode must be one of"):
        symmetric_schur_sample(word, bad_z, 0, "none", "seed", count=2)
    with pytest.raises(ValueError, match="boundary weight t"):
        symmetric_schur_sample(word, bad_z, 0, "free", "seed", count=2)
    with pytest.raises(TypeError, match="seed must be an int"):
        symmetric_schur_sample(word, bad_z, 1, "free", "seed", count=2)
    with pytest.raises(TypeError, match="seed must be an int"):
        schur_sample(word, bad_z, "seed", count=2)


def _counting(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_sample_count_plans_once_through_the_module_attribute(capsys, monkeypatch):
    # the tracer's sampler span wraps cli.schur_sample, and its words span
    # sampler.check_parameters: one call each per batch keeps both live
    samples = _counting(monkeypatch, cli, "schur_sample")
    checks = _counting(monkeypatch, sampler, "check_parameters")
    argv = ["sample", "--word", "(<)^2(>)^2", "--z", "2.0,4.0,0.125,0.0625", "--seed", "9"]
    assert cli.main(argv + ["--count", "16"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 16
    assert samples == [{"count": 16}] and len(checks) == 1
    assert cli.main(argv) == 0  # count 1: one sample of the seed's own stream
    assert samples[1:] == [{}] and len(checks) == 2


def test_sample_symmetric_count_plans_once_through_the_module_attribute(capsys, monkeypatch):
    samples = _counting(monkeypatch, cli, "symmetric_schur_sample")
    checks = _counting(monkeypatch, symmetric, "check_parameters")
    argv = ["sample-symmetric", "--word", "(<<')^4", "--z", ",".join(["0.45"] * 8),
            "--t", "0.8", "--mode", "even-rows", "--seed", "4", "--count", "16"]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 16
    assert samples == [{"count": 16}] and len(checks) == 1


@pytest.mark.parametrize("text", ["(<'>)^3", "(<>')^3"])
def test_a_bitset_batch_sets_its_sweep_up_once(monkeypatch, text):
    # the boundary's boxes and the rows' slices of ShapePlan.sweep
    calls = _counting(monkeypatch, ShapePlan, "boundary_points")
    batch = schur_sample(parse_word(text), (1,) * 6, 5, count=9)
    assert len(batch) == 9 and len(calls) == 1


def test_verify_plans_once(capsys, monkeypatch):
    samples = _counting(monkeypatch, cli, "schur_sample")
    checks = _counting(monkeypatch, sampler, "check_parameters")
    argv = ["verify", "--word", "<'>", "--z", "1/2,1/2", "--samples", "300", "--seed", "2"]
    cli.main(argv)
    assert "TV distance" in capsys.readouterr().out
    assert samples == [{"count": 300}] and len(checks) == 1


@pytest.mark.parametrize("count", [-1, -2])
def test_a_negative_count_is_refused_before_any_plan_or_draw(count):
    # each call would be refused later (one parameter too few, an unknown
    # mode), so the count error shows that its check comes first
    src = RandomSource(0, log_draws=True)
    for sample, args in (
        (schur_sample, (parse_word("<'>"), (0.5,), src)),
        (symmetric_schur_sample, (parse_word("<'"), (), 1, "no-such-mode", src)),
    ):
        with pytest.raises(ValueError, match=f"count must be at least 0, got {count}"):
            sample(*args, count=count)
    assert src.draw_log == []
    word, z = parse_word("<'"), (0.5,)
    assert symmetric_schur_sample(word, z, 1, "free", 3, count=0) == []


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_refuses_a_sample_count_below_one_before_the_oracle(capsys, monkeypatch, samples):
    from schursample import oracle

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(oracle, "enumerate_support", refuse)
    code = cli.main(["verify", "--word", "<>", "--z", "1/2,1/2", "--samples", samples])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: --samples must be at least 1, got {samples}\n"

import functools
import hashlib
import json
import math
import random
from fractions import Fraction
from numbers import Rational

import pytest

from schursample import jsonio, rules, symmetric
from schursample.oracle import enumerate_symmetric_support, horizontal_strips_above
from schursample.partitions import EMPTY, conjugate, partitions_up_to
from schursample.rng import RandomSource
from schursample.sampler import DivergenceError
from schursample.symmetric import (
    SymmetricSample,
    fold_boundary_weight,
    reconstruct_symmetric_inputs,
    symmetric_schur_sample,
)
from schursample.words import Rel, parse_word, precompute_par, symmetrize
from schursample.zfun import z_symmetric

# name of each diagonal rule in schursample.symmetric -> its rules.grow_diag kind
CHECKED_DIAGONAL_RULES = {
    "grow_diag_h": "H",
    "grow_diag_h_er": "HER",
    "grow_diag_h_ec": "HEC",
    "grow_diag_v": "V",
    "grow_diag_v_er": "VER",
    "grow_diag_v_ec": "VEC",
}


def _checked_diagonal(kind):
    if kind in ("HEC", "VER"):  # deterministic: no G argument
        return lambda mu, kap: rules.grow_diag(kind, mu, kap, 0)
    return functools.partial(rules.grow_diag, kind)


def test_single_left_free_is_geometric():
    z, t = 0.4, 0.6
    n = 40_000
    src = RandomSource(123)
    sizes = []
    for k in range(n):
        s = symmetric_schur_sample(parse_word("<"), (z,), t, "free", src.child(k))
        assert len(s.lambdas) == 3
        assert len(s.free_partition) <= 1
        sizes.append(sum(s.free_partition))
    xi = t * z
    mean = sum(sizes) / n
    assert abs(mean - xi / (1 - xi)) < 4 * math.sqrt(xi / (1 - xi) ** 2 / n)
    p0 = sum(1 for v in sizes if v == 0) / n
    assert abs(p0 - (1 - xi)) < 4 * math.sqrt(xi * (1 - xi) / n)


def test_single_left_even_columns_is_deterministic_empty():
    for seed in range(20):
        s = symmetric_schur_sample(parse_word("<"), (0.5,), 0.9, "even_columns", seed)
        assert s.free_partition == EMPTY


def test_palindrome_and_mode_constraints():
    w = parse_word("<<'><'")
    z = (0.4, 0.3, 0.5, 0.35)
    for mode in ("free", "even_rows", "even_columns"):
        for seed in range(300):
            s = symmetric_schur_sample(w, z, 0.5, mode, seed)
            s.validate()


def test_even_rows_vv_diagonal_word():
    # leading <' makes the first diagonal box VV; even rows must still hold
    w = parse_word("<'<")
    for seed in range(200):
        s = symmetric_schur_sample(w, (0.5, 0.4), 0.6, "even_rows", seed)
        s.validate()
        assert all(v % 2 == 0 for v in s.free_partition)


def symmetric_weight(sample: SymmetricSample):
    """Unnormalized weight t^|free| * prod z_i^(|weight changes|) over the
    first n steps; exact when the parameters are."""
    n = len(sample.word)
    exact = all(isinstance(v, Rational) for v in sample.z) and isinstance(
        sample.t, Rational
    )
    w = Fraction(1) if exact else 1.0
    tt = Fraction(sample.t) if exact else float(sample.t)
    w *= tt ** sum(sample.free_partition)
    for i in range(1, n + 1):
        zz = Fraction(sample.z[i - 1]) if exact else float(sample.z[i - 1])
        w *= zz ** abs(sum(sample.lambdas[i]) - sum(sample.lambdas[i - 1]))
    return w


def test_symmetric_weight_examples():
    w = parse_word("<")
    s = SymmetricSample(
        word=w, z=(Fraction(1, 3),), t=Fraction(1, 2), mode="free", seed=None,
        lambdas=(EMPTY, (3,), EMPTY),
    )
    assert symmetric_weight(s) == Fraction(1, 2) ** 3 * Fraction(1, 3) ** 3
    empty = SymmetricSample(
        word=(), z=(), t=Fraction(1, 2), mode="free", seed=None, lambdas=(EMPTY,)
    )
    assert symmetric_weight(empty) == 1


def test_enumerated_weights_sum_to_z_symmetric():
    t = Fraction(1, 2)
    for text, mode in [
        ("<", "free"), ("<", "even_rows"), ("<", "even_columns"),
        ("<<'", "free"), ("<'>", "even_rows"), ("<<'", "even_columns"),
        ("<><'", "free"),
    ]:
        w = parse_word(text)
        z = tuple(Fraction(1, 3 + k) for k in range(len(w)))
        sup = enumerate_symmetric_support(w, z, t, cap=24, mode=mode)
        zv = z_symmetric(w, z, t, mode).exact
        assert sup.total <= zv <= sup.total + sup.tail_bound, (text, mode)


def test_sampler_matches_enumeration_tv():
    w = parse_word("<<'")
    z = (Fraction(1, 3), Fraction(1, 4))
    t = Fraction(1, 2)
    sup = enumerate_symmetric_support(w, z, t, cap=20, mode="free")
    total = sup.total
    n = 30_000
    src = RandomSource(77)
    counts = {}
    for k in range(n):
        s = symmetric_schur_sample(w, z, t, "free", src.child(k))
        key = s.lambdas[: len(w) + 1]
        counts[key] = counts.get(key, 0) + 1
    tv = 0.0
    for key, wgt in sup.entries.items():
        tv += abs(counts.get(key, 0) / n - float(wgt / total))
    tv /= 2
    assert tv < 0.02


def test_littlewood_truncated_identity():
    mu = (2, 1)
    z, t = Fraction(3, 10), Fraction(1, 2)
    cap = 40
    lhs = sum(
        float(z) ** (sum(nu) - sum(mu)) * float(t) ** sum(nu)
        for nu in horizontal_strips_above(mu, cap - sum(mu))
    )
    kappas = [k for k in partitions_up_to(sum(mu)) if _succeq(mu, k)]
    rhs = sum(
        float(z * t * t) ** (sum(mu) - sum(k)) * float(t) ** sum(k) for k in kappas
    ) / (1 - float(z * t))
    assert abs(lhs - rhs) < 1e-9


def test_littlewood_even_rows_truncated():
    mu = (2, 1)
    z, t = 0.3, 0.5
    cap = 60
    lhs = sum(
        z ** (sum(nu) - sum(mu)) * t ** sum(nu)
        for nu in horizontal_strips_above(mu, cap - sum(mu))
        if all(v % 2 == 0 for v in nu)
    )
    kappas = [
        k
        for k in partitions_up_to(sum(mu))
        if _succeq(mu, k) and all(v % 2 == 0 for v in k)
    ]
    rhs = sum((z * t * t) ** (sum(mu) - sum(k)) * t ** sum(k) for k in kappas) / (
        1 - (z * t) ** 2
    )
    assert abs(lhs - rhs) < 1e-9


def test_littlewood_even_columns_truncated():
    mu = (2, 1)
    z, t = 0.3, 0.5
    cap = 60
    lhs = sum(
        z ** (sum(nu) - sum(mu)) * t ** sum(nu)
        for nu in horizontal_strips_above(mu, cap - sum(mu))
        if all(v % 2 == 0 for v in conjugate(nu))
    )
    kappas = [
        k
        for k in partitions_up_to(sum(mu))
        if _succeq(mu, k) and all(v % 2 == 0 for v in conjugate(k))
    ]
    rhs = sum((z * t * t) ** (sum(mu) - sum(k)) * t ** sum(k) for k in kappas)
    assert abs(lhs - rhs) < 1e-9


def _succeq(lam, mu):
    from schursample.partitions import interlaces_h

    return interlaces_h(lam, mu)


def test_fold_boundary_weight():
    w = parse_word("<>")
    assert fold_boundary_weight(w, (Fraction(1, 2), Fraction(1, 3)), Fraction(2)) == (
        Fraction(1),
        Fraction(1, 6),
    )


def test_t_handled_by_reparametrization():
    # sampling with (z; t) must match sampling with (t^eps z; 1) seed by seed
    w = parse_word("<<'")
    z = (Fraction(2, 5), Fraction(1, 4))
    t = Fraction(1, 2)
    zbar = fold_boundary_weight(w, z, t)
    for seed in range(100):
        a = symmetric_schur_sample(w, z, t, "free", seed)
        b = symmetric_schur_sample(w, zbar, 1, "free", seed)
        assert a.lambdas == b.lambdas


def test_symmetric_sampler_under_rule_checks(monkeypatch):
    # exercise the per-box interlacing and diagonal weight-balance assertions
    for kind in rules.GROW:
        monkeypatch.setitem(rules.GROW, kind, functools.partial(rules.grow, kind))
    for name, kind in CHECKED_DIAGONAL_RULES.items():
        monkeypatch.setattr(symmetric, name, _checked_diagonal(kind))
    w = parse_word("<'<><'")
    for mode in ("free", "even_rows", "even_columns"):
        for seed in range(100):
            symmetric_schur_sample(w, (0.4, 0.3, 0.5, 0.2), 0.5, mode, seed)


class _MirrorGrid:
    """Stores only the j >= i triangle; reads below the diagonal mirror."""

    def __init__(self):
        self._tau = {}

    def get(self, i, j):
        if i > j:
            i, j = j, i
        return self._tau.get((i, j), EMPTY)

    def set(self, i, j, value):
        self._tau[(i, j)] = value


def _reference_diagonal_step(kind, mode, mu, kap, x, src):
    if kind == "HH":
        if mode == "free":
            return rules.grow_diag_h(mu, kap, src.geometric(float(x)))
        if mode == "even_rows":
            return rules.grow_diag_h_er(mu, kap, src.geometric(float(x) ** 2))
        return rules.grow_diag_h_ec(mu, kap)
    if mode == "free":
        return rules.grow_diag_v(mu, kap, src.geometric(float(x)))
    if mode == "even_rows":
        return rules.grow_diag_v_er(mu, kap)
    return rules.grow_diag_v_ec(mu, kap, src.geometric(float(x) ** 2))


def _reference_symmetric_lambdas(word, z, t, mode, seed):
    """Triangle loop over a mirrored full grid, box by box in row-major
    order: the reference for the profile sweep of symmetric_schur_sample."""
    src = RandomSource(seed)
    wsym, zsym = symmetrize(word, fold_boundary_weight(word, z, t))
    plan = precompute_par(wsym, zsym)
    grid = _MirrorGrid()
    for i, j in plan.boxes():
        if j < i:
            continue
        kind = plan.row_kinds[j - 1][i - 1]
        if j > i:
            xi = float(plan.x[i - 1] * plan.y[j - 1])
            if kind in ("HH", "VV"):
                u = src.geometric(xi)
            else:
                u = src.bernoulli(xi / (1.0 + xi))
            nu = rules.GROW[kind](
                grid.get(i - 1, j), grid.get(i, j - 1), grid.get(i - 1, j - 1), u
            )
        else:
            nu = _reference_diagonal_step(
                kind, mode, grid.get(i - 1, i), grid.get(i - 1, i - 1), plan.x[i - 1], src
            )
        grid.set(i, j, nu)
    return tuple(grid.get(i, j) for i, j in plan.boundary_points())


def test_profile_sweep_matches_mirrored_grid():
    rnd = random.Random(21)
    for trial in range(300):
        w = tuple(rnd.choice(list(Rel)) for _ in range(rnd.randrange(7)))
        z = tuple(rnd.choice((0.2, 0.35, 0.5, Fraction(1, 3))) for _ in w)
        for t in (Fraction(1, 2), 1, 1.5):
            for mode in ("free", "even_rows", "even_columns"):
                s = symmetric_schur_sample(w, z, t, mode, trial)
                assert s.lambdas == _reference_symmetric_lambdas(w, z, t, mode, trial)


def test_divergent_symmetric_parameters_raise_divergence_error():
    # free mode: the diagonal box of "<" draws Geom(t z) = Geom(1.2)
    with pytest.raises(DivergenceError) as err:
        symmetric_schur_sample(parse_word("<"), (0.8,), 1.5, "free", 0)
    assert err.value.box == (1, 1)
    # even columns: the HH diagonal draws nothing, box (1, 2) has 0.9 * 1.2
    with pytest.raises(DivergenceError) as err:
        symmetric_schur_sample(parse_word("<<"), (0.9, 1.2), 1, "even_columns", 0)
    assert err.value.box == (1, 2)


@pytest.mark.parametrize(
    "text, x, mode, error",
    [
        ("<", 10**400, "free", DivergenceError),
        ("<", Fraction(10**400), "free", DivergenceError),
        ("<", 1e200, "even_rows", ValueError),  # x^2 is inf
        ("<'", 1e200, "even_columns", ValueError),
    ],
    ids=["int", "fraction", "float-even-rows", "float-even-columns"],
)
def test_a_diagonal_weight_past_the_float_range_is_refused_at_its_box(text, x, mode, error):
    # x^p is formed exactly, or as a float product, and checked at box (1, 1)
    # before it is turned into a float
    with pytest.raises(error, match=r"^box \(1, 1\) of type"):
        symmetric_schur_sample(parse_word(text), (x,), 1, mode, 0)
    assert str(z_symmetric(parse_word(text), (x,), 1, mode)) == "divergent"


@pytest.mark.parametrize("mode", rules.MODES)
def test_a_negative_parameter_on_a_diagonal_only_box_is_refused(mode):
    # even_rows draws Geom(x^2) there and even_columns draws nothing, so
    # neither sees the sign unless x itself is checked
    src = RandomSource(1, log_draws=True)
    with pytest.raises(ValueError, match=r"^box \(1, 1\) of type HH has parameter -0.5; "
                       "parameters must be finite and nonnegative, also as floats$"):
        symmetric_schur_sample(parse_word("<"), (-0.5,), 1, mode, src)
    assert src.draw_log == []


def test_a_diagonal_weight_whose_float_rounds_to_one_is_refused():
    # x^2 < 1 exactly, but its float is 1.0, which no geometric draw takes
    x = Fraction(10**20 - 1, 10**20)
    with pytest.raises(DivergenceError) as err:
        symmetric_schur_sample(parse_word("<"), (x,), 1, "even_rows", 0)
    assert err.value.box == (1, 1) and err.value.xi == 1.0


def test_reconstruct_symmetric_inputs_equals_the_draw_log():
    rnd = random.Random(8)
    for trial in range(300):
        w = tuple(rnd.choice(list(Rel)) for _ in range(rnd.randrange(8)))
        z = tuple(rnd.choice((0.3, 0.6, 0.8, Fraction(1, 2))) for _ in w)
        t = rnd.choice((Fraction(1, 2), 1, 1.2))
        mode = ("free", "even_rows", "even_columns")[trial % 3]
        src = RandomSource(trial, log_draws=True)
        s = symmetric_schur_sample(w, z, t, mode, src)
        assert reconstruct_symmetric_inputs(s) == [v for _, _, v in src.draw_log]


def test_symmetric_samples_and_draw_logs_are_pinned():
    """Samples and draw logs of (<<')^4 in each boundary mode, for seeds
    0-99, pinned by digest: the diagonal draws come in row order."""
    digest = hashlib.sha256()
    for mode in ("free", "even_rows", "even_columns"):
        for seed in range(100):
            src = RandomSource(seed, log_draws=True)
            s = symmetric_schur_sample(parse_word("(<<')^4"), (0.45,) * 8, 0.8, mode, src)
            digest.update(json.dumps([s.lambdas, src.draw_log]).encode())
    assert digest.hexdigest() == (
        "7c3040f83699f6560e27111e3c797c6e309da4c1334b3ec4d6ead3aa3c35acc5"
    )


def test_the_symmetric_sweep_runs_no_diagonal_rule_on_a_dead_box(monkeypatch):
    # a diagonal box whose row was skipped up to it has empty mu and kap;
    # with G = 0 (or no G) its rule grows the empty partition, so it is skipped
    calls = []

    def recorder(rule):
        def inner(*args):
            calls.append(args)
            return rule(*args)

        return inner

    for name in CHECKED_DIAGONAL_RULES:
        monkeypatch.setattr(symmetric, name, recorder(getattr(symmetric, name)))
    for mode in ("free", "even_rows", "even_columns"):
        for seed in range(10):
            symmetric_schur_sample(parse_word("(<<')^4"), (0.45,) * 8, 0.8, mode, seed)
    assert calls
    # (mu, kap, G) on a drawing rule, (mu, kap) on a deterministic one
    assert not [args for args in calls if args[:2] == ((), ()) and args[2:] in ((), (0,))]


def test_reconstruct_symmetric_inputs_refuses_an_invalid_sample():
    s = symmetric_schur_sample(parse_word("<<"), (0.5, 0.5), 1, "even_rows", 3)
    s.lambdas = (EMPTY, (1,), (1,), (1,), EMPTY)  # the free partition has an odd row
    with pytest.raises(ValueError):
        reconstruct_symmetric_inputs(s)


def test_reconstruct_symmetric_inputs_is_certified_by_a_forward_replay(monkeypatch):
    w = parse_word("<<")
    s = symmetric_schur_sample(w, (0.9, 0.9), 1, "free", 2)
    assert any(reconstruct_symmetric_inputs(s))
    shrink_diag = rules.shrink_diag

    def off_by_one(kind, mu, nu):
        kap, g = shrink_diag(kind, mu, nu)
        return kap, g + 1

    monkeypatch.setattr(symmetric, "shrink_diag", off_by_one)
    with pytest.raises(rules.GrowthError, match="do not regrow"):
        reconstruct_symmetric_inputs(s)


UNKNOWN_MODE = r"mode must be one of \('free', 'even_rows', 'even_columns'\), got '"


def test_an_unknown_mode_is_refused_by_every_entry_point():
    w, z, t = parse_word("<<'"), (Fraction(1, 3), Fraction(1, 4)), Fraction(1, 2)
    s = symmetric_schur_sample(w, z, t, "even_rows", 5)
    record = jsonio.loads(jsonio.dumps(s).replace('"even_rows"', '"bogus"'))
    assert record.mode == "bogus" and record.lambdas == s.lambdas
    calls = [
        lambda: symmetric_schur_sample(w, z, t, "bogus", 5),
        record.validate,
        lambda: reconstruct_symmetric_inputs(record),
        lambda: z_symmetric(w, z, t, "bogus"),
        lambda: enumerate_symmetric_support(w, z, t, cap=4, mode="bogus"),
        # the spelling of the CLI option is not a mode name
        lambda: enumerate_symmetric_support(w, z, t, cap=4, mode="even-columns"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=UNKNOWN_MODE):
            call()


def test_validate_refuses_a_closed_sequence_that_is_not_palindromic():
    # closed and of the right length for <<>>, but read backwards it differs
    s = SymmetricSample(parse_word("<<"), (Fraction(1, 2),) * 2, 1, "free", 0,
                        (EMPTY, (2,), (2,), (1,), EMPTY))
    with pytest.raises(ValueError, match="^sequence is not palindromic$"):
        s.validate()

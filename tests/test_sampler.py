import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from schursample import rules
from schursample.partitions import EMPTY
from schursample.rng import RandomSource
from schursample.sampler import (
    DivergenceError,
    SampleStats,
    check_parameters,
    grow_profile,
    reconstruct_inputs,
    schur_sample,
    shrink_profile,
)
from schursample.words import Rel, parse_word, precompute_par, q_volume_parameters, symmetrize

from grid_reference import boundary_lambdas, run_growth


def random_word(rnd, max_len=10):
    return tuple(rnd.choice(list(Rel)) for _ in range(rnd.randrange(max_len + 1)))


def test_single_hh_box_is_geometric():
    # word <>: the output is (empty, (G), empty) with G ~ Geom(xy)
    n = 50_000
    xi = 0.375
    src = RandomSource(42)
    sizes = []
    for _ in range(n):
        s = schur_sample(parse_word("<>"), (0.75, 0.5), src.child(len(sizes)))
        assert len(s.lambdas) == 3
        assert s.lambdas[0] == EMPTY and s.lambdas[2] == EMPTY
        assert len(s.lambdas[1]) <= 1
        sizes.append(sum(s.lambdas[1]))
    mean = sum(sizes) / n
    expected = xi / (1 - xi)
    sd = math.sqrt(xi / (1 - xi) ** 2 / n)
    assert abs(mean - expected) < 4 * sd


def test_single_vh_box_is_bernoulli():
    xi = 1.0  # z = (1, 1)
    n = 50_000
    src = RandomSource(7)
    ones = 0
    for k in range(n):
        s = schur_sample(parse_word("<'>"), (1, 1), src.child(k))
        assert s.lambdas[1] in (EMPTY, (1,))
        ones += s.lambdas[1] == (1,)
    p = xi / (1 + xi)
    assert abs(ones / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_empty_shape_words():
    s = schur_sample(parse_word(">><"), (1, 1, 1), 5)
    assert all(l == EMPTY for l in s.lambdas)
    assert s.stats.boxes == 0


def test_divergence_error_names_box():
    with pytest.raises(DivergenceError) as err:
        schur_sample(parse_word("<>"), (1, 1), 0)
    assert err.value.box == (1, 1)
    # a VH-only word with the same parameters is fine
    schur_sample(parse_word("<'>"), (1, 1), 0)


def test_parameter_that_rounds_to_one_is_refused_before_any_draw():
    # x y < 1 exactly, but float(x y) == 1.0, which Geom cannot draw
    xi = Fraction(99999999999999999, 10**17)
    src = RandomSource(0, log_draws=True)
    with pytest.raises(DivergenceError, match="parameter 1.0 >= 1") as err:
        schur_sample(parse_word("<'<>"), (1, xi, 1), src)
    assert err.value.box == (2, 1) and err.value.kind == "HH"
    assert src.draw_log == []
    # the same product on a Bernoulli box draws with p = 1/2
    schur_sample(parse_word("<'>"), (xi, 1), 0)


def test_parameter_overflowing_a_float_is_refused_with_the_box():
    with pytest.raises(ValueError, match="also as floats") as err:
        schur_sample(parse_word("<'>"), (10**400, 1), 0)
    assert "box (1, 1)" in str(err.value)


def test_parameter_table_shares_equal_rows():
    # x = (1, 1/2, 1); y = (1, 1, 2), row 1 first; rows 1 and 2 share a list
    plan = precompute_par(parse_word("(<'>)^3"), (1, 2, Fraction(1, 2), 1, 1, 1))
    table = check_parameters(plan)
    assert [row[2] for row in table] == [[1.0, 0.5, 1.0], [1.0, 0.5, 1.0], [2.0]]
    assert table[0] is table[1]


def test_exact_rows_are_keyed_without_hashing_a_fraction(monkeypatch):
    # Fraction.__hash__ runs in Python; equal Fractions still share one row
    w, z = parse_word("(<'>)^2"), (Fraction(1), Fraction(1), Fraction(2, 2), Fraction(1))
    table = check_parameters(precompute_par(w, z))
    expected = schur_sample(w, z, 9)

    def refuse(self):
        raise AssertionError("a Fraction was hashed")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    assert schur_sample(w, z, 9).lambdas == expected.lambdas
    shared = check_parameters(precompute_par(w, z))
    assert shared[0] is shared[1] and table[0] is table[1]


def test_bad_far_column_of_a_shared_row_names_its_first_box():
    # x = (0.5, 0.5, 3); y = (0.5, 0.5): rows 1 and 2 share one list, and
    # box (3, 1) is the first with x_i y_j >= 1 in row-major order
    plan = precompute_par(parse_word("<<<>>"), (0.5, 0.5, 3.0, 0.5, 0.5))
    with pytest.raises(DivergenceError) as err:
        check_parameters(plan)
    assert err.value.box == (3, 1) and err.value.kind == "HH"
    plan = precompute_par(parse_word("<<<>>"), (0.5, 0.5, 1.5, 0.5, 0.5))
    table = check_parameters(plan)
    assert [row[2] for row in table] == [[0.25, 0.25, 0.75]] * 2 and table[0] is table[1]


def test_symmetric_row_that_extends_a_shared_list_names_its_box():
    # x = y = (1/4, 2, 2), boxes i < j only: row 2 checks (1, 2) = 1/2 and
    # row 3 shares its list and extends it with (2, 3) = 4, the first bad box
    plan = precompute_par(*symmetrize(parse_word("<<<"), (0.25, 2.0, 2.0)))
    with pytest.raises(DivergenceError) as err:
        check_parameters(plan, lambda i, kind: None)
    assert err.value.box == (2, 3) and err.value.kind == "HH"
    plan = precompute_par(*symmetrize(parse_word("<<<"), (0.25, 0.25, 0.25)))
    table = check_parameters(plan, lambda i, kind: None)
    assert [row[2] for row in table] == [[0.0625, 0.0625]] * 3 and table[0] is table[2]


@pytest.mark.parametrize(
    "text, z", [("<'>", (math.inf, 1)), ("<>", (-0.5, 1))], ids=["non-finite", "negative"]
)
def test_bad_parameter_names_the_box(text, z):
    with pytest.raises(ValueError, match="finite and nonnegative") as err:
        schur_sample(parse_word(text), z, 0)
    assert "box (1, 1)" in str(err.value)


def test_validate_and_invariants_randomized():
    rnd = random.Random(0)
    for trial in range(400):
        w = random_word(rnd)
        z = tuple(0.6 for _ in w)
        s = schur_sample(w, z, trial)
        s.validate()


def test_traversal_orders_agree():
    rnd = random.Random(1)
    for trial in range(1000):
        w = random_word(rnd, max_len=10)
        plan = precompute_par(w, tuple(0.5 for _ in w))
        inputs = {
            (i, j): rnd.randrange(4)
            if plan.row_kinds[j - 1][i - 1] in ("HH", "VV")
            else rnd.randrange(2)
            for i, j in plan.boxes()
        }
        g1 = run_growth(plan, inputs, order="row_major")
        g2 = run_growth(plan, inputs, order="diagonal")
        assert g1 == g2
        # and the product sweep, on tuples or on bitsets, grows its boundary
        swept = grow_profile(plan, lambda j, stop: [inputs[(i, j)] for i in range(1, stop + 1)])
        assert swept == boundary_lambdas(plan, g1)


def test_seeded_traversals_bit_identical():
    # domino shuffling (the diagonal fill) on the sweep's own draws gives
    # the sweep's sample
    w = parse_word("(<'>)^4")
    z = (1,) * 8
    s = schur_sample(w, z, RandomSource(99, log_draws=True))
    plan = precompute_par(w, z)
    inputs = {box: value for box, (_, _, value) in zip(plan.boxes(), s.draw_log)}
    assert len(inputs) == len(s.draw_log) == sum(plan.pi)
    assert boundary_lambdas(plan, run_growth(plan, inputs, "diagonal")) == s.lambdas


def _sample_and_full_grid(word, z, src):
    """The sample of ``src``, which logs its draws, with its plan, its draws
    by box and the full grid grown from them in row-major order."""
    s = schur_sample(word, z, src)
    plan = precompute_par(word, z)
    drawn = dict(zip(plan.boxes(), (v for _, _, v in src.draw_log)))
    return s, plan, drawn, run_growth(plan, drawn)


def test_in_place_matches_full_grid():
    rnd = random.Random(2)
    for trial in range(300):
        w = random_word(rnd)
        z = q_volume_parameters(w, 0.5) if w else ()
        s, plan, _, grid = _sample_and_full_grid(w, z, RandomSource(1000 + trial, log_draws=True))
        assert s.lambdas == boundary_lambdas(plan, grid)


def test_in_place_aztec_100():
    w = parse_word("(<'>)^100")
    z = (1,) * 200
    s, plan, _, grid = _sample_and_full_grid(w, z, RandomSource(31337, log_draws=True))
    assert s.lambdas == boundary_lambdas(plan, grid)
    s.validate()


def test_entropy_ledger_counts_boxes():
    w = parse_word("<<'>><'<>'>")  # arbitrary mixed word
    z = tuple(0.4 for _ in w)
    src = RandomSource(17)
    s = schur_sample(w, z, src)
    plan = precompute_par(w, z)
    assert src.ledger.total == sum(plan.pi)
    assert s.stats.boxes == sum(plan.pi)


def test_reconstruct_inputs_roundtrip():
    rnd = random.Random(3)
    for trial in range(500):
        w = random_word(rnd, max_len=8)
        z = tuple(0.55 for _ in w)
        src = RandomSource(trial, log_draws=True)
        s = schur_sample(w, z, src)
        plan = precompute_par(w, z)
        inputs = reconstruct_inputs(s)
        drawn = dict(zip(plan.boxes(), (v for _, _, v in src.draw_log)))
        assert inputs == drawn


def test_reconstruct_rejects_inconsistent():
    w = parse_word("<>")
    s = schur_sample(w, (0.5, 0.5), 4)
    bad = s
    bad.lambdas = (EMPTY, (2, 1), EMPTY)  # not a single row: cannot interlace
    with pytest.raises(ValueError):
        reconstruct_inputs(bad)


def test_reconstruct_refuses_a_quiet_step_that_does_not_interlace():
    # box (2, 2) of <<>> has nu = lambda(2) == mu = lambda(3) but lam =
    # lambda(1) = (2,) not in nu: the inverse sweep takes it as quiet,
    # (kappa, g) = (lam, 0), and the box below then shrinks to g = -1, out
    # of range; that replay would regrow the corrupt sample
    s = schur_sample(parse_word("<<>>"), (0.5,) * 4, 1)
    s.lambdas = (EMPTY, (2,), (1,), (1,), EMPTY)
    plan = precompute_par(s.word, s.z)
    assert shrink_profile(plan, s.lambdas) == [[2, -1], [0, 0]]
    with pytest.raises(ValueError, match="does not interlace at step 2"):
        reconstruct_inputs(s)


def test_reconstruct_is_certified_by_a_forward_replay(monkeypatch):
    w = parse_word("<<>>")
    s = schur_sample(w, (0.9,) * 4, 3)
    assert reconstruct_inputs(s)[(1, 1)] > 0
    shrink_hh = rules.shrink_hh

    def off_by_one(lam, nu, mu):
        kap, g = shrink_hh(lam, nu, mu)
        return kap, g + 1

    monkeypatch.setitem(rules.SHRINK, "HH", off_by_one)
    with pytest.raises(rules.GrowthError, match="do not regrow"):
        reconstruct_inputs(s)


def test_zero_parameters_force_equal_slices():
    # z_2 = 0 forces lambda(1) = lambda(2)
    w = parse_word("<<>>")
    z = (0.5, 0.0, 0.5, 0.5)
    for seed in range(50):
        s = schur_sample(w, z, seed)
        assert s.lambdas[1] == s.lambdas[2]


def test_complexity_guard_aztec():
    w = parse_word("(<'>)^30")
    z = (1,) * 60
    s = schur_sample(w, z, 8)
    big_l = max(max((max(l, default=0) for l in s.lambdas), default=0),
                max((len(l) for l in s.lambdas), default=0))
    boxes = 30 * 31 // 2
    assert s.stats.work <= 4 * boxes * max(big_l, 1)


def _reference_stats(plan, grid):
    """SampleStats counted on the tuple grid: per box, the longer of the
    two partitions it grows from, plus one."""
    rows = [
        max(len(grid.get((i - 1, j), EMPTY)), len(grid.get((i, j - 1), EMPTY))) + 1
        for i, j in plan.boxes()
    ]
    return SampleStats(boxes=len(rows), work=sum(rows))


def _check_against_tuple_reference(word, z, seed):
    """The sample of an all-mixed word (the sweep holds Maya bitsets) equals
    the tuple reference grown from its draw log, with equal SampleStats, and
    reconstruct_inputs returns that log."""
    s, plan, drawn, grid = _sample_and_full_grid(word, z, RandomSource(seed, log_draws=True))
    assert s.lambdas == boundary_lambdas(plan, grid)
    assert s.stats == _reference_stats(plan, grid)
    assert reconstruct_inputs(s) == drawn
    return plan


@pytest.mark.parametrize("left, right", [(Rel.LV, Rel.RH), (Rel.LH, Rel.RV)])
def test_bitset_sweep_matches_the_tuple_reference(left, right):
    rnd = random.Random(left.value)
    values = (0, Fraction(1, 3), Fraction(5, 2), 0.7, 1, 3)
    for trial in range(200):
        word = tuple(rnd.choice((left, right)) for _ in range(rnd.randrange(1, 25)))
        z = tuple(rnd.choice(values) for _ in word)
        plan = _check_against_tuple_reference(word, z, trial)
        if word.count(left) and word.count(right):
            assert plan.bitsets
    plan = _check_against_tuple_reference((left,) * 9 + (right,) * 14, (1,) * 23, 5)
    assert plan.bitsets


def test_bitset_sweep_matches_the_tuple_reference_on_aztec_120():
    plan = _check_against_tuple_reference(parse_word("(<'>)^120"), (1,) * 240, 120)
    assert plan.row_kinds[0][0] == "VH" and plan.bitsets


@pytest.mark.parametrize("text", ["<'>><'<'>", "<>'>'<<>'"])
def test_bitset_sweep_on_an_anti_diagonal_with_a_gap(text):
    # pi = (3, 1, 1): anti-diagonal 4 holds the boxes (3, 1) and (1, 3) and
    # between them the point (2, 2), outside the shape, whose lane the
    # packed kernel fills with whatever its neighbours give
    for seed in range(30):
        plan = _check_against_tuple_reference(parse_word(text), (1, 0.5, 2, 1, 3, 1), seed)
    assert plan.pi == (3, 1, 1) and plan.bitsets


@pytest.mark.parametrize("text", ["><'", ">'<", ">'>'<<"])
def test_bitset_sweep_on_an_empty_shape(text):
    word = parse_word(text)
    plan = _check_against_tuple_reference(word, (1,) * len(word), 3)
    assert plan.pi == () and plan.bitsets


def test_shrink_profile_of_a_bitset_plan_gives_the_rows_of_the_draw_log():
    # the tuple inverse sweep also runs on an all-HV/VH plan, whose
    # reconstruct_inputs packs the anti-diagonals instead
    for text in ("(<'>)^9", "<'>><'<'>", "(<)^4(>')^3"):
        word = parse_word(text)
        src = RandomSource(len(text), log_draws=True)
        s = schur_sample(word, (1,) * len(word), src)
        plan = precompute_par(word, (1,) * len(word))
        drawn = iter(v for _, _, v in src.draw_log)
        assert plan.bitsets
        assert shrink_profile(plan, s.lambdas) == [[next(drawn) for _ in range(p)] for p in plan.pi]


def test_plans_with_geometric_boxes_hold_tuples():
    for text in ("<>", "<'>'", "<'<>", "<>'>", "(<<'>>')^3"):
        assert not precompute_par(parse_word(text), (1,) * len(parse_word(text))).bitsets


def test_aztec_200_sample_stats_are_pinned():
    s = schur_sample(parse_word("(<'>)^200"), (1,) * 400, 501)
    assert s.stats == SampleStats(boxes=20100, work=1185452)


def test_skipped_dead_boxes_keep_their_sample_stats():
    # x_1 = x_2 = x_3 = 0: the first columns draw 0, so each row starts with
    # dead boxes; the sweep skips them but counts each with work 1 (pinned
    # before the skip)
    z = (0, 0, 0, 0.5, 0.7, 0.9, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2)
    stats = [schur_sample(parse_word("(<)^6(>)^6"), z, seed).stats for seed in range(8)]
    assert [(s.boxes, s.work) for s in stats] == [
        (36, 41), (36, 46), (36, 54), (36, 50), (36, 54), (36, 48), (36, 45), (36, 52)
    ]


def test_mixed_words_keep_their_samples_and_draw_logs():
    """Samples and draw logs of a geometric word with a parameter > 1 and
    of a word with all four box kinds, for seeds 0-99, pinned by digest."""
    digest = hashlib.sha256()
    for text, z in [
        ("(<)^2(>)^2", (2.0, 4.0, 0.125, 0.0625)),
        ("<'<>>'<>", (0.5, 0.25, 0.3, 0.7, 0.2, 0.9)),
    ]:
        for seed in range(100):
            src = RandomSource(seed, log_draws=True)
            s = schur_sample(parse_word(text), z, src)
            digest.update(json.dumps([s.lambdas, src.draw_log]).encode())
    assert digest.hexdigest() == (
        "654faa81a903f9241d92eb2718b2192a62db94074a280695b8bd231e457d6947"
    )


def _per_box_draws(plan, table, src):
    """The draws of every row, one RandomSource call per box."""
    rows = []
    for j, row_len in enumerate(plan.pi, start=1):
        row = []
        for xi, kind in zip(table[j - 1][2][:row_len], plan.row_kinds[j - 1]):
            row.append(src.geometric(xi) if kind in ("HH", "VV") else src.bernoulli(xi / (1.0 + xi)))
        rows.append(row)
    return rows


def _zero_once(src, at, fired):
    """Make call ``at`` of src's generator return 0.0 in place of its value,
    and append to ``fired`` when it does."""
    random_ = src._rng.random
    calls = iter(range(10**9))

    def patched():
        u = random_()
        if next(calls) != at:
            return u
        fired.append(at)
        return 0.0

    src._rng.random = patched


@pytest.mark.parametrize("zero_at", [None, 0, 1, 4])
def test_row_draw_equals_one_call_per_box(zero_at):
    """A row draw gives the values, ledger, draw log and generator state of
    one bernoulli or geometric call per box, with parameters 0 and 1 drawn
    without entropy and a uniform of 0.0 drawn again."""
    rnd = random.Random(zero_at)
    values = (0, 0.0, -0.0, 0.3, 1, 2.5, Fraction(1, 7), 1e300)
    fired = []
    for trial in range(60):
        word = random_word(rnd, max_len=12)
        z = [rnd.choice(values) for _ in word]
        plan = precompute_par(word, z)
        try:
            table = check_parameters(plan)
        except ValueError:  # a geometric box with a parameter >= 1
            continue
        one, row = RandomSource(trial, log_draws=True), RandomSource(trial, log_draws=True)
        if zero_at is not None:
            _zero_once(one, zero_at, [])
            _zero_once(row, zero_at, fired)
        expected = _per_box_draws(plan, table, one)
        draw = row.row_drawer()
        assert [draw(table[j - 1], p) for j, p in enumerate(plan.pi, start=1)] == expected
        assert row.ledger == one.ledger
        assert repr(row.draw_log) == repr(one.draw_log)  # -0.0 logged as -0.0
        assert row._rng.getstate() == one._rng.getstate()
    assert zero_at is None or fired  # the 0.0 was drawn at least once

import hashlib
import json
import math
import random
import re
import time
from collections import Counter
from itertools import product

import pytest

from schursample.oracle import hook_length_f
from schursample.partitions import EMPTY
from schursample.rng import RandomSource
from schursample.rules import grow_hh
from schursample.sampler import DivergenceError
from schursample.unbounded import (
    K_BRACKET_REL,
    ParamSeq,
    PyramidalParameters,
    PyramidalSample,
    PyramidalSampler,
    WordConvention,
    cantor_pair,
    cantor_unpair,
    grow_pyramidal,
    mixed_plancherel_sample,
    plancherel_sample,
    rsk_shape,
    truncation_word,
    unbounded_schur_sample,
)
from schursample.words import MAX_WORD_LENGTH, Rel, format_word, precompute_par

from grid_reference import boundary_lambdas, pyramid_rows, run_growth, truncation_params
from table_reference import ReferenceSampler


def test_cantor_pairing():
    assert [cantor_pair(*ij) for ij in [(0, 0), (1, 0), (0, 1), (2, 0)]] == [0, 1, 2, 3]
    assert cantor_pair(0, 2) == 5
    for k in range(10_000):
        assert cantor_pair(*cantor_unpair(k)) == k
    for i in range(101):
        for j in range(101):
            assert cantor_unpair(cantor_pair(i, j)) == (i, j)


def test_truncation_words_of_both_conventions():
    words = {
        "pyramid": ["<'>", "<<'>>'", "<'<<'>>'>"],
        "plane-partitions": ["<>", "<<>>", "<<<>>>"],
    }
    for conv in (WordConvention.pyramid(), WordConvention.plane_partitions()):
        got = [format_word(truncation_word(conv, m)) for m in (1, 2, 3)]
        assert got == words[conv.name]


def test_box_kinds_and_signs_of_both_conventions():
    # box (i, j) for i, j < 4, rows i
    pyramid = WordConvention.pyramid()
    assert [[pyramid.box_kind(i, j) for j in range(4)] for i in range(4)] == [
        ["VH", "VV", "VH", "VV"],
        ["HH", "HV", "HH", "HV"],
        ["VH", "VV", "VH", "VV"],
        ["HH", "HV", "HH", "HV"],
    ]
    assert [[pyramid.epsilon(i, j) for j in range(4)] for i in range(4)] == [
        [1, -1, 1, -1],
        [-1, 1, -1, 1],
        [1, -1, 1, -1],
        [-1, 1, -1, 1],
    ]
    plane = WordConvention.plane_partitions()
    assert {plane.box_kind(i, j) for i in range(4) for j in range(4)} == {"HH"}
    assert {plane.epsilon(i, j) for i in range(4) for j in range(4)} == {-1}


def test_truncation_index_all_zero():
    params = PyramidalParameters(ParamSeq.finite([]), ParamSeq.finite([]))
    sampler = PyramidalSampler(params, WordConvention.plane_partitions())
    src = RandomSource(5)
    assert all(sampler.sample_truncation_index(src) is None for _ in range(100))


def test_truncation_index_single_box():
    p = 0.35
    # a_0 b_0 = 0.35 with a geometric box: c = 0.35
    params = PyramidalParameters(ParamSeq.finite([0.5]), ParamSeq.finite([0.7]))
    sampler = PyramidalSampler(params, WordConvention.plane_partitions())
    src = RandomSource(31)
    n = 50_000
    hits = sum(1 for _ in range(n) if sampler.sample_truncation_index(src) == 0)
    assert abs(hits / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def certified_empty_probability(q: float) -> float:
    # prod_{i,j >= 0} (1 - q^(i+j+1)) = prod_n (1 - q^n)^n to double precision
    return math.exp(sum(n * math.log1p(-(q**n)) for n in range(1, 400)))


def test_empty_probability_q03():
    q = 0.3
    params = PyramidalParameters.q_volume(q)
    sampler = PyramidalSampler(params, WordConvention.plane_partitions())
    n = 30_000
    src = RandomSource(2718)
    empties = 0
    for k in range(n):
        s = sampler.sample(src.child(k))
        if s.truncation_index is None:
            assert s.lambdas == {}
            empties += 1
        else:
            assert s.lam(0) != EMPTY  # the conditioned box forces content
    p = certified_empty_probability(q)
    assert abs(empties / n - p) < 3 * math.sqrt(p * (1 - p) / n)


class BoxByBoxReference:
    """The Cantor-order search the anti-diagonal table replaced: a prefix
    table of log(1 - c) extended one box at a time, its total certified
    with the square tail bound over i, j < (t+1)//2."""

    def __init__(self, params, conv):
        self.params, self.conv = params, conv
        self.prefix = [0.0]
        a, b = params.a, params.b
        t = 4
        while True:
            kmax = cantor_pair(t, 0)
            self.extend(kmax)
            m = (t + 1) // 2
            s_up = a.tail(m) * b.total() + a.total() * b.tail(m)
            cmax = max(a[m] * b[0], a[0] * b[m])
            if cmax < 1:
                bracket = s_up / (1 - cmax)
                acc = self.prefix[kmax]
                if bracket <= 1e-15 * max(abs(acc), 1e-6):
                    self.log_all = acc - bracket / 2
                    return
            t *= 2

    def extend(self, upto):
        while len(self.prefix) <= upto:
            i, j = cantor_unpair(len(self.prefix) - 1)
            c = self.params.c(i, j, self.conv.epsilon(i, j))
            self.prefix.append(self.prefix[-1] + math.log1p(-c))

    def truncation_index(self, src):
        log_v = math.log(src.uniform())
        if log_v <= self.log_all:
            return None
        target = self.log_all - log_v
        hi = len(self.prefix) - 1
        while self.prefix[hi] > target:
            hi = hi * 2 + 16
            self.extend(hi)
        lo = 0
        while lo < hi:
            mid = (lo + hi) // 2
            if self.prefix[mid + 1] <= target:
                hi = mid
            else:
                lo = mid + 1
        return lo


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_truncation_index_matches_box_by_box_search(q):
    params = PyramidalParameters.q_volume(q)
    for conv in (WordConvention.plane_partitions(), WordConvention.pyramid()):
        sampler = PyramidalSampler(params, conv)
        ref = BoxByBoxReference(params, conv)
        src, src_ref = RandomSource(404), RandomSource(404)
        for _ in range(3000):
            assert sampler.sample_truncation_index(src) == ref.truncation_index(src_ref)


def test_log_p_empty_plane_partitions_accuracy():
    # log prod_{i,j >= 0} (1 - q^(i+j+1)) = sum_n n log(1 - q^n)
    q = 0.9
    exact = math.fsum(n * math.log1p(-(q**n)) for n in range(1, 2000))
    sampler = PyramidalSampler(PyramidalParameters.q_volume(q), WordConvention.plane_partitions())
    assert abs(sampler.log_p_empty() - exact) <= 1e-14 * abs(exact)


@pytest.mark.parametrize("q", [0.99997, 0.99998, 0.99999, 0.999999])
def test_non_converging_q_is_refused_before_the_table(q):
    # filling the table to its cap of 2^20 + 1 anti-diagonals takes seconds
    for conv in (WordConvention.plane_partitions(), WordConvention.pyramid()):
        sampler = PyramidalSampler(PyramidalParameters.q_volume(q), conv)
        t0 = time.perf_counter()
        with pytest.raises(ArithmeticError, match="tail bound fails to converge"):
            sampler.log_p_empty()
        assert time.perf_counter() - t0 < 0.5
        assert sampler._diag is None


def test_a_q_near_one_that_converges_is_not_refused():
    sampler = PyramidalSampler(PyramidalParameters.q_volume(0.999), WordConvention.pyramid())
    assert -1.1e6 < sampler.log_p_empty() < -1.0e6


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
def test_closed_mass_bounds_the_whole_mass(q):
    # the refusal compares the tail bound at the cap with this bound on the
    # whole mass, so a q whose table converges is never refused
    for conv in (WordConvention.plane_partitions(), WordConvention.pyramid()):
        sampler = PyramidalSampler(PyramidalParameters.q_volume(q), conv)
        mass = -sampler.log_p_empty()
        for terms in (0, 1, math.ceil(1 / (1 - q)), 4 * math.ceil(1 / (1 - q))):
            assert mass <= sampler._closed_mass(terms) < 2 * mass / (1 - q)
        assert sampler._closed_mass(math.ceil(1 / (1 - q))) < 2 * mass


ALL_CONVENTIONS = [
    WordConvention(left, right)
    for left in product((Rel.LH, Rel.LV), repeat=2)
    for right in product((Rel.RH, Rel.RV), repeat=2)
]


def _table(sampler):
    """(_diag, log P(empty)), or the type and message of the refusal."""
    try:
        log_all = sampler.log_p_empty()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return sampler._diag, log_all


def test_closed_table_equals_the_reference_bit_for_bit():
    # the plain-float closures against the ParamSeq formulas they replaced,
    # on every convention: ratio 0, coeff 0, and a_0 b_0 = 1.5 >= 1, which
    # the pyramid's box (0, 0) takes at eps = +1 (and the others refuse)
    assert "_closed_sums" in vars(PyramidalSampler)  # the reference overrides it
    tables = 0
    for r in (0.0, 0.05, 0.5, 0.9, 0.97, 0.99):
        for ca, cb in ((math.sqrt(r), math.sqrt(r)), (0.5, 0.5), (0.0, 1.0), (3.0, 0.5)):
            params = PyramidalParameters(ParamSeq.geometric(ca, r), ParamSeq.geometric(cb, r))
            for conv in ALL_CONVENTIONS:
                got = _table(PyramidalSampler(params, conv))
                assert got == _table(ReferenceSampler(params, conv))
                tables += isinstance(got[1], float)
    assert tables == 318
    params = PyramidalParameters(ParamSeq.geometric(3.0, 0.5), ParamSeq.geometric(0.5, 0.5))
    assert isinstance(_table(PyramidalSampler(params, WordConvention.pyramid()))[1], float)


def test_closed_table_is_refused_from_the_same_q():
    # 0.9999642124211632 is the largest q-volume q that the refusal lets
    # through; the refusal reads only the tail bound at the cap and
    # _closed_mass, so equal bounds there refuse the same q
    below = 0.9999642124211632
    above = math.nextafter(below, 1)
    cap = (1 << 20) + 1
    for q in (0.999, 0.9999, below, above, 0.99997, 0.999999):
        for conv in (WordConvention.plane_partitions(), WordConvention.pyramid()):
            params = PyramidalParameters.q_volume(q)
            got = PyramidalSampler(params, conv)._closed_sums()[1](cap)
            assert got == ReferenceSampler(params, conv)._closed_sums()[1](cap)
            mass = PyramidalSampler(params, conv)._closed_mass(min(math.ceil(1 / (1 - q)), cap >> 4))
            assert (got > K_BRACKET_REL * mass) == (q > below)
    for cls in (PyramidalSampler, ReferenceSampler):
        with pytest.raises(ArithmeticError, match="tail bound fails to converge"):
            cls(PyramidalParameters.q_volume(above), WordConvention.pyramid()).log_p_empty()


class FixedUniform(RandomSource):
    def __init__(self, u):
        super().__init__(0)
        self.u = u

    def uniform(self):
        return self.u


def test_truncation_index_in_tail_bracket_stays_in_table():
    params = PyramidalParameters.q_volume(0.9)
    for conv in (WordConvention.plane_partitions(), WordConvention.pyramid()):
        sampler = PyramidalSampler(params, conv)
        for u in (1 - 2.0**-53, 1 - 2.0**-40):
            k = sampler.sample_truncation_index(FixedUniform(u))
            assert k is not None
            assert sum(cantor_unpair(k)) < len(sampler._diag) - 1


def test_divergent_parameters_name_the_box():
    cases = [
        (ParamSeq.finite([0.5, 3.0]), ParamSeq.finite([1.0]), WordConvention.plane_partitions()),
        (ParamSeq.geometric(2.0, 0.5), ParamSeq.geometric(1.0, 0.5), WordConvention.pyramid()),
    ]
    for a, b, conv in cases:
        sampler = PyramidalSampler(PyramidalParameters(a, b), conv)
        with pytest.raises(DivergenceError) as err:
            sampler.sample(1)
        assert err.value.box == (1, 0)
        assert err.value.kind == "HH"


def growth_diagram_shape(letter_rows, nrows):
    """Fomin's growth diagram of a 0/1 array with one marked row per
    column, filled with the HH rule; its final shape is the RSK shape."""
    profile = [EMPTY] * (nrows + 1)
    for letter in letter_rows:
        prev_diag = EMPTY
        for r in range(1, nrows + 1):
            above = profile[r]
            nu = grow_hh(profile[r - 1], above, prev_diag, 1 if letter == r - 1 else 0)
            profile[r] = nu
            prev_diag = above
    return profile[nrows]


def test_rsk_shape_matches_growth_diagram():
    rnd = random.Random(2024)
    for _ in range(500):
        n = rnd.randrange(41)
        perm = rnd.sample(range(n), n)
        assert rsk_shape(perm) == growth_diagram_shape(perm, n)
    for _ in range(500):
        rows = rnd.randint(1, 5)
        word = [rnd.randrange(rows) for _ in range(rnd.randrange(40))]
        assert rsk_shape(word) == growth_diagram_shape(word, rows)


def ref_pyramidal_sample(sampler, src):
    """The sampling loop the anti-diagonal walk replaced: the conditioned
    box at K, then every box before K in Cantor order, each found by
    cantor_unpair.  Returns K and the nonempty slices."""
    k = sampler.sample_truncation_index(src)
    if k is None:
        return None, {}
    i0, j0 = cantor_unpair(k)
    inputs = {}
    eps0 = sampler.conv.epsilon(i0, j0)
    c0 = sampler.params.c(i0, j0, eps0)
    inputs[(i0, j0)] = 1 if eps0 == 1 else 1 + src.geometric(c0)
    for kk in range(k):
        i, j = cantor_unpair(kk)
        eps = sampler.conv.epsilon(i, j)
        c = sampler.params.c(i, j, eps)
        inputs[(i, j)] = src.bernoulli(c) if eps == 1 else src.geometric(c)
    return k, grow_pyramidal(sampler.conv, pyramid_rows(inputs, i0 + j0 + 1), i0 + j0 + 1)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_sample_matches_the_cantor_order_loop(q):
    params = PyramidalParameters.q_volume(q)
    for conv in (WordConvention.plane_partitions(), WordConvention.pyramid()):
        sampler = PyramidalSampler(params, conv)
        for seed in range(40):
            src, src_ref = RandomSource(seed, log_draws=True), RandomSource(seed, log_draws=True)
            s = sampler.sample(src)
            assert (s.truncation_index, s.lambdas) == ref_pyramidal_sample(sampler, src_ref)
            assert src.draw_log == src_ref.draw_log


def test_pyramidal_samples_and_draw_logs_are_pinned():
    """K, the slices and the draw log of 240 samples, pinned by digest
    before the sampler drew one prepared row per anti-diagonal."""
    out = []
    for q in (0.5, 0.9, 0.95):
        params = PyramidalParameters.q_volume(q)
        for conv in (WordConvention.plane_partitions(), WordConvention.pyramid()):
            for seed in range(40):
                src = RandomSource(seed, log_draws=True)
                s = unbounded_schur_sample(params, conv, src)
                lambdas = sorted((k, list(lam)) for k, lam in s.lambdas.items())
                out.append([s.truncation_index, lambdas, src.draw_log])
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == (
        "bf48a8c4589a67d0ef822a4a1a48aa45dcd4a0470b2b98cd191dfcd640b06936"
    )


def test_validate_refuses_slices_that_do_not_interlace():
    params = PyramidalParameters.q_volume(0.5)
    conv = WordConvention.plane_partitions()
    # lambda(0) > lambda(1) needs a horizontal strip (1)/(3), which fails
    bad = PyramidalSample({0: (1,), 1: (3,)}, params, conv, None, 0)
    with pytest.raises(ValueError, match=r"between lambda\(0\) and lambda\(1\)"):
        bad.validate()
    # lambda(-1) <' lambda(0) in the pyramid needs a vertical strip (3)/(1);
    # the plane-partition relation < takes the horizontal strip
    bad = PyramidalSample({-1: (1,), 0: (3,)}, params, WordConvention.pyramid(), None, 0)
    with pytest.raises(ValueError, match=r"between lambda\(-1\) and lambda\(0\)"):
        bad.validate()
    PyramidalSample({-1: (1,), 0: (3,)}, params, conv, None, 0).validate()


def test_outputs_interlace():
    params = PyramidalParameters.q_volume(0.5)
    for conv in (WordConvention.plane_partitions(), WordConvention.pyramid()):
        src = RandomSource(99)
        for k in range(500):
            s = unbounded_schur_sample(params, conv, src.child(k))
            s.validate()


def test_coupling_with_finite_sampler():
    rnd = random.Random(12)
    params = PyramidalParameters.q_volume(0.5)
    for conv in (WordConvention.plane_partitions(), WordConvention.pyramid()):
        word = truncation_word(conv, 4)
        z = truncation_params(params, 4)
        plan = precompute_par(word, z)
        assert plan.pi == (4, 4, 4, 4)
        for _ in range(500):
            inputs = {}
            for i in range(4):
                for j in range(4):
                    kind = conv.box_kind(i, j)
                    inputs[(i, j)] = (
                        rnd.randrange(2) if kind in ("HV", "VH") else rnd.randrange(4)
                    )
            lam_inf = grow_pyramidal(conv, pyramid_rows(inputs, 4), 4)
            fin_inputs = {(u, v): inputs[(4 - u, 4 - v)] for u, v in plan.boxes()}
            grid = run_growth(plan, fin_inputs)
            lam_fin = boundary_lambdas(plan, grid)
            for k in range(9):
                assert lam_fin[k] == lam_inf.get(k - 4, EMPTY)


def test_grow_pyramidal_matches_full_grid_on_sparse_inputs():
    rnd = random.Random(13)
    params = PyramidalParameters.q_volume(0.5)
    for conv in (WordConvention.plane_partitions(), WordConvention.pyramid()):
        for m in range(1, 9):
            plan = precompute_par(truncation_word(conv, m), truncation_params(params, m))
            for _ in range(40):
                inputs = {}
                for i in range(m):
                    for j in range(m):
                        if rnd.random() < 0.5:
                            continue  # a missing box takes input 0
                        kind = conv.box_kind(i, j)
                        inputs[(i, j)] = (
                            rnd.randrange(2) if kind in ("HV", "VH") else rnd.randrange(4)
                        )
                lam_inf = grow_pyramidal(conv, pyramid_rows(inputs, m), m)
                fin_inputs = {(u, v): inputs.get((m - u, m - v), 0) for u, v in plan.boxes()}
                lam_fin = boundary_lambdas(plan, run_growth(plan, fin_inputs))
                assert lam_inf == {k - m: lam for k, lam in enumerate(lam_fin) if lam}


def test_plancherel_empty_and_single():
    theta = 1.0
    n = 50_000
    src = RandomSource(4)
    counts = Counter(plancherel_sample(theta, src.child(k)) for k in range(n))
    p_empty = math.exp(-theta)
    p_one = math.exp(-theta) * theta
    assert abs(counts[EMPTY] / n - p_empty) < 4 * math.sqrt(p_empty / n)
    assert abs(counts[(1,)] / n - p_one) < 4 * math.sqrt(p_one / n)


def test_plancherel_mean_size_theta4():
    theta = 4.0
    n = 30_000
    src = RandomSource(8)
    total = sum(sum(plancherel_sample(theta, src.child(k))) for k in range(n))
    mean = total / n
    assert abs(mean - theta) < 3 * math.sqrt(theta / n)


def test_plancherel_exact_masses_weight2():
    # P(lam) = e^-t t^n (f/n!)^2: at n=2 both shapes carry t^2 e^-t / 4
    theta, n = 1.0, 80_000
    src = RandomSource(15)
    counts = Counter(plancherel_sample(theta, src.child(k)) for k in range(n))
    for lam in ((2,), (1, 1)):
        p = math.exp(-theta) * theta**2 * (hook_length_f(lam) / 2) ** 2
        assert abs(counts[lam] / n - p) < 4 * math.sqrt(p / n)


def test_mixed_plancherel():
    src = RandomSource(5)
    assert mixed_plancherel_sample(1.0, [0.0, 0.0], src) == EMPTY
    n = 30_000
    a, c = 0.8, 1.5
    sizes = []
    for k in range(n):
        lam = mixed_plancherel_sample(a, [c], RandomSource(1000 + k))
        assert len(lam) <= 1
        sizes.append(sum(lam))
    mean = sum(sizes) / n
    assert abs(mean - a * c) < 4 * math.sqrt(a * c / n)
    p0 = sum(1 for v in sizes if v == 0) / n
    assert abs(p0 - math.exp(-a * c)) < 4 * math.sqrt(p0 * (1 - p0) / n)


def test_mixed_plancherel_empty_probability_two_lines():
    a, bs = 1.0, [0.5, 0.3]
    n = 20_000
    src = RandomSource(64)
    empties = sum(1 for k in range(n) if mixed_plancherel_sample(a, bs, src.child(k)) == EMPTY)
    p = math.exp(-a * sum(bs))
    assert abs(empties / n - p) < 4 * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("theta", [math.inf, math.nan])
def test_plancherel_refuses_a_non_finite_theta(theta):
    with pytest.raises(ValueError, match="theta must be positive and finite"):
        plancherel_sample(theta, 0)


@pytest.mark.parametrize("a,bs", [(1.0, [math.nan]), (math.inf, [1.0])])
def test_mixed_plancherel_refuses_non_finite_intensities(a, bs):
    with pytest.raises(ValueError, match="finite"):
        mixed_plancherel_sample(a, bs, 0)


def _refuse_draws(monkeypatch):
    def no_draw(self):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(RandomSource, "uniform", no_draw)


@pytest.mark.parametrize("theta", [1e300, MAX_WORD_LENGTH * 2.0])
def test_plancherel_refuses_a_theta_past_the_longest_word_before_any_draw(
    monkeypatch, theta
):
    # Poisson(1e300) would split into 10^299 draws, and its permutation
    # would have about theta entries
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match=rf"theta = {re.escape(repr(theta))} exceeds {MAX_WORD_LENGTH}"):
        plancherel_sample(theta, 0)


@pytest.mark.parametrize("a,bs", [(1e300, [1.0]), (1e3, [600.0, 400.5]), (1.0, [1e308, 1e308])])
def test_mixed_plancherel_refuses_a_mean_past_the_longest_word_before_any_draw(
    monkeypatch, a, bs
):
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match=rf"a \* sum\(b\) = .* exceeds {MAX_WORD_LENGTH}"):
        mixed_plancherel_sample(a, bs, 0)


def test_param_seq_refuses_non_finite_values():
    # construction only: a sampler over such a sequence never returns
    with pytest.raises(ValueError, match="finite"):
        ParamSeq.finite([math.nan])
    with pytest.raises(ValueError, match="finite"):
        ParamSeq.geometric(math.nan, 0.5)


def test_cantor_unpair_is_exact_at_every_anti_diagonal_edge():
    # k = T(t) - 1, T(t) and T(t) + t with T(t) = t(t + 1)/2: the last box of
    # anti-diagonal t - 1 and the first and last boxes of anti-diagonal t
    for t in [1, 2, 3, 10**6, 2**52 - 1, 2**53, 2**53 + 1, 10**15 + 7, 10**20, 10**20 + 1]:
        T = t * (t + 1) // 2
        assert cantor_unpair(T - 1) == (0, t - 1)
        assert cantor_unpair(T) == (t, 0)
        assert cantor_unpair(T + t) == (0, t)

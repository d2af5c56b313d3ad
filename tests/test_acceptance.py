"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from schursample import oracle
from schursample.oracle import (
    chi_square_pvalue,
    chi_square_statistic,
    enumerate_support,
    enumerate_symmetric_support,
    hook_length_f,
    slice_cap,
    sum_weights_dp,
    tv_distance,
    verify_bijections,
    word_has_finite_support,
)
from schursample.partitions import EMPTY, conjugate, partitions_up_to
from schursample.rng import RandomSource
from schursample.sampler import grow_profile, reconstruct_inputs, schur_sample
from schursample.symmetric import reconstruct_symmetric_inputs, symmetric_schur_sample
from schursample.unbounded import (
    PyramidalParameters,
    PyramidalSampler,
    WordConvention,
    grow_pyramidal,
    plancherel_sample,
    truncation_word,
)
from schursample.words import Rel, parse_word, precompute_par, q_volume_parameters
from schursample.zfun import z_finite, z_symmetric

from grid_reference import boundary_lambdas, pyramid_rows, run_growth, truncation_params


class Budget:
    def __init__(self, name, seconds):
        self.name, self.seconds = name, seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        self.elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and self.elapsed < self.seconds else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({self.elapsed:.2f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.name} exceeded time budget: {self.elapsed:.2f}s"
            )
        return False


def all_words(max_len):
    for n in range(1, max_len + 1):
        yield from itertools.product(Rel, repeat=n)


Z_CYCLE = (
    Fraction(1, 2), Fraction(1, 3), Fraction(2, 5),
    Fraction(1, 4), Fraction(3, 7), Fraction(1, 5),
)


def test_criterion_1_aztec_enumeration():
    with Budget("1 (Aztec enumeration)", 1.0):
        for n, count in ((1, 2), (2, 8), (3, 64)):
            w = parse_word(f"(<'>)^{n}")
            sup = enumerate_support(w, (Fraction(1),) * (2 * n), cap=slice_cap(w))
            assert sup.complete
            assert len(sup.entries) == count == 2 ** (n * (n + 1) // 2)


def test_criterion_2_exact_sampling_distribution():
    with Budget("2a (Aztec 2 uniform TV)", 30.0):
        w = parse_word("(<'>)^2")
        z = (1, 1, 1, 1)
        sup = enumerate_support(w, (Fraction(1),) * 4, cap=slice_cap(w))
        src = RandomSource(20240)
        counts = Counter(schur_sample(w, z, src.child(k)).lambdas for k in range(100_000))
        tv = tv_distance(counts, sup)
        print(f"  TV(Aztec2 empirical, uniform-8) = {tv:.4f}")
        assert tv <= 0.02
    with Budget("2b (boxed plane partition TV)", 30.0):
        q = Fraction(1, 2)
        w = parse_word("(<)^2(>)^2")
        z = q_volume_parameters(w, q)
        sup = enumerate_support(w, z, cap=12, refine_tail_to=44)
        assert sup.tail_bound < Fraction(1, 1000) * z_finite(w, z).exact
        zf = (2.0, 4.0, 0.125, 0.0625)
        src = RandomSource(515)
        counts = Counter(schur_sample(w, zf, src.child(k)).lambdas for k in range(100_000))
        tv = tv_distance(counts, sup)
        print(f"  TV(boxed PP empirical, truncated law) = {tv:.4f}")
        assert tv <= 0.02


def test_criterion_3_partition_function_identity():
    with Budget("3 (partition function vs brute force)", 60.0):
        exact_checked = bracketed = 0
        for w in all_words(6):
            z = Z_CYCLE[: len(w)]
            zv = z_finite(w, z)
            assert zv.finite
            if word_has_finite_support(w):
                total = sum_weights_dp(w, z, cap=slice_cap(w))
                assert total == zv.exact, f"exact mismatch for {w}"
                exact_checked += 1
            else:
                cap = 8
                total = sum_weights_dp(w, z, cap=cap)
                tail = oracle.escape_mass_bound(w, z, cap)
                assert total <= zv.exact <= total + tail, f"bracket fails for {w}"
                bracketed += 1
        print(f"  exact: {exact_checked} words, bracketed: {bracketed} words")
        assert exact_checked + bracketed == sum(4**k for k in range(1, 7))


def test_criterion_4_bijection_certification():
    with Budget("4 (bijection certification)", 120.0):
        report = verify_bijections(max_weight=6)
        print(f"  checked {report.checked} inputs, {report.hit_targets} targets")
        assert report.passed, report.counterexamples[:3]


def test_criterion_5_entropy_optimality():
    with Budget("5 (entropy round-trip)", 60.0):
        rnd = random.Random(99)
        for trial in range(10_000):
            w = tuple(rnd.choice(list(Rel)) for _ in range(rnd.randrange(9)))
            z = tuple(0.55 for _ in w)
            src = RandomSource(trial, log_draws=True)
            sample = schur_sample(w, z, src)
            plan = precompute_par(w, z)
            inputs = reconstruct_inputs(sample)
            log_by_box = dict(zip(plan.boxes(), (v for _, _, v in src.draw_log)))
            assert inputs == log_by_box


def _logged_values(src):
    return [value for _, _, value in src.draw_log]


def test_criterion_5b_reconstruction_at_scale():
    with Budget("5b (reconstruction at scale)", 15.0):
        rnd = random.Random(5)
        words = [parse_word("(<'>)^200"), parse_word("(<)^300(>)^300")]
        words += [tuple(rnd.choice(list(Rel)) for _ in range(rnd.randrange(1, 25)))
                  for _ in range(300)]
        for k, w in enumerate(words):
            z = (1,) * 400 if k == 0 else q_volume_parameters(w, 0.99 if k == 1 else 0.7)
            src = RandomSource(501 + k, log_draws=True)
            sample = schur_sample(w, z, src)
            inputs = reconstruct_inputs(sample)
            boxes = list(precompute_par(w, z).boxes())
            assert list(inputs) == boxes
            assert list(inputs.values()) == _logged_values(src)
        for text in ("<'<><'", "(<)^60"):
            w = parse_word(text)
            for mode in ("free", "even_rows", "even_columns"):
                for seed in range(100 if len(w) < 10 else 1):
                    src = RandomSource(seed, log_draws=True)
                    sample = symmetric_schur_sample(w, (0.9,) * len(w), 0.8, mode, src)
                    assert reconstruct_symmetric_inputs(sample) == _logged_values(src)
        bad = schur_sample(parse_word("<>"), (0.5, 0.5), 4)
        bad.lambdas = (EMPTY, (2, 1), EMPTY)
        with pytest.raises(ValueError):
            reconstruct_inputs(bad)
        # cost: Aztec 200 reconstruction within 2.5x its forward sample, in
        # CPU time of this process, which other processes' load moves less
        w, z = words[0], (1,) * 400
        sample_s = reconstruct_s = math.inf
        for _ in range(3):
            t0 = time.process_time()
            sample = schur_sample(w, z, 501)
            t1 = time.process_time()
            reconstruct_inputs(sample)
            t2 = time.process_time()
            sample_s, reconstruct_s = min(sample_s, t1 - t0), min(reconstruct_s, t2 - t1)
        print(f"  Aztec 200: sample {sample_s:.3f}s, reconstruct {reconstruct_s:.3f}s")
        assert reconstruct_s <= 2.5 * sample_s


def test_criterion_6_traversal_invariance():
    with Budget("6 (traversal invariance)", 30.0):
        rnd = random.Random(123)
        for _ in range(1000):
            w = tuple(rnd.choice(list(Rel)) for _ in range(rnd.randrange(11)))
            plan = precompute_par(w, tuple(0.5 for _ in w))
            inputs = {
                (i, j): rnd.randrange(4)
                if plan.row_kinds[j - 1][i - 1] in ("HH", "VV")
                else rnd.randrange(2)
                for i, j in plan.boxes()
            }
            grid = run_growth(plan, inputs, "row_major")
            assert grid == run_growth(plan, inputs, "diagonal")
            # the product sweep (tuples or bitsets) grows the same boundary
            assert grow_profile(
                plan, lambda j, stop: [inputs[(i, j)] for i in range(1, stop + 1)]
            ) == boundary_lambdas(plan, grid)


def test_criterion_7_symmetric_variants():
    with Budget("7a (palindrome/evenness, 1e5 runs)", 120.0):
        w = parse_word("<<'")
        z = (0.45, 0.3)
        modes = ("free", "even_rows", "even_columns")
        src = RandomSource(7)
        for k in range(100_000):
            s = symmetric_schur_sample(w, z, 0.5, modes[k % 3], src.child(k))
            n = len(w)
            assert all(s.lambdas[i] == s.lambdas[2 * n - i] for i in range(n))
            lam = s.free_partition
            if k % 3 == 1:
                assert all(v % 2 == 0 for v in lam)
            elif k % 3 == 2:
                assert all(v % 2 == 0 for v in conjugate(lam))
    with Budget("7b (symmetric Z brackets, words <= 4)", 30.0):
        t = Fraction(1, 2)
        n_checked = 0
        for w in all_words(4):
            z = Z_CYCLE[: len(w)]
            for mode in ("free", "even_rows", "even_columns"):
                zv = z_symmetric(w, z, t, mode)
                sup = enumerate_symmetric_support(w, z, t, cap=10, mode=mode)
                assert sup.total <= zv.exact <= sup.total + sup.tail_bound, (w, mode)
                n_checked += 1
        print(f"  {n_checked} (word, mode) pairs bracketed")


def test_criterion_7_symmetric_brackets_are_not_vacuous():
    # the upper side of a 7b bracket tests something only if its tail bound
    # is well below Z itself
    with Budget("7c (symmetric tail bounds below Z/3, words <= 4)", 30.0):
        t = Fraction(1, 2)
        worst = Fraction(0)
        for w in all_words(4):
            z = Z_CYCLE[: len(w)]
            for mode in ("free", "even_rows", "even_columns"):
                ratio = (
                    enumerate_symmetric_support(w, z, t, cap=10, mode=mode).tail_bound
                    / z_symmetric(w, z, t, mode).exact
                )
                assert ratio < Fraction(1, 3), (w, mode, float(ratio))
                worst = max(worst, ratio)
        print(f"  worst tail bound / Z = {float(worst):.3g}")


def test_criterion_8_unbounded_sampler():
    with Budget("8a (coupling bit-exactness)", 60.0):
        rnd = random.Random(55)
        for conv in (WordConvention.plane_partitions(), WordConvention.pyramid()):
            word = truncation_word(conv, 4)
            z = truncation_params(PyramidalParameters.q_volume(0.5), 4)
            plan = precompute_par(word, z)
            for _ in range(500):
                inputs = {}
                for i in range(4):
                    for j in range(4):
                        kind = conv.box_kind(i, j)
                        inputs[(i, j)] = (
                            rnd.randrange(2)
                            if kind in ("HV", "VH")
                            else rnd.randrange(4)
                        )
                lam_inf = grow_pyramidal(conv, pyramid_rows(inputs, 4), 4)
                fin_inputs = {(u, v): inputs[(4 - u, 4 - v)] for u, v in plan.boxes()}
                lam_fin = boundary_lambdas(plan, run_growth(plan, fin_inputs))
                assert all(
                    lam_fin[k] == lam_inf.get(k - 4, EMPTY) for k in range(9)
                )
    with Budget("8b (empty probability at q=0.3)", 60.0):
        q = 0.3
        p = math.exp(sum(n * math.log1p(-(q**n)) for n in range(1, 500)))
        sampler = PyramidalSampler(PyramidalParameters.q_volume(q),
                                   WordConvention.plane_partitions())
        src = RandomSource(321)
        n = 100_000
        empties = sum(
            1 for k in range(n) if sampler.sample(src.child(k)).truncation_index is None
        )
        sigma = math.sqrt(p * (1 - p) / n)
        print(f"  empirical P(empty) = {empties / n:.4f}, exact {p:.4f}, 3s = {3 * sigma:.4f}")
        assert abs(empties / n - p) <= 3 * sigma


def test_criterion_9_plancherel():
    with Budget("9 (Plancherel chi-square and mean)", 120.0):
        theta = 1.0
        n = 1_000_000
        src = RandomSource(777)
        counts = Counter()
        for k in range(n):
            counts[plancherel_sample(theta, src.child(k))] += 1
        probs = {}
        for lam in partitions_up_to(4):
            size = sum(lam)
            probs[lam] = (
                math.exp(-theta)
                * theta**size
                * (hook_length_f(lam) / math.factorial(size)) ** 2
            )
        stat, dof = chi_square_statistic(counts, probs, n)
        pval = chi_square_pvalue(stat, dof)
        print(f"  chi-square {stat:.1f} on {dof} dof, p = {pval:.4f}")
        assert pval > 0.001
        theta4, m = 4.0, 150_000
        total = sum(sum(plancherel_sample(theta4, src.child(n + k))) for k in range(m))
        mean = total / m
        sigma = math.sqrt(theta4 / m)
        print(f"  mean |lambda| = {mean:.4f} vs {theta4}, 3s = {3 * sigma:.4f}")
        assert abs(mean - theta4) <= 3 * sigma


def test_criterion_10_performance():
    with Budget("10a (Aztec 200x200 under 2s)", 2.0):
        w = parse_word("(<'>)^200")
        s = schur_sample(w, (1,) * 400, 424242)
        assert s.stats.boxes == 200 * 201 // 2
    with Budget("10b (100x100 plane partition q=0.93 under 5s)", 5.0):
        w = parse_word("(<)^100(>)^100")
        z = q_volume_parameters(w, 0.93)
        s = schur_sample(w, z, 31415)
        assert len(s.lambdas) == 201

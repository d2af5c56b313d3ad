"""The zero-padded rule kernels against the part()-based kernels they
replaced, which are kept here as the reference.

Three checks: every triple the checked entry points accept up to weight 8;
the kernel calls recorded from an Aztec sample and a pyramid sample with
long partitions; and hypothesis-drawn triples with up to about 60 rows,
which must also round-trip through ``shrink`` / ``shrink_diag``.  On the
last two the shrink kernels must equal the reference shrinks, and every
HV/VH triple must have interleaving block positions.  The Maya-bitset HV
and VH kernels and their inverses face the reference on the same three.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from schursample import rules
from schursample.partitions import (
    conjugate,
    interlaces_h,
    interlaces_v,
    make,
    part,
    partitions_up_to,
    to_bits,
)
from schursample.rng import RandomSource
from schursample.rules import grow, grow_diag, shrink, shrink_diag
from schursample.sampler import schur_sample
from schursample.unbounded import (
    PyramidalParameters,
    WordConvention,
    unbounded_schur_sample,
)
from schursample.words import parse_word, precompute_par

from bits_reference import GROW_BITS, SHRINK_BITS, turned_bits
from grid_reference import run_growth

_INF = float("inf")


# --- the reference kernels: one part() call per index ----------------------

def ref_conjugate(lam):
    if not lam:
        return ()
    out = [0] * lam[0]
    for v in lam:
        for i in range(v):
            out[i] += 1
    return tuple(out)


def _trim(rows):
    while rows and rows[-1] == 0:
        rows.pop()
    return tuple(rows)


def ref_grow_hh(lam, mu, kap, g):
    n = max(len(lam), len(mu)) + 1
    rows = [max(part(lam, 1), part(mu, 1)) + g]
    for i in range(2, n + 1):
        li, mi = part(lam, i), part(mu, i)
        lp, mp = part(lam, i - 1), part(mu, i - 1)
        rows.append((li if li > mi else mi) + (lp if lp < mp else mp) - part(kap, i - 1))
    return _trim(rows)


def ref_grow_vv(lam, mu, kap, g):
    c = ref_conjugate
    return c(ref_grow_hh(c(lam), c(mu), c(kap), g))


def ref_grow_hv(lam, mu, kap, b):
    n = max(len(lam), len(mu)) + 1
    rows = []
    bit = b
    prev_lam = _INF
    for i in range(1, n + 1):
        li, mi = part(lam, i), part(mu, i)
        hi = li if li > mi else mi
        if li <= mi < prev_lam:
            rows.append(hi + bit)
        else:
            rows.append(hi)
        if part(mu, i + 1) < li <= mi:
            bit = li - part(kap, i)
        prev_lam = li
    return _trim(rows)


def ref_grow_vh(lam, mu, kap, b):
    return ref_grow_hv(mu, lam, kap, b)


def ref_grow_diag_h(mu, kap, g):
    n = len(mu) + 1
    rows = [part(mu, 1) + g]
    for i in range(2, n + 1):
        rows.append(part(mu, i) + part(mu, i - 1) - part(kap, i - 1))
    return _trim(rows)


def ref_grow_diag_h_er(mu, kap, g):
    n = len(mu) + 1
    rows = [2 * ((part(mu, 1) + 1) // 2) + 2 * g]
    for i in range(2, n + 1):
        rows.append(
            2 * ((part(mu, i) + 1) // 2) + 2 * (part(mu, i - 1) // 2) - part(kap, i - 1)
        )
    return _trim(rows)


def ref_grow_diag_v(mu, kap, g):
    c = ref_conjugate
    return c(ref_grow_diag_h(c(mu), c(kap), g))


def ref_grow_diag_v_ec(mu, kap, g):
    c = ref_conjugate
    return c(ref_grow_diag_h_er(c(mu), c(kap), g))


def ref_hv_positions(lam, mu):
    """Index lists (i_list, j_list) of the block conditions of grow_hv."""
    n = max(len(lam), len(mu)) + 1
    i_list, j_list = [], []
    prev_lam = _INF
    for i in range(1, n + 1):
        li, mi = part(lam, i), part(mu, i)
        if li <= mi < prev_lam:
            j_list.append(i)
        if part(mu, i + 1) < li <= mi:
            i_list.append(i)
        prev_lam = li
    return i_list, j_list


def assert_hv_blocks_interleave(lam, mu):
    i_list, j_list = ref_hv_positions(lam, mu)
    assert len(j_list) == len(i_list) + 1
    for k, ik in enumerate(i_list):
        assert j_list[k] <= ik < j_list[k + 1]


def ref_shrink_hh(lam, nu, mu):
    g = part(nu, 1) - max(part(lam, 1), part(mu, 1))
    rows = [
        max(part(lam, i + 1), part(mu, i + 1)) + min(part(lam, i), part(mu, i)) - part(nu, i + 1)
        for i in range(1, max(len(lam), len(mu)) + 1)
    ]
    return make(rows), g


def ref_shrink_hv(lam, nu, mu):
    i_list, j_list = ref_hv_positions(lam, mu)
    bits = [part(nu, j) - max(part(lam, j), part(mu, j)) for j in j_list]
    consumed = {ik: bits[k + 1] for k, ik in enumerate(i_list)}
    rows = [
        min(part(lam, i), part(mu, i)) - consumed.get(i, 0)
        for i in range(1, max(len(lam), len(mu)) + 1)
    ]
    return make(rows), bits[0]


def ref_shrink_vv(lam, nu, mu):
    c = ref_conjugate
    kap, g = ref_shrink_hh(c(lam), c(nu), c(mu))
    return c(kap), g


REF_BOX = {"HH": ref_grow_hh, "HV": ref_grow_hv, "VH": ref_grow_vh, "VV": ref_grow_vv}
BOX = {"HH": rules.grow_hh, "HV": rules.grow_hv, "VH": rules.grow_vh, "VV": rules.grow_vv}
REF_SHRINK = {
    "HH": ref_shrink_hh,
    "HV": ref_shrink_hv,
    "VH": lambda lam, nu, mu: ref_shrink_hv(mu, nu, lam),
    "VV": ref_shrink_vv,
}


def check_shrink(kind, lam, mu, kap, r, nu):
    """The shrink kernel and the reference shrink both return (kap, r)."""
    assert rules.SHRINK[kind](lam, nu, mu) == REF_SHRINK[kind](lam, nu, mu) == (kap, r)
    if kind == "HV":
        assert_hv_blocks_interleave(lam, mu)
    elif kind == "VH":
        assert_hv_blocks_interleave(mu, lam)


def check_bits(kind, lam, mu, kap, r, nu):
    """The bitset kernel grows nu's bitset, at the smallest offset, and its
    inverse recovers (kappa, r) from complements turned in the smallest
    rectangle that the sweep allows."""
    corner = (lam, mu, kap, nu)
    a = max(map(len, corner)) + 1
    b = max(p[0] for p in corner if p) + 1 if nu else 1
    bits = lambda p: to_bits(p, b)
    assert GROW_BITS[kind](bits(lam), bits(mu), bits(kap), r) == bits(nu)
    turned = lambda p: turned_bits(p, a, b)
    assert SHRINK_BITS[kind](turned(lam), turned(nu), turned(mu)) == (turned(kap), r)


# diagonal kind -> (new kernel, reference kernel) as functions of (mu, kap, g);
# the deterministic HEC and VER rules take g = 0
DIAG = {
    "H": (rules.grow_diag_h, ref_grow_diag_h),
    "HER": (rules.grow_diag_h_er, ref_grow_diag_h_er),
    "HEC": (lambda mu, kap, g: rules.grow_diag_h_ec(mu, kap), ref_grow_diag_h),
    "V": (rules.grow_diag_v, ref_grow_diag_v),
    "VER": (lambda mu, kap, g: rules.grow_diag_v_er(mu, kap), ref_grow_diag_v),
    "VEC": (rules.grow_diag_v_ec, ref_grow_diag_v_ec),
}
DETERMINISTIC = ("HEC", "VER")


def test_conjugate_matches_reference():
    for lam in partitions_up_to(16):
        assert conjugate(lam) == ref_conjugate(lam)
    assert conjugate(tuple(range(300, 0, -1))) == tuple(range(300, 0, -1))
    assert conjugate((5,) * 70 + (2,) * 9) == (79, 79, 70, 70, 70)


# --- exhaustive: every accepted triple up to weight 8 ----------------------

WEIGHT = 8


@pytest.fixture(scope="module")
def over():
    """over[strip][kap]: the partitions of weight <= WEIGHT that lie one
    horizontal ("h") or vertical ("v") strip above kap."""
    parts = partitions_up_to(WEIGHT)
    return {
        strip: {kap: [p for p in parts if rel(p, kap)] for kap in parts}
        for strip, rel in (("h", interlaces_h), ("v", interlaces_v))
    }


@pytest.mark.parametrize("kind", ["HH", "HV", "VH", "VV"])
def test_box_kernels_match_reference_exhaustive(kind, over):
    strips = {"HH": "hh", "HV": "vh", "VH": "hv", "VV": "vv"}[kind]
    rands = (0, 1) if kind in ("HV", "VH") else (0, 1, 3)
    checked = 0
    for kap in over["h"]:
        for lam in over[strips[0]][kap]:
            for mu in over[strips[1]][kap]:
                for r in rands:
                    nu = grow(kind, lam, mu, kap, r)  # raises unless accepted
                    assert nu == BOX[kind](lam, mu, kap, r) == REF_BOX[kind](lam, mu, kap, r)
                    checked += 1
    assert checked == {"HH": 14844, "HV": 9546, "VH": 9546, "VV": 14844}[kind]


@pytest.mark.parametrize("kind", ["HV", "VH"])
def test_bitset_kernels_match_reference_exhaustive(kind, over):
    strips = {"HV": "vh", "VH": "hv"}[kind]
    checked = 0
    for kap in over["h"]:
        for lam in over[strips[0]][kap]:
            for mu in over[strips[1]][kap]:
                for r in (0, 1):
                    check_bits(kind, lam, mu, kap, r, REF_BOX[kind](lam, mu, kap, r))
                    checked += 1
    assert checked == 9546


def _lanes(values, W):
    """Pack values of W - 1 bits into lanes of W bits, value k in lane k."""
    return sum(v << k * W for k, v in enumerate(values))


def _lane(x, k, W):
    return x >> k * W & (1 << (W - 1)) - 1


@pytest.mark.parametrize("inverse", [False, True], ids=["grow", "shrink"])
@pytest.mark.parametrize("kind", ["HV", "VH"])
def test_packed_kernel_keeps_its_lanes_apart(kind, inverse, over):
    """Every triple of the exhaustive fixture, packed 48 to a call of
    grow_hv_lanes in a shuffled order with lanes of random bits between
    them, comes out as the one-lane kernel grows (or shrinks) it alone."""
    strips = {"HV": "vh", "VH": "hv"}[kind]
    a = b = WEIGHT + 1  # reaches past every length and part of the fixture
    W = 24  # three bits past every tail, at bit a + b + 2 = 20 at most
    data = (1 << (W - 1)) - 1
    calls = []  # (kernel arguments, one-lane result)
    for kap in over["h"]:
        for lam in over[strips[0]][kap]:
            for mu in over[strips[1]][kap]:
                for r in (0, 1):
                    if inverse:
                        nu = REF_BOX[kind](lam, mu, kap, r)
                        t = lambda p: turned_bits(p, a, b)
                        args = (t(mu), t(lam), t(nu), 0) if kind == "HV" else (t(lam), t(mu), t(nu), 0)
                        one = SHRINK_BITS[kind](t(lam), t(nu), t(mu))
                    else:
                        c = lambda p: to_bits(p, b)
                        args = (c(lam), c(mu), c(kap), r) if kind == "HV" else (c(mu), c(lam), c(kap), r)
                        one = GROW_BITS[kind](c(lam), c(mu), c(kap), r)
                    calls.append((args, one))
    rnd = random.Random(kind + str(inverse))
    rnd.shuffle(calls)
    garbage = lambda: (rnd.getrandbits(W - 1), rnd.getrandbits(W - 1), rnd.getrandbits(W - 1), rnd.getrandbits(1))
    for start in range(0, len(calls), 48):
        batch = calls[start : start + 48]
        lanes = []  # kernel arguments per lane, None marking garbage
        for call in batch:
            while rnd.random() < 0.3:
                lanes.append((garbage(), None))
            lanes.append(call)
        L, M, K, bits = (_lanes([args[q] & data for args, _ in lanes], W) for q in range(4))
        G = _lanes([1 << (W - 1)] * len(lanes), W)  # the guards
        D = G - _lanes([1] * len(lanes), W)
        DJ = D ^ _lanes([1 << (a + b + 2)] * len(lanes), W) if inverse else D
        out = rules.grow_hv_lanes(L, M, K, bits, (G, D, DJ), inverse)
        nu, signs = out if inverse else (out, 0)
        for k, (args, one) in enumerate(lanes):
            if one is None:
                continue
            if inverse:
                assert (_lane(nu, k, W), signs >> k * W + W - 2 & 1) == (one[0] & data, one[1])
            else:
                assert _lane(nu, k, W) == one & data


def _even(lam, parity):
    return all(v % 2 == 0 for v in (lam if parity == "rows" else conjugate(lam)))


@pytest.mark.parametrize("kind", sorted(DIAG))
def test_diagonal_kernels_match_reference_exhaustive(kind, over):
    kernel, ref = DIAG[kind]
    parity = {"ER": "rows", "EC": "columns"}.get(kind[1:])
    gs = (0,) if kind in DETERMINISTIC else (0, 1, 3)
    checked = 0
    for kap in over["h"]:
        if parity and not _even(kap, parity):
            continue
        for mu in over["h" if kind[0] == "H" else "v"][kap]:
            for g in gs:
                nu = grow_diag(kind, mu, kap, g)  # raises unless accepted
                assert nu == kernel(mu, kap, g) == ref(mu, kap, g)
                checked += 1
    assert checked == {"H": 1302, "HER": 243, "HEC": 67, "V": 1302, "VER": 67, "VEC": 243}[kind]


# --- the kernel calls of real samples ---------------------------------------

def _record_calls(monkeypatch, run):
    calls = []

    def recorder(kind, kernel):
        def inner(*args):
            calls.append((kind, args))
            return kernel(*args)

        return inner

    with monkeypatch.context() as patch:
        for kind, kernel in list(rules.GROW.items()):
            patch.setitem(rules.GROW, kind, recorder(kind, kernel))
        run()
    return calls


def test_box_kernels_match_reference_on_recorded_samples(monkeypatch):
    # the sweep holds Maya bitsets on the Aztec word, so its box calls are
    # recorded from the tuple reference sweep fed by the sample's draw log
    word = parse_word("(<'>)^40")
    src = RandomSource(40, log_draws=True)
    schur_sample(word, (1,) * 80, src)
    plan = precompute_par(word, (1,) * 80)
    drawn = dict(zip(plan.boxes(), (v for _, _, v in src.draw_log)))
    aztec = _record_calls(monkeypatch, lambda: run_growth(plan, drawn))
    # q = 0.95, seed 1 reaches 81 rows; q = 0.9 stays near 30
    pyramid = _record_calls(
        monkeypatch,
        lambda: unbounded_schur_sample(
            PyramidalParameters.q_volume(0.95), WordConvention.pyramid(), RandomSource(1)
        ),
    )
    assert len(aztec) == 820
    assert {kind for kind, _ in pyramid} == {"HH", "HV", "VH", "VV"}
    assert max(len(p) for _, args in pyramid for p in args[:3]) >= 60
    for kind, (lam, mu, kap, r) in aztec + pyramid:
        nu = BOX[kind](lam, mu, kap, r)
        assert nu == REF_BOX[kind](lam, mu, kap, r)
        check_shrink(kind, lam, mu, kap, r, nu)
        if kind in ("HV", "VH"):
            check_bits(kind, lam, mu, kap, r, nu)


def test_the_pyramid_sweep_runs_no_kernel_on_a_dead_box(monkeypatch):
    # nor on any other quiet box: with input 0, lam == kap grows mu and
    # mu == kap grows lam (a dead box, with three empty neighbours, is both),
    # so the sweep assigns nu without a kernel call
    pyramid = _record_calls(
        monkeypatch,
        lambda: unbounded_schur_sample(
            PyramidalParameters.q_volume(0.95), WordConvention.pyramid(), RandomSource(1)
        ),
    )
    assert len(pyramid) == 2127  # 7851 before quiet boxes were skipped
    for _, (lam, mu, kap, g) in pyramid:
        assert g or (lam != kap and mu != kap)


# --- hypothesis: long valid triples, and the shrink round trips ------------

@st.composite
def long_partitions(draw, max_len=60, doubled=None):
    """A partition of up to max_len rows; doubled="rows" gives even rows,
    doubled="columns" even columns."""
    n = draw(st.integers(0, max_len))  # lists() alone rarely draws long ones
    steps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    lam, v = [], 0
    for s in reversed(steps):
        v += s if lam else s + 1  # the last row is positive
        lam.append(v)
    lam.reverse()
    if doubled == "rows":
        return tuple(2 * v for v in lam)
    if doubled == "columns":
        return tuple(v for v in lam for _ in (0, 1))
    return tuple(lam)


@st.composite
def strip_over(draw, kap, strip):
    """A partition one horizontal ("h") or vertical ("v") strip above kap."""
    lam = []
    if strip == "h":
        top = kap[0] + 5 if kap else 5  # bound on the first row
        for i in range(len(kap) + 1):
            low, high = part(kap, i + 1), kap[i - 1] if i else top
            lam.append(draw(st.integers(low, high)))
    else:
        extra = draw(st.integers(0, 4))
        for i in range(len(kap) + extra):
            ki = part(kap, i + 1)
            can_add = i == 0 or lam[i - 1] > ki
            lam.append(ki + (can_add and draw(st.booleans())))
    while lam and lam[-1] == 0:
        lam.pop()
    return tuple(lam)


@st.composite
def box_triples(draw, kind):
    kap = draw(long_partitions())
    lam = draw(strip_over(kap, "v" if kind in ("HV", "VV") else "h"))
    mu = draw(strip_over(kap, "v" if kind in ("VH", "VV") else "h"))
    r = draw(st.integers(0, 1) if kind in ("HV", "VH") else st.integers(0, 6))
    return lam, mu, kap, r


@pytest.mark.parametrize("kind", ["HH", "HV", "VH", "VV"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_box_grow_shrink_round_trip(kind, data):
    lam, mu, kap, r = data.draw(box_triples(kind))
    nu = grow(kind, lam, mu, kap, r)
    assert nu == REF_BOX[kind](lam, mu, kap, r)
    assert shrink(kind, lam, nu, mu) == (kap, r)
    check_shrink(kind, lam, mu, kap, r, nu)


@pytest.mark.parametrize("kind", ["HH", "HV", "VH", "VV"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_quiet_box_grows_its_other_neighbour(kind, data):
    # the identity that lets the sweep skip the kernel: with input 0,
    # lam == kap gives nu = mu and mu == kap gives nu = lam
    lam, mu, kap, _ = data.draw(box_triples(kind))
    assert grow(kind, kap, mu, kap, 0) == mu
    assert grow(kind, lam, kap, kap, 0) == lam


@pytest.mark.parametrize("kind", ["HV", "VH"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_bitset_kernels_match_reference_on_long_triples(kind, data):
    lam, mu, kap, r = data.draw(box_triples(kind))
    check_bits(kind, lam, mu, kap, r, REF_BOX[kind](lam, mu, kap, r))


@st.composite
def diagonal_pairs(draw, kind):
    parity = {"ER": "rows", "EC": "columns"}.get(kind[1:])
    kap = draw(long_partitions(max_len=30 if parity == "columns" else 60, doubled=parity))
    mu = draw(strip_over(kap, kind[0].lower()))
    g = 0 if kind in DETERMINISTIC else draw(st.integers(0, 6))
    return mu, kap, g


@pytest.mark.parametrize("kind", sorted(DIAG))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_diagonal_grow_shrink_round_trip(kind, data):
    mu, kap, g = data.draw(diagonal_pairs(kind))
    nu = grow_diag(kind, mu, kap, g)
    assert nu == DIAG[kind][1](mu, kap, g)
    assert shrink_diag(kind, mu, nu) == (kap, g)


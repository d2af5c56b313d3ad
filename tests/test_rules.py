import functools
import random

import pytest

from schursample.partitions import (
    EMPTY,
    conjugate,
    interlaces_h,
    interlaces_v,
    part,
    partitions_up_to,
)
from schursample.rules import (
    MODES,
    GrowthError,
    boundary_mode,
    grow,
    grow_diag,
    grow_diag_h as kernel_h,
    grow_diag_h_ec as kernel_h_ec,
    grow_diag_h_er as kernel_h_er,
    grow_diag_v as kernel_v,
    grow_diag_v_ec as kernel_v_ec,
    grow_diag_v_er as kernel_v_er,
    shrink,
    shrink_diag,
)

# every rule under test runs through the checked entry points
grow_hh = functools.partial(grow, "HH")
grow_hv = functools.partial(grow, "HV")
grow_vh = functools.partial(grow, "VH")
grow_vv = functools.partial(grow, "VV")
grow_diag_h = functools.partial(grow_diag, "H")
grow_diag_h_er = functools.partial(grow_diag, "HER")
grow_diag_v = functools.partial(grow_diag, "V")


def grow_diag_h_ec(mu, kap):
    return grow_diag("HEC", mu, kap, 0)


def test_grow_hh_examples():
    assert grow_hh((2, 1), (3,), (1,), 2) == (5, 2)
    assert grow_hh(EMPTY, EMPTY, EMPTY, 0) == EMPTY
    for k in range(1, 5):
        assert grow_hh(EMPTY, EMPTY, EMPTY, k) == (k,)


def test_grow_vv_examples():
    # the Cauchy rule on the conjugates gives (4): nu_2 = 0 + min(3,2) - 2 = 0,
    # consistent with the weight balance 3 + 2 + 1 = 2 + 4
    assert grow_vv((1, 1, 1), (1, 1), (1, 1), 1) == (1, 1, 1, 1)
    assert grow_hh((3,), (2,), (2,), 1) == (4,)
    assert grow_vv(EMPTY, EMPTY, EMPTY, 0) == EMPTY
    for k in range(1, 5):
        assert grow_vv(EMPTY, EMPTY, EMPTY, k) == (1,) * k


def test_grow_hv_examples():
    assert grow_hv((1,), (2,), (1,), 1) == (3,)
    assert grow_hv((2, 1), (2,), (1,), 0) == (2, 1, 1)
    assert grow_hv(EMPTY, EMPTY, EMPTY, 1) == (1,)


def test_grow_vh_examples():
    assert grow_vh((2,), (1,), (1,), 1) == (3,)
    assert grow_vh(EMPTY, EMPTY, EMPTY, 0) == EMPTY
    # hand trace: bit enters at the first row where mu_i <= lam_i < mu_{i-1}
    nu = grow_vh(EMPTY, (1,), EMPTY, 1)
    assert interlaces_v(nu, EMPTY) and interlaces_h(nu, (1,))
    assert nu == (1, 1)


def test_grow_precondition_errors():
    with pytest.raises(GrowthError):
        grow_hh((1,), EMPTY, (2,), 0)  # kappa not inside lam
    with pytest.raises(GrowthError):
        grow_hv((3, 1), EMPTY, (1,), 0)  # lam/kappa not a vertical strip
    with pytest.raises(GrowthError):
        grow("HV", EMPTY, EMPTY, EMPTY, 2)  # bit out of range


def test_shrink_examples():
    assert shrink("HH", (2, 1), (5, 2), (3,)) == ((1,), 2)
    assert shrink("HV", (1,), (3,), (2,)) == ((1,), 1)
    assert shrink("HH", EMPTY, EMPTY, EMPTY) == (EMPTY, 0)
    with pytest.raises(GrowthError):
        shrink("HH", (2,), (1,), EMPTY)  # nu does not even contain lam


def _hv_positions(lam, mu):
    """(i_list, j_list) of grow_hv(lam, mu, ., .): the j-positions satisfy
    lam_i <= mu_i < lam_{i-1} (nu may gain a box there), the i-positions
    mu_{i+1} < lam_i <= mu_i (kappa may lack one there)."""
    n = max(len(lam), len(mu)) + 1
    i_list, j_list = [], []
    prev_lam = float("inf")
    for i in range(1, n + 1):
        li, mi = part(lam, i), part(mu, i)
        if li <= mi < prev_lam:
            j_list.append(i)
        if part(mu, i + 1) < li <= mi:
            i_list.append(i)
        prev_lam = li
    return i_list, j_list


def test_hv_blocks_interleave_exhaustive():
    """The strip preconditions of an HV box (kap <' lam, kap < mu) imply that
    its positions interleave, j_1 <= i_1 < j_2 <= ... < j_{r+1}, so every
    cascaded bit lam_i - kap_i has a j-position to land on; the checked
    rules.grow therefore does not assert it.  Every triple up to weight 8."""
    parts = partitions_up_to(8)
    checked = 0
    for kap in parts:
        mus = [mu for mu in parts if interlaces_h(mu, kap)]
        for lam in parts:
            if not interlaces_v(lam, kap):
                continue
            for mu in mus:
                i_list, j_list = _hv_positions(lam, mu)
                assert len(j_list) == len(i_list) + 1, (lam, mu, kap)
                for k, ik in enumerate(i_list):
                    assert j_list[k] <= ik < j_list[k + 1], (lam, mu, kap)
                checked += 1
    assert checked == 4773


def _kappas_below(lam, mu, kind):
    """Valid kappa choices for a box of the given kind (brute force)."""
    cap = max(sum(lam), sum(mu))
    for kap in partitions_up_to(cap):
        ok_l = interlaces_v(lam, kap) if kind in ("HV",) else interlaces_h(lam, kap)
        ok_m = interlaces_v(mu, kap) if kind in ("VH",) else interlaces_h(mu, kap)
        if kind == "VV":
            ok_l = interlaces_v(lam, kap)
            ok_m = interlaces_v(mu, kap)
        if ok_l and ok_m:
            yield kap


def _rand_range(kind, bound):
    return (0, 1) if kind in ("HV", "VH") else tuple(range(bound + 1))


@pytest.mark.parametrize("kind", ["HH", "HV", "VH", "VV"])
def test_bijectivity_small(kind):
    """Injective over (kappa, rand) and inverted exactly by shrink."""
    parts = partitions_up_to(4)
    for lam in parts:
        for mu in parts:
            seen = {}
            for kap in _kappas_below(lam, mu, kind):
                for r in _rand_range(kind, 4):
                    nu = grow(kind, lam, mu, kap, r)
                    assert (kap, r) not in seen
                    assert nu not in seen.values()
                    seen[(kap, r)] = nu
                    assert shrink(kind, lam, nu, mu) == (kap, r)
                    assert sum(lam) + sum(mu) + r == sum(kap) + sum(nu)


def test_vv_is_conjugated_hh():
    rnd = random.Random(1)
    parts = partitions_up_to(6)
    for _ in range(300):
        lam, mu = rnd.choice(parts), rnd.choice(parts)
        for kap in _kappas_below(lam, mu, "VV"):
            g = rnd.randrange(4)
            assert grow_vv(lam, mu, kap, g) == conjugate(
                grow_hh(conjugate(lam), conjugate(mu), conjugate(kap), g)
            )
            break


def test_grow_diag_h_examples():
    assert grow_diag_h((2, 1), (1,), 1) == (3, 2, 1)
    assert grow_diag_h(EMPTY, EMPTY, 0) == EMPTY
    for k in range(1, 4):
        assert grow_diag_h(EMPTY, EMPTY, k) == (k,)


def test_grow_diag_h_er_examples():
    assert grow_diag_h_er((2, 1), (2,), 0) == (2, 2)
    assert grow_diag_h_er(EMPTY, EMPTY, 1) == (2,)
    assert grow_diag_h_er((1,), EMPTY, 0) == (2,)
    with pytest.raises(GrowthError):
        grow_diag_h_er((2, 1), (1,), 0)  # kappa has an odd row


def test_grow_diag_h_ec_examples():
    assert grow_diag_h_ec((2, 1), (1, 1)) == (2, 2)
    assert grow_diag_h_ec(EMPTY, EMPTY) == EMPTY
    assert grow_diag_h_ec((1,), EMPTY) == (1, 1)
    with pytest.raises(GrowthError):
        grow_diag_h_ec((2, 1), (1,))  # kappa has an odd column


def test_diagonal_weight_balances_and_inverses():
    for mu in partitions_up_to(5):
        for kap in partitions_up_to(5):
            if not interlaces_h(mu, kap):
                continue
            for g in range(3):
                nu = grow_diag_h(mu, kap, g)
                assert 2 * sum(mu) + g == sum(kap) + sum(nu)
                assert shrink_diag("H", mu, nu) == (kap, g)
                if all(v % 2 == 0 for v in kap):
                    nu = grow_diag_h_er(mu, kap, g)
                    assert all(v % 2 == 0 for v in nu)
                    assert 2 * sum(mu) + 2 * g == sum(kap) + sum(nu)
                    assert shrink_diag("HER", mu, nu) == (kap, g)
            if all(v % 2 == 0 for v in conjugate(kap)):
                nu = grow_diag_h_ec(mu, kap)
                assert all(v % 2 == 0 for v in conjugate(nu))
                assert 2 * sum(mu) == sum(kap) + sum(nu)
                assert shrink_diag("HEC", mu, nu) == (kap, 0)


def test_diag_v_wrappers():
    assert grow_diag_v((1, 1), (1,), 1) == conjugate(grow_diag_h((2,), (1,), 1))
    assert grow_diag_v(EMPTY, EMPTY, 3) == (1, 1, 1)


def test_weight_conservation_randomized():
    rnd = random.Random(7)
    parts = partitions_up_to(8)
    checks = {
        "HH": (interlaces_h, interlaces_h),
        "HV": (interlaces_v, interlaces_h),
        "VH": (interlaces_h, interlaces_v),
        "VV": (interlaces_v, interlaces_v),
    }
    outs = {
        "HH": (interlaces_h, interlaces_h),
        "HV": (interlaces_h, interlaces_v),
        "VH": (interlaces_v, interlaces_h),
        "VV": (interlaces_v, interlaces_v),
    }
    n_checked = 0
    while n_checked < 4000:
        kind = rnd.choice(["HH", "HV", "VH", "VV"])
        lam, mu, kap = rnd.choice(parts), rnd.choice(parts), rnd.choice(parts)
        ok_l, ok_m = checks[kind]
        if not (ok_l(lam, kap) and ok_m(mu, kap)):
            continue
        r = rnd.randrange(2) if kind in ("HV", "VH") else rnd.randrange(5)
        nu = grow(kind, lam, mu, kap, r)
        assert sum(lam) + sum(mu) + r == sum(kap) + sum(nu)
        out_l, out_m = outs[kind]
        assert out_l(nu, lam) and out_m(nu, mu)
        n_checked += 1


def test_the_boundary_mode_table():
    # mode -> (parity of the free partition, {box: (kernel, rule kind, draw power)});
    # the three modes are the three Littlewood identities
    assert {mode: boundary_mode(mode) for mode in MODES} == {
        "free": (None, {"HH": (kernel_h, "H", 1), "VV": (kernel_v, "V", 1)}),
        "even_rows": ("rows", {"HH": (kernel_h_er, "HER", 2), "VV": (kernel_v_er, "VER", 0)}),
        "even_columns": (
            "columns", {"HH": (kernel_h_ec, "HEC", 0), "VV": (kernel_v_ec, "VEC", 2)}
        ),
    }
    assert MODES == ("free", "even_rows", "even_columns")

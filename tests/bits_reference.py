"""The bitset HV/VH kernels one box at a time, for the tests that check
``rules.grow_hv_lanes`` against the tuple kernels: each call is the packed
kernel on one lane, three bits wider than the longest tail of its
arguments."""
from schursample.partitions import to_bits, turn
from schursample.rules import grow_hv_lanes


def turned_bits(lam, a, b):
    """to_bits, with offset b + 1, of the complement of lam in the a x b
    rectangle turned 180 degrees: (b - lam_a, ..., b - lam_1)."""
    return turn(to_bits(lam, b + 1), a, b)


def grow_hv_bits(L, M, K, b, inverse=False):
    """grow_hv on the Maya bitsets L, M, K of lam, mu, kappa (one offset
    above every first part); returns the bitset of nu.  With ``inverse``,
    called as (mu^c, lam^c, nu^c, 0) on complements turned in a
    rectangle, it returns (kappa^c, b)."""
    tail = max((~L).bit_length(), (~M).bit_length(), (~K).bit_length())
    G = 1 << (tail + 2)
    D = G - 1
    DJ = D ^ (1 << (~M).bit_length()) if inverse else D
    out = grow_hv_lanes(L & D, M & D, K & D, b, (G, D, DJ), inverse)
    if inverse:
        return out[0] - G, int(out[1] != 0)
    return out - G


# kind -> the bitset kernel grow(L, M, K, b), and its inverse
# shrink(Lc, Nc, Mc) -> (Kc, b) on turned complements; VH is HV with lam
# and mu exchanged
GROW_BITS = {
    "HV": grow_hv_bits,
    "VH": lambda L, M, K, b: grow_hv_bits(M, L, K, b),
}
SHRINK_BITS = {
    "HV": lambda Lc, Nc, Mc: grow_hv_bits(Mc, Lc, Nc, 0, True),
    "VH": lambda Lc, Nc, Mc: grow_hv_bits(Lc, Mc, Nc, 0, True),
}

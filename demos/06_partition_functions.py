"""Closed-form normalizing constants and their brute-force checks.

Every left-before-right pair of word symbols contributes one factor:
1/(1 - z_i z_j) for plain-plain or primed-primed pairs, (1 + z_i z_j) for
the mixed ones.  Free boundaries add reflection factors.
"""
import math
from fractions import Fraction

from schursample import (
    PyramidalParameters,
    WordConvention,
    parse_word,
    q_volume_parameters,
    z_finite,
    z_pyramidal,
    z_symmetric,
)
from schursample.oracle import enumerate_support, slice_cap, sum_weights_dp

# --- Aztec diamonds: 2^(n(n+1)/2) tilings ----------------------------------
for n in (1, 2, 3, 4):
    w = parse_word(f"(<'>)^{n}")
    print(f"Aztec {n}: Z = {z_finite(w, (1,) * (2 * n))}  (2^(n(n+1)/2) = {2 ** (n * (n + 1) // 2)})")

# --- exact rational evaluation vs enumeration -------------------------------
w = parse_word("(<)^2(>)^2")
q = Fraction(1, 2)
z = q_volume_parameters(w, q)
sup = enumerate_support(w, z, cap=12, refine_tail_to=40)
print(f"\nboxed 2x2 plane partitions at q = 1/2:")
print(f"  closed form     Z = {z_finite(w, z)}")
print(f"  enumerated mass   = {float(sup.total):.9f} + tail <= {float(sup.tail_bound):.2e}")

# --- an Aztec word has finite support: the sum is exact ---------------------
w = parse_word("(<'>)^3")
total = sum_weights_dp(w, (Fraction(1),) * 6, cap=slice_cap(w))
print(f"\nAztec 3 brute-force sum = {total} (exact match: {total == z_finite(w, (1,) * 6).exact})")

# --- the MacMahon product for unboxed plane partitions ----------------------
qf = 0.5
zp = z_pyramidal(PyramidalParameters.q_volume(qf), WordConvention.plane_partitions())
macmahon = -sum(k * math.log1p(-(qf**k)) for k in range(1, 200))
print(f"\nunboxed plane partitions at q = {qf}:")
print(f"  log Z = {zp.log:.12f}")
print(f"  log prod (1-q^k)^(-k) = {macmahon:.12f}")

# --- free boundary -----------------------------------------------------------
w = parse_word("<<'")
print(f"\nright-free process of <<' with z = (1/3, 1/4), t = 1/2:")
for mode in ("free", "even_rows", "even_columns"):
    print(f"  {mode:13s} Z = {z_symmetric(w, (Fraction(1,3), Fraction(1,4)), Fraction(1,2), mode)}")

"""Uniform domino tilings of the Aztec diamond.

The word (<'>)^n encodes the size-n Aztec diamond; with all parameters equal
to 1 every box of the staircase shape draws one fair bit, so the sampler
consumes exactly n(n+1)/2 bits and the n(n+1)/2-th power of 2 counts the
tilings.  Growing the staircase diagonal by diagonal is the classical domino
shuffling dynamics; any fill order gives the same tiling for the same bits.
"""
from collections import Counter
from pathlib import Path

from schursample import RandomSource, parse_word, precompute_par, rules, schur_sample
from schursample.render import RenderStyle, render_svg
from schursample.tilings import to_steep_tiling

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

# --- tiny case: check uniformity over the 8 tilings of size 2 -------------
word = parse_word("(<'>)^2")
src = RandomSource(1)
counts = Counter(schur_sample(word, (1, 1, 1, 1), src.child(k)).lambdas for k in range(20_000))
print("size-2 Aztec diamond, 20000 samples over the 8 tilings:")
for seq, c in sorted(counts.items()):
    print(f"  {str(seq):55s} {c / 20_000:.4f}")

# --- one large sample, grown again by domino shuffling, rendered -----------
n = 24
word = parse_word(f"(<'>)^{n}")
z = (1,) * (2 * n)
sample = schur_sample(word, z, RandomSource(2024, log_draws=True))
plan = precompute_par(word, z)
bits = {box: bit for box, (_, _, bit) in zip(plan.boxes(), sample.draw_log)}
grid = {}
for i, j in sorted(plan.boxes(), key=sum):  # anti-diagonal by anti-diagonal
    lam, mu, kap = (grid.get(p, ()) for p in ((i - 1, j), (i, j - 1), (i - 1, j - 1)))
    grid[i, j] = rules.GROW[plan.row_kinds[j - 1][i - 1]](lam, mu, kap, bits[i, j])
shuffled = tuple(grid.get(point, ()) for point in plan.boundary_points())
print(f"\ndomino shuffling on the same {len(bits)} bits gives the same tiling: "
      f"{shuffled == sample.lambdas}")
tiling = to_steep_tiling(word, sample.lambdas)
svg = render_svg(tiling, RenderStyle(model="domino", scale=8))
path = OUT / f"aztec_{n}.svg"
path.write_text(svg)
print(f"\nwrote a uniform size-{n} Aztec diamond tiling to {path}")
print("(the four colors split dominoes by orientation and sign; at large n")
print(" the frozen corners and the disordered arctic-circle center appear)")

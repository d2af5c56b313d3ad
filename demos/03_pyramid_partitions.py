"""Pyramid partitions and other unbounded processes.

A pyramid partition is an infinite heap of 2x2x1 bricks; its diagonal slices
form a two-sided sequence of partitions with alternating plain/primed
interlacing.  The unbounded sampler first draws the truncation index K (the
last active box in the Cantor-pairing order), then runs the growth rules on
the finite square that K certifies is enough.
"""
from pathlib import Path

from schursample import (
    PyramidalParameters,
    PyramidalSampler,
    RandomSource,
    WordConvention,
)
from schursample.render import RenderStyle, render_svg
from schursample.tilings import to_steep_tiling
from schursample.unbounded import truncation_word

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

q = 0.8
params = PyramidalParameters.q_volume(q)
sampler = PyramidalSampler(params, WordConvention.pyramid())

sample = sampler.sample(5)
print(f"pyramid partition at q = {q}, truncation index K = {sample.truncation_index}")
lo, hi = sample.support()
for i in range(hi, lo - 1, -1):
    print(f"  lambda({i:+d}) = {sample.lam(i)}")

# --- render the corresponding steep tiling ----------------------------------
# embed the sample into the finite word that its truncation certifies
m = 0
for i, v in sample.lambdas.items():
    m = max(m, abs(i) + len(v) + 1)
m = max(m, 4)
word = truncation_word(sampler.conv, m)
lambdas = tuple(sample.lam(k - m) for k in range(2 * m + 1))
tiling = to_steep_tiling(word, lambdas)
path = OUT / "pyramid_tiling.svg"
path.write_text(render_svg(tiling, RenderStyle(model="domino", scale=9)))
print(f"\nwrote the associated steep tiling to {path}")

path = OUT / "pyramid_particles.svg"
path.write_text(render_svg(tiling, RenderStyle(model="maya-particles", scale=9)))
print(f"wrote the particle view (good for large samples) to {path}")

# --- empty-process probability ----------------------------------------------
# P(empty) = 1/Z, the probability that no box fires; checked at q = 0.5, where
# 5,000 samples see the empty pyramid often
import math

q = 0.5
sampler = PyramidalSampler(PyramidalParameters.q_volume(q), WordConvention.pyramid())
p_empty = math.exp(sampler.log_p_empty())
src = RandomSource(99)
n = 5000
empties = sum(1 for k in range(n) if sampler.sample(src.child(k)).truncation_index is None)
print(
    f"\nP(no brick removed) at q = {q}: 1/Z = {p_empty:.4f}; "
    f"empirical over {n} runs: {empties / n:.4f}"
)

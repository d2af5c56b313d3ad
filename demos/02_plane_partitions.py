"""Random plane partitions under the q^Volume measure.

The word (<)^m (>)^n encodes reverse plane partitions in an m x n box;
choosing z_i = q^(-i) on ascents and q^i on descents makes the probability
of a configuration proportional to q^(number of boxes).
"""
from pathlib import Path

from schursample import parse_word, q_volume_parameters, schur_sample
from schursample.render import RenderStyle, render_svg
from schursample.tilings import to_plane_partition

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

# --- a small boxed plane partition, printed as a height matrix -------------
word = parse_word("(<)^6(>)^6")
sample = schur_sample(word, q_volume_parameters(word, 0.7), 7)
hm = to_plane_partition(word, sample.lambdas)
print("a 6x6-boxed plane partition at q = 0.7 (rows bottom-up):")
for row in reversed(hm.rows):
    print("  " + " ".join(f"{v:2d}" for v in row))
print(f"volume = {sample.volume}")

# --- a large one, rendered as stacked cubes ---------------------------------
word = parse_word("(<)^40(>)^40")
sample = schur_sample(word, q_volume_parameters(word, 0.88), 11)
hm = to_plane_partition(word, sample.lambdas)
path = OUT / "plane_partition_40.svg"
path.write_text(render_svg(hm, RenderStyle(model="lozenge", scale=7)))
print(f"\nwrote a 40x40-box sample at q = 0.88 to {path}")

# --- the full-size figure recipe (a couple of seconds) ----------------------
print(
    "\nfigure recipe, 100x100 box at q = 0.93 (limit shape appears):\n"
    "  python3 -m schursample sample --word '(<)^100(>)^100' --q 0.93 \\\n"
    "      --in-place --seed 1 \\\n"
    "    | python3 -m schursample convert --to plane-partition \\\n"
    "    | python3 -m schursample render --style lozenge --scale 4 --out pp100.svg"
)

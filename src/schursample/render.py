"""Deterministic SVG renderers for the tiling views.

Three models: ``lozenge`` draws a reverse plane partition as stacked-cube
surfaces, ``domino`` draws a steep tiling with the four orientation/sign
classes in four colors, and ``maya-particles`` draws only the particles of
the diagonal Maya diagrams, at about the domino renderer's speed: the right
view for very large samples.  All three place their shapes on integer grid
keys through one writer, ``_Svg``.
"""
from __future__ import annotations

import math
from typing import Callable, List

from .partitions import FrozenRecord
from .tilings import DominoTiling, HeightMatrix

DOMINO_PALETTE = {
    ("v", 1): "#2166ac",
    ("v", -1): "#92c5de",
    ("h", 1): "#b2182b",
    ("h", -1): "#f4a582",
}

LOZENGE_PALETTE = {"top": "#f1c232", "left": "#cc4125", "right": "#3d85c6"}

_COS30 = math.cos(math.pi / 6)


class RenderStyle(FrozenRecord):
    def __init__(self, model: str = "domino", scale: float = 12.0):
        self.__dict__.update(model=model, scale=scale)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Axis(dict):
    """Integer grid keys of one axis, each placed and formatted once."""

    def __init__(self, place: Callable[[int], float]):
        super().__init__()
        self.place = place

    def __missing__(self, u: int) -> str:
        text = self[u] = _fmt(self.place(u))
        return text

    def extent(self, reach: float):
        """Smallest and largest coordinate of the keys used, widened by
        ``reach``: ``place`` is monotone, so the extreme keys give them.
        An empty view spans 0 to 1."""
        if not self:
            return 0.0, 1.0
        ends = self.place(min(self)), self.place(max(self))
        return min(ends) - reach, max(ends) + reach


class _Svg:
    """The one SVG writer: shapes given in grid keys, placed by the axes."""

    def __init__(self, scale: float, place_x, place_y, reach: float = 0.0):
        self.scale = scale
        self.xs, self.ys = _Axis(place_x), _Axis(place_y)
        self.reach = reach
        self.elems: List[str] = []

    def polygon(self, pts, fill):
        xs, ys = self.xs, self.ys
        data = " ".join(f"{xs[u]},{ys[v]}" for u, v in pts)
        self.elems.append(
            f'<polygon points="{data}" fill="{fill}" stroke="#222222" stroke-width="0.60"/>'
        )

    def document(self) -> str:
        (x0, x1), (y0, y1) = self.xs.extent(self.reach), self.ys.extent(self.reach)
        pad = 4.0
        box = (x0 - pad, y0 - pad, x1 - x0 + 2 * pad, y1 - y0 + 2 * pad)
        if not all(map(math.isfinite, box)):
            raise ValueError(f"scale {self.scale!r} puts the view box out of float range")
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{" ".join(map(_fmt, box))}">'
        )
        return "".join([head, *self.elems, "</svg>"])


def render_lozenge(hm: HeightMatrix, style: RenderStyle) -> str:
    """Axonometric cubes: the cube-grid point (c, r, h) has grid keys
    (c - r, 2h + c + r), at x = (c - r) s cos(pi/6), y = -(h + (c + r)/2) s."""
    s = style.scale
    svg = _Svg(s, lambda u: u * s * _COS30, lambda v: -(v * 0.5) * s)
    cells = [(c, r, h) for r, row in enumerate(hm.rows, 1) for c, h in enumerate(row, 1)]
    # back-to-front for the viewer at (+inf, +inf, +inf)
    for c, r, h in sorted(cells, key=lambda t: (t[0] + t[1], t[2])):
        u, v, w = c - r, 2 * h + c + r, c + r  # w: the key v at height 0
        top = ((u, v), (u + 1, v + 1), (u, v + 2), (u - 1, v + 1))
        svg.polygon(top, LOZENGE_PALETTE["top"])
        if h > 0:
            left = ((u - 1, v + 1), (u, v + 2), (u, w + 2), (u - 1, w + 1))
            right = ((u + 1, v + 1), (u, v + 2), (u, w + 2), (u + 1, w + 1))
            svg.polygon(left, LOZENGE_PALETTE["left"])
            svg.polygon(right, LOZENGE_PALETTE["right"])
    return svg.document()


def _half_units(s: float, reach: float = 0.0) -> _Svg:
    """A writer whose keys are half units: x = u/2 s, and y = v/2 s upward."""
    return _Svg(s, lambda u: u / 2 * s, lambda v: v / 2 * -s, reach)


def render_domino(tiling: DominoTiling, style: RenderStyle) -> str:
    """One rectangle per domino.  Its cells sit at x = p/2 - k, y = p/2 on
    diagonal k and on diagonal k + 1 one step left (horizontal) or up
    (vertical); the rectangle is the union of their unit squares, with y
    pointing up.  Corners are kept in half units, so they are integers."""
    svg = _half_units(style.scale)
    xs, ys = svg.xs, svg.ys
    for k, p, vertical, sign in tiling.dominoes:
        x1 = p - 2 * k + 1
        x0 = x1 - (2 if vertical else 4)
        y0 = p - 1
        a, b, c, e = xs[x0], ys[y0], xs[x1], ys[y0 + (4 if vertical else 2)]
        fill = DOMINO_PALETTE["v" if vertical else "h", sign]
        svg.elems.append(
            f'<polygon points="{a},{b} {c},{b} {c},{e} {a},{e}" '
            f'fill="{fill}" stroke="#222222" stroke-width="0.60"/>'
        )
    return svg.document()


def render_maya_particles(tiling: DominoTiling, style: RenderStyle) -> str:
    """One circle per particle, at x = p/2 - k, y = p/2 for the cell (k, p):
    half units (p - 2k, p)."""
    svg = _half_units(style.scale, 0.32 * style.scale)
    xs, ys = svg.xs, svg.ys
    tail = f'" r="{_fmt(svg.reach)}" fill="#111111"/>'
    keys = {}  # a particle is a cell of a negative domino; each is drawn once
    for k, p, vertical, sign in tiling.dominoes:
        if sign < 0:
            u = p - 2 * k
            keys[u, p] = keys[(u, p + 2) if vertical else (u - 2, p)] = None
    svg.elems += [f'<circle cx="{xs[u]}" cy="{ys[p]}' + tail for u, p in keys]
    return svg.document()


# model -> (renderer, view type, error text for another view)
_RENDERERS = {
    "lozenge": (render_lozenge, HeightMatrix, "lozenge rendering needs a plane partition view"),
    "domino": (render_domino, DominoTiling, "domino rendering needs a steep-tiling view"),
    "maya-particles": (
        render_maya_particles, DominoTiling, "maya rendering needs a steep-tiling view"
    ),
}


def render_svg(view, style: RenderStyle) -> str:
    if not 0 < style.scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {style.scale!r}")
    if style.model not in _RENDERERS:
        raise ValueError(f"unknown render model {style.model!r}")
    render, view_type, wrong_view = _RENDERERS[style.model]
    if not isinstance(view, view_type):
        raise TypeError(wrong_view)
    return render(view, style)

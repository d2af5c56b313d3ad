"""Deterministic SVG renderers for the tiling views.

Three models: ``lozenge`` draws a reverse plane partition as stacked-cube
surfaces, ``domino`` draws a steep tiling with the four orientation/sign
classes in four colors, and ``maya-particles`` draws only the particles of
the diagonal Maya diagrams (the right view for very large samples).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .tilings import DominoTiling, HeightMatrix

DOMINO_PALETTE = {
    ("v", 1): "#2166ac",
    ("v", -1): "#92c5de",
    ("h", 1): "#b2182b",
    ("h", -1): "#f4a582",
}

LOZENGE_PALETTE = {"top": "#f1c232", "left": "#cc4125", "right": "#3d85c6"}


@dataclass(frozen=True)
class RenderStyle:
    model: str = "domino"
    scale: float = 12.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Svg:
    def __init__(self):
        self.elems: List[str] = []
        self.min_x = self.min_y = math.inf
        self.max_x = self.max_y = -math.inf

    def polygon(self, pts, fill, stroke="#222222", width=0.6):
        for x, y in pts:
            self.min_x, self.max_x = min(self.min_x, x), max(self.max_x, x)
            self.min_y, self.max_y = min(self.min_y, y), max(self.max_y, y)
        data = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.elems.append(
            f'<polygon points="{data}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>'
        )

    def circle(self, x, y, r, fill):
        self.min_x, self.max_x = min(self.min_x, x - r), max(self.max_x, x + r)
        self.min_y, self.max_y = min(self.min_y, y - r), max(self.max_y, y + r)
        self.elems.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{fill}"/>'
        )

    def document(self) -> str:
        if not self.elems:
            self.min_x = self.min_y = 0.0
            self.max_x = self.max_y = 1.0
        pad = 4.0
        w = self.max_x - self.min_x + 2 * pad
        h = self.max_y - self.min_y + 2 * pad
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{_fmt(self.min_x - pad)} {_fmt(self.min_y - pad)} '
            f'{_fmt(w)} {_fmt(h)}">'
        )
        return head + "".join(self.elems) + "</svg>"


def _iso(c: float, r: float, h: float, s: float) -> Tuple[float, float]:
    """Axonometric projection of the cube-grid point (c, r, h)."""
    x = (c - r) * s * math.cos(math.pi / 6)
    y = -(h + (c + r) * 0.5) * s
    return x, y


def render_lozenge(hm: HeightMatrix, style: RenderStyle) -> str:
    svg = _Svg()
    s = style.scale
    cells = [
        (c, r, hm.entry(c, r))
        for r in range(1, len(hm.shape) + 1)
        for c in range(1, hm.shape[r - 1] + 1)
    ]
    # back-to-front for the viewer at (+inf, +inf, +inf)
    for c, r, h in sorted(cells, key=lambda t: (t[0] + t[1], t[2])):
        top = [
            _iso(c, r, h, s), _iso(c + 1, r, h, s),
            _iso(c + 1, r + 1, h, s), _iso(c, r + 1, h, s),
        ]
        svg.polygon(top, LOZENGE_PALETTE["top"])
        if h > 0:
            left = [
                _iso(c, r + 1, h, s), _iso(c + 1, r + 1, h, s),
                _iso(c + 1, r + 1, 0, s), _iso(c, r + 1, 0, s),
            ]
            right = [
                _iso(c + 1, r, h, s), _iso(c + 1, r + 1, h, s),
                _iso(c + 1, r + 1, 0, s), _iso(c + 1, r, 0, s),
            ]
            svg.polygon(left, LOZENGE_PALETTE["left"])
            svg.polygon(right, LOZENGE_PALETTE["right"])
    return svg.document()


class _Coords(dict):
    """Coordinates given in half units u, each formatted once: u / 2 * scale."""

    def __init__(self, scale: float):
        super().__init__()
        self.scale = scale

    def __missing__(self, u: int) -> str:
        text = self[u] = _fmt(u / 2 * self.scale)
        return text


def render_domino(tiling: DominoTiling, style: RenderStyle) -> str:
    """One rectangle per domino.  Its cells sit at x = p/2 - k, y = p/2 on
    diagonal k and on diagonal k + 1 one step left (horizontal) or up
    (vertical); the rectangle is the union of their unit squares, with y
    pointing up.  Corners are kept in half units, so they are integers."""
    svg = _Svg()
    s = style.scale
    xs, ys = _Coords(s), _Coords(-s)
    x_lo = y_lo = math.inf
    x_hi = y_hi = -math.inf
    for k, p, vertical, sign in tiling.dominoes:
        x1 = p - 2 * k + 1
        x0 = x1 - (2 if vertical else 4)
        y0 = p - 1
        y1 = y0 + (4 if vertical else 2)
        if x0 < x_lo:
            x_lo = x0
        if x1 > x_hi:
            x_hi = x1
        if y0 < y_lo:
            y_lo = y0
        if y1 > y_hi:
            y_hi = y1
        a, b, c, e = xs[x0], ys[y0], xs[x1], ys[y1]
        fill = DOMINO_PALETTE["v" if vertical else "h", sign]
        svg.elems.append(
            f'<polygon points="{a},{b} {c},{b} {c},{e} {a},{e}" '
            f'fill="{fill}" stroke="#222222" stroke-width="0.60"/>'
        )
    if svg.elems:
        svg.min_x, svg.max_x = x_lo / 2 * s, x_hi / 2 * s
        svg.min_y, svg.max_y = y_hi / 2 * -s, y_lo / 2 * -s
    return svg.document()


def render_maya_particles(tiling: DominoTiling, style: RenderStyle) -> str:
    svg = _Svg()
    s = style.scale
    seen = set()
    for d in tiling.dominoes:
        if d.sign >= 0:
            continue
        for k, p in d.cells():
            if (k, p) in seen:
                continue
            seen.add((k, p))
            y = p / 2.0
            x = y - k
            svg.circle(x * s, -y * s, 0.32 * s, "#111111")
    return svg.document()


def render_svg(view, style: RenderStyle) -> str:
    if not 0 < style.scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {style.scale!r}")
    if style.model == "lozenge":
        if not isinstance(view, HeightMatrix):
            raise TypeError("lozenge rendering needs a plane partition view")
        return render_lozenge(view, style)
    if style.model == "domino":
        if not isinstance(view, DominoTiling):
            raise TypeError("domino rendering needs a steep-tiling view")
        return render_domino(view, style)
    if style.model == "maya-particles":
        if not isinstance(view, DominoTiling):
            raise TypeError("maya rendering needs a steep-tiling view")
        return render_maya_particles(view, style)
    raise ValueError(f"unknown render model {style.model!r}")

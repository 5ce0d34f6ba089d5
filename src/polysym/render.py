"""Deterministic SVG drawings of polygons and class galleries.

Vertex k sits at angle 2*pi*k/n, counterclockwise, with vertex 0 due
east.  Coordinates are written with exactly three decimals (round half
to even), so identical inputs yield byte-identical documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classification import generators, side_period
from .polygon_core import SideTuple, side_symmetry, validate_walk


@dataclass(frozen=True)
class RenderOptions:
    size_px: int = 320
    show_labels: bool = False
    show_axes: bool = False
    stroke_width: float = 1.5

    def __post_init__(self) -> None:
        if self.size_px < 64:
            raise ValueError(f"size_px must be at least 64, got {self.size_px}")
        if self.stroke_width <= 0:
            raise ValueError("stroke_width must be positive")


def _fmt(x: float) -> str:
    s = f"{x:.3f}"
    return "0.000" if s == "-0.000" else s


def _positions(n: int, cx: float, cy: float, r: float) -> list[tuple[float, float]]:
    out = []
    for k in range(n):
        angle = 2.0 * math.pi * k / n
        # SVG's y axis points down; negate to keep the walk counterclockwise
        out.append((cx + r * math.cos(angle), cy - r * math.sin(angle)))
    return out


def _cell_elements(t: SideTuple, opts: RenderOptions) -> list[str]:
    """Drawing elements of one polygon, in local cell coordinates."""
    n = t.n
    cycle = validate_walk(t)
    size = opts.size_px
    cx = cy = size / 2.0
    radius = size * 0.38
    pos = _positions(n, cx, cy, radius)
    sw = _fmt(opts.stroke_width)
    parts = []
    if opts.show_axes:
        reach = radius * 1.06
        for a in side_symmetry(n, t.sides).axes:
            angle = math.pi * a / n
            dx, dy = reach * math.cos(angle), -reach * math.sin(angle)
            parts.append(
                f'<line class="axis" x1="{_fmt(cx - dx)}" y1="{_fmt(cy - dy)}" '
                f'x2="{_fmt(cx + dx)}" y2="{_fmt(cy + dy)}" stroke="#888888" '
                f'stroke-width="{sw}" stroke-dasharray="6 4"/>'
            )
    for i in range(n):
        p = pos[cycle.vertices[i]]
        q = pos[cycle.vertices[(i + 1) % n]]
        parts.append(
            f'<line class="chord" x1="{_fmt(p[0])}" y1="{_fmt(p[1])}" '
            f'x2="{_fmt(q[0])}" y2="{_fmt(q[1])}" stroke="#1a1a1a" '
            f'stroke-width="{sw}"/>'
        )
    dot = max(1.5, size / 140.0)
    for k in range(n):
        parts.append(
            f'<circle class="vertex" cx="{_fmt(pos[k][0])}" cy="{_fmt(pos[k][1])}" '
            f'r="{_fmt(dot)}" fill="#1a1a1a"/>'
        )
    if opts.show_labels:
        font = max(9, size // 26)
        lpos = _positions(n, cx, cy, radius * 1.16)
        for k in range(n):
            parts.append(
                f'<text class="label" x="{_fmt(lpos[k][0])}" y="{_fmt(lpos[k][1])}" '
                f'font-size="{font}" font-family="sans-serif" fill="#1a1a1a" '
                f'text-anchor="middle" dominant-baseline="central">{k}</text>'
            )
    return parts


def caption_for(t: SideTuple) -> str:
    """Generator caption of a 3-periodic (or constant) side tuple.

    Axial tuples are written in their (a, b, a) rotation:

    >>> caption_for(SideTuple(9, (4, 7, 4) * 3))
    'a=4;b=7'
    """
    gens = generators(t.sides, side_period(t))
    if gens is None:
        return "sides=" + ",".join(str(e) for e in t.sides)
    return ";".join(f"{name}={g}" for name, g in zip("abc", gens))


def _caption_height(opts: RenderOptions) -> int:
    return max(10, opts.size_px // 24) + 14


def _svg_doc(width: int, height: int, parts: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {width} {height}" width="{width}" height="{height}">'
    )
    bg = f'<rect class="bg" x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>'
    return "\n".join([head, bg, *parts, "</svg>"]) + "\n"


def polygon_svg(t: SideTuple, opts: RenderOptions | None = None) -> str:
    """A standalone SVG document of one polygon."""
    opts = opts if opts is not None else RenderOptions()
    size = opts.size_px
    cell = ['<g class="cell">'] + _cell_elements(t, opts) + ["</g>"]
    return _svg_doc(size, size, cell)


def gallery_svg(
    ts: list[SideTuple],
    columns: int = 3,
    opts: RenderOptions | None = None,
) -> str:
    """A captioned grid of polygons, row-major, ``columns`` per row.

    An empty list yields an empty (but valid) document.
    """
    if columns < 1:
        raise ValueError(f"columns must be at least 1, got {columns}")
    opts = opts if opts is not None else RenderOptions()
    size = opts.size_px
    cap = _caption_height(opts)
    font = max(10, size // 24)
    rows = (len(ts) + columns - 1) // columns
    parts = []
    for i, t in enumerate(ts):
        row, col = divmod(i, columns)
        x = col * size
        y = row * (size + cap)
        parts.append(f'<g class="cell" transform="translate({x},{y})">')
        parts.extend(_cell_elements(t, opts))
        parts.append(
            f'<text class="caption" x="{_fmt(size / 2.0)}" y="{size + cap - 8}" '
            f'font-size="{font}" font-family="sans-serif" fill="#1a1a1a" '
            f'text-anchor="middle">{caption_for(t)}</text>'
        )
        parts.append("</g>")
    return _svg_doc(columns * size, rows * (size + cap), parts)

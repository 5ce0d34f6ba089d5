"""Deterministic SVG drawings of polygons and class galleries.

Vertex k sits at angle 2*pi*k/n, counterclockwise, with vertex 0 due
east.  Coordinates are written with exactly three decimals (round half
to even), so identical inputs yield byte-identical documents.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .classification import generators, side_period
from .polygon_core import SideTuple, block_symmetry, side_symmetry, validate_walk


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
        if not math.isfinite(self.stroke_width):
            raise ValueError(f"stroke_width must be finite, got {self.stroke_width}")


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


def _frame(n: int, opts: RenderOptions) -> tuple[list[str], ...]:
    """What every cell of one n shares under ``opts``, formatted once: the
    start and end halves of a chord element at each vertex, the vertex
    and label elements, and (with axes) the line of each mirror axis
    a = 0..n-1."""
    size = opts.size_px
    cx = cy = size / 2.0
    radius = size * 0.38
    sw = _fmt(opts.stroke_width)
    coords = [(_fmt(x), _fmt(y)) for x, y in _positions(n, cx, cy, radius)]
    starts = [f'<line class="chord" x1="{x}" y1="{y}" ' for x, y in coords]
    ends = [f'x2="{x}" y2="{y}" stroke="#1a1a1a" stroke-width="{sw}"/>' for x, y in coords]
    dot = _fmt(max(1.5, size / 140.0))
    fixed = [
        f'<circle class="vertex" cx="{x}" cy="{y}" r="{dot}" fill="#1a1a1a"/>' for x, y in coords
    ]
    if opts.show_labels:
        font = max(9, size // 26)
        for k, (x, y) in enumerate(_positions(n, cx, cy, radius * 1.16)):
            fixed.append(
                f'<text class="label" x="{_fmt(x)}" y="{_fmt(y)}" '
                f'font-size="{font}" font-family="sans-serif" fill="#1a1a1a" '
                f'text-anchor="middle" dominant-baseline="central">{k}</text>'
            )
    axis_lines = []
    if opts.show_axes:
        reach = radius * 1.06
        for a in range(n):
            angle = math.pi * a / n
            dx, dy = reach * math.cos(angle), -reach * math.sin(angle)
            axis_lines.append(
                f'<line class="axis" x1="{_fmt(cx - dx)}" y1="{_fmt(cy - dy)}" '
                f'x2="{_fmt(cx + dx)}" y2="{_fmt(cy + dy)}" stroke="#888888" '
                f'stroke-width="{sw}" stroke-dasharray="6 4"/>'
            )
    return starts, ends, fixed, axis_lines


def _block(t: SideTuple) -> tuple[int, int, int] | None:
    """The 3-block that t's sides repeat, as every family cell's do, or None."""
    block = t.sides[:3]
    return block if t.sides == block * (t.n // 3) else None


def _cell_elements(t: SideTuple, frame: tuple[list[str], ...]) -> list[str]:
    """Drawing elements of one polygon, in local cell coordinates;
    ``frame`` is ``_frame(t.n, opts)``."""
    starts, ends, fixed, axis_lines = frame
    verts = validate_walk(t).vertices
    axes: tuple[int, ...] = ()
    if axis_lines:
        block = _block(t)
        if block is not None:
            axes = block_symmetry(t.n, block).axes
        else:
            axes = side_symmetry(t.n, t.sides).axes
    parts = [axis_lines[a] for a in axes]
    parts += [starts[v] + ends[w] for v, w in zip(verts, verts[1:] + verts[:1])]
    parts += fixed
    return parts


def caption_for(t: SideTuple) -> str:
    """Generator caption of a 3-periodic (or constant) side tuple.

    Axial tuples are written in their (a, b, a) rotation:

    >>> caption_for(SideTuple(9, (4, 7, 4) * 3))
    'a=4;b=7'
    """
    block = _block(t)
    if block is not None:
        period = 1 if block[0] == block[1] == block[2] else 3
    else:
        period = side_period(t)
    gens = generators(t.sides, period)
    if gens is None:
        return "sides=" + ",".join(str(e) for e in t.sides)
    return ";".join(f"{name}={g}" for name, g in zip("abc", gens))


def _caption_height(opts: RenderOptions) -> int:
    return max(10, opts.size_px // 24) + 14


def _svg_head(width: int, height: int) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {width} {height}" width="{width}" height="{height}">\n'
        f'<rect class="bg" x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>\n'
    )


def polygon_svg(t: SideTuple, opts: RenderOptions | None = None) -> str:
    """A standalone SVG document of one polygon."""
    opts = opts if opts is not None else RenderOptions()
    size = opts.size_px
    cell = ['<g class="cell">', *_cell_elements(t, _frame(t.n, opts)), "</g>", "</svg>\n"]
    return _svg_head(size, size) + "\n".join(cell)


def gallery_parts(
    ts: Iterable[SideTuple],
    count: int,
    columns: int = 3,
    opts: RenderOptions | None = None,
) -> Iterator[str]:
    """The text of ``gallery_svg`` in pieces, as ``ts`` yields its polygons:
    the document head, one string per cell, and the closing tag.

    ``count`` is the number of polygons in ``ts``, which sizes the
    document before the first cell is drawn; if ``ts`` ends after another
    number, ValueError is raised in place of the closing tag.
    """
    if columns < 1:
        raise ValueError(f"columns must be at least 1, got {columns}")
    opts = opts if opts is not None else RenderOptions()
    size = opts.size_px
    cap = _caption_height(opts)
    font = max(10, size // 24)
    rows = (count + columns - 1) // columns
    caption = (
        f'<text class="caption" x="{_fmt(size / 2.0)}" y="{size + cap - 8}" '
        f'font-size="{font}" font-family="sans-serif" fill="#1a1a1a" '
        f'text-anchor="middle">'
    )
    yield _svg_head(columns * size, rows * (size + cap))
    frames: dict[int, tuple[list[str], ...]] = {}
    drawn = 0
    for i, t in enumerate(ts):
        frame = frames.get(t.n)
        if frame is None:
            frame = frames[t.n] = _frame(t.n, opts)
        row, col = divmod(i, columns)
        yield "\n".join(
            [
                f'<g class="cell" transform="translate({col * size},{row * (size + cap)})">',
                *_cell_elements(t, frame),
                f"{caption}{caption_for(t)}</text>",
                "</g>\n",
            ]
        )
        drawn = i + 1
    if drawn != count:
        raise ValueError(f"the gallery was sized for {count} cells but drew {drawn}")
    yield "</svg>\n"


def gallery_svg(
    ts: list[SideTuple],
    columns: int = 3,
    opts: RenderOptions | None = None,
) -> str:
    """A captioned grid of polygons, row-major, ``columns`` per row.

    An empty list yields an empty (but valid) document.
    """
    return "".join(gallery_parts(ts, len(ts), columns, opts))

import itertools
import random
import re
import xml.etree.ElementTree as ET

import pytest

import polysym as ps
from polysym import RenderOptions, SideTuple, render
from polysym.classification import generators, side_period
from polysym.cli import main
from walks import (
    family_walk,
    mirrored_walk,
    periodic_walk,
    random_walk,
    reference_cell_elements,
    reversing_walk,
)

SVG_NS = "{http://www.w3.org/2000/svg}"

AXIAL9 = SideTuple(9, (1, 4, 1) * 3)
CIRC9 = SideTuple(9, (1, 4, 7) * 3)
STAR9 = SideTuple(9, (2,) * 9)


def by_class(doc, cls):
    root = ET.fromstring(doc)
    return [el for el in root.iter() if el.get("class") == cls]


class TestRenderOptions:
    def test_defaults(self):
        o = RenderOptions()
        assert (o.size_px, o.show_labels, o.show_axes, o.stroke_width) == (
            320, False, False, 1.5,
        )

    def test_rejects_tiny_canvas(self):
        with pytest.raises(ValueError):
            RenderOptions(size_px=63)

    def test_rejects_nonpositive_stroke(self):
        for width in (0, -1.5, float("-inf")):
            with pytest.raises(ValueError, match="^stroke_width must be positive$"):
                RenderOptions(stroke_width=width)

    @pytest.mark.parametrize("width", [float("nan"), float("inf")])
    def test_rejects_nonfinite_stroke(self, width):
        # neither is an SVG length
        with pytest.raises(ValueError, match="^stroke_width must be finite"):
            RenderOptions(stroke_width=width)


class TestPolygonSvg:
    def test_byte_determinism(self):
        opts = RenderOptions(show_axes=True, show_labels=True)
        assert ps.polygon_svg(AXIAL9, opts) == ps.polygon_svg(AXIAL9, opts)

    def test_one_chord_per_side(self):
        doc = ps.polygon_svg(AXIAL9)
        assert len(by_class(doc, "chord")) == 9
        assert len(by_class(doc, "vertex")) == 9
        assert len(by_class(doc, "label")) == 0
        assert len(by_class(doc, "axis")) == 0

    def test_axes_drawn_only_when_present(self):
        opts = RenderOptions(show_axes=True)
        assert len(by_class(ps.polygon_svg(AXIAL9, opts), "axis")) == 3
        assert len(by_class(ps.polygon_svg(STAR9, opts), "axis")) == 9
        assert len(by_class(ps.polygon_svg(CIRC9, opts), "axis")) == 0

    def test_labels(self):
        doc = ps.polygon_svg(AXIAL9, RenderOptions(show_labels=True))
        labels = by_class(doc, "label")
        assert [el.text for el in labels] == [str(v) for v in range(9)]

    def test_vertex_zero_points_east_and_walk_goes_counterclockwise(self):
        doc = ps.polygon_svg(AXIAL9, RenderOptions(size_px=160))
        first = by_class(doc, "vertex")[0]
        assert float(first.get("cx")) > 80.0
        assert float(first.get("cy")) == 80.0
        second = by_class(doc, "vertex")[1]  # vertex 1, one step counterclockwise
        assert float(second.get("cy")) < 80.0

    def test_chords_trace_the_walk(self):
        doc = ps.polygon_svg(AXIAL9)
        chords = by_class(doc, "chord")
        for prev, cur in zip(chords, chords[1:]):
            assert (prev.get("x2"), prev.get("y2")) == (cur.get("x1"), cur.get("y1"))
        assert (chords[-1].get("x2"), chords[-1].get("y2")) == (
            chords[0].get("x1"),
            chords[0].get("y1"),
        )

    def test_coordinates_use_three_decimals(self):
        doc = ps.polygon_svg(AXIAL9, RenderOptions(show_axes=True))
        coords = re.findall(r'\b(?:x1|y1|x2|y2|cx|cy)="([^"]+)"', doc)
        assert coords
        for c in coords:
            assert re.fullmatch(r"-?\d+\.\d{3}", c), c
            assert c != "-0.000"

    def test_rejects_invalid_walks(self):
        with pytest.raises(ps.WalkError):
            ps.polygon_svg(SideTuple(6, (2,) * 6))


class TestCaptionFor:
    def test_axial_pairs_normalize_regardless_of_anchor(self):
        assert ps.caption_for(SideTuple(9, (1, 4, 1) * 3)) == "a=1;b=4"
        assert ps.caption_for(SideTuple(9, (1, 1, 4) * 3)) == "a=1;b=4"
        assert ps.caption_for(SideTuple(9, (4, 1, 1) * 3)) == "a=1;b=4"
        assert ps.caption_for(SideTuple(12, (11, 5, 11) * 4)) == "a=11;b=5"

    def test_distinct_triples(self):
        assert ps.caption_for(CIRC9) == "a=1;b=4;c=7"
        assert ps.caption_for(SideTuple(9, (2, 5, 8) * 3)) == "a=2;b=5;c=8"

    def test_regular(self):
        assert ps.caption_for(STAR9) == "a=2"

    def test_block_period_matches_side_period(self):
        # every 3-block repeated, against the caption from the side period
        for n in (3, 6, 9, 12):
            for block in itertools.product(range(1, n), repeat=3):
                t = SideTuple(n, block * (n // 3))
                gens = generators(t.sides, side_period(t))
                expected = (
                    ";".join(f"{name}={g}" for name, g in zip("abc", gens))
                    if gens is not None
                    else "sides=" + ",".join(str(e) for e in t.sides)
                )
                assert ps.caption_for(t) == expected, t

    def test_generic_fallback(self):
        assert ps.caption_for(SideTuple(6, (1, 2, 1, 4, 3, 1))) == "sides=1,2,1,4,3,1"


class TestGallerySvg:
    def test_byte_determinism(self):
        ts = [AXIAL9, CIRC9, STAR9]
        assert ps.gallery_svg(ts) == ps.gallery_svg(ts)

    def test_grid_layout(self):
        ts = [AXIAL9, CIRC9, STAR9, AXIAL9, CIRC9]
        doc = ps.gallery_svg(ts, columns=2)
        cells = by_class(doc, "cell")
        assert [c.get("transform") for c in cells] == [
            "translate(0,0)",
            "translate(320,0)",
            "translate(0,347)",
            "translate(320,347)",
            "translate(0,694)",
        ]
        root = ET.fromstring(doc)
        assert root.get("viewBox") == "0 0 640 1041"

    def test_captions_per_cell(self):
        doc = ps.gallery_svg([AXIAL9, CIRC9], columns=2)
        caps = by_class(doc, "caption")
        assert [c.text for c in caps] == ["a=1;b=4", "a=1;b=4;c=7"]

    def test_each_cell_draws_its_polygon(self):
        doc = ps.gallery_svg([AXIAL9, CIRC9], columns=2)
        for cell in by_class(doc, "cell"):
            chords = [el for el in cell.iter() if el.get("class") == "chord"]
            assert len(chords) == 9

    def test_empty_gallery_is_a_valid_document(self):
        doc = ps.gallery_svg([])
        root = ET.fromstring(doc)
        assert root.get("viewBox") == "0 0 960 0"
        assert not by_class(doc, "cell")

    def test_rejects_bad_column_count(self):
        with pytest.raises(ValueError):
            ps.gallery_svg([AXIAL9], columns=0)


class TestGalleryFrame:
    """Each cell is drawn from a frame formatted once per n and options."""

    OPTIONS = (
        RenderOptions(),
        RenderOptions(show_axes=True, show_labels=True),
        RenderOptions(size_px=64, stroke_width=0.5, show_axes=True),
        RenderOptions(size_px=501, stroke_width=2.25, show_labels=True),
    )

    @staticmethod
    def walks(rng: random.Random, n: int) -> list[list[int]]:
        out = [[1] * n, random_walk(rng, n), mirrored_walk(rng, n, n % 2 == 0)]
        divisors = [d for d in range(2, n) if n % d == 0]
        if divisors:
            out.append(periodic_walk(rng, n, divisors[0]))
        if n % 2 == 0:
            out.append(reversing_walk(rng, n))
        if n % 3 == 0:
            out += [family_walk(rng, n, "axial"), family_walk(rng, n, "circular")]
        return out

    def test_cell_elements_match_the_per_cell_reference(self):
        rng = random.Random(2019)
        for n in range(9, 61):
            walks = [SideTuple(n, w) for w in self.walks(rng, n)]
            for opts in self.OPTIONS:
                frame = render._frame(n, opts)
                for t in walks:
                    assert render._cell_elements(t, frame) == reference_cell_elements(t, opts)

    def test_numbers_are_formatted_once_per_gallery(self, monkeypatch, tmp_path, capsys):
        calls = []
        fmt = render._fmt
        monkeypatch.setattr(render, "_fmt", lambda x: calls.append(x) or fmt(x))
        argv = ["render", "--m", "8", "--family", "circular", "--axes", "--labels"]
        assert main(argv + ["--out", str(tmp_path / "g.svg")]) == 0
        n, cells = 24, ps.count_circular(8)
        assert capsys.readouterr().out.endswith(f": {cells} classes\n")
        # one frame: vertex, label and axis coordinates, O(n) in all;
        # formatting per cell would take at least 2n calls per cell
        assert 0 < len(calls) <= 10 * n < 2 * n * cells

"""The side-sequence symmetry kernel against the geometric definitions.

The reference is the edge-set scan: a rotation or mirror is a symmetry
when ``rotate_edges`` or ``reflect_edges`` maps the chord set onto
itself.  The canonical form is pinned against the least of all 2n
candidate slices, and the side period against the divisor loop.
"""

from __future__ import annotations

import random

import pytest

import polysym as ps
from polysym import SideTuple, SymmetryProfile, WalkError
from polysym.polygon_core import (
    block_symmetry,
    canonical_sides,
    least_period,
    least_rotation,
    side_symmetry,
)
from walks import (
    family_walk,
    mirrored_walk,
    periodic_walk,
    random_walk,
    reversing_walk,
    slice_canonical,
    undirected_cycles,
)


def edge_reference(t: SideTuple) -> tuple[SymmetryProfile, tuple[int, ...]]:
    """Profile and mirror axes of a valid walk by scanning its chord set."""
    e = ps.edge_set(ps.validate_walk(t))
    axes = tuple(a for a in range(t.n) if ps.reflect_edges(e, a) == e)
    return ps.symmetry_profile(e), axes


def divisor_period(sides) -> int:
    n = len(sides)
    return next(
        p for p in range(1, n + 1)
        if n % p == 0 and all(sides[i] == sides[i % p] for i in range(p, n))
    )


def assert_matches_reference(t: SideTuple) -> None:
    sym = side_symmetry(t.n, t.sides)
    profile, axes = edge_reference(t)
    assert sym.profile == profile, t
    assert sym.axes == axes, t
    assert sym.period == divisor_period(t.sides), t
    assert ps.canonical_form(t).sides == slice_canonical(t.n, t.sides), t


class TestEveryCycle:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_profile_axes_period_and_canonical_form(self, n):
        for t in undirected_cycles(n):
            assert_matches_reference(t)


class TestEveryPeriodThreeBlock:
    @pytest.mark.parametrize("m", range(3, 9))
    def test_matches_block_forms(self, m):
        n = 3 * m
        checked = 0
        for a in range(1, n):
            for b in range(1, n):
                for c in range(1, n):
                    t = SideTuple(n, (a, b, c) * m)
                    try:
                        ps.validate_walk(t)
                    except WalkError:
                        continue
                    checked += 1
                    sym = side_symmetry(n, t.sides)
                    block = block_symmetry(n, (a, b, c))
                    assert block.block == canonical_sides(n, t.sides)[:3], t
                    assert block.profile == sym.profile, t
                    assert block.axes == sym.axes, t
                    assert sym.period in (1, 3), t
                    assert ps.canonical_form(t).sides == ps.canonical_period3(n, (a, b, c))
        assert checked > 0


class TestLargeWalks:
    """Sizes above 256, where sides no longer fit one byte each."""

    @pytest.mark.parametrize("n", [257, 303, 903])
    def test_seeded_walks(self, n):
        rng = random.Random(n)
        walks = [random_walk(rng, n), mirrored_walk(rng, n, True)]
        if n % 2 == 0:
            walks.append(reversing_walk(rng, n))
        if n % 3 == 0:
            walks += [family_walk(rng, n, "axial"), periodic_walk(rng, n, n // 3)]
        elif n > 300:
            walks.append(periodic_walk(rng, n, 1))
        for sides in walks:
            assert_matches_reference(SideTuple(n, tuple(sides)))

    def test_regular_walk_at_prime_n(self):
        n = 257
        sym = side_symmetry(n, [5] * n)
        assert sym.profile == SymmetryProfile(n, n)
        assert sym.axes == tuple(range(n))
        assert sym.period == 1


class TestPrimitives:
    def test_least_rotation(self):
        assert least_rotation((3, 1, 2)) == 1
        assert least_rotation((2, 2, 1, 2, 2, 1)) in (2, 5)
        assert least_rotation((7,)) == 0
        for sides in ([1, 2, 1, 1], [5, 4, 3, 2, 1], [2, 1, 2, 1, 1]):
            k = least_rotation(sides)
            assert sides[k:] + sides[:k] == min(sides[i:] + sides[:i] for i in range(len(sides)))

    def test_least_period(self):
        assert least_period((2,) * 9) == 1
        assert least_period((1, 4, 1) * 3) == 3
        assert least_period((1, 2, 1, 4, 3, 1)) == 6
        # a border that does not divide n is not a cyclic period
        assert least_period((1, 2, 1, 2, 1)) == 5

    def test_canonical_sides_accepts_lists(self):
        assert canonical_sides(9, [4, 7, 4] * 3) == (2, 5, 5) * 3

"""The side-sequence symmetry kernel against the geometric definitions.

The reference is the chord scan ``walks.chord_symmetry``: a rotation or
mirror is a symmetry when it maps every chord of the walk into its chord
set.  That scan is pinned against the package's edge-set scan,
``symmetry_profile``, which builds each image in full.  The canonical
form is pinned against the least of all 2n candidate slices, and the
side period against the divisor loop.
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
    chord_symmetry,
    family_walk,
    mirrored_periodic_walk,
    mirrored_walk,
    periodic_walk,
    random_walk,
    reversing_walk,
    slice_canonical,
)


def divisor_period(sides) -> int:
    n = len(sides)
    return next(
        p for p in range(1, n + 1)
        if n % p == 0 and all(sides[i] == sides[i % p] for i in range(p, n))
    )


def assert_matches_reference(t: SideTuple, scan=None) -> tuple[int, ...]:
    """Check the kernel against the references, with ``scan`` the walk's
    ``chord_symmetry`` if it is already known; return the mirror axes."""
    sym = side_symmetry(t.n, t.sides)
    profile, axes = scan or chord_symmetry(t)
    assert sym.profile == profile, t
    assert sym.axes == axes, t
    assert sym.period == divisor_period(t.sides), t
    canonical = slice_canonical(t.n, t.sides)
    assert ps.canonical_form(t).sides == canonical, t
    assert sym.block * (t.n // sym.period) == canonical, t
    return axes


class TestEveryCycle:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_profile_axes_period_and_canonical_form(self, n, chord_scans):
        for t, scan in chord_scans(n):
            assert_matches_reference(t, scan)


class TestChordScan:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_the_edge_set_scan(self, n, chord_scans):
        for t, (profile, axes) in chord_scans(n):
            e = ps.edge_set(ps.validate_walk(t))
            assert profile == ps.symmetry_profile(e), t
            assert axes == tuple(a for a in range(n) if ps.reflect_edges(e, a) == e), t


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
            walks.append(family_walk(rng, n, "circular"))
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


class TestEveryProperPeriod:
    """The kernel searches one period of the sides and places the other
    n/p - 1 mirror starts at steps of p.  At n = 60, every proper period
    p gets a walk with no mirror, one whose mirror fixes a vertex (an even
    axis) and one whose mirror fixes none (an odd axis), where p allows
    them: p = 1 is the regular star, every 2-periodic walk is fixed by
    mirrors through chords only, and for odd p one mirror of each kind
    comes together."""

    @pytest.mark.parametrize("p", [p for p in range(1, 60) if 60 % p == 0])
    def test_matches_reference(self, p):
        n = 60
        rng = random.Random(p)
        walks = [] if p == 2 else [mirrored_periodic_walk(rng, n, p, False)]
        if p % 2 == 0:
            walks.append(mirrored_periodic_walk(rng, n, p, True))
        if p > 2:
            walks.append(next(
                sides for sides in (periodic_walk(rng, n, p) for _ in range(100))
                if divisor_period(sides) == p and not chord_symmetry(SideTuple(n, tuple(sides)))[1]
            ))
        kinds = set()
        for sides in walks:
            assert divisor_period(sides) == p
            axes = assert_matches_reference(SideTuple(n, tuple(sides)))
            kinds |= {("edge", "vertex")[a % 2 == 0] for a in axes} or {"none"}
        expected = {1: {"vertex", "edge"}, 2: {"edge"}}.get(p, {"none", "vertex", "edge"})
        assert kinds == expected


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

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import polysym as ps
from polysym import (
    EdgeSet,
    InvalidSideTuple,
    NotClosed,
    PrematureClosure,
    SideTuple,
    SymmetryProfile,
    VertexCycle,
    WalkError,
)
from polysym.polygon_core import block_symmetry

HEXAGON = SideTuple(6, (1, 2, 1, 4, 3, 1))
AXIAL9 = SideTuple(9, (1, 4, 1) * 3)
CIRC9 = SideTuple(9, (1, 4, 7) * 3)
STAR9 = SideTuple(9, (2,) * 9)


def cycle_sides(n, rest):
    """Side tuple of the cycle visiting 0, then `rest` (a permutation of 1..n-1)."""
    verts = (0,) + tuple(rest)
    return SideTuple(n, tuple((verts[(i + 1) % n] - verts[i]) % n for i in range(n)))


def all_cycles(n):
    from itertools import permutations

    for rest in permutations(range(1, n)):
        yield cycle_sides(n, rest)


class TestSideTuple:
    def test_rejects_small_n(self):
        with pytest.raises(InvalidSideTuple):
            SideTuple(2, (1, 1))

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidSideTuple):
            SideTuple(6, (1, 2, 3))

    def test_rejects_out_of_range_sides(self):
        with pytest.raises(InvalidSideTuple):
            SideTuple(6, (0, 2, 1, 4, 3, 2))
        with pytest.raises(InvalidSideTuple):
            SideTuple(6, (6, 2, 1, 4, 3, 2))

    @pytest.mark.parametrize(
        "sides, bad",
        [
            ((0, 2, 1, 4, 3, 2), 0),
            ((1, 2, 9, 4, -1, 2), 9),
            ((1, 2, 1, 4, 3, 6), 6),
            ((1, 2, 1, 7, 3, 0), 7),
        ],
    )
    def test_out_of_range_message_names_the_first_bad_side(self, sides, bad):
        with pytest.raises(InvalidSideTuple) as err:
            SideTuple(6, sides)
        assert str(err.value) == f"side {bad} outside valid range 1..5"

    def test_is_hashable_and_frozen(self):
        assert hash(HEXAGON) == hash(SideTuple(6, (1, 2, 1, 4, 3, 1)))
        with pytest.raises(AttributeError):
            HEXAGON.n = 7


class TestPrefixSums:
    def test_hexagon(self):
        assert ps.prefix_sums(HEXAGON) == [1, 3, 4, 8, 11, 12]

    def test_axial_nonagon(self):
        assert ps.prefix_sums(AXIAL9) == [1, 5, 6, 7, 11, 12, 13, 17, 18]

    def test_last_sum_is_total(self):
        for t in (HEXAGON, AXIAL9, CIRC9, STAR9):
            assert ps.prefix_sums(t)[-1] == sum(t.sides)

    def test_closed_form_for_repeated_pair_blocks(self):
        # s_{3k} = k*(2a+b) and s_i = i (mod 3) whenever a = b = 1 (mod 3),
        # regardless of whether the walk is a valid polygon.
        for m in range(3, 31):
            n = 3 * m
            vals = range(1, n - 1, 3)
            for a in vals:
                for b in vals:
                    s = ps.prefix_sums(SideTuple(n, (a, b, a) * m))
                    for k in range(1, m + 1):
                        assert s[3 * k - 1] == k * (2 * a + b)
                    assert all(s[i - 1] % 3 == i % 3 for i in range(1, n + 1))

    def test_closed_form_for_repeated_triple_blocks(self):
        for m in range(3, 13):
            n = 3 * m
            vals = range(1, n - 1, 3)
            for a in vals:
                for b in vals:
                    for c in vals:
                        s = ps.prefix_sums(SideTuple(n, (a, b, c) * m))
                        for k in range(1, m + 1):
                            assert s[3 * k - 1] == k * (a + b + c)
                        assert all(s[i - 1] % 3 == i % 3 for i in range(1, n + 1))


class TestValidateWalk:
    def test_hexagon_vertices(self):
        assert ps.validate_walk(HEXAGON) == VertexCycle(6, (0, 1, 3, 4, 2, 5))

    def test_axial_nonagon_vertices(self):
        assert ps.validate_walk(AXIAL9).vertices == (0, 1, 5, 6, 7, 2, 3, 4, 8)

    def test_premature_closure_at_origin(self):
        with pytest.raises(PrematureClosure) as exc:
            ps.validate_walk(SideTuple(6, (2,) * 6))
        assert exc.value.index == 3
        assert "premature closure at i=3" in str(exc.value)

    def test_premature_revisit_of_nonzero_vertex(self):
        # Prefix sums (1, 2, 7, 8, 9, 12) never hit 0 mod 6 early, yet the
        # walk revisits vertex 1 at step 3: 0 -> 1 -> 2 -> 1. A polygon must
        # visit every vertex exactly once, so this is rejected too.
        t = SideTuple(6, (1, 1, 5, 1, 1, 3))
        assert all(s % 6 != 0 for s in ps.prefix_sums(t)[:-1])
        with pytest.raises(PrematureClosure) as exc:
            ps.validate_walk(t)
        assert exc.value.index == 3

    def test_not_closed(self):
        with pytest.raises(NotClosed) as exc:
            ps.validate_walk(SideTuple(9, (1,) * 8 + (2,)))
        assert exc.value.final_vertex == 1

    def test_walk_errors_are_value_errors(self):
        assert issubclass(PrematureClosure, WalkError)
        assert issubclass(NotClosed, WalkError)
        assert issubclass(WalkError, ValueError)

    def test_vertex_cycle_must_be_permutation_from_zero(self):
        with pytest.raises(ValueError):
            VertexCycle(6, (1, 0, 3, 4, 2, 5))
        with pytest.raises(ValueError):
            VertexCycle(6, (0, 1, 3, 4, 2, 2))


class TestRevolutions:
    def test_examples(self):
        assert ps.revolutions(HEXAGON) == 2
        assert ps.revolutions(AXIAL9) == 2
        assert ps.revolutions(CIRC9) == 4
        assert ps.revolutions(STAR9) == 2
        assert ps.revolutions(SideTuple(6, (1,) * 6)) == 1

    def test_rejects_non_multiple_totals(self):
        with pytest.raises(WalkError):
            ps.revolutions(SideTuple(9, (1,) * 8 + (2,)))


class TestEdgeSet:
    def test_edges_of_hexagon(self):
        e = ps.edge_set(ps.validate_walk(HEXAGON))
        assert e.edges == frozenset(
            {(0, 1), (1, 3), (3, 4), (2, 4), (2, 5), (0, 5)}
        )

    def test_every_vertex_has_degree_two(self):
        for t in (HEXAGON, AXIAL9, CIRC9):
            e = ps.edge_set(ps.validate_walk(t))
            deg = [0] * t.n
            for v, w in e.edges:
                assert v < w
                deg[v] += 1
                deg[w] += 1
            assert deg == [2] * t.n

    def test_rejects_degree_violation(self):
        with pytest.raises(ValueError):
            EdgeSet(4, frozenset({(0, 1), (1, 2), (2, 3), (1, 3)}))

    def test_rotate_composition(self):
        e = ps.edge_set(ps.validate_walk(HEXAGON))
        for j in range(6):
            for k in range(6):
                assert ps.rotate_edges(ps.rotate_edges(e, j), k) == ps.rotate_edges(
                    e, (j + k) % 6
                )

    def test_rotate_rejects_out_of_range(self):
        e = ps.edge_set(ps.validate_walk(HEXAGON))
        with pytest.raises(ValueError):
            ps.rotate_edges(e, 6)
        with pytest.raises(ValueError):
            ps.rotate_edges(e, -1)

    def test_reflect_is_involution(self):
        e = ps.edge_set(ps.validate_walk(AXIAL9))
        for axis in range(18):
            assert ps.reflect_edges(ps.reflect_edges(e, axis), axis) == e

    def test_reflect_axis_pairs_coincide(self):
        # axis and axis+n describe the same mirror line
        e = ps.edge_set(ps.validate_walk(HEXAGON))
        for axis in range(6):
            assert ps.reflect_edges(e, axis) == ps.reflect_edges(e, axis + 6)

    def test_reflect_rejects_out_of_range(self):
        e = ps.edge_set(ps.validate_walk(HEXAGON))
        with pytest.raises(ValueError):
            ps.reflect_edges(e, 12)


class TestSymmetryProfile:
    def test_profile_values(self):
        cases = [
            (HEXAGON, (1, 0)),
            (AXIAL9, (3, 3)),
            (SideTuple(9, (4, 7, 4) * 3), (3, 3)),
            (CIRC9, (3, 0)),
            (SideTuple(9, (1, 7, 4) * 3), (3, 0)),
            (STAR9, (9, 9)),
            (SideTuple(6, (1,) * 6), (6, 6)),
            (SideTuple(12, (1, 7, 1) * 4), (4, 4)),
        ]
        for t, (rot, axes) in cases:
            p = ps.symmetry_profile(ps.edge_set(ps.validate_walk(t)))
            assert (p.rotation_order, p.axis_count) == (rot, axes), t

    def test_axial_nonagon_mirror_axes(self):
        e = ps.edge_set(ps.validate_walk(AXIAL9))
        hits = [a for a in range(9) if ps.reflect_edges(e, a) == e]
        assert hits == [0, 3, 6]

    def test_axis_count_must_be_zero_or_rotation_order(self):
        with pytest.raises(ValueError):
            SymmetryProfile(3, 1)
        with pytest.raises(ValueError):
            SymmetryProfile(3, 6)

    def test_rotation_order_divides_n_exhaustive_n7(self):
        for t in all_cycles(7):
            try:
                c = ps.validate_walk(t)
            except WalkError:
                continue
            p = ps.symmetry_profile(ps.edge_set(c))
            assert 7 % p.rotation_order == 0


class TestCanonicalForm:
    def test_hexagon(self):
        assert ps.canonical_form(HEXAGON).sides == (1, 1, 2, 1, 4, 3)

    def test_axial_nonagon(self):
        assert ps.canonical_form(AXIAL9).sides == (1, 1, 4) * 3

    def test_reversed_complement_frame_can_win(self):
        # (4,7,4) repeats canonicalize through their reversed complement (2,5,5)
        assert ps.canonical_form(SideTuple(9, (4, 7, 4) * 3)).sides == (2, 5, 5) * 3

    def test_congruent_pair_shares_canonical_form(self):
        a = ps.canonical_form(SideTuple(12, (1, 7, 1) * 4))
        b = ps.canonical_form(SideTuple(12, (11, 5, 11) * 4))
        assert a == b
        assert a.sides == (1, 1, 7) * 4

    def test_reversed_complement_example(self):
        assert ps.reversed_complement(CIRC9).sides == (2, 5, 8) * 3
        assert ps.reversed_complement(HEXAGON).sides == (5, 3, 2, 5, 4, 5)

    def test_reversed_complement_is_involution(self):
        for t in (HEXAGON, AXIAL9, CIRC9, STAR9):
            assert ps.reversed_complement(ps.reversed_complement(t)) == t

    def test_cyclic_shift_wraps(self):
        assert ps.cyclic_shift(HEXAGON, 2).sides == (1, 4, 3, 1, 1, 2)
        assert ps.cyclic_shift(HEXAGON, 6) == HEXAGON
        assert ps.cyclic_shift(HEXAGON, -1) == ps.cyclic_shift(HEXAGON, 5)

    def test_rejects_invalid_walks(self):
        with pytest.raises(WalkError):
            ps.canonical_form(SideTuple(6, (2,) * 6))

    @given(rest=st.permutations(list(range(1, 9))), k=st.integers(0, 8))
    def test_shift_invariance(self, rest, k):
        t = cycle_sides(9, rest)
        assert ps.canonical_form(ps.cyclic_shift(t, k)) == ps.canonical_form(t)

    @given(rest=st.permutations(list(range(1, 9))))
    def test_reversal_invariance_and_idempotence(self, rest):
        t = cycle_sides(9, rest)
        c = ps.canonical_form(t)
        assert ps.canonical_form(ps.reversed_complement(t)) == c
        assert ps.canonical_form(c) == c
        assert c.sides <= t.sides

    @given(rest=st.permutations(list(range(1, 8))))
    def test_canonical_preserves_edge_set(self, rest):
        t = cycle_sides(8, rest)
        c = ps.canonical_form(t)
        rots = {
            ps.rotate_edges(ps.edge_set(ps.validate_walk(t)), k) for k in range(8)
        }
        assert ps.edge_set(ps.validate_walk(c)) in rots


class TestPeriodThreeFastPaths:
    """The O(1) repeated-block routines must agree with the generic geometry."""

    @pytest.mark.parametrize("m", [3, 4])
    def test_profile_matches_geometry(self, m):
        n = 3 * m
        for a in range(1, n):
            for b in range(1, n):
                for c in range(1, n):
                    t = SideTuple(n, (a, b, c) * m)
                    try:
                        cyc = ps.validate_walk(t)
                    except WalkError:
                        continue
                    sym = block_symmetry(n, (a, b, c))
                    e = ps.edge_set(cyc)
                    assert sym.profile == ps.symmetry_profile(e), (a, b, c)
                    mirrors = tuple(x for x in range(n) if ps.reflect_edges(e, x) == e)
                    assert sym.axes == mirrors, (a, b, c)

    @pytest.mark.parametrize("m", [3, 4])
    def test_canonical_matches_geometry(self, m):
        n = 3 * m
        for a in range(1, n):
            for b in range(1, n):
                for c in range(1, n):
                    t = SideTuple(n, (a, b, c) * m)
                    try:
                        ps.validate_walk(t)
                    except WalkError:
                        continue
                    assert (
                        ps.canonical_period3(n, (a, b, c))
                        == ps.canonical_form(t).sides
                    ), (a, b, c)

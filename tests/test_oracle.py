import dataclasses
import functools
import gc
import math
import tracemalloc
from collections import Counter

import pytest

import polysym as ps
from polysym import (
    FamilyTag,
    MTooSmall,
    NTooLarge,
    NTooSmall,
    SideTuple,
    VerificationError,
    WalkError,
)
import polysym.oracle as oracle
from polysym.oracle import (
    RowBlocks,
    _scan_axial_count,
    _scan_circular_count,
    _sweep_shard,
    _third_sides,
    _walk_sets,
    theorem_axial_blocks,
    theorem_circular_blocks,
)
from polysym.polygon_core import canonical_sides, side_symmetry
from walks import (
    reference_axial_count,
    reference_census_shard,
    reference_circular_count,
    reference_orbit_least,
    reference_sweep,
    reference_sweep_shard,
    reference_theorem_blocks,
    reference_theorem_gcd,
    rotatable_cycles,
    slice_canonical,
    undirected_cycles,
    walk3,
)

# (axial, circular, regular, other, census_size) per n, frozen from a
# hand-checked run and re-derived below for n = 6 and 9 by the generic
# geometric scan.
CENSUS_EXPECTED = {
    3: (0, 0, 1, 0, 1),
    4: (0, 0, 1, 1, 3),
    5: (0, 0, 2, 0, 12),
    6: (0, 0, 1, 6, 60),
    7: (0, 0, 3, 0, 360),
    8: (0, 0, 2, 30, 2520),
    9: (3, 2, 3, 0, 20160),
}


def generic_census(n, scans):
    """Slow reference census using only the geometric chord scan: ``scans``
    holds every cycle on n vertices with its ``chord_symmetry``."""
    axial, circular, regular = set(), set(), set()
    other = set()
    count = 0
    for t, (p, _) in scans:
        count += 1
        if p.rotation_order == 1:
            continue
        c = ps.canonical_form(t)
        if p.axis_count == n:
            regular.add(c)
        elif n % 3 == 0 and n // 3 > 2 and p.axis_count == n // 3:
            axial.add(c)
        elif n % 3 == 0 and n // 3 > 2 and p.axis_count == 0 and p.rotation_order == n // 3:
            circular.add(c)
        else:
            other.add(c)
    return axial, circular, regular, other, count


def census_results(r):
    """The five results of a census report, and the cycles it profiled."""
    return (
        r.axial_classes,
        r.circular_classes,
        r.regular_classes,
        r.other_count,
        r.census_size,
        r.stats["profiled"],
    )


@functools.lru_cache(maxsize=None)
def serial_census(n):
    return ps.census_full(n)


@functools.lru_cache(maxsize=None)
def reference_shard(n, second):
    return reference_census_shard(n, second)


def reference_census(n):
    """The census results of ``reference_census_shard``, merged over
    second = 1..n-1, and the cycles its screen kept."""
    axial, circular, regular, other = set(), set(), set(), set()
    count = kept = 0
    for second in range(1, n):
        ax, ci, re, ot, cnt, kpt = reference_shard(n, second)
        axial |= ax
        circular |= ci
        regular |= re
        other |= ot
        count += cnt
        kept += kpt
    return (
        frozenset(SideTuple(n, k) for k in axial),
        frozenset(SideTuple(n, k) for k in circular),
        frozenset(SideTuple(n, k) for k in regular),
        len(other),
        count,
        kept,
    )


class TestCensusKernel:
    """The pruned census search against the per-permutation reference."""

    @pytest.mark.parametrize("n", range(3, 11))
    def test_matches_permutation_reference(self, n):
        assert census_results(serial_census(n)) == reference_census(n)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_each_shard_matches_permutation_reference(self, n):
        # a search over one second vertex, with a memo of its own: class
        # sets, cycle count and profiled count, second = n - 1 too
        for second in range(1, n):
            assert oracle._census_search(n, [second]) == reference_shard(n, second), second

    @pytest.mark.parametrize("n", range(3, 13))
    def test_each_shard_counts_its_cycles(self, n):
        # the cycles 0 -> s -> ... -> last -> 0 with last > s: n - 1 - s
        # last vertices, and the other n - 3 vertices in any order between
        for second in range(1, n):
            cycles = oracle._census_search(n, [second])[4]
            assert cycles == (n - 1 - second) * math.factorial(n - 3), second

    @pytest.mark.parametrize("n", [9, 10, 12])
    def test_one_failure_function_per_class(self, n, failure_lengths):
        # the memo of side readings sends each rotation class through the
        # side kernel once, however many of its cycles the search builds
        r = ps.census_full(n)
        classes = (
            len(r.axial_blocks) + len(r.circular_blocks) + len(r.regular_blocks) + r.other_count
        )
        assert classes < r.stats["profiled"]
        assert failure_lengths == [n] * classes

    @pytest.mark.parametrize("n", range(3, 12))
    def test_one_count_per_cycle(self, n):
        assert serial_census(n).census_size == math.factorial(n - 1) // 2

    @pytest.mark.parametrize("n", range(3, 12))
    def test_stage_counters(self, n):
        stats = serial_census(n).stats
        assert set(stats) == {"cycles", "screened_out", "profiled"}
        assert stats["screened_out"] + stats["profiled"] == stats["cycles"]
        assert stats["cycles"] == serial_census(n).census_size
        assert stats["cycles"] == math.factorial(n - 1) // 2

    def test_dodecagon_stage_counters(self, census12):
        # the cycles whose side bytes match a nonzero shift of themselves
        # or a shift of their reversed complement, counted by screening
        # every cycle: the search reaches every symmetric cycle at n = 12
        assert census12.stats == {
            "cycles": 19958400,
            "screened_out": 19944804,
            "profiled": 13596,
        }

    @pytest.mark.parametrize("n", range(3, 13))
    def test_burnside_counts(self, n):
        """Burnside's lemma for the rotation group acting on the cycles,
        as Golomb and Welch use it to count polygons ("On the enumeration
        of polygons", Amer. Math. Monthly 67, 1960): a class of rotation
        order r stands for n/r of the profiled cycles, and the cycles with
        no rotation fall into orbits of n.  The report keeps only the
        number of Other classes, so the classes come from the one search
        that ``census_full`` reports."""
        *found, cycles, profiled = oracle._census_search(n)
        classes = set().union(*found)
        orbits = sum(n // side_symmetry(n, list(c)).profile.rotation_order for c in classes)
        assert orbits == profiled
        assert (cycles - profiled) % n == 0
        assert cycles == math.factorial(n - 1) // 2

    def test_jobs_do_not_change_results(self):
        two = ps.census_full(10, jobs=2)
        assert census_results(two) == census_results(serial_census(10))
        assert two.stats == serial_census(10).stats

    @pytest.mark.parametrize("n", range(3, 12))
    def test_rotatable_cycles_bound_the_cycles_built(self, n):
        # the two kinds of rotation overlap in at most 6 cycles at n <= 12
        profiled = serial_census(n).stats["profiled"]
        assert profiled <= rotatable_cycles(n) <= profiled + 6

    def test_rotatable_cycles_bound_the_dodecagon(self, census12):
        assert rotatable_cycles(12) == census12.stats["profiled"] + 6

    @pytest.mark.parametrize("n", range(3, 9))
    def test_tasks_leave_out_only_an_empty_shard(self, n):
        # the search runs the second vertex up to n - 2 only
        assert reference_census_shard(n, n - 1)[4] == 0


class TestCensus:
    @pytest.mark.parametrize("n", sorted(CENSUS_EXPECTED))
    def test_bucket_counts(self, n):
        r = ps.census_full(n)
        want = CENSUS_EXPECTED[n]
        got = (
            len(r.axial_classes),
            len(r.circular_classes),
            len(r.regular_classes),
            r.other_count,
            r.census_size,
        )
        assert got == want

    @pytest.mark.parametrize("n", [6, 9])
    def test_matches_generic_geometric_scan(self, n, chord_scans):
        axial, circular, regular, other, count = generic_census(n, chord_scans(n))
        r = ps.census_full(n)
        assert r.axial_classes == frozenset(axial)
        assert r.circular_classes == frozenset(circular)
        assert r.regular_classes == frozenset(regular)
        assert r.other_count == len(other)
        assert r.census_size == count

    def test_nonagon_class_sets(self, census9):
        assert census9.axial_blocks == {b * 3 for b in theorem_axial_blocks(3)}
        assert census9.circular_blocks == {b * 3 for b in theorem_circular_blocks(3)}
        assert census9.regular_classes == frozenset(
            SideTuple(9, (d,) * 9) for d in (1, 2, 4)
        )

    def test_classes_are_canonical_valid_polygons(self, census9):
        for t in (
            census9.axial_classes
            | census9.circular_classes
            | census9.regular_classes
        ):
            ps.validate_walk(t)
            assert ps.canonical_form(t) == t

    def test_jobs_do_not_change_results(self, census9):
        again = ps.census_full(9, jobs=2)
        assert again.axial_classes == census9.axial_classes
        assert again.circular_classes == census9.circular_classes
        assert again.regular_classes == census9.regular_classes
        assert again.other_count == census9.other_count

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            ps.sweep_period3(3, jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            ps.census_full(4, jobs=jobs)

    def test_size_guards(self):
        with pytest.raises(NTooSmall):
            ps.census_full(2)
        with pytest.raises(NTooLarge):
            ps.census_full(13)

    def test_search_leaves_no_cyclic_garbage(self):
        # the memo of side readings is freed on return, not held by a
        # reference cycle until the next full collection
        gc.collect()
        gc.disable()
        try:
            ps.census_full(10)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_memo_holds_side_bytes(self):
        # the memo keeps 2n side readings per class as bytes: the traced
        # peak of census_full(10) reads 0.28 MB, and 0.44 MB as tuples; a
        # full collection first empties the free lists, whose reused
        # tuples tracemalloc does not see
        gc.collect()
        tracemalloc.start()
        try:
            ps.census_full(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.35e6

    def test_elapsed_is_recorded(self, census9):
        assert census9.elapsed > 0


class TestSweep:
    def test_class_sets_match_enumeration(self):
        for m in range(3, 9):
            r = ps.sweep_period3(m)
            assert r.axial_blocks == theorem_axial_blocks(m)
            assert r.circular_blocks == theorem_circular_blocks(m)
            assert len(r.regular_classes) == ps.euler_phi(3 * m) // 2
            assert r.other_count == 0
            assert r.census_size == (3 * m - 1) ** 3

    def test_no_valid_block_matches_its_reversed_complement(self):
        # block_symmetry's lemma: such a block has a + b + c = 3n/2 and the
        # walk is back at vertex 0 after two blocks, short of n = 3m steps
        checked = 0
        for m in range(3, 41):
            n = 3 * m
            if n % 2:
                continue
            sets = _walk_sets(m)
            for a in range(1, n):
                thirds = _third_sides(sets, n, a)
                for b in range(1, n):
                    c = 3 * n // 2 - a - b
                    if 0 < c < n:
                        assert not thirds[(a + b) % n] >> c & 1, (m, a, b, c)
                        checked += 1
        assert checked == 75601

    @pytest.mark.parametrize("m", range(3, 41))
    def test_shards_match_per_candidate_reference(self, m):
        ours = [RowBlocks(rows) for rows in _sweep_shard(m)[:3]]
        ref = reference_sweep_shard(m)
        assert [sorted(x) for x in ours] == [sorted(x) for x in ref]

    @pytest.mark.parametrize("m", range(3, 13))
    def test_row_rules_match_six_image_minimum_on_every_triple(self, m, monkeypatch):
        # a kernel that lets every third side through: the row rules must
        # then keep exactly the orbit-least triples, including the bits
        # c = a and c = n - a that no valid walk sets in a generic row
        n = 3 * m
        every = [(1 << n) - 1] * n
        monkeypatch.setattr(oracle, "_third_sides", lambda *args: every)
        *found, counts = _sweep_shard(m)
        ref = reference_orbit_least(n)
        assert [sorted(RowBlocks(rows)) for rows in found] == [sorted(x) for x in ref]
        assert counts["candidates"] - counts["beaten"] == sum(map(len, ref))

    @pytest.mark.parametrize("m", range(3, 41))
    def test_stats_count_every_candidate(self, m):
        r = ps.sweep_period3(m)
        s = r.stats
        kept = {"axial", "circular", "regular"}
        assert set(s) == {"rows", "candidates", "beaten", *kept}
        n = 3 * m
        assert s["rows"] == sum(n - 2 * a + 1 for a in range(1, n // 2 + 1))
        assert s["candidates"] == s["beaten"] + sum(s[fam] for fam in kept)
        assert s["axial"] == len(r.axial_blocks)
        assert s["circular"] == len(r.circular_blocks)
        assert s["regular"] == len(r.regular_blocks)

    def test_stats_totals_to_thirty(self):
        total = Counter()
        for m in range(3, 31):
            total.update(ps.sweep_period3(m).stats)
        assert total["rows"] == 21259
        assert total["candidates"] == 45182
        assert total["axial"] + total["circular"] + total["regular"] == 42552

    def test_agrees_with_census_on_the_nonagon(self, census9):
        r = ps.sweep_period3(3)
        assert r.axial_classes == census9.axial_classes
        assert r.circular_classes == census9.circular_classes
        assert r.regular_classes == census9.regular_classes

    @pytest.mark.parametrize("m", range(3, 9))
    def test_matches_per_triple_reference(self, m):
        axial, circular, regular, other_count = reference_sweep(m)
        r = ps.sweep_period3(m)
        assert r.axial_classes == frozenset(axial)
        assert r.circular_classes == frozenset(circular)
        assert r.regular_classes == frozenset(regular)
        assert r.other_count == other_count

    def test_rejects_m_too_small(self):
        with pytest.raises(MTooSmall):
            ps.sweep_period3(2)

    @pytest.mark.parametrize("m", range(3, 41))
    def test_theorem_blocks_match_block_kernel(self, m):
        assert theorem_axial_blocks(m) == reference_theorem_blocks(m, "axial")
        assert theorem_circular_blocks(m) == reference_theorem_blocks(m, "circular")


class TestRowBlocks:
    """The set type of the sweep's and the theorem's class sets: 3-blocks
    kept as c-masks per row (a, b)."""

    BLOCKS = frozenset({(1, 1, 4), (1, 1, 7), (1, 4, 7), (2, 5, 2), (4, 4, 4)})

    @pytest.fixture
    def rows(self):
        return RowBlocks(
            {(1, 1): 1 << 4 | 1 << 7, (1, 4): 1 << 7, (2, 5): 1 << 2, (4, 4): 1 << 4}
        )

    def test_len_in_and_iteration(self, rows):
        assert len(rows) == 5
        assert sorted(rows) == sorted(self.BLOCKS)
        for t in self.BLOCKS:
            assert t in rows
        for t in [(1, 1, 5), (1, 4, 4), (9, 9, 9), (1, 1, 4, 1), (1, 1), (1, 1, -1)]:
            assert t not in rows
        assert "114" not in rows and None not in rows
        assert len(RowBlocks({})) == 0 and list(RowBlocks({})) == []

    def test_equal_to_a_frozenset_in_either_order(self, rows):
        assert rows == self.BLOCKS and self.BLOCKS == rows
        assert not rows != self.BLOCKS and not self.BLOCKS != rows
        assert rows == set(self.BLOCKS)

    @pytest.mark.parametrize("bit", [(1, 1, 4), (1, 4, 7), (4, 4, 4)])
    def test_one_bit_differs_on_either_side(self, rows, bit):
        fewer = self.BLOCKS - {bit}
        more = self.BLOCKS | {(1, 4, 10)}
        for other in (fewer, more, fewer | {(1, 4, 10)}):
            assert rows != other and other != rows
            assert not rows == other and not other == rows
        a, b, c = bit
        masks = dict(rows.rows)
        masks[a, b] ^= 1 << c
        dropped = RowBlocks({k: v for k, v in masks.items() if v})
        assert dropped == fewer and fewer == dropped
        assert dropped != rows and rows != dropped
        added = RowBlocks({**rows.rows, (1, 4): rows.rows[1, 4] | 1 << 10})
        assert added == more and added != rows and rows != added

    def test_equal_rows_compare_as_dicts(self, rows):
        assert rows == RowBlocks(dict(reversed(list(rows.rows.items()))))
        assert rows != RowBlocks({**rows.rows, (2, 5): 1 << 5})

    def test_operators_return_frozensets(self, rows):
        for result, want in [
            (rows - {(1, 1, 4)}, self.BLOCKS - {(1, 1, 4)}),
            (rows | {(0, 0, 0)}, self.BLOCKS | {(0, 0, 0)}),
            ({(0, 0, 0)} | rows, self.BLOCKS | {(0, 0, 0)}),
            (rows & {(1, 1, 4), (3, 3, 3)}, frozenset({(1, 1, 4)})),
        ]:
            assert type(result) is frozenset and result == want
        assert min(rows) == (1, 1, 4)

    def test_hash_matches_frozenset(self, rows):
        assert hash(rows) == hash(self.BLOCKS)
        assert len({rows, self.BLOCKS}) == 1

    def test_reports_stay_hashable(self):
        r = ps.sweep_period3(4)
        again = dataclasses.replace(ps.sweep_period3(4), elapsed=r.elapsed)
        assert again == r and hash(again) == hash(r)

    @pytest.mark.parametrize("m", [3, 4, 10])
    def test_report_blocks_are_row_backed(self, m):
        r = ps.sweep_period3(m)
        for blocks, theorem in (
            (r.axial_blocks, theorem_axial_blocks(m)),
            (r.circular_blocks, theorem_circular_blocks(m)),
        ):
            assert type(blocks) is RowBlocks and type(theorem) is RowBlocks
            assert blocks.rows == theorem.rows
            assert 0 not in blocks.rows.values()
        assert type(r.regular_blocks) is RowBlocks


class TestFastPathsAgainstGeometry:
    """The census's side-sequence kernel must agree with the geometric
    reference on every Hamiltonian cycle, not just on sampled ones."""

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_profile_and_canonical(self, n):
        for t in undirected_cycles(n):
            sides = bytes(t.sides)  # the census passes bytes
            p = ps.symmetry_profile(ps.edge_set(ps.validate_walk(t)))
            assert side_symmetry(n, sides).profile == p, t
            assert canonical_sides(n, sides) == slice_canonical(n, sides), t

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_walk_kernel_matches_validate_walk(self, m):
        n = 3 * m
        sets = _walk_sets(m)
        seen = [0] * n
        stamp = 0
        for a in range(1, n):
            thirds = _third_sides(sets, n, a)
            for b in range(1, n):
                for c in range(1, n):
                    stamp += 1
                    try:
                        ps.validate_walk(SideTuple(n, (a, b, c) * m))
                        slow = True
                    except WalkError:
                        slow = False
                    assert bool(thirds[(a + b) % n] >> c & 1) == slow, (a, b, c)
                    # the reference walk behind reference_sweep
                    assert walk3(n, m, a, b, c, seen, stamp) == slow, (a, b, c)


def slice_scan_circular_count(m):
    """Ordered circular triples / 3, one slice sum per (a, b) pair: the
    reference for the prefix-sum scan in ``_scan_circular_count``."""
    n = 3 * m
    cop = [1 if math.gcd(u, m) == 1 else 0 for u in range(m)]
    ok = bytearray(9 * m)
    for x in range(3, 9 * m, 3):
        ok[x] = cop[(x // 3) % m]
    vals = range(1, n - 1, 3)
    raw = 0
    for a in vals:
        for b in vals:
            if b == a:
                continue
            ab = a + b
            raw += sum(ok[ab + 1 : ab + n - 1 : 3]) - ok[ab + a] - ok[ab + b]
    assert raw % 3 == 0
    return raw // 3


class TestScanCounts:
    def test_match_enumeration_cardinalities(self):
        for m in range(3, 101):
            assert _scan_axial_count(m) == ps.count_axial(m), m
            assert _scan_circular_count(m) == ps.count_circular(m), m

    def test_match_literal_pair_and_triple_counts(self):
        for m in range(3, 26):
            assert _scan_axial_count(m) == reference_axial_count(m), m
            assert _scan_circular_count(m) == reference_circular_count(m), m

    def test_prefix_scan_matches_slice_scan(self):
        for m in range(3, 61):
            assert _scan_circular_count(m) == slice_scan_circular_count(m), m


class TestIdentity:
    def test_examples(self):
        chk = ps.verify_identity(18)
        assert (chk["lhs"], chk["rhs"]) == (1944, 1944)
        assert ps.verify_identity(32)["lhs"] == 16384

    def test_range(self):
        for m in range(3, 31):
            chk = ps.verify_identity(m)
            assert chk["lhs"] == chk["rhs"] == m * m * ps.euler_phi(m)

    def test_rejects_m_too_small(self):
        with pytest.raises(MTooSmall):
            ps.verify_identity(2)


class TestGcdTheorem:
    def test_holds_for_small_m(self):
        for m in range(3, 9):
            assert ps.verify_theorem_gcd(m, "axial")
            assert ps.verify_theorem_gcd(m, "circular")

    @pytest.mark.parametrize("m", range(3, 25))
    def test_gcd_side_faults_match_per_triple_reference(self, m, monkeypatch):
        # the rule flipped at every sum s >= s0 (mod n), for each s0: a
        # circular pair then meets several wrong sums, and the verifier
        # must report the reference's first counterexample, byte for byte
        n = 3 * m
        raised = 0
        for s0 in range(0, n, 3):

            def admits(s, s0=s0):
                return (math.gcd(s, n) == 3) != (s >= s0)

            faulty = sum(1 << s for s in range(n) if admits(s))
            monkeypatch.setattr(oracle, "_gcd_sums", lambda n, faulty=faulty: faulty)
            for family in ("axial", "circular"):
                want = reference_theorem_gcd(m, family, admits)
                if want is None:
                    assert ps.verify_theorem_gcd(m, family)["ok"]
                    continue
                with pytest.raises(VerificationError) as err:
                    ps.verify_theorem_gcd(m, family)
                assert str(err.value) == want
                raised += 1
        # every fault is met by some pair and some triple, except at m = 3,
        # where the one circular sum, 12 = 3 mod 9, lies below s0 = 6
        assert raised == (5 if m == 3 else 2 * m)

    def test_excluded_pair_is_really_invalid(self):
        # gcd(2*1+7, 9) = 9, not 3, so (1,7) is no generator pair at m=3;
        # the walk indeed closes after the first block.
        with pytest.raises(ps.PrematureClosure):
            ps.validate_walk(SideTuple(9, (1, 7, 1) * 3))
        assert ps.count_axial(3) == 3

    def test_excluded_triple_is_really_invalid(self):
        # (1,4,7) generates at m=3 but not at m=4: gcd(12, 12) != 3
        with pytest.raises(ps.PrematureClosure):
            ps.validate_walk(SideTuple(12, (1, 4, 7) * 4))

    def test_rejects_bad_family(self):
        with pytest.raises(ValueError):
            ps.verify_theorem_gcd(3, "hexagonal")

    def test_rejects_m_too_small(self):
        with pytest.raises(MTooSmall):
            ps.verify_theorem_gcd(2, "axial")

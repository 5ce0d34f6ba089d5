import dataclasses
import functools
import math
import multiprocessing
import os

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
    _scan_axial_count,
    _scan_circular_count,
    _walk_ok,
    _walk_rows,
    census_tasks,
    pool_size,
    sweep_tasks,
    theorem_axial_blocks,
    theorem_circular_blocks,
    worker_pool,
)
from polysym.polygon_core import canonical_sides, side_symmetry
from walks import (
    reference_census_shard,
    reference_sweep,
    reference_theorem_blocks,
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


def generic_census(n):
    """Slow reference census using only the geometric primitives."""
    axial, circular, regular = set(), set(), set()
    other = set()
    count = 0
    for t in undirected_cycles(n):
        count += 1
        p = ps.symmetry_profile(ps.edge_set(ps.validate_walk(t)))
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
    """The five results of a census report."""
    return (
        r.axial_classes,
        r.circular_classes,
        r.regular_classes,
        r.other_count,
        r.census_size,
    )


@functools.lru_cache(maxsize=None)
def serial_census(n):
    return ps.census_full(n)


@functools.lru_cache(maxsize=None)
def reference_shard(n, second):
    return reference_census_shard(n, second)


def reference_census(n):
    """The census results of ``reference_census_shard``, merged over
    second = 1..n-1."""
    axial, circular, regular, other = set(), set(), set(), set()
    count = 0
    for second in range(1, n):
        ax, ci, re, ot, cnt, _ = reference_shard(n, second)
        axial |= ax
        circular |= ci
        regular |= re
        other |= ot
        count += cnt
    return (
        frozenset(SideTuple(n, k) for k in axial),
        frozenset(SideTuple(n, k) for k in circular),
        frozenset(SideTuple(n, k) for k in regular),
        len(other),
        count,
    )


class TestCensusKernel:
    """The pruned census search against the per-permutation reference."""

    @pytest.mark.parametrize("n", range(3, 11))
    def test_matches_permutation_reference(self, n):
        assert census_results(serial_census(n)) == reference_census(n)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_each_shard_matches_permutation_reference(self, n):
        # class sets, cycle count and profiled count, second = n - 1 too
        for second in range(1, n):
            assert oracle._census_shard((n, second)) == reference_shard(n, second), second

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
        no rotation fall into orbits of n."""
        classes = set()
        profiled = 0
        for task in census_tasks(n):
            *found, _, prof = oracle._census_shard(task)
            classes.update(*found)
            profiled += prof
        orbits = sum(n // side_symmetry(n, list(c)).profile.rotation_order for c in classes)
        assert orbits == profiled
        assert (math.factorial(n - 1) // 2 - profiled) % n == 0

    def test_jobs_do_not_change_results(self):
        two = ps.census_full(10, jobs=2)
        assert census_results(two) == census_results(serial_census(10))
        assert two.stats == serial_census(10).stats

    @pytest.mark.parametrize("n", range(3, 9))
    def test_tasks_leave_out_only_an_empty_shard(self, n):
        assert census_tasks(n) == [(n, second) for second in range(1, n - 1)]
        assert reference_census_shard(n, n - 1)[4] == 0

    def test_sweep_reports_no_stats(self):
        assert ps.sweep_period3(3).stats == {}


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
    def test_matches_generic_geometric_scan(self, n):
        axial, circular, regular, other, count = generic_census(n)
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

    def test_size_guards(self):
        with pytest.raises(NTooSmall):
            ps.census_full(2)
        with pytest.raises(NTooLarge):
            ps.census_full(13)

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

    def test_agrees_with_census_on_the_nonagon(self, census9):
        r = ps.sweep_period3(3)
        assert r.axial_classes == census9.axial_classes
        assert r.circular_classes == census9.circular_classes
        assert r.regular_classes == census9.regular_classes

    def test_jobs_do_not_change_results(self):
        # jobs = 6 at m = 3 is above n // 2 = 4, the most first sides there
        # are to interleave; the shards run on at most two workers
        for m, jobs, shards in [(5, 4, 4), (3, 6, 4)]:
            tasks = sweep_tasks(m, jobs)
            assert len(tasks) == shards
            half = 3 * m // 2
            firsts = sorted(a for _, first, step in tasks for a in range(first, half + 1, step))
            assert firsts == list(range(1, half + 1))
            one = ps.sweep_period3(m)
            with worker_pool(2, len(tasks)) as pool:
                many = ps.sweep_period3(m, jobs=jobs, pool=pool)
            assert one.axial_classes == many.axial_classes
            assert one.circular_classes == many.circular_classes
            assert one.regular_classes == many.regular_classes
            assert one.other_count == many.other_count

    @pytest.mark.parametrize("m", range(3, 9))
    def test_matches_per_triple_reference(self, m):
        axial, circular, regular, other_count = reference_sweep(m)
        r = ps.sweep_period3(m)
        assert r.axial_classes == frozenset(axial)
        assert r.circular_classes == frozenset(circular)
        assert r.regular_classes == frozenset(regular)
        assert r.other_count == other_count

    def test_shared_pool_matches_serial(self):
        def found(r):
            return (
                r.axial_classes,
                r.circular_classes,
                r.regular_classes,
                r.other_count,
                r.census_size,
            )

        with multiprocessing.Pool(2) as pool:
            for m in range(3, 7):
                shared = ps.sweep_period3(m, jobs=2, pool=pool)
                assert found(shared) == found(ps.sweep_period3(m)), m

    def test_rejects_m_too_small(self):
        with pytest.raises(MTooSmall):
            ps.sweep_period3(2)

    @pytest.mark.parametrize("m", range(3, 41))
    def test_theorem_blocks_match_block_kernel(self, m):
        assert theorem_axial_blocks(m) == reference_theorem_blocks(m, "axial")
        assert theorem_circular_blocks(m) == reference_theorem_blocks(m, "circular")


def untimed(reports):
    return [dataclasses.replace(r, elapsed=0.0) for r in reports]


class TestSweepReports:
    """One dispatch for a range of m: the same reports as one
    ``sweep_period3`` per m, whatever runs the shards."""

    MS = range(3, 13)

    def test_shared_pool_matches_serial_per_m(self):
        serial = untimed(ps.sweep_period3(m) for m in self.MS)
        with multiprocessing.Pool(2) as pool:
            assert untimed(oracle.sweep_reports(self.MS, 2, pool)) == serial

    def test_own_pool_matches_serial_per_m(self, monkeypatch):
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
        ms = range(3, 7)
        assert untimed(oracle.sweep_reports(ms, 2)) == untimed(map(ps.sweep_period3, ms))

    def test_serial_reports_are_lazy(self, monkeypatch):
        # one usable CPU: jobs = 2 runs its two shards per m in this process
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
        calls = []
        real = oracle._sweep_shard

        def counting(task):
            calls.append(task)
            return real(task)

        monkeypatch.setattr(oracle, "_sweep_shard", counting)
        reports = oracle.sweep_reports(range(3, 6), 2)
        assert calls == []
        assert next(reports).n == 9
        assert calls == sweep_tasks(3, 2)
        assert [r.n for r in reports] == [12, 15]
        assert len(calls) == 6

    def test_empty_range(self):
        assert list(oracle.sweep_reports([], 2)) == []

    def test_arguments_checked_before_any_report(self):
        with pytest.raises(MTooSmall):
            oracle.sweep_reports([3, 2])
        with pytest.raises(ValueError, match="jobs"):
            oracle.sweep_reports([3], 0)

    def test_closing_shuts_own_pool_down(self, monkeypatch):
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
        before = set(multiprocessing.active_children())
        reports = oracle.sweep_reports(range(3, 9), 2)
        assert next(reports).n == 9
        assert set(multiprocessing.active_children()) > before
        reports.close()
        assert set(multiprocessing.active_children()) <= before


class TestFastPathsAgainstGeometry:
    """The census's side-sequence kernel must agree with the geometric
    reference on every Hamiltonian cycle, not just on sampled ones."""

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_profile_and_canonical(self, n):
        for t in undirected_cycles(n):
            sides = list(t.sides)  # the census passes a list
            p = ps.symmetry_profile(ps.edge_set(ps.validate_walk(t)))
            assert side_symmetry(n, sides).profile == p, t
            assert canonical_sides(n, sides) == slice_canonical(n, sides), t

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_walk_kernel_matches_validate_walk(self, m):
        n = 3 * m
        rows = _walk_rows(m)
        full = (1 << n) - 1
        seen = [0] * n
        stamp = 0
        for a in range(1, n):
            for b in range(1, n):
                for c in range(1, n):
                    stamp += 1
                    try:
                        ps.validate_walk(SideTuple(n, (a, b, c) * m))
                        slow = True
                    except WalkError:
                        slow = False
                    assert _walk_ok(rows, full, a, b, c) == slow, (a, b, c)
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
        for m in range(3, 31):
            assert _scan_axial_count(m) == ps.count_axial(m)
            assert _scan_circular_count(m) == ps.count_circular(m)

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


class TestPoolSize:
    """The pool size is computed, never tried: no test starts a big pool."""

    def test_capped_by_jobs_shards_and_cpus(self):
        cpus = len(os.sched_getaffinity(0))
        assert pool_size(1, 100) == 1
        assert pool_size(3, 2) == min(2, cpus)
        assert pool_size(10**6, 10**6) == cpus
        assert pool_size(2, 89) == min(2, cpus)

    def test_cpu_count_without_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert pool_size(10**6, 10**6) == (os.cpu_count() or 1)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            pool_size(jobs, 8)
        with pytest.raises(ValueError):
            ps.sweep_period3(3, jobs=jobs)
        with pytest.raises(ValueError):
            ps.census_full(4, jobs=jobs)

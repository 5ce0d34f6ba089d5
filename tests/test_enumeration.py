from math import gcd

import pytest

import polysym as ps
from polysym import (
    AxialRep,
    CircularRep,
    FamilyTag,
    MTooSmall,
    NotPrime,
    PrematureClosure,
    SideTuple,
    SymmetryProfile,
    WalkError,
)
import polysym.enumeration as enumeration
from polysym.enumeration import class_blocks, generator_rows, window_totients
from polysym.polygon_core import block_symmetry
from expected_counts import EXPECTED_AXIAL, EXPECTED_CIRCULAR

# Representative (a, b) generator pairs, frozen before the enumerator existed.
EXPECTED_AXIAL_PAIRS = {
    3: {(1, 4), (4, 7), (7, 1)},
    4: {(1, 7), (4, 1), (4, 7), (7, 1), (10, 1), (10, 7)},
    5: {
        (1, 4), (1, 7), (1, 10), (4, 1), (4, 10), (4, 13), (7, 4), (7, 10),
        (7, 13), (10, 1), (10, 4), (10, 7), (10, 13), (13, 1), (13, 7),
        (13, 10),
    },
}

EXPECTED_CIRCULAR_TRIPLES = {
    3: {(1, 4, 7), (1, 7, 4)},
    4: {(1, 4, 10), (1, 10, 4), (4, 7, 10), (4, 10, 7)},
    5: {
        (1, 4, 7), (1, 7, 4), (1, 4, 13), (1, 13, 4), (1, 7, 10), (1, 10, 7),
        (1, 7, 13), (1, 13, 7), (1, 10, 13), (1, 13, 10), (4, 7, 10),
        (4, 10, 7), (4, 7, 13), (4, 13, 7), (4, 10, 13), (4, 13, 10),
    },
}


class TestEulerPhi:
    def test_known_values(self):
        assert [ps.euler_phi(k) for k in (1, 2, 3, 9, 10, 30, 97)] == [
            1, 1, 2, 6, 4, 8, 96,
        ]

    def test_against_gcd_scan(self):
        for k in range(1, 200):
            assert ps.euler_phi(k) == sum(1 for i in range(1, k + 1) if gcd(i, k) == 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ps.euler_phi(0)


class TestWindowTotients:
    def test_every_k_up_to_ten_thousand(self):
        assert window_totients(1, 10**4) == [ps.euler_phi(k) for k in range(1, 10**4 + 1)]

    def test_window_far_from_one(self):
        lo = 10**10
        assert window_totients(lo, lo + 200) == [ps.euler_phi(k) for k in range(lo, lo + 201)]

    def test_short_windows_at_every_offset(self):
        # a window starting anywhere meets the first multiple of each prime
        # and prime power at every offset, or not at all
        for lo in range(1, 400):
            for size in (1, 2, 5, 17):
                hi = lo + size - 1
                assert window_totients(lo, hi) == [ps.euler_phi(k) for k in range(lo, hi + 1)]

    def test_primes_below(self):
        for limit in range(2, 300):
            want = [p for p in range(2, limit) if all(p % d for d in range(2, p))]
            assert list(enumeration._primes_below(limit)) == want, limit

    def test_roots_past_the_sieve_bound_factor_each_value(self, monkeypatch):
        monkeypatch.setattr(enumeration, "WINDOW_SIEVE_MAX_ROOT", 9)
        monkeypatch.setattr(enumeration, "_primes_below", lambda limit: pytest.fail("sieved"))
        assert window_totients(99, 130) == [ps.euler_phi(k) for k in range(99, 131)]

    def test_rejects_empty_or_nonpositive_window(self):
        for lo, hi in [(0, 5), (5, 4)]:
            with pytest.raises(ValueError):
                window_totients(lo, hi)


class TestCounts:
    def test_axial_counts_match_frozen_table(self):
        for m, want in EXPECTED_AXIAL.items():
            assert ps.count_axial(m) == want, m

    def test_circular_counts_match_frozen_table(self):
        for m, want in EXPECTED_CIRCULAR.items():
            assert ps.count_circular(m) == want, m

    def test_counts_table(self):
        rows = ps.counts_table(3, 30)
        assert len(rows) == 28
        for row in rows:
            assert row.n == 3 * row.m
            assert row.p_count == EXPECTED_AXIAL[row.m]
            assert row.q_count == EXPECTED_CIRCULAR[row.m]

    def test_counts_table_matches_the_closed_counts(self):
        for m_from, m_to in [(3, 2000), (10**6 - 3, 10**6 + 40), (3**15 - 5, 3**15 + 5)]:
            rows = ps.counts_table(m_from, m_to)
            assert [(r.n, r.m, r.p_count, r.q_count) for r in rows] == [
                (3 * m, m, ps.count_axial(m), ps.count_circular(m))
                for m in range(m_from, m_to + 1)
            ]

    def test_rejects_m_too_small(self):
        for fn in (ps.count_axial, ps.count_circular, ps.enumerate_axial,
                   ps.enumerate_circular):
            with pytest.raises(MTooSmall):
                fn(2)
        with pytest.raises(MTooSmall):
            ps.counts_table(2, 5)


class TestPrimeCounts:
    def test_axial_prime_closed_form(self):
        for p in (5, 7, 11, 13, 17, 19, 23, 29):
            assert ps.count_axial_prime(p) == (p - 1) ** 2
            assert ps.count_axial_prime(p) == ps.count_axial(p)

    def test_circular_prime_closed_form(self):
        for p in (5, 7, 11, 13, 17, 19, 23, 29):
            assert ps.count_circular_prime(p) == (p - 1) ** 2 * (p - 2) // 3
            assert ps.count_circular_prime(p) == ps.count_circular(p)

    def test_rejects_non_primes_and_small_primes(self):
        for bad in (2, 3, 4, 9, 15, 21):
            with pytest.raises(NotPrime):
                ps.count_axial_prime(bad)
            with pytest.raises(NotPrime):
                ps.count_circular_prime(bad)


class TestEnumerateAxial:
    def test_exact_representatives(self):
        for m, want in EXPECTED_AXIAL_PAIRS.items():
            assert {(r.a, r.b) for r in ps.enumerate_axial(m)} == want

    def test_rep_invariants(self):
        for m in range(3, 13):
            reps = ps.enumerate_axial(m)
            assert len(reps) == ps.count_axial(m)
            for r in reps:
                assert r.m == m
                assert r.a % 3 == 1 and r.b % 3 == 1
                assert r.a != r.b
                assert 1 <= r.a <= 3 * m - 2 and 1 <= r.b <= 3 * m - 2
                assert 3 * r.u == 2 * r.a + r.b
                assert gcd(r.u, m) == 1

    def test_rep_validation(self):
        with pytest.raises(ValueError):
            AxialRep(m=3, a=1, b=1, u=1)  # a == b
        with pytest.raises(ValueError):
            AxialRep(m=3, a=2, b=4, u=2)  # a not 1 mod 3
        with pytest.raises(ValueError):
            AxialRep(m=3, a=1, b=4, u=3)  # u inconsistent
        with pytest.raises(ValueError):
            AxialRep(m=4, a=1, b=4, u=2)  # gcd(u, m) != 1

    def test_expand_walks_and_classifies(self):
        for m in range(3, 9):
            for r in ps.enumerate_axial(m):
                t = ps.expand_axial(r)
                assert t.sides == (r.a, r.b, r.a) * m
                ps.validate_walk(t)
                assert ps.revolutions(t) == r.u
                fam = ps.classify(t)
                assert fam.tag is FamilyTag.AXIAL and fam.m == m


class TestEnumerateCircular:
    def test_exact_representatives(self):
        for m, want in EXPECTED_CIRCULAR_TRIPLES.items():
            assert {(r.a, r.b, r.c) for r in ps.enumerate_circular(m)} == want

    def test_rep_invariants(self):
        for m in range(3, 13):
            reps = ps.enumerate_circular(m)
            assert len(reps) == ps.count_circular(m)
            for r in reps:
                trip = (r.a, r.b, r.c)
                assert len(set(trip)) == 3
                assert all(v % 3 == 1 for v in trip)
                assert 3 * r.u == r.a + r.b + r.c
                assert gcd(r.u, m) == 1
                # representative is the lex-least cyclic rotation
                assert trip == min(
                    trip, (r.b, r.c, r.a), (r.c, r.a, r.b)
                )

    def test_matches_full_triple_loop(self):
        # every pairwise-distinct residue-1 triple, kept when it is its own
        # least cyclic shift and its winding number is coprime to m
        for m in range(3, 16):
            values = range(1, 3 * m - 1, 3)
            want = {
                (a, b, c)
                for a in values
                for b in values
                for c in values
                if len({a, b, c}) == 3
                and (a, b, c) == min((a, b, c), (b, c, a), (c, a, b))
                and gcd((a + b + c) // 3, m) == 1
            }
            assert {(r.a, r.b, r.c) for r in ps.enumerate_circular(m)} == want, m

    def test_rep_validation(self):
        with pytest.raises(ValueError):
            CircularRep(m=3, a=1, b=4, c=1, u=2)  # repeated value
        with pytest.raises(ValueError):
            CircularRep(m=3, a=4, b=7, c=1, u=4)  # not lex-least rotation
        with pytest.raises(ValueError):
            CircularRep(m=4, a=1, b=4, c=7, u=4)  # gcd(u, m) != 1

    def test_expand_walks_and_classifies(self):
        for m in range(3, 8):
            for r in ps.enumerate_circular(m):
                t = ps.expand_circular(r)
                assert t.sides == (r.a, r.b, r.c) * m
                ps.validate_walk(t)
                assert ps.revolutions(t) == r.u
                fam = ps.classify(t)
                assert fam.tag is FamilyTag.CIRCULAR and fam.m == m


class TestResidueExclusions:
    """Blocks outside the 1 (mod 3) residue class cannot produce new classes."""

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_mixed_residue_blocks_never_walk(self, m):
        n = 3 * m
        for a in range(1, n):
            for b in range(1, n):
                for c in range(1, n):
                    if len({a % 3, b % 3, c % 3}) == 1:
                        continue
                    with pytest.raises(WalkError):
                        ps.validate_walk(SideTuple(n, (a, b, c) * m))

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_zero_residue_blocks_close_prematurely(self, m):
        n = 3 * m
        for a in range(3, n, 3):
            for b in range(3, n, 3):
                for c in range(3, n, 3):
                    with pytest.raises(PrematureClosure):
                        ps.validate_walk(SideTuple(n, (a, b, c) * m))

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_two_residue_blocks_mirror_the_one_residue_classes(self, m):
        # a = b = 2 (mod 3): valid walks exist, but the reversed complement
        # has a 1 (mod 3) block and the same canonical form, so these are
        # re-traversals of already-enumerated classes.
        n = 3 * m
        seen_valid = 0
        for a in range(2, n, 3):
            for b in range(2, n, 3):
                for c in range(2, n, 3):
                    t = SideTuple(n, (a, b, c) * m)
                    try:
                        ps.validate_walk(t)
                    except WalkError:
                        continue
                    seen_valid += 1
                    rc = ps.reversed_complement(t)
                    assert all(v % 3 == 1 for v in rc.sides)
                    assert ps.canonical_form(rc) == ps.canonical_form(t)
        assert seen_valid > 0


class TestGcdCharacterization:
    def test_pair_chain(self):
        # gcd(2a+b, 3m) == 3 is the same test as gcd(u, m) == 1
        for m in range(3, 21):
            n = 3 * m
            for a in range(1, n - 1, 3):
                for b in range(1, n - 1, 3):
                    u = (2 * a + b) // 3
                    assert (gcd(2 * a + b, n) == 3) == (gcd(u, m) == 1), (m, a, b)

    def test_triple_chain(self):
        for m in range(3, 11):
            n = 3 * m
            for a in range(1, n - 1, 3):
                for b in range(1, n - 1, 3):
                    for c in range(1, n - 1, 3):
                        u = (a + b + c) // 3
                        assert (gcd(a + b + c, n) == 3) == (gcd(u, m) == 1)


class TestCanonicalDistinctness:
    def test_representatives_map_to_distinct_disjoint_classes(self):
        for m in range(3, 11):
            n = 3 * m
            ax = {
                ps.canonical_period3(n, (r.a, r.b, r.a))
                for r in ps.enumerate_axial(m)
            }
            ci = {
                ps.canonical_period3(n, (r.a, r.b, r.c))
                for r in ps.enumerate_circular(m)
            }
            assert len(ax) == ps.count_axial(m)
            assert len(ci) == ps.count_circular(m)
            assert not ax & ci


class TestClassBlocks:
    """The class stream that ``enumerate`` and ``render`` write from holds
    no validated rep, so it is pinned here to the validated reps and to
    ``block_symmetry`` at every m the goldens and the benchmark use."""

    @pytest.mark.parametrize("family", ["axial", "circular"])
    def test_matches_the_validated_reps_and_block_symmetry(self, family):
        for m in range(3, 41):
            n = 3 * m
            stream = list(class_blocks(m, family))
            if family == "axial":
                reps = [((r.a, r.b), r.u) for r in ps.enumerate_axial(m)]
                walks = [(a, b, a) for (a, b), _, _ in stream]
                profile = SymmetryProfile(m, m)
            else:
                reps = [((r.a, r.b, r.c), r.u) for r in ps.enumerate_circular(m)]
                walks = [gens for gens, _, _ in stream]
                profile = SymmetryProfile(m, 0)
            assert [(gens, u) for gens, u, _ in stream] == reps
            assert [block_symmetry(n, w)[:2] for w in walks] == [
                (block, profile) for _, _, block in stream
            ]

    def test_rejects_m_too_small_before_the_first_class(self):
        with pytest.raises(MTooSmall):
            class_blocks(2, "axial")


class TestGeneratorRows:
    """The class stream's generator rows, each a window of the coprime mask
    that the theorem's block rows read too, against a loop over the
    generators one pair or triple at a time, for every m = 3..40.  A row that holds no class is left out.  The last
    circular row (3m - 5, 3m - 2) has only c = b in its window, at every m;
    at m = 4 the row (1, 7) has no c with (8 + c) / 3 coprime to 4.  The
    windows are shortest at m = 3, 4 and 5, the first m of the loop."""

    @staticmethod
    def triple_loop(m: int, family: str) -> dict:
        values = range(1, 3 * m - 1, 3)
        rows: dict = {}
        for a in values:
            for b in values:
                if family == "axial":
                    if b != a and gcd((2 * a + b) // 3, m) == 1:
                        rows[a,] = rows.get((a,), 0) | 1 << b
                    continue
                if b <= a:
                    continue
                for c in values:
                    # pairwise distinct, least cyclic shift first
                    if c > a and c != b and gcd((a + b + c) // 3, m) == 1:
                        rows[a, b] = rows.get((a, b), 0) | 1 << c
        return rows

    @pytest.mark.parametrize("family", ["axial", "circular"])
    def test_every_row_matches_the_triple_loop(self, family):
        for m in range(3, 41):
            rows = list(generator_rows(m, family))
            want = self.triple_loop(m, family)
            assert rows == sorted(want.items()), (m, family)

    def test_rows_without_a_class_are_left_out(self):
        assert list(generator_rows(3, "axial")) == [
            ((1,), 1 << 4), ((4,), 1 << 7), ((7,), 1 << 1),
        ]
        assert list(generator_rows(3, "circular")) == [((1, 4), 1 << 7), ((1, 7), 1 << 4)]

"""Brute-force verification of the family counts and class sets.

Two independent searches back the closed formulas:

* ``sweep_period3`` walks every raw generator triple (a, b, c) in
  [1, n-1]^3 with no arithmetic filtering, keeps the valid walks, and
  classifies them geometrically;
* ``census_full`` walks every Hamiltonian cycle on n circle vertices
  (n <= 12) and classifies each one.

Both report rotation classes by canonical side tuple, so their outputs
are directly comparable with the theorem enumerators.  Work is split
into deterministic contiguous shards; shard results merge by plain set
union, so reports do not depend on the worker count.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import time
from dataclasses import dataclass

from .enumeration import MTooSmall, enumerate_axial, enumerate_circular, euler_phi
from .polygon_core import (
    SideTuple,
    canonical_period3,
    canonical_sides,
    period3_profile,
    side_symmetry,
)

CENSUS_MAX_N = 12


class NTooSmall(ValueError):
    def __init__(self, n: int):
        super().__init__(f"census needs n >= 3, got {n}")
        self.n = n


class NTooLarge(ValueError):
    def __init__(self, n: int):
        super().__init__(
            f"census is factorial in n and is capped at n={CENSUS_MAX_N}, got {n}"
        )
        self.n = n


class VerificationError(Exception):
    """A brute-force check contradicted a formula or theorem."""


@dataclass(frozen=True)
class OracleReport:
    """Classes found by one brute-force search.

    ``census_size`` counts the raw objects examined: generator triples
    for the sweep, undirected Hamiltonian cycles for the census.
    ``other_count`` is the number of rotation classes that carry some
    nontrivial rotation symmetry yet fall in no family (for example a
    cycle whose sides repeat with period 2).  Every search additionally
    asserts that no object has mirror axes without an equal number of
    rotations, so near-miss family members cannot pass unnoticed.
    """

    n: int
    axial_classes: frozenset[SideTuple]
    circular_classes: frozenset[SideTuple]
    regular_classes: frozenset[SideTuple]
    other_count: int
    census_size: int
    elapsed: float


@dataclass(frozen=True)
class IdentityCheck:
    m: int
    lhs: int
    rhs: int


def _require_family_m(m: int) -> None:
    if m <= 2:
        raise MTooSmall(m)


# ---------------------------------------------------------------------------
# fast walk check shared by the searches
#
# This duplicates validate_walk without its object overhead; the test
# suite pins it against the reference implementation exhaustively for
# small n.


def _walk3(n: int, m: int, a: int, b: int, c: int, seen: list[int], stamp: int) -> bool:
    """validate_walk for the tuple (a, b, c) * m, on scratch buffers.

    ``seen`` is a caller-owned list of length n and ``stamp`` a value
    never used with it before (stamp marking avoids clearing the list
    between calls).
    """
    if (m * (a + b + c)) % n:
        return False
    pos = 0
    seen[0] = stamp
    for _ in range(m - 1):
        pos += a
        if pos >= n:
            pos -= n
        if seen[pos] == stamp:
            return False
        seen[pos] = stamp
        pos += b
        if pos >= n:
            pos -= n
        if seen[pos] == stamp:
            return False
        seen[pos] = stamp
        pos += c
        if pos >= n:
            pos -= n
        if seen[pos] == stamp:
            return False
        seen[pos] = stamp
    pos += a
    if pos >= n:
        pos -= n
    if seen[pos] == stamp:
        return False
    seen[pos] = stamp
    pos += b
    if pos >= n:
        pos -= n
    if seen[pos] == stamp:
        return False
    # the closing c step lands on vertex 0: the total is divisible by n
    return True


# ---------------------------------------------------------------------------
# sweep over all generator triples


def _sweep_shard(m: int, a_lo: int, a_hi: int):
    """Scan (a, b, c) for a in [a_lo, a_hi); returns raw canonical keys."""
    n = 3 * m
    axial: set = set()
    circular: set = set()
    regular: set = set()
    other: set = set()
    seen = [0] * n
    stamp = 0
    for a in range(a_lo, a_hi):
        for b in range(1, n):
            for c in range(1, n):
                stamp += 1
                if not _walk3(n, m, a, b, c, seen, stamp):
                    continue
                profile = period3_profile(n, (a, b, c))
                rot, axes = profile.rotation_order, profile.axis_count
                key = canonical_period3(n, (a, b, c))
                if axes == n:
                    regular.add(key)
                elif axes == m:
                    axial.add(key)
                elif axes == 0 and rot == m:
                    circular.add(key)
                else:
                    other.add(key)
    return axial, circular, regular, other


def sweep_period3(m: int, jobs: int = 1) -> OracleReport:
    """Classify every valid 3-periodic walk on n = 3m vertices.

    All (n-1)^3 generator triples are tried; no residue or gcd
    conditions are applied, so the result is independent of the
    enumeration module.
    """
    _require_family_m(m)
    n = 3 * m
    start = time.perf_counter()
    bounds = _shard_bounds(1, n, jobs)
    tasks = [(m, lo, hi) for lo, hi in bounds]
    if len(tasks) <= 1:
        parts = [_sweep_shard(*t) for t in tasks]
    else:
        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            parts = pool.starmap(_sweep_shard, tasks)
    axial: set = set()
    circular: set = set()
    regular: set = set()
    other: set = set()
    for ax, ci, re, ot in parts:
        axial |= ax
        circular |= ci
        regular |= re
        other |= ot
    return OracleReport(
        n=n,
        axial_classes=frozenset(SideTuple(n, k) for k in axial),
        circular_classes=frozenset(SideTuple(n, k) for k in circular),
        regular_classes=frozenset(SideTuple(n, k) for k in regular),
        other_count=len(other),
        census_size=(n - 1) ** 3,
        elapsed=time.perf_counter() - start,
    )


def _shard_bounds(lo: int, hi: int, jobs: int) -> list[tuple[int, int]]:
    """Split [lo, hi) into at most ``jobs`` contiguous nonempty ranges."""
    jobs = max(1, min(jobs, hi - lo))
    width, extra = divmod(hi - lo, jobs)
    bounds = []
    at = lo
    for i in range(jobs):
        nxt = at + width + (1 if i < extra else 0)
        bounds.append((at, nxt))
        at = nxt
    return bounds


# ---------------------------------------------------------------------------
# full census of Hamiltonian cycles


def _census_shard(n: int, second: int):
    """Examine all cycles 0 -> second -> ... -> 0 with second < last vertex.

    Every undirected Hamiltonian cycle shows up exactly once across the
    shards second = 1..n-1 (fixing start 0 kills rotation of the start
    point, second < last kills direction).  Cycles whose chord set has
    no rotation symmetry beyond the identity are Other by definition;
    they are screened out cheaply: a nontrivial rotation forces the side
    sequence to match a nonzero shift of itself, or a shift of its
    reversed complement, and the latter needs sum(sides) = n^2 / 2.  The
    screen searches the sides as bytes (n <= 12, so each side fits one);
    the few survivors go through the side-sequence symmetry kernel.
    """
    step = tuple(tuple((q - p) % n for q in range(n)) for p in range(n))
    fam = n >= 9 and n % 3 == 0
    m = n // 3
    axial: set = set()
    circular: set = set()
    regular: set = set()
    other: set = set()
    count = 0
    pool = [v for v in range(1, n) if v != second]
    target_sum = n * n  # == 2 * sum(sides) when a reversing rotation exists
    for rest in itertools.permutations(pool):
        if rest[-1] < second:
            continue
        count += 1
        sides = [second]
        add = sides.append
        prev = second
        for v in rest:
            add(step[prev][v])
            prev = v
        add(n - prev)
        sb = bytes(sides)
        if (sb + sb).find(sb, 1) >= n:
            if 2 * sum(sides) != target_sum:
                continue
            rc = bytes(n - x for x in reversed(sb))
            if (rc + rc).find(sb) < 0:
                continue
        profile = side_symmetry(n, sides).profile
        rot, axes = profile.rotation_order, profile.axis_count
        key = canonical_sides(n, sides)
        if axes == n:
            regular.add(key)
        elif fam and axes == m:
            axial.add(key)
        elif fam and axes == 0 and rot == m:
            circular.add(key)
        else:
            other.add(key)
    return axial, circular, regular, other, count


def census_full(n: int, jobs: int = 1) -> OracleReport:
    """Classify every Hamiltonian cycle on n vertices ((n-1)!/2 of them)."""
    if n < 3:
        raise NTooSmall(n)
    if n > CENSUS_MAX_N:
        raise NTooLarge(n)
    start = time.perf_counter()
    tasks = [(n, second) for second in range(1, n)]
    if jobs <= 1:
        parts = [_census_shard(*t) for t in tasks]
    else:
        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            parts = pool.starmap(_census_shard, tasks)
    axial: set = set()
    circular: set = set()
    regular: set = set()
    other: set = set()
    total = 0
    for ax, ci, re, ot, cnt in parts:
        axial |= ax
        circular |= ci
        regular |= re
        other |= ot
        total += cnt
    return OracleReport(
        n=n,
        axial_classes=frozenset(SideTuple(n, k) for k in axial),
        circular_classes=frozenset(SideTuple(n, k) for k in circular),
        regular_classes=frozenset(SideTuple(n, k) for k in regular),
        other_count=len(other),
        census_size=total,
        elapsed=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# cross-checks against the enumeration module


def theorem_axial_classes(m: int) -> frozenset[SideTuple]:
    """Canonical forms of the classes produced by enumerate_axial."""
    n = 3 * m
    return frozenset(
        SideTuple(n, canonical_period3(n, (r.a, r.b, r.a))) for r in enumerate_axial(m)
    )


def theorem_circular_classes(m: int) -> frozenset[SideTuple]:
    """Canonical forms of the classes produced by enumerate_circular."""
    n = 3 * m
    return frozenset(
        SideTuple(n, canonical_period3(n, (r.a, r.b, r.c)))
        for r in enumerate_circular(m)
    )


def _scan_axial_count(m: int) -> int:
    """Axial class count by scanning every residue-1 pair (no formulas)."""
    n = 3 * m
    cop = [1 if math.gcd(u, m) == 1 else 0 for u in range(m)]
    count = 0
    vals = range(1, n - 1, 3)
    for a in vals:
        for b in vals:
            if b != a and cop[((2 * a + b) // 3) % m]:
                count += 1
    return count


def _scan_circular_count(m: int) -> int:
    """Circular class count by scanning every residue-1 triple.

    Ordered triples are counted with a byte table for the coprimality
    test; every class is hit exactly three times (its cyclic shifts).
    """
    n = 3 * m
    cop = [1 if math.gcd(u, m) == 1 else 0 for u in range(m)]
    ok = bytearray(9 * m)  # index a+b+c, multiples of 3 only
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
    if raw % 3:
        raise AssertionError(f"raw circular triple count not divisible by 3 at m={m}")
    return raw // 3


def verify_identity(m: int) -> IdentityCheck:
    """Check m^2 phi(m) = 3|Q| + 3|P| + phi(3m)/2 with scanned |P|, |Q|.

    The right side uses enumerated cardinalities, not the closed count
    formulas.  Raises VerificationError on mismatch.
    """
    _require_family_m(m)
    lhs = m * m * euler_phi(m)
    rhs = (
        3 * _scan_circular_count(m)
        + 3 * _scan_axial_count(m)
        + euler_phi(3 * m) // 2
    )
    if lhs != rhs:
        raise VerificationError(f"identity fails at m={m}: {lhs} != {rhs}")
    return IdentityCheck(m, lhs, rhs)


def verify_theorem_gcd(m: int, family: str) -> bool:
    """Check walk validity <=> gcd condition over the whole generator range.

    For axial, every ordered residue-1 pair (a, b), a != b, must satisfy:
    (a, b, a) * m is a valid walk iff gcd(2a + b, 3m) = 3.  For circular,
    every pairwise-distinct residue-1 triple: valid iff gcd(a+b+c, 3m) = 3.
    Returns True, or raises VerificationError with the first counterexample.
    """
    _require_family_m(m)
    n = 3 * m
    vals = range(1, n - 1, 3)
    seen = [0] * n
    stamp = 0
    if family == "axial":
        for a in vals:
            for b in vals:
                if b == a:
                    continue
                stamp += 1
                walk_ok = _walk3(n, m, a, b, a, seen, stamp)
                if walk_ok != (math.gcd(2 * a + b, n) == 3):
                    raise VerificationError(
                        f"axial biconditional fails at m={m}, (a,b)=({a},{b}): "
                        f"walk={walk_ok}, gcd(2a+b,3m)={math.gcd(2 * a + b, n)}"
                    )
    elif family == "circular":
        for a in vals:
            for b in vals:
                if b == a:
                    continue
                for c in vals:
                    if c == a or c == b:
                        continue
                    stamp += 1
                    walk_ok = _walk3(n, m, a, b, c, seen, stamp)
                    if walk_ok != (math.gcd(a + b + c, n) == 3):
                        raise VerificationError(
                            f"circular biconditional fails at m={m}, "
                            f"(a,b,c)=({a},{b},{c}): walk={walk_ok}, "
                            f"gcd(a+b+c,3m)={math.gcd(a + b + c, n)}"
                        )
    else:
        raise ValueError(f"family must be 'axial' or 'circular', got {family!r}")
    return True

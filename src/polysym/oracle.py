"""Brute-force verification of the family counts and class sets.

Two independent searches back the closed formulas:

* ``sweep_period3`` covers every raw generator triple (a, b, c) in
  [1, n-1]^3 with no arithmetic filtering: it walks the least triple of
  every orbit under the block's cyclic shifts and reversed complement,
  keeps the valid walks, and classifies them geometrically;
* ``census_full`` covers every Hamiltonian cycle on n circle vertices
  (n <= 12): a depth-first search builds and classifies the cycles that
  can have a nontrivial rotation and counts the others by subtree size.

Both report rotation classes by canonical side tuple.  ``verify_sweep``
and ``verify_census`` compare a finished report with the closed formulas,
the theorem enumerators and each other, and return the record that
``polysym verify`` prints.  Work is split into deterministic shards;
shard results merge by plain set union, so reports do not depend on the
worker count.  ``sweep_reports`` streams the shards of a whole range of
m to the workers at once and yields each m's report as it completes.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import multiprocessing
import os
import time
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from .classification import FamilyTag, family_of
from .enumeration import (
    MTooSmall,
    _axial_pairs,
    _circular_triples,
    count_axial,
    count_circular,
    euler_phi,
)
from .polygon_core import (
    SideTuple,
    canonical_sides,
    least_period,
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

    Each class is stored as a block whose repetition is its canonical
    side tuple: the canonical 3-block for the sweep, the whole canonical
    side tuple for the census.  ``axial_classes``, ``circular_classes``
    and ``regular_classes`` are those side tuples as ``SideTuple``s,
    built on first access.  ``census_size`` is the size of the space
    the search covers: the (n-1)^3 generator triples for the sweep
    (which walks only the least triple of each orbit), the undirected
    Hamiltonian cycles for the census.  ``other_count`` is the number
    of rotation classes that carry some nontrivial rotation symmetry yet
    fall in no family (for example a cycle whose sides repeat with
    period 2).  The census profiles each class with ``side_symmetry``,
    whose ``SymmetryProfile`` rejects mirror axes without an equal number
    of rotations, so near-miss family members cannot pass unnoticed.
    ``stats`` holds stage counters: for the census ``cycles``,
    ``screened_out`` and ``profiled``; empty for the sweep.
    ``elapsed`` is the wall time spent collecting the search's shard
    results.  For a sweep report (from ``sweep_reports``, which
    ``sweep_period3`` calls) it starts when the caller asks for that
    report, so shards of this m that the workers finished while the
    caller checked the previous m do not count.
    """

    n: int
    axial_blocks: frozenset[tuple[int, ...]]
    circular_blocks: frozenset[tuple[int, ...]]
    regular_blocks: frozenset[tuple[int, ...]]
    other_count: int
    census_size: int
    elapsed: float
    stats: Mapping[str, int] = field(default_factory=dict, hash=False)

    def _classes(self, blocks: frozenset[tuple[int, ...]]) -> frozenset[SideTuple]:
        return frozenset(SideTuple(self.n, k * (self.n // len(k))) for k in blocks)

    @functools.cached_property
    def axial_classes(self) -> frozenset[SideTuple]:
        return self._classes(self.axial_blocks)

    @functools.cached_property
    def circular_classes(self) -> frozenset[SideTuple]:
        return self._classes(self.circular_blocks)

    @functools.cached_property
    def regular_classes(self) -> frozenset[SideTuple]:
        return self._classes(self.regular_blocks)


def _require_family_m(m: int) -> None:
    if m <= 2:
        raise MTooSmall(m)


# ---------------------------------------------------------------------------
# worker pools


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS and Windows
        return os.cpu_count() or 1


def pool_size(jobs: int, shards: int) -> int:
    """Worker processes for ``shards`` tasks: ``jobs``, capped by the shard
    count and by the CPUs this process may run on.  1 means run serially."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, shards, _usable_cpus())


@contextlib.contextmanager
def worker_pool(jobs: int, shards: int):
    """A process pool of ``pool_size(jobs, shards)`` workers, or None when
    that size is 1.  One pool can serve many searches in a row."""
    size = pool_size(jobs, shards)
    if size == 1:
        yield None
        return
    with multiprocessing.Pool(size) as pool:
        yield pool


def _run_shards(shard, tasks: list[tuple], jobs: int, pool) -> Iterator:
    """``shard(task)`` for every task, yielded in order as each arrives.

    The tasks go to ``pool`` (from ``worker_pool``), or to a pool of our
    own sized by ``jobs``, in one ordered ``imap``; run serially, each is
    computed in this process when asked for.  A pool of our own lives
    until the last result is taken or the generator is closed."""
    with contextlib.ExitStack() as stack:
        if pool is None:
            pool = stack.enter_context(worker_pool(jobs, len(tasks)))
        yield from map(shard, tasks) if pool is None else pool.imap(shard, tasks)


# ---------------------------------------------------------------------------
# bitset walk check shared by the sweep and the gcd verifier
#
# The walk (a, b, c) * m visits k*s, k*s + a and k*s + a + b (k < m,
# s = a + b + c) and ends at m*s, which is vertex 0 exactly when
# s = 0 mod 3.  Its n positions are distinct exactly when the m
# multiples of s are distinct and the three shifted copies of that set
# cover all n vertices.  The tests pin this against validate_walk on
# every triple for small m.


def _walk_rows(m: int) -> list[list[int] | None]:
    """For each s in 0..n-1: the n rotations of {k*s mod n : k < m} as
    n-bit ints (rotation j at index j), or None when s != 0 mod 3 or the
    set repeats a vertex."""
    n = 3 * m
    full = (1 << n) - 1
    rows: list[list[int] | None] = [None] * n
    for s in range(0, n, 3):
        bits = 0
        pos = 0
        for _ in range(m):
            if bits >> pos & 1:
                break
            bits |= 1 << pos
            pos = (pos + s) % n
        else:
            rows[s] = [((bits << j) | (bits >> (n - j))) & full for j in range(n)]
    return rows


def _walk_ok(rows: list, full: int, a: int, b: int, c: int) -> bool:
    """Whether (a, b, c) * m is a valid walk, given ``_walk_rows(m)``."""
    n = len(rows)
    r = rows[(a + b + c) % n]
    return r is not None and (r[0] | r[a] | r[(a + b) % n]) == full


# ---------------------------------------------------------------------------
# sweep over all generator triples


def sweep_tasks(m: int, jobs: int) -> list[tuple[int, int, int]]:
    """The shards (m, first, step) of ``sweep_period3(m, jobs)``: shard i
    scans the first sides a = i, i + k, i + 2k, ... up to n // 2, for
    k = min(jobs, n // 2) shards.  Interleaving balances them, as a small
    a costs the most."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    k = min(jobs, 3 * m // 2)
    return [(m, first, k) for first in range(1, k + 1)]


def _sweep_shard(task: tuple[int, int, int]):
    """Scan the orbit-least candidates (a, b, c) of the shard ``task`` =
    (m, first, step), those with a = first, first + step, ...; returns the
    canonical 3-blocks of the axial, circular, regular and other classes
    found, as four lists.  Each candidate is scanned once, so no list
    repeats a block.  A list unpickles into one buffer, so shard results
    waiting in the parent for their merge stay small.

    Validity and class are invariant under the six images of a block (its
    cyclic shifts and those of its reversed complement), so each orbit is
    examined at its least triple, which is its canonical block.  That
    triple has a <= b, a <= c and a <= n - a, n - b, n - c, so candidates
    run over a <= n // 2 and a <= b, c <= n - a, with c stepping through
    the values that close the walk (a + b + c = 0 mod 3).  Every candidate
    is walked; an image can only tie or beat it when it also starts with
    a, and then the full six-image minimum decides.
    """
    m, first, step = task
    n = 3 * m
    full = (1 << n) - 1
    rows = _walk_rows(m)
    axial: list = []
    circular: list = []
    regular: list = []
    other: list = []
    for a in range(first, n // 2 + 1, step):
        top = n - a
        for b in range(a, top + 1):
            ab = a + b
            abn = ab % n
            for c in range(a + (-ab - a) % 3, top + 1, 3):
                r = rows[(ab + c) % n]
                if r is None or (r[0] | r[a] | r[abn]) != full:
                    continue
                t = (a, b, c)
                rc = ((n - c, n - b, n - a), (n - b, n - a, n - c), (n - a, n - c, n - b))
                if (b == a or c == a or b == top or c == top or 2 * a == n) and t != min(
                    t, (b, c, a), (c, a, b), *rc
                ):
                    continue
                # block_symmetry's profile, read off directly: the reversal
                # is a shift of a valid block exactly when two sides are equal
                # (m axes; all three equal is the regular star), its
                # complement never is, and its reversed complement (rotation
                # order 2m) only with three distinct sides
                if a == b == c:
                    regular.append(t)
                elif a == b or b == c or a == c:
                    axial.append(t)
                elif t in rc:
                    other.append(t)
                else:
                    circular.append(t)
    return axial, circular, regular, other


def sweep_reports(ms: Iterable[int], jobs: int = 1, pool=None) -> Iterator[OracleReport]:
    """``sweep_period3(m, jobs)`` for each m of ``ms``, yielded in order.

    Every shard of every m (``sweep_tasks(m, jobs)``) goes to the workers
    in one ordered ``imap``, so they sweep the next m while the caller
    checks the report of this one; with no pool they run lazily in this
    process.  ``pool`` (from ``worker_pool``) runs them on existing
    workers; without it, ``jobs`` > 1 opens a pool for the whole range,
    which closing the returned iterator shuts down.  The reports do not
    depend on either.  ``ms`` and ``jobs`` are checked here, before any
    shard runs.
    """
    ms = list(ms)
    for m in ms:
        _require_family_m(m)
    tasks = [sweep_tasks(m, jobs) for m in ms]
    parts = _run_shards(_sweep_shard, [t for shards in tasks for t in shards], jobs, pool)
    return _sweep_stream(zip(ms, map(len, tasks)), parts)


def _sweep_stream(sizes, parts) -> Iterator[OracleReport]:
    """One report per (m, shard count) of ``sizes``, each from its next
    shard results in ``parts``; closing it closes ``parts``."""
    with contextlib.closing(parts):
        for m, count in sizes:
            yield _sweep_report(m, itertools.islice(parts, count))


def _sweep_report(m: int, parts) -> OracleReport:
    """The report of the sweep at m from the results of its shards.

    A function of its own, so that its working sets are freed before
    ``_sweep_stream`` yields the report.
    """
    start = time.perf_counter()
    axial: set = set()
    circular: set = set()
    regular: set = set()
    other: set = set()
    for ax, ci, re, ot in parts:
        axial.update(ax)
        circular.update(ci)
        regular.update(re)
        other.update(ot)
    n = 3 * m
    return OracleReport(
        n=n,
        axial_blocks=frozenset(axial),
        circular_blocks=frozenset(circular),
        regular_blocks=frozenset(regular),
        other_count=len(other),
        census_size=(n - 1) ** 3,
        elapsed=time.perf_counter() - start,
    )


def sweep_period3(m: int, jobs: int = 1, pool=None) -> OracleReport:
    """Classify every valid 3-periodic walk on n = 3m vertices.

    The orbits of all (n-1)^3 generator triples are covered; no residue
    or gcd conditions are applied, so the result is independent of the
    enumeration module.  ``pool`` (from ``worker_pool``) runs the shards
    of ``sweep_tasks(m, jobs)`` on existing workers; the result does not
    depend on either.  This is ``sweep_reports([m], jobs, pool)``.
    """
    (report,) = sweep_reports([m], jobs, pool)
    return report


# ---------------------------------------------------------------------------
# full census of Hamiltonian cycles


def census_tasks(n: int) -> list[tuple[int, int]]:
    """The shards of ``census_full(n)``: one per second vertex 1..n-2.

    A cycle 0 -> second -> ... -> last -> 0 is counted in the direction
    with second < last, so second = n - 1 has no cycles and gets no shard.
    """
    return [(n, second) for second in range(1, n - 1)]


_OPEN = -1  # no antipodal pair placed yet, so k is still free
_DEAD = -2  # no direction-reversing rotation on this branch


def _census_shard(task: tuple[int, int]):
    """Examine all cycles 0 -> second -> ... -> last -> 0 with second < last.

    Every undirected Hamiltonian cycle shows up exactly once across the
    shards of ``census_tasks(n)`` (fixing start 0 kills rotation of the
    start point, second < last kills direction).  Cycles whose chord set
    has no rotation symmetry beyond the identity are Other by definition,
    so only the others are built: a depth-first search places
    v_0 = 0, v_1 = second, v_2, ... one position at a time and follows a
    branch only while one of two necessary conditions for a nontrivial
    rotation v -> v + t can still hold.  A dropped subtree with r >= 1
    vertices left is counted by its size, (r-1)! * #{left v : v > second}.
    With sides s_i = v_{i+1} - v_i and indices mod n:

    * A rotation that keeps the direction makes the sides match a nonzero
      shift of themselves, so they repeat with some period p < n dividing
      n, hence with period d = n / q for a prime q dividing n.  Period d
      means v_{i+d} = v_i + D with D = v_d; closing after n/d blocks needs
      D = 0 mod d, so v_i + jD keeps the residue of v_i mod d, and
      v_0 .. v_{d-1} have distinct residues mod d.  The search checks the
      residues while i < d, D = 0 mod d at i = d and v_i = v_{i-d} + D
      after.  Conversely a full cycle passing these has d-periodic sides:
      the wrap v_{n-d+r} + D = v_r holds because (n/d) D = 0 mod n.
    * A rotation that reverses the direction reads the cycle backwards
      from some v_k with the same sides: v_{k-i} = v_i + t for every i.
      Applied twice this gives 2t = 0, and t = 0 would need k = 2i for
      every i, so n is even and t = h = n/2: every vertex and its antipode
      sit at positions that sum to k mod n.  An even k would pair position
      k/2 with itself, so k = 2c + 1 with 0 <= c < h, and the position
      pairs are {c - j, c + 1 + j} mod n for j < h.  The first of them
      the prefix completes is (c, c + 1), so the first antipodal pair
      placed must sit at adjacent positions, and it fixes k.  After that a
      position i whose partner k - i is filled must hold the antipode of
      that vertex, and any other position a vertex whose antipode is not
      placed yet.  A full cycle passing these has every antipodal pair
      summing to k, as each pair was checked when its later vertex was
      placed.

    So the cycles reached are exactly those whose sides match a nonzero
    shift of themselves or a shift of their reversed complement, that is
    the cycles with a nontrivial rotation, and each goes through the
    side-sequence kernel.  Returns the four class sets, the number of
    cycles (reached or counted) and the number profiled.  ``task`` is
    (n, second).
    """
    n, second = task
    h = n // 2
    periods = [  # n / q for each prime q dividing n
        n // q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))
    ]
    sizes = [math.factorial(k) for k in range(n)]
    verts = [0] * n  # v_0 .. v_{i-1} of the branch being searched
    at = [-1] * n  # the position of each placed vertex, -1 while free
    found: dict = {tag: set() for tag in FamilyTag}
    count = 0
    profiled = 0

    def place(i: int, v: int, live: list, k: int) -> tuple[list, int]:
        """The periods and the k still possible once v sits at position i."""
        keep = []
        for d in live:
            if i < d:  # v_0 .. v_{d-1} in distinct classes mod d
                ok = all((v - verts[j]) % d for j in range(i))
            elif i == d:  # D = v_d = 0 mod d
                ok = v % d == 0
            else:  # v_i = v_{i-d} + D
                ok = v == (verts[i - d] + verts[d]) % n
            if ok:
                keep.append(d)
        if k == _OPEN:
            p = at[(v + h) % n]
            if p >= 0:  # the first antipodal pair: adjacent, k = p + i
                k = 2 * i - 1 if p == i - 1 else _DEAD
        elif k != _DEAD:
            j = (k - i) % n  # the partner position: a filled one holds
            # the antipode of v, an open one keeps the antipode free
            if (v - verts[j]) % n != h if j < i else at[(v + h) % n] >= 0:
                k = _DEAD
        return keep, k

    def extend(i: int, rest: list, above: int, live: list, k: int) -> None:
        """Search position i onwards, with ``above`` of the free vertices
        ``rest`` greater than ``second``."""
        nonlocal count, profiled
        if not rest:
            count += 1
            profiled += 1
            sides = [(b - a) % n for a, b in zip(verts, verts[1:] + [0])]
            tag = family_of(n, side_symmetry(n, sides).profile).tag
            found[tag].add(canonical_sides(n, sides))
            return
        r = len(rest)
        for v in rest:
            if r == 1 and v < second:
                continue  # the cycle runs the other way
            left = above - (v > second)
            keep, k2 = place(i, v, live, k)
            if keep or k2 != _DEAD:
                verts[i] = v
                at[v] = i
                extend(i + 1, [u for u in rest if u != v], left, keep, k2)
                at[v] = -1
            else:
                count += sizes[r - 2] * left if r > 1 else 1

    at[0] = 0
    at[second] = 1
    verts[1] = second
    free = [v for v in range(1, n) if v != second]
    start = place(1, second, periods, _OPEN if n % 2 == 0 else _DEAD)
    extend(2, free, n - 1 - second, *start)
    return (
        found[FamilyTag.AXIAL],
        found[FamilyTag.CIRCULAR],
        found[FamilyTag.REGULAR],
        found[FamilyTag.OTHER],
        count,
        profiled,
    )


def census_full(n: int, jobs: int = 1, pool=None) -> OracleReport:
    """Classify every Hamiltonian cycle on n vertices ((n-1)!/2 of them).

    ``pool`` (from ``worker_pool``) runs the shards of ``census_tasks(n)``
    on existing workers; the result does not depend on it or on ``jobs``.
    The shards build only the cycles that can have a nontrivial rotation
    and add every pruned subtree to ``census_size`` by its exact size, so
    the (n-1)!/2 check still covers the whole search.  ``stats`` counts
    the cycles, those pruned without being built (``screened_out``) and
    those profiled by the symmetry kernel.
    """
    if n < 3:
        raise NTooSmall(n)
    if n > CENSUS_MAX_N:
        raise NTooLarge(n)
    start = time.perf_counter()
    parts = _run_shards(_census_shard, census_tasks(n), jobs, pool)
    axial: set = set()
    circular: set = set()
    regular: set = set()
    other: set = set()
    total = 0
    profiled = 0
    for ax, ci, re, ot, cnt, prof in parts:
        axial |= ax
        circular |= ci
        regular |= re
        other |= ot
        total += cnt
        profiled += prof
    return OracleReport(
        n=n,
        axial_blocks=frozenset(axial),
        circular_blocks=frozenset(circular),
        regular_blocks=frozenset(regular),
        other_count=len(other),
        census_size=total,
        elapsed=time.perf_counter() - start,
        stats={"cycles": total, "screened_out": total - profiled, "profiled": profiled},
    )


# ---------------------------------------------------------------------------
# cross-checks against the formulas, the enumeration module and each other


def theorem_axial_blocks(m: int) -> frozenset[tuple[int, int, int]]:
    """Canonical length-3 blocks of the classes enumerate_axial lists.

    The canonical block is the least of the six images of (a, b, a): its
    cyclic shifts and those of its reversed complement (n-a, n-b, n-a).
    Theorem generators are 1 mod 3 and the complemented entries n - x
    are 2 mod 3, so the two kinds of image never tie: the least
    starts with min(a, b) when that is below n - max(a, b), that is when
    a + b < n, and with n - max(a, b) otherwise.  So each class takes
    O(1), with no ``block_symmetry`` call.
    """
    _require_family_m(m)
    n = 3 * m
    return frozenset(
        ((a, a, b) if a < b else (b, a, a))
        if a + b < n
        else ((n - b, n - a, n - a) if a < b else (n - a, n - a, n - b))
        for a, b, _ in _axial_pairs(m)
    )


def theorem_circular_blocks(m: int) -> frozenset[tuple[int, int, int]]:
    """Canonical length-3 blocks of the classes enumerate_circular lists.

    By the residue argument of ``theorem_axial_blocks``, the least of the
    six images of the least-shift triple (a, b, c) (a < b, a < c) is
    (a, b, c) itself when a < n - max(b, c), and otherwise the shift of
    the reversed complement (n-c, n-b, n-a) that starts with n - max(b, c).
    """
    _require_family_m(m)
    n = 3 * m
    return frozenset(
        (a, b, c)
        if a + max(b, c) < n
        else ((n - b, n - a, n - c) if b > c else (n - c, n - b, n - a))
        for a, b, c, _ in _circular_triples(m)
    )


def _found(report: OracleReport) -> dict[str, int]:
    return {
        "axial": len(report.axial_blocks),
        "circular": len(report.circular_blocks),
        "regular": len(report.regular_blocks),
    }


def verify_sweep(report: OracleReport) -> dict:
    """Check a ``sweep_period3`` report against the closed counts and the
    theorem enumerators; returns its ``verify`` record.

    Both sides name each class by its canonical 3-block.  Raises
    VerificationError at the first mismatch.
    """
    m = report.n // 3
    found = _found(report)
    expected = {
        "axial": count_axial(m),
        "circular": count_circular(m),
        "regular": euler_phi(3 * m) // 2,
    }
    for fam, want in expected.items():
        if found[fam] != want:
            raise VerificationError(
                f"sweep m={m}: {fam} count {found[fam]} != formula {want}"
            )
    if report.axial_blocks != theorem_axial_blocks(m):
        raise VerificationError(f"sweep m={m}: axial class sets differ")
    if report.circular_blocks != theorem_circular_blocks(m):
        raise VerificationError(f"sweep m={m}: circular class sets differ")
    return {"m": m, **found, "other": report.other_count, "ok": True}


def verify_census(report: OracleReport) -> dict:
    """Check a ``census_full`` report; returns its ``verify`` record.

    At n = 3m with m > 2 its family and regular classes must be those of
    a serial ``sweep_period3(m)`` (each sweep block repeated m times), and
    every family class must have side period 3; at any other n it must
    report no family class.  Then its cycle count must be (n-1)!/2 and
    its regular count phi(n)/2.  Raises VerificationError at the first
    mismatch.
    """
    n = report.n
    found = _found(report)
    if n % 3 == 0 and n >= 9:
        m = n // 3
        sweep = sweep_period3(m)
        for fam in ("axial", "circular", "regular"):
            blocks = getattr(sweep, f"{fam}_blocks")
            if getattr(report, f"{fam}_blocks") != {b * m for b in blocks}:
                raise VerificationError(f"census n={n}: {fam} differs from sweep")
        for sides in report.axial_blocks | report.circular_blocks:
            if least_period(sides) != 3:
                raise VerificationError(
                    f"census n={n}: class {sides} has side period != 3"
                )
    elif found["axial"] or found["circular"]:
        raise VerificationError(
            f"census n={n}: family classes reported although n is not 3m with m>2"
        )
    cycles = math.factorial(n - 1) // 2
    if report.census_size != cycles:
        raise VerificationError(
            f"census n={n}: cycle count {report.census_size} != formula {cycles}"
        )
    regular = euler_phi(n) // 2
    if found["regular"] != regular:
        raise VerificationError(
            f"census n={n}: regular count {found['regular']} != formula {regular}"
        )
    return {
        "n": n,
        "census_size": report.census_size,
        **found,
        "other": report.other_count,
        "ok": True,
    }


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

    Ordered triples are counted with a coprimality table indexed by
    a+b+c; for each pair (a, b) a stride-3 prefix sum of that table
    counts every c in one lookup.  Every class is hit exactly three
    times (its cyclic shifts).
    """
    n = 3 * m
    cop = [1 if math.gcd(u, m) == 1 else 0 for u in range(m)]
    ok = bytearray(9 * m)  # index a+b+c, multiples of 3 only
    for x in range(3, 9 * m, 3):
        ok[x] = cop[(x // 3) % m]
    # upto[x] = ok[x] + ok[x-3] + ok[x-6] + ...
    upto = list(ok)
    for x in range(3, 9 * m):
        upto[x] += upto[x - 3]
    vals = range(1, n - 1, 3)
    raw = 0
    for a in vals:
        for b in vals:
            if b == a:
                continue
            ab = a + b
            # c = 1, 4, ..., n - 2, less c = a and c = b
            raw += upto[ab + n - 2] - upto[ab - 2] - ok[ab + a] - ok[ab + b]
    if raw % 3:
        raise AssertionError(f"raw circular triple count not divisible by 3 at m={m}")
    return raw // 3


def verify_identity(m: int) -> dict:
    """Check m^2 phi(m) = 3|Q| + 3|P| + phi(3m)/2 with scanned |P|, |Q|.

    The right side uses enumerated cardinalities, not the closed count
    formulas.  Returns the ``verify`` record; raises VerificationError on
    mismatch.
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
    return {"m": m, "lhs": lhs, "rhs": rhs, "ok": True}


def verify_theorem_gcd(m: int, family: str) -> dict:
    """Check walk validity <=> gcd condition over the whole generator range.

    For axial, every ordered residue-1 pair (a, b), a != b, must satisfy:
    (a, b, a) * m is a valid walk iff gcd(2a + b, 3m) = 3.  For circular,
    every pairwise-distinct residue-1 triple: valid iff gcd(a+b+c, 3m) = 3.
    Returns the ``verify`` record, or raises VerificationError with the
    first counterexample.
    """
    _require_family_m(m)
    n = 3 * m
    rows = _walk_rows(m)
    full = (1 << n) - 1
    vals = range(1, n - 1, 3)
    if family == "axial":
        for a in vals:
            for b in vals:
                if b == a:
                    continue
                walk_ok = _walk_ok(rows, full, a, b, a)
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
                    walk_ok = _walk_ok(rows, full, a, b, c)
                    if walk_ok != (math.gcd(a + b + c, n) == 3):
                        raise VerificationError(
                            f"circular biconditional fails at m={m}, "
                            f"(a,b,c)=({a},{b},{c}): walk={walk_ok}, "
                            f"gcd(a+b+c,3m)={math.gcd(a + b + c, n)}"
                        )
    else:
        raise ValueError(f"family must be 'axial' or 'circular', got {family!r}")
    return {"m": m, "family": family, "ok": True}

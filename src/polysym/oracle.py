"""Brute-force verification of the family counts and class sets.

Two independent searches back the closed formulas:

* ``sweep_period3`` covers every raw generator triple (a, b, c) in
  [1, n-1]^3 with no arithmetic filtering: for each row (a, b) of least
  triples of the orbits under the block's cyclic shifts and reversed
  complement, the walked sets decide every third side c at once as one
  mask, and the row keeps each class as bit c, in its family's row map;
* ``census_full`` covers every Hamiltonian cycle on n circle vertices
  (n <= 12): a depth-first search builds and classifies the cycles that
  can have a nontrivial rotation and counts the others by subtree size.

Both report rotation classes by canonical block: the sweep as
``RowBlocks`` over its row maps, the census as sets of canonical side
tuples.  ``verify_sweep`` and ``verify_census`` compare a finished
report with the closed formulas, the theorem enumerators and each
other, and return the record that ``polysym verify`` prints.  Each
search is one serial pass in this process; no code in the package
starts a process, and ``jobs`` is checked but changes nothing.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections.abc import Iterable, Iterator, Mapping, Set
from dataclasses import dataclass, field

from .classification import FamilyTag, family_of
from .enumeration import (
    MTooSmall,
    block_rows,
    count_axial,
    count_circular,
    euler_phi,
)
from .polygon_core import (
    SideTuple,
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


class RowBlocks(Set):
    """A read-only set of 3-blocks (a, b, c) kept as rows: bit c of
    ``rows[(a, b)]`` is set for each block, and no row is 0, so two
    ``RowBlocks`` are equal exactly when their row maps are.  It compares
    equal to any other set with the same blocks and hashes like the
    ``frozenset`` of them; ``-``, ``|``, ``&`` and ``^`` return a
    ``frozenset``."""

    __slots__ = ("rows",)

    def __init__(self, rows: dict[tuple[int, int], int]):
        self.rows = rows

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    def __len__(self) -> int:
        return sum(mask.bit_count() for mask in self.rows.values())

    def __contains__(self, block) -> bool:
        if not (isinstance(block, tuple) and len(block) == 3):
            return False
        a, b, c = block
        if not (isinstance(c, int) and c >= 0):
            return False
        return bool(self.rows.get((a, b), 0) >> c & 1)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        for (a, b), mask in self.rows.items():
            while mask:
                low = mask & -mask
                mask ^= low
                yield a, b, low.bit_length() - 1

    def __eq__(self, other) -> bool:
        if isinstance(other, RowBlocks):
            return self.rows == other.rows
        return Set.__eq__(self, other)

    def __hash__(self) -> int:
        return self._hash()

    def __repr__(self) -> str:
        return f"RowBlocks({self.rows!r})"


@dataclass(frozen=True)
class OracleReport:
    """Classes found by one brute-force search.

    Each class is stored as a block whose repetition is its canonical
    side tuple: the canonical 3-block for the sweep (in ``RowBlocks``),
    the whole canonical side tuple for the census (in frozensets).
    ``axial_classes``, ``circular_classes`` and ``regular_classes`` are
    those side tuples as ``SideTuple``s, built on first access.  ``census_size`` is the size of the space
    the search covers: the (n-1)^3 generator triples for the sweep
    (which walks only the least triple of each orbit), the undirected
    Hamiltonian cycles for the census.  ``other_count`` is the number
    of rotation classes that carry some nontrivial rotation symmetry yet
    fall in no family (for example a cycle whose sides repeat with
    period 2); it is 0 for the sweep, whose blocks have no such class by
    the lemma in ``block_symmetry``.  The census profiles each class with
    ``side_symmetry``, whose ``SymmetryProfile`` rejects mirror axes
    without an equal number of rotations, so near-miss family members
    cannot pass unnoticed.
    ``stats`` holds stage counters: for the census ``cycles``,
    ``screened_out`` and ``profiled``; for the sweep the ``rows`` (a, b)
    the walk kernel decided, the valid ``candidates`` in them, those an
    image ``beaten``, and the classes kept per family (``axial``,
    ``circular``, ``regular``), which sum with ``beaten`` to
    ``candidates``.
    ``elapsed`` is the wall time of the search.
    """

    n: int
    axial_blocks: Set[tuple[int, ...]]
    circular_blocks: Set[tuple[int, ...]]
    regular_blocks: Set[tuple[int, ...]]
    other_count: int
    census_size: int
    elapsed: float
    stats: Mapping[str, int] = field(default_factory=dict, hash=False)

    def _classes(self, blocks: Set[tuple[int, ...]]) -> frozenset[SideTuple]:
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
# bitset walk kernel shared by the sweep and the gcd verifier
#
# The walk (a, b, c) * m visits k*s, k*s + a and k*s + a + b (k < m,
# s = a + b + c) and ends at m*s, which is vertex 0 exactly when
# s = 0 mod 3.  Its n positions are distinct exactly when the m
# multiples of s are distinct and the three shifted copies of that set
# cover all n vertices.  So for a fixed pair (a, b) one pass over the
# distinct walked sets decides every third side c at once, as an n-bit
# mask.  The kernel groups the sums by the set they walk and never
# assumes which sums are valid: that is the gcd rule it checks.  The
# tests pin it against validate_walk on every triple for small m.


def _walk_sets(m: int) -> list[tuple[list[int], list[int]]]:
    """The distinct sets {k*s mod n : k < m} of m distinct vertices walked
    by the closing sums s = 0, 3, ..., n - 3, one entry per set whatever
    the number of sums that walk it, as (rots, thirds): rots[j] is the set
    rotated by j, and thirds[x] the mask of the sums that walk it rotated
    back by x, that is of the c with c + x mod n among those sums; all are
    n-bit ints.  A sum whose multiples repeat a vertex is in no entry."""
    n = 3 * m
    full = (1 << n) - 1
    sums: dict[int, int] = {}
    for s in range(0, n, 3):
        bits = 0
        pos = 0
        for _ in range(m):
            if bits >> pos & 1:
                break
            bits |= 1 << pos
            pos = (pos + s) % n
        else:
            sums[bits] = sums.get(bits, 0) | 1 << s
    return [
        ([((bits << j) | (bits >> (n - j))) & full for j in range(n)], _rotated_back(mask, n))
        for bits, mask in sums.items()
    ]


def _rotated_back(mask: int, n: int) -> list[int]:
    """The n-bit ``mask`` rotated back by x, at index x: bit c of entry x
    is bit c + x mod n of ``mask``."""
    full = (1 << n) - 1
    return [((mask >> x) | (mask << (n - x))) & full for x in range(n)]


def _third_sides(sets: list[tuple[list[int], list[int]]], n: int, a: int) -> list[int]:
    """For the first side a and each x = a + b mod n (index x): the mask of
    the third sides c for which (a, b, c) * m is a valid walk, given
    ``_walk_sets(m)``.  The walk with sum s = x + c is valid exactly when
    the set s walks, ORed with its rotations by a and x, covers every
    vertex.  That is one check per walked set and x, and a set that passes
    it gives the third sides of all its sums at once."""
    full = (1 << n) - 1
    row = [0] * n
    for rots, thirds in sets:
        ra = rots[0] | rots[a]
        for x, rx in enumerate(rots):
            if ra | rx == full:
                row[x] |= thirds[x]
    return row


# ---------------------------------------------------------------------------
# sweep over all generator triples


def _sweep_shard(m: int):
    """Decide every row (a, b) of orbit-least candidates of the sweep at m,
    for each first side a = 1 .. n // 2; returns the axial, circular and
    regular classes found, as three row maps {(a, b): c-mask} holding the
    canonical 3-block (a, b, c) of each class as bit c of row (a, b) (by
    the lemma in ``block_symmetry``, no valid block falls in no family),
    and the counters: the ``rows`` decided, the valid ``candidates`` in
    them and the candidates an image ``beaten``.  No row map holds a
    zero mask.

    Validity and class are invariant under the six images of a block (its
    cyclic shifts and those of its reversed complement), so each orbit is
    examined at its least triple, which is its canonical block.  That
    triple has a <= b, a <= c and a <= n - a, n - b, n - c, so candidates
    run over a <= n // 2 and a <= b, c <= n - a.  For each (a, b) the walk
    kernel gives every c that makes a valid walk as one mask
    (``_third_sides``); cut to the window [a, n - a], its set bits are the
    valid candidates.  An image can only tie or beat a candidate when it
    also starts with a, and then the full six-image minimum decides.  In a
    row with a < b < n - a that can only happen at c = a or c = n - a (and
    then a < n - a too), so only those bits are tested; a special row,
    b = a or b = n - a, tests every bit.  (At a = n / 2 the only row is
    b = a.)  The class is read off the row, as ``block_symmetry``'s profile:
    the reversal is a shift of a valid block exactly when two sides are
    equal (m axes; all three equal is the regular star), and its
    complement and reversed complement never are.  So in a row with
    b = a, bit a is regular and the rest axial; in any other row, bits a
    and b are axial and the rest circular.
    """
    n = 3 * m
    sets = _walk_sets(m)
    axial: dict[tuple[int, int], int] = {}
    circular: dict[tuple[int, int], int] = {}
    regular: dict[tuple[int, int], int] = {}
    rows = candidates = beaten = 0
    for a in range(1, n // 2 + 1):
        top = n - a
        window = (1 << (top + 1)) - (1 << a)
        ends = 1 << a | 1 << top
        thirds = _third_sides(sets, n, a)
        rows += top + 1 - a
        for b in range(a, top + 1):
            row = thirds[(a + b) % n] & window
            if not row:
                continue
            candidates += row.bit_count()
            ties = row if b == a or b == top else row & ends
            while ties:
                low = ties & -ties
                ties ^= low
                c = low.bit_length() - 1
                t = (a, b, c)
                if t != min(
                    t,
                    (b, c, a),
                    (c, a, b),
                    (n - c, n - b, n - a),
                    (n - b, n - a, n - c),
                    (n - a, n - c, n - b),
                ):
                    row ^= low
                    beaten += 1
            two = row & (1 << a | 1 << b)  # c repeats a side
            rest = row ^ two
            repeat, other = (regular, axial) if b == a else (axial, circular)
            if two:
                repeat[a, b] = two
            if rest:
                other[a, b] = rest
    counts = {"rows": rows, "candidates": candidates, "beaten": beaten}
    return axial, circular, regular, counts


def sweep_period3(m: int, jobs: int = 1) -> OracleReport:
    """Classify every valid 3-periodic walk on n = 3m vertices.

    The orbits of all (n-1)^3 generator triples are covered; no residue
    or gcd conditions are applied, so the result is independent of the
    enumeration module.  The sweep runs in this process, as one
    ``_sweep_shard(m)``, and its class sets are ``RowBlocks`` over that
    shard's row maps.  ``stats`` holds the shard's counters and the
    classes kept per family, so ``candidates == beaten + axial +
    circular + regular``.  ``jobs`` must be at least 1 and is otherwise
    not read.
    """
    _require_family_m(m)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    start = time.perf_counter()
    *found, counts = _sweep_shard(m)
    axial, circular, regular = map(RowBlocks, found)
    n = 3 * m
    return OracleReport(
        n=n,
        axial_blocks=axial,
        circular_blocks=circular,
        regular_blocks=regular,
        other_count=0,
        census_size=(n - 1) ** 3,
        elapsed=time.perf_counter() - start,
        stats={
            **counts,
            "axial": len(axial),
            "circular": len(circular),
            "regular": len(regular),
        },
    )


# ---------------------------------------------------------------------------
# full census of Hamiltonian cycles


def _max_periods(n: int) -> list[int]:
    """n / q for each prime q dividing n: the maximal proper periods."""
    return [
        n // q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))
    ]


_OPEN = -1  # no antipodal pair placed yet, so k is still free
_DEAD = -2  # no direction-reversing rotation on this branch


def _census_search(n: int, seconds: Iterable[int] | None = None):
    """Examine all cycles 0 -> second -> ... -> last -> 0 with second < last,
    for each second vertex in ``seconds``, 1 .. n - 2 by default.

    Every undirected Hamiltonian cycle shows up exactly once (fixing
    start 0 kills rotation of the start point, second < last kills
    direction, and second = n - 1 leaves no greater last vertex).  Cycles
    whose chord set has no rotation symmetry beyond the identity are
    Other by definition, so only the others are built: a depth-first
    search places v_0 = 0, v_1 = second, v_2, ... one position at a time
    and follows a branch only while one of two necessary conditions for a
    nontrivial rotation v -> v + t can still hold.  A subtree with r >= 1
    vertices left that is not searched one position at a time is counted
    by its size, (r-1)! * #{left v : v > second}.  With sides
    s_i = v_{i+1} - v_i and indices mod n:

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
    the cycles with a nontrivial rotation.  The free vertices are one
    n-bit mask: each live condition admits a mask of them, and every free
    vertex outside their union is dropped with its subtree in one
    popcount step.  Once one condition alone is left, the rest of the
    branch is fixed by it, so the node adds its own subtree size and
    builds that condition's cycles directly, skipping those whose last
    vertex is below ``second``:

    * the half-turn alone, with k fixed: each open position t whose
      partner k - t is filled takes that vertex's antipode, which is still
      free (the check above lets it sit only at position t).  The other
      open positions pair up as {t, k - t}, and there are as many of
      these position pairs as antipodal pairs with both vertices free.
      So every way of putting one such vertex pair on each position pair,
      in either order, passes the check at every position and completes
      a cycle, and no other completion passes it;
    * one period d alone, with i > d and the half-turn dead: every later
      vertex is v_{t-d} + D, and the branch holds this one cycle.  D is a
      multiple jd of d with 0 < j < q, so it has order q = n/d mod n, and
      v_c + jD for j < q are the q vertices of v_c's class mod d, a
      different class for each c < d: no vertex comes twice.

    The search reads a cycle of a rotation class as a cyclic shift of the
    class's sides (it starts at another vertex) or of their reversed
    complement (it runs the other way).  So the side-sequence kernel runs
    only on a cycle whose side bytes are not in ``seen``, which holds
    those 2n readings of every class recorded so far, as ``bytes``.  The
    complement and the reversal are mirror images, other classes unless
    the polygon has an axis, and are not added.  Returns the four class
    sets, of side tuples, the number of cycles (reached or counted) and
    the number built and matched to a class.
    """
    h = n // 2
    periods = _max_periods(n)
    sizes = [math.factorial(k) for k in range(n)]
    everyone = (1 << n) - 1
    # residue[d][c]: the vertices = c mod d
    residue = {d: [sum(1 << v for v in range(c, n, d)) for c in range(d)] for d in periods}
    verts = [0] * n  # v_0 .. v_{i-1} of the branch being searched
    found: dict = {tag: set() for tag in FamilyTag}
    seen: set[bytes] = set()
    count = 0
    profiled = 0

    def record() -> None:
        """Match the finished cycle in ``verts`` to its class."""
        nonlocal profiled
        profiled += 1
        sides = bytes([(b - a) % n for a, b in zip(verts, verts[1:] + [0])])
        if sides in seen:
            return
        sym = side_symmetry(n, sides)
        found[family_of(n, sym.profile).tag].add(sym.block * (n // sym.period))
        back = bytes([n - s for s in reversed(sides)])
        sides += sides
        back += back
        for j in range(n):
            seen.add(sides[j : j + n])
            seen.add(back[j : j + n])

    def extend(i: int, free: int, live: list, k: int) -> None:
        """Search position i onwards, with the vertices ``free`` left, the
        periods ``live`` and the k still possible."""
        nonlocal count
        r = n - i
        if not r:
            count += 1
            record()
            return
        if (not live and k >= 0) or (k == _DEAD and len(live) == 1 and i > live[0]):
            # one condition alone: it fixes the rest of the branch
            count += sizes[r - 1] * (free & above).bit_count()
            if live:  # the period: each later vertex D past v_{t-d}
                d = live[0]
                for t in range(i, n):
                    verts[t] = (verts[t - d] + verts[d]) % n
                if verts[-1] > second:
                    record()
                return
            # the half-turn: antipodes of the filled partners, then the
            # free antipodal pairs on the open position pairs
            opens = []
            for t in range(i, n):
                j = (k - t) % n
                if j < i:
                    verts[t] = (verts[j] + h) % n
                    free ^= 1 << verts[t]
                elif t < j:
                    opens.append((t, j))
            pairs = [u for u in range(h) if free >> u & 1]
            for order in itertools.permutations(pairs):
                for flips in itertools.product((0, h), repeat=len(order)):
                    for (t, j), u, f in zip(opens, order, flips):
                        verts[t] = u + f
                        verts[j] = u + h - f
                    if verts[-1] > second:
                        record()
            return
        admits = []
        union = 0
        for d in live:
            if i < d:  # v_0 .. v_{d-1} in distinct classes mod d
                mask = free
                for j in range(i):
                    mask &= ~residue[d][verts[j] % d]
            elif i == d:  # D = v_d = 0 mod d
                mask = free & residue[d][0]
            else:  # v_i = v_{i-d} + D
                mask = free & 1 << (verts[i - d] + verts[d]) % n
            admits.append(mask)
            union |= mask
        if k != _DEAD:
            # the free vertices whose antipode is free too
            paired = free & (free >> h | free << h)
            if k == _OPEN:  # the first antipodal pair: adjacent, k = 2i - 1
                first = 1 << (verts[i - 1] + h) % n
                turn = free & (paired | first)
            else:  # the partner position: a filled one holds the antipode
                # of v, an open one keeps the antipode free
                j = (k - i) % n
                turn = free & 1 << (verts[j] + h) % n if j < i else paired
            union |= turn
        if r == 1:
            union &= above  # the cycle runs the other way
            count += (free & above & ~union).bit_count()
        else:
            dropped = free & ~union
            count += sizes[r - 2] * (
                dropped.bit_count() * (free & above).bit_count()
                - (dropped & above).bit_count()
            )
        while union:
            bit = union & -union
            union ^= bit
            keep = [d for d, mask in zip(live, admits) if mask & bit]
            k2 = k
            if k == _OPEN:
                if not paired & bit:
                    k2 = 2 * i - 1 if bit == first else _DEAD
            elif k != _DEAD and not turn & bit:
                k2 = _DEAD
            verts[i] = bit.bit_length() - 1
            extend(i + 1, free ^ bit, keep, k2)

    for second in range(1, n - 1) if seconds is None else seconds:
        verts[1] = second
        above = everyone ^ ((2 << second) - 1)  # the vertices above second
        # v_1 = second keeps each period d > 1 whose class mod d is not
        # that of v_0 = 0, and for even n is the antipode of v_0 exactly
        # when second = h: the first antipodal pair, at positions 0 and 1
        live = [d for d in periods if d == 1 or second % d]
        k = _DEAD if n % 2 else 1 if second == h else _OPEN
        extend(2, everyone ^ 1 ^ 1 << second, live, k)
    # extend reaches itself through its closure; dropping the name breaks
    # that cycle, so the memo is freed on return, not at a full collection
    del extend
    return (
        found[FamilyTag.AXIAL],
        found[FamilyTag.CIRCULAR],
        found[FamilyTag.REGULAR],
        found[FamilyTag.OTHER],
        count,
        profiled,
    )


def census_full(n: int, jobs: int = 1) -> OracleReport:
    """Classify every Hamiltonian cycle on n vertices ((n-1)!/2 of them).

    One serial ``_census_search(n)`` builds only the cycles that can have
    a nontrivial rotation, runs the side kernel once per rotation class,
    and adds every pruned or directly completed subtree to ``census_size``
    by its exact size, so the (n-1)!/2 check still covers the whole
    search.  ``jobs`` must be at least 1 and is otherwise not read.
    ``stats`` counts the cycles, those pruned without being built
    (``screened_out``) and those built and matched to a class
    (``profiled``).
    """
    if n < 3:
        raise NTooSmall(n)
    if n > CENSUS_MAX_N:
        raise NTooLarge(n)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    start = time.perf_counter()
    axial, circular, regular, other, total, profiled = _census_search(n)
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


def theorem_axial_blocks(m: int) -> RowBlocks:
    """Canonical length-3 blocks of the classes enumerate_axial lists, as
    the row map ``enumeration.block_rows(m, "axial")``: each row is one
    window of the theorem's coprime mask, with no step per class."""
    return RowBlocks(block_rows(m, "axial"))


def theorem_circular_blocks(m: int) -> RowBlocks:
    """Canonical length-3 blocks of the classes enumerate_circular lists,
    as the row map ``enumeration.block_rows(m, "circular")``: each row is
    one window of the theorem's coprime mask, with no step per class."""
    return RowBlocks(block_rows(m, "circular"))


def _found(report: OracleReport) -> dict[str, int]:
    return {
        "axial": len(report.axial_blocks),
        "circular": len(report.circular_blocks),
        "regular": len(report.regular_blocks),
    }


def verify_sweep(report: OracleReport) -> dict:
    """Check a ``sweep_period3`` report against the closed counts and the
    theorem enumerators; returns its ``verify`` record.

    Both sides name each class by its canonical 3-block and keep the
    classes as ``RowBlocks``, so the counts are popcounts and each class
    set comparison compares two row maps of ints, with no tuple per
    class; a report whose blocks are another kind of set is compared as
    a set.  Raises VerificationError at the first mismatch.
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


def _coprime_flags(m: int) -> list[int]:
    """cop[u] = 1 if gcd(u, m) == 1 else 0, for u = 0..m-1."""
    return [1 if math.gcd(u, m) == 1 else 0 for u in range(m)]


def _scan_axial_count(m: int) -> int:
    """Axial class count by counting every ordered residue-1 pair (no formulas).

    With a = 1+3i and b = 1+3j, (a, b, a) closes when u = (2a+b)/3 =
    1+2i+j is coprime to m.  For fixed i, u runs over m consecutive
    integers as j does, so one prefix table of cop[u % m] gives each
    row in one lookup, less the j = i term u = a.
    """
    cop = _coprime_flags(m)
    upto = [0, *itertools.accumulate(cop[u % m] for u in range(3 * m))]
    count = 0
    for i in range(m):
        a = 1 + 3 * i
        count += upto[2 * i + m + 1] - upto[2 * i + 1] - cop[a % m]
    return count


def _scan_circular_count(m: int) -> int:
    """Circular class count by counting every ordered residue-1 triple.

    With a, b, c = 1+3i, 1+3j, 1+3k, the triple closes when
    s = (a+b+c)/3 = 1+i+j+k is coprime to m; ok[s] flags that and
    upto[s] = ok[1] + ... + ok[s].  For a pair (i, j) the c with k != i, j
    number upto[i+j+m] - upto[i+j] - ok[1+2i+j] - ok[1+i+2j].  Summed
    over every j, the upto terms are range sums of upto, one lookup each
    in its own prefix table upto2, and the ok[1+2i+j] terms are a range
    sum of ok, one lookup in upto; over all pairs the ok[1+i+2j] terms
    total the same (swap a and b).  Taking off the j = i term leaves O(1)
    work per a after the O(m) tables.  Every class is hit exactly three
    times (its cyclic shifts).
    """
    cop = _coprime_flags(m)
    ok = [0, *(cop[s % m] for s in range(1, 3 * m))]
    upto = list(itertools.accumulate(ok))
    # upto2[s] = upto[0] + ... + upto[s-1]
    upto2 = [0, *itertools.accumulate(upto)]
    raw = 0
    for i in range(m):
        # over every j: the c in range, and the c = a
        in_range = upto2[i + 2 * m] - 2 * upto2[i + m] + upto2[i]
        c_is_a = upto[2 * i + m] - upto[2 * i]
        # c = b totals the same as c = a; the j = i term is
        # upto[2i+m] - upto[2i] - 2 ok[1+3i]
        raw += in_range - 2 * c_is_a - (c_is_a - 2 * ok[1 + 3 * i])
    if raw % 3:
        raise VerificationError(
            f"identity scan at m={m}: ordered circular triple count {raw} "
            "is not a multiple of 3"
        )
    return raw // 3


def verify_identity(m: int) -> dict:
    """Check m^2 phi(m) = 3|Q| + 3|P| + phi(3m)/2 with scanned |P|, |Q|.

    The right side counts the ordered residue-1 generator pairs and
    triples through a coprimality table (``_scan_axial_count``,
    ``_scan_circular_count``, O(m) each), not the closed count formulas.
    Returns the ``verify`` record; raises VerificationError on mismatch
    or when the triple count breaks its divisibility by 3.
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


def _gcd_sums(n: int) -> int:
    """The mask of the sums s in 0..n-1 with gcd(s, n) = 3: bit s is set
    where the gcd rule says a walk with side sum s is valid."""
    return sum(1 << s for s in range(n) if math.gcd(s, n) == 3)


def verify_theorem_gcd(m: int, family: str) -> dict:
    """Check walk validity <=> gcd condition over the whole generator range.

    For axial, every ordered residue-1 pair (a, b), a != b, must satisfy:
    (a, b, a) * m is a valid walk iff gcd(2a + b, 3m) = 3.  For circular,
    every pairwise-distinct residue-1 triple: valid iff gcd(a+b+c, 3m) = 3.
    Returns the ``verify`` record, or raises VerificationError with the
    first counterexample, in the order a, then b, then c.

    The walk side is the kernel's third-side mask of each (a, b)
    (``_third_sides``), the gcd side the mask ``_gcd_sums(n)`` of the
    sums the rule admits.  Axial reads bit a of the third-side mask and
    bit 2a + b of the rule.  Circular compares the whole third-side mask
    with the rule rotated back by a + b, on the residue-1 bits c != a, b;
    the lowest bit where they differ is the first counterexample.
    """
    _require_family_m(m)
    if family not in ("axial", "circular"):
        raise ValueError(f"family must be 'axial' or 'circular', got {family!r}")
    n = 3 * m
    sets = _walk_sets(m)
    rule = _gcd_sums(n)
    vals = range(1, n - 1, 3)
    if family == "axial":
        for a in vals:
            thirds = _third_sides(sets, n, a)
            for b in vals:
                if b == a:
                    continue
                walk_ok = bool(thirds[(a + b) % n] >> a & 1)
                if walk_ok != bool(rule >> (2 * a + b) % n & 1):
                    raise VerificationError(
                        f"axial biconditional fails at m={m}, (a,b)=({a},{b}): "
                        f"walk={walk_ok}, gcd(2a+b,3m)={math.gcd(2 * a + b, n)}"
                    )
    else:
        wants = _rotated_back(rule, n)  # bit c of wants[x]: the rule admits c + x
        residue1 = sum(1 << c for c in vals)
        for a in vals:
            thirds = _third_sides(sets, n, a)
            for b in vals:
                if b == a:
                    continue
                x = (a + b) % n
                diff = (thirds[x] ^ wants[x]) & residue1 & ~(1 << a | 1 << b)
                if diff:
                    c = (diff & -diff).bit_length() - 1
                    walk_ok = bool(thirds[x] >> c & 1)
                    raise VerificationError(
                        f"circular biconditional fails at m={m}, "
                        f"(a,b,c)=({a},{b},{c}): walk={walk_ok}, "
                        f"gcd(a+b+c,3m)={math.gcd(a + b + c, n)}"
                    )
    return {"m": m, "family": family, "ok": True}

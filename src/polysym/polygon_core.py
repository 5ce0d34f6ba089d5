"""Side-tuple arithmetic for closed polygonal walks on circle vertices.

A polygon on ``n`` vertices (labelled 0..n-1, equally spaced on a circle,
counterclockwise) is encoded by its side tuple ``(e_1, ..., e_n)``: step i
advances ``e_i`` vertex positions counterclockwise.  The walk starts at
vertex 0, must visit every vertex exactly once, and returns to vertex 0 on
the final step.  All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple


class InvalidSideTuple(ValueError):
    """A side tuple failed basic well-formedness checks."""


class WalkError(ValueError):
    """Base class for walk validation failures."""


class PrematureClosure(WalkError):
    """The walk returned to an already-visited vertex before the last step.

    ``index`` is the 1-based step at which the revisit happened.
    """

    def __init__(self, index: int):
        super().__init__(f"premature closure at i={index}")
        self.index = index


class NotClosed(WalkError):
    """The walk used all n sides but did not end at vertex 0."""

    def __init__(self, final_vertex: int):
        super().__init__(f"walk ends at vertex {final_vertex}, not at 0")
        self.final_vertex = final_vertex


@dataclass(frozen=True)
class SideTuple:
    """An n-vertex polygon candidate given by its n side lengths."""

    n: int
    sides: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 3:
            raise InvalidSideTuple(f"need at least 3 vertices, got n={self.n}")
        if len(self.sides) != self.n:
            raise InvalidSideTuple(
                f"expected {self.n} sides, got {len(self.sides)}"
            )
        if min(self.sides) >= 1 and max(self.sides) <= self.n - 1:
            return
        for e in self.sides:
            if not 1 <= e <= self.n - 1:
                raise InvalidSideTuple(
                    f"side {e} outside valid range 1..{self.n - 1}"
                )


@dataclass(frozen=True)
class VertexCycle:
    """The vertex visiting order of a valid walk, starting at vertex 0."""

    n: int
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.vertices[0] != 0:
            raise ValueError("vertex cycle must start at 0")
        if sorted(self.vertices) != list(range(self.n)):
            raise ValueError("vertex cycle must visit every vertex exactly once")


@dataclass(frozen=True)
class EdgeSet:
    """The n chords of a polygon, as unordered vertex pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if len(self.edges) != self.n:
            raise ValueError(f"expected {self.n} edges, got {len(self.edges)}")
        degree = [0] * self.n
        for p, q in self.edges:
            if not (0 <= p < q < self.n):
                raise ValueError(f"malformed edge ({p}, {q})")
            degree[p] += 1
            degree[q] += 1
        if any(d != 2 for d in degree):
            raise ValueError("every vertex must have degree 2")


@dataclass(frozen=True)
class SymmetryProfile:
    """Order of the rotation stabilizer and number of mirror axes."""

    rotation_order: int
    axis_count: int

    def __post_init__(self) -> None:
        if self.rotation_order < 1:
            raise ValueError("rotation order is at least 1 (identity)")
        # The stabilizer inside the dihedral group is cyclic or dihedral,
        # so a polygon has either no axes or exactly rotation_order of them.
        if self.axis_count not in (0, self.rotation_order):
            raise ValueError(
                f"axis count {self.axis_count} incompatible with "
                f"rotation order {self.rotation_order}"
            )


def prefix_sums(t: SideTuple) -> list[int]:
    """Plain (unreduced) running sums s_1..s_n of the sides.

    >>> prefix_sums(SideTuple(6, (1, 2, 1, 4, 3, 1)))
    [1, 3, 4, 8, 11, 12]
    """
    return list(itertools.accumulate(t.sides))


def validate_walk(t: SideTuple) -> VertexCycle:
    """Run the walk and return its vertex order, or raise a WalkError.

    The walk is a polygon exactly when the n partial positions are
    pairwise distinct and the final step returns to vertex 0.  In
    particular no prefix sum s_i with i < n may be divisible by n.
    Raises PrematureClosure at the first step that revisits any vertex,
    NotClosed if the last step misses vertex 0.
    """
    n = t.n
    seen = bytearray(n)
    seen[0] = 1
    pos = 0
    vertices = [0]
    for i in range(n - 1):
        pos = (pos + t.sides[i]) % n
        if seen[pos]:
            raise PrematureClosure(i + 1)
        seen[pos] = 1
        vertices.append(pos)
    final = (pos + t.sides[n - 1]) % n
    if final != 0:
        raise NotClosed(final)
    return VertexCycle(n, tuple(vertices))


def revolutions(t: SideTuple) -> int:
    """How many times the valid walk winds around the circle: sum(sides)/n."""
    validate_walk(t)
    return sum(t.sides) // t.n


def edge_set(c: VertexCycle) -> EdgeSet:
    """The unordered chord set of a vertex cycle."""
    n = c.n
    edges = set()
    for i in range(n):
        p, q = c.vertices[i], c.vertices[(i + 1) % n]
        edges.add((p, q) if p < q else (q, p))
    return EdgeSet(n, frozenset(edges))


def rotate_edges(e: EdgeSet, k: int) -> EdgeSet:
    """Rotate every edge by k vertex positions counterclockwise."""
    n = e.n
    if not 0 <= k < n:
        raise ValueError(f"rotation offset {k} outside 0..{n - 1}")
    out = set()
    for p, q in e.edges:
        a, b = (p + k) % n, (q + k) % n
        out.add((a, b) if a < b else (b, a))
    return EdgeSet(n, frozenset(out))


def reflect_edges(e: EdgeSet, axis: int) -> EdgeSet:
    """Reflect every edge in the mirror v -> (axis - v) mod n.

    Axis indices axis and axis + n describe the same mirror map, so the
    polygon has exactly n distinct mirrors; indices up to 2n - 1 are
    accepted for convenience.  The mirror line passes through angle
    pi * axis / n.
    """
    n = e.n
    if not 0 <= axis < 2 * n:
        raise ValueError(f"axis index {axis} outside 0..{2 * n - 1}")
    out = set()
    for p, q in e.edges:
        a, b = (axis - p) % n, (axis - q) % n
        out.add((a, b) if a < b else (b, a))
    return EdgeSet(n, frozenset(out))


def symmetry_profile(e: EdgeSet) -> SymmetryProfile:
    """Scan all n rotations and all n mirrors that fix the edge set.

    This is the geometric definition, O(n^2).  The program itself uses
    ``side_symmetry``; the tests pin that kernel against this scan.
    """
    n = e.n
    rot = sum(1 for k in range(n) if rotate_edges(e, k) == e)
    axes = sum(1 for a in range(n) if reflect_edges(e, a) == e)
    return SymmetryProfile(rot, axes)


def cyclic_shift(t: SideTuple, k: int) -> SideTuple:
    """The side tuple read starting k steps later along the same walk."""
    k %= t.n
    return SideTuple(t.n, t.sides[k:] + t.sides[:k])


def reversed_complement(t: SideTuple) -> SideTuple:
    """The same polygon traversed in the opposite direction.

    >>> reversed_complement(SideTuple(9, (1, 4, 7) * 3)).sides
    (2, 5, 8, 2, 5, 8, 2, 5, 8)
    """
    return SideTuple(t.n, tuple(t.n - e for e in reversed(t.sides)))


def canonical_form(t: SideTuple) -> SideTuple:
    """Lexicographically least side tuple describing the same polygon.

    Candidates are the n cyclic shifts of the walk and the n cyclic
    shifts of its reversed complement (opposite traversal direction).
    Two valid side tuples describe the same chord set, up to choice of
    start vertex and direction, exactly when their canonical forms are
    equal.  Distinct rotated copies of a polygon are *not* identified.
    Raises a WalkError if the tuple is not a valid polygon.
    """
    validate_walk(t)
    return SideTuple(t.n, canonical_sides(t.n, t.sides))


# ---------------------------------------------------------------------------
# linear-time symmetry kernel on the side sequence
#
# A symmetry of a valid polygon maps its vertex sequence v_0..v_{n-1}
# (v_0 = 0, v_{i+1} = v_i + e_i) onto itself read from some start j, in
# either direction.  In side terms the sides equal a cyclic shift of one
# of four sequences: themselves or their reversed complement (rotations
# v -> v + v_j), their complement or their reversal (mirrors
# v -> v_j - v).  Distinct matching shifts give distinct group elements,
# and the shifts matching one sequence form a coset of the least period,
# so each count is n/p or 0.


def _failure(seq: Sequence[int]) -> list[int]:
    """KMP failure function: fail[i] is the longest proper border of seq[:i+1]."""
    fail = [0] * len(seq)
    k = 0
    for i in range(1, len(seq)):
        x = seq[i]
        while k and seq[k] != x:
            k = fail[k - 1]
        if seq[k] == x:
            k += 1
        fail[i] = k
    return fail


def _cyclic_period(fail: list[int]) -> int:
    """Least p dividing n such that shifting the sequence by p fixes it."""
    n = len(fail)
    p = n - fail[-1]
    return p if n % p == 0 else n


def _first_shift(pattern: Sequence[int], fail: list[int], text: Sequence[int]) -> int:
    """Least q with text[q:] + text[:q] == pattern, or -1 (KMP, O(n))."""
    n = len(pattern)
    k = 0
    for i in range(2 * n - 1):
        x = text[i - n] if i >= n else text[i]
        while k and pattern[k] != x:
            k = fail[k - 1]
        if pattern[k] == x:
            k += 1
            if k == n:
                return i - n + 1
    return -1


def least_period(sides: Sequence[int]) -> int:
    """Smallest p dividing n such that the sides repeat with period p."""
    return _cyclic_period(_failure(sides))


def least_rotation(seq: Sequence[int]) -> int:
    """Start of the lexicographically least rotation of seq (Booth, 1980).

    K. S. Booth, "Lexicographically least circular substrings",
    Information Processing Letters 10(4), 1980.  Linear time.
    """
    s = list(seq) * 2
    fail = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        x = s[j]
        i = fail[j - k - 1]
        while i != -1 and x != s[k + i + 1]:
            if x < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and x != s[k]:
            if x < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def _least_image(n: int, block: tuple[int, ...]) -> tuple[int, ...]:
    """The least cyclic shift of block or of its reversed complement (Booth)."""
    rc = tuple(n - e for e in reversed(block))
    k, j = least_rotation(block), least_rotation(rc)
    return min(block[k:] + block[:k], rc[j:] + rc[:j])


def canonical_sides(n: int, sides: Sequence[int]) -> tuple[int, ...]:
    """canonical_form of a valid walk's sides, without re-validating it.

    With least period p the sides are block * (n // p), and so are their
    reversed complement and every cyclic shift of either, each with its
    own image of the block.  So the least of the 2n candidates is the
    least image of the block, repeated: Booth runs on p sides, not n.
    """
    p = least_period(sides)
    return _least_image(n, tuple(sides[:p])) * (n // p)


@dataclass(frozen=True)
class SideSymmetry:
    """Symmetries and canonical period block of a valid polygon, read off
    its side sequence.

    ``axes`` lists, ascending, every a in 0..n-1 whose mirror
    v -> (a - v) mod n fixes the chord set.  ``block`` is the least image
    of the sides' least period, so its length is the ``period`` and the
    canonical form's sides are ``block * (n // period)``.
    """

    profile: SymmetryProfile
    axes: tuple[int, ...]
    block: tuple[int, ...]

    @property
    def period(self) -> int:
        """The least period of the sides."""
        return len(self.block)


def side_symmetry(n: int, sides: Sequence[int]) -> SideSymmetry:
    """Rotations, mirror axes, side period and canonical block of a valid
    polygon in O(n).

    One failure function gives the least period p.  The sides are then
    block * (n // p), and so are their reversed complement, complement
    and reversal, each with its own image of the block; a shift q matches
    the whole sequence exactly when q mod p matches the block, so three
    KMP searches of the block in the doubled images of the block find the
    first matching shift of each, and the rest follow at steps of p.
    ``fail[:p]`` is the block's own failure function.  The caller must
    pass the sides of a *valid* walk.
    """
    fail = _failure(sides)
    p = _cyclic_period(fail)
    reps = n // p
    block = tuple(sides[:p])
    fail = fail[:p]
    rev = block[::-1]
    rc = [n - e for e in rev]
    rotations = reps * (2 if _first_shift(block, fail, rc) >= 0 else 1)
    # start j of each mirror-matching shift; its axis is a = v_j
    starts = []
    q = _first_shift(block, fail, [n - e for e in block])
    if q >= 0:
        starts += [q + r * p for r in range(reps)]
    q = _first_shift(block, fail, rev)
    if q >= 0:
        starts += [(n - q - r * p) % n for r in range(reps)]
    axes: tuple[int, ...] = ()
    if starts:
        # v_j = (j // p) * v_p + v_{j mod p}
        verts = [0, *itertools.accumulate(block)]
        axes = tuple(sorted((j // p * verts[p] + verts[j % p]) % n for j in starts))
    return SideSymmetry(
        SymmetryProfile(rotations, len(axes)), axes, _least_image(n, block)
    )


class BlockSymmetry(NamedTuple):
    """Canonical 3-block and symmetries of the polygon block * (n // 3).

    ``block`` is the least of the block's six images, so the canonical
    form's sides are ``block * (n // 3)``; ``profile`` and ``axes`` are
    those ``side_symmetry`` finds on the full side sequence.
    """

    block: tuple[int, int, int]
    profile: SymmetryProfile
    axes: tuple[int, ...]


# A 3-periodic polygon has one of four profiles per n; they are immutable,
# so block_symmetry shares one instance of each.
_shared_profile = functools.lru_cache(maxsize=256)(SymmetryProfile)


def block_symmetry(n: int, block: tuple[int, int, int]) -> BlockSymmetry:
    """``side_symmetry`` and canonical form of the valid polygon with sides
    block * (n // 3), in O(1) plus O(m) for the axis list (n = 3m).

    Every cyclic shift of a 3-periodic side sequence is again 3-periodic,
    as are its reversed complement, complement and reversal.  So each
    comparison of the side kernel reduces to the three cyclic shifts of
    the block (a, b, c), and each matching shift class accounts for m
    group elements:

    * rotations: the block itself, never the reversed complement.  A
      shift of (n-c, n-b, n-a) has the side sum 3n - (a + b + c), so
      equal to the block it forces a + b + c = 3n/2, and the walk is back
      at vertex 0 after two blocks, 6 < n steps for m >= 3;
    * mirrors: a shift of the complement equals the block only when
      a = b = c, the regular star; the reversal (c, b, a) shifted by
      q = 0, 1, 2 equals it exactly when a = c, a = b, b = c.  Its
      mirrors have axes v_j for the starts j = -q mod 3, where
      v_0, v_1, v_2 = 0, a, a + b.  A valid walk visits v_j + k*(a+b+c),
      k < m, at m distinct vertices, all = v_j mod 3 since
      a + b + c = 0 mod 3: the whole residue class of v_j.

    The caller must pass the block of a *valid* walk; only ``block`` is
    meaningful otherwise.
    """
    if n % 3:
        raise ValueError(f"n={n} is not a multiple of 3")
    a, b, c = block
    rc = ((n - c, n - b, n - a), (n - b, n - a, n - c), (n - a, n - c, n - b))
    least = min((a, b, c), (b, c, a), (c, a, b), *rc)
    if a == b == c:
        return BlockSymmetry(least, _shared_profile(n, n), tuple(range(n)))
    m = n // 3
    if a == c:
        axes = tuple(range(0, n, 3))
    elif a == b:
        axes = tuple(range((a + b) % 3, n, 3))
    elif b == c:
        axes = tuple(range(a % 3, n, 3))
    else:
        axes = ()
    return BlockSymmetry(least, _shared_profile(m, len(axes)), axes)


def canonical_period3(n: int, block: tuple[int, int, int]) -> tuple[int, ...]:
    """canonical_form of the 3-periodic tuple block * (n // 3), as a tuple."""
    return block_symmetry(n, block).block * (n // 3)

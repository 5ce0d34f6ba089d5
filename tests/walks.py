"""Side tuples of walks with a prescribed symmetry, drawn from a seeded RNG,
per-triple reference versions of the oracle's walk check and sweep, a
block-kernel reference for its theorem class sets, a per-permutation
reference version of its census shard, and per-record and
per-cell reference versions of the ``enumerate`` and ``render`` output.

Shared by the golden-output, kernel, oracle, CLI and render tests.  Every
generator returns the sides of a valid walk on n vertices as a list.
"""

from __future__ import annotations

import math
import random
from itertools import permutations

from polysym import SideTuple, enumerate_axial, enumerate_circular, validate_walk
from polysym.polygon_core import block_symmetry, canonical_sides, side_symmetry


def undirected_cycles(n):
    """Every Hamiltonian cycle of the n circle vertices, exactly once."""
    for rest in permutations(range(1, n)):
        if rest[0] > rest[-1]:
            continue
        verts = (0,) + rest
        yield SideTuple(
            n, tuple((verts[(i + 1) % n] - verts[i]) % n for i in range(n))
        )


def slice_canonical(n: int, sides) -> tuple[int, ...]:
    """Reference canonical form: the least of all 2n candidate slices."""
    sides = tuple(sides)
    rc = tuple(n - e for e in reversed(sides))
    return min(min(x[i:] + x[:i] for i in range(n)) for x in (sides, rc))


def _sides(verts: list[int], n: int) -> list[int]:
    return [(verts[(i + 1) % n] - verts[i]) % n for i in range(n)]


def _shifted(rng: random.Random, sides: list[int]) -> list[int]:
    k = rng.randrange(len(sides))
    return sides[k:] + sides[:k]


def family_walk(rng: random.Random, n: int, family: str) -> list[int]:
    """A theorem member of ``family`` ("axial" or "circular"), n = 3m,
    read from a random anchor of its generator block."""
    m = n // 3
    values = range(1, n - 1, 3)
    while True:
        if family == "axial":
            a, b = rng.sample(values, 2)
            block = [a, b, a]
        else:
            block = rng.sample(values, 3)
        if math.gcd(sum(block) // 3, m) == 1:
            k = rng.randrange(3)
            return (block[k:] + block[:k]) * m


def periodic_walk(rng: random.Random, n: int, d: int) -> list[int]:
    """A walk whose sides repeat with period d: block vertices in distinct
    classes mod d, each block advanced by s with gcd(s, n) = d."""
    s = rng.choice([k for k in range(1, n) if math.gcd(k, n) == d])
    residues = list(range(1, d))
    rng.shuffle(residues)
    verts = [0] + [r + d * rng.randrange(n // d) for r in residues]
    verts += [(v + j * s) % n for j in range(1, n // d) for v in verts[:d]]
    return _shifted(rng, _sides(verts, n))


def mirrored_walk(rng: random.Random, n: int, through_edges: bool) -> list[int]:
    """A walk fixed by a mirror, read from a random start.

    The mirror is v -> -v, or for even n with ``through_edges`` set,
    v -> 1 - v, which fixes no vertex and so maps two chords onto
    themselves.
    """
    if n % 2 == 0 and through_edges:
        rest = list(range(2, n // 2 + 1))
        rng.shuffle(rest)
        first = [0] + [k if rng.randrange(2) else (1 - k) % n for k in rest]
        verts = first + [(1 - v) % n for v in reversed(first)]
        return _shifted(rng, _sides(verts, n))
    half = list(range(1, (n - 1) // 2 + 1))
    rng.shuffle(half)
    chosen = [x if rng.randrange(2) else n - x for x in half]
    middle = [n // 2] if n % 2 == 0 else []
    verts = [0] + chosen + middle + [n - x for x in reversed(chosen)]
    return _shifted(rng, _sides(verts, n))


def reversing_walk(rng: random.Random, n: int) -> list[int]:
    """A walk that the half turn maps onto itself traversed backwards."""
    h = n // 2
    rest = list(range(1, h))
    rng.shuffle(rest)
    first = [0] + [x + h * rng.randrange(2) for x in rest]
    verts = first + [(v + h) % n for v in reversed(first)]
    return _shifted(rng, _sides(verts, n))


def random_walk(rng: random.Random, n: int) -> list[int]:
    return _sides([0, *rng.sample(range(1, n), n - 1)], n)


def walk3(n: int, m: int, a: int, b: int, c: int, seen: list[int], stamp: int) -> bool:
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


def reference_sweep(m: int):
    """Walk and classify every triple in [1, n-1]^3, one at a time, with
    the side-sequence kernel on the full 3m sides (not the block kernel).

    Returns the axial, circular and regular class sets (as SideTuples)
    and the number of other classes, like ``sweep_period3``.
    """
    n = 3 * m
    axial, circular, regular, other = set(), set(), set(), set()
    seen = [0] * n
    stamp = 0
    for a in range(1, n):
        for b in range(1, n):
            for c in range(1, n):
                stamp += 1
                if not walk3(n, m, a, b, c, seen, stamp):
                    continue
                sides = (a, b, c) * m
                profile = side_symmetry(n, sides).profile
                rot, axes = profile.rotation_order, profile.axis_count
                key = SideTuple(n, canonical_sides(n, sides))
                if axes == n:
                    regular.add(key)
                elif axes == m:
                    axial.add(key)
                elif axes == 0 and rot == m:
                    circular.add(key)
                else:
                    other.add(key)
    return axial, circular, regular, len(other)


def reference_theorem_blocks(m: int, family: str) -> frozenset:
    """The canonical 3-block of every class ``enumerate_axial`` or
    ``enumerate_circular`` lists, from the block kernel: the reference
    for the residue shortcut of ``oracle.theorem_*_blocks``."""
    n = 3 * m
    if family == "axial":
        blocks = [(r.a, r.b, r.a) for r in enumerate_axial(m)]
    else:
        blocks = [(r.a, r.b, r.c) for r in enumerate_circular(m)]
    return frozenset(block_symmetry(n, t).block for t in blocks)


def reference_census_shard(n: int, second: int):
    """Examine all cycles 0 -> second -> ... -> 0 with second < last vertex,
    building each cycle's sides from scratch, one permutation at a time.

    Over second = 1..n-1 every undirected Hamiltonian cycle shows up
    once.  Returns the axial, circular, regular and other canonical
    side sets, the number of cycles and the number the screen keeps,
    like ``oracle._census_shard``.  The screen keeps a cycle when its
    side bytes match a nonzero shift of themselves or, with
    sum(sides) = n^2 / 2, a shift of their reversed complement.
    """
    step = tuple(tuple((q - p) % n for q in range(n)) for p in range(n))
    fam = n >= 9 and n % 3 == 0
    m = n // 3
    axial: set = set()
    circular: set = set()
    regular: set = set()
    other: set = set()
    count = 0
    kept = 0
    pool = [v for v in range(1, n) if v != second]
    target_sum = n * n  # == 2 * sum(sides) when a reversing rotation exists
    for rest in permutations(pool):
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
        kept += 1
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
    return axial, circular, regular, other, count, kept


def reference_class_record(m: int, family: str, generators: tuple[int, ...]) -> dict:
    """One ``enumerate`` record, built field by field from a full side tuple
    with the side-sequence kernel."""
    n = 3 * m
    if len(generators) == 2:
        block = (generators[0], generators[1], generators[0])
    else:
        block = generators
    sides = tuple(block) * m
    profile = side_symmetry(n, sides).profile
    return {
        "n": n,
        "m": m,
        "family": family,
        "generators": list(generators),
        "sides": list(canonical_sides(n, sides)),
        "u": sum(block) // 3,
        "rotation_order": profile.rotation_order,
        "axis_count": profile.axis_count,
    }


def _fmt(x: float) -> str:
    s = f"{x:.3f}"
    return "0.000" if s == "-0.000" else s


def _positions(n: int, cx: float, cy: float, r: float) -> list[tuple[float, float]]:
    out = []
    for k in range(n):
        angle = 2.0 * math.pi * k / n
        out.append((cx + r * math.cos(angle), cy - r * math.sin(angle)))
    return out


def reference_cell_elements(t: SideTuple, opts) -> list[str]:
    """The drawing elements of one gallery cell, every number formatted
    afresh for this cell (``opts`` is a ``RenderOptions``)."""
    n = t.n
    cycle = validate_walk(t)
    size = opts.size_px
    cx = cy = size / 2.0
    radius = size * 0.38
    pos = _positions(n, cx, cy, radius)
    sw = _fmt(opts.stroke_width)
    parts = []
    if opts.show_axes:
        reach = radius * 1.06
        for a in side_symmetry(n, t.sides).axes:
            angle = math.pi * a / n
            dx, dy = reach * math.cos(angle), -reach * math.sin(angle)
            parts.append(
                f'<line class="axis" x1="{_fmt(cx - dx)}" y1="{_fmt(cy - dy)}" '
                f'x2="{_fmt(cx + dx)}" y2="{_fmt(cy + dy)}" stroke="#888888" '
                f'stroke-width="{sw}" stroke-dasharray="6 4"/>'
            )
    for i in range(n):
        p = pos[cycle.vertices[i]]
        q = pos[cycle.vertices[(i + 1) % n]]
        parts.append(
            f'<line class="chord" x1="{_fmt(p[0])}" y1="{_fmt(p[1])}" '
            f'x2="{_fmt(q[0])}" y2="{_fmt(q[1])}" stroke="#1a1a1a" '
            f'stroke-width="{sw}"/>'
        )
    dot = max(1.5, size / 140.0)
    for k in range(n):
        parts.append(
            f'<circle class="vertex" cx="{_fmt(pos[k][0])}" cy="{_fmt(pos[k][1])}" '
            f'r="{_fmt(dot)}" fill="#1a1a1a"/>'
        )
    if opts.show_labels:
        font = max(9, size // 26)
        lpos = _positions(n, cx, cy, radius * 1.16)
        for k in range(n):
            parts.append(
                f'<text class="label" x="{_fmt(lpos[k][0])}" y="{_fmt(lpos[k][1])}" '
                f'font-size="{font}" font-family="sans-serif" fill="#1a1a1a" '
                f'text-anchor="middle" dominant-baseline="central">{k}</text>'
            )
    return parts

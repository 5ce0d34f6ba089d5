"""Side tuples of walks with a prescribed symmetry, drawn from a seeded RNG.

Shared by the golden-output and kernel tests.  Every generator returns
the sides of a valid walk on n vertices as a list.
"""

from __future__ import annotations

import math
import random
from itertools import permutations

from polysym import SideTuple


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

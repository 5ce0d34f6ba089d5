"""Closed-form counts and generator enumeration for the two families.

For n = 3m (m > 2) the axial polygons are exactly the walks with sides
(a, b, a) repeated m times, and the circular ones those with sides
(a, b, c) repeated, where a, b, c are congruent to 1 mod 3, lie in
1..3m-2, and the winding number u is coprime to m.  Enumeration works
directly from those arithmetic conditions; the oracle module provides
the independent brute-force counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .polygon_core import SideTuple


class MTooSmall(ValueError):
    """Families are defined only for m > 2."""

    def __init__(self, m: int):
        super().__init__(f"m must be greater than 2, got {m}")
        self.m = m


class NotPrime(ValueError):
    def __init__(self, p: int):
        super().__init__(f"{p} is not an odd prime greater than 3")
        self.p = p


def euler_phi(k: int) -> int:
    """Euler's totient, via trial-division factorization.

    >>> [euler_phi(k) for k in (1, 9, 30)]
    [1, 6, 8]
    """
    if k < 1:
        raise ValueError(f"totient needs a positive integer, got {k}")
    result = k
    d = 2
    while d * d <= k:
        if k % d == 0:
            while k % d == 0:
                k //= d
            result -= result // d
        d += 1 if d == 2 else 2
    if k > 1:
        result -= result // k
    return result


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def _check_m(m: int) -> None:
    if m <= 2:
        raise MTooSmall(m)


def _generator_values(m: int) -> range:
    # 1, 4, 7, ..., 3m-2: the residue-1 candidates for one side value
    return range(1, 3 * m - 1, 3)


@dataclass(frozen=True, order=True)
class AxialRep:
    """One axial class: sides (a, b, a) repeated m times, winding number u."""

    m: int
    a: int
    b: int
    u: int

    def __post_init__(self) -> None:
        m, a, b, u = self.m, self.a, self.b, self.u
        _check_m(m)
        for v in (a, b):
            if not (1 <= v <= 3 * m - 2 and v % 3 == 1):
                raise ValueError(f"generator {v} invalid for m={m}")
        if a == b:
            raise ValueError("a and b must differ (equal values are regular)")
        if u != (2 * a + b) // 3 or (2 * a + b) % 3:
            raise ValueError("winding number u must equal (2a+b)/3")
        if math.gcd(u, m) != 1:
            raise ValueError(f"u={u} shares a factor with m={m}")


@dataclass(frozen=True, order=True)
class CircularRep:
    """One circular class: sides (a, b, c) repeated m times.

    (a, b, c) is the lexicographically least of its three cyclic shifts,
    which all describe the same polygon.
    """

    m: int
    a: int
    b: int
    c: int
    u: int

    def __post_init__(self) -> None:
        m, a, b, c, u = self.m, self.a, self.b, self.c, self.u
        _check_m(m)
        for v in (a, b, c):
            if not (1 <= v <= 3 * m - 2 and v % 3 == 1):
                raise ValueError(f"generator {v} invalid for m={m}")
        if len({a, b, c}) != 3:
            raise ValueError("a, b, c must be pairwise distinct")
        if (a, b, c) != min((a, b, c), (b, c, a), (c, a, b)):
            raise ValueError("(a, b, c) must be the least cyclic shift")
        if u != (a + b + c) // 3 or (a + b + c) % 3:
            raise ValueError("winding number u must equal (a+b+c)/3")
        if math.gcd(u, m) != 1:
            raise ValueError(f"u={u} shares a factor with m={m}")


def _axial_pairs(m: int):
    """(a, b, u) of every axial class, in increasing (a, b) order."""
    for a in _generator_values(m):
        for b in _generator_values(m):
            if a == b:
                continue
            u = (2 * a + b) // 3
            if math.gcd(u, m) == 1:
                yield a, b, u


def _circular_triples(m: int):
    """(a, b, c, u) of every circular class, in increasing (a, b, c) order.

    The generators of a class are distinct, so its least cyclic shift
    is the one that starts with the smallest: a < b and a < c.
    """
    hi = 3 * m - 1
    coprime = [math.gcd(u, m) == 1 for u in range(3 * m)]
    for a in _generator_values(m):
        for b in range(a + 3, hi, 3):
            for c in range(a + 3, hi, 3):
                if c == b:
                    continue
                u = (a + b + c) // 3
                if coprime[u]:
                    yield a, b, c, u


def class_blocks(m: int, family: str):
    """(generators, u, canonical 3-block) of every class of ``family``
    ("axial" or "circular") for n = 3m, in class order, one at a time.

    The block is the least of the six images of the walk's 3-block (its
    cyclic shifts and those of its reversed complement), taken by residue
    as ``oracle.theorem_axial_blocks`` and ``theorem_circular_blocks``
    do: generators are 1 mod 3 and complemented entries n - x are 2 mod
    3, so the least image is the least shift of the block itself when
    min + max < n, and otherwise the shift of the reversed complement
    that starts with n - max.
    """
    _check_m(m)
    return _axial_blocks(m) if family == "axial" else _circular_blocks(m)


def _axial_blocks(m: int):
    n = 3 * m
    for a, b, u in _axial_pairs(m):
        if a + b < n:
            block = (a, a, b) if a < b else (b, a, a)
        else:
            block = (n - b, n - a, n - a) if a < b else (n - a, n - a, n - b)
        yield (a, b), u, block


def _circular_blocks(m: int):
    n = 3 * m
    for a, b, c, u in _circular_triples(m):
        if a + b < n > a + c:
            block = (a, b, c)
        else:
            block = (n - b, n - a, n - c) if b > c else (n - c, n - b, n - a)
        yield (a, b, c), u, block


def enumerate_axial(m: int) -> list[AxialRep]:
    """All axial classes for n = 3m, a list in class order; each ordered
    pair (a, b) is one class."""
    _check_m(m)
    return [AxialRep(m, a, b, u) for a, b, u in _axial_pairs(m)]


def enumerate_circular(m: int) -> list[CircularRep]:
    """All circular classes for n = 3m, a list in class order, one
    least-shift triple per class."""
    _check_m(m)
    return [CircularRep(m, a, b, c, u) for a, b, c, u in _circular_triples(m)]


def expand_axial(r: AxialRep) -> SideTuple:
    """The full 3m side tuple (a, b, a, a, b, a, ...) of an axial class."""
    return SideTuple(3 * r.m, (r.a, r.b, r.a) * r.m)


def expand_circular(r: CircularRep) -> SideTuple:
    """The full 3m side tuple (a, b, c, a, b, c, ...) of a circular class."""
    return SideTuple(3 * r.m, (r.a, r.b, r.c) * r.m)


def count_axial(m: int) -> int:
    """Number of axial classes: m * phi(m) - phi(3m) / 2."""
    _check_m(m)
    return m * euler_phi(m) - euler_phi(3 * m) // 2


def count_circular(m: int) -> int:
    """Number of circular classes: (phi(m) * m * (m - 3) + phi(3m)) / 3."""
    _check_m(m)
    num = euler_phi(m) * m * (m - 3) + euler_phi(3 * m)
    if num % 3:
        raise AssertionError(f"count formula not divisible by 3 at m={m}")
    return num // 3


def count_axial_prime(p: int) -> int:
    """Axial count for prime m = p > 3, in its short form (p - 1)^2."""
    if p <= 3 or not _is_prime(p):
        raise NotPrime(p)
    return (p - 1) ** 2


def count_circular_prime(p: int) -> int:
    """Circular count for prime m = p > 3: (p - 1)^2 * (p - 2) / 3."""
    if p <= 3 or not _is_prime(p):
        raise NotPrime(p)
    return (p - 1) ** 2 * (p - 2) // 3


@dataclass(frozen=True)
class CountsRow:
    n: int
    m: int
    p_count: int
    q_count: int


def counts_table(m_from: int, m_to: int) -> list[CountsRow]:
    """Axial and circular class counts for every m in [m_from, m_to]."""
    _check_m(m_from)
    if m_to < m_from:
        raise ValueError(f"empty range {m_from}..{m_to}")
    return [
        CountsRow(3 * m, m, count_axial(m), count_circular(m))
        for m in range(m_from, m_to + 1)
    ]

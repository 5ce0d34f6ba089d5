"""Closed-form counts and generator enumeration for the two families.

For n = 3m (m > 2) the axial polygons are exactly the walks with sides
(a, b, a) repeated m times, and the circular ones those with sides
(a, b, c) repeated, where a, b, c are congruent to 1 mod 3, lie in
1..3m-2, and the winding number u is coprime to m.  Enumeration works
directly from those arithmetic conditions, written once as one coprime
mask per m: the class stream's generator rows and the theorem's rows of
canonical blocks are windows of it.  The oracle module provides the
independent brute-force counterpart.
"""

from __future__ import annotations

import functools
import itertools
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


def _coprime_steps(m: int) -> int:
    """The gcd rule of both families as one mask: bit 3u is set for every
    u in 1..3m-1 coprime to m.

    A 3-block (a, b, c) whose entries share a residue 1 or 2 mod 3 closes
    a class exactly when its winding number (a + b + c) / 3 is coprime to
    m: for residue 1 that is the theorem, and a block of residue 2 is the
    reversed complement of one of residue 1, whose winding number
    3m - (a + b + c) / 3 has the same gcd with m.  So bit c of
    ``steps >> (a + b)`` is set exactly when (a, b, c) closes a class, and
    is set only for c of the residue of a and b.  Every row of the class
    stream and of the canonical blocks is a window of this one mask
    (``_row``).
    """
    return sum(1 << 3 * u for u in range(1, 3 * m) if math.gcd(u, m) == 1)


def _row(steps: int, a: int, b: int, lo: int, hi: int) -> int:
    """Bits lo..hi of ``steps >> (a + b)``: the third entries c in lo..hi
    for which (a, b, c) closes a class.  Callers keep lo <= hi + 1, so the
    window is never negative."""
    return steps >> (a + b) & ((2 << hi) - (1 << lo))


def generator_rows(m: int, family: str):
    """Every row of theorem generators of ``family`` for n = 3m, in
    increasing order, as (head, mask) with no zero mask.

    Axial: head (a,), and bit b of the mask for each class (a, b), that is
    each residue-1 b != a with (2a + b) / 3 coprime to m.  Circular: head
    (a, b) with a < b, and bit c for each class whose least cyclic shift
    is (a, b, c): residue-1 c > a, c != b, with (a + b + c) / 3 coprime
    to m.  Each mask is one ``_row`` of ``_coprime_steps(m)``, so the set
    bits, read row by row from the lowest, are the classes in class order.
    """
    n = 3 * m
    steps = _coprime_steps(m)
    values = _generator_values(m)
    if family == "axial":
        for a in values:
            row = _row(steps, a, a, 1, n - 2) & ~(1 << a)
            if row:
                yield (a,), row
    else:
        for a in values:
            for b in range(a + 3, n - 1, 3):
                row = _row(steps, a, b, a + 3, n - 2) & ~(1 << b)
                if row:
                    yield (a, b), row


def block_rows(m: int, family: str) -> dict[tuple[int, int], int]:
    """The canonical 3-block of every class of ``family`` for n = 3m, as a
    row map: bit c of ``rows[(a, b)]`` is set for each block (a, b, c), and
    no row is 0.

    The canonical block is the least of the six images of a class's block:
    its cyclic shifts and those of its reversed complement.  This is the
    residue rule: the entries of one block share a residue, 1 mod 3 for
    theorem generators and 2 for their complements n - x, so no two images
    tie, and the least image (a, b, c) is the one that starts with the
    least entry a of either kind.  So the canonical blocks are exactly the
    blocks of residue 1 or 2 that close a class and have a <= b, a <= c and
    b, c < n - a, and row (a, b) is the window a + 1 .. n - a - 1 of
    ``_coprime_steps(m) >> (a + b)``:
    - axial, one pair of equal entries: row (a, a) is the whole window, and
      row (a, b) with a < b < n - a holds bit b alone;
    - circular, three distinct entries: row (a, b) with a < b < n - a is the
      window without bit b.
    Each row is one big-int shift, so a family costs O(m^2) shifts, not a
    step per class.  ``class_blocks`` takes each class's block by the same
    rule.
    """
    _check_m(m)
    n = 3 * m
    steps = _coprime_steps(m)
    rows: dict[tuple[int, int], int] = {}
    for a in range(1, (n + 1) // 2):
        if a % 3 == 0:
            continue
        if family == "axial":
            row = _row(steps, a, a, a + 1, n - a - 1)
            if row:
                rows[a, a] = row
        for b in range(a + 3, n - a, 3):
            if family == "axial":
                row = _row(steps, a, b, b, b)
            else:
                row = _row(steps, a, b, a + 1, n - a - 1) & ~(1 << b)
            if row:
                rows[a, b] = row
    return rows


def class_blocks(m: int, family: str):
    """(generators, u, canonical 3-block) of every class of ``family``
    ("axial" or "circular") for n = 3m, in class order, one at a time.

    The classes are the set bits of ``generator_rows``.  The block is the
    one ``block_rows`` keeps, by its residue rule: the least image of the
    walk's 3-block is the least shift of the block itself when
    min + max < n, and otherwise the shift of the reversed complement that
    starts with n - max.
    """
    _check_m(m)
    rows = generator_rows(m, family)
    return _axial_blocks(3 * m, rows) if family == "axial" else _circular_blocks(3 * m, rows)


def _axial_blocks(n: int, rows):
    for (a,), mask in rows:
        while mask:
            low = mask & -mask
            mask ^= low
            b = low.bit_length() - 1
            if a + b < n:
                block = (a, a, b) if a < b else (b, a, a)
            else:
                block = (n - b, n - a, n - a) if a < b else (n - a, n - a, n - b)
            yield (a, b), (2 * a + b) // 3, block


def _circular_blocks(n: int, rows):
    for (a, b), mask in rows:
        while mask:
            low = mask & -mask
            mask ^= low
            c = low.bit_length() - 1
            if a + b < n > a + c:
                block = (a, b, c)
            else:
                block = (n - b, n - a, n - c) if b > c else (n - c, n - b, n - a)
            yield (a, b, c), (a + b + c) // 3, block


def enumerate_axial(m: int) -> list[AxialRep]:
    """All axial classes for n = 3m, a list in class order; each ordered
    pair (a, b) is one class."""
    return [AxialRep(m, *gens, u) for gens, u, _ in class_blocks(m, "axial")]


def enumerate_circular(m: int) -> list[CircularRep]:
    """All circular classes for n = 3m, a list in class order, one
    least-shift triple per class."""
    return [CircularRep(m, *gens, u) for gens, u, _ in class_blocks(m, "circular")]


def expand_axial(r: AxialRep) -> SideTuple:
    """The full 3m side tuple (a, b, a, a, b, a, ...) of an axial class."""
    return SideTuple(3 * r.m, (r.a, r.b, r.a) * r.m)


def expand_circular(r: CircularRep) -> SideTuple:
    """The full 3m side tuple (a, b, c, a, b, c, ...) of a circular class."""
    return SideTuple(3 * r.m, (r.a, r.b, r.c) * r.m)


def _axial_count(m: int, phi_m: int, phi_3m: int) -> int:
    return m * phi_m - phi_3m // 2


def _circular_count(m: int, phi_m: int, phi_3m: int) -> int:
    num = phi_m * m * (m - 3) + phi_3m
    if num % 3:
        raise AssertionError(f"count formula not divisible by 3 at m={m}")
    return num // 3


def count_axial(m: int) -> int:
    """Number of axial classes: m * phi(m) - phi(3m) / 2."""
    _check_m(m)
    return _axial_count(m, euler_phi(m), euler_phi(3 * m))


def count_circular(m: int) -> int:
    """Number of circular classes: (phi(m) * m * (m - 3) + phi(3m)) / 3."""
    _check_m(m)
    return _circular_count(m, euler_phi(m), euler_phi(3 * m))


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
    """Axial and circular class counts for every m in [m_from, m_to].

    The rows are the closed formulas of ``count_axial`` and
    ``count_circular``, with phi(m) read from a totient sieve of the
    window [m_from, m_to] alone (``window_totients``) and phi(3m) taken
    as 3 phi(m) when 3 divides m and 2 phi(m) otherwise.  So a range
    costs about one sieve step per m, not a factorization of m and 3m.
    """
    _check_m(m_from)
    if m_to < m_from:
        raise ValueError(f"empty range {m_from}..{m_to}")
    rows = []
    for m, phi in zip(range(m_from, m_to + 1), window_totients(m_from, m_to)):
        phi_3m = 3 * phi if m % 3 == 0 else 2 * phi
        rows.append(
            CountsRow(3 * m, m, _axial_count(m, phi, phi_3m), _circular_count(m, phi, phi_3m))
        )
    return rows


# The window sieve lists every prime up to isqrt(hi): about 82,000 of them,
# a few MB, at this bound.  Past it each totient of the window is factored
# on its own by euler_phi, which holds no list.
WINDOW_SIEVE_MAX_ROOT = 1 << 20


@functools.lru_cache(maxsize=1)
def _primes_below(limit: int) -> tuple[int, ...]:
    """The primes p < limit (limit >= 2), by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return tuple(itertools.compress(range(limit), sieve))


def window_totients(lo: int, hi: int) -> list[int]:
    """phi(k) for k = lo..hi (1 <= lo <= hi), from a sieve of that window.

    Each prime p <= isqrt(hi) takes phi(k) to phi(k) - phi(k) / p on its
    multiples, and divides p out of a copy of k once for each power of p
    that divides k; what is left of k above 1 is then its one prime factor
    above isqrt(hi), applied last.  Each step is a strided slice of the
    window, so a window of L values costs about L log log hi steps plus
    one pass over the primes up to isqrt(hi), which are listed up to the
    next power of two and kept for the next window.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"totient window needs 1 <= lo <= hi, got {lo}..{hi}")
    root = math.isqrt(hi)
    if root > WINDOW_SIEVE_MAX_ROOT:
        return [euler_phi(k) for k in range(lo, hi + 1)]
    size = hi - lo + 1
    phi = list(range(lo, hi + 1))
    rest = phi.copy()
    for p in _primes_below(1 << root.bit_length()):
        if p > root:
            break
        first = -lo % p  # the index of the first multiple of p
        if first >= size:
            continue
        phi[first::p] = [f - f // p for f in phi[first::p]]
        q = p
        while first < size:
            rest[first::q] = [r // p for r in rest[first::q]]
            q *= p
            first = -lo % q
    return [f - f // r if r > 1 else f for f, r in zip(phi, rest)]

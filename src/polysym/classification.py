"""Assign a polygon to a symmetry family from its geometric stabilizer."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .polygon_core import (
    SideTuple,
    SymmetryProfile,
    least_period,
    side_symmetry,
    validate_walk,
)


class FamilyTag(str, Enum):
    REGULAR = "regular"
    AXIAL = "axial"
    CIRCULAR = "circular"
    OTHER = "other"


@dataclass(frozen=True)
class Family:
    """Symmetry family of a polygon; m = n/3 is set for axial/circular."""

    tag: FamilyTag
    m: int | None = None

    def __post_init__(self) -> None:
        needs_m = self.tag in (FamilyTag.AXIAL, FamilyTag.CIRCULAR)
        if needs_m != (self.m is not None):
            raise ValueError(f"family {self.tag.value} and m={self.m} mismatch")

    @property
    def label(self) -> str:
        name = self.tag.value.capitalize()
        return f"{name}({self.m})" if self.m is not None else name


def classify(t: SideTuple) -> Family:
    """Family of a valid polygon, decided purely from its symmetries.

    * regular: mirror axes through all n positions (full dihedral group);
    * axial: n = 3m with m > 2 and exactly m mirror axes;
    * circular: n = 3m with m > 2, no mirror axes, and rotation
      stabilizer of order exactly m;
    * other: everything else.

    Walk validation errors propagate.
    """
    validate_walk(t)
    return family_of(t.n, side_symmetry(t.n, t.sides).profile)


def family_of(n: int, profile: SymmetryProfile) -> Family:
    """The family that ``classify`` assigns to a polygon with this profile."""
    if profile.axis_count == n:
        return Family(FamilyTag.REGULAR)
    if n % 3 == 0:
        m = n // 3
        if m > 2:
            if profile.axis_count == m:
                return Family(FamilyTag.AXIAL, m)
            if profile.axis_count == 0 and profile.rotation_order == m:
                return Family(FamilyTag.CIRCULAR, m)
    return Family(FamilyTag.OTHER)


def side_period(t: SideTuple) -> int:
    """Smallest p dividing n such that the sides repeat with period p."""
    return least_period(t.sides)


def generators(sides: Sequence[int], period: int) -> tuple[int, ...] | None:
    """Generator block of sides with least period 1 or 3, else None.

    Period 1 gives (a,).  A period-3 block with a repeated value gives
    (a, b) with a the repeated value, whatever the block anchor; three
    distinct values give the block as read.
    """
    if period == 1:
        return (sides[0],)
    if period != 3:
        return None
    x, y, z = sides[:3]
    if x == z:
        return (x, y)
    if x == y:
        return (x, z)
    if y == z:
        return (y, x)
    return (x, y, z)

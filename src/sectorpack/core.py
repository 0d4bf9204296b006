"""Slopes, integer sectors, membership, enumeration orders, and the
free-basis decision.

A sector slope is a reduced positive fraction r/s or infinity.  The integer
sector of slope r/s is the set of lattice points (x, y) with x, y >= 0 and
s*y <= r*x; the infinite slope gives the whole quadrant.  All arithmetic is
exact: plain Python integers throughout, no floating point anywhere.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from math import gcd

Point = tuple[int, int]


class SectorPackError(ValueError):
    """Base class for domain errors (bad slope, point outside sector, ...)."""


class SlopeSyntaxError(SectorPackError):
    """Slope text does not match the grammar ``r "/" s | r | "inf"``."""


class OutsideSectorError(SectorPackError):
    """A lattice point was required to lie in a sector but does not."""


@dataclass(frozen=True)
class Slope:
    """A reduced nonnegative rational slope r/s, with s == 0 meaning infinity.

    The infinite slope is stored as the reduced pair (1, 0), following the
    convention 1/0 = inf; this makes the membership rule s*y <= r*x uniform
    across finite and infinite slopes.
    """

    r: int
    s: int

    def __post_init__(self):
        if self.r < 1 or self.s < 0:
            raise SlopeSyntaxError(f"invalid slope pair ({self.r}, {self.s})")
        if self.s == 0 and self.r != 1:
            raise SlopeSyntaxError("the infinite slope must be stored as (1, 0)")
        if gcd(self.r, self.s) != 1:
            raise SlopeSyntaxError(f"slope {self.r}/{self.s} is not in lowest terms")

    @staticmethod
    def of(r: int, s: int) -> "Slope":
        """Build a finite slope from any positive pair, reducing to lowest terms."""
        if r < 1 or s < 1:
            raise SlopeSyntaxError(f"finite slope needs positive numerator and denominator, got {r}/{s}")
        g = gcd(r, s)
        return Slope(r // g, s // g)

    @staticmethod
    def infinite() -> "Slope":
        return Slope(1, 0)

    @property
    def is_infinite(self) -> bool:
        return self.s == 0

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        if self.s == 1:
            return str(self.r)
        return f"{self.r}/{self.s}"


class OrderKind(Enum):
    """A total order on a sector's points in which every point has finite rank.

    The diagonals (d = -1), the columns (d = 0) and the blocks of r/s with
    r | s-1 (d = (s-1)/r) count the lines x - d*y = K, K = 0, 1, ...; the
    residue order interleaves the columns of the classes of x mod s.
    """

    DIAGONAL = "diagonal"
    REVERSE_DIAGONAL = "reverse-diagonal"
    COLUMN_BOTTOM_UP = "column-bottom-up"
    COLUMN_TOP_DOWN = "column-top-down"
    BLOCK_BOTTOM_UP = "block-bottom-up"
    BLOCK_TOP_DOWN = "block-top-down"
    RESIDUE_INTERLEAVED = "residue-interleaved"

    @property
    def top_down(self) -> bool:
        """Whether the order counts each line from its top."""
        return self in (OrderKind.REVERSE_DIAGONAL, OrderKind.COLUMN_TOP_DOWN,
                        OrderKind.BLOCK_TOP_DOWN)


def _is_ascii_number(token: str) -> bool:
    return token.isascii() and token.isdigit()


def _too_many_digits(digits: int) -> SectorPackError:
    """The error for an integer of this many digits, past Python's digit limit."""
    return SectorPackError(f"integer of {digits} digits exceeds the limit "
                           f"of {sys.get_int_max_str_digits()} digits")


def _to_int(token: str) -> int:
    """int(token) for checked digits; past Python's digit limit, a SectorPackError."""
    try:
        return int(token)
    except ValueError:
        raise _too_many_digits(len(token.lstrip("-"))) from None


def parse_slope(text: str) -> Slope:
    """Parse ``"r/s"``, ``"r"`` (meaning r/1), or ``"inf"`` into a reduced Slope.

    Zero and negative slopes are rejected: only positive finite slopes and
    infinity are modeled.
    """
    if text == "inf":
        return Slope.infinite()
    num, sep, den = text.partition("/")
    if not _is_ascii_number(num) or (sep and not _is_ascii_number(den)):
        raise SlopeSyntaxError(f"malformed slope {text!r}")
    r = _to_int(num)
    s = _to_int(den) if sep else 1
    if r == 0:
        raise SlopeSyntaxError("slope 0 is degenerate and not modeled")
    if s == 0:
        raise SlopeSyntaxError('denominator 0 is malformed; spell the infinite slope "inf"')
    return Slope.of(r, s)


@dataclass(frozen=True)
class Sector:
    """The lattice points of the planar wedge between the x-axis and a slope ray."""

    slope: Slope

    @staticmethod
    def from_text(text: str) -> "Sector":
        return Sector(parse_slope(text))

    def contains(self, p: Point) -> bool:
        """True iff p = (x, y) has x, y >= 0 and s*y <= r*x, in exact integer arithmetic."""
        x, y = p
        if x < 0 or y < 0:
            return False
        return self.slope.s * y <= self.slope.r * x

    __contains__ = contains

    def column_height(self, x: int) -> int:
        """Largest y with (x, y) in the sector, i.e. floor(r*x/s).  Finite slopes only."""
        if self.slope.is_infinite:
            raise SectorPackError("columns of the infinite sector are unbounded")
        return (self.slope.r * x) // self.slope.s

    def free_basis(self) -> tuple[Point, Point] | None:
        """The unique free basis of the sector semigroup, or None if it is not free.

        The semigroup is free exactly for the infinite slope (basis
        {(1,0), (0,1)}) and for slopes 1/s (basis {(1,0), (s,1)}).
        """
        if self.slope.is_infinite:
            return ((1, 0), (0, 1))
        if self.slope.r == 1:
            return ((1, 0), (self.slope.s, 1))
        return None

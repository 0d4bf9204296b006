"""Slopes, integer sectors, membership, enumeration orders and their walk,
and the free-basis decision.

A sector slope is a reduced positive fraction r/s or infinity.  The integer
sector of slope r/s is the set of lattice points (x, y) with x, y >= 0 and
s*y <= r*x; the infinite slope gives the whole quadrant.  All arithmetic is
exact: plain Python integers throughout, no floating point anywhere.

`enumerate_sector` is the ground truth everything else is measured against:
it walks a sector's lattice points in a stated order using nothing but the
membership predicate, so a point's rank is simply its position.  An order is
a plain `OrderKind`, and one walker, `_lines`, serves every order: it counts
the lines e*x - d*y = K, K = 0, 1, ..., each from y = 0 to the top that the
sector test s*y <= r*x gives along the line, keeping the lattice points.
The columns are (e, d) = (1, 0) on any finite slope.  The diagonal and block
orders take the slope's own direction from `Slope.line_model`, e = r/g and
d = (s-1)/g with g = gcd(r, s-1): the quadrant (s = 0) walks its
antidiagonals x + y = K, r/s with r | s-1 its slanted blocks x - d*y = K,
and the block orders accept every r | (s-1)^2.  The residue order
interleaves s column walks, one per class of x mod s.  The walk imports no
other module of the package, so it stays independent of the families it
checks.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from enum import Enum
from math import gcd
from operator import itemgetter
from typing import Iterator

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
            raise SlopeSyntaxError(f"denominator 0 is not a finite slope, got {self.r}/0")
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

    @property
    def line_model(self) -> tuple[int, int, int]:
        """(g, e, d) of the slope's lines e*x - d*y = K: g = gcd(r, s-1), e = r/g
        and d = (s-1)/g, so gcd(e, d) = 1 and g*K = r*x - (s-1)*y.

        The quadrant (s = 0) gives (1, 1, -1), the antidiagonals; an integer
        slope r/1 gives (r, 1, 0), the columns.  e | g exactly when r | (s-1)^2.
        """
        g = gcd(self.r, self.s - 1)
        return g, self.r // g, (self.s - 1) // g

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        if self.s == 1:
            return str(self.r)
        return f"{self.r}/{self.s}"


class OrderKind(Enum):
    """A total order on a sector's points in which every point has finite rank:
    the lines of the module docstring, walked by `iter_sector`."""

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


def _lines(sector: Sector, e: int, d: int, top_down: bool, start: int = 0,
           step: int = 1) -> Iterator[Point]:
    """The lattice points of the lines e*x - d*y = K, K = start, start + step, ...,
    each from y = 0 up or from its top down.  Line K's point at height y is
    ((K + d*y)/e, y), a lattice point iff e | K + d*y, and in the sector iff
    y >= 0 and e*s*y <= r*(K + d*y), that is (e*s - r*d)*y <= r*K; every order
    has e*s - r*d >= 1, so line K holds the y in 0 .. r*K // (e*s - r*d) with
    e | K + d*y."""
    r, s = sector.slope.r, sector.slope.s
    for k in itertools.count(start, step):
        top = r * k // (e * s - r * d)
        for y in range(top, -1, -1) if top_down else range(top + 1):
            if (k + d * y) % e == 0:
                yield ((k + d * y) // e, y)


def _order_iterator(sector: Sector, order: OrderKind) -> Iterator[Point]:
    slope = sector.slope
    if order in (OrderKind.DIAGONAL, OrderKind.REVERSE_DIAGONAL):
        if not slope.is_infinite:
            raise SectorPackError(f"{order.value} requires the infinite sector")
    elif slope.is_infinite:
        raise SectorPackError(f"{order.value} requires a finite slope")
    elif order is OrderKind.RESIDUE_INTERLEAVED:
        # the columns of each class ell of x mod s, round-robin, each begun when first reached
        columns = (_lines(sector, 1, 0, False, ell, slope.s) for ell in range(slope.s))
        return map(next, itertools.cycle(columns))
    elif order in (OrderKind.COLUMN_BOTTOM_UP, OrderKind.COLUMN_TOP_DOWN):
        return _lines(sector, 1, 0, order.top_down)  # the columns, on any finite slope
    elif (slope.s - 1) ** 2 % slope.r:
        raise SectorPackError(f"{order.value} requires a slope r/s with r | (s-1)^2, got {slope}")
    return _lines(sector, *slope.line_model[1:], order.top_down)  # (e, d) of the slope


def iter_sector(sector: Sector, order: OrderKind, count: int) -> Iterator[Point]:
    """First `count` points of the order, lazily; a point's rank is its position.

    The arguments are checked on the call, before the first point is made.
    """
    if count < 1:
        raise SectorPackError(f"count must be positive, got {count}")
    # zip with a range, not islice, so that a count past sys.maxsize still streams
    return map(itemgetter(1), zip(range(count), _order_iterator(sector, order)))


def enumerate_sector(sector: Sector, order: OrderKind, count: int) -> list[Point]:
    """First `count` points of the order; a point's rank is its position here."""
    return list(iter_sector(sector, order, count))

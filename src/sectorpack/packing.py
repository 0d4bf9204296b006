"""The packing families as one block model, with rank and unrank for each.

Every family tiles its sector by blocks and counts them in order.  With r
the numerator of the slope (1 for the quadrant), residue class ell of x mod
`period` has blocks a = 0, 1, ... of r*a + c points, c = r*ell // period + 1;
offset j of block a is the point (period*a + ell + d*j, j), counted from the
top of the block when `top_down`.  The point's rank is

    period * (r*a*(a-1)/2 + c*a + offset) + ell.

* cantor F/G: the quadrant by antidiagonals, d = -1;
* steep F/G: integer slopes r, column by column, d = 0;
* divides F/G: slopes r/s with r | s-1, by slanted blocks with step
  d = (s-1)/r;
* quasi H: any reduced slope r/s, the s residue classes of x interleaved,
  period s and d = 0, one quasi-polynomial branch per class.

The four integers r, d, period and top_down determine everything: `form`
writes the count above in x and y, for the proofs to check; rank(p) counts
from p's block coordinates, which also decide membership; unrank(n) solves
the block-prefix quadratic for a with `math.isqrt`, exact at any magnitude;
and walk() lists the points in rank order block by block, with no solving.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, count, repeat
from math import gcd, isqrt
from typing import Iterator, Union

from .core import (OutsideSectorError, Point, Sector, SectorPackError, Slope,
                   _is_ascii_number)
from .poly import QuadPoly, QuasiPoly


class FamilyKind(Enum):
    CANTOR_F = "cantor-f"
    CANTOR_G = "cantor-g"
    STEEP_F = "steep-f"
    STEEP_G = "steep-g"
    DIVIDES_F = "div-f"
    DIVIDES_G = "div-g"
    QUASI_H = "quasi"


_X = QuadPoly.x()
_Y = QuadPoly.y()
_ONE = QuadPoly.constant(1)


@dataclass(frozen=True)
class PackingFamily:
    """A verified packing function: a sector and the block model that counts it."""

    kind: FamilyKind
    sector: Sector
    d: int
    period: int
    top_down: bool

    @property
    def name(self) -> str:
        """CLI name: cantor-f, steep-f:r, div-f:r/s, quasi:r/s, ..."""
        if self.kind in (FamilyKind.CANTOR_F, FamilyKind.CANTOR_G):
            return self.kind.value
        slope = self.sector.slope
        if self.kind in (FamilyKind.STEEP_F, FamilyKind.STEEP_G):
            return f"{self.kind.value}:{slope.r}"
        return f"{self.kind.value}:{slope.r}/{slope.s}"

    @cached_property
    def _model(self) -> tuple[int, int, int, bool, tuple[int, ...]]:
        """(r, d, period, top_down, cs): block a of class ell has r*a + cs[ell] points.

        One tuple, so rank and unrank take the whole model in one unpacking.
        """
        r, period = self.sector.slope.r, self.period
        cs = tuple(r * ell // period + 1 for ell in range(period))
        return r, self.d, period, self.top_down, cs

    @cached_property
    def form(self) -> Union[QuadPoly, QuasiPoly]:
        """The rank in x and y: one quadratic per residue class of x mod period."""
        r, d, period, top_down, cs = self._model
        branches = []
        for ell, c in enumerate(cs):
            a = (_X - ell * _ONE - d * _Y) / period
            offset = r * a + (c - 1) * _ONE - _Y if top_down else _Y
            count = r * (a * (a - _ONE)) / 2 + c * a + offset
            branches.append(period * count + ell * _ONE)
        if self.kind is FamilyKind.QUASI_H:
            return QuasiPoly(period, tuple(branches))
        return branches[0]

    def rank(self, p: Point) -> int:
        """Position of p in the family's enumeration, equal to the form's value at p.

        Write x - d*y = period*a + ell.  p is in block a of class ell iff
        0 <= y < r*a + c, which forces a >= 0 as c <= r, and this is sector
        membership (on a finite slope, y >= 0 and s*y <= r*x give x >= 0):
        * cantor (r = c = 1, d = -1): y < x + y + 1 is x >= 0;
        * steep (c = 1, d = 0): y < r*x + 1 is y <= r*x;
        * divides (c = 1, d = (s-1)/r): y < r*x - (s-1)*y + 1 is s*y <= r*x;
        * quasi (period s, d = 0): r*a + c - 1 = floor(r*x/s) for x = s*a + ell.
        """
        x, y = p
        r, d, period, top_down, cs = self._model
        a, ell = divmod(x - d * y, period)
        c = cs[ell]
        size = r * a + c
        if not 0 <= y < size:
            raise OutsideSectorError(
                f"point {p} is outside the sector of slope {self.sector.slope}")
        return period * (r * a * (a - 1) // 2 + c * a + (size - 1 - y if top_down else y)) + ell

    def unrank(self, n: int) -> Point:
        """The unique sector point with rank n; total on the nonnegative integers."""
        if n < 0:
            raise SectorPackError(f"rank must be nonnegative, got {n}")
        r, d, period, top_down, cs = self._model
        m, ell = divmod(n, period)
        c = cs[ell]
        # largest a >= 0 with r*a*(a-1)/2 + c*a <= m: the floor of the positive
        # root of r*a^2 + b*a - 2m, exact because isqrt floors the discriminant
        b = 2 * c - r
        a = (isqrt(b * b + 8 * r * m) - b) // (2 * r)
        offset = m - r * a * (a - 1) // 2 - c * a
        j = r * a + c - 1 - offset if top_down else offset
        return (period * a + ell + d * j, j)

    def walk(self) -> Iterator[Point]:
        """Every sector point in rank order, from rank 0: unrank(0), unrank(1), ...

        Each block is a C-level zip of ranges, so Python code runs once per
        block, not once per point; the classes interleave round-robin, as
        rank = period*m + ell.
        """
        walks = [chain.from_iterable(self._blocks(ell)) for ell in range(self.period)]
        return walks[0] if self.period == 1 else chain.from_iterable(zip(*walks))

    def _blocks(self, ell: int) -> Iterator[Iterator[Point]]:
        """The points of class ell's blocks a = 0, 1, ..., each block in rank order."""
        r, d, period, top_down, cs = self._model
        c = cs[ell]
        for a in count():
            size, x = r * a + c, period * a + ell
            ys = range(size - 1, -1, -1) if top_down else range(size)
            # a point's x, x + d*y, is affine in y: over ys it is a range of equal length
            xs = range(x + d * ys.start, x + d * ys.stop, d * ys.step) if d else repeat(x, size)
            yield zip(xs, ys)


def _require_variant(variant: str) -> str:
    if variant not in ("F", "G"):
        raise SectorPackError(f'variant must be "F" or "G", got {variant!r}')
    return variant


def cantor(variant: str) -> PackingFamily:
    """The two quadrant packing polynomials, enumerating by antidiagonals.

    F = ((x+y)^2 + x + 3y)/2 counts each antidiagonal from the x-axis up,
    G = ((x+y)^2 + 3x + y)/2 from the y-axis down.
    """
    kind = FamilyKind.CANTOR_F if _require_variant(variant) == "F" else FamilyKind.CANTOR_G
    return PackingFamily(kind, Sector(Slope.infinite()), -1, 1, variant == "G")


def steep(variant: str, r: int) -> PackingFamily:
    """Packing polynomials on the integer-slope sector, column by column.

    F counts each column bottom-up: r*x*(x-1)/2 + x + y.
    G counts each column top-down:  r*x*(x+1)/2 + x - y.
    """
    kind = FamilyKind.STEEP_F if _require_variant(variant) == "F" else FamilyKind.STEEP_G
    if r < 1:
        raise SectorPackError(f"slope must be a positive integer, got {r}")
    return PackingFamily(kind, Sector(Slope(r, 1)), 0, 1, variant == "G")


def _coprime_sector(r: int, s: int) -> Sector:
    """The sector of slope r/s, for positive coprime parameters taken literally."""
    if r < 1 or s < 1:
        raise SectorPackError(f"parameters must be positive, got ({r}, {s})")
    if gcd(r, s) != 1:
        raise SectorPackError(f"parameters ({r}, {s}) are not coprime")
    return Sector(Slope(r, s))


def divides(variant: str, r: int, s: int) -> PackingFamily:
    """Packing polynomials on the slope-r/s sector when r divides s-1, by slanted blocks."""
    kind = FamilyKind.DIVIDES_F if _require_variant(variant) == "F" else FamilyKind.DIVIDES_G
    sector = _coprime_sector(r, s)
    if not r < s:
        raise SectorPackError(f"need r < s, got ({r}, {s})")
    if (s - 1) % r != 0:
        raise SectorPackError(f"{r} does not divide {s} - 1")
    return PackingFamily(kind, sector, (s - 1) // r, 1, variant == "G")


def quasi_h(r: int, s: int) -> PackingFamily:
    """Quasi-polynomial packing function with period s on the slope-r/s sector.

    Branch for residue class ell interleaves the class's own column-by-column
    packing polynomial into every s-th value.  For s = 1 the single branch
    collapses to the integer-slope polynomial steep("F", r).
    """
    return PackingFamily(FamilyKind.QUASI_H, _coprime_sector(r, s), 0, s, False)


def parse_family(name: str) -> PackingFamily:
    """Build a family from its CLI name (cantor-f, steep-g:3, div-f:2/3, quasi:3/2).

    Parameters are taken literally: div-f:2/4 is rejected rather than reduced.
    """
    head, sep, params = name.partition(":")
    if head in ("cantor-f", "cantor-g"):
        if sep:
            raise SectorPackError(f"{head} takes no parameters")
        return cantor("F" if head.endswith("f") else "G")
    if not sep:
        raise SectorPackError(f"unknown family {name!r}")
    if head in ("steep-f", "steep-g"):
        return steep("F" if head.endswith("f") else "G", _parse_param_int(params))
    if head in ("div-f", "div-g", "quasi"):
        num, slash, den = params.partition("/")
        r = _parse_param_int(num)
        s = _parse_param_int(den) if slash else 1
        if head == "quasi":
            return quasi_h(r, s)
        return divides("F" if head.endswith("f") else "G", r, s)
    raise SectorPackError(f"unknown family {name!r}")


def _parse_param_int(token: str) -> int:
    if not _is_ascii_number(token):
        raise SectorPackError(f"malformed family parameter {token!r}")
    return int(token)

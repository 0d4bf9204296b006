"""The packing families as one block model, with rank and unrank for each.

A family is an order on a sector: its `OrderKind` and the slope r/s (r = 1,
s = 0 for the quadrant) fix everything, in `_model`.  Residue class ell of
x mod `period` has blocks a = 0, 1, ... of r*a + c points, c = r*ell //
period + 1; offset j of block a is the point (period*a + ell + d*j, j),
counted from the top of the block when `top_down`.  The point's rank is

    period * (r*a*(a-1)/2 + c*a + offset) + ell.

* cantor F/G (antidiagonals, d = -1), steep F/G (columns of an integer
  slope, d = 0) and divides F/G (slanted blocks of r/s with r | s-1) count
  the lines x - d*y = K with d = (s-1)//r and period 1;
* quasi H interleaves the s residue classes of x: period s and d = 0;
* the G variants count each line top-down.

`form` writes the count above in x and y, for the proofs to check; rank(p)
counts from p's block coordinates, which also decide membership; unrank(n)
solves the block-prefix quadratic for a with `math.isqrt`, exact at any
magnitude; and walk() lists the points in rank order block by block, with
no solving.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, repeat
from math import gcd, isqrt
from typing import Iterator, Union

from .core import (OrderKind, OutsideSectorError, Point, Sector, SectorPackError, Slope,
                   _is_ascii_number, _to_int)
from .poly import QuadPoly, QuasiPoly

# the CLI head of each order's family, read by `name` and `parse_family`
_HEADS = {OrderKind.DIAGONAL: "cantor-f", OrderKind.REVERSE_DIAGONAL: "cantor-g",
          OrderKind.COLUMN_BOTTOM_UP: "steep-f", OrderKind.COLUMN_TOP_DOWN: "steep-g",
          OrderKind.BLOCK_BOTTOM_UP: "div-f", OrderKind.BLOCK_TOP_DOWN: "div-g",
          OrderKind.RESIDUE_INTERLEAVED: "quasi"}
_ORDERS = {head: order for order, head in _HEADS.items()}
_COLUMNS = (OrderKind.COLUMN_BOTTOM_UP, OrderKind.COLUMN_TOP_DOWN)

_X = QuadPoly.x()
_Y = QuadPoly.y()
_ONE = QuadPoly.constant(1)


@dataclass(frozen=True)
class PackingFamily:
    """A verified packing function: the order that counts a sector's points."""

    order: OrderKind
    sector: Sector

    @property
    def name(self) -> str:
        """CLI name: cantor-f, steep-f:r, div-f:r/s, quasi:r/s, ..."""
        head, slope = _HEADS[self.order], self.sector.slope
        if slope.is_infinite:
            return head
        if self.order in _COLUMNS:
            return f"{head}:{slope.r}"
        return f"{head}:{slope.r}/{slope.s}"

    @cached_property
    def _model(self) -> tuple[int, int, int, bool, tuple[int, ...]]:
        """(r, d, period, top_down, cs): block a of class ell has r*a + cs[ell] points.

        One tuple, so rank and unrank take the whole model in one unpacking.
        """
        r, s = self.sector.slope.r, self.sector.slope.s
        if self.order is OrderKind.RESIDUE_INTERLEAVED:
            d, period = 0, s
        else:
            d, period = (s - 1) // r, 1
        cs = tuple(r * ell // period + 1 for ell in range(period))
        return r, d, period, self.order.top_down, cs

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
        if self.order is OrderKind.RESIDUE_INTERLEAVED:
            return QuasiPoly(period, tuple(branches))
        return branches[0]

    def rank(self, p: Point) -> int:
        """Position of p in the family's enumeration, equal to the form's value at p.

        Write x - d*y = period*a + ell.  p is in block a of class ell iff
        0 <= y < r*a + c, which forces a >= 0 as c <= r, and this is sector
        membership (on a finite slope, y >= 0 and s*y <= r*x give x >= 0):
        * line orders (period 1, c = 1, r*d = s - 1; the quadrant has s = 0):
          y < r*(x - d*y) + 1 is s*y <= r*x;
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
        period = self._model[2]
        walks = [chain.from_iterable(self._blocks(ell)) for ell in range(period)]
        return walks[0] if period == 1 else chain.from_iterable(zip(*walks))

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


def _variant_order(variant: str, f_order: OrderKind, g_order: OrderKind) -> OrderKind:
    """The F variant's order or the G variant's, by the variant's letter."""
    if variant not in ("F", "G"):
        raise SectorPackError(f'variant must be "F" or "G", got {variant!r}')
    return f_order if variant == "F" else g_order


def cantor(variant: str) -> PackingFamily:
    """The two quadrant packing polynomials, enumerating by antidiagonals.

    F = ((x+y)^2 + x + 3y)/2 counts each antidiagonal from the x-axis up,
    G = ((x+y)^2 + 3x + y)/2 from the y-axis down.
    """
    order = _variant_order(variant, OrderKind.DIAGONAL, OrderKind.REVERSE_DIAGONAL)
    return PackingFamily(order, Sector(Slope.infinite()))


def steep(variant: str, r: int) -> PackingFamily:
    """Packing polynomials on the integer-slope sector, column by column.

    F counts each column bottom-up: r*x*(x-1)/2 + x + y.
    G counts each column top-down:  r*x*(x+1)/2 + x - y.
    """
    order = _variant_order(variant, OrderKind.COLUMN_BOTTOM_UP, OrderKind.COLUMN_TOP_DOWN)
    if r < 1:
        raise SectorPackError(f"slope must be a positive integer, got {r}")
    return PackingFamily(order, Sector(Slope(r, 1)))


def _coprime_sector(r: int, s: int) -> Sector:
    """The sector of slope r/s, for positive coprime parameters taken literally."""
    if r < 1 or s < 1:
        raise SectorPackError(f"parameters must be positive, got ({r}, {s})")
    if gcd(r, s) != 1:
        raise SectorPackError(f"parameters ({r}, {s}) are not coprime")
    return Sector(Slope(r, s))


def divides(variant: str, r: int, s: int) -> PackingFamily:
    """Packing polynomials on the slope-r/s sector when r divides s-1, by slanted blocks."""
    order = _variant_order(variant, OrderKind.BLOCK_BOTTOM_UP, OrderKind.BLOCK_TOP_DOWN)
    sector = _coprime_sector(r, s)
    if not r < s:
        raise SectorPackError(f"need r < s, got ({r}, {s})")
    if (s - 1) % r != 0:
        raise SectorPackError(f"{r} does not divide {s} - 1")
    return PackingFamily(order, sector)


def quasi_h(r: int, s: int) -> PackingFamily:
    """Quasi-polynomial packing function with period s on the slope-r/s sector.

    Branch for residue class ell interleaves the class's own column-by-column
    packing polynomial into every s-th value.  For s = 1 the single branch
    collapses to the integer-slope polynomial steep("F", r).
    """
    return PackingFamily(OrderKind.RESIDUE_INTERLEAVED, _coprime_sector(r, s))


def parse_family(name: str) -> PackingFamily:
    """Build a family from its CLI name (cantor-f, steep-g:3, div-f:2/3, quasi:3/2).

    Parameters are taken literally: div-f:2/4 is rejected rather than reduced.
    """
    head, sep, params = name.partition(":")
    order = _ORDERS.get(head)
    variant = "G" if order and order.top_down else "F"
    if order in (OrderKind.DIAGONAL, OrderKind.REVERSE_DIAGONAL):
        if sep:
            raise SectorPackError(f"{head} takes no parameters")
        return cantor(variant)
    if order is None or not sep:
        raise SectorPackError(f"unknown family {name!r}")
    if order in _COLUMNS:
        return steep(variant, _parse_param_int(params))
    num, slash, den = params.partition("/")
    r = _parse_param_int(num)
    s = _parse_param_int(den) if slash else 1
    if order is OrderKind.RESIDUE_INTERLEAVED:
        return quasi_h(r, s)
    return divides(variant, r, s)


def _parse_param_int(token: str) -> int:
    if not _is_ascii_number(token):
        raise SectorPackError(f"malformed family parameter {token!r}")
    return _to_int(token)

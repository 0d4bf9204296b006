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

On the line orders, which are every family of period 1 (quasi r/1 too),
there is one class, ell = 0 and c = 1, and block a is the line K = x - d*y
itself, of r*K + 1 points: p is in it iff 0 <= y <= r*K, and the count
above becomes

    K*(r*(K-1) + 2)/2 + offset,   offset = r*K - y top-down, else y,

which `rank` and `unrank` use directly, with no division by the period.

`form` writes the count above in x and y, for the proofs to check; rank(p)
counts from p's block coordinates, which also decide membership; unrank(n)
solves the block-prefix quadratic for a with `math.isqrt`, exact at any
magnitude; and walk() lists the points in rank order block by block, with
no solving.  None of them builds anything per residue class (c is worked
out where it is read, and walk() begins a class when the round robin first
reaches it), so a long period costs nothing up front; only `form` has one
branch per class.  `Slope` and `PackingFamily` alone check the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, count, cycle, repeat
from math import isqrt
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
_DIAGONALS = (OrderKind.DIAGONAL, OrderKind.REVERSE_DIAGONAL)
_COLUMNS = (OrderKind.COLUMN_BOTTOM_UP, OrderKind.COLUMN_TOP_DOWN)
_BLOCKS = (OrderKind.BLOCK_BOTTOM_UP, OrderKind.BLOCK_TOP_DOWN)


@dataclass(frozen=True)
class PackingFamily:
    """A verified packing function: the order that counts a sector's points.

    The constructor refuses an order on a sector it does not pack: the
    diagonals pack the quadrant, the columns an integer slope, the blocks r/s
    with r < s and r | s-1, and the residue interleave any finite slope."""

    order: OrderKind
    sector: Sector

    def __post_init__(self):
        slope = self.sector.slope
        if slope.is_infinite != (self.order in _DIAGONALS) or (
                self.order in _COLUMNS and slope.s != 1):
            raise SectorPackError(f"{self.order.value} does not pack the sector of slope {slope}")
        if self.order in _BLOCKS:
            r, s = slope.r, slope.s
            if not r < s:
                raise SectorPackError(f"need r < s, got ({r}, {s})")
            if (s - 1) % r != 0:
                raise SectorPackError(f"{r} does not divide {s} - 1")

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
    def _model(self) -> tuple[int, int, int, bool]:
        """(r, d, period, top_down): block a of class ell has r*a + c points,
        c = r*ell // period + 1.

        One tuple, so rank and unrank take the whole model in one unpacking.
        """
        r, s = self.sector.slope.r, self.sector.slope.s
        if self.order is OrderKind.RESIDUE_INTERLEAVED:
            d, period = 0, s
        else:
            d, period = (s - 1) // r, 1
        return r, d, period, self.order.top_down

    @cached_property
    def form(self) -> Union[QuadPoly, QuasiPoly]:
        """The rank in x and y: one quadratic per residue class of x mod period.

        With P = period and u = x - ell - d*y = P*a on class ell, the rank
        P*(r*a*(a-1)/2 + c*a + offset) + ell is, over 2P,

            r*u^2 + B*u + 2P^2*y + E,  B = 2P*c - r*P,  E = 2P*ell

        bottom-up (offset y); top-down, offset r*a + c - 1 - y adds
        2P*r to B and 2P^2*(c-1) to E and turns +2P^2*y into -2P^2*y.
        Expanding u^2 and u gives each branch's six numerators over 2P, for
        x^2, xy, y^2, x, y and 1, with no polynomial arithmetic per class:
        r, -2dr, d^2*r, B - 2*ell*r, 2d*ell*r - d*B +- 2P^2, r*ell^2 - B*ell + E.
        """
        r, d, period, top_down = self._model
        den, y2 = 2 * period, (2 - 4 * top_down) * period * period  # top_down counts as 1
        branches = []
        for ell in range(period):
            c = r * ell // period + 1
            b, e = den * (c + top_down * r) - r * period, den * (ell + top_down * period * (c - 1))
            nums = (r, -2 * d * r, d * d * r, b - 2 * ell * r, 2 * d * ell * r - d * b + y2,
                    r * ell * ell - b * ell + e)
            branches.append(QuadPoly(*(Fraction(n, den) for n in nums)))
        if self.order is OrderKind.RESIDUE_INTERLEAVED:
            return QuasiPoly(period, tuple(branches))
        return branches[0]

    def rank(self, p: Point) -> int:
        """Position of p in the family's enumeration, equal to the form's value at p.

        Write x - d*y = period*a + ell.  p is in block a of class ell iff
        0 <= y < r*a + c, which forces a >= 0 as c <= r, and this is sector
        membership (on a finite slope, y >= 0 and s*y <= r*x give x >= 0):
        * line orders (period 1, r*d = s - 1; the quadrant has s = 0):
          ell = 0, c = 1 and a is the line K = x - d*y, so the test is
          0 <= y <= r*K, which is s*y <= r*x, and the rank
          r*K*(K-1)/2 + K + offset is K*(r*(K-1) + 2)/2 + offset, taken with
          no divmod by the period;
        * quasi (period s, d = 0): r*a + c - 1 = floor(r*x/s) for x = s*a + ell.
        """
        x, y = p
        r, d, period, top_down = self._model
        if period == 1:
            k = x - d * y
            if 0 <= y <= r * k:
                return k * (r * (k - 1) + 2) // 2 + (r * k - y if top_down else y)
        else:
            a, ell = divmod(x, period)  # d = 0 on the interleave
            c = r * ell // period + 1
            size = r * a + c
            if 0 <= y < size:
                return period * (r * a * (a - 1) // 2 + c * a
                                 + (size - 1 - y if top_down else y)) + ell
        raise OutsideSectorError(f"point {p} is outside the sector of slope {self.sector.slope}")

    def unrank(self, n: int) -> Point:
        """The unique sector point with rank n; total on the nonnegative integers.

        n = period*m + ell; on the line orders (period 1) m = n, ell = 0 and
        c = 1, so a is the line K and no divmod is taken.
        """
        if n < 0:
            raise SectorPackError(f"rank must be nonnegative, got {n}")
        r, d, period, top_down = self._model
        if period == 1:
            m, ell, c = n, 0, 1
        else:
            m, ell = divmod(n, period)
            c = r * ell // period + 1
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
        rank = period*m + ell, each begun when the round first reaches it.
        """
        period = self._model[2]
        walks = (chain.from_iterable(self._blocks(ell)) for ell in range(period))
        return next(walks) if period == 1 else map(next, cycle(walks))

    def _blocks(self, ell: int) -> Iterator[Iterator[Point]]:
        """The points of class ell's blocks a = 0, 1, ..., each block in rank order."""
        r, d, period, top_down = self._model
        c = r * ell // period + 1
        for a in count():
            size, x = r * a + c, period * a + ell
            ys = range(size - 1, -1, -1) if top_down else range(size)
            # a point's x, x + d*y, is affine in y: over ys it is a range of equal length
            xs = range(x + d * ys.start, x + d * ys.stop, d * ys.step) if d else repeat(x, size)
            yield zip(xs, ys)


def _variant_order(variant: str, orders: tuple[OrderKind, OrderKind]) -> OrderKind:
    """The F variant's order or the G variant's, of (F order, G order)."""
    if variant not in ("F", "G"):
        raise SectorPackError(f'variant must be "F" or "G", got {variant!r}')
    return orders[variant == "G"]


def cantor(variant: str) -> PackingFamily:
    """The two quadrant packing polynomials, enumerating by antidiagonals.

    F = ((x+y)^2 + x + 3y)/2 counts each antidiagonal from the x-axis up,
    G = ((x+y)^2 + 3x + y)/2 from the y-axis down.
    """
    return PackingFamily(_variant_order(variant, _DIAGONALS), Sector(Slope.infinite()))


def steep(variant: str, r: int) -> PackingFamily:
    """Packing polynomials on the integer-slope sector, column by column.

    F counts each column bottom-up: r*x*(x-1)/2 + x + y.
    G counts each column top-down:  r*x*(x+1)/2 + x - y.
    """
    return PackingFamily(_variant_order(variant, _COLUMNS), Sector(Slope(r, 1)))


def divides(variant: str, r: int, s: int) -> PackingFamily:
    """Packing polynomials on the slope-r/s sector when r divides s-1, by slanted blocks."""
    return PackingFamily(_variant_order(variant, _BLOCKS), Sector(Slope(r, s)))


def quasi_h(r: int, s: int) -> PackingFamily:
    """Quasi-polynomial packing function with period s on the slope-r/s sector.

    Branch for residue class ell interleaves the class's own column-by-column
    packing polynomial into every s-th value.  For s = 1 the single branch
    collapses to the integer-slope polynomial steep("F", r).
    """
    return PackingFamily(OrderKind.RESIDUE_INTERLEAVED, Sector(Slope(r, s)))


def parse_family(name: str) -> PackingFamily:
    """Build a family from its CLI name (cantor-f, steep-g:3, div-f:2/3, quasi:3/2).

    Parameters are taken literally: `Slope` rejects div-f:2/4 rather than reducing it.
    """
    head, sep, params = name.partition(":")
    order = _ORDERS.get(head)
    if order in _DIAGONALS:
        if sep:
            raise SectorPackError(f"{head} takes no parameters")
        return PackingFamily(order, Sector(Slope.infinite()))
    if order is None or not sep:
        raise SectorPackError(f"unknown family {name!r}")
    if order in _COLUMNS:
        return PackingFamily(order, Sector(Slope(_parse_param_int(params), 1)))
    num, slash, den = params.partition("/")
    r = _parse_param_int(num)
    s = _parse_param_int(den) if slash else 1
    return PackingFamily(order, Sector(Slope(r, s)))


def _parse_param_int(token: str) -> int:
    if not _is_ascii_number(token):
        raise SectorPackError(f"malformed family parameter {token!r}")
    return _to_int(token)

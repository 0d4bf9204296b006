"""The packing families as one block model, with rank and unrank for each.

A family is an order on a sector: its `OrderKind` and the slope r/s (r = 1,
s = 0 for the quadrant) fix everything, in `_model` = (g, e, d, period,
top_down).  Residue class ell of x mod `period` (e = 1 and d = 0 when the
period is not 1) has blocks a = 0, 1, ...: block a lies on the line
e*x - d*y = period*a + ell, its rows j are [0, g*a + c) with
c = g*ell // period + 1, and row j holds the point ((period*a + ell + d*j)/e,
j) when that is a lattice point.  With the row's offset counted from the
top of the block when `top_down`, the point's rank is

    (period * (g*a*(a-1)/2 + c*a + offset) + ell) / e.

* the line orders count the lines e*x - d*y = K of `Slope.line_model`, with
  g = gcd(r, s-1), e = r/g, d = (s-1)/g and period 1: cantor F/G (the
  quadrant's antidiagonals, (1, 1, -1)), steep F/G (the columns of r/1,
  (r, 1, 0)) and divides F/G (the slanted lines of any other r/s), which
  pack exactly when r | (s-1)^2 and d = 1 (mod e) for F, d = -1 for G;
* quasi H interleaves the s residue classes of x: (r, 1, 0, s, False),
  each class counting its columns bottom-up, so the interleave has no
  top-down case;
* the G variants count each line top-down.

On the line orders there is one class, ell = 0 and c = 1, and block a is
the line K itself.  Since g*K = r*x - (s-1)*y, p is in the sector iff
0 <= y <= g*K, and line K holds the y there with e | K + d*y, one residue
class y0(K) mod e as gcd(e, d) = 1.  Counting the lines before K and
the points below p (above p top-down) gives

    F = (g*K*(K-1)/2 + K + y)/e,   G = (g*K*(K+1)/2 + K - y)/e,

that is, one numerator over 2*e for both, K*(g*K + b) + t*y, with b = 2 - g
and t = 2 for F, b = 2 + g and t = -2 for G.  `rank` evaluates it and
`unrank` inverts it: K is the floor of the positive root of
g*K^2 + (2 - g)*K = 2*e*n, by the discriminant (2 - g)^2 + 8*g*e*n, and y
solves the numerator for the rest.  b, t and the discriminant's constants
depend on the family alone, so `_terms` works them out once.

This is the paper's existence theorem for r | s-1 (e = 1) extended to every
r | (s-1)^2: e | g, as gcd(e, d) = 1 and e | g*d^2, so line K has
g*K/e + [e | K] points; the lines before K hold
N(K) = (g*K*(K-1)/2 + K + y0(K))/e; F's y0 is (-K) mod e, so F is N(K) plus
p's place on its line, and so is G, whose line tops are g*K - ((-K) mod e).

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
# the (F, G) line orders of each slope kind, indexed by min(s, 2): the quadrant
# (s = 0), an integer slope (s = 1) and any other
_LINE_ORDERS = ((OrderKind.DIAGONAL, OrderKind.REVERSE_DIAGONAL),
                (OrderKind.COLUMN_BOTTOM_UP, OrderKind.COLUMN_TOP_DOWN),
                (OrderKind.BLOCK_BOTTOM_UP, OrderKind.BLOCK_TOP_DOWN))


@dataclass(frozen=True)
class PackingFamily:
    """A verified packing function: the order that counts a sector's points.

    The constructor refuses an order on a sector it does not pack.  The
    residue interleave packs any finite slope.  A line order packs r/s when
    it is the line order of the slope's kind (the diagonals on the quadrant,
    the columns on an integer slope, the blocks on any other), e | g (that
    is, r | (s-1)^2) and d = 1 (mod e) for F or d = -1 (mod e) for G, with
    (g, e, d) = `Slope.line_model`; on the quadrant and the integer slopes
    e = 1, and on r/s with r | s-1 too."""

    order: OrderKind
    sector: Sector

    def __post_init__(self):
        slope = self.sector.slope
        g, e, d = slope.line_model
        interleave = self.order is OrderKind.RESIDUE_INTERLEAVED and not slope.is_infinite
        if not (interleave or self.order in _LINE_ORDERS[min(slope.s, 2)] and g % e == 0
                and (d + (1 if self.order.top_down else -1)) % e == 0):
            raise SectorPackError(f"{self.order.value} does not pack the sector of slope {slope}")

    @property
    def name(self) -> str:
        """CLI name: cantor-f, steep-f:r, div-f:r/s, quasi:r/s, ..."""
        head, slope = _HEADS[self.order], self.sector.slope
        if slope.is_infinite:
            return head
        if self.order in _LINE_ORDERS[1]:
            return f"{head}:{slope.r}"
        return f"{head}:{slope.r}/{slope.s}"

    @cached_property
    def _model(self) -> tuple[int, int, int, int, bool]:
        """(g, e, d, period, top_down): block a of class ell has g*a + c rows,
        c = g*ell // period + 1, on the lines e*x - d*y = period*a + ell.

        `form`, `walk` and the block-model proofs read it; rank and unrank
        read `_terms`, which is worked out from it.
        """
        slope = self.sector.slope
        if self.order is OrderKind.RESIDUE_INTERLEAVED:
            return slope.r, 1, 0, slope.s, False
        return (*slope.line_model, 1, self.order.top_down)

    @cached_property
    def form(self) -> Union[QuadPoly, QuasiPoly]:
        """The rank in x and y: one quadratic per residue class of x mod period.

        With P = period and u = e*x - ell - d*y = P*a on class ell, e times
        the rank, P*(g*a*(a-1)/2 + c*a + offset) + ell, is, over 2P,

            g*u^2 + B*u + 2P^2*y + E,  B = 2P*c - g*P,  E = 2P*ell

        bottom-up (offset y); top-down, offset g*a + c - 1 - y adds
        2P*g to B and 2P^2*(c-1) to E and turns +2P^2*y into -2P^2*y.
        Expanding u^2 and u gives each branch's six numerators over 2P*e, for
        x^2, xy, y^2, x, y and 1, with no polynomial arithmetic per class:
        g*e^2, -2*g*e*d, g*d^2, e*(B - 2*ell*g), 2d*ell*g - d*B +- 2P^2,
        g*ell^2 - B*ell + E.  On the line orders (P = 1, ell = 0, c = 1) these
        are g*e^2, -2*g*e*d, g*d^2, (2 -+ g)*e, 2 - (2 - g)*d or
        -2 - (2 + g)*d top-down, and 0, over 2e.
        """
        g, e, d, period, top_down = self._model
        den, y2 = 2 * period * e, (2 - 4 * top_down) * period * period  # top_down counts as 1
        branches = []
        for ell in range(period):
            c = g * ell // period + 1
            b = 2 * period * (c + top_down * g) - g * period
            const = 2 * period * (ell + top_down * period * (c - 1))
            nums = (g * e * e, -2 * g * e * d, g * d * d, e * (b - 2 * ell * g),
                    2 * d * ell * g - d * b + y2, g * ell * ell - b * ell + const)
            branches.append(QuadPoly(*(Fraction(n, den) for n in nums)))
        if self.order is OrderKind.RESIDUE_INTERLEAVED:
            return QuasiPoly(period, tuple(branches))
        return branches[0]

    @cached_property
    def _terms(self) -> tuple:
        """(g, e, d, period, b, t, h, hh, ge8, e2, g2): what rank and unrank
        read, worked out once per family from `_model`.

        On the line orders rank is (K*(g*K + b) + t*y) // e2, with e2 = 2*e,
        b = 2 - g and t = 2 for F, b = 2 + g and t = -2 for G; unrank takes
        the isqrt of hh + ge8*n, with h = 2 - g, hh = h^2 and ge8 = 8*g*e,
        over g2 = 2*g.  As e = 1 on the interleave, ge8 = 8*g there too.
        """
        g, e, d, period, top_down = self._model
        b, t = (2 + g, -2) if top_down else (2 - g, 2)
        return g, e, d, period, b, t, 2 - g, (2 - g) ** 2, 8 * g * e, 2 * e, 2 * g

    def rank(self, p: Point) -> int:
        """Position of p in the family's enumeration, equal to the form's value at p.

        Write e*x - d*y = period*a + ell.  p is in block a of class ell iff
        0 <= y < g*a + c, which forces a >= 0 as c <= g, and this is sector
        membership (on a finite slope, y >= 0 and s*y <= r*x give x >= 0):
        * line orders (period 1, g*K = r*x - (s-1)*y; the quadrant has s = 0):
          ell = 0, c = 1 and a is the line K = e*x - d*y, so the test is
          0 <= y <= g*K, which is s*y <= r*x.  Over 2*e, F and G have the
          numerator K*(g*K + b) + t*y, with b = 2 - g and t = 2 for F, and
          b = 2 + g and t = -2 for G, whose offset g*K - y puts g*K into b;
        * quasi (period s, e = 1, d = 0, g = r): g*a + c - 1 = floor(r*x/s)
          for x = s*a + ell, and the offset is y: every class counts its
          columns bottom-up, as quasi H does, so the interleave is never
          top-down.
        """
        x, y = p
        g, e, d, period, b, t, _, _, _, e2, _ = self._terms
        if period == 1:
            k = e * x - d * y
            gk = g * k
            if 0 <= y <= gk:
                return (k * (gk + b) + t * y) // e2
        else:
            a, ell = divmod(x, period)  # e = 1 and d = 0 on the interleave
            c = g * ell // period + 1
            if 0 <= y < g * a + c:
                return period * (g * a * (a - 1) // 2 + c * a + y) + ell
        raise OutsideSectorError(f"point {p} is outside the sector of slope {self.sector.slope}")

    def unrank(self, n: int) -> Point:
        """The unique sector point with rank n; total on the nonnegative integers.

        Write n = period*m + ell.  Block a of class ell begins at
        m = g*a*(a-1)/2 + c*a, so the block of rank n is the largest a >= 0
        with g*a^2 + (2*c - g)*a <= 2*m: the floor of the positive root,
        exact at any magnitude because isqrt floors the discriminant
        (2*c - g)^2 + 8*g*m.
        * line orders (period 1, c = 1, m = e*n, ell = 0): the discriminant is
          (2 - g)^2 + 8*g*e*n.  The largest line K with g*K*(K-1)/2 + K <= e*n
          holds rank n, with no step, as e*n minus that sum is at least
          y0(K), to which it is congruent mod e; y solves rank's numerator,
          2*e*n = K*(g*K + b) + t*y, which is exact, top-down as well;
        * quasi (e = 1, d = 0, bottom-up): the point is (period*a + ell,
          m - a*(g*a + 2*c - g)/2).
        """
        if n < 0:
            raise SectorPackError(f"rank must be nonnegative, got {n}")
        g, e, d, period, b, t, h, hh, ge8, e2, g2 = self._terms
        if period == 1:
            k = (isqrt(hh + ge8 * n) - h) // g2
            y = (e2 * n - k * (g * k + b)) // t
            return ((k + d * y) // e, y)
        m, ell = divmod(n, period)
        b = 2 * (g * ell // period + 1) - g
        a = (isqrt(b * b + ge8 * m) - b) // g2
        return (period * a + ell, m - a * (g * a + b) // 2)

    def walk(self) -> Iterator[Point]:
        """Every sector point in rank order, from rank 0: unrank(0), unrank(1), ...

        Each block is a C-level zip of ranges, so Python code runs once per
        block, not once per point; the classes interleave round-robin, as
        rank = period*m + ell, each begun when the round first reaches it.
        """
        period = self._model[3]
        walks = (chain.from_iterable(self._blocks(ell)) for ell in range(period))
        return next(walks) if period == 1 else map(next, cycle(walks))

    def _blocks(self, ell: int) -> Iterator[Iterator[Point]]:
        """The points of class ell's blocks a = 0, 1, ..., each block in rank order:
        the y in [0, g*a + c) with e | k + d*y, k = period*a + ell, which step by
        e from (-d*k) mod e, as d*d = 1 (mod e)."""
        g, e, d, period, top_down = self._model
        c = g * ell // period + 1
        for a in count():
            size, k = g * a + c, period * a + ell
            ys = range((-d * k) % e, size, e)[::-1 if top_down else 1]
            # a point's x, (k + d*y)/e, is affine in y: over ys it is a range of equal length
            x, step = (k + d * ys.start) // e, d * ys.step // e
            yield zip(range(x, x + step * len(ys), step) if d else repeat(x, len(ys)), ys)


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
    return PackingFamily(_variant_order(variant, _LINE_ORDERS[0]), Sector(Slope.infinite()))


def steep(variant: str, r: int) -> PackingFamily:
    """Packing polynomials on the integer-slope sector, column by column.

    F counts each column bottom-up: r*x*(x-1)/2 + x + y.
    G counts each column top-down:  r*x*(x+1)/2 + x - y.
    """
    return PackingFamily(_variant_order(variant, _LINE_ORDERS[1]), Sector(Slope(r, 1)))


def divides(variant: str, r: int, s: int) -> PackingFamily:
    """Packing polynomials on the slope-r/s sector, s >= 2, by the slanted lines
    K = e*x - d*y of `Slope.line_model`: F = (g*K*(K-1)/2 + K + y)/e when
    r | (s-1)^2 and d = 1 (mod e), G = (g*K*(K+1)/2 + K - y)/e when d = -1.
    With r | s-1 (e = 1) both exist; the constructor refuses the others.
    """
    return PackingFamily(_variant_order(variant, _LINE_ORDERS[2]), Sector(Slope(r, s)))


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
    if order in _LINE_ORDERS[0]:
        if sep:
            raise SectorPackError(f"{head} takes no parameters")
        return PackingFamily(order, Sector(Slope.infinite()))
    if order is None or not sep:
        raise SectorPackError(f"unknown family {name!r}")
    if order in _LINE_ORDERS[1]:
        return PackingFamily(order, Sector(Slope(_parse_param_int(params), 1)))
    num, slash, den = params.partition("/")
    r = _parse_param_int(num)
    s = _parse_param_int(den) if slash else 1
    return PackingFamily(order, Sector(Slope(r, s)))


def _parse_param_int(token: str) -> int:
    if not _is_ascii_number(token):
        raise SectorPackError(f"malformed family parameter {token!r}")
    return _to_int(token)

"""Brute-force enumeration oracles, packing verification, and bounded search.

`enumerate_sector` is the ground truth everything else is measured against:
it walks a sector's lattice points in a stated order using nothing but the
membership predicate, so a point's rank is simply its position.  An order is
a plain `OrderKind`, and one walker, `_lines`, serves every order: it counts
the lines x - d*y = K, K = 0, 1, ..., each from y = 0 to the top that the
sector test s*y <= r*x gives along the line, with d = -1 for the quadrant's
antidiagonals, 0 for columns and (s-1)/r for slanted blocks.  The residue
order interleaves s such column walks, one per class of x mod s.

`verify_packing` checks an arbitrary candidate on a finite prefix of the
sector: values must be nonnegative integers, pairwise distinct, and cover
{0..prefix-1}.  The examined region holds a slope-dependent multiple of
`prefix` points so that every preimage of a small value is actually looked
at.  Integrality costs O(1) per branch: a quadratic with integer values on
one lattice triangle is integer-valued everywhere (Polya), and a branch's
columns hold such a triangle unless the region is small, where its columns
are checked one by one.  Then a numpy pass writes the region's values into
one array, evaluated flat over whole columns with every branch scaled to
one common denominator, so that one scalar division ends it: int32 or
int64 where a bound proves every step exact, and Python ints otherwise.
One sort follows: the first value shows a negative one, equal neighbours
a repeat, and the sorted values show at a glance whether {0..prefix-1}
occurs.  Only a failure walks the points, until the first one, to name
the first witness in column order; after a sort, the walk records only
the values that the sort saw repeated.

The search tools sweep the box of half-integer coefficients |c| <= bound
through a funnel of exact int32/int64 screens, with no floating point, and
certify the survivors with `verify_packing` itself.  The linear sweep is the
same box with the x^2, xy and y^2 columns pinned to 0.

1. Only integer-valued candidates are built: the integer combinations of
   Polya's binomial basis C(x,2), xy, C(y,2), x, y, 1, with f(0,0) >= 0 as
   (0,0) is always examined.  A candidate off this sublattice takes a
   non-integer value on every lattice triangle {(a+i, b+j) : i+j <= 2}, so
   when the examined region holds such a triangle the screens would reject
   it anyway.  A region without one (only tiny prefixes) falls back to the
   full box.  Either way `exhausted` means the whole box was covered: every
   candidate skipped is proved to fail.
2. The constant numerator k00 is solved, not swept.  Every other monomial
   is 0 at (0,0), the first region point, so 2f = W + k00, where W, the
   value of the shape (k20, k11, k02, k10, k01), is 0 there.  2f is even
   everywhere iff k00 and W are, nonnegative iff k00 >= -min W, and
   distinct iff W is; the box holds every even k00 from 0 to 2*bound.  So
   a shape passes a screen iff some k00 in the box does: W is even,
   distinct and at least -2*bound.  On the sublattice W is even at every
   lattice point (k20*(x^2 + x), k11*xy and k02*(y^2 + y) are even there),
   so only the full-box fallback tests parity.  The full screen also needs
   {0..prefix-1} to occur, so 0 occurs and k00 = -min W: each surviving
   shape is one candidate, and exactly prefix points have
   W < 2*prefix - k00 <= 2*prefix.  The tests run in four steps:
   - the region's y = 0 row, where W = k20*x^2 + k10*x whatever k11, k02
     and k01: a pair (k20, k10) that fails there fails the whole region
     for every shape that holds it, so the chunk plan drops it, and no
     chunk holds it;
   - the first 48 region points;
   - one lower bound per column: on column x with top t,
     W >= L_x = k20*x^2 + k10*x + min(0, k02)*t^2 + min(0, k11*x + k01)*t,
     so each of the prefix points lies in a column with L_x < 2*prefix,
     and a shape whose such columns hold fewer points fails coverage;
   - the whole region, where the coverage count runs before the sort that
     tests distinctness.
3. Values are built from the monomial rows x^2, xy, y^2, x and y of the
   region, computed once per search.  A chunk holds pairs (k20, k10) that
   passed the y = 0 row, often of many k20 values, and its grids are
   (pair, k11, k02, k01), one per group of cosets with equal k11, k02 and
   k01 ranges (on the sublattice, one per parity of k02).  The 48-point
   screen adds to each pair's row k20*x^2 + k10*x the broadcast products
   of the k11, k02 and k01 values with their monomial rows, in batches of
   pairs of about _GRID_BYTES of values.  The column screen adds one row of
   each of three small tables, one per term of L, and weighs each column
   with L_x < 2*prefix by its height: the k02 table is made once per
   sweep, and the pair table (k20*x^2 + k10*x, one row per pair) and the
   k01 table (for the chunk's k11 values) once per chunk.  The
   whole-region screen multiplies and adds all five monomial rows for the
   shapes that are left, as k20 varies within a chunk.  Both work in
   batches of about _SLICE_BYTES of values.  With M the largest monomial
   on the region, |2f| <= 6*(2*bound)*M, which also bounds W, -min W and
   L, and the coverage count compares W with 2*prefix - k00: the rows are
   int32 when 6*(2*bound)*M and 2*prefix are both below 2^31, which keeps
   all arithmetic exact, and int64 otherwise.

The plan (_chunk_plan) streams: it tests one k20 at a time on the y = 0
row and groups consecutive k20 values into one chunk while their passing
shapes times their k00 range fit _CHUNK_ROWS.  A k20 that does not fit
alone is cut into chunks keyed on (k20, k11), then on k02, k10 and k01 as
needed, unless a chunk is a single shape; chunks are never keyed on k00.
Progress counts the (k20, k11) keys of the box (deeper keys where the box
splits deeper) whatever the chunks, each when the chunk that ends it
returns; a refused k20 counts with the next chunk, or at the end.  A sweep
whose plan holds at most one chunk runs in process, and a pool never has
more workers than chunks.  So a search holds the region's monomial rows,
5 values per point whatever the bound, one k20's y = 0 row, a k02 table of
(4*bound + 1) * columns values, and per chunk a pair table of one row per
pair, a k01 table of that size per k11 value and the batches.  Results are
deterministic regardless of worker count: survivors are re-sorted.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import multiprocessing
import os
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterator, Optional

import numpy as np

from .core import OrderKind, Point, Sector, SectorPackError
from .poly import PolyLike, QuadPoly, _quad_to_object

# Base examined-region size as a multiple of the requested prefix; the
# effective margin is max(_COVERAGE_MARGIN, 2s) for slope denominator s, see
# _examined_region.
_COVERAGE_MARGIN = 4
_BLOCK_POINTS = 1 << 15  # values made at a time by _column_values, unless a column is longer
_INT32_LIMIT = 2 ** 31  # values below this in magnitude fit int32, in verify and in the screens


def _lines(sector: Sector, d: int, top_down: bool, start: int = 0,
           step: int = 1) -> Iterator[Point]:
    """The points of the lines x - d*y = K, K = start, start + step, ..., each
    from y = 0 up or from its top down.  (K + d*y, y) is in the sector iff
    y >= 0 and s*y <= r*(K + d*y), that is (s - r*d)*y <= r*K; every order
    has s - r*d >= 1, so line K holds y = 0 .. r*K // (s - r*d)."""
    r, s = sector.slope.r, sector.slope.s
    for k in itertools.count(start, step):
        top = r * k // (s - r * d)
        for y in range(top, -1, -1) if top_down else range(top + 1):
            yield (k + d * y, y)


def _order_iterator(sector: Sector, order: OrderKind) -> Iterator[Point]:
    slope = sector.slope
    if order in (OrderKind.DIAGONAL, OrderKind.REVERSE_DIAGONAL):
        if not slope.is_infinite:
            raise SectorPackError(f"{order.value} requires the infinite sector")
        return _lines(sector, -1, order.top_down)
    if slope.is_infinite:
        raise SectorPackError(f"{order.value} requires a finite slope")
    if order is OrderKind.RESIDUE_INTERLEAVED:
        # the columns of each class ell of x mod s, interleaved round-robin
        columns = [_lines(sector, 0, False, ell, slope.s) for ell in range(slope.s)]
        return itertools.chain.from_iterable(zip(*columns))
    if order in (OrderKind.BLOCK_BOTTOM_UP, OrderKind.BLOCK_TOP_DOWN):
        if (slope.s - 1) % slope.r:
            raise SectorPackError(f"{order.value} requires a slope r/s with r | s-1, got {slope}")
        return _lines(sector, (slope.s - 1) // slope.r, order.top_down)
    return _lines(sector, 0, order.top_down)  # the columns, on any finite slope


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


# ---------------------------------------------------------------------------
# Packing verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PackingVerdict:
    """Outcome of a prefix check; on failure, the first witness found."""

    ok: bool
    reason: str | None = None  # "non-integer" | "negative" | "collision" | "missing"
    witness: tuple | None = None
    column_bound: int = 0
    points_examined: int = 0

    def describe(self) -> str:
        if self.ok:
            return f"pass ({self.points_examined} points, columns 0..{self.column_bound})"
        return f"fail: {self.reason} at {self.witness}"


def region_target(sector: Sector, prefix: int) -> int:
    """The number of points the examined region is sized to hold at least:
    max(_COVERAGE_MARGIN, 2s) * prefix for slope r/s (see _examined_region)."""
    return max(_COVERAGE_MARGIN, 2 * sector.slope.s) * prefix


@functools.lru_cache(maxsize=16)
def _examined_region(sector: Sector, prefix: int) -> tuple[int, ...]:
    """Top y of each column of the examined region, from column 0: the fewest
    columns (or, for the quadrant, the smallest square) holding at least
    max(_COVERAGE_MARGIN, 2s) * prefix points, for slope r/s.

    Block-enumerating polynomials place preimages of rank < n as far out as
    column s*sqrt(2n/r), about s * prefix points in, so the flat base margin
    alone would miss them for larger denominators (and s alone leaves no
    headroom).

    Memoised per (sector, prefix), as callers verify many candidates on one
    region; the tuple keeps the shared result immutable.
    """
    target = region_target(sector, prefix)
    if sector.slope.is_infinite:
        side = math.isqrt(target - 1) + 1  # smallest side with side^2 >= target
        return (side - 1,) * side
    tops: list[int] = []
    count = 0
    while count < target:
        top = sector.column_height(len(tops))
        tops.append(top)
        count += top + 1
    return tuple(tops)


def _has_triangle(tops: tuple[int, ...]) -> bool:
    """Whether the region with these column tops holds a lattice triangle
    {(a+i, b+j) : i + j <= 2}.

    The tops never decrease, so if any triangle fits, the one with corner
    (len(tops) - 3, 0) does.  A quadratic with integer values on such a
    triangle has integer values on all of Z^2: its coefficients in the
    binomial basis C(x,2), xy, C(y,2), x, y, 1 about the corner are integer
    differences of those six values.
    """
    return len(tops) >= 3 and tops[-3] >= 2


def _integer_valued(forms: list, tops: tuple[int, ...]) -> bool:
    """Whether every value on the region is an integer, with O(1) work per
    branch when its columns hold a lattice triangle.

    Branch ell of a period-p form serves the columns x = ell + p*i, where
    it is a quadratic in (i, y).  If those columns hold a triangle (see
    _has_triangle), it is an integer on them iff it is one on all of Z^2,
    and so iff it is one on the triangle i + y <= 2, the columns i = 0, 1, 2
    with tops 2, 1, 0.  Otherwise (only small regions) every column of the
    class is checked.  A column is a quadratic in y whose numerator is
    a*x^2 + d*x + g at y = 0 and steps up by b*x + c + e + 2*c*y, so its
    values are integers iff den divides the first value, the first step
    (when the column has two points) and the second difference 2*c (when it
    has three).
    """
    period = len(forms)
    for ell, (den, (a, b, c, d, e, g)) in enumerate(forms):
        columns = tops[ell::period]
        if _has_triangle(columns):
            columns = (2, 1, 0)
        for i, top in enumerate(columns):
            x = ell + period * i
            if ((a * x * x + d * x + g) % den or (top and (b * x + c + e) % den)
                    or (top > 1 and 2 * c % den)):
                return False
    return True


@functools.lru_cache(maxsize=16)
def _column_layout(tops: tuple[int, ...], period: int, dtype) -> tuple:
    """What _column_values needs of the region, whatever the candidate:

    - each column's number of points, as the counts of np.repeat;
    - each column's first point index, x^2, x and 1, shape (period, 4, m),
      with column x = ell + period*i at [ell, :, i] (0 past the last column),
      so that the branch of row ell acts on its columns by one matmul;
    - the blocks (x0, x1, start, stop): columns x0..x1-1, which hold the
      points start..stop-1, at most _BLOCK_POINTS of them unless one column
      is longer.

    Memoised, as callers verify many candidates on one region; the arrays
    are read-only, as every call shares them.
    """
    heights = np.array(tops, dtype=np.int64) + 1
    ends = np.cumsum(heights)
    xs = np.arange(len(tops)).astype(dtype)
    width = -(-len(tops) // period) * period  # the columns, rounded up to whole periods
    monomials = np.zeros((4, width), dtype=dtype)
    for row, monomial in zip(monomials, [ends - heights, xs * xs, xs, 1]):
        row[:len(tops)] = monomial
    blocks, x0 = [], 0
    while x0 < len(tops):
        start = int(ends[x0] - heights[x0])
        x1 = max(x0 + 1, int(np.searchsorted(ends, start + _BLOCK_POINTS, "right")))
        blocks.append((x0, x1, start, int(ends[x1 - 1])))
        x0 = x1
    monomials = monomials.reshape(4, -1, period).transpose(2, 0, 1)
    heights.flags.writeable = monomials.flags.writeable = False
    return heights, monomials, tuple(blocks)


def _column_values(forms: list, tops: tuple[int, ...]) -> np.ndarray:
    """The values of the region's points in column order, exact.  Every
    value must be an integer (see _integer_valued).

    The region is evaluated flat, with no rectangle and no mask.  Every
    branch is scaled to L, the lcm of the branch denominators, so that one
    division by the Python int L ends the evaluation.  Each column takes
    c, b*x + e and a*x^2 + d*x + g of its branch once, by one matmul of a
    4x4 matrix per branch with the column monomials of _column_layout, and
    np.repeat spreads them over the column's points.  There Horner's rule
    (c*y + b*x + e)*y + a*x^2 + d*x + g runs on a block of whole columns,
    about _BLOCK_POINTS values at a time, with the ys of the block as its
    point indices less the first index of each point's column.

    Each term of a scaled numerator is at most |its coefficient| * M^2 in
    size, for M the largest x or y of the region (at least 1), and so is
    each monomial and each partial sum, of the matmul and of Horner's rule.
    The values are int32 when that bound, L and the point count (which
    bounds every point index) are all below _INT32_LIMIT, int64 when they
    are below 2^63, and Python ints in an object array otherwise.
    """
    scale = math.lcm(*(den for den, _ in forms))
    table = [[scale // den * k for k in coeffs] for den, coeffs in forms]
    reach = max(len(tops) - 1, tops[-1], 1)
    points = sum(tops) + len(tops)
    size = max(max(sum(map(abs, row)) for row in table), 1)
    worst = max(scale, points, size * reach * reach)
    dtype = np.int32 if worst < _INT32_LIMIT else np.int64 if worst < 2 ** 63 else object
    heights, monomials, blocks = _column_layout(tops, len(forms), dtype)
    # per branch: (first index, x^2, x, 1) -> (first index, c, b*x + e, a*x^2 + d*x + g),
    # the first index carried along so that one np.repeat spreads all four
    maps = np.array([[(1, 0, 0, 0), (0, 0, 0, c), (0, 0, b, e), (0, a, d, g)]
                     for a, b, c, d, e, g in table], dtype=dtype)
    columns = (maps @ monomials).transpose(1, 2, 0).reshape(4, -1)  # back to column order
    values = np.empty(points, dtype=dtype)
    for x0, x1, start, stop in blocks:
        ys, c, linear, constant = np.repeat(columns[:, x0:x1], heights[x0:x1], axis=1)
        np.subtract(np.arange(start, stop, dtype=dtype), ys, out=ys)
        num = values[start:stop]
        np.multiply(c, ys, out=num)
        num += linear
        num *= ys
        num += constant
        num //= scale
    return values


def _walk_points(forms: list, tops: tuple[int, ...],
                 repeated: Optional[set]) -> tuple[str, tuple]:
    """The first failure and its witness, walking the region point by point
    in column order until the first one; the region must hold a failure.
    `repeated` is None, or the values that the sort saw more than once, and
    then only those are recorded on the way."""
    period = len(forms)
    seen: dict[int, Point] = {}
    for x, top in enumerate(tops):
        den, (a, b, c, d, e, g) = forms[x % period]
        for y in range(top + 1):
            num = a * x * x + b * x * y + c * y * y + d * x + e * y + g
            if num % den:
                return "non-integer", (x, y)
            value = num // den
            if value < 0:
                return "negative", (x, y)
            if value in seen:
                return "collision", (seen[value], (x, y))
            if repeated is None or value in repeated:
                seen[value] = (x, y)
    raise AssertionError("the integrality test or the sort failed a region the point walk passes")


def verify_packing(f: PolyLike, sector: Sector, prefix: int) -> PackingVerdict:
    """Check the packing property of f on a prefix of the sector.

    Pass iff on the examined region (see _examined_region): all values are
    nonnegative integers, pairwise distinct, and {0..prefix-1} all occur.
    Integrality is settled per branch by Polya's triangle
    (_integer_valued).  Then one sort of the region's values
    (_column_values) sees the rest: the least value is the first, and an
    equal adjacent pair is a repeat, inside a column or across columns.
    Otherwise the values are distinct nonnegative integers, so
    {0..prefix-1} occurs iff the sorted value at prefix-1 is prefix-1, and
    the first i whose sorted value is not i is the least missing value.
    Any other failure walks the points until the first one, to name its
    witness in column order, holding only the values that the sort saw
    repeat: the first collision in column order is the first point whose
    value was seen before, and only a repeated value can be.
    """
    if prefix < 1:
        raise SectorPackError(f"prefix must be positive, got {prefix}")
    forms = [branch.scaled_integer_form() for branch in f.branches]
    tops = _examined_region(sector, prefix)
    bound, examined = len(tops) - 1, sum(tops) + len(tops)
    repeated = None
    if _integer_valued(forms, tops):
        values = _column_values(forms, tops)
        values.sort()
        equal = values[1:] == values[:-1]
        if values[0] >= 0 and not equal.any():
            if values[prefix - 1] == prefix - 1:
                return PackingVerdict(True, None, None, bound, examined)
            missing = int(np.flatnonzero(values[:prefix] != np.arange(prefix))[0])
            return PackingVerdict(False, "missing", (missing,), bound, examined)
        repeated = set(values[1:][equal].tolist())
        del values, equal  # freed before the walk, which holds its own values
    reason, witness = _walk_points(forms, tops, repeated)
    return PackingVerdict(False, reason, witness, bound, examined)


# ---------------------------------------------------------------------------
# Bounded exhaustive search over packing candidates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchReport:
    """Outcome of an exhaustive coefficient sweep; survivors are prefix-certified only."""

    sector: Sector
    degree: int
    coeff_bound: int
    prefix: int
    survivors: tuple[QuadPoly, ...]
    exhausted: bool

    def to_json(self) -> str:
        return json.dumps({
            "sector": str(self.sector.slope),
            "degree": self.degree,
            "coeff_bound": self.coeff_bound,
            "prefix": self.prefix,
            "survivors": [_quad_to_object(f) for f in self.survivors],
            "exhausted": self.exhausted,
        }, separators=(",", ":"))


_SCREEN_POINTS = 48  # first tier: a cheap screen on the first region points
# bytes of values per batch of the later tiers: a batch stays in cache, and
# below the C allocator's usual 128 KiB mmap threshold it reuses heap pages
# rather than faulting in fresh ones
_SLICE_BYTES = 1 << 17
# bytes of 48-point values per batch of a grid's pairs: few enough batches
# that the per-batch numpy calls stay cheap, and large enough that freeing
# one lifts glibc's dynamic mmap threshold, and the heap trim threshold with
# it, past what verify_packing allocates for a 100,000-point region, which
# then reuses heap pages.  Measured in the benchmark's loop: with 640 or
# 768 KiB, or one buffer per chunk reused by its batches, verify_packing ran
# slower between sweeps.
_GRID_BYTES = 1 << 20
_CHUNK_ROWS = 1 << 17  # candidates per chunk at most, unless a chunk is one shape
_SHAPE_COLUMNS = 5  # k20, k11, k02, k10, k01: the columns a chunk is keyed on and rows hold

# worker payload, installed once per process by _search_init
_WORK: dict = {}


def _search_init(payload: dict) -> None:
    _WORK.update(payload)


def _cosets(bounds: tuple[int, ...], sublattice: bool) -> list[tuple[range, ...]]:
    """The candidate numerator tuples as disjoint boxes, one range per column.

    Columns are (k20, k11, k02, k10, k01, k00), each with |k| <= its even
    bound; a linear sweep pins the first three to 0.  An integer-valued
    quadratic is a*C(x,2) + b*xy + c*C(y,2) + d*x + e*y + g with integers
    a..g (Polya), so on its sublattice k11 and k00 are even, k10 = k20 and
    k01 = k02 (mod 2), and k00 = 2f(0,0) >= 0; the parities of k20 and k02
    pick the coset, and a coset with an empty range is dropped.
    """
    if not sublattice:
        return [tuple(range(-b, b + 1) for b in bounds)]
    even = [range(-b, b + 1, 2) for b in bounds]
    odd = [range(1 - b, b + 1, 2) for b in bounds]
    k00 = range(0, bounds[5] + 1, 2)
    boxes = [(p[0], even[1], q[2], p[3], q[4], k00)
             for p in (even, odd) for q in (even, odd)]
    return [box for box in boxes if all(box)]


def _depth(boxes: list[tuple], start: int) -> int:
    """The least depth from `start` at which every key, the values of the
    boxes' first `depth` columns, holds at most _CHUNK_ROWS candidates;
    _SHAPE_COLUMNS at the latest, where a key is a single shape.  Two boxes
    have equal or disjoint leading columns, so a key's candidates are those
    of the boxes with its leading columns."""
    for depth in range(start, _SHAPE_COLUMNS):
        sizes: dict[tuple, int] = {}
        for box in boxes:
            sizes[box[:depth]] = sizes.get(box[:depth], 0) + math.prod(map(len, box[depth:]))
        if max(sizes.values()) <= _CHUNK_ROWS:
            return depth
    return _SHAPE_COLUMNS


def _chunk_plan(cosets: list[tuple[range, ...]], tops: np.ndarray, bound: int,
                even: bool) -> Iterator[tuple[list[tuple], list[tuple[int, ...]]]]:
    """The chunks of the sweep in k20 order, lazily, each as (boxes, keys).

    Each k20 in turn has its y = 0 row made and tested (_axis_row), and its
    cosets become boxes whose k10 column holds the passing values only, so
    no chunk holds a refused pair (k20, k10) and a k20 with every pair
    refused makes no chunk.  Consecutive k20 values share one chunk while
    their candidates (shapes times their k00 range) fit _CHUNK_ROWS; a k20
    that does not fit alone splits as _depth says, on k11, then k02, k10 and
    k01, with a fixed column as a one-value range.  A chunk's boxes hold the
    five shape columns; the screen solves k00, so no chunk is keyed on it.

    `keys` are the key prefixes (k20, k11, ...) that end with the chunk: its
    k20 values, or the one key that it fixes, plus any refused k20 since the
    previous chunk.  Only the current k20's row and boxes are held.
    """
    group: list[tuple] = []
    keys: list[tuple[int, ...]] = []
    filled = 0  # the group's candidates
    for k20 in range(-bound, bound + 1):
        boxes = [box for box in cosets if k20 in box[0]]
        if not boxes:
            continue
        passing = _axis_row(_k10_term(k20, bound, tops), bound, even)
        k10s = tuple(k10 for k10 in boxes[0][3] if passing[k10 + bound])  # one k10 range per k20
        if not k10s:
            keys.append((k20,))
            continue
        boxes = [(range(k20, k20 + 1),) + box[1:3] + (k10s,) + box[4:] for box in boxes]
        depth = _depth(boxes, 1)
        size = sum(math.prod(map(len, box[1:])) for box in boxes)
        if group and (depth > 1 or filled + size > _CHUNK_ROWS):
            yield group, keys
            group, keys, filled = [], [], 0
        if depth == 1:
            group.extend(box[:_SHAPE_COLUMNS] for box in boxes)
            keys.append((k20,))
            filled += size
            continue
        for head in dict.fromkeys(box[:depth] for box in boxes):
            for key in itertools.product(*head):
                fixed = tuple(range(v, v + 1) for v in key)
                chunk = [fixed + box[depth:_SHAPE_COLUMNS] for box in boxes if box[:depth] == head]
                yield chunk, keys + [key]
                keys = []
    if group:
        yield group, keys


def _chunk_grids(chunk: list[tuple]) -> tuple[list[tuple[int, int]], list[tuple]]:
    """The chunk's pairs (k20, k10), each once, and its grids: one per group
    of its boxes with equal (k11, k02, k01) columns, which on the sublattice
    means one per parity of k02, as (indices of the group's pairs, k11
    column, k02 column, k01 column).  Every box of a chunk has the same k11
    column."""
    pairs: dict[tuple[int, int], int] = {}
    grids: dict[tuple, list[int]] = {}
    for k20s, k11s, k02s, k10s, k01s in chunk:
        index = [pairs.setdefault(pair, len(pairs)) for pair in itertools.product(k20s, k10s)]
        grids.setdefault((k11s, k02s, k01s), []).extend(index)
    return list(pairs), [(index, *columns) for columns, index in grids.items()]


def _region_rows(tops: tuple[int, ...], dtype) -> np.ndarray:
    """The monomials x^2, xy, y^2, x and y at each point of the region, shape
    (5, points), in column order, as verify_packing walks the points."""
    heights = np.array(tops, dtype=np.int64) + 1
    xs = np.repeat(np.arange(len(tops), dtype=dtype), heights)
    ys = (np.arange(len(xs)) - np.repeat(np.cumsum(heights) - heights, heights)).astype(dtype)
    return np.stack([xs * xs, xs * ys, ys * ys, xs, ys])


# The lower bound L_x of a shape's W on each column x of the region, with top
# t, is the sum of three terms, one per table below, with the row of value k
# of a swept column at [k + bound] and one column per region column.  For
# 0 <= y <= t, W(x, y) = k20*x^2 + k10*x + k02*y^2 + (k11*x + k01)*y, and
# k02*y^2 >= min(0, k02)*t^2 and (k11*x + k01)*y >= min(0, k11*x + k01)*t, so
# W(x, y) >= L_x.  Each term is at most 2*bound*M in size, for M the largest
# monomial of the region (x*t is one), so |L_x| <= 5*bound*M is exact in the
# dtype of the region's rows.  The k02 table is made once per sweep, the
# k20*x^2 + k10*x one per chunk for the chunk's pairs (_pair_term), and the
# k01 one per chunk, for the chunk's k11 values.

def _k02_term(bound: int, tops: np.ndarray) -> np.ndarray:
    """min(0, k02)*t^2, shape (2*bound + 1, columns)."""
    ks = np.arange(-bound, bound + 1, dtype=tops.dtype)
    return np.multiply.outer(np.minimum(ks, 0), tops * tops)


def _pair_term(pairs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """k20*x^2 + k10*x at each x of `xs`, one row per pair (k20, k10) of
    `pairs`, shape (pairs, len(xs)): on the region's columns, also W on its
    y = 0 row, which is the first point (x, 0) of each column."""
    return np.multiply.outer(pairs[:, 0], xs * xs) + np.multiply.outer(pairs[:, 1], xs)


def _k10_term(k20: int, bound: int, tops: np.ndarray) -> np.ndarray:
    """The _pair_term of k20 beside each k10 on the region's columns, shape
    (2*bound + 1, columns), with the row of k10 at [k10 + bound]."""
    xs = np.arange(len(tops), dtype=tops.dtype)
    values = np.multiply.outer(np.arange(-bound, bound + 1, dtype=tops.dtype), xs)
    values += k20 * xs * xs
    return values


def _k01_term(k11s: range, bound: int, tops: np.ndarray) -> np.ndarray:
    """min(0, k11*x + k01)*t, shape (len(k11s), 2*bound + 1, columns), with
    the rows of the i-th value of k11s at [i]."""
    xs = np.arange(len(tops), dtype=tops.dtype)
    ks = np.arange(-bound, bound + 1, dtype=tops.dtype)
    slant = np.multiply.outer(np.arange(k11s.start, k11s.stop, k11s.step, dtype=tops.dtype), xs)
    return np.minimum(slant[:, None, :] + ks[:, None], 0) * tops


def _axis_row(term: np.ndarray, bound: int, even: bool) -> np.ndarray:
    """Whether each k10 passes beside k20, at [k10 + bound], what _screen
    tests without a prefix, on the region's y = 0 row: values no lower than
    -bound, even unless `even` says they are known to be, and pairwise
    distinct.  `term` is _k10_term of that k20.

    The row holds the first point (x, 0) of every column, where a shape's W
    is k20*x^2 + k10*x whatever k11, k02 and k01.  The row is part of the
    region, so a pair the row refuses fails the whole-region screen for
    every shape that holds it.
    """
    values = np.sort(term, axis=1)
    row = (values[:, 0] >= -bound) & (values[:, 1:] != values[:, :-1]).all(axis=1)
    if not even:
        row &= (np.bitwise_or.reduce(values, axis=1) & 1) == 0
    return row


def _column_screen(picks: np.ndarray, pair_term: np.ndarray, k11s: range) -> np.ndarray:
    """Exact filter of shapes by the lower bound of W on each column (see
    the tables from _k02_term on): the indices of the rows of `picks`, the
    shapes (k20, k11, k02, k10, k01) with k11 in k11s, each followed by the
    row of its pair in `pair_term` (the chunk's _pair_term), whose columns
    with L_x < 2*prefix hold at least prefix points.  The others fail the
    whole-region screen's coverage count (point 2 of the module docstring)."""
    bound, heights, prefix = _WORK["bound"], _WORK["heights"], _WORK["prefix"]
    width = 2 * bound + 1
    k01_term = _k01_term(k11s, bound, _WORK["tops"]).reshape(-1, len(heights))
    slant = (picks[:, 1] - k11s.start) // k11s.step * width + picks[:, 4] + bound
    k02s, pair_rows = picks[:, 2] + bound, picks[:, 5]
    kept = []
    for s in _slices(len(picks), len(heights), heights.itemsize):
        low = _WORK["k02_term"].take(k02s[s], axis=0) + pair_term.take(pair_rows[s], axis=0)
        low += k01_term.take(slant[s], axis=0)
        # exact: einsum adds integers in their own dtype, with no BLAS
        capacity = np.einsum("ij,j->i", low < 2 * prefix, heights)
        del low  # freed before the next batch, as in _search_chunk
        kept.append(s.start + np.flatnonzero(capacity >= prefix))
    return np.concatenate(kept)


def _screen(values: np.ndarray, even: bool, prefix: int | None) -> np.ndarray:
    """Exact filter of shapes by their values W = 2*f - k00 at the first
    points (one row per shape, 0 at the origin): the indices of the rows for
    which some k00 in the box passes (point 2 of the module docstring).
    `even` says the values are known even, as on the sublattice.  Coverage of
    {0..prefix-1} by distinct nonnegative integers is a count, which runs
    first as it is cheaper than the sort it spares."""
    lo = -values.min(axis=1)  # the least k00 that makes 2*f nonnegative
    keep = lo <= _WORK["bound"]
    if not even:
        keep &= (np.bitwise_or.reduce(values, axis=1) & 1) == 0
    if prefix is not None:
        keep &= (values < (2 * prefix - lo)[:, None]).sum(axis=1) == prefix
    kept = np.flatnonzero(keep)
    if kept.size:
        ordered = values[kept]
        ordered.sort(axis=1)
        kept = kept[(ordered[:, 1:] != ordered[:, :-1]).all(axis=1)]
    return kept


def _tier_values(shapes: np.ndarray) -> np.ndarray:
    """W at every region point of the shapes (k20, k11, k02, k10, k01), one
    row per shape."""
    # exact: einsum multiplies and adds integers in their own dtype, with no BLAS
    return np.einsum("ij,jk->ik", shapes, _WORK["rows"])


def _slices(rows: int, points: int, itemsize: int) -> Iterator[slice]:
    """Batches of rows whose values at `points` points fill about _SLICE_BYTES."""
    step = max(1, _SLICE_BYTES // (points * itemsize))
    return (slice(start, start + step) for start in range(0, rows, step))


def _search_chunk(chunk: list[tuple]) -> list[tuple[int, ...]]:
    """Screen one chunk of the plan (see _chunk_plan); returns surviving
    numerator tuples.

    The chunk's boxes become grids of (pair, k11, k02, k01), the pairs
    (k20, k10) being the ones that passed the y = 0 row (see _chunk_grids).
    On the first 48 points a grid's values are a pair row k20*x^2 + k10*x
    plus the sum of three per-axis terms; they are made in batches of pairs
    of about _GRID_BYTES.  The shapes left carry the row of their pair into
    the column screen, and the whole-region screen multiplies all five
    monomial rows, as k20 varies within a chunk."""
    rows, even = _WORK["rows"], _WORK["even"]
    pairs, grids = _chunk_grids(chunk)
    pairs = np.array(pairs, dtype=rows.dtype)
    first = rows[:, :_SCREEN_POINTS]
    pair_first = _pair_term(pairs, first[3])  # x^2 is x*x, so the x row serves both
    picks = []
    for index, *columns in grids:
        index = np.array(index, dtype=rows.dtype)
        axes = [np.arange(r.start, r.stop, r.step, dtype=rows.dtype) for r in columns]
        terms = [np.multiply.outer(a, row) for a, row in zip(axes, first[[1, 2, 4]])]
        inner = (terms[0][:, None, None] + terms[1][:, None]) + terms[2]
        step = max(1, _GRID_BYTES // inner.nbytes)  # pairs per batch
        for start in range(0, len(index), step):
            batch = index[start:start + step]
            values = pair_first[batch, None, None, None] + inner
            kept = _screen(values.reshape(-1, values.shape[-1]), even, None)
            at, i11, i02, i01 = np.unravel_index(kept, values.shape[:4])
            # freed before the next batch is made, whose pages the allocator
            # then reuses rather than trimming the heap and faulting them in
            del values
            pair = batch[at]
            picks.append(np.column_stack([pairs[pair, 0], axes[0][i11], axes[1][i02],
                                          pairs[pair, 1], axes[2][i01], pair]))
    picks = np.concatenate(picks)
    if len(picks):  # second tier: the lower bound of W on each column
        xs = np.arange(len(_WORK["tops"]), dtype=rows.dtype)
        picks = picks[_column_screen(picks, _pair_term(pairs, xs), chunk[0][1])]
    # whole region: the survivors' values by multiply-add, in batches of bounded size
    shapes = picks[:, :_SHAPE_COLUMNS]
    out: list[tuple[int, ...]] = []
    for s in _slices(len(shapes), rows.shape[1], rows.itemsize):
        values = _tier_values(shapes[s])
        kept = _screen(values, even, _WORK["prefix"])
        lo = -values[kept].min(axis=1)
        del values
        out.extend((*shape, k00) for shape, k00 in zip(shapes[s][kept].tolist(), lo.tolist()))
    return out


def _poly_from_numerators(nums: tuple[int, ...]) -> QuadPoly:
    return QuadPoly(*(Fraction(k, 2) for k in nums))


def _run_search(sector: Sector, degree: int, coeff_bound: int, prefix: int,
                workers: Optional[int],
                progress: Optional[Callable[[int, int], None]]) -> SearchReport:
    if sector.slope.is_infinite:
        raise SectorPackError("search is defined for finite slopes only")
    if coeff_bound < 1:
        raise SectorPackError(f"coefficient bound must be positive, got {coeff_bound}")
    if prefix < 1:
        raise SectorPackError(f"prefix must be positive, got {prefix}")
    if workers is not None and workers < 1:
        raise SectorPackError(f"workers must be positive, got {workers}")

    bound = 2 * coeff_bound  # numerators of the half-integer lattice
    # same region as verify_packing, so the screen is exactly its restriction
    tops = _examined_region(sector, prefix)
    # |2*f| <= 6 * bound * the largest monomial, which the region's last column holds
    reach = max(len(tops) - 1, tops[-1])
    worst = 6 * bound * reach * reach
    if worst >= 2 ** 62:
        raise SectorPackError("search region too large for the integer screen")
    dtype = np.int32 if max(worst, 2 * prefix) < _INT32_LIMIT else np.int64

    bounds = (bound,) * 6 if degree == 2 else (0, 0, 0, bound, bound, bound)
    # a candidate off the integer-valued sublattice is odd somewhere on any
    # lattice triangle, so with one in the region the screen would reject it
    sublattice = _has_triangle(tops)
    cosets = _cosets(bounds, sublattice)
    tops_row = np.array(tops, dtype=dtype)
    payload = {
        "bound": bound,  # the largest k00 of every coset
        "prefix": prefix,
        "even": sublattice,  # every value of a sublattice shape is even
        "rows": _region_rows(tops, dtype),
        "tops": tops_row,
        "heights": tops_row + 1,
        "k02_term": _k02_term(bound, tops_row),
    }
    # progress counts the (k20, k11, ...) keys of the box split at least that
    # far, before any pair is refused, however the plan groups or splits
    ticked = {box[:_depth(cosets, 2)] for box in cosets}
    total = sum(math.prod(map(len, head)) for head in ticked)

    def ticks(key: tuple[int, ...]) -> int:
        return sum(math.prod(map(len, head[len(key):])) for head in ticked
                   if all(v in r for v, r in zip(key, head)))

    plan = _chunk_plan(cosets, tops_row, bound, sublattice)
    leading = list(itertools.islice(plan, workers or os.cpu_count() or 1))
    ending = collections.deque()  # the keys that end with each chunk handed out

    def chunks() -> Iterator[list[tuple]]:
        for chunk, keys in itertools.chain(leading, plan):
            ending.append(keys)
            yield chunk

    def tick(done: int, upto: int) -> int:
        if progress:
            for step in range(done + 1, upto + 1):
                progress(step, total)
        return upto

    def collect(parts: Iterator[list]) -> None:
        done = 0
        for part in parts:
            found.extend(part)
            done = tick(done, done + sum(map(ticks, ending.popleft())))
        tick(done, total)  # refused keys with no chunk after them

    found: list[tuple[int, ...]] = []

    if len(leading) > 1:  # no idle worker processes, and no pool for one chunk
        with multiprocessing.Pool(len(leading), initializer=_search_init,
                                  initargs=(payload,)) as pool:
            collect(pool.imap(_search_chunk, chunks()))
    else:
        _search_init(payload)
        try:
            collect(map(_search_chunk, chunks()))
        finally:
            _WORK.clear()
    del payload  # the region's monomial rows are not needed by the certification below

    # Final certification runs through verify_packing itself, independently of
    # the vectorized screen.
    survivors = []
    for nums in sorted(found):
        candidate = _poly_from_numerators(nums)
        if verify_packing(candidate, sector, prefix).ok:
            survivors.append(candidate)
    return SearchReport(sector, degree, coeff_bound, prefix, tuple(survivors), True)


def search_quadratic(sector: Sector, coeff_bound: int, prefix: int,
                     workers: Optional[int] = None,
                     progress: Optional[Callable[[int, int], None]] = None) -> SearchReport:
    """Sweep all degree <= 2 candidates with half-integer coefficients |c| <= bound.

    Survivors passed integrality, injectivity, and coverage on the examined
    prefix; that certifies prefix behavior only, not the packing property.
    """
    return _run_search(sector, 2, coeff_bound, prefix, workers, progress)


def linear_impossibility_check(sector: Sector, coeff_bound: int, prefix: int,
                               workers: Optional[int] = None,
                               progress: Optional[Callable[[int, int], None]] = None) -> SearchReport:
    """Same pipeline over degree-1 candidates; expected to find no survivors."""
    return _run_search(sector, 1, coeff_bound, prefix, workers, progress)

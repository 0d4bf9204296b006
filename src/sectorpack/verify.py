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
at.  A column at a time decides pass or fail: on column x a branch is a
quadratic in y, so its values are a running sum built by `accumulate`, with
no product per point, and a set of values checks distinctness by its size.
Only a failure walks the points, and only up to the failing column, to name
the first witness in column order.

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
   shape is one candidate.  The screens run on the first 48 region points,
   then on the first 512, then on the whole region, where the coverage
   count runs before the sort that tests distinctness.
3. Values are built from the monomial rows x^2, xy, y^2, x and y of the
   region, computed once per search.  A chunk fixes k20 and k11, whose
   terms make one base row.  The 48-point screen broadcasts over each
   coset's grid of (k02, k10, k01) the products of each column's values
   with its monomial row; the later screens multiply and add the rows of
   the shapes that are left, in batches of about _SLICE_BYTES of values.
   With M the largest monomial on the region, |2f| <= 6*(2*bound)*M, which
   also bounds W and -min W, and the coverage count compares W with
   2*prefix - k00: the rows are int32 when 6*(2*bound)*M and 2*prefix are
   both below 2^31, which keeps all arithmetic exact, and int64 otherwise.

The box is cut into chunks of at most _CHUNK_ROWS candidates (shapes times
their k00 range) unless a chunk is a single shape; chunks are never keyed on
k00.  So a search holds the region's monomial rows, 5 values per point
whatever the bound, and a chunk's grid and batches.  Results are
deterministic regardless of worker count: survivors are re-sorted.
"""

from __future__ import annotations

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


def _scan_columns(forms: list, tops: tuple[int, ...]) -> tuple[int | None, set[int]]:
    """The first column holding a non-integer, negative or repeated value
    (None if there is none), and the values of the columns before it.

    On column x the numerator is a*x^2 + d*x + g at y = 0, and steps up by
    b*x + c + e + 2*c*y from y to y + 1.  So every value of the column is an
    integer iff den divides the first value, the first step (when the column
    has two points) and the second difference 2*c (when it has three).
    """
    period = len(forms)
    seen: set[int] = set()
    for x, top in enumerate(tops):
        den, (a, b, c, d, e, g) = forms[x % period]
        first, rise, step = a * x * x + d * x + g, b * x + c + e, 2 * c
        if first % den or (top >= 1 and rise % den) or (top >= 2 and step % den):
            return x, seen
        first, rise, step = first // den, rise // den, step // den
        rises = range(rise, rise + step * top, step) if step else itertools.repeat(rise, top)
        column = list(itertools.accumulate(rises, initial=first))
        if min(column) < 0:
            return x, seen
        size = len(seen)
        seen.update(column)
        if len(seen) - size < len(column):
            return x, seen
    return None, seen


def _walk_points(forms: list, tops: tuple[int, ...]) -> tuple[str, tuple]:
    """The first failure and its witness, walking the region point by point
    in column order; the region must hold a failure (see _scan_columns)."""
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
            seen[value] = (x, y)
    raise AssertionError("the column scan failed a region the point walk passes")


def verify_packing(f: PolyLike, sector: Sector, prefix: int) -> PackingVerdict:
    """Check the packing property of f on a prefix of the sector.

    Pass iff on the examined region (see _examined_region): all values are
    nonnegative integers, pairwise distinct, and {0..prefix-1} all occur.
    The region is scanned a column at a time (see _scan_columns), which stops
    at the first failing column; the points up to it are then walked to name
    the first witness in column order.  A missing value needs no walk.
    """
    if prefix < 1:
        raise SectorPackError(f"prefix must be positive, got {prefix}")
    forms = [branch.scaled_integer_form() for branch in f.branches]
    tops = _examined_region(sector, prefix)
    bound, examined = len(tops) - 1, sum(tops) + len(tops)
    failing, seen = _scan_columns(forms, tops)
    if failing is not None:
        reason, witness = _walk_points(forms, tops[:failing + 1])
        return PackingVerdict(False, reason, witness, bound, examined)
    if not seen.issuperset(range(prefix)):
        missing = next(v for v in range(prefix) if v not in seen)
        return PackingVerdict(False, "missing", (missing,), bound, examined)
    return PackingVerdict(True, None, None, bound, examined)


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
_MIDDLE_POINTS = 512  # second tier, on the rows that pass the first
_SLICE_BYTES = 1 << 21  # bytes of values per batch of the later tiers, to cap their size
_CHUNK_ROWS = 1 << 17  # candidates per chunk at most, unless a chunk is one shape
_SHAPE_COLUMNS = 5  # k20, k11, k02, k10, k01: the columns a chunk is keyed on and rows hold
_INT32_LIMIT = 2 ** 31  # values below this in magnitude fit the int32 screen

# worker payload, installed once per process by _search_init
_WORK: dict = {}


def _search_init(payload: dict) -> None:
    _WORK.update(payload)


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


def _chunk_plan(cosets: list[tuple[range, ...]]) -> dict[tuple[range, ...], int]:
    """Boxes of leading-column values -> candidates per chunk.

    Each point of a box keys one chunk.  Two cosets have equal or disjoint
    leading ranges, so the boxes are disjoint.  The sweep splits on (k20,
    k11) at least, and on further shape columns while a chunk would exceed
    _CHUNK_ROWS candidates.  k00 is solved by the screen, never swept, so no
    chunk is keyed on it; a chunk holds at most _CHUNK_ROWS shape rows.
    """
    for depth in range(2, _SHAPE_COLUMNS + 1):
        plan: dict[tuple[range, ...], int] = {}
        for box in cosets:
            head = box[:depth]
            plan[head] = plan.get(head, 0) + math.prod(len(r) for r in box[depth:])
        if max(plan.values()) <= _CHUNK_ROWS:  # single shapes at the latest
            break
    return plan


def _chunk_grids(cosets: list[tuple[range, ...]],
                 fixed: tuple[int, ...]) -> list[tuple[range, ...]]:
    """The shape rows (k20, k11, k02, k10, k01) of one chunk as grids, one
    per swept coset (see _cosets) that holds the `fixed` leading columns: a
    range per column, one value for a fixed column and the coset's range for
    the others.  The screen solves k00."""
    return [tuple(range(v, v + 1) for v in fixed) + box[len(fixed):_SHAPE_COLUMNS]
            for box in cosets if all(v in r for v, r in zip(fixed, box))]


def _region_rows(tops: tuple[int, ...], dtype) -> np.ndarray:
    """The monomials x^2, xy, y^2, x and y at each point of the region, shape
    (5, points), in column order, as verify_packing walks the points."""
    heights = np.array(tops, dtype=np.int64) + 1
    xs = np.repeat(np.arange(len(tops), dtype=dtype), heights)
    ys = (np.arange(len(xs)) - np.repeat(np.cumsum(heights) - heights, heights)).astype(dtype)
    return np.stack([xs * xs, xs * ys, ys * ys, xs, ys])


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


def _tier_values(picks: np.ndarray, base: np.ndarray, points: int) -> np.ndarray:
    """W at the first `points` region points of the shapes whose swept
    columns (k02, k10, k01) are `picks`, one row per shape."""
    # exact: einsum multiplies and adds integers in their own dtype, with no BLAS
    values = np.einsum("ij,jk->ik", picks, _WORK["rows"][2:, :points])
    values += base[:points]
    return values


def _slices(rows: int, points: int, itemsize: int) -> Iterator[slice]:
    """Batches of rows whose values at `points` points fill about _SLICE_BYTES."""
    step = max(1, _SLICE_BYTES // (points * itemsize))
    return (slice(start, start + step) for start in range(0, rows, step))


def _search_chunk(fixed: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Screen one chunk of the coefficient lattice; returns surviving numerator tuples."""
    rows, even = _WORK["rows"], _WORK["even"]
    k20, k11 = fixed[:2]
    base = k20 * rows[0] + k11 * rows[1]  # the chunk's x^2 and xy terms at each point
    # first tier: the values of each coset grid are sums of per-axis terms
    first = base[:_SCREEN_POINTS]
    picks = []
    for grid in _chunk_grids(_WORK["cosets"], fixed):
        axes = [np.arange(r.start, r.stop, r.step, dtype=rows.dtype) for r in grid[2:]]
        terms = [np.multiply.outer(a, row[:_SCREEN_POINTS]) for a, row in zip(axes, rows[2:])]
        values = ((terms[0] + first)[:, None, None] + terms[1][:, None]) + terms[2]
        kept = _screen(values.reshape(-1, values.shape[-1]), even, None)
        index = np.unravel_index(kept, values.shape[:3])
        picks.append(np.column_stack([a[i] for a, i in zip(axes, index)]))
    picks = np.concatenate(picks)
    if not picks.size:
        return []
    # later tiers: the survivors' values by multiply-add, in batches of bounded size
    picks = np.concatenate([picks[s][_screen(_tier_values(picks[s], base, _MIDDLE_POINTS),
                                             even, None)]
                            for s in _slices(len(picks), _MIDDLE_POINTS, base.itemsize)])
    points = rows.shape[1]
    out: list[tuple[int, ...]] = []
    for s in _slices(len(picks), points, base.itemsize):
        values = _tier_values(picks[s], base, points)
        kept = _screen(values, even, _WORK["prefix"])
        lo = -values[kept].min(axis=1)
        out.extend((k20, k11, *shape, k00)
                   for shape, k00 in zip(picks[s][kept].tolist(), lo.tolist()))
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
    payload = {
        "cosets": cosets,
        "bound": bound,  # the largest k00 of every coset
        "prefix": prefix,
        "even": sublattice,  # every value of a sublattice shape is even
        "rows": _region_rows(tops, dtype),
    }
    plan = _chunk_plan(cosets)
    total = sum(math.prod(len(r) for r in head) for head in plan)
    chunks = itertools.chain.from_iterable(itertools.product(*head) for head in plan)

    workers = min(workers or os.cpu_count() or 1, total)  # no idle worker processes
    found: list[tuple[int, ...]] = []
    if workers > 1:
        with multiprocessing.Pool(workers, initializer=_search_init,
                                  initargs=(payload,)) as pool:
            for done, part in enumerate(pool.imap(_search_chunk, chunks), 1):
                found.extend(part)
                if progress:
                    progress(done, total)
    else:
        _search_init(payload)
        try:
            for done, fixed in enumerate(chunks, 1):
                found.extend(_search_chunk(fixed))
                if progress:
                    progress(done, total)
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

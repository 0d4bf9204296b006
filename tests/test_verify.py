import ast
import itertools
import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sectorpack import (OrderKind, PackingVerdict, QuadPoly, QuasiPoly, Sector,
                        SectorPackError, Slope, cantor, core, enumerate_sector,
                        linear_impossibility_check, packing, parse_slope,
                        quasi_h, search_quadratic, steep, verify, verify_packing)

from family_zoo import all_families

I1 = Sector(Slope(1, 1))
QUADRANT = Sector(Slope.infinite())


class TestEnumerate:
    def test_examples(self):
        assert enumerate_sector(QUADRANT, OrderKind.DIAGONAL, 4) == \
            [(0, 0), (1, 0), (0, 1), (2, 0)]
        assert enumerate_sector(Sector(Slope(2, 1)), OrderKind.COLUMN_BOTTOM_UP, 5) == \
            [(0, 0), (1, 0), (1, 1), (1, 2), (2, 0)]
        assert enumerate_sector(Sector(Slope(3, 2)), OrderKind.RESIDUE_INTERLEAVED, 6) == \
            [(0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (3, 0)]
        # the slope fixes the parameter: block step (s-1)/r = 3, residue period s = 3
        assert enumerate_sector(Sector(Slope(1, 4)), OrderKind.BLOCK_BOTTOM_UP, 4) == \
            [(0, 0), (1, 0), (4, 1), (2, 0)]
        assert enumerate_sector(Sector(Slope(1, 3)), OrderKind.RESIDUE_INTERLEAVED, 8) == \
            [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (3, 1), (4, 1)]

    def test_reverse_diagonal(self):
        assert enumerate_sector(QUADRANT, OrderKind.REVERSE_DIAGONAL, 4) == \
            [(0, 0), (0, 1), (1, 0), (0, 2)]

    def test_incompatible_orders_rejected(self):
        with pytest.raises(SectorPackError):
            enumerate_sector(I1, OrderKind.DIAGONAL, 5)
        with pytest.raises(SectorPackError):
            enumerate_sector(QUADRANT, OrderKind.COLUMN_BOTTOM_UP, 5)
        for order in (OrderKind.BLOCK_BOTTOM_UP, OrderKind.BLOCK_TOP_DOWN):
            with pytest.raises(SectorPackError, match=r"r \| \(s-1\)\^2, got 3/5"):
                enumerate_sector(Sector(Slope(3, 5)), order, 5)  # 3 does not divide 16
        with pytest.raises(SectorPackError):
            enumerate_sector(QUADRANT, OrderKind.RESIDUE_INTERLEAVED, 5)
        with pytest.raises(SectorPackError):
            enumerate_sector(I1, OrderKind.COLUMN_BOTTOM_UP, 0)

    def test_oracle_self_consistency(self):
        # pairwise-distinct points, all inside the sector, and for block
        # orders a nondecreasing block index
        for family in all_families(6):
            order = family.order
            points = enumerate_sector(family.sector, order, 800)
            assert len(set(points)) == 800
            assert all(family.sector.contains(p) for p in points)
            if order.value.startswith("block"):
                r, s = family.sector.slope.r, family.sector.slope.s
                e, d = r // gcd(r, s - 1), (s - 1) // gcd(r, s - 1)
                indices = [e * x - d * y for x, y in points]
                assert all(a <= b for a, b in zip(indices, indices[1:]))

    def test_block_top_down_order(self):
        assert enumerate_sector(Sector(Slope(2, 3)), OrderKind.BLOCK_TOP_DOWN, 4) == \
            [(0, 0), (3, 2), (2, 1), (1, 0)]


def _walks(slope, order):
    """(e, d, top_down, walks) for an order the slope admits, else None: each walk
    is a _lines call with its first line K and its step."""
    r, s = slope.r, slope.s
    diagonal = order in (OrderKind.DIAGONAL, OrderKind.REVERSE_DIAGONAL)
    if diagonal != slope.is_infinite:
        return None
    if order is OrderKind.RESIDUE_INTERLEAVED:
        return 1, 0, False, [(ell, s) for ell in range(s)]
    if order.value.startswith("block"):
        if (s - 1) ** 2 % r:
            return None
        g = gcd(r, s - 1)
        return r // g, (s - 1) // g, order.top_down, [(0, 1)]
    return 1, (-1 if diagonal else 0), order.top_down, [(0, 1)]


class TestLineWalker:
    SLOPES = ["inf", "1", "3", "2/3", "3/2", "1/4", "3/7", "4/3", "9/4", "9/7"]

    @pytest.mark.parametrize("text", SLOPES)
    @pytest.mark.parametrize("order", list(OrderKind), ids=lambda o: o.value)
    def test_each_line_ends_where_the_sector_does(self, text, order):
        # line K of the walker holds every lattice point of e*x - d*y = K from
        # y = 0 to the last one in the sector: its lowest and highest are in the
        # (convex) sector, and the next lattice point up the line, e rows higher,
        # is not
        sector = Sector(parse_slope(text))
        walks = _walks(sector.slope, order)
        if walks is None:
            with pytest.raises(SectorPackError):
                enumerate_sector(sector, order, 1)
            return
        e, d, top_down, starts = walks
        for start, step in starts:
            lines = itertools.groupby(core._lines(sector, e, d, top_down, start, step),
                                      key=lambda p: e * p[0] - d * p[1])
            for k, (key, line) in zip(range(start, start + 200 * step, step), lines):
                points = list(line)
                ys = [y for _, y in points]
                top = max(ys)
                rows = [y for y in range(top + 1) if (k + d * y) % e == 0]
                assert key == k
                assert ys == (rows[::-1] if top_down else rows)
                assert points[0] in sector and points[-1] in sector
                assert ((k + d * (top + e)) // e, top + e) not in sector, (text, order, k)


class TestVerifyPacking:
    def test_cantor_passes(self):
        verdict = verify_packing(cantor("F").form, QUADRANT, 1000)
        assert verdict.ok
        assert verdict.points_examined >= 4000

    def test_shifted_polynomial_misses_zero(self):
        shifted = steep("F", 1).form + QuadPoly.constant(1)
        verdict = verify_packing(shifted, I1, 100)
        assert not verdict.ok
        assert verdict.reason == "missing"
        assert verdict.witness == (0,)

    def test_degenerate_quadratic_collides(self):
        linear = QuadPoly(c10=1, c01=1)  # x + y with zero quadratic part
        verdict = verify_packing(linear, I1, 100)
        assert not verdict.ok
        assert verdict.reason == "collision"
        p, q = verdict.witness
        assert linear.evaluate(p) == linear.evaluate(q)

    def test_non_integer_value_detected(self):
        verdict = verify_packing(QuadPoly(c10=Fraction(1, 2)), I1, 10)
        assert not verdict.ok
        assert verdict.reason == "non-integer"
        assert verdict.witness == (1, 0)

    def test_negative_value_detected(self):
        verdict = verify_packing(QuadPoly(c10=-1), I1, 10)
        assert not verdict.ok
        assert verdict.reason == "negative"

    def test_all_constructed_families_pass(self):
        for family in all_families(5):
            assert verify_packing(family.form, family.sector, 2000).ok, family.name

    def test_examined_region_covers_preimages_of_prefix(self):
        # the 4x margin is enough: every preimage of a value below `prefix`
        # lies within the examined columns
        for family in all_families(5):
            verdict = verify_packing(family.form, family.sector, 500)
            bound = verdict.column_bound
            for n in range(500):
                p = family.unrank(n)
                assert p[0] <= bound, (family.name, n, p, bound)

    def test_bad_prefix_rejected(self):
        with pytest.raises(SectorPackError):
            verify_packing(cantor("F").form, QUADRANT, 0)


def _walk_verdict(f, sector, prefix):
    """Reference: the verdict of a plain walk over every point of the region."""
    forms = [branch.scaled_integer_form() for branch in f.branches]
    tops = verify._examined_region(sector, prefix)
    bound, examined = len(tops) - 1, sum(tops) + len(tops)
    seen = {}

    def fail(reason, witness):
        return PackingVerdict(False, reason, witness, bound, examined)

    for x, top in enumerate(tops):
        den, (a, b, c, d, e, g) = forms[x % f.period]
        for y in range(top + 1):
            num = a * x * x + b * x * y + c * y * y + d * x + e * y + g
            if num % den:
                return fail("non-integer", (x, y))
            value = num // den
            if value < 0:
                return fail("negative", (x, y))
            if value in seen:
                return fail("collision", (seen[value], (x, y)))
            seen[value] = (x, y)
    for value in range(prefix):
        if value not in seen:
            return fail("missing", (value,))
    return PackingVerdict(True, None, None, bound, examined)


@st.composite
def _quadratics(draw):
    """An integer-valued quadratic (integers in Polya's basis C(x,2), xy,
    C(y,2), x, y, 1), so that most draws get past the first columns, plus
    numerators over a denominator of 1 to 4, mostly 0."""
    a, b, c, d, e, g = draw(st.lists(st.integers(-2, 3), min_size=6, max_size=6))
    den = draw(st.integers(1, 4))
    nums = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=6, max_size=6))
    return (QuadPoly(Fraction(a, 2), b, Fraction(c, 2), d - Fraction(a, 2), e - Fraction(c, 2), g)
            + QuadPoly(*(Fraction(k, den) for k in nums)))


_CANDIDATES = st.one_of(
    _quadratics(),
    st.integers(2, 3).flatmap(lambda m: st.lists(_quadratics(), min_size=m, max_size=m)
                              .map(lambda branches: QuasiPoly(m, branches))))
# slope 1/5 at small prefixes has columns with tops 0 and 1
_SLOPES = st.sampled_from([Slope.infinite(), Slope(1, 1), Slope(1, 5), Slope(3, 2), Slope(3, 5)])
_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)
# (candidate, slope, prefix) cases that TestColumnScan always runs
_SCAN_EXAMPLES = [
    # on slope 1, den does not divide a column's first value, its first step
    # or its second difference, and the values on Polya's triangle show each;
    # the least value is -1, the first of the sorted values
    (QuadPoly(_HALF, 0, 0, _HALF, 1, _HALF), Slope(1, 1), 20),
    (QuadPoly(_HALF, 0, 0, _HALF, 3 * _HALF, 0), Slope(1, 1), 20),
    (QuadPoly(_HALF, 0, _QUARTER, _HALF, 3 * _QUARTER, 0), Slope(1, 1), 20),
    (QuadPoly(_HALF, 0, 0, _HALF, 1, -1), Slope(1, 1), 20),
    # the values of 20x + 3y/2 rounded down would be distinct, so only the
    # first step shows the half at (1, 1)
    (QuadPoly(c10=20, c01=3 * _HALF), Slope(1, 1), 20),
    # the region of slope 3 at prefix 1 is (0, 0) and column 1, y = 0..3, which
    # holds no triangle; there y^2 - 2y + 1 repeats at y = 0 and 2, x + 5 is 6
    # all along, and 2y^2 - 7y + 5 is 5, 0, -1, 2: each fails inside the
    # column, and the sort sees the repeats and the least value
    (QuadPoly(c02=1, c01=-2, c10=-1, c00=2), Slope(3, 1), 1),
    (QuadPoly(c10=1, c00=5), Slope(3, 1), 1),
    (QuadPoly(c02=2, c01=-7, c10=2, c00=3), Slope(3, 1), 1),
    # repeats across columns: x + y at (1, 1) and (2, 0), and -x^2 + 400x + y
    # at (133, 133) and (134, 0), late in the region
    (QuadPoly(c10=1, c01=1), Slope(1, 1), 20),
    (QuadPoly(c20=-1, c10=400, c01=1), Slope(1, 1), 5000),
    # integer-valued on a region with no triangle, not on Z^2: on slope 1/5 at
    # prefix 1 the tops are 0, 0, 0, 0, 0, 1, 1, 1, where y(y - 1)/4 is 0, and
    # it passes; at prefix 2 the region reaches y = 2, still with no
    # triangle, and the value at (10, 2) is 45/2; with 3x the values rounded
    # down would be distinct, so only the second difference shows it
    (QuadPoly(c02=_QUARTER, c10=2, c01=3 * _QUARTER), Slope(1, 5), 1),
    (QuadPoly(c02=_QUARTER, c10=2, c01=3 * _QUARTER), Slope(1, 5), 2),
    (QuadPoly(c02=_QUARTER, c10=3, c01=3 * _QUARTER), Slope(1, 5), 2),
    # slope 3 at prefix 20 examines columns 0..7: class 1 mod 3 holds a
    # triangle, class 2 (columns 2 and 5) does not, and its branch adds
    # (x - 2)(x - 5)/36, 0 on them and 1/2 at x = 8; no value is 1
    (QuasiPoly(3, [QuadPoly(c10=100, c01=1)] * 2
               + [QuadPoly(Fraction(1, 36), 0, 0, 100 - Fraction(7, 36), 1, Fraction(5, 18))]),
     Slope(3, 1), 20),
]


def _with_scan_examples(test):
    for args in _SCAN_EXAMPLES:
        test = example(*args)(test)
    return test


class TestColumnScan:
    @given(_CANDIDATES, _SLOPES, st.integers(1, 60))
    @_with_scan_examples
    def test_matches_point_walk(self, f, slope, prefix):
        sector = Sector(slope)
        assert verify_packing(f, sector, prefix) == _walk_verdict(f, sector, prefix)

    def test_the_values_are_made_at_most_once_per_call(self, monkeypatch):
        # the sort sees every repeat and the walk names it, with no second pass
        column_values = verify._column_values
        calls = []

        def spy(forms, tops):
            calls.append(tops)
            return column_values(forms, tops)

        monkeypatch.setattr(verify, "_column_values", spy)
        sorted_repeats = 0
        for f, slope, prefix in _SCAN_EXAMPLES:
            calls.clear()
            verdict = verify_packing(f, Sector(slope), prefix)
            assert len(calls) <= 1, (f, slope, prefix)
            sorted_repeats += bool(calls) and verdict.reason == "collision"
        assert sorted_repeats == 4

    @staticmethod
    def _thirds():
        """steep("F", 1) plus branches integer-valued on their own columns only,
        x = 1 mod 3 and x = 2 mod 3, over the denominators 2, 6 and 3."""
        f = steep("F", 1).form
        return QuasiPoly(3, [f, f + QuadPoly(c10=Fraction(1, 3), c00=Fraction(-1, 3)),
                             f + QuadPoly(c20=Fraction(1, 6), c10=Fraction(-7, 6),
                                          c00=Fraction(5, 3))])

    def test_branches_with_different_denominators(self):
        third = self._thirds()
        assert [b.scaled_integer_form()[0] for b in third.branches] == [2, 6, 3]
        verdicts = []
        for shift in (0, 1, _HALF):
            g = QuasiPoly(3, [b + QuadPoly.constant(shift) for b in third.branches])
            for prefix in (1, 7, 60):
                verdicts.append(verify_packing(g, I1, prefix))
                assert verdicts[-1] == _walk_verdict(g, I1, prefix), (shift, prefix)
        assert {v.reason for v in verdicts} == {None, "collision", "missing", "non-integer"}

    def test_int64_and_object_values_agree_with_the_walk(self, monkeypatch):
        # numerators near 2^63 on the region: the values are int64 only under
        # the bound, Python ints past it, and exact either way
        column_values = verify._column_values
        dtypes = set()

        def spy(forms, tops):
            values = column_values(forms, tops)
            dtypes.add(values.dtype)
            exact = [(a * x * x + b * x * y + c * y * y + d * x + e * y + g) // den
                     for x, top in enumerate(tops) for y in range(top + 1)
                     for den, (a, b, c, d, e, g) in [forms[x % len(forms)]]]
            assert values.tolist() == exact
            return values

        monkeypatch.setattr(verify, "_column_values", spy)
        f = steep("F", 1).form
        for k in (2 ** 62 - 1, 2 ** 63 - 5, 2 ** 63, 2 ** 64):
            candidates = [f + QuadPoly.constant(k), f.scale(k // 64),
                          f.scale(k // 1024) + QuadPoly.constant(k // 2),
                          QuadPoly(c10=k // 64, c01=k // 64),
                          QuasiPoly(2, [f.scale(k // 256), f.scale(k // 128)])]
            for candidate in candidates:
                for prefix in (1, 7, 60):
                    assert verify_packing(candidate, I1, prefix) == \
                        _walk_verdict(candidate, I1, prefix), (k, candidate, prefix)
        assert dtypes == {np.dtype(np.int64), np.dtype(object)}

    def test_a_long_period_is_bounded_monomial_by_monomial(self, monkeypatch):
        # the constant numerators of quasi_h(1, 40000) grow like ell^2; times
        # M^2 = 59999^2 as well, they would pass 2^63 and put the values in
        # Python ints, but each monomial's own bound keeps them on int64
        column_layout = verify._column_layout
        dtypes = []

        def spy(tops, period, dtype):
            dtypes.append(dtype)
            return column_layout(tops, period, dtype)

        monkeypatch.setattr(verify, "_column_layout", spy)
        family = quasi_h(1, 40000)
        verdict = verify_packing(family.form, family.sector, 1)
        assert verdict == PackingVerdict(True, None, None, 59999, 80000)
        assert dtypes == [np.int64]

    def test_int32_and_int64_values_agree_with_the_walk(self, monkeypatch):
        # as above, near 2^31: the values are int32 only under the bound, int64
        # past it; and branches over 2, 6 and 3 share the one divisor 6
        column_values = verify._column_values
        dtypes, scales = set(), set()

        def spy(forms, tops):
            values = column_values(forms, tops)
            dtypes.add(values.dtype)
            scales.add(lcm(*(den for den, _ in forms)))
            exact = [(a * x * x + b * x * y + c * y * y + d * x + e * y + g) // den
                     for x, top in enumerate(tops) for y in range(top + 1)
                     for den, (a, b, c, d, e, g) in [forms[x % len(forms)]]]
            assert values.tolist() == exact
            return values

        monkeypatch.setattr(verify, "_column_values", spy)
        f = steep("F", 1).form
        for k in (2 ** 30 - 1, 2 ** 31 - 5, 2 ** 31, 2 ** 32):
            candidates = [f + QuadPoly.constant(k), f.scale(k // 64),
                          f.scale(k // 1024) + QuadPoly.constant(k // 2),
                          QuadPoly(c10=k // 64, c01=k // 64),
                          QuasiPoly(2, [f.scale(k // 256), f.scale(k // 128)])]
            for candidate in candidates:
                for prefix in (1, 7, 60):
                    assert verify_packing(candidate, I1, prefix) == \
                        _walk_verdict(candidate, I1, prefix), (k, candidate, prefix)
        assert dtypes == {np.dtype(np.int32), np.dtype(np.int64)}
        third = self._thirds()
        scales.clear()
        for prefix in (1, 7, 60):
            assert verify_packing(third, I1, prefix) == _walk_verdict(third, I1, prefix)
        assert scales == {6}

    def test_a_period_longer_than_the_region(self):
        # quasi:9/10 at prefix 1 examines 7 columns for period 10, so three
        # branches serve no column and no branch serves two
        family = quasi_h(9, 10)
        tops = verify._examined_region(family.sector, 1)
        assert (len(tops), family.form.period) == (7, 10)
        verdict = verify_packing(family.form, family.sector, 1)
        assert verdict.describe() == "pass (22 points, columns 0..6)"
        for shift in (1, _HALF):
            f = QuasiPoly(10, [b + QuadPoly.constant(shift) for b in family.form.branches])
            assert verify_packing(f, family.sector, 1) == _walk_verdict(f, family.sector, 1), shift

    def test_matches_point_walk_on_shifted_families(self):
        # near-packings: each verdict kind but "collision" shows here
        for family in all_families(5):
            for shift in (0, 1, -1, _HALF):
                f = family.form
                f = QuasiPoly(f.period, [b + QuadPoly.constant(shift) for b in f.branches])
                for prefix in (1, 7, 60):
                    assert verify_packing(f, family.sector, prefix) == \
                        _walk_verdict(f, family.sector, prefix), (family.name, shift, prefix)


def _bounds(degree, bound):
    """Even numerator bounds per column: a linear sweep pins k20, k11, k02 to 0."""
    return (bound,) * 6 if degree == 2 else (0, 0, 0, bound, bound, bound)


def _plan(sector, bound, prefix, degree):
    """The cosets of a sweep, and its chunk plan as a list of (boxes, keys)."""
    tops = verify._examined_region(sector, prefix)
    even, b = verify._has_triangle(tops), 2 * bound
    cosets = verify._cosets(_bounds(degree, b), even)
    return cosets, list(verify._chunk_plan(cosets, np.array(tops, np.int64), b, even))


def _in_process_pool(started):
    """A stand-in for multiprocessing.Pool that records its process count in
    `started` and maps in this process."""

    class InProcessPool:
        def __init__(self, processes, initializer, initargs):
            started.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            verify._WORK.clear()

        def imap(self, func, items):
            return map(func, items)

    return InProcessPool


class TestSearch:
    def test_small_search_isolates_the_two_packings(self):
        report = search_quadratic(I1, 2, 300)
        assert report.exhausted
        assert report.survivors == (steep("F", 1).form, steep("G", 1).form)

    def test_deterministic_across_worker_counts(self):
        serial = search_quadratic(I1, 1, 120, workers=1)
        pooled = search_quadratic(I1, 1, 120, workers=2)
        assert serial == pooled

    def test_starts_no_more_workers_than_chunks(self, monkeypatch):
        started = []
        monkeypatch.setattr(verify.multiprocessing, "Pool", _in_process_pool(started))
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 64)  # CPUs are not the cap here
        # a cap that splits the plan into chunks, one of them keyed on (k20, k11)
        monkeypatch.setattr(verify, "_CHUNK_ROWS", 100)
        serial = search_quadratic(I1, 1, 120, workers=1)
        totals = []
        pooled = search_quadratic(I1, 1, 120, workers=64,
                                  progress=lambda done, total: totals.append(total))
        assert pooled == serial
        # a work unit is a chunk of the plan, and progress counts (k20, k11) keys,
        # refused ones included
        units = len(_plan(I1, 1, 120, 2)[1])
        assert started == [min(64, units)] and 1 < units < totals[-1] < 64
        linear_impossibility_check(I1, 1, 120, workers=64)  # one chunk: no pool
        assert started == [units]

    def test_starts_no_more_workers_than_cpus(self, monkeypatch):
        started = []
        monkeypatch.setattr(verify.multiprocessing, "Pool", _in_process_pool(started))
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(verify, "_CHUNK_ROWS", 100)  # more chunks than CPUs, as above
        serial = search_quadratic(I1, 1, 120, workers=1)
        assert search_quadratic(I1, 1, 120, workers=1000) == serial
        assert search_quadratic(I1, 1, 120) == serial  # the default is one per CPU
        assert started == [2, 2] and len(_plan(I1, 1, 120, 2)[1]) > 2

    def test_a_sweep_with_every_pair_refused_runs_no_chunk(self, monkeypatch):
        started = []
        monkeypatch.setattr(verify.multiprocessing, "Pool", _in_process_pool(started))
        monkeypatch.setattr(verify, "_axis_row", lambda k20, k10s, xs, bound, even: ())
        monkeypatch.setattr(verify, "_search_chunk", None)  # a chunk would raise
        for sweep in (search_quadratic, linear_impossibility_check):
            seen = []
            report = sweep(Sector(parse_slope("1/3")), 3, 1000, workers=64,
                           progress=lambda done, total: seen.append((done, total)))
            total = 91 if sweep is search_quadratic else 1
            assert seen == [(done, total) for done in range(1, total + 1)]
            assert report.exhausted and report.survivors == ()
        assert started == []

    def test_progress_callback(self):
        seen = []
        search_quadratic(I1, 1, 50, progress=lambda done, total: seen.append((done, total)))
        assert seen and seen[-1][0] == seen[-1][1]

    def test_linear_has_no_survivors(self):
        report = linear_impossibility_check(I1, 3, 200)
        assert report.degree == 1
        assert report.survivors == ()

    def test_rejects_infinite_sector(self):
        with pytest.raises(SectorPackError):
            search_quadratic(QUADRANT, 2, 100)

    def test_rejects_bad_parameters(self):
        with pytest.raises(SectorPackError):
            search_quadratic(I1, 0, 100)
        with pytest.raises(SectorPackError):
            linear_impossibility_check(I1, 2, 0)
        with pytest.raises(SectorPackError, match="workers must be positive, got 0"):
            search_quadratic(I1, 1, 50, workers=0)
        # prefix 1 on slope 1 examines 3 columns, where a k02 table of bound
        # 10**8 would hold (4*10**8 + 1) * 3 values; bound 2000 holds 24,003
        for sweep in (search_quadratic, linear_impossibility_check):
            with pytest.raises(SectorPackError, match="coefficient bound too large"):
                sweep(I1, 10 ** 8, 1)

    def test_refuses_a_region_past_the_exact_screen(self):
        # column 1 of slope 10**10 reaches y = 10**10, where 6 * 2 * reach^2
        # passes 2**62, so int64 would not hold the values exactly
        with pytest.raises(SectorPackError, match="search region too large for the integer screen"):
            search_quadratic(Sector(Slope(10 ** 10, 1)), 1, 1)

    def test_report_json_shape(self):
        report = linear_impossibility_check(Sector(Slope(3, 2)), 2, 100)
        obj = json.loads(report.to_json())
        assert obj == {"sector": "3/2", "degree": 1, "coeff_bound": 2,
                       "prefix": 100, "survivors": [], "exhausted": True}

    # the bound-2 box, past the reach of TestSearchOracle's plain loop; at
    # this bound slope 1/2 keeps only one of its pair (the other has y: -5/2)
    @pytest.mark.parametrize("slope, survivors", [
        ("1", ["1/2*x^2 + 1/2*x + y", "1/2*x^2 + 3/2*x - y"]),
        ("1/2", ["1/2*x^2 - x*y + 1/2*y^2 + 1/2*x + 1/2*y"]),
        ("1/3", ["1/2*x^2 - 2*x*y + 2*y^2 + 1/2*x"]),
        ("2", ["x^2 + y", "x^2 + 2*x - y"]),
        ("3/2", []),
        ("2/5", []),
    ])
    def test_bound_2_survivors(self, slope, survivors):
        report = search_quadratic(Sector(parse_slope(slope)), 2, 50, workers=1)
        assert report.exhausted
        assert [str(f) for f in report.survivors] == survivors

    def test_survivors_serialize_canonically(self):
        report = search_quadratic(I1, 2, 300)
        obj = json.loads(report.to_json())
        assert obj["survivors"] == [{"x2": "1/2", "x": "1/2", "y": "1"},
                                    {"x2": "1/2", "x": "3/2", "y": "-1"}]


class TestSearchOracle:
    """The funnel against verify_packing run on every candidate of the bound-1 box."""

    @pytest.fixture(scope="class")
    def box(self):
        return [(nums, QuadPoly(*(Fraction(k, 2) for k in nums)))
                for nums in itertools.product(range(-2, 3), repeat=6)]

    # prefix 1 on slopes 1/2, 2 and 5 examines no lattice triangle, so the
    # sweep must fall back from the integer-valued sublattice to the full box
    @pytest.mark.parametrize("slope", ["1", "1/2", "2", "5", "3/2", "1/3"])
    def test_survivors_match_plain_loop(self, box, slope):
        sector = Sector(parse_slope(slope))
        for prefix in (1, 2, 5, 20):
            passing = [(nums, f) for nums, f in box if verify_packing(f, sector, prefix).ok]
            quadratic = search_quadratic(sector, 1, prefix, workers=1)
            assert quadratic.exhausted
            assert quadratic.survivors == tuple(f for _, f in passing), (slope, prefix)
            linear = linear_impossibility_check(sector, 1, prefix, workers=1)
            assert linear.survivors == tuple(f for nums, f in passing if not any(nums[:3])), \
                (slope, prefix)


# the TestSearchOracle boxes, and the two sweeps the benchmark times
_SCREEN_CASES = [(slope, 1, prefix) for slope in ("1", "1/2", "2", "5", "3/2", "1/3")
                 for prefix in (1, 2, 5, 20)] + [("1/3", 3, 1000), ("1", 2, 1000)]


def _screen_reports(monkeypatch):
    """Every report of the cases, the dtypes the screens saw, and per sweep
    (slope, bound, prefix) the shapes that the column screen dropped."""
    dtypes, dropped = set(), {}
    screen, column_screen = verify._screen, verify._column_screen

    def spy(values, even, prefix):
        dtypes.add(values.dtype)
        return screen(values, even, prefix)

    def column_spy(picks, pair_term, k11s):
        dtypes.add(picks.dtype)
        kept = column_screen(picks, pair_term, k11s)
        shapes = np.delete(picks, kept, 0)[:, :verify._SHAPE_COLUMNS]
        dropped[case].extend(map(tuple, shapes.tolist()))
        return kept

    monkeypatch.setattr(verify, "_screen", spy)
    monkeypatch.setattr(verify, "_column_screen", column_spy)
    reports = []
    for case in _SCREEN_CASES:
        dropped.setdefault(case, [])
        slope, bound, prefix = case
        for sweep in (search_quadratic, linear_impossibility_check):
            reports.append(sweep(Sector(parse_slope(slope)), bound, prefix, workers=1))
    return reports, dtypes, dropped


def _assert_fail_the_whole_region(dropped):
    """Each shape fails the whole-region screen, computed on every region
    point: no k00 in the box makes its values nonnegative, distinct and
    cover {0..prefix-1}.  Parity is not asked, so the test is no weaker."""
    for (slope, bound, prefix), shapes in dropped.items():
        tops = verify._examined_region(Sector(parse_slope(slope)), prefix)
        points = np.array([(x, y) for x, top in enumerate(tops) for y in range(top + 1)])
        xs, ys = points.T.astype(np.int64)
        monomials = np.stack([xs * xs, xs * ys, ys * ys, xs, ys])
        for start in range(0, len(shapes), 256):
            values = np.array(shapes[start:start + 256], dtype=np.int64) @ monomials
            lo = -values.min(axis=1)  # the only k00 that can cover 0, as W(0, 0) = 0
            covered = (values < (2 * prefix - lo)[:, None]).sum(axis=1) == prefix
            for row in values[(lo <= 2 * bound) & covered]:
                assert len(np.unique(row)) < len(row), (slope, bound, prefix)


def _count_tiers(monkeypatch):
    """A Counter of the shapes into and out of each screen tier, keyed
    (tier, "in") and (tier, "out"), filled by spies on the screens."""
    counts = Counter()
    screen, column_screen = verify._screen, verify._column_screen

    def count(tier, rows, kept):
        counts[tier, "in"] += len(rows)
        counts[tier, "out"] += len(kept)
        return kept

    monkeypatch.setattr(verify, "_screen", lambda values, even, prefix: count(
        "48" if prefix is None else "whole", values, screen(values, even, prefix)))
    monkeypatch.setattr(verify, "_column_screen", lambda picks, *tables: count(
        "column", picks, column_screen(picks, *tables)))
    return counts


class TestScreenVariants:
    """The int64 screen, one-row batches and one-pair grid batches give the
    reports of the default screen, and under each the column screen drops
    only failing shapes."""

    @pytest.fixture(scope="class")
    def default(self):
        with pytest.MonkeyPatch.context() as patch:
            return _screen_reports(patch)

    def test_default_screen(self, default):
        _, dtypes, dropped = default
        assert dtypes == {np.dtype(np.int32)}  # every case fits the int32 bound
        assert len(dropped[("1/3", 3, 1000)]) == 8202 - 66
        _assert_fail_the_whole_region(dropped)

    @pytest.mark.parametrize("name, value, dtype", [("_INT32_LIMIT", 0, np.int64),
                                                    ("_SLICE_BYTES", 1, np.int32),
                                                    ("_GRID_BYTES", 1, np.int32)])
    def test_same_reports(self, monkeypatch, default, name, value, dtype):
        monkeypatch.setattr(verify, name, value)
        reports, dtypes, dropped = _screen_reports(monkeypatch)
        assert dtypes == {np.dtype(dtype)}
        assert reports == default[0]
        assert dropped == default[2]
        _assert_fail_the_whole_region(dropped)


def _axis_term(k20, bound, tops, dtype):
    """W on the region's y = 0 row for k20 beside every k10 of the box, as
    _axis_row makes it for a coset's k10 range: the row of k10 at [k10 + bound]."""
    return verify._pair_term(k20, np.arange(-bound, bound + 1, dtype=dtype)[:, None],
                             np.arange(len(tops), dtype=dtype))


class TestAxisScreen:
    """The (k20, k10) test on the region's y = 0 row, which the chunk plan runs first."""

    @staticmethod
    def _reports(monkeypatch, cases):
        """The reports of both sweeps of the cases, with the row and with
        every pair passing it."""
        runs = []
        for passing in (False, True):
            with monkeypatch.context() as patch:
                if passing:
                    patch.setattr(verify, "_axis_row",
                                  lambda k20, k10s, xs, bound, even: tuple(k10s))
                runs.append([sweep(Sector(parse_slope(slope)), bound, prefix, workers=1)
                             for slope, bound, prefix in cases
                             for sweep in (search_quadratic, linear_impossibility_check)])
        return runs

    def test_chunks_find_what_they_found_without_it(self, monkeypatch):
        screened, whole = self._reports(monkeypatch, _SCREEN_CASES)
        assert screened == whole
        assert any(report.survivors for report in screened)

    def test_chunks_keyed_on_k10_find_what_they_found_without_it(self, monkeypatch):
        monkeypatch.setattr(verify, "_CHUNK_ROWS", 1)
        # bound 1 only, and both the full box (prefix 1) and the sublattice
        cases = [case for case in _SCREEN_CASES if case[1] == 1 and case[2] in (1, 20)]
        for slope, bound, prefix in cases:
            for degree in (1, 2):
                _, plan = _plan(Sector(parse_slope(slope)), bound, prefix, degree)
                assert {len(key) for _, keys in plan for key in keys} <= {1, 5}
                assert all(len(keys[-1]) == 5 for _, keys in plan)
        screened, whole = self._reports(monkeypatch, cases)
        assert screened == whole
        assert any(report.survivors for report in screened)

    def test_refused_pairs_have_a_witness_on_the_row(self):
        for slope, bound, prefix in _SCREEN_CASES:
            tops = verify._examined_region(Sector(parse_slope(slope)), prefix)
            even, b = verify._has_triangle(tops), 2 * bound
            for k20 in range(-b, b + 1):
                passing, wide = (verify._passing_rows(_axis_term(k20, b, tops, dtype), b, even)
                                 for dtype in (np.int32, np.int64))
                assert (wide == passing).all()
                for k10 in range(-b, b + 1):
                    row = [k20 * x * x + k10 * x for x in range(len(tops))]
                    witness = (len(set(row)) < len(row) or min(row) < -b
                               or (not even and any(value % 2 for value in row)))
                    assert passing[k10 + b] == (not witness), (slope, prefix, k20, k10)

    def test_no_chunk_holds_a_refused_pair(self):
        for slope, bound, prefix in _SCREEN_CASES:
            sector = Sector(parse_slope(slope))
            tops = verify._examined_region(sector, prefix)
            even, b = verify._has_triangle(tops), 2 * bound
            for degree in (1, 2):
                _, plan = _plan(sector, bound, prefix, degree)
                for boxes, _ in plan:
                    assert boxes
                    for box in boxes:
                        [k20] = box[0]
                        passing = verify._passing_rows(_axis_term(k20, b, tops, np.int64), b,
                                                       even)
                        assert box[3] and all(passing[k10 + b] for k10 in box[3]), (slope, k20)
        # the bench sweeps: every k20 < 0 is refused, and the rest fit one chunk
        for slope, bound in (("1/3", 3), ("1", 2)):
            [(boxes, keys)] = _plan(Sector(parse_slope(slope)), bound, 1000, 2)[1]
            assert keys == [(k20,) for k20 in range(-2 * bound, 2 * bound + 1)], slope
            assert {box[0][0] for box in boxes} == set(range(2 * bound + 1)), slope

    def test_a_wide_box_starts_in_small_memory(self):
        # the plan makes the axis row of a k20 when it reaches that k20, so
        # the first chunk of bound 2000 (8,001 numerators a side) starts in
        # O(bound * columns) memory; a whole table would be 61 MiB.  Most of
        # the peak is the chunk keys' ranges, held as tuples by itertools.product.
        class Stop(Exception):
            pass

        def stop(done, total):
            raise Stop

        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                search_quadratic(I1, 2000, 1, workers=1, progress=stop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_progress_totals_of_the_bench_sweeps(self):
        for slope, bound, chunks in (("1/3", 3, 91), ("1", 2, 45)):
            seen = []
            search_quadratic(Sector(parse_slope(slope)), bound, 1000, workers=1,
                             progress=lambda done, total: seen.append((done, total)))
            assert seen == [(done, chunks) for done in range(1, chunks + 1)], slope


# a numerator bound and a shape (k20, k11, k02, k10, k01) within it
_BOUNDED_SHAPES = st.integers(1, 6).flatmap(lambda bound: st.tuples(
    st.just(bound), st.lists(st.integers(-bound, bound), min_size=5, max_size=5)))


class TestColumnScreen:
    """The lower bound of W on each column, which _search_chunk screens by
    after the 48-point screen."""

    # k02 < 0, k02 > 0, k11*x + k01 < 0 on some columns and > 0 on others
    @given(st.sampled_from([Slope(1, 1), Slope(1, 3), Slope(2, 1), Slope(3, 2), Slope(2, 5)]),
           st.integers(1, 40), _BOUNDED_SHAPES)
    @example(Slope(1, 3), 20, (6, [0, 0, 4, 0, 0]))
    @example(Slope(1, 3), 20, (6, [0, 0, -4, 0, 0]))
    @example(Slope(1, 3), 20, (6, [0, 0, 0, 0, 4]))
    @example(Slope(1, 3), 20, (6, [0, -4, 0, 0, 3]))
    def test_is_a_lower_bound_of_each_column(self, slope, prefix, bounded):
        bound, (k20, k11, k02, k10, k01) = bounded
        tops = verify._examined_region(Sector(slope), prefix)
        k11s = range(-bound, bound + 1)
        for dtype in (np.int32, np.int64):
            row = np.array(tops, dtype=dtype)
            # k20 as a column beside k10s, as _search_chunk gives its pairs
            pair = verify._pair_term(np.array([[k20]], dtype), np.array([[k10]], dtype),
                                     np.arange(len(tops), dtype=dtype))
            low = (verify._k02_term(bound, row)[k02 + bound] + pair[0]
                   + verify._k01_term(k11s, bound, row)[k11s.index(k11), k01 + bound])
            for x, top in enumerate(tops):
                least = min(k20 * x * x + k11 * x * y + k02 * y * y + k10 * x + k01 * y
                            for y in range(top + 1))
                assert low[x] <= least, (x, top)

    def test_funnel_of_the_bench_sweeps(self, monkeypatch):
        counts = _count_tiers(monkeypatch)
        # shapes in the 48-point screen, then out of it, the column screen and the whole region
        for slope, bound, funnel in (("1/3", 3, (19040, 8202, 66, 1)),
                                     ("1", 2, (2870, 159, 17, 2))):
            counts.clear()
            report = search_quadratic(Sector(parse_slope(slope)), bound, 1000, workers=1)
            assert counts["48", "out"] == counts["column", "in"], slope
            assert counts["column", "out"] == counts["whole", "in"], slope
            assert (counts["48", "in"], counts["48", "out"], counts["column", "out"],
                    counts["whole", "out"]) == funnel, slope
            assert len(report.survivors) == funnel[3]




# per degree: the sweep, and a chunk cap that splits its bound-1 box past (k20, k11)
_SWEEPS = {1: (linear_impossibility_check, 4), 2: (search_quadratic, 40)}


def _candidates(boxes, cosets):
    """The candidates (k20, k11, k02, k10, k01, k00) of shape boxes, each
    shape with the k00 range of its coset."""
    out = []
    for box in boxes:
        for shape in itertools.product(*box):
            [coset] = [c for c in cosets if all(v in r for v, r in zip(shape, c))]
            out.extend((*shape, k00) for k00 in coset[5])
    return out


class TestChunkPlan:
    def test_chunks_are_capped_at_bound_10(self):
        for degree in (1, 2):
            for sector, prefix in ((I1, 1), (Sector(Slope(1, 3)), 100)):
                cosets, plan = _plan(sector, 10, prefix, degree)
                assert degree == 1 or len(plan) > 1
                for boxes, keys in plan:
                    shapes = sum(prod(map(len, box)) for box in boxes)
                    assert shapes == 1 or shapes * len(cosets[0][5]) <= verify._CHUNK_ROWS

    # Sector(1) at prefix 1 examines no lattice triangle, at prefix 20 it does
    @pytest.mark.parametrize("sublattice", [True, False])
    def test_chunks_tile_the_swept_set(self, monkeypatch, sublattice):
        prefix = 20 if sublattice else 1
        tops = verify._examined_region(I1, prefix)
        assert verify._has_triangle(tops) == sublattice
        for degree, (_, cap) in _SWEEPS.items():
            for rows in (verify._CHUNK_ROWS, cap):
                with monkeypatch.context() as patch:
                    patch.setattr(verify, "_CHUNK_ROWS", rows)
                    cosets, plan = _plan(I1, 1, prefix, degree)
                    assert all(len(_candidates(boxes, cosets)) <= rows
                               or sum(prod(map(len, box)) for box in boxes) == 1
                               for boxes, _ in plan)
                chunked = [row for boxes, _ in plan for row in _candidates(boxes, cosets)]
                assert len(chunked) == len(set(chunked))
                # the refused pairs, each with a witness on the y = 0 row
                refused = []
                for box in cosets:
                    for k20, k10 in itertools.product(box[0], box[3]):
                        row = [k20 * x * x + k10 * x for x in range(len(tops))]
                        if (len(set(row)) < len(row) or min(row) < -2
                                or (not sublattice and any(value % 2 for value in row))):
                            refused.extend(_candidates(
                                [((k20,), box[1], box[2], (k10,), box[4])], cosets))
                assert refused and chunked, degree
                box = itertools.product(*(range(-b, b + 1) for b in _bounds(degree, 2)))
                swept = [k for k in box if not sublattice or
                         (k[1] % 2 == 0 and k[5] % 2 == 0 and k[5] >= 0
                          and (k[3] - k[0]) % 2 == 0 and (k[4] - k[2]) % 2 == 0)]
                assert sorted(chunked + refused) == swept, (degree, rows)
            assert max(len(keys[-1]) for _, keys in plan) > 2, degree

    def test_chunks_never_key_on_k00(self, monkeypatch):
        monkeypatch.setattr(verify, "_CHUNK_ROWS", 1)
        for degree in (1, 2):
            for prefix in (1, 20):  # the full box and the sublattice
                _, plan = _plan(I1, 1, prefix, degree)
                assert all(len(box) == verify._SHAPE_COLUMNS for boxes, _ in plan for box in boxes)
                assert {len(keys[-1]) for _, keys in plan} == {5}, (degree, prefix)

    def test_split_sweep_is_unchanged(self, monkeypatch):
        for degree, (sweep, cap) in _SWEEPS.items():
            whole = sweep(I1, 1, 50, workers=1)
            unsplit = sum(len(k20) * len(k11) for k20, k11
                          in {box[:2] for box in verify._cosets(_bounds(degree, 2), True)})
            seen = []
            with monkeypatch.context() as patch:
                patch.setattr(verify, "_CHUNK_ROWS", cap)
                split = sweep(I1, 1, 50, workers=1,
                              progress=lambda done, total: seen.append((done, total)))
            assert split == whole, degree
            assert seen[-1][0] == seen[-1][1] > unsplit, degree


class TestPairPlan:
    """A chunk that holds whole k20 values, with their passing pairs as one
    grid axis, finds what chunks of (k20, k11) pieces find, where one chunk
    may hold pieces of several k11 values, and reports the same progress."""

    @staticmethod
    def _pair_cap(sector, bound, prefix, degree):
        """The most candidates of one (k20, k11) key of the box, before the
        y = 0 row refuses any pair: a cap that keeps the progress keys at
        (k20, k11), and that a k20 with more passing candidates splits at."""
        tops = verify._examined_region(sector, prefix)
        cosets = verify._cosets(_bounds(degree, 2 * bound), verify._has_triangle(tops))
        keys = Counter()
        for box in cosets:
            keys[box[:2]] += prod(map(len, box[2:]))
        return max(keys.values())

    def test_same_reports_progress_and_funnel_as_chunks_per_k11(self, monkeypatch):
        counts = _count_tiers(monkeypatch)
        column_screen = verify._column_screen
        most_k11s = 0  # the most k11 columns of one chunk's boxes under the cap
        dropped = {}  # per case, the shapes that the column screen drops under the cap

        def drop_spy(picks, *tables):
            kept = column_screen(picks, *tables)
            shapes = np.delete(picks, kept, 0)[:, :verify._SHAPE_COLUMNS]
            dropped.setdefault((slope, bound, prefix), []).extend(map(tuple, shapes.tolist()))
            return kept

        for slope, bound, prefix in _SCREEN_CASES:
            sector = Sector(parse_slope(slope))
            for degree, (sweep, _) in _SWEEPS.items():
                runs = {}
                for grouped in (True, False):
                    with monkeypatch.context() as patch:
                        if not grouped:
                            patch.setattr(verify, "_CHUNK_ROWS",
                                          self._pair_cap(sector, bound, prefix, degree))
                            patch.setattr(verify, "_column_screen", drop_spy)
                        plan = _plan(sector, bound, prefix, degree)[1]
                        if not grouped:
                            most_k11s = max(most_k11s, *(len({box[1] for box in boxes})
                                                         for boxes, _ in plan))
                        depths = {len(keys[-1]) for _, keys in plan}
                        if grouped or degree == 1:  # the linear sweep pins k11 to 0
                            assert depths == {1} and (len(plan) == 1 or not grouped)
                        else:  # a k20 with few passing pairs may still fit whole
                            assert 2 in depths <= {1, 2}
                            assert depths == {2} or bound == 1
                        for workers in (1, 2):
                            counts.clear()
                            seen = []
                            report = sweep(sector, bound, prefix, workers=workers,
                                           progress=lambda done, total: seen.append((done, total)))
                            # the screens of worker processes count in those processes
                            runs[grouped, workers] = report, seen, workers == 1 and dict(counts)
                case = (slope, bound, prefix, degree)
                for workers in (1, 2):
                    assert runs[True, workers] == runs[False, workers], (case, workers)
                assert runs[True, 1][:2] == runs[True, 2][:2], case
                assert runs[True, 1][2]["48", "in"] > 0, case
        assert most_k11s > 1
        assert any(dropped.values())
        _assert_fail_the_whole_region(dropped)


class TestHasTriangle:
    @staticmethod
    def _holds_triangle(tops):
        """Reference: look for {(a+i, b+j) : i + j <= 2} among the region's points."""
        have = {(x, y) for x, top in enumerate(tops) for y in range(top + 1)}
        triangle = [(i, j) for i in range(3) for j in range(3 - i)]
        return any(all((a + i, b + j) in have for i, j in triangle) for a, b in have)

    def test_matches_point_set_check(self):
        slopes = [Slope(r, s) for r in range(1, 7) for s in range(1, 7) if gcd(r, s) == 1]
        for slope in slopes + [Slope.infinite()]:
            for prefix in range(1, 31):
                tops = verify._examined_region(Sector(slope), prefix)
                assert verify._has_triangle(tops) == self._holds_triangle(tops), (slope, prefix)


def _syntax(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def _imports(module) -> tuple[set[str], set[str]]:
    """(the sectorpack modules that module imports, the top packages of the rest)."""
    own, other = set(), set()
    for node in ast.walk(_syntax(module)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            head = ["sectorpack"] * bool(node.level) + (node.module or "").split(".")
            paths = [[part for part in head if part] + [alias.name] for alias in node.names]
        else:
            continue
        for path in paths:
            # a bare "import sectorpack" shows as "", as it imports every module
            if path[0] == "sectorpack":
                own.add("".join(path[1:2]))
            else:
                other.add(path[0])
    return own, other


class TestOracleIndependence:
    """The oracles must not depend on the families they are used to check."""

    def test_verify_imports_only_core_and_poly(self):
        assert _imports(verify)[0] == {"core", "poly"}

    def test_core_imports_no_sectorpack_module_and_no_numpy(self):
        own, other = _imports(core)
        assert own == set()
        assert "numpy" not in other

    def test_packing_names_none_of_the_order_walk(self):
        tree = _syntax(packing)
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not names & {"_lines", "_order_iterator", "iter_sector", "enumerate_sector"}

import ast
import itertools
import json
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sectorpack import (OrderKind, PackingVerdict, QuadPoly, QuasiPoly, Sector,
                        SectorPackError, Slope, cantor, enumerate_sector,
                        linear_impossibility_check, parse_slope,
                        search_quadratic, steep, verify, verify_packing)

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
            with pytest.raises(SectorPackError, match=r"r \| s-1, got 3/5"):
                enumerate_sector(Sector(Slope(3, 5)), order, 5)  # 3 does not divide 4
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
                d = (family.sector.slope.s - 1) // family.sector.slope.r
                indices = [x - d * y for x, y in points]
                assert all(a <= b for a, b in zip(indices, indices[1:]))

    def test_block_top_down_order(self):
        assert enumerate_sector(Sector(Slope(2, 3)), OrderKind.BLOCK_TOP_DOWN, 4) == \
            [(0, 0), (3, 2), (2, 1), (1, 0)]


def _walks(slope, order):
    """(d, top_down, walks) for an order the slope admits, else None: each walk
    is a _lines call with its first line K and its step."""
    r, s = slope.r, slope.s
    diagonal = order in (OrderKind.DIAGONAL, OrderKind.REVERSE_DIAGONAL)
    if diagonal != slope.is_infinite:
        return None
    if order is OrderKind.RESIDUE_INTERLEAVED:
        return 0, False, [(ell, s) for ell in range(s)]
    if order.value.startswith("block"):
        if (s - 1) % r:
            return None
        return (s - 1) // r, order.top_down, [(0, 1)]
    return (-1 if diagonal else 0), order.top_down, [(0, 1)]


class TestLineWalker:
    SLOPES = ["inf", "1", "3", "2/3", "3/2", "1/4", "3/7"]

    @pytest.mark.parametrize("text", SLOPES)
    @pytest.mark.parametrize("order", list(OrderKind), ids=lambda o: o.value)
    def test_each_line_ends_where_the_sector_does(self, text, order):
        # line K of the walker runs from (K, 0) to the last sector point along
        # x - d*y = K: that point is in the sector and the next one is not
        sector = Sector(parse_slope(text))
        walks = _walks(sector.slope, order)
        if walks is None:
            with pytest.raises(SectorPackError):
                enumerate_sector(sector, order, 1)
            return
        d, top_down, starts = walks
        for start, step in starts:
            lines = itertools.groupby(verify._lines(sector, d, top_down, start, step),
                                      key=lambda p: p[0] - d * p[1])
            for k, (key, line) in zip(range(start, start + 200 * step, step), lines):
                ys = [y for _, y in line]
                top = max(ys)
                assert key == k
                assert ys == (list(range(top, -1, -1)) if top_down else list(range(top + 1)))
                assert (k, 0) in sector
                assert (k + d * top, top) in sector
                assert (k + d * (top + 1), top + 1) not in sector, (text, order, k)


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
# on slope 1, each example fails one condition of the column scan only, and
# passes it if that condition is dropped: den does not divide the first
# value, the first step, the second difference; the least value is -1
_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


class TestColumnScan:
    @given(_CANDIDATES, _SLOPES, st.integers(1, 60))
    @example(QuadPoly(_HALF, 0, 0, _HALF, 1, _HALF), Slope(1, 1), 20)
    @example(QuadPoly(_HALF, 0, 0, _HALF, 3 * _HALF, 0), Slope(1, 1), 20)
    @example(QuadPoly(_HALF, 0, _QUARTER, _HALF, 3 * _QUARTER, 0), Slope(1, 1), 20)
    @example(QuadPoly(_HALF, 0, 0, _HALF, 1, -1), Slope(1, 1), 20)
    def test_matches_point_walk(self, f, slope, prefix):
        sector = Sector(slope)
        assert verify_packing(f, sector, prefix) == _walk_verdict(f, sector, prefix)

    def test_matches_point_walk_on_shifted_families(self):
        # near-packings: each verdict kind but "collision" shows here
        for family in all_families(5):
            for shift in (0, 1, -1, _HALF):
                f = family.form
                f = QuasiPoly(f.period, [b + QuadPoly.constant(shift) for b in f.branches])
                for prefix in (1, 7, 60):
                    assert verify_packing(f, family.sector, prefix) == \
                        _walk_verdict(f, family.sector, prefix), (family.name, shift, prefix)


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

        class InProcessPool:
            """Records its process count and maps in this process."""

            def __init__(self, processes, initializer, initargs):
                started.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                verify._WORK.clear()

            def imap(self, func, items):
                return map(func, items)

        monkeypatch.setattr(verify.multiprocessing, "Pool", InProcessPool)
        serial = search_quadratic(I1, 1, 120, workers=1)
        totals = []
        pooled = search_quadratic(I1, 1, 120, workers=64,
                                  progress=lambda done, total: totals.append(total))
        assert pooled == serial
        assert started == [totals[-1]] and totals[-1] < 64
        linear_impossibility_check(I1, 1, 120, workers=64)  # one chunk: no pool
        assert started == [totals[-1]]

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
    """Every report of the cases, and the dtypes the screens saw."""
    dtypes = set()
    screen = verify._screen

    def spy(values, even, prefix):
        dtypes.add(values.dtype)
        return screen(values, even, prefix)

    monkeypatch.setattr(verify, "_screen", spy)
    reports = [sweep(Sector(parse_slope(slope)), bound, prefix, workers=1)
               for slope, bound, prefix in _SCREEN_CASES
               for sweep in (search_quadratic, linear_impossibility_check)]
    return reports, dtypes


class TestScreenVariants:
    """The int64 screen and one-row batches give the reports of the default screen."""

    @pytest.fixture(scope="class")
    def default(self):
        with pytest.MonkeyPatch.context() as patch:
            reports, dtypes = _screen_reports(patch)
        assert dtypes == {np.dtype(np.int32)}  # every case fits the int32 bound
        return reports

    @pytest.mark.parametrize("name, value, dtype", [("_INT32_LIMIT", 0, np.int64),
                                                    ("_SLICE_BYTES", 1, np.int32)])
    def test_same_reports(self, monkeypatch, default, name, value, dtype):
        monkeypatch.setattr(verify, name, value)
        reports, dtypes = _screen_reports(monkeypatch)
        assert dtypes == {np.dtype(dtype)}
        assert reports == default


def _bounds(degree, bound):
    """Even numerator bounds per column: a linear sweep pins k20, k11, k02 to 0."""
    return (bound,) * 6 if degree == 2 else (0, 0, 0, bound, bound, bound)


# per degree: the sweep, and a chunk cap that splits its bound-1 box past (k20, k11)
_SWEEPS = {1: (linear_impossibility_check, 4), 2: (search_quadratic, 40)}


class TestChunkPlan:
    def test_chunks_are_capped_at_bound_10(self):
        for degree in (1, 2):
            for sublattice in (True, False):
                plan = verify._chunk_plan(verify._cosets(_bounds(degree, 20), sublattice))
                assert max(plan.values()) <= verify._CHUNK_ROWS, (degree, sublattice)

    @pytest.mark.parametrize("sublattice", [True, False])
    def test_chunks_tile_the_swept_set(self, monkeypatch, sublattice):
        for degree, (_, cap) in _SWEEPS.items():
            bounds = _bounds(degree, 2)
            cosets = verify._cosets(bounds, sublattice)
            with monkeypatch.context() as patch:
                patch.setattr(verify, "_CHUNK_ROWS", cap)
                plan = verify._chunk_plan(cosets)
            assert max(len(key) for key in plan) > 2, degree
            rows = []
            for head, size in plan.items():
                for key in itertools.product(*head):
                    shapes = [shape for grid in verify._chunk_grids(cosets, key)
                              for shape in itertools.product(*grid)]
                    assert all(shape[:len(key)] == key for shape in shapes)
                    # a shape row stands for its coset's whole k00 range
                    chunk = []
                    for shape in shapes:
                        [box] = [box for box in cosets if all(v in r for v, r in zip(shape, box))]
                        chunk.extend((*shape, k00) for k00 in box[5])
                    assert len(chunk) == size
                    rows.extend(chunk)
            box = itertools.product(*(range(-b, b + 1) for b in bounds))
            swept = [k for k in box if not sublattice or
                     (k[1] % 2 == 0 and k[5] % 2 == 0 and k[5] >= 0
                      and (k[3] - k[0]) % 2 == 0 and (k[4] - k[2]) % 2 == 0)]
            assert sorted(rows) == swept, degree

    def test_chunks_never_key_on_k00(self, monkeypatch):
        monkeypatch.setattr(verify, "_CHUNK_ROWS", 1)
        for degree in (1, 2):
            for sublattice in (True, False):
                plan = verify._chunk_plan(verify._cosets(_bounds(degree, 2), sublattice))
                assert max(len(head) for head in plan) == 5, (degree, sublattice)

    def test_split_sweep_is_unchanged(self, monkeypatch):
        for degree, (sweep, cap) in _SWEEPS.items():
            whole = sweep(I1, 1, 50, workers=1)
            unsplit = sum(len(k20) * len(k11) for k20, k11
                          in verify._chunk_plan(verify._cosets(_bounds(degree, 2), True)))
            seen = []
            with monkeypatch.context() as patch:
                patch.setattr(verify, "_CHUNK_ROWS", cap)
                split = sweep(I1, 1, 50, workers=1,
                              progress=lambda done, total: seen.append((done, total)))
            assert split == whole, degree
            assert seen[-1][0] == seen[-1][1] > unsplit, degree


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


class TestOracleIndependence:
    def test_verify_imports_only_core_and_poly(self):
        # the oracles must not depend on the families they are used to check
        tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                paths = [alias.name.split(".") for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                head = ["sectorpack"] * bool(node.level) + (node.module or "").split(".")
                paths = [[part for part in head if part] + [alias.name] for alias in node.names]
            else:
                continue
            # a bare "import sectorpack" shows as "", as it imports every module
            imported.update("".join(path[1:2]) for path in paths if path[0] == "sectorpack")
        assert imported == {"core", "poly"}

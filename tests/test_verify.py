import itertools
import json
from fractions import Fraction

import pytest

from sectorpack import (QuadPoly, Sector, SectorPackError, Slope, cantor,
                        divides, enumerate_sector, linear_impossibility_check,
                        order_for_family, parse_slope, quasi_h, search_quadratic,
                        steep, verify, verify_packing)
from sectorpack.verify import (COLUMN_BOTTOM_UP, COLUMN_TOP_DOWN, DIAGONAL,
                               REVERSE_DIAGONAL, block_bottom_up,
                               block_top_down, residue_interleaved)

from family_zoo import all_families

I1 = Sector(Slope(1, 1))
QUADRANT = Sector(Slope.infinite())


class TestEnumerate:
    def test_examples(self):
        assert enumerate_sector(QUADRANT, DIAGONAL, 4) == [(0, 0), (1, 0), (0, 1), (2, 0)]
        assert enumerate_sector(Sector(Slope(2, 1)), COLUMN_BOTTOM_UP, 5) == \
            [(0, 0), (1, 0), (1, 1), (1, 2), (2, 0)]
        assert enumerate_sector(Sector(Slope(3, 2)), residue_interleaved(2), 6) == \
            [(0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (3, 0)]

    def test_reverse_diagonal(self):
        assert enumerate_sector(QUADRANT, REVERSE_DIAGONAL, 4) == [(0, 0), (0, 1), (1, 0), (0, 2)]

    def test_incompatible_orders_rejected(self):
        with pytest.raises(SectorPackError):
            enumerate_sector(I1, DIAGONAL, 5)
        with pytest.raises(SectorPackError):
            enumerate_sector(QUADRANT, COLUMN_BOTTOM_UP, 5)
        with pytest.raises(SectorPackError):
            enumerate_sector(Sector(Slope(3, 5)), block_bottom_up(1), 5)  # 3 does not divide 4
        with pytest.raises(SectorPackError):
            enumerate_sector(Sector(Slope(2, 3)), block_bottom_up(2), 5)  # wrong step
        with pytest.raises(SectorPackError):
            enumerate_sector(Sector(Slope(3, 2)), residue_interleaved(3), 5)
        with pytest.raises(SectorPackError):
            enumerate_sector(I1, COLUMN_BOTTOM_UP, 0)

    def test_oracle_self_consistency(self):
        # pairwise-distinct points, all inside the sector, and for block
        # orders a nondecreasing block index
        for family in all_families(6):
            order = order_for_family(family)
            points = enumerate_sector(family.sector, order, 800)
            assert len(set(points)) == 800
            assert all(family.sector.contains(p) for p in points)
            if order.kind.value.startswith("block"):
                d = order.param
                indices = [x - d * y for x, y in points]
                assert all(a <= b for a, b in zip(indices, indices[1:]))

    def test_block_top_down_order(self):
        assert enumerate_sector(Sector(Slope(2, 3)), block_top_down(1), 4) == \
            [(0, 0), (3, 2), (2, 1), (1, 0)]


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

    def test_margin_parameter(self):
        verdict = verify_packing(steep("F", 1).form, I1, 100, margin=8)
        assert verdict.ok
        assert verdict.points_examined >= 800

    def test_bad_prefix_rejected(self):
        with pytest.raises(SectorPackError):
            verify_packing(cantor("F").form, QUADRANT, 0)


class TestSearch:
    def test_small_search_isolates_the_two_packings(self):
        report = search_quadratic(I1, 2, 300)
        assert report.exhausted
        assert report.survivors == (steep("F", 1).form, steep("G", 1).form)

    def test_deterministic_across_worker_counts(self):
        serial = search_quadratic(I1, 1, 120, workers=1)
        pooled = search_quadratic(I1, 1, 120, workers=2)
        assert serial == pooled

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

    def test_report_json_shape(self):
        report = linear_impossibility_check(Sector(Slope(3, 2)), 2, 100)
        obj = json.loads(report.to_json())
        assert obj == {"sector": "3/2", "degree": 1, "coeff_bound": 2,
                       "prefix": 100, "survivors": [], "exhausted": True}

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


class TestChunkPlan:
    def test_chunks_are_capped_at_bound_10(self):
        for degree in (1, 2):
            for sublattice in (True, False):
                plan = verify._chunk_plan(degree, 20, sublattice)
                assert max(plan.values()) <= verify._CHUNK_ROWS, (degree, sublattice)

    @pytest.mark.parametrize("sublattice", [True, False])
    def test_chunks_tile_the_swept_set(self, monkeypatch, sublattice):
        # a small cap forces splits past (k20, k11)
        monkeypatch.setattr(verify, "_CHUNK_ROWS", 40)
        plan = verify._chunk_plan(2, 2, sublattice)
        assert max(len(key) for key in plan) > 2
        verify._search_init({"sublattice": sublattice})
        rows = []
        for head, size in plan.items():
            for key in itertools.product(*head):
                chunk = verify._candidate_rows(key, 6 - len(key), 2).tolist()
                assert len(chunk) == size and all(row[:len(key)] == list(key) for row in chunk)
                rows.extend(map(tuple, chunk))
        box = itertools.product(range(-2, 3), repeat=6)
        swept = [k for k in box if not sublattice or
                 (k[1] % 2 == 0 and k[5] % 2 == 0 and k[5] >= 0
                  and (k[3] - k[0]) % 2 == 0 and (k[4] - k[2]) % 2 == 0)]
        assert sorted(rows) == swept

    def test_split_sweep_is_unchanged(self, monkeypatch):
        whole = search_quadratic(I1, 1, 50, workers=1)
        unsplit = sum(len(k20) * len(k11) for k20, k11 in verify._chunk_plan(2, 2, True))
        monkeypatch.setattr(verify, "_CHUNK_ROWS", 40)
        seen = []
        split = search_quadratic(I1, 1, 50, workers=1,
                                 progress=lambda done, total: seen.append((done, total)))
        assert split == whole
        assert seen[-1][0] == seen[-1][1] > unsplit


class TestOrderForFamily:
    def test_mapping(self):
        assert order_for_family(cantor("F")) == DIAGONAL
        assert order_for_family(cantor("G")) == REVERSE_DIAGONAL
        assert order_for_family(steep("F", 3)) == COLUMN_BOTTOM_UP
        assert order_for_family(steep("G", 3)) == COLUMN_TOP_DOWN
        assert order_for_family(divides("F", 2, 3)) == block_bottom_up(1)
        assert order_for_family(divides("G", 1, 4)) == block_top_down(3)
        assert order_for_family(quasi_h(3, 2)) == residue_interleaved(2)

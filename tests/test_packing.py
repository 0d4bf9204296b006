import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorpack import (OrderKind, OutsideSectorError, PackingFamily, QuadPoly, Sector,
                        SectorPackError, Slope, cantor, divides, enumerate_sector,
                        parse_family, psi_map, quasi_h, steep, verify_packing)

from family_zoo import all_families, coprime_pairs, divides_pairs, sector_points


class TestConstructors:
    def test_cantor_values(self):
        assert cantor("F").rank((1, 0)) == 1
        assert cantor("G").rank((1, 0)) == 2
        assert cantor("F").rank((0, 0)) == 0

    def test_steep_values(self):
        assert steep("F", 2).rank((2, 0)) == 4
        assert steep("G", 2).rank((1, 2)) == 1

    def test_f1_is_triangle_offset(self):
        x, y = QuadPoly.x(), QuadPoly.y()
        one = QuadPoly.constant(1)
        assert steep("F", 1).form == x * (x + one) / 2 + y

    def test_variant_validation(self):
        with pytest.raises(SectorPackError):
            cantor("H")
        with pytest.raises(SectorPackError):
            steep("f", 2)

    def test_steep_rejects_zero_slope(self):
        with pytest.raises(SectorPackError):
            steep("F", 0)

    @pytest.mark.parametrize("r,s", [(2, 4), (3, 5), (5, 3), (2, 2), (0, 3)])
    def test_divides_rejects_bad_parameters(self, r, s):
        with pytest.raises(SectorPackError):
            divides("F", r, s)

    def test_divides_values(self):
        assert divides("F", 2, 3).rank((2, 1)) == 2
        assert divides("G", 2, 3).rank((3, 2)) == 1
        assert divides("F", 1, 2).rank((2, 1)) == 2

    def test_quasi_rejects_non_coprime(self):
        with pytest.raises(SectorPackError):
            quasi_h(2, 4)

    @pytest.mark.parametrize("order,slope", [
        (OrderKind.BLOCK_BOTTOM_UP, Slope(3, 2)),  # would rank (1, 2), outside, as 3
        (OrderKind.COLUMN_BOTTOM_UP, Slope(2, 3)),  # would be named steep-f:2
        (OrderKind.DIAGONAL, Slope(1, 2)),  # would be named cantor-f:1/2
        (OrderKind.RESIDUE_INTERLEAVED, Slope.infinite()),  # would divide by s = 0
    ])
    def test_refuses_an_order_that_does_not_pack_the_sector(self, order, slope):
        with pytest.raises(SectorPackError):
            PackingFamily(order, Sector(slope))

    def test_builds_exactly_the_families(self):
        # every order on every slope up to 6: a pair either builds one of the
        # factories' families, which parses from its name and verifies, or is
        # refused with a SectorPackError
        slopes = [Slope.infinite()] + [Slope(r, s) for r, s in coprime_pairs(6, 6)]
        built = []
        for order, slope in itertools.product(OrderKind, slopes):
            try:
                family = PackingFamily(order, Sector(slope))
            except SectorPackError:
                continue
            assert parse_family(family.name) == family
            assert verify_packing(family.form, family.sector, 30).ok, family.name
            built.append(family)
        assert set(built) == set(all_families(6))

    def test_quasi_values(self):
        fam = quasi_h(3, 2)
        assert fam.rank((3, 0)) == 5
        assert fam.rank((2, 3)) == 8

    def test_quasi_printed_branches(self):
        fam = quasi_h(3, 2)
        assert fam.form.branches[0] == QuadPoly("3/4", 0, 0, "-1/2", 2, 0)
        assert fam.form.branches[1] == QuadPoly("3/4", 0, 0, -1, 2, "5/4")

    def test_quasi_period_one_collapses_to_steep(self):
        for r in range(1, 8):
            fam = quasi_h(r, 1)
            assert fam.form.period == 1
            assert fam.form.branches[0] == steep("F", r).form


class TestRank:
    def test_examples(self):
        assert steep("F", 3).rank((1, 3)) == 4
        assert quasi_h(3, 2).rank((2, 3)) == 8

    def test_origin_is_zero_for_every_family(self):
        for family in all_families(6):
            assert family.rank((0, 0)) == 0

    def test_outside_sector_rejected(self):
        with pytest.raises(OutsideSectorError):
            steep("F", 1).rank((1, 2))
        with pytest.raises(OutsideSectorError):
            cantor("F").rank((-1, 0))


class TestRankAgainstTheForm:
    """rank works on block coordinates; form is the polynomial the proofs check."""

    # periods past 40, whose classes ell > 40 start past x = 40; x <= 3s holds
    # each class's first three columns
    LONG_PERIODS = [quasi_h(1, 64), quasi_h(3, 64), quasi_h(63, 64), quasi_h(50, 101)]

    def test_rank_is_the_form_on_the_sector(self):
        cases = [(family, 40) for family in all_families(10)]
        cases += [(family, 3 * family.sector.slope.s) for family in self.LONG_PERIODS]
        for family, reach in cases:
            form = family.form
            for p in sector_points(family.sector, reach, 40):
                assert family.rank(p) == form.evaluate(p), (family.name, p)

    def test_rank_rejects_exactly_the_points_outside(self):
        for family in all_families(10):
            for p in itertools.product(range(-3, 41), repeat=2):
                if family.sector.contains(p):
                    family.rank(p)
                else:
                    with pytest.raises(OutsideSectorError) as exc:
                        family.rank(p)
                    assert str(exc.value) == (
                        f"point {p} is outside the sector of slope {family.sector.slope}")

    @settings(max_examples=200, deadline=None)
    @given(family=st.sampled_from(all_families(10)), k=st.integers(-10**6, 10**6))
    def test_one_step_past_each_ray_near_1e20(self, family, k):
        t = 10**20 + k
        r, s = family.sector.slope.r, family.sector.slope.s
        # (inside, outside) pairs: the x-axis, then the other ray stepped up and left
        edges = [((t, 0), (t, -1))]
        if s == 0:
            edges.append(((0, t), (-1, t)))
        else:
            left = -(-s * t // r)  # least x with s*t <= r*x
            edges += [((t, r * t // s), (t, r * t // s + 1)), ((left, t), (left - 1, t))]
        for inside, outside in edges:
            assert family.rank(inside) == family.form.evaluate(inside), (family.name, inside)
            assert family.unrank(family.rank(inside)) == inside
            with pytest.raises(OutsideSectorError):
                family.rank(outside)


class TestUnrank:
    def test_examples(self):
        assert cantor("F").unrank(7) == (2, 1)
        assert steep("F", 2).unrank(4) == (2, 0)
        assert quasi_h(3, 2).unrank(1) == (1, 0)

    def test_negative_rank_rejected(self):
        with pytest.raises(SectorPackError):
            cantor("F").unrank(-1)

    def test_round_trip_both_ways(self):
        for family in all_families(6):
            for n in range(500):
                p = family.unrank(n)
                assert family.sector.contains(p)
                assert family.rank(p) == n, family.name
            for p in sector_points(family.sector, 30, 30):
                assert family.unrank(family.rank(p)) == p, family.name

    @settings(max_examples=60)
    @given(st.integers(0, 10**40))
    def test_round_trip_at_large_ranks(self, n):
        # exactness must not degrade with magnitude, on the line path and the class
        # path: one family of each order, and quasi:3/1, whose period 1 is a line order
        for family in (cantor("F"), cantor("G"), steep("F", 7), steep("G", 3), divides("F", 2, 5),
                       divides("G", 3, 10), quasi_h(7, 4), quasi_h(3, 1)):
            p = family.unrank(n)
            assert family.sector.contains(p), family.name
            assert family.rank(p) == n, family.name

    def test_agrees_with_enumeration_oracle(self):
        for family in all_families(10):
            order = family.order
            for n, p in enumerate(enumerate_sector(family.sector, order, 5000)):
                assert family.unrank(n) == p
                assert family.rank(p) == n


class TestWalk:
    def test_prefix_matches_unrank_and_enumeration_oracle(self):
        for family in all_families(10):
            walked = list(itertools.islice(family.walk(), 2000))
            assert walked == [family.unrank(n) for n in range(2000)], family.name
            order = family.order
            assert walked == enumerate_sector(family.sector, order, 2000), family.name

    def test_agrees_with_unrank_deep_into_the_walk(self):
        rng = random.Random(10)
        families = (cantor("F"), cantor("G"), steep("G", 3), divides("F", 2, 5),
                    divides("G", 3, 10), quasi_h(3, 2), quasi_h(7, 10), quasi_h(2, 7))
        for family in families:
            sampled = set(rng.sample(range(200_000), 300)) | {199_999}
            for n, p in enumerate(itertools.islice(family.walk(), 200_000)):
                if n in sampled:
                    assert p == family.unrank(n), (family.name, n)


def _block_point(family, ell, a, offset):
    """Offset `offset` of block a in residue class ell, as the block model places it."""
    r, d, period, top_down = family._model
    c = r * ell // period + 1
    j = r * a + c - 1 - offset if top_down else offset
    return (period * a + ell + d * j, j)


def _block_rank(family, ell, a, offset):
    """Ranks before block a of class ell, plus the offset, interleaved by period."""
    r, _, period, _ = family._model
    c = r * ell // period + 1
    return period * (r * a * (a - 1) // 2 + c * a + offset) + ell


class TestBlockModel:
    def test_form_is_the_block_count_for_all_n(self):
        # the block point is affine in (a, offset), so each branch composed
        # with it is a quadratic in (a, offset); agreeing with the quadratic
        # block count on the six points of a lattice triangle makes them
        # equal everywhere, which proves rank(unrank(n)) == n for every n
        triangle = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)]
        for family in all_families(10):
            for ell, branch in enumerate(family.form.branches):
                for a, offset in triangle:
                    point = _block_point(family, ell, a, offset)
                    assert branch.evaluate(point) == _block_rank(family, ell, a, offset), \
                        (family.name, ell, a, offset)

    def test_blocks_tile_the_sector_for_all_n(self):
        # Offset j of block a in class ell is (x, y) = (period*a + ell + d*j, j).
        # In s*y <= r*x this is (s - r*d)*j <= r*(period*a + ell), which reads
        # j <= r*a + c - 1 with c = r*ell // period + 1 exactly when
        #   s - r*d == 1 and period == 1 (so ell = 0, c = 1): j <= r*a;
        #   d == 0 and period == s: floor(r*(s*a + ell)/s) = r*a + c - 1.
        # The quadrant is r = 1, s = 0.  As c - 1 < r, j >= 0 forces a >= 0, so
        # every sector point lies in exactly one block; with the form test
        # above, rank(unrank(n)) is a bijection onto the sector for all n.
        for family in all_families(10):
            r, d, period, _ = family._model
            s = family.sector.slope.s
            assert (s - r * d == 1 and period == 1) or (d == 0 and period == s), family.name

    def test_unrank_at_block_boundaries(self):
        # an off-by-one in the isqrt step shows at the ranks around a block start
        rng = random.Random(3)
        blocks = [0, 1, 2, 10**6, 10**40 + 3] + [rng.randrange(10**60) for _ in range(5)]
        for family in all_families(10):
            period = family._model[2]
            for ell in range(period):
                for a in blocks:
                    start = _block_rank(family, ell, a, 0)
                    assert family.unrank(start) == _block_point(family, ell, a, 0), family.name
                    for n in (start - period, start, start + period):
                        if n >= 0:
                            assert family.rank(family.unrank(n)) == n, (family.name, n)


class TestPolynomialIdentities:
    def test_steep_closed_form_matches_column_count_derivation(self):
        x, y = QuadPoly.x(), QuadPoly.y()
        one = QuadPoly.constant(1)
        for r in range(1, 11):
            assert steep("F", r).form == r * x * (x - one) / 2 + x + y
            assert steep("G", r).form == steep("F", r).form.compose(psi_map(r))

    def test_divides_closed_form_matches_block_count_derivation(self):
        # the expanded coefficients equal "points before block a, plus the
        # offset within block a" written directly in terms of a = x - d*y
        x, y = QuadPoly.x(), QuadPoly.y()
        one = QuadPoly.constant(1)
        for r, s in divides_pairs(20):
            d = (s - 1) // r
            t = x - d * y
            counted_f = r * (t * (t - one)) / 2 + x - (d - 1) * y
            counted_g = r * (t * (t - one)) / 2 + (r + 1) * x - (d + s) * y
            assert divides("F", r, s).form == counted_f, (r, s)
            assert divides("G", r, s).form == counted_g, (r, s)

    def test_quasi_and_divides_orders_differ(self):
        # same sector, both packings, but different enumerations: the ranks
        # disagree somewhere even though both cover every prefix
        quasi, block = quasi_h(1, 2), divides("F", 1, 2)
        pts = sector_points(quasi.sector, 20)
        assert any(quasi.rank(p) != block.rank(p) for p in pts)
        # ... yet each one, on its own, fills every rank prefix bijectively
        for family in (quasi, block):
            preimages = {family.unrank(n) for n in range(200)}
            assert len(preimages) == 200
            assert all(family.rank(p) < 200 for p in preimages)


class TestFamilyNames:
    @pytest.mark.parametrize("name", [
        "cantor-f", "cantor-g", "steep-f:1", "steep-g:7",
        "div-f:2/3", "div-g:1/10", "quasi:3/2", "quasi:5/1",
    ])
    def test_parse_round_trip(self, name):
        assert parse_family(name).name == name

    def test_every_family_parses_from_its_name_and_pickles(self):
        points = [(0, 0), (1, 0), (3, 1), (7, 2), (12, 5), (30, 9)]
        for family in all_families(10):
            assert parse_family(family.name) == family, family.name
            fresh = pickle.loads(pickle.dumps(family))  # before its model is cached
            inside = [p for p in points if family.sector.contains(p)]
            ranks = [family.rank(p) for p in inside]
            for copy in (fresh, pickle.loads(pickle.dumps(family))):
                assert copy == family, family.name
                assert [copy.rank(p) for p in inside] == ranks, family.name
                assert [copy.unrank(n) for n in ranks] == inside, family.name

    @pytest.mark.parametrize("name", [
        "cantor", "cantor-f:1", "steep-f", "steep-f:0", "steep-f:x",
        "div-f:2/4", "div-f:3", "quasi:2/4", "quasi:-1/2", "unknown:1",
    ])
    def test_rejects_malformed(self, name):
        with pytest.raises(SectorPackError):
            parse_family(name)

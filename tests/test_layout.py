import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorpack import (CapacityError, OutsideSectorError, SectorArray,
                        SectorPackError, cantor, divides, quasi_h, steep)
from sectorpack.layout import _EMPTY

from family_zoo import all_families, sector_points


class TestBasics:
    def test_new_array_is_empty(self):
        for family in (steep("F", 1), quasi_h(3, 2), divides("F", 2, 3)):
            arr = SectorArray(family)
            assert arr.population == 0
            assert arr.storage_length == 0
            assert len(arr) == 0

    def test_put_uses_rank_as_offset(self):
        arr = SectorArray(steep("F", 1))
        assert arr.put((1, 1), "a") is None
        assert arr.storage_length == 4  # offset 2, doubled up to a power of two
        assert arr.get((1, 1)) == "a"
        assert arr.population == 1

    def test_put_returns_displaced_value(self):
        arr = SectorArray(steep("F", 1))
        arr.put((2, 1), "old")
        assert arr.put((2, 1), "new") == "old"
        assert arr.population == 1
        assert arr.get((2, 1)) == "new"

    def test_origin_is_offset_zero_for_every_family(self):
        for family in all_families(4):
            arr = SectorArray(family)
            arr.put((0, 0), "origin")
            assert arr.get((0, 0)) == "origin"
            assert arr.storage_length == 1

    def test_outside_sector_rejected(self):
        arr = SectorArray(steep("F", 1))
        with pytest.raises(OutsideSectorError):
            arr.put((1, 2), "x")
        with pytest.raises(OutsideSectorError):
            arr.get((1, 2))

    def test_get_on_empty(self):
        arr = SectorArray(cantor("F"))
        assert arr.get((5, 5)) is None
        arr.put((2, 2), "x")  # offset 12: a buffer of 16 cells
        assert arr.storage_length == 16
        for p in ((0, 0), (1, 2), (0, 4)):  # empty cells inside it, at offsets 0, 8 and 14
            assert arr.get(p) is None
        assert arr.get((2, 2)) == "x"

    def test_storing_none_counts_as_occupied(self):
        arr = SectorArray(steep("F", 1))
        arr.put((0, 0), None)
        assert arr.population == 1

    def test_capacity_guard(self):
        arr = SectorArray(steep("F", 1))
        huge = 2 ** 40
        with pytest.raises(CapacityError):
            arr.put((huge, 0), "x")
        with pytest.raises(CapacityError):
            arr.get((huge, 0))
        with pytest.raises(CapacityError):
            arr.dense_prefix_fill(2 ** 70, lambda p: p)
        assert arr.storage_length == 0

    @pytest.mark.parametrize("n,length", [(1, 2), (5, 8), (100, 128), (1023, 1024), (1024, 2048)])
    def test_put_past_the_end_grows_to_a_power_of_two(self, n, length):
        family = quasi_h(3, 2)
        arr = SectorArray(family)
        arr.put(family.unrank(0), "first")
        arr.put(family.unrank(n), "past")
        assert arr.storage_length == length
        assert arr.get(family.unrank(0)) == "first"
        assert arr.get(family.unrank(n)) == "past"
        assert arr.population == 2


class TestIterate:
    def test_rank_order(self):
        arr = SectorArray(steep("F", 1))
        for p in [(1, 1), (0, 0), (1, 0)]:
            arr.put(p, p)
        assert list(arr.iterate()) == [((0, 0), (0, 0)), ((1, 0), (1, 0)), ((1, 1), (1, 1))]

    def test_offsets_strictly_increase_and_points_match_inserts(self):
        family = divides("F", 2, 3)
        arr = SectorArray(family)
        inserted = set(sector_points(family.sector, 12))
        for p in inserted:
            arr.put(p, True)
        walked = [p for p, _ in arr.iterate()]
        assert set(walked) == inserted
        offsets = [family.rank(p) for p in walked]
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == len(offsets)

    # one family of each kind, with period > 1, d < 0, d > 0 and top-down among them
    @settings(max_examples=150, deadline=None)
    @given(family=st.sampled_from([cantor("F"), cantor("G"), steep("F", 2), steep("G", 3),
                                   divides("F", 2, 5), divides("G", 1, 4), quasi_h(3, 2),
                                   quasi_h(2, 5)]),
           fill=st.integers(0, 40),
           puts=st.lists(st.tuples(st.integers(0, 299), st.integers()), max_size=60))
    def test_matches_unrank_reference_after_fill_and_puts(self, family, fill, puts):
        arr = SectorArray(family)
        arr.dense_prefix_fill(fill, lambda p: p)
        stored = {n: family.unrank(n) for n in range(fill)}
        for n, value in puts:  # repeated ranks overwrite
            arr.put(family.unrank(n), value)
            stored[n] = value
        assert list(arr.iterate()) == [(family.unrank(n), stored[n]) for n in sorted(stored)]
        assert arr.population == len(stored)


    @pytest.mark.parametrize("ranks", [[0, 1, 2], [0, 2, 5], [5]], ids=["dense", "gaps", "one"])
    def test_walk_stops_at_the_highest_occupied_cell(self, ranks):
        family = quasi_h(3, 2)
        arr = SectorArray(family)
        for n in ranks:
            arr.put(family.unrank(n), n)
        assert arr.storage_length > max(ranks) + 1
        steps = []

        class Counted:
            """The family, with a walk that records each point it hands out."""

            def walk(self):
                return (steps.append(p) or p for p in family.walk())

        arr.family = Counted()
        assert list(arr.iterate()) == [(family.unrank(n), n) for n in ranks]
        assert len(steps) == max(ranks) + 1


class TestDensePrefixFill:
    def test_zero_is_noop(self):
        arr = SectorArray(steep("F", 2))
        arr.dense_prefix_fill(0, lambda p: p)
        assert arr.population == 0
        assert arr.storage_length == 0

    def test_fills_the_enumeration_prefix(self):
        arr = SectorArray(steep("F", 2))
        arr.dense_prefix_fill(5, lambda p: p)
        assert [p for p, _ in arr.iterate()] == [(0, 0), (1, 0), (1, 1), (1, 2), (2, 0)]
        assert arr.population == 5

    def test_prefix_is_gap_free(self):
        arr = SectorArray(quasi_h(3, 2))
        arr.dense_prefix_fill(100, lambda p: 0)
        assert arr.population == 100
        assert arr.storage_length == 128
        assert [arr.family.rank(p) for p, _ in arr.iterate()] == list(range(100))

    def test_storage_doubles_to_1024(self):
        arr = SectorArray(steep("F", 1))
        arr.dense_prefix_fill(1000, lambda p: None)
        assert arr.storage_length == 1024

    def test_fill_over_occupied_cells_counts_only_the_empty_ones(self):
        family = divides("G", 1, 4)
        arr = SectorArray(family)
        for n in (2, 7, 40):
            arr.put(family.unrank(n), "old")
        arr.dense_prefix_fill(10, lambda p: p)
        assert arr.population == 11
        assert list(arr.iterate()) == [(family.unrank(n), family.unrank(n)) for n in range(10)] \
            + [(family.unrank(40), "old")]

    def test_raising_generator_leaves_the_array_unchanged(self):
        family = quasi_h(3, 2)
        arr = SectorArray(family)
        arr.dense_prefix_fill(5, lambda p: "first")
        arr.put(family.unrank(9), "ninth")
        before = (arr.population, arr.storage_length, list(arr.iterate()))

        def generator(p):
            if family.rank(p) == 50:
                raise RuntimeError("no value")
            return "second"

        with pytest.raises(RuntimeError, match="no value"):
            arr.dense_prefix_fill(100, generator)
        assert (arr.population, arr.storage_length, list(arr.iterate())) == before

    # the fill counts the cells it newly occupies from population and _end, so
    # both must stay exact through any mix of fills and puts
    @settings(max_examples=150, deadline=None)
    @given(family=st.sampled_from([cantor("G"), steep("F", 2), divides("F", 9, 4), quasi_h(3, 2)]),
           steps=st.lists(st.one_of(st.tuples(st.just("fill"), st.integers(0, 60)),
                                    st.tuples(st.just("put"), st.integers(0, 120))),
                          max_size=12))
    def test_population_and_end_after_fills_and_puts(self, family, steps):
        arr = SectorArray(family)
        for kind, n in steps:
            if kind == "fill":
                arr.dense_prefix_fill(n, lambda p: p)
            else:
                arr.put(family.unrank(n), n)
            occupied = [k for k, value in enumerate(arr._cells) if value is not _EMPTY]
            assert arr.population == len(occupied)
            assert arr._end == (occupied[-1] + 1 if occupied else 0)
            assert len(list(arr.iterate())) == arr.population

    def test_negative_count_rejected(self):
        with pytest.raises(SectorPackError):
            SectorArray(steep("F", 1)).dense_prefix_fill(-1, lambda p: p)


class TestAddressing:
    def test_f1_matches_packed_triangular_offsets(self):
        family = steep("F", 1)
        for x in range(101):
            for y in range(x + 1):
                assert family.rank((x, y)) == x * (x + 1) // 2 + y

    def test_fuzz_insertions_never_collide(self):
        rng = random.Random(20260810)
        for family in all_families(4):
            sector = family.sector
            if sector.slope.is_infinite:
                pool = sector_points(sector, 70, 70)
            else:
                pool = sector_points(sector, 160)
            sample = rng.sample(pool, min(2000, len(pool)))
            arr = SectorArray(family)
            for p in sample:
                assert arr.put(p, p) is None, (family.name, p)
            assert arr.population == len(sample)
            for p in sample:
                assert arr.get(p) == p

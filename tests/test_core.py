from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sectorpack import Sector, Slope, SlopeSyntaxError, parse_slope


class TestParseSlope:
    @pytest.mark.parametrize("text,r,s", [
        ("3/2", 3, 2),
        ("4/6", 2, 3),
        ("3/6", 1, 2),
        ("7", 7, 1),
        ("1/1", 1, 1),
    ])
    def test_finite(self, text, r, s):
        assert parse_slope(text) == Slope(r, s)

    def test_infinite(self):
        assert parse_slope("inf") == Slope.infinite()
        assert parse_slope("inf").is_infinite

    @pytest.mark.parametrize("text", [
        "", "0", "0/3", "3/0", "-1", "1/-2", "3 / 2", " 3/2", "3/2 ",
        "inf/2", "1/2/3", "a", "1.5", "³/2", "INF",
    ])
    def test_rejects(self, text):
        with pytest.raises(SlopeSyntaxError):
            parse_slope(text)

    def test_round_trip_text(self):
        for text in ["3/2", "2/3", "5", "inf"]:
            assert str(parse_slope(text)) == text

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_always_reduced(self, r, s):
        slope = Slope.of(r, s)
        assert gcd(slope.r, slope.s) == 1
        assert slope == parse_slope(f"{r}/{s}")


class TestSlopeInvariants:
    def test_unreduced_pair_rejected(self):
        with pytest.raises(SlopeSyntaxError):
            Slope(2, 4)

    def test_zero_slope_rejected(self):
        with pytest.raises(SlopeSyntaxError):
            Slope(0, 1)

    def test_infinite_is_canonical(self):
        with pytest.raises(SlopeSyntaxError):
            Slope(2, 0)


class TestContains:
    def test_examples(self):
        assert Sector(Slope(3, 2)).contains((2, 3))
        assert not Sector(Slope(3, 2)).contains((1, 2))
        assert Sector(Slope.infinite()).contains((0, 5))

    def test_in_operator(self):
        assert (2, 3) in Sector(Slope(3, 2))
        assert (1, 2) not in Sector(Slope(3, 2))

    def test_negative_coordinates(self):
        assert not Sector(Slope.infinite()).contains((-1, 0))
        assert not Sector(Slope(1, 1)).contains((3, -1))

    @pytest.mark.parametrize("r,s", [(1, 1), (3, 2), (1, 4), (5, 3), (7, 2)])
    def test_matches_fraction_comparison(self, r, s):
        # cross-multiplication oracle: (x, y) with x >= 1 is in the sector
        # iff y/x <= r/s as exact rationals; x = 0 admits only y = 0
        sector = Sector(Slope(r, s))
        for x in range(101):
            for y in range(2 * x + 8):
                if x == 0:
                    expected = y == 0
                else:
                    expected = Fraction(y, x) <= Fraction(r, s)
                assert sector.contains((x, y)) == expected


class TestFreeBasis:
    def test_examples(self):
        assert Sector(Slope(1, 3)).free_basis() == ((1, 0), (3, 1))
        assert Sector(Slope.infinite()).free_basis() == ((1, 0), (0, 1))
        assert Sector(Slope(2, 3)).free_basis() is None

    def test_present_iff_reciprocal_or_infinite(self):
        for r in range(1, 13):
            for s in range(1, 13):
                if gcd(r, s) != 1:
                    continue
                basis = Sector(Slope(r, s)).free_basis()
                assert (basis is not None) == (r == 1)

    @pytest.mark.parametrize("slope", [Slope.infinite(), Slope(1, 1), Slope(1, 2), Slope(1, 5)])
    def test_unique_representation(self, slope):
        # every sector point with x <= 30 is a nonnegative combination of the
        # basis in exactly one way
        sector = Sector(slope)
        w1, w2 = sector.free_basis()
        reached = {}
        for x1 in range(31):
            for x2 in range(31):
                p = (x1 * w1[0] + x2 * w2[0], x1 * w1[1] + x2 * w2[1])
                if p[0] <= 30:
                    reached[p] = reached.get(p, 0) + 1
        for x in range(31):
            ys = range(31) if slope.is_infinite else range(sector.column_height(x) + 1)
            for y in ys:
                assert reached.get((x, y)) == 1, f"({x},{y}) has {reached.get((x, y), 0)} representations"

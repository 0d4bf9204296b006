"""Shared enumeration of every valid family within a parameter bound."""

from math import gcd

from sectorpack import cantor, divides, quasi_h, steep


def divides_pairs(max_s):
    """(r, s) with gcd(r, s) = 1, 1 <= r < s, and r | s-1."""
    return [(r, s) for s in range(2, max_s + 1) for r in range(1, s)
            if gcd(r, s) == 1 and (s - 1) % r == 0]


def coprime_pairs(max_r, max_s):
    return [(r, s) for r in range(1, max_r + 1) for s in range(1, max_s + 1)
            if gcd(r, s) == 1]


def all_families(bound=10):
    """Every constructible family with parameters at most `bound`."""
    families = [cantor("F"), cantor("G")]
    families += [steep(v, r) for r in range(1, bound + 1) for v in "FG"]
    families += [divides(v, r, s) for r, s in divides_pairs(bound) for v in "FG"]
    families += [quasi_h(r, s) for r, s in coprime_pairs(bound, bound)]
    return families


def sector_points(sector, max_x, max_y=None):
    """All sector points with x <= max_x (and y <= max_y for the quadrant)."""
    if sector.slope.is_infinite:
        assert max_y is not None, "the quadrant needs an explicit y bound"
        return [(x, y) for x in range(max_x + 1) for y in range(max_y + 1)]
    return [(x, y) for x in range(max_x + 1)
            for y in range(sector.column_height(x) + 1)]

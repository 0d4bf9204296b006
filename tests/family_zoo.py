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


def line_slopes(max_r, max_s):
    """(r, s, variants) for the reduced r/s, s >= 2, with r | (s-1)^2, and the
    variants that d mod e allows (g = gcd(r, s-1), e = r/g, d = (s-1)/g): F when
    d = 1 (mod e), G when d = -1 (mod e), both when e <= 2."""
    slopes = []
    for r, s in coprime_pairs(max_r, max_s):
        g = gcd(r, s - 1)
        e, d = r // g, (s - 1) // g
        variants = "F" * ((d - 1) % e == 0) + "G" * ((d + 1) % e == 0)
        if s >= 2 and (s - 1) ** 2 % r == 0 and variants:
            slopes.append((r, s, variants))
    return slopes


def all_families(bound=10):
    """Every constructible family with parameters at most `bound`."""
    families = [cantor("F"), cantor("G")]
    families += [steep(v, r) for r in range(1, bound + 1) for v in "FG"]
    families += [divides(v, r, s) for r, s, variants in line_slopes(bound, bound)
                 for v in variants]
    families += [quasi_h(r, s) for r, s in coprime_pairs(bound, bound)]
    return families


def sector_points(sector, max_x, max_y=None):
    """All sector points with x <= max_x (and y <= max_y for the quadrant)."""
    if sector.slope.is_infinite:
        assert max_y is not None, "the quadrant needs an explicit y bound"
        return [(x, y) for x in range(max_x + 1) for y in range(max_y + 1)]
    return [(x, y) for x in range(max_x + 1)
            for y in range(sector.column_height(x) + 1)]

"""Packing polynomials and quasi-polynomial packing functions on integer sectors.

Rank/unrank bijections between sector lattice points and the nonnegative
integers, the linear maps that move them between sectors, brute-force
verification and bounded search, and a sector-shaped array container that
uses the bijections as storage mapping functions.
"""

from .core import (OutsideSectorError, Point, Sector, SectorPackError, Slope,
                   SlopeSyntaxError, parse_slope)
from .layout import CapacityError, SectorArray
from .packing import (FamilyKind, PackingFamily, cantor, divides,
                      parse_family, quasi_h, steep)
from .poly import (PolySyntaxError, QuadPoly, QuasiPoly, deserialize,
                   format_rational, parse_rational, serialize)
from .transforms import LinearMap2, lambda_map, m_map, phi_map, psi_map
from .verify import (OrderKind, PackingVerdict, SearchReport, enumerate_sector,
                     linear_impossibility_check, search_quadratic,
                     verify_packing)

__all__ = [
    "CapacityError", "FamilyKind",
    "LinearMap2", "OrderKind", "OutsideSectorError",
    "PackingFamily", "PackingVerdict", "Point", "PolySyntaxError", "QuadPoly",
    "QuasiPoly", "SearchReport", "Sector", "SectorArray", "SectorPackError",
    "Slope", "SlopeSyntaxError", "cantor", "deserialize", "divides", "enumerate_sector", "format_rational",
    "lambda_map", "linear_impossibility_check", "m_map",
    "parse_family", "parse_rational", "parse_slope", "phi_map", "psi_map",
    "quasi_h", "search_quadratic",
    "serialize", "steep", "verify_packing",
]

__version__ = "0.1.0"

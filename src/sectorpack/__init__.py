"""Packing polynomials and quasi-polynomial packing functions on integer sectors.

Rank/unrank bijections between sector lattice points and the nonnegative
integers, the linear maps that move them between sectors, brute-force
verification and bounded search, and a sector-shaped array container that
uses the bijections as storage mapping functions.

The verification and search names (and the `verify` module itself) load on
first use: `verify` imports numpy, which rank, unrank, layouts and the
enumeration oracle never need.
"""

import importlib

from .core import (OrderKind, OutsideSectorError, Point, Sector, SectorPackError,
                   Slope, SlopeSyntaxError, enumerate_sector, parse_slope)
from .layout import CapacityError, SectorArray
from .packing import PackingFamily, cantor, divides, parse_family, quasi_h, steep
from .poly import (PolySyntaxError, QuadPoly, QuasiPoly, deserialize,
                   format_rational, parse_rational, serialize)
from .transforms import LinearMap2, lambda_map, m_map, phi_map, psi_map

_VERIFY_NAMES = ("PackingVerdict", "SearchReport", "linear_impossibility_check",
                 "search_quadratic", "verify_packing")


def __getattr__(name: str):
    if name == "verify" or name in _VERIFY_NAMES:
        verify = importlib.import_module(".verify", __name__)
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CapacityError",
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

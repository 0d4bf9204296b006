"""Bivariate quadratics and period-m quasi-polynomials over exact rationals.

QuadPoly holds a degree <= 2 polynomial in x and y as its integer form:
six integer numerators, for x^2, xy, y^2, x, y and 1, over one denominator
den >= 1, in lowest terms.  That form is its only state, so equal
polynomials are equal records, and its coefficients are `fractions.Fraction`
views of it.  The ring operations and composition with an integer linear
map are expanded symbolically on those Fractions; evaluation reads the
integers.  QuasiPoly is a family of m branches, the branch being selected
by x mod m.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Union

from .core import Point, SectorPackError, _to_int
from .transforms import LinearMap2

RationalLike = Union[int, Fraction]

_COEFF_KEYS = ("x2", "xy", "y2", "x", "y", "1")
_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?\Z", re.ASCII)


class PolySyntaxError(SectorPackError):
    """Serialized polynomial text is malformed."""


def format_rational(q: Fraction) -> str:
    """Render a Fraction as ``p/q``, omitting the denominator when it is 1."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` with q >= 1; rejects anything else, including q = 0."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise PolySyntaxError(f"invalid rational {text!r}")
    num, sep, den = text.partition("/")
    num, den = _to_int(num), _to_int(den) if sep else 1
    if den == 0:
        raise PolySyntaxError(f"invalid rational {text!r}: zero denominator")
    return Fraction(num, den)


def _coefficient(i: int) -> property:
    return property(lambda self: Fraction(self.nums[i], self.den))


@dataclass(frozen=True, slots=True, init=False)
class QuadPoly:
    """(n20*x^2 + n11*x*y + n02*y^2 + n10*x + n01*y + n00) / den, with den >= 1
    and gcd(den, n20, ..., n00) = 1, so that equal polynomials are equal
    records.  Built from six rationals c20..c00, which stay readable as
    Fraction views of the numerators."""

    den: int
    nums: tuple[int, int, int, int, int, int]

    def __init__(self, c20: RationalLike = 0, c11: RationalLike = 0, c02: RationalLike = 0,
                 c10: RationalLike = 0, c01: RationalLike = 0, c00: RationalLike = 0):
        coeffs = [Fraction(c) for c in (c20, c11, c02, c10, c01, c00)]
        den = lcm(*(c.denominator for c in coeffs))  # the least, so the form is in lowest terms
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", tuple(c.numerator * den // c.denominator for c in coeffs))

    c20, c11, c02, c10, c01, c00 = map(_coefficient, range(6))

    def __reduce__(self):  # pickled by its coefficients, as the slots are frozen
        return QuadPoly, self.coefficients()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: RationalLike) -> "QuadPoly":
        return QuadPoly(c00=c)

    @staticmethod
    def x() -> "QuadPoly":
        return QuadPoly(c10=1)

    @staticmethod
    def y() -> "QuadPoly":
        return QuadPoly(c01=1)

    # -- ring operations (degree capped at 2) ------------------------------

    @property
    def degree(self) -> int:
        if any(self.nums[:3]):
            return 2
        if any(self.nums[3:5]):
            return 1
        return 0

    @property
    def period(self) -> int:
        """1: a quadratic is the period-1 case of a quasi-polynomial."""
        return 1

    @property
    def branches(self) -> tuple["QuadPoly"]:
        return (self,)

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __add__(self, other: "QuadPoly") -> "QuadPoly":
        if not isinstance(other, QuadPoly):
            return NotImplemented
        return QuadPoly(*(a + b for a, b in zip(self.coefficients(), other.coefficients())))

    def __sub__(self, other: "QuadPoly") -> "QuadPoly":
        if not isinstance(other, QuadPoly):
            return NotImplemented
        return QuadPoly(*(a - b for a, b in zip(self.coefficients(), other.coefficients())))

    def __neg__(self) -> "QuadPoly":
        return QuadPoly(*(-a for a in self.coefficients()))

    def scale(self, k: RationalLike) -> "QuadPoly":
        k = Fraction(k)
        return QuadPoly(*(k * a for a in self.coefficients()))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, QuadPoly):
            return NotImplemented
        if self.degree + other.degree > 2:
            raise SectorPackError("product would exceed degree 2")
        f, g = self, other
        return QuadPoly(
            c20=f.c10 * g.c10 + f.c20 * g.c00 + f.c00 * g.c20,
            c11=f.c10 * g.c01 + f.c01 * g.c10 + f.c11 * g.c00 + f.c00 * g.c11,
            c02=f.c01 * g.c01 + f.c02 * g.c00 + f.c00 * g.c02,
            c10=f.c10 * g.c00 + f.c00 * g.c10,
            c01=f.c01 * g.c00 + f.c00 * g.c01,
            c00=f.c00 * g.c00,
        )

    __rmul__ = __mul__

    def __truediv__(self, k: RationalLike) -> "QuadPoly":
        return self.scale(Fraction(1) / Fraction(k))

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, p: Point) -> Fraction:
        """Exact value at the integer point p."""
        x, y = p
        a, b, c, d, e, g = self.nums
        return Fraction((a * x + b * y + d) * x + (c * y + e) * y + g, self.den)

    def compose(self, m: LinearMap2) -> "QuadPoly":
        """The polynomial (x, y) -> self(m(x, y)), expanded symbolically."""
        xi = QuadPoly(c10=m.a, c01=m.b)
        eta = QuadPoly(c10=m.c, c01=m.d)
        return (self.c20 * (xi * xi) + self.c11 * (xi * eta) + self.c02 * (eta * eta)
                + self.c10 * xi + self.c01 * eta + QuadPoly.constant(self.c00))

    def scaled_integer_form(self) -> tuple[int, tuple[int, int, int, int, int, int]]:
        """(den, nums): self = (sum of nums times their monomials) / den.

        Lets hot loops evaluate with plain integers: the value at (x, y) is an
        integer exactly when den divides the integer combination.
        """
        return self.den, self.nums

    def __str__(self) -> str:
        parts = []
        for coeff, mono in zip(self.coefficients(), ("x^2", "x*y", "y^2", "x", "y", "")):
            if not coeff:
                continue
            body = format_rational(coeff) if not mono else (
                mono if coeff == 1 else f"-{mono}" if coeff == -1 else f"{format_rational(coeff)}*{mono}")
            parts.append(body)
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


@dataclass(frozen=True)
class QuasiPoly:
    """A period-m family of quadratics; the branch for (x, y) is branches[x mod m]."""

    period: int
    branches: tuple[QuadPoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        if self.period < 1:
            raise SectorPackError(f"period must be positive, got {self.period}")
        if len(self.branches) != self.period:
            raise SectorPackError(
                f"expected {self.period} branches, got {len(self.branches)}")

    def evaluate(self, p: Point) -> Fraction:
        """Exact value at p, dispatching on x mod period (never on y)."""
        return self.branches[p[0] % self.period].evaluate(p)


PolyLike = Union[QuadPoly, QuasiPoly]


def _quad_to_object(f: QuadPoly) -> dict:
    obj = {}
    for key, coeff in zip(_COEFF_KEYS, f.coefficients()):
        if coeff:
            obj[key] = format_rational(coeff)
    return obj


def _quad_from_object(obj) -> QuadPoly:
    if not isinstance(obj, dict):
        raise PolySyntaxError(f"expected a JSON object for a polynomial, got {obj!r}")
    unknown = set(obj) - set(_COEFF_KEYS)
    if unknown:
        raise PolySyntaxError(f"unknown coefficient keys {sorted(unknown)}")
    coeffs = {key: parse_rational(obj[key]) for key in obj}  # parsed in the object's order
    return QuadPoly(*(coeffs.get(key, 0) for key in _COEFF_KEYS))


def serialize(f: PolyLike) -> str:
    """Single-line JSON for a polynomial or quasi-polynomial; zero coefficients omitted."""
    if isinstance(f, QuadPoly):
        obj = _quad_to_object(f)
    elif isinstance(f, QuasiPoly):
        obj = {"period": f.period, "branches": [_quad_to_object(b) for b in f.branches]}
    else:
        raise TypeError(f"cannot serialize {type(f).__name__}")
    return json.dumps(obj, separators=(",", ":"))


def deserialize(text: str) -> PolyLike:
    """Inverse of serialize; strict about keys, rational syntax, and branch counts."""
    try:
        # an integer past the digit limit fails in _to_int, as an argument does
        obj = json.loads(text, parse_int=_to_int)
    except SectorPackError:
        raise
    except ValueError as exc:
        raise PolySyntaxError(f"invalid polynomial JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise PolySyntaxError("polynomial JSON must be an object")
    if "period" in obj or "branches" in obj:
        unknown = set(obj) - {"period", "branches"}
        if unknown:
            raise PolySyntaxError(f"unknown quasi-polynomial keys {sorted(unknown)}")
        period = obj.get("period")
        branches = obj.get("branches")
        if not isinstance(period, int) or isinstance(period, bool) or period < 1:
            raise PolySyntaxError(f"period must be a positive integer, got {period!r}")
        if not isinstance(branches, list):
            raise PolySyntaxError("branches must be a list")
        if len(branches) != period:
            raise PolySyntaxError(f"period {period} with {len(branches)} branches")
        return QuasiPoly(period, tuple(_quad_from_object(b) for b in branches))
    return _quad_from_object(obj)

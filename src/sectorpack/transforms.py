"""Integer 2x2 linear maps on lattice points.

The named factories build the maps that move packing problems between
sectors: shears onto reciprocal-integer sectors, the basis swap, and the
two sector involutions.  All maps here are unimodular; composition and
inversion stay in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Point, SectorPackError


@dataclass(frozen=True)
class LinearMap2:
    """The matrix [[a, b], [c, d]] acting as (x, y) -> (a*x + b*y, c*x + d*y)."""

    a: int
    b: int
    c: int
    d: int

    @staticmethod
    def identity() -> "LinearMap2":
        return LinearMap2(1, 0, 0, 1)

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply(self, p: Point) -> tuple[int, int]:
        """Image of p; may leave the first quadrant (callers check membership)."""
        x, y = p
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def compose(self, other: "LinearMap2") -> "LinearMap2":
        """Matrix product self * other, i.e. apply `other` first."""
        return LinearMap2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    __matmul__ = compose

    def inverse(self) -> "LinearMap2":
        """Exact integer inverse; defined only for unimodular maps."""
        det = self.det
        if det == 1:
            return LinearMap2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return LinearMap2(-self.d, self.b, self.c, -self.a)
        raise SectorPackError(f"map with determinant {det} has no integer inverse")

    def rows(self) -> tuple[int, int, int, int]:
        """Entries in row-major order (a, b, c, d)."""
        return (self.a, self.b, self.c, self.d)


def lambda_map(s: int) -> LinearMap2:
    """The shear [[1, s], [0, 1]]: carries the quadrant onto the sector of slope 1/s."""
    if s < 0:
        raise SectorPackError(f"shear parameter must be nonnegative, got {s}")
    return LinearMap2(1, s, 0, 1)


def m_map(s: int) -> LinearMap2:
    """[[s, 1], [1, 0]]: the second quadrant-to-slope-1/s map (the shear times a swap)."""
    if s < 0:
        raise SectorPackError(f"map parameter must be nonnegative, got {s}")
    return LinearMap2(s, 1, 1, 0)


def phi_map(s: int) -> LinearMap2:
    """[[s, 1 - s^2], [1, -s]]: the involution of the sector of slope 1/s."""
    if s < 0:
        raise SectorPackError(f"map parameter must be nonnegative, got {s}")
    return LinearMap2(s, 1 - s * s, 1, -s)


def psi_map(r: int) -> LinearMap2:
    """[[1, 0], [r, -1]], i.e. (x, y) -> (x, r*x - y): the involution of the slope-r sector."""
    if r < 1:
        raise SectorPackError(f"reflection parameter must be positive, got {r}")
    return LinearMap2(1, 0, r, -1)

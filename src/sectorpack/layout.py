"""Sector-shaped arrays in linear memory, addressed by a packing function.

A SectorArray stores the cell for point p at offset rank(p) in one
contiguous, doubling buffer.  Because the family's rank is a bijection onto
the nonnegative integers, distinct points never collide and a filled rank
prefix is gap-free: n points occupy exactly the first n cells.  Cell k holds
the family's k-th point, so the dense fill and iteration walk the points in
rank order (PackingFamily.walk) instead of unranking each offset.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterator

from .core import Point, SectorPackError
from .packing import PackingFamily

_EMPTY = object()  # distinct from any stored value, including None


class CapacityError(SectorPackError):
    """The point's offset exceeds the machine-word addressing range."""


def check_fill_count(n: int) -> None:
    """Reject a dense fill of n cells: below zero, or past the addressing range."""
    if n < 0:
        raise SectorPackError(f"fill count must be nonnegative, got {n}")
    if n - 1 > sys.maxsize:
        raise CapacityError(f"fill count {n} exceeds the addressable range")


class SectorArray:
    """Growable dense container over a packing family's sector.

    Single-writer, multiple-reader: no internal locking; concurrent reads
    are safe once writes are externally serialized.
    """

    def __init__(self, family: PackingFamily):
        self.family = family
        self._cells: list[Any] = []
        self._population = 0

    @property
    def population(self) -> int:
        """Number of occupied cells."""
        return self._population

    @property
    def storage_length(self) -> int:
        """Current buffer length; zero when empty, otherwise a power of two."""
        return len(self._cells)

    def __len__(self) -> int:
        return self._population

    def _offset(self, p: Point) -> int:
        offset = self.family.rank(p)
        # ranks are exact big integers; the buffer index must stay a machine word
        if offset > sys.maxsize:
            raise CapacityError(
                f"offset {offset} for point {p} exceeds the addressable range")
        return offset

    def _grow_to(self, offset: int) -> None:
        if offset < len(self._cells):
            return
        length = max(len(self._cells), 1)
        while length <= offset:
            length *= 2
        self._cells.extend([_EMPTY] * (length - len(self._cells)))

    def put(self, p: Point, value: Any) -> Any:
        """Store value at p's offset; returns the displaced value, or None."""
        offset = self._offset(p)
        self._grow_to(offset)
        previous = self._cells[offset]
        self._cells[offset] = value
        if previous is _EMPTY:
            self._population += 1
            return None
        return previous

    def get(self, p: Point) -> Any:
        """Value stored at p, or None when the cell is empty."""
        offset = self._offset(p)
        if offset >= len(self._cells):
            return None
        value = self._cells[offset]
        return None if value is _EMPTY else value

    def iterate(self) -> Iterator[tuple[Point, Any]]:
        """Occupied cells in offset order, each with its point from the family's walk.

        The walk advances past empty cells too, so this costs one step per
        cell of storage, occupied or not.
        """
        # cells first: zip stops at the buffer's end without stepping the walk
        for value, p in zip(self._cells, self.family.walk()):
            if value is not _EMPTY:
                yield p, value

    def dense_prefix_fill(self, n: int, generator: Callable[[Point], Any]) -> None:
        """Fill the cells of ranks 0..n-1 with generator(p), walking the points
        in rank order; the packing property makes this gap-free."""
        check_fill_count(n)
        self._grow_to(n - 1)  # a point's rank is its offset, so none is ranked again
        cells = self._cells
        for rank, p in zip(range(n), self.family.walk()):
            if cells[rank] is _EMPTY:
                self._population += 1
            cells[rank] = generator(p)

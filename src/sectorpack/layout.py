"""Sector-shaped arrays in linear memory, addressed by a packing function.

A SectorArray stores the cell for point p at offset rank(p) in one
contiguous, doubling buffer.  Because the family's rank is a bijection onto
the nonnegative integers, distinct points never collide and a filled rank
prefix is gap-free: n points occupy exactly the first n cells.  Cell k holds
the family's k-th point, so the dense fill and iteration walk the points in
rank order (PackingFamily.walk) instead of unranking each offset.
"""

from __future__ import annotations

import operator
import sys
from itertools import islice, repeat
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


def _check_addressable(offset: int, p: Point) -> None:
    # ranks are exact big integers; the buffer index must stay a machine word
    if offset > sys.maxsize:
        raise CapacityError(f"offset {offset} for point {p} exceeds the addressable range")


class SectorArray:
    """Growable dense container over a packing family's sector.

    Single-writer, multiple-reader: no internal locking; concurrent reads
    are safe once writes are externally serialized.
    """

    def __init__(self, family: PackingFamily):
        self.family = family
        self._cells: list[Any] = []
        self._population = 0
        self._end = 0  # one past the highest occupied offset

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

    def _grow_to(self, offset: int) -> None:
        # to the least power of two past offset; the length is 0 or a power of two already
        if offset >= len(self._cells):
            self._cells.extend([_EMPTY] * ((1 << offset.bit_length()) - len(self._cells)))

    def put(self, p: Point, value: Any) -> Any:
        """Store value at p's offset; returns the displaced value, or None."""
        offset = self.family.rank(p)
        cells = self._cells
        if offset >= len(cells):
            _check_addressable(offset, p)
            self._grow_to(offset)
        previous = cells[offset]
        cells[offset] = value
        if previous is _EMPTY:
            self._population += 1
            self._end = max(self._end, offset + 1)
            return None
        return previous

    def get(self, p: Point) -> Any:
        """Value stored at p, or None when the cell is empty."""
        offset = self.family.rank(p)
        if offset >= len(self._cells):
            _check_addressable(offset, p)
            return None
        value = self._cells[offset]
        return None if value is _EMPTY else value

    def iterate(self) -> Iterator[tuple[Point, Any]]:
        """Occupied cells in offset order, each with its point from the family's walk.

        The walk stops at the highest occupied cell.  When every cell below
        it is occupied, the pairs come from a C-level zip; otherwise the walk
        also steps past the empty cells, one step per cell.
        """
        cells, end = self._cells, self._end
        walk = islice(self.family.walk(), end)
        if self._population == end:
            return zip(walk, cells)
        # cells first: zip stops at the mark without stepping the walk again
        return ((p, value) for value, p in zip(islice(cells, end), walk) if value is not _EMPTY)

    def dense_prefix_fill(self, n: int, generator: Callable[[Point], Any]) -> None:
        """Fill the cells of ranks 0..n-1 with generator(p), walking the points
        in rank order; the packing property makes this gap-free.

        Every value is made before any cell is written, so a generator that
        raises leaves the array as it was, its storage length included.  The
        cells at or past `_end` are empty, and those below it are all occupied
        unless the population is below `_end`, so only then are the cells of
        the prefix below `_end` counted one by one.
        """
        check_fill_count(n)
        cells = self._cells
        length = len(cells)
        self._grow_to(n - 1)  # first, so that a count past memory fails before any call
        try:
            values = list(map(generator, islice(self.family.walk(), n)))
        except BaseException:
            del cells[length:]
            raise
        end = self._end
        if self._population < end:
            self._population += sum(map(operator.is_, islice(cells, min(n, end)), repeat(_EMPTY)))
        self._population += max(0, n - end)
        cells[:n] = values
        self._end = max(end, n)

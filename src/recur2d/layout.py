"""Initial-conditions layouts: coordinate sets carrying prescribed values.

A layout seeds a fill. The named generators build the two constructions the
fill engine can complete a window from:

* standard: m consecutive rows (0..m-1) across the window's column span, plus
  u columns anchored at ``a`` covering every window row above row 0, plus l
  columns anchored at ``d`` covering every window row at or below row m;
* diagonal: the main diagonal plus the cells of one row k strictly left of it.

Values come from a value source — an explicit coordinate map or a named
generator — so fixtures and property sweeps share one code path. Layouts are
immutable after construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .errors import LayoutOutOfWindow, MixedFieldError, NonContiguousExtremeRow
from .field import FieldDescriptor, Scalar, one, zero
from .overlay import Overlay
from .window import Bounds

Coord = tuple[int, int]
ValueSource = Callable[[Coord], Scalar]


# -- value sources -------------------------------------------------------

def zero_values(fd: FieldDescriptor) -> ValueSource:
    return lambda coord: zero(fd)


def delta_values(fd: FieldDescriptor) -> ValueSource:
    """1 at the origin, 0 everywhere else."""
    return lambda coord: one(fd) if coord == (0, 0) else zero(fd)


def indicator_values(at: Coord, fd: FieldDescriptor) -> ValueSource:
    """1 at ``at``, 0 everywhere else."""
    return lambda coord: one(fd) if coord == at else zero(fd)


def random_values(seed: int, fd: FieldDescriptor) -> ValueSource:
    """Deterministic pseudo-random values, drawn in coordinate visit order."""
    rng = random.Random(seed)

    def draw(coord: Coord) -> Scalar:
        if fd.kind == "rationals":
            return Scalar(fd, Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
        return Scalar(fd, rng.randrange(fd.p))

    return draw


def explicit_values(mapping: dict[Coord, Scalar]) -> ValueSource:
    def lookup(coord: Coord) -> Scalar:
        try:
            return mapping[coord]
        except KeyError:
            raise ValueError(f"no value prescribed for coordinate {coord}") from None

    return lookup


# -- provenance ----------------------------------------------------------

@dataclass(frozen=True)
class StandardProvenance:
    a: int
    d: int

    kind = "standard"

    def params(self) -> dict:
        return {"a": self.a, "d": self.d}


@dataclass(frozen=True)
class DiagonalProvenance:
    k: int

    kind = "diagonal"

    def params(self) -> dict:
        return {"k": self.k}


@dataclass(frozen=True)
class CustomProvenance:
    kind = "custom"

    def params(self) -> dict:
        return {}


Provenance = StandardProvenance | DiagonalProvenance | CustomProvenance


class Layout:
    """Immutable coordinate -> value map with a record of how it was generated."""

    def __init__(self, prescribed: dict[Coord, Scalar], provenance: Provenance):
        self.prescribed = dict(prescribed)
        self.provenance = provenance

    @property
    def coords(self) -> list[Coord]:
        return list(self.prescribed.keys())

    def value_at(self, coord: Coord) -> Scalar:
        return self.prescribed[coord]

    def __len__(self) -> int:
        return len(self.prescribed)

    def __contains__(self, coord: Coord) -> bool:
        return coord in self.prescribed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return (self.prescribed == other.prescribed
                and self.provenance == other.provenance)

    def __repr__(self) -> str:
        return f"Layout({self.provenance.kind}, {len(self.prescribed)} coords)"

    def checked(self, field: FieldDescriptor, bounds: Bounds) -> Iterator[tuple[Coord, Scalar]]:
        """(coord, value) in layout order, refusing a coordinate outside ``bounds``
        (LayoutOutOfWindow) and a value of another field (MixedFieldError)."""
        for coord, value in self.prescribed.items():
            if not bounds.contains(*coord):
                raise LayoutOutOfWindow(f"layout coordinate {coord} outside {bounds}")
            if value.field != field:
                raise MixedFieldError(f"cell value field {value.field!r} does not match "
                                      f"window field {field!r}")
            yield coord, value

    def with_values(self, source: ValueSource) -> "Layout":
        """Same coordinates and provenance, values re-drawn from ``source``."""
        return Layout({coord: source(coord) for coord in self.prescribed},
                      self.provenance)

    def to_json_obj(self) -> dict:
        return {
            "kind": self.provenance.kind,
            "params": self.provenance.params(),
            "values": [{"r": r, "c": c, "value": v.render()}
                       for (r, c), v in self.prescribed.items()],
        }


# -- coordinate generators ------------------------------------------------

def standard_coords(overlay: Overlay, bounds: Bounds, a: int, d: int) -> list[Coord]:
    """The standard layout's coordinate set, clipped to ``bounds``.

    Raises NonContiguousExtremeRow when the overlay's extreme rows have
    interior zeros (the row-march construction needs contiguous pivot blocks),
    and LayoutOutOfWindow when the window cannot host the required rows or
    column stubs.
    """
    if not overlay.extreme_rows_contiguous():
        raise NonContiguousExtremeRow(
            "overlay rows m and 0 must have contiguous nonzeros for the standard layout")
    m, u, l = overlay.m, overlay.u, overlay.l
    if m >= 1 and (bounds.r_min > 0 or bounds.r_max < m - 1):
        raise LayoutOutOfWindow(
            f"window rows {bounds.r_min}..{bounds.r_max} do not contain rows 0..{m - 1}")
    coords: list[Coord] = []
    for r in range(0, m):
        for c in range(bounds.c_min, bounds.c_max + 1):
            coords.append((r, c))
    rows_above = range(bounds.r_min, min(0, bounds.r_max + 1))
    if u > 0 and len(rows_above) > 0:
        if a < bounds.c_min or a + u - 1 > bounds.c_max:
            raise LayoutOutOfWindow(
                f"upper column stubs {a}..{a + u - 1} exceed window columns")
        for r in rows_above:
            for c in range(a, a + u):
                coords.append((r, c))
    rows_below = range(max(m, bounds.r_min), bounds.r_max + 1)
    if l > 0 and len(rows_below) > 0:
        if d < bounds.c_min or d + l - 1 > bounds.c_max:
            raise LayoutOutOfWindow(
                f"lower column stubs {d}..{d + l - 1} exceed window columns")
        for r in rows_below:
            for c in range(d, d + l):
                coords.append((r, c))
    return coords


def diagonal_coords(k: int, bounds: Bounds) -> list[Coord]:
    """Main-diagonal cells plus the row-k cells left of the diagonal, clipped to ``bounds``."""
    lo = max(bounds.r_min, bounds.c_min)
    hi = min(bounds.r_max, bounds.c_max)
    if lo > hi:
        raise LayoutOutOfWindow("window does not intersect the main diagonal")
    coords: list[Coord] = [(i, i) for i in range(lo, hi + 1)]
    if bounds.r_min <= k <= bounds.r_max:
        for c in range(bounds.c_min, min(k - 1, bounds.c_max) + 1):
            coords.append((k, c))
    return coords


# -- constructors ---------------------------------------------------------

def standard_layout(overlay: Overlay, bounds: Bounds, a: int, d: int,
                    values: ValueSource) -> Layout:
    coords = standard_coords(overlay, bounds, a, d)
    return Layout({coord: values(coord) for coord in coords},
                  StandardProvenance(a, d))


def diagonal_layout(k: int, bounds: Bounds, values: ValueSource) -> Layout:
    coords = diagonal_coords(k, bounds)
    return Layout({coord: values(coord) for coord in coords},
                  DiagonalProvenance(k))


def custom_layout(prescribed: dict[Coord, Scalar],
                  bounds: Bounds | None = None) -> Layout:
    if bounds is not None:
        for coord in prescribed:
            if not bounds.contains(*coord):
                raise LayoutOutOfWindow(f"coordinate {coord} outside {bounds}")
    return Layout(dict(prescribed), CustomProvenance())

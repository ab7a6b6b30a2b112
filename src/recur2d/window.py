"""Finite rectangular views of the infinite Z^2-indexed array.

A window stores one cell state per coordinate of an inclusive rectangle in a
flat row-major list (:meth:`Bounds.index`): ``None`` for Unknown, a raw field
payload for Known; a :class:`Scalar` is built only when a cell is read. Known(0)
and Unknown are deliberately distinct — prescribed zeros carry information.
Reads outside the bounds return Unknown; writes outside them are errors.

Windows are mutable while being filled and can be frozen; every published
result is a frozen snapshot. The fill engine propagates over such a list and
hands it to its result window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import FrozenWindowError, MixedFieldError, ShapeMismatch
from .field import FieldDescriptor, Scalar, parse_scalar, zero


@dataclass(frozen=True)
class Bounds:
    """Inclusive rectangle r_min..r_max x c_min..c_max."""

    r_min: int
    r_max: int
    c_min: int
    c_max: int

    def __post_init__(self):
        if self.r_min > self.r_max or self.c_min > self.c_max:
            raise ShapeMismatch(f"empty bounds {self}")

    @property
    def height(self) -> int:
        return self.r_max - self.r_min + 1

    @property
    def width(self) -> int:
        return self.c_max - self.c_min + 1

    def contains(self, r: int, c: int) -> bool:
        return self.r_min <= r <= self.r_max and self.c_min <= c <= self.c_max

    def coords(self) -> Iterator[tuple[int, int]]:
        """All coordinates in row-major order."""
        for r in range(self.r_min, self.r_max + 1):
            for c in range(self.c_min, self.c_max + 1):
                yield (r, c)

    def index(self, r: int, c: int) -> int:
        """Row-major flat index of (r, c): its position in :meth:`coords`
        when in bounds."""
        return (r - self.r_min) * self.width + c - self.c_min


class ArrayWindow:
    """Dense grid of cell states over a :class:`Bounds`: one raw payload per
    cell in row-major order, None for Unknown."""

    def __init__(self, bounds: Bounds, field: FieldDescriptor):
        self.bounds = bounds
        self.field = field
        self._cells: list = [None] * (bounds.height * bounds.width)
        self._frozen = False

    @classmethod
    def _adopt(cls, bounds: Bounds, field: FieldDescriptor, cells: list) -> "ArrayWindow":
        """A frozen window that takes over ``cells``, a row-major payload list."""
        window = cls(bounds, field)
        window._cells = cells
        return window.freeze()

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "ArrayWindow":
        self._frozen = True
        return self

    def copy(self) -> "ArrayWindow":
        """Mutable copy (the copy is never frozen)."""
        out = ArrayWindow(self.bounds, self.field)
        out._cells = self._cells[:]
        return out

    def get(self, r: int, c: int) -> Scalar | None:
        """Cell state; Unknown (None) for out-of-bounds coordinates."""
        if not self.bounds.contains(r, c):
            return None
        v = self._cells[self.bounds.index(r, c)]
        return None if v is None else Scalar(self.field, v)

    def set(self, r: int, c: int, value: Scalar) -> None:
        if self._frozen:
            raise FrozenWindowError(f"window is frozen; cannot set ({r},{c})")
        if not self.bounds.contains(r, c):
            raise ValueError(f"({r},{c}) outside bounds {self.bounds}")
        if value.field != self.field:
            raise MixedFieldError(
                f"cell value field {value.field!r} does not match window field {self.field!r}")
        self._cells[self.bounds.index(r, c)] = value.value

    def known_cells(self) -> Iterator[tuple[int, int, Scalar]]:
        """(r, c, value) for every Known cell, row-major."""
        for (r, c), v in zip(self.bounds.coords(), self._cells):
            if v is not None:
                yield (r, c, Scalar(self.field, v))

    def unknown_coords(self) -> list[tuple[int, int]]:
        """Unknown coordinates, row-major; a tuple is built for Unknown cells only."""
        b, width = self.bounds, self.bounds.width
        return [(b.r_min + k // width, b.c_min + k % width)
                for k, v in enumerate(self._cells) if v is None]

    def is_complete(self) -> bool:
        return all(v is not None for v in self._cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArrayWindow):
            return NotImplemented
        return (self.bounds == other.bounds and self.field == other.field
                and self._cells == other._cells)

    def __repr__(self) -> str:
        known = sum(v is not None for v in self._cells)
        return (f"ArrayWindow({self.bounds}, {self.field!r}, "
                f"{known}/{len(self._cells)} known)")

    # -- exports ---------------------------------------------------------

    def _rendered_rows(self) -> list[list[str]]:
        """Each row's rendered cells, '?' for Unknown, smallest row first."""
        text = ["?" if v is None else Scalar(self.field, v).render() for v in self._cells]
        width = self.bounds.width
        return [text[k:k + width] for k in range(0, len(text), width)]

    def to_tsv(self) -> str:
        """Row-major TSV grid; '?' marks Unknown cells."""
        return "".join("\t".join(row) + "\n" for row in self._rendered_rows())

    def to_json_obj(self) -> dict:
        """{bounds, cells:[{r,c,value}]} with only Known cells listed."""
        b = self.bounds
        return {"bounds": {"r_min": b.r_min, "r_max": b.r_max, "c_min": b.c_min, "c_max": b.c_max},
                "cells": [{"r": r, "c": c, "value": v.render()}
                          for r, c, v in self.known_cells()]}

    @classmethod
    def from_json_obj(cls, obj: dict, field: FieldDescriptor) -> "ArrayWindow":
        b = obj["bounds"]
        w = cls(Bounds(b["r_min"], b["r_max"], b["c_min"], b["c_max"]), field)
        for cell in obj["cells"]:
            w.set(cell["r"], cell["c"], parse_scalar(str(cell["value"]), field))
        return w

    def to_ascii(self) -> str:
        """Human-oriented grid with row/column labels; smaller row indices on top."""
        header = ["r\\c"] + [str(c) for c in range(self.bounds.c_min, self.bounds.c_max + 1)]
        return _ascii_grid([header] + [[str(r)] + row for r, row in
                                       zip(range(self.bounds.r_min, self.bounds.r_max + 1),
                                           self._rendered_rows())])


def _ascii_grid(rows: list[list[str]]) -> str:
    """One line per row: each column right-justified to its widest cell,
    columns two spaces apart."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join("  ".join(s.rjust(w) for s, w in zip(row, widths)) + "\n"
                   for row in rows)


def window_from_cells(bounds: Bounds, field: FieldDescriptor,
                      cells: dict[tuple[int, int], Scalar]) -> ArrayWindow:
    w = ArrayWindow(bounds, field)
    for (r, c), v in cells.items():
        w.set(r, c, v)
    return w


def window_linear_combine(pairs: list[tuple[Scalar, ArrayWindow]]) -> ArrayWindow:
    """Entry-wise sum of alpha_k * w_k; a cell is Known iff it is Known in all inputs.

    All windows (and the coefficients) must share one field and one bounds. The
    result is not frozen. Over Q each cell is summed fraction-free, as the fill
    evaluates: on an int numerator/denominator pair that cross-multiplies only
    where two denominators differ, with one Fraction built per Known cell.
    """
    if not pairs:
        raise ShapeMismatch("nothing to combine")
    first = pairs[0][1]
    for alpha, w in pairs:
        if w.bounds != first.bounds:
            raise ShapeMismatch(f"bounds {w.bounds} != {first.bounds}")
        if w.field != first.field or alpha.field != first.field:
            raise MixedFieldError("all windows and coefficients must share one field")
    fd = first.field
    start = zero(fd).value
    out = ArrayWindow(first.bounds, fd)
    if fd.p is not None:
        alphas = [alpha.value for alpha, _ in pairs]
        for k, column in enumerate(zip(*(w._cells for _, w in pairs))):
            acc = start
            for alpha, v in zip(alphas, column):
                if v is None:
                    break
                acc += alpha * v
            else:
                out._cells[k] = fd.reduce(acc)
        return out
    size = len(first._cells)
    known = bytearray(b"\1") * size
    nums, dens = [0] * size, [1] * size
    for alpha, w in pairs:
        a_num, a_den = alpha.value.numerator, alpha.value.denominator
        for k, v in enumerate(w._cells):
            if v is None:
                known[k] = 0
            elif a_num and (v_num := v.numerator):
                num, den, d = a_num * v_num, a_den * v.denominator, dens[k]
                if den == d:
                    nums[k] += num
                else:
                    nums[k], dens[k] = nums[k] * den + num * d, d * den
    out._cells = [None if not ok else Fraction(num, den) if num else start
                  for ok, num, den in zip(known, nums, dens)]
    return out


def emit_series_terms(w: ArrayWindow) -> list[tuple[int, int, Scalar]]:
    """Known nonzero cells as generating-series terms (r, c, value), sorted by (r, c)."""
    return [(r, c, v) for r, c, v in w.known_cells() if not v.is_zero()]

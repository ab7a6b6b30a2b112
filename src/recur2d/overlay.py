"""Overlays: a template normalized onto a dense coefficient grid.

The overlay of a template is the (m+1) x (n+1) grid b_{i,j} holding the
coefficient of Y^i X^j after translating exponents so both minimums are 0 (the
translation is recorded as ``shift``). Sliding the grid over an array and
requiring the entry-wise product-sum to vanish at every placement expresses
the recurrence sum b_{i,j} * A_{r-i,c-j} = 0.

Internal indexing is (i, j) as in the terms: row 0 is the grid's bottom row
and column 0 its rightmost column. Renderers and the JSON form flip to display
orientation (row m on top, column n leftmost); only the renderers flip.

Shape metadata (all recomputed from the grid, never stored):
  m, n -- height-1 and width-1;
  u, l -- nonzero bounding span of row m / row 0, minus 1;
  s, t -- smallest column index carrying a nonzero in row m / row 0
          (the right-most nonzero in display orientation).
"""

from __future__ import annotations

from .errors import InvalidOverlayError, ZeroTemplateError
from .field import FieldDescriptor, Scalar, zero
from .template import Template
from .window import Bounds, _ascii_grid


class Overlay:
    def __init__(self, field: FieldDescriptor, grid: list[list[Scalar]],
                 shift: tuple[int, int] = (0, 0)):
        if not grid or not grid[0]:
            raise InvalidOverlayError("overlay grid must be non-empty")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise InvalidOverlayError("overlay grid must be rectangular")
        for row in grid:
            for cell in row:
                if cell.field != field:
                    raise InvalidOverlayError(
                        f"coefficient field {cell.field!r} != overlay field {field!r}")
        self.field = field
        self._grid = [row[:] for row in grid]
        self.shift = shift
        self._validate_boundary()

    def _validate_boundary(self) -> None:
        m, n = self.m, self.n
        if not any(self._grid[0][j] for j in range(n + 1)):
            raise InvalidOverlayError("row 0 has no nonzero entry")
        if not any(self._grid[m][j] for j in range(n + 1)):
            raise InvalidOverlayError(f"row {m} has no nonzero entry")
        if not any(self._grid[i][0] for i in range(m + 1)):
            raise InvalidOverlayError("column 0 has no nonzero entry")
        if not any(self._grid[i][n] for i in range(m + 1)):
            raise InvalidOverlayError(f"column {n} has no nonzero entry")

    # -- shape metadata (derived, never stale) ---------------------------

    @property
    def m(self) -> int:
        return len(self._grid) - 1

    @property
    def n(self) -> int:
        return len(self._grid[0]) - 1

    def _row_span(self, i: int) -> tuple[int, int]:
        """(first, last) nonzero column of grid row i."""
        cols = [j for j in range(self.n + 1) if self._grid[i][j]]
        return (cols[0], cols[-1])

    @property
    def u(self) -> int:
        first, last = self._row_span(self.m)
        return last - first

    @property
    def l(self) -> int:
        first, last = self._row_span(0)
        return last - first

    @property
    def s(self) -> int:
        return self._row_span(self.m)[0]

    @property
    def t(self) -> int:
        return self._row_span(0)[0]

    def extreme_rows_contiguous(self) -> bool:
        """True when rows m and 0 have no zeros inside their nonzero spans."""
        for i in (self.m, 0):
            first, last = self._row_span(i)
            if any(not self._grid[i][j] for j in range(first, last + 1)):
                return False
        return True

    # -- access ----------------------------------------------------------

    def coefficient(self, i: int, j: int) -> Scalar:
        if not (0 <= i <= self.m and 0 <= j <= self.n):
            return zero(self.field)
        return self._grid[i][j]

    def nonzero_cells(self) -> list[tuple[int, int, Scalar]]:
        """(i, j, coefficient) for every nonzero grid entry, in (i, j) order."""
        return [(i, j, self._grid[i][j])
                for i in range(self.m + 1) for j in range(self.n + 1)
                if self._grid[i][j]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Overlay):
            return NotImplemented
        return (self.field == other.field and self._grid == other._grid
                and self.shift == other.shift)

    def __repr__(self) -> str:
        return f"Overlay({(self.m + 1)}x{(self.n + 1)} over {self.field!r})"

    # -- the recurrence --------------------------------------------------

    def placement_equation(self, r: int, c: int) -> list[tuple[tuple[int, int], Scalar]]:
        """The linear equation asserted by placing cell (0,0) of the grid at (r, c):
        sum of coeff * A at the listed coordinates equals zero."""
        return [((r - i, c - j), coeff) for i, j, coeff in self.nonzero_cells()]

    def placements_within(self, bounds: Bounds) -> list[tuple[int, int]]:
        """All placements whose full stencil lies inside ``bounds``, row-major."""
        return [(r, c)
                for r in range(bounds.r_min + self.m, bounds.r_max + 1)
                for c in range(bounds.c_min + self.n, bounds.c_max + 1)]

    # -- conversions -----------------------------------------------------

    @classmethod
    def from_template(cls, t: Template) -> "Overlay":
        if t.is_zero():
            raise ZeroTemplateError("the zero template has no overlay")
        min_i = min(i for i, _ in t.terms)
        min_j = min(j for _, j in t.terms)
        max_i = max(i for i, _ in t.terms)
        max_j = max(j for _, j in t.terms)
        grid = [[zero(t.field)] * (max_j - min_j + 1)
                for _ in range(max_i - min_i + 1)]
        for (i, j), coeff in t.terms.items():
            grid[i - min_i][j - min_j] = coeff
        return cls(t.field, grid, shift=(min_i, min_j))

    def to_template(self) -> Template:
        """Inverse of from_template: re-applies the recorded shift, so
        Overlay.from_template(o.to_template()) == o."""
        dr, dc = self.shift
        return Template(self.field, {
            (i + dr, j + dc): coeff for i, j, coeff in self.nonzero_cells()
        })

    def to_display_grid(self) -> list[list[Scalar]]:
        """Grid in display orientation: row m first, column n leftmost."""
        m, n = self.m, self.n
        return [[self._grid[m - di][n - dj] for dj in range(n + 1)]
                for di in range(m + 1)]

    @classmethod
    def from_display_grid(cls, field: FieldDescriptor, rows: list[list[Scalar]],
                          shift: tuple[int, int] = (0, 0)) -> "Overlay":
        if not rows or not rows[0]:
            raise InvalidOverlayError("overlay grid must be non-empty")
        m = len(rows) - 1
        n = len(rows[0]) - 1
        if any(len(row) != n + 1 for row in rows):
            raise InvalidOverlayError("overlay grid must be rectangular")
        grid = [[rows[m - i][n - j] for j in range(n + 1)] for i in range(m + 1)]
        return cls(field, grid, shift=shift)

    def to_ascii(self) -> str:
        """Display-oriented grid; zeros shown as '.' so the stencil shape stays visible."""
        return _ascii_grid([[cell.render() if cell else "." for cell in row]
                            for row in self.to_display_grid()])

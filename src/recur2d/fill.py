"""Constructive window filling by sliding an overlay over a seeded window.

Each placement of the overlay inside the window is one linear equation over the
cells it touches; a placement whose equation has exactly one Unknown cell
(necessarily under a nonzero coefficient — zero-coefficient cells never appear
in an equation) solves that cell by dividing the known part by the negated
pivot coefficient. The engine is a counter worklist (Dowling & Gallier, J.
Logic Programming 1984): each placement counts its Unknown cells and is visited
when the count reaches one, in the order a restart scan (rescanning the
placement list until a sweep solves nothing) would solve it, so the step log is
that scan's. It works on the window's own cell store, a flat row-major list of
raw field payloads (None for Unknown; see ``Bounds.index``), reducing each
solved value with ``FieldDescriptor.reduce``, and hands that list over to the
result window. Scalars are built only for the logged steps.

After the fixpoint every fully-Known placement that solved no cell is
re-checked (a solving placement's residual is zero by construction); a
nonzero residual makes the result Inconsistent with that placement as the
witness. Otherwise the result is Complete, or Partial with the list of cells
no in-window chain of solves can reach. Cells whose stencil would exit the
window are never extrapolated.

The derivable-cell set is a least fixpoint of a monotone enabling relation,
so it does not depend on scan order; scan order is fixed (and seedable) only
to make step logs reproducible.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass
from typing import Iterator

from .errors import (CoordinateNotInLayout, LayoutOutOfWindow, MixedFieldError,
                     NonStandardLayout, ShapeMismatch)
from .field import FieldDescriptor, Scalar, parse_scalar
from .layout import (DiagonalProvenance, Layout, StandardProvenance,
                     indicator_values)
from .oracle import INCONSISTENT
from .overlay import Overlay
from .window import ArrayWindow, Bounds, window_linear_combine

COMPLETE = "complete"
PARTIAL = "partial"


@dataclass(frozen=True)
class FillStep:
    """One solve: at ``placement``, cell ``solved`` was the only Unknown and
    took ``value``; ``pivot`` is the overlay grid index of its coefficient."""

    placement: tuple[int, int]
    solved: tuple[int, int]
    pivot: tuple[int, int]
    value: Scalar

    def to_json_obj(self) -> dict:
        return {"placement": list(self.placement), "solved": list(self.solved),
                "pivot": list(self.pivot), "value": self.value.render()}


@dataclass(frozen=True)
class FillResult:
    window: ArrayWindow
    status: str
    steps: tuple[FillStep, ...]
    unfilled: tuple[tuple[int, int], ...] = ()
    witness: tuple[int, int] | None = None


def steps_to_jsonl(steps: tuple[FillStep, ...]) -> str:
    """Step log as JSON lines, for audit and replay."""
    return "".join(json.dumps(s.to_json_obj(), sort_keys=True) + "\n" for s in steps)


def steps_from_jsonl(text: str, fd: FieldDescriptor) -> tuple[FillStep, ...]:
    steps = []
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        steps.append(FillStep(tuple(obj["placement"]), tuple(obj["solved"]),
                              tuple(obj["pivot"]),
                              parse_scalar(obj["value"], fd)))
    return tuple(steps)


def _seed(overlay: Overlay, layout: Layout, bounds: Bounds) -> tuple[list, list[tuple]]:
    """The window as a flat row-major list of payloads (None for Unknown), and
    the stencil: (flat offset, coefficient, -1/coefficient, grid index (i, j))
    per nonzero coefficient. Cell (r - i, c - j) of an in-window placement
    (r, c) lies at that offset from the placement's flat index."""
    cells = [None] * (bounds.height * bounds.width)
    for coord, value in layout.prescribed.items():
        if not bounds.contains(*coord):
            raise LayoutOutOfWindow(f"layout coordinate {coord} outside {bounds}")
        if value.field != overlay.field:
            raise MixedFieldError(f"cell value field {value.field!r} does not match "
                                  f"window field {overlay.field!r}")
        cells[bounds.index(*coord)] = value.value
    return cells, [(bounds.index(bounds.r_min - i, bounds.c_min - j), b.value,
                    pow(-b.value, -1, b.field.p), (i, j))
                   for i, j, b in overlay.nonzero_cells()]


def _equation(cells: list, stencil: list[tuple], at: int) -> tuple[list[tuple], object]:
    """The Unknown stencil entries of the placement at flat index ``at``, and
    the unreduced sum of its Known terms."""
    unknown = []
    known = 0
    for entry in stencil:
        v = cells[at + entry[0]]
        if v is None:
            unknown.append(entry)
        else:
            known += entry[1] * v
    return unknown, known


def _fill_in_order(overlay: Overlay, layout: Layout, bounds: Bounds,
                   placements: list[tuple[int, int]]) -> FillResult:
    """Propagate to the fixpoint, solving exactly as a restart scan of
    ``placements`` would: a placement whose count drops to one is queued by
    (sweep, position), in the current sweep if it lies after the solve that
    readied it, else in the next; one whose count has since reached zero is
    skipped, as the scan would skip it."""
    fd = overlay.field
    cells, stencil = _seed(overlay, layout, bounds)
    at = [bounds.index(r, c) for r, c in placements]
    position = {x: k for k, x in enumerate(at)}
    unknowns = [len(_equation(cells, stencil, x)[0]) for x in at]
    ready = [(0, k) for k, count in enumerate(unknowns) if count == 1]  # sorted: a heap
    steps: list[FillStep] = []
    while ready:
        sweep, k = heapq.heappop(ready)
        if unknowns[k] != 1:
            continue
        [(offset, _, neg_inv, pivot)], known = _equation(cells, stencil, at[k])
        cell = at[k] + offset
        cells[cell] = value = fd.reduce(known * neg_inv)
        r, c = placements[k]
        steps.append(FillStep((r, c), (r - pivot[0], c - pivot[1]), pivot, Scalar(fd, value)))
        for entry in stencil:
            q = position.get(cell - entry[0])
            if q is not None:
                unknowns[q] -= 1
                if unknowns[q] == 1:
                    heapq.heappush(ready, (sweep if q > k else sweep + 1, q))

    # A placement that solved a cell has residual zero by construction.
    solving = {step.placement for step in steps}
    witness = None
    for placement in overlay.placements_within(bounds):
        if placement not in solving:
            unknown, known = _equation(cells, stencil, bounds.index(*placement))
            if not unknown and fd.reduce(known) != 0:
                witness = placement
                break
    unfilled = tuple(coord for coord, v in zip(bounds.coords(), cells) if v is None)
    status = INCONSISTENT if witness is not None else PARTIAL if unfilled else COMPLETE
    return FillResult(ArrayWindow._adopt(bounds, fd, cells), status, tuple(steps),
                      unfilled, witness)


def _redo_steps(overlay: Overlay, layout: Layout, bounds: Bounds,
                steps: tuple[FillStep, ...]) -> ArrayWindow:
    """Seed the window from ``layout`` and re-solve each logged placement in
    order; raises ValueError when one lies off the window or no longer solves
    its logged cell under its logged pivot."""
    cells, stencil = _seed(overlay, layout, bounds)
    for step in steps:
        r, c = step.placement
        if not (bounds.contains(r, c) and bounds.contains(r - overlay.m, c - overlay.n)):
            raise ValueError(f"step {step} places the overlay off {bounds}")
        at = bounds.index(r, c)
        unknown, known = _equation(cells, stencil, at)
        if [((r - i, c - j), (i, j)) for *_, (i, j) in unknown] != [(step.solved, step.pivot)]:
            raise ValueError(f"step {step} does not replay against this layout")
        cells[at + unknown[0][0]] = overlay.field.reduce(known * unknown[0][2])
    return ArrayWindow._adopt(bounds, overlay.field, cells)


def fill(overlay: Overlay, layout: Layout, bounds: Bounds, *,
         order_seed: int | None = None) -> FillResult:
    """Propagate the overlay's recurrence from the layout across the window.

    ``order_seed`` shuffles the placement scan order; it exists so tests can
    demonstrate that the reachable cells and their values are order-independent.
    The default (None) scans placements row-major.
    """
    placements = overlay.placements_within(bounds)
    if order_seed is not None:
        random.Random(order_seed).shuffle(placements)
    return _fill_in_order(overlay, layout, bounds, placements)


def replay(overlay: Overlay, layout: Layout, steps: tuple[FillStep, ...],
           bounds: Bounds) -> ArrayWindow:
    """Re-execute a step log from the layout seed; raises if any step no longer applies."""
    window = _redo_steps(overlay, layout, bounds, steps)
    for step in steps:
        redone = window.get(*step.solved)
        if redone != step.value:
            raise ValueError(f"replayed value {redone!r} differs from logged {step.value!r}")
    return window


# -- diagonal-layout specialization ---------------------------------------

def fill_diagonal(overlay: Overlay, layout: Layout, bounds: Bounds) -> FillResult:
    """Fill from a diagonal layout by the three-region induction, for the
    3-term stencil b00 + b10*Y + b11*XY (all three nonzero).

    Region 1 sweeps the strict upper triangle level by level (pivot b10),
    region 2 the rows above row k right-to-left (pivot b11), region 3 the rows
    below row k right-to-left (pivot b00). The induction order is an
    infinite-plane construction; near window edges it can skip cells that are
    still derivable (the generic engine reaches them with another pivot), so
    its in-window placements are scanned first and every other placement after
    them row-major. The worklist runs over that order as fill() does over its
    own, so the result equals fill() on the same inputs.
    """
    if overlay.m != 1 or overlay.n != 1:
        raise ShapeMismatch("diagonal fill needs a 2x2 overlay (template b00 + b10*Y + b11*XY)")
    b = overlay.coefficient
    if not (b(0, 0) and b(1, 0) and b(1, 1)) or b(0, 1):
        raise ShapeMismatch("diagonal fill needs b00, b10, b11 all nonzero and no plain-X term")
    if not isinstance(layout.provenance, DiagonalProvenance):
        raise ValueError("fill_diagonal requires a layout with diagonal provenance")
    k = layout.provenance.k
    induction: list[tuple[int, int]] = []

    # Region 1: cells strictly above the diagonal, by level p = c - r,
    # solving the cell under b10 at placement one row down.
    for p in range(1, bounds.c_max - bounds.r_min + 1):
        for rr in range(bounds.r_min, bounds.r_max + 1):
            if bounds.c_min <= rr + p <= bounds.c_max:
                induction.append((rr + 1, rr + p))

    # Region 2: rows above row k, right-to-left below the diagonal,
    # solving the cell under b11 at placement one row down, one column right.
    for rr in range(min(k - 1, bounds.r_max), bounds.r_min - 1, -1):
        for cc in range(min(rr - 1, bounds.c_max), bounds.c_min - 1, -1):
            induction.append((rr + 1, cc + 1))

    # Region 3: rows below row k, right-to-left below the diagonal,
    # solving the cell under b00 at its own placement.
    for rr in range(max(k + 1, bounds.r_min), bounds.r_max + 1):
        for cc in range(min(rr - 1, bounds.c_max), bounds.c_min - 1, -1):
            induction.append((rr, cc))

    in_window = set(overlay.placements_within(bounds))
    order = [p for p in induction if p in in_window]
    order += sorted(in_window.difference(order))  # tuple order is row-major
    return _fill_in_order(overlay, layout, bounds, order)


# -- basis arrays and superposition ---------------------------------------

def basis_array(overlay: Overlay, layout: Layout, at: tuple[int, int],
                bounds: Bounds) -> ArrayWindow:
    """E(at): the fill whose layout values are 1 at ``at`` and 0 elsewhere."""
    if at not in layout:
        raise CoordinateNotInLayout(f"{at} is not a layout coordinate")
    indicator = layout.with_values(indicator_values(at, overlay.field))
    return fill(overlay, indicator, bounds).window


def _basis_windows(overlay: Overlay, layout: Layout,
                   bounds: Bounds) -> Iterator[tuple[tuple[int, int], ArrayWindow]]:
    """(coord, E(coord)) for each layout coordinate, re-solved from one fill's
    step log: which placement solves which cell depends only on coordinates."""
    steps = fill(overlay, layout, bounds).steps
    for coord in layout.coords:
        indicator = layout.with_values(indicator_values(coord, overlay.field))
        yield coord, _redo_steps(overlay, indicator, bounds, steps)


def superpose(overlay: Overlay, layout: Layout, bounds: Bounds) -> ArrayWindow:
    """Sum of d_(i,j) * E(i,j) over the layout; equals fill(...).window cell-for-cell.

    All basis arrays share one Known set (reachability depends only on the
    overlay's zero pattern and the coordinate set, never on values), so the
    combination's Known structure matches the direct fill exactly.
    """
    if not layout.coords:
        return fill(overlay, layout, bounds).window
    pairs = [(layout.value_at(coord), e)
             for coord, e in _basis_windows(overlay, layout, bounds)]
    return window_linear_combine(pairs).freeze()


def finite_contribution_report(overlay: Overlay, layout: Layout, bounds: Bounds,
                               at: tuple[int, int]) -> list[tuple[tuple[int, int], Scalar]]:
    """Layout coordinates whose basis array is nonzero at ``at``, with the weights.

    The list is finite by construction (the layout is clipped to the window);
    its length across growing windows is the empirical growth measure.
    """
    if not bounds.contains(*at):
        raise ValueError(f"cell {at} outside {bounds}")
    return [(coord, v) for coord, e in _basis_windows(overlay, layout, bounds)
            if (v := e.get(*at)) is not None and not v.is_zero()]


# -- empirical support-region checks --------------------------------------

@dataclass(frozen=True)
class SupportCaseResult:
    """Empirical outcome of one claimed vanishing region for one basis coordinate.

    ``condition`` names which hypothesis applied ("j>=m", "j<0", "i>=n",
    "i<0", or "none" when no claim is made for this coordinate); the claim is
    that E(coord) vanishes on ``region`` within the window. Counterexamples
    are recorded, never asserted away.
    """

    coord: tuple[int, int]
    condition: str
    region: str
    checked: int
    unknown: int
    counterexamples: tuple[tuple[tuple[int, int], Scalar], ...]

    @property
    def confirmed(self) -> bool:
        return self.condition != "none" and not self.counterexamples


@dataclass(frozen=True)
class SupportReport:
    results: tuple[SupportCaseResult, ...]

    def counterexample_count(self) -> int:
        return sum(len(r.counterexamples) for r in self.results)

    def to_text(self) -> str:
        lines = []
        for res in self.results:
            coord = f"E({res.coord[0]},{res.coord[1]})"
            if res.condition == "none":
                lines.append(f"{coord}: no claim")
                continue
            verdict = ("confirmed" if res.confirmed
                       else f"{len(res.counterexamples)} counterexample(s)")
            lines.append(
                f"{coord}: {res.condition} claims zero on {res.region}: {verdict} "
                f"({res.checked} cells checked, {res.unknown} unknown)")
            for (cell, value) in res.counterexamples:
                lines.append(f"  counterexample at {cell}: {value.render()}")
        return "\n".join(lines) + "\n"


# The claimed vanishing regions of E(i, j) for an overlay with shape (m, n): the
# condition, whether it applies, the region, and whether cell (k, l) lies in it.
# For example j >= m claims that E(i, j) is zero at every column l < j.
_SUPPORT_CLAIMS = (
    ("j>=m", lambda i, j, m, n: j >= m, "l<{j}", lambda i, j, k, l: l < j),
    ("j<0", lambda i, j, m, n: j < 0, "l>{j}", lambda i, j, k, l: l > j),
    ("i>=n", lambda i, j, m, n: i >= n, "k<{i}", lambda i, j, k, l: k < i),
    ("i<0", lambda i, j, m, n: i < 0, "k>{i}", lambda i, j, k, l: k > i),
)


def check_support_cases(overlay: Overlay, layout: Layout, bounds: Bounds) -> SupportReport:
    """Empirically test the claimed vanishing regions of each basis array.

    For a standard layout, each claim of ``_SUPPORT_CLAIMS`` that applies to a
    coordinate (i, j) is scanned over the window and confirmations or
    counterexamples reported; nothing is assumed.
    """
    if not isinstance(layout.provenance, StandardProvenance):
        raise NonStandardLayout("support-case checks are defined for standard layouts")
    results: list[SupportCaseResult] = []
    for (i, j), e in _basis_windows(overlay, layout, bounds):
        claims = [(condition, region, in_region) for condition, applies, region, in_region
                  in _SUPPORT_CLAIMS if applies(i, j, overlay.m, overlay.n)]
        if not claims:
            results.append(SupportCaseResult((i, j), "none", "", 0, 0, ()))
        for condition, region, in_region in claims:
            values = [(cell, e.get(*cell)) for cell in bounds.coords()
                      if in_region(i, j, *cell)]
            unknown = sum(v is None for _, v in values)
            bad = tuple((cell, v) for cell, v in values if v is not None and not v.is_zero())
            results.append(SupportCaseResult((i, j), condition, region.format(i=i, j=j),
                                             len(values) - unknown, unknown, bad))
    return SupportReport(tuple(results))

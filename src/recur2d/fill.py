"""Constructive window filling by sliding an overlay over a seeded window.

Each placement of the overlay inside the window is one linear equation over the
cells it touches; a placement whose equation has exactly one Unknown cell
(necessarily under a nonzero coefficient — zero-coefficient cells never appear
in an equation) solves that cell by dividing the known part by the negated
pivot coefficient. Which placement solves which cell depends only on which
cells are Known, never on their values, so the engine schedules, evaluates,
then checks. ``_schedule`` is a counter worklist over coordinates (Dowling &
Gallier, J. Logic Programming 1984): each placement counts its Unknown cells
and is visited when the count reaches one, in the order a restart scan
(rescanning the placement list until a sweep solves nothing) would solve it,
so the step log is that scan's (``replay`` schedules a log's placements in log
order). It returns one plan object, and everything after reads it. ``_evaluate``,
the only code that computes a solved value, runs it on a flat row-major list of
raw payloads (None for Unknown; ``Bounds.index``); over Q it runs on int
numerator/denominator pairs and writes one Fraction back per solved cell. A
fill's step log is built from the plan and the result's payloads only when
``FillResult.steps`` is first read. The basis family runs no fill: one
schedule, then one evaluation per indicator seed. ``check_support_cases``
evaluates fewer: one backward pass over the plan bounds the rows and columns each
layout cell reaches (``_reach``), which proves most support claims without
values, and only a coordinate with a claim its box does not prove is evaluated.

Every fully-Known placement that solved no cell is then checked (a solving
placement's residual is zero by construction); a nonzero residual makes the
result Inconsistent with the first, row-major, as the witness. Otherwise the
result is Complete, or Partial with the list of cells no in-window chain of
solves can reach. Cells whose stencil would exit the window are never
extrapolated. The derivable-cell set is a least fixpoint of a monotone enabling
relation, so it does not depend on scan order; scan order is fixed (and
seedable) only to make step logs reproducible.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import CoordinateNotInLayout, NonStandardLayout, ParseError, ShapeMismatch
from .field import FieldDescriptor, Scalar, _parse_scalar, _read_long_int, one, zero
from .layout import DiagonalProvenance, Layout, StandardProvenance
from .oracle import INCONSISTENT
from .overlay import Overlay
from .window import ArrayWindow, Bounds, window_linear_combine

COMPLETE = "complete"
PARTIAL = "partial"


@dataclass(frozen=True)
class FillStep:
    """One solve: at ``placement``, cell ``solved`` was the only Unknown and
    took ``value``; ``pivot`` is the overlay grid index of its coefficient.
    A fill builds its FillSteps only when ``FillResult.steps`` is first read."""

    placement: tuple[int, int]
    solved: tuple[int, int]
    pivot: tuple[int, int]
    value: Scalar

    def to_json_obj(self) -> dict:
        return {"placement": list(self.placement), "solved": list(self.solved),
                "pivot": list(self.pivot), "value": self.value.render()}


@dataclass(frozen=True)
class _Plan:
    """What a schedule decides from coordinates alone: one (placement's flat index,
    target, -1/pivot) per solve in ``steps``, each solve's (placement, pivot), and
    the fully Known placements left to check."""

    field: FieldDescriptor
    stencil: list[tuple]
    steps: list[tuple]
    solves: list[tuple]
    checks: list[tuple[int, int]]


class _StepLog:
    """``FillResult.steps``: a tuple of FillSteps, or the fill's plan until first read,
    when the tuple is built from the plan and the result window's payload list."""

    def __get__(self, result, owner=None):
        if result is None:
            raise AttributeError("steps")   # so the dataclass field has no default
        steps = vars(result)["steps"]
        if isinstance(steps, _Plan):
            fd, cells = steps.field, result.window._cells
            steps = vars(result)["steps"] = tuple(
                FillStep((r, c), (r - i, c - j), (i, j), Scalar(fd, cells[target]))
                for ((r, c), (i, j)), (_, target, _) in zip(steps.solves, steps.steps))
        return steps

    def __set__(self, result, steps):
        vars(result)["steps"] = steps


@dataclass(frozen=True)
class FillResult:
    """A fill's frozen window, status, step log, Unknown cells (row-major) and,
    when inconsistent, the first placement whose residual is nonzero."""

    window: ArrayWindow
    status: str
    steps: tuple[FillStep, ...] = _StepLog()
    unfilled: tuple[tuple[int, int], ...] = ()
    witness: tuple[int, int] | None = None


def steps_to_jsonl(steps: tuple[FillStep, ...]) -> str:
    """Step log as JSON lines, for audit and replay."""
    return "".join(json.dumps(s.to_json_obj(), sort_keys=True) + "\n" for s in steps)


def steps_from_jsonl(text: str, fd: FieldDescriptor) -> tuple[FillStep, ...]:
    """Read a step log back; a malformed line raises ParseError naming its
    1-based line number."""
    steps = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as e:
            # invalid JSON, an integer past the int/str digit limit, or deep nesting
            raise ParseError(f"step log line {number}: invalid JSON: {e}") from None
        if not isinstance(obj, dict) or obj.keys() != {"placement", "solved", "pivot", "value"}:
            raise ParseError(f"step log line {number}: expected an object with exactly "
                             "the keys placement, solved, pivot and value")
        pairs = [obj["placement"], obj["solved"], obj["pivot"]]
        if not all(type(pair) is list and len(pair) == 2
                   and all(type(x) is int for x in pair) for pair in pairs):
            raise ParseError(f"step log line {number}: placement, solved and pivot "
                             "must each be a list of two integers")
        if type(obj["value"]) is not str:
            raise ParseError(f"step log line {number}: value must be a string")
        try:
            value = _parse_scalar(obj["value"], fd, _read_long_int)
        except ParseError as e:
            raise ParseError(f"step log line {number}: {e}") from None
        steps.append(FillStep(*map(tuple, pairs), value))
    return tuple(steps)


def _stencil(overlay: Overlay, bounds: Bounds) -> list[tuple]:
    """(flat offset, coefficient, -1/coefficient, grid index (i, j)) per nonzero
    coefficient: cell (r - i, c - j) of an in-window placement (r, c) lies at
    that offset from the placement's flat index."""
    return [(bounds.index(bounds.r_min - i, bounds.c_min - j), b.value,
             pow(-b.value, -1, b.field.p), (i, j)) for i, j, b in overlay.nonzero_cells()]


def _seed(overlay: Overlay, layout: Layout, bounds: Bounds) -> list:
    """The window as a flat row-major list of payloads, None for Unknown."""
    cells = [None] * (bounds.height * bounds.width)
    for coord, value in layout.checked(overlay.field, bounds):
        cells[bounds.index(*coord)] = value.value
    return cells


def _schedule(overlay: Overlay, coords: list[tuple[int, int]], bounds: Bounds,
              placements: list[tuple[int, int]]) -> _Plan:
    """Solve from the Known cells at ``coords`` to the fixpoint on coordinates alone, as a
    restart scan of ``placements`` would: a placement whose Unknown count drops to one is
    queued by (sweep, position), in this sweep if after the solve that readied it, else
    the next; one whose count has since reached zero is skipped. The plan's checks are,
    row-major, the placements that end fully Known without solving a cell."""
    stencil = _stencil(overlay, bounds)
    known = bytearray(bounds.height * bounds.width)
    at = [bounds.index(r, c) for r, c in placements]
    position = {x: k for k, x in enumerate(at)}
    unknowns = [len(stencil)] * len(at)
    for coord in coords:
        cell = bounds.index(*coord)
        known[cell] = 1
        for offset, *_ in stencil:
            q = position.get(cell - offset)
            if q is not None:
                unknowns[q] -= 1
    ready = [(0, k) for k, count in enumerate(unknowns) if count == 1]  # sorted: a heap
    steps, solves = [], []
    while ready:
        sweep, k = heapq.heappop(ready)
        if unknowns[k] != 1:
            continue
        x = at[k]
        for offset, _, neg_inv, pivot in stencil:
            if not known[x + offset]:
                break
        cell = x + offset
        known[cell] = 1
        steps.append((x, cell, neg_inv))
        solves.append((placements[k], pivot))
        for entry in stencil:
            q = position.get(cell - entry[0])
            if q is not None:
                unknowns[q] -= 1
                if unknowns[q] == 1:
                    heapq.heappush(ready, (sweep if q > k else sweep + 1, q))
        unknowns[k] = -1   # solved: its residual is zero by construction, no check
    return _Plan(overlay.field, stencil, steps, solves,
                 sorted(placements[k] for k, count in enumerate(unknowns) if count == 0))


def _evaluate(plan: _Plan, cells: list) -> list:
    """Solve the plan's targets in order on ``cells``, in place, skipping zero
    terms, the target (still Unknown, None) and the pivot division of a zero sum.

    Over Q the loop runs on int numerator/denominator pairs, each in lowest
    terms with den > 0, fraction-free in the spirit of Bareiss (Math. Comp.
    1968): the stencil is scaled to ints by the lcm of its denominators (c*P
    annihilates what P does); a step cross-multiplies only where two
    denominators differ, divides by the negated scaled pivot and reduces once.
    One Fraction per solved cell is built after the loop; solved zeros share one."""
    field, stencil = plan.field, plan.stencil
    start = zero(field).value
    if field.p is not None or not plan.steps:
        for at, target, neg_inv in plan.steps:
            known = start
            for offset, b, _, _ in stencil:
                if v := cells[at + offset]:
                    known += b * v
            cells[target] = field.reduce(known * neg_inv) if known else start
        return cells
    scale = math.lcm(*(b.denominator for _, b, _, _ in stencil))
    terms = [(offset, b.numerator * (scale // b.denominator)) for offset, b, _, _ in stencil]
    neg_pivot = {offset: -c for offset, c in terms}   # a plan step's pivot is target - at
    nums = [v.numerator if v else 0 for v in cells]   # Unknown reads as zero: skipped
    dens = [v.denominator if v else 1 for v in cells]
    for at, target, _ in plan.steps:
        num, den = 0, 1
        for offset, c in terms:
            if n := nums[at + offset]:
                d = dens[at + offset]
                if d == den:
                    num += c * n
                else:
                    num, den = num * d + c * n * den, den * d
        if num:
            den *= neg_pivot[target - at]
            if den < 0:
                num, den = -num, -den
            g = math.gcd(num, den)
            nums[target], dens[target] = num // g, den // g
    for _, target, _ in plan.steps:
        cells[target] = Fraction(nums[target], dens[target]) if nums[target] else start
    return cells


def _fill_in_order(overlay: Overlay, layout: Layout, bounds: Bounds,
                   placements: list[tuple[int, int]]) -> FillResult:
    """Seed, schedule in the order of ``placements``, evaluate, then check; the
    result's step log is built from the plan when first read."""
    fd = overlay.field
    cells = _seed(overlay, layout, bounds)
    plan = _schedule(overlay, layout.coords, bounds, placements)
    window = ArrayWindow._adopt(bounds, fd, _evaluate(plan, cells))
    witness = next((p for p in plan.checks if fd.reduce(sum(
        b * cells[bounds.index(*p) + offset] for offset, b, _, _ in plan.stencil))), None)
    unfilled = tuple(window.unknown_coords())
    status = INCONSISTENT if witness is not None else PARTIAL if unfilled else COMPLETE
    return FillResult(window, status, plan, unfilled, witness)


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
    """Re-execute a step log, from any scan order, from the layout seed. Its
    placements, in log order up to the first off the window, are scheduled; while
    the log applies, the plan solves its steps in log order, so the first step not
    solved as logged is the first that no longer applies. Raises there, or at the
    first evaluated value that differs from the logged one."""
    fd = overlay.field
    cells = _seed(overlay, layout, bounds)   # checks the layout before any step
    r_lo, c_lo = bounds.r_min + overlay.m, bounds.c_min + overlay.n
    placed = {}   # ordered, one entry per placement: _schedule keys positions by cell
    for step in steps:
        r, c = placement = tuple(step.placement)
        if not (r_lo <= r <= bounds.r_max and c_lo <= c <= bounds.c_max):
            break   # as placements_within, the overlay's stencil must lie in the window
        placed[placement] = None
    plan = _schedule(overlay, layout.coords, bounds, list(placed))
    for k, step in enumerate(steps):
        placement = tuple(step.placement)
        if k < len(plan.solves) and plan.solves[k] == (placement, step.pivot) \
                and step.solved == (placement[0] - step.pivot[0], placement[1] - step.pivot[1]):
            continue
        if placement not in placed:
            raise ValueError(f"step {step} places the overlay off {bounds}")
        raise ValueError(f"step {step} does not replay against this layout")
    _evaluate(plan, cells)
    for step, (_, target, _) in zip(steps, plan.steps):
        if cells[target] != step.value.value or step.value.field != fd:
            raise ValueError(f"replayed value {Scalar(fd, cells[target])!r} differs from "
                             f"logged {step.value!r}")
    return ArrayWindow._adopt(bounds, fd, cells)


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
    """E(at), the window whose layout values are 1 at ``at`` and 0 elsewhere: one
    evaluation of the layout's schedule. The layout's own values are checked, never read."""
    if at not in layout:
        raise CoordinateNotInLayout(f"{at} is not a layout coordinate")
    [(_, cells)] = _basis_windows(overlay, layout, bounds, [at])
    return ArrayWindow._adopt(bounds, overlay.field, cells)


def _basis_plan(overlay: Overlay, layout: Layout, bounds: Bounds) -> tuple[_Plan, list]:
    """The layout's row-major schedule, and the seed every basis array shares: the
    flat payload list with 0 at each layout cell and None (Unknown) elsewhere."""
    seed = _seed(overlay, layout, bounds)
    plan = _schedule(overlay, layout.coords, bounds, overlay.placements_within(bounds))
    zero_v = zero(overlay.field).value
    return plan, [None if v is None else zero_v for v in seed]


def _basis_window(plan: _Plan, zeros: list, at: int) -> list:
    """The flat payload list of E(cell ``at``): the plan evaluated on ``zeros`` with a 1 there."""
    cells = zeros[:]
    cells[at] = one(plan.field).value
    return _evaluate(plan, cells)


def _basis_windows(overlay: Overlay, layout: Layout, bounds: Bounds,
                   coords: list[tuple[int, int]]) -> Iterator[tuple[tuple[int, int], list]]:
    """(coord, the flat payload list of E(coord)) for each layout coordinate in ``coords``:
    the layout is scheduled once, row-major, and the plan evaluated per indicator seed."""
    plan, zeros = _basis_plan(overlay, layout, bounds)
    for coord in coords:
        yield coord, _basis_window(plan, zeros, bounds.index(*coord))


def superpose(overlay: Overlay, layout: Layout, bounds: Bounds) -> ArrayWindow:
    """Sum of d_(i,j) * E(i,j) over the layout; equals fill(...).window cell-for-cell.

    All basis arrays share one Known set (reachability depends only on the
    overlay's zero pattern and the coordinate set, never on values), so the
    combination's Known structure matches the direct fill exactly. Each
    E(i,j) is one evaluation of the layout's schedule (``_basis_windows``).
    """
    if not layout.coords:
        return fill(overlay, layout, bounds).window
    pairs = [(layout.value_at(coord), ArrayWindow._adopt(bounds, overlay.field, cells))
             for coord, cells in _basis_windows(overlay, layout, bounds, layout.coords)]
    return window_linear_combine(pairs).freeze()


def finite_contribution_report(overlay: Overlay, layout: Layout, bounds: Bounds,
                               at: tuple[int, int]) -> list[tuple[tuple[int, int], Scalar]]:
    """Layout coordinates whose basis array is nonzero at ``at``, with the weights.

    The list is finite by construction (the layout is clipped to the window);
    its length across growing windows is the empirical growth measure.
    """
    if not bounds.contains(*at):
        raise ValueError(f"cell {at} outside {bounds}")
    k = bounds.index(*at)
    return [(coord, Scalar(overlay.field, cells[k])) for coord, cells
            in _basis_windows(overlay, layout, bounds, layout.coords) if cells[k]]  # Known, nonzero


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


def _reach(plan: _Plan, bounds: Bounds) -> tuple[list[int], list[int], list[int], list[int]]:
    """Per flat cell, the lowest and highest row and column offset (from the window's
    corner) of the cells it reaches through the plan's steps, itself included.

    ``_evaluate`` skips zero terms and writes zero for a zero sum, so a basis array
    E(c) is nonzero only at cells that c reaches. One backward walk settles every
    cell: each input of a step is Known before it, so a step's target is solved
    before anything reads it, and its box is complete when the walk reaches that step.
    """
    width = bounds.width
    cells = range(bounds.height * width)
    row_lo = [x // width for x in cells]
    col_lo = [x % width for x in cells]
    row_hi, col_hi = row_lo[:], col_lo[:]
    offsets = [offset for offset, *_ in plan.stencil]
    for at, target, _ in reversed(plan.steps):
        r_lo, r_hi, c_lo, c_hi = row_lo[target], row_hi[target], col_lo[target], col_hi[target]
        for offset in offsets:
            x = at + offset
            if r_lo < row_lo[x]:
                row_lo[x] = r_lo
            if r_hi > row_hi[x]:
                row_hi[x] = r_hi
            if c_lo < col_lo[x]:
                col_lo[x] = c_lo
            if c_hi > col_hi[x]:
                col_hi[x] = c_hi
    return row_lo, row_hi, col_lo, col_hi


def check_support_cases(overlay: Overlay, layout: Layout, bounds: Bounds) -> SupportReport:
    """Test the claimed vanishing regions of each basis array on the window.

    For a standard layout, each claim of ``_SUPPORT_CLAIMS`` that applies to a
    coordinate (i, j) is settled over the window, with confirmations or
    counterexamples reported; nothing is assumed. The layout is scheduled once, and
    one backward pass over the plan bounds the cells each coordinate reaches
    (``_reach``). A claim whose region that box misses is confirmed without values;
    a coordinate with any other claim is evaluated once, and its counterexamples are
    read from the values. The cells checked and Unknown come from per-row and
    per-column counts of the Known set, which every basis array shares.
    """
    if not isinstance(layout.provenance, StandardProvenance):
        raise NonStandardLayout("support-case checks are defined for standard layouts")
    fd, width, height = overlay.field, bounds.width, bounds.height
    plan, zeros = _basis_plan(overlay, layout, bounds)
    known = bytearray(v is not None for v in zeros)
    for _, target, _ in plan.steps:
        known[target] = 1
    rows = [(bounds.r_min + k, sum(known[k * width:(k + 1) * width])) for k in range(height)]
    cols = [(bounds.c_min + k, sum(known[k::width])) for k in range(width)]
    row_lo, row_hi, col_lo, col_hi = _reach(plan, bounds)
    results: list[SupportCaseResult] = []
    for i, j in layout.coords:
        claims = [(condition, region, in_region) for condition, applies, region, in_region
                  in _SUPPORT_CLAIMS if applies(i, j, overlay.m, overlay.n)]
        if not claims:
            results.append(SupportCaseResult((i, j), "none", "", 0, 0, ()))
        x, cells = bounds.index(i, j), None
        corners = [(bounds.r_min + r, bounds.c_min + c)
                   for r in (row_lo[x], row_hi[x]) for c in (col_lo[x], col_hi[x])]
        for condition, region, in_region in claims:
            # A claimed region is a strict half-plane through (i, j): the whole rows
            # that column j meets in it, or the whole columns that row i meets.
            in_rows = [count for k, count in rows if in_region(i, j, k, j)]
            in_cols = [count for l, count in cols if in_region(i, j, i, l)]
            checked = sum(in_rows) + sum(in_cols)
            unknown = len(in_rows) * width + len(in_cols) * height - checked
            bad = ()
            if any(in_region(i, j, *corner) for corner in corners):   # the box meets it
                if cells is None:
                    cells = _basis_window(plan, zeros, x)
                bad = tuple((cell, Scalar(fd, v)) for cell, v in zip(bounds.coords(), cells)
                            if v and in_region(i, j, *cell))
            results.append(SupportCaseResult((i, j), condition, region.format(i=i, j=j),
                                             checked, unknown, bad))
    return SupportReport(tuple(results))

"""Independent verification of window fills by exact linear algebra.

A window, an overlay, and a layout define a linear system: one variable per
window cell, one homogeneous equation per in-window placement, and one
inhomogeneous pinning equation per prescribed layout cell. Each row has at
most one nonzero per stencil cell, so rows are kept sparse: a column -> raw
payload dict. Forward elimination with Markowitz pivoting (per column, the
shortest candidate row pivots) classifies the system as having a unique
solution, many solutions, or none; one full reduction of the pivot rows then
reads off the forced cells (every cell, when the solution is unique). Layout
cells are checked by ``Layout.checked``, as in the fill. Arithmetic runs on raw
payloads, reduced with ``FieldDescriptor.reduce``; only returned values are
wrapped as Scalars.

This module never calls the constructive fill engine; it builds its equations
directly from the overlay and layout, so agreement between the two routes is
evidence, not tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .field import FieldDescriptor, Scalar, one, zero
from .layout import Layout
from .overlay import Overlay
from .window import Bounds

UNIQUE = "unique"
UNDERDETERMINED = "underdetermined"
INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class LinearSystem:
    """Exact system Ax = b with provenance strings for each row.

    ``sparse_rows`` holds, per row, its nonzero coefficients as a column ->
    raw payload dict; ``rows`` is the same matrix as dense Scalar lists, built
    on first access (rows x variables Scalars), for display and tests only.
    """

    variables: tuple[tuple[int, int], ...]
    sparse_rows: list[dict[int, object]]
    rhs: list[Scalar]
    provenance: list[str]
    field: FieldDescriptor

    @property
    def var_index(self) -> dict[tuple[int, int], int]:
        return {coord: k for k, coord in enumerate(self.variables)}

    @cached_property
    def rows(self) -> list[list[Scalar]]:
        zero_s = zero(self.field)
        dense = []
        for entries in self.sparse_rows:
            row = [zero_s] * len(self.variables)
            for k, x in entries.items():
                row[k] = Scalar(self.field, x)
            dense.append(row)
        return dense


@dataclass(frozen=True)
class Certificate:
    """A row reduced to 0 = rhs with rhs != 0, proving inconsistency.

    ``combination`` gives, per original row, the multiplier carrying it into
    the contradictory row; checking it needs only the original system.
    """

    combination: tuple[Scalar, ...]
    rhs: Scalar


@dataclass(frozen=True)
class OracleResult:
    kind: str
    assignment: dict[tuple[int, int], Scalar] | None = None
    forced: dict[tuple[int, int], Scalar] | None = None
    free_witness: tuple[int, int] | None = None
    certificate: Certificate | None = None


def assemble_system(overlay: Overlay, layout: Layout, bounds: Bounds) -> LinearSystem:
    """One homogeneous row per placement, then one pinning row per layout cell."""
    field = overlay.field
    stencil = [(i, j, coeff.value) for i, j, coeff in overlay.nonzero_cells()]
    rows: list[dict[int, object]] = []
    rhs: list[Scalar] = []
    provenance: list[str] = []
    zero_s = zero(field)
    for (r, c) in overlay.placements_within(bounds):
        rows.append({bounds.index(r - i, c - j): x for i, j, x in stencil})
        rhs.append(zero_s)
        provenance.append(f"placement ({r},{c})")
    one_v = one(field).value
    for coord, value in layout.checked(field, bounds):
        rows.append({bounds.index(*coord): one_v})
        rhs.append(value)
        provenance.append(f"layout ({coord[0]},{coord[1]})")
    return LinearSystem(tuple(bounds.coords()), rows, rhs, provenance, field)


def _subtract(row: dict, factor, pivot_row: dict, reduce,
              index: list[set[int]] | None = None, i: int = 0) -> None:
    """row -= factor * pivot_row in place, dropping entries that cancel; when
    given, ``index`` (column -> rows holding it) follows row ``i``."""
    for k, y in pivot_row.items():
        x = row.get(k)
        if x is None:
            row[k] = reduce(-factor * y)
            if index is not None:
                index[k].add(i)
            continue
        x = reduce(x - factor * y)
        if x:
            row[k] = x
        else:
            del row[k]
            if index is not None:
                index[k].discard(i)


def _forward(system: LinearSystem, track_combo: bool):
    """Forward elimination on copies of the sparse rows, columns in order.

    At each column the candidates are the rows not yet used as pivots that
    hold it; the shortest pivots (ties to the lowest row index), is scaled
    to 1 there and stored without that column, and the column is eliminated
    from the other candidates only. Every row that never pivots ends empty.
    With ``track_combo`` each row also carries its combination over the
    original rows, as a sparse dict. Returns (rows, rhs, pivots, combos),
    pivots listing (column, row) in column order.
    """
    field = system.field
    reduce, p = field.reduce, field.p
    rows = [dict(row) for row in system.sparse_rows]
    rhs = [b.value for b in system.rhs]
    one_v = one(field).value
    combos = [{i: one_v} for i in range(len(rows))] if track_combo else None
    index: list[set[int]] = [set() for _ in system.variables]
    for i, row in enumerate(rows):
        for k in row:
            index[k].add(i)
    pivots: list[tuple[int, int]] = []
    for col, candidates in enumerate(index):
        if not candidates:
            continue
        top = min(candidates, key=lambda i: (len(rows[i]), i))
        candidates.discard(top)
        inv = pow(rows[top].pop(col), -1, p)
        pivot_row = rows[top] = {k: reduce(x * inv) for k, x in rows[top].items()}
        for k in pivot_row:
            index[k].discard(top)
        pivot_rhs = rhs[top] = reduce(rhs[top] * inv)
        if combos is not None:
            combos[top] = {k: reduce(x * inv) for k, x in combos[top].items()}
        for i in candidates:
            factor = rows[i].pop(col)
            _subtract(rows[i], factor, pivot_row, reduce, index, i)
            if pivot_rhs:
                rhs[i] = reduce(rhs[i] - factor * pivot_rhs)
            if combos is not None:
                _subtract(combos[i], factor, combos[top], reduce)
        pivots.append((col, top))
    return rows, rhs, pivots, combos


def classify_and_solve(system: LinearSystem) -> OracleResult:
    """Exact sparse elimination with full classification.

    An inconsistent system is re-eliminated with combination tracking so the
    result carries a certificate checkable against the original rows alone.
    """
    field = system.field
    nvars = len(system.variables)
    rows, rhs, pivots, _ = _forward(system, False)
    pivot_of = dict(pivots)
    pivot_rows = set(pivot_of.values())
    if any(x and i not in pivot_rows for i, x in enumerate(rhs)):
        # The first row left as 0 = rhs != 0 gives the certificate.
        _, rhs, pivots, combos = _forward(system, True)
        pivot_rows = {i for _, i in pivots}
        bad = next(i for i, x in enumerate(rhs) if x and i not in pivot_rows)
        combo, zero_s = combos[bad], zero(field)
        return OracleResult(INCONSISTENT, certificate=Certificate(
            tuple(Scalar(field, combo[i]) if i in combo else zero_s for i in range(len(rhs))),
            Scalar(field, rhs[bad])))

    # Reduce the pivot rows fully (last pivot first), so each holds only free
    # columns; a pivot variable is forced (same value in every solution) iff
    # its row is then empty, so with no free column every variable is. Fill-in
    # lands in free columns only, so the rows holding each pivot column are
    # known up front.
    reduce = field.reduce
    holders: dict[int, list[int]] = {col: [] for col in pivot_of}
    for _, i in pivots:
        for k in rows[i]:
            if k in holders:
                holders[k].append(i)
    for col, i in reversed(pivots):
        pivot_row, pivot_rhs = rows[i], rhs[i]
        for j in holders[col]:
            factor = rows[j].pop(col)
            if pivot_row:   # every pivot row of a unique system is empty here
                _subtract(rows[j], factor, pivot_row, reduce)
            if pivot_rhs:
                rhs[j] = reduce(rhs[j] - factor * pivot_rhs)
    forced = {system.variables[col]: Scalar(field, rhs[i])
              for col, i in pivots if not rows[i]}
    if len(pivots) == nvars:   # pivots are in column order, so is the assignment
        return OracleResult(UNIQUE, assignment=forced)
    free = next(col for col in range(nvars) if col not in pivot_of)
    return OracleResult(UNDERDETERMINED, forced=forced,
                        free_witness=system.variables[free])


def solve_problem(overlay: Overlay, layout: Layout, bounds: Bounds) -> OracleResult:
    return classify_and_solve(assemble_system(overlay, layout, bounds))


def verify_assignment(system: LinearSystem,
                      assignment: dict[tuple[int, int], Scalar]) -> bool:
    """Check an assignment against every original equation (no elimination)."""
    field = system.field
    if any(x.field != field for x in assignment.values()):
        return False
    for row, b in zip(system.sparse_rows, system.rhs):
        total = zero(field).value
        for k, a in row.items():
            total += a * assignment[system.variables[k]].value
        if field.reduce(total) != b.value:
            return False
    return True


def verify_certificate(system: LinearSystem, certificate: Certificate) -> bool:
    """Check that the certificate combination cancels every variable but not the rhs."""
    field = system.field
    reduce = field.reduce
    lhs: dict[int, object] = {}
    rhs = zero(field).value
    for mult, row, b in zip(certificate.combination, system.sparse_rows, system.rhs):
        if mult.is_zero():
            continue
        _subtract(lhs, -mult.value, row, reduce)
        rhs = reduce(rhs + mult.value * b.value)
    return not lhs and Scalar(field, rhs) == certificate.rhs and rhs != 0


def oracle_equals_fill(result: OracleResult, fill_result) -> tuple[bool, list[str]]:
    """Whether the algebraic classification corresponds to a fill outcome.

    complete <-> unique with cell-identical values; partial <-> underdetermined
    with every filled cell forced to the same value; inconsistent <-> inconsistent.
    Propagation can stall where elimination still decides: Unknown cells that two
    or more placements share (seen on custom layouts) leave the fill partial while
    the system is unique or inconsistent, and this reports "fill partial but
    oracle unique" (or inconsistent), so ``oracle-diff`` exits 4. The fill's own
    claims hold even then: its Known cells are forced to the same values,
    complete implies unique, and inconsistent implies inconsistent.
    """
    status = fill_result.status
    expected = {"complete": UNIQUE, "partial": UNDERDETERMINED,
                "inconsistent": INCONSISTENT}.get(status)
    if expected is None:
        return False, [f"unrecognized fill status {status!r}"]
    if result.kind != expected:
        return False, [f"fill {status} but oracle {result.kind}"]
    if result.kind == INCONSISTENT:
        return True, []
    values, verb = ((result.assignment, "oracle") if result.kind == UNIQUE
                    else (result.forced, "oracle forces"))
    diffs: list[str] = []
    for r, c, v in fill_result.window.known_cells():
        ov = values.get((r, c))
        if ov is None:
            diffs.append(f"({r},{c}): fill derived {v.render()} but oracle "
                         "does not force this cell")
        elif ov != v:
            diffs.append(f"({r},{c}): fill {v.render()} {verb} {ov.render()}")
    return (not diffs), diffs


def layout_is_valid(overlay: Overlay, layout: Layout, bounds: Bounds) -> bool:
    """True iff the layout pins the whole window: unique for these values.

    Uniqueness depends only on the coordinate set (the coefficient matrix),
    not on the prescribed values.
    """
    return classify_and_solve(assemble_system(overlay, layout, bounds)).kind == UNIQUE


def dump_system(system: LinearSystem) -> str:
    """Deterministic sparse text dump: header, variables, then row entries."""
    lines = [f"system rows={len(system.sparse_rows)} vars={len(system.variables)} "
             f"field={system.field!r}"]
    lines.append("vars " + " ".join(f"({r},{c})" for r, c in system.variables))
    for i, (row, rhs, tag) in enumerate(zip(system.sparse_rows, system.rhs,
                                            system.provenance)):
        entries = " ".join(f"{k}:{Scalar(system.field, row[k]).render()}"
                           for k in sorted(row))
        lines.append(f"row {i} [{tag}] {entries} = {rhs.render()}")
    return "\n".join(lines) + "\n"

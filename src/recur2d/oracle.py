"""Independent verification of window fills by exact linear algebra.

A window, an overlay, and a layout define a linear system: one variable per
window cell, one homogeneous equation per in-window placement, and one
inhomogeneous pinning equation per prescribed layout cell. Gauss-Jordan
elimination over the exact field classifies the system as having a unique
solution, many solutions, or none, and extracts the solved values. The
system's rows are Scalars; elimination copies their raw payloads into
augmented rows, reducing with ``FieldDescriptor.reduce``, and wraps only the
values it returns.

This module never calls the constructive fill engine; it builds its equations
directly from the overlay and layout, so agreement between the two routes is
evidence, not tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldDescriptor, Scalar, one, zero
from .layout import Layout
from .overlay import Overlay
from .window import ArrayWindow, Bounds

UNIQUE = "unique"
UNDERDETERMINED = "underdetermined"
INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class LinearSystem:
    """Dense exact system Ax = b with provenance strings for each row."""

    variables: tuple[tuple[int, int], ...]
    rows: list[list[Scalar]]
    rhs: list[Scalar]
    provenance: list[str]
    field: FieldDescriptor

    @property
    def var_index(self) -> dict[tuple[int, int], int]:
        return {coord: k for k, coord in enumerate(self.variables)}


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
    variables = tuple(bounds.coords())
    index = {coord: k for k, coord in enumerate(variables)}
    nvars = len(variables)
    rows: list[list[Scalar]] = []
    rhs: list[Scalar] = []
    provenance: list[str] = []
    zero_s = zero(field)
    for (r, c) in overlay.placements_within(bounds):
        row = [zero_s] * nvars
        for (coord, coeff) in overlay.placement_equation(r, c):
            row[index[coord]] = row[index[coord]] + coeff
        rows.append(row)
        rhs.append(zero_s)
        provenance.append(f"placement ({r},{c})")
    for coord, value in layout.prescribed.items():
        if coord not in index:
            raise ValueError(f"layout coordinate {coord} outside {bounds}")
        row = [zero_s] * nvars
        row[index[coord]] = one(field)
        rows.append(row)
        rhs.append(value)
        provenance.append(f"layout ({coord[0]},{coord[1]})")
    return LinearSystem(variables, rows, rhs, provenance, field)


def _eliminate(system: LinearSystem, track_combo: bool) -> tuple[list[list], list[int]]:
    """Gauss-Jordan to reduced row echelon form on raw payloads.

    Each working row is augmented as [coefficients | rhs | combination], the
    combination expressing it over the original rows; tracking it multiplies
    the arithmetic, so it is left out unless the caller needs an
    inconsistency certificate. Returns the reduced rows and the pivot column
    of each of the first rank rows.
    """
    reduce = system.field.reduce
    nrows = len(system.rows)
    zero_v, one_v = zero(system.field).value, one(system.field).value
    rows = [[x.value for x in row] + [b.value]
            + ([one_v if i == k else zero_v for k in range(nrows)] if track_combo else [])
            for i, (row, b) in enumerate(zip(system.rows, system.rhs))]
    pivots: list[int] = []
    for col in range(len(system.variables)):
        rank = len(pivots)
        pivot_row = next((i for i in range(rank, nrows) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        top = rows[rank]
        if top[col] != 1:
            inv = pow(top[col], -1, system.field.p)
            top = rows[rank] = [reduce(x * inv) if x else x for x in top]
        for i, row in enumerate(rows):
            factor = row[col]
            if i != rank and factor:
                rows[i] = [reduce(x - factor * y) if y else x for x, y in zip(row, top)]
        pivots.append(col)
        if len(pivots) == nrows:
            break
    return rows, pivots


def classify_and_solve(system: LinearSystem) -> OracleResult:
    """Exact Gauss-Jordan with full classification.

    An inconsistent system is re-eliminated with combination tracking so the
    result carries a certificate checkable against the original rows alone.
    """
    field = system.field
    nvars = len(system.variables)
    rows, pivots = _eliminate(system, False)

    if any(row[nvars] for row in rows[len(pivots):]):
        rows, pivots = _eliminate(system, True)
        bad = next(row for row in rows[len(pivots):] if row[nvars])
        return OracleResult(INCONSISTENT, certificate=Certificate(
            tuple(Scalar(field, x) for x in bad[nvars + 1:]), Scalar(field, bad[nvars])))

    if len(pivots) == nvars:   # then row k pivots on column k
        return OracleResult(UNIQUE, assignment={
            var: Scalar(field, row[nvars]) for var, row in zip(system.variables, rows)})

    free_cols = sorted(set(range(nvars)).difference(pivots))
    # A pivot variable is forced (same value in every solution) iff its row
    # has zero coefficients on all free columns.
    forced = {system.variables[col]: Scalar(field, row[nvars])
              for row, col in zip(rows, pivots) if not any(row[f] for f in free_cols)}
    return OracleResult(UNDERDETERMINED, forced=forced,
                        free_witness=system.variables[free_cols[0]])


def solve_problem(overlay: Overlay, layout: Layout, bounds: Bounds) -> OracleResult:
    return classify_and_solve(assemble_system(overlay, layout, bounds))


def verify_assignment(system: LinearSystem,
                      assignment: dict[tuple[int, int], Scalar]) -> bool:
    """Check an assignment against every original equation (no elimination)."""
    index = system.var_index
    for row, rhs in zip(system.rows, system.rhs):
        total = zero(system.field)
        for coord, k in index.items():
            if not row[k].is_zero():
                total = total + row[k] * assignment[coord]
        if total != rhs:
            return False
    return True


def verify_certificate(system: LinearSystem, certificate: Certificate) -> bool:
    """Check that the certificate combination cancels every variable but not the rhs."""
    nvars = len(system.variables)
    lhs = [zero(system.field)] * nvars
    rhs = zero(system.field)
    for mult, row, r in zip(certificate.combination, system.rows, system.rhs):
        if mult.is_zero():
            continue
        lhs = [x + mult * y for x, y in zip(lhs, row)]
        rhs = rhs + mult * r
    return all(x.is_zero() for x in lhs) and rhs == certificate.rhs and not rhs.is_zero()


def oracle_equals_fill(result: OracleResult, fill_result) -> tuple[bool, list[str]]:
    """Whether the algebraic classification corresponds to a fill outcome.

    complete <-> unique with cell-identical values; partial <-> underdetermined
    with every filled cell forced to the same value; inconsistent <-> inconsistent.
    """
    diffs: list[str] = []
    status = fill_result.status
    if status == "complete":
        if result.kind != UNIQUE:
            return False, [f"fill complete but oracle {result.kind}"]
        assert result.assignment is not None
        for r, c, v in fill_result.window.known_cells():
            ov = result.assignment[(r, c)]
            if ov != v:
                diffs.append(f"({r},{c}): fill {v.render()} oracle {ov.render()}")
        return (not diffs), diffs
    if status == "partial":
        if result.kind != UNDERDETERMINED:
            return False, [f"fill partial but oracle {result.kind}"]
        assert result.forced is not None
        for r, c, v in fill_result.window.known_cells():
            if (r, c) not in result.forced:
                diffs.append(f"({r},{c}): fill derived {v.render()} but oracle "
                             "does not force this cell")
            elif result.forced[(r, c)] != v:
                diffs.append(f"({r},{c}): fill {v.render()} oracle forces "
                             f"{result.forced[(r, c)].render()}")
        return (not diffs), diffs
    if status == "inconsistent":
        if result.kind != INCONSISTENT:
            return False, [f"fill inconsistent but oracle {result.kind}"]
        return True, []
    return False, [f"unrecognized fill status {status!r}"]


def layout_is_valid(overlay: Overlay, layout: Layout, bounds: Bounds) -> bool:
    """True iff the layout pins the whole window: unique for these values.

    Uniqueness depends only on the coordinate set (the coefficient matrix),
    not on the prescribed values.
    """
    return classify_and_solve(assemble_system(overlay, layout, bounds)).kind == UNIQUE


def dump_system(system: LinearSystem) -> str:
    """Deterministic sparse text dump: header, variables, then row entries."""
    lines = [f"system rows={len(system.rows)} vars={len(system.variables)} "
             f"field={system.field!r}"]
    lines.append("vars " + " ".join(f"({r},{c})" for r, c in system.variables))
    for i, (row, rhs, tag) in enumerate(zip(system.rows, system.rhs,
                                            system.provenance)):
        entries = " ".join(f"{k}:{v.render()}" for k, v in enumerate(row)
                           if not v.is_zero())
        lines.append(f"row {i} [{tag}] {entries} = {rhs.render()}")
    return "\n".join(lines) + "\n"

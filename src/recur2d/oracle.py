"""Independent verification of window fills by exact linear algebra.

A window, an overlay, and a layout define a linear system: one variable per
window cell, one homogeneous equation per in-window placement, and one
inhomogeneous pinning equation per prescribed layout cell. Each row has at
most one nonzero per stencil cell, so rows are kept sparse: a column -> raw
payload dict. Forward elimination with Markowitz pivoting (per column, the
shortest candidate row pivots) classifies the system as having a unique
solution, many solutions, or none; one full reduction of the pivot rows then
reads off the forced cells (every cell, when the solution is unique). Layout
cells are checked by ``Layout.checked``, as in the fill.

Elimination is fraction-free (after Bareiss): over Q rows are scaled to ints
and a row update, ``a * row - b * pivot_row``, is divided by its content; over
GF(p) pivot rows are scaled to 1, so ``a`` is 1. Each system is eliminated
once: an inconsistent system's certificate is read back from the log of row
operations by one reverse pass. Only returned values become Fractions or Scalars.

This module never calls the constructive fill engine; it builds its equations
directly from the overlay and layout, so agreement between the two routes is
evidence, not tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

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


def _eliminate(rows: list[dict], rhs: list, coef: list, t: int, col: int, targets,
               field: FieldDescriptor, log: list[int],
               index: list[set[int]] | None = None) -> None:
    """Eliminate column ``col`` from the rows ``targets`` with row t, which
    pivots there with coefficient ``coef[t]``: row i becomes (a * row i - b *
    row t) / c, rhs and ``coef[i]`` alike, where a/b is coef[t] over row i's
    entry in lowest terms, a > 0, and c is the content over Q, 1 over GF(p)
    (where coef[t] is 1). Appends i, a, b, t, c to ``log``; ``index`` (column
    -> rows holding it), when given, follows every row."""
    pivot, pivot_row, pivot_rhs, p = coef[t], rows[t], rhs[t], field.p
    for i in targets:
        row = rows[i]
        a, b = 1, row.pop(col)
        if pivot != 1:
            g = gcd(pivot, b) if pivot > 0 else -gcd(pivot, b)
            a, b = pivot // g, b // g
            if a != 1:
                for k, x in row.items():
                    row[k] = a * x
                rhs[i] *= a
                coef[i] *= a
        for k, y in pivot_row.items():
            x = row.get(k)
            if x is None:
                row[k] = -b * y % p if p else -b * y
                if index is not None:
                    index[k].add(i)
                continue
            x = (x - b * y) % p if p else x - b * y
            if x:
                row[k] = x
            else:
                del row[k]
                if index is not None:
                    index[k].discard(i)
        if pivot_rhs:
            rhs[i] = (rhs[i] - b * pivot_rhs) % p if p else rhs[i] - b * pivot_rhs
        c = 1 if p else gcd(coef[i], rhs[i], *row.values())
        if c > 1:
            for k, x in row.items():
                row[k] = x // c
            rhs[i] //= c
            coef[i] //= c
        log.extend((i, a, b, t, c))


def _forward(system: LinearSystem):
    """Forward elimination on copies of the sparse rows, columns in order.

    Over Q each row and its rhs are first scaled to ints by the lcm of their
    denominators (``scale``). At each column the candidates are the rows not
    yet used as pivots that hold it; the shortest pivots (ties to the lowest
    row index), is stored without that column and keeps its coefficient there
    in ``coef`` (scaled to 1 over GF(p); 0 for rows that never pivot), and the
    column is eliminated from the other candidates only. Every row stays a
    nonzero multiple, as a combination of input rows, of the row Fraction
    elimination gives, so pivots and cancellations are the same, and every row
    that never pivots ends empty. Returns (rows, rhs, pivots, coef, scale, log),
    ``log`` a flat list of ints, five per row operation (see :func:`_eliminate`;
    a GF(p) pivot scaling is row, inverse, 0, row, 1) so the GC never scans it.
    """
    field = system.field
    p = field.p
    rows = [dict(row) for row in system.sparse_rows]
    rhs = [b.value for b in system.rhs]
    scale, coef, log = [1] * len(rows), [0] * len(rows), []
    if not p:
        for i, row in enumerate(rows):
            s = scale[i] = lcm(rhs[i].denominator, *(x.denominator for x in row.values()))
            rows[i] = {k: x.numerator * (s // x.denominator) for k, x in row.items()}
            rhs[i] = rhs[i].numerator * (s // rhs[i].denominator)
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
        pivot_row = rows[top]
        x = pivot_row.pop(col)
        for k in pivot_row:
            index[k].discard(top)
        if p and x != 1:
            inv = pow(x, -1, p)
            for k, y in pivot_row.items():
                pivot_row[k] = y * inv % p
            rhs[top] = rhs[top] * inv % p
            log.extend((top, inv, 0, top, 1))
            x = 1
        coef[top] = x
        _eliminate(rows, rhs, coef, top, col, candidates, field, log, index)
        pivots.append((col, top))
    return rows, rhs, pivots, coef, scale, log


def _scalar(field: FieldDescriptor, n: int, d: int) -> Scalar:
    """n/d in ``field``. Over GF(p) pivot rows are scaled to 1 and no row is
    divided by a content, so every ``d`` passed here is 1."""
    return Scalar(field, n if field.p else Fraction(n, d))


def _certificate(field: FieldDescriptor, bad: int, rhs: list, scale: list,
                 log: list[int]) -> Certificate:
    """Row ``bad``'s combination of the input rows, by one reverse pass over
    the log. ``weights`` holds each row's multiplier in row ``bad`` times
    ``d``, a common factor raised where a division by a content would not be
    exact. The result is scaled so that row ``bad``'s own multiplier is 1."""
    reduce = field.reduce
    weights, d = {bad: 1}, 1
    for n in range(len(log) - 5, -1, -5):
        i, a, b, t, c = log[n:n + 5]
        w = weights.get(i)
        if not w:
            continue
        if c > 1:
            g = c // gcd(w, c)
            if g > 1:
                weights = {k: v * g for k, v in weights.items()}
                d, w = d * g, w * g
            w //= c
        weights[i] = reduce(w * a)
        if b:
            weights[t] = reduce(weights.get(t, 0) - w * b)
    den, zero_s = weights[bad] * scale[bad], zero(field)
    return Certificate(tuple(_scalar(field, w * s, den) if (w := weights.get(j)) else zero_s
                             for j, s in enumerate(scale)),
                       _scalar(field, rhs[bad] * d, den))


def classify_and_solve(system: LinearSystem) -> OracleResult:
    """Exact sparse elimination with full classification, one elimination per system.

    An inconsistent system's certificate, checkable against the original rows
    alone, is read back from the forward elimination's log.
    """
    field = system.field
    nvars = len(system.variables)
    rows, rhs, pivots, coef, scale, log = _forward(system)
    # The first row left as 0 = rhs != 0 gives the certificate.
    bad = next((i for i, x in enumerate(rhs) if x and not coef[i]), None)
    if bad is not None:
        return OracleResult(INCONSISTENT, certificate=_certificate(field, bad, rhs, scale, log))

    # Reduce the pivot rows fully (last pivot first), so each holds only free
    # columns; a pivot variable is forced (same value in every solution) iff
    # its row is then empty, so with no free column every variable is. Fill-in
    # lands in free columns only, so the rows holding each pivot column are
    # known up front. A forced value is its row's rhs over its pivot coefficient.
    pivot_of = dict(pivots)
    holders: dict[int, list[int]] = {}
    for _, i in pivots:
        for k in rows[i]:
            if k in pivot_of:
                holders.setdefault(k, []).append(i)
    for col, i in reversed(pivots):
        if col in holders:
            _eliminate(rows, rhs, coef, i, col, holders[col], field, [])
    forced = {system.variables[col]: _scalar(field, rhs[i], coef[i])
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
        for k, x in row.items():
            lhs[k] = reduce(lhs.get(k, 0) + mult.value * x)
        rhs = reduce(rhs + mult.value * b.value)
    return not any(lhs.values()) and Scalar(field, rhs) == certificate.rhs and rhs != 0


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
    window = fill_result.window
    fd = window.field
    # One field check for all cells: every oracle value comes from one system.
    same_field = not values or next(iter(values.values())).field == fd
    diffs: list[str] = []
    for (r, c), x in zip(window.bounds.coords(), window._cells):
        if x is None:
            continue
        ov = values.get((r, c))
        if ov is None:
            diffs.append(f"({r},{c}): fill derived {Scalar(fd, x).render()} but oracle "
                         "does not force this cell")
        elif not same_field or ov.value != x:
            diffs.append(f"({r},{c}): fill {Scalar(fd, x).render()} {verb} {ov.render()}")
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

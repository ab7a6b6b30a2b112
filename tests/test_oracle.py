"""The independent exact linear-algebra route and its agreement with fill."""

import dataclasses
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from recur2d import (Bounds, Certificate, INCONSISTENT, LayoutOutOfWindow,
                     LinearSystem, OracleResult, Overlay, RATIONALS, Scalar,
                     UNDERDETERMINED, UNIQUE, assemble_system,
                     classify_and_solve, custom_layout, delta_values,
                     dump_system, fill, from_fraction, from_int,
                     layout_is_valid, one, oracle_equals_fill,
                     parse_template, prime_field, random_values,
                     solve_problem, standard_layout, verify_assignment,
                     verify_certificate, zero)
import recur2d.oracle as oracle_module
from recur2d.oracle import _forward
from conftest import fractional, make_random_overlay

F101 = prime_field(101)
FIELDS = [RATIONALS, prime_field(7), F101]


# -- the dense reference: Gauss-Jordan over every row, as the oracle once ran --

def dense_eliminate(system: LinearSystem, track_combo: bool) -> tuple[list[list], list[int]]:
    """Gauss-Jordan to reduced row echelon form on the raw payloads of the
    dense rows, each augmented as [coefficients | rhs | combination]. Returns
    the reduced rows and the pivot column of each of the first rank rows."""
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


def dense_classify_and_solve(system: LinearSystem) -> OracleResult:
    field = system.field
    nvars = len(system.variables)
    rows, pivots = dense_eliminate(system, False)
    if any(row[nvars] for row in rows[len(pivots):]):
        rows, pivots = dense_eliminate(system, True)
        bad = next(row for row in rows[len(pivots):] if row[nvars])
        return OracleResult(INCONSISTENT, certificate=Certificate(
            tuple(Scalar(field, x) for x in bad[nvars + 1:]), Scalar(field, bad[nvars])))
    if len(pivots) == nvars:   # then row k pivots on column k
        return OracleResult(UNIQUE, assignment={
            var: Scalar(field, row[nvars]) for var, row in zip(system.variables, rows)})
    free_cols = sorted(set(range(nvars)).difference(pivots))
    forced = {system.variables[col]: Scalar(field, row[nvars])
              for row, col in zip(rows, pivots) if not any(row[f] for f in free_cols)}
    return OracleResult(UNDERDETERMINED, forced=forced,
                        free_witness=system.variables[free_cols[0]])


# -- the Fraction reference: the sparse oracle as it ran before integer rows,
#    copied unchanged but for the names; it eliminates an inconsistent system
#    a second time, tracking each row's combination of input rows --

def reference_subtract(row: dict, factor, pivot_row: dict, reduce,
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


def reference_forward(system: LinearSystem, track_combo: bool):
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
            reference_subtract(rows[i], factor, pivot_row, reduce, index, i)
            if pivot_rhs:
                rhs[i] = reduce(rhs[i] - factor * pivot_rhs)
            if combos is not None:
                reference_subtract(combos[i], factor, combos[top], reduce)
        pivots.append((col, top))
    return rows, rhs, pivots, combos


def reference_classify_and_solve(system: LinearSystem) -> OracleResult:
    """Exact sparse elimination with full classification.

    An inconsistent system is re-eliminated with combination tracking so the
    result carries a certificate checkable against the original rows alone.
    """
    field = system.field
    nvars = len(system.variables)
    rows, rhs, pivots, _ = reference_forward(system, False)
    pivot_of = dict(pivots)
    pivot_rows = set(pivot_of.values())
    if any(x and i not in pivot_rows for i, x in enumerate(rhs)):
        # The first row left as 0 = rhs != 0 gives the certificate.
        _, rhs, pivots, combos = reference_forward(system, True)
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
                reference_subtract(rows[j], factor, pivot_row, reduce)
            if pivot_rhs:
                rhs[j] = reduce(rhs[j] - factor * pivot_rhs)
    forced = {system.variables[col]: Scalar(field, rhs[i])
              for col, i in pivots if not rows[i]}
    if len(pivots) == nvars:   # pivots are in column order, so is the assignment
        return OracleResult(UNIQUE, assignment=forced)
    free = next(col for col in range(nvars) if col not in pivot_of)
    return OracleResult(UNDERDETERMINED, forced=forced,
                        free_witness=system.variables[free])


def random_problem(rng: random.Random, overlay: Overlay, values):
    """A window and a layout for ``overlay``: a standard layout where the
    window hosts one, else random pins; then maybe one pin dropped, or one
    extra pin that usually contradicts the recurrence. ``values(cell)`` gives
    each pin's integer value, so one draw can be read in several fields."""
    fd = overlay.field
    r0, c0 = rng.randint(-3, 0), rng.randint(-3, 0)
    b = Bounds(r0, r0 + rng.randint(0, 6), c0, c0 + rng.randint(0, 6))
    a, d = rng.randint(b.c_min, b.c_max), rng.randint(b.c_min, b.c_max)
    pins = None
    if rng.random() < 0.6:
        try:
            pins = dict(standard_layout(overlay, b, a, d,
                                        lambda cell: from_int(values(cell), fd)).prescribed)
        except LayoutOutOfWindow:   # the window cannot host this overlay's layout
            pass
    if pins is None:
        pins = {cell: from_int(values(cell), fd) for cell in b.coords() if rng.random() < 0.4}
    edit = rng.choice(("none", "drop", "extra"))
    if edit == "drop" and pins:
        del pins[rng.choice(sorted(pins))]
    free = [cell for cell in b.coords() if cell not in pins]
    if edit == "extra" and free:
        cell = rng.choice(free)
        pins[cell] = from_int(values(cell) + 1, fd)
    return custom_layout(pins, b), b


def random_system(seed: int, field) -> LinearSystem:
    rng = random.Random(seed)
    overlay = make_random_overlay(rng, field)
    ints = {}
    lay, b = random_problem(rng, overlay, lambda cell: ints.setdefault(cell, rng.randint(-5, 5)))
    return assemble_system(overlay, lay, b)


def fractional_system(seed: int, field) -> LinearSystem:
    """``random_system``'s draw, but over Q with coefficients such as 3, -1/2
    or 5/7 and with each pin divided by 1, 2, 3 or 7."""
    rng = random.Random(seed)
    o = make_random_overlay(rng, field)
    if field is RATIONALS:
        o = fractional(rng, o)
    ints = {}
    lay, b = random_problem(rng, o, lambda cell: ints.setdefault(cell, rng.randint(-5, 5)))
    if field is RATIONALS:
        lay = custom_layout({cell: v * from_fraction(1, rng.choice((1, 1, 2, 3, 7)), field)
                             for cell, v in lay.prescribed.items()}, b)
    return assemble_system(o, lay, b)


def canonical(result: OracleResult):
    """Every field of ``result``, each Scalar with its payload type and each
    dict as its item list, so that payload types and dict order count."""
    def typed_value(v):
        return type(v.value), v

    def items(values):
        return None if values is None else [(k, typed_value(v)) for k, v in values.items()]
    cert = result.certificate
    return (result.kind, items(result.assignment), items(result.forced), result.free_witness,
            None if cert is None else ([typed_value(x) for x in cert.combination],
                                       typed_value(cert.rhs)))


def typed(values):
    """Scalars as (payload type, payload) pairs, so Fraction(1) != 1."""
    return None if values is None else {k: (type(v.value), v) for k, v in values.items()}


def s(n, fd=RATIONALS):
    return from_int(n, fd)


def overlay_of(text: str, fd=RATIONALS) -> Overlay:
    return Overlay.from_template(parse_template(text, fd))


class TestUnique:
    def test_golden_problem_is_unique_and_matches_fill(
            self, example_overlay, example_bounds, golden_values):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        result = solve_problem(example_overlay, lay, example_bounds)
        assert result.kind == UNIQUE
        for coord, expected in golden_values.items():
            assert result.assignment[coord].value == expected, coord

    def test_verify_assignment_accepts_and_rejects(self, example_overlay,
                                                   example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        system = assemble_system(example_overlay, lay, example_bounds)
        result = classify_and_solve(system)
        assert verify_assignment(system, result.assignment)
        tampered = dict(result.assignment)
        tampered[(2, 2)] = tampered[(2, 2)] + s(1)
        assert not verify_assignment(system, tampered)

    def test_agreement_helper_on_complete_fill(self, example_overlay,
                                               example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              random_values(7, RATIONALS))
        agree, diffs = oracle_equals_fill(
            solve_problem(example_overlay, lay, example_bounds),
            fill(example_overlay, lay, example_bounds))
        assert agree, diffs


class TestUnderdetermined:
    def _band_only_layout(self, overlay, bounds):
        """The band rows without the flank stubs: solvable only rightward."""
        coords = {(r, c) for r in range(overlay.m)
                  for c in range(bounds.c_min, bounds.c_max + 1)}
        rng = random.Random(5)
        return custom_layout(
            {coord: s(rng.randint(-4, 4)) for coord in sorted(coords)}, bounds)

    def test_free_witness_and_forced_cells(self, example_overlay,
                                           example_bounds):
        lay = self._band_only_layout(example_overlay, example_bounds)
        result = solve_problem(example_overlay, lay, example_bounds)
        assert result.kind == UNDERDETERMINED
        assert result.free_witness is not None
        assert result.free_witness not in result.forced
        fres = fill(example_overlay, lay, example_bounds)
        assert fres.status == "partial"
        assert result.free_witness in set(fres.unfilled)

    def test_forced_cells_match_fill(self, example_overlay, example_bounds):
        lay = self._band_only_layout(example_overlay, example_bounds)
        result = solve_problem(example_overlay, lay, example_bounds)
        fres = fill(example_overlay, lay, example_bounds)
        agree, diffs = oracle_equals_fill(result, fres)
        assert agree, diffs
        for (r, c, v) in fres.window.known_cells():
            assert result.forced[(r, c)] == v

    def test_empty_layout_multicell_window(self, example_overlay):
        b = Bounds(0, 2, 0, 2)
        result = solve_problem(example_overlay, custom_layout({}), b)
        assert result.kind == UNDERDETERMINED
        assert not layout_is_valid(example_overlay, custom_layout({}), b)


class TestInconsistent:
    def test_certificate_is_checkable(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        pinned = dict(lay.prescribed)
        pinned[(1, 1)] = s(999)
        bad = custom_layout(pinned, example_bounds)
        system = assemble_system(example_overlay, bad, example_bounds)
        result = classify_and_solve(system)
        assert result.kind == INCONSISTENT
        assert verify_certificate(system, result.certificate)

    def test_agreement_with_inconsistent_fill(self, example_overlay,
                                              example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        pinned = dict(lay.prescribed)
        pinned[(2, 1)] = s(-8)
        bad = custom_layout(pinned, example_bounds)
        agree, diffs = oracle_equals_fill(
            solve_problem(example_overlay, bad, example_bounds),
            fill(example_overlay, bad, example_bounds))
        assert agree, diffs


class TestAgreementTexts:
    """Every text ``oracle_equals_fill`` reports, pinned word for word."""

    def test_complete_fill_off_by_one(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        fres = fill(example_overlay, lay, example_bounds)
        result = solve_problem(example_overlay, lay, example_bounds)
        assert oracle_equals_fill(result, fres) == (True, [])
        window = fres.window.copy()
        window.set(2, 2, window.get(2, 2) + s(1))   # the recurrence gives 13
        assert oracle_equals_fill(result, dataclasses.replace(fres, window=window)) == (
            False, ["(2,2): fill 14 oracle 13"])

    def test_partial_fill_changed_and_unforced_cells(self, example_overlay,
                                                     example_bounds):
        band = custom_layout({(0, c): s(1 if c == 0 else 0) for c in range(-1, 4)},
                             example_bounds)   # forces row 0 only
        fres = fill(example_overlay, band, example_bounds)
        result = solve_problem(example_overlay, band, example_bounds)
        assert (fres.status, result.kind) == ("partial", UNDERDETERMINED)
        assert oracle_equals_fill(result, fres) == (True, [])
        window = fres.window.copy()
        window.set(0, 1, s(5))
        window.set(2, 2, s(7))
        assert oracle_equals_fill(result, dataclasses.replace(fres, window=window)) == (
            False, ["(0,1): fill 5 oracle forces 0",
                    "(2,2): fill derived 7 but oracle does not force this cell"])

    def test_status_mismatch_and_unknown_status(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        fres = fill(example_overlay, lay, example_bounds)
        result = solve_problem(example_overlay, lay, example_bounds)
        for status in ("partial", "inconsistent"):
            assert oracle_equals_fill(result, dataclasses.replace(fres, status=status)) == (
                False, [f"fill {status} but oracle unique"])
        assert oracle_equals_fill(result, dataclasses.replace(fres, status="finished")) == (
            False, ["unrecognized fill status 'finished'"])


class TestValidity:
    def test_standard_delta_layout_is_valid(self, example_overlay,
                                            example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        assert layout_is_valid(example_overlay, lay, example_bounds)

    def test_overdetermined_but_consistent_is_valid(self, example_overlay,
                                                    example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        pinned = dict(lay.prescribed)
        pinned[(1, 1)] = s(1)   # the value the recurrence forces anyway
        assert layout_is_valid(example_overlay,
                               custom_layout(pinned, example_bounds),
                               example_bounds)


class TestSystemShape:
    def test_dump_is_deterministic_and_tagged(self, example_overlay):
        b = Bounds(0, 2, 0, 2)
        lay = standard_layout(example_overlay, b, 0, 0,
                              delta_values(RATIONALS))
        system = assemble_system(example_overlay, lay, b)
        text = dump_system(system)
        assert text == dump_system(assemble_system(example_overlay, lay, b))
        assert "placement (1,1)" in text
        assert "layout (0,0)" in text
        assert text.startswith("system rows=")

    def test_row_counts(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        system = assemble_system(example_overlay, lay, example_bounds)
        n_placements = len(example_overlay.placements_within(example_bounds))
        assert len(system.rows) == n_placements + len(lay)
        assert len(system.variables) == example_bounds.height * example_bounds.width

    def test_oracle_module_never_imports_fill(self):
        import recur2d.oracle as oracle_mod
        source = pathlib.Path(oracle_mod.__file__).read_text()
        assert "from .fill" not in source
        assert "import fill" not in source


class TestRandomizedAgreement:
    def test_mixed_field_sweep(self):
        rng = random.Random(99)
        f7 = prime_field(7)
        checked = 0
        for trial in range(80):
            field = RATIONALS if trial % 2 else f7
            o = make_random_overlay(rng, field)
            r0, c0 = rng.randint(-2, 1), rng.randint(-2, 1)
            b = Bounds(r0, r0 + rng.randint(2, 5), c0, c0 + rng.randint(2, 5))
            try:
                lay = standard_layout(o, b, rng.randint(-1, 1),
                                      rng.randint(-1, 1),
                                      random_values(trial, field))
            except LayoutOutOfWindow:
                continue
            agree, diffs = oracle_equals_fill(solve_problem(o, lay, b),
                                              fill(o, lay, b))
            assert agree, (o.to_display_grid(), b, diffs)
            checked += 1
        assert checked >= 40


class TestStalledCustomLayouts:
    """On a custom layout, propagation can stall where elimination still decides:
    the fill ends partial while the oracle finds the system unique or
    inconsistent, and ``oracle_equals_fill`` reports the mismatch. What the fill
    claims holds anyway; these tests pin it."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), field=st.sampled_from(FIELDS))
    def test_fill_claims_hold_on_custom_layouts(self, seed, field):
        rng = random.Random(seed)
        o = make_random_overlay(rng, field)
        r0, c0 = rng.randint(-3, 0), rng.randint(-3, 0)
        b = Bounds(r0, r0 + o.m + rng.randint(0, 4), c0, c0 + o.n + rng.randint(0, 4))
        density = rng.uniform(0.2, 0.7)
        lay = custom_layout({cell: from_int(rng.randint(-2, 2), field)
                             for cell in b.coords() if rng.random() < density}, b)
        res, oracle = fill(o, lay, b), solve_problem(o, lay, b)
        if res.status == "complete":
            assert oracle.kind == UNIQUE
        if res.status == INCONSISTENT:
            assert oracle.kind == INCONSISTENT
        if oracle.kind != INCONSISTENT:   # every Known fill cell is forced to its value
            values = oracle.assignment if oracle.kind == UNIQUE else oracle.forced
            assert all(values.get((r, c)) == v for r, c, v in res.window.known_cells())

    @pytest.mark.xfail(strict=True, reason="propagation stalls on two cells that two "
                       "placements share; their 2x2 system (determinant -7) is unique")
    def test_five_value_stall_agrees(self):
        b = Bounds(0, 1, 0, 3)
        lay = custom_layout({cell: s(k) for k, cell
                             in enumerate([(0, 0), (0, 3), (1, 0), (1, 2), (1, 3)], 1)}, b)
        o = overlay_of("X*Y + 3*Y + 2*X - I")
        res, oracle = fill(o, lay, b), solve_problem(o, lay, b)
        assert oracle.kind == UNIQUE   # the fill stalls with (0,1) and (1,1) Unknown
        assert oracle_equals_fill(oracle, res) == (True, [])


class TestAgainstDenseReference:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), field=st.sampled_from(FIELDS))
    def test_sparse_matches_dense_gauss_jordan(self, seed, field):
        system = random_system(seed, field)
        got = classify_and_solve(system)
        want = dense_classify_and_solve(system)
        assert got.kind == want.kind
        assert typed(got.assignment) == typed(want.assignment)
        assert typed(got.forced) == typed(want.forced)
        assert got.free_witness == want.free_witness
        if got.kind == UNIQUE:
            assert verify_assignment(system, got.assignment)
        if got.kind == INCONSISTENT:
            assert verify_certificate(system, got.certificate)
            assert verify_certificate(system, want.certificate)

    def test_random_systems_reach_every_kind(self):
        kinds = {UNIQUE: 0, UNDERDETERMINED: 0, INCONSISTENT: 0}
        for seed in range(300):
            kinds[classify_and_solve(random_system(seed, FIELDS[seed % 3])).kind] += 1
        assert min(kinds.values()) >= 30, kinds

    def test_solver_never_builds_the_dense_view(self, monkeypatch, example_overlay,
                                               example_bounds):
        def refuse(system):
            pytest.fail("the dense rows view was built")

        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        pinned = dict(lay.prescribed)
        dropped = custom_layout({k: v for k, v in pinned.items() if k != (0, 0)},
                                example_bounds)
        bad = custom_layout({**pinned, (1, 1): s(999)}, example_bounds)
        systems = [assemble_system(example_overlay, layout, example_bounds)
                   for layout in (lay, dropped, bad)]
        monkeypatch.setattr(LinearSystem, "rows", property(refuse))
        forward, eliminated = oracle_module._forward, []
        monkeypatch.setattr(oracle_module, "_forward",
                            lambda system: eliminated.append(system) or forward(system))
        results = [classify_and_solve(system) for system in systems]
        assert [r.kind for r in results] == [UNIQUE, UNDERDETERMINED, INCONSISTENT]
        # One elimination per system, the inconsistent one's certificate included.
        assert len(eliminated) == 3 and all(a is b for a, b in zip(eliminated, systems))
        for layout in (lay, dropped, bad):
            solve_problem(example_overlay, layout, example_bounds)
            layout_is_valid(example_overlay, layout, example_bounds)
        assert verify_assignment(systems[0], results[0].assignment)
        assert verify_certificate(systems[2], results[2].certificate)
        dump_system(systems[0])

    def test_dense_view_matches_sparse_rows(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        system = assemble_system(example_overlay, lay, example_bounds)
        assert system.rows is system.rows   # built once
        for row, sparse in zip(system.rows, system.sparse_rows):
            assert {k: x.value for k, x in enumerate(row) if x} == sparse
            assert all(x.field == RATIONALS for x in row)


class TestAgainstFractionReference:
    """The integer-row elimination against the Fraction elimination it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), field=st.sampled_from(FIELDS))
    def test_same_result_as_fraction_elimination(self, seed, field):
        system = fractional_system(seed, field)
        assert canonical(classify_and_solve(system)) \
            == canonical(reference_classify_and_solve(system))

    def test_fractional_systems_reach_every_kind(self):
        kinds = {(field, kind): 0 for field in FIELDS
                 for kind in (UNIQUE, UNDERDETERMINED, INCONSISTENT)}
        for seed in range(300):
            field = FIELDS[seed % 3]
            kinds[field, classify_and_solve(fractional_system(seed, field)).kind] += 1
        assert min(kinds.values()) >= 10, kinds

    def test_3x3_partial_on_a_20x20_window(self):
        o = overlay_of("3*X^2*Y^2 + 3*X*Y^2 + 2*Y^2 + 2*Y + 3*X^2")
        b = Bounds(-1, 18, -1, 18)
        lay = standard_layout(o, b, 0, 0, random_values(3, RATIONALS))
        system = assemble_system(o, lay, b)
        got = classify_and_solve(system)
        assert got.kind == UNDERDETERMINED
        assert canonical(got) == canonical(reference_classify_and_solve(system))
        # One more pin, on the last forced cell, one off its forced value.
        cell = max(set(got.forced) - set(lay.prescribed))
        bad = custom_layout({**lay.prescribed, cell: got.forced[cell] + s(1)}, b)
        system = assemble_system(o, bad, b)
        got = classify_and_solve(system)
        assert got.kind == INCONSISTENT
        assert canonical(got) == canonical(reference_classify_and_solve(system))

@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rational_oracle_reduces_mod_p(seed):
    # Integer coefficients in [-4, 4] are nonzero mod 101. Rank can only drop
    # mod p, so an underdetermined system over Q is never unique over F_101;
    # when both are unique, the F_101 solution is the Q solution mod 101.
    rng = random.Random(seed)
    o = make_random_overlay(rng, RATIONALS)
    o101 = Overlay(F101, [[from_int(int(o.coefficient(i, j).value), F101)
                           for j in range(o.n + 1)] for i in range(o.m + 1)])
    ints = {}
    lay, b = random_problem(rng, o, lambda cell: ints.setdefault(cell, rng.randint(-5, 5)))
    lay101 = custom_layout({cell: from_int(int(v.value), F101)
                            for cell, v in lay.prescribed.items()}, b)
    q, p = solve_problem(o, lay, b), solve_problem(o101, lay101, b)
    if q.kind == UNDERDETERMINED:
        assert p.kind != UNIQUE
    if q.kind == UNIQUE and p.kind == UNIQUE:
        for cell, v in q.assignment.items():
            assert from_fraction(v.value.numerator, v.value.denominator, F101) \
                == p.assignment[cell]


class TestThirdSolver:
    """sympy's DomainMatrix rref over QQ and GF(101), on the augmented matrix."""

    @staticmethod
    def sympy_classify(system: LinearSystem):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix
        field = system.field
        nvars = len(system.variables)
        domain = sympy.QQ if field.p is None else sympy.GF(field.p)

        def to_domain(x):
            return domain(x) if field.p else domain(x.numerator, x.denominator)

        def from_domain(x):
            return int(x) % field.p if field.p else Fraction(int(x.numerator),
                                                             int(x.denominator))

        matrix = DomainMatrix([[to_domain(x.value) for x in row] + [to_domain(b.value)]
                               for row, b in zip(system.rows, system.rhs)],
                              (len(system.rows), nvars + 1), domain)
        rref, pivots = matrix.rref()
        if nvars in pivots:
            return len(pivots) - 1, INCONSISTENT, None
        rows = [[from_domain(x) for x in row] for row in rref.to_list()]
        values = {system.variables[col]: Scalar(field, row[nvars])
                  for row, col in zip(rows, pivots)
                  if not any(row[k] for k in range(nvars) if k not in pivots)}
        return len(pivots), UNIQUE if len(pivots) == nvars else UNDERDETERMINED, values

    @pytest.mark.parametrize("field", [RATIONALS, F101])
    def test_same_rank_kind_and_values(self, field):
        kinds = set()
        for seed in range(60):
            system = random_system(seed, field)
            rank, kind, values = self.sympy_classify(system)
            got = classify_and_solve(system)
            kinds.add(kind)
            assert got.kind == kind, seed
            assert len(_forward(system)[2]) == rank, seed
            if kind == UNIQUE:
                assert got.assignment == values, seed
            if kind == UNDERDETERMINED:
                assert got.forced == values, seed
        assert kinds == {UNIQUE, UNDERDETERMINED, INCONSISTENT}

"""The fill engine: golden values, step log, invariance properties, bases."""

import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import random
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from recur2d import (ArrayWindow, Bounds, COMPLETE, CoordinateNotInLayout,
                     FillResult, FillStep, FrozenWindowError, INCONSISTENT,
                     LayoutOutOfWindow, MixedFieldError, Overlay, PARTIAL, ParseError,
                     RATIONALS, Scalar, ShapeMismatch, SupportCaseResult, SupportReport,
                     assemble_system, basis_array, check_support_cases, custom_layout,
                     delta_values, diagonal_layout, fill,
                     fill_diagonal, finite_contribution_report, from_int,
                     from_fraction, indicator_values, layout_is_valid, one,
                     parse_template, prime_field, random_values, replay,
                     solve_problem, standard_layout, steps_from_jsonl,
                     steps_to_jsonl, superpose, window_from_cells,
                     window_linear_combine, zero, zero_values)
from recur2d.errors import NonStandardLayout
from conftest import make_random_overlay
from test_api_digests import problem

# The module, not the ``fill`` function the package re-exports under its name.
fill_module = importlib.import_module("recur2d.fill")


def s(n, fd=RATIONALS):
    return from_int(n, fd)


def overlay_of(text: str, fd=RATIONALS) -> Overlay:
    return Overlay.from_template(parse_template(text, fd))


@lru_cache(maxsize=None)
def reference_value(r: int, c: int) -> Fraction:
    """Independent evaluation of the running example with the delta layout.

    Row 0 and column 0 hold the delta; the recurrence is solved directly for
    whichever corner of the stencil lies in the target cell, with no code
    shared with the engine under test.
    """
    if r == 0:
        return Fraction(1 if c == 0 else 0)
    if c == 0:
        return Fraction(0)
    if r >= 1 and c >= 1:
        return (reference_value(r - 1, c - 1) + 3 * reference_value(r - 1, c)
                + 2 * reference_value(r, c - 1))
    if r >= 1:   # c <= -1: solve for the X-corner
        return (reference_value(r, c + 1) - reference_value(r - 1, c)
                - 3 * reference_value(r - 1, c + 1)) / 2
    if c >= 1:   # r <= -1: solve for the Y-corner
        return (reference_value(r + 1, c) - reference_value(r, c - 1)
                - 2 * reference_value(r + 1, c - 1)) / 3
    # r <= -1 and c <= -1: solve for the XY-corner
    return (reference_value(r + 1, c + 1) - 3 * reference_value(r, c + 1)
            - 2 * reference_value(r + 1, c))


class TestGoldenGrid:
    def test_reference_recursion_matches_closed_forms(self):
        # Flank closed forms derived by unrolling the one-term recursions.
        for r in range(1, 6):
            assert reference_value(r, -1) == 3 * Fraction(-1, 2) ** r
        for c in range(1, 6):
            assert reference_value(-1, c) == 2 * Fraction(-1, 3) ** c
        assert reference_value(-1, -1) == 1

    def test_fill_matches_reference_everywhere(self, example_overlay,
                                               example_bounds, golden_values):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        res = fill(example_overlay, lay, example_bounds)
        assert res.status == "complete"
        for (r, c) in example_bounds.coords():
            got = res.window.get(r, c).value
            assert got == reference_value(r, c), (r, c)
            assert got == golden_values[(r, c)], (r, c)

    def test_larger_window_still_complete_and_consistent(self, example_overlay):
        b = Bounds(-3, 6, -3, 6)
        lay = standard_layout(example_overlay, b, 0, 0, delta_values(RATIONALS))
        res = fill(example_overlay, lay, b)
        assert res.status == "complete"
        for (r, c) in b.coords():
            assert res.window.get(r, c).value == reference_value(r, c), (r, c)


class TestWalkthroughSteps:
    def test_intermediate_solves(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        res = fill(example_overlay, lay, example_bounds)
        by_cell = {step.solved: step for step in res.steps}
        for cell, expected in [((1, 1), 1), ((1, 2), 2), ((2, 1), 3)]:
            step = by_cell[cell]
            assert step.value == s(expected)
            assert step.placement == cell
            assert step.pivot == (0, 0)
            assert example_overlay.coefficient(*step.pivot) == s(-1)

    def test_each_cell_solved_once(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        res = fill(example_overlay, lay, example_bounds)
        solved = [step.solved for step in res.steps]
        assert len(solved) == len(set(solved))
        assert len(solved) + len(lay) == example_bounds.height * example_bounds.width


class TestPascal:
    def test_binomials_on_wide_window(self):
        o = overlay_of("I - Y - X*Y")
        b = Bounds(0, 10, -10, 10)
        lay = standard_layout(o, b, 0, 0, delta_values(RATIONALS))
        res = fill(o, lay, b)
        for r in range(0, 11):
            for c in range(0, r + 1):
                assert res.window.get(r, c).value == math.comb(r, c), (r, c)

    def test_left_edge_staircase_is_underivable(self):
        # On a window whose columns start at 0, the cells below the diagonal
        # need sources left of the window and stay Unknown: the derivable
        # region is exactly {c >= r} plus the prescribed row.
        o = overlay_of("I - Y - X*Y")
        b = Bounds(0, 6, 0, 6)
        lay = standard_layout(o, b, 0, 0, delta_values(RATIONALS))
        res = fill(o, lay, b)
        assert res.status == "partial"
        expected_unknown = {(r, c) for r in range(1, 7) for c in range(0, r)}
        assert set(res.unfilled) == expected_unknown


class TestOrderIndependence:
    def test_scrambled_scan_orders_agree(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              random_values(17, RATIONALS))
        base = fill(example_overlay, lay, example_bounds)
        for seed in range(8):
            scrambled = fill(example_overlay, lay, example_bounds,
                             order_seed=seed)
            assert scrambled.window == base.window
            assert scrambled.status == base.status
            assert replay(example_overlay, lay, scrambled.steps,
                          example_bounds) == scrambled.window

    def test_partial_known_set_is_order_independent(self):
        o = overlay_of("I - Y - X*Y")
        b = Bounds(0, 6, 0, 6)
        lay = standard_layout(o, b, 0, 0, delta_values(RATIONALS))
        base = fill(o, lay, b)
        for seed in range(8):
            scrambled = fill(o, lay, b, order_seed=seed)
            assert set(scrambled.unfilled) == set(base.unfilled)
            assert scrambled.window == base.window

    def test_repeat_runs_identical(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        r1 = fill(example_overlay, lay, example_bounds)
        r2 = fill(example_overlay, lay, example_bounds)
        assert r1.steps == r2.steps
        assert r1.window == r2.window


# -- the Scalar reference propagator -----------------------------------------
# An independent restart scan over ArrayWindow and Scalar arithmetic; the
# engine's raw-payload worklist must reproduce its step log, window and status.

def _seed_window(overlay, layout, bounds):
    window = ArrayWindow(bounds, overlay.field)
    for coord, value in layout.prescribed.items():
        if not bounds.contains(*coord):
            raise LayoutOutOfWindow(f"layout coordinate {coord} outside {bounds}")
        window.set(*coord, value)
    return window


def _solve_single_unknown(window, overlay, placement):
    """Solve the placement's equation if exactly one Unknown cell carries it."""
    r, c = placement
    unknown = None
    pivot = None
    rest = zero(overlay.field)
    for (cr, cc), coeff in overlay.placement_equation(r, c):
        v = window.get(cr, cc)
        if v is None:
            if unknown is not None:
                return None
            unknown, pivot = (cr, cc), coeff
        else:
            rest = rest + coeff * v
    if unknown is None or pivot is None:
        return None
    value = rest / (-pivot)
    window.set(*unknown, value)
    return FillStep(placement, unknown, (r - unknown[0], c - unknown[1]), value)


def _consistency_witness(window, overlay, bounds):
    """First (row-major) fully-Known placement whose equation has a nonzero residual."""
    for placement in overlay.placements_within(bounds):
        residual = zero(overlay.field)
        fully_known = True
        for (cr, cc), coeff in overlay.placement_equation(*placement):
            v = window.get(cr, cc)
            if v is None:
                fully_known = False
                break
            residual = residual + coeff * v
        if fully_known and not residual.is_zero():
            return placement
    return None


def _finish(window, overlay, bounds, steps):
    witness = _consistency_witness(window, overlay, bounds)
    unfilled = tuple(window.unknown_coords())
    if witness is not None:
        status = INCONSISTENT
    elif unfilled:
        status = PARTIAL
    else:
        status = COMPLETE
    return FillResult(window.freeze(), status, tuple(steps), unfilled, witness)


def restart_sweep_fill(overlay, layout, bounds, order_seed=None):
    """Reference propagator: rescan every placement in order until a sweep
    solves nothing. The counter worklist must reproduce its step log."""
    window = _seed_window(overlay, layout, bounds)
    placements = overlay.placements_within(bounds)
    if order_seed is not None:
        random.Random(order_seed).shuffle(placements)
    steps = []
    changed = True
    while changed:
        changed = False
        for placement in placements:
            step = _solve_single_unknown(window, overlay, placement)
            if step is not None:
                steps.append(step)
                changed = True
    return _finish(window, overlay, bounds, steps)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       field=st.sampled_from([RATIONALS, prime_field(7), prime_field(101)]),
       standard=st.booleans(),
       order_seed=st.none() | st.integers(0, 10**6))
def test_worklist_matches_restart_sweep(seed, field, standard, order_seed):
    rng = random.Random(seed)
    o = make_random_overlay(rng, field)
    r0, c0 = rng.randint(-3, 0), rng.randint(-3, 0)
    b = Bounds(r0, r0 + rng.randint(0, 6), c0, c0 + rng.randint(0, 6))
    lay = None
    if standard:
        try:
            lay = standard_layout(o, b, rng.randint(b.c_min, b.c_max),
                                  rng.randint(b.c_min, b.c_max), random_values(seed, field))
        except LayoutOutOfWindow:   # the window cannot host this overlay's layout
            pass
    if lay is None:
        lay = custom_layout({cell: from_int(rng.randint(-2, 2), field)
                             for cell in b.coords() if rng.random() < 0.4}, b)
    got = fill(o, lay, b, order_seed=order_seed)
    want = restart_sweep_fill(o, lay, b, order_seed)
    assert steps_to_jsonl(got.steps) == steps_to_jsonl(want.steps)
    assert got.window == want.window
    assert (got.status, got.unfilled, got.witness) \
        == (want.status, want.unfilled, want.witness)
    replayed = replay(o, lay, got.steps, b)
    assert replayed == want.window
    # An inconsistent fill's values depend on the scan order; superpose
    # re-solves the row-major fill's log.
    row_major = want if order_seed is None else restart_sweep_fill(o, lay, b)
    superposed = superpose(o, lay, b)
    assert superposed == row_major.window
    # Engine windows are frozen and equal their own cells set one by one.
    windows = [got.window, replayed, superposed]
    windows += [basis_array(o, lay, coord, b) for coord in lay.coords[:1]]
    for w in windows:
        assert w.frozen
        with pytest.raises(FrozenWindowError):
            w.set(b.r_min, b.c_min, zero(field))
        assert w == window_from_cells(b, field, {(r, c): v for r, c, v in w.known_cells()})
    # A copy is mutable and shares no cells with the result or a second fill.
    mutable = got.window.copy()
    old = mutable.get(b.r_max, b.c_max)
    mutable.set(b.r_max, b.c_max, zero(field) if old is None else old + one(field))
    assert not mutable.frozen and mutable != got.window
    assert got.window.get(b.r_max, b.c_max) == old
    assert got.window == fill(o, lay, b, order_seed=order_seed).window == want.window


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), standard=st.booleans())
def test_rational_fill_reduces_mod_p(seed, standard):
    # Integer coefficients in [-4, 4] are nonzero mod 101, so both fills see
    # the same zero pattern and solve the same cells in the same order; every
    # denominator is a product of pivots, hence invertible mod 101.
    f101 = prime_field(101)
    rng = random.Random(seed)
    o = make_random_overlay(rng, RATIONALS)
    o101 = Overlay(f101, [[from_int(int(o.coefficient(i, j).value), f101)
                           for j in range(o.n + 1)] for i in range(o.m + 1)])
    r0, c0 = rng.randint(-3, 0), rng.randint(-3, 0)
    b = Bounds(r0, r0 + rng.randint(0, 6), c0, c0 + rng.randint(0, 6))
    ints = {cell: rng.randint(-5, 5) for cell in b.coords()}
    a, d = rng.randint(b.c_min, b.c_max), rng.randint(b.c_min, b.c_max)
    kept = {cell for cell in b.coords() if rng.random() < 0.4}

    def fill_over(overlay):
        fd = overlay.field
        try:
            if standard:
                lay = standard_layout(overlay, b, a, d, lambda cell: from_int(ints[cell], fd))
                return fill(overlay, lay, b)
        except LayoutOutOfWindow:   # the window cannot host this overlay's layout
            pass
        return fill(overlay, custom_layout({cell: from_int(ints[cell], fd)
                                            for cell in kept}, b), b)

    q, p = fill_over(o), fill_over(o101)
    assert [(x.placement, x.solved, x.pivot) for x in q.steps] \
        == [(x.placement, x.solved, x.pivot) for x in p.steps]
    assert q.unfilled == p.unfilled
    for r, c, v in q.window.known_cells():
        assert from_fraction(v.value.numerator, v.value.denominator, f101) \
            == p.window.get(r, c)
    if q.status != "inconsistent":
        assert p.status == q.status


def fractional_overlay(rng: random.Random) -> Overlay:
    """A random overlay's zero pattern over Q with each nonzero coefficient an
    integer or a fraction such as 1/2, -2/3 or 5/7, so that pivots can be
    negative and non-integer."""
    o = make_random_overlay(rng, RATIONALS)
    return Overlay(RATIONALS, [
        [from_fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.choice((1, 1, 2, 3, 7)),
                       RATIONALS) if o.coefficient(i, j) else zero(RATIONALS)
         for j in range(o.n + 1)] for i in range(o.m + 1)])


def typed_payloads(window):
    """The window's payloads row-major, each with its type."""
    return [None if (v := window.get(*cell)) is None else (type(v.value), v.value)
            for cell in window.bounds.coords()]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), standard=st.booleans(),
       order_seed=st.none() | st.integers(0, 10**6))
def test_fractional_rational_fill_matches_restart_sweep(seed, standard, order_seed):
    # Over Q the engine evaluates on int numerator/denominator pairs; the
    # restart sweep divides Scalars. Custom layouts end partial or inconsistent.
    rng = random.Random(seed)
    o = fractional_overlay(rng)
    r0, c0 = rng.randint(-3, 0), rng.randint(-3, 0)
    b = Bounds(r0, r0 + rng.randint(0, 6), c0, c0 + rng.randint(0, 6))
    values = random_values(seed, RATIONALS)
    lay = None
    if standard:
        try:
            lay = standard_layout(o, b, rng.randint(b.c_min, b.c_max),
                                  rng.randint(b.c_min, b.c_max), values)
        except LayoutOutOfWindow:   # the window cannot host this overlay's layout
            pass
    if lay is None:
        lay = custom_layout({cell: values(cell) for cell in b.coords() if rng.random() < 0.4}, b)
    got = fill(o, lay, b, order_seed=order_seed)
    want = restart_sweep_fill(o, lay, b, order_seed)
    assert steps_to_jsonl(got.steps) == steps_to_jsonl(want.steps)
    assert typed_payloads(got.window) == typed_payloads(want.window)
    assert (got.status, got.unfilled, got.witness) \
        == (want.status, want.unfilled, want.witness)
    assert typed_payloads(replay(o, lay, got.steps, b)) == typed_payloads(want.window)
    row_major = want if order_seed is None else restart_sweep_fill(o, lay, b)
    assert typed_payloads(superpose(o, lay, b)) == typed_payloads(row_major.window)
    for coord in lay.coords[:3]:
        indicator = restart_sweep_fill(o, lay.with_values(indicator_values(coord, RATIONALS)), b)
        assert typed_payloads(basis_array(o, lay, coord, b)) == typed_payloads(indicator.window)


def reference_evaluate(plan, cells, stencil, field):
    """``_evaluate`` as it ran on Fraction payloads over Q, before the int
    pairs: the reference for the fraction-free loop."""
    start = zero(field).value
    for at, target, neg_inv in plan:
        known = start
        for offset, b, _, _ in stencil:
            if v := cells[at + offset]:
                known += b * v
        cells[target] = field.reduce(known * neg_inv) if known else start
    return cells


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), zeros=st.booleans(), shuffled=st.booleans())
def test_rational_evaluate_matches_fraction_reference(seed, zeros, shuffled):
    rng = random.Random(seed)
    o = fractional_overlay(rng)
    r0, c0 = rng.randint(-3, 0), rng.randint(-3, 0)
    b = Bounds(r0, r0 + rng.randint(0, 7), c0, c0 + rng.randint(0, 7))
    values = zero_values(RATIONALS) if zeros else random_values(seed, RATIONALS)
    lay = custom_layout({cell: values(cell) for cell in b.coords() if rng.random() < 0.5}, b)
    cells = fill_module._seed(o, lay, b)
    placements = o.placements_within(b)
    if shuffled:
        rng.shuffle(placements)
    scheduled = fill_module._schedule(o, lay.coords, b, placements)

    def canonical(num, den):
        # Every pair the loop stores is in lowest terms with den > 0, so no
        # denominator is overestimated and no value outgrows its reduced form.
        assert den > 0 and math.gcd(num, den) == 1, (num, den)
        return Fraction(num, den)

    for plan in (scheduled, dataclasses.replace(scheduled, steps=[])):
        with mock.patch.object(fill_module, "Fraction", canonical):
            got = fill_module._evaluate(plan, cells[:])
        want = reference_evaluate(plan.steps, cells[:], plan.stencil, RATIONALS)
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want]
        # Seeded cells keep their payload objects; the solved zeros share one.
        assert all(got[k] is v for k, v in enumerate(cells) if v is not None)
        assert len({id(got[target]) for _, target, _ in plan.steps if not got[target]}) <= 1


class TestStepLog:
    def test_jsonl_round_trip(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        res = fill(example_overlay, lay, example_bounds)
        text = steps_to_jsonl(res.steps)
        assert steps_from_jsonl(text, RATIONALS) == res.steps

    STEP = '"placement": [0, 0], "solved": [-1, -1], "value": "1"'

    @pytest.mark.parametrize("line", [
        '{"pivot": [1, 1], ' + STEP,
        '{"pivot": [1, ' + "1" * 5000 + '], ' + STEP + '}',
        "[" * 100_000,
        "[1, 2]",
        "null",
        "{" + STEP + "}",
        '{"pivot": [1, 1], "note": 0, ' + STEP + '}',
        '{"pivot": [1, 1], "placement": null, "solved": [-1, -1], "value": "1"}',
        '{"pivot": [1, 1], "placement": ["0", 0], "solved": [-1, -1], "value": "1"}',
        '{"pivot": [1, 1], "placement": [0.0, 0], "solved": [-1, -1], "value": "1"}',
        '{"pivot": [1, 1], "placement": [true, 0], "solved": [-1, -1], "value": "1"}',
        '{"pivot": [1, 1], "placement": [0, 0], "solved": [-1, -1, 0], "value": "1"}',
        '{"pivot": {"0": 1}, "placement": [0, 0], "solved": [-1, -1], "value": "1"}',
        '{"pivot": [1, 1], "placement": [0, 0], "solved": [-1, -1], "value": 3}',
        '{"pivot": [1, 1], "placement": [0, 0], "solved": [-1, -1], "value": "1/0"}',
    ], ids=["invalid-json", "long-integer", "deep-nesting", "list", "null", "no-pivot",
            "extra-key", "null-placement", "string-coordinate", "float-coordinate",
            "bool-coordinate", "three-coordinates", "object-pivot", "value-not-string",
            "zero-denominator"])
    def test_malformed_step_line_is_a_parse_error(self, line, example_overlay):
        b = Bounds(-1, 3, -1, 3)
        lay = standard_layout(example_overlay, b, 0, 0, delta_values(RATIONALS))
        lines = steps_to_jsonl(fill(example_overlay, lay, b).steps).splitlines()
        lines[1] = line
        with pytest.raises(ParseError, match=r"^step log line 2: "):
            steps_from_jsonl("\n".join(lines), RATIONALS)

    def test_jsonl_round_trip_of_long_integers(self):
        # Values of 35,000 digits: past the interpreter's int/str digit limit.
        o = overlay_of("X*Y + 3*Y + 2*X - 99999^1000")
        b = Bounds(-1, 3, -1, 3)
        lay = standard_layout(o, b, 0, 0, delta_values(RATIONALS))
        res = fill(o, lay, b)
        assert max(len(step.value.render()) for step in res.steps) > 30_000
        read_back = steps_from_jsonl(steps_to_jsonl(res.steps), RATIONALS)
        assert read_back == res.steps
        assert replay(o, lay, read_back, b) == res.window

    def test_replay_reproduces_window(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              random_values(3, RATIONALS))
        res = fill(example_overlay, lay, example_bounds)
        assert replay(example_overlay, lay, res.steps, example_bounds) == res.window

    def test_replay_rejects_foreign_log(self, example_overlay, example_bounds):
        lay1 = standard_layout(example_overlay, example_bounds, 0, 0,
                               delta_values(RATIONALS))
        res = fill(example_overlay, lay1, example_bounds)
        lay2 = standard_layout(example_overlay, example_bounds, 0, 0,
                               random_values(8, RATIONALS))
        with pytest.raises(ValueError):
            replay(example_overlay, lay2, res.steps, example_bounds)

    def test_replay_refusal_texts(self, example_overlay, example_bounds):
        lay1 = standard_layout(example_overlay, example_bounds, 0, 0,
                               delta_values(RATIONALS))
        steps = fill(example_overlay, lay1, example_bounds).steps
        lay2 = standard_layout(example_overlay, example_bounds, 0, 0,
                               random_values(8, RATIONALS))
        with pytest.raises(ValueError) as foreign:
            replay(example_overlay, lay2, steps, example_bounds)
        assert str(foreign.value) == "replayed value 10/3 differs from logged 1"
        forged = (dataclasses.replace(steps[0], pivot=(7, 7)),) + steps[1:]
        with pytest.raises(ValueError) as rewritten:
            replay(example_overlay, lay1, forged, example_bounds)
        assert str(rewritten.value) == (
            "step FillStep(placement=(0, 0), solved=(-1, -1), pivot=(7, 7), value=1) "
            "does not replay against this layout")
        off = (FillStep((5, 5), (4, 4), (1, 1), s(0)),)
        with pytest.raises(ValueError) as off_window:
            replay(example_overlay, lay1, off, example_bounds)
        assert str(off_window.value) == (
            "step FillStep(placement=(5, 5), solved=(4, 4), pivot=(1, 1), value=0) "
            "places the overlay off Bounds(r_min=-1, r_max=3, c_min=-1, c_max=3)")
        # A logged value of another field is refused, though its payload is equal.
        f7 = prime_field(7)
        relabelled = tuple(dataclasses.replace(step, value=Scalar(f7, step.value.value))
                           for step in steps)
        with pytest.raises(ValueError, match="differs from logged"):
            replay(example_overlay, lay1, relabelled, example_bounds)

    def test_replay_checks_the_layout_before_any_step(self, example_overlay,
                                                      example_bounds):
        off = FillStep((99, 99), (98, 98), (1, 1), s(0))
        for lay in (custom_layout({(99, 99): s(1)}),
                    custom_layout({(0, 0): s(1), (50, 0): s(0)})):
            with pytest.raises(LayoutOutOfWindow):
                replay(example_overlay, lay, (off,), example_bounds)

    def test_replay_rejects_rewritten_pivots(self, example_overlay):
        b = Bounds(-1, 3, -1, 3)
        lay = standard_layout(example_overlay, b, 0, 0, delta_values(RATIONALS))
        steps = fill(example_overlay, lay, b).steps
        grid = [(i, j) for i, j, _ in example_overlay.nonzero_cells()]
        for k, step in enumerate(steps):
            for pivot in [(7, 7)] + [g for g in grid if g != step.pivot]:
                forged = steps[:k] + (dataclasses.replace(step, pivot=pivot),) + steps[k + 1:]
                with pytest.raises(ValueError):
                    replay(example_overlay, lay, forged, b)

    def test_replay_rejects_placements_off_the_window(self, example_overlay,
                                                      example_bounds):
        # Every cell but ``target`` is a known zero, so a placement whose
        # stencil reached ``target`` by wrapping past a window edge would
        # solve it to the logged 0 and pass the value check.
        b = example_bounds
        inside = set(example_overlay.placements_within(b))
        for target in b.coords():
            lay = custom_layout({cell: s(0) for cell in b.coords() if cell != target}, b)
            for r in range(b.r_min - 2, b.r_max + 3):
                for c in range(b.c_min - 2, b.c_max + 3):
                    if (r, c) in inside:
                        continue
                    step = FillStep((r, c), target, (r - target[0], c - target[1]), s(0))
                    with pytest.raises(ValueError):
                        replay(example_overlay, lay, (step,), b)

    def test_replay_refuses_the_repeat_of_a_placement(self, example_overlay):
        # The repeat is refused, not the step it repeats: the texts differ by value.
        b = Bounds(-1, 3, -1, 3)
        lay = standard_layout(example_overlay, b, 0, 0, delta_values(RATIONALS))
        steps = fill(example_overlay, lay, b).steps
        again = dataclasses.replace(steps[0], value=steps[0].value + s(1))
        with pytest.raises(ValueError) as repeat:
            replay(example_overlay, lay, steps[:3] + (again,) + steps[3:], b)
        assert str(repeat.value) == (
            "step FillStep(placement=(0, 0), solved=(-1, -1), pivot=(1, 1), value=2) "
            "does not replay against this layout")

    def test_replay_refuses_a_known_placement_before_its_repeat(self):
        # A first step at a fully Known placement is refused, not its repeat.
        o, b = overlay_of("2*I"), Bounds(0, 1, 0, 1)
        steps = (FillStep((0, 0), (0, 0), (0, 0), s(1)), FillStep((0, 0), (0, 0), (0, 0), s(2)))
        with pytest.raises(ValueError) as known:
            replay(o, custom_layout({(0, 0): s(1)}, b), steps, b)
        assert str(known.value) == (
            "step FillStep(placement=(0, 0), solved=(0, 0), pivot=(0, 0), value=1) "
            "does not replay against this layout")


# -- the step-log compiler replay ran before it scheduled the log ------------
# Kept as the reference: replay must refuse the same step with the same text,
# or return the same window with the same payload types.

def reference_compile(overlay, coords, bounds, steps):
    """The step log as a plan, with no checks. Reads coordinates only:
    with the cells at ``coords`` Known, raises ValueError when a step's placement
    lies off the window or its one Unknown is not its logged cell and pivot."""
    stencil = fill_module._stencil(overlay, bounds)
    known = {bounds.index(*coord) for coord in coords}
    compiled = []
    for step in steps:
        r, c = step.placement
        if not (bounds.contains(r, c) and bounds.contains(r - overlay.m, c - overlay.n)):
            raise ValueError(f"step {step} places the overlay off {bounds}")
        at = bounds.index(r, c)
        unknown = [entry for entry in stencil if at + entry[0] not in known]
        if [((r - i, c - j), (i, j)) for *_, (i, j) in unknown] != [(step.solved, step.pivot)]:
            raise ValueError(f"step {step} does not replay against this layout")
        [(offset, _, neg_inv, _)] = unknown
        known.add(at + offset)
        compiled.append((at, at + offset, neg_inv))
    return fill_module._Plan(overlay.field, stencil, compiled,
                             [(step.placement, step.pivot) for step in steps], [])


def reference_replay(overlay, layout, steps, bounds):
    """Re-execute a step log, from any scan order, from the layout seed:
    compiled and then evaluated; raises if any step no longer applies."""
    fd = overlay.field
    cells = fill_module._seed(overlay, layout, bounds)   # checks the layout before any step
    fill_module._evaluate(reference_compile(overlay, layout.coords, bounds, steps), cells)
    for step in steps:
        redone = cells[bounds.index(*step.solved)]
        if redone != step.value.value or step.value.field != fd:
            raise ValueError(f"replayed value {Scalar(fd, redone)!r} differs from "
                             f"logged {step.value!r}")
    return ArrayWindow._adopt(bounds, fd, cells)


def edited_log(rng, overlay, bounds, steps):
    """``steps`` after up to three random edits: a step deleted, two swapped, one
    repeated later (its value changed or not), its pivot or solved cell rewritten,
    its placement moved (off the window too), its value changed, or every step
    rebuilt with list coordinates."""
    fd, steps = overlay.field, list(steps)
    grid = [(i, j) for i, j, _ in overlay.nonzero_cells()] + [(7, 7)]
    for _ in range(rng.randint(0, 3)):
        if not steps:
            break
        k, edit = rng.randrange(len(steps)), rng.randrange(8)
        step = steps[k]
        if edit == 0:
            del steps[k]
        elif edit == 1:
            j = rng.randrange(len(steps))
            steps[k], steps[j] = steps[j], steps[k]
        elif edit == 2:
            steps.insert(rng.randint(k + 1, len(steps)), dataclasses.replace(
                step, value=step.value + from_int(rng.randint(0, 1), fd)))
        elif edit == 3:
            steps[k] = dataclasses.replace(step, pivot=rng.choice(grid))
        elif edit == 4:
            r, c = step.solved
            steps[k] = dataclasses.replace(step, solved=(r + rng.randint(-1, 1),
                                                         c + rng.randint(-1, 1)))
        elif edit == 5:
            r = rng.randint(bounds.r_min - 2, bounds.r_max + 2)
            c = rng.randint(bounds.c_min - 2, bounds.c_max + 2)
            i, j = step.pivot
            steps[k] = dataclasses.replace(step, placement=(r, c), **(
                {"solved": (r - i, c - j)} if rng.random() < 0.5 else {}))
        elif edit == 6:
            steps[k] = dataclasses.replace(step, value=step.value + from_int(1, fd))
        else:
            as_list = [rng.random() < 0.5 for _ in range(3)]
            steps = [FillStep(*(list(pair) if listed else pair for listed, pair in zip(
                as_list, (x.placement, x.solved, x.pivot))), x.value) for x in steps]
    return tuple(steps)


def replay_outcome(replay_fn, overlay, layout, steps, bounds):
    try:
        window = replay_fn(overlay, layout, steps, bounds)
    except Exception as e:
        return type(e), str(e)
    return window, typed_payloads(window)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shuffled=st.booleans(), foreign=st.booleans())
def test_replay_matches_reference_replay(seed, shuffled, foreign):
    # Q with fractional coefficients, F_7 and F_101; standard, diagonal and
    # custom layouts; the log replayed against its own layout or other values.
    rng = random.Random(seed)
    o, lay, b = problem(seed)
    steps = fill(o, lay, b, order_seed=seed if shuffled else None).steps
    steps = edited_log(rng, o, b, steps)
    if foreign:
        lay = lay.with_values(random_values(seed + 1, o.field))
    assert replay_outcome(replay, o, lay, steps, b) \
        == replay_outcome(reference_replay, o, lay, steps, b)


class TestStatuses:
    def test_inconsistent_with_witness(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        pinned = dict(lay.prescribed)
        pinned[(1, 1)] = s(999)   # the recurrence forces 1 here
        contradictory = custom_layout(pinned, example_bounds)
        res = fill(example_overlay, contradictory, example_bounds)
        assert res.status == "inconsistent"
        assert res.witness is not None

    def test_empty_layout_is_partial_everywhere(self, example_overlay):
        b = Bounds(0, 3, 0, 3)
        res = fill(example_overlay, custom_layout({}), b)
        assert res.status == "partial"
        assert len(res.unfilled) == 16
        assert res.steps == ()

    @pytest.mark.parametrize("consumer", [
        pytest.param(fill, id="fill"),
        pytest.param(lambda o, lay, b: replay(o, lay, (), b), id="replay"),
        pytest.param(superpose, id="superpose"),
        pytest.param(lambda o, lay, b: basis_array(o, lay, (0, 0), b), id="basis_array"),
        pytest.param(lambda o, lay, b: finite_contribution_report(o, lay, b, (0, 0)),
                     id="finite_contribution_report"),
        pytest.param(assemble_system, id="assemble_system"),
        pytest.param(solve_problem, id="solve_problem"),
        pytest.param(layout_is_valid, id="layout_is_valid"),
    ])
    @pytest.mark.parametrize("bad, error, message", [
        pytest.param({(0, 1): from_int(3, prime_field(7))}, MixedFieldError,
                     "cell value field F_7 does not match window field Q", id="foreign-field"),
        pytest.param({(99, 99): s(1)}, LayoutOutOfWindow,
                     "layout coordinate (99, 99) outside "
                     "Bounds(r_min=-1, r_max=3, c_min=-1, c_max=3)", id="out-of-window"),
    ])
    def test_every_consumer_refuses_a_bad_layout(self, example_overlay, example_bounds,
                                                 consumer, bad, error, message):
        """The fill family and the oracle refuse a foreign-field value or an
        out-of-window coordinate with one exception and one text."""
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        lay = custom_layout({**lay.prescribed, **bad})
        with pytest.raises(error) as info:
            consumer(example_overlay, lay, example_bounds)
        assert type(info.value) is error and str(info.value) == message

    def test_result_window_is_frozen(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        res = fill(example_overlay, lay, example_bounds)
        assert res.window.frozen


class TestResultContract:
    """A fill builds its step log on first read of ``steps``; until then the result
    behaves as one built with a plain tuple."""

    KINDS = {"fill": COMPLETE, "fill_diagonal": COMPLETE, "inconsistent": INCONSISTENT}

    @staticmethod
    def unread(kind):
        """A fresh result of ``kind``, made while FillStep and Scalar refuse to be built."""
        def refuse(*args):
            pytest.fail("the fill built a FillStep or a Scalar")

        o, b = overlay_of("X*Y + 3*Y + 2*X - I"), Bounds(-1, 3, -1, 3)
        lay = standard_layout(o, b, 0, 0, random_values(3, RATIONALS))
        f7 = prime_field(7)
        with mock.patch.object(fill_module, "FillStep", refuse), \
                mock.patch.object(fill_module, "Scalar", refuse):
            if kind == "fill":
                return fill(o, lay, b)
            if kind == "inconsistent":
                return fill(o, custom_layout({**lay.prescribed, (1, 1): s(999)}, b), b)
            return fill_diagonal(overlay_of("2*I + 3*Y + 5*X*Y", f7),
                                 diagonal_layout(3, b, random_values(5, f7)), b)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("op", [
        pytest.param(lambda res: pickle.loads(pickle.dumps(res)), id="pickle"),
        pytest.param(copy.copy, id="copy"),
        pytest.param(copy.deepcopy, id="deepcopy"),
        pytest.param(dataclasses.replace, id="replace"),
        pytest.param(dataclasses.asdict, id="asdict"),
        pytest.param(repr, id="repr"),
        pytest.param(lambda res: res, id="eq"),
    ])
    def test_unread_step_log_behaves_as_a_tuple(self, kind, op):
        res = self.unread(kind)
        assert res.status == self.KINDS[kind] and res.steps
        eager = FillResult(res.window, res.status, tuple(res.steps), res.unfilled, res.witness)
        got = op(self.unread(kind))
        assert got == op(eager) and op(eager) == got

    @pytest.mark.parametrize("kind", KINDS)
    def test_result_stays_unhashable(self, kind):
        with pytest.raises(TypeError):
            hash(self.unread(kind))

    def test_constructor_and_fields_unchanged(self):
        assert str(inspect.signature(FillResult)) == (
            "(window: 'ArrayWindow', status: 'str', steps: 'tuple[FillStep, ...]', "
            "unfilled: 'tuple[tuple[int, int], ...]' = (), "
            "witness: 'tuple[int, int] | None' = None) -> None")
        missing = dataclasses.MISSING
        assert [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash,
                 f.compare, f.kw_only) for f in dataclasses.fields(FillResult)] == [
            ("window", "ArrayWindow", missing, missing, True, True, None, True, False),
            ("status", "str", missing, missing, True, True, None, True, False),
            ("steps", "tuple[FillStep, ...]", missing, missing, True, True, None, True, False),
            ("unfilled", "tuple[tuple[int, int], ...]", (), missing, True, True, None, True,
             False),
            ("witness", "tuple[int, int] | None", None, missing, True, True, None, True, False)]


class TestLinearity:
    def test_solution_map_is_linear(self, example_overlay, example_bounds):
        lay1 = standard_layout(example_overlay, example_bounds, 0, 0,
                               random_values(1, RATIONALS))
        lay2 = lay1.with_values(random_values(2, RATIONALS))
        alpha, beta = s(3), from_fraction(-1, 2, RATIONALS)
        combined = lay1.with_values(
            lambda coord: alpha * lay1.value_at(coord) + beta * lay2.value_at(coord))
        direct = fill(example_overlay, combined, example_bounds).window
        mixed = window_linear_combine([
            (alpha, fill(example_overlay, lay1, example_bounds).window),
            (beta, fill(example_overlay, lay2, example_bounds).window),
        ])
        assert direct == mixed.freeze()


class TestBasisArrays:
    def test_kronecker_property_on_layout(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              zero_values(RATIONALS))
        e = basis_array(example_overlay, lay, (0, 1), example_bounds)
        for coord in lay.coords:
            expected = s(1) if coord == (0, 1) else s(0)
            assert e.get(*coord) == expected

    def test_unknown_coordinate_rejected(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              zero_values(RATIONALS))
        with pytest.raises(CoordinateNotInLayout):
            basis_array(example_overlay, lay, (2, 2), example_bounds)

    def test_superpose_equals_fill_rationals(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              random_values(12, RATIONALS))
        assert superpose(example_overlay, lay, example_bounds) \
            == fill(example_overlay, lay, example_bounds).window

    def test_superpose_equals_fill_prime(self):
        f7 = prime_field(7)
        o = overlay_of("2*I + 3*X + Y + 5*X*Y", f7)
        b = Bounds(-1, 3, -1, 3)
        lay = standard_layout(o, b, 0, 0, random_values(4, f7))
        assert superpose(o, lay, b) == fill(o, lay, b).window

    def test_superpose_zero_layout_gives_zero_window(self, example_overlay,
                                                     example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              zero_values(RATIONALS))
        w = superpose(example_overlay, lay, example_bounds)
        assert all(v.is_zero() for _, _, v in w.known_cells())
        assert w.is_complete()

    def test_superpose_empty_layout_single_cell_overlay(self):
        o = overlay_of("5*I")
        b = Bounds(0, 2, 0, 2)
        w = superpose(o, custom_layout({}), b)
        assert w.is_complete()
        assert all(v.is_zero() for _, _, v in w.known_cells())

    def test_contribution_report_reconstructs_cell(self, example_overlay,
                                                   example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              random_values(23, RATIONALS))
        at = (2, 2)
        report = finite_contribution_report(example_overlay, lay,
                                            example_bounds, at)
        total = s(0)
        for coord, weight in report:
            total = total + lay.value_at(coord) * weight
        direct = fill(example_overlay, lay, example_bounds).window.get(*at)
        assert total == direct

    def test_basis_family_never_fills(self, monkeypatch, example_overlay, example_bounds):
        def refuse(*args, **kwargs):
            pytest.fail("the basis family ran a fill")

        o, b = example_overlay, example_bounds
        lay = standard_layout(o, b, 0, 0, random_values(5, RATIONALS))
        calls = [lambda: [basis_array(o, lay, coord, b) for coord in lay.coords],
                 lambda: superpose(o, lay, b),
                 lambda: finite_contribution_report(o, lay, b, (2, 2)),
                 lambda: check_support_cases(o, lay, b)]
        want = [call() for call in calls]
        monkeypatch.setattr(fill_module, "_fill_in_order", refuse)
        monkeypatch.setattr(fill_module, "FillStep", refuse)
        assert [call() for call in calls] == want

    def test_contribution_report_delta_layout(self, example_overlay,
                                              example_bounds, golden_values):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        report = dict(finite_contribution_report(example_overlay, lay,
                                                 example_bounds, (2, 2)))
        assert report[(0, 0)].value == golden_values[(2, 2)]


BASIS_TEMPLATES = ("X*Y + 3*Y + 2*X - I", "X^2*Y + 2*X*Y + Y - X^2 + 3*X - 1",
                   "3*X^2*Y^2 + 3*X*Y^2 + 2*Y^2 + 2*Y + 3*X^2")


def support_scan_by_get(overlay, layout, bounds):
    """check_support_cases reading each basis array back cell by cell through
    ArrayWindow.get: the reference for its scan of raw payload lists."""
    results = []
    for i, j in layout.coords:
        e = basis_array(overlay, layout, (i, j), bounds)
        claims = [(condition, region, in_region) for condition, applies, region, in_region
                  in fill_module._SUPPORT_CLAIMS if applies(i, j, overlay.m, overlay.n)]
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


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), template=st.sampled_from(BASIS_TEMPLATES),
       field=st.sampled_from([RATIONALS, prime_field(7)]), dropped=st.booleans())
def test_compiled_basis_matches_indicator_fills(seed, template, field, dropped):
    # The basis family evaluates one schedule per indicator seed; the
    # restart-sweep reference fills each indicator layout with Scalars.
    # Dropping layout cells leaves cells Unknown, and the partial 3x3
    # template leaves some even without.
    rng = random.Random(seed)
    o = overlay_of(template, field)
    r0, c0 = rng.randint(-2, 0), rng.randint(-2, 0)
    b = Bounds(r0, o.m - 1 + rng.randint(0, 4), c0, c0 + rng.randint(4, 7))
    lay = standard_layout(o, b, rng.randint(b.c_min, b.c_max - 1),
                          rng.randint(b.c_min, b.c_max - 1), random_values(seed, field))
    if dropped:
        lay = custom_layout({coord: v for coord, v in lay.prescribed.items()
                             if rng.random() < 0.8}, b)

    def payloads(window):
        return [None if (v := window.get(*cell)) is None else v.value for cell in b.coords()]

    basis = {}
    for coord, cells in fill_module._basis_windows(o, lay, b, lay.coords):
        e = basis_array(o, lay, coord, b)
        indicator = lay.with_values(indicator_values(coord, field))
        for want in (payloads(e), payloads(restart_sweep_fill(o, indicator, b).window)):
            assert cells == want
            assert list(map(type, cells)) == list(map(type, want))
        basis[coord] = e
    assert list(basis) == lay.coords
    filled = fill(o, lay, b)
    assert superpose(o, lay, b) == filled.window
    for cell in filled.unfilled[:2]:
        assert finite_contribution_report(o, lay, b, cell) == []
    at = rng.choice(list(b.coords()))
    assert finite_contribution_report(o, lay, b, at) == [
        (coord, v) for coord, e in basis.items()
        if (v := e.get(*at)) is not None and not v.is_zero()]
    if dropped:
        with pytest.raises(NonStandardLayout):
            check_support_cases(o, lay, b)
    else:
        assert check_support_cases(o, lay, b) == support_scan_by_get(o, lay, b)


SUPPORT_SOURCES = ("random", "tall") + BASIS_TEMPLATES
SUPPORT_FIELDS = (RATIONALS, prime_field(7), prime_field(101))


def support_problem(seed, source, field):
    """A standard-layout problem whose support claims can fail: a random overlay
    up to 4x4 ("random"), the 3x2 all-ones overlay ("tall") or a template, on a
    window from row -3..0 with random layout params and values."""
    rng = random.Random(seed)
    if source == "random":
        o = make_random_overlay(rng, field, 3, 3)
    elif source == "tall":
        o = Overlay(field, [[one(field)] * 2 for _ in range(3)])
    else:
        o = overlay_of(source, field)
    r0, c0 = rng.randint(-3, 0), rng.randint(-3, 0)
    b = Bounds(r0, max(o.m - 1, 0) + rng.randint(0, 4), c0, c0 + rng.randint(3, 7))
    a, d = (rng.randint(b.c_min, b.c_max + 1 - stub) for stub in (o.u, o.l))
    return o, standard_layout(o, b, a, d, random_values(seed, field)), b


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), source=st.sampled_from(SUPPORT_SOURCES),
       field=st.sampled_from(SUPPORT_FIELDS))
def test_support_proof_matches_scan(seed, source, field):
    # Claims the reach boxes prove are never evaluated; the reference reads every
    # basis array cell by cell, so a box too small to cover a counterexample shows.
    problem = support_problem(seed, source, field)
    report, want = check_support_cases(*problem), support_scan_by_get(*problem)
    assert report == want
    assert report.to_text() == want.to_text()


def test_support_samples_refute_claims():
    # The distribution of test_support_proof_matches_scan refutes claims of three
    # kinds; i<0 claims hold on every sample.
    refuted = set()
    for seed in range(60):
        problem = support_problem(seed, SUPPORT_SOURCES[seed % 5], SUPPORT_FIELDS[seed % 3])
        report = check_support_cases(*problem)
        assert report == support_scan_by_get(*problem)
        refuted.update(res.condition for res in report.results if res.counterexamples)
    assert {"j>=m", "j<0", "i>=n"} <= refuted


def reach_by_search(plan, bounds):
    """(lowest row, highest row, lowest column, highest column) offsets of the
    cells each flat cell reaches in the plan's dependency graph (a step's
    stencil cells feed its target), found by breadth-first search per cell."""
    feeds = {}
    for at, target, _ in plan.steps:
        for offset, *_ in plan.stencil:
            feeds.setdefault(at + offset, set()).add(target)
    boxes = []
    for x in range(bounds.height * bounds.width):
        seen, frontier = {x}, [x]
        while frontier:
            frontier = [y for z in frontier for y in feeds.get(z, ()) if y not in seen]
            seen.update(frontier)
        rows, cols = {y // bounds.width for y in seen}, {y % bounds.width for y in seen}
        boxes.append((min(rows), max(rows), min(cols), max(cols)))
    return boxes


@pytest.mark.parametrize("source", SUPPORT_SOURCES)
def test_reach_boxes_bound_the_dependency_graph(source):
    # Each of the four bounds is exercised: layouts fill both up and down from
    # the band, and both left and right along it. Dropped layout cells give
    # partial plans.
    for seed in range(8):
        o, lay, b = support_problem(seed, source, SUPPORT_FIELDS[seed % 3])
        if seed % 2:
            rng = random.Random(seed)
            lay = custom_layout({coord: v for coord, v in lay.prescribed.items()
                                 if rng.random() < 0.8}, b)
        plan = fill_module._schedule(o, lay.coords, b, o.placements_within(b))
        assert list(zip(*fill_module._reach(plan, b))) == reach_by_search(plan, b)


class TestDiagonalFill:
    F7 = prime_field(7)

    def _stencil(self, b00=2, b10=3, b11=5):
        return overlay_of(f"{b00}*I + {b10}*Y + {b11}*X*Y", self.F7)

    def test_matches_generic_fill_random_sweep(self):
        rng = random.Random(2)
        for _ in range(25):
            o = self._stencil(rng.randint(1, 6), rng.randint(1, 6),
                              rng.randint(1, 6))
            size = rng.randint(3, 6)
            r0 = rng.randint(-2, 2)
            b = Bounds(r0, r0 + size - 1, r0, r0 + size - 1)
            lay = diagonal_layout(b.r_max, b,
                                  random_values(rng.randint(0, 999), self.F7))
            rd = fill_diagonal(o, lay, b)
            rg = fill(o, lay, b)
            assert rd.status == rg.status == "complete"
            assert rd.window == rg.window
            assert replay(o, lay, rd.steps, b) == rd.window

    def test_region_pivots_appear_in_log(self):
        o = self._stencil()
        b = Bounds(0, 3, 0, 3)
        lay = diagonal_layout(3, b, random_values(5, self.F7))
        res = fill_diagonal(o, lay, b)
        pivots = {step.pivot for step in res.steps}
        assert (1, 0) in pivots    # above-diagonal region
        assert (1, 1) in pivots    # left-of-diagonal region above row k
        assert res.status == "complete"

    def test_k_at_window_top_leaves_lower_triangle_partial(self):
        o = self._stencil()
        b = Bounds(0, 4, 0, 4)
        lay = diagonal_layout(0, b, random_values(5, self.F7))
        rd = fill_diagonal(o, lay, b)
        rg = fill(o, lay, b)
        assert rd.status == rg.status == "partial"
        assert rd.window == rg.window
        assert set(rd.unfilled) == set(rg.unfilled)

    def test_rejects_wrong_stencils(self):
        b = Bounds(0, 3, 0, 3)
        lay = diagonal_layout(3, b, zero_values(self.F7))
        for bad in ["2*I + 3*Y + 5*X*Y + X",   # plain-X term present
                    "2*I + 5*X*Y",             # b10 missing
                    "2*I + 3*Y",               # b11 missing (1x2 grid anyway)
                    "3*Y + 5*X*Y",             # b00 missing
                    "2*I + 3*Y + 5*X*Y + X^2*Y^2"]:   # too big
            with pytest.raises(ShapeMismatch):
                fill_diagonal(overlay_of(bad, self.F7), lay, b)

    def test_rejects_non_diagonal_provenance(self, example_overlay):
        b = Bounds(0, 3, 0, 3)
        o = self._stencil()
        lay = custom_layout({(i, i): s(1, self.F7) for i in range(4)}, b)
        with pytest.raises(ValueError):
            fill_diagonal(o, lay, b)


class TestSupportCases:
    def test_worked_example_claims_confirmed(self, example_overlay):
        b = Bounds(-5, 6, -5, 6)
        lay = standard_layout(example_overlay, b, 0, 0, delta_values(RATIONALS))
        report = check_support_cases(example_overlay, lay, b)
        assert report.counterexample_count() == 0
        conditions = {res.coord: res.condition for res in report.results
                      if res.condition != "none"}
        assert conditions[(0, 3)] == "j>=m"
        assert conditions[(0, -3)] == "j<0"
        assert conditions[(2, 0)] == "i>=n"
        assert conditions[(-2, 0)] == "i<0"

    def test_origin_coordinate_has_no_claim(self, example_overlay):
        b = Bounds(-2, 3, -2, 3)
        lay = standard_layout(example_overlay, b, 0, 0, delta_values(RATIONALS))
        report = check_support_cases(example_overlay, lay, b)
        origin = [res for res in report.results if res.coord == (0, 0)]
        assert origin and origin[0].condition == "none"

    def test_tall_all_ones_overlay_has_counterexamples(self):
        # For a 3x2 all-ones overlay (m=2, n=1), the band coordinates (1, j)
        # meet the i>=n condition, yet their basis arrays are nonzero in rows
        # k < 1 reached through upward solves: the claimed region is recorded
        # as refuted, not asserted.
        grid = [[s(1), s(1)] for _ in range(3)]
        o = Overlay(RATIONALS, grid)
        b = Bounds(-3, 4, -3, 4)
        lay = standard_layout(o, b, 0, 0, delta_values(RATIONALS))
        report = check_support_cases(o, lay, b)
        assert report.counterexample_count() > 0
        refuted = {res.coord for res in report.results if res.counterexamples}
        assert refuted <= {(1, j) for j in range(-3, 5)}
        assert (1, 0) in refuted
        text = report.to_text()
        assert "counterexample" in text

    def test_evaluates_only_coordinates_the_boxes_do_not_prove(self, monkeypatch,
                                                               example_overlay):
        evaluated = []
        real = fill_module._evaluate

        def counting(plan, cells):
            evaluated.append(cells.index(1))
            return real(plan, cells)

        monkeypatch.setattr(fill_module, "_evaluate", counting)
        b = Bounds(-1, 12, -1, 12)
        lay = standard_layout(example_overlay, b, 0, 0, random_values(3, RATIONALS))
        assert check_support_cases(example_overlay, lay, b).counterexample_count() == 0
        assert evaluated == []
        # The 3x2 all-ones overlay: each band coordinate (1, j) reaches the rows
        # above it, and only those are evaluated, once each.
        o = Overlay(RATIONALS, [[s(1), s(1)] for _ in range(3)])
        b = Bounds(-2, 3, -2, 3)
        report = check_support_cases(o, standard_layout(o, b, 0, 0, delta_values(RATIONALS)), b)
        assert evaluated == [b.index(1, c) for c in range(-2, 4)]
        assert {res.coord for res in report.results if res.counterexamples} == {
            (1, c) for c in (-2, -1, 0, 1, 2, 3)}

    def test_requires_standard_provenance(self, example_overlay):
        b = Bounds(0, 3, 0, 3)
        lay = custom_layout({(0, 0): s(1)}, b)
        with pytest.raises(ValueError):
            check_support_cases(example_overlay, lay, b)


class TestRandomizedAgainstRandomOverlays:
    def test_fill_annihilation_on_complete_regions(self):
        # Whatever fill marks Known must satisfy the recurrence at every
        # fully-Known placement (checked via the template route, not fill's
        # own consistency scan).
        from recur2d import annihilates
        rng = random.Random(31)
        for trial in range(20):
            field = RATIONALS if trial % 2 else prime_field(7)
            o = make_random_overlay(rng, field)
            b = Bounds(-2, 4, -2, 4)
            try:
                lay = standard_layout(o, b, 0, 0,
                                      random_values(trial, field))
            except LayoutOutOfWindow:
                continue
            res = fill(o, lay, b)
            assert res.status in ("complete", "partial")
            report = annihilates(o.to_template(), res.window)
            assert report.verdict in (True, None)

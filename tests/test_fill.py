"""The fill engine: golden values, step log, invariance properties, bases."""

import dataclasses
import importlib
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from recur2d import (ArrayWindow, Bounds, COMPLETE, CoordinateNotInLayout,
                     FillResult, FillStep, FrozenWindowError, INCONSISTENT,
                     LayoutOutOfWindow, Overlay, PARTIAL, RATIONALS, Scalar,
                     ShapeMismatch, SupportCaseResult, SupportReport,
                     basis_array, check_support_cases, custom_layout,
                     delta_values, diagonal_layout, fill,
                     fill_diagonal, finite_contribution_report, from_int,
                     from_fraction, indicator_values, one, parse_template,
                     prime_field, random_values, replay, standard_layout,
                     steps_from_jsonl, steps_to_jsonl, superpose,
                     window_from_cells, window_linear_combine, zero,
                     zero_values)
from recur2d.errors import NonStandardLayout
from conftest import make_random_overlay

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


class TestStepLog:
    def test_jsonl_round_trip(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        res = fill(example_overlay, lay, example_bounds)
        text = steps_to_jsonl(res.steps)
        assert steps_from_jsonl(text, RATIONALS) == res.steps

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

    def test_layout_outside_window_rejected(self, example_overlay):
        lay = custom_layout({(99, 99): s(1)})
        with pytest.raises(LayoutOutOfWindow):
            fill(example_overlay, lay, Bounds(0, 3, 0, 3))

    def test_result_window_is_frozen(self, example_overlay, example_bounds):
        lay = standard_layout(example_overlay, example_bounds, 0, 0,
                              delta_values(RATIONALS))
        res = fill(example_overlay, lay, example_bounds)
        assert res.window.frozen


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
    # The basis family evaluates one compiled step log per indicator seed;
    # basis_array runs a whole fill per seed. Dropping layout cells leaves
    # cells Unknown, and the partial 3x3 template leaves some even without.
    rng = random.Random(seed)
    o = overlay_of(template, field)
    r0, c0 = rng.randint(-2, 0), rng.randint(-2, 0)
    b = Bounds(r0, o.m - 1 + rng.randint(0, 4), c0, c0 + rng.randint(4, 7))
    lay = standard_layout(o, b, rng.randint(b.c_min, b.c_max - 1),
                          rng.randint(b.c_min, b.c_max - 1), random_values(seed, field))
    if dropped:
        lay = custom_layout({coord: v for coord, v in lay.prescribed.items()
                             if rng.random() < 0.8}, b)
    basis = {}
    for coord, cells in fill_module._basis_windows(o, lay, b):
        e = basis_array(o, lay, coord, b)
        want = [None if (v := e.get(*cell)) is None else v.value for cell in b.coords()]
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

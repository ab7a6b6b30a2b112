"""The independent exact linear-algebra route and its agreement with fill."""

import pathlib
import random

import pytest

from recur2d import (Bounds, INCONSISTENT, LayoutOutOfWindow, Overlay,
                     RATIONALS, UNDERDETERMINED, UNIQUE, assemble_system,
                     classify_and_solve, custom_layout, delta_values,
                     dump_system, fill, from_int, layout_is_valid,
                     oracle_equals_fill, parse_template, prime_field,
                     random_values, solve_problem, standard_layout,
                     verify_assignment, verify_certificate)
from conftest import make_random_overlay


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

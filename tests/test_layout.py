"""Layouts: coordinate generation, value sources, provenance."""

import json

import pytest

from recur2d import (Bounds, LayoutOutOfWindow, NonContiguousExtremeRow,
                     Overlay, RATIONALS, custom_layout, delta_values,
                     diagonal_coords, diagonal_layout, explicit_values,
                     from_int, indicator_values, loads_problem, parse_template,
                     prime_field, random_values, standard_coords, standard_layout,
                     zero_values)


def s(n, fd=RATIONALS):
    return from_int(n, fd)


def overlay_of(text: str, fd=RATIONALS) -> Overlay:
    return Overlay.from_template(parse_template(text, fd))


class TestStandardCoords:
    def test_worked_example_window(self):
        o = overlay_of("X*Y + 3*Y + 2*X - I")   # m=1, u=1, l=1
        b = Bounds(-1, 3, -1, 3)
        coords = standard_coords(o, b, 0, 0)
        band = [(0, c) for c in range(-1, 4)]
        above = [(-1, 0)]
        below = [(r, 0) for r in range(1, 4)]
        assert sorted(coords) == sorted(band + above + below)

    def test_m0_layout_is_n_full_columns(self):
        o = overlay_of("1 + 2*X + 3*X^2")   # m=0, n=2, u=l=2
        b = Bounds(-1, 2, 0, 5)
        coords = standard_coords(o, b, 1, 1)
        assert sorted(coords) == sorted(
            [(r, c) for r in range(-1, 3) for c in (1, 2)])

    def test_stub_anchor_out_of_window(self):
        o = overlay_of("X*Y + 3*Y + 2*X - I")
        b = Bounds(-1, 3, -1, 3)
        with pytest.raises(LayoutOutOfWindow):
            standard_coords(o, b, 4, 0)   # a-stub spills past c_max

    def test_band_rows_must_be_inside_window(self):
        o = overlay_of("X*Y^2 + Y + X - I")   # m=2
        with pytest.raises(LayoutOutOfWindow):
            standard_coords(o, Bounds(1, 3, 0, 3), 0, 0)

    def test_non_contiguous_extreme_row_rejected(self):
        o = overlay_of("X^2*Y + Y + X - I")   # top row 1 0 1
        with pytest.raises(NonContiguousExtremeRow):
            standard_coords(o, Bounds(-1, 2, -1, 2), 0, 0)

    def test_no_upper_stubs_when_u_zero(self):
        o = overlay_of("I - Y - X*Y")   # u=1, l=0
        b = Bounds(0, 4, -2, 2)
        coords = standard_coords(o, b, 0, 0)
        # No window rows above 0 and l = 0: just the band row.
        assert coords == [(0, c) for c in range(-2, 3)]


class TestDiagonalCoords:
    def test_diagonal_plus_partial_row(self):
        b = Bounds(0, 3, 0, 3)
        assert sorted(diagonal_coords(2, b)) == sorted(
            [(i, i) for i in range(4)] + [(2, 0), (2, 1)])

    def test_row_outside_window_keeps_diagonal_only(self):
        b = Bounds(0, 3, 0, 3)
        assert diagonal_coords(9, b) == [(i, i) for i in range(4)]

    def test_window_missing_diagonal_rejected(self):
        with pytest.raises(LayoutOutOfWindow):
            diagonal_coords(0, Bounds(0, 2, 5, 8))

    def test_rectangular_window(self):
        b = Bounds(-1, 1, 0, 4)
        assert sorted(diagonal_coords(1, b)) == sorted(
            [(0, 0), (1, 1), (1, 0)])


class TestValueSources:
    def test_delta(self):
        src = delta_values(RATIONALS)
        assert src((0, 0)) == s(1)
        assert src((2, 3)) == s(0)

    def test_zero(self):
        src = zero_values(RATIONALS)
        assert src((0, 0)) == s(0)

    def test_indicator(self):
        src = indicator_values((1, 2), RATIONALS)
        assert src((1, 2)) == s(1)
        assert src((0, 0)) == s(0)

    def test_random_deterministic_per_seed(self):
        o = overlay_of("X*Y + 3*Y + 2*X - I")
        b = Bounds(-1, 3, -1, 3)
        lay1 = standard_layout(o, b, 0, 0, random_values(99, RATIONALS))
        lay2 = standard_layout(o, b, 0, 0, random_values(99, RATIONALS))
        lay3 = standard_layout(o, b, 0, 0, random_values(100, RATIONALS))
        assert lay1 == lay2
        assert lay1 != lay3

    def test_random_prime_field_in_range(self):
        f7 = prime_field(7)
        src = random_values(5, f7)
        for coord in [(0, 0), (0, 1), (1, 0), (5, -3)]:
            assert 0 <= src(coord).value < 7

    def test_explicit_missing_coordinate_raises(self):
        src = explicit_values({(0, 0): s(1)})
        assert src((0, 0)) == s(1)
        with pytest.raises(ValueError):
            src((1, 1))


class TestLayoutObject:
    def test_contains_and_len(self):
        o = overlay_of("X*Y + 3*Y + 2*X - I")
        b = Bounds(-1, 3, -1, 3)
        lay = standard_layout(o, b, 0, 0, delta_values(RATIONALS))
        assert len(lay) == 9
        assert (0, 0) in lay and (-1, 0) in lay
        assert (2, 2) not in lay

    def test_with_values_keeps_coords(self):
        o = overlay_of("X*Y + 3*Y + 2*X - I")
        b = Bounds(-1, 3, -1, 3)
        lay = standard_layout(o, b, 0, 0, delta_values(RATIONALS))
        re = lay.with_values(indicator_values((0, 1), RATIONALS))
        assert sorted(re.coords) == sorted(lay.coords)
        assert re.value_at((0, 1)) == s(1)
        assert re.value_at((0, 0)) == s(0)
        assert re.provenance == lay.provenance

    def test_json_shape(self):
        b = Bounds(0, 2, 0, 2)
        lay = diagonal_layout(2, b, zero_values(RATIONALS))
        obj = lay.to_json_obj()
        assert obj["kind"] == "diagonal"
        assert obj["params"] == {"k": 2}
        assert {(e["r"], e["c"]) for e in obj["values"]} == set(lay.coords)

    @pytest.mark.parametrize("fd", [RATIONALS, prime_field(7)], ids=["Q", "F7"])
    @pytest.mark.parametrize("kind", ["standard", "diagonal", "custom"])
    def test_json_obj_loads_back_from_a_problem_file(self, kind, fd):
        o = overlay_of("X*Y + 3*Y + 2*X - I", fd)
        b = Bounds(-1, 3, -1, 3)
        values = random_values(5, fd)
        lay = {"standard": lambda: standard_layout(o, b, 2, 1, values),   # not the defaults
               "diagonal": lambda: diagonal_layout(1, b, values),
               "custom": lambda: custom_layout({cell: values(cell) for cell in b.coords()
                                                if sum(cell) % 3 == 0}, b)}[kind]()
        spec = loads_problem(json.dumps({
            "field": {"kind": "rationals"} if fd is RATIONALS else {"kind": "prime", "p": 7},
            "template": "X*Y + 3*Y + 2*X - I", "layout": lay.to_json_obj(),
            "window": {"r_min": -1, "r_max": 3, "c_min": -1, "c_max": 3}}))
        assert spec.layout == lay

    def test_custom_layout_bounds_check(self):
        with pytest.raises(LayoutOutOfWindow):
            custom_layout({(5, 5): s(1)}, Bounds(0, 1, 0, 1))
        lay = custom_layout({(0, 0): s(1)})
        assert lay.provenance.kind == "custom"


class TestDeltaMatchesNamedSetup:
    def test_row_and_column_of_zeros_with_unit_origin(self):
        o = overlay_of("X*Y + 3*Y + 2*X - I")
        b = Bounds(-1, 3, -1, 3)
        lay = standard_layout(o, b, 0, 0, delta_values(RATIONALS))
        assert lay.value_at((0, 0)) == s(1)
        for coord in lay.coords:
            if coord != (0, 0):
                assert lay.value_at(coord) == s(0)

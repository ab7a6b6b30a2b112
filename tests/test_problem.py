"""Problem files: loading, validation pointers, layout assembly."""

import json
import random

import pytest

from recur2d import (Bounds, RATIONALS, SchemaError, StandardProvenance,
                     from_int, load_problem, loads_problem)
from recur2d.problem import MAX_CELLS
from conftest import FIXTURES, HOSTILE_FILES, WORKED_DOC, with_raw


def spec_dict(**overrides):
    """A minimal valid problem that tests mutate field by field."""
    base = {
        "field": {"kind": "rationals"},
        "template": "X*Y + 3*Y + 2*X - I",
        "layout": {"kind": "standard",
                   "values": {"generator": "delta"}},
        "window": {"r_min": -1, "r_max": 3, "c_min": -1, "c_max": 3},
    }
    base.update(overrides)
    return base


def load_dict(d):
    return loads_problem(json.dumps(d))


def pointer_of(d):
    with pytest.raises(SchemaError) as exc:
        load_dict(d)
    return exc.value.pointer


class TestFixtures:
    def test_worked_example_file(self, example_overlay):
        spec = load_problem(FIXTURES / "worked_example.json")
        assert spec.field == RATIONALS
        assert spec.window == Bounds(-1, 3, -1, 3)
        assert spec.overlay.to_display_grid() == example_overlay.to_display_grid()
        assert isinstance(spec.layout.provenance, StandardProvenance)
        assert len(spec.layout) == 9
        assert spec.layout.value_at((0, 0)) == from_int(1, RATIONALS)
        assert all(spec.layout.value_at(c).is_zero()
                   for c in spec.layout.coords if c != (0, 0))

    def test_single_cell_file(self):
        spec = load_problem(FIXTURES / "single_cell.json")
        assert spec.overlay.m == spec.overlay.n == 0
        assert len(spec.layout) == 0
        assert spec.window == Bounds(0, 3, 0, 3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            load_problem(tmp_path / "nope.json")

    def test_invalid_json_reports_location(self):
        with pytest.raises(SchemaError, match="invalid JSON") as exc:
            loads_problem("{\"field\": }")
        assert exc.value.pointer == ""
        assert "line 1" in str(exc.value)

    @pytest.mark.parametrize("name,data,pointer", HOSTILE_FILES,
                             ids=[case[0] for case in HOSTILE_FILES])
    def test_hostile_file_ends_in_pointed_schema_error(self, tmp_path, name,
                                                       data, pointer):
        path = tmp_path / "spec.json"
        path.write_bytes(data)
        with pytest.raises(SchemaError) as exc:
            load_problem(path)
        assert exc.value.pointer == pointer


class TestRootShape:
    def test_unknown_root_key(self):
        assert pointer_of(spec_dict(frobnicate=1)) == "/frobnicate"

    def test_template_and_overlay_together(self):
        d = spec_dict(overlay=[[1]])
        with pytest.raises(SchemaError, match="exactly one"):
            load_dict(d)

    def test_neither_template_nor_overlay(self):
        d = spec_dict()
        del d["template"]
        with pytest.raises(SchemaError, match="required"):
            load_dict(d)

    def test_root_must_be_object(self):
        with pytest.raises(SchemaError):
            loads_problem("[1, 2, 3]")


class TestFieldSection:
    def test_unknown_kind(self):
        assert pointer_of(spec_dict(field={"kind": "octonions"})) == "/field/kind"

    def test_prime_requires_p(self):
        assert pointer_of(spec_dict(field={"kind": "prime"})) == "/field"

    def test_composite_modulus(self):
        assert pointer_of(spec_dict(field={"kind": "prime", "p": 6})) == "/field/p"

    def test_rationals_reject_p(self):
        d = spec_dict(field={"kind": "rationals", "p": 5})
        assert pointer_of(d) == "/field/p"

    def test_prime_field_values_parse_with_modulus(self):
        d = spec_dict(field={"kind": "prime", "p": 7},
                      template="2*X*Y + 3*Y + X + 6*I")
        spec = load_dict(d)
        assert spec.field.p == 7


class TestWindowSection:
    def test_empty_window(self):
        d = spec_dict(window={"r_min": 2, "r_max": 0, "c_min": 0, "c_max": 3})
        assert pointer_of(d) == "/window"

    def test_non_integer_bound(self):
        d = spec_dict(window={"r_min": -1.5, "r_max": 3, "c_min": -1, "c_max": 3})
        assert pointer_of(d) == "/window/r_min"

    def test_bool_is_not_an_integer(self):
        d = spec_dict(window={"r_min": True, "r_max": 3, "c_min": -1, "c_max": 3})
        assert pointer_of(d) == "/window/r_min"

    def test_missing_bound(self):
        d = spec_dict(window={"r_min": -1, "r_max": 3, "c_min": -1})
        assert pointer_of(d).startswith("/window")

    def test_cell_cap(self):
        d = spec_dict(window={"r_min": 0, "r_max": 0,
                              "c_min": -1, "c_max": MAX_CELLS - 1})
        assert pointer_of(d) == "/window"


class TestTemplateAndOverlay:
    def test_template_parse_error_pointer(self):
        assert pointer_of(spec_dict(template="X +")) == "/template"

    def test_zero_template_pointer(self):
        assert pointer_of(spec_dict(template="X - X")) == "/template"

    def test_overlay_cell_cap(self):
        # 1 x (MAX_CELLS + 1) grid, refused before Overlay allocates it
        d = spec_dict(field={"kind": "prime", "p": 7},
                      template=f"X^{MAX_CELLS} - I")
        with pytest.raises(SchemaError, match="overlay grid") as exc:
            load_dict(d)
        assert exc.value.pointer == "/template"

    def test_overlay_grid_route(self, example_overlay):
        d = spec_dict()
        del d["template"]
        d["overlay"] = [[1, 3], [2, -1]]
        spec = load_dict(d)
        assert spec.overlay.to_display_grid() == example_overlay.to_display_grid()

    def test_overlay_scalar_strings(self):
        d = spec_dict()
        del d["template"]
        d["overlay"] = [["1/2", 1], [1, "-2/3"]]
        spec = load_dict(d)
        assert not spec.overlay.coefficient(1, 1).is_zero()

    def test_overlay_bad_cell_pointer(self):
        d = spec_dict()
        del d["template"]
        d["overlay"] = [[1, "zap"], [2, -1]]
        assert pointer_of(d) == "/overlay/0/1"

    def test_overlay_ragged_rows(self):
        d = spec_dict()
        del d["template"]
        d["overlay"] = [[1, 3], [2]]
        assert pointer_of(d) == "/overlay/1"

    def test_overlay_violating_boundary_invariant(self):
        d = spec_dict()
        del d["template"]
        d["overlay"] = [[0, 0], [1, 1]]   # top display row all zero
        assert pointer_of(d) == "/overlay"


class TestLayoutSection:
    def test_unknown_layout_kind(self):
        d = spec_dict(layout={"kind": "spiral", "values": {"generator": "delta"}})
        assert pointer_of(d) == "/layout/kind"

    def test_unknown_generator(self):
        d = spec_dict(layout={"kind": "standard",
                              "values": {"generator": "fibonacci"}})
        assert pointer_of(d) == "/layout/values/generator"

    def test_diagonal_requires_k(self):
        d = spec_dict(layout={"kind": "diagonal",
                              "values": {"generator": "zero"}})
        assert pointer_of(d) == "/layout/params"

    def test_diagonal_layout_loads(self):
        d = spec_dict(template="2*I + 3*Y + 5*X*Y",
                      field={"kind": "prime", "p": 7},
                      layout={"kind": "diagonal", "params": {"k": 3},
                              "values": {"generator": "random", "seed": 1}},
                      window={"r_min": 0, "r_max": 3, "c_min": 0, "c_max": 3})
        spec = load_dict(d)
        assert (3, 3) in spec.layout.coords and (0, 0) in spec.layout.coords

    def test_standard_anchor_spill(self):
        d = spec_dict(layout={"kind": "standard", "params": {"a": 99},
                              "values": {"generator": "delta"}})
        assert pointer_of(d) == "/layout"

    def test_indicator_generator(self):
        d = spec_dict(layout={"kind": "standard",
                              "values": {"generator": "indicator",
                                         "at": [0, 2]}})
        spec = load_dict(d)
        assert spec.layout.value_at((0, 2)) == from_int(1, RATIONALS)
        assert spec.layout.value_at((0, 0)).is_zero()

    def test_indicator_outside_layout(self):
        d = spec_dict(layout={"kind": "standard",
                              "values": {"generator": "indicator",
                                         "at": [2, 2]}})
        assert pointer_of(d) == "/layout/values/at"

    def test_random_generator_is_seed_deterministic(self):
        d = spec_dict(layout={"kind": "standard",
                              "values": {"generator": "random", "seed": 9}})
        s1, s2 = load_dict(d), load_dict(d)
        assert all(s1.layout.value_at(c) == s2.layout.value_at(c)
                   for c in s1.layout.coords)


class TestExplicitValues:
    def _layout(self, values):
        return {"kind": "custom",
                "params": {"coords": [[0, 0], [0, 1]]},
                "values": values}

    def test_explicit_list(self):
        d = spec_dict(layout=self._layout([
            {"r": 0, "c": 0, "value": 4},
            {"r": 0, "c": 1, "value": "1/3"}]))
        spec = load_dict(d)
        assert spec.layout.value_at((0, 0)) == from_int(4, RATIONALS)

    def test_value_for_foreign_coordinate(self):
        d = spec_dict(layout=self._layout([
            {"r": 0, "c": 0, "value": 4},
            {"r": 0, "c": 1, "value": 0},
            {"r": 5, "c": 5, "value": 1}]))
        with pytest.raises(SchemaError, match="not part of this layout"):
            load_dict(d)

    def test_missing_value(self):
        d = spec_dict(layout=self._layout([{"r": 0, "c": 0, "value": 4}]))
        with pytest.raises(SchemaError, match="no value prescribed"):
            load_dict(d)

    def test_duplicate_entry(self):
        d = spec_dict(layout=self._layout([
            {"r": 0, "c": 0, "value": 4},
            {"r": 0, "c": 0, "value": 5},
            {"r": 0, "c": 1, "value": 0}]))
        with pytest.raises(SchemaError):
            load_dict(d)

    def test_custom_without_coords_infers_from_values(self):
        d = spec_dict(layout={"kind": "custom",
                              "values": [{"r": 0, "c": 0, "value": 1},
                                         {"r": 2, "c": 2, "value": 3}]})
        spec = load_dict(d)
        assert set(spec.layout.coords) == {(0, 0), (2, 2)}

    def test_custom_coord_outside_window(self):
        d = spec_dict(layout={"kind": "custom",
                              "values": [{"r": 99, "c": 0, "value": 1}]})
        assert pointer_of(d) == "/layout/values"

    def test_bool_value_rejected(self):
        d = spec_dict(layout=self._layout([
            {"r": 0, "c": 0, "value": True},
            {"r": 0, "c": 1, "value": 0}]))
        with pytest.raises(SchemaError):
            load_dict(d)


class TestFuzz:
    """Fixture documents with one node replaced by hostile JSON text end in a
    ProblemSpec or a SchemaError, never in another exception."""

    MUTATIONS = [
        # long integers
        "9" * 5000, "-" + "1" * 4301, "1" * 4300, "-" + "7" * 4300, "10" * 40,
        # long templates
        *(json.dumps(t) for t in [
            "+".join(["X"] * 5000), "X" * 5000, "X" + "^1" * 5000,
            "X + " + "1" * 5000, "1/" + "3" * 5000 + " X + Y",
            "(" * 124 + "X" + ")" * 124, "(" * 5000 + "X" + ")" * 5000,
            # huge exponents
            "X^3000000 - 1", "Y^50000*X^50000 - 1", "2^" + "9" * 5000,
            "X^" + "9" * 4000 + " - 1", "(X+Y+1)^9999", "99999^99999 X + Y",
            "X^2^3^4^5^6 - I"]),
        # deep nesting
        "[" * 50_000 + "]" * 50_000, '{"a": ' * 5000 + "1" + "}" * 5000,
        "[" * 900 + "]" * 900,
        # huge windows
        json.dumps({"r_min": -1, "r_max": 99_998, "c_min": -1, "c_max": 99_998}),
        json.dumps({"r_min": -10**18, "r_max": 10**18, "c_min": 0, "c_max": 0}),
        '{"r_min": -' + "9" * 4300 + ', "r_max": 0, "c_min": 0, "c_max": 0}',
        "10000000", "-10000000",
        # odd scalars and shapes
        '"1/0"', '"5 mod 7"', '"' + "1" * 5000 + '"', '"1/' + "2" * 5000 + '"',
        '"\u00b2"', "null", "true", "1.5", "{}", "[]", '""', "[[1]]",
    ]

    DOCS = [
        WORKED_DOC,
        json.loads((FIXTURES / "single_cell.json").read_text()),
        spec_dict(field={"kind": "prime", "p": 7}, template="2*I + 3*Y + 5*X*Y",
                  layout={"kind": "diagonal", "params": {"k": 3},
                          "values": {"generator": "random", "seed": 1}},
                  window={"r_min": 0, "r_max": 3, "c_min": 0, "c_max": 3}),
        spec_dict(layout={"kind": "custom",
                          "params": {"coords": [[0, 0], [0, 1]]},
                          "values": [{"r": 0, "c": 0, "value": 4},
                                     {"r": 0, "c": 1, "value": "1/3"}]}),
        spec_dict(layout={"kind": "standard",
                          "values": {"generator": "indicator", "at": [0, 2]}}),
    ]

    @staticmethod
    def pointers(node, prefix=""):
        yield prefix
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, child in items:
            yield from TestFuzz.pointers(child, f"{prefix}/{key}")

    def test_mutated_fixtures_end_in_spec_or_schema_error(self):
        rng = random.Random(20261018)
        loaded = refused = 0
        for _ in range(2000):
            doc = rng.choice(self.DOCS)
            pointer = rng.choice(list(self.pointers(doc)))
            text = with_raw(doc, pointer, rng.choice(self.MUTATIONS))
            try:
                loads_problem(text)
                loaded += 1
            except SchemaError:
                refused += 1
        assert loaded > 0 and refused > 0

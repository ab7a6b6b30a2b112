"""Problem-file ingestion: JSON in, fully validated ProblemSpec out.

Schema (all scalars are JSON integers or strings like "3/4" / "5 mod 7"):

    {
      "field":  {"kind": "rationals"} | {"kind": "prime", "p": <prime>},
      "template": "<expression>",            # exactly one of template/overlay
      "overlay": [[...], ...],               # display orientation (row m on top)
      "layout": {
        "kind": "standard" | "diagonal" | "custom",
        "params": {"a":..,"d":..} | {"k":..} | {"coords": [[r,c],...]},
        "values": [{"r":..,"c":..,"value":..}, ...]      # explicit, exact cover
                  | {"generator": "delta"|"zero"}
                  | {"generator": "indicator", "at": [r,c]}
                  | {"generator": "random", "seed": <int>}
      },
      "window": {"r_min":..,"r_max":..,"c_min":..,"c_max":..}
    }

Every rejection is a SchemaError whose pointer names the offending JSON node.
A window of more than MAX_CELLS cells, or a template whose overlay grid would
have more, is refused before anything of that size is allocated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (InvalidOverlayError, LayoutOutOfWindow,
                     NonContiguousExtremeRow, ParseError, SchemaError,
                     ShapeMismatch, ZeroTemplateError)
from .field import (FieldDescriptor, RATIONALS, Scalar, from_int, parse_scalar,
                    prime_field)
from .layout import (CustomProvenance, DiagonalProvenance, Layout,
                     StandardProvenance, delta_values, diagonal_coords,
                     indicator_values, random_values, standard_coords,
                     zero_values)
from .overlay import Overlay
from .parser import parse_template
from .window import Bounds

MAX_CELLS = 1_000_000


@dataclass(frozen=True)
class ProblemSpec:
    field: FieldDescriptor
    overlay: Overlay
    layout: Layout
    window: Bounds


def load_problem(path: str) -> ProblemSpec:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise SchemaError("", f"cannot read {path}: {e}") from None
    return loads_problem(text)


def loads_problem(text: str) -> ProblemSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("", f"invalid JSON: {e.msg} (line {e.lineno}, "
                          f"column {e.colno})") from None
    except (ValueError, RecursionError) as e:
        # an integer past the int/str digit limit, or nesting past the stack
        raise SchemaError("", f"invalid JSON: {e}") from None
    return _build_spec(doc)


# -- validation helpers -----------------------------------------------------

def _require_object(node, pointer: str) -> dict:
    if not isinstance(node, dict):
        raise SchemaError(pointer, f"expected an object, got {type(node).__name__}")
    return node


def _require_int(node, pointer: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise SchemaError(pointer, f"expected an integer, got {node!r}")
    return node


def _check_keys(obj: dict, pointer: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> None:
    """Unknown keys are reported in document order, missing ones in the
    written order of ``required``, so the message never varies by process."""
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"{pointer}/{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise SchemaError(pointer, f"missing required key {key!r}")


def _parse_cell(node, fd: FieldDescriptor, pointer: str) -> Scalar:
    if isinstance(node, bool):
        raise SchemaError(pointer, f"expected a scalar, got {node!r}")
    if isinstance(node, int):
        return from_int(node, fd)
    if isinstance(node, str):
        try:
            return parse_scalar(node, fd)
        except ParseError as e:
            raise SchemaError(pointer, str(e)) from None
    raise SchemaError(pointer, f"expected an integer or scalar string, got {node!r}")


# -- section builders -------------------------------------------------------

def _build_field(doc: dict) -> FieldDescriptor:
    node = _require_object(doc["field"], "/field")
    _check_keys(node, "/field", ("kind",), ("p",))
    kind = node["kind"]
    if kind == "rationals":
        if "p" in node:
            raise SchemaError("/field/p", "the rationals take no modulus")
        return RATIONALS
    if kind == "prime":
        if "p" not in node:
            raise SchemaError("/field", "missing required key 'p'")
        p = _require_int(node["p"], "/field/p")
        try:
            return prime_field(p)
        except ValueError as e:
            raise SchemaError("/field/p", str(e)) from None
    raise SchemaError("/field/kind", f"unknown field kind {kind!r}")


def _build_window(doc: dict) -> Bounds:
    node = _require_object(doc["window"], "/window")
    keys = ("r_min", "r_max", "c_min", "c_max")
    _check_keys(node, "/window", keys)
    vals = {k: _require_int(node[k], f"/window/{k}") for k in keys}
    try:
        bounds = Bounds(vals["r_min"], vals["r_max"], vals["c_min"], vals["c_max"])
    except ShapeMismatch as e:
        raise SchemaError("/window", str(e)) from None
    if bounds.height * bounds.width > MAX_CELLS:
        raise SchemaError("/window", f"window of more than {MAX_CELLS} cells")
    return bounds


def _build_overlay(doc: dict, fd: FieldDescriptor) -> Overlay:
    if "template" in doc:
        text = doc["template"]
        if not isinstance(text, str):
            raise SchemaError("/template", f"expected a string, got {text!r}")
        try:
            template = parse_template(text, fd)
            rows = {i for i, _ in template.terms} or {0}
            cols = {j for _, j in template.terms} or {0}
            if (max(rows) - min(rows) + 1) * (max(cols) - min(cols) + 1) > MAX_CELLS:
                raise SchemaError("/template",
                                  f"overlay grid of more than {MAX_CELLS} cells")
            return Overlay.from_template(template)
        except (ParseError, ZeroTemplateError) as e:
            raise SchemaError("/template", str(e)) from None
    grid = doc["overlay"]
    if not isinstance(grid, list) or not grid:
        raise SchemaError("/overlay", "expected a non-empty list of rows")
    rows: list[list[Scalar]] = []
    width = None
    for i, row in enumerate(grid):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"/overlay/{i}", "expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"/overlay/{i}",
                              f"row has {len(row)} cells, expected {width}")
        rows.append([_parse_cell(cell, fd, f"/overlay/{i}/{j}")
                     for j, cell in enumerate(row)])
    try:
        return Overlay.from_display_grid(fd, rows)
    except InvalidOverlayError as e:
        raise SchemaError("/overlay", str(e)) from None


def _layout_value_source(node: dict, fd: FieldDescriptor, coords: list[tuple[int, int]]):
    _check_keys(node, "/layout/values", ("generator",), ("at", "seed"))
    kind = node["generator"]
    if kind == "delta" or kind == "zero":
        if "at" in node or "seed" in node:
            raise SchemaError("/layout/values", f"{kind} takes no parameters")
        return delta_values(fd) if kind == "delta" else zero_values(fd)
    if kind == "indicator":
        if "at" not in node:
            raise SchemaError("/layout/values", "indicator needs 'at': [r, c]")
        at = node["at"]
        if (not isinstance(at, list) or len(at) != 2):
            raise SchemaError("/layout/values/at", f"expected [r, c], got {at!r}")
        at = (_require_int(at[0], "/layout/values/at/0"),
              _require_int(at[1], "/layout/values/at/1"))
        if at not in coords:
            raise SchemaError("/layout/values/at",
                              f"coordinate {at} is not part of this layout")
        return indicator_values(at, fd)
    if kind == "random":
        if "seed" not in node:
            raise SchemaError("/layout/values", "random needs an integer 'seed'")
        return random_values(_require_int(node["seed"], "/layout/values/seed"), fd)
    raise SchemaError("/layout/values/generator", f"unknown generator {kind!r}")


def _explicit_value_map(entries: list, fd: FieldDescriptor) -> dict[tuple[int, int], Scalar]:
    mapping: dict[tuple[int, int], Scalar] = {}
    for k, entry in enumerate(entries):
        node = _require_object(entry, f"/layout/values/{k}")
        _check_keys(node, f"/layout/values/{k}", ("r", "c", "value"))
        r = _require_int(node["r"], f"/layout/values/{k}/r")
        c = _require_int(node["c"], f"/layout/values/{k}/c")
        if (r, c) in mapping:
            raise SchemaError(f"/layout/values/{k}", f"duplicate coordinate ({r},{c})")
        mapping[(r, c)] = _parse_cell(node["value"], fd, f"/layout/values/{k}/value")
    return mapping


def _layout_coords(node: dict, overlay: Overlay, window: Bounds):
    """The layout's coordinates, in draw order, and its provenance. A custom
    layout without ``params.coords`` has None: its values list names them."""
    kind = node["kind"]
    params = _require_object(node.get("params", {}), "/layout/params")
    try:
        if kind == "standard":
            _check_keys(params, "/layout/params", (), ("a", "d"))
            a = _require_int(params.get("a", 0), "/layout/params/a")
            d = _require_int(params.get("d", 0), "/layout/params/d")
            return standard_coords(overlay, window, a, d), StandardProvenance(a, d)
        if kind == "diagonal":
            _check_keys(params, "/layout/params", ("k",))
            k = _require_int(params["k"], "/layout/params/k")
            return diagonal_coords(k, window), DiagonalProvenance(k)
    except (NonContiguousExtremeRow, LayoutOutOfWindow) as e:
        raise SchemaError("/layout", str(e)) from None
    if kind == "custom":
        _check_keys(params, "/layout/params", (), ("coords",))
        if "coords" not in params:
            return None, CustomProvenance()
        raw = params["coords"]
        if not isinstance(raw, list):
            raise SchemaError("/layout/params/coords", "expected a list of [r, c]")
        coords = []
        for k, pair in enumerate(raw):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"/layout/params/coords/{k}",
                                  f"expected [r, c], got {pair!r}")
            coords.append((_require_int(pair[0], f"/layout/params/coords/{k}/0"),
                           _require_int(pair[1], f"/layout/params/coords/{k}/1")))
        return coords, CustomProvenance()
    raise SchemaError("/layout/kind", f"unknown layout kind {kind!r}")


def _build_layout(doc: dict, fd: FieldDescriptor, overlay: Overlay,
                  window: Bounds) -> Layout:
    node = _require_object(doc["layout"], "/layout")
    _check_keys(node, "/layout", ("kind", "values"), ("params",))
    coords, provenance = _layout_coords(node, overlay, window)
    prescribed = _bind_values(node["values"], fd, coords)
    for coord in prescribed:  # standard and diagonal coordinates are clipped already
        if not window.contains(*coord):
            raise SchemaError("/layout/values" if coords is None else "/layout",
                              f"coordinate {coord} outside {window}")
    return Layout(prescribed, provenance)


def _bind_values(values, fd: FieldDescriptor,
                 coords: list[tuple[int, int]] | None) -> dict[tuple[int, int], Scalar]:
    """The prescribed map: a generator drawn over ``coords`` in order, or an
    explicit list that covers ``coords`` exactly (or, with no coords, names them)."""
    if coords is None and not isinstance(values, list):
        raise SchemaError("/layout/values", "a custom layout without params.coords "
                                            "needs an explicit values list")
    if isinstance(values, dict):
        source = _layout_value_source(values, fd, coords)
        return {coord: source(coord) for coord in coords}
    if not isinstance(values, list):
        raise SchemaError("/layout/values",
                          "expected a generator object or a list of value entries")
    mapping = _explicit_value_map(values, fd)
    if coords is None:
        return mapping
    coord_set = set(coords)
    for k, coord in enumerate(mapping):
        if coord not in coord_set:
            raise SchemaError(f"/layout/values/{k}",
                              f"coordinate {coord} is not part of this layout")
    for coord in coords:
        if coord not in mapping:
            raise SchemaError("/layout/values",
                              f"no value prescribed for coordinate {coord}")
    return {coord: mapping[coord] for coord in coords}


def _build_spec(doc) -> ProblemSpec:
    root = _require_object(doc, "")
    _check_keys(root, "", ("field", "layout", "window"), ("template", "overlay"))
    has_template = "template" in root
    has_overlay = "overlay" in root
    if has_template and has_overlay:
        raise SchemaError("", "give exactly one of 'template' or 'overlay', not both")
    if not has_template and not has_overlay:
        raise SchemaError("", "one of 'template' or 'overlay' is required")
    fd = _build_field(root)
    window = _build_window(root)
    overlay = _build_overlay(root, fd)
    layout = _build_layout(root, fd, overlay, window)
    return ProblemSpec(fd, overlay, layout, window)

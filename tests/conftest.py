"""Shared fixtures: the worked-example overlay, reference values, a
generator of random overlays usable with standard layouts (and their
fractional-coefficient variant over Q), and hostile problem files that must
end in a pointed SchemaError."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from recur2d import (Bounds, FieldDescriptor, Overlay, RATIONALS, Scalar,
                     from_fraction, from_int, parse_template, prime_field, zero)

FIXTURES = Path(__file__).parent / "fixtures"
WORKED_DOC = json.loads((FIXTURES / "worked_example.json").read_text())

_RAW = "\x00raw\x00"


def with_raw(doc, pointer: str, raw: str) -> str:
    """``doc`` as JSON text with the node at ``pointer`` replaced by ``raw``,
    verbatim: raw text can hold what json.dumps would not write, such as an
    integer past the int/str digit limit or nesting past the stack."""
    if not pointer:
        return raw
    doc = json.loads(json.dumps(doc))
    *path, last = pointer[1:].split("/")
    node = doc
    for key in path:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = _RAW
    return json.dumps(doc).replace(json.dumps(_RAW), raw)


def _worked(**overrides) -> str:
    return json.dumps({**WORKED_DOC, **overrides})


# Problem files that once escaped as a traceback: (id, file bytes, pointer of
# the SchemaError they must end in).
HOSTILE_FILES = [
    ("seed-of-5000-digits", with_raw(
        {**WORKED_DOC, "layout": {"kind": "standard",
                                  "values": {"generator": "random", "seed": 0}}},
        "/layout/values/seed", "9" * 5000).encode(), ""),
    ("json-50000-deep", with_raw(WORKED_DOC, "/template",
                                 "[" * 50_000 + "]" * 50_000).encode(), ""),
    ("not-utf8", b"\xff\xfe{\"field\": \x80}", ""),
    ("literal-of-5000-digits", _worked(template="X + " + "1" * 5000).encode(),
     "/template"),
    ("value-of-5000-digits", _worked(layout={
        "kind": "custom", "values": [{"r": 0, "c": 0, "value": "1" * 5000}]}).encode(),
     "/layout/values/0/value"),
    ("overlay-1x3000001-over-F7", _worked(field={"kind": "prime", "p": 7},
                                          template="X^3000000 - 1").encode(),
     "/template"),
    ("overlay-50001x50001-over-Q", _worked(template="Y^50000*X^50000 - 1").encode(),
     "/template"),
    ("overlay-50001x50001-over-F7", _worked(field={"kind": "prime", "p": 7},
                                            template="Y^50000*X^50000 - 1").encode(),
     "/template"),
    ("window-of-1e10-cells", _worked(window={
        "r_min": -1, "r_max": 99_998, "c_min": -1, "c_max": 99_998}).encode(),
     "/window"),
]


@pytest.fixture
def fd_q() -> FieldDescriptor:
    return RATIONALS


@pytest.fixture
def fd_f7() -> FieldDescriptor:
    return prime_field(7)


@pytest.fixture
def example_overlay(fd_q) -> Overlay:
    """Overlay of X*Y + 3*Y + 2*X - I, the running 2x2 example."""
    return Overlay.from_template(parse_template("X*Y + 3*Y + 2*X - I", fd_q))


@pytest.fixture
def example_bounds() -> Bounds:
    return Bounds(-1, 3, -1, 3)


# Reference window for the running example with the delta standard layout,
# derived independently: row 0 and column 0 are the prescribed delta; rows
# 1..3 follow A[r][c] = A[r-1][c-1] + 3*A[r-1][c] + 2*A[r][c-1]; the flank
# columns come from solving the same equation for its other corners,
# A[r][-1] = (A[r][0] - A[r-1][-1] - 3*A[r-1][0]) / 2 and
# A[-1][c] = (A[0][c] - A[-1][c-1] - 2*A[0][c-1]) / 3.
GOLDEN = {
    (-1, -1): Fraction(1), (-1, 0): Fraction(0), (-1, 1): Fraction(-2, 3),
    (-1, 2): Fraction(2, 9), (-1, 3): Fraction(-2, 27),
    (0, -1): Fraction(0), (0, 0): Fraction(1), (0, 1): Fraction(0),
    (0, 2): Fraction(0), (0, 3): Fraction(0),
    (1, -1): Fraction(-3, 2), (1, 0): Fraction(0), (1, 1): Fraction(1),
    (1, 2): Fraction(2), (1, 3): Fraction(4),
    (2, -1): Fraction(3, 4), (2, 0): Fraction(0), (2, 1): Fraction(3),
    (2, 2): Fraction(13), (2, 3): Fraction(40),
    (3, -1): Fraction(-3, 8), (3, 0): Fraction(0), (3, 1): Fraction(9),
    (3, 2): Fraction(60), (3, 3): Fraction(253),
}


@pytest.fixture
def golden_values() -> dict[tuple[int, int], Fraction]:
    return dict(GOLDEN)


def _nonzero(rng: random.Random, field: FieldDescriptor) -> Scalar:
    if field.kind == "rationals":
        v = 0
        while v == 0:
            v = rng.randint(-4, 4)
        return from_int(v, field)
    return from_int(rng.randint(1, field.p - 1), field)


def make_random_overlay(rng: random.Random, field: FieldDescriptor,
                        max_m: int = 2, max_n: int = 2) -> Overlay:
    """Random overlay with contiguous nonzero extreme rows and populated
    boundary rows/columns, so the standard-layout construction applies."""
    m = rng.randint(0, max_m)
    n = rng.randint(0, max_n)
    z = zero(field)
    grid = [[_nonzero(rng, field) if rng.random() < 0.7 else z
             for _ in range(n + 1)] for _ in range(m + 1)]
    # Extreme rows: one contiguous nonzero block each.
    for i in {0, m}:
        lo = rng.randint(0, n)
        hi = rng.randint(lo, n)
        grid[i] = [_nonzero(rng, field) if lo <= j <= hi else z
                   for j in range(n + 1)]
    # Boundary columns 0 and n must hold a nonzero somewhere; patch interior
    # rows first so the extreme rows stay contiguous.
    for j in {0, n}:
        if all(grid[i][j].is_zero() for i in range(m + 1)):
            if m >= 2:
                grid[rng.randint(1, m - 1)][j] = _nonzero(rng, field)
            else:
                row = rng.choice([0, m])
                span = [jj for jj in range(n + 1) if not grid[row][jj].is_zero()]
                lo, hi = min(span + [j]), max(span + [j])
                for jj in range(lo, hi + 1):
                    grid[row][jj] = _nonzero(rng, field)
    return Overlay(field, grid)


def fractional(rng, o):
    """``o``'s zero pattern over Q with coefficients such as 3, -1/2 or 5/7."""
    return Overlay(RATIONALS, [
        [from_fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.choice((1, 1, 2, 3, 7)),
                       RATIONALS) if o.coefficient(i, j) else zero(RATIONALS)
         for j in range(o.n + 1)] for i in range(o.m + 1)])


@pytest.fixture
def random_overlay():
    return make_random_overlay

"""API digests: one canonical JSON record per public call on a fixed seeded
pool of problems, compared by sha256 with the committed
``fixtures/api_digests.json``. Payload types are part of each record, so a
change that keeps every rendered value but turns a Fraction into an int shows.

The pool is 300 problems: Q with fractional coefficients, F_7 and F_101, on
standard, diagonal and custom layouts, in windows of up to 7x7 cells. A
change meant to keep behaviour leaves every digest unchanged; the test names
the first record that differs. To re-record after a deliberate behaviour
change (and say in CHANGES.md which records changed and why):

    PYTHONPATH=src python tests/test_api_digests.py
"""

import dataclasses
import hashlib
import json
import random
from itertools import zip_longest
from pathlib import Path

from recur2d import (ArrayWindow, Bounds, DiagonalProvenance, EngineError, FillResult,
                     Overlay, RATIONALS, Scalar, StandardProvenance,
                     assemble_system, basis_array, check_support_cases,
                     custom_layout, diagonal_layout, dump_system, fill, fill_diagonal,
                     finite_contribution_report, from_int, annihilates,
                     oracle_equals_fill, prime_field, random_values, replay,
                     solve_problem, standard_layout, steps_from_jsonl, steps_to_jsonl,
                     superpose, zero)
from recur2d.errors import LayoutOutOfWindow
from conftest import fractional, make_random_overlay

DIGESTS = Path(__file__).resolve().parent / "fixtures" / "api_digests.json"
FIELDS = (RATIONALS, prime_field(7), prime_field(101))
KINDS = ("standard", "diagonal", "custom")
POOL_SIZE = 300


def typed(v):
    """A payload with its type, or None for Unknown."""
    if isinstance(v, Scalar):
        v = v.value
    return None if v is None else [type(v).__name__, str(v)]


def window_obj(w):
    b = w.bounds
    return {"bounds": [b.r_min, b.r_max, b.c_min, b.c_max], "field": repr(w.field),
            "frozen": w.frozen, "cells": [typed(w.get(*coord)) for coord in b.coords()]}


def fill_obj(res):
    return {"status": res.status, "unfilled": res.unfilled, "witness": res.witness,
            "window": window_obj(res.window), "steps": steps_to_jsonl(res.steps),
            "step_types": [typed(step.value)[0] for step in res.steps]}


def oracle_obj(res):
    cert = res.certificate
    return {"kind": res.kind,
            "assignment": None if res.assignment is None else
            [[coord, typed(v)] for coord, v in res.assignment.items()],
            "forced": None if res.forced is None else
            [[coord, typed(v)] for coord, v in res.forced.items()],
            "free_witness": res.free_witness,
            "certificate": None if cert is None else
            {"combination": [typed(x) for x in cert.combination], "rhs": typed(cert.rhs)}}


def diagonal_stencil(rng, fd):
    """b00 + b10*Y + b11*XY with nonzero coefficients, the stencil fill_diagonal takes."""
    def b():
        return from_int(rng.choice((-3, -2, -1, 1, 2, 3)), fd)
    return Overlay(fd, [[b(), zero(fd)], [b(), b()]])


def problem(seed):
    """(overlay, layout, bounds) of pool problem ``seed``."""
    rng = random.Random(seed)
    fd, kind = FIELDS[seed % 3], KINDS[seed // 3 % 3]
    o = make_random_overlay(rng, fd)
    if kind == "diagonal" and seed % 2:
        o = diagonal_stencil(rng, fd)
    if fd is RATIONALS:
        o = fractional(rng, o)
    r0, c0 = rng.randint(-3, 0), rng.randint(-3, 0)
    b = Bounds(r0, r0 + rng.randint(0, 6), c0, c0 + rng.randint(0, 6))
    if kind == "standard":   # rows 0..m-1 in the window
        b = Bounds(r0, max(b.r_max, o.m - 1), c0, max(b.c_max, c0 + max(o.u, o.l) - 1))
    values = random_values(seed, fd)
    try:
        if kind == "standard":
            return o, standard_layout(o, b, rng.randint(b.c_min, b.c_max - o.u + 1),
                                      rng.randint(b.c_min, b.c_max - o.l + 1), values), b
        if kind == "diagonal":
            return o, diagonal_layout(rng.randint(b.r_min, b.r_max), b, values), b
    except LayoutOutOfWindow:   # the window cannot host this layout
        pass
    # Small integers, zeros included, make inconsistent fills common.
    return o, custom_layout({cell: from_int(rng.randint(-2, 2), fd) if rng.random() < 0.5
                             else values(cell) for cell in b.coords()
                             if rng.random() < 0.4}, b), b


def outcome(call):
    """The call's result, as JSON, or the type and text of its refusal."""
    try:
        res = call()
    except (EngineError, ValueError) as e:
        return {"refused": type(e).__name__, "text": str(e)}
    if isinstance(res, ArrayWindow):
        return window_obj(res)
    if isinstance(res, FillResult):
        return fill_obj(res)
    return [[coord, typed(v)] for coord, v in res] if isinstance(res, list) else res


def records(seed):
    """(name, canonical JSON object) for every call made on pool problem ``seed``."""
    o, lay, b = problem(seed)
    rng = random.Random(-1 - seed)
    res = fill(o, lay, b)
    yield "fill", fill_obj(res)
    yield "fill-shuffled", fill_obj(fill(o, lay, b, order_seed=seed))
    if isinstance(lay.provenance, DiagonalProvenance):
        yield "fill_diagonal", outcome(lambda: fill_diagonal(o, lay, b))
    yield "replay", window_obj(replay(o, lay, res.steps, b))
    yield "superpose", window_obj(superpose(o, lay, b))
    at = rng.choice(lay.coords) if lay.coords else (b.r_min, b.c_min)
    yield "basis_array", outcome(lambda: basis_array(o, lay, at, b))
    cell = (rng.randint(b.r_min, b.r_max), rng.randint(b.c_min, b.c_max))
    yield "contribution", outcome(lambda: finite_contribution_report(o, lay, b, cell))
    if isinstance(lay.provenance, StandardProvenance):
        yield "check_support", check_support_cases(o, lay, b).to_text()
    oracle = solve_problem(o, lay, b)
    yield "solve", oracle_obj(oracle)
    yield "oracle_equals_fill", oracle_equals_fill(oracle, res)
    yield "dump_system", dump_system(assemble_system(o, lay, b))
    report = annihilates(o.to_template(), res.window)
    yield "annihilates", [report.verdict, report.checked,
                          [[r, c, typed(v)] for r, c, v in report.residuals]]
    if seed % 10 == 0:
        yield from refusals(o, lay, b, res, rng)


def refusals(o, lay, b, res, rng):
    fd = o.field
    other = prime_field(7) if fd is RATIONALS else RATIONALS
    outside = (b.r_max + 1, b.c_min)
    cells = list(b.coords())
    yield "refuse/basis_array", outcome(lambda: basis_array(
        o, lay, next((c for c in cells if c not in lay), outside), b))
    yield "refuse/contribution", outcome(lambda: finite_contribution_report(o, lay, b, outside))
    yield "refuse/foreign-field", outcome(lambda: fill(
        o, custom_layout({cells[0]: from_int(1, other)}), b))
    yield "refuse/out-of-window", outcome(lambda: fill(
        o, custom_layout({outside: from_int(1, fd)}), b))
    yield "refuse/non-diagonal", outcome(lambda: fill_diagonal(o, custom_layout({}), b))
    yield "refuse/non-standard", outcome(lambda: check_support_cases(o, custom_layout({}), b))
    yield "refuse/step-log", outcome(lambda: steps_from_jsonl('{"placement": [0, 0]}\n', fd))
    if res.steps:
        k = rng.randrange(len(res.steps))
        step = res.steps[k]
        changed = dataclasses.replace(step, value=step.value + from_int(1, fd))
        yield "refuse/replay-value", outcome(lambda: replay(
            o, lay, res.steps[:k] + (changed,) + res.steps[k + 1:], b))
        moved = dataclasses.replace(step, pivot=(7, 7))
        yield "refuse/replay-pivot", outcome(lambda: replay(
            o, lay, res.steps[:k] + (moved,) + res.steps[k + 1:], b))
        yield "refuse/replay-foreign", outcome(lambda: replay(
            o, custom_layout({}), res.steps, b))
        j = rng.randrange(len(res.steps))   # step j again, later, with another value
        again = dataclasses.replace(res.steps[j], value=res.steps[j].value + from_int(1, fd))
        at = rng.randint(j + 1, len(res.steps))
        yield "refuse/replay-repeat", outcome(lambda: replay(
            o, lay, res.steps[:at] + (again,) + res.steps[at:], b))
        r, c = step.placement
        off = dataclasses.replace(step, placement=(r + b.height, c))
        yield "refuse/replay-off-window", outcome(lambda: replay(
            o, lay, res.steps[:k] + (off,) + res.steps[k + 1:], b))
        if len(res.steps) > 1:
            i = rng.randrange(len(res.steps) - 1)
            yield "refuse/replay-swapped", outcome(lambda: replay(
                o, lay, res.steps[:i] + (res.steps[i + 1], res.steps[i]) + res.steps[i + 2:], b))


def digests():
    """{problem seed: [[record name, digest], ...]}, the digest being the first
    16 hex digits of the sha256 of the record's canonical JSON."""
    return {f"{seed:03d}": [
        [name, hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":"))
                              .encode()).hexdigest()[:16]] for name, obj in records(seed)]
        for seed in range(POOL_SIZE)}


def test_api_digests_unchanged():
    want, got = json.loads(DIGESTS.read_text()), digests()
    differ = [f"{seed}/{(old or new)[0]}" for seed in {**want, **got}
              for old, new in zip_longest(want.get(seed, []), got.get(seed, [])) if old != new]
    assert not differ, f"{len(differ)} records differ, the first {differ[0]}"


if __name__ == "__main__":
    DIGESTS.write_text("{\n" + ",\n".join(f"{json.dumps(seed)}: {json.dumps(pairs)}"
                                          for seed, pairs in digests().items()) + "\n}\n")
    print(f"wrote {DIGESTS}")

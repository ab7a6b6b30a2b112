"""Request generators for the four benchmark workloads.

A request is one problem document (the JSON the engine's problem loader
reads) plus one operation on it. Every generator is a pure function of the
seed: the same seed yields byte-identical requests. The pool *shape* (sizes,
fields, templates, cases) is fixed per workload, so that runs with different
seeds do the same amount of work; the seed only draws the layout values, the
dropped or contradicting pin, and the request order. That keeps medians
comparable across seeds.

``cli-small`` is the exception: its problems are a fixed, seed-free pool
whose stdout digests are recorded in ``cli_digests.json``; the seed orders the
pool. (Drawing a subset per seed made the p99 depend on which few heavy
entries were drawn.)
"""

from __future__ import annotations

import hashlib
import json
import random

RATIONALS = {"kind": "rationals"}
PRIME = {"kind": "prime", "p": 1000003}
FIELDS = {"Q": RATIONALS, "F1000003": PRIME}

RUNNING = "X*Y + 3*Y + 2*X - I"
# A 3x3 stencil whose standard layout leaves cells no placement can reach,
# so every fill of it ends partial.
PARTIAL_3X3 = "3*X^2*Y^2 + 3*X*Y^2 + 2*Y^2 + 2*Y + 3*X^2"
WIDE_2X3 = "X^2*Y + 2*X*Y + Y - X^2 + 3*X - 1"

WORKLOADS = ("fill-centered", "oracle-check", "basis-sweep", "cli-small")

# Pool shapes. The toy shapes keep the smoke test fast; they exercise the same
# code paths.
# Each pool has an odd number of requests, so that the median of whole passes
# falls inside one request's samples rather than between two requests.
FILL_SIDES = {"full": (24, 28), "toy": (6,)}
FILL_EXTRA = {"full": [(RUNNING, "complete", "F1000003", 32)], "toy": []}
# req_tail_ms is a run's eleventh-largest latency. The slowest request of
# fill-centered (the running example over Q at side 28) and of basis-sweep
# (superpose over F_1000003 at side 14) is therefore run three times a pass:
# at four or more passes a run, the tail falls among the samples of that one
# request, not on the edge between two requests that moves with the pass count.
SLOWEST_COPIES = {"full": 3, "toy": 1}
# The two F_1000003 inconsistent cases and the 196-cell unique case are the
# slowest, so a run's eleventh-largest latency falls among a score of similar
# samples rather than on the edge between two requests.
ORACLE_CASES = {
    "full": [("Q", 8, "unique"), ("Q", 8, "underdetermined"), ("Q", 8, "inconsistent"),
             ("Q", 10, "unique"), ("Q", 10, "underdetermined"),
             ("F1000003", 10, "unique"), ("F1000003", 10, "underdetermined"),
             ("F1000003", 10, "inconsistent"), ("F1000003", 10, "inconsistent"),
             ("F1000003", 12, "unique"), ("F1000003", 14, "unique")],
    "toy": [("Q", 4, "unique"), ("Q", 4, "underdetermined"),
            ("F1000003", 4, "inconsistent")],
}
BASIS_SIDES = {"full": (8, 11, 14), "toy": (4,)}
CLI_POOL = {"full": 240, "toy": 12}

CLI_COMMANDS = ("fill", "validate", "basis", "check-support", "series", "oracle-diff")


def problem(field: str, template: str, layout: dict, bounds: tuple) -> str:
    r_min, r_max, c_min, c_max = bounds
    return json.dumps({
        "field": FIELDS[field], "template": template, "layout": layout,
        "window": {"r_min": r_min, "r_max": r_max, "c_min": c_min, "c_max": c_max},
    }, sort_keys=True)


def centred(side: int) -> tuple:
    half = side // 2
    return (-half, side - half - 1, -half, side - half - 1)


def from_row_minus_one(side: int) -> tuple:
    return (-1, side - 2, -1, side - 2)


def cells(bounds: tuple) -> int:
    return (bounds[1] - bounds[0] + 1) * (bounds[3] - bounds[2] + 1)


def standard(rng: random.Random) -> dict:
    return {"kind": "standard", "params": {"a": 0, "d": 0},
            "values": {"generator": "random", "seed": rng.randrange(2**31)}}


def request(op: str, text: str, bounds: tuple, **expect) -> dict:
    return {"op": op, "problem": text, "cells": cells(bounds), "expect": expect}


def fill_centered(seed: int, scale: str, recur2d) -> list[dict]:
    rng = random.Random(seed)
    out = []
    shapes = [(template, status, field, side)
              for template, status in ((RUNNING, "complete"), (PARTIAL_3X3, "partial"))
              for field in FIELDS for side in FILL_SIDES[scale]] + FILL_EXTRA[scale]
    for template, status, field, side in shapes:
        bounds = centred(side)
        req = request("fill", problem(field, template, standard(rng), bounds),
                      bounds, status=status)
        slowest = (template, field, side) == (RUNNING, "Q", max(FILL_SIDES[scale]))
        out += [dict(req) for _ in range(SLOWEST_COPIES[scale] if slowest else 1)]
    rng.shuffle(out)
    return out


def _oracle_case(rng: random.Random, op: str, field: str, side: int, case: str,
                 recur2d) -> dict:
    """A unique, underdetermined or inconsistent system on one window.

    The underdetermined case drops one pin of the standard layout; the
    inconsistent case keeps every pin and adds one more, on a cell the
    standard layout determines, with its determined value plus one.
    """
    bounds = from_row_minus_one(side)
    unique = problem(field, RUNNING, standard(rng), bounds)
    status = {"unique": "complete", "underdetermined": "partial",
              "inconsistent": "inconsistent"}[case]
    if case == "unique":
        return request(op, unique, bounds, kind=case, status=status)
    spec = recur2d.loads_problem(unique)
    pins = spec.layout.prescribed
    values = [{"r": r, "c": c, "value": v.render()} for (r, c), v in pins.items()]
    if case == "underdetermined":
        del values[rng.randrange(len(values))]
    else:
        window = recur2d.fill(spec.overlay, spec.layout, spec.window).window
        free = [(r, c) for r, c, _ in window.known_cells() if (r, c) not in pins]
        r, c = rng.choice(free)
        bad = window.get(r, c) + recur2d.one(spec.field)
        values.append({"r": r, "c": c, "value": bad.render()})
    text = problem(field, RUNNING, {"kind": "custom", "values": values}, bounds)
    return request(op, text, bounds, kind=case, status=status)


def oracle_check(seed: int, scale: str, recur2d) -> list[dict]:
    rng = random.Random(seed)
    ops = ("validate", "oracle-diff")
    out = [_oracle_case(rng, ops[k % 2], field, side, case, recur2d)
           for k, (field, side, case) in enumerate(ORACLE_CASES[scale])]
    rng.shuffle(out)
    return out


def basis_sweep(seed: int, scale: str, recur2d) -> list[dict]:
    """Every request runs one indicator fill per layout coordinate.

    check-support uses the running example only: its claimed vanishing
    regions are a theorem there, so any counterexample is an engine fault.
    """
    rng = random.Random(seed)
    out = []
    for field in FIELDS:
        for side in BASIS_SIDES[scale]:
            bounds = from_row_minus_one(side)
            out.append(request("check-support", problem(field, RUNNING, standard(rng), bounds),
                               bounds))
            out.append(request("basis", problem(field, RUNNING, standard(rng), bounds), bounds))
            if (field, side) != ("Q", 14):
                req = request("superpose", problem(field, WIDE_2X3, standard(rng), bounds),
                              bounds)
                slowest = (field, side) == ("F1000003", max(BASIS_SIDES[scale]))
                out += [dict(req) for _ in range(SLOWEST_COPIES[scale] if slowest else 1)]
    rng.shuffle(out)
    return out


# -- cli-small: a fixed pool with recorded stdout digests -----------------

CLI_TEMPLATES = (RUNNING, "2*X*Y + 3*Y - 1", "(X*Y - 1)^2 + Y", WIDE_2X3,
                 "X^2*Y^2 - 2*X*Y + 3*Y - X + 1", "(X - 2)^2*Y + 3*X - 1")


def cli_pool_entry(index: int) -> dict:
    """Pool entry ``index``: a tiny problem file and the argv to run on it.

    Entries depend on ``index`` alone, never on the run seed, so that their
    stdout digests can be recorded once.
    """
    rng = random.Random(index)
    command = CLI_COMMANDS[index % len(CLI_COMMANDS)]
    field = rng.choice(tuple(FIELDS))
    # Small enough that loading, parsing, argparse and rendering outweigh the
    # engine's work. Commands that run many fills or an elimination get 2x2
    # stencils on 3x3 windows; 4 is the least side every template fits.
    small = command in ("validate", "basis", "check-support", "oracle-diff")
    side = 3 if small else 4
    bounds = from_row_minus_one(side)
    r_min, r_max, c_min, c_max = bounds
    kinds = ["standard", "diagonal", "custom"]
    if command == "check-support":
        kinds = ["standard"]
    kind = rng.choice(kinds)
    template = rng.choice(CLI_TEMPLATES[:2] if small else CLI_TEMPLATES)
    values_kind = rng.choice(("random", "delta", "explicit"))
    if kind == "standard":
        coords = None
        layout = {"kind": "standard", "params": {"a": 0, "d": 0}}
        at = (0, c_min)
    elif kind == "diagonal":
        template = "2*X*Y + 3*Y - 1"
        k = rng.randint(r_min + 1, r_max)
        coords = [(i, i) for i in range(max(r_min, c_min), min(r_max, c_max) + 1)]
        coords += [(k, c) for c in range(c_min, min(k - 1, c_max) + 1)]
        layout = {"kind": "diagonal", "params": {"k": k}}
        at = coords[0]
    else:
        coords = [(0, c) for c in range(c_min, c_max + 1)]
        coords += [(r, 0) for r in range(r_min, r_max + 1) if r != 0]
        if rng.random() < 0.5:
            coords.pop(rng.randrange(len(coords)))
        layout = {"kind": "custom", "params": {"coords": [list(p) for p in coords]}}
        at = coords[0]
    if values_kind == "explicit" and coords is None:
        values_kind = "random"
    if values_kind == "explicit":
        layout = {"kind": "custom", "values": [
            {"r": r, "c": c, "value": _cli_value(rng, field)} for r, c in coords]}
    elif values_kind == "delta":
        layout["values"] = {"generator": "delta"}
    else:
        layout["values"] = {"generator": "random", "seed": rng.randrange(10**6)}
    text = problem(field, template, layout, bounds)
    args = [command, "{spec}"]
    if command in ("fill", "basis"):
        args += ["--out", rng.choice(("ascii", "tsv", "json"))]
    if command == "basis":
        args.append(f"--at={at[0]},{at[1]}")
    return {"op": "cli", "problem": text, "args": args, "cells": cells(bounds)}


def cli_key(entry: dict) -> str:
    blob = entry["problem"] + "\n" + json.dumps(entry["args"])
    return hashlib.sha256(blob.encode()).hexdigest()


def _cli_value(rng: random.Random, field: str):
    if field == "Q" and rng.random() < 0.5:
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
    return rng.randint(-9, 9)


def cli_small(seed: int, scale: str, recur2d) -> list[dict]:
    out = [cli_pool_entry(i) for i in range(CLI_POOL[scale])]
    random.Random(seed).shuffle(out)
    return out


GENERATORS = {"fill-centered": fill_centered, "oracle-check": oracle_check,
              "basis-sweep": basis_sweep, "cli-small": cli_small}


def generate(workload: str, seed: int, scale: str, recur2d) -> list[dict]:
    return GENERATORS[workload](seed, scale, recur2d)

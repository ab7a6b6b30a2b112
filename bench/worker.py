"""One workload in one process: set up, run the closed loop, check every output.

Started by ``run.py``; not meant to be run by hand. The process is single-
threaded and keeps one request in flight. It runs whole passes over the
request list until the requests have been busy for ``--seconds``, so every
run sees the same mix. Each output is checked outside its timed region; a
repeat of a request is checked by equality with the output that already
passed.

With ``--setup-only`` the process only times its set-up (importing the
engine and loading the inputs) and exits. With ``--trace 1`` each request is
run untraced and then traced, and the spans give the per-layer numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def import_engine(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import recur2d
    import recur2d.cli  # noqa: F401  (the CLI workload calls recur2d.cli.main)
    if Path(recur2d.__file__).resolve().parent != src / "recur2d":
        raise SystemExit(f"recur2d imported from {recur2d.__file__}, not from {src}")
    return recur2d


def load_inputs(recur2d, manifest: dict, workdir: Path) -> list:
    """What each request needs before its timed region: a parsed problem, or argv."""
    inputs = []
    for req in manifest["requests"]:
        if req["op"] == "cli":
            path = str(workdir / req["file"])
            inputs.append([path if a == "{spec}" else a for a in req["args"]])
        else:
            inputs.append(recur2d.loads_problem(req["problem"]))
    return inputs


# -- one request -------------------------------------------------------------

def execute(recur2d, op: str, item):
    if op == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = recur2d.cli.main(item)
            except SystemExit as e:  # argparse rejects a malformed command line
                code = e.code
        return code, out.getvalue()
    ov, lay, bounds = item.overlay, item.layout, item.window
    if op == "fill":
        return recur2d.fill(ov, lay, bounds)
    if op == "validate":
        return recur2d.solve_problem(ov, lay, bounds)
    if op == "oracle-diff":
        filled = recur2d.fill(ov, lay, bounds)
        solved = recur2d.solve_problem(ov, lay, bounds)
        agree, diffs = recur2d.oracle_equals_fill(solved, filled)
        return filled, solved, agree, tuple(diffs)
    if op == "basis":
        return [recur2d.basis_array(ov, lay, at, bounds) for at in lay.coords]
    if op == "superpose":
        return recur2d.superpose(ov, lay, bounds)
    if op == "check-support":
        return recur2d.check_support_cases(ov, lay, bounds)
    raise ValueError(f"unknown operation {op!r}")


# -- the correctness gate ------------------------------------------------------

def check_fill(recur2d, spec, result, status: str):
    if result.status != status:
        return f"fill status {result.status}, expected {status}"
    window = result.window
    for coord, value in spec.layout.prescribed.items():
        if window.get(*coord) != value:
            return f"layout value at {coord} not preserved"
    if list(result.unfilled) != window.unknown_coords():
        return "unfilled list does not match the window's unknown cells"
    if status == "inconsistent":
        return None if result.witness is not None else "inconsistent fill without witness"
    # A partial fill may have no fully known stencil to check (verdict None).
    verdict = recur2d.annihilates(spec.overlay.to_template(), window).verdict
    if verdict is False or (verdict is None and status == "complete"):
        return f"template does not annihilate the fill (verdict {verdict})"
    return None


def check_oracle(recur2d, spec, result, filled, kind: str):
    if result.kind != kind:
        return f"oracle kind {result.kind}, expected {kind}"
    system = recur2d.assemble_system(spec.overlay, spec.layout, spec.window)
    if kind == "unique" and not recur2d.verify_assignment(system, result.assignment):
        return "assignment fails the original equations"
    if kind == "inconsistent" and not recur2d.verify_certificate(system, result.certificate):
        return "certificate does not prove inconsistency"
    if kind == "underdetermined" and (result.free_witness is None
                                      or result.free_witness in result.forced):
        return "underdetermined without a free witness"
    agree, diffs = recur2d.oracle_equals_fill(result, filled)
    return None if agree else f"oracle and fill disagree: {diffs[:2]}"


def check_basis(recur2d, spec, windows):
    lay = spec.layout
    if len(windows) != len(lay):
        return f"{len(windows)} basis arrays for {len(lay)} layout cells"
    one, zero = recur2d.one(spec.field), recur2d.zero(spec.field)
    template = spec.overlay.to_template()
    for at, e in zip(lay.coords, windows):
        if any(e.get(*c) != (one if c == at else zero) for c in lay.coords):
            return f"E{at} is not the indicator of {at} on the layout"
        if recur2d.annihilates(template, e).verdict is not True:
            return f"template does not annihilate E{at}"
    filled = recur2d.fill(spec.overlay, lay, spec.window)
    combined = recur2d.window_linear_combine(
        [(lay.value_at(at), e) for at, e in zip(lay.coords, windows)])
    if combined != filled.window:
        return "basis arrays weighted by the layout do not give the fill"
    return check_fill(recur2d, spec, filled, "complete")


def check_support(spec, report):
    """Every claimed region of the running example holds, with no cell unknown."""
    m, n = spec.overlay.m, spec.overlay.n
    b = spec.window
    expected = []
    for i, j in spec.layout.coords:
        claims = [(cond, test) for cond, ok, test in (
            ("j>=m", j >= m, lambda k, l, j=j: l < j),
            ("j<0", j < 0, lambda k, l, j=j: l > j),
            ("i>=n", i >= n, lambda k, l, i=i: k < i),
            ("i<0", i < 0, lambda k, l, i=i: k > i)) if ok]
        if not claims:
            expected.append(((i, j), "none", 0))
        for cond, test in claims:
            expected.append(((i, j), cond, sum(1 for k, l in b.coords() if test(k, l))))
    got = [(res.coord, res.condition, res.checked + res.unknown) for res in report.results]
    if got != expected:
        return "support report does not list the expected claims and regions"
    for res in report.results:
        if res.counterexamples or res.unknown:
            return f"E{res.coord} {res.condition}: {len(res.counterexamples)} " \
                   f"counterexamples, {res.unknown} unknown"
    return None


def check(recur2d, req: dict, spec, output, digests: dict):
    op, expect = req["op"], req.get("expect", {})
    if op == "cli":
        code, stdout = output
        want = digests.get(req["key"])
        if want is None:
            return "no recorded digest for this request"
        if code != want["exit"]:
            return f"exit code {code}, expected {want['exit']}"
        if hashlib.sha256(stdout.encode()).hexdigest() != want["stdout_sha256"]:
            return "stdout differs from the recorded digest"
        return None
    if op == "fill":
        return check_fill(recur2d, spec, output, expect["status"])
    if op == "validate":
        filled = recur2d.fill(spec.overlay, spec.layout, spec.window)
        return check_oracle(recur2d, spec, output, filled, expect["kind"])
    if op == "oracle-diff":
        filled, solved, agree, diffs = output
        if not agree or diffs:
            return f"oracle-diff reports disagreement: {list(diffs[:2])}"
        return (check_fill(recur2d, spec, filled, expect["status"])
                or check_oracle(recur2d, spec, solved, filled, expect["kind"]))
    if op == "basis":
        return check_basis(recur2d, spec, output)
    if op == "superpose":
        filled = recur2d.fill(spec.overlay, spec.layout, spec.window)
        if output != filled.window:
            return "superpose differs from the direct fill"
        return check_fill(recur2d, spec, filled, "complete")
    if op == "check-support":
        return check_support(spec, output)
    return f"no check for operation {op!r}"


def corrupt(recur2d, output):
    """The same fill result with one known cell changed (for the smoke test)."""
    window = output.window.copy()
    r, c, v = next(window.known_cells())
    window.set(r, c, v + recur2d.one(window.field))
    return dataclasses.replace(output, window=window.freeze())


# -- largest coefficient in the outputs -----------------------------------------

def scalars(output):
    if isinstance(output, (tuple, list)):
        for part in output:
            yield from scalars(part)
    elif hasattr(output, "known_cells"):
        yield from (v for _, _, v in output.known_cells())
    elif hasattr(output, "window"):
        yield from scalars(output.window)
    elif hasattr(output, "kind"):
        yield from (output.assignment or output.forced or {}).values()


def max_bits(outputs) -> int:
    best = 0
    for output in outputs:
        for s in scalars(output):
            v = s.value
            bits = (max(v.numerator.bit_length(), v.denominator.bit_length())
                    if hasattr(v, "numerator") else v.bit_length())
            best = max(best, bits)
    return best


# -- the closed loop ---------------------------------------------------------------

def run(recur2d, manifest, inputs, seconds, tracer, inject_fault, digests):
    requests = manifest["requests"]
    latencies, failures = [], []
    verified: dict[int, object] = {}
    cells = failed = passes = 0
    busy = traced_s = untraced_s = 0.0
    while passes == 0 or busy < seconds:
        for k, (req, item) in enumerate(zip(requests, inputs)):
            reason = None
            t0 = time.perf_counter()
            try:
                output = execute(recur2d, req["op"], item)
            except Exception as e:  # a raising request is a failed request
                output, reason = None, f"raised {e!r}"
            dt = time.perf_counter() - t0
            latencies.append(dt)
            busy += dt
            if inject_fault and passes == 0 and k == 0 and reason is None \
                    and req["op"] == "fill":
                output = corrupt(recur2d, output)
            if reason is None:
                if k in verified:
                    if output != verified[k]:
                        reason = "output differs from the same request's checked output"
                else:
                    reason = check(recur2d, req, item, output, digests)
                    if reason is None:
                        verified[k] = output
            if tracer is not None and output is not None:
                t0 = time.perf_counter()
                traced = tracer.request(f"{passes}.{k}",
                                        lambda: execute(recur2d, req["op"], item))
                t1 = time.perf_counter() - t0
                busy += t1
                traced_s += t1
                untraced_s += dt
                if reason is None and traced != output:
                    reason = "traced output differs from untraced output"
            if reason is None:
                cells += req["cells"]
            else:
                failed += 1
                failures.append(f"request {k} ({req['op']}): {reason}")
        passes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"latencies": latencies, "cells": cells, "failed": failed,
              "failures": failures[:5], "passes": passes, "pool": len(requests),
              "peak_rss_mb": peak_rss_mb, "max_bits": max_bits(verified.values())}
    if tracer is not None:
        result["overhead_ratio"] = traced_s / untraced_s
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, type=Path)
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--inject-fault", action="store_true")
    p.add_argument("--spans", type=Path)
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    recur2d = import_engine(args.root)
    with open(args.workdir / "manifest.json", encoding="utf-8") as f:
        manifest = json.load(f)
    tracer = None
    if args.trace:
        from spans import SETUP, Tracer
        tracer = Tracer()
        inputs = tracer.request(SETUP, lambda: load_inputs(recur2d, manifest, args.workdir))
    else:
        inputs = load_inputs(recur2d, manifest, args.workdir)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        digests = {}
        if manifest["workload"] == "cli-small":
            with open(Path(__file__).with_name("cli_digests.json"), encoding="utf-8") as f:
                digests = json.load(f)
        result.update(run(recur2d, manifest, inputs, args.seconds, tracer,
                          args.inject_fault, digests))
        if tracer is not None:
            request_ids = {s[4] for s in tracer.spans if s[4] != SETUP}
            result["layers"] = tracer.layer_metrics(result["passes"])
            result["modules"] = tracer.module_self_times(request_ids)
            if args.spans is not None:
                tracer.write(args.spans)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())

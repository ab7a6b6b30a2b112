"""Spans around the engine's public calls, recorded from outside the package.

The tracer swaps each traced public function for a wrapper in the namespace
of every ``recur2d`` module that holds it, so calls between modules (the CLI
calling ``fill``, ``basis_array`` calling ``fill``, ``solve_problem`` calling
``assemble_system``) are traced too. Wrappers are installed only around a
traced request and removed after it, so untraced requests run the engine
exactly as shipped. The ``recur2d.fill`` submodule is reached through
``sys.modules``: the package re-exports the ``fill`` function under the same
name, which shadows the submodule as an attribute.

A span is ``[name, start_ns, end_ns, parent_index, request_id]``; spans stay in
memory and are written once, when the run ends. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns


def _fill_counts(counts: Counter, result) -> None:
    counts["fill.solves"] += len(result.steps)
    counts["fill.cells"] += result.window.bounds.height * result.window.bounds.width
    counts["fill.unfilled"] += len(result.unfilled)


def _system_counts(counts: Counter, system) -> None:
    counts["oracle.rows"] += len(system.rows)
    counts["oracle.vars"] += len(system.variables)
    counts["oracle.entries"] += len(system.rows) * len(system.variables)
    counts["oracle.nnz"] += sum(1 for row in system.rows for x in row if x.value)


def _kind_counts(counts: Counter, result) -> None:
    counts["oracle.kind." + result.kind] += 1


def _len_counter(key: str):
    def count(counts: Counter, result) -> None:
        counts[key] += len(result)
    return count


# (module, attribute, count-callback). A dotted attribute is a method or
# classmethod on a class defined in that module.
TARGETS = [
    ("cli", "main", None),
    ("problem", "load_problem", None),
    ("problem", "loads_problem", None),
    ("parser", "parse_template", lambda c, t: c.update({"parser.terms": len(t.terms)})),
    ("parser", "parse_template_expr", None),
    ("parser", "expr_to_template", None),
    ("overlay", "Overlay.from_template", None),
    ("overlay", "Overlay.placements_within", _len_counter("overlay.placements")),
    ("layout", "standard_coords", None),
    ("layout", "diagonal_coords", None),
    ("layout", "standard_layout", _len_counter("layout.coords")),
    ("layout", "diagonal_layout", _len_counter("layout.coords")),
    ("layout", "custom_layout", _len_counter("layout.coords")),
    ("fill", "fill", _fill_counts),
    ("fill", "basis_array", None),
    ("fill", "superpose", None),
    ("fill", "check_support_cases", None),
    ("oracle", "assemble_system", _system_counts),
    ("oracle", "classify_and_solve", _kind_counts),
    ("oracle", "solve_problem", None),
    ("oracle", "oracle_equals_fill", None),
    ("window", "window_linear_combine", None),
    ("window", "emit_series_terms", None),
    ("window", "ArrayWindow.to_ascii", None),
    ("window", "ArrayWindow.to_tsv", None),
    ("window", "ArrayWindow.to_json_obj", None),
]

FILL_SPANS = {"fill.fill"}
BASIS_SPANS = {"fill.basis_array", "fill.superpose", "fill.check_support_cases"}
# Per-layer time metrics: the spans whose self time each one sums.
SELF_TIME = {
    "fill.fill_s": FILL_SPANS,
    "oracle.assemble_s": {"oracle.assemble_system"},
    "oracle.solve_s": {"oracle.classify_and_solve"},
    "oracle.compare_s": {"oracle.oracle_equals_fill"},
    "problem.load_s": {"problem.load_problem", "problem.loads_problem"},
    "parser.parse_s": {"parser.parse_template", "parser.parse_template_expr",
                       "parser.expr_to_template"},
    "overlay.build_s": {"overlay.Overlay.from_template"},
    "layout.build_s": {"layout.standard_coords", "layout.diagonal_coords",
                       "layout.standard_layout", "layout.diagonal_layout",
                       "layout.custom_layout"},
    "window.render_s": {"window.emit_series_terms", "window.ArrayWindow.to_ascii",
                        "window.ArrayWindow.to_tsv", "window.ArrayWindow.to_json_obj"},
    "window.combine_s": {"window.window_linear_combine"},
    "cli.self_s": {"cli.main"},
}
REQUEST = "bench.request"
BOOKKEEPING = "bench.tracing"
# Request id of the traced set-up; its spans and counts are not per pass.
SETUP = "setup"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        # Counts read off results, kept apart for set-up and for requests.
        self.counts: dict[str, Counter] = {SETUP: Counter(), "requests": Counter()}
        self._stack: list[int] = []
        self._request_id = None
        self._patches: list[tuple[object, str, object, object]] = []
        self._prepare()

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent, self._request_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, func, count):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                # Reading counts off the result is tracing work, not the
                # caller's: record it as a span of its own.
                span = tracer._open(BOOKKEEPING)
                phase = SETUP if tracer._request_id == SETUP else "requests"
                count(tracer.counts[phase], result)
                tracer._close(span)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    def _prepare(self) -> None:
        """Work out every (owner, attribute) to patch, once per run."""
        engine = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "recur2d" or n.startswith("recur2d."))]
        for module_name, attr, count in TARGETS:
            module = sys.modules["recur2d." + module_name]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, count))
                else:
                    new = self._wrap(name, raw, count)
                self._patches.append((cls, meth, raw, new))
                continue
            func = vars(module)[attr]
            new = self._wrap(name, func, count)
            for owner in engine:
                for key, value in list(vars(owner).items()):
                    if value is func:
                        self._patches.append((owner, key, func, new))

    def request(self, request_id, call):
        """Run ``call()`` as one traced request; wrappers live only meanwhile."""
        for owner, key, _, new in self._patches:
            setattr(owner, key, new)
        self._request_id = request_id
        span = self._open(REQUEST)
        try:
            return call()
        finally:
            self._close(span)
            self._request_id = None
            for owner, key, old, _ in self._patches:
                setattr(owner, key, old)

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[2] - s[1] - child[k]) / 1e9 for k, s in enumerate(self.spans)]

    def _under(self, k: int, names: set) -> bool:
        parent = self.spans[k][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Each layer's cost of the workload: set-up once plus one pass.

        Times and counts of the traced requests are divided by ``passes``, so a
        layer that gets twice as fast halves its time, rather than leaving it
        flat while twice as many passes fit in the run.
        """
        weight = [1.0 if span[4] == SETUP else 1.0 / passes for span in self.spans]
        counts = Counter({k: v / passes for k, v in self.counts["requests"].items()})
        counts.update(self.counts[SETUP])
        by_name: dict[str, float] = defaultdict(float)
        for span, t, w in zip(self.spans, self.self_times(), weight):
            by_name[span[0]] += t * w
        out = {metric: sum(by_name[n] for n in names) for metric, names in SELF_TIME.items()}
        out["fill.solves"] = counts["fill.solves"]
        out["fill.solves_per_s"] = (counts["fill.solves"] / out["fill.fill_s"]
                                    if out["fill.fill_s"] else 0.0)
        out["fill.cells"] = counts["fill.cells"]
        out["fill.unfilled"] = counts["fill.unfilled"]
        basis_s = 0.0
        basis_fills = 0.0
        for k, (span, w) in enumerate(zip(self.spans, weight)):
            if span[0] in BASIS_SPANS and not self._under(k, BASIS_SPANS):
                basis_s += w * (span[2] - span[1]) / 1e9
            elif span[0] in FILL_SPANS and self._under(k, BASIS_SPANS):
                basis_fills += w
        out["fill.basis_s"] = basis_s
        out["fill.basis_fills"] = basis_fills
        for key in ("oracle.rows", "oracle.vars", "oracle.nnz"):
            out[key] = counts[key]
        entries = counts["oracle.entries"]
        out["oracle.density"] = counts["oracle.nnz"] / entries if entries else 0.0
        for kind in ("unique", "underdetermined", "inconsistent"):
            out["oracle.kind." + kind] = counts["oracle.kind." + kind]
        out["parser.terms"] = counts["parser.terms"]
        out["overlay.placements"] = counts["overlay.placements"]
        out["layout.coords"] = counts["layout.coords"]
        return out

    def module_self_times(self, request_ids: set) -> dict[str, float]:
        """Self time per package module (plus ``bench``) over the given requests."""
        out: dict[str, float] = defaultdict(float)
        for span, t in zip(self.spans, self.self_times()):
            if span[4] in request_ids:
                out[span[0].split(".")[0]] += t
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, rid in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "request": rid}) + "\n")

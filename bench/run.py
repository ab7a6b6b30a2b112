"""The recur2d benchmark: one command, four workloads, every output checked.

    python3 bench/run.py --workload fill-centered --seed 1 --seconds 15 --trace 0

``--workload all`` (the default) runs every workload in turn. Each workload
runs in a worker process of its own (one thread, one request in flight);
``setup_s`` is the median over fresh interpreters started before and after
the measured loop. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run. The last line of stdout is
one JSON object; the lines before it are a readable report. See README.md
beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up probes on each side of the measured loop. A set-up lasts ~50 ms, and
# a shared host's speed can drift over seconds, so probes spread over the
# whole run give a steadier median than a burst at its start.
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 150


def metric_units(group: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, defined once,
    in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[group]}


def prepare(workload: str, seed: int, scale: str, workdir: Path) -> None:
    """Generate the workload's requests and write them where the worker reads them."""
    sys.path.insert(0, str(ROOT / "src"))
    import recur2d
    requests = workloads.generate(workload, seed, scale, recur2d)
    workdir.mkdir(parents=True, exist_ok=True)
    for k, req in enumerate(requests):
        if req["op"] == "cli":
            req["file"] = f"problem-{k}.json"
            req["key"] = workloads.cli_key(req)
            (workdir / req["file"]).write_text(req.pop("problem"), encoding="utf-8")
    with open(workdir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump({"workload": workload, "requests": requests}, f)


def worker(workdir: Path, *flags: str) -> dict:
    out = workdir / "worker-out.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workdir", str(workdir), "--out", str(out), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    with open(out, encoding="utf-8") as f:
        return json.load(f)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile that still
    has at least ten samples beyond it, capped at p99; the maximum when there are
    too few samples for that percentile to lie above the median.

    The cap keeps a run with thousands of samples on p99: without it, a faster
    program (more samples) would move the tail onto one-in-a-thousand stalls of
    the machine, and read as slower.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0, 0
    beyond = max(10, n // 100)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def run_workload(name: str, args, workdir: Path) -> tuple[dict, list[str]]:
    prepare(name, args.seed, args.scale, workdir)
    flags = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.inject_fault:
        flags.append("--inject-fault")
    if args.trace:
        spans = ROOT / ".bench_build" / f"spans-{name}-seed{args.seed}.jsonl"
        res = worker(workdir, *flags, "--spans", str(spans))
    else:
        setups = [worker(workdir, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        res = worker(workdir, *flags)
        setups.append(res["setup_s"])
        setups += [worker(workdir, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    lat = res["latencies"]
    n = len(lat)
    report = [f"workload {name}: seed {args.seed}, {n} requests "
              f"({res['passes']} passes of {res['pool']}), {res['failed']} failed"]
    report += [f"  check failed: {line}" for line in res["failures"]]
    if args.trace:
        layers = dict(res["layers"], **{"field.max_bits": res["max_bits"],
                                        "tracing.overhead_ratio": res["overhead_ratio"]})
        units = metric_units("per_layer")
        metrics = {k: layers[k] for k in units}
        total = sum(res["modules"].values())
        report.append("  self time by module over traced requests:")
        for module, t in sorted(res["modules"].items(), key=lambda kv: -kv[1]):
            report.append(f"    {module:<10} {t:10.4f} s  {100 * t / total:5.1f}%")
        report.append(f"  spans written to {spans.relative_to(ROOT)}")
    else:
        latency, pct, beyond = tail(lat)
        measured = {"setup_s": statistics.median(setups),
                    "req_p50_ms": 1000 * statistics.median(lat),
                    "req_tail_ms": 1000 * latency,
                    "cells_per_s": res["cells"] / sum(lat),
                    "peak_rss_mb": res["peak_rss_mb"]}
        units = metric_units("end_to_end")
        metrics = {k: measured[k] for k in units}
        notes = {"setup_s": f"median of {len(setups)} fresh interpreters, before and after",
                 "req_p50_ms": f"n={n}",
                 "req_tail_ms": f"p{pct:.1f}, {beyond} of {n} beyond",
                 "cells_per_s": "checked cells per second of request time"}
        report += [f"  {k:<14} {v:14.4f} {units[k]:<4} {notes.get(k, '')}"
                   for k, v in metrics.items()]
        report.append(f"  {'error_rate':<14} {res['failed'] / n:14.4f} {'':<4} "
                      f"{res['failed']} of {n} attempted")
    summary = {"correct": res["failed"] == 0, "attempted": n, "failed": res["failed"],
               "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return summary, report


def provenance() -> str:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((ROOT / "src" / "recur2d").glob("*.py")))
    return (f"python {platform.python_version()}, git {sha}, nproc {os.cpu_count()}, "
            f"src/recur2d {lines} lines")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="request time to measure per workload (whole passes are run)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full",
                   help="toy shrinks every problem; for the smoke test")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt the first fill-centered result before the check "
                        "(smoke test)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "recur2d" / "__init__.py").is_file():
        print(f"error: no engine source at {ROOT / 'src' / 'recur2d'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = ROOT / ".bench_build" / f"run-{os.getpid()}"
    summaries = {}
    try:
        for name in names:
            summaries[name], report = run_workload(name, args, workdir / name)
            print("\n".join(report))
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"run info: {provenance()}")
    if len(names) == 1:
        print(json.dumps(summaries[names[0]]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}.{k}": v for w, s in summaries.items()
                        for k, v in s["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

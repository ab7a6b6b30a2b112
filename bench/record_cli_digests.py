"""Record the stdout digest and exit code of every cli-small pool entry.

    python3 bench/record_cli_digests.py

Run it only when the pool in workloads.py changes, or when a change to the
engine's CLI output is intended; the benchmark compares every cli-small
request against the digests it writes to cli_digests.json. It refuses to
record a pool entry that exits 1 (an error), so that the workload stays one
on which no request fails.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

import workloads
from worker import execute, import_engine

HERE = Path(__file__).resolve().parent


def main() -> int:
    recur2d = import_engine(HERE.parent)
    tmp = HERE.parent / ".bench_build" / "record-cli-digests"
    tmp.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        for index in range(workloads.CLI_POOL["full"]):
            entry = workloads.cli_pool_entry(index)
            path = tmp / "problem.json"
            path.write_text(entry["problem"], encoding="utf-8")
            argv = [str(path) if a == "{spec}" else a for a in entry["args"]]
            code, stdout = execute(recur2d, "cli", argv)
            if code == 1:
                print(f"pool entry {index} fails: {entry}", file=sys.stderr)
                return 1
            digests[workloads.cli_key(entry)] = {
                "exit": code, "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(HERE / "cli_digests.json", "w", encoding="utf-8") as f:
        json.dump(digests, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark: every workload at its smoke size, untraced
and traced, must pass its output check and print every metric that
BENCHMARK.json declares, with its unit.

    python3 perfbench/smoke.py

Exits 0 when every run passes; takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            where = f"{workload} trace={trace}"
            before = len(failures)
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{where}: metrics {sorted(got)} != {sorted(want)}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{where}: output check failed\n{proc.stderr}")
            print(f"{where}: {'ok' if len(failures) == before else 'FAILED'}")
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

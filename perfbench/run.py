"""Benchmark of akwinfer: time to result, memory and per-layer cost of the
replication engine.

    python3 perfbench/run.py --workload d5-steady --seed 105 --seconds 30 --trace 0

Run from the root of a source checkout; akwinfer is imported from its
``src/``. Every sample runs in a fresh Python process (``sample.py``), one at
a time, with one BLAS thread, because the oracle covariance cache lives per
process.

``--trace 0`` runs untraced samples while the next one fits in
``--seconds`` (at least two) and reports medians of the end-to-end metrics.
Set-up is sampled at least five times: set-up-only processes top up the
samples the runs gave.

``--trace 1`` runs one untraced sample and one traced sample (which ends
with the engine ablation pass) and reports the per-layer metrics; its
length is set by that work, not by ``--seconds``.

Every run checks its outputs: all samples write byte-identical
``replications.csv`` (and ``checkpoints.csv``), every record is finite,
and at the workload's default seed the records match ``reference/`` (the
files a run at that seed wrote, copied unchanged). The last line of
standard output is one JSON object: correct, attempted and failed
replications (aborted ones; all of them if a check fails), and the
metrics. Details, the environment and the span files go to
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import COMPUTED, END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")

MIN_SAMPLES = 2
MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
FLOAT_FIELDS = ("est_error", "cov_error", "ci_center", "ci_length")
EXACT_FIELDS = ("replication", "method", "n", "queries", "covered", "aborted")
RTOL, ATOL = 1e-9, 1e-12


class SampleError(RuntimeError):
    pass


class Runner:
    """Starts sample processes one at a time under a whole-run deadline."""

    def __init__(self, args, out_dir):
        self.args = args
        self.out_dir = out_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0

    def sample(self, mode: str) -> dict:
        self.count += 1
        out = os.path.join(self.out_dir, f"{self.count:02d}-{mode}")
        os.makedirs(out)
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **BLAS_ENV)
        cmd = [sys.executable, os.path.join(HERE, "sample.py"),
               "--workload", self.args.workload, "--mode", mode, "--out", out]
        if self.args.seed is not None:
            cmd += ["--seed", str(self.args.seed)]
        if self.args.smoke:
            cmd.append("--smoke")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise SampleError("run deadline passed")
        try:
            proc = subprocess.run(
                cmd + ["--spawn-ts", repr(time.monotonic())],
                env=env, stdout=sys.stderr, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise SampleError(f"{mode} sample exceeded the run deadline") from None
        if proc.returncode != 0:
            raise SampleError(f"{mode} sample exited with code {proc.returncode}")
        with open(os.path.join(out, "sample.json")) as fh:
            return json.load(fh)


# -- output checks ------------------------------------------------------------


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _float_or_none(text):
    return None if text == "" else float(text)


def _check_finite(rows, where):
    problems = []
    for row in rows:
        for f in FLOAT_FIELDS:
            v = _float_or_none(row[f])
            if v is not None and not math.isfinite(v):
                problems.append(f"{where}: non-finite {f} in replication {row['replication']}")
        if row["aborted"] == "0" and "" in (row["ci_center"], row["ci_length"]):
            problems.append(f"{where}: missing interval in replication {row['replication']}")
    return problems


def _check_reference(rows, ref_rows, where):
    if len(rows) != len(ref_rows):
        return [f"{where}: {len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for k, (row, ref) in enumerate(zip(rows, ref_rows)):
        for f in EXACT_FIELDS:
            if f in ref and row.get(f) != ref[f]:
                problems.append(f"{where} row {k}: {f}={row.get(f)!r}, reference {ref[f]!r}")
        for f in FLOAT_FIELDS:
            got, want = _float_or_none(row[f]), _float_or_none(ref[f])
            if (got is None) != (want is None) or (
                got is not None and abs(got - want) > ATOL + RTOL * abs(want)
            ):
                problems.append(f"{where} row {k}: {f}={got!r}, reference {want!r}")
    return problems[:20]


def check_outputs(run_dirs, workload, at_default_seed, smoke):
    """Problems found in the reports the samples wrote (empty if none)."""
    problems = []
    ref_dir = os.path.join(HERE, "reference", workload + ("-smoke" if smoke else ""))
    for name in ("replications.csv", "checkpoints.csv"):
        paths = [os.path.join(d, name) for d in run_dirs]
        present = [os.path.exists(p) for p in paths]
        ref_path = os.path.join(ref_dir, name)
        if not any(present) and not os.path.exists(ref_path):
            continue
        if not all(present):
            problems.append(f"{name} missing from some samples")
            continue
        blobs = []
        for p in paths:
            with open(p, "rb") as fh:
                blobs.append(fh.read())
        if any(b != blobs[0] for b in blobs[1:]):
            problems.append(f"{name} differs between samples of the same seed")
        rows = _read_csv(paths[0])
        problems += _check_finite(rows, name)
        if at_default_seed and not os.path.exists(ref_path):
            problems.append(f"reference {os.path.relpath(ref_path, ROOT)} missing")
        elif at_default_seed:
            problems += _check_reference(rows, _read_csv(ref_path), name)
    return problems


# -- metrics --------------------------------------------------------------------


def untraced(runner, seconds):
    started = time.monotonic()
    samples = [runner.sample("plain")]
    while len(samples) < MIN_SAMPLES or (
        time.monotonic() - started + samples[-1]["wall_s"] + samples[-1]["setup_s"] <= seconds
    ):
        samples.append(runner.sample("plain"))
    setups = [s["setup_s"] for s in samples]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.sample("setup")["setup_s"])
    work = samples[0]["replications"] * samples[0]["n"]
    metrics = {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "rep_steps_per_s": statistics.median(work / s["wall_s"] for s in samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    return samples, metrics, {"setup_s": setups}


def traced(runner):
    plain = runner.sample("plain")
    tr = runner.sample("traced")
    metrics = dict(tr["layers"])
    metrics["trace.overhead_share"] = tr["wall_s"] / plain["wall_s"] - 1.0
    return [plain, tr], metrics, {"ablation": tr["ablation"], "hooks_missing": tr["hooks_missing"]}


def _declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="replication seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny n and replication count, for checking the benchmark itself")
    args = ap.parse_args(argv)

    table = PER_LAYER if args.trace else END_TO_END
    declared = _declared_metrics(args.trace)
    if declared != {name: unit for name, (unit, _, _) in table.items()}:
        print("BENCHMARK.json does not list the metrics this benchmark reports",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    runner = Runner(args, out_dir)
    try:
        if args.trace:
            samples, metrics, extra = traced(runner)
        else:
            samples, metrics, extra = untraced(runner, args.seconds)
    except SampleError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    default_seed = WORKLOADS[args.workload]["config"]["seed"]
    at_default = args.seed is None or args.seed == default_seed
    problems = check_outputs([s["run_dir"] for s in samples], args.workload, at_default, args.smoke)
    attempted = sum(s["replications"] for s in samples)
    aborted = sum(s["aborted"] for s in samples)
    failed = attempted if problems else aborted
    details = {
        "workload": args.workload,
        "seed": args.seed if args.seed is not None else default_seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "config": WORKLOADS[args.workload]["config"],
        "aborted_share": aborted / attempted,
        "check_problems": problems,
        "reference_checked": at_default,
        "environment": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": samples[0]["python"],
            "numpy": samples[0]["numpy"],
            "blas_threads": BLAS_ENV,
        },
        "computed_not_measured": [m for m in COMPUTED if m in table],
        "metric_moves": {name: moves for name, (_, _, moves) in table.items()},
        "samples": samples,
        **extra,
    }
    with open(os.path.join(out_dir, "results.json"), "w") as fh:
        json.dump(details, fh, indent=1)
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} trace={args.trace} samples={len(samples)} "
        f"aborted_share={aborted / attempted:.4g} checks={'ok' if not problems else 'FAILED'} "
        f"details={os.path.relpath(os.path.join(out_dir, 'results.json'), ROOT)}"
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": table[name][0]} for name in table
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

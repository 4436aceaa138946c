"""Workloads and metric tables of the akwinfer benchmark.

Each workload embeds its full experiment config rather than naming a
recipe, so editing a recipe cannot silently change what is measured. The
config's ``seed`` is the workload's default seed; the benchmark's
``--seed`` replaces it. ``smoke`` holds the tiny sizes used by
``run.py --smoke``.
"""

from __future__ import annotations

_TABLE2_SCHEDULES = {"eta0": 0.1, "alpha": 0.501, "h0": 0.1, "gamma": 0.7}
_CANONICAL = {"kind": "canonical", "m": 1, "replacement": "with"}

WORKLOADS = {
    # Arrays are tiny, so the ~30 numpy calls per step dominate: engine self
    # time and the oracle's loss evaluations. Changes to eigen or records
    # should leave this workload unchanged.
    "d5-steady": {
        "config": {
            "name": "bench-d5-steady",
            "model": {"family": "logistic", "dim": 5, "design": "identity", "rho": 0.2},
            "directions": _CANONICAL,
            "schedules": _TABLE2_SCHEDULES,
            "n": 40_000,
            "replications": 100,
            "seed": 105,
            "level": 0.95,
            "inference": ["plugin", "random_scaling", "oracle"],
        },
        "smoke": {"n": 400, "replications": 8},
    },
    # Record assembly (Jacobi eigen, three calls per replication) dominates,
    # and the four-point Hessian probe evaluates (C, d, d) losses per step.
    # The checkpoints run record assembly mid-run and write checkpoints.csv.
    # Random-scaling state changes should leave this workload unchanged.
    "d20-curvature": {
        "config": {
            "name": "bench-d20-curvature",
            "model": {"family": "logistic", "dim": 20, "design": "identity", "rho": 0.2},
            "directions": _CANONICAL,
            "schedules": _TABLE2_SCHEDULES,
            "n": 4_000,
            "replications": 100,
            "seed": 107,
            "level": 0.95,
            "inference": ["plugin", "random_scaling", "oracle"],
            "checkpoints": [1_000, 2_000],
        },
        "smoke": {"n": 200, "replications": 6, "checkpoints": [50, 100]},
    },
    # The (C, d, d) Kahan-compensated random-scaling accumulators dominate
    # the step and are bound by memory traffic; the tape buffers set peak
    # RSS; the Monte-Carlo Hessian and a d=100 inverse set setup time. The
    # frozen linear d100 recipe is not used because every replication of it
    # diverges, so the benchmark would time failures. Per-step overhead
    # changes should leave this workload unchanged.
    "d100-scaling": {
        "config": {
            "name": "bench-d100-scaling",
            "model": {"family": "logistic", "dim": 100, "design": "identity", "rho": 0.2},
            "directions": _CANONICAL,
            "schedules": _TABLE2_SCHEDULES,
            "n": 1_500,
            "replications": 100,
            "seed": 109,
            "level": 0.95,
            "inference": ["random_scaling"],
        },
        "smoke": {"n": 30, "replications": 4},
    },
}


def workload_config(name: str, seed: int | None, smoke: bool) -> dict:
    """Config dict of a workload at ``seed`` (default: the workload's own)."""
    spec = WORKLOADS[name]
    raw = dict(spec["config"])
    if smoke:
        raw.update(spec["smoke"])
        raw["name"] = raw["name"] + "-smoke"
    if seed is not None:
        raw["seed"] = seed
    return raw


# name -> (unit, better, what it should move). End-to-end metrics come from
# untraced runs, per-layer metrics from a traced run.
END_TO_END = {
    "wall_s": ("s", "lower", "time from run_experiment start to write_report end"),
    "rep_steps_per_s": ("1/s", "higher", "replications x n / wall_s"),
    "setup_s": ("s", "lower", "fresh process through import, config parse and cold oracle covariance"),
    "peak_rss_mb": ("MB", "lower", "ru_maxrss of the process that ran the experiment"),
}

PER_LAYER = {
    "tape.s": ("s", "lower", "wall_s on d5-steady"),
    "tape.calls": ("count", "lower", "wall_s on d5-steady"),
    "tape.us_per_rep_step": ("us", "lower", "wall_s on d5-steady"),
    "tape.bytes_computed": ("B", "lower", "peak_rss_mb on d100-scaling"),
    "oracle.s": ("s", "lower", "wall_s on d5-steady and d20-curvature"),
    "oracle.calls": ("count", "lower", "wall_s on d5-steady and d20-curvature"),
    "oracle.evals": ("count", "lower", "wall_s on d5-steady and d20-curvature"),
    "oracle.ns_per_eval": ("ns", "lower", "wall_s on d5-steady and d20-curvature"),
    "engine.self_s": ("s", "lower", "wall_s and rep_steps_per_s on d5-steady"),
    "engine.us_per_rep_step": ("us", "lower", "wall_s and rep_steps_per_s on d5-steady"),
    "engine.queries": ("count", "lower", "rep_steps_per_s on every workload"),
    "engine.recurrence_us_per_rep_step": ("us", "lower", "wall_s on d5-steady"),
    "engine.gram_us_per_rep_step": ("us", "lower", "wall_s on d20-curvature"),
    "engine.hessian_us_per_rep_step": ("us", "lower", "wall_s on d20-curvature"),
    "engine.scaling_us_per_rep_step": ("us", "lower", "wall_s on d100-scaling"),
    "engine.state_bytes_computed": ("B", "lower", "peak_rss_mb on d100-scaling"),
    "records.s": ("s", "lower", "wall_s on d20-curvature"),
    "records.calls": ("count", "lower", "wall_s on d20-curvature"),
    "records.ms_per_rep": ("ms", "lower", "wall_s on d20-curvature"),
    "numkernel.eigen_calls": ("count", "lower", "wall_s on d20-curvature, setup_s on d100-scaling"),
    "numkernel.eigen_s": ("s", "lower", "wall_s on d20-curvature, setup_s on d100-scaling"),
    "numkernel.eigen_ms_per_call": ("ms", "lower", "wall_s on d20-curvature, setup_s on d100-scaling"),
    "plugin.covariance_s": ("s", "lower", "wall_s on d20-curvature"),
    "scaling.assemble_s": ("s", "lower", "wall_s on d20-curvature"),
    "setup.truth_s": ("s", "lower", "setup_s on d100-scaling"),
    "setup.import_parse_s": ("s", "lower", "setup_s on d100-scaling"),
    "summary.s": ("s", "lower", "none today (guard)"),
    "output.s": ("s", "lower", "none today (guard)"),
    "output.bytes": ("B", "lower", "none today (guard)"),
    "trace.overhead_share": ("ratio", "lower", "none (cost of tracing itself)"),
}

# Figures derived from array shapes rather than timed or counted.
COMPUTED = ("tape.bytes_computed", "engine.state_bytes_computed")

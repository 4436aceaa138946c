"""One benchmark sample, run by ``run.py`` in a fresh Python process.

The Monte-Carlo Hessian cache in ``akwinfer.models`` lives per process, so
only a fresh process shows the set-up cost a user pays. Modes:

- ``setup``: import akwinfer, parse the config and compute the oracle
  covariance cold; report the set-up time.
- ``plain``: set up, then run the experiment untraced and write its report.
- ``traced``: as ``plain`` with every layer wrapped in spans, followed by
  the engine ablation pass (see ``_ablation``).

The sample writes ``sample.json`` (and, for ``traced``, ``spans.npz``)
into ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--spawn-ts", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--out", required=True)
    return ap.parse_args(argv)


def _nbytes(result) -> int:
    items = result if isinstance(result, tuple) else (result,)
    return sum(int(getattr(a, "nbytes", 0)) for a in items if a is not None)


def _size(result) -> int:
    return int(getattr(result, "size", 1))


def _run_once(simharness, cfg, out_dir):
    started = time.perf_counter()
    report = simharness.run_experiment(cfg)
    run_dir = simharness.write_report(report, out_dir)
    return report, time.perf_counter() - started, run_dir


def _coarse_hooks(tracer, akw):
    sh, models, nk = akw.simharness, akw.models, akw.numkernel
    pi, rs = akw.plugin_inference, akw.random_scaling
    tracer.wrap(sh, "run_experiment", "simharness.run_experiment")
    tracer.wrap(sh, "write_report", "simharness.write_report")
    tracer.wrap(sh, "draw_block", "simharness.draw_block", _nbytes)
    tracer.wrap(sh, "_method_records", "simharness._method_records")
    tracer.wrap(sh, "summarize_records", "simharness.summarize_records")
    tracer.wrap(models, "oracle_covariance", "models.oracle_covariance")
    tracer.wrap(nk, "sym_eigen", "numkernel.sym_eigen")
    tracer.wrap(pi, "plugin_covariance", "plugin_inference.plugin_covariance")
    tracer.wrap(pi, "plugin_ci", "plugin_inference.plugin_ci")
    tracer.wrap(rs, "assemble_v", "random_scaling.assemble_v")
    tracer.wrap(rs, "scaling_ci", "random_scaling.scaling_ci")


def _fine_hooks(tracer, akw):
    oracle = akw.models.LossOracle
    tracer.wrap(oracle, "linpred_loss", "models.LossOracle.linpred_loss", _size)
    tracer.wrap(oracle, "response_from_noise", "models.LossOracle.response_from_noise", _size)


def _state_bytes(states) -> int:
    """Bytes of the per-replication (C, d, d) engine arrays the run wrote."""
    import numpy as np

    return sum(
        v.nbytes
        for st in states
        for v in vars(st).values()
        if isinstance(v, np.ndarray) and v.ndim == 3 and v.any()
    )


def _ablation(akw, raw, rep_steps):
    """Engine cost split by inference set, at the workload's own size.

    Each variant adds one method to the previous one: [], ["oracle"], then
    the workload's own plugin and random-scaling methods. A variant's loop
    time is the self time of ``run_experiment`` with only the coarse layers
    wrapped, i.e. the optimizer step and its loss evaluations without tape,
    truth, records and summary. Each split is the difference in loop time
    from the previous variant, per replication-step.
    """
    from spans import Tracer

    own = set(raw["inference"])
    chain = [("recurrence", [])]
    chain.append(("gram", ["oracle"]))
    if "plugin" in own:
        chain.append(("hessian", chain[-1][1] + ["plugin"]))
    if "random_scaling" in own:
        chain.append(("scaling", chain[-1][1] + ["random_scaling"]))
    tracer = Tracer()
    _coarse_hooks(tracer, akw)
    loops = {}
    try:
        for label, methods in chain:
            cfg = akw.simharness.config_from_dict(
                dict(raw, inference=methods, name=f"{raw['name']}-{label}")
            )
            mark = tracer.mark()
            akw.simharness.run_experiment(cfg)
            loops[label] = tracer.totals(mark)["simharness.run_experiment"]["self_s"]
    finally:
        tracer.unwrap_all()
    split, prev = {}, 0.0
    for label in ("recurrence", "gram", "hessian", "scaling"):
        if label in loops:
            split[label] = (loops[label] - prev) / rep_steps * 1e6
            prev = loops[label]
        else:
            split[label] = 0.0
    variants = [{"split": label, "inference": m, "loop_s": loops[label]} for label, m in chain]
    return split, variants


def _layer_metrics(all_tot, run_tot, counts, report, cfg, run_dir):
    """Per-layer figures of the traced run; eigen figures also count set-up."""
    rep_steps = cfg.replications * cfg.n

    def get(name, key="s", table=run_tot):
        return table.get(name, {}).get(key, 0.0)

    oracle_names = ("models.LossOracle.linpred_loss", "models.LossOracle.response_from_noise")
    oracle_s = sum(get(n) for n in oracle_names)
    oracle_evals = sum(counts.get(n, 0) for n in oracle_names)
    eigen = [get("numkernel.sym_eigen", k, all_tot) for k in ("s", "calls")]
    per_rep = {}
    for r in report.records:
        per_rep.setdefault(r.replication, r.queries)
    output_bytes = sum(
        os.path.getsize(os.path.join(run_dir, f)) for f in os.listdir(run_dir)
    )
    return {
        "tape.s": get("simharness.draw_block"),
        "tape.calls": get("simharness.draw_block", "calls"),
        "tape.us_per_rep_step": get("simharness.draw_block") / rep_steps * 1e6,
        "tape.bytes_computed": counts.get("simharness.draw_block", 0),
        "oracle.s": oracle_s,
        "oracle.calls": sum(get(n, "calls") for n in oracle_names),
        "oracle.evals": oracle_evals,
        "oracle.ns_per_eval": oracle_s / oracle_evals * 1e9 if oracle_evals else 0.0,
        "engine.self_s": get("simharness.run_experiment", "self_s"),
        "engine.us_per_rep_step": get("simharness.run_experiment", "self_s") / rep_steps * 1e6,
        "engine.queries": sum(per_rep.values()),
        "records.s": get("simharness._method_records"),
        "records.calls": get("simharness._method_records", "calls"),
        "records.ms_per_rep": get("simharness._method_records") / cfg.replications * 1e3,
        "numkernel.eigen_calls": eigen[1],
        "numkernel.eigen_s": eigen[0],
        "numkernel.eigen_ms_per_call": eigen[0] / eigen[1] * 1e3 if eigen[1] else 0.0,
        "plugin.covariance_s": get("plugin_inference.plugin_covariance"),
        "scaling.assemble_s": get("random_scaling.assemble_v") + get("random_scaling.scaling_ci"),
        "summary.s": get("simharness.summarize_records"),
        "output.s": get("simharness.write_report"),
        "output.bytes": output_bytes,
    }


def _traced_run(akw, tracer, cfg, out_dir):
    """Run the experiment with every layer wrapped; spans are saved to
    ``out_dir/spans.npz`` and the tracer is unwrapped on return."""
    sh = akw.simharness
    mark = tracer.mark()
    states = []
    make_state = getattr(sh, "_ChunkState", None)
    if make_state is not None:
        sh._ChunkState = lambda *a, **k: states.append(make_state(*a, **k)) or states[-1]
    try:
        report, wall, run_dir = _run_once(sh, cfg, os.path.join(out_dir, "run"))
    finally:
        if make_state is not None:
            sh._ChunkState = make_state
        tracer.unwrap_all()
    layers = _layer_metrics(
        tracer.totals(), tracer.totals(mark), tracer.counts, report, cfg, run_dir
    )
    layers["engine.state_bytes_computed"] = _state_bytes(states)
    tracer.save(os.path.join(out_dir, "spans.npz"))
    return report, wall, run_dir, layers


def main(argv=None) -> int:
    args = _parse_args(argv)
    import numpy as np

    import akwinfer
    from workloads import workload_config

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(akwinfer.__file__).startswith(src + os.sep):
        raise SystemExit(f"akwinfer was imported from {akwinfer.__file__}, not from {src}")
    sh, models = akwinfer.simharness, akwinfer.models
    raw = workload_config(args.workload, args.seed, args.smoke)

    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        _coarse_hooks(tracer, akwinfer)
        _fine_hooks(tracer, akwinfer)
    cfg = sh.config_from_dict(raw)
    parsed = time.monotonic()
    models.oracle_covariance(cfg.model, cfg.dist, cfg.mode)
    set_up = time.monotonic()
    out = {
        "mode": args.mode,
        "setup_s": set_up - args.spawn_ts,
        "import_parse_s": parsed - args.spawn_ts,
        "truth_s": set_up - parsed,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if args.mode == "plain":
        report, wall, run_dir = _run_once(sh, cfg, os.path.join(args.out, "run"))
    elif args.mode == "traced":
        report, wall, run_dir, layers = _traced_run(akwinfer, tracer, cfg, args.out)
        layers["setup.truth_s"] = out["truth_s"]
        layers["setup.import_parse_s"] = out["import_parse_s"]
        split, variants = _ablation(akwinfer, raw, cfg.replications * cfg.n)
        for label, value in split.items():
            layers[f"engine.{label}_us_per_rep_step"] = value
        out.update(layers=layers, ablation=variants, hooks_missing=tracer.missing)
    if args.mode != "setup":
        out.update(
            wall_s=wall,
            replications=cfg.replications,
            n=cfg.n,
            aborted=int(report.summary["aborted"]),
            run_dir=run_dir,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    with open(os.path.join(args.out, "sample.json"), "w") as fh:
        json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

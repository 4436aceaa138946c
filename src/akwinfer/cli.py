"""Command-line entry point.

Subcommands: run (one config file), sweep (list of configs), recipe
(named frozen config), quantile-check (Monte-Carlo check of the pivot
critical values), validate-config (invariants only, no run).

Exit codes: 0 success, 1 config error, 2 runtime abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import recipes, simharness
from .random_scaling import ONE_SIDED_QUANTILES, simulate_pivot_quantiles

__all__ = ["main", "build_parser"]


def _default_workers() -> int:
    env = os.environ.get("ZOKW_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akw",
        description="Gradient-free averaged stochastic optimization with online inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=None,
                       help="replication chunks (default: ZOKW_WORKERS or CPU count)")
        p.add_argument("--output-dir", default="runs", help="report directory root")
        p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted-key config override, repeatable")

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True)
    common(p_run)

    p_sweep = sub.add_parser("sweep", help="run a JSON list of configs")
    p_sweep.add_argument("--config", required=True)
    common(p_sweep)

    p_recipe = sub.add_parser("recipe", help="run a named frozen recipe")
    p_recipe.add_argument("name", nargs="?", help="recipe name")
    p_recipe.add_argument("--list", action="store_true", help="list recipe names")
    common(p_recipe)

    p_q = sub.add_parser("quantile-check",
                         help="Monte-Carlo check of the pivot critical values")
    p_q.add_argument("--paths", type=int, default=100_000)
    p_q.add_argument("--steps", type=int, default=1_000)
    p_q.add_argument("--seed", type=int, default=0)

    p_v = sub.add_parser("validate-config", help="check a config without running")
    p_v.add_argument("--config", required=True)
    return parser


def _parse_override(item: str) -> tuple[list[str], object]:
    if "=" not in item:
        raise simharness.ConfigError(f"override {item!r} is not KEY=VALUE")
    key, _, value = item.partition("=")
    keys = key.strip().split(".")
    if not all(keys):
        raise simharness.ConfigError(f"override {item!r} has an empty key segment")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    return keys, parsed


def _apply_overrides(raw: dict, overrides: list[str]) -> dict:
    for item in overrides:
        keys, value = _parse_override(item)
        node = raw
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise simharness.ConfigError(
                    f"override {item!r}: {k!r} is not a config section"
                )
        node[keys[-1]] = value
    return raw


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise simharness.ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise simharness.ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc


def _build_config(raw: dict, args) -> simharness.ExperimentConfig:
    raw = _apply_overrides(dict(raw), args.override)
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg, diags = simharness.parse_config(raw)
    if cfg is None:
        raise simharness.ConfigError("\n".join(diags))
    return cfg


def _execute(cfgs: list[simharness.ExperimentConfig], args) -> int:
    workers = args.workers if args.workers is not None else _default_workers()
    reports = simharness.sweep(cfgs, workers=workers)
    status = 0
    for report in reports:
        run_dir = simharness.write_report(report, args.output_dir)
        print(json.dumps(report.summary, indent=2, sort_keys=True))
        print(f"wrote {run_dir}", file=sys.stderr)
        aborted, reps = report.summary["aborted"], report.config.replications
        if aborted >= reps:
            print(f"{report.run_id}: every replication aborted", file=sys.stderr)
            status = 2
        elif aborted:
            print(f"{report.run_id}: {aborted} of {reps} replications aborted; "
                  "coverage is over the survivors only", file=sys.stderr)
    return status


def _cmd_quantile_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    estimates = simulate_pivot_quantiles(args.paths, args.steps, rng)
    print(f"{'prob':>6} {'tabled':>8} {'estimated':>10}")
    for prob, tabled in ONE_SIDED_QUANTILES:
        print(f"{prob:>6} {tabled:>8.3f} {estimates[prob]:>10.3f}")
    return 0


def _cmd_validate(args) -> int:
    raw = _load_json(args.config)
    _, diags = simharness.parse_config(raw)
    for line in diags:
        print(line)
    return 1 if diags else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "quantile-check":
            return _cmd_quantile_check(args)
        if args.command == "validate-config":
            return _cmd_validate(args)
        if args.command == "recipe":
            if args.list or not args.name:
                for name in recipes.recipe_names():
                    mark = "  (long-running)" if name in recipes.LONG_RUNNING else ""
                    print(f"{name}{mark}")
                return 0
            try:
                spec = recipes.get_recipe(args.name)
            except KeyError as exc:
                raise simharness.ConfigError(str(exc)) from exc
            raws = spec if isinstance(spec, list) else [spec]
            cfgs = [_build_config(r, args) for r in raws]
            return _execute(cfgs, args)
        raw = _load_json(args.config)
        if args.command == "sweep":
            if not isinstance(raw, list):
                raise simharness.ConfigError("sweep config must be a JSON list")
            cfgs = [_build_config(r, args) for r in raw]
        else:
            cfgs = [_build_config(raw, args)]
        return _execute(cfgs, args)
    except simharness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime abort
        print(f"runtime abort: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

import concurrent.futures
import ctypes
import functools
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from akwinfer import directions as dirs
from akwinfer import kwengine as kw
from akwinfer import models
from akwinfer import simharness as sh
from akwinfer.plugin_inference import HessianAccumulator, hessian_entry_block
from akwinfer.random_scaling import (
    ScalingAccumulator,
    assemble_v,
    scaling_ci,
    scaling_update,
)


def small_raw(**overrides):
    raw = {
        "name": "t",
        "model": {"family": "linear", "theta": [0.6, -0.8]},
        "directions": {"kind": "canonical"},
        "n": 300,
        "replications": 6,
        "seed": 11,
    }
    raw.update(overrides)
    return raw


def test_parse_config_defaults():
    cfg, diags = sh.parse_config(small_raw())
    assert diags == []
    assert np.allclose(cfg.w, np.full(2, 1 / np.sqrt(2)))
    assert cfg.level == 0.95
    assert cfg.inference == sh.METHODS
    assert cfg.sched.eta0 == 0.1 and cfg.sched.gamma == 0.7
    assert cfg.run_id == f"t-{cfg.config_hash[:10]}"
    assert len(cfg.config_hash) == 64


def test_parse_config_collects_all_violations():
    raw = small_raw(
        schedules={"alpha": 1.2},
        plugin={"p": 0.0},
        directions={"kind": "canonical", "bogus": 1},
    )
    cfg, diags = sh.parse_config(raw)
    assert cfg is None
    joined = "\n".join(diags)
    assert "alpha must lie in (0.5, 1)" in joined
    assert "plugin.p must lie in (0, 1]" in joined
    assert "unknown key 'bogus'" in joined
    assert len(diags) == 3


def test_parse_config_unknown_top_level_key():
    cfg, diags = sh.parse_config(small_raw(extra=1))
    assert cfg is None and any("unknown key 'extra'" in d for d in diags)


def test_parse_config_theta_dim_contradiction_and_dim_seed():
    cfg, diags = sh.parse_config(
        small_raw(model={"family": "linear", "theta": [1.0, 0.0], "dim": 3})
    )
    assert cfg is None and any("contradicts" in d for d in diags)
    cfg, diags = sh.parse_config(
        small_raw(model={"family": "linear", "dim": 4, "theta_seed": 7})
    )
    assert diags == []
    assert np.allclose(cfg.model.theta_star, models.theta_on_unit_sphere(4, seed=7))


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("n", {"n": 100.7}),
        ("n", {"n": True}),
        ("replications", {"replications": "3"}),
        ("seed", {"seed": 1.5}),
        ("checkpoints", {"checkpoints": [10.5]}),
        ("model.dim", {"model": {"family": "linear", "dim": 2.5}}),
        ("model.theta_seed", {"model": {"family": "linear", "dim": 2, "theta_seed": "7"}}),
        ("directions.m", {"directions": {"kind": "canonical", "m": 1.6}}),
        ("directions.basis_seed", {"directions": {"kind": "orthonormal", "basis_seed": 0.5}}),
        ("plugin.every", {"plugin": {"every": True}}),
    ],
)
def test_parse_config_rejects_non_integer_counts(key, overrides):
    cfg, diags = sh.parse_config(small_raw(**overrides))
    assert cfg is None
    assert any(key in d and "must be an integer" in d for d in diags), diags


def test_parse_config_accepts_integral_floats():
    cfg = sh.config_from_dict(
        small_raw(n=3e2, checkpoints=[1e2], directions={"kind": "canonical", "m": 2.0})
    )
    ints = sh.config_from_dict(
        small_raw(n=300, checkpoints=[100], directions={"kind": "canonical", "m": 2})
    )
    assert (cfg.n, cfg.checkpoints, cfg.mode.m) == (300, (100,), 2)
    assert type(cfg.n) is int and cfg.config_hash == ints.config_hash


_LINEAR = {"family": "linear", "theta": [0.6, -0.8]}


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("model.sigma2", {"model": dict(_LINEAR, sigma2=True)}),
        ("model.tau", {"model": dict(_LINEAR, family="quantile", tau="0.25")}),
        ("model.rho", {"model": dict(_LINEAR, design="equicorr", rho="0.2")}),
        ("model.theta entry", {"model": dict(_LINEAR, theta=[0.6, "-0.8"])}),
        ("model.theta", {"model": dict(_LINEAR, theta="0.6")}),
        ("schedules.eta0", {"schedules": {"eta0": "0.5"}}),
        ("schedules.alpha", {"schedules": {"alpha": True}}),
        ("schedules.h0", {"schedules": {"h0": "0.1"}}),
        ("schedules.gamma", {"schedules": {"gamma": False}}),
        ("plugin.p", {"plugin": {"p": True}}),
        ("plugin.kappa1", {"plugin": {"kappa1": "1e-3"}}),
        ("level", {"level": "0.9"}),
        ("w entry", {"w": [True, 0.0]}),
        ("directions.p entry", {"directions": {"kind": "nonuniform", "p": ["0.5", 0.5]}}),
    ],
)
def test_parse_config_rejects_non_numeric_reals(key, overrides):
    cfg, diags = sh.parse_config(small_raw(**overrides))
    assert cfg is None
    assert any(f"{key} must be a" in d and "number" in d for d in diags), diags


def test_parse_config_reals_accept_ints_with_unchanged_hash():
    floats = sh.config_from_dict(
        small_raw(
            model={"family": "quantile", "theta": [1.0, 0.0], "sigma2": 1.0},
            schedules={"eta0": 1.0},
            plugin={"p": 1.0},
            w=[0.0, 1.0],
            directions={"kind": "nonuniform", "p": [0.5, 0.5]},
        )
    )
    ints = sh.config_from_dict(
        small_raw(
            model={"family": "quantile", "theta": [1, 0], "sigma2": 1},
            schedules={"eta0": 1},
            plugin={"p": 1},
            w=[0, 1],
            directions={"kind": "nonuniform", "p": [np.float64(0.5), 0.5]},
        )
    )
    assert type(ints.model.sigma2) is float and ints.sched.eta0 == 1.0
    assert ints.config_hash == floats.config_hash


def test_config_validation_rules():
    with pytest.raises(ValueError):
        sh.config_from_dict(small_raw(level=0.93))  # untabled scaling level
    cfg, _ = sh.parse_config(small_raw(level=0.93, inference=["plugin", "oracle"]))
    assert cfg is not None  # fine without random scaling
    with pytest.raises(sh.ConfigError):
        sh.config_from_dict(small_raw(checkpoints=[0]))
    with pytest.raises(sh.ConfigError):
        sh.config_from_dict(small_raw(checkpoints=[1000]))
    with pytest.raises(sh.ConfigError, match="checkpoints must be a list"):
        sh.config_from_dict(small_raw(checkpoints=5))
    with pytest.raises(sh.ConfigError):
        sh.config_from_dict(small_raw(w=[0.0, 0.0]))
    with pytest.raises(sh.ConfigError):
        sh.config_from_dict(small_raw(w=[1.0, 0.0, 0.0]))
    with pytest.raises(sh.ConfigError):
        sh.config_from_dict(small_raw(inference=["bootstrap"]))
    cfg = sh.config_from_dict(small_raw(checkpoints=[200, 100, 200]))
    assert cfg.checkpoints == (100, 200)


def test_config_hash_ignores_dict_order_but_not_values():
    a = sh.config_from_dict(small_raw())
    b = sh.config_from_dict(dict(reversed(list(small_raw().items()))))
    assert a.config_hash == b.config_hash
    c = sh.config_from_dict(small_raw(seed=12))
    assert a.config_hash != c.config_hash


def test_zero_iterations_yields_unit_error_and_no_intervals():
    cfg = sh.config_from_dict(small_raw(n=0, replications=3))
    report = sh.run_experiment(cfg)
    assert len(report.records) == 3 * len(sh.METHODS)
    for r in report.records:
        assert r.est_error == pytest.approx(1.0)
        assert r.ci_center is None and r.covered is None
        assert not r.aborted


def _replay(cfg, rep):
    """Replay one replication's tape through the scalar ``kw.step``,
    yielding the run state after each step."""
    oracle = models.LossOracle(cfg.model)
    rng = np.random.default_rng(cfg.seed + rep)
    x, z, v, _ = sh.draw_block(rng, oracle, cfg.dist, cfg.mode, cfg.n)
    y = oracle.response_from_noise(x @ cfg.model.theta_star, z)
    state = kw.KwRunState.initial(cfg.model.dim)
    for i in range(cfg.n):
        kw.step(
            state, oracle, cfg.dist, cfg.mode, cfg.sched, rng,
            zeta=(x[i], y[i]), dir_batch=v[i],
        )
        yield state


def test_vectorized_engine_matches_scalar_replay():
    cfg = sh.config_from_dict(
        small_raw(
            n=200,
            replications=3,
            inference=["oracle"],
            directions={"kind": "spherical", "m": 2},
        )
    )
    st = sh.replication_states(cfg)
    for rep in range(cfg.replications):
        *_, state = _replay(cfg, rep)
        assert np.allclose(state.theta, st.theta[rep], rtol=1e-9, atol=1e-12)
        assert np.allclose(state.theta_bar, st.theta_bar[rep], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("family", models.FAMILIES)
@pytest.mark.parametrize(
    "directions",
    [{"kind": "spherical", "m": 2}, {"kind": "canonical"}],
    ids=["spherical-m2", "canonical"],
)
def test_vectorized_gram_and_scaling_match_scalar_replay(family, directions):
    cfg = sh.config_from_dict(
        small_raw(
            model={"family": family, "theta": [0.6, -0.8]},
            n=200,
            replications=3,
            inference=["plugin", "random_scaling"],
            directions=directions,
        )
    )
    st = sh.replication_states(cfg)
    d = cfg.model.dim
    for rep in range(cfg.replications):
        gram = np.zeros((d, d))
        acc = ScalingAccumulator(dim=1)
        for i, state in enumerate(_replay(cfg, rep), start=1):
            gram += np.outer(state.last_gradient, state.last_gradient)
            scaling_update(acc, np.array([cfg.w @ state.theta_bar]), i)
        for got, want in (
            (gram, st.gram[rep]),
            (acc.a[0, 0], st.sc_a[rep]),
            (acc.b[0], st.sc_b[rep]),
            (acc.s, st.sc_s[rep]),
        ):
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize(
    "inference", [["random_scaling"], ["oracle"], ["random_scaling", "oracle"]]
)
def test_gram_is_accumulated_only_for_plugin(inference):
    cfg = sh.config_from_dict(small_raw(n=50, replications=2, inference=inference))
    st = sh.replication_states(cfg)
    assert not st.gram.any()


# w = e_2 and a random vector: the engine's sums of w·θ̄_i must give the
# interval that the full (d, d) sums of θ̄_i give for the same w.
@pytest.mark.parametrize("w", [[0.0, 1.0], [0.3, -1.7]], ids=["e2", "random"])
def test_projected_scaling_interval_matches_full_matrix(w):
    cfg = sh.config_from_dict(
        small_raw(
            n=200,
            replications=3,
            w=w,
            inference=["random_scaling"],
            directions={"kind": "spherical", "m": 2},
        )
    )
    report = sh.run_experiment(cfg)
    for rep, record in enumerate(report.records):
        acc = ScalingAccumulator(dim=cfg.model.dim)
        for i, state in enumerate(_replay(cfg, rep), start=1):
            scaling_update(acc, state.theta_bar, i)
        v = assemble_v(acc.a, acc.b, acc.s, acc.n, state.theta_bar)
        ci = scaling_ci(state.theta_bar, v, cfg.w, cfg.n, cfg.level)
        assert record.ci_center == pytest.approx(ci.center, rel=1e-9, abs=1e-12)
        assert record.ci_length == pytest.approx(ci.length, rel=1e-9, abs=1e-12)


# Quantile is left out: at the kink of the check loss, the engine's x·θ + h·x_k
# and the scalar probe's x·(θ + h·e_k) can land on opposite sides of zero,
# and the curvature entry then differs by O(1). For the smooth losses the two
# orders differ by round-off amplified by 1/h², which is absolute, so entries
# near zero leave little room under the relative tolerance.
@pytest.mark.parametrize("family", ["linear", "logistic"])
@pytest.mark.parametrize(
    "plugin",
    [
        pytest.param({"p": 1.0}, id="1.0"),
        pytest.param({"p": 0.5}, id="0.5"),
        pytest.param({"p": 0.5, "subsampling": "inherit"}, id="0.5-inherit"),
        pytest.param({"p": 1.0, "every": 3}, id="1.0-every3"),
        pytest.param({"p": 0.5, "subsampling": "inherit", "every": 3}, id="0.5-inherit-every3"),
    ],
)
def test_vectorized_curvature_matches_scalar_replay(family, plugin):
    cfg = sh.config_from_dict(
        small_raw(
            model={"family": family, "theta": [0.6, -0.8]},
            n=200,
            replications=3,
            inference=["plugin"],
            plugin=plugin,
        )
    )
    st = sh.replication_states(cfg)
    oracle = models.LossOracle(cfg.model)
    d, p = cfg.model.dim, cfg.plugin.p
    for rep in range(cfg.replications):
        rng = np.random.default_rng(cfg.seed + rep)
        x, z, v, mask = sh.draw_block(rng, oracle, cfg.dist, cfg.mode, cfg.n, p)
        if mask is None:
            mask = np.ones((cfg.n, d, d), dtype=bool)
        y = oracle.response_from_noise(x @ cfg.model.theta_star, z)
        state = kw.KwRunState.initial(d)
        acc = HessianAccumulator(dim=d, p=p, mode=cfg.plugin.subsampling)
        for i in range(cfg.n):
            zeta = (x[i], y[i])
            if (i + 1) % cfg.plugin.every == 0:
                g, _, _ = hessian_entry_block(oracle, state.theta, zeta, cfg.sched.h(i + 1))
                acc.accumulate_block(np.where(mask[i], g, 0.0), mask[i])
            kw.step(
                state, oracle, cfg.dist, cfg.mode, cfg.sched, rng,
                zeta=zeta, dir_batch=v[i],
            )
        assert acc.count == st.hess_count[rep]
        assert np.allclose(acc.running_sum, st.hess[rep], rtol=1e-9, atol=1e-12)


def _block_free_tape(draw, n):
    """A ``draw_block`` that serves each replication's tape from one
    full-length ``draw``, so the tape does not depend on the block size."""
    tapes = {}

    def served(rng, oracle, dist, mode, size, mask_p=None):
        if id(rng) not in tapes:
            tapes[id(rng)] = [draw(rng, oracle, dist, mode, n, mask_p), 0]
        tape, lo = tapes[id(rng)]
        tapes[id(rng)][1] = lo + size
        return tuple(None if a is None else a[lo:lo + size] for a in tape)

    return served


# On one tape, the engine's sums and records must not depend on how many
# steps it takes from the tape at a time.
@pytest.mark.parametrize("p", [1.0, 0.5])
def test_records_do_not_depend_on_block(monkeypatch, p):
    cfg = sh.config_from_dict(
        small_raw(
            model={"family": "logistic", "theta": [0.6, -0.8]},
            directions={"kind": "spherical", "m": 2},
            replications=3,
            checkpoints=[130],
            plugin={"p": p},
        )
    )
    draw, run_chunk = sh.draw_block, sh._run_chunk
    runs = []
    for block in (1, 100, 1024):
        monkeypatch.setattr(sh, "draw_block", _block_free_tape(draw, cfg.n))
        st = sh.replication_states(cfg, block=block)
        monkeypatch.setattr(sh, "draw_block", _block_free_tape(draw, cfg.n))
        monkeypatch.setattr(sh, "_run_chunk", functools.partial(run_chunk, block=block))
        runs.append((st, sh.run_experiment(cfg)))
        monkeypatch.setattr(sh, "_run_chunk", run_chunk)
    (st0, report0), *others = runs
    assert report0.checkpoint_records
    for st, report in others:
        for name in ("theta_bar", "gram", "hess", "hess_count", "sc_a", "sc_b", "sc_s",
                     "queries", "n_done"):
            assert np.array_equal(getattr(st, name), getattr(st0, name)), name
        assert report.records == report0.records
        assert report.checkpoint_records == report0.checkpoint_records


@pytest.mark.parametrize("family", models.FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 5, 20])
def test_pair_losses_match_dense_probe(family, d):
    spec = models.ModelSpec(family=family, theta_star=models.theta_on_unit_sphere(d, 5))
    oracle = models.LossOracle(spec)
    rng = np.random.default_rng(d)
    c, h = 50, 0.1 * 7.0**-0.7
    x = oracle.draw_x(rng, c)
    z = rng.random(c) if oracle.noise_kind == "uniform" else rng.standard_normal(c)
    y = oracle.response_from_noise(x @ spec.theta_star, z)
    u0 = rng.standard_normal(c)
    dense = oracle.linpred_loss(
        u0[:, None, None] + h * (x[:, :, None] + x[:, None, :]), y[:, None, None]
    )
    ends, pair = sh._pair_index(d)
    got = sh._pair_losses(oracle, u0, y, x.T, h, ends)  # (pairs, c)
    assert np.array_equal(got.T[:, pair], dense)


# d = 20 and 5 replications: at 3 and 5 workers some chunks hold one row,
# where numpy takes other paths for gemv and for sums over steps. With
# MAX_CHUNK = 2 a worker runs several chunks.
def test_chunking_and_workers_do_not_change_results(monkeypatch):
    cfg = sh.config_from_dict(
        small_raw(
            model={"family": "linear", "dim": 20},
            n=150,
            replications=5,
            checkpoints=[70],
        )
    )
    outputs = []
    for workers, max_chunk in ((1, 256), (2, 256), (3, 256), (5, 256), (1, 2), (2, 2)):
        monkeypatch.setattr(sh, "MAX_CHUNK", max_chunk)
        r = sh.run_experiment(cfg, workers=workers)
        outputs.append((
            sh._records_csv(r.records, sh.CSV_FIELDS),
            sh._records_csv(r.checkpoint_records, sh.CHECKPOINT_FIELDS),
            json.dumps(r.summary, sort_keys=True),
        ))
    assert all(out == outputs[0] for out in outputs[1:])


SPLIT_DIRECTIONS = {
    "canonical": {"kind": "canonical"},
    "spherical-m2": {"kind": "spherical", "m": 2},
    "gaussian": {"kind": "gaussian"},
    "canonical-m3-wor": {"kind": "canonical", "m": 3, "replacement": "without"},
}
SPLIT_PLUGINS = {
    "1.0": {"p": 1.0},
    "0.5-ipw": {"p": 0.5},
    "0.5-inherit": {"p": 0.5, "subsampling": "inherit"},
}
SPLITS = ([6], [3, 3], [2, 1, 3], [1] * 6)


# Every split of the replications into chunks, one-row chunks included,
# gives each replication the same records, checkpoints and state bits.
# n = 40 makes step groups of 40 (d = 1) and 29 (d = 7) steps, long enough
# for numpy's pairwise summation; at d = 20 a gemv across the chunk's rows
# rounds a row by its position.
@pytest.mark.parametrize("family", models.FAMILIES)
@pytest.mark.parametrize("d", [1, 7, 20])
def test_records_do_not_depend_on_chunk_split(family, d):
    for (dname, directions), (pname, plugin), algorithm in itertools.product(
        SPLIT_DIRECTIONS.items(), SPLIT_PLUGINS.items(), sh.ALGORITHMS
    ):
        directions = dict(directions, m=min(directions.get("m", 1), d))
        cfg = sh.config_from_dict(
            small_raw(
                model={"family": family, "dim": d},
                directions=directions,
                n=40,
                checkpoints=[17],
                plugin=plugin,
                algorithm=algorithm,
            )
        )
        c_true = sh._oracle_truth(cfg)
        c_norm = sh.spectral_norm(c_true)
        runs = []
        for sizes in SPLITS:
            bounds = np.cumsum([0] + sizes)
            parts = [
                sh._run_chunk(cfg, np.arange(lo, hi), c_true, c_norm)
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
            records = [r for recs, _, _ in parts for r in recs]
            cps = sorted(
                (r for _, cps, _ in parts for r in cps),
                key=lambda r: (r.n, r.replication, sh.METHODS.index(r.method)),
            )
            states = {
                name: np.concatenate([getattr(st, name) for _, _, st in parts])
                for name in vars(parts[0][2])
            }
            runs.append((sizes, records, cps, states))
        _, records0, cps0, states0 = runs[0]
        case = f"{dname} {pname} {algorithm}"
        assert cps0, case
        for sizes, records, cps, states in runs[1:]:
            assert records == records0, (case, sizes)
            assert cps == cps0, (case, sizes)
            for name, value in states.items():
                assert np.array_equal(value, states0[name]), (case, sizes, name)


def test_worker_processes_end_with_the_run():
    cfg = sh.config_from_dict(small_raw(n=50, replications=4))
    sh.run_experiment(cfg, workers=2)
    assert multiprocessing.active_children() == []


# With a cold cache the logistic truth starts and joins its helper thread
# before the pool forks; the files match those of an inline run.
def test_cold_logistic_truth_then_workers_write_identical_files(monkeypatch, tmp_path):
    cfg = sh.config_from_dict(
        small_raw(model={"family": "logistic", "dim": 3}, n=80, replications=4)
    )
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(models, "_LOGISTIC_HESSIAN_CACHE", {})
        run_dir = sh.write_report(sh.run_experiment(cfg, workers=workers),
                                  str(tmp_path / str(workers)))
        files = {}
        for name in sorted(os.listdir(run_dir)):
            with open(os.path.join(run_dir, name), "rb") as fh:
                files[name] = fh.read()
        outputs.append(files)
        assert multiprocessing.active_children() == []
    assert outputs[0] == outputs[1]


_COLD_CHUNK_FAULTS = """
import resource
import numpy as np
from akwinfer import simharness as sh
cfg = sh.config_from_dict({
    "model": {"family": "linear", "dim": 20}, "directions": {"kind": "canonical"},
    "n": 200, "replications": 50, "seed": 1,
})
c_true = sh._oracle_truth(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sh._run_chunk(cfg, np.arange(50), c_true, sh.spectral_norm(c_true))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


# The fold's temporaries (a few hundred KB each here) come from malloc's heap
# in a fresh process too, not from a fresh mapping that faults in every page:
# with glibc's default thresholds this chunk takes about 29 000 minor faults,
# with the engine's about 1500.
def test_cold_chunk_does_not_fault_in_its_temporaries():
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("the C library has no mallopt")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", _COLD_CHUNK_FAULTS], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert int(out.stdout) < 10_000


_run_chunk_unpatched = sh._run_chunk


def _failing_chunk(cfg, reps, *args):
    if 0 not in reps:
        raise FloatingPointError(f"chunk {reps.tolist()} failed")
    return _run_chunk_unpatched(cfg, reps, *args)


# A chunk that raises in its worker must fail the run, not drop its
# replications from the averages, and must leave no process behind.
def test_worker_exception_reaches_caller(monkeypatch):
    monkeypatch.setattr(sh, "_run_chunk", _failing_chunk)
    monkeypatch.setattr(sh, "_usable_cpus", lambda: 2)
    cfg = sh.config_from_dict(small_raw(n=50, replications=4))
    with pytest.raises(FloatingPointError, match=r"chunk \[2, 3\] failed"):
        sh.run_experiment(cfg, workers=2)
    assert multiprocessing.active_children() == []
    monkeypatch.setenv("ZOKW_WORKERS", "4")
    with pytest.raises(FloatingPointError, match=r"chunk \[1\] failed"):
        sh.replication_states(cfg)
    assert multiprocessing.active_children() == []


def _first_chunk_fails(cfg, reps, marks):
    if reps[0] == 0:
        raise FloatingPointError("first chunk failed")
    time.sleep(0.2)
    open(os.path.join(marks, str(reps[0])), "w").close()


# A failed chunk cancels the chunks still queued instead of waiting for
# them: of 19 slow chunks on 2 processes, only those already handed to
# the pool run.
def test_worker_exception_cancels_queued_chunks(monkeypatch, tmp_path):
    monkeypatch.setattr(sh, "_usable_cpus", lambda: 2)
    cfg = sh.config_from_dict(small_raw(n=50, replications=20))
    with pytest.raises(FloatingPointError, match="first chunk failed"):
        sh._map_chunks(_first_chunk_fails, cfg, 20, str(tmp_path))
    assert multiprocessing.active_children() == []
    assert len(os.listdir(tmp_path)) < 10


class _RecordingPool:
    """Runs submitted calls inline and records the pool size asked for."""

    sizes: list = []

    def __init__(self, max_workers, mp_context=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


# The worker count sets the chunks; the pool never has more processes
# than usable CPUs, however many workers are asked for.
def test_pool_size_is_capped_by_usable_cpus(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(sh, "_usable_cpus", lambda: 3)
    _RecordingPool.sizes = []
    cfg = sh.config_from_dict(small_raw(n=10, replications=8))
    chunks = sh._map_chunks(lambda cfg, reps: reps.tolist(), cfg, 5000)
    assert chunks == [[r] for r in range(8)]
    assert _RecordingPool.sizes == [3]
    monkeypatch.setenv("ZOKW_WORKERS", "5000")
    sh.run_experiment(cfg)
    assert _RecordingPool.sizes == [3, 3]


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("ZOKW_WORKERS", raising=False)
    assert sh.resolve_workers() == sh._usable_cpus()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert sh.resolve_workers() == (os.cpu_count() or 1)
    assert sh.resolve_workers(3) == 3
    assert sh.resolve_workers("2") == 2
    monkeypatch.setenv("ZOKW_WORKERS", "5")
    assert sh.resolve_workers() == 5
    assert sh.resolve_workers(1) == 1  # an explicit count wins
    for bad in ("abc", "0", "-3", "2.5"):
        monkeypatch.setenv("ZOKW_WORKERS", bad)
        with pytest.raises(sh.ConfigError, match="ZOKW_WORKERS"):
            sh.resolve_workers()
    for bad in (0, -3, "abc", 2.5):
        with pytest.raises(sh.ConfigError, match="workers"):
            sh.resolve_workers(bad)


def test_write_and_read_report_round_trip(tmp_path):
    cfg = sh.config_from_dict(small_raw(n=120, replications=4, checkpoints=[60]))
    report = sh.run_experiment(cfg)
    run_dir = sh.write_report(report, str(tmp_path))
    assert os.path.basename(run_dir) == cfg.run_id
    back = sh.read_replications(os.path.join(run_dir, "replications.csv"))
    assert sh.summarize_records(back) == sh.summarize_records(report.records)
    with open(os.path.join(run_dir, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["run_id"] == cfg.run_id
    assert "wall_time" not in summary
    with open(os.path.join(run_dir, "config.resolved.json")) as fh:
        assert json.load(fh) == cfg.resolved()
    cps = sh.read_replications(os.path.join(run_dir, "checkpoints.csv"))
    assert {r.n for r in cps} == {60}
    assert len(cps) == 4 * len(sh.METHODS)


def test_rerun_writes_identical_bytes(tmp_path):
    cfg = sh.config_from_dict(small_raw(n=100, replications=3))
    d1 = sh.write_report(sh.run_experiment(cfg), str(tmp_path / "a"))
    d2 = sh.write_report(sh.run_experiment(cfg), str(tmp_path / "b"))
    for fname in ("replications.csv", "summary.json", "config.resolved.json"):
        with open(os.path.join(d1, fname), "rb") as f1, open(
            os.path.join(d2, fname), "rb"
        ) as f2:
            assert f1.read() == f2.read(), fname


def test_divergent_replications_marked_aborted():
    cfg = sh.config_from_dict(
        small_raw(
            n=200,
            replications=4,
            schedules={"eta0": 1e7, "alpha": 0.501, "h0": 1.0, "gamma": 0.7},
        )
    )
    report = sh.run_experiment(cfg)
    aborted = [r for r in report.records if r.aborted]
    assert aborted, "expected the huge step size to trip the divergence guard"
    for r in aborted:
        assert r.ci_center is None and r.covered is None
    assert report.summary["aborted"] == len(aborted) // len(sh.METHODS)


def test_aborts_are_counted_without_inference_records():
    cfg = sh.config_from_dict(
        {
            "name": "t",
            "model": {"family": "linear", "theta": [0.6, -0.8]},
            "directions": {"kind": "canonical"},
            "schedules": {"eta0": 1e4},
            "n": 200,
            "replications": 4,
            "seed": 5,
            "inference": [],
        }
    )
    report = sh.run_experiment(cfg)
    assert report.records == []
    assert report.summary["aborted"] == 4
    assert report.summary["replications"] == 4


def test_rm_baseline_beats_kw_variance():
    raw = small_raw(n=4000, replications=20, inference=["oracle"],
                    directions={"kind": "gaussian"})
    cfg = sh.config_from_dict(raw)
    akw = sh.run_experiment(cfg)
    rm = sh.run_experiment(sh.config_from_dict(dict(raw, name="t-rm", algorithm="rm")))
    assert rm.config.algorithm == "rm"
    assert rm.run_id.startswith("t-rm-")
    assert (
        rm.summary["methods"]["oracle"]["est_error_mean"]
        < akw.summary["methods"]["oracle"]["est_error_mean"]
    )
    assert (
        rm.summary["oracle_covariance_trace"]
        < akw.summary["oracle_covariance_trace"]
    )
    # RM consumes one query per step, AKW m+1
    assert rm.records[0].queries == cfg.n
    assert akw.records[0].queries == 2 * cfg.n


def test_sweep_rejects_duplicates_and_handles_empty():
    cfg = sh.config_from_dict(small_raw(n=50, replications=2))
    with pytest.raises(sh.ConfigError):
        sh.sweep([cfg, cfg])
    assert sh.sweep([]) == []


def test_oracle_coverage_near_nominal():
    cfg = sh.config_from_dict(
        small_raw(n=8000, replications=60, seed=3, inference=["oracle"])
    )
    report = sh.run_experiment(cfg)
    cov = report.summary["methods"]["oracle"]["coverage"]
    assert 0.85 <= cov <= 1.0

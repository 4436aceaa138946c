import copy
import json
import os
import subprocess
import sys

import pytest

from akwinfer import recipes, simharness
from akwinfer.cli import _parse_override, build_parser, main


CONFIG = {
    "name": "clitest",
    "model": {"family": "linear", "theta": [0.6, -0.8]},
    "directions": {"kind": "canonical"},
    "n": 200,
    "replications": 4,
    "seed": 5,
}


def write_config(tmp_path, payload, fname="cfg.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_override():
    assert _parse_override("n=500") == (["n"], 500)
    assert _parse_override("model.family=logistic") == (["model", "family"], "logistic")
    assert _parse_override("w=[1,0]") == (["w"], [1, 0])
    with pytest.raises(Exception):
        _parse_override("nonsense")
    with pytest.raises(Exception):
        _parse_override(".=1")


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_writes_report_and_is_repeatable(tmp_path, capsys):
    cfg = write_config(tmp_path, CONFIG)
    out1 = str(tmp_path / "out1")
    out2 = str(tmp_path / "out2")
    assert main(["run", "--config", cfg, "--output-dir", out1]) == 0
    summary1 = json.loads(capsys.readouterr().out)
    assert main(["run", "--config", cfg, "--output-dir", out2]) == 0
    summary2 = json.loads(capsys.readouterr().out)
    assert summary1 == summary2
    (run_dir,) = os.listdir(out1)
    files = sorted(os.listdir(os.path.join(out1, run_dir)))
    assert files == ["config.resolved.json", "replications.csv", "summary.json"]
    a = open(os.path.join(out1, run_dir, "replications.csv"), "rb").read()
    b = open(os.path.join(out2, run_dir, "replications.csv"), "rb").read()
    assert a == b


def test_run_seed_and_override_flags(tmp_path, capsys):
    cfg = write_config(tmp_path, CONFIG)
    out = str(tmp_path / "out")
    rc = main([
        "run", "--config", cfg, "--output-dir", out,
        "--seed", "99", "--override", "n=50",
        "--override", "schedules.h0=0.2",
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["seed"] == 99 and summary["n"] == 50
    run_dir = os.path.join(out, summary["run_id"])
    with open(os.path.join(run_dir, "config.resolved.json")) as fh:
        resolved = json.load(fh)
    assert resolved["schedules"]["h0"] == 0.2


def test_run_missing_and_invalid_config(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 1
    cfg = write_config(tmp_path, {**CONFIG, "level": 2.0})
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "config error" in err


def test_run_rejects_a_name_that_leaves_the_output_dir(tmp_path, capsys):
    cfg = write_config(tmp_path, {**CONFIG, "name": "../escaped"})
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 1
    assert "name must be one plain path component" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_sweep_runs_list(tmp_path, capsys):
    cfgs = [CONFIG, {**CONFIG, "seed": 6}]
    path = write_config(tmp_path, cfgs)
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", path, "--output-dir", out]) == 0
    assert len(os.listdir(out)) == 2
    # a dict where a list is expected is a config error
    single = write_config(tmp_path, CONFIG, "single.json")
    assert main(["sweep", "--config", single]) == 1


def test_sweep_writes_each_report_as_its_run_ends(tmp_path, monkeypatch, capsys):
    run = simharness.run_experiment

    def second_run_fails(cfg, workers=None):
        if cfg.seed == 6:
            raise RuntimeError("second run fails")
        return run(cfg, workers)

    monkeypatch.setattr(simharness, "run_experiment", second_run_fails)
    path = write_config(tmp_path, [CONFIG, {**CONFIG, "seed": 6}])
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--output-dir", str(out)]) == 2
    assert "runtime abort: second run fails" in capsys.readouterr().err
    (run_dir,) = os.listdir(out)
    files = sorted(os.listdir(out / run_dir))
    assert files == ["config.resolved.json", "replications.csv", "summary.json"]


def test_recipe_list_and_unknown(capsys):
    assert main(["recipe", "--list"]) == 0
    listed = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in listed]
    assert set(names) == set(recipes.recipe_names())
    assert main(["recipe", "no-such-recipe"]) == 1


def test_recipe_runs_with_shrinking_overrides(tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main([
        "recipe", "table2-linear-identity-d5", "--output-dir", out,
        "--override", "n=200", "--override", "replications=3",
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n"] == 200 and summary["replications"] == 3


def test_overrides_leave_recipes_unchanged(tmp_path, capsys):
    name = "table2-linear-identity-d5"
    before = copy.deepcopy(recipes.get_recipe(name))
    rc = main([
        "recipe", name, "--output-dir", str(tmp_path / "out"),
        "--override", "n=200", "--override", "replications=2",
        "--override", "schedules.eta0=0.05",
    ])
    assert rc == 0
    assert recipes.get_recipe(name) == before


def test_validate_config(tmp_path, capsys):
    good = write_config(tmp_path, CONFIG)
    assert main(["validate-config", "--config", good]) == 0
    bad = write_config(tmp_path, {**CONFIG, "bogus": 1}, "bad.json")
    assert main(["validate-config", "--config", bad]) == 1
    assert "bogus" in capsys.readouterr().out


def test_section_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {**CONFIG, "plugin": 5})
    assert main(["validate-config", "--config", path]) == 1
    assert "plugin: must be a JSON object, got 5" in capsys.readouterr().out
    assert main(["run", "--config", path, "--output-dir", str(tmp_path / "out")]) == 1
    assert "config error: plugin: must be a JSON object" in capsys.readouterr().err


def test_quantile_check(capsys):
    assert main(["quantile-check", "--paths", "2000", "--steps", "200"]) == 0
    out = capsys.readouterr().out
    assert "tabled" in out and "6.747" in out


def test_workers_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ZOKW_WORKERS", "2")
    cfg = write_config(tmp_path, {**CONFIG, "n": 50, "replications": 2})
    assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_invalid_workers_are_config_errors(tmp_path, monkeypatch, capsys, value):
    cfg = write_config(tmp_path, {**CONFIG, "n": 50, "replications": 2})
    out = str(tmp_path / "o")
    monkeypatch.delenv("ZOKW_WORKERS", raising=False)
    assert main(["run", "--config", cfg, "--workers", value, "--output-dir", out]) == 1
    assert "config error: workers must be an integer" in capsys.readouterr().err
    monkeypatch.setenv("ZOKW_WORKERS", value)
    assert main(["run", "--config", cfg, "--output-dir", out]) == 1
    assert "config error: ZOKW_WORKERS must be an integer" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_run_warns_on_aborted_replications(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", write_config(tmp_path, CONFIG), "--output-dir", out]) == 0
    assert "replications aborted" not in capsys.readouterr().err
    # eta0 = 2.5 diverges in 3 of the 4 replications at this seed, eta0 = 5 in all
    partial = {**CONFIG, "schedules": {"eta0": 2.5}, "inference": ["oracle"]}
    assert main(["run", "--config", write_config(tmp_path, partial), "--output-dir", out]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["aborted"] == 3
    assert "3 of 4 replications aborted" in captured.err
    every = {**partial, "schedules": {"eta0": 5.0}}
    assert main(["run", "--config", write_config(tmp_path, every), "--output-dir", out]) == 2
    assert "every replication aborted" in capsys.readouterr().err


def test_run_exits_2_when_every_replication_aborts_without_records(tmp_path, capsys):
    cfg = {**CONFIG, "schedules": {"eta0": 1e4}, "inference": []}
    out = str(tmp_path / "out")
    assert main(["run", "--config", write_config(tmp_path, cfg), "--output-dir", out]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["aborted"] == 4
    assert "every replication aborted" in captured.err


# The package does not import cli, so running it as a module does not warn
# that akwinfer.cli was already in sys.modules.
def test_module_entry_point_runs_without_warning():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "akwinfer.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert "usage:" in out.stdout

"""Print one sha256 over the artifacts of a fixed matrix of small runs.

    python3 tests/artifact_digest.py [--files]

A change that must leave every artifact byte-identical prints the same
digest as its parent commit. With ``--files`` the script prints one
``sha256  index/file`` line per artifact instead, where index is the run's
position in the matrix and the hash is taken with the run id and the config
hash replaced by fixed tokens. Two trees can then be compared file by file
with ``diff``, also across a change that moves every config hash. The
matrix has 380 runs, each at d = 3, n = 160, 5 replications, a checkpoint at
80 and one worker:

- linear/logistic/quantile × identity/equicorr (rho 0.3) × seven direction
  laws × four inference sets × akw/rm (336 runs);
- the identity design with plug-in only at p = 0.5 × the three families,
  seven laws and two algorithms (42 runs);
- one linear run whose step size (eta0 = 1e7) makes every replication
  diverge;
- one linear run (eta0 = 2) whose replications leave the guard at five
  different steps, from 23 to 62, so the chunk stops before its checkpoint.

The digest covers the raw bytes of every run's replications.csv,
checkpoints.csv, summary.json and config.resolved.json, each with its path
relative to the output directory, in sorted order. pytest does not collect
this script.
"""

import hashlib
import itertools
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from akwinfer import models  # noqa: E402
from akwinfer import simharness as sh  # noqa: E402

DIRECTIONS = (
    {"kind": "gaussian"},
    {"kind": "spherical"},
    {"kind": "canonical"},
    {"kind": "orthonormal", "basis_seed": 5},
    {"kind": "nonuniform", "p": [0.2, 0.3, 0.5]},
    {"kind": "canonical", "m": 2, "replacement": "without"},
    # d = 3 repeats an index in most steps: the gradient scatter's risky case
    {"kind": "canonical", "m": 3, "replacement": "with"},
)
INFERENCE = (
    {"inference": []},
    {"inference": ["plugin"], "plugin": {"p": 0.6}},
    {"inference": ["random_scaling", "oracle"]},
    {"inference": list(sh.METHODS), "plugin": {"every": 2}},
)
HALF = {"inference": ["plugin"], "plugin": {"p": 0.5}}
BASE = {"name": "digest", "n": 160, "replications": 5, "seed": 3, "checkpoints": [80]}


def configs():
    for family, design, directions, inference, algorithm in itertools.product(
        models.FAMILIES, ("identity", "equicorr"), DIRECTIONS, INFERENCE, sh.ALGORITHMS
    ):
        model = {"family": family, "dim": 3, "design": design, "rho": 0.3}
        yield dict(BASE, model=model, directions=directions, algorithm=algorithm, **inference)
    for family, directions, algorithm in itertools.product(
        models.FAMILIES, DIRECTIONS, sh.ALGORITHMS
    ):
        model = {"family": family, "dim": 3}
        yield dict(BASE, model=model, directions=directions, algorithm=algorithm, **HALF)
    yield dict(
        BASE,
        model={"family": "linear", "dim": 3},
        directions={"kind": "canonical"},
        schedules={"eta0": 1e7, "h0": 1.0},
    )
    yield dict(
        BASE,
        model={"family": "linear", "dim": 3},
        directions={"kind": "canonical"},
        schedules={"eta0": 2.0},
    )


def masked(data: bytes, report) -> bytes:
    """``data`` with the run id and the config hash replaced by fixed tokens."""
    data = data.replace(report.config.config_hash.encode(), b"<config-hash>")
    return data.replace(report.run_id.encode(), b"<run-id>")


def main():
    per_file = sys.argv[1:] == ["--files"]
    if sys.argv[1:] and not per_file:
        sys.exit("usage: artifact_digest.py [--files]")
    with tempfile.TemporaryDirectory() as out:
        for index, raw in enumerate(configs()):
            report = sh.run_experiment(sh.config_from_dict(raw), workers=1)
            run_dir = pathlib.Path(sh.write_report(report, out))
            if per_file:
                for path in sorted(run_dir.iterdir()):
                    data = masked(path.read_bytes(), report)
                    print(f"{hashlib.sha256(data).hexdigest()}  {index:03d}/{path.name}")
        if not per_file:
            digest = hashlib.sha256()
            for path in sorted(pathlib.Path(out).rglob("*")):
                if path.is_file():
                    digest.update(str(path.relative_to(out)).encode())
                    digest.update(path.read_bytes())
            print(digest.hexdigest())


if __name__ == "__main__":
    main()

"""Print one sha256 over the artifacts of a fixed matrix of small runs, or
compare the matrix's artifacts between two source trees.

    python3 tests/artifact_digest.py [--files]
    python3 tests/artifact_digest.py --compare OLD [NEW]

A change that must leave every artifact byte-identical prints the same
digest as its parent commit. With ``--files`` the script prints one
``sha256  index/file`` line per artifact instead, where index is the run's
position in the matrix and the hash is taken with the run id and the config
hash replaced by fixed tokens. The matrix has 191 runs, each at d = 3,
n = 160, 5 replications, a checkpoint at 80 and one worker:

- linear/logistic/quantile × identity/equicorr (rho 0.3) × seven direction
  laws × four inference sets (168 runs);
- the identity design with plug-in only at p = 0.5 × the three families and
  seven laws (21 runs);
- one linear run whose step size (eta0 = 1e7) makes every replication
  diverge;
- one linear run (eta0 = 2) whose replications leave the guard at five
  different steps, from 23 to 62, so the chunk stops before its checkpoint.

The digest covers the raw bytes of every run's replications.csv,
checkpoints.csv, summary.json and config.resolved.json, each with its path
relative to the output directory, in sorted order.

``--compare OLD [NEW]`` runs this file's matrix against the ``src/`` of two
git revisions (each taken with ``git archive``; NEW defaults to the working
tree), each side in its own subprocess, and matches the runs by matrix
index with the run id and config hash masked. For each file kind and
column (a CSV column, or a JSON key with list indices written ``[]``) it
prints the cells that changed and the largest absolute and relative move.
It flags a change in an exact column (``replication``, ``method``, ``n``,
``covered``, ``queries``, ``aborted``), a column, JSON key, CSV row, list
entry or file that only one side has, and a config that one side rejects. It exits 0 when
nothing changed and 1 otherwise. pytest does not collect this script.
"""

import csv
import hashlib
import itertools
import json
import math
import pathlib
import subprocess
import sys
import tempfile
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]

FAMILIES = ("linear", "logistic", "quantile")
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
    {"inference": ["plugin", "random_scaling", "oracle"]},
)
HALF = {"inference": ["plugin"], "plugin": {"p": 0.5}}
BASE = {"name": "digest", "n": 160, "replications": 5, "seed": 3, "checkpoints": [80]}
EXACT = {"replication", "method", "n", "covered", "queries", "aborted"}


def configs():
    for family, design, directions, inference in itertools.product(
        FAMILIES, ("identity", "equicorr"), DIRECTIONS, INFERENCE
    ):
        model = {"family": family, "dim": 3, "design": design, "rho": 0.3}
        yield dict(BASE, model=model, directions=directions, **inference)
    for family, directions in itertools.product(FAMILIES, DIRECTIONS):
        yield dict(BASE, model={"family": family, "dim": 3}, directions=directions, **HALF)
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


def _runs(src: pathlib.Path, out: str):
    """Run the matrix with the akwinfer of ``src`` and write each run's
    files under ``out``; yield (index, report, run directory), with report
    None and the violations as the run directory for a rejected config."""
    sys.path.insert(0, str(src))
    from akwinfer import simharness as sh

    for index, raw in enumerate(configs()):
        try:
            cfg = sh.config_from_dict(raw)
        except ValueError as exc:
            yield index, None, str(exc)
            continue
        report = sh.run_experiment(cfg, workers=1)
        yield index, report, pathlib.Path(sh.write_report(report, out))


def digest(per_file: bool) -> None:
    with tempfile.TemporaryDirectory() as out:
        for index, report, run_dir in _runs(ROOT / "src", out):
            if report is None:
                sys.exit(f"run {index:03d}: config rejected: {run_dir}")
            if per_file:
                for path in sorted(run_dir.iterdir()):
                    data = masked(path.read_bytes(), report)
                    print(f"{hashlib.sha256(data).hexdigest()}  {index:03d}/{path.name}")
        if not per_file:
            total = hashlib.sha256()
            for path in sorted(pathlib.Path(out).rglob("*")):
                if path.is_file():
                    total.update(str(path.relative_to(out)).encode())
                    total.update(path.read_bytes())
            print(total.hexdigest())


def emit(src: str, dest: str) -> None:
    """Write each run's masked files to ``dest/<index>/`` and a rejected
    config's violations to ``dest/<index>.rejected``."""
    dest = pathlib.Path(dest)
    with tempfile.TemporaryDirectory() as out:
        for index, report, run_dir in _runs(pathlib.Path(src), out):
            if report is None:
                (dest / f"{index:03d}.rejected").write_text(run_dir)
                continue
            (dest / f"{index:03d}").mkdir()
            for path in run_dir.iterdir():
                (dest / f"{index:03d}" / path.name).write_bytes(
                    masked(path.read_bytes(), report)
                )


def _side(rev: str | None, work: pathlib.Path, label: str) -> pathlib.Path:
    """Emit the matrix of revision ``rev`` (the working tree if None) into
    ``work/label``, and return that directory."""
    src = ROOT / "src"
    if rev is not None:
        tree = work / f"{label}-tree"
        tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 capture_output=True)
        if archive.returncode:
            sys.exit(f"git archive {rev}: {archive.stderr.decode().strip()}")
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
        src = tree / "src"
    dest = work / label
    dest.mkdir()
    subprocess.run([sys.executable, __file__, "--emit", str(src), str(dest)], check=True)
    return dest


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _cells(path: pathlib.Path):
    """The columns of a CSV or JSON file and its cells, each keyed by
    (column, where): a CSV cell's where is its column and row, a JSON leaf's
    its key path; a JSON leaf's column is its key path with list indices
    written ``[]``."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            columns = reader.fieldnames or []
            rows = list(reader)
        cells = {(c, f"{c} row {i}"): row[c] for i, row in enumerate(rows) for c in columns}
        return columns, cells

    cells = {}

    def walk(value, column, key):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, f"{column}.{k}" if column else k, f"{key}.{k}" if key else k)
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(v, f"{column}[]", f"{key}[{i}]")
        else:
            cells[(column, key)] = value

    walk(json.loads(path.read_text()), "", "")
    return sorted({c for c, _ in cells}), cells


def compare(old_dir: pathlib.Path, new_dir: pathlib.Path, labels) -> bool:
    """Print the column report of two emitted matrices; True if they agree."""
    raws = list(configs())
    flags = defaultdict(list)  # what only one side has, or an exact move -> runs
    moves = defaultdict(lambda: [0, 0.0, 0.0])  # (file, column) -> cells, max abs, rel
    moved_runs = set()
    for index in range(len(raws)):
        run = f"{index:03d}"
        rejected = [d / f"{run}.rejected" for d in (old_dir, new_dir)]
        if any(p.exists() for p in rejected):
            texts = [p.read_text() if p.exists() else None for p in rejected]
            for label, text in zip(labels, texts):
                if text is not None and texts[0] != texts[1]:
                    flags[f"{label} rejects the config: {text}"].append(run)
                    moved_runs.add(index)
            continue
        names = {p.name for d in (old_dir, new_dir) for p in (d / run).iterdir()}
        for name in sorted(names):
            paths = (old_dir / run / name, new_dir / run / name)
            if not all(p.exists() for p in paths):
                side = labels[0] if paths[0].exists() else labels[1]
                flags[f"{name} only in {side}"].append(run)
                moved_runs.add(index)
                continue
            if paths[0].read_bytes() == paths[1].read_bytes():
                continue
            moved_runs.add(index)
            (old_cols, old), (new_cols, new) = _cells(paths[0]), _cells(paths[1])
            for cell in set(old) ^ set(new):
                side = labels[0] if cell in old else labels[1]
                if cell[0] in old_cols and cell[0] in new_cols:  # a row or list entry
                    flags[f"{name} {cell[0]} cells only in {side}"].append(run)
                else:
                    flags[f"{name} {cell[0]} only in {side}"].append(run)
            changed = False
            for cell in set(old) & set(new):
                a, b = old[cell], new[cell]
                if a == b:
                    continue
                changed, column = True, cell[0]
                entry = moves[(name, column)]
                entry[0] += 1
                if column.rsplit(".", 1)[-1] in EXACT:
                    flags[f"{name} exact column {column} moved"].append(run)
                x, y = _number(a), _number(b)
                move = math.inf if x is None or y is None else abs(y - x)
                entry[1] = max(entry[1], move)
                entry[2] = max(entry[2], move / abs(x) if x else math.inf if move else 0.0)
            if not changed and set(old) == set(new):
                flags[f"{name} differs in its bytes only"].append(run)

    print(f"{labels[0]} -> {labels[1]}: {len(raws)} runs, {len(moved_runs)} with a change")
    if moves:
        print(f"{'file':22} {'column':42} {'changed':>8} {'max abs':>10} {'max rel':>10}")
        for (name, column), (count, move, rel) in sorted(moves.items()):
            print(f"{name:22} {column:42} {count:8d} {move:10.3g} {rel:10.3g}")
    kinds = defaultdict(list)
    for index in sorted(moved_runs):
        kinds[raws[index]["directions"]["kind"]].append(f"{index:03d}")
    for kind, runs in sorted(kinds.items()):
        print(f"runs with a change, {kind} directions: {len(runs)}")
    for flag, runs in sorted(flags.items()):
        runs = sorted(set(runs))
        shown = " ".join(runs[:8]) + (" ..." if len(runs) > 8 else "")
        print(f"FLAG {flag}: {len(runs)} runs ({shown})")
    if not moved_runs:
        print("no change")
    return not moved_runs


def main():
    args = sys.argv[1:]
    if args[:1] == ["--emit"] and len(args) == 3:
        return emit(args[1], args[2])
    if args[:1] == ["--compare"] and len(args) in (2, 3):
        revs = [args[1], args[2] if len(args) == 3 else None]
        labels = [rev or "working tree" for rev in revs]
        with tempfile.TemporaryDirectory() as work:
            work = pathlib.Path(work)
            dirs = [_side(rev, work, side) for rev, side in zip(revs, ("old", "new"))]
            sys.exit(0 if compare(*dirs, labels) else 1)
    if args not in ([], ["--files"]):
        sys.exit("usage: artifact_digest.py [--files | --compare OLD [NEW]]")
    digest(per_file=args == ["--files"])


if __name__ == "__main__":
    main()

"""Reference outputs of a source tree, and a comparison of two such sets.

A change that should leave the numbers alone is checked against its parent
with the same fixed runs on both trees:

* 16 reference flows: torus-static and torus-breathing-drift, each of the 4
  flow modes, Euler and RK4, n=48, 30 steps, dt=1e-3;
* the cross-check flow: torus-breathing-drift, Conforming_Jaumann, RK4, with
  the conforming cross-check every 5 steps, same grid and steps;
* the snapshot flow: torus-breathing-drift, Conforming_Material, Euler, with
  a snapshot every 10 steps (headers and arrays), same grid and steps;
* ``verify --suite all --events 3 --seed 20240`` on every scenario;
* ``converge --kind fd``, ``laplace`` and ``thinfilm``, each with its
  default scenario and seed.

"Every scenario" and "the flow modes" are those that the tree registers
(``list_scenarios()`` and ``landau.FLOW_MODES``), so the set of a tree with
a new scenario holds its verify report, and ``compare`` lists it as a file
that only one side has.

Usage::

    python scripts/reference_outputs.py write TREE OUTDIR
    python scripts/reference_outputs.py compare OLD_OUTDIR NEW_OUTDIR
    python scripts/reference_outputs.py fingerprint [FILE]

``write`` runs the command line of ``TREE/src`` in subprocesses (one BLAS
thread) and writes each run's files under ``OUTDIR``.  ``compare`` compares
every file byte for byte, then every verify row: it prints the number of
byte-identical files of each kind (converge, flow, verify), the number of
bit-identical rows and the old and new worst residual of each row that
moved.  For an ``energy.csv`` or a ``converge_*.csv`` that differs it
prints the largest absolute change of each column (cells equal on both
sides are skipped), and for a ``flow_report.json`` or a
``converge_*.json`` that of each key whose value changed (a list item's key
is its index).  It exits 1 if a file differs outside the verify reports, a file is
missing, or a verify row fails its tolerance; otherwise 0.

``fingerprint`` runs the command line of this script's own tree in process
and writes, to ``tests/data/reference_fingerprint.json`` by default, the
last row of ``energy.csv`` of each of the 16 reference flows at n=16, 10
steps and dt=1e-3, and the fitted order of each converge study, each as
the command writes it.  ``tests/test_fingerprint.py`` reruns the same and
compares the strings, so a change that moves a flow or an order fails
tier-1 until the file is regenerated.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import filecmp
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FINGERPRINT = ROOT / "tests" / "data" / "reference_fingerprint.json"
FLOW_SCENARIOS = ("torus-static", "torus-breathing-drift")
FLOW_ARGS = ("--n", "48", "--steps", "30", "--dt", "1e-3")
FINGERPRINT_FLOW_ARGS = ("--n", "16", "--steps", "10", "--dt", "1e-3")
CONVERGE_KINDS = ("fd", "laplace", "thinfilm")
# the registered scenarios and the flow modes of the tree that runs this, as JSON
LIST_NAMES = (
    "import json; from surfrates.chart_kernel import list_scenarios; "
    "from surfrates.landau import FLOW_MODES; "
    "print(json.dumps([list_scenarios(), list(FLOW_MODES)]))"
)


def _flow_runs(modes, flow_args):
    """(name, command-line arguments) of each reference flow of the given
    modes, with the grid, steps and dt of flow_args."""
    for scenario in FLOW_SCENARIOS:
        for mode in modes:
            for method in ("euler", "rk4"):
                args = ("flow", "--scenario", scenario, "--mode", mode, "--method", method)
                yield f"{scenario}_{mode}_{method}", args + flow_args


def _runs(scenarios, modes):
    """(output subdirectory, command-line arguments) of every reference run
    on the given registered scenarios and flow modes."""
    for name, args in _flow_runs(modes, FLOW_ARGS):
        yield f"flow/{name}", args
    yield "flow/crosscheck", (
        "flow", "--scenario", "torus-breathing-drift", "--mode", "Conforming_Jaumann",
        "--method", "rk4", "--crosscheck-every", "5",
    ) + FLOW_ARGS
    yield "flow/snapshot", (
        "flow", "--scenario", "torus-breathing-drift", "--mode", "Conforming_Material",
        "--method", "euler", "--snapshot-every", "10",
    ) + FLOW_ARGS
    for scenario in scenarios:
        yield "verify", (
            "verify", "--scenario", scenario, "--suite", "all", "--events", "3",
            "--seed", "20240",
        )
    for kind in CONVERGE_KINDS:
        yield "converge", ("converge", "--kind", kind)


def write(tree: Path, outdir: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), OPENBLAS_NUM_THREADS="1")
    env.pop("SURFRATES_OUTDIR", None)
    names = subprocess.run(
        [sys.executable, "-c", LIST_NAMES], env=env, capture_output=True, text=True, check=True
    )
    status = 0
    for sub, args in _runs(*json.loads(names.stdout)):
        out = outdir / sub
        out.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, "-m", "surfrates.cli", *args, "--out", str(out)]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"exit {done.returncode}: {' '.join(args)}\n{done.stderr}", file=sys.stderr)
            status = 1
    return status


def fingerprint() -> dict:
    """The last energy.csv row of each reference flow at
    FINGERPRINT_FLOW_ARGS and the fitted order of each converge study's CSV,
    as strings written by the importable surfrates, run in this process."""
    from surfrates import cli
    from surfrates.landau import FLOW_MODES

    def run(args, out):
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main([*args, "--out", out])
        if status != 0:
            raise RuntimeError(f"exit {status}: {' '.join(args)}")

    flows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in _flow_runs(FLOW_MODES, FINGERPRINT_FLOW_ARGS):
            run(args, tmp)
            flows[name] = Path(tmp, "energy.csv").read_text().splitlines()[-1]
        for kind in CONVERGE_KINDS:
            run(("converge", "--kind", kind), tmp)
        orders = {
            path.stem: next(csv.DictReader(path.read_text().splitlines()))["fitted_order"]
            for path in Path(tmp).glob("converge_*.csv")
        }
    return {"converge": orders, "flows": flows}


def _files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def _rows(path: Path) -> dict[str, dict]:
    return {r["identity_name"]: r for r in json.loads(path.read_text())["identities"]}


def _leaves(obj, prefix=""):
    """Dotted key -> value of every leaf of nested JSON objects and lists."""
    if isinstance(obj, list):
        obj = dict(enumerate(obj))
    if not isinstance(obj, dict):
        return {prefix: obj}
    out = {}
    for key, value in obj.items():
        out.update(_leaves(value, f"{prefix}.{key}" if prefix else key))
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _largest_changes(a: Path, b: Path) -> list[str]:
    """The largest absolute change from a to b of each column of an
    energy.csv or a converge_*.csv, or of each changed key of a
    flow_report.json or a converge_*.json."""
    if a.suffix == ".csv":
        ra, rb = (list(csv.reader(p.read_text().splitlines())) for p in (a, b))
        if ra[0] != rb[0] or len(ra) != len(rb):
            return [f"columns or row count changed: {len(ra) - 1} -> {len(rb) - 1} rows"]
        # equal cells are skipped, so an "inf" on both sides is no change
        changes = (
            max(
                (abs(float(y[j]) - float(x[j])) for x, y in zip(ra[1:], rb[1:]) if x[j] != y[j]),
                default=0.0,
            )
            for j in range(len(ra[0]))
        )
        return [f"{col} {change:.3g}" for col, change in zip(ra[0], changes)]
    if a.name == "flow_report.json" or (a.name.startswith("converge_") and a.suffix == ".json"):
        la, lb = (_leaves(json.loads(p.read_text())) for p in (a, b))
        lines = []
        for key in sorted(la.keys() | lb.keys()):
            x, y = la.get(key), lb.get(key)
            if x == y:
                continue
            if _is_number(x) and _is_number(y):
                lines.append(f"{key} {abs(y - x):.3g}")
            else:
                lines.append(f"{key} {x!r} -> {y!r}")
        return lines
    return []


def compare(old: Path, new: Path) -> int:
    status = 0
    old_files, new_files = _files(old), _files(new)
    for name in sorted(old_files ^ new_files):
        print(f"missing in {'new' if name in old_files else 'old'}: {name}")
        status = 1
    common = sorted(old_files & new_files)
    reports = [n for n in common if n.startswith("verify/")]
    differ = {n for n in common if not filecmp.cmp(old / n, new / n, shallow=False)}
    for name in sorted(differ.difference(reports)):
        print(f"differs: {name}")
        changes = _largest_changes(old / name, new / name)
        if changes:
            print(f"  largest |change|: {', '.join(changes)}")
        status = 1
    for kind in sorted({n.split("/")[0] for n in common}):
        files = [n for n in common if n.startswith(f"{kind}/")]
        same = sum(n not in differ for n in files)
        print(f"{same} of {len(files)} {kind} files byte-identical")

    same = total = 0
    for name in reports:
        scenario = Path(name).stem.removeprefix("verify_").removesuffix("_all")
        a, b = _rows(old / name), _rows(new / name)
        for row in sorted(a.keys() | b.keys()):
            if row not in a or row not in b:
                print(f"row only in {'old' if row in a else 'new'}: {scenario} {row}")
                status = 1
                continue
            total += 1
            ra, rb = a[row]["residual"], b[row]["residual"]
            if not b[row]["pass"]:
                print(f"FAIL {scenario} {row}: {rb!r} (tol {b[row]['tol']:g})")
                status = 1
            if ra == rb:
                same += 1
            else:
                print(f"moved {scenario} {row}: {ra!r} -> {rb!r} (tol {b[row]['tol']:g})")
    print(f"{same} of {total} verify rows bit-identical")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="write the reference outputs of a source tree")
    w.add_argument("tree", type=Path)
    w.add_argument("outdir", type=Path)
    c = sub.add_parser("compare", help="compare two output directories")
    c.add_argument("old", type=Path)
    c.add_argument("new", type=Path)
    f = sub.add_parser("fingerprint", help="write the fingerprint of this tree's reference runs")
    f.add_argument("file", type=Path, nargs="?", default=FINGERPRINT)
    args = p.parse_args(argv)
    if args.command == "write":
        return write(args.tree, args.outdir)
    if args.command == "fingerprint":
        sys.path.insert(0, str(ROOT / "src"))
        args.file.parent.mkdir(parents=True, exist_ok=True)
        args.file.write_text(json.dumps(fingerprint(), indent=2, sort_keys=True) + "\n")
        return 0
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())

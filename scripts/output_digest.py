#!/usr/bin/env python3
"""Digest of every file a fixed set of nildual commands writes.

The command set: `generate`, `dual`, `sweep` and `export --formats obj,csv`
for the paraboloid, smyth-2 and helicoid at
`--lambda 1,exp:pi/3 --allow-reflection`; `dual` of the paraboloid at the
same flags in a directory of its own, where no frame cache precedes it, so
that `dual` runs the pipeline itself; `verify` for the paraboloid,
the helicoid and smyth-1 (`1,exp:pi/3`) and smyth-2 (`1`), the helicoid's
being the one verify of a Phi with positive powers; and `generate`,
`dual`, `sweep` and `verify` driven by `--spinors` from the lam0 CSVs of
the paraboloid and of the helicoid, whose sheet rows then run on an 81x81
grid and on spinors of a Phi with positive powers, and whose frames,
sheets and fields lie on the sub-grid 4 nodes in from each edge; and
`generate --potential` of the helicoid's potential with a stale
`"twisted": false` key, on a 41x41 grid, the one command that reads a
potential file: the reader ignores the key and reads the potential as
every other; and `generate` (`1,exp:pi/3`) and
`verify` (`1`) of the paraboloid on the grid -0.9,1.1,-1,0.9,30,41, whose
axes have no node at z = 0, where Phi = I, and whose even side gives the
cross-pipeline frame march of `verify` halves of unequal length; and the
same four
`--spinors` commands from that run's lam0 CSVs, whose 30x41 grid has an
even side, so that the frame march from the grid's centre node has halves
of unequal length; and `dual` and `sweep` of smyth-2 on the grid
-0.5,0.5,-0.5,0.5,15,15 at `1,exp:pi/3`, each in a directory of its own
under `refused/`, which must exit 2 (the sheets are too far from minimal
for the B extraction) and, computing before they write, leave no file;
and `generate --spinors` from smyth-2's lam0 CSVs at the flags above, under
`refused/spinors`, which must exit 2 (the frame marched from them leaves
SU(1,1) at the under-resolved corners, and no node is repaired) and leave
no file; and `generate --spinors` at the flags above from the paraboloid's
spinors on a 21x21 grid, written with psi1's last column absent, whose
masked band lies outside the sub-grid, and, under `refused/spinors_hole`,
with psi1's node (6, 8) absent, which lies inside it: that one must exit 2
and leave no file.  The CSVs are copied (or written) to the fixed
relative prefixes `spinors/lam0`, `spinors_helicoid/lam0`,
`spinors_off_centre/lam0`, `spinors_smyth-2/lam0`, `spinors_holed/lam0`
and `spinors_hole_inside/lam0`, and the potential is written to
`potentials/helicoid_untwisted.json`, because the input path enters the
run hash and so the run directory's name. The set writes 343 files; with
their 167 report rows and the 37 exit codes the digest holds 547 entries.

Prints `{path under OUT: sha256}` as JSON, together with each command's exit
code under `exit: <command>` and each `report.json` row's `[max, tolerance]`
under `row: <path> <row name>`, and exits 1 if any command's exit code is
not the one expected of it: 2 for the four refused commands, 0 for the
rest.
The program is imported from `./src` of the working directory, so another
checkout is digested by running this file from inside it.

Usage:
  python scripts/output_digest.py OUT > digest.json
  python scripts/output_digest.py --compare A.json B.json
  python scripts/output_digest.py --numbers A_OUT B_OUT

`--compare` lists every path (and exit code) whose digest differs between
two digest files, or that only one of them has; a report row that changed
prints as base -> head max, each with its headroom max/tolerance.
`--numbers` reads two output directories the command set wrote and prints,
for each CSV, OBJ or JSON file whose bytes differ, how far its values
moved: the largest difference relative to the largest finite |value| of
A's file, or "structure differs" when the files differ elsewhere.  A CSV's
values are its `re` and `im` columns, scaled together (a field's
imaginary part may be round-off alone), and an OBJ's are its vertex
coordinates; a CSV's other columns (i, j, x, y) and an OBJ's faces are
structure, so a changed index or coordinate or face token reads
"structure differs".  Every number of a JSON file is a value (a frame
cache's base64 payloads count as their complex128 values, and a JSON
string that parses as a number as that number).  It gates nothing.
"""
import base64
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

EXAMPLES = ("paraboloid", "smyth-2", "helicoid")
LAMBDAS = ("--lambda", "1,exp:pi/3", "--allow-reflection")
FLAGS = (*LAMBDAS, "--out", "runs")
OFF_CENTRE = "-0.9,1.1,-1,0.9,30,41"
REFUSED = ("--example", "smyth-2", "--grid=-0.5,0.5,-0.5,0.5,15,15",
           "--lambda", "1,exp:pi/3")
# smyth-2's 41x41 CSVs: the frame marched from them leaves SU(1,1) at the
# under-resolved corners, and the surface formula refuses it
REFUSED_SPINORS = ("--spinors", "spinors_smyth-2/lam0", *LAMBDAS)
# the paraboloid's 21x21 pair with psi1's node (6, 8) absent: it lies in
# the sub-grid the frames are marched on
REFUSED_HOLE = ("--spinors", "spinors_hole_inside/lam0", *LAMBDAS)
# exit codes other than 0 that the command set expects
EXPECTED = {
    **{f"exit: {command} {' '.join(REFUSED)} --out refused/{command}": 2
       for command in ("dual", "sweep")},
    f"exit: generate {' '.join(REFUSED_SPINORS)} --out refused/spinors": 2,
    f"exit: generate {' '.join(REFUSED_HOLE)} --out refused/spinors_hole": 2,
}
UNTWISTED_HELICOID = (
    "import json; from nildual.potentials import helicoid_potential; "
    "d = helicoid_potential().to_json(); d['twisted'] = False; "
    "print(json.dumps(d))")
# the paraboloid's spinors at lam = 1, (cosh(y/2), sinh(y/2))/sqrt(2), on
# a 21x21 grid, twice: psi1's last column absent, and its node (6, 8)
HOLED_SPINORS = """
import numpy as np
from nildual.io_formats import write_field_csv
from nildual.nil3 import DomainGrid
grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, 21, 21)
y = grid.ys[:, None] + 0.0 * grid.xs[None, :]
psi1, psi2 = (f(y / 2.0) / np.sqrt(2.0) + 0.0j for f in (np.cosh, np.sinh))
for prefix, hole in (("spinors_holed", np.s_[:, -1]),
                     ("spinors_hole_inside", np.s_[6, 8])):
    keep = np.ones(grid.shape, dtype=bool)
    keep[hole] = False
    write_field_csv(f"{prefix}/lam0_psi1.csv", psi1, grid, mask=keep)
    write_field_csv(f"{prefix}/lam0_psi2.csv", psi2, grid)
"""


def run_commands(out, env):
    """Run the command set with `out` as working directory; exit codes."""
    codes = {}

    def nildual(*argv):
        proc = subprocess.run([sys.executable, "-m", "nildual.cli", *argv],
                              cwd=out, env=env, stdout=subprocess.DEVNULL)
        codes["exit: " + " ".join(argv)] = proc.returncode

    def cache_dir(example):
        (cache,) = (out / "runs").glob(f"example_{example}_*/frames.json")
        return cache.parent

    for ex in EXAMPLES:
        for command in ("generate", "dual", "sweep"):
            nildual(command, "--example", ex, *FLAGS)
        nildual("export", "--run", cache_dir(ex).relative_to(out).as_posix(),
                "--formats", "obj,csv")
    # no generate precedes this dual: it runs the pipeline on the fly
    nildual("dual", "--example", "paraboloid", *LAMBDAS, "--out", "no_cache")
    for ex in ("paraboloid", "helicoid", "smyth-1"):
        nildual("verify", "--example", ex, "--lambda", "1,exp:pi/3",
                "--out", "runs")
    nildual("verify", "--example", "smyth-2", "--lambda", "1", "--out", "runs")

    def copy_spinors(run_dir, prefix):
        (out / prefix).mkdir()
        for part in ("psi1", "psi2"):
            shutil.copyfile(run_dir / f"lam0_{part}.csv",
                            out / prefix / f"lam0_{part}.csv")

    def spinor_runs(run_dir, prefix):
        copy_spinors(run_dir, prefix)
        for command in ("generate", "dual", "sweep", "verify"):
            nildual(command, "--spinors", f"{prefix}/lam0", *FLAGS)

    spinor_runs(cache_dir("paraboloid"), "spinors")
    # an 81x81 grid, from a Phi with positive powers
    spinor_runs(cache_dir("helicoid"), "spinors_helicoid")

    (out / "potentials").mkdir()
    (out / "potentials" / "helicoid_untwisted.json").write_text(subprocess.run(
        [sys.executable, "-c", UNTWISTED_HELICOID], env=env, check=True,
        capture_output=True, text=True).stdout)
    nildual("generate", "--potential", "potentials/helicoid_untwisted.json",
            "--grid=-0.5,0.5,-0.5,0.5,41,41", *FLAGS)

    # z = 0 off both grid axes, and an even side; a directory of their own
    # keeps cache_dir's glob to one match
    for command, lams in (("generate", "1,exp:pi/3"), ("verify", "1")):
        nildual(command, "--example", "paraboloid", f"--grid={OFF_CENTRE}",
                "--lambda", lams, "--out", "off_centre")
    (cache,) = (out / "off_centre").glob("example_paraboloid_*/frames.json")
    spinor_runs(cache.parent, "spinors_off_centre")

    for command in ("dual", "sweep"):
        nildual(command, *REFUSED, "--out", f"refused/{command}")
    copy_spinors(cache_dir("smyth-2"), "spinors_smyth-2")
    nildual("generate", *REFUSED_SPINORS, "--out", "refused/spinors")

    for prefix in ("spinors_holed", "spinors_hole_inside"):
        (out / prefix).mkdir()
    subprocess.run([sys.executable, "-c", HOLED_SPINORS], cwd=out, env=env,
                   check=True)
    nildual("generate", "--spinors", "spinors_holed/lam0", *FLAGS)
    nildual("generate", *REFUSED_HOLE, "--out", "refused/spinors_hole")
    return codes


def digest(out, env):
    out.mkdir(parents=True)
    codes = run_commands(out, env)
    files = {p.relative_to(out).as_posix():
             hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.rglob("*")) if p.is_file()}
    rows = {f"row: {p.relative_to(out).as_posix()} {c['name']}":
            [c["max"], c["tolerance"]]
            for p in sorted(out.rglob("report.json"))
            for c in json.loads(p.read_text())["checks"]}
    return {**files, **rows, **codes}


def _headroom(row):
    mx, tol = row
    return f"{mx:.8g} ({mx / tol if tol else float('inf'):.3g} of tol)"


def compare(a_path, b_path):
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    differ = [k for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)]
    for k in differ:
        if k not in b:
            print(f"only in {a_path}: {k}")
        elif k not in a:
            print(f"only in {b_path}: {k}")
        elif k.startswith("exit: "):
            print(f"{k}: {a[k]} -> {b[k]}")
        elif k.startswith("row: "):
            print(f"{k}: {_headroom(a[k])} -> {_headroom(b[k])}")
        else:
            print(f"differs: {k}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} entries differ")


def _csv_numbers(text):
    """The `re` and `im` values of a field CSV, and its other tokens."""
    numbers, rest = [], []
    value = None   # per column, whether it is a value column
    for line in text.splitlines():
        cells = line.split(",")
        if line.startswith("#") or value is None:
            rest.append(line)
            if not line.startswith("#"):
                value = [c in ("re", "im") for c in cells]
            continue
        rest.append(len(cells))
        for is_value, cell in zip(value, cells):
            if is_value:
                numbers.append(float(cell))
            else:
                rest.append(cell)
    return numbers, rest


def _obj_numbers(text):
    """The vertex coordinates of an OBJ, and its other tokens."""
    numbers, rest = [], []
    for line in text.splitlines():
        tokens = line.split()
        if tokens[:1] == ["v"]:
            rest.append(len(tokens))
            numbers.extend(float(t) for t in tokens[1:])
        else:
            rest.append(line)
    return numbers, rest


def _json_numbers(value, numbers, rest):
    """Append the numbers of a JSON value to `numbers` and everything else
    to `rest`.  A string is a number when it parses as one, and the values
    of a frame-cache payload when it is base64 of a whole number of
    complex128 values."""
    if isinstance(value, dict):
        rest.append(sorted(value))
        for k in sorted(value):
            _json_numbers(value[k], numbers, rest)
    elif isinstance(value, list):
        rest.append(len(value))
        for v in value:
            _json_numbers(v, numbers, rest)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        numbers.append(value)
    elif isinstance(value, str):
        try:
            numbers.append(float(value))
            return
        except ValueError:
            pass
        try:
            raw = base64.b64decode(value, validate=True)
        except ValueError:
            raw = b""
        if raw and len(raw) % 16 == 0:
            values = np.frombuffer(raw, dtype="<c16")
            numbers.extend(values)
            rest.append(len(values))
        else:
            rest.append(value)
    else:
        rest.append(value)


def _file_numbers(path):
    """(values, everything else) of a CSV, OBJ or JSON file."""
    if path.suffix == ".json":
        numbers, rest = [], []
        _json_numbers(json.loads(path.read_text()), numbers, rest)
        return numbers, rest
    if path.suffix == ".csv":
        return _csv_numbers(path.read_text())
    return _obj_numbers(path.read_text())


def numbers(a_dir, b_dir):
    """For each CSV, OBJ or JSON file under both output directories whose
    bytes differ: the largest difference of its values relative to the
    largest finite |value| of A's file, or "structure differs" when the
    files differ elsewhere than in their values (`_file_numbers`)."""
    a_dir, b_dir = Path(a_dir), Path(b_dir)
    paths = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*")
                   if p.suffix in (".csv", ".obj", ".json"))
    for rel in paths:
        a, b = a_dir / rel, b_dir / rel
        if not b.is_file():
            print(f"only in {a_dir}: {rel.as_posix()}")
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        (na, ra), (nb, rb) = _file_numbers(a), _file_numbers(b)
        if ra != rb or len(na) != len(nb):
            print(f"{rel.as_posix()}: structure differs")
            continue
        na, nb = np.asarray(na, dtype=complex), np.asarray(nb, dtype=complex)
        same = (na == nb) | (np.isnan(na) & np.isnan(nb))
        with np.errstate(invalid="ignore"):
            diff = np.where(same, 0.0, np.abs(na - nb))
        finite = np.abs(na[np.isfinite(na)])
        scale = finite.max() if finite.size and finite.max() > 0 else 1.0
        diff = np.where(np.isnan(diff), np.inf, diff)
        print(f"{rel.as_posix()}: {np.max(diff, initial=0.0) / scale:.3g}")
    for p in sorted(b_dir.rglob("*")):
        rel = p.relative_to(b_dir)
        if p.suffix in (".csv", ".obj", ".json") and not (a_dir / rel).exists():
            print(f"only in {b_dir}: {rel.as_posix()}")


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        compare(argv[1], argv[2])
        return 0
    if len(argv) == 3 and argv[0] == "--numbers":
        numbers(argv[1], argv[2])
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    src = Path("src").resolve()
    env = {**os.environ, "PYTHONPATH": str(src)}
    found = subprocess.run(
        [sys.executable, "-c", "import nildual.cli as c; print(c.__file__)"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(found).resolve().is_relative_to(src):
        print(f"nildual was imported from {found}, not from {src}",
              file=sys.stderr)
        return 2
    result = digest(Path(argv[0]).resolve(), env)
    print(json.dumps(result, indent=1, sort_keys=True))
    return int(any(v != EXPECTED.get(k, 0) for k, v in result.items()
                   if k.startswith("exit: ")))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Digest of every file a fixed set of nildual commands writes.

The command set: `generate`, `dual` and `export --formats obj,csv`
for the paraboloid, smyth-2 and helicoid at
`--lambda 1,exp:pi/3 --allow-reflection`; `dual` of the paraboloid at the
same flags in a directory of its own, where no frame cache precedes it, so
that `dual` runs the pipeline itself; `verify` for the paraboloid,
the helicoid and smyth-1 (`1,exp:pi/3`) and smyth-2 (`1`), the helicoid's
being the one verify of a Phi with positive powers; and `generate`,
`dual` and `verify` driven by `--spinors` from the lam0 CSVs of
the paraboloid and of the helicoid, whose rows then run on an 81x81
grid and on spinors of a Phi with positive powers, and whose frames,
sheets and fields lie on the sub-grid 4 nodes in from each edge (verify
runs the input's sheet rows and its sheets' battery); and
`generate --potential` of the helicoid's potential with a stale
`"twisted": false` key, on a 41x41 grid, the one command that reads a
potential file: the reader ignores the key and reads the potential as
every other; and `generate` (`1,exp:pi/3`) and
`verify` (`1`) of the paraboloid on the grid -0.9,1.1,-1,0.9,30,41, whose
axes have no node at z = 0, where Phi = I, and whose even side gives the
cross-pipeline frame march of `verify` halves of unequal length; and the
same three
`--spinors` commands from that run's lam0 CSVs, whose 30x41 grid has an
even side, so that the frame march from the grid's centre node has halves
of unequal length; and `dual` of smyth-2 on the grid
-0.5,0.5,-0.5,0.5,15,15 at `1,exp:pi/3`, in a directory of its own
under `refused/`, which must exit 2 (the sheets are too far from minimal
for the B extraction) and, computing before it writes, leave no file;
and `verify` of the paraboloid on the grid -0.2,0.2,-0.2,0.2,9,9, under
`refused/verify_grid`, which must exit 2 (its sheets have fewer than
verify's 13 nodes a side) and leave no file;
and `verify` and `dual` of the paraboloid on its 41x41 grid at
`--exclude-disk 1.3`, under `refused/verify_fit` and `refused/dual_fit`,
which must exit 2 (the disk keeps corner nodes alone, none of whose
stencils reads kept nodes alone, so the congruence fits have no node to
compare on) and leave no file; and `verify` of the paraboloid at
`--lambda 1,exp:0.0001`, under `refused/verify_tags`, which must exit 2
(both values are tagged lam+0.000pi, so their rows would share names) and
leave no file; and `generate --spinors spinors/lam0` with
`--grid=-1,1,-1,1,41,41`, with `--exclude-disk=0.5` and with `--order=8`,
under `refused/spinors_grid`, `refused/spinors_exclude_disk` and
`refused/spinors_order`, which must exit 2 (the spinor pipeline reads none
of these flags) and leave no file;
and `generate --spinors` from smyth-2's lam0 CSVs at the flags above, under
`refused/spinors`, which must exit 2 (the frame marched from them leaves
SU(1,1) at the under-resolved corners, and no node is repaired) and leave
no file; and `generate --spinors` and `verify --spinors` at the flags
above from the paraboloid's spinors on a 21x21 grid, written with psi1's
last column absent, whose masked band lies outside the sub-grid (verify's
rows then read the full pair's maxima, and it exits 1: the 13x13 sheets
at spacing 0.1 fail conformality at lam = 1 and the Sym extraction's
gate, as the paraboloid's DPW sheets at that spacing do), and, under
`refused/spinors_hole` and `refused/verify_hole`, with psi1's node (6, 8)
absent, which lies inside it: those two must exit 2, naming node (4, 8),
the first whose stencils read it, and leave no file.  The CSVs are copied
(or written) to the fixed relative prefixes `spinors/lam0`,
`spinors_helicoid/lam0`, `spinors_off_centre/lam0`, `spinors_smyth-2/lam0`,
`spinors_holed/lam0` and `spinors_hole_inside/lam0`, and the potential is
written to `potentials/helicoid_untwisted.json`, because the input path
enters the run hash and so the run directory's name. The set writes 349
files; with their 304 report rows and the 39 exit codes the digest holds
692 entries.

Prints `{path under OUT: sha256}` as JSON, together with each command's exit
code under `exit: <command>` and each `report.json` row's `[max, tolerance]`
under `row: <path> <row name>`, and exits 1 if any command's exit code is
not the one expected of it: 2 for the eleven refused commands, 1 for the
edge-holed pair's `verify --spinors`, 0 for the rest.
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
for each CSV, OBJ, JSON or frame-cache payload file whose bytes differ, how
far its values moved: the largest difference relative to the largest
finite |value| of its group in A's file, or "structure differs" when the
files differ elsewhere.  A CSV's values are its `re` and `im` columns, one group (a
field's imaginary part may be round-off alone), and an OBJ's are its
vertex coordinates; a CSV's other columns (i, j, x, y) and an OBJ's faces
are structure, so a changed index or coordinate or face token reads
"structure differs".  A JSON file's floats (and strings that parse as
floats) are grouped by key path, so a fit's theta is scaled by theta and
a report's maxima by the largest maximum; its integers and booleans (a
schema, a count, a mask) are structure.  A frame cache's payload
(`frames.bin`) is read through its header (`frames.json`, beside it): its
complex128 values are one group, and the mask bytes after them are
structure.  (A base64 payload string, the frame cache before its schema 3,
is a group of its own complex128 values.)  It gates nothing.
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
# a 9x9 grid: its sheets are under verify's SHEET_MIN nodes a side
REFUSED_GRID = ("--example", "paraboloid", "--grid=-0.2,0.2,-0.2,0.2,9,9")
# an exclusion disk that leaves the corners alone: no node's stencils read
# kept nodes alone, so the congruence fits have no node to compare on
REFUSED_FIT = ("--example", "paraboloid", "--grid=-1,1,-1,1,41,41",
               "--exclude-disk", "1.3")
# two lambdas of one report tag, lam+0.000pi
REFUSED_TAGS = ("--example", "paraboloid", "--lambda", "1,exp:0.0001")
# flags the spinor pipeline does not read
REFUSED_SPINOR_FLAGS = (("--grid=-1,1,-1,1,41,41", "spinors_grid"),
                        ("--exclude-disk=0.5", "spinors_exclude_disk"),
                        ("--order=8", "spinors_order"))
# exit codes other than 0 that the command set expects
EXPECTED = {
    f"exit: dual {' '.join(REFUSED)} --out refused/dual": 2,
    f"exit: verify {' '.join(REFUSED_GRID)} --out refused/verify_grid": 2,
    f"exit: generate {' '.join(REFUSED_SPINORS)} --out refused/spinors": 2,
    f"exit: generate {' '.join(REFUSED_HOLE)} --out refused/spinors_hole": 2,
    f"exit: verify {' '.join(REFUSED_HOLE)} --out refused/verify_hole": 2,
    f"exit: verify {' '.join(REFUSED_FIT)} --out refused/verify_fit": 2,
    f"exit: dual {' '.join(REFUSED_FIT)} --out refused/dual_fit": 2,
    f"exit: verify {' '.join(REFUSED_TAGS)} --out refused/verify_tags": 2,
    **{f"exit: generate --spinors spinors/lam0 {flag} --out refused/{name}": 2
       for flag, name in REFUSED_SPINOR_FLAGS},
    # the 21x21 pair's sheets, 13x13 at spacing 0.1, fail conformality at
    # lam = 1 and the Sym extraction's gate, as the DPW sheets there do
    f"exit: verify --spinors spinors_holed/lam0 {' '.join(FLAGS)}": 1,
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
        for command in ("generate", "dual"):
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
        for command in ("generate", "dual", "verify"):
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

    nildual("dual", *REFUSED, "--out", "refused/dual")
    nildual("verify", *REFUSED_GRID, "--out", "refused/verify_grid")
    nildual("verify", *REFUSED_FIT, "--out", "refused/verify_fit")
    nildual("dual", *REFUSED_FIT, "--out", "refused/dual_fit")
    nildual("verify", *REFUSED_TAGS, "--out", "refused/verify_tags")
    for flag, name in REFUSED_SPINOR_FLAGS:
        nildual("generate", "--spinors", "spinors/lam0", flag,
                "--out", f"refused/{name}")
    copy_spinors(cache_dir("smyth-2"), "spinors_smyth-2")
    nildual("generate", *REFUSED_SPINORS, "--out", "refused/spinors")

    for prefix in ("spinors_holed", "spinors_hole_inside"):
        (out / prefix).mkdir()
    subprocess.run([sys.executable, "-c", HOLED_SPINORS], cwd=out, env=env,
                   check=True)
    nildual("generate", "--spinors", "spinors_holed/lam0", *FLAGS)
    nildual("generate", *REFUSED_HOLE, "--out", "refused/spinors_hole")
    # verify reads a --spinors pair by the same rule
    nildual("verify", "--spinors", "spinors_holed/lam0", *FLAGS)
    nildual("verify", *REFUSED_HOLE, "--out", "refused/verify_hole")
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


# the files `--numbers` reads
SUFFIXES = (".csv", ".obj", ".json", ".bin")


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


def _json_numbers(value, groups, rest, path=""):
    """Add the values of a JSON value to `groups`, which maps a group to
    its values, and append everything else to `rest`.  A float, or a string
    that parses as one, joins the group of its key path (list indices left
    out); a string that is base64 of a whole number of complex128 values (a
    frame-cache payload) is a group of its own.  Integers, booleans and
    other strings are structure."""
    if isinstance(value, dict):
        rest.append(sorted(value))
        for k in sorted(value):
            _json_numbers(value[k], groups, rest, f"{path}/{k}")
    elif isinstance(value, list):
        rest.append(len(value))
        for v in value:
            _json_numbers(v, groups, rest, path + "[]")
    elif isinstance(value, float):
        groups.setdefault(path, []).append(value)
    elif isinstance(value, str):
        try:
            groups.setdefault(path, []).append(float(value))
            return
        except ValueError:
            pass
        try:
            raw = base64.b64decode(value, validate=True)
        except ValueError:
            raw = b""
        if raw and len(raw) % 16 == 0:
            groups[f"{path} payload {len(rest)}"] = np.frombuffer(
                raw, dtype="<c16")
            rest.append(len(raw))
        else:
            rest.append(value)
    else:
        rest.append(value)


def _bin_numbers(path):
    """The complex128 values of a frame-cache payload, as many as the
    header beside it calls for, and the bytes after them (the masks)."""
    header = json.loads(path.with_suffix(".json").read_text())
    nodes = header["grid"]["nx"] * header["grid"]["ny"]
    raw = path.read_bytes()
    count = min(12 * len(header["lambdas"]) * nodes, len(raw) // 16)
    return ({"payload": np.frombuffer(raw, dtype="<c16", count=count)},
            [raw[16 * count:]])


def _file_numbers(path):
    """({group: values}, everything else) of a CSV, OBJ, JSON or frame-cache
    payload file; a CSV's or OBJ's values are one group."""
    if path.suffix == ".bin":
        return _bin_numbers(path)
    if path.suffix == ".json":
        groups, rest = {}, []
        _json_numbers(json.loads(path.read_text()), groups, rest)
        return groups, rest
    parse = _csv_numbers if path.suffix == ".csv" else _obj_numbers
    numbers, rest = parse(path.read_text())
    return {"": numbers}, rest


def _moved(a, b):
    """The largest difference of `b` from `a`, relative to the largest
    finite |value| of `a` (1 when that is 0 or there is none)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        diff = np.where(same, 0.0, np.abs(a - b))
    finite = np.abs(a[np.isfinite(a)])
    scale = finite.max() if finite.size and finite.max() > 0 else 1.0
    diff = np.where(np.isnan(diff), np.inf, diff)
    return np.max(diff, initial=0.0) / scale


def numbers(a_dir, b_dir):
    """For each CSV, OBJ, JSON or frame-cache payload file under both
    output directories whose bytes differ: the largest difference of its
    values, each relative to the largest finite |value| of its group in A's
    file, or "structure differs" when the files differ elsewhere than in
    their values (`_file_numbers`)."""
    a_dir, b_dir = Path(a_dir), Path(b_dir)
    paths = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*")
                   if p.suffix in SUFFIXES)
    for rel in paths:
        a, b = a_dir / rel, b_dir / rel
        if not b.is_file():
            print(f"only in {a_dir}: {rel.as_posix()}")
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        (ga, ra), (gb, rb) = _file_numbers(a), _file_numbers(b)
        if ra != rb or ({k: len(v) for k, v in ga.items()}
                        != {k: len(v) for k, v in gb.items()}):
            print(f"{rel.as_posix()}: structure differs")
            continue
        worst = max((_moved(ga[k], gb[k]) for k in ga), default=0.0)
        print(f"{rel.as_posix()}: {worst:.3g}")
    for p in sorted(b_dir.rglob("*")):
        rel = p.relative_to(b_dir)
        if p.suffix in SUFFIXES and not (a_dir / rel).exists():
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

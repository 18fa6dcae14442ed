#!/usr/bin/env python3
"""Digest of every file a fixed set of nildual commands writes.

The command set: `generate`, `dual`, `sweep` and `export --formats obj,csv`
for the paraboloid, smyth-2 and helicoid at
`--lambda 1,exp:pi/3 --allow-reflection`; `verify` for the paraboloid
(`1,exp:pi/3`) and smyth-2 (`1`); and `generate` and `verify` driven by
`--spinors` from the paraboloid's lam0 CSVs. The CSVs are copied to the
fixed relative prefix `spinors/lam0`, because the input path enters the run
hash and so the run directory's name.

Prints `{path under OUT: sha256}` as JSON, together with each command's exit
code under `exit: <command>`, and exits 1 if any command exited non-zero.
The program is imported from `./src` of the working directory, so another
checkout is digested by running this file from inside it.

Usage:
  python scripts/output_digest.py OUT > digest.json
  python scripts/output_digest.py --compare A.json B.json

`--compare` lists every path (and exit code) whose digest differs between
two digest files, or that only one of them has.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

EXAMPLES = ("paraboloid", "smyth-2", "helicoid")
FLAGS = ("--lambda", "1,exp:pi/3", "--allow-reflection", "--out", "runs")


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
    nildual("verify", "--example", "paraboloid", "--lambda", "1,exp:pi/3",
            "--out", "runs")
    nildual("verify", "--example", "smyth-2", "--lambda", "1", "--out", "runs")

    (out / "spinors").mkdir()
    for part in ("psi1", "psi2"):
        shutil.copyfile(cache_dir("paraboloid") / f"lam0_{part}.csv",
                        out / "spinors" / f"lam0_{part}.csv")
    nildual("generate", "--spinors", "spinors/lam0", *FLAGS)
    nildual("verify", "--spinors", "spinors/lam0", *FLAGS)
    return codes


def digest(out, env):
    out.mkdir(parents=True)
    codes = run_commands(out, env)
    files = {p.relative_to(out).as_posix():
             hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {**files, **codes}


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
        else:
            print(f"differs: {k}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} entries differ")


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        compare(argv[1], argv[2])
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
    return int(any(v != 0 for k, v in result.items()
                   if k.startswith("exit: ")))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

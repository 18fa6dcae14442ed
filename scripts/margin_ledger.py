#!/usr/bin/env python3
"""Write the margin ledger: every `verify` row's max and tolerance for the
four built-in examples at `--lambda 1,exp:pi/3`, the gallery's set, and
for `verify --spinors` of the paraboloid's `lam0` CSVs (41x41, written by
`generate` at the same lambdas) at the same lambdas.

Each run is made in a temporary directory and its `report.json` rows are
recorded as {row name: [max, tolerance]} under the example's name, in
`examples` or, for the spinor run, in `spinors`.  `tests/test_acceptance.py`
compares the battery of the same runs against the ledger, so a change that
moves a margin fails there until the ledger is rewritten by this script.

Usage: python scripts/margin_ledger.py [PATH]   (default
tests/data/verify_margins.json)
"""
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nildual.cli import main
from nildual.potentials import BUILTIN_NAMES

LAMBDAS = "1,exp:pi/3"


def _run(argv, tmp):
    """`nildual argv` with its output under `tmp`; exits unless it passed."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--lambda", LAMBDAS, "--out", tmp])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")


def _rows(tmp):
    """{row name: [max, tolerance]} of the one report under `tmp`."""
    (path,) = Path(tmp).rglob("report.json")
    return {c["name"]: [c["max"], c["tolerance"]]
            for c in json.loads(path.read_text())["checks"]}


def ledger():
    out = {"lambda": LAMBDAS, "examples": {}, "spinors": {}}
    for name in BUILTIN_NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            _run(["verify", "--example", name], tmp)
            out["examples"][name] = _rows(tmp)
    with tempfile.TemporaryDirectory() as tmp:
        _run(["generate", "--example", "paraboloid"], f"{tmp}/given")
        (given,) = Path(tmp, "given").iterdir()
        _run(["verify", "--spinors", str(given / "lam0")], f"{tmp}/verify")
        out["spinors"]["paraboloid"] = _rows(f"{tmp}/verify")
    return out


if __name__ == "__main__":
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        ROOT / "tests" / "data" / "verify_margins.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ledger(), indent=1) + "\n")

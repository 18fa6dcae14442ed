#!/usr/bin/env python3
"""Write the margin ledger: every `verify` row's max and tolerance for the
four built-in examples at `--lambda 1,exp:pi/3`, the gallery's set.

Each example runs `nildual verify` in a temporary directory and its
`report.json` rows are recorded as {row name: [max, tolerance]} under the
example's name.  `tests/test_acceptance.py` compares the battery of the
same runs against the ledger, so a change that moves a margin fails there
until the ledger is rewritten by this script.

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


def ledger():
    out = {"lambda": LAMBDAS, "examples": {}}
    for name in BUILTIN_NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["verify", "--example", name, "--lambda", LAMBDAS,
                             "--out", tmp])
            if code != 0:
                raise SystemExit(f"verify of {name} exited {code}")
            (path,) = Path(tmp).rglob("report.json")
            checks = json.loads(path.read_text())["checks"]
        out["examples"][name] = {c["name"]: [c["max"], c["tolerance"]]
                                 for c in checks}
    return out


if __name__ == "__main__":
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        ROOT / "tests" / "data" / "verify_margins.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ledger(), indent=1) + "\n")

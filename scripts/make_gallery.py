#!/usr/bin/env python3
"""Generate all built-in example surfaces and their duals as OBJ meshes,
then run the residual suite on each and print a summary table; last, run
`verify --spinors` on the paraboloid's lam0 CSVs, the battery of a spinor
pair and of the sheets marched from it.

Usage: python scripts/make_gallery.py [out_dir]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nildual.cli import main


def run(out_dir):
    failures = 0
    for name in ("paraboloid", "helicoid", "smyth-1", "smyth-2"):
        print(f"=== {name} ===")
        argv = ["--example", name, "--lambda", "1,exp:pi/3",
                "--allow-reflection", "--out", out_dir]
        failures += main(["generate", *argv])
        failures += main(["dual", *argv])
        failures += main(["verify", *argv])
    print("=== paraboloid lam0 spinors ===")
    (given,) = Path(out_dir).glob("example_paraboloid_*/frames.json")
    failures += main(["verify", "--spinors", str(given.parent / "lam0"),
                      "--lambda", "1,exp:pi/3", "--out", out_dir])
    return failures


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "out/gallery"
    sys.exit(min(run(out), 1))

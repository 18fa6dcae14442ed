#!/usr/bin/env python3
"""Grid-refinement study: measure the observed convergence order of the
main stencil-based residuals on the paraboloid pipeline.

The derivative stencils are 4th order, so every residual should shrink
by ~16x when the spacing halves (measured over a fixed geometric region).
Exits 1 when an order observed between the last two sizes is below
MIN_ORDER.  Each grid's line also shows the spectral truncation order its
factorization ran at (column N), so that a change of spectral order shows
beside the stencil orders.

Usage: python scripts/convergence_study.py [n ...]   (grid sizes, odd)
"""
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nildual.frames import flatness_residual
from nildual.nil3 import DomainGrid, conformality_residual, left_maurer_cartan
from nildual.potentials import run_example
from nildual.verify import analyze_sheet

LAM = np.exp(1j * np.pi / 3)
MIN_ORDER = 3.5


def paraboloid_run(n):
    grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, n, n)
    return run_example("paraboloid", grid=grid, lam_samples=[LAM])


def measure(n, run=None):
    """The residuals of the n x n run (made here when `run` is None)."""
    run = run or paraboloid_run(n)
    grid = run.grid
    sym = run.sym[0]
    # fixed region |x|,|y| <= 0.6 so refinement never moves the window
    sel = (np.abs(grid.zz.real) <= 0.6) & (np.abs(grid.zz.imag) <= 0.6)
    res, e_u = conformality_residual(left_maurer_cartan(sym.f_minus))
    a = analyze_sheet(sym)
    flat = flatness_residual(a.connection_at(LAM), grid)
    return {
        "conformality": float(np.max((res / e_u)[sel])),
        "re_dirac": float(np.max(np.abs(a.dirac.ew2.real)[sel])),
        "flatness": float(np.max(flat[sel])),
    }


def main(sizes):
    rows = []
    for n in sizes:
        run = paraboloid_run(n)
        rows.append((n, run.order, measure(n, run)))
    names = list(rows[0][2])
    header = "n      N   " + "".join(f"{k:>16}" for k in names)
    print(header)
    prev = None
    orders = []
    for n, spectral, vals in rows:
        line = (f"{n:<7d}{spectral:<4d}"
                + "".join(f"{vals[k]:16.3e}" for k in names))
        if prev is not None:
            orders = [np.log(prev[1][k] / vals[k])
                      / np.log((n - 1) / (prev[0] - 1)) for k in names]
            line += "   order " + ", ".join(f"{o:.2f}" for o in orders)
        print(line)
        prev = (n, vals)
    low = [k for k, o in zip(names, orders) if not o >= MIN_ORDER]
    if low:
        print(f"observed order below {MIN_ORDER}: {', '.join(low)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sizes = [int(a) for a in sys.argv[1:]] or [21, 41, 81]
    sys.exit(main(sizes))

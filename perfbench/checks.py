"""Output checks behind the benchmark's failure count.

Each check returns a list of problems (empty when the outputs are right);
an iteration with any problem counts as failed.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from nildual.io_formats import read_field_csv
from nildual.verify import W4


def digests(root):
    """sha256 of every file under `root`, keyed by relative path."""
    root = Path(root)
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def changed_files(reference, current):
    """Files that differ byte for byte from the reference, or appear in
    only one of the two."""
    return [f"not deterministic: {name}"
            for name in sorted(reference.keys() | current.keys())
            if reference.get(name) != current.get(name)]


def nonfinite_files(root):
    """OBJ and CSV files holding a non-finite number.

    nildual writes numbers with format(x, ".17g"), which spells the
    non-finite values 'nan', 'inf' and '-inf'; no other token of either
    format contains those letters.
    """
    bad = []
    for p in sorted(Path(root).rglob("*")):
        if p.suffix in (".obj", ".csv"):
            data = p.read_bytes().lower()
            if b"nan" in data or b"inf" in data:
                bad.append(f"non-finite value in {p.name}")
    return bad


def cache_misses(out, expected_runs):
    """Run directories `dual` did not read its frame cache from.

    `expected_runs` are the run directories set-up's `generate` wrote. The
    run-directory hash covers every flag, so a `dual` whose flags differ
    from set-up's misses the cache, reruns the whole pipeline and writes a
    new directory under `out`.
    """
    problems = [f"cache miss: no frames.json in {d.name}"
                for d in expected_runs if not (d / "frames.json").is_file()]
    expected = {d.name for d in expected_runs}
    problems += [f"cache miss: unexpected run directory {d.name}"
                 for d in sorted(Path(out).iterdir())
                 if d.is_dir() and d.name not in expected]
    return problems


def verify_reports(root):
    """(problems, headroom) over every report.json under `root`; headroom
    is the worst max / tolerance over all checks."""
    problems, headroom = [], 0.0
    reports = sorted(Path(root).rglob("report.json"))
    if not reports:
        problems.append("no verify report")
    for path in reports:
        rep = json.loads(path.read_text())
        if not rep["passed"]:
            failing = [c["name"] for c in rep["checks"] if not c["passed"]]
            problems.append(f"verify failed in {path.parent.name}: {failing}")
        for c in rep["checks"]:
            headroom = max(headroom, c["max"] / c["tolerance"])
    return problems, headroom


def self_duality_ratio(B_csv, h_csv, tolerance):
    """max |16|B| - h^2| / h^2 over the nodes at least W4 from the edge,
    divided by `tolerance`.

    This is verify's `self_duality_pointwise` check of a self-dual surface
    whose support function h is even in z (the paraboloid), read from the
    written fields. The dual sheet obeys the same identity in B* and h*.
    """
    _, B, has_B = read_field_csv(B_csv)
    _, h, has_h = read_field_csv(h_csv)
    live = np.zeros(B.shape, dtype=bool)
    live[W4:-W4, W4:-W4] = True
    live &= has_B & has_h
    h2 = h.real[live] ** 2
    return float(np.max(np.abs(16.0 * np.abs(B[live]) - h2) / h2)) / tolerance

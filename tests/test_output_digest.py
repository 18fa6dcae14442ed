"""`scripts/output_digest.py --numbers` on two small output directories."""
import base64
import importlib.util
import json
from pathlib import Path

import numpy as np


def _digest():
    path = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root, name, text):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_numbers_reports_how_far_each_changed_file_moved(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    payload = lambda v: base64.b64encode(
        np.array(v, dtype="<c16").tobytes()).decode("ascii")
    for root, x, theta, kind in ((a, 2.0, -1.0, "reflection-rev"),
                                 (b, 2.0 + 1e-12, -1.0, "reflection")):
        _write(root, "run/f.csv", f"i,j,x\n0,0,{x!r}\n0,1,-4.0\n")
        _write(root, "run/f.obj", "v 1.0 0.5 0.25\n")
        _write(root, "run/fit.json", json.dumps(
            {"kind": kind, "theta": theta, "residual": str(x)}))
        _write(root, "run/frames.json", json.dumps(
            {"F": payload([1.0, 2j * x]), "mask": [True, False]}))
    _write(a, "run/only_a.csv", "1\n")
    _digest().numbers(a, b)
    lines = capsys.readouterr().out.splitlines()
    # the CSV's largest |number| is 4.0; the cache's payload counts as its
    # complex128 values, and the string residual as a number
    assert "run/f.csv: 2.5e-13" in lines
    assert "run/fit.json: structure differs" in lines
    assert "run/frames.json: 5e-13" in lines
    assert f"only in {a}: run/only_a.csv" in lines
    assert not any(line.startswith("run/f.obj") for line in lines)

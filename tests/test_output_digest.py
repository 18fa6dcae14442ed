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
        _write(root, "run/f.csv", f"# schema=1\ni,j,x,y,re,im\n"
                                  f"0,0,-1,-1,{x!r},0.5\n40,40,1,1,-4.0,0\n")
        _write(root, "run/f.obj", "v 1.0 0.5 0.25\n")
        _write(root, "run/fit.json", json.dumps(
            {"kind": kind, "theta": theta, "residual": str(x)}))
        _write(root, "run/frames.json", json.dumps(
            {"F": payload([1.0, 2j * x]), "mask": [True, False]}))
    _write(a, "run/only_a.csv", "1\n")
    _digest().numbers(a, b)
    lines = capsys.readouterr().out.splitlines()
    # the CSV's largest |value| is 4.0, its index 40 not counted; the
    # cache's payload counts as its complex128 values, and the string
    # residual as a number
    assert "run/f.csv: 2.5e-13" in lines
    assert "run/fit.json: structure differs" in lines
    assert "run/frames.json: 5e-13" in lines
    assert f"only in {a}: run/only_a.csv" in lines
    assert not any(line.startswith("run/f.obj") for line in lines)


def _numbers_of(tmp_path, capsys, name, text_a, text_b):
    """The one line `numbers` prints for a file `name` of two texts."""
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, name, text_a)
    _write(b, name, text_b)
    _digest().numbers(a, b)
    (line,) = capsys.readouterr().out.splitlines()
    return line


CSV = "# schema=1\ni,j,x,y,re,im\n{}0,40,0.95,{y},{re!r},{im!r}\n"


def test_numbers_scales_a_csv_by_its_values_alone(tmp_path, capsys):
    # a sign flip of a field reads 2 whatever the index and coordinate
    # columns hold; the imaginary column, round-off alone, is scaled with
    # the real one
    rows = "".join(f"{k},{k},{k}.5,1680,0.25,1e-14\n" for k in range(41))
    flip = (CSV.format(rows, y=-1, re=0.25, im=1e-14),
            CSV.format(rows.replace("0.25,", "-0.25,"), y=-1, re=-0.25,
                       im=1e-14))
    assert _numbers_of(tmp_path / "flip", capsys, "f.csv", *flip) == (
        "f.csv: 2")
    noise = (CSV.format(rows, y=-1, re=0.25, im=1e-14),
             CSV.format(rows, y=-1, re=0.25, im=-3e-14))
    assert _numbers_of(tmp_path / "noise", capsys, "f.csv", *noise) == (
        "f.csv: 1.6e-13")


def test_numbers_reports_a_moved_index_or_coordinate(tmp_path, capsys):
    for column, b in (("x", CSV.format("", y=-1, re=0.5, im=0.0).replace(
                           "0.95", "0.9500000000000001")),
                      ("y", CSV.format("", y=-1.0, re=0.5, im=0.0)),
                      ("j", CSV.format("", y=-1, re=0.5, im=0.0).replace(
                           "0,40", "0,41"))):
        a = CSV.format("", y=-1, re=0.5, im=0.0)
        assert _numbers_of(tmp_path / column, capsys, "f.csv", a, b) == (
            "f.csv: structure differs")


def test_numbers_scales_an_obj_by_its_vertices(tmp_path, capsys):
    # the face indices, up to 1681 here, are no scale; a face that changed
    # is structure
    faces = "f 1 2 1681\nf 1 1681 1680\n"
    a = "# schema=1\nv 0.5 -0.25 0.125\nv 0.25 0.0 0.5\n" + faces
    b = a.replace("-0.25", "-0.25000000000001")
    assert _numbers_of(tmp_path / "v", capsys, "s.obj", a, b) == (
        "s.obj: 2e-14")
    moved = a.replace("f 1 2 1681", "f 1 2 1680")
    assert _numbers_of(tmp_path / "f", capsys, "s.obj", a, moved) == (
        "s.obj: structure differs")

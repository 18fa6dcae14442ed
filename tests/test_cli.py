import json
import math
from pathlib import Path

import numpy as np
import pytest

import nildual.cli
import nildual.potentials
from nildual.cli import main, parse_lambda, parse_lambda_list
from nildual.errors import ConfigError
from nildual.frames import frame_from_spinors, integrate_frame
from nildual.io_formats import (
    read_field_csv,
    read_frame_cache,
    write_field_csv,
    write_frame_cache,
)
from nildual.nil3 import DomainGrid
from nildual.spinors import SpinorField, dirac_data

SMALL = ["--grid=-1,1,-1,1,21,21"]


def run(argv):
    return main(argv)


def test_parse_lambda():
    assert parse_lambda("1") == 1.0
    assert parse_lambda("1j") == 1j
    assert abs(parse_lambda("exp:pi/3") - np.exp(1j * np.pi / 3)) < 1e-15
    with pytest.raises(ConfigError):
        parse_lambda("0.5")
    with pytest.raises(ConfigError):
        parse_lambda_list("")


@pytest.mark.parametrize("text, angle", [
    ("pi/3", math.pi / 3), ("-pi/2", -math.pi / 2),
    ("2*pi/3", 2 * math.pi / 3), ("pi", math.pi), ("0.5", 0.5)])
def test_parse_lambda_angles(text, angle):
    assert parse_lambda("exp:" + text) == complex(math.cos(angle),
                                                  math.sin(angle))


@pytest.mark.parametrize("text", [
    "().__class__", "__import__('os')", "pi**2", "", "pi/0", "nan"])
def test_parse_lambda_rejects_expressions(text):
    with pytest.raises(ConfigError):
        parse_lambda("exp:" + text)


def test_generate_outputs(tmp_path):
    rc = run(["generate", "--example", "paraboloid", *SMALL,
              "--lambda", "1", "--out", str(tmp_path)])
    assert rc == 0
    (run_dir,) = tmp_path.iterdir()
    names = {p.name for p in run_dir.iterdir()}
    assert "lam0_f_minus.obj" in names
    assert "lam0_psi1.csv" in names
    assert "frames.json" in names
    assert "config.json" in names
    obj = (run_dir / "lam0_f_minus.obj").read_text().splitlines()
    n_v = sum(1 for l in obj if l.startswith("v "))
    n_f = sum(1 for l in obj if l.startswith("f "))
    assert n_v == 21 * 21
    assert n_f == 2 * 20 * 20
    sidecar = json.loads((run_dir / "lam0_f_minus.sidecar.json").read_text())
    assert sidecar["schema"] == 1 and "config_hash" in sidecar


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = run(["generate", "--example", "paraboloid", *SMALL,
                  "--lambda", "1", "--out", str(out)])
        assert rc == 0
    (da,) = a.iterdir()
    (db,) = b.iterdir()
    for pa in sorted(da.iterdir()):
        pb = db / pa.name
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_dual_uses_cache_and_reports_fit(tmp_path):
    args = ["--example", "paraboloid", *SMALL, "--lambda", "1",
            "--allow-reflection", "--out", str(tmp_path)]
    assert run(["generate", *args]) == 0
    assert run(["dual", *args]) == 0
    (run_dir,) = tmp_path.iterdir()
    fit = json.loads((run_dir / "lam0_dual_fit.json").read_text())
    assert fit["equivalent"] is True
    assert fit["kind"].startswith("reflection")
    assert (run_dir / "lam0_f_plus.obj").exists()
    assert (run_dir / "lam0_branch_log.json").exists()
    assert (run_dir / "lam0_dual_psi1.csv").exists()


def test_smyth_masks_disk(tmp_path):
    rc = run(["generate", "--example", "smyth-1", "--lambda", "1",
              "--out", str(tmp_path)])
    assert rc == 0
    (run_dir,) = tmp_path.iterdir()
    sidecar = json.loads((run_dir / "lam0_f_minus.sidecar.json").read_text())
    assert len(sidecar["masked_nodes"]) > 0
    obj = (run_dir / "lam0_f_minus.obj").read_text().splitlines()
    n_v = sum(1 for l in obj if l.startswith("v "))
    assert n_v == 41 * 41 - len(sidecar["masked_nodes"])


def test_dual_from_cache_with_exclusion_mask(tmp_path):
    # the cache carries the export mask and the trust mask separately, so
    # a cached dual run on a masked example still extracts on the full
    # smooth field (regression: identity-filled holes poisoned stencils)
    args = ["--example", "smyth-1", "--lambda", "1", "--out", str(tmp_path)]
    assert run(["generate", *args]) == 0
    assert run(["dual", *args]) == 0
    (run_dir,) = tmp_path.iterdir()
    assert (run_dir / "lam0_dual_psi1.csv").exists()
    log = json.loads((run_dir / "lam0_branch_log.json").read_text())
    assert log["masked"] > 0  # exclusion disk + the zero of B


def test_verify_exit_codes(tmp_path):
    rc = run(["verify", "--example", "paraboloid",
              "--lambda", "1", "--out", str(tmp_path)])
    assert rc == 0
    (run_dir,) = tmp_path.iterdir()
    report = json.loads((run_dir / "report.json").read_text())
    assert report["passed"] is True
    # perturbed frame: nonzero exit, SU(1,1) and compatibility checks trip
    rc = run(["verify", "--example", "paraboloid",
              "--lambda", "1", "--out", str(tmp_path),
              "--perturb-frame", "1e-3"])
    assert rc == 1
    report = json.loads((run_dir / "report.json").read_text())
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert any(n.startswith("frame_su11") for n in failed)


def test_sweep_requires_two_lambdas(tmp_path):
    rc = run(["sweep", "--example", "paraboloid", *SMALL,
              "--lambda", "1", "--out", str(tmp_path)])
    assert rc == 2
    rc = run(["sweep", "--example", "paraboloid", *SMALL,
              "--lambda", "1,exp:pi/3", "--out", str(tmp_path)])
    assert rc == 0
    (run_dir,) = tmp_path.iterdir()
    rep = json.loads((run_dir / "sweep_report.json").read_text())
    assert len(rep["entries"]) == 2
    assert rep["entries"][1]["dirac_potential_drift"] < 1e-5
    assert (run_dir / "lam1_f_plus.obj").exists()


def test_export_from_cache(tmp_path):
    args = ["--example", "paraboloid", *SMALL, "--lambda", "1",
            "--out", str(tmp_path)]
    assert run(["generate", *args]) == 0
    (run_dir,) = tmp_path.iterdir()
    rc = run(["export", "--run", str(run_dir), "--formats", "obj"])
    assert rc == 0
    assert (run_dir / "export_lam0_f_plus.obj").exists()


def test_potential_file_pipeline(tmp_path):
    from nildual.io_formats import write_json
    from nildual.potentials import paraboloid_potential
    pot = tmp_path / "pot.json"
    write_json(pot, paraboloid_potential().to_json())
    rc = run(["generate", "--potential", str(pot), *SMALL,
              "--lambda", "1", "--out", str(tmp_path / "o")])
    assert rc == 0


def test_spinor_csv_pipeline(tmp_path):
    from .oracles import paraboloid_spinors, paraboloid_surface
    grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, 21, 21)
    psi1, psi2 = paraboloid_spinors(grid)
    write_field_csv(tmp_path / "in_psi1.csv", psi1, grid)
    write_field_csv(tmp_path / "in_psi2.csv", psi2, grid)
    rc = run(["generate", "--spinors", str(tmp_path / "in"),
              "--lambda", "1", "--out", str(tmp_path / "o")])
    assert rc == 0
    (run_dir,) = (tmp_path / "o").iterdir()
    assert (run_dir / "lam0_f_minus.obj").exists()
    rc = run(["verify", "--spinors", str(tmp_path / "in"),
              "--lambda", "1", "--out", str(tmp_path / "o")])
    assert rc == 0


def test_verify_spinors_from_generated_fields(tmp_path):
    # the spinor battery asserts its stencil rows on the centred interior,
    # as the pipeline battery does: the one-sided boundary bands of the
    # written fields fail dirac_consistency's tolerance
    assert run(["generate", "--example", "paraboloid", "--lambda", "1",
                "--out", str(tmp_path / "o")]) == 0
    (run_dir,) = (tmp_path / "o").iterdir()
    assert run(["verify", "--spinors", str(run_dir / "lam0"), "--lambda", "1",
                "--out", str(tmp_path / "v")]) == 0


def test_spinor_generate_integrates_each_frame_once(tmp_path, monkeypatch):
    from .oracles import paraboloid_spinors
    grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, 21, 21)
    psi1, psi2 = paraboloid_spinors(grid)
    write_field_csv(tmp_path / "in_psi1.csv", psi1, grid)
    write_field_csv(tmp_path / "in_psi2.csv", psi2, grid)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return integrate_frame(*args, **kwargs)

    monkeypatch.setattr(nildual.cli, "integrate_frame", counted)
    rc = run(["generate", "--spinors", str(tmp_path / "in"),
              "--lambda", "1,exp:pi/3", "--out", str(tmp_path / "o")])
    assert rc == 0
    assert len(calls) == 2
    (run_dir,) = (tmp_path / "o").iterdir()
    frames = read_frame_cache(run_dir / "frames.json")[0]
    g, p1, _ = read_field_csv(tmp_path / "in_psi1.csv")
    _, p2, _ = read_field_csv(tmp_path / "in_psi2.csv")
    s = SpinorField(p1, p2, g)
    d = dirac_data(s)
    base = frame_from_spinors(s)[0, 0]
    for fr, lam in zip(frames, parse_lambda_list("1,exp:pi/3")):
        direct = integrate_frame(d, lam, base_value=base)
        assert fr.lam == lam
        assert np.array_equal(fr.F, direct.F)
        assert np.array_equal(fr.F_lam, direct.F_lam)
        assert np.array_equal(fr.F_lam2, direct.F_lam2)


def test_generate_evaluates_each_pipeline_frame_once(tmp_path, monkeypatch):
    frame_field_from_loop = nildual.potentials.frame_field_from_loop
    calls = []

    def counted(floop, lam, grid):
        calls.append(lam)
        return frame_field_from_loop(floop, lam, grid)

    monkeypatch.setattr(nildual.potentials, "frame_field_from_loop", counted)
    argv = ["generate", "--example", "paraboloid", *SMALL,
            "--lambda", "1,exp:pi/3", "--out", str(tmp_path / "o")]
    assert run(argv) == 0
    assert len(calls) == 2
    # frames.json holds what evaluating the frame loop anew would write
    config = nildual.cli.config_from_args(nildual.cli.build_parser().parse_args(argv))
    res = nildual.cli.run_pipeline(config).result
    direct = tmp_path / "direct.json"
    write_frame_cache(direct,
                      [frame_field_from_loop(res.frame_loop, lam, res.grid)
                       for lam in config.lams],
                      res.grid, mask=res.sym[0].f_minus.mask,
                      ok_mask=res.ok_mask,
                      meta={"pipeline": "example:paraboloid"})
    (run_dir,) = (tmp_path / "o").iterdir()
    assert (run_dir / "frames.json").read_bytes() == direct.read_bytes()


def test_verify_potential_file_named_like_example(tmp_path):
    # a --potential file is never a built-in example, whatever its name:
    # the self-duality rows belong to the example pipelines only
    from nildual.io_formats import write_json
    from nildual.potentials import smyth_potential
    pot = tmp_path / "paraboloid.json"
    write_json(pot, smyth_potential(1).to_json())
    run(["verify", "--potential", str(pot), "--grid=-0.3,0.3,-0.3,0.3,21,21",
         "--lambda", "1", "--out", str(tmp_path / "o")])
    (run_dir,) = (tmp_path / "o").iterdir()
    report = json.loads((run_dir / "report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert names and not any(n.startswith("self_duality") for n in names)


def _write_text(path, text):
    path.write_text(text)
    return path


def _generate(tmp, *args):
    return ["generate", *args, "--lambda", "1", "--out", str(tmp / "o")]


def _export_cache(tmp, text):
    (tmp / "run").mkdir()
    _write_text(tmp / "run" / "frames.json", text)
    return ["export", "--run", str(tmp / "run")]


@pytest.mark.parametrize("make_argv", [
    lambda tmp: _generate(tmp, "--example", "paraboloid", "--grid", "1,2,3"),
    lambda tmp: _generate(tmp, "--example", "paraboloid",
                          "--grid=0,1,0,1,5,x"),
    lambda tmp: _generate(tmp, "--example", "paraboloid",
                          "--tol", "conformality=abc"),
    lambda tmp: _generate(tmp, "--example", "paraboloid",
                          "--tol", "conformalty=1e-3"),
    lambda tmp: _generate(tmp, "--potential", str(tmp / "missing.json")),
    lambda tmp: _generate(tmp, "--potential",
                          str(_write_text(tmp / "bad.json", "{"))),
    lambda tmp: _generate(tmp, "--potential", str(
        _write_text(tmp / "empty.json", '{"schema": 1}'))),
    lambda tmp: _generate(tmp, "--spinors", str(tmp / "nothing")),
    lambda tmp: _export_cache(tmp, "{"),
    lambda tmp: _export_cache(tmp, '{"schema": 1}'),
], ids=["grid-fields", "grid-int", "tol-value", "tol-name", "potential-missing",
        "potential-not-json", "potential-no-terms", "spinors-missing",
        "cache-not-json", "cache-no-grid"])
def test_malformed_input_is_a_config_error(tmp_path, capsys, make_argv):
    argv = make_argv(tmp_path)
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


def test_frame_cache_roundtrip(tmp_path):
    from nildual.frames import FrameField
    grid = DomainGrid(-1.0, 1.0, -0.5, 0.5, 7, 5)
    rng = np.random.default_rng(5)
    shape = grid.shape + (2, 2)

    def field():
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    frames = [FrameField(F=field(), F_lam=field(), F_lam2=field(), lam=lam,
                         grid=grid) for lam in (1.0 + 0.0j, 1j)]
    F = frames[0].F
    F[0, 0, 0, 0] = complex(-0.0, 1.5)
    F[0, 1, 1, 0] = complex(2.0, -0.0)
    F[1, 1, 0, 1] = complex(-0.0, -0.0)
    mask = np.ones(grid.shape, dtype=bool)
    mask[2, 3] = False
    ok_mask = np.ones(grid.shape, dtype=bool)
    ok_mask[4, 6] = False
    path = tmp_path / "frames.json"
    write_frame_cache(path, frames, grid, mask=mask, ok_mask=ok_mask,
                      meta={"pipeline": "example:paraboloid"})
    back, grid2, mask2, ok2, meta = read_frame_cache(path)
    assert grid2 == grid
    assert np.array_equal(mask2, mask) and np.array_equal(ok2, ok_mask)
    assert meta == {"pipeline": "example:paraboloid"}
    # an all-True mask is stored as null and reads back as all-True
    write_frame_cache(path, frames, grid, mask=mask,
                      ok_mask=np.ones(grid.shape, dtype=bool))
    assert json.loads(path.read_text())["ok_mask"] is None
    ok_all = read_frame_cache(path)[3]
    assert ok_all.shape == grid.shape and ok_all.dtype == bool and ok_all.all()
    assert [fr.lam for fr in back] == [fr.lam for fr in frames]
    for got, want in zip(back, frames):
        for name in ("F", "F_lam", "F_lam2"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.array_equal(a, b)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(a)), np.signbit(part(b)))


def test_field_csv_roundtrip(tmp_path):
    grid = DomainGrid(-1.0, 1.0, -0.5, 0.5, 7, 5)
    rng = np.random.default_rng(3)
    f = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    f[0, 0] = complex(-0.0, 1.5)
    f[1, 2] = complex(2.0, -0.0)
    f[3, 4] = complex(-0.0, -0.0)
    write_field_csv(tmp_path / "f.csv", f, grid)
    g2, f2, m2 = read_field_csv(tmp_path / "f.csv")
    assert g2 == grid
    assert np.array_equal(f2, f)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(f2)), np.signbit(part(f)))
    assert m2.all()


def test_error_on_missing_pipeline(tmp_path):
    rc = run(["generate", "--lambda", "1", "--out", str(tmp_path)])
    assert rc == 2


def test_unknown_example(tmp_path):
    rc = run(["generate", "--example", "smyth-3", "--grid=-0.3,0.3,-0.3,0.3,21,21", "--lambda", "1",
              "--out", str(tmp_path)])
    assert rc == 0  # smyth-k generalizes

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import nildual.cli
import nildual.potentials
import nildual.verify
from nildual.cli import main, parse_lambda, parse_lambda_list
from nildual.errors import ConfigError
from nildual.frames import frame_from_spinors, integrate_frame
from nildual.io_formats import (
    read_field_csv,
    read_frame_cache,
    write_field_csv,
    write_frame_cache,
)
from nildual.nil3 import DomainGrid, SurfaceGrid, stencil_valid
from nildual.spinors import SpinorField, dirac_data
from nildual.sym import MOTION_TOL, REALITY_TOL, mc_equivalent
from nildual.verify import W4

from . import oracles

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
    # a failed row: exit 1, and the report, in the run directory of the
    # new tolerances, names it
    rc = run(["verify", "--example", "paraboloid",
              "--lambda", "1", "--out", str(tmp_path),
              "--tol", "frame_su11=1e-30"])
    assert rc == 1
    (run_dir,) = set(tmp_path.iterdir()) - {run_dir}
    report = json.loads((run_dir / "report.json").read_text())
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed == {"frame_su11[lam+0.000pi]"}


# smyth-2 on a 15x15 grid: its sheets are too far from minimal for the B
# extraction, which `dual` needs and `generate` skips
REFUSED = ["--example", "smyth-2", "--grid=-0.5,0.5,-0.5,0.5,15,15",
           "--lambda", "1,exp:pi/3"]


def test_refused_dual_leaves_no_run_directory(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["dual", *REFUSED, "--out", str(out)]) == 2
    assert "minimal case only" in capsys.readouterr().err
    assert not out.exists()


def test_refused_dual_leaves_generate_files_unchanged(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["generate", *REFUSED, "--out", str(out)]) == 0
    assert "field extraction skipped" in capsys.readouterr().err
    (run_dir,) = out.iterdir()
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert run(["dual", *REFUSED, "--out", str(out)]) == 2
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


def test_export_from_cache(tmp_path):
    # export re-reads the frame cache and writes each sheet as generate
    # (minus) and dual (plus) did
    args = ["--example", "paraboloid", *SMALL, "--lambda", "1",
            "--out", str(tmp_path)]
    assert run(["generate", *args]) == 0
    assert run(["dual", *args]) == 0
    (run_dir,) = tmp_path.iterdir()
    rc = run(["export", "--run", str(run_dir), "--formats", "obj,csv"])
    assert rc == 0
    for side in ("minus", "plus"):
        for suffix in (".obj", ".sidecar.json"):
            name = f"lam0_f_{side}{suffix}"
            assert ((run_dir / f"export_{name}").read_bytes()
                    == (run_dir / name).read_bytes()), name
        assert (run_dir / f"export_lam0_phi3_{side}.csv").exists()


@pytest.mark.parametrize("example, grid", [("paraboloid", SMALL),
                                           ("smyth-1", [])])
def test_dual_without_cache_writes_what_cached_dual_writes(tmp_path, example,
                                                           grid):
    # with no frame cache dual runs the pipeline itself; smyth-1 carries an
    # exclusion disk, so its export mask and trust mask differ
    args = ["--example", example, *grid, "--lambda", "1,exp:pi/3",
            "--allow-reflection"]
    assert run(["dual", *args, "--out", str(tmp_path / "fresh")]) == 0
    assert run(["generate", *args, "--out", str(tmp_path / "cached")]) == 0
    (cached_dir,) = (tmp_path / "cached").iterdir()
    generated = {p.name for p in cached_dir.iterdir()}
    assert run(["dual", *args, "--out", str(tmp_path / "cached")]) == 0
    (fresh_dir,) = (tmp_path / "fresh").iterdir()
    assert fresh_dir.name == cached_dir.name
    written = sorted(p.name for p in fresh_dir.iterdir())
    # config.json and the frame cache aside, dual's files are its own
    assert len(written) == 21
    assert set(written) & generated == {"config.json", "frames.json",
                                        "frames.bin"}
    for name in written:
        assert ((fresh_dir / name).read_bytes()
                == (cached_dir / name).read_bytes()), name


def test_dual_without_cache_leaves_a_cache_for_dual_and_export(
        tmp_path, monkeypatch):
    args = ["--example", "paraboloid", *SMALL, "--lambda", "1",
            "--out", str(tmp_path)]
    assert run(["dual", *args]) == 0
    (run_dir,) = tmp_path.iterdir()
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}

    def no_pipeline(config):
        raise AssertionError("the pipeline ran again")

    monkeypatch.setattr(nildual.cli, "run_pipeline", no_pipeline)
    assert run(["dual", *args]) == 0
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
    assert run(["export", "--run", str(run_dir), "--formats", "obj"]) == 0
    for side in ("minus", "plus"):
        assert (run_dir / f"export_lam0_f_{side}.obj").exists()


def test_potential_file_pipeline(tmp_path):
    from nildual.io_formats import write_json
    from nildual.potentials import paraboloid_potential
    pot = tmp_path / "pot.json"
    write_json(pot, paraboloid_potential().to_json())
    rc = run(["generate", "--potential", str(pot), *SMALL,
              "--lambda", "1", "--out", str(tmp_path / "o")])
    assert rc == 0


def _write_paraboloid_spinors(tmp_path, hole=None):
    """The paraboloid's spinor pair on a 21x21 grid as the CSV pair
    <tmp_path>/in_psi1.csv, in_psi2.csv; psi1's nodes `hole` absent."""
    from .oracles import paraboloid_spinors
    grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, 21, 21)
    psi1, psi2 = paraboloid_spinors(grid)
    keep = np.ones(grid.shape, dtype=bool)
    if hole is not None:
        keep[hole] = False
    write_field_csv(tmp_path / "in_psi1.csv", psi1, grid, mask=keep)
    write_field_csv(tmp_path / "in_psi2.csv", psi2, grid)


def _counting_integrate_frame(monkeypatch, modules):
    """Rebind integrate_frame in `modules` to a wrapper; the list it
    returns collects the lam of every call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return integrate_frame(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "integrate_frame", counted)
    return calls


def _failed_rows(out):
    """The names of the failed rows of the one report under `out`."""
    (report,) = out.glob("*/report.json")
    return {c["name"] for c in json.loads(report.read_text())["checks"]
            if not c["passed"]}


def test_spinor_csv_pipeline(tmp_path):
    _write_paraboloid_spinors(tmp_path)
    rc = run(["generate", "--spinors", str(tmp_path / "in"),
              "--lambda", "1", "--out", str(tmp_path / "o")])
    assert rc == 0
    (run_dir,) = (tmp_path / "o").iterdir()
    assert (run_dir / "lam0_f_minus.obj").exists()
    # the 21x21 pair's sheets are 13x13 at spacing 0.1: the input's rows
    # pass, and the sheets fail the rows that the DPW sheets fail at that
    # spacing, the self-duality rows aside (a pair has none)
    rc = run(["verify", "--spinors", str(tmp_path / "in"),
              "--lambda", "1", "--out", str(tmp_path / "v")])
    assert rc == 1
    failed = _failed_rows(tmp_path / "v")
    assert failed == {"conformality[lam+0.000pi]",
                      "sym_duality_factor[lam+0.000pi]"}
    assert run(["verify", "--example", "paraboloid",
                "--grid=-0.6,0.6,-0.6,0.6,13,13", "--lambda", "1",
                "--out", str(tmp_path / "p")]) == 1
    assert failed == {name for name in _failed_rows(tmp_path / "p")
                      if not name.startswith("self_duality")}


def test_verify_spinors_from_generated_fields(tmp_path):
    # the spinor input runs the pipeline's sheet rows, tagged `input` and
    # asserted on the centred interior as there (the one-sided boundary
    # bands of the written fields fail dirac_consistency's tolerance), and
    # each row reads what the pipeline's row at lam = 1 reads
    assert run(["generate", "--example", "paraboloid", "--lambda", "1",
                "--out", str(tmp_path / "o")]) == 0
    (run_dir,) = (tmp_path / "o").iterdir()
    assert run(["verify", "--spinors", str(run_dir / "lam0"), "--lambda", "1",
                "--out", str(tmp_path / "v")]) == 0
    assert run(["verify", "--example", "paraboloid", "--lambda", "1",
                "--out", str(tmp_path / "p")]) == 0
    (spinor_report,) = (tmp_path / "v").glob("*/report.json")
    (pipeline_report,) = (tmp_path / "p").glob("*/report.json")
    rows = [row for row in json.loads(spinor_report.read_text())["checks"]
            if row["name"].endswith("[input]")]
    pipeline_rows = {row["name"]: row for row in
                     json.loads(pipeline_report.read_text())["checks"]}
    assert len(rows) == 9
    for row in rows:
        name = row["name"].replace("[input]", "[lam+0.000pi]")
        assert {**row, "name": name} == pipeline_rows[name]


def test_spinor_generate_integrates_each_frame_once(tmp_path, monkeypatch):
    _write_paraboloid_spinors(tmp_path)
    calls = _counting_integrate_frame(monkeypatch, [nildual.verify])
    rc = run(["generate", "--spinors", str(tmp_path / "in"),
              "--lambda", "1,exp:pi/3", "--out", str(tmp_path / "o")])
    assert rc == 0
    assert len(calls) == 2
    (run_dir,) = (tmp_path / "o").iterdir()
    frames = read_frame_cache(run_dir / "frames.json")[0]
    g, p1, _ = read_field_csv(tmp_path / "in_psi1.csv")
    _, p2, _ = read_field_csv(tmp_path / "in_psi2.csv")
    s = SpinorField(p1, p2, g)
    # marched on the W4 sub-grid, from the input's frame at its centre:
    # the march of the connection cut there is bit for bit the line-by-line
    # march of the cut Dirac data
    d = oracles.cut_dirac(dirac_data(s), W4)
    base = frame_from_spinors(s)[(...,) + g.centre]
    for fr, lam in zip(frames, parse_lambda_list("1,exp:pi/3")):
        assert fr.grid == d.grid
        assert fr.lam == lam
        for got, want in zip((fr.F, fr.F_lam, fr.F_lam2),
                             oracles.reference_integrate_frame(
                                 d, lam, base_value=base)):
            assert got.tobytes() == want.tobytes()


def test_spinor_round_trip_on_the_w4_sub_grid(tmp_path):
    # the paraboloid's own lam0 CSVs: the frames are marched on the
    # sub-grid 4 nodes in from each edge, the fields are extracted at both
    # lambdas, and the rebuilt sheets are the input sheets cut to the
    # sub-grid, up to a rigid motion
    assert run(["generate", "--example", "paraboloid", "--lambda",
                "1,exp:pi/3", "--out", str(tmp_path / "o")]) == 0
    (given_dir,) = (tmp_path / "o").iterdir()
    argv = ["--spinors", str(given_dir / "lam0"), "--lambda", "1,exp:pi/3",
            "--out", str(tmp_path / "s")]
    assert run(["generate", *argv]) == 0
    (run_dir,) = (tmp_path / "s").iterdir()
    for k in (0, 1):
        for name in ("psi1", "psi2", "B", "e_u", "h"):
            assert (run_dir / f"lam{k}_{name}.csv").exists()
    cut = np.s_[W4:-W4, W4:-W4]
    given = nildual.cli.cached_sheets(given_dir)
    rebuilt = nildual.cli.cached_sheets(run_dir)
    for a, b in zip(given, rebuilt):
        assert b.grid.shape == (41 - 2 * W4,) * 2
        for f, g in ((a.f_minus, b.f_minus), (a.f_plus, b.f_plus)):
            f_cut = SurfaceGrid(f.coords[cut], g.grid, lam=f.lam,
                                mask=f.mask[cut])
            assert mc_equivalent(f_cut, g).equivalent
    assert run(["dual", *argv]) == 0


def test_spinor_family_is_normalized_at_the_grid_centre(tmp_path):
    # z = 0 is no node of this grid: the spinor march is based at the
    # centre node, where F is the input's frame and F_lam, F_lam2 vanish,
    # while the DPW family is based at z = 0.  So the rebuilt sheet is the
    # input's, cut to the sub-grid, at lam = 1 only
    assert run(["generate", "--example", "paraboloid",
                "--grid=-0.9,1.1,-1,0.9,30,41", "--lambda", "1,exp:pi/3",
                "--out", str(tmp_path / "o")]) == 0
    (given_dir,) = (tmp_path / "o").iterdir()
    prefix = str(given_dir / "lam0")
    assert run(["generate", "--spinors", prefix, "--lambda", "1,exp:pi/3",
                "--out", str(tmp_path / "s")]) == 0
    (run_dir,) = (tmp_path / "s").iterdir()
    s = nildual.cli._read_spinors(prefix)
    base = frame_from_spinors(s)[(...,) + s.grid.centre]
    frames = read_frame_cache(run_dir / "frames.json")[0]
    i, j = frames[1].grid.centre
    assert frames[1].lam == parse_lambda("exp:pi/3")
    assert np.array_equal(frames[1].F[..., i, j], base)
    assert not np.any(frames[1].F_lam[..., i, j])
    assert not np.any(frames[1].F_lam2[..., i, j])
    cut = np.s_[W4:-W4, W4:-W4]
    given = nildual.cli.cached_sheets(given_dir)
    rebuilt = nildual.cli.cached_sheets(run_dir)
    fits = []
    for a, b in zip(given, rebuilt):
        f = a.f_minus
        f_cut = SurfaceGrid(f.coords[cut], b.grid, lam=f.lam, mask=f.mask[cut])
        fits.append(mc_equivalent(f_cut, b.f_minus).residual)
    assert fits[0] <= MOTION_TOL < fits[1]


def test_spinor_frame_defect_is_refused_at_a_named_node(tmp_path, capsys):
    # smyth-2's 41x41 CSVs are under-resolved at the corners: the frame
    # marched from them is not repaired, and the Sym formula's su(1,1)
    # gate refuses it, naming the worst node of the sub-grid and its z
    assert run(["generate", "--example", "smyth-2", "--lambda", "1,exp:pi/3",
                "--out", str(tmp_path / "o")]) == 0
    (given_dir,) = (tmp_path / "o").iterdir()
    capsys.readouterr()
    assert run(["generate", "--spinors", str(given_dir / "lam0"),
                "--lambda", "1,exp:pi/3", "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    m = re.search(r"leave su\(1,1\) by (\S+) at node \((\d+), (\d+)\) of "
                  r"the 33x33 grid, z = (\S+) \(frame defect\)", err)
    assert m, err
    assert float(m[1]) > REALITY_TOL
    i, j = int(m[2]), int(m[3])
    # a corner: the four are equal up to round-off
    assert i in (0, 32) and j in (0, 32)
    sub = DomainGrid(-0.4, 0.4, -0.4, 0.4, 33, 33)
    assert abs(complex(m[4]) - sub.node_z(i, j)) < 1e-12
    assert not (tmp_path / "s").exists()


def test_spinor_pair_of_different_extents_shares_one_grid(tmp_path):
    # psi1 lacks its last column and psi2 does not: both are read onto the
    # grid of their union, and the column is masked with every node whose
    # stencils read it
    from .oracles import paraboloid_spinors
    grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, 21, 21)
    psi1, psi2 = paraboloid_spinors(grid)
    keep = np.ones(grid.shape, dtype=bool)
    keep[:, -1] = False
    write_field_csv(tmp_path / "in_psi1.csv", psi1, grid, mask=keep)
    write_field_csv(tmp_path / "in_psi2.csv", psi2, grid)
    s = nildual.cli._read_spinors(str(tmp_path / "in"))
    assert s.grid == grid
    assert np.array_equal(s.mask, stencil_valid(keep))
    assert np.array_equal(s.psi1[keep], psi1[keep])
    assert np.array_equal(s.psi2, psi2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spinor_pair_absent_outside_the_sub_grid_gives_the_full_outputs(
        tmp_path):
    # psi1's last column lies in the edge band: the nodes whose stencils
    # read it are masked, none of them in the W4 sub-grid, and the sheets
    # and the fields extracted from them are byte-equal to the full pair's
    runs = {}
    for name, hole in (("full", None), ("holed", np.s_[:, -1])):
        (tmp_path / name).mkdir()
        _write_paraboloid_spinors(tmp_path / name, hole)
        assert run(["generate", "--spinors", str(tmp_path / name / "in"),
                    "--lambda", "1,exp:pi/3",
                    "--out", str(tmp_path / name / "o")]) == 0
        (runs[name],) = (tmp_path / name / "o").iterdir()
    for k in (0, 1):
        for name in ("f_minus.obj", "psi1.csv", "psi2.csv", "B.csv"):
            assert ((runs["holed"] / f"lam{k}_{name}").read_bytes()
                    == (runs["full"] / f"lam{k}_{name}").read_bytes())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spinor_verify_reads_an_edge_holed_pair_as_the_full_one(tmp_path):
    # verify reads the pair by generate's rule: psi1's last column, absent,
    # is zero-filled and masked with every node whose stencils read it.  No
    # row asserts at those nodes, and the guards keep their zeros from
    # dividing, so each row reads the full pair's max: the input's nine and
    # its 13x13 sheets' (which fail as in test_spinor_csv_pipeline)
    rows = {}
    for name, hole in (("full", None), ("holed", np.s_[:, -1])):
        (tmp_path / name).mkdir()
        _write_paraboloid_spinors(tmp_path / name, hole)
        assert run(["verify", "--spinors", str(tmp_path / name / "in"),
                    "--lambda", "1", "--out", str(tmp_path / name / "o")]) == 1
        (report,) = (tmp_path / name / "o").glob("*/report.json")
        rows[name] = [(row["name"], row["max"]) for row in
                      json.loads(report.read_text())["checks"]]
    assert len(rows["full"]) == 9 + 16
    assert rows["holed"] == rows["full"]


def test_spinor_pair_absent_inside_the_sub_grid_is_refused_by_name(
        tmp_path, capsys):
    # (6, 8) lies in the sub-grid 4 nodes in from each edge; the first
    # node there whose stencils read it is (4, 8)
    _write_paraboloid_spinors(tmp_path, np.s_[6, 8])
    argv = ["--spinors", str(tmp_path / "in"), "--lambda", "1",
            "--out", str(tmp_path / "o")]
    assert run(["generate", *argv]) == 2
    assert "node (4, 8) of" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # verify reads the pair by the same rule
    assert run(["verify", *argv]) == 2
    assert "node (4, 8) of" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_spinor_verify_runs_the_input_rows_then_the_sheets_battery(
        tmp_path, monkeypatch):
    # verify --spinors: `sheet_checks` of the input pair, tagged `input`,
    # then `verify_sheets` of the sheets `run_pipeline` marches from it,
    # against the input's frame cut to the sheets' grid; each row once
    from nildual.io_formats import write_json
    from nildual.verify import (
        DEFAULT_TOLS,
        W4_CUT,
        SheetAnalysis,
        VerificationReport,
        sheet_checks,
        verify_sheets,
    )
    assert run(["generate", "--example", "paraboloid", "--lambda",
                "1,exp:pi/3", "--out", str(tmp_path / "o")]) == 0
    (given_dir,) = (tmp_path / "o").iterdir()
    prefix = str(given_dir / "lam0")
    argv = ["verify", "--spinors", prefix, "--lambda", "1,exp:pi/3",
            "--out", str(tmp_path / "v")]
    calls = _counting_integrate_frame(monkeypatch, [nildual.verify])
    assert run(argv) == 0
    # a march per lambda for the sheets, and cross_pipeline's at lam = 1
    assert calls == [1, parse_lambda("exp:pi/3"), 1]
    (report,) = (tmp_path / "v").glob("*/report.json")
    checks = json.loads(report.read_text())["checks"]

    s = nildual.cli._read_spinors(prefix)
    given = VerificationReport()
    sheet_checks(given, SheetAnalysis.of(s), s.mask, DEFAULT_TOLS,
                 tag="input")
    config = nildual.cli.config_from_args(
        nildual.cli.build_parser().parse_args(argv))
    sheets = VerificationReport()
    verify_sheets(sheets, nildual.cli.run_pipeline(config)[0],
                  frame_from_spinors(s)[W4_CUT], False, DEFAULT_TOLS)
    assert len(given.checks) == 9 and len(sheets.checks) == 32
    assert checks == (given.to_json()["checks"]
                      + sheets.to_json()["checks"])
    given.checks += sheets.checks
    write_json(tmp_path / "direct.json", given.to_json())
    assert report.read_bytes() == (tmp_path / "direct.json").read_bytes()
    names = [c["name"] for c in checks]
    assert len(set(names)) == len(names)


def _count_maurer_cartan(monkeypatch):
    """The sheets whose Maurer-Cartan form is formed from now on."""
    form = SurfaceGrid.maurer_cartan.func
    formed = []

    def counted(surface):
        formed.append(surface)
        return form(surface)

    monkeypatch.setattr(SurfaceGrid.maurer_cartan, "func", counted)
    return formed


def test_each_sheet_forms_its_maurer_cartan_form_once(tmp_path, monkeypatch):
    # verify reads each of the paraboloid's four sheets (both sides at two
    # lambdas) in the extraction, the conformality row, the dual's Sym
    # extraction and the self-duality fit; dual reads both sides per lambda
    args = ["--example", "paraboloid", "--lambda", "1,exp:pi/3",
            "--allow-reflection", "--out", str(tmp_path)]
    formed = _count_maurer_cartan(monkeypatch)
    assert run(["verify", *args]) == 0
    assert len(formed) == 4 and len({id(s) for s in formed}) == 4
    assert run(["generate", *args]) == 0
    formed.clear()
    assert run(["dual", *args]) == 0
    assert len(formed) == 2 * 2 and len({id(s) for s in formed}) == 4


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
    res = nildual.cli.pipeline_result(config, config.resolved_grid())
    direct = tmp_path / "direct.json"
    write_frame_cache(direct,
                      [frame_field_from_loop(res.frame_loop, lam, res.grid)
                       for lam in config.lams],
                      res.grid, mask=res.sym[0].f_minus.mask,
                      ok_mask=res.sym[0].ok_mask,
                      meta={"pipeline": "example:paraboloid"})
    (run_dir,) = (tmp_path / "o").iterdir()
    assert (run_dir / "frames.json").read_bytes() == direct.read_bytes()
    assert ((run_dir / "frames.bin").read_bytes()
            == (tmp_path / "direct.bin").read_bytes())


def test_cached_sheets_are_the_pipelines_sheets(tmp_path):
    # smyth-2 exports fewer nodes than it trusts (its exclusion disk): the
    # sheets read back from generate's frame cache are those of the
    # pipeline, their frames, trusted nodes, masks and coordinates bit for bit
    argv = ["generate", "--example", "smyth-2", "--lambda", "1,exp:pi/3",
            "--out", str(tmp_path)]
    assert run(argv) == 0
    parsed = nildual.cli.build_parser().parse_args(argv)
    config = nildual.cli.config_from_args(parsed)
    cached = nildual.cli.cached_sheets(config.run_dir())
    direct = nildual.cli.run_pipeline(config)[0]
    assert len(cached) == len(direct) == 2
    assert not np.array_equal(direct[0].ok_mask, direct[0].f_minus.mask)
    for got, want in zip(cached, direct):
        assert got.lam == want.lam
        pairs = [(getattr(got.frame, name), getattr(want.frame, name))
                 for name in ("F", "F_lam", "F_lam2")]
        pairs.append((got.ok_mask, want.ok_mask))
        for g, w in ((got.f_minus, want.f_minus), (got.f_plus, want.f_plus)):
            pairs += [(g.mask, w.mask), (g.coords, w.coords)]
        assert all(np.array_equal(a, b) for a, b in pairs)


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


def _paraboloid_potential(tmp, entries, **keys):
    """generate --potential on a 21x21 grid from the paraboloid's potential
    with `entries` ({2 * row + col: [re, im]} of power -1) replaced and the
    top-level `keys` added."""
    data = {**nildual.potentials.paraboloid_potential().to_json(), **keys}
    for index, value in entries.items():
        data["terms"][0]["entries"][index] = [value]
    path = _write_text(tmp / "xi.json", json.dumps(data))
    return _generate(tmp, "--potential", str(path), "--grid=-1,1,-1,1,21,21")


def _edited_potential(tmp, edit):
    """generate --potential on a 21x21 grid from the paraboloid's potential
    with its list of terms (one, of power -1) passed through `edit`."""
    data = nildual.potentials.paraboloid_potential().to_json()
    data["terms"] = edit(data["terms"])
    path = _write_text(tmp / "xi.json", json.dumps(data))
    return _generate(tmp, "--potential", str(path), "--grid=-1,1,-1,1,21,21")


def _spinors_with_row(tmp, edit):
    """generate --spinors from the paraboloid's pair with psi1's row of node
    (10, 10) appended again as edit(i, j, x, y, re, im)."""
    _write_paraboloid_spinors(tmp)
    path = tmp / "in_psi1.csv"
    row = next(line for line in path.read_text().splitlines()
               if line.startswith("10,10,"))
    with path.open("a") as f:
        f.write(",".join(map(str, edit(*map(float, row.split(","))))) + "\n")
    return ["generate", "--spinors", str(tmp / "in"), "--lambda", "1",
            "--out", str(tmp / "o")]


def _nan_spinors(tmp):
    """generate --spinors from the paraboloid's pair with psi1[3, 4] NaN."""
    _write_paraboloid_spinors(tmp)
    grid, psi1, _ = read_field_csv(tmp / "in_psi1.csv")
    psi1[3, 4] = math.nan
    write_field_csv(tmp / "in_psi1.csv", psi1, grid)
    return ["generate", "--spinors", str(tmp / "in"), "--lambda", "1",
            "--out", str(tmp / "o")]


def _spinors_on(tmp, grid1, grid2):
    """generate --spinors from the paraboloid's psi1 on grid1, psi2 on
    grid2."""
    from .oracles import paraboloid_spinors
    write_field_csv(tmp / "in_psi1.csv", paraboloid_spinors(grid1)[0], grid1)
    write_field_csv(tmp / "in_psi2.csv", paraboloid_spinors(grid2)[1], grid2)
    return _generate(tmp, "--spinors", str(tmp / "in"))


def _export_cache(tmp, text):
    (tmp / "run").mkdir()
    _write_text(tmp / "run" / "frames.json", text)
    return ["export", "--run", str(tmp / "run")]


def _export_edited_cache(tmp, schema=3, drop=(), payload=lambda raw: raw):
    """export from a valid 5x5 frame cache (a payload of 4850 bytes) with
    its header's `schema` set and keys `drop` removed, and its payload
    passed through `payload` (None: no payload file)."""
    from nildual.frames import FrameField
    grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, 5, 5)
    eye = np.broadcast_to(np.eye(2, dtype=complex)[:, :, None, None],
                          (2, 2) + grid.shape)
    frame = FrameField(F=eye, F_lam=0 * eye, F_lam2=0 * eye, lam=1 + 0j,
                       grid=grid)
    every = np.ones(grid.shape, dtype=bool)
    write_frame_cache(tmp / "good.json", [frame], grid, mask=every,
                      ok_mask=every)
    data = json.loads((tmp / "good.json").read_text())
    data["schema"] = schema
    for key in drop:
        del data[key]
    argv = _export_cache(tmp, json.dumps(data))
    raw = payload((tmp / "good.bin").read_bytes())
    if raw is not None:
        (tmp / "run" / "frames.bin").write_bytes(raw)
    return argv


@pytest.mark.parametrize("make_argv, message", [
    (lambda tmp: _generate(tmp, "--example", "paraboloid", "--grid", "1,2,3"),
     ""),
    (lambda tmp: _generate(tmp, "--example", "paraboloid",
                           "--grid=0,1,0,1,5,x"), ""),
    (lambda tmp: _generate(tmp, "--example", "paraboloid",
                           "--tol", "conformality=abc"), ""),
    (lambda tmp: _generate(tmp, "--example", "paraboloid",
                           "--tol", "conformalty=1e-3"), ""),
    (lambda tmp: _generate(tmp, "--example", "paraboloid",
                           "--tol", "conformality=nan"), "finite"),
    (lambda tmp: _generate(tmp, "--example", "paraboloid",
                           "--tol", "conformality=inf"), "finite"),
    (lambda tmp: _generate(tmp, "--example", "paraboloid",
                           "--tol", "conformality=-1e-6"), "non-negative"),
    (lambda tmp: ["generate", "--example", "paraboloid", *SMALL,
                  "--lambda", "nan", "--out", str(tmp / "o")], "unit-modulus"),
    (lambda tmp: ["generate", "--example", "paraboloid", *SMALL,
                  "--lambda", "nanj", "--out", str(tmp / "o")],
     "unit-modulus"),
    (lambda tmp: _generate(tmp, "--example", "paraboloid",
                           "--grid=-inf,1,-1,1,21,21"), "finite"),
    (lambda tmp: _generate(tmp, "--potential", str(tmp / "missing.json")), ""),
    (lambda tmp: _generate(tmp, "--potential",
                           str(_write_text(tmp / "bad.json", "{"))), ""),
    (lambda tmp: _generate(tmp, "--potential", str(
        _write_text(tmp / "empty.json", '{"schema": 1}'))), ""),
    (lambda tmp: _generate(tmp, "--spinors", str(tmp / "nothing")), ""),
    (_nan_spinors, "in_psi1.csv at node (3, 4)"),
    (lambda tmp: _spinors_on(tmp, DomainGrid(-1, 1, -1, 1, 12, 12),
                             DomainGrid(-1, 1, -1, 1, 12, 12)),
     "in' is 12x12"),
    # a 13x13 pair: its W4 sub-grid, the sheets', would be 5x5, under the
    # battery's SHEET_MIN, with empty W4 and W6 interiors; every --spinors
    # command refuses it by the one rule
    (lambda tmp: _spinors_on(tmp, DomainGrid(-1, 1, -1, 1, 13, 13),
                             DomainGrid(-1, 1, -1, 1, 13, 13)),
     "needs 21 nodes a side; the input grid of"),
    (lambda tmp: ["verify", *_spinors_on(
        tmp, DomainGrid(-1, 1, -1, 1, 13, 13),
        DomainGrid(-1, 1, -1, 1, 13, 13))[1:]], "in' is 13x13"),
    (lambda tmp: _spinors_on(tmp, DomainGrid(-1, 1, -1, 1, 21, 21),
                             DomainGrid(-1, 1.1, -1, 1, 21, 21)),
     "at two coordinates"),
    # a node listed twice, the second time off by 1e-6 relative, and a
    # node at row -1
    (lambda tmp: _spinors_with_row(
        tmp, lambda i, j, x, y, re, im: (10, 10, x, y, re * (1 + 1e-6), im)),
     "in_psi1.csv lists node (10, 10) twice"),
    (lambda tmp: _spinors_with_row(
        tmp, lambda i, j, x, y, re, im: (-1, 10, x, y, re, im)),
     "in_psi1.csv lists node (-1, 10), at a negative index"),
    (lambda tmp: ["export", "--run", str(tmp)], "no frame cache"),
    (lambda tmp: _export_cache(tmp, "{"), ""),
    (lambda tmp: _export_cache(tmp, '{"schema": 3}'), "KeyError"),
    (lambda tmp: _export_cache(tmp, "[]"), "bad frame cache"),
    (lambda tmp: _export_edited_cache(tmp, schema=1), "regenerate"),
    # the base64 cache before the payload moved beside the header
    (lambda tmp: _export_edited_cache(tmp, schema=2),
     "run/frames.json has schema 2, not 3: regenerate"),
    # the FileNotFoundError names the absent payload
    (lambda tmp: _export_edited_cache(tmp, payload=lambda raw: None),
     "run/frames.bin'"),
    # one complex128 entry short, and one long
    (lambda tmp: _export_edited_cache(tmp, payload=lambda raw: raw[:-16]),
     "run/frames.bin holds 4834 bytes; its header says 4850"),
    (lambda tmp: _export_edited_cache(tmp, payload=lambda raw: raw + raw[:16]),
     "run/frames.bin holds 4866 bytes; its header says 4850"),
    (lambda tmp: _export_edited_cache(tmp, drop=("payload_bytes",)),
     "run/frames.json: KeyError: 'payload_bytes'"),
    # verify grids under SHEET_MIN nodes a side, named as given
    *[(lambda tmp, n=n: ["verify", "--example", "paraboloid",
                         f"--grid=-0.2,0.2,-0.2,0.2,{n},{n}",
                         "--out", str(tmp / "o")],
       f"verify needs 13 nodes a side; the grid -0.2,0.2,-0.2,0.2,{n},{n} "
       f"has {n}x{n}") for n in (5, 9, 12)],
    (lambda tmp: _generate(tmp, "--example", "paraboloid", "--order", "0"),
     "order"),
    (lambda tmp: _generate(tmp, "--example", "paraboloid", "--order", "-2"),
     "order"),
    # caps too low for the domain: Phi's tail there is above TAIL_MAX (at
    # --order 8 the paraboloid would pass, with iwasawa_recon at 1.5e-10)
    (lambda tmp: _generate(tmp, "--example", "paraboloid", "--order", "1"),
     "tail at the truncation cap 1"),
    (lambda tmp: _generate(tmp, "--example", "paraboloid", "--order", "2"),
     "tail at the truncation cap 2"),
    (lambda tmp: _generate(tmp, "--example", "paraboloid", "--order", "8"),
     "tail at the truncation cap 8"),
    (lambda tmp: _generate(tmp, "--example", "paraboloid",
                           "--exclude-disk", "nan"), "exclusion radius"),
    (lambda tmp: _generate(tmp, "--example", "paraboloid",
                           "--grid=-1,1,-1,1,21,21", "--exclude-disk", "10"),
     "exclusion radius 10.0"),
    (lambda tmp: [*_export_edited_cache(tmp), "--formats", "objj"], "objj"),
    # NaN on an entry the twisted grading forbids, and on an allowed one
    (lambda tmp: _paraboloid_potential(tmp, {3: [math.nan, 0.0]}),
     "non-finite"),
    (lambda tmp: _paraboloid_potential(tmp, {1: [math.nan, 0.0]}),
     "non-finite"),
    # +-0.1 on the diagonal at the odd power -1, which the grading forbids,
    # whatever an old `twisted` flag says
    (lambda tmp: _paraboloid_potential(tmp, {0: [0.1, 0.0], 3: [-0.1, 0.0]},
                                       twisted=False),
     "forbidden-parity mass"),
    (lambda tmp: _paraboloid_potential(tmp, {0: [0.1, 0.0], 3: [-0.1, 0.0]}),
     "forbidden-parity mass"),
    # finite, but Phi overflows at every node
    (lambda tmp: _paraboloid_potential(tmp, {1: [0.0, -1e300],
                                             2: [0.0, -1e300]}),
     "every node"),
    # finite, but Phi's tail at the cap is far above TAIL_MAX: once exported
    # as a surface collapsed onto the origin
    (lambda tmp: _paraboloid_potential(tmp, {1: [0.0, 1e10], 2: [0.0, 1e10]}),
     "Phi's tail at the truncation cap 12 is 1.336e+113"),
    # a term with an entry list too many or too few, a power that is no
    # integer, a repeated power, and a term without a coefficient
    (lambda tmp: _edited_potential(tmp, lambda terms: [
        {**terms[0], "entries": terms[0]["entries"] + [[[1.0, 0.0]]]}]),
     "term 0 (power -1) has 5 entry lists, not 4"),
    (lambda tmp: _edited_potential(tmp, lambda terms: [
        {**terms[0], "entries": terms[0]["entries"][:3]}]),
     "term 0 (power -1) has 3 entry lists, not 4"),
    (lambda tmp: _edited_potential(tmp, lambda terms: [
        {**terms[0], "power": -1.5}]),
     "term 0 has power -1.5, not an integer"),
    (lambda tmp: _edited_potential(tmp, lambda terms: terms + terms),
     "term 1 repeats power -1"),
    (lambda tmp: _edited_potential(tmp, lambda terms: [
        {**terms[0], "entries": [[], [], [], []]}]),
     "the entries of the term of power -1 must be (deg+1, 2, 2)"),
    # an exclusion disk that leaves only corner nodes, none of whose
    # stencils reads kept nodes alone: no self-duality fit (verify) and no
    # dual fit (dual) has a node to compare on
    *[(lambda tmp, command=command: [
        command, "--example", "paraboloid", "--grid=-1,1,-1,1,41,41",
        "--exclude-disk", "1.3", "--out", str(tmp / "o")],
       "no node whose stencils read kept nodes alone")
      for command in ("verify", "dual")],
    # two lambdas of one report tag would repeat the rows' names
    (lambda tmp: ["verify", "--example", "paraboloid", "--lambda",
                  "1,exp:0.0001", "--out", str(tmp / "o")],
     "lambdas '1' and 'exp:0.0001' share the report tag lam+0.000pi"),
    (lambda tmp: ["generate", "--example", "paraboloid", *SMALL, "--lambda",
                  "exp:pi/3,1,1", "--out", str(tmp / "o")],
     "lambdas '1' and '1' share the report tag lam+0.000pi"),
    # flags the spinor pipeline would ignore, though the run hash reads them
    (lambda tmp: _generate(tmp, "--spinors", str(tmp / "in"), *SMALL),
     "--grid does not apply to --spinors"),
    (lambda tmp: ["verify", "--spinors", str(tmp / "in"), "--exclude-disk",
                  "0.5", "--out", str(tmp / "o")],
     "--exclude-disk does not apply to --spinors"),
    # given at its default value too: only a flag left out is not read
    (lambda tmp: _generate(tmp, "--spinors", str(tmp / "in"), "--order", "12"),
     "--order does not apply to --spinors"),
], ids=["grid-fields", "grid-int", "tol-value", "tol-name", "tol-nan",
        "tol-inf", "tol-negative", "lambda-nan", "lambda-nanj", "grid-inf",
        "potential-missing", "potential-not-json", "potential-no-terms",
        "spinors-missing", "spinors-nan", "spinors-12x12", "spinors-13x13",
        "verify-spinors-13x13", "spinors-spacing",
        "spinors-repeated-node", "spinors-negative-row", "export-no-cache",
        "cache-not-json", "cache-no-grid", "cache-not-object", "cache-schema-1",
        "cache-schema-2", "cache-no-payload", "cache-short-payload",
        "cache-long-payload", "cache-no-payload-count",
        "verify-grid-5", "verify-grid-9", "verify-grid-12", "order-0", "order-negative", "order-1", "order-2", "order-8",
        "exclude-disk-nan",
        "exclude-disk-everything", "export-format",
        "potential-nan-forbidden", "potential-nan-allowed",
        "potential-forbidden-untwisted-flag", "potential-forbidden-no-flag",
        "potential-overflow", "potential-1e10i", "potential-5-entries",
        "potential-3-entries", "potential-fractional-power",
        "potential-repeated-power", "potential-no-coefficient",
        "verify-empty-fit", "dual-empty-fit", "lambda-same-tag",
        "lambda-repeated", "spinors-grid", "spinors-exclude-disk",
        "spinors-order"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_input_is_a_config_error(tmp_path, capsys, make_argv,
                                           message):
    argv = make_argv(tmp_path)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert not (tmp_path / "o").exists()


def test_order_left_out_is_the_default_order():
    # --order's parser default is None, so that --spinors can refuse it by
    # name; left out it is the default cap, and the run directory is the
    # one an explicit default names
    def config(*flags):
        return nildual.cli.config_from_args(nildual.cli.build_parser(
        ).parse_args(["generate", "--example", "paraboloid", *flags]))

    left_out = config()
    given = config("--order", str(nildual.potentials.DEFAULT_ORDER))
    assert left_out.order == nildual.potentials.DEFAULT_ORDER
    assert left_out.run_dir() == given.run_dir()


def test_frame_cache_payload_is_node_major(tmp_path):
    # frames are entry planes (2, 2, ny, nx) in memory and node-major
    # (ny, nx, 2, 2) C-order complex128 on disk: an entry of its own per
    # (r, c, node) pins the order, and the planes read back are the input
    from nildual.frames import FrameField
    grid = DomainGrid(-1.0, 1.0, -0.5, 0.5, 7, 5)
    r, c, i, j = np.indices((2, 2) + grid.shape)
    F = 1000.0 * i + 10.0 * j + 2.0 * r + c + 1j * (r - c)
    frame = FrameField(F=F, F_lam=2.0 * F, F_lam2=3.0 * F, lam=1j,
                       grid=grid)
    every = np.ones(grid.shape, dtype=bool)
    path = tmp_path / "frames.json"
    write_frame_cache(path, [frame], grid, mask=every, ok_mask=every)
    payload = np.frombuffer((tmp_path / "frames.bin").read_bytes(),
                            dtype="<c16", count=3 * F.size)
    node_major = payload.reshape((3,) + grid.shape + (2, 2))
    (back,) = read_frame_cache(path)[0]
    for k, name in enumerate(("F", "F_lam", "F_lam2")):
        want = getattr(frame, name)
        assert np.array_equal(node_major[k][i, j, r, c], want)
        got = getattr(back, name)
        assert got.shape == (2, 2) + grid.shape
        assert np.array_equal(got, want)


def test_matrix_fields_are_entry_planes(tmp_path):
    # one layout for batched 2x2 data: the pipeline's frames, a march's,
    # the cached ones, the spinor frame, the connection values and n_m are
    # all entry planes (2, 2, ny, nx)
    argv = ["generate", "--example", "paraboloid", "--lambda", "1,exp:pi/3",
            "--out", str(tmp_path)]
    assert run(argv) == 0
    config = nildual.cli.config_from_args(
        nildual.cli.build_parser().parse_args(argv))
    sheets = nildual.cli.run_pipeline(config)[0]
    sheets += nildual.cli.cached_sheets(config.run_dir())
    grid = sheets[0].grid
    a = nildual.verify.analyze_sheet(sheets[0])
    march = a.frame(1.0, sheets[0].frame.F[(...,) + grid.centre])
    fields = [getattr(s.frame, name) for s in sheets
              for name in ("F", "F_lam", "F_lam2")]
    fields += [s.n_m for s in sheets]
    fields += [*a.connection_at(1.0), *a.connection_at(1.0, 2),
               frame_from_spinors(a.spinors)]
    assert len(fields) == 21
    assert all(f.shape == (2, 2) + grid.shape for f in fields)
    assert march.grid.shape == (grid.ny - 2 * W4, grid.nx - 2 * W4)
    assert all(f.shape == (2, 2) + march.grid.shape
               for f in (march.F, march.F_lam, march.F_lam2))


def test_frame_cache_roundtrip(tmp_path):
    from nildual.frames import FrameField
    grid = DomainGrid(-1.0, 1.0, -0.5, 0.5, 7, 5)
    rng = np.random.default_rng(5)
    shape = (2, 2) + grid.shape

    def field():
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    frames = [FrameField(F=field(), F_lam=field(), F_lam2=field(), lam=lam,
                         grid=grid) for lam in (1.0 + 0.0j, 1j)]
    F = frames[0].F
    F[0, 0, 0, 0] = complex(-0.0, 1.5)
    F[1, 0, 0, 1] = complex(2.0, -0.0)
    F[0, 1, 1, 1] = complex(-0.0, -0.0)
    # a NaN with a payload in its mantissa, and a negative one
    nan_bits = np.array([0x7FF8_0000_0000_1234, 0xFFF0_0000_0000_0001],
                        dtype=np.uint64).view(float)
    F[1, 1, 3, 2] = complex(nan_bits[0], nan_bits[1])
    mask = np.ones(grid.shape, dtype=bool)
    mask[2, 3] = False
    ok_mask = np.ones(grid.shape, dtype=bool)
    ok_mask[4, 6] = False
    path = tmp_path / "frames.json"
    write_frame_cache(path, frames, grid, mask=mask, ok_mask=ok_mask,
                      meta={"pipeline": "example:paraboloid"})
    assert json.loads(path.read_text())["schema"] == 3
    # two lambdas of three 7x5 matrix grids, then two masks of a byte a node
    size = (tmp_path / "frames.bin").stat().st_size
    assert size == (2 * 3 * 4 * 16 + 2) * 35
    back, grid2, mask2, ok2, meta = read_frame_cache(path)
    assert grid2 == grid
    assert np.array_equal(mask2, mask) and np.array_equal(ok2, ok_mask)
    assert meta == {"pipeline": "example:paraboloid"}
    # an all-True mask reads back as all-True
    write_frame_cache(path, frames, grid, mask=mask,
                      ok_mask=np.ones(grid.shape, dtype=bool))
    ok_all = read_frame_cache(path)[3]
    assert ok_all.shape == grid.shape and ok_all.dtype == bool and ok_all.all()
    assert [fr.lam for fr in back] == [fr.lam for fr in frames]
    # every array read is a read-only view of the payload
    for array in (mask2, ok2, *(getattr(fr, name) for fr in back
                                for name in ("F", "F_lam", "F_lam2"))):
        assert not array.flags.writeable
    for got, want in zip(back, frames):
        for name in ("F", "F_lam", "F_lam2"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.array_equal(a, b, equal_nan=True)
            # every bit, NaN payloads included: the read-back planes are a
            # view across the node-major payload, so compare their bytes
            assert a.tobytes() == b.tobytes()
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


def test_field_csv_without_its_first_row_and_column(tmp_path):
    # the spacing comes from the nodes present, not from the first one
    grid = DomainGrid(-1.0, 1.0, -0.5, 0.7, 7, 6)
    mask = np.ones(grid.shape, dtype=bool)
    mask[0, :] = mask[:, 0] = False
    f = np.arange(42.0).reshape(grid.shape) * (1 + 2j)
    write_field_csv(tmp_path / "f.csv", f, grid, mask)
    g2, f2, m2 = read_field_csv(tmp_path / "f.csv")
    assert (g2.nx, g2.ny) == (grid.nx, grid.ny)
    assert np.max(np.abs(g2.xs - grid.xs)) <= 1e-15
    assert np.max(np.abs(g2.ys - grid.ys)) <= 1e-15
    assert np.array_equal(m2, mask)
    assert np.array_equal(f2[mask], f[mask])


def test_error_on_missing_pipeline(tmp_path):
    rc = run(["generate", "--lambda", "1", "--out", str(tmp_path)])
    assert rc == 2


def test_unknown_example(tmp_path):
    rc = run(["generate", "--example", "smyth-3", "--grid=-0.3,0.3,-0.3,0.3,21,21", "--lambda", "1",
              "--out", str(tmp_path)])
    assert rc == 0  # smyth-k generalizes

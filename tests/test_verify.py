import dataclasses

import numpy as np
import pytest

import nildual.frames
from nildual import potentials, verify
from nildual.loops import MatrixLoop
from nildual.nil3 import DomainGrid, stencil_valid
from nildual.potentials import run_example
from nildual.verify import VerificationReport, verify_pipeline

from . import oracles


@pytest.fixture(scope="module")
def pb_run():
    return run_example("paraboloid", grid=DomainGrid(-1, 1, -1, 1, 41, 41),
                       lam_samples=[1.0, np.exp(1j * np.pi / 3)])


def test_battery_passes_on_paraboloid(pb_run):
    rep = verify_pipeline(pb_run)
    assert rep.passed
    names = {c.name.split("[")[0] for c in rep.checks}
    expected = {
        "iwasawa_recon", "iwasawa_reality", "conformality",
        "dirac_consistency", "minimality", "lambda_independence",
        "holomorphy_B", "flatness", "frame_su11", "frame_compat",
        "normal_agreement", "harmonic_g", "n_m_structure",
        "involution_phi", "involution_metric", "dual_local",
        "dual_minimality", "sym_duality_factor", "cross_pipeline",
        "self_duality_mc", "self_duality_pointwise",
    }
    assert expected <= names
    assert len({c.name for c in rep.checks}) == len(rep.checks)


def test_a_row_over_no_node_fails():
    rep = VerificationReport()
    row = rep.add("empty", [1.0, 2.0], 10.0, valid=np.zeros(2, dtype=bool))
    assert (row.passed, row.node_count, row.note) == (
        False, 0, "no node to assert on")
    # the paraboloid's 41x41 grid less the disk |z| < 1.1 keeps its four
    # corners, which hold no W6-interior node: the rows asserted there fail
    run = run_example("paraboloid", grid=DomainGrid(-1, 1, -1, 1, 41, 41),
                      exclude_disk=1.1)
    failed = {c.name for c in verify_pipeline(run).checks if not c.passed}
    assert failed == {"holomorphy_B[lam+0.000pi]", "flatness[lam+0.000pi]",
                      "frame_compat[lam+0.000pi]"}


def test_each_sheet_builds_its_connection_once(pb_run, monkeypatch):
    # one build of the connection's loops per sheet, and one (U, V) per
    # sheet and lam: the lam = 1 sheet's at 1 serves flatness, frame_compat
    # and the cross-pipeline march, its value at e^{i pi/3} the other
    # frame_compat, and the other sheet's at e^{i pi/3} its flatness.  The
    # cross-pipeline row reads the frame loop once more
    connection, evaluate = nildual.frames._connection, MatrixLoop.eval
    built, evals = [], []

    def counted_connection(d):
        built.append(d)
        return connection(d)

    def counted_eval(loop, lam, derivative=0):
        evals.append((complex(lam), derivative))
        return evaluate(loop, lam, derivative)

    for module in (nildual.frames, verify):
        monkeypatch.setattr(module, "_connection", counted_connection,
                            raising=False)
    monkeypatch.setattr(MatrixLoop, "eval", counted_eval)
    assert verify_pipeline(pb_run).passed
    assert len(built) == 2
    assert len(evals) == 7


def test_analyze_sheet_reads_the_sheets_own_trusted_nodes(pb_run):
    # a sheet whose frame is untrusted at one interior node: its spinors
    # leave out that node and every node whose stencils read it
    sym = pb_run.sym[0]
    ok = np.ones(sym.grid.shape, dtype=bool)
    ok[20, 17] = False
    a = verify.analyze_sheet(dataclasses.replace(sym, ok_mask=ok))
    assert np.array_equal(a.spinors.mask, stencil_valid(ok))
    assert not np.array_equal(a.spinors.mask, stencil_valid(sym.ok_mask))


def test_battery_flags_perturbed_frame(pb_run):
    # the frame at both lam plus seeded 1e-3 normal noise: the SU(1,1) and
    # compatibility rows read it and trip at both; the sheets were built
    # from the unperturbed frame, and the cross-pipeline row reads the loop
    rng = np.random.default_rng(7)
    sym = [dataclasses.replace(s, frame=dataclasses.replace(s.frame, F=(
        s.frame.F + 1e-3 * (rng.normal(size=s.frame.F.shape)
                            + 1j * rng.normal(size=s.frame.F.shape)))))
        for s in pb_run.sym]
    rep = verify_pipeline(dataclasses.replace(pb_run, sym=sym))
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {f"{row}[lam+{turn}pi]" for turn in ("0.000", "0.333")
                      for row in ("frame_su11", "frame_compat")}


def _failed_rows_with_perturbed(monkeypatch, which):
    """Rows the battery fails when iwasawa hands the pipeline a seeded
    perturbation of the allowed entries of F or of B+, the same at every
    node.  B+ takes 1e-6 on its powers from 1, so B+(0), and with it the
    gauge and the frames, stay exact; F takes 1e-7 on its powers -1..1, so
    the Sym formula, which weights power j by up to j^2, still sees a
    frame."""
    factorize = potentials.iwasawa

    def perturbed(phi):
        F, Bp, report = factorize(phi)
        loop = F if which == "F" else Bp
        j = loop.low + np.arange(loop.coeffs.shape[-3])
        allowed = (j[:, None, None] + np.arange(2)[:, None]
                   + np.arange(2)) % 2 == 0
        allowed[(j < 1) if which == "B+" else (np.abs(j) > 1)] = False
        size = 1e-6 if which == "B+" else 1e-7
        rng = np.random.default_rng(23)
        noise = rng.normal(size=(2,) + loop.coeffs.shape[-3:])
        bump = size * allowed * (noise[0] + 1j * noise[1])
        bumped = oracles.loop_from_dense(loop.coeffs + bump, loop.low)
        return (bumped, Bp, report) if which == "F" else (F, bumped, report)

    monkeypatch.setattr(potentials, "iwasawa", perturbed)
    run = run_example("paraboloid", grid=DomainGrid(-1, 1, -1, 1, 41, 41),
                      lam_samples=[1.0, np.exp(1j * np.pi / 3)])
    return {c.name.split("[")[0] for c in verify_pipeline(run).checks
            if not c.passed}


def test_battery_flags_perturbed_plus_loop(monkeypatch):
    assert _failed_rows_with_perturbed(monkeypatch, "B+") == {"iwasawa_recon"}


def test_battery_flags_perturbed_factorized_frame(monkeypatch):
    # F also breaks Phi = F B+, and the frames downstream are built from it
    assert _failed_rows_with_perturbed(monkeypatch, "F") == {
        "iwasawa_reality", "iwasawa_recon", "frame_su11", "sym_duality_factor"}


def test_iwasawa_row_notes_the_pivot(pb_run):
    row = verify_pipeline(pb_run).checks[0]
    assert row.name == "iwasawa_recon"
    pivot = np.min(pb_run.report.pivot[pb_run.mask])
    # the paraboloid's 41x41 grid needs the whole default cap
    assert (pb_run.order, pb_run.order_cap) == (12, 12)
    assert row.note == (f"pivot min {pivot:.3e}, 0 nodes below 1e-12, "
                        f"order 12 of cap 12, tail {pb_run.tail:.3e}")


def test_report_rendering(pb_run):
    rep = verify_pipeline(pb_run)
    table = rep.table()
    assert "overall" in table
    data = rep.to_json()
    assert data["schema"] == 1
    assert all("max" in c for c in data["checks"])


def test_tolerance_overrides(pb_run):
    rep = verify_pipeline(pb_run, tols={"conformality": 1e-30})
    assert not rep.passed
    bad = [c for c in rep.checks if not c.passed]
    assert all(c.name.startswith("conformality") for c in bad)


def test_battery_flags_perturbed_frame_loop(pb_run):
    # the frame loop's coefficients off power 0 scaled by a seeded 1 + 1e-5
    # relative noise (at 1e-6 the row read 4.9e-7..9.8e-7 over four seeds,
    # under its 1e-6 tolerance); the frames and sheets are already built, so
    # only the cross-pipeline row reads the loop again
    loop = pb_run.frame_loop
    rng = np.random.default_rng(29)
    scale = 1 + 1e-5 * rng.normal(size=loop.coeffs.shape[-3:])
    scale[-loop.low] = 1.0
    bumped = dataclasses.replace(pb_run, frame_loop=oracles.loop_from_dense(
        loop.coeffs * scale, loop.low))
    failed = {c.name.split("[")[0] for c in verify_pipeline(bumped).checks
              if not c.passed}
    assert failed == {"cross_pipeline"}


def _failed_rows_with_normal(pb_run, change):
    """{name: max} of the rows the battery fails when each sheet's n_m is
    replaced by change(n_m)."""
    sym = [dataclasses.replace(s, n_m=change(s.n_m)) for s in pb_run.sym]
    rep = verify_pipeline(dataclasses.replace(pb_run, sym=sym))
    return {c.name: c.max for c in rep.checks if not c.passed}


def test_battery_flags_scaled_normal(pb_run):
    # det n_m moves off 1/4 by 0.25 * 2e-6; the normal's direction, and
    # with it normal_agreement, does not move
    failed = _failed_rows_with_normal(pb_run, lambda n: (1 + 1e-6) * n)
    assert set(failed) == {"n_m_structure[lam+0.000pi]",
                           "n_m_structure[lam+0.333pi]"}
    assert all(v == pytest.approx(5e-7, rel=0.01) for v in failed.values())


def test_battery_flags_boosted_normal(pb_run):
    # a constant SU(1,1) boost keeps det and trace, so n_m_structure holds;
    # the normal turns by about t, and normal_agreement trips (at t = 1e-6
    # it reads 1.18e-6, too near its 1e-6 tolerance to test)
    t = 1e-5
    boost = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
    failed = _failed_rows_with_normal(
        pb_run, lambda n: oracles.planes(
            boost @ oracles.stack(n) @ np.linalg.inv(boost)))
    assert set(failed) == {"normal_agreement[lam+0.000pi]",
                           "normal_agreement[lam+0.333pi]"}
    assert all(v > 1e-5 for v in failed.values())


def test_battery_flags_noisy_plus_sheet(pb_run):
    # each plus sheet's coordinates plus seeded 2e-8 normal noise.  Only
    # self_duality_mc and sym_duality_factor read that sheet.  At 1e-8 both
    # trip with sym_duality_factor[lam=1] at 1.7e-6, near its 1e-6
    # tolerance; from 3e-8 the dual extraction refuses the sheet as
    # non-conformal (above 1e-5) and sym_duality_factor reads inf
    rng = np.random.default_rng(31)
    sym = [dataclasses.replace(s, f_plus=dataclasses.replace(
        s.f_plus, coords=s.f_plus.coords
        + 2e-8 * rng.normal(size=s.f_plus.coords.shape))) for s in pb_run.sym]
    rep = verify_pipeline(dataclasses.replace(pb_run, sym=sym))
    failed = {c.name: c.max for c in rep.checks if not c.passed}
    assert set(failed) == {f"{row}[lam+{turn}pi]"
                           for row in ("self_duality_mc", "sym_duality_factor")
                           for turn in ("0.000", "0.333")}
    assert all(3e-6 < v < 1e-4 for v in failed.values())


def _failed_rows(run):
    """{name: max / tolerance} of the rows the battery fails on `run`."""
    return {c.name: c.max / c.tolerance
            for c in verify_pipeline(run).checks if not c.passed}


def test_battery_flags_stretched_minus_sheet(pb_run):
    # each minus sheet's first coordinate times 1 + 6e-5: conformality,
    # 1.0e-7 clean, reads 3.0e-5.  No sheet stretched off conformal stays
    # minimal (at 1e-3 the extraction refuses it, |H| = 2.8e-4), so every
    # row that reads the sheet's spinors or frame trips too, the weakest,
    # minimality at e^{i pi/3}, at twice its tolerance; the rows that pass
    # (holomorphy_B, harmonic_g, the dual's) stay under 0.6 of theirs
    def stretched(sheet):
        coords = sheet.coords.copy()
        coords[..., 0] *= 1 + 6e-5
        return dataclasses.replace(sheet, coords=coords)

    sym = [dataclasses.replace(s, f_minus=stretched(s.f_minus))
           for s in pb_run.sym]
    failed = _failed_rows(dataclasses.replace(pb_run, sym=sym))
    both = ("conformality", "dirac_consistency", "minimality", "flatness",
            "normal_agreement", "sym_duality_factor", "frame_compat",
            "self_duality_mc")
    assert set(failed) == (
        {f"{row}[lam+{turn}pi]" for row in both
         for turn in ("0.000", "0.333")}
        | {"lambda_independence[lam+0.333pi]", "cross_pipeline[lam+0.000pi]",
           "self_duality_pointwise"})
    assert failed["conformality[lam+0.000pi]"] > 20
    assert failed["conformality[lam+0.333pi]"] > 20


def _failed_rows_with_dirac(monkeypatch, run, change):
    """_failed_rows with every sheet's Dirac data d at lam change(d, lam)."""
    analyze = verify.analyze_sheet

    def changed(sym):
        a = analyze(sym)
        return dataclasses.replace(a, dirac=change(a.dirac, sym.lam))

    monkeypatch.setattr(verify, "analyze_sheet", changed)
    return _failed_rows(run)


def test_battery_flags_real_part_of_ew2(pb_run, monkeypatch):
    # e^{w/2}, |e^{w/2}| = 1/4, gains the real part 4e-5 |e^{w/2}|:
    # minimality (4.8e-14 and 3.0e-8 clean) reads 1.0e-5.  The flatness and
    # the frame's compatibility read w, and the cross-pipeline frame is
    # marched from lam = 1's data; lambda_independence sees the same shift
    # at both parameters and passes
    failed = _failed_rows_with_dirac(
        monkeypatch, pb_run,
        lambda d, lam: dataclasses.replace(
            d, ew2=d.ew2 + 4e-5 * np.abs(d.ew2)))
    assert set(failed) == {
        f"{row}[lam+{turn}pi]"
        for row in ("minimality", "flatness", "frame_compat")
        for turn in ("0.000", "0.333")} | {"cross_pipeline[lam+0.000pi]"}
    assert all(failed[f"minimality[lam+{turn}pi]"] > 5
               for turn in ("0.000", "0.333"))


def test_battery_flags_lambda_dependent_ew2(pb_run, monkeypatch):
    # e^{w/2} at e^{i pi/3} alone times 1 + 4e-5: lambda_independence
    # (5.3e-8 clean) reads 1.0e-5, and that parameter's flatness trips too
    failed = _failed_rows_with_dirac(
        monkeypatch, pb_run,
        lambda d, lam: d if lam == 1 else dataclasses.replace(
            d, ew2=d.ew2 * (1 + 4e-5)))
    assert set(failed) == {"lambda_independence[lam+0.333pi]",
                           "flatness[lam+0.333pi]"}
    assert failed["lambda_independence[lam+0.333pi]"] > 5


def test_battery_flags_antiholomorphic_B(pb_run, monkeypatch):
    # B, 1/16 here, times 1 + 1e-3 zbar: holomorphy_B (1.2e-8 clean) reads
    # |dzbar B| = 6.3e-5, and flatness (4.7e-8 clean) 2.5e-4, from the
    # 1e-3 B e^{-w/2} that dzbar U gains.  Sized at 1e-6, 1e-5 and 1e-4:
    # flatness trips from 1e-5, holomorphy_B only above 1.6e-4.  The frame's
    # compatibility, the cross-pipeline march and the dual read the same B;
    # every other row stays under 0.11 of its tolerance
    failed = _failed_rows_with_dirac(
        monkeypatch, pb_run,
        lambda d, lam: dataclasses.replace(
            d, B=d.B * (1 + 1e-3 * np.conj(d.grid.zz))))
    assert set(failed) == {
        f"{row}[lam+{turn}pi]"
        for row in ("holomorphy_B", "flatness", "frame_compat",
                    "dual_minimality", "sym_duality_factor")
        for turn in ("0.000", "0.333")} | {"cross_pipeline[lam+0.000pi]",
                                           "self_duality_pointwise"}
    assert all(failed[f"{row}[lam+{turn}pi]"] > 5
               for row in ("holomorphy_B", "flatness")
               for turn in ("0.000", "0.333"))


def _failed_rows_with_gauss(monkeypatch, run, change):
    """_failed_rows with every sheet's Gauss map g changed to change(g)."""
    analyze = verify.analyze_sheet

    def changed(sym):
        a = analyze(sym)
        out = dataclasses.replace(a)
        out.gauss = change(a.gauss)   # over the cached property
        return out

    monkeypatch.setattr(verify, "analyze_sheet", changed)
    return _failed_rows(run)


def test_battery_flags_non_harmonic_g(pb_run, monkeypatch):
    # g + 1e-4 |z|^2, whose dz dzbar is 1e-4: harmonic_g (3.5e-8 and
    # 8.2e-9 clean) reads 1.5e-4 and 1.7e-4.  Sized at 1e-6, 1e-5 and
    # 1e-4: harmonic_g trips from 1e-5, normal_agreement, which compares g
    # with the normal's to 1e-6, already at 1e-6; it reads 1.6e-4 here.
    # No other row reads g
    zz = pb_run.grid.zz
    failed = _failed_rows_with_gauss(monkeypatch, pb_run,
                                     lambda g: g + 1e-4 * np.abs(zz) ** 2)
    assert set(failed) == {f"{row}[lam+{turn}pi]"
                           for row in ("harmonic_g", "normal_agreement")
                           for turn in ("0.000", "0.333")}
    assert all(failed[f"harmonic_g[lam+{turn}pi]"] > 10
               for turn in ("0.000", "0.333"))


def test_battery_flags_rough_g_in_harmonic_g_alone(pb_run, monkeypatch):
    # g plus seeded normal noise of size 5e-8: the stencil's second
    # differences read it 400 times over at this spacing, so harmonic_g
    # trips alone.  Sized at 1e-9, 1e-8 and 1e-7: harmonic_g reads 2.0e-6,
    # 2.0e-5 and 2.0e-4, normal_agreement at most 0.41 of its tolerance;
    # here harmonic_g reads 1.0e-4 and normal_agreement 0.23 of its own
    noise = 5e-8 * np.random.default_rng(6).normal(size=pb_run.grid.shape)
    failed = _failed_rows_with_gauss(monkeypatch, pb_run,
                                     lambda g: g + noise)
    assert set(failed) == {f"harmonic_g[lam+{turn}pi]"
                           for turn in ("0.000", "0.333")}
    assert all(v > 5 for v in failed.values())


def _failed_sheet_rows(run, change, change_analysis=lambda a: a):
    """{name: max / tolerance} of the rows `sheet_checks` fails on each
    parameter's minus sheet, its spinors s changed to change(s) and read by
    `SheetAnalysis.of`, as `verify --spinors` reads an input pair, and that
    analysis a changed to change_analysis(a)."""
    rep = VerificationReport()
    for sym in run.sym:
        s = verify.analyze_sheet(sym).spinors
        a = change_analysis(verify.SheetAnalysis.of(change(s)))
        verify.sheet_checks(rep, a, sym.f_minus.mask, verify.DEFAULT_TOLS)
    return {c.name: c.max / c.tolerance for c in rep.checks if not c.passed}


def test_sheet_rows_flag_a_spinor_pair_off_the_dirac_system(pb_run):
    # psi2 plus a seeded constant 2e-6 a0 (|a0| = 3.3): dz psi2, and with
    # it the e^{w/2} read off the first equation, stay, and the second,
    # dzbar psi1 = e^{w/2} psi2, misses by e^{w/2} 2e-6 a0.
    # dirac_consistency, 0.03 of its tolerance clean, reads 2.1 and 1.9 of
    # it.  w, read off the support, no longer matches e^{w/2}, so flatness
    # moves too: sized at 1e-6, 2e-6 and 1e-5, dirac_consistency reads
    # 1.05, 2.1 and 10.3 at lam = 1, flatness 0.39, 0.77 and 3.8, so the
    # row trips alone only below 2.6e-6; harmonic_g stays under 0.2
    a0 = complex(*np.random.default_rng(3).normal(size=2))
    failed = _failed_sheet_rows(
        pb_run, lambda s: dataclasses.replace(s, psi2=s.psi2 + 2e-6 * a0))
    assert set(failed) == {f"dirac_consistency[lam+{turn}pi]"
                           for turn in ("0.000", "0.333")}
    assert all(v > 1.5 for v in failed.values())


def test_sheet_rows_flag_a_turned_dual_spinor(pb_run, monkeypatch):
    # the dual's psi1* times a seeded constant phase e^{i 1e-4 t}: the
    # dual's e^{w*/2} = -dz psi2* / psi1* turns off the imaginary axis by
    # the angle, and dual_minimality reads |e^{w*/2}| 1e-4 t = 5.1e-5, 5.1
    # of its tolerance (sized at 1e-5, 3e-5 and 1e-4: 0.51, 1.5 and 5.1 at
    # lam = 1).  involution_phi reads psi1* pointwise, at 1e-10, and trips
    # 1e6 times over; dual_local does not see a constant unimodular factor.
    # No defect of the dual spinors trips dual_minimality alone: the double
    # dual is pointwise linear in them
    t = np.random.default_rng(3).normal()
    dual_spinors = verify.dual_spinors

    def turned(s, d, conjugate_sign=+1):
        pair = dual_spinors(s, d, conjugate_sign)
        return dataclasses.replace(pair, dual=dataclasses.replace(
            pair.dual, psi1=pair.dual.psi1 * np.exp(1e-4j * t)))

    monkeypatch.setattr(verify, "dual_spinors", turned)
    failed = _failed_sheet_rows(pb_run, lambda s: s)
    assert set(failed) == {f"{row}[lam+{turn}pi]"
                           for row in ("dual_minimality", "involution_phi")
                           for turn in ("0.000", "0.333")}
    assert all(failed[f"dual_minimality[lam+{turn}pi]"] > 4
               for turn in ("0.000", "0.333"))


def test_sheet_rows_flag_a_noisy_support(pb_run):
    # the analysis's support h times 1 + 1e-9 seeded normal noise:
    # involution_metric compares the double dual's h with it pointwise and
    # reads 3.3e-9, 33 of its tolerance (4.9e-15 and 5.3e-15 clean; sized
    # at 1e-11, 1e-10 and 1e-9: 0.33, 3.3 and 33).  The dual itself is
    # built from the spinors, so no other sheet row reads this h
    noise = np.random.default_rng(5).normal(size=pb_run.grid.shape)
    failed = _failed_sheet_rows(
        pb_run, lambda s: s,
        lambda a: dataclasses.replace(a, h=a.h * (1 + 1e-9 * noise)))
    assert set(failed) == {f"involution_metric[lam+{turn}pi]"
                           for turn in ("0.000", "0.333")}
    assert all(v > 10 for v in failed.values())


def test_sheet_rows_flag_a_rough_dual_spinor_phase(pb_run, monkeypatch):
    # the dual's psi1* times e^{i 1e-9 n}, n seeded normal noise per node:
    # dual_local's Gauss-map ratio -psi1* / (conj(psi2*) g) is no longer
    # constant, and the row reads 3.9e-9, 39 of its tolerance (3.1e-15 and
    # 4.4e-15 clean; sized at 1e-11, 1e-10 and 1e-9: 0.39, 3.9 and 39).
    # involution_phi reads psi1* pointwise and trips with it, at 17 and 20;
    # dual_minimality, a first-order stencil at 1e-5, stays under its
    # tolerance
    noise = np.random.default_rng(5).normal(size=pb_run.grid.shape)
    dual_spinors = verify.dual_spinors

    def rough(s, d, conjugate_sign=+1):
        pair = dual_spinors(s, d, conjugate_sign)
        return dataclasses.replace(pair, dual=dataclasses.replace(
            pair.dual, psi1=pair.dual.psi1 * np.exp(1e-9j * noise)))

    monkeypatch.setattr(verify, "dual_spinors", rough)
    failed = _failed_sheet_rows(pb_run, lambda s: s)
    assert set(failed) == {f"{row}[lam+{turn}pi]"
                           for row in ("dual_local", "involution_phi")
                           for turn in ("0.000", "0.333")}
    assert all(failed[f"dual_local[lam+{turn}pi]"] > 10
               for turn in ("0.000", "0.333"))

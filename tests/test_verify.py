import dataclasses

import numpy as np
import pytest

from nildual import potentials
from nildual.loops import MatrixLoop
from nildual.nil3 import DomainGrid
from nildual.potentials import run_example
from nildual.verify import VerificationReport, verify_pipeline


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


def test_battery_flags_perturbed_frame(pb_run):
    # the frame at both lam plus seeded 1e-3 normal noise: the SU(1,1) and
    # compatibility rows read it and trip at both; the sheets were built
    # from the unperturbed frame, and the cross-pipeline row reads the loop
    rng = np.random.default_rng(7)
    frames = [dataclasses.replace(fr, F=fr.F + 1e-3 * (
        rng.normal(size=fr.F.shape) + 1j * rng.normal(size=fr.F.shape)))
        for fr in pb_run.frames]
    rep = verify_pipeline(dataclasses.replace(pb_run, frames=frames))
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
        bumped = MatrixLoop(loop.coeffs + bump, loop.low)
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
    bumped = dataclasses.replace(pb_run, frame_loop=MatrixLoop(
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
        pb_run, lambda n: boost @ n @ np.linalg.inv(boost))
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

import numpy as np
import pytest

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
    rep = verify_pipeline(pb_run, perturb_frame=1e-3)
    failed = {c.name.split("[")[0] for c in rep.checks if not c.passed}
    assert failed == {"frame_su11"}


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

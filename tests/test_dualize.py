import numpy as np
import pytest

from nildual.dualize import double_dual, dual_invariants, dual_local_check, dual_spinors
from nildual.errors import HorizontalUmbrellaError
from nildual.spinors import SpinorField, dirac_data, phi_from_spinors, uh_from_spinors

from .oracles import paraboloid_spinors


@pytest.fixture
def pb(grid41):
    psi1, psi2 = paraboloid_spinors(grid41)
    s = SpinorField(psi1, psi2, grid41)
    return s, dirac_data(s)


def test_dual_spinors_paraboloid_default_convention(pb, grid41):
    s, d = pb
    pair = dual_spinors(s, d)
    # sqrt(-1/16) = i/4 principal, s2 = conj = -i/4:
    # psi1* = i psi2, psi2* = -i psi1
    assert np.max(np.abs(pair.dual.psi1 - 1j * s.psi2)) < 1e-6
    assert np.max(np.abs(pair.dual.psi2 + 1j * s.psi1)) < 1e-6
    assert not pair.has_branch_cut
    assert np.all(pair.mask)


def test_dual_spinors_other_convention(pb):
    s, d = pb
    pair = dual_spinors(s, d, conjugate_sign=-1)
    # the other branch flips the sign of psi2* only
    assert np.max(np.abs(pair.dual.psi1 - 1j * s.psi2)) < 1e-6
    assert np.max(np.abs(pair.dual.psi2 - 1j * s.psi1)) < 1e-6


def test_conventions_differ_by_conjugate_reflection(pb):
    # flipping s2 flips the sign of phi3 only (phi1, phi2 are quadratic in
    # the flipped spinor); for this surface that is exactly the conjugate
    # reflection action (conj(phi1), -conj(phi2), -conj(phi3))
    s, d = pb
    plus = phi_from_spinors(dual_spinors(s, d, conjugate_sign=+1).dual)
    minus = phi_from_spinors(dual_spinors(s, d, conjugate_sign=-1).dual)
    assert np.max(np.abs(minus.phi1 - plus.phi1)) < 1e-9
    assert np.max(np.abs(minus.phi2 - plus.phi2)) < 1e-9
    assert np.max(np.abs(minus.phi3 + plus.phi3)) < 1e-9
    reflected = np.stack([np.conj(plus.phi1), -np.conj(plus.phi2),
                          -np.conj(plus.phi3)], axis=-1)
    assert np.max(np.abs(minus.phi - reflected)) < 1e-9


def test_dual_rejects_umbrella(pb, grid41):
    s, d = pb
    import dataclasses
    flat = dataclasses.replace(d, B=np.zeros_like(d.B))
    with pytest.raises(HorizontalUmbrellaError):
        dual_spinors(s, flat)


def test_dual_invariants_paraboloid_self_dual(pb):
    s, d = pb
    e_u_star, h_star, B_star, g_star, ew2_star, mask = dual_invariants(
        dual_spinors(s, d))
    e_u, h = uh_from_spinors(s)
    # 4^4 (1/16)^2 / 1 = 1 and 16 (1/16) / 1 = 1: data is self-dual
    assert np.max(np.abs(e_u_star - e_u)[mask]) < 1e-6
    assert np.max(np.abs(h_star - 1.0)[mask]) < 1e-6
    assert np.max(np.abs(B_star - d.B)) == 0.0
    assert np.max(np.abs(ew2_star - 0.25j)[mask]) < 1e-6


def test_dual_invariants_degenerate_zero(grid41):
    # synthetic data with B = z: the origin node is masked as singular and
    # the metric ratio e^{u*}/e^u = (16|B|/h^2)^2 vanishes toward it
    psi1, psi2 = paraboloid_spinors(grid41)
    s = SpinorField(psi1, psi2, grid41)
    d = dirac_data(s)
    import dataclasses
    d_syn = dataclasses.replace(d, B=grid41.zz.astype(complex))
    e_u_star, _, _, _, _, mask = dual_invariants(dual_spinors(s, d_syn))
    io = grid41.ny // 2
    jo = grid41.nx // 2
    assert not mask[io, jo]  # B(0) = 0 is a singular node
    e_u, _ = uh_from_spinors(s)
    ratio = np.where(mask, e_u_star / e_u, 0.0)
    near = ratio[io, jo + 1]
    far = ratio[io, jo + 10]
    assert near < far  # ratio decays toward the zero of B


def test_dual_local_check(pb):
    s, d = pb
    pair = dual_spinors(s, d)
    res = dual_local_check(pair)
    assert res["metric"] < 1e-6
    assert res["support"] < 1e-6
    assert res["gauss_constancy"] < 1e-9
    assert res["gauss_unimodular"] < 1e-9


def test_double_dual_restores_spinors(pb):
    s, d = pb
    again, mask = double_dual(dual_spinors(s, d))
    # with the default convention the involution is exact, not only up to sign
    assert np.max(np.abs(again.psi1 - s.psi1)[mask]) < 1e-6
    assert np.max(np.abs(again.psi2 - s.psi2)[mask]) < 1e-6


def test_double_dual_restores_phi_and_metric(pb):
    s, d = pb
    again, mask = double_dual(dual_spinors(s, d))
    phi0 = phi_from_spinors(s).phi
    phi2 = phi_from_spinors(again).phi
    assert np.max(np.abs(phi2 - phi0)[mask]) < 1e-6
    e_u0, h0 = uh_from_spinors(s)
    e_u2, h2 = uh_from_spinors(again)
    assert np.max(np.abs(e_u2 - e_u0)[mask]) < 1e-6
    assert np.max(np.abs(h2 - h0)[mask]) < 1e-6


def test_double_dual_sign_tracking(pb):
    s, d = pb
    again, mask = double_dual(dual_spinors(s, d, conjugate_sign=-1),
                               conjugate_sign=-1)
    # the alternative convention restores the pair up to one global sign
    ratios = np.where(mask, again.psi1 / np.where(mask, s.psi1, 1.0), 1.0)
    sign = np.sign(ratios.real[0, 0])
    assert np.max(np.abs(again.psi1 - sign * s.psi1)[mask]) < 1e-6
    assert np.max(np.abs(again.psi2 - sign * s.psi2)[mask]) < 1e-6
    # frame components are sign-blind
    assert np.max(np.abs(phi_from_spinors(again).phi
                         - phi_from_spinors(s).phi)[mask]) < 1e-6


def test_branch_cut_recorded_for_odd_zero(grid41):
    # B ~ z has a simple zero: continuing sqrt(-B) around it must leave a
    # recorded cut line, while the double dual still cancels the jump
    psi1, psi2 = paraboloid_spinors(grid41)
    s = SpinorField(psi1, psi2, grid41)
    d = dirac_data(s)
    import dataclasses
    d_syn = dataclasses.replace(d, B=grid41.zz.astype(complex))
    pair = dual_spinors(s, d_syn)
    assert pair.has_branch_cut
    log = pair.branch_log()
    assert log["cut_edges"]
    # no per-node sign: it follows round-off on the principal cut
    assert sorted(log) == ["cut_edges", "masked", "schema"]
    assert log["schema"] == 2
    again, mask = double_dual(pair)
    phi0 = phi_from_spinors(s).phi
    phi2 = phi_from_spinors(again).phi
    assert np.max(np.abs(phi2 - phi0)[mask]) < 1e-6


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_dual_spinors_sign_survives_round_off_in_B(pb, sign):
    # B = 1/16 with a seeded 1e-13 imaginary part of either sign at every
    # node, the start node's included: -B sits on the principal square
    # root's cut, and the dual keeps the sign it has without the noise
    s, d = pb
    import dataclasses
    rng = np.random.default_rng(31)
    noisy = dataclasses.replace(
        d, B=d.B + sign * 1e-13j * (1.0 + rng.random(d.B.shape)))
    clean, pair = dual_spinors(s, d), dual_spinors(s, noisy)
    assert np.max(np.abs(pair.dual.psi1 - clean.dual.psi1)) < 1e-9
    assert np.max(np.abs(pair.dual.psi2 - clean.dual.psi2)) < 1e-9
    assert np.max(np.abs(pair.dual.psi1 - 1j * s.psi2)) < 1e-6

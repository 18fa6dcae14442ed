import numpy as np
import pytest
import scipy.linalg

from nildual.errors import ConfigError
from nildual.loops import SIGMA3, MatrixLoop, su11_residual
from nildual.nil3 import DomainGrid, left_maurer_cartan
from nildual.potentials import (
    SPINOR_GAUGE,
    HoloPotential,
    _dirac_gauge,
    builtin_example,
    dpw_pipeline,
    helicoid_potential,
    integrate_potential,
    iwasawa,
    iwasawa_residuals,
    paraboloid_potential,
    run_example,
    smyth_potential,
)
from nildual.spinors import dirac_data, spinors_from_phi, uh_from_spinors
from nildual.sym import mc_equivalent

from . import oracles
from .oracles import paraboloid_dual_surface, paraboloid_frame, paraboloid_surface


@pytest.fixture(scope="module")
def grid21():
    return DomainGrid(-1.0, 1.0, -1.0, 1.0, 21, 21)


@pytest.fixture(scope="module")
def pb_phi(grid21):
    return integrate_potential(paraboloid_potential(), grid21)


def test_potential_json_roundtrip():
    xi = smyth_potential(2)
    xi.terms[-1][0, 0, 1] = complex(1.0, -0.0)
    xi.terms[-1][2, 1, 0] = complex(-0.0, 1.0)
    back = HoloPotential.from_json(xi.to_json())
    assert back.twisted
    assert set(back.terms) == set(xi.terms)
    for j in xi.terms:
        assert np.array_equal(back.terms[j], xi.terms[j])
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(back.terms[j])),
                                  np.signbit(part(xi.terms[j])))


def test_potential_validation():
    with pytest.raises(ConfigError):
        HoloPotential({0: np.eye(2, dtype=complex)[None]})  # lowest power 0
    with pytest.raises(ConfigError):
        # diagonal mass at an odd power violates the twisted pattern
        HoloPotential({-1: np.eye(2, dtype=complex)[None]})


def test_integrate_potential_closed_form(grid21, pb_phi):
    # Phi(z) = exp(-(i/4) z X / lam): entries cosh/sinh of p = -(i/4) z/lam
    for lam in (1.0, np.exp(0.9j)):
        vals = pb_phi.eval(lam)
        p = -0.25j * grid21.zz / lam
        expected = np.empty(grid21.shape + (2, 2), dtype=complex)
        expected[..., 0, 0] = np.cosh(p)
        expected[..., 0, 1] = np.sinh(p)
        expected[..., 1, 0] = np.sinh(p)
        expected[..., 1, 1] = np.cosh(p)
        assert np.max(np.abs(vals - expected)) < 1e-11


def test_integrate_potential_init_node(grid21, pb_phi):
    # z0 = 0 sits on the grid; the loop there is the identity
    i0 = grid21.ny // 2
    j0 = grid21.nx // 2
    node = pb_phi.at_node((i0, j0))
    assert np.max(np.abs(node.eval(1.0) - np.eye(2))) < 1e-12


def test_integrate_potential_two_paths(grid21):
    a = integrate_potential(paraboloid_potential(), grid21, column_first=True)
    b = integrate_potential(paraboloid_potential(), grid21, column_first=False)
    lam = np.exp(1j * np.pi / 3)
    assert np.max(np.abs(a.eval(lam) - b.eval(lam))) < 1e-10


def test_integrate_helicoid_against_expm(grid21):
    phi = integrate_potential(helicoid_potential(), grid21)
    xi = helicoid_potential()
    for lam in (1.0, np.exp(0.7j)):
        D = sum(c[0] * lam**j for j, c in xi.terms.items())
        got = phi.eval(lam)
        for idx in ((0, 0), (10, 7), (20, 20), (5, 18)):
            z = grid21.node_z(*idx)
            expected = scipy.linalg.expm(D * z)
            assert np.max(np.abs(got[idx] - expected)) < 1e-10


def test_iwasawa_paraboloid_closed_form(grid21, pb_phi):
    F, Bp, report = iwasawa(pb_phi)
    assert not np.any(report.failed)
    recon, reality = iwasawa_residuals(pb_phi, F, Bp)
    assert recon < 1e-8
    assert reality < 1e-8
    # the factorized frame matches the closed form up to the fixed gauge
    for lam in (1.0, np.exp(1j * np.pi / 3)):
        got = SPINOR_GAUGE @ F.eval(lam)
        expected = paraboloid_frame(grid21.zz, lam)
        assert np.max(np.abs(got - expected)) < 1e-8


def test_iwasawa_of_real_loop_is_trivial(grid21, pb_phi):
    # a loop already satisfying the reality condition factors as (itself, I)
    F, Bp, report = iwasawa(pb_phi)
    F2, Bp2, rep2 = iwasawa(F)
    assert not np.any(rep2.failed)
    lam = np.exp(0.3j)
    assert np.max(np.abs(F2.eval(lam) - F.eval(lam))) < 1e-7
    assert np.max(np.abs(Bp2.eval(lam) - np.eye(2))) < 1e-7


def test_iwasawa_of_plus_loop_is_identity(rng):
    # normalized plus-loop input: F = I
    c = np.zeros((4, 2, 2), dtype=complex)
    c[0] = np.array([[1.5, 0.3 + 0.2j], [0.0, 0.8]])
    c[1] = 0.1 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    c[2] = 0.05 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    Bp_true = MatrixLoop(np.broadcast_to(c, (3, 3, 4, 2, 2)).copy(), 0)
    # widen into a symmetric window so the splitter sees a generic input
    pad = np.zeros((3, 3, 9, 2, 2), dtype=complex)
    pad[..., 4:8, :, :] = Bp_true.coeffs
    phi = MatrixLoop(pad, -4)
    F, Bp, report = iwasawa(phi)
    assert not np.any(report.failed)
    lam = np.exp(1.1j)
    assert np.max(np.abs(F.eval(lam) - np.eye(2))) < 1e-8
    assert np.max(np.abs(Bp.eval(lam) - Bp_true.eval(lam))) < 1e-8


def test_iwasawa_products_are_coefficientwise(pb_phi, monkeypatch):
    seen = []
    mul = MatrixLoop.mul

    def recorded(self, other):
        out = mul(self, other)
        seen.append((self.coeffs, other.coeffs, out.coeffs))
        return out

    monkeypatch.setattr(MatrixLoop, "mul", recorded)
    iwasawa(pb_phi)
    assert len(seen) == 3   # sigma3 Phi* sigma3 . Phi, W . Z, Phi . B+^-1
    for a, b, got in seen:
        assert oracles.within_cauchy_bound(got, a, b)


@pytest.mark.parametrize("name", ["paraboloid", "helicoid", "smyth-2"])
def test_iwasawa_cond_matches_svd(name):
    g = builtin_example(name).grid
    grid = DomainGrid(g.x0, g.x1, g.y0, g.y1, 11, 11)
    phi = integrate_potential(builtin_example(name).potential(), grid)
    _, _, report = iwasawa(phi)
    ref = oracles.svd_cond(phi)
    assert np.max(np.abs(report.cond - ref) / ref) < 1e-10


@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_iwasawa_masks_degenerate_nodes(bad):
    xi = paraboloid_potential()
    grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, 5, 5)
    phi = integrate_potential(xi, grid, order=6)
    F0, Bp0, _ = iwasawa(phi)
    broken = MatrixLoop(phi.coeffs.copy(), phi.low, phi.parity)
    broken.coeffs[1, 3] = bad
    F, Bp, report = iwasawa(broken)
    expected = np.zeros(grid.shape, dtype=bool)
    expected[1, 3] = True
    assert np.array_equal(report.failed, expected)
    assert not np.isfinite(report.cond[1, 3])
    identity = np.zeros_like(Bp.coeffs[1, 3])
    identity[0] = np.eye(2)
    assert np.array_equal(Bp.coeffs[1, 3], identity)
    assert np.array_equal(F.coeffs[~expected], F0.coeffs[~expected])
    assert np.array_equal(Bp.coeffs[~expected], Bp0.coeffs[~expected])
    _dirac_gauge(xi, grid, F, Bp, report.ok())


def test_pipeline_paraboloid_matches_closed_surfaces(grid21):
    res = run_example("paraboloid", grid=grid21,
                      lam_samples=[1.0, np.exp(1j * np.pi / 3)])
    assert res.recon_residual < 1e-8
    assert res.reality_residual < 1e-8
    for sym, lam in zip(res.sym, res.lam_samples):
        fm = sym.f_minus.coords
        fp = sym.f_plus.coords
        assert np.max(np.abs(fm - paraboloid_surface(grid21, lam))) < 1e-7
        assert np.max(np.abs(fp - paraboloid_dual_surface(grid21, lam))) < 1e-7


def test_pipeline_helicoid_self_dual(grid21):
    res = run_example("helicoid", grid=grid21, lam_samples=[1.0])
    sym = res.sym[0]
    fit = mc_equivalent(sym.f_minus, sym.f_plus, allow_reflection=True)
    assert fit.equivalent, f"residual {fit.residual:.3e} kind {fit.kind}"
    # the two sheets trade places across the parameter reversal z -> -z
    assert fit.kind == "reflection-rev"
    assert fit.residual < 1e-9


def test_helicoid_reparametrized_self_duality_identity():
    # e^{u*} = e^u fails pointwise for the helicoid; the support satisfies
    # the reversal form of the self-duality identity instead:
    # 16 |B(z)| = h(z) h(-z)
    from nildual.nil3 import DomainGrid, left_maurer_cartan
    from nildual.spinors import dirac_data, spinors_from_phi, uh_from_spinors
    g = DomainGrid(-0.7, 0.7, -0.7, 0.7, 61, 61)
    res = run_example("helicoid", grid=g, lam_samples=[1.0])
    s = spinors_from_phi(left_maurer_cartan(res.sym[0].f_minus),
                         conformal_tol=1e-2)
    d = dirac_data(s)
    _, h = uh_from_spinors(s)
    lhs = 16.0 * np.abs(d.B)
    rhs = h * h[::-1, ::-1]
    core = np.s_[4:-4, 4:-4]
    assert np.max(np.abs(lhs - rhs)[core] / rhs[core]) < 1e-5
    # and h is genuinely non-constant, so the unreversed form cannot hold
    assert h.max() / h.min() > 1.5


def test_pipeline_smyth_masks_origin():
    res = run_example("smyth-1", lam_samples=[1.0])
    io = res.grid.ny // 2
    jo = res.grid.nx // 2
    assert not res.mask[io, jo]
    assert np.sum(~res.mask) < res.grid.nx * res.grid.ny // 4


def test_truncation_order_controls_reconstruction(grid21):
    xi = paraboloid_potential()
    residuals = []
    for order in (4, 8, 12):
        phi = integrate_potential(xi, grid21, order=order, substeps=4)
        F, Bp, _ = iwasawa(phi)
        recon, _ = iwasawa_residuals(phi, F, Bp)
        residuals.append(recon)
    assert residuals[0] > residuals[1] > residuals[2] or residuals[2] < 1e-12


def test_helicoid_big_cell_everywhere(grid21):
    res = run_example("helicoid", grid=grid21, lam_samples=[1.0])
    assert not np.any(res.report.failed)
    assert np.max(res.report.cond) < 1e9

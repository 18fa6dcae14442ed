import numpy as np
import pytest

from nildual.dualize import dual_spinors
from nildual.frames import FrameField, integrate_frame
from nildual.nil3 import SurfaceGrid
from nildual.spinors import SpinorField, dirac_data, gauss_map
from nildual.sym import (
    extract_dual_spinors,
    gauss_from_normal_field,
    mc_equivalent,
    sym_maps,
)

from .oracles import (
    nil3_mul,
    paraboloid_dual_surface,
    paraboloid_frame,
    paraboloid_spinors,
    paraboloid_surface,
)


def _closed_frame_field(grid, lam):
    """FrameField from the closed-form family, lam-derivatives by exact
    differentiation of the hyperbolic entries."""
    lam = complex(lam)
    zz = grid.zz
    p = -0.25j * zz / lam
    ps = 0.25j * lam * np.conj(zz)
    q = 0.25j * zz / lam**2 + 0.25j * np.conj(zz)     # d(p+ps)/dlam
    q2 = -0.5j * zz / lam**3                          # second derivative
    c, s = np.cosh(p + ps), np.sinh(p + ps)
    r = np.exp(0.25j * np.pi)
    def pack(e11, e12, e21, e22):
        out = np.empty(grid.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = e11 / r
        out[..., 0, 1] = e12 / r
        out[..., 1, 0] = e21 * r
        out[..., 1, 1] = e22 * r
        return out
    F = pack(c, s, s, c)
    F1 = pack(s * q, c * q, c * q, s * q)
    F2 = pack(c * q * q + s * q2, s * q * q + c * q2,
              s * q * q + c * q2, c * q * q + s * q2)
    return FrameField(F=F, F_lam=F1, F_lam2=F2, lam=lam, grid=grid)


@pytest.mark.parametrize("lam", [1.0 + 0.0j, np.exp(1j * np.pi / 3), 1j])
def test_sym_reproduces_closed_forms(grid41, lam):
    fr = _closed_frame_field(grid41, lam)
    sym = sym_maps(fr)
    assert np.max(np.abs(sym.f_minus.coords - paraboloid_surface(grid41, lam))) < 1e-10
    assert np.max(np.abs(sym.f_plus.coords - paraboloid_dual_surface(grid41, lam))) < 1e-10
    assert sym.reality_residual < 1e-12


def test_sym_constant_frame_degenerates(grid_small):
    eye = np.broadcast_to(np.eye(2, dtype=complex),
                          grid_small.shape + (2, 2)).copy()
    zero = np.zeros_like(eye)
    fr = FrameField(F=eye, F_lam=zero, F_lam2=zero, lam=1.0 + 0.0j,
                    grid=grid_small)
    sym = sym_maps(fr)
    # m_pm = +-(i/2) sigma3 is diagonal: both sheets collapse to one point
    assert np.max(np.abs(sym.f_minus.coords - sym.f_minus.coords[0, 0])) < 1e-14
    assert np.max(np.abs(sym.f_plus.coords - sym.f_plus.coords[0, 0])) < 1e-14


def test_n_m_structure(grid41):
    fr = _closed_frame_field(grid41, np.exp(0.4j))
    sym = sym_maps(fr)
    det = np.linalg.det(sym.n_m)
    tr = np.trace(sym.n_m, axis1=-2, axis2=-1)
    assert np.max(np.abs(det - 0.25)) < 1e-12
    assert np.max(np.abs(tr)) < 1e-12


def test_normal_agreement_with_spinors(grid41):
    fr = _closed_frame_field(grid41, 1.0)
    sym = sym_maps(fr)
    g_frame = gauss_from_normal_field(sym.n_m)
    psi1, psi2 = paraboloid_spinors(grid41)
    g_spin, _ = gauss_map(SpinorField(psi1, psi2, grid41))
    assert np.max(np.abs(g_frame - g_spin)) < 1e-12


def test_extract_dual_spinors_matches_dualize(grid41):
    # lam = 1: extraction from the plus sheet against the algebraic dual
    fr = _closed_frame_field(grid41, 1.0)
    sym = sym_maps(fr)
    extracted = extract_dual_spinors(sym)
    psi1, psi2 = paraboloid_spinors(grid41)
    s = SpinorField(psi1, psi2, grid41)
    pair = dual_spinors(s, dirac_data(s))
    for got, want in ((extracted.psi1, pair.dual.psi1),
                      (extracted.psi2, pair.dual.psi2)):
        ok = np.abs(want) > 1e-3
        ratio = got[ok] / want[ok]
        assert np.std(ratio) < 1e-6
        assert abs(abs(ratio.flat[0]) - 1.0) < 1e-6


@pytest.mark.parametrize("lam", [np.exp(1j * np.pi / 3)])
def test_extract_dual_spinors_factor_constant_offcircle_lambda(grid41, lam):
    # at lam != 1 the two routes differ by component-wise unimodular
    # constants (lam^{+-1/2} weights): each ratio field must be constant
    fr = _closed_frame_field(grid41, lam)
    sym = sym_maps(fr)
    extracted = extract_dual_spinors(sym)

    surf_minus = sym.f_minus
    from nildual.nil3 import left_maurer_cartan
    from nildual.spinors import spinors_from_phi
    s_minus = spinors_from_phi(left_maurer_cartan(surf_minus), lam=lam)
    d_minus = dirac_data(s_minus)
    pair = dual_spinors(s_minus, d_minus)
    ratios = []
    for got, want in ((extracted.psi1, pair.dual.psi1),
                      (extracted.psi2, pair.dual.psi2)):
        # properly-centred nodes: the data went through two stencil
        # generations, so the clean region starts 4 nodes from the edge
        ok = np.zeros(grid41.shape, dtype=bool)
        ok[4:-4, 4:-4] = True
        ok &= (np.abs(want) > 1e-3) & pair.mask
        ratio = got[ok] / want[ok]
        assert np.std(ratio) < 1e-6
        assert abs(abs(ratio.flat[0]) - 1.0) < 1e-6
        ratios.append(ratio.flat[0])
    # the two component factors are conjugate (their product is +-1)
    prod = ratios[0] * ratios[1]
    assert min(abs(prod - 1.0), abs(prod + 1.0)) < 1e-6


def test_mc_equivalent_translation(grid41):
    f = SurfaceGrid(paraboloid_surface(grid41), grid41)
    g = SurfaceGrid(nil3_mul(np.array([0.7, -0.2, 1.1]),
                             paraboloid_surface(grid41)), grid41)
    fit = mc_equivalent(f, g)
    assert fit.equivalent
    assert fit.kind == "rotation" and abs(fit.theta) < 1e-9
    assert fit.residual < 1e-9


def test_mc_equivalent_rotation(grid41):
    f = SurfaceGrid(paraboloid_surface(grid41), grid41)
    th = 0.83
    c, s = np.cos(th), np.sin(th)
    x = paraboloid_surface(grid41)
    rot = np.stack([c * x[..., 0] - s * x[..., 1],
                    s * x[..., 0] + c * x[..., 1],
                    x[..., 2]], axis=-1)
    fit = mc_equivalent(f, SurfaceGrid(rot, grid41))
    assert fit.equivalent and abs((fit.theta - th + np.pi) % (2 * np.pi) - np.pi) < 1e-6


def test_mc_equivalent_self_duality_needs_reflection(grid41):
    f = SurfaceGrid(paraboloid_surface(grid41), grid41)
    g = SurfaceGrid(paraboloid_dual_surface(grid41), grid41)
    assert not mc_equivalent(f, g).equivalent
    fit = mc_equivalent(f, g, allow_reflection=True)
    assert fit.equivalent
    assert fit.kind == "reflection"
    assert fit.residual < 1e-9


def test_mc_equivalent_distinguishes_surfaces(grid41):
    f = SurfaceGrid(paraboloid_surface(grid41), grid41)
    # a sheared variant is not congruent
    x = paraboloid_surface(grid41).copy()
    x[..., 2] += 0.3 * x[..., 0] ** 2
    fit = mc_equivalent(f, SurfaceGrid(x, grid41), allow_reflection=True)
    assert not fit.equivalent


def test_sym_from_integrated_frame_matches(grid41):
    # pipeline-independent route: integrate the frame from analytic data
    # and hand it to the surface formula
    from .test_frames import _analytic_pb_dirac
    d = _analytic_pb_dirac(grid41)
    lam = 1.0 + 0.0j
    base = paraboloid_frame(grid41.node_z(*grid41.centre), lam)
    fr = integrate_frame(d, lam, base_value=base)
    # base derivative is zero in the joint system while the closed-form
    # family has a lam-dependent base: check the conformality of the output
    # directly
    sym = sym_maps(fr)
    from nildual.nil3 import conformality_residual, left_maurer_cartan
    res, _ = conformality_residual(left_maurer_cartan(sym.f_minus))
    assert np.max(res[3:-3, 3:-3]) < 1e-6

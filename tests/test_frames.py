import numpy as np
import pytest

from nildual.errors import VerticalPointError
from nildual.frames import (
    _connection,
    flatness_residual,
    frame_compatibility_residual,
    frame_from_spinors,
)
from nildual.loops import SIGMA3, SQRT_I, su11_residual
from nildual.nil3 import DomainGrid, interior_max
from nildual.spinors import DiracData, SpinorField, dirac_data, uh_from_spinors

from .oracles import connection_at, march, paraboloid_frame, paraboloid_spinors


@pytest.fixture
def pb(grid41):
    psi1, psi2 = paraboloid_spinors(grid41)
    s = SpinorField(psi1, psi2, grid41)
    return s, dirac_data(s)


def _analytic_pb_dirac(grid):
    """Stencil-free paraboloid data: e^{w/2} = i/4, B = 1/16, w_z = 0."""
    shape = grid.shape
    return DiracData(
        B=np.full(shape, 1.0 / 16.0, dtype=complex),
        H=np.zeros(shape),
        ew2=np.full(shape, 0.25j, dtype=complex),
        consistency=np.zeros(shape),
        grid=grid,
        w_z=np.zeros(shape, dtype=complex),
    )


def test_connection_paraboloid(grid41):
    d = _analytic_pb_dirac(grid41)
    U, V = (L.eval(1.0) for L in _connection(d))
    # B e^{-w/2} = (1/16)(-4i) = -i/4
    expected_U = np.array([[0.0, -0.25j], [-0.25j, 0.0]])
    expected_V = np.array([[0.0, 0.25j], [0.25j, 0.0]])
    assert np.max(np.abs(U - expected_U)) < 1e-14
    assert np.max(np.abs(V - expected_V)) < 1e-14
    # lam -> -lam flips the off-diagonal signs only
    U2, V2 = (L.eval(-1.0) for L in _connection(d))
    assert np.max(np.abs(U2 + expected_U)) < 1e-14
    assert np.max(np.abs(np.diagonal(U2, axis1=-2, axis2=-1))) < 1e-14


def test_connection_zero_B_node(grid41):
    d = _analytic_pb_dirac(grid41)
    d.B = np.zeros_like(d.B)
    U = _connection(d)[0].eval(1.0)
    assert np.max(np.abs(U[..., 1, 0])) == 0.0


def _connection_closed_forms(d, lam):
    """U, V and their first two lam-derivatives written out by hand:
    U0 + Um/lam, -Um/lam^2, 2 Um/lam^3 and V0 + lam Vp, Vp, 0."""
    U0, Um, V0, Vp = (np.zeros(d.grid.shape + (2, 2), dtype=complex)
                      for _ in range(4))
    U0[..., 0, 0], U0[..., 1, 1] = 0.25 * d.w_z, -0.25 * d.w_z
    Um[..., 0, 1], Um[..., 1, 0] = -d.ew2, d.B / d.ew2
    V0[..., 0, 0] = -0.25 * np.conj(d.w_z)
    V0[..., 1, 1] = 0.25 * np.conj(d.w_z)
    Vp[..., 0, 1], Vp[..., 1, 0] = -np.conj(d.B) / d.ew2, d.ew2
    return ([U0 + Um / lam, -Um / lam**2, 2.0 * Um / lam**3],
            [V0 + lam * Vp, Vp, np.zeros_like(Vp)])


def _synthetic_dirac(grid, seed):
    rng = np.random.default_rng(seed)
    B, ew2, w_z = (rng.normal(size=(3,) + grid.shape)
                   + 1j * rng.normal(size=(3,) + grid.shape))
    return DiracData(B=B, H=np.zeros(grid.shape), ew2=1.5 + ew2,
                     consistency=np.zeros(grid.shape), grid=grid, w_z=w_z)


@pytest.mark.parametrize("lam", [1.0, np.exp(1j * np.pi / 3), -1.0])
def test_connection_loops_match_closed_forms(pb, grid_small, lam):
    # each field and lam-derivative within 4 ulps of its largest |entry|;
    # at lam = 1 every value is the closed form's, and U and V are bit for
    # bit (U's first derivative may differ in the sign of a zero entry)
    for d in (pb[1], _synthetic_dirac(grid_small, 2901)):
        for L, forms in zip(_connection(d), _connection_closed_forms(d, lam)):
            for k, want in enumerate(forms):
                got = L.eval(lam, k)
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 4 * np.spacing(scale)
                if lam == 1.0:
                    assert np.array_equal(got, want)
                    assert k > 0 or got.tobytes() == want.tobytes()


def test_flatness_paraboloid_constant(grid41):
    d = _analytic_pb_dirac(grid41)
    lam = np.exp(1j * np.pi / 3)
    res = np.maximum(flatness_residual(connection_at(d, 1.0), grid41),
                     flatness_residual(connection_at(d, lam), grid41))
    assert np.max(res) < 1e-13


def test_flatness_extracted(pb):
    _, d = pb
    res = np.maximum(flatness_residual(connection_at(d, 1.0), d.grid),
                     flatness_residual(connection_at(d, 1j), d.grid))
    assert interior_max(res) < 1e-6


def test_flatness_detects_nonintegrable(grid41):
    # synthetic w = 0, B = z: [U, V] = diag(|z|^2 - 1, 1 - |z|^2) at lam = 1
    # while dzV = dzbarU = 0, so the residual equals |1 - |z|^2| exactly
    shape = grid41.shape
    d = DiracData(
        B=grid41.zz.astype(complex),
        H=np.zeros(shape),
        ew2=np.ones(shape, dtype=complex),
        consistency=np.zeros(shape),
        grid=grid41,
        w_z=np.zeros(shape, dtype=complex),
    )
    res = flatness_residual(connection_at(d, 1.0), grid41)
    expected = np.abs(1.0 - np.abs(grid41.zz) ** 2)
    # dz of the polynomial entries is exact to stencil accuracy; the
    # commutator entry dominates
    assert np.max(np.abs(res - expected)) < 1e-8
    assert np.max(res) > 0.9


def test_integrate_frame_matches_closed_form(grid41):
    d = _analytic_pb_dirac(grid41)
    for lam in (1.0 + 0.0j, np.exp(1j * np.pi / 3)):
        base = paraboloid_frame(grid41.node_z(*grid41.centre), lam)
        fr = march(d, lam, base_value=base)
        expected = paraboloid_frame(grid41.zz, lam)
        assert np.max(np.abs(fr.F - expected)) < 1e-8
        assert np.max(su11_residual(fr.F)) < 1e-8


def test_integrate_frame_lambda_derivatives(grid41):
    # F_lam from the joint system vs central differences across lam; the
    # family is normalized at the base node (identity for every lam), which
    # is what the zero initial derivative of the joint system encodes
    d = _analytic_pb_dirac(grid41)
    t = 0.3
    dt = 1e-3
    lam0 = np.exp(1j * t)
    fr0 = march(d, lam0)
    frp = march(d, np.exp(1j * (t + dt)))
    frm = march(d, np.exp(1j * (t - dt)))
    dlam = 1j * lam0 * dt
    fd = (frp.F - frm.F) / (2.0 * dlam)
    assert np.max(np.abs(fr0.F_lam - fd)) < 5e-5
    # second derivative consistency via first differences of F_lam
    fd_lam = (frp.F_lam - frm.F_lam) / (2.0 * dlam)
    assert np.max(np.abs(fr0.F_lam2 - fd_lam)) < 5e-5


def test_integrate_frame_path_independence(pb):
    _, d = pb
    a = march(d, 1.0, column_first=True)
    b = march(d, 1.0, column_first=False)
    assert np.max(np.abs(a.F - b.F)) < 1e-6


def test_frame_compatibility(pb):
    _, d = pb
    fr = march(d, np.exp(1j * np.pi / 3))
    res = frame_compatibility_residual(fr, connection_at(d, fr.lam))
    assert interior_max(res) < 1e-6


def test_frame_from_spinors(pb, grid41):
    s, _ = pb
    F = frame_from_spinors(s)
    assert np.max(su11_residual(F)) < 1e-13
    expected = paraboloid_frame(grid41.zz, 1.0)
    assert np.max(np.abs(F - expected)) < 1e-12


def test_frame_from_spinors_simple(grid_small):
    ones = np.ones(grid_small.shape, dtype=complex)
    zeros = np.zeros(grid_small.shape, dtype=complex)
    F = frame_from_spinors(SpinorField(ones, zeros, grid_small))
    assert np.allclose(F[..., 0, 0], 1.0 / SQRT_I)
    assert np.allclose(F[..., 1, 1], SQRT_I)
    with pytest.raises(VerticalPointError):
        frame_from_spinors(SpinorField(zeros, ones, grid_small))


def test_frame_from_spinors_random_su11(grid_small, rng):
    psi1 = 1.5 + 0.3 * (rng.normal(size=grid_small.shape)
                        + 1j * rng.normal(size=grid_small.shape))
    psi2 = 0.3 * (rng.normal(size=grid_small.shape)
                  + 1j * rng.normal(size=grid_small.shape))
    F = frame_from_spinors(SpinorField(psi1, psi2, grid_small))
    assert np.max(su11_residual(F)) < 1e-13


def test_spinors_from_frame_roundtrip(pb):
    # the frame's first row is the spinor pair over sqrt(i), normalized to
    # |psi1|^2 - |psi2|^2 = h/2: sqrt(h/2) sqrt(i) F[0] gives it back
    s, _ = pb
    F = frame_from_spinors(s)
    _, h = uh_from_spinors(s)
    scale = np.sqrt(h / 2.0) * SQRT_I
    assert np.max(np.abs(scale * F[..., 0, 0] - s.psi1)) < 1e-12
    assert np.max(np.abs(scale * F[..., 0, 1] - s.psi2)) < 1e-12


def test_spinor_scale_detects_wrong_support(pb):
    # a wrong support scale s^2 h scales the spinors by s (phi by s^2)
    s, _ = pb
    F = frame_from_spinors(s)
    _, h = uh_from_spinors(s)
    scale = np.sqrt(4.0 * h / 2.0) * SQRT_I
    assert np.max(np.abs(scale * F[..., 0, 0] - 2.0 * s.psi1)) < 1e-12
    assert np.max(np.abs(scale * F[..., 0, 1] - 2.0 * s.psi2)) < 1e-12


def test_twisted_parity_of_frames(grid41):
    d = _analytic_pb_dirac(grid41)
    lam = np.exp(0.7j)
    base_p = paraboloid_frame(grid41.node_z(*grid41.centre), lam)
    base_m = paraboloid_frame(grid41.node_z(*grid41.centre), -lam)
    Fp = march(d, lam, base_value=base_p).F
    Fm = march(d, -lam, base_value=base_m).F
    assert np.max(np.abs(Fm - SIGMA3 @ Fp @ SIGMA3)) < 1e-8

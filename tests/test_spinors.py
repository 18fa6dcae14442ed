import numpy as np
import pytest

from nildual.errors import (
    NonConformalError,
    NonImmersionError,
    NonMinimalError,
    VerticalPointError,
)
from nildual.nil3 import (
    DomainGrid,
    PhiField,
    SurfaceGrid,
    conformality_residual,
    left_maurer_cartan,
)
from nildual.spinors import (
    SpinorField,
    continued_sqrt,
    dirac_data,
    gauss_map,
    harmonic_residual,
    holomorphy_residual,
    phi_from_spinors,
    spinors_from_phi,
    uh_from_spinors,
)

from . import oracles
from .oracles import paraboloid_phi, paraboloid_spinors, paraboloid_surface


@pytest.fixture
def pb_spinors(grid41):
    psi1, psi2 = paraboloid_spinors(grid41)
    return SpinorField(psi1, psi2, grid41)


def test_phi_from_spinors_constant(grid_small):
    psi1 = np.full(grid_small.shape, 1.0 / np.sqrt(2.0), dtype=complex)
    psi2 = np.zeros(grid_small.shape, dtype=complex)
    phi = phi_from_spinors(SpinorField(psi1, psi2, grid_small))
    assert np.allclose(phi.phi1, -0.5)
    assert np.allclose(phi.phi2, 0.5j)
    assert np.allclose(phi.phi3, 0.0)


def test_phi_from_spinors_paraboloid(pb_spinors, grid41):
    phi = phi_from_spinors(pb_spinors)
    assert np.max(np.abs(phi.phi - paraboloid_phi(grid41))) < 1e-12
    res, _ = conformality_residual(phi)
    assert np.max(res) < 1e-12


def test_phi_from_spinors_matches_surface_extraction(pb_spinors, grid41):
    from_surface = left_maurer_cartan(
        SurfaceGrid(paraboloid_surface(grid41), grid41))
    algebraic = phi_from_spinors(pb_spinors)
    assert np.max(np.abs(from_surface.phi - algebraic.phi)) < 1e-6


def test_uh_paraboloid(pb_spinors, grid41):
    e_u, h = uh_from_spinors(pb_spinors)
    y = grid41.ys[:, None] + 0.0 * grid41.xs[None, :]
    assert np.max(np.abs(e_u - np.cosh(y) ** 2)) < 1e-12
    assert np.max(np.abs(h - 1.0)) < 1e-12
    # e^u agrees with the frame-component sum
    _, e_u2 = conformality_residual(phi_from_spinors(pb_spinors))
    assert np.max(np.abs(e_u - e_u2)) < 1e-10


def test_uh_simple_cases(grid_small):
    ones = np.ones(grid_small.shape, dtype=complex)
    zeros = np.zeros(grid_small.shape, dtype=complex)
    e_u, h = uh_from_spinors(SpinorField(ones, zeros, grid_small))
    assert np.allclose(e_u, 4.0) and np.allclose(h, 2.0)
    e_u, h = uh_from_spinors(SpinorField(ones, ones, grid_small))
    assert np.allclose(h, 0.0)  # vertical configuration


def test_gauss_map(pb_spinors, grid41):
    g, normal = gauss_map(pb_spinors)
    y = grid41.ys[:, None] + 0.0 * grid41.xs[None, :]
    assert np.max(np.abs(g - np.tanh(y / 2.0))) < 1e-12
    assert np.all(normal[..., 2] > 0)
    assert np.max(np.abs(np.sum(normal**2, axis=-1) - 1.0)) < 1e-12
    # h > 0 everywhere iff |g| < 1 everywhere
    _, h = uh_from_spinors(pb_spinors)
    assert np.all((h > 0) == (np.abs(g) < 1))
    # algebraic link h = 2 |psi1|^2 (1 - |g|^2)
    lhs = 2.0 * np.abs(pb_spinors.psi1) ** 2 * (1.0 - np.abs(g) ** 2)
    assert np.max(np.abs(lhs - h)) < 1e-12


def test_gauss_map_north_pole(grid_small):
    ones = np.ones(grid_small.shape, dtype=complex)
    zeros = np.zeros(grid_small.shape, dtype=complex)
    g, normal = gauss_map(SpinorField(ones, zeros, grid_small))
    assert np.allclose(g, 0.0)
    assert np.allclose(normal[..., 2], 1.0)
    with pytest.raises(VerticalPointError):
        gauss_map(SpinorField(zeros, ones, grid_small))


def test_spinors_from_phi_basic(grid_small):
    phi = np.zeros(grid_small.shape + (3,), dtype=complex)
    phi[..., 0] = -0.5
    phi[..., 1] = 0.5j
    s = spinors_from_phi(PhiField(phi, grid_small))
    assert np.max(np.abs(s.psi1 - 1.0 / np.sqrt(2.0))) < 1e-12
    assert np.max(np.abs(s.psi2)) < 1e-12


def test_spinors_from_phi_roundtrip(pb_spinors, grid41):
    phi = phi_from_spinors(pb_spinors)
    s = spinors_from_phi(phi)
    # global sign only; both signs regenerate identical phi
    sign = np.sign((s.psi1 * np.conj(pb_spinors.psi1)).real[0, 0])
    assert np.max(np.abs(s.psi1 - sign * pb_spinors.psi1)) < 1e-10
    assert np.max(np.abs(s.psi2 - sign * pb_spinors.psi2)) < 1e-10
    phi2 = phi_from_spinors(s)
    assert np.max(np.abs(phi2.phi - phi.phi)) < 1e-12


def test_spinors_from_phi_rejects_nonconformal(grid_small):
    phi = np.zeros(grid_small.shape + (3,), dtype=complex)
    phi[..., 0] = 1.0
    with pytest.raises(NonConformalError):
        spinors_from_phi(PhiField(phi, grid_small))


def test_spinors_from_phi_rejects_an_empty_mask(grid_small):
    phi = np.zeros(grid_small.shape + (3,), dtype=complex)
    phi[..., 0] = -0.5
    phi[..., 1] = 0.5j
    with pytest.raises(NonImmersionError, match="no node"):
        spinors_from_phi(PhiField(phi, grid_small),
                         mask=np.zeros(grid_small.shape, dtype=bool))


def test_dirac_data_paraboloid(pb_spinors):
    d = dirac_data(pb_spinors)
    assert np.max(np.abs(d.ew2 - 0.25j)) < 1e-7
    assert np.max(d.consistency) < 1e-7
    assert np.max(np.abs(d.H)) < 1e-7
    assert np.max(np.abs(d.B - 1.0 / 16.0)) < 1e-7
    # e^{w/2} = (i/4) h for minimal data
    _, h = uh_from_spinors(pb_spinors)
    assert np.max(np.abs(d.ew2 - 0.25j * h)) < 1e-7


def test_dirac_data_is_stencil_fourth_order(grid_small):
    errs = []
    fine = DomainGrid(grid_small.x0, grid_small.x1, grid_small.y0,
                      grid_small.y1, 2 * grid_small.nx - 1, 2 * grid_small.ny - 1)
    for g in (grid_small, fine):
        psi1 = np.cosh(g.zz.imag / 2.0) / np.sqrt(2.0) + 0.0j
        psi2 = np.sinh(g.zz.imag / 2.0) / np.sqrt(2.0) + 0.0j
        d = dirac_data(SpinorField(psi1, psi2, g))
        errs.append(np.max(np.abs(d.B - 1.0 / 16.0)))
    assert errs[0] / errs[1] > 8.0


def test_dirac_data_rejects_nonminimal(grid_small):
    # x-profiled spinors give a real Dirac ratio, i.e. nonzero mean curvature
    x = grid_small.zz.real
    psi1 = np.cosh(x) / np.sqrt(2.0) + 0.0j
    psi2 = np.sinh(x) / np.sqrt(2.0) + 0.0j
    with pytest.raises(NonMinimalError):
        dirac_data(SpinorField(psi1, psi2, grid_small))


def test_dirac_data_rejects_constant_pair(grid_small):
    # psi = (1, 0) solves both ratio equations trivially but its measured
    # potential (zero) contradicts the support closure Im e^{w/2} = h/4
    from nildual.errors import NonImmersionError
    ones = np.ones(grid_small.shape, dtype=complex)
    zeros = np.zeros(grid_small.shape, dtype=complex)
    with pytest.raises(NonImmersionError):
        dirac_data(SpinorField(ones, zeros, grid_small))
    # but it is accepted when minimality is not required (diagnostics mode)
    d = dirac_data(SpinorField(ones, zeros, grid_small),
                   require_minimal=False)
    assert np.max(np.abs(d.ew2)) < 1e-12


def test_holomorphy_residual(grid41):
    B = np.full(grid41.shape, 1.0 / 16.0, dtype=complex)
    assert np.max(holomorphy_residual(B, grid41)) < 1e-12
    assert np.max(holomorphy_residual(grid41.zz.copy(), grid41)) < 1e-10
    res = holomorphy_residual(np.conj(grid41.zz), grid41)
    assert np.max(np.abs(res - 1.0)) < 1e-10


def test_harmonic_residual_paraboloid(pb_spinors, grid41):
    # second-derivative quantity: the boundary-band floor at h = 0.05 is ~1e-6
    g, _ = gauss_map(pb_spinors)
    assert np.max(harmonic_residual(g, grid41)) < 2e-6


def test_harmonic_residual_constant(grid_small):
    g = np.full(grid_small.shape, 0.3 + 0.1j)
    assert np.max(harmonic_residual(g, grid_small)) < 1e-12


def test_harmonic_residual_holomorphic_is_harmonic(grid_small):
    # holomorphic maps into the disk are harmonic: g_zbar = 0 kills both terms
    g = grid_small.zz / 2.0
    assert np.max(harmonic_residual(g, grid_small)) < 1e-10


def test_harmonic_residual_detects_nonharmonic(grid_small):
    # g = x/2: g_z = g_zbar = 1/4, g_zzbar = 0, so the tension is
    # 2*(x/2)*(1/16)/(1 - x^2/4) = x / (16 - 4 x^2)  -- hand-derived oracle
    x = grid_small.zz.real
    g = x / 2.0 + 0.0j
    res = harmonic_residual(g, grid_small)
    expected = np.abs(x / (16.0 - 4.0 * x**2))
    assert np.max(np.abs(res - expected)) < 1e-8
    assert np.max(res) > 1e-3


from hypothesis import given, settings
from hypothesis import strategies as st

amp = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def rough_spinor_pairs(draw):
    """Node-wise arbitrary pairs with |psi1| bounded away from |psi2|."""
    vals = [complex(draw(amp), draw(amp)) for _ in range(4)]
    psi1 = 1.5 + 0.4 * vals[0] + 0.4j * vals[1]
    psi2 = 0.4 * vals[2] + 0.4j * vals[3]
    return psi1, psi2


@given(st.lists(rough_spinor_pairs(), min_size=25, max_size=25))
@settings(max_examples=25, deadline=None)
def test_phi_spinor_roundtrip_is_algebraic(pairs):
    # the inversion is exact node algebra: it regenerates phi even from
    # rough (non-smooth) spinor fields, independent of branch choices
    from nildual.nil3 import DomainGrid
    grid = DomainGrid(0.0, 1.0, 0.0, 1.0, 5, 5)
    psi1 = np.array([p for p, _ in pairs]).reshape(5, 5)
    psi2 = np.array([q for _, q in pairs]).reshape(5, 5)
    phi = phi_from_spinors(SpinorField(psi1, psi2, grid))
    back = spinors_from_phi(phi, conformal_tol=1e-8)
    phi2 = phi_from_spinors(back)
    assert np.max(np.abs(phi2.phi - phi.phi)) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_continued_sqrt_matches_node_by_node_reference(seed):
    # 10 % holes, exact zeros (ties that restart the sign), a winding field
    # whose sweep crosses branch cuts, and roots with signed zero parts
    rng = np.random.default_rng(seed)
    grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, 101, 101)
    field = ((grid.zz - 0.1 - 0.2j) ** 3
             * (1.0 + 0.3 * rng.normal(size=grid.shape)))
    field[rng.random(grid.shape) < 0.02] = 0.0
    field[5, 7] = complex(-0.0, 0.0)
    # real rows: principal roots with a zero real or imaginary part; on the
    # negative axis the imaginary zero's sign alternates, so the root flips
    # at every step and its real part must come out -0.0
    field[40:43] = np.sign(field[40:43].real) * (1.0 + grid.xs ** 2)
    field[43:46] = -(1.0 + grid.xs ** 2) + 0j
    field[43:46, 1::2] = np.conj(field[43:46, 1::2])
    valid = rng.random(grid.shape) >= 0.1
    (a, cuts), (b, ref_cuts) = (
        continued_sqrt(field, grid, valid),
        oracles.reference_continued_sqrt(field, grid, valid))
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(np.real(a)), np.signbit(np.real(b)))
    assert np.array_equal(np.signbit(np.imag(a)), np.signbit(np.imag(b)))
    assert cuts == ref_cuts
    # some root was continued off numpy's principal branch
    assert cuts and np.any(a != np.sqrt(field))

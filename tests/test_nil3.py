import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nildual.errors import GridTooSmallError
from nildual.nil3 import (
    DomainGrid,
    PhiField,
    SurfaceGrid,
    conformality_residual,
    dz_field,
    dz_pair,
    dzbar_field,
    dzdzbar_field,
    left_maurer_cartan,
    stencil_valid,
    xi_nil_with_residual,
)
from nildual.loops import E1, E2, E3, SIGMA3

from .oracles import (
    nil3_inv,
    nil3_mul,
    paraboloid_phi,
    paraboloid_surface,
    reference_integrate_phi_to_surface,
)

coord = st.floats(-10, 10, allow_nan=False)
point = st.tuples(coord, coord, coord).map(np.array)


def test_mul_basic():
    out = nil3_mul([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert np.allclose(out, [1.0, 1.0, 0.5])


def test_identity_and_inverse():
    p = np.array([0.3, -1.2, 0.7])
    assert np.allclose(nil3_mul(np.zeros(3), p), p)
    assert np.allclose(nil3_mul(p, nil3_inv(p)), np.zeros(3))
    # solved symbolically: q = (-1, -1, -1/2) inverts (1, 1, 1/2)
    q = nil3_inv([1.0, 1.0, 0.5])
    assert np.allclose(q, [-1.0, -1.0, -0.5])
    assert np.allclose(nil3_mul([1.0, 1.0, 0.5], q), np.zeros(3))
    assert np.allclose(nil3_inv([2.5, 0.0, 0.0]), [-2.5, 0.0, 0.0])


@given(point, point, point)
@settings(max_examples=60, deadline=None)
def test_mul_associative(a, b, c):
    left = nil3_mul(nil3_mul(a, b), c)
    right = nil3_mul(a, nil3_mul(b, c))
    assert np.max(np.abs(left - right)) < 1e-12 * max(1.0, np.max(np.abs(left)))


def test_grid_validation():
    with pytest.raises(GridTooSmallError):
        DomainGrid(0, 1, 0, 1, 4, 10)
    with pytest.raises(GridTooSmallError):
        DomainGrid(0, 0, 0, 1, 10, 10)


def test_stencil_fourth_order():
    # smooth oracle: f = exp(x) sin(y); halving h must shrink the error ~16x
    errs = []
    for n in (21, 41):
        g = DomainGrid(-1, 1, -1, 1, n, n)
        f = np.exp(g.zz.real) * np.sin(g.zz.imag)
        exact = 0.5 * (np.exp(g.zz.real) * np.sin(g.zz.imag)
                       - 1j * np.exp(g.zz.real) * np.cos(g.zz.imag))
        errs.append(np.max(np.abs(dz_field(f, g) - exact)))
    assert errs[0] / errs[1] > 8.0


def test_maurer_cartan_paraboloid(grid41):
    surf = SurfaceGrid(paraboloid_surface(grid41), grid41)
    phi = left_maurer_cartan(surf)
    assert np.max(np.abs(phi.phi - paraboloid_phi(grid41))) < 1e-6


def test_maurer_cartan_constant_and_plane(grid_small):
    g = grid_small
    const = SurfaceGrid(np.ones(g.shape + (3,)), g)
    assert np.max(np.abs(left_maurer_cartan(const).phi)) < 1e-12
    # f = (x, y, 0): phi3 = (y/2)*(1/2) - (x/2)*(-i/2) = (y + i x)/4
    coords = np.stack([g.zz.real, g.zz.imag, np.zeros(g.shape)], axis=-1)
    phi = left_maurer_cartan(SurfaceGrid(coords, g))
    expected = (g.zz.imag + 1j * g.zz.real) / 4.0
    assert np.max(np.abs(phi.phi3 - expected)) < 1e-10


def test_maurer_cartan_left_invariant(grid_small):
    coords = paraboloid_surface(grid_small)
    f = SurfaceGrid(coords, grid_small)
    g = SurfaceGrid(nil3_mul(np.array([0.4, -0.9, 1.3]), coords), grid_small)
    d = left_maurer_cartan(f).phi - left_maurer_cartan(g).phi
    assert np.max(np.abs(d)) < 1e-9


def test_conformality_residual(grid41):
    res, e_u = conformality_residual(paraboloid_phi(grid41))
    assert np.max(res) < 1e-12
    y = grid41.ys[:, None] + 0.0 * grid41.xs[None, :]
    assert np.max(np.abs(e_u - np.cosh(y) ** 2)) < 1e-10

    iso = np.zeros((5, 5, 3), dtype=complex)
    iso[..., 0] = 1.0
    iso[..., 1] = 1.0j
    res, e_u = conformality_residual(iso)
    assert np.max(res) < 1e-15 and np.allclose(e_u, 4.0)

    bad = np.zeros((5, 5, 3), dtype=complex)
    bad[..., 0] = 1.0
    res, _ = conformality_residual(bad)
    assert np.allclose(res, 1.0)


def test_xi_nil_basis_vectors():
    for v, want in ((E3, [0.0, 0.0, 1.0]), (2.0 * E1 - E2, [2.0, -1.0, 0.0]),
                    # E3 = -(i/2) sigma3, so (i/2) sigma3 maps to (0, 0, -1)
                    (0.5j * SIGMA3, [0.0, 0.0, -1.0])):
        coords, res = xi_nil_with_residual(v)
        assert np.allclose(coords, want)
        assert res < 1e-15


def test_xi_nil_rejects_off_span():
    bad = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)  # trace != 0
    _, res = xi_nil_with_residual(bad)
    assert res > 0.5


def test_surface_reconstruction_roundtrip(grid_small):
    surf = SurfaceGrid(paraboloid_surface(grid_small), grid_small)
    phi = left_maurer_cartan(surf)
    rebuilt = reference_integrate_phi_to_surface(
        phi, base_point=surf.coords[0, 0])
    assert np.max(np.abs(rebuilt - surf.coords)) < 5e-7


def test_reconstruction_fourth_order(grid_small):
    # exact phi in, so the error is integration-only; must fall ~16x per halving
    errs = []
    fine = DomainGrid(grid_small.x0, grid_small.x1, grid_small.y0,
                      grid_small.y1, 2 * grid_small.nx - 1, 2 * grid_small.ny - 1)
    for g in (grid_small, fine):
        phi = PhiField(paraboloid_phi(g), g)
        base = paraboloid_surface(g)[0, 0]
        rebuilt = reference_integrate_phi_to_surface(phi, base_point=base)
        errs.append(np.max(np.abs(rebuilt - paraboloid_surface(g))))
    assert errs[0] < 5e-7
    assert errs[0] / errs[1] > 8.0


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("line", [3, 4, 5, -4, -5, -6])
def test_stencil_valid_nodes_read_no_masked_node(axis, line):
    # a masked line 3 to 5 nodes from an edge lies inside the one-sided
    # windows of that edge's nodes (5 nodes for the first derivative, 6 for
    # the second): a NaN there must reach no node counted valid
    grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, 21, 21)
    valid = np.ones(grid.shape, dtype=bool)
    np.moveaxis(valid, axis, 0)[line] = False
    f = np.exp(grid.zz)
    holed = f.copy()
    holed[~valid] = np.nan
    keep = stencil_valid(valid)
    assert keep.sum() > grid.nx
    for deriv in (dz_field, dzbar_field, dzdzbar_field):
        got, want = deriv(holed, grid)[keep], deriv(f, grid)[keep]
        assert np.array_equal(got, want)


@pytest.mark.parametrize("grid, leading", [
    (DomainGrid(-1.0, 1.0, -1.0, 1.0, 21, 21), ()),
    (DomainGrid(-1.0, 1.0, -1.0, 1.0, 21, 21), (2, 2)),
    # off-centre, with an even side
    (DomainGrid(-0.9, 1.1, -1.0, 0.9, 30, 41), ()),
    (DomainGrid(-0.9, 1.1, -1.0, 0.9, 30, 41), (2, 2)),
], ids=["scalar", "stack", "off-centre-scalar", "off-centre-stack"])
def test_dz_pair_is_bit_equal_to_dz_and_dzbar(grid, leading):
    rng = np.random.default_rng(11)
    shape = leading + grid.shape
    f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    dz, dzb = dz_pair(f, grid)
    assert dz.tobytes() == dz_field(f, grid).tobytes()
    assert dzb.tobytes() == dzbar_field(f, grid).tobytes()


def test_surface_coords_are_read_only(grid_small):
    coords = paraboloid_surface(grid_small)
    surf = SurfaceGrid(coords, grid_small)
    phi = left_maurer_cartan(surf)
    with pytest.raises(ValueError, match="read-only"):
        surf.coords[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        surf.coords += 1.0
    # the form is formed once, and the array given stays the caller's
    assert left_maurer_cartan(surf) is phi
    coords[0, 0, 0] += 0.0

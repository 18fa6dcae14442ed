"""The path integrators against their references in tests/oracles.py:
Phi's series against the exact rational Phi and the RK4 line march, the
batched frame march bit for bit against its one-line-at-a-time
reference, and the 4th-order convergence the stage scheme promises."""
import importlib.util
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from nildual.frames import integrate_frame
from nildual.loops import class_rows, su11_residual
from nildual.nil3 import DomainGrid
from nildual.potentials import (
    HoloPotential,
    helicoid_potential,
    integrate_potential,
    paraboloid_potential,
    smyth_potential,
)
from nildual.spinors import SpinorField, dirac_data

from . import oracles

GRID = DomainGrid(-0.6, 0.4, -0.5, 0.5, 13, 11)
# odd and centred on 0, as every built-in grid
CENTRED = DomainGrid(-0.5, 0.5, -0.4, 0.4, 11, 9)


def polynomial_potential(powers=(-1, 0, 1), seed=7):
    """Random quadratic entries on `powers`, the entries the twisted
    grading forbids zeroed, at the built-in potentials' scale (entries
    about 1/4)."""
    rng = np.random.default_rng(seed)
    terms = {}
    for j in powers:
        c = 0.25 * (rng.normal(size=(3, 2, 2))
                    + 1j * rng.normal(size=(3, 2, 2)))
        c[:, class_rows(2, [j])[1, 0], [0, 1]] = 0.0
        terms[j] = c
    return HoloPotential(terms)


@pytest.mark.parametrize("column_first", [True, False])
@pytest.mark.parametrize("make_xi", [paraboloid_potential, helicoid_potential,
                                     polynomial_potential])
@pytest.mark.parametrize("z0, grid", [
    pytest.param(0j, GRID, id="0j"),
    pytest.param(0.3 - 0.2j, GRID, id="(0.3-0.2j)"),
    pytest.param(0j, CENTRED, id="0j-centred"),
    pytest.param(0.3 - 0.2j, CENTRED, id="(0.3-0.2j)-centred")])
def test_integrate_potential_matches_line_reference(make_xi, column_first, z0,
                                                    grid):
    # Phi from z0 is the series of xi(. + z0) on the grid shifted by -z0.
    # The RK4 line reference on both of its paths, at 3 and 6 substeps:
    # the series is closer to the finer march than the two marches are to
    # each other
    xi = oracles.shifted_potential(make_xi(), z0)
    grid = oracles.shifted_grid(grid, z0)
    got = integrate_potential(xi, grid, order=6)
    ref3, ref6 = (oracles.reference_integrate_potential(
        xi, grid, order=6, substeps=s, column_first=column_first)
        for s in (3, 6))
    # Phi is returned on its own powers; the reference's dense loop holds
    # exact zeros above them
    kept = got.high - ref6.low + 1
    assert got.low == ref6.low
    assert not ref6.coeffs[..., kept:, :, :].any()
    step = np.max(np.abs(ref3.coeffs - ref6.coeffs))
    assert np.max(np.abs(got.coeffs - ref6.coeffs[..., :kept, :, :])) <= step


@pytest.mark.parametrize("make_xi, grid", [
    (paraboloid_potential, DomainGrid(-1.0, 1.0, -1.0, 1.0, 9, 9)),
    (partial(smyth_potential, 2), DomainGrid(-0.5, 0.5, -0.5, 0.5, 9, 9)),
    (partial(polynomial_potential, (-1,), 11),
     DomainGrid(-0.5, 0.5, -0.5, 0.5, 9, 9))],
    ids=["paraboloid", "smyth-2", "quadratic"])
def test_integrate_potential_matches_exact_phi(make_xi, grid):
    # the exact rational Phi of a minus-loop potential at the default order;
    # an RK4 march at 8 substeps misses it by 1e-11 to 4e-10
    xi = make_xi()
    phi = integrate_potential(xi, grid)
    exact = oracles.exact_minus_loop_phi(xi, grid, phi.order)
    scale = np.max(np.abs(exact[..., -1, :, :]))
    assert np.max(np.abs(phi.coeffs - exact)) <= 1e-15 * scale


@pytest.mark.parametrize("column_first", [True, False])
@pytest.mark.parametrize("nx, ny", [(17, 15), (16, 12)])
def test_integrate_frame_matches_line_reference(column_first, nx, ny):
    # odd sides: both halves of each line from the centre node go as one
    # batch; even sides: the halves differ in length and go one by one
    grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, nx, ny)
    psi1, psi2 = oracles.paraboloid_spinors(grid)
    d = dirac_data(SpinorField(psi1, psi2, grid))
    base = oracles.paraboloid_frame(grid.node_z(*grid.centre))
    for lam in (1.0, np.exp(1j * np.pi / 3)):
        fr = integrate_frame(d, lam, base_value=base,
                             column_first=column_first)
        F, F_lam, F_lam2 = oracles.reference_integrate_frame(
            d, lam, base_value=base, column_first=column_first)
        assert np.array_equal(fr.F, F)
        assert np.array_equal(fr.F_lam, F_lam)
        assert np.array_equal(fr.F_lam2, F_lam2)


@pytest.mark.parametrize("column_first", [True, False])
@pytest.mark.parametrize("nx, ny", [(17, 15), (8, 6)])
def test_integrate_frame_alone_is_the_joint_march_slice(column_first, nx, ny):
    # the 8x6 grid drifts off SU(1,1) by more than 1e-6: no node is
    # repaired, so the slice stays bit-equal there too
    grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, nx, ny)
    psi1, psi2 = oracles.paraboloid_spinors(grid)
    d = dirac_data(SpinorField(psi1, psi2, grid))
    base = oracles.paraboloid_frame(grid.node_z(*grid.centre))
    drifts = []
    for lam in (1.0, np.exp(1j * np.pi / 3)):
        kw = dict(base_value=base, column_first=column_first)
        joint = integrate_frame(d, lam, **kw)
        alone = integrate_frame(d, lam, derivatives=False, **kw)
        assert alone.F.shape == joint.F.shape
        assert alone.F.tobytes() == joint.F.tobytes()
        assert alone.F_lam is None and alone.F_lam2 is None
        drifts.append(np.max(su11_residual(joint.F)))
    assert (max(drifts) > 1e-6) == ((nx, ny) == (8, 6))


def _convergence_study():
    path = Path(__file__).resolve().parents[1] / "scripts" / "convergence_study.py"
    spec = importlib.util.spec_from_file_location("convergence_study", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paraboloid_convergence_order():
    # residuals over the fixed window |x|, |y| <= 0.6 at lam = e^{i pi/3};
    # 4th-order stencils and stages shrink them ~16x per halving of h
    measure = _convergence_study().measure
    coarse, fine = measure(21), measure(41)
    for name in ("conformality", "re_dirac", "flatness"):
        order = np.log(coarse[name] / fine[name]) / np.log(40 / 20)
        assert order >= 3.5, (name, order)

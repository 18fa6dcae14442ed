import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nildual import potentials
from nildual.errors import ConfigError
from nildual.loops import (
    SIGMA3,
    MatrixLoop,
    class_rows,
    plus_loop_inverse,
    su11_residual,
)
from nildual.nil3 import DomainGrid, left_maurer_cartan
from nildual.potentials import (
    BLOCK,
    BUILTIN_NAMES,
    PIVOT_MIN,
    SPINOR_GAUGE,
    TAIL_MAX,
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
    trim_to_tail,
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
    data = xi.to_json()
    assert "twisted" not in data
    # a `twisted` flag of older files is read past, whatever it says
    for extra in ({}, {"twisted": False}, {"twisted": True}):
        back = HoloPotential.from_json({**data, **extra})
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


def test_potential_checks_every_term():
    # sparse powers of both parities and unequal degrees
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    D = np.diag([1.0, -1.0]).astype(complex)
    terms = {-1: np.stack([X, 2 * X]), 2: D[None], 5: np.stack([X] * 3)}

    def edited(j, k, r, c, value):
        out = {p: t.copy() for p, t in terms.items()}
        out[j][k, r, c] = value
        return out

    def edited_json(j, k, r, c, value):
        data = HoloPotential(terms).to_json()
        term = next(t for t in data["terms"] if t["power"] == j)
        term["entries"][2 * r + c][k] = [value, 0.0]
        return data

    for where in ((2, 0, 0, 1), (5, 2, 1, 1), (-1, 1, 0, 0)):
        with pytest.raises(ConfigError, match="forbidden-parity mass"):
            HoloPotential(edited(*where, 1e-300))
        # a file is refused alike, with an old `twisted` flag or without
        for extra in ({}, {"twisted": False}):
            with pytest.raises(ConfigError, match="forbidden-parity mass"):
                HoloPotential.from_json({**edited_json(*where, 1e-300),
                                         **extra})
        for bad in (np.nan, np.inf):   # forbidden and allowed entries alike
            for at in (where, (where[0], 0, 0, where[0] % 2)):
                with pytest.raises(ConfigError, match="non-finite"):
                    HoloPotential(edited(*at, bad))


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
    # z = 0 is the centre node: the series there sums to
    # exactly the identity
    node = pb_phi.at_node((grid21.ny // 2, grid21.nx // 2))
    assert np.array_equal(node.coeff(0), np.eye(2))
    assert not node.coeffs[:-1].any()   # powers -N..-1
    assert np.array_equal(node.eval(1.0), np.eye(2))


def test_integrate_potential_expansion_centre(grid21):
    # Phi expanded about z1 instead of 0 is Phi(z1) Phi~(z - z1), Phi~ the
    # series of xi(. + z1)
    xi = paraboloid_potential()
    a = integrate_potential(xi, grid21)
    b = oracles.recentred_phi(xi, grid21, 0.3 - 0.2j)
    lam = np.exp(1j * np.pi / 3)
    assert np.max(np.abs(a.eval(lam) - b(lam))) < 1e-10


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


def _plus_loop(rng):
    """A normalized twisted plus-loop on 3x3 nodes, B+(0) diagonal, and the
    same loop widened into the symmetric window -4..4 so the splitter sees
    a generic input."""
    c = np.zeros((4, 2, 2), dtype=complex)
    c[0] = np.diag([1.5, 0.8])
    c[1] = 0.1 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    c[2] = 0.05 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    c[~_allowed(0, 4)] = 0.0
    Bp_true = oracles.loop_from_dense(np.broadcast_to(c, (3, 3, 4, 2, 2)), 0)
    pad = np.zeros((3, 3, 9, 2, 2), dtype=complex)
    pad[..., 4:8, :, :] = Bp_true.coeffs
    return Bp_true, oracles.loop_from_dense(pad, -4)


def test_iwasawa_of_plus_loop_is_identity(rng):
    # a plus-loop input factors with F = I
    Bp_true, phi = _plus_loop(rng)
    F, Bp, report = iwasawa(phi)
    assert not np.any(report.failed)
    lam = np.exp(1.1j)
    assert np.max(np.abs(F.eval(lam) - np.eye(2))) < 1e-8
    assert np.max(np.abs(Bp.eval(lam) - Bp_true.eval(lam))) < 1e-8


def test_iwasawa_products_are_coefficientwise(pb_phi, monkeypatch):
    seen = []
    mul = MatrixLoop.mul

    def recorded(self, other, lo=None, hi=None):
        out = mul(self, other, lo, hi)
        seen.append((self.coeffs, other.coeffs, out.coeffs,
                     out.low - self.low - other.low))
        return out

    monkeypatch.setattr(MatrixLoop, "mul", recorded)
    iwasawa(pb_phi)
    assert len(seen) == 3   # sigma3 Phi* sigma3 . Phi, W . Z, Phi . B+^-1
    for a, b, got, start in seen:
        # a windowed product against the same window of the oracle's
        assert oracles.within_cauchy_bound(got, a, b, start=start)


@pytest.mark.parametrize("name",
                         ["paraboloid", "smyth-2", "helicoid", "plus-loop"])
def test_iwasawa_solves_the_system_of_zs_band(name, rng, monkeypatch):
    # the class systems have K = M / 2 blocks, M = Z's top power made even:
    # ceil(n / 2) for a minus-loop Phi at order n, n with positive powers,
    # and 4 for the plus-loop widened to -4..4, whose Z reaches 8
    seen = []
    levinson = potentials._levinson

    def recorded(t, y):
        seen.append((t.shape[2], y.shape[2]))
        return levinson(t, y)

    monkeypatch.setattr(potentials, "_levinson", recorded)
    if name == "plus-loop":
        phi, K = _plus_loop(rng)[1], 4
    else:
        g = builtin_example(name).grid
        grid = DomainGrid(g.x0, g.x1, g.y0, g.y1, 11, 11)
        phi, n, _ = trim_to_tail(
            integrate_potential(builtin_example(name).potential(), grid))
        K = n if name == "helicoid" else (n + 1) // 2
    _, _, report = iwasawa(phi)
    assert not report.failed.any()
    assert seen == [(K, K)] * 2   # one system per parity class


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_iwasawa_pivot_matches_dense_schur_complements(name):
    # against the dense Schur complements of the class systems at the size
    # the splitter solves, every one of them formed
    g = builtin_example(name).grid
    grid = DomainGrid(g.x0, g.x1, g.y0, g.y1, 11, 11)
    phi = integrate_potential(builtin_example(name).potential(), grid)
    _, _, report = iwasawa(phi)
    ref = oracles.schur_pivot(phi)
    assert np.max(np.abs(report.pivot - ref) / ref) < 1e-10


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_iwasawa_parity_classes_match_the_dense_system(name):
    # the two class solves, at the size of Z's window (N for a minus-loop),
    # against one dense solve of the whole system at 2N: its W is twisted,
    # W Z has no powers -2N..-1, and on B+'s powers it is B+(0)^dag B+, so
    # the half-size solve reproduces the full one
    g = builtin_example(name).grid
    grid = DomainGrid(g.x0, g.x1, g.y0, g.y1, 11, 11)
    phi = integrate_potential(builtin_example(name).potential(), grid)
    _, Bp, report = iwasawa(phi)
    assert not report.failed.any()
    W, Z, z_low = oracles.factorization_solution(phi)
    M = W.shape[-3] - 1
    assert np.all(W[..., ~_allowed(-M, M + 1)] == 0.0)
    WZ = oracles.cauchy_loop(W, Z)   # powers -M + z_low on
    scale = np.max(np.abs(Z), axis=(-3, -2, -1))[..., None, None, None]
    assert np.max(np.abs(WZ[..., -z_low:M - z_low, :, :]) / scale) < 1e-13
    b0h = np.swapaxes(Bp.coeffs[..., 0, :, :].conj(), -1, -2)
    plus = WZ[..., M - z_low:, :, :]
    assert plus.shape == Bp.coeffs.shape
    assert np.max(np.abs(plus - np.einsum("...ab,...jbc->...jac", b0h,
                                          Bp.coeffs)) / scale) < 1e-13


def _allowed(low, P):
    """(P, 2, 2) mask of the entries a twisted loop on the powers low..
    low + P - 1 may hold: entry (r, c) of power j when r + c + j is even."""
    j = low + np.arange(P)[:, None, None]
    return (j + np.arange(2)[:, None] + np.arange(2)) % 2 == 0


@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_iwasawa_masks_degenerate_nodes(bad):
    xi = paraboloid_potential()
    grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, 5, 5)
    phi = integrate_potential(xi, grid, order=6)
    F0, Bp0, _ = iwasawa(phi)
    e = phi.entries.copy()
    e[1, 3] = bad
    F, Bp, report = iwasawa(MatrixLoop(e, phi.low))
    expected = np.zeros(grid.shape, dtype=bool)
    expected[1, 3] = True
    assert np.array_equal(report.failed, expected)
    assert not report.pivot[1, 3] >= PIVOT_MIN
    identity = np.zeros_like(Bp.coeffs[1, 3])
    identity[0] = np.eye(2)
    assert np.array_equal(Bp.coeffs[1, 3], identity)
    if bad == 0.0:
        # B+^{-1} = I there too: F is the node's Phi, zero and finite
        assert np.isfinite(F.entries).all()
        assert not F.entries[1, 3].any()
    assert np.array_equal(F.coeffs[~expected], F0.coeffs[~expected])
    assert np.array_equal(Bp.coeffs[~expected], Bp0.coeffs[~expected])
    _dirac_gauge(xi, grid, F, Bp, report.ok())


def test_iwasawa_fails_a_node_whose_leading_section_is_singular():
    # node 0: Phi = [[1 + lam^2, -1/lam], [-1/lam, -lam^2]], order 2.  Its
    # class-0 system is nonsingular, but the first 2x2 block of it is
    # exactly singular, which the block-Levinson recursion cannot pass;
    # node 1 is the identity
    c = np.zeros((2, 5, 2, 2), dtype=complex)
    c[:, 2] = np.eye(2)
    c[0, 2, 1, 1] = 0.0
    c[0, 4] = np.diag([1.0, -1.0])
    c[0, 1] = [[0.0, -1.0], [-1.0, 0.0]]
    phi = oracles.loop_from_dense(c, -2)
    T = oracles.factorization_classes(phi)[0][0]
    assert np.linalg.det(T[:2, :2]) == 0.0
    assert np.linalg.cond(T) < 10.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        F, Bp, report = iwasawa(phi)
    assert report.failed.tolist() == [True, False]
    assert report.pivot[0] < PIVOT_MIN
    assert np.isfinite(F.coeffs).all() and np.isfinite(Bp.coeffs).all()
    identity = np.zeros_like(Bp.coeffs[0])
    identity[0] = np.eye(2)
    assert np.array_equal(Bp.coeffs[0], identity)


def _small(name):
    """Phi of a built-in at its trimmed order on an 11x11 grid over the
    example's grid, or over its verify grid."""
    spec = builtin_example(name[:-7] if name.endswith(":verify") else name)
    g = spec.verify_grid if name.endswith(":verify") else spec.grid
    grid = DomainGrid(g.x0, g.x1, g.y0, g.y1, 11, 11)
    return trim_to_tail(integrate_potential(spec.potential(), grid))[0]


SIX_GRIDS = (*BUILTIN_NAMES, "smyth-1:verify", "smyth-2:verify")


def _inverses(phi, monkeypatch):
    """iwasawa(phi) and the (order, B+^{-1}) of each plus_loop_inverse call
    it makes, one per block, B+^{-1} on Phi's batch shape."""
    calls = []

    def recorded(L, order):
        binv = plus_loop_inverse(L, order)
        calls.append((order, binv))
        return binv

    monkeypatch.setattr(potentials, "plus_loop_inverse", recorded)
    out = iwasawa(phi)
    monkeypatch.undo()
    return out, [(order, MatrixLoop(binv.entries.reshape(
        phi.batch_shape + binv.entries.shape[-2:]), binv.low))
        for order, binv in calls]


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "padded", "plus-loop"])
def test_iwasawa_sums_b_plus_inverse_to_n_for_a_minus_loop(name, rng,
                                                           monkeypatch):
    # B+^{-1} of a minus-loop Phi has no power above N, and its series stops
    # there; the paraboloid's Phi zero-padded to -N..N is a minus-loop too.
    # A Phi with positive powers, the helicoid's and the plus-loop's, sums
    # it to 2N
    if name == "plus-loop":
        phi = _plus_loop(rng)[1]
    elif name == "padded":
        phi = _small("paraboloid")
        pad = np.zeros(phi.batch_shape + (phi.order, 2), dtype=complex)
        phi = MatrixLoop(np.concatenate([phi.entries, pad], axis=-2),
                         phi.low)
    else:
        phi = _small(name)
    N = phi.order
    two_sided = name in ("helicoid", "plus-loop")
    _, calls = _inverses(phi, monkeypatch)
    assert [order for order, _ in calls] == [2 * N if two_sided else N]


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "plus-loop"])
def test_frame_is_phi_times_the_power_series_inverse_to_2n(name, rng):
    # F against Phi times B+'s power-series inverse to 2N: within 4 2^-52
    # of each node's largest F entry (1.43 measured, smyth-2).  A minus-loop
    # leaves out the series' powers above N, which are round-off; for the
    # helicoid and the plus-loop it is the same sum
    phi = _plus_loop(rng)[1] if name == "plus-loop" else _small(name)
    N = phi.order
    F, Bp, report = iwasawa(phi)
    assert not report.failed.any()
    ref = phi.mul(plus_loop_inverse(Bp, 2 * N), -N, N)
    assert (F.low, F.high) == (ref.low, ref.high)
    scale = np.max(np.abs(F.entries), axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(F.entries - ref.entries) <= 4 * 2.0 ** -52 * scale)


@pytest.mark.parametrize("name", [g for g in SIX_GRIDS if g != "helicoid"])
def test_b_plus_inverse_of_a_minus_loop_inverts_b_plus_on_the_circle(
        name, monkeypatch):
    # the B+^{-1} iwasawa sums on 0..N: B+^{-1} B+ is I at the eight circle
    # samples within 4 2^-52 of each node's sum over powers of |B+^{-1}|
    # times that of |B+| (1.57 measured), and the series' powers N + 1..2N,
    # which it leaves out, are within the same bound of zero (0.84)
    phi = _small(name)
    (F, Bp, report), [(_, binv)] = _inverses(phi, monkeypatch)
    assert not report.failed.any()
    N = phi.order
    assert (binv.low, binv.high) == (0, N)

    def size(L):
        return np.sum(np.max(np.abs(L.entries), axis=-1), axis=-1)

    bound = 4 * 2.0 ** -52 * size(binv) * size(Bp)
    for lam in np.exp(2j * np.pi * np.arange(8) / 8):
        err = np.abs(binv.eval(lam) @ Bp.eval(lam) - np.eye(2))
        assert np.all(np.max(err, axis=(-2, -1)) <= bound)
    tail = plus_loop_inverse(Bp, 2 * N).entries[..., N + 1:, :]
    assert np.all(np.max(np.abs(tail), axis=-1) <= bound[..., None])


def test_levinson_keeps_the_bits_of_the_recursion_over_every_block(rng):
    # random finite systems of 1 to 6 blocks, Hermitian or not: x and the
    # pivot bit for bit against the recursion that also multiplies the
    # predictors' zero block
    for K in range(1, 7):
        t = rng.normal(size=(2, 2, K, 40)) + 1j * rng.normal(
            size=(2, 2, K, 40))
        t[:, :, 0] += 4.0 * np.eye(2)[:, :, None]
        y = rng.normal(size=(2, 1, K, 40)) + 1j * rng.normal(
            size=(2, 1, K, 40))
        (x, piv), (x_ref, piv_ref) = (potentials._levinson(t, y),
                                      oracles.reference_levinson(t, y))
        assert _same_bits(x, x_ref)
        assert _same_bits(piv, piv_ref)


@pytest.mark.parametrize("name", SIX_GRIDS)
def test_iwasawa_keeps_the_bits_of_the_recursion_over_every_block(
        name, monkeypatch):
    phi = _small(name)
    F, Bp, report = iwasawa(phi)
    monkeypatch.setattr(potentials, "_levinson", oracles.reference_levinson)
    F1, Bp1, rep1 = iwasawa(phi)
    assert _same_bits(F.entries, F1.entries)
    assert _same_bits(Bp.entries, Bp1.entries)
    assert _same_bits(report.pivot, rep1.pivot)


@pytest.mark.parametrize("name", SIX_GRIDS)
def test_horner_keeps_the_bits_of_the_sum_over_every_degree(name,
                                                            monkeypatch):
    # each Phi entry summed from its own top degree: integrate_potential
    # and every term's eval_grid, bit for bit
    spec = builtin_example(name.split(":")[0])
    g = spec.verify_grid if name.endswith(":verify") else spec.grid
    xi = spec.potential()
    got = [integrate_potential(xi, g).entries,
           *(xi.eval_grid(g.zz, j) for j in xi.powers)]
    monkeypatch.setattr(potentials, "_horner", oracles.reference_horner)
    want = [integrate_potential(xi, g).entries,
            *(xi.eval_grid(g.zz, j) for j in xi.powers)]
    assert all(_same_bits(a, b) for a, b in zip(got, want))


@pytest.fixture(scope="module")
def three_blocks():
    # smyth-2 on a square grid of more than three blocks of nodes
    side = math.isqrt(3 * BLOCK) + 1
    g = builtin_example("smyth-2").verify_grid
    grid = DomainGrid(g.x0, g.x1, g.y0, g.y1, side, side)
    phi = integrate_potential(smyth_potential(2), grid)
    return phi, iwasawa(phi)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def test_iwasawa_blocks_match_single_nodes(three_blocks):
    phi, (F, Bp, report) = three_blocks
    n = math.prod(phi.batch_shape)
    assert n > 3 * BLOCK
    for k in (BLOCK - 1, BLOCK, n - 1):
        idx = np.unravel_index(k, phi.batch_shape)
        F1, Bp1, rep1 = iwasawa(phi.at_node(idx))
        assert F1.low == F.low
        assert _same_bits(F.entries[idx], F1.entries)
        assert _same_bits(Bp.entries[idx], Bp1.entries)
        assert _same_bits(report.pivot[idx], rep1.pivot)
        assert _same_bits(report.failed[idx], rep1.failed)


def test_iwasawa_nan_node_in_second_block_masks_only_itself(three_blocks):
    phi, (F, Bp, report) = three_blocks
    bad = np.zeros(phi.batch_shape, dtype=bool)
    node = np.unravel_index(BLOCK + 5, phi.batch_shape)
    bad[node] = True
    e = phi.entries.copy()
    e[node] = np.nan
    F2, Bp2, rep2 = iwasawa(MatrixLoop(e, phi.low))
    assert not report.failed[bad].any()
    assert np.array_equal(rep2.failed, report.failed | bad)
    assert _same_bits(rep2.pivot[~bad], report.pivot[~bad])
    assert _same_bits(F2.entries[~bad], F.entries[~bad])
    assert _same_bits(Bp2.entries[~bad], Bp.entries[~bad])


def test_iwasawa_residuals_match_dense_products(three_blocks, rng):
    # loops perturbed by 1e-6 relative noise, so that both residuals are
    # about 1e-6, on a random mask over more than three blocks: against
    # per-node matrix products of Horner values at the eight samples.  The
    # two evaluations round differently, within 64 eps of the terms' scale
    phi, (F, Bp, _) = three_blocks
    F, Bp = (MatrixLoop(L.entries * (1 + 1e-6 * rng.normal(
        size=L.entries.shape)), L.low) for L in (F, Bp))
    mask = rng.random(phi.batch_shape) < 0.7
    recon, reality = iwasawa_residuals(phi, F, Bp, mask=mask)
    ref_recon = ref_reality = 0.0
    for lam in np.exp(2j * np.pi * np.arange(8) / 8):
        p, f, b = (L.eval(lam)[mask] for L in (phi, F, Bp))
        herm = np.swapaxes(f.conj(), -1, -2) @ SIGMA3 @ f
        ref_recon = max(ref_recon, np.max(np.abs(p - f @ b)))
        ref_reality = max(ref_reality, np.max(np.abs(herm - SIGMA3)))

    def size(L):   # sum over powers of the largest entry, per kept node
        return np.sum(np.max(np.abs(L.coeffs), axis=(-2, -1)), axis=-1)[mask]

    scale = np.max(np.maximum(size(phi) + 2 * size(F) * size(Bp),
                              2 * size(F) ** 2 + 1))
    tol = 64 * np.finfo(float).eps * scale
    assert min(ref_recon, ref_reality) > 1e4 * tol
    assert abs(recon - ref_recon) <= tol
    assert abs(reality - ref_reality) <= tol


def test_iwasawa_memory_is_bounded_by_the_block():
    # the working set is one block's; only the outputs grow with the nodes:
    # two more blocks cost at most 1.1 times their outputs' bytes
    side = math.isqrt(BLOCK)
    grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, side, side)
    one = integrate_potential(paraboloid_potential(), grid)
    nodes = one.entries.reshape((-1,) + one.entries.shape[-2:])
    assert len(nodes) == BLOCK

    def peak(blocks):
        phi = MatrixLoop(np.concatenate([nodes] * blocks), one.low)
        tracemalloc.start()
        try:
            F, Bp, report = iwasawa(phi)
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = (F.entries.nbytes + Bp.entries.nbytes
                   + report.pivot.nbytes + report.failed.nbytes)
        return top, outputs

    (p3, out3), (p5, out5) = peak(3), peak(5)
    assert p5 - p3 <= 1.1 * (out5 - out3)


@st.composite
def twisted_potentials(draw, powers):
    """Random twisted potentials on `powers`: polynomial entries of degree
    at most 2 on the entries the grading allows, parts in [-1/2, 1/2]."""
    deg = draw(st.integers(0, 2))
    parts = st.floats(-0.5, 0.5)
    terms = {}
    for j in powers:
        re, im = draw(hnp.arrays(float, (2, deg + 1, 2), elements=parts))
        c = np.zeros((deg + 1, 2, 2), dtype=complex)
        c[:, class_rows(1, [j])[0, 0], [0, 1]] = re + 1j * im
        terms[j] = c
    return HoloPotential(terms)


@pytest.mark.parametrize("powers", [(-1,), (-1, 0, 1)])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_phi_on_its_own_powers_factorizes_as_the_padded_loop(powers, data):
    # Phi of a minus-loop potential is computed and factorized on -N..0, by
    # the system of size N; zero-padded to -N..N it solves the system of
    # size 2N, whose solution is the same: F and B+ agree to within 2^-52
    # of each node's largest entry, B+ of the padded loop holds exact zeros
    # above power N, and its pivot is the minimum over a superset of the
    # same Schur complements.  A two-sided Phi is its own padding: bit-equal
    xi = data.draw(twisted_potentials(powers))
    N = 12
    grid = DomainGrid(-0.5, 0.5, -0.5, 0.5, 9, 9)
    phi = integrate_potential(xi, grid, order=N)
    minus = max(powers) <= 0
    assert (phi.low, phi.high) == (-N, 0 if minus else N)
    if minus:
        assert _same_bits(phi.coeff(0), np.broadcast_to(
            np.eye(2, dtype=complex), phi.batch_shape + (2, 2)))
    pad = np.zeros(phi.batch_shape + (N - phi.high, 2), dtype=complex)
    padded = MatrixLoop(np.concatenate([phi.entries, pad], axis=-2), -N)
    (F, Bp, rep), (Fd, Bpd, repd) = iwasawa(phi), iwasawa(padded)
    assert (F.low, F.high) == (Fd.low, Fd.high)
    assert _same_bits(rep.failed, repd.failed)
    assert Bp.high == (N if minus else 2 * N)
    Bpd_kept = Bpd.coeffs[..., :Bp.high + 1, :, :]
    assert not Bpd.coeffs[..., Bp.high + 1:, :, :].any()
    if minus:
        for got, want in ((F.coeffs, Fd.coeffs), (Bp.coeffs, Bpd_kept)):
            scale = np.max(np.abs(got), axis=(-3, -2, -1), keepdims=True)
            assert np.all(np.abs(got - want) <= 2.0 ** -52 * scale)
        assert np.all(repd.pivot <= rep.pivot)
    else:
        assert _same_bits(F.coeffs, Fd.coeffs)
        assert _same_bits(rep.pivot, repd.pivot)
        assert _same_bits(Bp.coeffs, Bpd_kept)


@pytest.mark.parametrize("powers", [(-1,), (-1, 0, 1)])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_horner_keeps_the_bits_on_twisted_potentials(powers, data):
    # entries of every degree up to the cap, signed zeros among the drawn
    # coefficients: bit for bit against the sum over every degree
    xi = data.draw(twisted_potentials(powers))
    grid = DomainGrid(-0.5, 0.5, -0.5, 0.5, 9, 9)
    got = [integrate_potential(xi, grid, order=6).entries,
           *(xi.eval_grid(grid.zz, j) for j in xi.powers)]
    horner = potentials._horner
    potentials._horner = oracles.reference_horner
    try:
        want = [integrate_potential(xi, grid, order=6).entries,
                *(xi.eval_grid(grid.zz, j) for j in xi.powers)]
    finally:
        potentials._horner = horner
    assert all(_same_bits(a, b) for a, b in zip(got, want))


def test_pipeline_paraboloid_matches_closed_surfaces(grid21):
    res = run_example("paraboloid", grid=grid21,
                      lam_samples=[1.0, np.exp(1j * np.pi / 3)])
    assert res.recon_residual < 1e-8
    assert res.reality_residual < 1e-8
    for sym in res.sym:
        fm = sym.f_minus.coords
        fp = sym.f_plus.coords
        assert np.max(np.abs(fm - paraboloid_surface(grid21, sym.lam))) < 1e-7
        assert np.max(np.abs(fp - paraboloid_dual_surface(grid21, sym.lam))) < 1e-7


@pytest.mark.parametrize("name", ["paraboloid", "helicoid"])
def test_gauges_in_place_keep_the_out_of_place_bits(name, grid21,
                                                    monkeypatch):
    """The pipeline's frame loop and gauged B+ are bit-equal to the gauges
    formed out of place from copies of iwasawa's F and B+: an in-place
    product that swaps its operands moves bits (numpy's complex multiply
    is not bitwise commutative).  The paraboloid's Dirac gauge is the
    identity; the helicoid's is not."""
    kept = {}

    def keeping(phi):
        F, Bp, report = iwasawa(phi)
        kept["F"] = MatrixLoop(F.entries.copy(), F.low)
        kept["Bp"] = MatrixLoop(Bp.entries.copy(), Bp.low)
        return F, Bp, report

    def residuals(phi, F, Bp, mask=None):
        kept["Bp_gauged"] = Bp.entries.copy()
        return iwasawa_residuals(phi, F, Bp, mask=mask)

    monkeypatch.setattr(potentials, "iwasawa", keeping)
    monkeypatch.setattr(potentials, "iwasawa_residuals", residuals)
    res = run_example(name, grid=grid21)
    floop, Bp = oracles.reference_gauges(builtin_example(name).potential(),
                                         grid21, kept["F"], kept["Bp"])
    assert res.frame_loop.low == floop.low
    assert _same_bits(res.frame_loop.entries, floop.entries)
    assert _same_bits(kept["Bp_gauged"], Bp.entries)


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


@pytest.mark.parametrize("lam", [0.5, complex("nan"), complex("nanj")])
def test_pipeline_refuses_lam_off_the_circle(grid21, lam):
    # NaN compares False with any bound, so the check must pass only finite
    # unit moduli
    with pytest.raises(ConfigError, match="unit-modulus"):
        dpw_pipeline(paraboloid_potential(), grid21, lam_samples=[1.0, lam])


@pytest.mark.parametrize("name", ["paraboloid", "helicoid", "smyth-2"])
def test_lambda_rotation_is_exact(name):
    # xi'(lam) = xi(lam0 lam) at lam = 1 gives the sheets of xi at lam0: the
    # normalization and the reality condition of the splitting are both
    # invariant under lam -> lam0 lam
    spec = builtin_example(name)
    g = spec.grid
    grid = DomainGrid(g.x0, g.x1, g.y0, g.y1, 21, 21)
    lam0 = np.exp(1j * np.pi / 3)
    xi = spec.potential()
    rotated = HoloPotential({j: c * lam0**j for j, c in xi.terms.items()})
    runs = [dpw_pipeline(p, grid, lam_samples=[lam],
                         exclude_disk=spec.exclude_disk)
            for p, lam in ((xi, lam0), (rotated, 1.0))]
    assert np.array_equal(runs[0].sym[0].ok_mask, runs[1].sym[0].ok_mask)
    ok = runs[0].sym[0].ok_mask
    a, b = (np.stack([r.sym[0].f_minus.coords[ok], r.sym[0].f_plus.coords[ok]])
            for r in runs)
    assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-12


@pytest.mark.parametrize("name", ["paraboloid", "smyth-2"])
def test_quarter_turn_is_exact(name):
    # xi'(z) = i xi(iz) gives Phi'(z) = Phi(iz): on a centred square grid
    # its sheets are xi's with the node indices turned by a quarter; the
    # series about z = 0 keeps the turn to round-off
    spec = builtin_example(name)
    g = spec.grid
    grid = DomainGrid(g.x0, g.x1, g.y0, g.y1, 21, 21)
    lams = [1.0, np.exp(1j * np.pi / 3)]
    xi = spec.potential()
    turned = HoloPotential({j: c * 1j ** (np.arange(len(c)) + 1)[:, None, None]
                            for j, c in xi.terms.items()})
    runs = [dpw_pipeline(p, grid, lam_samples=lams,
                         exclude_disk=spec.exclude_disk) for p in (xi, turned)]
    for m in (lambda r: r.sym[0].ok_mask, lambda r: r.mask):
        assert np.array_equal(np.rot90(m(runs[0])), m(runs[1]))
    ok = runs[1].sym[0].ok_mask
    for a, b in zip(runs[0].sym, runs[1].sym):
        x = np.stack([np.rot90(a.f_minus.coords)[ok],
                      np.rot90(a.f_plus.coords)[ok]])
        y = np.stack([b.f_minus.coords[ok], b.f_plus.coords[ok]])
        assert np.max(np.abs(x - y)) / np.max(np.abs(x)) < 1e-12


@pytest.mark.parametrize("name", ["paraboloid", "smyth-2"])
def test_constant_gauge_is_a_rotation_about_e3(name):
    # xi -> k^-1 xi k with k = diag(e^{i theta}, e^{-i theta}) moves both
    # sheets by a rotation about e3 of -2 theta; the reversal z -> -z of a
    # centred grid fixes that angle only mod pi
    theta = 0.7
    spec = builtin_example(name)
    g = spec.grid
    grid = DomainGrid(g.x0, g.x1, g.y0, g.y1, 21, 21)
    lams = [1.0, np.exp(1j * np.pi / 3)]
    xi = spec.potential()
    k = np.array([np.exp(1j * theta), np.exp(-1j * theta)])
    gauged = HoloPotential({j: c * k.conj()[:, None] * k
                            for j, c in xi.terms.items()})
    runs = [dpw_pipeline(p, grid, lam_samples=lams,
                         exclude_disk=spec.exclude_disk) for p in (xi, gauged)]
    for a, b in zip(runs[0].sym, runs[1].sym):
        for sheet in ("f_minus", "f_plus"):
            fit = mc_equivalent(getattr(a, sheet), getattr(b, sheet))
            assert fit.kind in ("rotation", "rotation-rev")
            assert fit.residual < 1e-10
            period = np.pi if fit.kind == "rotation-rev" else 2 * np.pi
            off = (fit.theta + 2 * theta + period / 2) % period - period / 2
            assert abs(off) < 1e-10


def test_truncation_order_controls_reconstruction(grid21):
    xi = paraboloid_potential()
    residuals = []
    for order in (4, 8, 12):
        phi = integrate_potential(xi, grid21, order=order)
        F, Bp, _ = iwasawa(phi)
        recon, _ = iwasawa_residuals(phi, F, Bp)
        residuals.append(recon)
    assert residuals[0] > residuals[1] > residuals[2] or residuals[2] < 1e-12


def test_trim_is_the_march_at_the_order_of_the_tail():
    """smyth-2's 101x101 verify grid needs 9 of the default 12 powers, and
    its trimmed Phi is Phi computed at order 9: a minus-loop's power -k
    depends on the powers -k+1..0 alone."""
    spec = builtin_example("smyth-2")
    xi, g = spec.potential(), spec.verify_grid
    phi, n, tail = trim_to_tail(integrate_potential(xi, g))
    assert (n, phi.low, phi.high) == (9, -9, 0)
    assert 1e-15 < tail <= TAIL_MAX
    assert np.array_equal(phi.coeffs,
                          integrate_potential(xi, g, order=9).coeffs)


def test_trim_reads_finite_nodes_and_both_sides(grid21):
    phi = integrate_potential(paraboloid_potential(), grid21)
    trimmed, n, tail = trim_to_tail(phi)
    size = np.max(np.abs(phi.coeffs), axis=(0, 1, 3, 4))
    assert tail == size[12 - n] / size[12] <= TAIL_MAX
    assert size[12 - n + 1] / size[12] > TAIL_MAX
    # a non-finite node is left out of the tail; with no finite node,
    # nothing is trimmed
    bad = phi.coeffs.copy()
    bad[3, 4, 2, 0, 0] = np.nan   # power -10: an allowed diagonal entry
    assert trim_to_tail(oracles.loop_from_dense(bad, phi.low))[1:] == (n, tail)
    nans = np.where(_allowed(phi.low, 13), np.nan, 0.0)
    whole, N, nan = trim_to_tail(oracles.loop_from_dense(
        np.broadcast_to(nans, bad.shape), phi.low))
    assert N == 12 and whole.coeffs.shape == bad.shape and math.isnan(nan)
    # a Phi with positive powers keeps -n..n, on the larger of both tails
    hel = integrate_potential(helicoid_potential(), grid21)
    trimmed, n, tail = trim_to_tail(hel)
    assert (trimmed.low, trimmed.high) == (-n, n)
    assert np.array_equal(trimmed.coeffs, hel.coeffs[..., 12 - n:13 + n, :, :])
    size = np.max(np.abs(hel.coeffs), axis=(0, 1, 3, 4))
    assert tail == max(size[12 - n], size[12 + n]) / size[12]
    with pytest.raises(ConfigError, match="tail at the truncation cap 3"):
        trim_to_tail(integrate_potential(helicoid_potential(), grid21,
                                         order=3))


def test_series_refuses_a_majorant_beyond_the_float_range(grid21):
    # a potential with powers >= 0 has no cap on its series' degree: one
    # whose majorant exp(int_0^R m) overflows is refused, not summed
    with pytest.raises(ConfigError, match="Taylor majorant overflows"):
        integrate_potential(helicoid_potential(1e3), grid21)


def test_helicoid_big_cell_everywhere(grid21):
    res = run_example("helicoid", grid=grid21, lam_samples=[1.0])
    assert not np.any(res.report.failed)
    assert np.min(res.report.pivot) > 1e-9

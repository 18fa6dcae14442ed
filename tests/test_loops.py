import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nildual.loops import (
    E1,
    E2,
    E3,
    SIGMA3,
    SQRT_I,
    MatrixLoop,
    plus_loop_inverse,
    su11_residual,
)

from . import oracles


def test_sqrt_i_branch():
    assert SQRT_I == pytest.approx(np.exp(1j * np.pi / 4))
    assert SQRT_I**2 == pytest.approx(1j)


def test_basis_matrices():
    assert np.allclose(E3, -0.5j * SIGMA3)
    for E in (E1, E2, E3):
        # su(1,1): E^dag sigma3 + sigma3 E = 0 and traceless
        assert np.max(np.abs(E.conj().T @ SIGMA3 + SIGMA3 @ E)) < 1e-15
        assert abs(np.trace(E)) < 1e-15


def test_su11_residual_examples():
    assert su11_residual(np.eye(2)) < 1e-15
    t = 0.7
    M = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]],
                 dtype=complex)
    assert su11_residual(M) < 1e-15
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    R = np.array([[c, s], [-s, c]], dtype=complex)  # SU(2), not SU(1,1)
    assert su11_residual(R) > 0.9


def _random_su11(rng):
    a = complex(rng.normal(), rng.normal())
    b = complex(rng.normal(), rng.normal())
    if abs(a) <= abs(b):
        a = b + 1.0  # keep |a| > |b|
    norm = np.sqrt(abs(a) ** 2 - abs(b) ** 2)
    return np.array([[a, b], [np.conj(b), np.conj(a)]]) / norm


def test_su11_residual_random(rng):
    for _ in range(10):
        assert su11_residual(_random_su11(rng)) < 1e-12


def test_loop_eval_examples():
    L = MatrixLoop.constant(SIGMA3)
    assert np.allclose(L.eval(1j), SIGMA3)
    c = np.zeros((1, 2, 2), dtype=complex)
    c[0, 0, 1] = 1.0
    L = MatrixLoop(c, -1)  # single lam^{-1} coefficient
    out = L.eval(-1.0)
    assert out[0, 1] == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        L.eval(0.5)
    assert np.isfinite(L.eval(0.5, allow_off_circle=True)).all()


def test_loop_dlambda():
    L = MatrixLoop.constant(np.eye(2))
    dL = L.dlambda()
    assert np.max(np.abs(dL.coeffs)) == 0.0
    A = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    L = MatrixLoop(A[None], 1)          # A lam
    dL = L.dlambda()
    assert dL.low == 0 and np.allclose(dL.coeffs[0], A)
    L = MatrixLoop(A[None], -1)         # A / lam
    dL = L.dlambda()
    assert dL.low == -2 and np.allclose(dL.coeffs[0], -A)


def test_loop_mul_identity_and_powers(rng):
    c = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    L = MatrixLoop(c, -2)
    out = L.mul(MatrixLoop.identity(parity=None))
    assert out.low == -2 and np.allclose(out.coeffs, c)
    A = rng.normal(size=(2, 2)) + 0j
    B = rng.normal(size=(2, 2)) + 0j
    prod = MatrixLoop(A[None], 1).mul(MatrixLoop(B[None], -1))
    assert prod.low == 0 and np.allclose(prod.coeffs[0], A @ B)


small = st.floats(-2, 2, allow_nan=False)


@st.composite
def twisted_loops(draw, order=2):
    c = np.zeros((2 * order + 1, 2, 2), dtype=complex)
    for k in range(2 * order + 1):
        j = k - order
        vals = [draw(small) + 1j * draw(small) for _ in range(2)]
        if j % 2 == 0:
            c[k, 0, 0], c[k, 1, 1] = vals
        else:
            c[k, 0, 1], c[k, 1, 0] = vals
    return MatrixLoop(c, -order, "twisted")


@given(twisted_loops(), twisted_loops())
@settings(max_examples=30, deadline=None)
def test_twisted_product_parity(L1, L2):
    prod = L1.mul(L2)
    assert prod.parity == "twisted"
    assert prod.dlambda().parity == "anti"
    # the twisting relation on circle values: M(-lam) = sigma3 M(lam) sigma3
    lam = np.exp(0.37j)
    lhs = prod.eval(-lam)
    rhs = SIGMA3 @ prod.eval(lam) @ SIGMA3
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@given(twisted_loops(order=1), twisted_loops(order=1))
@settings(max_examples=30, deadline=None)
def test_mul_is_pointwise_product(L1, L2):
    lam = np.exp(1.1j)
    lhs = L1.mul(L2).eval(lam)
    rhs = L1.eval(lam) @ L2.eval(lam)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def _graded(rng, batch, P, span=30.0):
    """Random coefficients falling from 10^0 to 10^-span across the powers."""
    shape = batch + (P, 2, 2)
    decay = 10.0 ** (-span * np.arange(P) / max(P - 1, 1))
    mag = decay[:, None, None] * rng.uniform(0.5, 1.0, size=shape)
    return mag * np.exp(2j * np.pi * rng.uniform(size=shape))


def _fft_product(a, b):
    n = a.shape[-3] + b.shape[-3] - 1
    fa = np.fft.fft(a, n, axis=-3)
    fb = np.fft.fft(b, n, axis=-3)
    return np.fft.ifft(fa @ fb, axis=-3)


@pytest.mark.parametrize("Pa, Pb, batch_b", [
    (7, 7, (3, 4)), (5, 13, (3, 4)), (13, 5, (3, 4)), (9, 1, ()), (1, 9, ())])
def test_mul_error_is_coefficientwise(rng, Pa, Pb, batch_b):
    a = _graded(rng, (3, 4), Pa)
    b = _graded(rng, batch_b, Pb)
    got = MatrixLoop(a, -2).mul(MatrixLoop(b, 1))
    assert got.low == -1 and got.coeffs.shape == (3, 4, Pa + Pb - 1, 2, 2)
    assert oracles.within_cauchy_bound(got.coeffs, a, b)


def test_fft_product_breaks_the_coefficient_bound(rng):
    # the bound is sharp enough to reject a product whose error scales
    # with the largest coefficient
    a = _graded(rng, (3,), 13)
    b = _graded(rng, (3,), 13)
    assert not oracles.within_cauchy_bound(_fft_product(a, b), a, b)


def test_mul_keeps_parity_slots_exactly_zero(rng):
    L = MatrixLoop(_graded(rng, (2, 3), 7), -3).with_parity("twisted",
                                                           tol=np.inf)
    dL = L.dlambda()
    for x, y, parity in ((L, L, "twisted"), (L, dL, "anti"),
                         (dL, L, "anti"), (dL, dL, "twisted"),
                         (L, L.truncated(1), "twisted")):
        prod = x.mul(y)   # the parity check raises on any nonzero slot
        assert prod.parity == parity


def test_truncation_tail(rng):
    c = rng.normal(size=(9, 2, 2)) + 0j
    L = MatrixLoop(c, -4)
    cut = L.truncated(2)
    assert cut.low == -2 and cut.high == 2
    assert np.array_equal(cut.coeffs, c[2:7])


def test_parity_validation():
    c = np.zeros((1, 2, 2), dtype=complex)
    c[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        MatrixLoop(c, 1, "twisted")  # diagonal mass on an odd power
    noisy = c.copy()
    noisy[0, 0, 1] = 1.0
    noisy[0, 0, 0] = 1e-14
    cleaned = MatrixLoop(noisy, 1).with_parity("twisted", tol=1e-12)
    assert cleaned.coeffs[0, 0, 0] == 0.0


def test_adjoint_on_circle(rng):
    c = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    L = MatrixLoop(c, -1)
    adj = L.adjoint_on_circle()
    lam = np.exp(0.9j)
    assert np.max(np.abs(adj.eval(lam) - L.eval(lam).conj().T)) < 1e-12


def test_plus_loop_inverse(rng):
    c = 0.1 * (rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2)))
    c[0] = np.eye(2) + 0.05 * c[0]
    L = MatrixLoop(c, 0)
    inv = plus_loop_inverse(L, 12)
    prod = L.mul(inv)
    ident = np.zeros_like(prod.coeffs[..., 0, :, :])
    for k in range(prod.coeffs.shape[0]):
        j = prod.low + k
        if j == 0:
            assert np.max(np.abs(prod.coeffs[k] - np.eye(2))) < 1e-10
        elif 0 < j <= 12:
            assert np.max(np.abs(prod.coeffs[k])) < 1e-10


def test_plus_loop_inverse_batched(rng):
    c = 0.1 * (rng.normal(size=(3, 2, 5, 2, 2))
               + 1j * rng.normal(size=(3, 2, 5, 2, 2)))
    c[..., 0, :, :] += np.eye(2)
    inv = plus_loop_inverse(MatrixLoop(c, 0), 10)
    assert inv.coeffs.shape == (3, 2, 11, 2, 2)
    for idx in np.ndindex(3, 2):
        one = plus_loop_inverse(MatrixLoop(c[idx], 0), 10)
        assert np.array_equal(inv.coeffs[idx], one.coeffs)
        prod = MatrixLoop(c[idx], 0).mul(one)
        assert np.max(np.abs(prod.coeffs[0] - np.eye(2))) < 1e-12
        assert np.max(np.abs(prod.coeffs[1:11])) < 1e-10


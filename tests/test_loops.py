from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nildual.loops import (
    E1,
    E2,
    E3,
    SIGMA3,
    SQRT_I,
    MatrixLoop,
    class_rows,
    det2,
    inv2,
    mm2,
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
    L = oracles.loop_from_dense(SIGMA3[None], 0)
    assert np.allclose(L.eval(1j), SIGMA3)
    c = np.zeros((1, 2, 2), dtype=complex)
    c[0, 0, 1] = 1.0
    L = oracles.loop_from_dense(c, -1)  # single lam^{-1} coefficient
    out = L.eval(-1.0)
    assert out[0, 1] == pytest.approx(-1.0)
    for off in (0.5, complex("nan"), complex("nanj")):
        with pytest.raises(ValueError):
            L.eval(off)


def test_loop_dlambda():
    # eval's first and second derivatives in lam, at lam = i
    lam = 1j
    L = MatrixLoop.identity()
    assert np.max(np.abs(L.eval(lam, 1))) == 0.0
    assert np.max(np.abs(L.eval(lam, 2))) == 0.0
    # off-diagonal: the entries a twisted loop allows at odd powers
    A = np.array([[0.0, 2.0], [3.0, 0.0]], dtype=complex)
    L = oracles.loop_from_dense(A[None], 1)    # A lam
    assert np.allclose(L.eval(lam, 1), A)
    assert np.max(np.abs(L.eval(lam, 2))) == 0.0
    L = oracles.loop_from_dense(A[None], -1)   # A / lam
    assert np.allclose(L.eval(lam, 1), -A / lam**2)
    assert np.allclose(L.eval(lam, 2), 2 * A / lam**3)


def test_loop_mul_identity_and_powers(rng):
    c = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    c[_forbidden(5, -2)] = 0.0
    L = oracles.loop_from_dense(c, -2)
    out = L.mul(MatrixLoop.identity())
    assert out.low == -2 and np.allclose(out.coeffs, c)
    # odd powers hold off-diagonal entries
    A = rng.normal(size=(2, 2)) * [[0.0, 1.0], [1.0, 0.0]] + 0j
    B = rng.normal(size=(2, 2)) * [[0.0, 1.0], [1.0, 0.0]] + 0j
    prod = oracles.loop_from_dense(A[None], 1).mul(
        oracles.loop_from_dense(B[None], -1))
    assert prod.low == 0 and np.allclose(prod.coeffs[0], A @ B)


small = st.floats(-2, 2, allow_nan=False)


@st.composite
def twisted_loops(draw, order=2):
    e = [[draw(small) + 1j * draw(small) for _ in range(2)]
         for _ in range(2 * order + 1)]
    return MatrixLoop(e, -order)


@given(twisted_loops(), twisted_loops())
@settings(max_examples=30, deadline=None)
def test_twisted_product_parity(L1, L2):
    prod = L1.mul(L2)
    # the twisting relation on circle values, M(-lam) = sigma3 M(lam) sigma3,
    # and its derivatives: (-1)^d M^(d)(-lam) = sigma3 M^(d)(lam) sigma3
    lam = np.exp(0.37j)
    for d in (0, 1, 2):
        lhs = (-1) ** d * prod.eval(-lam, d)
        rhs = SIGMA3 @ prod.eval(lam, d) @ SIGMA3
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@given(twisted_loops(order=1), twisted_loops(order=1))
@settings(max_examples=30, deadline=None)
def test_mul_is_pointwise_product(L1, L2):
    lam = np.exp(1.1j)
    lhs = L1.mul(L2).eval(lam)
    rhs = L1.eval(lam) @ L2.eval(lam)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def _forbidden(P, low):
    """(P, 2, 2) mask of the entries a twisted loop holds at zero: entry
    (r, c) of power j is allowed when r + c + j is even."""
    j = low + np.arange(P)[:, None, None]
    rc = np.arange(2)[:, None] + np.arange(2)
    return (j + rc) % 2 != 0


entries = st.complex_numbers(max_magnitude=2.0)
# for the coefficientwise error bounds, which hold only where no product
# underflows: moduli 0 or at least 1e-20, so that products of up to nine
# entries stay normal
no_underflow = st.one_of(st.just(0j), st.complex_numbers(
    min_magnitude=1e-20, max_magnitude=2.0))


@st.composite
def tagged_loops(draw, batch, elements=entries):
    """Twisted loops of any low and up to six powers on `batch`."""
    low = draw(st.integers(-3, 3))
    P = draw(st.integers(1, 6))
    e = draw(hnp.arrays(complex, batch + (P, 2), elements=elements))
    return MatrixLoop(e, low)


@given(low=st.integers(-7, 7), P=st.integers(1, 6))
def test_class_rows_is_the_twisted_rule(low, P):
    rows = class_rows(2, low + np.arange(P))
    for cls in (0, 1):
        mask = np.zeros((P, 2, 2), dtype=bool)
        mask[np.arange(P)[:, None], rows[cls], [0, 1]] = True
        assert np.array_equal(mask, _forbidden(P, low) == bool(cls))


def _same_bits(x, y):
    return (x.shape == y.shape and np.array_equal(x, y)
            and all(np.array_equal(np.signbit(part(x)), np.signbit(part(y)))
                    for part in (np.real, np.imag)))


@given(low=st.integers(-4, 4), P=st.integers(1, 5), data=st.data())
@settings(max_examples=40, deadline=None)
def test_coeffs_view_puts_each_entry_in_its_class_row(low, P, data):
    # entry (k, c) is coefficient k's entry (class_rows' row, c); the
    # forbidden entries read +0, with no sign bit, and the view is read-only
    e = data.draw(hnp.arrays(complex, (2, P, 2), elements=entries))
    L = MatrixLoop(e, low)
    c = L.coeffs
    assert c.shape == (2, P, 2, 2) and not c.flags.writeable
    k = np.arange(P)[:, None]
    rows = class_rows(2, low + np.arange(P))
    assert _same_bits(c[:, k, rows[0], [0, 1]], e)
    zero = c[:, k, rows[1], [0, 1]]
    assert np.all(zero == 0.0)
    assert not np.signbit(zero.real).any() and not np.signbit(zero.imag).any()
    for j in range(low, low + P):
        assert _same_bits(L.coeff(j), c[:, j - low])


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_tagged_mul_is_the_dense_sum(data):
    # odd and even lows, unequal windows, and a constant broadcast against
    # a batch on either side: each coefficient within the einsum product's
    # bound
    ba, bb = data.draw(st.sampled_from([((2, 3), (2, 3)), ((2, 3), ()),
                                        ((), (2, 3))]))
    x = data.draw(tagged_loops(ba, no_underflow))
    y = data.draw(tagged_loops(bb, no_underflow))
    got = x.mul(y)
    assert got.low == x.low + y.low
    assert got.high == x.high + y.high
    assert oracles.within_cauchy_bound(got.coeffs, x.coeffs, y.coeffs)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_windowed_mul_is_the_slice_of_the_full_product(data):
    ba, bb = data.draw(st.sampled_from([((2, 3), (2, 3)), ((2, 3), ()),
                                        ((), (2, 3))]))
    x = data.draw(tagged_loops(ba))
    y = data.draw(tagged_loops(bb))
    full = x.mul(y)
    lo0 = data.draw(st.integers(full.low - 3, full.high))
    hi0 = data.draw(st.integers(max(lo0, full.low), full.high + 3))
    one = data.draw(st.integers(full.low, full.high))
    # a drawn window (clipping either end or neither), one wider than the
    # product at both ends, and a one-power window
    for lo, hi in ((lo0, hi0), (full.low - 2, full.high + 2), (one, one)):
        got = x.mul(y, lo, hi)
        start, stop = max(lo, full.low), min(hi, full.high)
        assert (got.low, got.high) == (start, stop)
        assert _same_bits(got.entries, full.entries[
            ..., start - full.low:stop - full.low + 1, :])


def test_empty_window_raises():
    x = MatrixLoop(np.ones((3, 2)), -1)
    y = MatrixLoop.identity((2,))   # the product has the powers -1..1
    for lo, hi in ((1, 0), (2, 5), (-7, -2)):
        with pytest.raises(ValueError, match="keeps no power"):
            x.mul(y, lo, hi)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_tagged_plus_loop_inverse_is_within_the_cauchy_bound(data):
    # L X is the identity on the powers 0..order within the einsum
    # product's bound
    batch = data.draw(st.sampled_from([(), (3,), (2, 2)]))
    P = data.draw(st.integers(1, 6))
    e = data.draw(hnp.arrays(complex, batch + (P, 2), elements=no_underflow))
    # B_0 = I + (diagonal of modulus at most 1/2): well conditioned
    e[..., 0, :] = 0.25 * e[..., 0, :] + 1.0
    order = data.draw(st.integers(0, 8))
    L = MatrixLoop(e, 0)
    got = plus_loop_inverse(L, order)
    assert (got.low, got.high) == (0, order)
    ident = np.zeros(batch + (order + 1, 2, 2), dtype=complex)
    ident[..., 0, :, :] = np.eye(2)
    assert oracles.within_cauchy_bound(ident, L.coeffs, got.coeffs)


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
    a[..., _forbidden(Pa, -2)] = 0.0
    b[..., _forbidden(Pb, 1)] = 0.0
    got = oracles.loop_from_dense(a, -2).mul(oracles.loop_from_dense(b, 1))
    assert got.low == -1 and got.coeffs.shape == (3, 4, Pa + Pb - 1, 2, 2)
    assert oracles.within_cauchy_bound(got.coeffs, a, b)


def test_fft_product_breaks_the_coefficient_bound(rng):
    # the bound is sharp enough to reject a product whose error scales
    # with the largest coefficient
    a = _graded(rng, (3,), 13)
    b = _graded(rng, (3,), 13)
    assert not oracles.within_cauchy_bound(_fft_product(a, b), a, b)


def test_truncation_tail(rng):
    # a product window that clips both ends keeps the powers inside it
    c = rng.normal(size=(9, 2, 2)) + 0j
    c[_forbidden(9, -4)] = 0.0
    L = oracles.loop_from_dense(c, -4)
    cut = L.mul(MatrixLoop.identity(), -2, 2)
    assert cut.low == -2 and cut.high == 2
    assert np.array_equal(cut.coeffs, c[2:7])


def test_adjoint_on_circle(rng):
    c = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    c[_forbidden(5, -1)] = 0.0
    L = oracles.loop_from_dense(c, -1)
    adj = L.adjoint_on_circle()
    lam = np.exp(0.9j)
    assert np.max(np.abs(adj.eval(lam) - L.eval(lam).conj().T)) < 1e-12


def test_plus_loop_inverse(rng):
    c = 0.1 * (rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2)))
    c[_forbidden(4, 0)] = 0.0
    c[0] = np.eye(2) + 0.05 * c[0]
    L = oracles.loop_from_dense(c, 0)
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
    c[..., _forbidden(5, 0)] = 0.0
    c[..., 0, :, :] += np.eye(2)
    L = oracles.loop_from_dense(c, 0)
    inv = plus_loop_inverse(L, 10)
    assert inv.entries.shape == (3, 2, 11, 2)
    for idx in np.ndindex(3, 2):
        one = plus_loop_inverse(L.at_node(idx), 10)
        assert np.array_equal(inv.entries[idx], one.entries)
        prod = L.at_node(idx).mul(one)
        assert np.max(np.abs(prod.coeffs[0] - np.eye(2))) < 1e-12
        assert np.max(np.abs(prod.coeffs[1:11])) < 1e-10



def _planes(M):
    return np.moveaxis(M, (-2, -1), (0, 1))


def _stack(M):
    return np.moveaxis(M, (0, 1), (-2, -1))


def _rel(got, want):
    """Largest entry error per matrix over the matrix's largest entry."""
    err = np.abs(got - want).reshape(want.shape[:-2] + (-1,))
    size = np.abs(want).reshape(want.shape[:-2] + (-1,))
    return float(np.max(np.max(err, axis=-1) / np.max(size, axis=-1)))


def test_kernels_match_numpy(rng):
    a, b = (rng.normal(size=(16, 16, 2, 2))
            + 1j * rng.normal(size=(16, 16, 2, 2)) for _ in range(2))
    # contiguous entry planes, and (..., 2, 2) stacks through moveaxis views
    for x, y in ((np.ascontiguousarray(_planes(a)),
                  np.ascontiguousarray(_planes(b))), (_planes(a), _planes(b))):
        assert _rel(_stack(mm2(x, y)), np.matmul(a, b)) < 1e-14
        assert _rel(_stack(inv2(x)), np.linalg.inv(a)) < 1e-14
        det = np.linalg.det(a)
        assert np.max(np.abs(det2(x) - det) / np.abs(det)) < 1e-14
    # a constant 2x2 matrix broadcast against the stack, on either side
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    c_planes = c[:, :, None, None]
    assert _rel(_stack(mm2(c_planes, _planes(b))), np.matmul(c, b)) < 1e-14
    assert _rel(_stack(mm2(_planes(b), c_planes)), np.matmul(b, c)) < 1e-14
    assert _rel(inv2(c), np.linalg.inv(c)) < 1e-14


def test_kernels_never_raise_on_singular_or_nan_stacks():
    singular = np.ones((3, 4, 2, 2), dtype=complex)    # [[1, 1], [1, 1]]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(singular)
    assert np.array_equal(det2(_planes(singular)), np.zeros((3, 4)))
    nan = np.full((3, 4, 2, 2), complex(np.nan, 0.0))
    # the IEEE flags of a division by zero are the caller's to silence
    with np.errstate(divide="ignore", invalid="ignore"):
        for M in (singular, nan):
            assert not np.isfinite(inv2(_planes(M))).any()
    assert np.isnan(det2(_planes(nan))).all()
    assert np.isnan(mm2(_planes(nan), _planes(singular))).all()


def test_stacked_matrix_algebra_goes_through_the_kernels():
    # numpy's batched @, inv, det and einsum make one BLAS or LAPACK call per
    # 2x2 matrix, and inv raises on a singular one
    src = Path(mm2.__code__.co_filename).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        for token in ("np.linalg.inv(", "np.linalg.det(", "np.einsum(",
                      " @ "):
            assert token not in text, f"{path.name} holds {token!r}"

"""2x2 complex matrices, the SU(1,1) structure check, and truncated
matrix-valued Laurent polynomials in the spectral parameter.

Every stacked 2x2 product, inverse and determinant goes through `mm2`,
`inv2` and `det2`, closed forms on entry planes (2, 2, ...); a stack M of
shape (..., 2, 2) passes as the view np.moveaxis(M, (-2, -1), (0, 1)).

Every loop is twisted.  The grading is stated here alone (`class_rows`):
entry (r, c) of lam^j is allowed only when r + c + j is even, and the
constructor, the one check, refuses any nonzero forbidden entry, NaN and
inf included (`forbidden_mass`).  A loop's lam derivatives have the other
grading: they are only evaluated (`MatrixLoop.eval(lam, 1 or 2)`).
All loop values broadcast over leading batch axes of the coefficient
array, which has shape (..., P, 2, 2) for P consecutive powers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQRT_I = np.exp(0.25j * np.pi)  # fixed branch of sqrt(i), used everywhere

SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Orthogonal basis of su(1,1) with timelike third vector.
E1 = 0.5 * np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
E2 = 0.5 * np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
E3 = 0.5 * np.array([[-1.0j, 0.0], [0.0, 1.0j]], dtype=complex)


def mm2(a, b):
    """Products of 2x2 entry planes a (2, 2, ...) with b (2, c, ...); the
    trailing axes broadcast.  Each entry is the sum of two products in a
    fixed order, so a node's bits do not depend on the other nodes."""
    return a[:, 0, None] * b[None, 0] + a[:, 1, None] * b[None, 1]


def det2(a):
    """Determinants of 2x2 entry planes (2, 2, ...).  `...` keeps one matrix's
    entries arrays: numpy's scalar complex arithmetic rounds differently."""
    return a[0, 0, ...] * a[1, 1, ...] - a[0, 1, ...] * a[1, 0, ...]


def inv2(a):
    """Inverses of 2x2 entry planes (2, 2, ...) by the adjugate.  A singular
    or non-finite matrix gets non-finite entries; nothing raises."""
    det = det2(a)
    out = np.empty(a.shape, dtype=np.result_type(a, det))
    out[0, 0], out[0, 1] = a[1, 1, ...] / det, -a[0, 1, ...] / det
    out[1, 0], out[1, 1] = -a[1, 0, ...] / det, a[0, 0, ...] / det
    return out


def su11_residual(M):
    """Deviation of M from SU(1,1), max over three defining relations.

    Checks M^dag sigma3 M = sigma3, det M = 1, and the reality form
    [[a, b], [conj(b), conj(a)]]; entrywise max-abs norms.
    """
    m = np.moveaxis(np.asarray(M, dtype=complex), (-2, -1), (0, 1))
    # sigma3 M is M with its second row negated
    herm = (mm2(np.swapaxes(m, 0, 1).conj(), np.stack([m[0], -m[1]]))
            - SIGMA3.reshape((2, 2) + (1,) * (m.ndim - 2)))
    r1 = np.max(np.abs(herm), axis=(0, 1))
    r2 = np.abs(det2(m) - 1.0)
    r3 = np.maximum(np.abs(m[1, 0] - m[0, 1].conj()),
                    np.abs(m[1, 1] - m[0, 0].conj()))
    return np.maximum(np.maximum(r1, r2), r3)


def class_rows(classes, powers):
    """The twisted grading: parity class c holds row (t + j + c) % 2 of
    column t at power j, shape (classes, len(powers), 2).  Class 0 is what
    a twisted loop allows, class 1 what it forbids."""
    return (np.arange(classes)[:, None, None]
            + np.asarray(powers)[:, None] + np.arange(2)) % 2


def forbidden_mass(coeffs, low):
    """Largest forbidden |entry| of coefficients (..., P, 2, 2) of powers
    low, low + 1, ...: exactly 0.0 when they are twisted, nan when a
    forbidden entry is NaN.  One strided view per power parity and column."""
    views = [coeffs[..., q::2, row, t] for q in (0, 1)
             for t, row in enumerate(class_rows(2, [low + q])[1, 0])]
    if not any(v.any() for v in views):
        return 0.0
    return float(np.max([np.max(np.abs(v), initial=0.0) for v in views]))


@dataclass
class MatrixLoop:
    """Truncated Laurent polynomial sum_j A_j lam^j with 2x2 coefficients.

    coeffs[..., k, :, :] is the coefficient of lam^(low + k).
    """

    coeffs: np.ndarray
    low: int

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape[-2:] != (2, 2):
            raise ValueError("coefficients must be (..., P, 2, 2)")
        bad = forbidden_mass(self.coeffs, self.low)
        if bad != 0.0:
            raise ValueError(f"loop has forbidden-parity mass {bad:.3e}")

    @property
    def high(self):
        return self.low + self.coeffs.shape[-3] - 1

    @property
    def order(self):
        return max(abs(self.low), abs(self.high))

    @property
    def batch_shape(self):
        return self.coeffs.shape[:-3]

    @classmethod
    def identity(cls, batch_shape=()):
        c = np.zeros(batch_shape + (1, 2, 2), dtype=complex)
        c[..., 0, :, :] = np.eye(2)
        return cls(c, 0)

    @classmethod
    def constant(cls, M):
        M = np.asarray(M, dtype=complex)
        return cls(M[..., None, :, :], 0)

    def coeff(self, j):
        """Coefficient of lam^j (zeros outside the window)."""
        if self.low <= j <= self.high:
            return self.coeffs[..., j - self.low, :, :]
        return np.zeros(self.batch_shape + (2, 2), dtype=complex)

    def eval(self, lam, derivative=0):
        """Horner evaluation at lam on the unit circle, of the loop or of its
        first or second lam-derivative (from j A_j or j (j - 1) A_j, formed
        one power at a time)."""
        lam = complex(lam)
        if not abs(abs(lam) - 1.0) <= 1e-12:
            raise ValueError(f"|lam| = {abs(lam):.6f} is off the unit circle")
        out = np.zeros(self.batch_shape + (2, 2), dtype=complex)
        for k in range(self.coeffs.shape[-3] - 1, -1, -1):
            c, p = self.coeffs[..., k, :, :], self.low + k
            for d in range(derivative):
                c = c * (p - d)
            out = out * lam + c
        if self.low != derivative:
            out = out * lam ** (self.low - derivative)
        return out

    def mul(self, other, lo=None, hi=None):
        """Cauchy product on the powers lo..hi (clipped to the product's,
        which is the default); a window keeping no power raises ValueError.

        A direct sum per power, not an FFT, so every coefficient is rounded
        relative to its own terms and forbidden-parity entries stay exactly
        zero; a window sums the same terms in the same order as the full
        product, so it is bit-equal to its slice.  A power a factor lacks adds
        no term; zero-padding it would add exact zeros to sums that start at
        +0, the same bits for finite factors.  Loops over self's powers, no
        more than other's in the pipeline.  Only the factors' allowed
        entries are multiplied, a quarter of the dense terms, in order:
        bit-equal to the dense sum.
        """
        batch = np.broadcast_shapes(self.batch_shape, other.batch_shape)
        a, b = _planes(self.coeffs, batch), _planes(other.coeffs, batch)
        Pa, Pb = a.shape[2], b.shape[2]
        low = self.low + other.low
        # kept output indices i0..i1; a[k] b[j] goes to output index k + j
        i0 = 0 if lo is None else max(lo - low, 0)
        i1 = Pa + Pb - 2 if hi is None else min(hi - low, Pa + Pb - 2)
        if i0 > i1:
            raise ValueError(f"window [{lo}, {hi}] keeps no power")
        out = np.zeros((2, 2, i1 - i0 + 1) + batch, dtype=complex)
        # the allowed rows of a's powers and of b's first one
        rows_a = class_rows(1, self.low + np.arange(Pa))[0]
        rows_b = class_rows(1, [other.low])[0, 0]
        for k in range(max(i0 - Pb + 1, 0), min(i1 + 1, Pa)):
            for s in range(2):
                # a[:, s, k] lives in one row r, b[s, c] on every other
                # power, from the first whose allowed row is s
                r = rows_a[k, s]
                for c in range(2):
                    j = int(rows_b[c] != s)
                    j -= min(k + j - i0, 0) // 2 * 2  # first kept j
                    out[r, c, k + j - i0:k + Pb - i0:2] += (
                        a[r, s, k, None] * b[s, c, j:i1 - k + 1:2])
        return MatrixLoop(np.moveaxis(out, (0, 1, 2), (-2, -1, -3)), low + i0)

    def adjoint_on_circle(self):
        """Loop whose circle values are the conjugate transposes of self's."""
        c = np.swapaxes(self.coeffs.conj(), -1, -2)[..., ::-1, :, :]
        return MatrixLoop(c.copy(), -self.high)

    def at_node(self, index):
        """Single-node loop out of a batched one."""
        return MatrixLoop(self.coeffs[index], self.low)


def _planes(coeffs, batch):
    """(..., P, 2, 2) coefficients as contiguous entry planes (2, 2, P, *batch);
    powers before nodes, so each multiply-add in `mul` is one block."""
    c = np.broadcast_to(coeffs, batch + coeffs.shape[-3:])
    return np.ascontiguousarray(np.moveaxis(c, (-2, -1, -3), (0, 1, 2)))


def plus_loop_inverse(L, order):
    """Power-series inverse of a plus-loop, truncated at `order`.

    Requires low == 0 (ValueError otherwise) and an invertible constant
    term.  Power k is -B_0^{-1} sum_{m=1..k} B_m X_{k-m}, summed in
    order of m by multiply-adds on entry planes, as in `MatrixLoop.mul`;
    the inverse is twisted, and B_m X_{k-m} is one product per inner index
    and entry, bit-equal to the dense sum.
    """
    if L.low != 0:
        raise ValueError("plus-loop inversion needs low == 0")
    batch = L.batch_shape
    P = min(L.coeffs.shape[-3], order + 1)
    b = _planes(L.coeffs[..., :P, :, :], batch)
    b0_inv = inv2(b[:, :, 0])
    # only the allowed entries are written: the forbidden ones keep the +0
    # of np.zeros, as in `MatrixLoop.mul`.  `...` keeps an unbatched L's
    # entries arrays: numpy's scalar complex product rounds differently
    out = np.zeros((2, 2, order + 1) + batch, dtype=complex)
    for r in range(2):
        out[r, r, 0, ...] = b0_inv[r, r, ...]
    for k in range(1, order + 1):
        acc = np.zeros((2, 2) + batch, dtype=complex)
        for m in range(1, min(k, P - 1) + 1):
            for s in range(2):
                r, c = (s + m) % 2, (s + k - m) % 2
                acc[r, c, ...] += b[r, s, m, ...] * out[s, c, k - m, ...]
        # B_0^{-1} is diagonal: column c's one allowed entry is in row r
        for c in range(2):
            r = (c + k) % 2
            out[r, c, k, ...] = -(b0_inv[r, r, ...] * acc[r, c, ...])
    return MatrixLoop(np.moveaxis(out, (0, 1, 2), (-2, -1, -3)), 0)

"""2x2 complex matrices, the SU(1,1) structure check, and truncated
matrix-valued Laurent polynomials in the spectral parameter.

One layout holds every batch of 2x2 data: the matrix axes first, the batch
axes last.  A stack of matrices is its entry planes (2, 2, ...), so a
matrix field on a grid is (2, 2, ny, nx), and a loop stores (P, 2, ...).
Every stacked 2x2 product, inverse and determinant goes through `mm2`,
`inv2` and `det2`, closed forms on entry planes, and no caller moves an
axis.  Only the read-only `MatrixLoop.coeffs` and the frame cache's bytes
on disk keep the node-major order (..., 2, 2).

Every loop is twisted.  The grading is stated here alone (`class_rows`):
entry (r, c) of lam^j is allowed only when r + c + j is even, so each
column holds one allowed entry per power, on the diagonal at even powers
and off it at odd ones.  A loop stores those entries alone, an array
(P, 2, ...) for P consecutive powers whose trailing axes are a batch; a
forbidden entry has no slot, so there is nothing to check.  Dense 2x2
values appear only where one is read: `MatrixLoop.eval`, `coeff` and the
read-only `coeffs`.  A loop's lam derivatives have the other grading: they
are only evaluated (`MatrixLoop.eval(lam, 1 or 2)`).
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
    """Deviation of the entry planes M (2, 2, ...) from SU(1,1), max over
    three defining relations.

    Checks M^dag sigma3 M = sigma3, det M = 1, and the reality form
    [[a, b], [conj(b), conj(a)]]; entrywise max-abs norms.
    """
    m = np.asarray(M, dtype=complex)
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


@dataclass
class MatrixLoop:
    """Truncated twisted Laurent polynomial sum_j A_j lam^j, 2x2 coefficients.

    entries[k, c, ...] is column c's allowed entry of the coefficient of
    lam^(low + k), in `class_rows`' row (c + low + k) % 2.
    """

    entries: np.ndarray
    low: int

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)

    @property
    def high(self):
        return self.low + len(self.entries) - 1

    @property
    def order(self):
        return max(abs(self.low), abs(self.high))

    @property
    def batch_shape(self):
        return self.entries.shape[2:]

    @property
    def rows(self):
        """Row of each entry, (P, 2)."""
        return class_rows(1, self.low + np.arange(len(self.entries)))[0]

    @property
    def coeffs(self):
        """The coefficients (..., P, 2, 2), node-major, forbidden entries
        +0: a read-only view of a new array on each read."""
        c = np.moveaxis(np.stack([self.coeff(j) for j in
                                  range(self.low, self.high + 1)]),
                        (0, 1, 2), (-3, -2, -1))
        c.flags.writeable = False
        return c

    @classmethod
    def identity(cls, batch_shape=()):
        return cls(np.ones((1, 2) + batch_shape, dtype=complex), 0)

    def coeff(self, j):
        """Coefficient of lam^j as entry planes (2, 2, ...) (zeros outside
        the window)."""
        out = np.zeros((2, 2) + self.batch_shape, dtype=complex)
        if self.low <= j <= self.high:
            out[(j + np.arange(2)) % 2, [0, 1]] = self.entries[j - self.low]
        return out

    def eval(self, lam, derivative=0):
        """Horner evaluation at lam on the unit circle, of the loop or of its
        first or second lam-derivative (from j A_j or j (j - 1) A_j, formed
        one power at a time), as entry planes (2, 2, ...).

        The sum runs on those planes, in place: power j's entries
        go to the dense term of j's parity, whose forbidden entries are +0,
        and are scaled there.  A factor j - d below 1 signs those zeros, so
        they are reset after use: the bits are those of the sum of `coeff(j)`.
        """
        lam = complex(lam)
        if not abs(abs(lam) - 1.0) <= 1e-12:
            raise ValueError(f"|lam| = {abs(lam):.6f} is off the unit circle")
        cols = np.arange(2)
        out = np.zeros((2, 2) + self.batch_shape, dtype=complex)
        terms = np.zeros((2,) + out.shape, dtype=complex)
        for p in range(self.high, self.low - 1, -1):
            c = terms[p % 2]
            c[(p + cols) % 2, cols] = self.entries[p - self.low]
            for d in range(derivative):
                c *= p - d
            out *= lam
            out += c
            if p < derivative:
                c[(p + 1 + cols) % 2, cols] = 0.0
        if self.low != derivative:
            out *= lam ** (self.low - derivative)
        return out

    def mul(self, other, lo=None, hi=None):
        """Cauchy product on the powers lo..hi (clipped to the product's,
        which is the default); a window keeping no power raises ValueError.

        A direct sum per power, not an FFT, so every coefficient is rounded
        relative to its own terms; a window sums the same terms in the same
        order as the full product, so it is bit-equal to its slice.  Power k
        of self meets power j of other in one term per column c:
        self's entry in column row(j, c), times other's (j, c), lands on
        power k + j, column c.  The terms are summed from +0 in order of k,
        over self's powers, no more than other's in the pipeline; a power a
        factor lacks adds no term.
        """
        batch = np.broadcast_shapes(self.batch_shape, other.batch_shape)
        # a factor of fewer batch axes gets unit ones, so that both broadcast
        a, b = (np.expand_dims(L.entries, tuple(range(
            2, 2 + len(batch) - len(L.batch_shape)))) for L in (self, other))
        Pa, Pb = len(a), len(b)
        low = self.low + other.low
        # kept output indices i0..i1; a[k] b[j] goes to output index k + j
        i0 = 0 if lo is None else max(lo - low, 0)
        i1 = Pa + Pb - 2 if hi is None else min(hi - low, Pa + Pb - 2)
        if i0 > i1:
            raise ValueError(f"window [{lo}, {hi}] keeps no power")
        out = np.zeros((i1 - i0 + 1, 2) + batch, dtype=complex)
        for k in range(max(i0 - Pb + 1, 0), min(i1 + 1, Pa)):
            stop = min(i1 - k + 1, Pb)
            for j in range(max(i0 - k, 0), stop)[:2]:
                # b's powers j, j + 2, .. have their entries in the rows of
                # power j: a's columns in that order, or swapped
                rows = a[k, ::1 - 2 * ((other.low + j) % 2)]
                out[k + j - i0:k + stop - i0:2] += rows * b[j:stop:2]
        return MatrixLoop(out, low + i0)

    def adjoint_on_circle(self):
        """Loop whose circle values are the conjugate transposes of self's:
        column c of power -j is row c of power j."""
        P = len(self.entries)
        return MatrixLoop(self.entries[
            np.arange(P)[::-1, None], self.rows[::-1]].conj(), -self.high)


def plus_loop_inverse(L, order):
    """Power-series inverse of a plus-loop, truncated at `order`.

    The factorization inverts B+ this way, to N for a minus-loop Phi on
    -N..0 and to 2N for a Phi with positive powers; the tests hold its F to
    Phi times this inverse to 2N.

    Requires low == 0 (ValueError otherwise) and an invertible constant
    term.  Power k is -B_0^{-1} sum_{m=1..k} B_m X_{k-m}, summed from +0 in
    order of m on entry planes, as in `MatrixLoop.mul`: column c of
    B_m X_{k-m} is B_m's entry in column row(k - m, c) times X_{k-m}'s
    (k - m, c), and B_0 is diagonal.
    """
    if L.low != 0:
        raise ValueError("plus-loop inversion needs low == 0")
    batch = L.batch_shape
    P = min(len(L.entries), order + 1)
    b = L.entries[:P]
    # `...` keeps an unbatched L's entries arrays: numpy's scalar complex
    # product rounds differently
    det = b[0, 0, ...] * b[0, 1, ...]
    out = np.empty((order + 1, 2) + batch, dtype=complex)
    out[0] = b[0, ::-1] / det   # B_0^{-1}: column c's entry is in row c
    for k in range(1, order + 1):
        acc = np.zeros((2,) + batch, dtype=complex)
        for m in range(1, min(k, P - 1) + 1):
            acc += b[m, ::1 - 2 * ((k - m) % 2)] * out[k - m]
        # column c's entry is in row (c + k) % 2
        out[k] = -(out[0, ::1 - 2 * (k % 2)] * acc)
    return MatrixLoop(out, 0)

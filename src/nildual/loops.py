"""2x2 complex matrices, the SU(1,1) structure check, and truncated
matrix-valued Laurent polynomials in the spectral parameter.

Loops carry an optional parity tag: "twisted" means diagonal entries are
supported on even powers and off-diagonal entries on odd powers;
"anti" is the opposite.  Differentiation in the parameter flips the tag.
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

_PARITY_FLIP = {"twisted": "anti", "anti": "twisted", None: None}


def su11_residual(M):
    """Deviation of M from SU(1,1), max over three defining relations.

    Checks M^dag sigma3 M = sigma3, det M = 1, and the reality form
    [[a, b], [conj(b), conj(a)]]; entrywise max-abs norms.
    """
    M = np.asarray(M, dtype=complex)
    herm = np.swapaxes(M.conj(), -1, -2) @ SIGMA3 @ M - SIGMA3
    r1 = np.max(np.abs(herm), axis=(-2, -1))
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    r2 = np.abs(det - 1.0)
    r3 = np.maximum(np.abs(M[..., 1, 0] - M[..., 0, 1].conj()),
                    np.abs(M[..., 1, 1] - M[..., 0, 0].conj()))
    return np.maximum(np.maximum(r1, r2), r3)


def _parity_violation(coeffs, low, parity):
    """Max magnitude sitting on forbidden-parity entries."""
    if parity is None:
        return 0.0
    worst = 0.0
    for k in range(coeffs.shape[-3]):
        j = low + k
        even = (j % 2 == 0)
        diag_allowed = even if parity == "twisted" else not even
        c = coeffs[..., k, :, :]
        diag = max(np.max(np.abs(c[..., 0, 0])), np.max(np.abs(c[..., 1, 1])))
        off = max(np.max(np.abs(c[..., 0, 1])), np.max(np.abs(c[..., 1, 0])))
        worst = max(worst, off if diag_allowed else diag)
    return worst


@dataclass
class MatrixLoop:
    """Truncated Laurent polynomial sum_j A_j lam^j with 2x2 coefficients.

    coeffs[..., k, :, :] is the coefficient of lam^(low + k).
    """

    coeffs: np.ndarray
    low: int
    parity: str | None = None

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape[-2:] != (2, 2):
            raise ValueError("coefficients must be (..., P, 2, 2)")
        if self.parity not in ("twisted", "anti", None):
            raise ValueError(f"unknown parity {self.parity!r}")
        if self.parity is not None:
            bad = _parity_violation(self.coeffs, self.low, self.parity)
            if bad != 0.0:
                raise ValueError(
                    f"{self.parity} loop has forbidden-parity mass {bad:.3e}"
                )

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
    def identity(cls, batch_shape=(), parity="twisted"):
        c = np.zeros(batch_shape + (1, 2, 2), dtype=complex)
        c[..., 0, :, :] = np.eye(2)
        return cls(c, 0, parity)

    @classmethod
    def constant(cls, M, parity=None):
        M = np.asarray(M, dtype=complex)
        return cls(M[..., None, :, :], 0, parity)

    def coeff(self, j):
        """Coefficient of lam^j (zeros outside the window)."""
        if self.low <= j <= self.high:
            return self.coeffs[..., j - self.low, :, :]
        return np.zeros(self.batch_shape + (2, 2), dtype=complex)

    def eval(self, lam, allow_off_circle=False):
        """Horner evaluation at lam; on-circle unless explicitly allowed."""
        lam = complex(lam)
        if not allow_off_circle and abs(abs(lam) - 1.0) > 1e-12:
            raise ValueError(f"|lam| = {abs(lam):.6f} is off the unit circle")
        out = np.zeros(self.batch_shape + (2, 2), dtype=complex)
        for k in range(self.coeffs.shape[-3] - 1, -1, -1):
            out = out * lam + self.coeffs[..., k, :, :]
        if self.low != 0:
            out = out * lam ** self.low
        return out

    def dlambda(self):
        """Exact derivative in the parameter: j A_j shifted to power j-1."""
        P = self.coeffs.shape[-3]
        powers = np.arange(self.low, self.low + P)
        c = self.coeffs * powers[:, None, None]
        return MatrixLoop(c, self.low - 1, _PARITY_FLIP[self.parity])

    def mul(self, other):
        """Cauchy product; window widens to the sum of the windows.

        A direct sum per power, not an FFT, so every coefficient is rounded
        relative to its own terms and forbidden-parity entries stay exactly
        zero.  Loops over self's window, which is never the longer one
        in the pipeline's products.
        """
        batch = np.broadcast_shapes(self.batch_shape, other.batch_shape)
        a, b = _planes(self.coeffs, batch), _planes(other.coeffs, batch)
        Pa, Pb = a.shape[2], b.shape[2]
        out = np.zeros((2, 2, Pa + Pb - 1) + batch, dtype=complex)
        term = np.empty((2, 2, Pb) + batch, dtype=complex)
        for k in range(Pa):
            for s in range(2):
                np.multiply(a[:, s, k, None, None], b[None, s], out=term)
                out[:, :, k:k + Pb] += term
        parity = None
        if self.parity is not None and other.parity is not None:
            parity = "twisted" if self.parity == other.parity else "anti"
        return MatrixLoop(np.moveaxis(out, (0, 1, 2), (-2, -1, -3)),
                          self.low + other.low, parity)

    def truncated(self, order):
        """The loop with its window clipped to [-order, order]."""
        lo = max(self.low, -order)
        hi = min(self.high, order)
        if lo > hi:
            raise ValueError("window collapsed to nothing")
        keep = self.coeffs[..., lo - self.low:hi - self.low + 1, :, :]
        return MatrixLoop(keep.copy(), lo, self.parity)

    def adjoint_on_circle(self):
        """Loop whose circle values are the conjugate transposes of self's."""
        c = np.swapaxes(self.coeffs.conj(), -1, -2)[..., ::-1, :, :]
        return MatrixLoop(c.copy(), -self.high, self.parity)

    def with_parity(self, parity, tol=1e-10):
        """Claim a parity, zeroing forbidden mass below tol (else raise)."""
        bad = _parity_violation(self.coeffs, self.low, parity)
        if bad > tol:
            raise ValueError(f"forbidden-parity mass {bad:.3e} exceeds {tol:.1e}")
        c = self.coeffs.copy()
        for k in range(c.shape[-3]):
            j = self.low + k
            even = (j % 2 == 0)
            diag_allowed = even if parity == "twisted" else not even
            if diag_allowed:
                c[..., k, 0, 1] = 0.0
                c[..., k, 1, 0] = 0.0
            else:
                c[..., k, 0, 0] = 0.0
                c[..., k, 1, 1] = 0.0
        return MatrixLoop(c, self.low, parity)

    def at_node(self, index):
        """Single-node loop out of a batched one."""
        return MatrixLoop(self.coeffs[index], self.low, self.parity)


def _planes(coeffs, batch):
    """(..., P, 2, 2) coefficients as contiguous entry planes (2, 2, P, *batch);
    powers before nodes, so each multiply-add in `mul` is one block."""
    c = np.broadcast_to(coeffs, batch + coeffs.shape[-3:])
    return np.ascontiguousarray(np.moveaxis(c, (-2, -1, -3), (0, 1, 2)))


def plus_loop_inverse(L, order):
    """Power-series inverse of a plus-loop, truncated at `order`.

    Requires low == 0 and an invertible constant term.  Power k is
    -B_0^{-1} sum_{m=1..k} B_m X_{k-m}, summed in order of m by
    multiply-adds on entry planes, as in `MatrixLoop.mul`.
    """
    if L.low != 0:
        raise ValueError("plus-loop inversion needs low == 0")
    batch = L.batch_shape
    P = min(L.coeffs.shape[-3], order + 1)
    b = _planes(L.coeffs[..., :P, :, :], batch)
    b0_inv = np.moveaxis(np.linalg.inv(L.coeffs[..., 0, :, :]), (-2, -1), (0, 1))
    out = np.zeros((2, 2, order + 1) + batch, dtype=complex)
    out[:, :, 0] = b0_inv
    for k in range(1, order + 1):
        acc = np.zeros((2, 2) + batch, dtype=complex)
        for m in range(1, min(k, P - 1) + 1):
            for s in range(2):
                acc += b[:, s, m, None] * out[None, s, :, k - m]
        out[:, :, k] = -(b0_inv[:, 0, None] * acc[None, 0]
                         + b0_inv[:, 1, None] * acc[None, 1])
    return MatrixLoop(np.moveaxis(out, (0, 1, 2), (-2, -1, -3)), 0, None)

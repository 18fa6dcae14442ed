"""The parameter family of flat connections and extended frames.

For minimal data (w, B) the connection is  alpha = U dz + V dzbar  with

    U = [[ w_z/4, -e^{w/2}/lam], [B e^{-w/2}/lam, -w_z/4]],
    V = [[-w_zbar/4, -lam conj(B) e^{-w/2}], [lam e^{w/2}, w_zbar/4]],

flat for every unit-modulus lam.  Frames solve F^{-1} dF = alpha and are
integrated jointly with their first two parameter derivatives so the
surface formulas downstream never differentiate numerically in lam.
No frame node is ever repaired: `sym.sym_maps` refuses a frame whose surface
matrices leave su(1,1) beyond REALITY_TOL, and names the worst node.  The
`--spinors` pipeline marches on the sub-grid 4 nodes in from each edge.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import VerticalPointError
from .loops import SQRT_I, inv2, mm2
from .nil3 import dz_field, dzbar_field, march_grid, node_stages, rk4_march
from .spinors import minimality_gate

UPWARD_TOL = 1e-12  # |psi1|^2 - |psi2|^2 at or below this: no upward frame


def _connection_parts(d):
    """lam-graded pieces of the connection from minimal Dirac data.

    Returns (U_0, U_m, V_0, V_p): U = U_0 + U_m / lam, V = V_0 + lam V_p.
    """
    shape = d.grid.shape
    ew2 = d.ew2
    U0 = np.zeros(shape + (2, 2), dtype=complex)
    U0[..., 0, 0] = 0.25 * d.w_z
    U0[..., 1, 1] = -0.25 * d.w_z
    Um = np.zeros_like(U0)
    Um[..., 0, 1] = -ew2
    Um[..., 1, 0] = d.B / ew2
    V0 = np.zeros_like(U0)
    V0[..., 0, 0] = -0.25 * d.w_zb
    V0[..., 1, 1] = 0.25 * d.w_zb
    Vp = np.zeros_like(U0)
    Vp[..., 0, 1] = -np.conj(d.B) / ew2
    Vp[..., 1, 0] = ew2
    return U0, Um, V0, Vp


def _connection(d, lam):
    lam = complex(lam)
    U0, Um, V0, Vp = _connection_parts(d)
    return U0 + Um / lam, V0 + lam * Vp


def connection_coeffs(d, lam):
    """(U, V) matrix fields of the flat connection at the given lam."""
    minimality_gate(d, "connection assembled for minimal data only")
    return _connection(d, lam)


def flatness_residual(d, lams):
    """max over lam of  |dz V - dzbar U + [U, V]|  per node.

    Minimal or not: the residual is how far the data are from flat."""
    out = np.zeros(d.grid.shape)
    for lam in np.atleast_1d(lams):
        U, V = _connection(d, lam)
        dV = dz_field(V, d.grid)
        dU = dzbar_field(U, d.grid)
        u, v = (np.moveaxis(M, (-2, -1), (0, 1)) for M in (U, V))
        comm = np.moveaxis(mm2(u, v) - mm2(v, u), (0, 1), (-2, -1))
        res = np.max(np.abs(dV - dU + comm), axis=(-2, -1))
        out = np.maximum(out, res)
    return out


@dataclass
class FrameField:
    """Frame and its first two parameter derivatives at one sampled lam."""

    F: np.ndarray       # (ny, nx, 2, 2)
    F_lam: np.ndarray
    F_lam2: np.ndarray
    lam: complex
    grid: object
    reprojections: int = 0  # always 0: no node is repaired; benchmark field


def integrate_frame(d, lam, base_value=None, column_first=True,
                    derivatives=True):
    """Integrate dF = F alpha jointly with dF_lam and dF_lam2.

    The parameter enters the connection only through 1/lam and lam, so the
    exact derivative sources  d(alpha)/dlam  and  d^2(alpha)/dlam^2  close
    the coupled system at fixed lam.  F at the grid's centre node is
    base_value (default I), its derivatives 0 there.  `nil3.march_grid`
    fills the grid from that node by half-lines, the centre's column first
    (row, when `column_first` is false), one classical 4th-order step per
    node interval on 2x2 entry planes, state (3 or 1, 2, 2, lines).  alpha
    and its lam-derivatives are formed at the nodes once per direction,
    i(U - V) along y and U + V along x, and gathered along each batch of
    half-lines.
    With `derivatives` false F is marched alone, bit-equal to its slice of
    the joint march, and F_lam, F_lam2 are None.
    """
    minimality_gate(d, "frame integration needs minimal data")
    lam = complex(lam)
    grid = d.grid
    U0, Um, V0, Vp = _connection_parts(d)
    parts = [(U0 + Um / lam, V0 + lam * Vp)]
    if derivatives:
        parts += [(-Um / lam**2, Vp), (2.0 * Um / lam**3, np.zeros_like(Vp))]
    # alpha along y, i(U - V), and along x, U + V: (3 or 1, 2, 2, ny, nx)
    alpha = [np.moveaxis(np.stack(a), (3, 4), (1, 2)) for a in
             ([1j * (U - V) for U, V in parts], [U + V for U, V in parts])]

    def rhs(Y, A):
        dY = [mm2(Y[0], A[0])]
        if derivatives:
            dY += [mm2(Y[1], A[0]) + mm2(Y[0], A[1]),
                   mm2(Y[2], A[0]) + 2.0 * mm2(Y[1], A[1]) + mm2(Y[0], A[2])]
        return np.stack(dY)

    def march(y0, axis, lines, c, dirs, steps):
        # each half-line's whole line in marching order, so that the
        # interpolation windows reach behind its start node
        n = grid.shape[axis]
        k0 = c if dirs[0] > 0 else n - 1 - c
        pos = c + dirs * (np.arange(n)[:, None] - k0)
        a = alpha[axis]
        node = node_stages(a[..., pos, lines] if axis == 0
                           else a[..., lines, pos])
        h = dirs * (grid.hy if axis == 0 else grid.hx)
        return rk4_march(y0, [h] * steps, lambda k: node(k0 + k), rhs)

    if base_value is None:
        base_value = np.eye(2, dtype=complex)
    out = np.zeros((3 if derivatives else 1, 2, 2) + grid.shape,
                   dtype=complex)
    i, j = grid.centre
    out[0, :, :, i, j] = base_value
    march_grid(out, grid.centre, column_first, march)
    out = np.ascontiguousarray(np.moveaxis(out, (0, 1, 2), (2, 3, 4)))
    F_lam, F_lam2 = (out[:, :, k] if derivatives else None for k in (1, 2))
    return FrameField(F=out[:, :, 0], F_lam=F_lam, F_lam2=F_lam2, lam=lam,
                      grid=grid)


def frame_from_spinors(s):
    """Pointwise frame  (|psi1|^2-|psi2|^2)^{-1/2} [[psi1/sqrt(i), psi2/sqrt(i)],
    [sqrt(i) conj(psi2), sqrt(i) conj(psi1)]];  exactly in SU(1,1)."""
    norm2 = np.abs(s.psi1) ** 2 - np.abs(s.psi2) ** 2
    if np.any(norm2 <= UPWARD_TOL):
        i, j = np.argwhere(norm2 <= UPWARD_TOL)[0]
        raise VerticalPointError(
            f"|psi1| <= |psi2| at node ({i}, {j}); no upward frame")
    nv = 1.0 / np.sqrt(norm2)
    F = np.empty(s.grid.shape + (2, 2), dtype=complex)
    F[..., 0, 0] = nv * s.psi1 / SQRT_I
    F[..., 0, 1] = nv * s.psi2 / SQRT_I
    F[..., 1, 0] = nv * np.conj(s.psi2) * SQRT_I
    F[..., 1, 1] = nv * np.conj(s.psi1) * SQRT_I
    return F


def frame_compatibility_residual(frame, d):
    """|F^{-1} dz F - U| and |F^{-1} dzbar F - V| per node, maxed."""
    U, V = connection_coeffs(d, frame.lam)
    Finv = inv2(np.moveaxis(frame.F, (-2, -1), (0, 1)))
    res = [mm2(Finv, np.moveaxis(dF, (-2, -1), (0, 1)))
           - np.moveaxis(W, (-2, -1), (0, 1))
           for dF, W in ((dz_field(frame.F, frame.grid), U),
                         (dzbar_field(frame.F, frame.grid), V))]
    return np.maximum(*(np.max(np.abs(r), axis=(0, 1)) for r in res))

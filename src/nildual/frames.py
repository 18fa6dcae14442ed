"""The parameter family of flat connections and extended frames.

For minimal data (w, B) the connection is  alpha = U dz + V dzbar  with

    U = [[ w_z/4, -e^{w/2}/lam], [B e^{-w/2}/lam, -w_z/4]],
    V = [[-w_zbar/4, -lam conj(B) e^{-w/2}], [lam e^{w/2}, w_zbar/4]],

flat for every unit-modulus lam.  U and V are twisted loops, U on the
powers -1..0 and V on 0..1 (`_connection`), read at lam, and
differentiated in lam, only by `MatrixLoop.eval`.  `verify.SheetAnalysis`
builds a sheet's loops once and forms each value once; the functions here
take values, (U, V) at one lam as entry planes (2, 2, ny, nx), and a grid.
Frames solve F^{-1} dF = alpha jointly with their first two
lam-derivatives, whose sources are `eval(lam, 1 or 2)`.  No frame node is
ever repaired: `sym.sym_maps` refuses a frame whose surface matrices leave
su(1,1) beyond REALITY_TOL.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import VerticalPointError
from .loops import SQRT_I, MatrixLoop, inv2, mm2
from .nil3 import _lagrange_weights, dz_field, dz_pair, dzbar_field

UPWARD_TOL = 1e-12  # |psi1|^2 - |psi2|^2 at or below this: no upward frame


def _connection(d):
    """The connection's (U, V) as twisted loops: U on the powers -1..0,
    V on 0..1.  Row k of a table is power low + k, its columns c hold
    column c's entry, in `class_rows`' row."""
    ew2, w_zb = d.ew2, np.conj(d.w_z)
    den = np.where(ew2 == 0, 1.0, ew2)  # 0 at a zero-filled, masked node

    return (MatrixLoop(np.array([[d.B / den, -ew2],
                                 [0.25 * d.w_z, -0.25 * d.w_z]]), -1),
            MatrixLoop(np.array([[-0.25 * w_zb, 0.25 * w_zb],
                                 [ew2, -np.conj(d.B) / den]]), 0))


def flatness_residual(connection, grid):
    """|dz V - dzbar U + [U, V]| per node, for the connection's values
    (U, V) at one lam on `grid`.

    Minimal or not: the residual is how far the data are from flat."""
    U, V = connection
    comm = mm2(U, V) - mm2(V, U)
    return np.max(np.abs(dz_field(V, grid) - dzbar_field(U, grid) + comm),
                  axis=(0, 1))


@dataclass
class FrameField:
    """Frame and its first two parameter derivatives at one sampled lam."""

    F: np.ndarray       # entry planes (2, 2, ny, nx)
    F_lam: np.ndarray
    F_lam2: np.ndarray
    lam: complex
    grid: object
    reprojections: int = 0  # always 0: no node is repaired; benchmark field


def integrate_frame(parts, lam, grid, base_value, column_first=True):
    """Integrate dF = F alpha on `grid` jointly with dF_lam and dF_lam2.

    `parts` holds the connection's values on `grid`: (U, V) at lam, then
    their first and second lam-derivatives, the exact sources
    d(alpha)/dlam  and  d^2(alpha)/dlam^2  (`eval(lam, 1 or 2)`) that
    close the coupled system at fixed lam.  F at the grid's centre node is
    base_value, its derivatives 0 there.  The centre's column
    (row, when `column_first` is false) is marched as two half-lines, then
    every row (column) both ways from it, halves of equal length as one
    batch: one classical 4th-order step per node interval on 2x2 entry
    planes, state (3 or 1, 2, 2, half-lines).  The midpoint stage is the
    cubic Lagrange value through 4 nodes of the line, summed node by node
    so that a line's bits do not depend on its batch.  alpha and its
    lam-derivatives are formed at the nodes once per direction, i(U - V)
    along y and U + V along x.  With (U, V) alone in `parts` F is marched
    alone, bit-equal to its slice of the joint march, and F_lam, F_lam2
    are None.
    """
    lam = complex(lam)
    derivatives = len(parts) > 1
    # alpha along y, i(U - V), and along x, U + V: (3 or 1, 2, 2, ny, nx)
    alpha = [np.stack(a) for a in
             ([1j * (U - V) for U, V in parts], [U + V for U, V in parts])]

    def rhs(Y, A):
        dY = [mm2(Y[0], A[0])]
        if derivatives:
            dY += [mm2(Y[1], A[0]) + mm2(Y[0], A[1]),
                   mm2(Y[2], A[0]) + 2.0 * mm2(Y[1], A[1]) + mm2(Y[0], A[2])]
        return np.stack(dY)

    out = np.zeros((len(parts), 2, 2) + grid.shape, dtype=complex)
    centre = i, j = grid.centre
    out[0, :, :, i, j] = base_value
    first, second = (0, 1) if column_first else (1, 0)
    # half-lines along grid axis 0 (columns) or 1 (rows), at index `lines`
    for axis, lines in ((first, np.array([centre[1 - first]])),
                        (second, np.arange(grid.shape[1 - second]))):
        n, c = grid.shape[axis], centre[axis]
        for ds in ([1, -1],) if 2 * c == n - 1 else ([1], [-1]):
            dirs = np.repeat(ds, len(lines))
            ls = np.tile(lines, len(ds))
            at = lambda pos: (..., pos, ls) if axis == 0 else (..., ls, pos)
            # each half-line's whole line in marching order, so that the
            # interpolation windows reach behind its start node
            k0 = c if ds[0] == 1 else n - 1 - c
            f = alpha[axis][at(c + dirs * (np.arange(n)[:, None] - k0))]
            h = dirs * (grid.hy if axis == 0 else grid.hx)
            # the gather lays the lines out first in memory: copy them last
            y = np.ascontiguousarray(out[at(c)])
            for k in range(k0, n - 1):
                lo = min(max(k - 1, 0), n - 4)
                w = _lagrange_weights(np.arange(lo - k, lo - k + 4), 0.5)
                mid = w[0] * f[..., lo, :]
                for a in range(1, 4):
                    mid = mid + w[a] * f[..., lo + a, :]
                k1 = rhs(y, f[..., k, :])
                k2 = rhs(y + 0.5 * h * k1, mid)
                k3 = rhs(y + 0.5 * h * k2, mid)
                k4 = rhs(y + h * k3, f[..., k + 1, :])
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                out[at(c + (k + 1 - k0) * dirs)] = y
    F_lam, F_lam2 = out[1:] if derivatives else (None, None)
    return FrameField(F=out[0], F_lam=F_lam, F_lam2=F_lam2, lam=lam,
                      grid=grid)


def frame_from_spinors(s):
    """Pointwise frame  (|psi1|^2-|psi2|^2)^{-1/2} [[psi1/sqrt(i), psi2/sqrt(i)],
    [sqrt(i) conj(psi2), sqrt(i) conj(psi1)]], entry planes (2, 2, ny, nx);
    exactly in SU(1,1).  Masked nodes are not checked, and their values are
    not to be read."""
    norm2 = np.where(s.mask, np.abs(s.psi1) ** 2 - np.abs(s.psi2) ** 2, 1.0)
    if np.any(norm2 <= UPWARD_TOL):
        i, j = np.argwhere(norm2 <= UPWARD_TOL)[0]
        raise VerticalPointError(
            f"|psi1| <= |psi2| at node ({i}, {j}); no upward frame")
    nv = 1.0 / np.sqrt(norm2)
    return np.array([[nv * s.psi1 / SQRT_I, nv * s.psi2 / SQRT_I],
                     [nv * np.conj(s.psi2) * SQRT_I,
                      nv * np.conj(s.psi1) * SQRT_I]])


def frame_compatibility_residual(frame, connection):
    """|F^{-1} dz F - U| and |F^{-1} dzbar F - V| per node, maxed, for the
    connection's values (U, V) at frame.lam on frame.grid."""
    Finv = inv2(frame.F)
    return np.maximum(*(np.max(np.abs(mm2(Finv, dF) - W), axis=(0, 1))
                        for dF, W in zip(dz_pair(frame.F, frame.grid),
                                         connection)))

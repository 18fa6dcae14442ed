"""The parameter family of flat connections and extended frames.

For minimal data (w, B) the connection is  alpha = U dz + V dzbar  with

    U = [[ w_z/4, -e^{w/2}/lam], [B e^{-w/2}/lam, -w_z/4]],
    V = [[-w_zbar/4, -lam conj(B) e^{-w/2}], [lam e^{w/2}, w_zbar/4]],

flat for every unit-modulus lam.  Frames solve F^{-1} dF = alpha and are
integrated jointly with their first two parameter derivatives so the
surface formulas downstream never differentiate numerically in lam.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import VerticalPointError
from .loops import SQRT_I, su11_residual
from .nil3 import dz_field, dzbar_field, node_stages, rk4_march
from .spinors import SpinorField, minimality_gate


def _connection_parts(d):
    """lam-graded pieces of the connection from minimal Dirac data.

    Returns (U_0, U_m, V_0, V_p): U = U_0 + U_m / lam, V = V_0 + lam V_p.
    """
    shape = d.grid.shape
    ew2 = d.ew2
    if d.w_z is not None:
        w_z, w_zb = d.w_z, d.w_zb
    else:
        # fall back to the logarithmic derivative of the potential field
        w_z = 2.0 * dz_field(ew2, d.grid) / ew2
        w_zb = 2.0 * dzbar_field(ew2, d.grid) / ew2
    U0 = np.zeros(shape + (2, 2), dtype=complex)
    U0[..., 0, 0] = 0.25 * w_z
    U0[..., 1, 1] = -0.25 * w_z
    Um = np.zeros_like(U0)
    Um[..., 0, 1] = -ew2
    Um[..., 1, 0] = d.B / ew2
    V0 = np.zeros_like(U0)
    V0[..., 0, 0] = -0.25 * w_zb
    V0[..., 1, 1] = 0.25 * w_zb
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
        comm = U @ V - V @ U
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
    reprojections: int = 0

    def su11_residual(self):
        return su11_residual(self.F)


def _reproject_su11(F):
    """Nearest matrix of the form [[a, b], [conj(b), conj(a)]] with
    |a|^2 - |b|^2 = 1."""
    a = 0.5 * (F[0, 0] + np.conj(F[1, 1]))
    b = 0.5 * (F[0, 1] + np.conj(F[1, 0]))
    n = np.sqrt(abs(abs(a) ** 2 - abs(b) ** 2))
    a, b = a / n, b / n
    return np.array([[a, b], [np.conj(b), np.conj(a)]])


def integrate_frame(d, lam, base_value=None, substeps=1, column_first=True,
                    drift_tol=1e-6):
    """Integrate dF = F alpha jointly with dF_lam and dF_lam2.

    The parameter enters the connection only through 1/lam and lam, so the
    exact derivative sources  d(alpha)/dlam  and  d^2(alpha)/dlam^2  close
    the coupled system at fixed lam.  Classical 4th-order stages run along
    the first column and then along all rows at once (or transposed when
    `column_first` is false); F(base) = base_value, derivatives start at 0.
    """
    minimality_gate(d, "frame integration needs minimal data")
    lam = complex(lam)
    grid = d.grid
    U0, Um, V0, Vp = _connection_parts(d)

    # stacked state Y = (F, F_lam, F_lam2), shape (lines, 3, 2, 2)
    def rhs(Y, A):
        A0, A1, A2 = A  # alpha and its first two lam-derivatives along dt
        F, F1, F2 = Y[:, 0], Y[:, 1], Y[:, 2]
        return np.stack([
            F @ A0,
            F1 @ A0 + F @ A1,
            F2 @ A0 + 2.0 * F1 @ A1 + F @ A2,
        ], axis=1)

    def pack(vals, direction):
        # direction "x": d/dx = U + V; "y": d/dy = i(U - V)
        u0, um, v0, vp = vals[:, 0], vals[:, 1], vals[:, 2], vals[:, 3]
        U = u0 + um / lam
        V = v0 + lam * vp
        U1 = -um / lam**2
        V1 = vp
        U2 = 2.0 * um / lam**3
        V2 = np.zeros_like(vp)
        if direction == "x":
            return np.stack([U + V, U1 + V1, U2 + V2])
        return np.stack([1j * (U - V), 1j * (U1 - V1), 1j * (U2 - V2)])

    fields = np.stack([U0, Um, V0, Vp], axis=2)  # (ny, nx, 4, 2, 2)

    def sweep(y0, lines, ts, direction, out):
        node = node_stages(lines, substeps)
        stages = lambda k, s: [pack(v, direction) for v in node(k, s)]
        rk4_march(y0, np.diff(ts) / substeps, substeps, stages, rhs, out=out)

    if base_value is None:
        base_value = np.eye(2, dtype=complex)
    out = np.empty(grid.shape + (3, 2, 2), dtype=complex)
    out[0, 0] = 0.0
    out[0, 0, 0] = base_value
    # (lines, nodes, ...) views: the first column (row), then every row
    # (column) at once from it
    cols, out_cols = fields.swapaxes(0, 1), out.swapaxes(0, 1)
    if column_first:
        sweep(out[None, 0, 0], cols[0:1], grid.ys, "y", out_cols[0:1])
        sweep(out[:, 0], fields, grid.xs, "x", out)
    else:
        sweep(out[None, 0, 0], fields[0:1], grid.xs, "x", out[0:1])
        sweep(out[0], cols, grid.ys, "y", out_cols)

    reproj = 0
    F = out[..., 0, :, :]
    drift = su11_residual(F)
    if np.max(drift) > drift_tol:
        bad = drift > drift_tol
        reproj = int(np.sum(bad))
        idx = np.argwhere(bad)
        for i, j in idx:
            F[i, j] = _reproject_su11(F[i, j])
    return FrameField(F=F, F_lam=out[..., 1, :, :], F_lam2=out[..., 2, :, :],
                      lam=lam, grid=grid, reprojections=reproj)


def frame_from_spinors(s, tol=1e-12):
    """Pointwise frame  (|psi1|^2-|psi2|^2)^{-1/2} [[psi1/sqrt(i), psi2/sqrt(i)],
    [sqrt(i) conj(psi2), sqrt(i) conj(psi1)]];  exactly in SU(1,1)."""
    norm2 = np.abs(s.psi1) ** 2 - np.abs(s.psi2) ** 2
    if np.any(norm2 <= tol):
        i, j = np.argwhere(norm2 <= tol)[0]
        raise VerticalPointError(
            f"|psi1| <= |psi2| at node ({i}, {j}); no upward frame")
    nv = 1.0 / np.sqrt(norm2)
    F = np.empty(s.grid.shape + (2, 2), dtype=complex)
    F[..., 0, 0] = nv * s.psi1 / SQRT_I
    F[..., 0, 1] = nv * s.psi2 / SQRT_I
    F[..., 1, 0] = nv * np.conj(s.psi2) * SQRT_I
    F[..., 1, 1] = nv * np.conj(s.psi1) * SQRT_I
    return F


def spinors_from_frame(F, h, grid, lam=1.0 + 0.0j):
    """Invert the frame normal form; the scale sqrt(h/2) restores
    |psi1|^2 - |psi2|^2 = h/2."""
    h = np.asarray(h)
    if np.any(h <= 0):
        raise VerticalPointError("support must be positive to fix the scale")
    scale = np.sqrt(h / 2.0)
    psi1 = scale * SQRT_I * F[..., 0, 0]
    psi2 = scale * SQRT_I * F[..., 0, 1]
    return SpinorField(psi1, psi2, grid, lam=lam)


def frame_compatibility_residual(frame, d):
    """|F^{-1} dz F - U| and |F^{-1} dzbar F - V| per node, maxed."""
    U, V = connection_coeffs(d, frame.lam)
    Finv = np.linalg.inv(frame.F)
    rz = Finv @ dz_field(frame.F, frame.grid) - U
    rzb = Finv @ dzbar_field(frame.F, frame.grid) - V
    return np.maximum(np.max(np.abs(rz), axis=(-2, -1)),
                      np.max(np.abs(rzb), axis=(-2, -1)))

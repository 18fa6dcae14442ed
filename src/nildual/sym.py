"""The two-sided surface formula: both minimal surfaces from one extended
frame, spinor extraction from the dual sheet, and rigid-motion-insensitive
comparison of sampled immersions.

With N_m = (i/2) F sigma3 F^{-1} and m_pm = -i lam F_lam F^{-1} +- N_m,
the two surfaces are  Xi_nil(m_pm^o - (i/2) lam (d_lam m_pm)^d), where
"o"/"d" take the off-diagonal/diagonal part.  Everything is assembled
algebraically from (F, F_lam, F_lam2); no quadrature in lam or z.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NilDualError
from .loops import inv2, mm2
from .nil3 import (
    PhiField,
    SurfaceGrid,
    left_maurer_cartan,
    stencil_valid,
    xi_nil_with_residual,
)
from .spinors import spinors_from_phi

REALITY_TOL = 1e-6  # su(1,1)-reality defect that marks a frame defect
MOTION_TOL = 1e-6   # relative residual of two congruent immersions


@dataclass
class SymOutput:
    """Both surfaces of one frame at one parameter value, with that frame
    and the nodes where it is trusted."""

    f_minus: SurfaceGrid
    f_plus: SurfaceGrid
    n_m: np.ndarray            # entry planes (2, 2, ny, nx)
    frame: object              # the FrameField the surfaces are read off
    ok_mask: np.ndarray        # nodes whose frame is used; I elsewhere
    reality_residual: float    # worst su(1,1)-reality defect of the output
    # the parameter value and the grid, the frame's
    lam = property(lambda self: complex(self.frame.lam))
    grid = property(lambda self: self.frame.grid)


def sym_maps(frame, mask=None):
    """Evaluate both surfaces from a FrameField carrying (F, F_lam, F_lam2).

    Nodes outside `mask` (default: every node counts) take the identity
    frame; both surfaces carry `mask`, and so does the output as `ok_mask`.
    Raises if the assembled matrices leave the real span of the su(1,1)
    basis beyond REALITY_TOL (a frame defect); the residual is reported on
    the output either way.
    """
    lam = complex(frame.lam)
    grid = frame.grid
    if mask is None:
        mask = np.ones(grid.shape, dtype=bool)
    eye = np.eye(2, dtype=complex)[:, :, None, None]
    F, F1, F2 = (np.where(mask, M, fill)
                 for M, fill in ((frame.F, eye), (frame.F_lam, 0.0),
                                 (frame.F_lam2, 0.0)))
    Finv = inv2(F)
    s3 = np.array([1.0, -1.0])[:, None, None]   # M sigma3 = M * s3
    A = mm2(F1, Finv)                  # (d_lam F) F^{-1}
    N = 0.5j * mm2(F * s3, Finv)
    # d_lam of A and N by the product rule; d_lam(F^{-1}) = -F^{-1} F1 F^{-1}
    dA = mm2(F2, Finv) - mm2(A, A)
    dN = 0.5j * mm2(F1 * s3, Finv) - mm2(N, A)

    base = -1j * lam * A
    dbase = -1j * A - 1j * lam * dA

    out = {}
    for sgn in (+1, -1):
        m = base + sgn * N
        dm = dbase + sgn * dN
        hat = m.copy()                 # m^o - (i/2) lam (d_lam m)^d
        hat[0, 0], hat[1, 1] = -0.5j * lam * dm[0, 0], -0.5j * lam * dm[1, 1]
        out[sgn] = xi_nil_with_residual(hat)

    defect = np.where(mask, np.maximum(out[+1][1], out[-1][1]), 0.0)
    i, j = np.unravel_index(np.argmax(defect), defect.shape)
    worst = float(defect[i, j])
    if worst > REALITY_TOL:
        raise NilDualError(f"surface matrices leave su(1,1) by {worst:.3e} "
                           f"at node ({i}, {j}) of the {grid.nx}x{grid.ny} "
                           f"grid, z = {grid.node_z(i, j):.4g} (frame defect)")

    f_minus = SurfaceGrid(out[-1][0], grid, lam=lam, mask=mask)
    f_plus = SurfaceGrid(out[+1][0], grid, lam=lam, mask=mask)
    return SymOutput(f_minus=f_minus, f_plus=f_plus, n_m=N, frame=frame,
                     ok_mask=mask, reality_residual=worst)


def sym_sheets(frames, ok_mask, export_mask):
    """Both surfaces of every frame, as the pipeline fills and exports them.

    Nodes outside `ok_mask` (untrusted frames) get the identity frame
    before the formulas run; both sheets then carry `export_mask`, the
    nodes written out.
    """
    syms = []
    for fr in frames:
        sym = sym_maps(fr, mask=ok_mask)
        sym.f_minus.mask = export_mask
        sym.f_plus.mask = export_mask
        syms.append(sym)
    return syms


def extract_dual_spinors(sym, on_branch_cut="raise"):
    """Spinors of the plus-sheet surface at its parameter value.

    The frame components of the plus sheet carry a 1/lam weight relative
    to the spinor quadrics, so the extracted components are rescaled by
    lam before inversion.
    """
    f_plus = sym.f_plus
    phi = left_maurer_cartan(f_plus)
    rescaled = PhiField(phi.phi * complex(sym.lam), phi.grid)
    return spinors_from_phi(rescaled, lam=sym.lam,
                            mask=stencil_valid(f_plus.mask),
                            on_branch_cut=on_branch_cut)


def gauss_from_normal_field(n_m):
    """Disk-model value of the timelike field N_m.

    Coordinates of N_m in the su(1,1) basis satisfy x3^2 - x1^2 - x2^2 = 1
    on the lower sheet; stereographic projection from (0, 0, 1) gives
    w = i * g, so dividing by i recovers the normal Gauss map.
    """
    coords, _ = xi_nil_with_residual(n_m)
    w = (coords[..., 0] + 1j * coords[..., 1]) / (1.0 - coords[..., 2])
    return -1j * w


@dataclass
class MotionFit:
    """Result of the rigid-motion comparison of two sampled immersions."""

    equivalent: bool
    kind: str          # "rotation" | "reflection" | "reflection-conj" | "none"
    theta: float
    residual: float


_REFLECTIONS = {
    "rotation": lambda p: p,
    # d(rho) for rho(x) = (x1, -x2, -x3), same parametrization
    "reflection": lambda p: np.stack(
        [p[..., 0], -p[..., 1], -p[..., 2]], axis=-1),
    # conjugated variant: relates the two square-root branch conventions
    "reflection-conj": lambda p: np.stack(
        [np.conj(p[..., 0]), -np.conj(p[..., 1]), -np.conj(p[..., 2])],
        axis=-1),
}


def _reversed_phi(p):
    """Frame components of z -> f(-z): the chain rule gives -phi(-z).

    Valid on grids symmetric under z -> -z (checked by the caller)."""
    return -p[::-1, ::-1]


def mc_equivalent(f, g, allow_reflection=False):
    """Decide whether g = (left translation) . (rotation about e3) . f,
    optionally composed with a reflection, and - for centred grids - with
    the orientation-preserving reversal z -> -z of the parametrization
    (equivariant examples trade the two sheets across it).

    The rotation angle is fitted at one node from phi1 + i phi2 and then
    verified globally; no averaging, so failures are sharp.  Returns the
    first candidate, in the fixed order of the loops below, whose residual
    is within MOTION_TOL; else the best, which a later candidate replaces
    only when lower by more than MOTION_TOL: round-off picks neither among
    congruences that fit nor among near-ties.  theta is in (-pi, pi]:
    within MOTION_TOL of -pi it reads pi, and -0.0 reads 0.0.
    """
    if f.grid != g.grid:
        raise ValueError("surfaces must share a grid")
    grid = f.grid
    sv = stencil_valid(f.mask & g.mask)
    if not sv.any():
        raise NilDualError("no node whose stencils read kept nodes alone: "
                           "the masks leave the rigid-motion fit nothing "
                           "to compare")
    pf = left_maurer_cartan(f).phi
    pg = left_maurer_cartan(g).phi
    kinds = ["rotation"]
    if allow_reflection:
        kinds += ["reflection", "reflection-conj"]
    centred = (abs(grid.x0 + grid.x1) < 1e-12 * (abs(grid.x0) + 1)
               and abs(grid.y0 + grid.y1) < 1e-12 * (abs(grid.y0) + 1))
    variants = [("", pf)]
    if centred:
        rev_valid = sv & sv[::-1, ::-1]
        variants.append(("-rev", _reversed_phi(pf)))
    else:
        rev_valid = sv

    best = MotionFit(False, "none", 0.0, np.inf)
    wg = pg[..., 0] + 1j * pg[..., 1]
    scale = max(float(np.max(np.abs(pf[sv]))), 1e-30)
    for vname, base in variants:
        live = sv if vname == "" else rev_valid
        for kind in kinds:
            pr = _REFLECTIONS[kind](base)
            wf = pr[..., 0] + 1j * pr[..., 1]
            anchors = np.abs(wf) * live
            ai, aj = np.unravel_index(np.argmax(anchors), anchors.shape)
            if anchors[ai, aj] <= MOTION_TOL * scale:
                continue
            phase = wg[ai, aj] / wf[ai, aj]
            phase /= abs(phase)
            res = np.maximum(np.abs(wg - phase * wf),
                             np.abs(pg[..., 2] - pr[..., 2]))
            r = float(np.max(res[live], initial=0.0)) / scale
            if r <= MOTION_TOL or r < best.residual - MOTION_TOL:
                theta = float(np.angle(phase))
                theta = np.pi if theta <= MOTION_TOL - np.pi else theta + 0.0
                best = MotionFit(r <= MOTION_TOL, kind + vname, theta, r)
                if best.equivalent:
                    return best
    return best

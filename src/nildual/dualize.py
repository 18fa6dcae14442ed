"""Dual generating spinors, dual invariants, and the double-dual involution.

For a nowhere-vertical minimal field with support h and holomorphic
coefficient B (not identically zero), the dual pair is

    psi1* = (4 r / h) psi2,      psi2* = (4 s2 / h) psi1,

where r is the branch-continued sqrt(-B) and s2 is one of +-conj(r).
The default convention s2 = +conj(r) matches the dual surface produced by
the two-sided frame formula; s2 = -conj(r) is the alternative convention
(the two duals differ by a rotation about e3).  Nodes where |B| or |h|
degenerates are masked, never filled: zeros of B are genuine singular
points of the dual.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HorizontalUmbrellaError
from .spinors import (
    SpinorField,
    continued_sqrt,
    minimality_gate,
    uh_from_spinors,
)

B_MASK_REL = 1e-8   # |B| < rel * max|B| is treated as a zero of B
H_MASK_ABS = 1e-8   # |h| below this is a vertical point


@dataclass
class DualPair:
    """Source and dual spinor fields with the branch bookkeeping."""

    source: SpinorField
    dual: SpinorField
    B: np.ndarray
    h: np.ndarray
    cut_edges: list                # vertical node pairs where the root jumps
    mask: np.ndarray               # True = dual defined

    @property
    def has_branch_cut(self):
        return len(self.cut_edges) > 0

    @cached_property
    def invariants(self):
        """`dual_invariants` of the pair, formed once."""
        return dual_invariants(self)

    def branch_log(self, export_mask=True):
        """Branch bookkeeping; `masked` counts nodes outside the dual or
        outside `export_mask` (default: every node).  No per-node sign: it
        is relative to the principal root, which flips at round-off where
        the field lies on its cut."""
        mask = self.mask & export_mask
        return {
            "schema": 2,
            "cut_edges": [list(map(int, e)) for e in self.cut_edges],
            "masked": int(np.sum(~mask)),
        }


def _degeneracy_mask(B, h, valid):
    scale = np.max(np.abs(B[valid])) if np.any(valid) else 0.0
    if scale == 0.0:
        raise HorizontalUmbrellaError(
            "B vanishes identically: the surface has no dual")
    mask = (valid & (np.abs(B) >= B_MASK_REL * scale)
            & (np.abs(h) >= H_MASK_ABS))
    if not np.any(mask):
        raise HorizontalUmbrellaError("every node is degenerate for the dual")
    return mask


def _dual_pair(s, B, h, valid, sign):
    """The dual pair of `s` with coefficient B and support h on `valid`."""
    if sign not in (+1, -1):
        raise ValueError("conjugate_sign must be +1 or -1")
    mask = _degeneracy_mask(B, h, valid)
    r, _, cuts = continued_sqrt(-B, s.grid, mask)
    s2 = sign * np.conj(r)
    h_safe = np.where(mask, h, 1.0)
    psi1_star = np.where(mask, 4.0 * r / h_safe * s.psi2, 0.0)
    psi2_star = np.where(mask, 4.0 * s2 / h_safe * s.psi1, 0.0)
    dual = SpinorField(psi1_star, psi2_star, s.grid, lam=s.lam, mask=mask)
    return DualPair(source=s, dual=dual, B=B, h=h, cut_edges=cuts,
                    mask=mask)


def dual_spinors(s, d, conjugate_sign=+1):
    """Construct the dual spinor pair from a minimal field and its data."""
    minimality_gate(d, "duality is defined for minimal data only")
    _, h = uh_from_spinors(s)
    return _dual_pair(s, d.B, h, s.mask & d.mask, conjugate_sign)


def dual_invariants(pair):
    """Geometric data of the dual: (e^{u*}, h*, B*, g*, e^{w*/2}, mask).

    e^{u*} = 4^4 |B|^2 e^u / h^4,  h* = 4^2 |B| / h,  B* = B,  g* = g,
    e^{w*/2} = 4 i |B| / h, read off the pair's B, h and mask, so the
    minimality gate and the degeneracy mask of `dual_spinors` are the only
    ones.  Masked nodes propagate as NaN-free zeros via the returned mask.
    """
    s, mask = pair.source, pair.mask
    e_u, _ = uh_from_spinors(s)
    absB = np.abs(pair.B)
    h_safe = np.where(mask, pair.h, 1.0)
    e_u_star = np.where(mask, 256.0 * absB**2 * e_u / h_safe**4, 0.0)
    h_star = np.where(mask, 16.0 * absB / h_safe, 0.0)
    B_star = pair.B.copy()
    g_star = s.psi2 / np.conj(s.psi1)
    ew2_star = np.where(mask, 4.0j * absB / h_safe, 0.0)
    return e_u_star, h_star, B_star, g_star, ew2_star, mask


def dual_local_check(pair):
    """Residuals of the local expressions of the dual invariants.

    Verifies  e^{u*} = 4 (|psi1*|^2 + |psi2*|^2)^2,
              h*     = 2 (|psi2*|^2 - |psi1*|^2),
    and that -psi1*/conj(psi2*) is a constant unimodular multiple of the
    source Gauss map (the roles of the dual pair are swapped relative to
    an upward field because the dual's normal flips).
    """
    dual = pair.dual
    e_u_star, h_star, _, g, _, m = pair.invariants
    a = np.abs(dual.psi1) ** 2
    b = np.abs(dual.psi2) ** 2
    res_metric = np.abs(4.0 * (a + b) ** 2 - e_u_star)
    res_support = np.abs(2.0 * (b - a) - h_star)
    # the Gauss-map comparison needs |g| bounded away from 0 (both maps
    # vanish together there, so those nodes carry no phase information)
    gm = m & (np.abs(g) > 1e-8 * np.max(np.abs(g[m]), initial=1.0))
    g_safe = np.where(gm, g, 1.0)
    psi2_safe = np.where(gm, np.conj(dual.psi2), 1.0)
    ratio = np.where(gm, -dual.psi1 / psi2_safe / g_safe, 0.0)
    anchor = ratio[gm].flat[0] if np.any(gm) else 1.0
    res_gauss = np.abs(np.where(gm, ratio - anchor, 0.0))
    res_unimod = abs(abs(anchor) - 1.0)
    return {
        "metric": float(np.max(res_metric[m], initial=0.0)),
        "support": float(np.max(res_support[m], initial=0.0)),
        "gauss_constancy": float(np.max(res_gauss[gm], initial=0.0)),
        "gauss_unimodular": float(res_unimod),
        "node_count": int(np.sum(m)),
        "masked_count": int(np.sum(~m)),
    }


def double_dual(pair, conjugate_sign=+1):
    """Apply the duality to the dual of `pair`; the spinors return to
    pair.source.

    The second application uses the dual invariants (B* = B and the
    role-swapped support h* = 16|B|/h), so with either branch convention
    the product of the two branch factors is unimodular and the frame
    components are restored exactly.
    """
    h_star = pair.invariants[1]
    second = _dual_pair(pair.dual, pair.B, h_star, pair.mask, conjugate_sign)
    return second.dual, pair.mask & second.mask

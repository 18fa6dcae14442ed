"""Generating spinors: conversions with Maurer-Cartan data, metric and
support, the normal Gauss map, and the Dirac-potential / quadratic
differential extraction.

The spinor pair (psi1, psi2) encodes the frame components through

    phi1 = conj(psi2)^2 - psi1^2,
    phi2 = i (conj(psi2)^2 + psi1^2),
    phi3 = 2 psi1 conj(psi2),

which satisfies phi1^2 + phi2^2 + phi3^2 = 0 identically.  The metric and
support follow as e^u = 4 (|psi1|^2 + |psi2|^2)^2 and
h = 2 (|psi1|^2 - |psi2|^2); upward fields have h > 0 everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchContinuationError,
    NonConformalError,
    NonImmersionError,
    NonMinimalError,
    VerticalPointError,
)
from .nil3 import (
    DomainGrid,
    PhiField,
    dz_field,
    dz_pair,
    dzbar_field,
    dzdzbar_field,
    interior_max,
)


@dataclass
class SpinorField:
    """Grid-sampled spinor pair tagged with its family parameter."""

    psi1: np.ndarray
    psi2: np.ndarray
    grid: DomainGrid
    lam: complex = 1.0 + 0.0j
    mask: np.ndarray = None  # True = valid node; None means every node

    def __post_init__(self):
        if self.mask is None:
            self.mask = np.ones(self.grid.shape, dtype=bool)


@dataclass
class DiracData:
    """Dirac potential, quadratic-differential coefficient, mean curvature."""

    B: np.ndarray
    H: np.ndarray
    ew2: np.ndarray          # e^{w/2} itself, the primary field
    consistency: np.ndarray  # both Dirac equations' residuals / sup|psi|
    grid: DomainGrid
    w_z: np.ndarray          # dw/dz; dw/dzbar is its conjugate
    mask: np.ndarray = None  # True = valid node; None means every node

    def __post_init__(self):
        if self.mask is None:
            self.mask = np.ones(self.grid.shape, dtype=bool)


# interior max |H| above which data count as non-minimal: B extraction
# (and with it a sheet's connection and frames) and the duality need H = 0
MINIMAL_TOL = 1e-4
VERTICAL_REL = 1e-12    # |psi1| <= rel * scale: a vertical normal
DEGENERATE_REL = 1e-10  # |psi| <= rel * sup|psi|: not a ratio denominator


def minimality_gate(d, message):
    """Raise NonMinimalError(message) unless `d` is minimal data: its
    interior max |H| is at most MINIMAL_TOL."""
    defect = interior_max(np.abs(d.H), valid=d.mask)
    if defect > MINIMAL_TOL:
        raise NonMinimalError(f"{message}; max |H| = {defect:.3e}")


def phi_from_spinors(s):
    """Frame components generated by the spinor pair; exactly conformal."""
    p1 = np.conj(s.psi2) ** 2 - s.psi1 ** 2
    p2 = 1j * (np.conj(s.psi2) ** 2 + s.psi1 ** 2)
    p3 = 2.0 * s.psi1 * np.conj(s.psi2)
    return PhiField(np.stack([p1, p2, p3], axis=-1), s.grid)


def uh_from_spinors(s):
    """(e^u, h): metric factor and support."""
    a = np.abs(s.psi1) ** 2
    b = np.abs(s.psi2) ** 2
    return 4.0 * (a + b) ** 2, 2.0 * (a - b)


def gauss_map(s):
    """Normal Gauss map g = psi2 / conj(psi1) and the unit normal.

    The normal in the left-invariant frame is
    (2 Re g, 2 Im g, 1 - |g|^2) / (1 + |g|^2); |g| < 1 iff h > 0.
    """
    scale = np.max(np.abs(s.psi1)) + np.max(np.abs(s.psi2))
    bad = np.abs(s.psi1) <= VERTICAL_REL * scale
    if np.any(bad & s.mask):
        i, j = np.argwhere(bad & s.mask)[0]
        raise VerticalPointError(f"psi1 vanishes at node ({i}, {j})")
    g = s.psi2 / np.conj(np.where(bad, 1.0, s.psi1))
    denom = 1.0 + np.abs(g) ** 2
    normal = np.stack([2.0 * g.real, 2.0 * g.imag, 1.0 - np.abs(g) ** 2],
                      axis=-1) / denom[..., None]
    return g, normal


def dirac_data(s, require_minimal=True):
    """Extract the Dirac potential, mean curvature, and the coefficient B.

    The two defining ratios are U = -dz(psi2)/psi1 and V = dzbar(psi1)/psi2;
    each is evaluated where its denominator is nondegenerate and the field
    e^{w/2} is assembled from whichever ratio has the larger denominator.
    B is taken from the linear system row that divides by the dominant
    spinor, so nodes where the subdominant spinor vanishes stay usable:

        B = conj(-(dzbar(psi2) - w_zbar/2 psi2) e^{w/2} / psi1)   (|psi1| >= |psi2|)
        B = (dz(psi1) - w_z/2 psi1) e^{w/2} / psi2                (otherwise)

    Only the minimal case H = 0 supports B extraction; `require_minimal`
    puts the result through the minimality gate.  Masked nodes are never
    refused, and their values are not to be read.
    """
    grid = s.grid
    scale = max(float(np.max(np.abs(s.psi1))), float(np.max(np.abs(s.psi2))))
    ok1 = np.abs(s.psi1) > DEGENERATE_REL * scale
    ok2 = np.abs(s.psi2) > DEGENERATE_REL * scale
    if not np.any(ok1 | ok2):
        raise NonImmersionError("spinor pair vanishes identically")

    d_psi1_z, d_psi1_zb = dz_pair(s.psi1, grid)
    d_psi2_z, d_psi2_zb = dz_pair(s.psi2, grid)

    U = np.where(ok1, -d_psi2_z / np.where(ok1, s.psi1, 1.0), np.nan)
    V = np.where(ok2, d_psi1_zb / np.where(ok2, s.psi2, 1.0), np.nan)

    prefer_u = np.abs(s.psi1) >= np.abs(s.psi2)
    ew2 = np.where(prefer_u & ok1, np.where(ok1, U, 0.0),
                   np.where(ok2, V, 0.0))
    valid = (prefer_u & ok1) | (~prefer_u & ok2)
    if not np.all(valid | ~s.mask):
        raise NonImmersionError("both spinors degenerate at some node")

    # consistency of the two defining equations, in residual (not ratio)
    # form so zeros of either spinor do not amplify stencil noise:
    # |dz psi2 + e^{w/2} psi1| and |dzbar psi1 - e^{w/2} psi2|, / sup|psi|
    consistency = np.maximum(
        np.abs(d_psi2_z + ew2 * s.psi1),
        np.abs(d_psi1_zb - ew2 * s.psi2)) / scale

    e_u, h_supp = uh_from_spinors(s)
    if np.any((e_u <= 0) & s.mask):
        raise NonImmersionError("metric factor vanishes")
    H = -2.0 * ew2.real / np.sqrt(np.where(s.mask, e_u, 1.0))

    # In the minimal regime e^{w/2} = (i/4)|h|-type data, so the logarithmic
    # derivative reduces to w_z = 2 h_z / h with h algebraic in the spinors:
    # one stencil generation on smooth data keeps the O(h^4) floor clean.
    h_safe = np.where(np.abs(h_supp) > 1e-30, h_supp, 1.0)
    w_z = 2.0 * dz_field(h_supp, grid) / h_safe
    w_zb = np.conj(w_z)
    B_from_v = np.conj(-(d_psi2_zb - 0.5 * w_zb * s.psi2) * ew2
                       / np.where(ok1, s.psi1, 1.0))
    B_from_u = (d_psi1_z - 0.5 * w_z * s.psi1) * ew2 / np.where(ok2, s.psi2, 1.0)
    B = np.where(prefer_u, B_from_v, B_from_u)
    d = DiracData(B=B, H=H, ew2=ew2, consistency=consistency,
                  grid=grid, mask=s.mask, w_z=w_z)

    if require_minimal:
        minimality_gate(d, "B extraction implemented for the minimal case only")
        # the potential must also close against the support: for genuine
        # surface data Im e^{w/2} = |h|/4 (pairs like (1, 0) solve the two
        # ratio equations trivially without being surface spinors)
        h_abs = np.abs(h_supp)
        closure = interior_max(np.abs(ew2.imag - 0.25 * h_abs), valid=s.mask)
        if closure > 1e-3 * max(float(np.max(h_abs)) * 0.25, 1e-30):
            raise NonImmersionError(
                f"Dirac potential inconsistent with the support "
                f"(defect {closure:.3e}); input is not a surface-spinor pair"
            )
    return d


def holomorphy_residual(B, grid):
    """|dzbar B| per node; zero iff B is holomorphic."""
    return np.abs(dzbar_field(B, grid))


def harmonic_residual(g, grid):
    """Tension-field magnitude of g as a map into the Poincare disk:
    |g_zzbar + 2 conj(g) g_z g_zbar / (1 - |g|^2)| per node.
    """
    g = np.asarray(g, dtype=complex)
    gz, gzb = dz_pair(g, grid)
    gzzb = dzdzbar_field(g, grid)
    denom = 1.0 - np.abs(g) ** 2
    return np.abs(gzzb + 2.0 * np.conj(g) * gz * gzb / denom)


def continued_sqrt(field, grid, valid):
    """Square root continued along the serpentine sweep from the base node.

    The sweep visits the rows in turn, even rows left to right and odd rows
    right to left.  Starts at the first valid node from the root with
    Re r > 0, or, within 2^-26 |r| of the imaginary axis, from the one with
    Im r > 0: a field on the negative real axis gets the same start whatever
    sign round-off gives its imaginary part, which flips numpy's principal
    root.  At every subsequent valid node the root closer to the previous
    valid value is chosen.  Returns (root, cut_edges): `cut_edges` lists
    vertically adjacent valid pairs whose continued values still disagree
    in sign (a genuine branch cut, e.g. when the sweep encircles an
    odd-order zero).
    """
    root = np.sqrt(np.asarray(field, dtype=complex))
    # every node's starting root, by the rule above; a negation is exact,
    # so past the start the continued bits are those of the principal roots
    np.negative(root, out=root, where=(root.imag < 0)
                & (np.abs(root.real) <= 2.0 ** -26 * np.abs(root)))
    order = np.arange(root.size).reshape(grid.shape)
    order[1::2] = order[1::2, ::-1]
    order = order.ravel()[valid.ravel()[order.ravel()]]
    # against the previous starting root, the sign toggles where the
    # difference is longer than the sum, stays where the sum is longer, and
    # restarts at +1 on a tie (a zero or non-finite root): a run-wise parity
    r = root.ravel()[order]
    toggle, stay = np.zeros((2, r.size), dtype=bool)
    d, e = np.abs(r[1:] - r[:-1]), np.abs(r[1:] + r[:-1])
    toggle[1:], stay[1:] = d > e, e > d
    count = np.cumsum(toggle)
    start = np.maximum.accumulate(
        np.where(toggle | stay, 0, np.arange(r.size)))
    flip = order[(count - count[start]) % 2 == 1]
    flat = root.reshape(-1)
    flat[flip] = -flat[flip]
    a, b = root[1:], root[:-1]
    # a zero root cannot count: its difference and sum have equal lengths
    cut = valid[1:] & valid[:-1] & (np.abs(a - b) > np.abs(a + b))
    cut_edges = [(int(i) + 1, int(j)) for i, j in np.argwhere(cut)]
    return root, cut_edges


def spinors_from_phi(phi, lam=1.0 + 0.0j, conformal_tol=1e-5, mask=None,
                     on_branch_cut="raise"):
    """Invert the spinor representation of conformal frame components.

    psi1^2 = -(phi1 + i phi2)/2 and conj(psi2)^2 = (phi1 - i phi2)/2; the
    square root is branch-continued along the grid sweep on whichever side
    stays farther from zero, and the other spinor is recovered from
    phi3 = 2 psi1 conj(psi2) so zeros of the subdominant spinor are crossed
    without branch choices.
    """
    grid = phi.grid
    p = phi.phi
    valid = np.ones(grid.shape, dtype=bool) if mask is None else mask.copy()
    if not valid.any():
        raise NonImmersionError("the mask keeps no node")

    quad = p[..., 0] ** 2 + p[..., 1] ** 2 + p[..., 2] ** 2
    norm2 = (np.abs(p[..., 0]) ** 2 + np.abs(p[..., 1]) ** 2
             + np.abs(p[..., 2]) ** 2)
    if np.any((norm2 <= 0) & valid):
        i, j = np.argwhere((norm2 <= 0) & valid)[0]
        raise NonImmersionError(f"zero frame vector at node ({i}, {j})")
    rel = np.max(np.abs(quad[valid]) / norm2[valid])
    if rel > conformal_tol:
        raise NonConformalError(
            f"conformality residual {rel:.3e} exceeds {conformal_tol:.1e}"
        )

    a = -(p[..., 0] + 1j * p[..., 1]) / 2.0   # psi1^2
    b = (p[..., 0] - 1j * p[..., 1]) / 2.0    # conj(psi2)^2
    min_a = np.min(np.abs(a[valid]))
    min_b = np.min(np.abs(b[valid]))
    side = "a" if min_a >= min_b else "b"
    base = a if side == "a" else b
    floor = np.max(np.abs(base[valid])) * 1e-14
    if np.any((np.abs(base) <= floor) & valid):
        i, j = np.argwhere((np.abs(base) <= floor) & valid)[0]
        raise BranchContinuationError(
            f"dominant spinor square vanishes at node ({i}, {j})")
    root, cuts = continued_sqrt(base, grid, valid)
    if cuts and on_branch_cut == "raise":
        raise BranchContinuationError(
            f"branch continuation inconsistent at {cuts[0]}")
    if side == "a":
        psi1 = root
        psi2 = np.conj(p[..., 2] / (2.0 * psi1))
    else:
        psi2 = np.conj(root)
        psi1 = p[..., 2] / (2.0 * root)
    return SpinorField(psi1, psi2, grid, lam=lam, mask=valid)

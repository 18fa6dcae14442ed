"""Residual suites: every identity of the construction, measured on a
pipeline run and reported with pass/fail against its tolerance.

Stencil-based identities are asserted on centred-stencil interiors (the
one-sided boundary bands carry larger constants and are reported via the
max fields only); algebraic identities are asserted everywhere unmasked.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dualize import double_dual, dual_local_check, dual_spinors
from .errors import NilDualError
from .frames import (
    flatness_residual,
    frame_compatibility_residual,
    integrate_frame,
)
from .loops import su11_residual
from .nil3 import (
    DomainGrid,
    centred_interior,
    conformality_residual,
    left_maurer_cartan,
    stencil_valid,
)
from .spinors import (
    DiracData,
    dirac_data,
    gauss_map,
    harmonic_residual,
    holomorphy_residual,
    phi_from_spinors,
    spinors_from_phi,
    uh_from_spinors,
)
from .sym import extract_dual_spinors, gauss_from_normal_field, mc_equivalent

DEFAULT_TOLS = {
    "conformality": 1e-6,
    "dirac_consistency": 1e-6,
    "minimality": 1e-6,
    "holomorphy_B": 1e-5,
    "flatness": 1e-6,
    "frame_su11": 1e-8,
    "frame_compat": 1e-6,
    "cross_pipeline": 1e-6,
    "involution_phi": 1e-10,
    "involution_metric": 1e-10,
    "dual_local": 1e-10,
    "dual_minimality": 1e-5,
    "sym_duality_factor": 1e-6,
    "self_duality_mc": 1e-6,
    "self_duality_pointwise": 1e-6,
    "iwasawa_recon": 1e-8,
    "iwasawa_reality": 1e-8,
    "lambda_independence": 1e-6,
    "normal_agreement": 1e-6,
    "harmonic_g": 1e-5,
    "n_m_structure": 1e-10,
}

# centred-stencil interior widths per stencil generation of the data
W1 = 2
W4 = 4
W6 = 6


@dataclass
class CheckResult:
    name: str
    max: float
    mean: float
    node_count: int
    masked_count: int
    tolerance: float
    passed: bool
    note: str = ""

    def line(self):
        state = "PASS" if self.passed else "FAIL"
        note = f"  ({self.note})" if self.note else ""
        return (f"{state}  {self.name:<24} max {self.max:9.3e}  "
                f"mean {self.mean:9.3e}  tol {self.tolerance:7.1e}  "
                f"nodes {self.node_count} (masked {self.masked_count}){note}")


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def add(self, name, values, tolerance, valid=None, note=""):
        values = np.asarray(values, dtype=float)
        if valid is None:
            valid = np.ones(values.shape, dtype=bool)
        chosen = values[valid]
        mx = float(np.max(chosen, initial=0.0))
        mean = float(np.mean(chosen)) if chosen.size else 0.0
        self.checks.append(CheckResult(
            name=name, max=mx, mean=mean, node_count=int(chosen.size),
            masked_count=int(valid.size - chosen.size),
            tolerance=tolerance, passed=mx <= tolerance, note=note))
        return self.checks[-1]

    def add_scalar(self, name, value, tolerance, note=""):
        self.checks.append(CheckResult(
            name=name, max=float(value), mean=float(value), node_count=1,
            masked_count=0, tolerance=tolerance,
            passed=float(value) <= tolerance, note=note))
        return self.checks[-1]

    def table(self):
        lines = [c.line() for c in self.checks]
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'} "
                     f"({sum(c.passed for c in self.checks)}/"
                     f"{len(self.checks)} checks)")
        return "\n".join(lines)

    def to_json(self):
        return {
            "schema": 1,
            "passed": self.passed,
            "checks": [{
                "name": c.name, "max": c.max, "mean": c.mean,
                "node_count": c.node_count, "masked_count": c.masked_count,
                "tolerance": c.tolerance, "passed": c.passed, "note": c.note,
            } for c in self.checks],
        }


def interior_dirac(d, width=4):
    """Dirac data restricted to the centred-stencil interior subgrid."""
    g = d.grid
    sub = DomainGrid(g.xs[width], g.xs[-width - 1],
                     g.ys[width], g.ys[-width - 1],
                     g.nx - 2 * width, g.ny - 2 * width)
    cut = np.s_[width:-width, width:-width]
    return DiracData(B=d.B[cut], H=d.H[cut], ew2=d.ew2[cut],
                     consistency=d.consistency[cut], grid=sub,
                     w_z=d.w_z[cut], w_zb=d.w_zb[cut]), cut


@dataclass
class SheetAnalysis:
    """Extracted spinor-level data of one surface sheet at one parameter."""

    spinors: object
    dirac: object
    e_u: np.ndarray
    h: np.ndarray


def analyze_sheet(surface, lam, conformal_tol=1e-2, extract_mask=None):
    """Spinor-level extraction; `extract_mask` (default: every node) should
    exclude only nodes whose coordinates are garbage (factorization
    failures), never cosmetic exclusions, so the branch continuation never
    sees artificial holes."""
    if extract_mask is None:
        extract_mask = np.ones(surface.grid.shape, dtype=bool)
    phi = left_maurer_cartan(surface)
    s = spinors_from_phi(phi, lam=lam, conformal_tol=conformal_tol,
                         mask=stencil_valid(extract_mask),
                         on_branch_cut="record")
    d = dirac_data(s)
    e_u, h = uh_from_spinors(s)
    return SheetAnalysis(spinors=s, dirac=d, e_u=e_u, h=h)


def verify_pipeline(result, tols=None, skip=(), perturb_frame=0.0):
    """Run the full residual battery on a pipeline result.

    The self-duality checks run when the result is flagged self-dual (the
    built-in examples carry the flag of their spec).  `perturb_frame`
    adds uniform noise to the frame before the frame-level checks: the
    negative control that must trip exactly the SU(1,1) and compatibility
    checks.
    """
    tols = {**DEFAULT_TOLS, **(tols or {})}
    rep = VerificationReport()
    grid = result.grid
    rng = np.random.default_rng(7)

    rep.add_scalar("iwasawa_recon", result.recon_residual,
                   tols["iwasawa_recon"])
    rep.add_scalar("iwasawa_reality", result.reality_residual,
                   tols["iwasawa_reality"])

    analyses = []
    ew2_ref = None
    for sym, lam, fr in zip(result.sym, result.lam_samples, result.frames):
        a_minus = analyze_sheet(sym.f_minus, lam, extract_mask=result.ok_mask)
        analyses.append((sym, lam, a_minus, fr))
        valid = sym.f_minus.mask
        live1 = centred_interior(valid, W1)
        live4 = centred_interior(valid, W4)
        live6 = centred_interior(valid, W6)

        res, e_u = conformality_residual(left_maurer_cartan(sym.f_minus))
        rep.add(f"conformality[{_lam_tag(lam)}]", res / e_u,
                tols["conformality"], live1)

        d = a_minus.dirac
        rep.add(f"dirac_consistency[{_lam_tag(lam)}]", d.consistency,
                tols["dirac_consistency"], live4)
        rep.add(f"minimality[{_lam_tag(lam)}]", np.abs(d.ew2.real),
                tols["minimality"], live4)
        if ew2_ref is None:
            ew2_ref = d.ew2
        else:
            rep.add(f"lambda_independence[{_lam_tag(lam)}]",
                    np.abs(d.ew2 - ew2_ref), tols["lambda_independence"],
                    live4)
        rep.add(f"holomorphy_B[{_lam_tag(lam)}]",
                holomorphy_residual(d.B, grid), tols["holomorphy_B"], live6)
        rep.add(f"flatness[{_lam_tag(lam)}]", flatness_residual(d, [lam]),
                tols["flatness"], live6)

        Fv = fr.F
        if perturb_frame:
            Fv = Fv + perturb_frame * (
                rng.normal(size=Fv.shape) + 1j * rng.normal(size=Fv.shape))
        rep.add(f"frame_su11[{_lam_tag(lam)}]", su11_residual(Fv),
                tols["frame_su11"], valid)

        g_spin, _ = gauss_map(a_minus.spinors)
        rep.add(f"normal_agreement[{_lam_tag(lam)}]",
                np.abs(gauss_from_normal_field(sym.n_m) - g_spin),
                tols["normal_agreement"], live1)
        rep.add(f"harmonic_g[{_lam_tag(lam)}]",
                harmonic_residual(g_spin, grid), tols["harmonic_g"], live4)
        det = np.abs(np.linalg.det(sym.n_m) - 0.25)
        tr = np.abs(np.trace(sym.n_m, axis1=-2, axis2=-1))
        rep.add(f"n_m_structure[{_lam_tag(lam)}]", np.maximum(det, tr),
                tols["n_m_structure"], valid)

        if "duality" not in skip:
            _duality_checks(rep, tols, sym, lam, a_minus)

    base_entry = next((entry for entry in analyses
                       if abs(entry[1] - 1.0) < 1e-12), None)
    if base_entry is not None:
        a1 = base_entry[2]
        for sym, lam, a, fr in analyses:
            if perturb_frame:
                continue
            # the frame at every lam satisfies the connection built from the
            # lam-independent data (w, B) read off at lam = 1
            rep.add(f"frame_compat[{_lam_tag(lam)}]",
                    frame_compatibility_residual(fr, a1.dirac),
                    tols["frame_compat"],
                    centred_interior(sym.f_minus.mask, W6))
        if "cross_pipeline" not in skip:
            lam0 = 1.0 + 0.0j
            d_sub, cut = interior_dirac(a1.dirac, W4)
            base = result.frame_loop.at_node((W4, W4)).eval(lam0)
            integ = integrate_frame(d_sub, lam0, base_value=base)
            diff = np.max(np.abs(integ.F
                                 - result.frame_loop.eval(lam0)[cut]),
                          axis=(-2, -1))
            rep.add(f"cross_pipeline[{_lam_tag(lam0)}]", diff,
                    tols["cross_pipeline"])

    if result.self_dual and "self_duality" not in skip:
        for sym, lam, _a, _fr in analyses:
            fit = mc_equivalent(sym.f_minus, sym.f_plus, allow_reflection=True)
            rep.add_scalar(f"self_duality_mc[{_lam_tag(lam)}]", fit.residual,
                           tols["self_duality_mc"], note=fit.kind)
        sym, lam, a, _fr = analyses[0]
        lhs = 16.0 * np.abs(a.dirac.B)
        live = centred_interior(sym.f_minus.mask, W4)
        h_rev = a.h[::-1, ::-1]
        # h even in z <=> the same-parametrization identity 16|B| = h^2;
        # otherwise the sheets trade places across z -> -z and the identity
        # reads 16|B(z)| = h(z) h(-z)
        h_even = np.max(np.abs(a.h - h_rev)[live], initial=0.0) \
            <= 1e-3 * np.max(a.h[live], initial=1.0)
        if h_even:
            rep.add("self_duality_pointwise",
                    np.abs(lhs - a.h**2) / a.h**2,
                    tols["self_duality_pointwise"], live)
        else:
            rep.add("self_duality_pointwise",
                    np.abs(lhs - a.h * h_rev) / lhs,
                    tols["self_duality_pointwise"], live,
                    note="reversal form 16|B| = h(z) h(-z)")
    return rep


def verify_spinors(s, tols=None, conjugate_sign=+1):
    """Reduced battery for a spinor-field input (no loop factorization).

    The stencil rows (dirac_consistency, minimality) are asserted on the
    W4 interior of the input's nodes, as in verify_pipeline; conformality
    on every input node, the involution where the double dual is defined.
    """
    tols = {**DEFAULT_TOLS, **(tols or {})}
    rep = VerificationReport()
    live4 = centred_interior(s.mask, W4)
    phi0 = phi_from_spinors(s).phi
    res, e_u = conformality_residual(phi0)
    rep.add("conformality", res / e_u, tols["conformality"], s.mask)
    d = dirac_data(s)
    rep.add("dirac_consistency", d.consistency, tols["dirac_consistency"],
            live4)
    rep.add("minimality", np.abs(d.ew2.real), tols["minimality"], live4)
    again, mask = double_dual(s, d, conjugate_sign=conjugate_sign)
    rep.add("involution_phi",
            np.max(np.abs(phi_from_spinors(again).phi - phi0), axis=-1),
            tols["involution_phi"], mask)
    return rep


def _lam_tag(lam):
    ang = np.angle(complex(lam))
    return f"lam{ang / np.pi:+.3f}pi"


def _duality_checks(rep, tols, sym, lam, a_minus):
    s, d = a_minus.spinors, a_minus.dirac
    try:
        pair = dual_spinors(s, d)
    except NilDualError as exc:
        rep.add_scalar(f"dual_spinors[{_lam_tag(lam)}]", np.inf, 0.0,
                       note=str(exc))
        return

    again, invmask = double_dual(s, d)
    phi0 = phi_from_spinors(s).phi
    phi2 = phi_from_spinors(again).phi
    rep.add(f"involution_phi[{_lam_tag(lam)}]",
            np.max(np.abs(phi2 - phi0), axis=-1),
            tols["involution_phi"], invmask)
    e_u2, h2 = uh_from_spinors(again)
    rep.add(f"involution_metric[{_lam_tag(lam)}]",
            np.maximum(np.abs(e_u2 - a_minus.e_u), np.abs(h2 - a_minus.h)),
            tols["involution_metric"], invmask)

    local = dual_local_check(pair)
    rep.add_scalar(f"dual_local[{_lam_tag(lam)}]",
                   max(local["metric"], local["support"],
                       local["gauss_constancy"], local["gauss_unimodular"]),
                   tols["dual_local"])

    # independently recomputed Dirac potential of the dual: purely imaginary
    if not pair.has_branch_cut:
        d_star = dirac_data(pair.dual, require_minimal=False)
        live = centred_interior(pair.mask, W4)
        rep.add(f"dual_minimality[{_lam_tag(lam)}]", np.abs(d_star.ew2.real),
                tols["dual_minimality"], live)

        try:
            extracted = extract_dual_spinors(sym)
        except NilDualError as exc:
            rep.add_scalar(f"sym_duality_factor[{_lam_tag(lam)}]", np.inf,
                           tols["sym_duality_factor"], note=str(exc))
            return
        worst = 0.0
        for got, want in ((extracted.psi1, pair.dual.psi1),
                          (extracted.psi2, pair.dual.psi2)):
            ok = live & (np.abs(want) > 1e-3 * np.max(np.abs(want)))
            ratio = got[ok] / want[ok]
            worst = max(worst, float(np.std(ratio)),
                        abs(abs(np.mean(ratio)) - 1.0))
        rep.add_scalar(f"sym_duality_factor[{_lam_tag(lam)}]", worst,
                       tols["sym_duality_factor"])

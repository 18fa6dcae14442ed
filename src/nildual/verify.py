"""The residual battery: every identity of the construction, measured on a
pipeline run (or, for its sheet rows, on a spinor pair) and reported with
pass/fail against its tolerance.

Stencil-based identities are asserted on centred-stencil interiors (the
one-sided boundary bands carry larger constants and are reported via the
max fields only); algebraic identities are asserted everywhere unmasked.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dualize import double_dual, dual_local_check, dual_spinors
from .errors import NilDualError
from .frames import (
    flatness_residual,
    frame_compatibility_residual,
    integrate_frame,
)
from .loops import det2, su11_residual
from .nil3 import (
    DomainGrid,
    centred_interior,
    conformality_residual,
    left_maurer_cartan,
    stencil_valid,
)
from .potentials import PIVOT_MIN
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

SHEET_CONFORMAL_TOL = 1e-2  # conformality defect analyze_sheet accepts


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
                     w_z=d.w_z[cut]), cut


@dataclass
class SheetAnalysis:
    """Extracted spinor-level data of one surface sheet at one parameter."""

    spinors: object
    dirac: object
    e_u: np.ndarray
    h: np.ndarray

    @cached_property
    def gauss(self):
        """The Gauss map g of the spinors (`gauss_map`), formed once."""
        return gauss_map(self.spinors)[0]


def analyze_sheet(surface, lam, extract_mask=None):
    """Spinor-level extraction; `extract_mask` (default: every node) should
    exclude only nodes whose coordinates are garbage (factorization
    failures), never cosmetic exclusions, so the branch continuation never
    sees artificial holes."""
    if extract_mask is None:
        extract_mask = np.ones(surface.grid.shape, dtype=bool)
    phi = left_maurer_cartan(surface)
    s = spinors_from_phi(phi, lam=lam, conformal_tol=SHEET_CONFORMAL_TOL,
                         mask=stencil_valid(extract_mask),
                         on_branch_cut="record")
    return SheetAnalysis(s, dirac_data(s), *uh_from_spinors(s))


def sheet_checks(rep, a, valid, tols):
    """Add to `rep` the rows that read one sheet's spinor data and its dual;
    return the dual pair, or None when the sheet has no dual.

    The one battery of a sheet given by its spinors: `verify_pipeline` runs
    it on every parameter's sheet, `verify --spinors` on the input pair.
    Rows are tagged with the spinors' parameter.  `valid` is the sheet's
    node mask: the stencil rows are asserted on its centred interiors, the
    double dual on the nodes where it is defined.  Every row is blind to
    the branch convention of the dual: it reads |psi*|, a ratio whose sign
    cancels, or the involution, which applies the sign twice.
    """
    s, d = a.spinors, a.dirac
    tag = _lam_tag(s.lam)
    live4 = centred_interior(valid, W4)
    live6 = centred_interior(valid, W6)
    rep.add(f"dirac_consistency[{tag}]", d.consistency,
            tols["dirac_consistency"], live4)
    rep.add(f"minimality[{tag}]", np.abs(d.ew2.real), tols["minimality"],
            live4)
    rep.add(f"holomorphy_B[{tag}]", holomorphy_residual(d.B, s.grid),
            tols["holomorphy_B"], live6)
    rep.add(f"flatness[{tag}]", flatness_residual(d, s.lam),
            tols["flatness"], live6)
    rep.add(f"harmonic_g[{tag}]", harmonic_residual(a.gauss, s.grid),
            tols["harmonic_g"], live4)

    try:
        pair = dual_spinors(s, d)
    except NilDualError as exc:
        rep.add_scalar(f"dual_spinors[{tag}]", np.inf, 0.0, note=str(exc))
        return None
    again, invmask = double_dual(pair)
    rep.add(f"involution_phi[{tag}]",
            np.max(np.abs(phi_from_spinors(again).phi
                          - phi_from_spinors(s).phi), axis=-1),
            tols["involution_phi"], invmask)
    e_u2, h2 = uh_from_spinors(again)
    rep.add(f"involution_metric[{tag}]",
            np.maximum(np.abs(e_u2 - a.e_u), np.abs(h2 - a.h)),
            tols["involution_metric"], invmask)
    local = dual_local_check(pair)
    rep.add_scalar(f"dual_local[{tag}]",
                   max(local["metric"], local["support"],
                       local["gauss_constancy"], local["gauss_unimodular"]),
                   tols["dual_local"])
    # independently recomputed Dirac potential of the dual: purely imaginary
    if not pair.has_branch_cut:
        d_star = dirac_data(pair.dual, require_minimal=False)
        rep.add(f"dual_minimality[{tag}]", np.abs(d_star.ew2.real),
                tols["dual_minimality"], centred_interior(pair.mask, W4))
    return pair


def verify_pipeline(result, tols=None):
    """Run the full residual battery on a pipeline result.

    The factorization's rows come first.  Then, per parameter,
    `sheet_checks` runs on the minus sheet's analysis, followed by the rows
    only a pipeline has: the sheet's conformality, the lambda-independence
    of e^{w/2}, the frame's su(1,1) defect, the normal and its structure,
    and the Sym factor of the dual against the pair `sheet_checks`
    returned.  Frame compatibility and the cross-pipeline frame follow.
    The self-duality checks run when the result is flagged self-dual (the
    built-in examples carry the flag of their spec).
    """
    tols = {**DEFAULT_TOLS, **(tols or {})}
    rep = VerificationReport()
    grid = result.grid

    pivot = result.report.pivot
    rep.add_scalar("iwasawa_recon", result.recon_residual,
                   tols["iwasawa_recon"],
                   note=f"pivot min {np.min(pivot[result.mask]):.3e}, "
                        f"{np.sum(pivot < PIVOT_MIN)} nodes below "
                        f"{PIVOT_MIN:.0e}, order {result.order} of cap "
                        f"{result.order_cap}, tail {result.tail:.3e}")
    rep.add_scalar("iwasawa_reality", result.reality_residual,
                   tols["iwasawa_reality"])

    analyses = []
    ew2_ref = None
    for sym, lam, fr in zip(result.sym, result.lam_samples, result.frames):
        a_minus = analyze_sheet(sym.f_minus, lam, extract_mask=result.ok_mask)
        analyses.append((sym, lam, a_minus, fr))
        valid = sym.f_minus.mask
        pair = sheet_checks(rep, a_minus, valid, tols)
        tag = _lam_tag(lam)
        live1 = centred_interior(valid, W1)

        res, e_u = conformality_residual(left_maurer_cartan(sym.f_minus))
        rep.add(f"conformality[{tag}]", res / e_u, tols["conformality"],
                live1)
        ew2 = a_minus.dirac.ew2
        if ew2_ref is None:
            ew2_ref = ew2
        else:
            rep.add(f"lambda_independence[{tag}]", np.abs(ew2 - ew2_ref),
                    tols["lambda_independence"], centred_interior(valid, W4))
        rep.add(f"frame_su11[{tag}]", su11_residual(fr.F),
                tols["frame_su11"], valid)
        rep.add(f"normal_agreement[{tag}]",
                np.abs(gauss_from_normal_field(sym.n_m) - a_minus.gauss),
                tols["normal_agreement"], live1)
        det = np.abs(det2(np.moveaxis(sym.n_m, (-2, -1), (0, 1))) - 0.25)
        tr = np.abs(np.trace(sym.n_m, axis1=-2, axis2=-1))
        rep.add(f"n_m_structure[{tag}]", np.maximum(det, tr),
                tols["n_m_structure"], valid)
        if pair is not None and not pair.has_branch_cut:
            _sym_duality_factor(rep, tols, sym, tag, pair)

    base_entry = next((entry for entry in analyses
                       if abs(entry[1] - 1.0) < 1e-12), None)
    if base_entry is not None:
        a1 = base_entry[2]
        for sym, lam, a, fr in analyses:
            # the frame at every lam satisfies the connection built from the
            # lam-independent data (w, B) read off at lam = 1
            rep.add(f"frame_compat[{_lam_tag(lam)}]",
                    frame_compatibility_residual(fr, a1.dirac),
                    tols["frame_compat"],
                    centred_interior(sym.f_minus.mask, W6))
        lam0 = 1.0 + 0.0j
        d_sub, cut = interior_dirac(a1.dirac, W4)
        # the sub-grid's centre is the grid's: (n - 2 W4) // 2 + W4 = n // 2
        base = result.frame_loop.at_node(grid.centre).eval(lam0)
        integ = integrate_frame(d_sub, lam0, base_value=base,
                                derivatives=False)
        diff = np.max(np.abs(integ.F - result.frame_loop.eval(lam0)[cut]),
                      axis=(-2, -1))
        rep.add(f"cross_pipeline[{_lam_tag(lam0)}]", diff,
                tols["cross_pipeline"])

    if result.self_dual:
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


def _lam_tag(lam):
    ang = np.angle(complex(lam))
    return f"lam{ang / np.pi:+.3f}pi"


def _sym_duality_factor(rep, tols, sym, tag, pair):
    """The dual spinors read off the two-sided Sym formula against the pair:
    a constant unimodular factor."""
    try:
        extracted = extract_dual_spinors(sym)
    except NilDualError as exc:
        rep.add_scalar(f"sym_duality_factor[{tag}]", np.inf,
                       tols["sym_duality_factor"], note=str(exc))
        return
    live = centred_interior(pair.mask, W4)
    worst = 0.0
    for got, want in ((extracted.psi1, pair.dual.psi1),
                      (extracted.psi2, pair.dual.psi2)):
        ok = live & (np.abs(want) > 1e-3 * np.max(np.abs(want)))
        ratio = got[ok] / want[ok]
        worst = max(worst, float(np.std(ratio)),
                    abs(abs(np.mean(ratio)) - 1.0))
    rep.add_scalar(f"sym_duality_factor[{tag}]", worst,
                   tols["sym_duality_factor"])

"""The residual battery: every identity of the construction, measured on
the sheets of a pipeline run or of a spinor pair (and on the factorization
of the one, the input spinors of the other) and reported with pass/fail
against its tolerance.

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
    _connection,
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
# nodes a side a sheet needs for the battery: its W4 frame march has 5
SHEET_MIN = 2 * W4 + 5


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
        """A row of `values` at the `valid` nodes; a row with none fails."""
        values = np.asarray(values, dtype=float)
        if valid is None:
            valid = np.ones(values.shape, dtype=bool)
        chosen = values[valid]
        mx = float(np.max(chosen, initial=0.0))
        mean = float(np.mean(chosen)) if chosen.size else 0.0
        self.checks.append(CheckResult(
            name=name, max=mx, mean=mean, node_count=int(chosen.size),
            masked_count=int(valid.size - chosen.size),
            tolerance=tolerance, passed=bool(chosen.size) and mx <= tolerance,
            note=note if chosen.size else "no node to assert on"))
        return self.checks[-1]

    def add_scalar(self, name, value, tolerance, note=""):
        return self.add(name, [value], tolerance, note=note)

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


# the sub-grid a sheet's frames are marched on, of a field or entry planes
W4_CUT = np.s_[..., W4:-W4, W4:-W4]


@dataclass
class SheetAnalysis:
    """Extracted spinor-level data of one surface sheet at one parameter,
    formed by `SheetAnalysis.of`; no row or march reads it off the mask."""

    spinors: object
    dirac: object
    e_u: np.ndarray
    h: np.ndarray
    _values: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of(cls, s):
        """The analysis of the spinor field `s`, its Dirac data gated."""
        return cls(s, dirac_data(s), *uh_from_spinors(s))

    @cached_property
    def gauss(self):
        """The Gauss map g of the spinors (`gauss_map`), formed once."""
        return gauss_map(self.spinors)[0]

    @cached_property
    def connection(self):
        """The flat connection's (U, V) loops, built once from the gated
        Dirac data."""
        return _connection(self.dirac)

    def connection_at(self, lam, k=0):
        """(U, V) at `lam` on the sheet's grid, or their k-th
        lam-derivatives; each is formed once, read-only."""
        key = (complex(lam), k)
        if key not in self._values:
            U, V = (L.eval(lam, k) for L in self.connection)
            U.flags.writeable = V.flags.writeable = False
            self._values[key] = U, V
        return self._values[key]

    def frame(self, lam, base_value, derivatives=True):
        """`integrate_frame` of the connection's values at `lam` cut to the
        W4 sub-grid (`W4_CUT`), from `base_value` at its centre node, the
        grid's: (n - 2 W4) // 2 + W4 = n // 2."""
        xs, ys = self.dirac.grid.xs[W4:-W4], self.dirac.grid.ys[W4:-W4]
        sub = DomainGrid(xs[0], xs[-1], ys[0], ys[-1], xs.size, ys.size)
        parts = [tuple(v[W4_CUT] for v in self.connection_at(lam, k))
                 for k in range(3 if derivatives else 1)]
        return integrate_frame(parts, lam, sub, base_value)


def analyze_sheet(sym):
    """Spinor-level extraction of the sheet's minus surface at its parameter,
    on the nodes whose stencils read trusted frames alone
    (`stencil_valid(sym.ok_mask)`): the export mask's exclusions are not
    holes, so the branch continuation never sees artificial ones."""
    phi = left_maurer_cartan(sym.f_minus)
    return SheetAnalysis.of(spinors_from_phi(
        phi, lam=sym.lam, conformal_tol=SHEET_CONFORMAL_TOL,
        mask=stencil_valid(sym.ok_mask), on_branch_cut="record"))


def sheet_checks(rep, a, valid, tols, tag=None):
    """Add to `rep` the rows that read one sheet's spinor data and its dual;
    return the dual pair, or None when the sheet has no dual.

    The one battery of a sheet given by its spinors: `verify_sheets` runs
    it on every parameter's sheet, `verify --spinors` also on the input
    pair.  Rows are tagged with `tag`, by default the spinors' parameter
    (the input pair's rows are tagged `input`).  `valid` is the sheet's
    node mask: the stencil rows are asserted on its centred interiors, the
    double dual on the nodes where it is defined, and the dual's minimality
    where its stencils read no masked node.  Every row is blind to
    the branch convention of the dual: it reads |psi*|, a ratio whose sign
    cancels, or the involution, which applies the sign twice.
    """
    s, d = a.spinors, a.dirac
    tag = tag or lam_tag(s.lam)
    live4 = centred_interior(valid, W4)
    live6 = centred_interior(valid, W6)
    rep.add(f"dirac_consistency[{tag}]", d.consistency,
            tols["dirac_consistency"], live4)
    rep.add(f"minimality[{tag}]", np.abs(d.ew2.real), tols["minimality"],
            live4)
    rep.add(f"holomorphy_B[{tag}]", holomorphy_residual(d.B, s.grid),
            tols["holomorphy_B"], live6)
    rep.add(f"flatness[{tag}]",
            flatness_residual(a.connection_at(s.lam), s.grid),
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
                tols["dual_minimality"],
                centred_interior(stencil_valid(pair.mask), W4))
    return pair


def verify_pipeline(result, tols=None):
    """Run the full residual battery on a pipeline result: the
    factorization's rows, then `verify_sheets` of its sheets against its
    frame loop at lam = 1.  The self-duality rows run when the result is
    flagged self-dual (the built-in examples carry the flag of their spec).
    """
    tols = {**DEFAULT_TOLS, **(tols or {})}
    rep = VerificationReport()
    pivot = result.report.pivot
    rep.add_scalar("iwasawa_recon", result.recon_residual,
                   tols["iwasawa_recon"],
                   note=f"pivot min {np.min(pivot[result.mask]):.3e}, "
                        f"{np.sum(pivot < PIVOT_MIN)} nodes below "
                        f"{PIVOT_MIN:.0e}, order {result.order} of cap "
                        f"{result.order_cap}, tail {result.tail:.3e}")
    rep.add_scalar("iwasawa_reality", result.reality_residual,
                   tols["iwasawa_reality"])
    return verify_sheets(rep, result.sym, result.frame_loop.eval(1.0),
                         result.self_dual, tols)


def verify_sheets(rep, sheets, reference, self_dual, tols):
    """Add to `rep` the rows of a run's sheets by the tolerances `tols`,
    and return it.  Per parameter, `sheet_checks` of the minus sheet's
    analysis, then its conformality, the lambda-independence of e^{w/2},
    the frame's su(1,1) defect, the normal and its structure, and the
    dual's Sym factor.
    When lam = 1 is sampled: frame compatibility at every lam, and
    `cross_pipeline`, the lam = 1 sheet's `SheetAnalysis.frame` march from
    `reference` (the lam = 1 frame on the sheets' grid) at the centre,
    against it.  The self-duality rows run when `self_dual` is set.
    """
    first = a1 = None   # the first sheet and its analysis; the lam = 1 one
    for sym in sheets:
        a = analyze_sheet(sym)
        if a1 is None and abs(sym.lam - 1.0) < 1e-12:
            a1 = a
        valid = sym.f_minus.mask
        pair = sheet_checks(rep, a, valid, tols)
        tag = lam_tag(sym.lam)
        live1 = centred_interior(valid, W1)

        res, e_u = conformality_residual(left_maurer_cartan(sym.f_minus))
        rep.add(f"conformality[{tag}]", res / e_u, tols["conformality"],
                live1)
        if first is None:
            first = sym, a
        else:
            rep.add(f"lambda_independence[{tag}]",
                    np.abs(a.dirac.ew2 - first[1].dirac.ew2),
                    tols["lambda_independence"], centred_interior(valid, W4))
        rep.add(f"frame_su11[{tag}]", su11_residual(sym.frame.F),
                tols["frame_su11"], valid)
        rep.add(f"normal_agreement[{tag}]",
                np.abs(gauss_from_normal_field(sym.n_m) - a.gauss),
                tols["normal_agreement"], live1)
        det = np.abs(det2(sym.n_m) - 0.25)
        tr = np.abs(np.trace(sym.n_m))
        rep.add(f"n_m_structure[{tag}]", np.maximum(det, tr),
                tols["n_m_structure"], valid)
        if pair is not None and not pair.has_branch_cut:
            _sym_duality_factor(rep, tols, sym, tag, pair)
        # only the first and the lam = 1 analyses outlive their sheet's rows
        del a, pair

    if a1 is not None:
        for sym in sheets:
            # the frame at every lam satisfies the connection built from the
            # lam-independent data (w, B) read off at lam = 1
            rep.add(f"frame_compat[{lam_tag(sym.lam)}]",
                    frame_compatibility_residual(
                        sym.frame, a1.connection_at(sym.lam)),
                    tols["frame_compat"],
                    centred_interior(sym.f_minus.mask, W6))
        integ = a1.frame(1.0, reference[(...,) + a1.dirac.grid.centre],
                         derivatives=False)
        diff = np.max(np.abs(integ.F - reference[W4_CUT]), axis=(0, 1))
        rep.add(f"cross_pipeline[{lam_tag(1.0)}]", diff,
                tols["cross_pipeline"])

    if self_dual:
        for sym in sheets:
            fit = mc_equivalent(sym.f_minus, sym.f_plus, allow_reflection=True)
            rep.add_scalar(f"self_duality_mc[{lam_tag(sym.lam)}]",
                           fit.residual, tols["self_duality_mc"],
                           note=fit.kind)
        sym, a = first
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


def lam_tag(lam):
    """The tag of lam in the names of its sheet's rows: two values with one
    tag would repeat row names, so a lambda list may not hold them."""
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
        if not ok.any():   # no node to read the factor at: the row fails
            rep.add(f"sym_duality_factor[{tag}]", [],
                    tols["sym_duality_factor"])
            return
        ratio = got[ok] / want[ok]
        worst = max(worst, float(np.std(ratio)),
                    abs(abs(np.mean(ratio)) - 1.0))
    rep.add_scalar(f"sym_duality_factor[{tag}]", worst,
                   tols["sym_duality_factor"])

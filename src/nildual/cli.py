"""Command-line driver: generate | dual | verify | export.

Pipelines are selected by --example (built-in potential), --potential
(JSON file), or --spinors (CSV pair prefix).  Outputs are namespaced per
run under the --out directory (default from NILDUAL_OUT or ./out) and are
bit-identical for identical configurations.
"""
from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io_formats as iof
from .dualize import dual_spinors
from .errors import ConfigError, GridTooSmallError, NilDualError
from .frames import frame_from_spinors
from .nil3 import (
    DomainGrid,
    centred_interior,
    left_maurer_cartan,
    stencil_valid,
)
from .potentials import (
    BUILTIN_NAMES,
    DEFAULT_ORDER,
    HoloPotential,
    builtin_example,
    dpw_pipeline,
    run_example,
)
from .spinors import SpinorField
from .sym import mc_equivalent, sym_sheets
from .verify import (
    DEFAULT_TOLS,
    SHEET_MIN,
    W4,
    W4_CUT,
    SheetAnalysis,
    VerificationReport,
    analyze_sheet,
    sheet_checks,
    verify_pipeline,
    verify_sheets,
)

DEFAULT_OUT_ENV = "NILDUAL_OUT"


# exp:<angle> accepts a float or [-][<a>*]pi[/<b>] with floats a and b
_PI_ANGLE = re.compile(r"(-?)(?:([\d.eE+-]+)\*)?pi(?:/([\d.eE+-]+))?")


def parse_lambda(token):
    """Unit-modulus parameter: complex literal ('1', '1j', '0.6+0.8j') or
    'exp:<angle>' with the angle in radians, either a float or a multiple
    of pi like exp:pi/3, exp:-pi/2, exp:2*pi/3."""
    token = token.strip()
    if token.startswith("exp:"):
        text = token[4:].strip()
        m = _PI_ANGLE.fullmatch(text)
        try:
            if m is None:
                angle = float(text)
            else:
                sign, a, b = m.groups()
                angle = (float(a) * math.pi if a else math.pi) / float(b or 1)
                angle = -angle if sign else angle
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad angle {token!r}: {exc}") from None
        if not math.isfinite(angle):
            raise ConfigError(f"bad angle {token!r}: not finite")
        return complex(math.cos(angle), math.sin(angle))
    try:
        lam = complex(token)
    except ValueError as exc:
        raise ConfigError(f"bad lambda {token!r}: {exc}") from None
    # NaN compares False both ways: only a finite unit modulus passes
    if not abs(abs(lam) - 1.0) <= 1e-12:
        raise ConfigError(f"lambda {token!r} is not unit-modulus")
    return lam


def parse_lambda_list(text):
    if not text.strip():
        raise ConfigError("empty lambda list")
    return [parse_lambda(t) for t in text.split(",")]


@dataclass
class RunConfig:
    pipeline: str                  # example:<name> | potential:<path> | spinors:<prefix>
    grid: DomainGrid | None = None
    lams: list = field(default_factory=lambda: [1.0 + 0.0j])
    order: int = DEFAULT_ORDER
    tols: dict = field(default_factory=dict)
    out_dir: Path = None
    allow_reflection: bool = False
    exclude_disk: float | None = None
    conjugate_sign: int = +1

    def resolved_grid(self, for_verify=False):
        if self.grid is not None:
            return self.grid
        if self.pipeline.startswith("example:"):
            spec = builtin_example(self.pipeline.split(":", 1)[1])
            if for_verify and spec.verify_grid is not None:
                return spec.verify_grid
            return spec.grid
        return DomainGrid(-1.0, 1.0, -1.0, 1.0, 41, 41)

    def to_dict(self):
        return {
            "schema": iof.SCHEMA,
            "pipeline": self.pipeline,
            "grid": self.resolved_grid().to_dict(),
            "lambdas": [[l.real, l.imag] for l in map(complex, self.lams)],
            "order": self.order,
            "tols": dict(sorted(self.tols.items())),
            "allow_reflection": self.allow_reflection,
            "exclude_disk": self.exclude_disk,
            "conjugate_sign": self.conjugate_sign,
        }

    def hash(self):
        return iof.config_hash(self.to_dict())

    def run_dir(self):
        name = self.pipeline.replace(":", "_").replace("/", "_")
        return Path(self.out_dir) / f"{name}_{self.hash()}"


def _read_spinors(prefix):
    """The SpinorField of <prefix>_psi1.csv, _psi2.csv on their union's grid,
    by the one --spinors rule: a non-finite value, or a grid whose sheets
    (its W4 sub-grid) have under SHEET_MIN nodes a side, is refused; an
    absent node is zero-filled and masked with every node whose stencils
    read it (`stencil_valid`), and refused by name if one of them lies W4
    or more in."""
    try:
        grid, (psi1, psi2), (m1, m2) = iof.read_field_csvs(
            [prefix + "_psi1.csv", prefix + "_psi2.csv"])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad spinor files {prefix!r}: "
                          f"{type(exc).__name__}: {exc}") from None
    for part, psi in (("psi1", psi1), ("psi2", psi2)):
        for i, j in np.argwhere(~np.isfinite(psi))[:1]:
            raise ConfigError(f"non-finite value in {prefix}_{part}.csv at "
                              f"node ({i}, {j})")
    if min(grid.shape) < SHEET_MIN + 2 * W4:
        raise GridTooSmallError(f"--spinors needs {SHEET_MIN + 2 * W4} nodes "
                                f"a side; the input grid of {prefix!r} is "
                                f"{grid.nx}x{grid.ny}")
    mask = stencil_valid(m1 & m2)
    for i, j in np.argwhere(centred_interior(~mask, W4))[:1]:
        raise ConfigError(f"node ({i}, {j}) of {prefix!r}, z = "
                          f"{grid.node_z(i, j):.4g}, is absent or reads an "
                          f"absent node, and --spinors reads every node "
                          f"{W4} or more in")
    return SpinorField(psi1, psi2, grid, mask=mask)


def pipeline_result(config, grid):
    """The PipelineResult of an --example or --potential run on `grid`."""
    kind, _, arg = config.pipeline.partition(":")
    if kind == "example":
        return run_example(arg, grid=grid, lam_samples=config.lams,
                           order=config.order,
                           exclude_disk=config.exclude_disk)
    if kind != "potential":
        raise ConfigError(f"unknown pipeline {config.pipeline!r}")
    try:
        xi = HoloPotential.from_json(iof.read_json(arg))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad potential file {arg!r}: "
                          f"{type(exc).__name__}: {exc}") from None
    return dpw_pipeline(xi, grid, lam_samples=config.lams,
                        order=config.order, exclude_disk=config.exclude_disk)


def run_pipeline(config, for_verify=False):
    """The sheets of the configured pipeline, a SymOutput per lambda, and
    its residual battery, run when called: `verify_pipeline` of a DPW run;
    for a --spinors pair, `sheet_checks` of the input, then `verify_sheets`
    of the sheets against the input's frame.  `for_verify` runs an example
    on its verify grid, and refuses a grid under SHEET_MIN nodes a side."""
    kind, _, arg = config.pipeline.partition(":")
    tols = {**DEFAULT_TOLS, **config.tols}
    if kind == "spinors":
        s = _read_spinors(arg)
        a = SheetAnalysis.of(s)
        F = frame_from_spinors(s)
        mask = s.mask[W4_CUT]
        sheets = sym_sheets([a.frame(lam, F[s.grid.centre])
                             for lam in config.lams], mask, mask)

        def battery():
            rep = VerificationReport()
            sheet_checks(rep, a, s.mask, tols, tag="input")
            return verify_sheets(rep, sheets, F[W4_CUT], False, tols)
        return sheets, battery
    grid = config.resolved_grid(for_verify)
    if for_verify and min(grid.shape) < SHEET_MIN:
        raise GridTooSmallError(
            f"verify needs {SHEET_MIN} nodes a side; the grid "
            f"{grid.x0:g},{grid.x1:g},{grid.y0:g},{grid.y1:g},{grid.nx},"
            f"{grid.ny} has {grid.nx}x{grid.ny}")
    result = pipeline_result(config, grid)
    return result.sym, lambda: verify_pipeline(result, tols)


def cached_sheets(run_dir):
    """The sheets as run_pipeline, read from the frame cache that generate
    wrote under `run_dir`."""
    cache = run_dir / "frames.json"
    if not cache.exists():
        raise ConfigError(f"no frame cache under {run_dir}")
    frames, _grid, mask, ok_mask, _meta = iof.read_frame_cache(cache)
    return sym_sheets(frames, ok_mask, mask)


def _open_run(config):
    """The run directory of `config`, made, with its config.json."""
    run_dir = config.run_dir()
    run_dir.mkdir(parents=True, exist_ok=True)
    iof.write_json(run_dir / "config.json", config.to_dict())
    return run_dir


def _write_sheets(run_dir, sheets, sides, cfg_hash, prefix=""):
    """The OBJ and sidecar of each sheet's `sides` (minus, plus)."""
    for k, sym in enumerate(sheets):
        for side in sides:
            surf = sym.f_minus if side == "minus" else sym.f_plus
            stem = run_dir / f"{prefix}lam{k}_f_{side}"
            iof.write_obj(f"{stem}.obj", surf)
            iof.write_sidecar(f"{stem}.sidecar.json", cfg_hash, surf.mask,
                              {"sym_reality": sym.reality_residual})


def _write_frame_cache(run_dir, config, sheets):
    """The frame cache that `cached_sheets` reads back."""
    iof.write_frame_cache(run_dir / "frames.json", [s.frame for s in sheets],
                          sheets[0].grid, mask=sheets[0].f_minus.mask,
                          ok_mask=sheets[0].ok_mask,
                          meta={"pipeline": config.pipeline})


def cmd_generate(config):
    sheets = run_pipeline(config)[0]
    run_dir = _open_run(config)
    _write_sheets(run_dir, sheets, ("minus",), config.hash())
    for k, sym in enumerate(sheets):
        try:
            a = analyze_sheet(sym)
        except NilDualError as exc:
            print(f"field extraction skipped at lam{k}: {exc}",
                  file=sys.stderr)
            continue
        for name, values in (("psi1", a.spinors.psi1),
                             ("psi2", a.spinors.psi2), ("B", a.dirac.B),
                             ("e_u", a.e_u), ("h", a.h)):
            iof.write_field_csv(run_dir / f"lam{k}_{name}.csv", values,
                                sym.grid)
    _write_frame_cache(run_dir, config, sheets)
    print(f"wrote {run_dir}")
    return 0


def cmd_dual(config):
    """Emit the second sheet (dual surface) plus its invariant fields.

    Reuses the frame cache of a previous generate run when present;
    otherwise the pipeline runs on the fly and writes generate's cache.
    Every lambda is computed before the first file is written.
    """
    cached = (config.run_dir() / "frames.json").exists()
    sheets = (cached_sheets(config.run_dir()) if cached
              else run_pipeline(config)[0])
    outputs = []
    for k, sym in enumerate(sheets):
        a = analyze_sheet(sym)
        try:
            pair = dual_spinors(a.spinors, a.dirac,
                                conjugate_sign=config.conjugate_sign)
        except NilDualError as exc:
            print(f"dual spinors unavailable at lam{k}: {exc}",
                  file=sys.stderr)
            return 2
        e_u_star, h_star, B_star, _, _, _ = pair.invariants
        fit = mc_equivalent(sym.f_minus, sym.f_plus,
                            allow_reflection=config.allow_reflection)
        # exports honour both the duality degeneracies and the run's
        # exclusion mask (singular points of the dual stay unfilled)
        outputs.append((
            (("dual_psi1", pair.dual.psi1), ("dual_psi2", pair.dual.psi2),
             ("e_u_star", e_u_star), ("h_star", h_star), ("B_star", B_star)),
            pair.mask & sym.f_plus.mask,
            pair.branch_log(export_mask=sym.f_plus.mask),
            {"schema": 1, "equivalent": bool(fit.equivalent),
             "kind": fit.kind, "theta": fit.theta,
             "residual": fit.residual}))
    run_dir = _open_run(config)
    if not cached:
        _write_frame_cache(run_dir, config, sheets)
    _write_sheets(run_dir, sheets, ("plus",), config.hash())
    for k, (fields, out_mask, branch_log, fit) in enumerate(outputs):
        for name, values in fields:
            iof.write_field_csv(run_dir / f"lam{k}_{name}.csv", values,
                                sheets[k].grid, mask=out_mask)
        iof.write_json(run_dir / f"lam{k}_branch_log.json", branch_log)
        iof.write_json(run_dir / f"lam{k}_dual_fit.json", fit)
    print(f"wrote duals to {run_dir}")
    return 0


def cmd_verify(config):
    rep = run_pipeline(config, for_verify=True)[1]()
    run_dir = config.run_dir()
    run_dir.mkdir(parents=True, exist_ok=True)
    iof.write_json(run_dir / "report.json", rep.to_json())
    (run_dir / "report.txt").write_text(rep.table() + "\n")
    print(rep.table())
    return 0 if rep.passed else 1


def cmd_export(args_run, formats):
    unknown = sorted(set(formats) - {"obj", "csv"})
    if unknown:
        raise ConfigError(f"unknown export format(s) {', '.join(unknown)}; "
                          f"choose from obj, csv")
    run_dir = Path(args_run)
    sheets = cached_sheets(run_dir)
    cfg_path = run_dir / "config.json"
    cfg_hash = (iof.config_hash(iof.read_json(cfg_path))
                if cfg_path.exists() else "unknown")
    if "obj" in formats:
        _write_sheets(run_dir, sheets, ("minus", "plus"), cfg_hash,
                      prefix="export_")
    if "csv" in formats:
        for k, sym in enumerate(sheets):
            for side, surf in (("minus", sym.f_minus), ("plus", sym.f_plus)):
                iof.write_field_csv(
                    run_dir / f"export_lam{k}_phi3_{side}.csv",
                    left_maurer_cartan(surf).phi3, sym.grid)
    print(f"re-exported {len(sheets)} frame(s) from {run_dir}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="nildual",
        description="Minimal surfaces in the Heisenberg group and their "
                    "duals: generation, duality, verification, export.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--example",
                       help=f"built-in potential: {', '.join(BUILTIN_NAMES)}, "
                            "or smyth-<k> for any positive k")
        g.add_argument("--potential", help="potential JSON file")
        g.add_argument("--spinors", help="CSV prefix: <p>_psi1.csv, <p>_psi2.csv")
        sp.add_argument("--grid", help="x0,x1,y0,y1,nx,ny")
        sp.add_argument("--lambda", dest="lams", default="1",
                        help="comma list: complex literals or exp:<angle>")
        sp.add_argument("--order", type=int, default=DEFAULT_ORDER,
                        help="cap of the spectral truncation order; the "
                             "factorization trims Phi to the order its "
                             "tail needs")
        sp.add_argument("--tol", action="append", default=[],
                        metavar="NAME=VAL", help="tolerance override")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--allow-reflection", action="store_true")
        sp.add_argument("--exclude-disk", type=float, default=None,
                        help="mask |z| < r for export")
        sp.add_argument("--conjugate-sign", type=int, choices=(1, -1),
                        default=1, help="branch convention for the dual pair")

    for name in ("generate", "dual", "verify"):
        sp = sub.add_parser(name)
        add_common(sp)

    sp = sub.add_parser("export")
    sp.add_argument("--run", required=True, help="previous run directory")
    sp.add_argument("--formats", default="obj,csv")
    return p


def config_from_args(args):
    if args.example:
        pipeline = f"example:{args.example}"
    elif args.potential:
        pipeline = f"potential:{args.potential}"
    elif args.spinors:
        pipeline = f"spinors:{args.spinors}"
    else:
        raise ConfigError("select --example, --potential, or --spinors")
    tols = {}
    for item in args.tol:
        name, _, val = item.partition("=")
        if name not in DEFAULT_TOLS:
            raise ConfigError(f"unknown tolerance {name!r} in --tol {item!r}")
        try:
            tols[name] = float(val)
        except ValueError:
            raise ConfigError(f"bad --tol {item!r}") from None
        # NaN fails every row and inf turns a row off
        if not 0.0 <= tols[name] < math.inf:
            raise ConfigError(f"--tol {item!r} is not a finite, "
                              f"non-negative value")
    out = args.out or os.environ.get(DEFAULT_OUT_ENV, "out")
    return RunConfig(
        pipeline=pipeline,
        grid=DomainGrid.from_string(args.grid) if args.grid else None,
        lams=parse_lambda_list(args.lams),
        order=args.order,
        tols=tols,
        out_dir=Path(out),
        allow_reflection=args.allow_reflection,
        exclude_disk=args.exclude_disk,
        conjugate_sign=args.conjugate_sign,
    )


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "export":
            return cmd_export(args.run, args.formats.split(","))
        # looked up per call, so that a rebinding of a command is honoured
        commands = {"generate": cmd_generate, "dual": cmd_dual,
                    "verify": cmd_verify}
        return commands[args.command](config_from_args(args))
    except (ConfigError, NilDualError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

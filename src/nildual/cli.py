"""Command-line driver: generate | dual | verify | sweep | export.

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
from .dualize import dual_invariants, dual_spinors
from .errors import ConfigError, NilDualError
from .frames import frame_from_spinors, integrate_frame
from .nil3 import DomainGrid, centred_interior, left_maurer_cartan
from .potentials import (
    BUILTIN_NAMES,
    HoloPotential,
    builtin_example,
    dpw_pipeline,
)
from .spinors import SpinorField, dirac_data
from .sym import mc_equivalent, sym_sheets
from .verify import (
    DEFAULT_TOLS,
    W4,
    analyze_sheet,
    verify_pipeline,
    verify_spinors,
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
    if abs(abs(lam) - 1.0) > 1e-12:
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
    order: int = 12
    tols: dict = field(default_factory=dict)
    out_dir: Path = None
    formats: tuple = ("obj", "csv", "json")
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


def _lam_slug(k):
    return f"lam{k}"


@dataclass
class RunArtifacts:
    """In-memory products of a generate run, reused by dual/sweep/verify."""

    config: RunConfig
    syms: list                     # SymOutput per lambda
    frames: list                   # FrameField per lambda
    ok_mask: np.ndarray            # nodes whose frames are trustworthy
    result: object = None          # PipelineResult for potential pipelines
    spinor_input: object = None    # SpinorField when driven from CSVs


def run_pipeline(config, for_verify=False):
    """Execute the configured pipeline and return its artifacts."""
    kind, _, arg = config.pipeline.partition(":")
    grid = config.resolved_grid(for_verify=for_verify)
    if kind == "example":
        spec = builtin_example(arg)
        exclude = (config.exclude_disk if config.exclude_disk is not None
                   else spec.exclude_disk)
        res = dpw_pipeline(spec.potential(), grid, z0=spec.z0,
                           lam_samples=config.lams, order=config.order,
                           exclude_disk=exclude, self_dual=spec.self_dual)
        return RunArtifacts(config, res.sym, res.frames, res.ok_mask,
                            result=res)
    if kind == "potential":
        try:
            xi = HoloPotential.from_json(iof.read_json(arg))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad potential file {arg!r}: "
                              f"{type(exc).__name__}: {exc}") from None
        res = dpw_pipeline(xi, grid, z0=0j, lam_samples=config.lams,
                           order=config.order,
                           exclude_disk=config.exclude_disk)
        return RunArtifacts(config, res.sym, res.frames, res.ok_mask,
                            result=res)
    if kind == "spinors":
        try:
            g1, psi1, m1 = iof.read_field_csv(arg + "_psi1.csv")
            g2, psi2, m2 = iof.read_field_csv(arg + "_psi2.csv")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad spinor files {arg!r}: "
                              f"{type(exc).__name__}: {exc}") from None
        if g1 != g2:
            raise ConfigError("spinor component grids disagree")
        s = SpinorField(psi1, psi2, g1, mask=m1 & m2)
        d = dirac_data(s)
        base = frame_from_spinors(s)[0, 0]
        frames = [integrate_frame(d, lam, base_value=base)
                  for lam in config.lams]
        return RunArtifacts(config, sym_sheets(frames, s.mask, s.mask),
                            frames, s.mask, spinor_input=s)
    raise ConfigError(f"unknown pipeline {config.pipeline!r}")


def _write_surface_outputs(run_dir, config, sym, k, which=("minus",)):
    res_summary = {"sym_reality": sym.reality_residual}
    for side in which:
        surf = sym.f_minus if side == "minus" else sym.f_plus
        stem = run_dir / f"{_lam_slug(k)}_f_{side}"
        if "obj" in config.formats:
            iof.write_obj(f"{stem}.obj", surf)
        iof.write_sidecar(f"{stem}.sidecar.json", config.hash(),
                          surf.mask, res_summary)


def _write_field_outputs(run_dir, config, sym, k, extract_mask):
    if "csv" not in config.formats:
        return
    try:
        a = analyze_sheet(sym.f_minus, sym.lam, extract_mask=extract_mask)
    except NilDualError as exc:
        print(f"field extraction skipped at {_lam_slug(k)}: {exc}",
              file=sys.stderr)
        return
    grid = sym.grid
    tag = _lam_slug(k)
    iof.write_field_csv(run_dir / f"{tag}_psi1.csv", a.spinors.psi1, grid)
    iof.write_field_csv(run_dir / f"{tag}_psi2.csv", a.spinors.psi2, grid)
    iof.write_field_csv(run_dir / f"{tag}_B.csv", a.dirac.B, grid)
    iof.write_field_csv(run_dir / f"{tag}_e_u.csv", a.e_u.astype(complex), grid)
    iof.write_field_csv(run_dir / f"{tag}_h.csv", a.h.astype(complex), grid)
    return a


def cmd_generate(config):
    arts = run_pipeline(config)
    run_dir = config.run_dir()
    run_dir.mkdir(parents=True, exist_ok=True)
    iof.write_json(run_dir / "config.json", config.to_dict())
    for k, sym in enumerate(arts.syms):
        _write_surface_outputs(run_dir, config, sym, k, which=("minus",))
        _write_field_outputs(run_dir, config, sym, k, arts.ok_mask)
    if "json" in config.formats:
        iof.write_frame_cache(
            run_dir / "frames.json",
            arts.frames,
            arts.syms[0].grid,
            mask=arts.syms[0].f_minus.mask,
            ok_mask=arts.ok_mask,
            meta={"pipeline": config.pipeline})
    print(f"wrote {run_dir}")
    return 0


def cmd_dual(config):
    """Emit the second sheet (dual surface) plus its invariant fields.

    Reuses the frame cache of a previous generate run when present;
    otherwise the pipeline runs on the fly.
    """
    run_dir = config.run_dir()
    cache = run_dir / "frames.json"
    if cache.exists():
        frames, _grid, mask, ok_mask, _meta = iof.read_frame_cache(cache)
        syms = sym_sheets(frames, ok_mask, mask)
    else:
        arts = run_pipeline(config)
        syms = arts.syms
        ok_mask = arts.ok_mask
        run_dir.mkdir(parents=True, exist_ok=True)
    iof.write_json(run_dir / "config.json", config.to_dict())
    for k, sym in enumerate(syms):
        _write_surface_outputs(run_dir, config, sym, k, which=("plus",))
        a = analyze_sheet(sym.f_minus, sym.lam, extract_mask=ok_mask)
        try:
            pair = dual_spinors(a.spinors, a.dirac,
                                conjugate_sign=config.conjugate_sign)
        except NilDualError as exc:
            print(f"dual spinors unavailable at {_lam_slug(k)}: {exc}",
                  file=sys.stderr)
            return 2
        e_u_star, h_star, B_star, g_star, ew2_star, dmask = dual_invariants(
            a.spinors, a.dirac)
        grid = sym.grid
        tag = _lam_slug(k)
        # exports honour both the duality degeneracies and the run's
        # exclusion mask (singular points of the dual stay unfilled)
        out_mask = pair.mask & sym.f_plus.mask
        inv_mask = dmask & sym.f_plus.mask
        if "csv" in config.formats:
            iof.write_field_csv(run_dir / f"{tag}_dual_psi1.csv",
                                pair.dual.psi1, grid, mask=out_mask)
            iof.write_field_csv(run_dir / f"{tag}_dual_psi2.csv",
                                pair.dual.psi2, grid, mask=out_mask)
            iof.write_field_csv(run_dir / f"{tag}_e_u_star.csv",
                                e_u_star.astype(complex), grid, mask=inv_mask)
            iof.write_field_csv(run_dir / f"{tag}_h_star.csv",
                                h_star.astype(complex), grid, mask=inv_mask)
            iof.write_field_csv(run_dir / f"{tag}_B_star.csv", B_star, grid,
                                mask=inv_mask)
        iof.write_json(run_dir / f"{tag}_branch_log.json",
                       pair.branch_log(export_mask=sym.f_plus.mask))
        fit = mc_equivalent(sym.f_minus, sym.f_plus,
                            allow_reflection=config.allow_reflection)
        iof.write_json(run_dir / f"{tag}_dual_fit.json", {
            "schema": 1, "equivalent": bool(fit.equivalent),
            "kind": fit.kind, "theta": fit.theta,
            "residual": fit.residual,
        })
    print(f"wrote duals to {run_dir}")
    return 0


def cmd_verify(config, perturb_frame=0.0):
    arts = run_pipeline(config, for_verify=True)
    run_dir = config.run_dir()
    run_dir.mkdir(parents=True, exist_ok=True)
    if arts.result is not None:
        rep = verify_pipeline(arts.result, tols=config.tols,
                              perturb_frame=perturb_frame)
    else:
        rep = verify_spinors(arts.spinor_input, tols=config.tols,
                             conjugate_sign=config.conjugate_sign)
    iof.write_json(run_dir / "report.json", rep.to_json())
    (run_dir / "report.txt").write_text(rep.table() + "\n")
    print(rep.table())
    return 0 if rep.passed else 1


def cmd_sweep(config):
    if len(config.lams) < 2:
        raise ConfigError("sweep needs at least two lambda samples")
    arts = run_pipeline(config)
    run_dir = config.run_dir()
    run_dir.mkdir(parents=True, exist_ok=True)
    iof.write_json(run_dir / "config.json", config.to_dict())
    ew2_ref = None
    entries = []
    for k, sym in enumerate(arts.syms):
        _write_surface_outputs(run_dir, config, sym, k,
                               which=("minus", "plus"))
        a = analyze_sheet(sym.f_minus, sym.lam, extract_mask=arts.ok_mask)
        # every node of the W4 interior, the export mask aside
        core = centred_interior(np.ones(sym.grid.shape, dtype=bool), W4)
        if ew2_ref is None:
            ew2_ref = a.dirac.ew2
            drift = 0.0
        else:
            drift = float(np.max(np.abs((a.dirac.ew2 - ew2_ref)[core])))
        entries.append({
            "lambda": [complex(sym.lam).real, complex(sym.lam).imag],
            "dirac_potential_drift": drift,
            "re_dirac_max": float(np.max(np.abs(a.dirac.ew2.real[core]))),
        })
    iof.write_json(run_dir / "sweep_report.json",
                   {"schema": 1, "entries": entries})
    print(f"wrote sweep to {run_dir}")
    return 0


def cmd_export(args_run, formats):
    run_dir = Path(args_run)
    cache = run_dir / "frames.json"
    if not cache.exists():
        raise ConfigError(f"no frame cache under {run_dir}")
    frames, grid, mask, ok_mask, _ = iof.read_frame_cache(cache)
    cfg_hash = "unknown"
    cfg_path = run_dir / "config.json"
    if cfg_path.exists():
        cfg_hash = iof.config_hash(iof.read_json(cfg_path))
    for k, sym in enumerate(sym_sheets(frames, ok_mask, mask)):
        for side in ("minus", "plus"):
            surf = sym.f_minus if side == "minus" else sym.f_plus
            stem = run_dir / f"export_{_lam_slug(k)}_f_{side}"
            if "obj" in formats:
                iof.write_obj(f"{stem}.obj", surf)
                iof.write_sidecar(f"{stem}.sidecar.json", cfg_hash, surf.mask,
                                  {"sym_reality": sym.reality_residual})
            if "csv" in formats:
                phi = left_maurer_cartan(surf)
                iof.write_field_csv(
                    run_dir / f"export_{_lam_slug(k)}_phi3_{side}.csv",
                    phi.phi3, grid)
    print(f"re-exported {len(frames)} frame(s) from {run_dir}")
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
        sp.add_argument("--order", type=int, default=12,
                        help="spectral truncation order")
        sp.add_argument("--tol", action="append", default=[],
                        metavar="NAME=VAL", help="tolerance override")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--allow-reflection", action="store_true")
        sp.add_argument("--exclude-disk", type=float, default=None,
                        help="mask |z| < r for export")
        sp.add_argument("--conjugate-sign", type=int, choices=(1, -1),
                        default=1, help="branch convention for the dual pair")

    for name in ("generate", "dual", "verify", "sweep"):
        sp = sub.add_parser(name)
        add_common(sp)
        if name == "verify":
            sp.add_argument("--perturb-frame", type=float, default=0.0,
                            help="noise amplitude for the negative control")

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
        config = config_from_args(args)
        if args.command == "generate":
            return cmd_generate(config)
        if args.command == "dual":
            return cmd_dual(config)
        if args.command == "verify":
            return cmd_verify(config, perturb_frame=args.perturb_frame)
        if args.command == "sweep":
            return cmd_sweep(config)
    except (ConfigError, NilDualError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Serialization: CSV fields, OBJ meshes, JSON schemas, config hashing.

All floating output is fixed to 17 significant digits so identical
configurations produce bit-identical files.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .nil3 import DomainGrid

SCHEMA = 1


def fmt(x):
    return format(float(x), ".17g")


def write_json(path, obj):
    text = json.dumps(obj, sort_keys=True, indent=1, separators=(",", ": "))
    Path(path).write_text(text + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def config_hash(config_dict):
    canon = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def write_field_csv(path, field, grid, mask=None):
    """One row per node of `mask` (default: every node): i, j, x, y, Re, Im
    (row-major over y then x)."""
    field = np.asarray(field)
    if mask is None:
        mask = np.ones(grid.shape, dtype=bool)
    lines = ["# schema=1", "i,j,x,y,re,im"]
    for i, j in np.argwhere(mask).tolist():
        v = complex(field[i, j])
        lines.append(f"{i},{j},{fmt(grid.xs[j])},{fmt(grid.ys[i])},"
                     f"{fmt(v.real)},{fmt(v.imag)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_field_csv(path):
    """Returns (grid, field, mask); nodes absent from the file are masked."""
    rows = []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#") or line.startswith("i,"):
            continue
        i, j, x, y, re, im = line.split(",")
        rows.append((int(i), int(j), float(x), float(y),
                     float(re), float(im)))
    if not rows:
        raise ConfigError(f"empty field file {path}")
    ny = max(r[0] for r in rows) + 1
    nx = max(r[1] for r in rows) + 1
    xs = sorted({(r[1], r[2]) for r in rows})
    ys = sorted({(r[0], r[3]) for r in rows})
    grid = DomainGrid(xs[0][1], xs[-1][1], ys[0][1], ys[-1][1], nx, ny)
    field = np.zeros((ny, nx), dtype=complex)
    mask = np.zeros((ny, nx), dtype=bool)
    for i, j, _x, _y, re, im in rows:
        field[i, j] = complex(re, im)  # keeps the sign of a zero part
        mask[i, j] = True
    return grid, field, mask


def write_obj(path, surface):
    """Wavefront mesh: Nil coordinates are global, so vertices export as
    plain R^3 triples; grid quads split into two triangles; quads touching
    masked nodes are dropped."""
    coords = surface.coords
    valid = surface.mask
    grid = surface.grid
    index = np.zeros(grid.shape, dtype=int)
    lines = ["# schema=1"]
    n = 0
    for i in range(grid.ny):
        for j in range(grid.nx):
            if valid[i, j]:
                n += 1
                index[i, j] = n
                x, y, z = coords[i, j]
                lines.append(f"v {fmt(x)} {fmt(y)} {fmt(z)}")
    for i in range(grid.ny - 1):
        for j in range(grid.nx - 1):
            if (valid[i, j] and valid[i, j + 1]
                    and valid[i + 1, j] and valid[i + 1, j + 1]):
                a, b = index[i, j], index[i, j + 1]
                c, d = index[i + 1, j + 1], index[i + 1, j]
                lines.append(f"f {a} {b} {c}")
                lines.append(f"f {a} {c} {d}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_frame_cache(path, frames, grid, mask, ok_mask, meta=None):
    """JSON-wrapped matrix grids per sampled parameter value.

    `mask` marks exportable nodes (exclusion disks included); `ok_mask`
    marks nodes whose frames are trustworthy (factorization succeeded) and
    bounds the extraction domain when the caches are reused.  Either is
    stored as null when every node is True.  A matrix grid is stored as
    [ny][nx][4 entries, row-major][re, im]."""

    def pack(M):
        return np.stack([M.real, M.imag], axis=-1).reshape(
            grid.shape + (4, 2)).tolist()

    entries = []
    for fr in frames:
        entries.append({
            "lambda": [float(fr.lam.real), float(fr.lam.imag)],
            "F": pack(fr.F),
            "F_lam": pack(fr.F_lam),
            "F_lam2": pack(fr.F_lam2),
        })
    data = {
        "schema": SCHEMA,
        "grid": grid.to_dict(),
        "mask": _pack_mask(mask),
        "ok_mask": _pack_mask(ok_mask),
        "entries": entries,
    }
    if meta:
        data["meta"] = meta
    write_json(path, data)


def _pack_mask(mask):
    return None if np.all(mask) else mask.astype(int).tolist()


def read_frame_cache(path):
    """(frames, grid, mask, ok_mask, meta) of a frame cache; a null mask
    reads back as every node True.  A file not in this format raises
    ConfigError."""
    from .frames import FrameField

    def unpack_mask(m):
        if m is None:
            return np.ones(grid.shape, dtype=bool)
        return np.array(m, dtype=bool).reshape(grid.shape)

    def unpack(M):
        # (re, im) pairs are the memory layout of complex128: a view keeps
        # every bit, the sign of zero included
        pairs = np.asarray(M, dtype=float).reshape(grid.shape + (4, 2))
        return pairs.view(complex).reshape(grid.shape + (2, 2))

    try:
        data = read_json(path)
        grid = DomainGrid.from_dict(data["grid"])
        frames = []
        for e in data["entries"]:
            lam = complex(e["lambda"][0], e["lambda"][1])
            frames.append(FrameField(
                F=unpack(e["F"]), F_lam=unpack(e["F_lam"]),
                F_lam2=unpack(e["F_lam2"]), lam=lam, grid=grid))
        return (frames, grid, unpack_mask(data.get("mask")),
                unpack_mask(data.get("ok_mask")), data.get("meta"))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        raise ConfigError(f"bad frame cache {path}: "
                          f"{type(exc).__name__}: {exc}") from None


def write_sidecar(path, cfg_hash, mask, residuals):
    masked_nodes = [[int(i), int(j)] for i, j in np.argwhere(~mask)]
    write_json(path, {
        "schema": SCHEMA,
        "config_hash": cfg_hash,
        "masked_nodes": masked_nodes,
        "residuals": {k: fmt(v) for k, v in residuals.items()},
    })

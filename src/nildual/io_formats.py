"""Serialization: CSV fields, OBJ meshes, JSON schemas, config hashing.

Text output (field CSVs, OBJ vertices, sidecar residuals) prints every
float with 17 significant digits, so identical configurations produce
bit-identical files.  A CSV's header and rows' "i,j,x,y,", and an OBJ's
face list, are formatted once per grid and mask into an ASCII "%" template
(bytes, written as they are) that each file fills with its numbers.  Each
writer keeps one template, keyed on the exact bytes of the grid axes and
the boolean mask, since every command writes all its CSVs on one grid and
mask and all its OBJs on one mask.  The frame cache stores its matrix
grids as exact binary instead: a small JSON header (`frames.json`) beside
one raw payload (`frames.bin`) of little-endian complex128 bytes and mask
bytes, written before the header and read back in one read as read-only
views.
"""
from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .nil3 import DomainGrid

SCHEMA = 1
# the frame cache's own layout version; SCHEMA enters the config hash and so
# every run-directory name, this one only the cache file
FRAME_CACHE_SCHEMA = 3


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
    (row-major over y then x).  The file is `_csv_template` of the grid and
    mask with each node's two values formatted in."""
    field = np.asarray(field)
    mask = (np.ones(grid.shape, dtype=bool) if mask is None
            else np.asarray(mask, dtype=bool))
    v = field[mask]
    template = _csv_template(grid.xs.tobytes(), grid.ys.tobytes(),
                             mask.tobytes(), mask.shape)
    Path(path).write_bytes(template % tuple(
        np.stack([v.real, v.imag], axis=-1).ravel().tolist()))


@functools.lru_cache(maxsize=1)
def _csv_template(xs, ys, mask, shape):
    """The field CSV of a grid and mask, given as bytes (not floats: a
    -0.0 bound prints as -0), with a "%.17g,%.17g" slot per kept node; the
    coordinates are formatted once per grid row and column."""
    i, j = np.nonzero(np.frombuffer(mask, dtype=bool).reshape(shape))
    # the "i," and "y," of each grid row, the "j,x," of each column
    heads = [f"{k}," for k in range(shape[0])]
    tails = [f"{fmt(y)}," for y in np.frombuffer(ys)]
    cols = [f"{k},{fmt(x)}," for k, x in enumerate(np.frombuffer(xs))]
    # "%.17g" equals format(x, ".17g")
    return ("# schema=1\ni,j,x,y,re,im\n" + "".join(
        heads[a] + cols[b] + tails[a] + "%.17g,%.17g\n"
        for a, b in zip(i.tolist(), j.tolist()))).encode()


def _axis_bounds(pairs):
    """First and last coordinate of a grid axis from its sorted (index,
    coordinate) pairs: the spacing is read off the first and last index
    present, and the coordinate of index 0 extrapolated when it is absent."""
    (k0, v0), (k1, v1) = pairs[0], pairs[-1]
    if k0 == 0 or k0 == k1:
        return v0, v1
    return v0 - k0 * (v1 - v0) / (k1 - k0), v1


def read_field_csv(path):
    """Returns (grid, field, mask); nodes absent from the file are masked."""
    grid, (field,), (mask,) = read_field_csvs([path])
    return grid, field, mask


def read_field_csvs(paths):
    """(grid, fields, masks) of field CSVs on the one grid of the union of
    their (index, coordinate) pairs; a node absent from a file is masked in
    its mask.  Files that put one index at two coordinates, or a node at a
    negative index or twice, are refused."""
    rows = []  # (file, i, j, x, y, re, im)
    for n, path in enumerate(paths):
        nodes = set()
        for line in Path(path).read_text().splitlines():
            if not line or line.startswith("#") or line.startswith("i,"):
                continue
            i, j, x, y, re, im = line.split(",")
            node = int(i), int(j)
            if min(node) < 0:
                raise ConfigError(f"{path} lists node {node}, at a negative "
                                  f"index")
            if node in nodes:
                raise ConfigError(f"{path} lists node {node} twice")
            nodes.add(node)
            rows.append((n, *node, float(x), float(y), float(re), float(im)))
        if not nodes:
            raise ConfigError(f"empty field file {path}")
    axes = []
    for k, name in ((1, "row"), (2, "column")):
        pairs = sorted({(r[k], r[5 - k]) for r in rows})
        if len({m for m, _ in pairs}) < len(pairs):
            raise ConfigError(f"{', '.join(map(str, paths))} put a {name} "
                              f"at two coordinates")
        axes.append((*_axis_bounds(pairs), pairs[-1][0] + 1))
    (y0, y1, ny), (x0, x1, nx) = axes
    grid = DomainGrid(x0, x1, y0, y1, nx, ny)
    fields = np.zeros((len(paths), ny, nx), dtype=complex)
    masks = np.zeros(fields.shape, dtype=bool)
    for n, i, j, _x, _y, re, im in rows:
        fields[n, i, j] = complex(re, im)  # keeps the sign of a zero part
        masks[n, i, j] = True
    return grid, fields, masks


def write_obj(path, surface):
    """Wavefront mesh: Nil coordinates are global, so vertices export as
    plain R^3 triples; grid quads split into two triangles; quads touching
    masked nodes are dropped.  The file is `_obj_template` of the mask with
    the valid nodes' coordinates formatted in."""
    valid = np.asarray(surface.mask, dtype=bool)
    template = _obj_template(valid.tobytes(), valid.shape)
    Path(path).write_bytes(template % tuple(
        surface.coords[valid].ravel().tolist()))


@functools.lru_cache(maxsize=1)
def _obj_template(mask, shape):
    """The OBJ of a mask, given as bytes: a "v %.17g %.17g %.17g" slot per
    valid node, then the faces, formatted here."""
    valid = np.frombuffer(mask, dtype=bool).reshape(shape)
    # 1-based vertex number of every valid node, in row-major order
    index = np.cumsum(valid.ravel()).reshape(shape)
    quad = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, :-1] & valid[1:, 1:]
    a, b = index[:-1, :-1][quad], index[:-1, 1:][quad]
    c, d = index[1:, 1:][quad], index[1:, :-1][quad]
    faces = np.stack([a, b, c, a, c, d], axis=-1)
    return ("# schema=1\n" + "v %.17g %.17g %.17g\n" * int(valid.sum())
            + "f %d %d %d\nf %d %d %d\n" * len(faces) % tuple(
                faces.ravel().tolist())).encode()


def write_frame_cache(path, frames, grid, mask, ok_mask, meta=None):
    """A frame cache: the payload, `path` with the suffix ".bin", then the
    JSON header `path` (schema, grid, lambdas, meta, the payload's size).

    The payload holds, per sampled parameter value, F, F_lam and F_lam2,
    entry planes (2, 2, ny, nx) in memory, as C-order little-endian
    complex128 of the node-major shape (ny, nx, 2, 2): every bit survives,
    signed zeros and NaNs included.  Then come `mask`, the exportable nodes
    (exclusion disks included), and `ok_mask`, the nodes whose frames are
    trustworthy (factorization succeeded), which bounds the extraction
    domain when the caches are reused: one byte per node."""
    raw = b"".join(
        [np.moveaxis(np.asarray(M, "<c16"), (0, 1), (-2, -1)).tobytes()
         for fr in frames for M in (fr.F, fr.F_lam, fr.F_lam2)]
        + [np.asarray(m, dtype=bool).tobytes() for m in (mask, ok_mask)])
    Path(path).with_suffix(".bin").write_bytes(raw)
    data = {
        "schema": FRAME_CACHE_SCHEMA,
        "grid": grid.to_dict(),
        "lambdas": [[float(fr.lam.real), float(fr.lam.imag)] for fr in frames],
        "payload_bytes": len(raw),
    }
    if meta:
        data["meta"] = meta
    write_json(path, data)


def read_frame_cache(path):
    """(frames, grid, mask, ok_mask, meta) of a frame cache, every array a
    read-only view of the one read of its payload, the frames' as entry
    planes (2, 2, ny, nx).  A cache not in this format, of another schema
    or with a payload of another size than its header and grid call for,
    raises ConfigError."""
    from .frames import FrameField

    payload = Path(path).with_suffix(".bin")
    try:
        data = read_json(path)
        schema = data.get("schema")
        if schema != FRAME_CACHE_SCHEMA:
            raise ConfigError(
                f"frame cache {path} has schema {schema!r}, not "
                f"{FRAME_CACHE_SCHEMA}: regenerate it with `nildual generate`")
        grid = DomainGrid.from_dict(data["grid"])
        lams = [complex(re, im) for re, im in data["lambdas"]]
        want = data["payload_bytes"]
        raw = payload.read_bytes()
        # 3 grids of 2x2 complex128 per lambda, then 2 mask bytes a node
        count = 12 * len(lams) * grid.nx * grid.ny
        size = 16 * count + 2 * grid.nx * grid.ny
        if not len(raw) == want == size:
            raise ConfigError(
                f"frame cache payload {payload} holds {len(raw)} bytes; its "
                f"header says {want!r}, its grid and lambdas {size}")
        mats = np.frombuffer(raw, dtype="<c16", count=count)
        mask, ok_mask = np.frombuffer(raw, dtype=bool, offset=mats.nbytes
                                      ).reshape((2,) + grid.shape)
        planes = np.moveaxis(mats.reshape(
            (len(lams), 3) + grid.shape + (2, 2)), (-2, -1), (2, 3))
        frames = [FrameField(F=F, F_lam=F1, F_lam2=F2, lam=lam, grid=grid)
                  for (F, F1, F2), lam in zip(planes, lams)]
        return frames, grid, mask, ok_mask, data.get("meta")
    except (OSError, ValueError, KeyError, TypeError, IndexError,
            AttributeError) as exc:
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

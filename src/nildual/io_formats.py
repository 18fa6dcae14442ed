"""Serialization: CSV fields, OBJ meshes, JSON schemas, config hashing.

Text output (field CSVs, OBJ vertices, sidecar residuals) prints every
float with 17 significant digits, so identical configurations produce
bit-identical files.  The CSV and OBJ writers print their floats with one
array kernel, `_g17`, whose text is exactly `format(v, ".17g")`.  It rounds
|v| 10^(16-k) to a 17-digit integer in int64, from a double-double product
(Dekker's exact TwoProduct against 10^p held as hi + lo), and hands to
`format` only the values that product cannot decide: non-finite ones, those
outside 1e-280 <= |v| <= 1e280, and those whose rounding lies within 2^-44
of a tie (the product errs by under 2^-47).  Each number fills a fixed cell
of NUL-padded columns, so a file is one uint8 table (a per-node prefix, the
numbers and their separators) written with its NUL bytes deleted; the text
holds no NUL byte.  A CSV's "i,j,x,y," rows are built once per grid and
mask, and an OBJ's face list once per mask: each writer keeps one such
template, keyed on the exact bytes of the grid axes and the boolean mask,
since every command writes all its CSVs on one grid and mask and all its
OBJs on one mask.  The frame cache stores its matrix grids as exact binary
instead: a small JSON header (`frames.json`) beside one raw payload
(`frames.bin`) of little-endian complex128 bytes and mask bytes, written
before the header and read back in one read as read-only views.
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
CSV_HEADER = b"# schema=1\ni,j,x,y,re,im\n"


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
    (row-major over y then x).  Each row is its node's row of
    `_csv_template` of the grid and mask followed by the node's values."""
    field = np.asarray(field)
    mask = (np.ones(grid.shape, dtype=bool) if mask is None
            else np.asarray(mask, dtype=bool))
    v = field[mask]
    prefix = _csv_template(grid.xs.tobytes(), grid.ys.tobytes(),
                           mask.tobytes(), mask.shape)
    Path(path).write_bytes(CSV_HEADER + _rows(
        prefix, np.stack([v.real, v.imag], axis=-1), b",\n"))


@functools.lru_cache(maxsize=1)
def _csv_template(xs, ys, mask, shape):
    """The "i,j,x,y," of each kept node of a grid and mask, given as bytes
    (not floats: a -0.0 bound prints as -0), as read-only NUL-padded rows;
    the coordinates are formatted once per grid row and column."""
    i, j = np.nonzero(np.frombuffer(mask, dtype=bool).reshape(shape))
    x_text, y_text = ([cell.tobytes().translate(None, b"\0") for cell in
                       _g17(np.frombuffer(a, dtype=np.float64))]
                      for a in (xs, ys))
    # the "i," and "y," of each grid row, the "j,x," of each column
    heads = _padded([b"%d," % k for k in range(shape[0])])
    tails = _padded([y + b"," for y in y_text])
    cols = _padded([b"%d,%s," % (k, x) for k, x in enumerate(x_text)])
    prefix = np.concatenate([heads[i], cols[j], tails[i]], axis=1)
    prefix.flags.writeable = False
    return prefix


def _padded(texts):
    """uint8 rows of ASCII byte strings, NUL-padded to the longest."""
    return np.array(texts, dtype=bytes).reshape(len(texts), 1).view(np.uint8)


def _rows(prefix, values, seps):
    """The text of rows prefix[r] values[r, 0] seps[0] values[r, 1] seps[1]
    ..., of uint8 rows `prefix` (m, w) and float64 `values` (m, c): one
    table of NUL-padded cells, written with its NUL bytes deleted."""
    m, c = values.shape
    w = prefix.shape[1]
    table = np.empty((m, w + c * _CELL), dtype=np.uint8)
    table[:, :w] = prefix
    cells = table[:, w:].reshape(m, c, _CELL)
    cells[...] = _g17(values.ravel()).reshape(m, c, _CELL)
    cells[:, :, -1] = np.frombuffer(seps, dtype=np.uint8)
    return table.tobytes().translate(None, b"\0")


# A number's text fills a cell of _CELL bytes: 0 sign, 1-5 the "0.000" of
# a fixed form under 1, 6 the first digit, 7 the point, 8-23 the other 16
# digits, 24-28 the exponent, 29-31 NUL (`_rows` puts the separator in
# 31).  A value `format` prints fills bytes 0-30 instead (it needs at most
# 24).  The cells are assembled from the look-up tables' bytes viewed as
# uint32, which no arithmetic touches, so byte order does not matter.
_CELL = 32
# vector range of |v|: 10^(16-k) and the splits of |v| and of it stay finite
# and normal for k within two of +-280
_KMAX = 280
_SPLIT = np.float64(2.0 ** 27 + 1.0)  # Veltkamp's splitter for float64
_E4, _E8, _E16, _E17 = (np.int64(10 ** p) for p in (4, 8, 16, 17))


@functools.cache
def _tables():
    """Look-up tables of the kernel, built at its first call: 10^(i-266) as
    hi + lo doubles, hi split in halves of 26 bits, for the i-th k = 282 - i;
    then, as rows of uint32, the cells' first 8 bytes (sign, lead, first
    digit, point), their exponents, and the 4-digit groups, with trailing
    zeros as NULs, then in full."""
    hi, lo = [], []
    for p in range(16 - _KMAX - 2, 17 + _KMAX + 2):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        h = num / den  # correctly rounded, as is lo
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi, dtype=np.float64)
    powers = (*_split(hi), hi, np.array(lo, dtype=np.float64))
    # by ((negative * 5 + lead) * 10 + first digit) * 2 + point
    leads = [b"", b"0.", b"0.0", b"0.00", b"0.000"]
    heads = np.array([b"-"[:neg].ljust(1, b"\0") + lead.ljust(5, b"\0")
                      + bytes([48 + d]) + b"."[:dot]
                      for neg in (0, 1) for lead in leads for d in range(10)
                      for dot in (0, 1)], dtype="S8")
    # by exponent + 330, and a blank one last
    exps = np.array([b"e%+03d" % e for e in range(-330, 331)] + [b""],
                    dtype="S8")
    g = np.arange(10000, dtype=np.int64)[:, None] // np.array(
        [1000, 100, 10, 1], dtype=np.int64) % np.int64(10)
    full = (g + np.int64(48)).astype(np.uint8)
    trailing = np.logical_and.accumulate(g[:, ::-1] == 0, axis=1)[:, ::-1]
    quads = np.concatenate([np.where(trailing, np.uint8(0), full), full])
    return powers, *(t.view(np.uint32).reshape(len(t), -1)
                     for t in (heads, exps, quads))


def _split(a):
    """Veltkamp's split a = high + low, each of 26 significant bits."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _scaled(x, k):
    """x 10^(16-k) as h + r: h = fl(x hi), and r = (x hi - h) + fl(x lo),
    where Dekker's TwoProduct forms x hi - h exactly."""
    bh, bl, hi, lo = (t.take(_KMAX + 2 - k.astype(np.intp))
                      for t in _tables()[0])
    h = x * hi
    ah, al = _split(x)
    e = ((ah * bh - h) + ah * bl + al * bh) + al * bl
    return h, e + x * lo


def _digits(v):
    """(n, k, undecided) of float64 values: |v| is n 10^(k-16) rounded half
    to even, with 10^16 <= n < 10^17 (n = k = 0 for a zero); `undecided`
    marks the values whose n and k are not decided, which `format` prints.

    The log10 estimate of k is moved by one where x 10^(16-k) leaves
    [10^16, 10^17); in the rounding, x 10^(16-k) = h + r + err with h an
    integer (h >= 2^53), |err| <= x |10^p - hi - lo| + |fl(x lo) - x lo|
    + |fl(e + x lo) - (e + x lo)| <= 2^-106 10^17 + 2^-50 + 2^-48 < 2^-47,
    so r's fraction decides the rounding unless within 2^-44 of 1/2."""
    x = np.abs(v)
    vec = (x >= 1e-280) & (x <= 1e280)
    x = np.where(vec, x, np.float64(1.0))
    k = np.floor(np.log10(x))
    h, r = _scaled(x, k)
    step = (((h - 1e17) + r >= 0).astype(np.float64)
            - ((h - 1e16) + r < 0).astype(np.float64))
    moved = np.flatnonzero(step)
    if moved.size:
        k[moved] += step[moved]
        h[moved], r[moved] = _scaled(x[moved], k[moved])
    whole = np.floor(r)
    frac = r - whole
    n = h.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    zero = v == 0
    undecided = ((~vec & ~zero) | (np.abs(frac - 0.5) <= 2.0 ** -44)
                 | (n < _E16) | (n > _E17))
    top = n == _E17  # rounded up to the next power of ten
    n[top] = _E16
    k = k.astype(np.int64) + top
    n[zero] = k[zero] = 0
    return n, k, undecided


def _g17(values):
    """uint8 cells (n, _CELL) of float64 values (n,): a cell with its NUL
    bytes deleted is format(v, ".17g"); its last byte is NUL."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    n, k, undecided = _digits(v)
    _, heads, exps, quads = _tables()
    first = n // _E16
    rest = n - first * _E16
    high = rest // _E8
    low = rest - high * _E8
    g1, g3 = high // _E4, low // _E4
    g2, g4 = high - g1 * _E4, low - g3 * _E4
    # a group keeps its trailing zeros when a later group is not zero
    c1 = quads.take(g1 + 10000 * ((g2 | g3 | g4) != 0), axis=0)
    c2 = quads.take(g2 + 10000 * ((g3 | g4) != 0), axis=0)
    c3 = quads.take(g3 + 10000 * (g4 != 0), axis=0)
    c4 = quads.take(g4, axis=0)
    fixed = (k >= -4) & (k < 17)
    lead = np.where(fixed & (k < 0), -k, 0)
    head = ((np.signbit(v) * 5 + lead) * 10 + first) * 2 + (
        (rest != 0) & (lead == 0))
    cells = np.concatenate(
        [heads.take(head, axis=0), c1, c2, c3, c4,
         exps.take(np.where(fixed, len(exps) - 1, k + 330), axis=0)],
        axis=1).view(np.uint8)
    # from 10 up the point follows digit k: digits 1 to k, their zeros kept,
    # move over it to bytes 7 to 6 + k, and it to byte 7 + k
    big = np.flatnonzero(fixed & (k > 0))
    if big.size:
        kb, rows = k[big], np.arange(big.size)
        body = cells[big, 6:24]  # first digit, point, the other digits
        point = (kb < 16) & (body[rows, np.minimum(kb + 2, 17)] != 0)
        full = quads[10000 + np.stack([g1, g2, g3, g4], axis=1)[big]]
        body[:, 1:17] = np.where(np.arange(1, 17) <= kb[:, None],
                                 full.reshape(big.size, 4).view(np.uint8),
                                 body[:, 1:17])
        body[rows, kb + 1] = np.where(point, np.uint8(46), np.uint8(0))
        cells[big, 6:24] = body
    left = np.flatnonzero(undecided)
    if left.size:
        text = np.array([format(x, ".17g").encode() for x in v[left].tolist()],
                        dtype=f"S{_CELL - 1}")
        cells[left, :-1] = text.view(np.uint8).reshape(left.size, -1)
    return cells


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
    masked nodes are dropped.  The valid nodes' vertices are followed by
    `_obj_template` of the mask, the faces."""
    valid = np.asarray(surface.mask, dtype=bool)
    coords = surface.coords[valid]
    prefix = np.broadcast_to(np.frombuffer(b"v ", dtype=np.uint8),
                             (len(coords), 2))
    Path(path).write_bytes(b"# schema=1\n" + _rows(prefix, coords, b"  \n")
                           + _obj_template(valid.tobytes(), valid.shape))


@functools.lru_cache(maxsize=1)
def _obj_template(mask, shape):
    """The faces of the OBJ of a mask, given as bytes."""
    valid = np.frombuffer(mask, dtype=bool).reshape(shape)
    # 1-based vertex number of every valid node, in row-major order
    index = np.cumsum(valid.ravel()).reshape(shape)
    quad = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, :-1] & valid[1:, 1:]
    a, b = index[:-1, :-1][quad], index[:-1, 1:][quad]
    c, d = index[1:, 1:][quad], index[1:, :-1][quad]
    faces = np.stack([a, b, c, a, c, d], axis=-1)
    return ("f %d %d %d\nf %d %d %d\n" * len(faces) % tuple(
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

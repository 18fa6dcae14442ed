"""Heisenberg group coordinates, grids, and Maurer-Cartan extraction.

Points live in global coordinates (x1, x2, x3) which double as exponential
coordinates of the left-invariant frame {e1, e2, e3}.  Complex grids use
z = x + i*y; arrays are stored row-major over y then x, so node (i, j)
sits at z = x0 + j*hx + 1j*(y0 + i*hy).  Grid derivatives of both orders
come from one 4th-order stencil applier; the node masks the stencils leave
and the interpolation weights of the frame march live here too.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, GridTooSmallError


@dataclass(frozen=True)
class DomainGrid:
    """Rectangular sample grid for the conformal coordinate z = x + i*y."""

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 5 or self.ny < 5:
            raise GridTooSmallError(
                f"need nx, ny >= 5 for the stencils, got {self.nx}x{self.ny}"
            )
        bounds = (self.x0, self.x1, self.y0, self.y1)
        if not np.all(np.isfinite(bounds)):
            raise ConfigError(f"grid bounds must be finite, got {bounds}")
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise GridTooSmallError("empty coordinate ranges")

    @property
    def hx(self):
        return (self.x1 - self.x0) / (self.nx - 1)

    @property
    def hy(self):
        return (self.y1 - self.y0) / (self.ny - 1)

    @cached_property
    def xs(self):
        return np.linspace(self.x0, self.x1, self.nx)

    @cached_property
    def ys(self):
        return np.linspace(self.y0, self.y1, self.ny)

    @cached_property
    def zz(self):
        """Complex coordinates, shape (ny, nx)."""
        return self.xs[None, :] + 1j * self.ys[:, None]

    @property
    def shape(self):
        return (self.ny, self.nx)

    @property
    def centre(self):
        """The centre node (ny // 2, nx // 2), where frames are based."""
        return (self.ny // 2, self.nx // 2)

    def node_z(self, i, j):
        return complex(self.xs[j], self.ys[i])

    @classmethod
    def from_string(cls, text):
        parts = text.split(",")
        try:
            if len(parts) != 6:
                raise ValueError(f"{len(parts)} fields")
            x0, x1, y0, y1 = (float(p) for p in parts[:4])
            nx, ny = int(parts[4]), int(parts[5])
        except ValueError as exc:
            raise ConfigError(f"grid spec must be x0,x1,y0,y1,nx,ny, "
                              f"got {text!r} ({exc})") from None
        return cls(x0, x1, y0, y1, nx, ny)

    def to_dict(self):
        return {
            "x0": self.x0, "x1": self.x1, "y0": self.y0, "y1": self.y1,
            "nx": self.nx, "ny": self.ny,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["x0"], d["x1"], d["y0"], d["y1"], d["nx"], d["ny"])


# 4th-order stencils by derivative order: the centred one on the interior,
# the one-sided rows of the two boundary nodes of the near edge, and the
# sign of those rows mirrored onto the far edge.
_STENCILS = {
    1: (lambda g: (g[:-4] - 8.0 * g[1:-3] + 8.0 * g[3:-1] - g[4:]) / 12.0,
        (np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0,
         np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0), -1),
    2: (lambda g: (-g[:-4] + 16.0 * g[1:-3] - 30.0 * g[2:-2]
                   + 16.0 * g[3:-1] - g[4:]) / 12.0,
        (np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / 12.0,
         np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / 12.0), 1),
}


def _deriv_axis(f, h, axis, order=1):
    """The order-th derivative along `axis` at spacing h, 4th-order."""
    centred, edges, far_sign = _STENCILS[order]
    g = np.moveaxis(np.asarray(f), axis, 0)
    m = len(edges[0])
    if g.shape[0] < m:
        raise GridTooSmallError(f"axis too short for the 4th-order "
                                f"derivative of order {order}")
    out = np.empty_like(g, dtype=np.result_type(g.dtype, float))
    out[2:-2] = centred(g)
    for k, row in enumerate(edges):
        out[k] = np.tensordot(row, g[:m], axes=(0, 0))
        far = np.tensordot(row, g[-m:][::-1], axes=(0, 0))
        out[-1 - k] = -far if far_sign < 0 else far
    out /= h if order == 1 else h * h
    return np.moveaxis(out, 0, axis)


def dz_field(f, grid):
    """d/dz = (d/dx - i d/dy)/2 by 4th-order differences."""
    return 0.5 * (_deriv_axis(f, grid.hx, 1) - 1j * _deriv_axis(f, grid.hy, 0))


def dzbar_field(f, grid):
    """d/dzbar = (d/dx + i d/dy)/2 by 4th-order differences."""
    return 0.5 * (_deriv_axis(f, grid.hx, 1) + 1j * _deriv_axis(f, grid.hy, 0))


def dz_pair(f, grid):
    """(d/dz f, d/dzbar f) from one pass along each axis, bit-equal to
    `dz_field` and `dzbar_field`."""
    fx, ify = _deriv_axis(f, grid.hx, 1), 1j * _deriv_axis(f, grid.hy, 0)
    return 0.5 * (fx - ify), 0.5 * (fx + ify)


def dzdzbar_field(f, grid):
    """d^2/(dz dzbar) = Laplacian/4, by direct second-derivative stencils."""
    return 0.25 * (_deriv_axis(f, grid.hx, 1, order=2)
                   + _deriv_axis(f, grid.hy, 0, order=2))


@dataclass
class PhiField:
    """Components of f^{-1} f_z in the left-invariant frame, shape (ny, nx, 3)."""

    phi: np.ndarray
    grid: DomainGrid

    @property
    def phi1(self):
        return self.phi[..., 0]

    @property
    def phi2(self):
        return self.phi[..., 1]

    @property
    def phi3(self):
        return self.phi[..., 2]


@dataclass
class SurfaceGrid:
    """Sampled immersion into the group.  `coords` is a read-only view of
    the array given, so the Maurer-Cartan form, formed once, stays its own."""

    coords: np.ndarray  # (ny, nx, 3) real
    grid: DomainGrid
    lam: complex = 1.0 + 0.0j
    mask: np.ndarray = None  # True = valid node; None means every node

    def __post_init__(self):
        if self.mask is None:
            self.mask = np.ones(self.grid.shape, dtype=bool)
        self.coords = np.asarray(self.coords).view()
        self.coords.flags.writeable = False

    @cached_property
    def maurer_cartan(self):
        """phi_k with  f^{-1} f_z = sum_k phi_k e_k, formed once:

        phi1 = dz x1, phi2 = dz x2,
        phi3 = dz x3 + (x2 dz x1 - x1 dz x2)/2.
        """
        x = self.coords
        d1, d2, d3 = (dz_field(x[..., k], self.grid) for k in range(3))
        phi = np.stack([d1, d2, d3 + 0.5 * (x[..., 1] * d1 - x[..., 0] * d2)],
                       axis=-1)
        phi.flags.writeable = False
        return PhiField(phi, self.grid)


def left_maurer_cartan(surface):
    """The Maurer-Cartan form of `surface` (`SurfaceGrid.maurer_cartan`)."""
    return surface.maurer_cartan


def conformality_residual(phi):
    """Per-node (|phi1^2+phi2^2+phi3^2|, e^u) with e^u = 2 sum |phi_k|^2."""
    p = phi.phi if isinstance(phi, PhiField) else np.asarray(phi)
    quad = p[..., 0] ** 2 + p[..., 1] ** 2 + p[..., 2] ** 2
    e_u = 2.0 * (np.abs(p[..., 0]) ** 2 + np.abs(p[..., 1]) ** 2
                 + np.abs(p[..., 2]) ** 2)
    return np.abs(quad), e_u


def xi_nil_with_residual(v):
    """Coordinates of v in the basis {E1, E2, E3} of su(1,1), as a point,
    and the per-entry residual of v off their real span.

    v = x1 E1 + x2 E2 + x3 E3 has entries v11 = -i x3/2,
    v12 = (i x1 - x2)/2, v21 = (-i x1 - x2)/2.  Exponential coordinates
    coincide with model coordinates, so the triple is the group point
    exp(x1 e1 + x2 e2 + x3 e3).
    """
    v = np.asarray(v, dtype=complex)
    x1 = -1j * (v[..., 0, 1] - v[..., 1, 0])
    x2 = -(v[..., 0, 1] + v[..., 1, 0])
    x3 = 2j * v[..., 0, 0]
    coords = np.stack([x1.real, x2.real, x3.real], axis=-1)
    back = np.zeros_like(v)
    back[..., 0, 0] = -0.5j * coords[..., 2]
    back[..., 1, 1] = 0.5j * coords[..., 2]
    back[..., 0, 1] = 0.5 * (1j * coords[..., 0] - coords[..., 1])
    back[..., 1, 0] = 0.5 * (-1j * coords[..., 0] - coords[..., 1])
    residual = np.max(np.abs(v - back), axis=(-2, -1))
    return coords, residual


def _lagrange_weights(offsets, t):
    w = np.ones(len(offsets))
    for a in range(len(offsets)):
        for b in range(len(offsets)):
            if a != b:
                w[a] *= (t - offsets[b]) / (offsets[a] - offsets[b])
    return w


def stencil_valid(valid):
    """Nodes whose every stencil reads valid nodes alone: `valid` shrunk by
    2 nodes in each grid direction, and a node of an edge band (the nodes
    `_STENCILS` gives one-sided rows) kept only where the widest one-sided
    window along that axis is valid."""
    out = valid.copy()
    for _ in range(2):
        shrunk = out.copy()
        shrunk[1:, :] &= out[:-1, :]
        shrunk[:-1, :] &= out[1:, :]
        shrunk[:, 1:] &= out[:, :-1]
        shrunk[:, :-1] &= out[:, 1:]
        out = shrunk
    band = max(len(edges) for _, edges, _ in _STENCILS.values())
    width = max(len(edges[0]) for _, edges, _ in _STENCILS.values())
    for axis in (0, 1):
        o, v = np.moveaxis(out, axis, 0), np.moveaxis(valid, axis, 0)
        o[:band] &= v[:width].all(axis=0)
        o[-band:] &= v[-width:].all(axis=0)
    return out


def centred_interior(valid, width):
    """The nodes of `valid` at least `width` from every edge.

    Every stencil there is centred; the one-sided boundary bands carry
    larger error constants, so stencil-based identities are asserted on
    this set and algebraic ones on all of `valid`.
    """
    out = np.zeros(valid.shape, dtype=bool)
    out[width:-width, width:-width] = valid[width:-width, width:-width]
    return out


def interior_max(field, valid=None):
    """Max of `field` over the centred interior of width 2 of `valid`
    (default: all)."""
    f = np.asarray(field)
    if valid is None:
        valid = np.ones(f.shape[:2], dtype=bool)
    return float(np.max(f[centred_interior(valid, 2)], initial=0.0))

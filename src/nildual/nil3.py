"""Heisenberg group coordinates, grids, and Maurer-Cartan extraction.

Points live in global coordinates (x1, x2, x3) which double as exponential
coordinates of the left-invariant frame {e1, e2, e3}.  Complex grids use
z = x + i*y; arrays are stored row-major over y then x, so node (i, j)
sits at z = x0 + j*hx + 1j*(y0 + i*hy).
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


# 4th-order first-derivative stencils: centred in the interior, one-sided
# on the two boundary rows of each edge.
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0

# 4th-order second-derivative stencils (6-point one-sided at the edges).
_EDGE0_2 = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / 12.0
_EDGE1_2 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / 12.0


def _deriv_axis(f, h, axis):
    f = np.asarray(f)
    g = np.moveaxis(f, axis, 0)
    n = g.shape[0]
    if n < 5:
        raise GridTooSmallError("axis too short for 4th-order stencil")
    out = np.empty_like(g, dtype=np.result_type(g.dtype, float))
    out[2:-2] = (g[:-4] - 8.0 * g[1:-3] + 8.0 * g[3:-1] - g[4:]) / 12.0
    head = g[:5]
    tail = g[-5:]
    out[0] = np.tensordot(_EDGE0, head, axes=(0, 0))
    out[1] = np.tensordot(_EDGE1, head, axes=(0, 0))
    out[-2] = -np.tensordot(_EDGE1, tail[::-1], axes=(0, 0))
    out[-1] = -np.tensordot(_EDGE0, tail[::-1], axes=(0, 0))
    out /= h
    return np.moveaxis(out, 0, axis)


def _deriv2_axis(f, h, axis):
    f = np.asarray(f)
    g = np.moveaxis(f, axis, 0)
    n = g.shape[0]
    if n < 6:
        raise GridTooSmallError("axis too short for 4th-order second derivative")
    out = np.empty_like(g, dtype=np.result_type(g.dtype, float))
    out[2:-2] = (-g[:-4] + 16.0 * g[1:-3] - 30.0 * g[2:-2]
                 + 16.0 * g[3:-1] - g[4:]) / 12.0
    head = g[:6]
    tail = g[-6:]
    out[0] = np.tensordot(_EDGE0_2, head, axes=(0, 0))
    out[1] = np.tensordot(_EDGE1_2, head, axes=(0, 0))
    out[-2] = np.tensordot(_EDGE1_2, tail[::-1], axes=(0, 0))
    out[-1] = np.tensordot(_EDGE0_2, tail[::-1], axes=(0, 0))
    out /= h * h
    return np.moveaxis(out, 0, axis)


def dz_field(f, grid):
    """d/dz = (d/dx - i d/dy)/2 by 4th-order differences."""
    return 0.5 * (_deriv_axis(f, grid.hx, 1) - 1j * _deriv_axis(f, grid.hy, 0))


def dzbar_field(f, grid):
    """d/dzbar = (d/dx + i d/dy)/2 by 4th-order differences."""
    return 0.5 * (_deriv_axis(f, grid.hx, 1) + 1j * _deriv_axis(f, grid.hy, 0))


def dzdzbar_field(f, grid):
    """d^2/(dz dzbar) = Laplacian/4, by direct second-derivative stencils."""
    return 0.25 * (_deriv2_axis(f, grid.hx, 1) + _deriv2_axis(f, grid.hy, 0))


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
    """Sampled immersion into the group."""

    coords: np.ndarray  # (ny, nx, 3) real
    grid: DomainGrid
    lam: complex = 1.0 + 0.0j
    mask: np.ndarray = None  # True = valid node; None means every node

    def __post_init__(self):
        if self.mask is None:
            self.mask = np.ones(self.grid.shape, dtype=bool)


def left_maurer_cartan(surface):
    """Extract phi_k with  f^{-1} f_z = sum_k phi_k e_k.

    phi1 = dz x1, phi2 = dz x2,
    phi3 = dz x3 + (x2 dz x1 - x1 dz x2)/2.
    """
    x = surface.coords
    grid = surface.grid
    d1 = dz_field(x[..., 0], grid)
    d2 = dz_field(x[..., 1], grid)
    d3 = dz_field(x[..., 2], grid)
    phi3 = d3 + 0.5 * (x[..., 1] * d1 - x[..., 0] * d2)
    return PhiField(np.stack([d1, d2, phi3], axis=-1), grid)


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


# Grid marches: one RK4 line marcher, the stages of node-sampled fields
# (cubic Lagrange between nodes), and one routine that fills a grid from a
# base node by half-lines: the frame's march.

def _lagrange_weights(offsets, t):
    w = np.ones(len(offsets))
    for a in range(len(offsets)):
        for b in range(len(offsets)):
            if a != b:
                w[a] *= (t - offsets[b]) / (offsets[a] - offsets[b])
    return w


def rk4_march(y0, steps, stages, rhs):
    """Classical 4th-order Runge-Kutta along a batch of grid lines, one
    step per node interval.

    y0 holds one start state per line, the lines on its last axis.
    steps[k] is the step size between nodes k and k+1, a scalar or one per
    line broadcasting against the state; stages(k) returns the coefficient
    data at the start, middle and end of step k for every line, and
    rhs(y, a) the derivative.  Yields the state at nodes 1, 2, ... in turn;
    the caller stores what it keeps.
    """
    y = y0
    for k, h in enumerate(steps):
        a0, am, a1 = stages(k)
        k1 = rhs(y, a0)
        k2 = rhs(y + 0.5 * h * k1, am)
        k3 = rhs(y + 0.5 * h * k2, am)
        k4 = rhs(y + h * k3, a1)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield y


def node_stages(f):
    """rk4_march stages for node fields f of shape (..., nodes, lines).

    The stage points on nodes k and k+1 take the node values; the midpoint
    takes the cubic Lagrange value through 4 nodes, the window shifted at
    the ends of the line.  The window is summed in a fixed order, node by
    node, so a line's bits do not depend on the other lines of the batch.
    """
    def stages(k):
        lo = min(max(k - 1, 0), f.shape[-2] - 4)
        w = _lagrange_weights(np.arange(lo - k, lo - k + 4), 0.5)
        mid = w[0] * f[..., lo, :]
        for a in range(1, 4):
            mid = mid + w[a] * f[..., lo + a, :]
        return f[..., k, :], mid, f[..., k + 1, :]
    return stages


def march_grid(g, base, column_first, march):
    """Fill the grid buffer g (..., ny, nx) from its base node by half-lines.

    The base node (i, j), whose value is set, has its column (row, when
    `column_first` is false) marched outward as two half-lines; then every
    row (column) is marched both ways from that line.  Two halves of equal
    length go as one batch.  march(y0, axis, lines, c, d, steps) yields the
    states at nodes 1..steps of a batch of half-lines, lines last: y0 holds
    their start states, axis is the grid axis they run along (0: a column,
    1: a row), lines the index of each one's column (row), c the index of
    their start node along it and d one direction, +1 or -1, per half-line.
    """
    first, second = (0, 1) if column_first else (1, 0)
    for axis, lines in ((first, np.array([base[1 - first]])),
                        (second, np.arange(g.shape[-1 - second]))):
        n, c = g.shape[axis - 2], base[axis]
        for ds in ([1, -1],) if 2 * c == n - 1 else ([1], [-1]):
            d = np.repeat(ds, len(lines))
            ls = np.tile(lines, len(ds))
            at = lambda pos: (..., pos, ls) if axis == 0 else (..., ls, pos)
            steps = n - 1 - c if ds[0] == 1 else c
            # the gather lays the lines out first in memory: copy them last
            y0 = np.ascontiguousarray(g[at(c)])
            for k, y in enumerate(march(y0, axis, ls, c, d, steps), 1):
                g[at(c + k * d)] = y


def stencil_valid(valid):
    """Nodes whose full 2-wide stencil neighbourhood is valid: `valid`
    shrunk by 2 nodes in each grid direction."""
    out = valid.copy()
    for _ in range(2):
        shrunk = out.copy()
        shrunk[1:, :] &= out[:-1, :]
        shrunk[:-1, :] &= out[1:, :]
        shrunk[:, 1:] &= out[:, :-1]
        shrunk[:, :-1] &= out[:, 1:]
        out = shrunk
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

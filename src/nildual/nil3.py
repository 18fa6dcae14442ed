"""Heisenberg group arithmetic, grids, and Maurer-Cartan extraction.

Points live in global coordinates (x1, x2, x3) which double as exponential
coordinates of the left-invariant frame {e1, e2, e3}.  Complex grids use
z = x + i*y; arrays are stored row-major over y then x, so node (i, j)
sits at z = x0 + j*hx + 1j*(y0 + i*hy).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, GridTooSmallError

# Coordinate extraction from su(1,1):  v = x1*E1 + x2*E2 + x3*E3  has
# entries v11 = -i*x3/2, v12 = (i*x1 - x2)/2, v21 = (-i*x1 - x2)/2.
_XI_TOL = 1e-8


def nil3_mul(a, b):
    """Group product; broadcasts over leading axes of (..., 3) arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=float)
    out[..., 0] = a[..., 0] + b[..., 0]
    out[..., 1] = a[..., 1] + b[..., 1]
    out[..., 2] = a[..., 2] + b[..., 2] + 0.5 * (
        a[..., 0] * b[..., 1] - b[..., 0] * a[..., 1]
    )
    return out


def nil3_inv(p):
    """Group inverse (-x1, -x2, -x3)."""
    return -np.asarray(p, dtype=float)


def metric_eval(p, v, u):
    """Left-invariant metric on coordinate vectors at the point p.

    ds^2 = dx1^2 + dx2^2 + (dx3 + (x2 dx1 - x1 dx2)/2)^2.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    cv = v[..., 2] + 0.5 * (p[..., 1] * v[..., 0] - p[..., 0] * v[..., 1])
    cu = u[..., 2] + 0.5 * (p[..., 1] * u[..., 0] - p[..., 0] * u[..., 1])
    return v[..., 0] * u[..., 0] + v[..., 1] * u[..., 1] + cv * cu


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

    def node_z(self, i, j):
        return complex(self.xs[j], self.ys[i])

    def refined(self, factor=2):
        """Same ranges with spacing divided by `factor`."""
        return DomainGrid(
            self.x0, self.x1, self.y0, self.y1,
            (self.nx - 1) * factor + 1, (self.ny - 1) * factor + 1,
        )

    def serpentine(self):
        """Deterministic sweep visiting all nodes with adjacent steps."""
        for i in range(self.ny):
            cols = range(self.nx) if i % 2 == 0 else range(self.nx - 1, -1, -1)
            for j in cols:
                yield i, j

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
    base_index: tuple = (0, 0)
    mask: np.ndarray = None  # True = valid node; None means every node

    def __post_init__(self):
        if self.mask is None:
            self.mask = np.ones(self.grid.shape, dtype=bool)

    def base_point(self):
        i, j = self.base_index
        return self.coords[i, j].copy()

    def translated_to_origin(self):
        """Left-translate so the base node lands at the identity."""
        shift = nil3_inv(self.base_point())
        coords = nil3_mul(shift[None, None, :], self.coords)
        return SurfaceGrid(coords, self.grid, self.lam, self.base_index,
                           self.mask)


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


def xi_nil(v, tol=_XI_TOL):
    """Coordinates of v in the basis {E1, E2, E3} of su(1,1), as a point.

    Exponential coordinates coincide with model coordinates, so the
    returned triple is the group point exp(x1 e1 + x2 e2 + x3 e3).
    Raises if v leaves the real span beyond `tol` (None disables).
    """
    coords, residual = xi_nil_with_residual(v)
    if tol is not None and np.max(residual) > tol:
        raise ValueError(
            f"matrix not in the real span of the su(1,1) basis: "
            f"residual {np.max(residual):.3e} > {tol:.1e}"
        )
    return coords


def xi_nil_with_residual(v):
    """Like xi_nil but returns (coords, per-entry residual) without raising."""
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


# Cubic Lagrange interpolation along a grid axis, used by the one-step
# integrators to evaluate node-sampled coefficient fields at stage points.

def _lagrange_weights(offsets, t):
    w = np.ones(len(offsets))
    for a in range(len(offsets)):
        for b in range(len(offsets)):
            if a != b:
                w[a] *= (t - offsets[b]) / (offsets[a] - offsets[b])
    return w


def sample_between(f, j, t):
    """Values of the node fields f between nodes j and j+1 at fraction t.

    f has shape (lines, nodes, ...); the result has shape (lines, ...).
    Cubic Lagrange through 4 nodes; window shifts at the boundary.  Each
    line gets a weights-times-nodes product of its own, so a batch gives
    the bits of one line at a time (one product over all lines can take
    another summation path in BLAS).
    """
    n = f.shape[1]
    lo = min(max(j - 1, 0), n - 4)
    offsets = np.arange(lo - j, lo - j + 4)
    w = _lagrange_weights(offsets, t)
    g = f[:, lo:lo + 4].reshape(f.shape[0], 4, -1)
    return np.matmul(w, g).reshape(f.shape[:1] + f.shape[2:])


def rk4_march(y0, steps, substeps, stages, rhs, out=None):
    """Classical 4th-order Runge-Kutta along a batch of grid lines.

    y0 holds one start state per line on its leading axis.  steps[k] is
    the substep size between nodes k and k+1; stages(k, s) returns the
    coefficient data at the start, middle and end of substep s for every
    line, and rhs(y, a) the derivative.  The state at node k+1 goes to
    out[:, k + 1] when `out` is given; the final state is returned.
    """
    y = y0
    for k, h in enumerate(steps):
        for s in range(substeps):
            a0, am, a1 = stages(k, s)
            k1 = rhs(y, a0)
            k2 = rhs(y + 0.5 * h * k1, am)
            k3 = rhs(y + 0.5 * h * k2, am)
            k4 = rhs(y + h * k3, a1)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if out is not None:
            out[:, k + 1] = y
    return y


def node_stages(f, substeps):
    """rk4_march stages for node fields f of shape (lines, nodes, ...).

    Stage points on a node take the node value; between nodes they are
    sampled by cubic Lagrange interpolation (`sample_between`).
    """
    def at(k, t):
        if t == 0:
            return f[:, k]
        if t == 1:
            return f[:, k + 1]
        return sample_between(f, k, t)

    def stages(k, s):
        return (at(k, s / substeps), at(k, (s + 0.5) / substeps),
                at(k, (s + 1) / substeps))
    return stages


def integrate_phi_to_surface(phi, base_point=(0.0, 0.0, 0.0), substeps=1):
    """Reconstruct the immersion from its Maurer-Cartan components.

    Integrates dx1 = 2 Re(phi1 dz), dx2 = 2 Re(phi2 dz),
    dx3 = 2 Re(phi3 dz) - (x2 dx1 - x1 dx2)/2 along the first column and
    then along all rows at once, with classical one-step 4th-order stages;
    node (0, 0) holds `base_point`.
    """
    grid = phi.grid
    p = phi.phi

    def rhs_x(y, a):
        # a = (phi1, phi2, phi3) at the stage point; d/dx = phi + conj(phi)
        d1 = 2.0 * a[..., 0].real
        d2 = 2.0 * a[..., 1].real
        d3 = 2.0 * a[..., 2].real - 0.5 * (y[..., 1] * d1 - y[..., 0] * d2)
        return np.stack([d1, d2, d3], axis=-1)

    def rhs_y(y, a):
        # d/dy = i(phi - conj(phi)) = -2 Im(phi)
        d1 = -2.0 * a[..., 0].imag
        d2 = -2.0 * a[..., 1].imag
        d3 = -2.0 * a[..., 2].imag - 0.5 * (y[..., 1] * d1 - y[..., 0] * d2)
        return np.stack([d1, d2, d3], axis=-1)

    coords = np.empty((grid.ny, grid.nx, 3))
    coords[0, 0] = base_point
    rk4_march(coords[None, 0, 0], np.diff(grid.ys) / substeps, substeps,
              node_stages(p.swapaxes(0, 1)[0:1], substeps), rhs_y,
              out=coords.swapaxes(0, 1)[0:1])
    rk4_march(coords[:, 0], np.diff(grid.xs) / substeps, substeps,
              node_stages(p, substeps), rhs_x, out=coords)
    return SurfaceGrid(coords, grid)


def dilate_mask(invalid, radius):
    """Grow an invalid-node mask by `radius` in each grid direction."""
    out = invalid.copy()
    for _ in range(radius):
        grown = out.copy()
        grown[1:, :] |= out[:-1, :]
        grown[:-1, :] |= out[1:, :]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        out = grown
    return out


def stencil_valid(valid):
    """Nodes whose full 2-wide stencil neighbourhood is valid."""
    return ~dilate_mask(~valid, 2)


def centred_interior(valid, width):
    """The nodes of `valid` at least `width` from every edge.

    Every stencil there is centred; the one-sided boundary bands carry
    larger error constants, so stencil-based identities are asserted on
    this set and algebraic ones on all of `valid`.
    """
    out = np.zeros(valid.shape, dtype=bool)
    out[width:-width, width:-width] = valid[width:-width, width:-width]
    return out


def interior_max(field, width=2, valid=None):
    """Max of `field` over the centred interior of `valid` (default: all)."""
    f = np.asarray(field)
    if valid is None:
        valid = np.ones(f.shape[:2], dtype=bool)
    return float(np.max(f[centred_interior(valid, width)], initial=0.0))

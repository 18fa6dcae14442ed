"""Closed-form reference data used as independent oracles in the tests.

The hyperbolic-paraboloid family admits explicit formulas for the surface,
its frame, spinors, and invariants; everything here was derived by hand
from those formulas and is frozen for comparison against the numerics.
`nil3_mul` and `nil3_inv` are the reference group law of Nil3, which the
tests use to move surfaces by left translations.  `loop_from_dense` builds
a loop from dense coefficients, whose forbidden entries must be exactly
zero, and `reference_loop_eval` sums a loop's dense coefficients by
Horner's rule, the reference `MatrixLoop.eval` reproduces bit for bit.

The path integrators at the end march one grid line at a time, one node's
matrices per step.  The frame's is the reference the batched frame march
in nildual must reproduce bit for bit: same stage points, same products,
same summation order.  The potential's is the classical RK4 march that
nildual's Taylor series of Phi is held to at two step sizes, beside
`exact_minus_loop_phi`, Phi in exact rational arithmetic, and the binomial
shift of a potential that moves the series' centre.  `reference_horner`
and `reference_levinson` are the full-degree Horner sum and the
block-Levinson recursion over every block, whose bits the factorization's
shortened loops keep.  The branch continuation chooses one square root at a
time along the sweep, the reference of the vectorised one in nildual.
`reference_gauges` applies the pipeline's Dirac gauge and spinor gauge to
the factorization's F and B+ as products formed into new arrays, the bits
the in-place gauges must keep.  The file writers write one row at a time,
or the field CSV's rows all at once from one stacked table; the writers in
nildual must reproduce their bytes.
"""
from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from nildual.frames import _connection
from nildual.loops import MatrixLoop, class_rows, inv2, mm2
from nildual.nil3 import DomainGrid, _lagrange_weights
from nildual.potentials import SPINOR_GAUGE, _rcond, integrate_potential

SQRT_I = np.exp(1j * np.pi / 4)


def loop_from_dense(coeffs, low):
    """The loop of dense coefficients (..., P, 2, 2) of the powers low,
    low + 1, ...: asserts that every entry the twisted grading forbids is
    exactly zero, and gathers the allowed ones."""
    c = np.asarray(coeffs, dtype=complex)
    k = np.arange(c.shape[-3])[:, None]
    rows = class_rows(2, low + k[:, 0])
    assert not c[..., k, rows[1], [0, 1]].any(), "a forbidden entry is not 0"
    return MatrixLoop(c[..., k, rows[0], [0, 1]], low)


def reference_loop_eval(L, lam, derivative=0):
    """MatrixLoop.eval as a dense Horner sum: each power's coefficient
    (`coeff(j)`, forbidden entries +0) is a new array, scaled by j - d one
    factor at a time, and the sum a new array at every step."""
    lam = complex(lam)
    out = np.zeros(L.batch_shape + (2, 2), dtype=complex)
    for p in range(L.high, L.low - 1, -1):
        c = L.coeff(p)
        for d in range(derivative):
            c = c * (p - d)
        out = out * lam + c
    if L.low != derivative:
        out = out * lam ** (L.low - derivative)
    return out


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


def paraboloid_surface(grid, lam=1.0 + 0.0j):
    """Family member of the hyperbolic paraboloid, shape (ny, nx, 3).

    With p = -(i/4) z/lam and p* = (i/4) lam zbar = conj(p) on |lam| = 1:
    f = (-2i(p - p*), -sinh(2(p + p*)), i(p - p*) sinh(2(p + p*))).
    """
    zz = grid.zz
    w = zz / lam
    a = np.real(w)           # -2i(p - p*) = -Re(z/lam)
    b = np.imag(w)           # 2(p + p*)   =  Im(z/lam)
    x1 = -a
    x2 = -np.sinh(b)
    x3 = 0.5 * a * np.sinh(b)
    return np.stack([x1, x2, x3], axis=-1)


def paraboloid_frame(z, lam=1.0 + 0.0j):
    """Closed-form extended frame at the point z, entries (..., 2, 2)."""
    z = np.asarray(z, dtype=complex)
    p = -0.25j * z / lam
    ps = 0.25j * lam * np.conj(z)
    c = np.cosh(p + ps)
    s = np.sinh(p + ps)
    out = np.empty(z.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c / SQRT_I
    out[..., 0, 1] = s / SQRT_I
    out[..., 1, 0] = s * SQRT_I
    out[..., 1, 1] = c * SQRT_I
    return out


def paraboloid_spinors(grid):
    """Generating spinors at lam = 1: (cosh(y/2), sinh(y/2))/sqrt(2)."""
    y = grid.ys[:, None] + 0.0 * grid.xs[None, :]
    psi1 = np.cosh(y / 2.0) / np.sqrt(2.0) + 0.0j
    psi2 = np.sinh(y / 2.0) / np.sqrt(2.0) + 0.0j
    return psi1, psi2


def paraboloid_phi(grid):
    """Hand-differentiated Maurer-Cartan components at lam = 1."""
    y = grid.ys[:, None] + 0.0 * grid.xs[None, :]
    phi1 = np.full(grid.shape, -0.5 + 0.0j)
    phi2 = 0.5j * np.cosh(y)
    phi3 = 0.5 * np.sinh(y) + 0.0j
    return np.stack([phi1, phi2, phi3], axis=-1)


def paraboloid_dual_surface(grid, lam=1.0 + 0.0j):
    """Displayed dual family member: second and third coordinates flip sign."""
    f = paraboloid_surface(grid, lam)
    return np.stack([f[..., 0], -f[..., 1], -f[..., 2]], axis=-1)


# ---------------------------------------------------------------------------
# One-line-at-a-time reference integrators


def sample_between(f, axis, j, t):
    """Cubic Lagrange value of one line's node field between nodes j, j+1,
    its four terms summed in order."""
    g = np.moveaxis(np.asarray(f), axis, 0)
    n = g.shape[0]
    lo = min(max(j - 1, 0), n - 4)
    w = _lagrange_weights(np.arange(lo - j, lo - j + 4), t)
    acc = w[0] * g[lo]
    for a in range(1, 4):
        acc = acc + w[a] * g[lo + a]
    return acc


def _potential_at(xi, z):
    """Coefficient matrices of the potential at the point z, by power."""
    out = {}
    for j, c in xi.terms.items():
        acc = np.zeros((2, 2), dtype=complex)
        for k in range(c.shape[0] - 1, -1, -1):
            acc = acc * z + c[k]
        out[j] = acc
    return out


def _mul_into_window(phi, xi_at_z, N):
    P = phi.shape[0]
    out = np.zeros_like(phi)
    for s, X in xi_at_z.items():
        prod = phi @ X
        if s == 0:
            out += prod
        elif s > 0:
            out[s:] += prod[:P - s]
        else:
            out[:s] += prod[-s:]
    return out


def _march_potential(phi0, xi, z_start, dz, steps, substeps, N):
    # the step in numpy's arithmetic, as in the batched march, whose complex
    # steps are arrays (numpy divides a complex by 6.0 as a complex)
    dz = np.asarray(dz)[()]
    out = [phi0]
    phi = phi0
    h = 1.0 / substeps
    for k in range(steps):
        zk = z_start + k * dz
        for s in range(substeps):
            z0 = zk + dz * (s * h)
            zm = zk + dz * ((s + 0.5) * h)
            z1 = zk + dz * ((s + 1) * h)
            x0, xm, x1 = _potential_at(xi, z0), _potential_at(xi, zm), \
                _potential_at(xi, z1)
            k1 = _mul_into_window(phi, x0, N)
            k2 = _mul_into_window(phi + 0.5 * h * dz * k1, xm, N)
            k3 = _mul_into_window(phi + 0.5 * h * dz * k2, xm, N)
            k4 = _mul_into_window(phi + h * dz * k3, x1, N)
            phi = phi + (h * dz / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(phi)
    return out


def reference_integrate_potential(xi, grid, z0=0j, order=12, substeps=8,
                                  column_first=True):
    """Phi, Phi(z0) = I, by the classical RK4 march one half-line at a
    time: the hop from z0 to its nearest node, that node's column (row) up
    and down, then each row (column) right and left from it."""
    N = order
    P = 2 * N + 1
    phi0 = np.zeros((P, 2, 2), dtype=complex)
    phi0[N] = np.eye(2)

    z0 = complex(z0)
    i0 = min(max(round((z0.imag - grid.y0) / grid.hy), 0), grid.ny - 1)
    j0 = min(max(round((z0.real - grid.x0) / grid.hx), 0), grid.nx - 1)
    base = grid.node_z(i0, j0)
    if base != z0:
        steps = max(1, math.ceil(abs(base - z0) / min(grid.hx, grid.hy)))
        phi0 = _march_potential(phi0, xi, z0, (base - z0) / steps,
                                steps, substeps, N)[-1]

    def both_ways(phi, z, dz, c, n):
        """The n node values of a line from its node c, at z."""
        line = {}
        for d, steps in ((1, n - 1 - c), (-1, c)):
            for k, v in enumerate(_march_potential(phi, xi, z, d * dz, steps,
                                                   substeps, N)):
                line[c + d * k] = v
        return np.stack([line[i] for i in range(n)])

    out = np.empty(grid.shape + (P, 2, 2), dtype=complex)
    if column_first:
        col = both_ways(phi0, base, 1j * grid.hy, i0, grid.ny)
        for i in range(grid.ny):
            out[i] = both_ways(col[i], grid.node_z(i, j0), grid.hx, j0,
                               grid.nx)
    else:
        row = both_ways(phi0, base, grid.hx, j0, grid.nx)
        for j in range(grid.nx):
            out[:, j] = both_ways(row[j], grid.node_z(i0, j), 1j * grid.hy,
                                  i0, grid.ny)

    return loop_from_dense(out, -N)


def shifted_potential(xi, z1):
    """The potential w -> xi(w + z1): each term's coefficients re-expanded
    about z1 by the binomial theorem, sum_k c_k (w + z1)^k =
    sum_m (sum_{k >= m} C(k, m) z1^(k - m) c_k) w^m."""
    terms = {}
    for j, c in xi.terms.items():
        out = np.zeros_like(c)
        for k in range(len(c)):
            for m in range(k + 1):
                out[m] += math.comb(k, m) * z1 ** (k - m) * c[k]
        terms[j] = out
    return type(xi)(terms)


def shifted_grid(grid, z1):
    """The grid's nodes moved by -z1."""
    return DomainGrid(grid.x0 - z1.real, grid.x1 - z1.real,
                      grid.y0 - z1.imag, grid.y1 - z1.imag, grid.nx, grid.ny)


def recentred_phi(xi, grid, z1, order=12):
    """Phi on the grid's nodes expanded about z1 instead of 0, as a
    function of lam: Phi(z1) Phi~(z - z1), where Phi~ is the series of
    xi(. + z1) and Phi(z1) is read off a 5x5 grid whose first node is z1."""
    near = DomainGrid(z1.real, z1.real + 0.04, z1.imag, z1.imag + 0.04, 5, 5)
    at_z1 = integrate_potential(xi, near, order=order).at_node((0, 0))
    tilde = integrate_potential(shifted_potential(xi, z1),
                                shifted_grid(grid, z1), order=order)
    return lambda lam: at_z1.eval(lam) @ tilde.eval(lam)


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def exact_minus_loop_phi(xi, grid, order):
    """Phi of a potential xi = X(z) lam^-1 on the grid's nodes, on the
    powers -order..0, in exact rational arithmetic.

    Phi_0 = I and Phi_{-k}(z) = int_0^z Phi_{-k+1}(w) X(w) dw.  Every entry
    is a polynomial in z whose coefficients are complex rationals, pairs
    of Fractions made exactly from xi's floats; each is integrated term by
    term and evaluated exactly at the nodes' float coordinates, then
    rounded once.  Returns (ny, nx, order + 1, 2, 2).
    """
    assert sorted(xi.terms) == [-1]
    zero = (Fraction(0), Fraction(0))
    X = [[[(Fraction(v.real), Fraction(v.imag)) for v in xi.terms[-1][:, r, s]]
          for s in range(2)] for r in range(2)]
    # powers[k][r][s]: the coefficients of Phi_{-k}[r, s], lowest first
    one = [(Fraction(1), Fraction(0))]
    powers = [[[one, []], [[], one]]]
    for _ in range(order):
        prev, nxt = powers[-1], [[[], []], [[], []]]
        for r in range(2):
            for s in range(2):
                prod = []
                for u in range(2):
                    for a, pa in enumerate(prev[r][u]):
                        for b, xb in enumerate(X[u][s]):
                            while len(prod) <= a + b:
                                prod.append(zero)
                            ab = _cmul(pa, xb)
                            prod[a + b] = (prod[a + b][0] + ab[0],
                                           prod[a + b][1] + ab[1])
                nxt[r][s] = [zero] + [(p[0] / (d + 1), p[1] / (d + 1))
                                      for d, p in enumerate(prod)]
        powers.append(nxt)
    # each polynomial over one common denominator L, then evaluated at
    # z = (X + iY) / Q in integers: sum_d a_d (X + iY)^d Q^(D - d) / (L Q^D)
    out = np.zeros(grid.shape + (order + 1, 2, 2), dtype=complex)
    for k, entries in enumerate(powers):
        for r in range(2):
            for s in range(2):
                poly = entries[r][s]
                if not poly:
                    continue
                L = math.lcm(*(part.denominator for a in poly for part in a))
                ints = [(int(a[0] * L), int(a[1] * L)) for a in poly]
                for (i, j), z in np.ndenumerate(grid.zz):
                    x, y = Fraction(z.real), Fraction(z.imag)
                    Q = math.lcm(x.denominator, y.denominator)
                    Z, scale = (int(x * Q), int(y * Q)), 1
                    acc = ints[-1]
                    for a in reversed(ints[:-1]):
                        scale *= Q
                        acc = _cmul(acc, Z)
                        acc = (acc[0] + a[0] * scale, acc[1] + a[1] * scale)
                    den = L * scale
                    out[i, j, order - k, r, s] = complex(
                        float(Fraction(acc[0], den)),
                        float(Fraction(acc[1], den)))
    return out


def _mat2(a, b):
    """2x2 matrix product, entry (r, c) summed as a[r, 0] b[0, c] + a[r, 1]
    b[1, c], the order of the batched march's entry-plane product."""
    return a[:, 0, None] * b[None, 0] + a[:, 1, None] * b[None, 1]


def reference_integrate_frame(d, lam, base_value=None, column_first=True):
    """integrate_frame marching one half-line at a time: the centre node's
    column (row) up and down, then each row (column) right and left from it.
    Each half-line interpolates alpha along its whole line, read in marching
    order.

    Returns (F, F_lam, F_lam2).
    """
    lam = complex(lam)
    grid = d.grid
    (U, V), (U1, V1), (U2, V2) = ([L.eval(lam, k) for L in _connection(d)]
                                  for k in range(3))
    # alpha and its lam-derivatives at the nodes, (ny, nx, 3, 2, 2)
    alpha_y = np.stack([1j * (U - V), 1j * (U1 - V1), 1j * (U2 - V2)], axis=2)
    alpha_x = np.stack([U + V, U1 + V1, U2 + V2], axis=2)

    def rhs(Y, A):
        A0, A1, A2 = A
        F, F1, F2 = Y
        return np.stack([
            _mat2(F, A0),
            _mat2(F1, A0) + _mat2(F, A1),
            _mat2(F2, A0) + 2.0 * _mat2(F1, A1) + _mat2(F, A2),
        ])

    def march(Y, line, k0, h):
        """Node values after Y at node k0 of `line`, to the line's end."""
        ys = []
        for k in range(k0, len(line) - 1):
            a0, am, a1 = line[k], sample_between(line, 0, k, 0.5), line[k + 1]
            k1 = rhs(Y, a0)
            k2 = rhs(Y + 0.5 * h * k1, am)
            k3 = rhs(Y + 0.5 * h * k2, am)
            k4 = rhs(Y + h * k3, a1)
            Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ys.append(Y)
        return ys

    def both_ways(Y, line, c, spacing):
        """The node values of a line from its node c, where it is Y."""
        n = len(line)
        out = {c: Y}
        for d in (1, -1):
            k0 = c if d == 1 else n - 1 - c
            for k, v in enumerate(march(Y, line[::d], k0, d * spacing), 1):
                out[c + d * k] = v
        return np.stack([out[i] for i in range(n)])

    if base_value is None:
        base_value = np.eye(2, dtype=complex)
    Y0 = np.stack([np.asarray(base_value, dtype=complex),
                   np.zeros((2, 2), complex), np.zeros((2, 2), complex)])
    i0, j0 = grid.ny // 2, grid.nx // 2
    out = np.empty(grid.shape + (3, 2, 2), dtype=complex)
    if column_first:
        col = both_ways(Y0, alpha_y[:, j0], i0, grid.hy)
        for i in range(grid.ny):
            out[i] = both_ways(col[i], alpha_x[i], j0, grid.hx)
    else:
        row = both_ways(Y0, alpha_x[i0], j0, grid.hx)
        for j in range(grid.nx):
            out[:, j] = both_ways(row[j], alpha_y[:, j], i0, grid.hy)
    return out[..., 0, :, :], out[..., 1, :, :], out[..., 2, :, :]


def _rk4_linear(y0, coeff_fn, t_nodes, substeps, rhs):
    ys = [y0]
    y = y0
    for k in range(len(t_nodes) - 1):
        h = (t_nodes[k + 1] - t_nodes[k]) / substeps
        for s in range(substeps):
            t0 = s / substeps
            tm = (s + 0.5) / substeps
            t1 = (s + 1) / substeps
            a0 = coeff_fn(k, t0)
            am = coeff_fn(k, tm)
            a1 = coeff_fn(k, t1)
            k1 = rhs(y, a0)
            k2 = rhs(y + 0.5 * h * k1, am)
            k3 = rhs(y + 0.5 * h * k2, am)
            k4 = rhs(y + h * k3, a1)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys.append(y)
    return ys


def reference_integrate_phi_to_surface(phi, base_point=(0.0, 0.0, 0.0),
                                       substeps=1):
    """Reconstruct the immersion's coordinates from its Maurer-Cartan
    components, one row at a time: dx1 = 2 Re(phi1 dz), dx2 = 2 Re(phi2 dz),
    dx3 = 2 Re(phi3 dz) - (x2 dx1 - x1 dx2)/2 along the first column, then
    along each row; node (0, 0) holds `base_point`."""
    grid = phi.grid
    p = phi.phi

    def rhs_x(y, a):
        d1 = 2.0 * a[..., 0].real
        d2 = 2.0 * a[..., 1].real
        d3 = 2.0 * a[..., 2].real - 0.5 * (y[..., 1] * d1 - y[..., 0] * d2)
        return np.stack([d1, d2, d3], axis=-1)

    def rhs_y(y, a):
        d1 = -2.0 * a[..., 0].imag
        d2 = -2.0 * a[..., 1].imag
        d3 = -2.0 * a[..., 2].imag - 0.5 * (y[..., 1] * d1 - y[..., 0] * d2)
        return np.stack([d1, d2, d3], axis=-1)

    col = p[:, 0, :]
    col_fn = lambda k, t: col[k] if t == 0 else (
        col[k + 1] if t == 1 else sample_between(col, 0, k, t))
    y_nodes = _rk4_linear(np.asarray(base_point, dtype=float), col_fn,
                          grid.ys, substeps, rhs_y)

    coords = np.empty((grid.ny, grid.nx, 3))
    for i in range(grid.ny):
        row = p[i]
        row_fn = lambda k, t, row=row: row[k] if t == 0 else (
            row[k + 1] if t == 1 else sample_between(row, 0, k, t))
        xs = _rk4_linear(y_nodes[i], row_fn, grid.xs, substeps, rhs_x)
        coords[i] = np.stack(xs, axis=0)
    return coords


def reference_continued_sqrt(field, grid, valid):
    """continued_sqrt choosing each root node by node along the sweep."""
    root = np.sqrt(np.asarray(field, dtype=complex))
    for idx in np.ndindex(root.shape):
        v = root[idx]
        # the starting root: off the principal branch's cut, never flipped
        # by the sign of an imaginary part at round-off
        if abs(v.real) <= 2.0 ** -26 * abs(v) and v.imag < 0:
            root[idx] = -v
    prev = None
    for i in range(grid.ny):
        cols = range(grid.nx) if i % 2 == 0 else range(grid.nx - 1, -1, -1)
        for j in cols:
            if not valid[i, j]:
                continue
            v = root[i, j]
            if prev is not None and abs(v - prev) > abs(v + prev):
                v = -v
            root[i, j] = v
            prev = v
    cut_edges = []
    for i in range(1, grid.ny):
        for j in range(grid.nx):
            if valid[i, j] and valid[i - 1, j]:
                a, b = root[i, j], root[i - 1, j]
                if abs(a - b) > abs(a + b) and min(abs(a), abs(b)) > 0:
                    cut_edges.append((i, j))
    return root, cut_edges


# ---------------------------------------------------------------------------
# Loop-group references: the einsum Cauchy product and the dense Schur
# complements of the factorization system


def cauchy_loop(a, b):
    """Cauchy product of (..., P, 2, 2) coefficient stacks, one einsum per
    power of `a`; works on real magnitudes too, which gives |A| * |B|."""
    Pa, Pb = a.shape[-3], b.shape[-3]
    batch = np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
    out = np.zeros(batch + (Pa + Pb - 1, 2, 2),
                   dtype=np.result_type(a, b))
    for k in range(Pa):
        out[..., k:k + Pb, :, :] += np.einsum(
            "...ab,...jbc->...jac", a[..., k, :, :], b)
    return out


def factorization_classes(phi):
    """The dense factorization system of a twisted `phi`, one matrix per
    parity class, assembled block by block, at the size the splitter
    solves: M = Z's top power made even (N rounded up to even for a
    minus-loop of order N, 2N for a loop with positive powers).

    The system has entry ((m,r),(e,c)) = Y_{m-e}[r, c] for m, e = 1..M,
    where Y = Phi^dag sigma3 Phi = sigma3 Z.  It splits into two classes:
    class p keeps, for each m, the unknown r = (p + m) % 2, in order of m.
    """
    s3 = np.diag([1.0, -1.0]).astype(complex)[None]
    adj = phi.adjoint_on_circle()
    Y = loop_from_dense(cauchy_loop(adj.coeffs, cauchy_loop(s3, phi.coeffs)),
                        adj.low + phi.low)
    M = Y.high + Y.high % 2
    H = np.zeros(phi.batch_shape + (2 * M, 2 * M), dtype=complex)
    for m in range(1, M + 1):
        for e in range(1, M + 1):
            H[..., 2 * (m - 1):2 * m, 2 * (e - 1):2 * e] = Y.coeff(m - e)
    m = np.arange(1, M + 1)
    return [H[..., rows[:, None], rows]
            for rows in (2 * (m - 1) + (p + m) % 2 for p in (0, 1))]


def factorization_solution(phi):
    """The whole factorization system of `phi` solved at once, unsplit into
    parity classes: sum_m W_{-m} Z_{m-e} = -Z_{-e} for e = 1..2N, with
    Z = sigma3 Phi^dag sigma3 Phi, by np.linalg.solve on its 4N x 4N
    transpose.  Always at 2N, whatever size the splitter solves: the
    independent full-system reference.  Returns the coefficient stacks of
    W (powers -2N..0, W_0 = I) and of Z, with Z's lowest power."""
    N = phi.order
    M = 2 * N
    adj = phi.adjoint_on_circle()
    Z = loop_from_dense(cauchy_loop(adj.coeffs * [[1.0, -1.0], [-1.0, 1.0]],
                                    phi.coeffs), adj.low + phi.low)
    # unknown (m, r) of row a of W is W_{-m}[a, r]; equation (e, c)
    A = np.zeros(phi.batch_shape + (2 * M, 2 * M), dtype=complex)
    rhs = np.zeros(phi.batch_shape + (2 * M, 2), dtype=complex)
    for e in range(1, M + 1):
        for m in range(1, M + 1):
            A[..., 2 * (e - 1):2 * e, 2 * (m - 1):2 * m] = np.swapaxes(
                Z.coeff(m - e), -1, -2)
        rhs[..., 2 * (e - 1):2 * e, :] = -np.swapaxes(Z.coeff(-e), -1, -2)
    u = np.linalg.solve(A, rhs).reshape(phi.batch_shape + (M, 2, 2))
    W = np.empty(phi.batch_shape + (M + 1, 2, 2), dtype=complex)
    W[..., :M, :, :] = np.swapaxes(u, -1, -2)[..., ::-1, :, :]
    W[..., M, :, :] = np.eye(2)
    return W, Z.coeffs, Z.low


def schur_pivot(phi):
    """Smallest reciprocal 2-norm condition of the Schur complements
    S_k = T_{k+1} / T_k of the leading sections of each class system T of
    `factorization_classes`, the ones the splitter forms, its unknowns
    paired into 2x2 blocks in order: S_k by np.linalg.solve on the leading
    k blocks, its condition from a 2x2 SVD."""
    pivot = np.full(phi.batch_shape, np.inf)
    for T in factorization_classes(phi):
        for k in range(T.shape[-1] // 2):
            S = T[..., 2 * k:2 * k + 2, 2 * k:2 * k + 2]
            if k:
                S = S - T[..., 2 * k:2 * k + 2, :2 * k] @ np.linalg.solve(
                    T[..., :2 * k, :2 * k], T[..., :2 * k, 2 * k:2 * k + 2])
            sing = np.linalg.svd(S, compute_uv=False)
            pivot = np.minimum(pivot, sing[..., -1] / sing[..., 0])
    return pivot


def reference_levinson(t, y):
    """The block-Levinson recursion as `potentials._levinson` was before it
    skipped the predictors' block k + 1, still zero, at step k: each update
    runs over blocks 0..k + 1.  Its bits on finite input are the ones the
    skipping recursion keeps."""
    K, n = y.shape[2:]
    ax = np.zeros((2, 3, K, n), dtype=complex)
    a, x = ax[:, :2], ax[:, 2:]
    br = np.zeros((2, 2, K, n), dtype=complex)
    a[:, :, 0] = br[:, :, 0] = np.eye(2)[:, :, None]
    S = np.empty((2, 2, K, n), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        P = S[:, :, 0] = t[:, :, 0]
        Qinv = inv2(P)
        x[:, :, 0] = mm2(Qinv, y[:, :, 0])
        for k in range(K - 1):
            prod = mm2(t[:, :, k + 1:0:-1], ax[:, :, :k + 1])
            acc = prod[:, :, 0]
            for j in range(1, k + 1):
                acc = acc + prod[:, :, j]
            D, eps = acc[:, :2], acc[:, 2:]
            Dh = np.swapaxes(D, 0, 1).conj()
            G = mm2(Qinv, D)
            H = mm2(inv2(P), Dh)
            da = mm2(br[:, :, k + 1::-1], G[:, :, None])
            br[:, :, :k + 2] -= mm2(a[:, :, k + 1::-1], H[:, :, None])
            a[:, :, :k + 2] -= da
            P = P - mm2(Dh, G)
            Q = S[:, :, k + 1] = S[:, :, k] - mm2(D, H)
            Qinv = inv2(Q)
            x[:, :, :k + 2] += mm2(br[:, :, k + 1::-1],
                                   mm2(Qinv, y[:, :, k + 1] - eps)[:, :, None])
        pivot = np.min(_rcond(S), axis=0)
    return x, pivot


def reference_horner(c, zz):
    """sum_k c[k] z^k on a grid by Horner's rule over every degree of c,
    every entry from the top: the bits `potentials._horner` keeps."""
    acc = np.zeros(c.shape[1:] + zz.shape, dtype=complex)
    for k in range(c.shape[0] - 1, -1, -1):
        np.multiply(acc, zz, out=acc)
        acc += c[k][(...,) + (None,) * zz.ndim]
    return acc


def within_cauchy_bound(got, a, b, ulps=16, start=0):
    """True when every coefficient of the product `got` of the stacks a, b
    lies within ulps * eps * (|A| * |B|) of the einsum product: each
    coefficient rounded relative to its own terms.  `got` holds the
    product's coefficients from index `start` on."""
    keep = (Ellipsis, slice(start, start + got.shape[-3]), slice(None),
            slice(None))
    err = np.abs(got - cauchy_loop(a, b)[keep])
    scale = cauchy_loop(np.abs(a), np.abs(b))[keep]
    return bool(np.all(err <= ulps * np.finfo(float).eps * scale))


# ---------------------------------------------------------------------------
# Row-at-a-time file writers


def _fmt(x):
    return format(float(x), ".17g")


def reference_write_field_csv(path, field, grid, mask=None):
    """write_field_csv formatting one node per row with format()."""
    field = np.asarray(field)
    if mask is None:
        mask = np.ones(grid.shape, dtype=bool)
    lines = ["# schema=1", "i,j,x,y,re,im"]
    for i, j in np.argwhere(mask).tolist():
        v = complex(field[i, j])
        lines.append(f"{i},{j},{_fmt(grid.xs[j])},{_fmt(grid.ys[i])},"
                     f"{_fmt(v.real)},{_fmt(v.imag)}")
    Path(path).write_text("\n".join(lines) + "\n")


def stacked_write_field_csv(path, field, grid, mask=None):
    """write_field_csv formatting all six columns of every row with one
    "%" over the stacked node table."""
    field = np.asarray(field)
    if mask is None:
        mask = np.ones(grid.shape, dtype=bool)
    i, j = np.nonzero(mask)
    v = field[i, j]
    rows = np.stack([i, j, grid.xs[j], grid.ys[i], v.real, v.imag], axis=-1)
    body = "%d,%d,%.17g,%.17g,%.17g,%.17g\n" * len(i) % tuple(
        rows.ravel().tolist())
    Path(path).write_text("# schema=1\ni,j,x,y,re,im\n" + body)


def reference_write_obj(path, surface):
    """write_obj walking the grid node by node and quad by quad."""
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
                lines.append(f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}")
    for i in range(grid.ny - 1):
        for j in range(grid.nx - 1):
            if (valid[i, j] and valid[i, j + 1]
                    and valid[i + 1, j] and valid[i + 1, j + 1]):
                a, b = index[i, j], index[i, j + 1]
                c, d = index[i + 1, j + 1], index[i + 1, j]
                lines.append(f"f {a} {b} {c}")
                lines.append(f"f {a} {c} {d}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Out-of-place gauges


def reference_gauges(xi, grid, F, Bp):
    """The Dirac gauge of F and B+ and the spinor gauge of the gauged F, each
    product formed into a new array: (frame loop, gauged B+)."""
    b0 = np.moveaxis(Bp.coeff(0), (-2, -1), (0, 1))
    slot = mm2(mm2(b0, xi.eval_grid(grid.zz, -1)), inv2(b0))[0, 1]
    degenerate = np.abs(slot) < 1e-12 * np.max(np.abs(slot))
    theta = 0.5 * (np.angle(np.where(degenerate, 1.0, slot)) + 0.5 * np.pi)
    phase = np.exp(1j * theta)
    k = np.stack([phase, np.conj(phase)], axis=-1)
    F2 = MatrixLoop(F.entries * k[..., None, :], F.low)
    Bp2 = MatrixLoop(np.conj(k)[..., Bp.rows] * Bp.entries, Bp.low)
    floop = MatrixLoop(np.diag(SPINOR_GAUGE)[F2.rows] * F2.entries, F2.low)
    return floop, Bp2

"""Holomorphic-potential pipeline: integrate dPhi = Phi xi dz in the loop
algebra, split Phi = F B+ pointwise in the SU(1,1) loop group, and hand
the frame (with exact parameter derivatives) to the surface formulas.

Every potential, and every loop multiplied or inverted here, is twisted;
the grading and the exact check of a tag are stated in `loops`.  A
potential must be finite.  The integration starts at z0, where Phi = I, and
marches outward by half-lines, the lines batched on the state's last axis.
It marches only the entries of Phi that the grading allows (one per power
and column) and only the powers up to 0 when xi has no positive power; Phi
is returned on the powers marched, so the factorization of such a
minus-loop multiplies none of the exact zeros above them.

The truncation order of a run, `order`, is a cap.  Phi is marched at the
cap, then trimmed to the lowest order n whose tail, the largest entry of
Phi_{-n} (and of Phi_{+n} when xi has positive powers) relative to Phi_0's,
is at most TAIL_MAX, and so is every tail above n (`trim_to_tail`).  A cap
whose own tail is above TAIL_MAX is too low for the domain: ConfigError.
The factorization, the gauge, the frame loop and the splitting residuals
run at n; a minus-loop trimmed to n is bit-equal to its march at n.

The splitting method: on the circle  Z := sigma3 Phi^dag sigma3 Phi equals
(sigma3 B+^dag sigma3) B+, a minus-loop times a plus-loop.  A block-Toeplitz
linear system on the Fourier coefficients yields W = Z_-^{-1} normalized to
the identity at infinity; then Z+ = W Z is C B+ for a constant matrix C
fixed by requiring B+(0) upper-triangular with positive real diagonal.
Finally F = Phi B+^{-1}; both products sum only the powers they keep.
The system splits into two parity classes of half the size, solved
separately, and W, B+ and F come out exactly twisted.  Each class system
is Hermitian block-Toeplitz with 2x2 blocks, solved by a block-Levinson
recursion with no eigen step and no dense matrix.  Its guard, the pivot,
is the smallest reciprocal condition of the Schur complements of the
system's leading sections; nodes with a pivot below PIVOT_MIN are big-cell
failures and are masked.  The nodes are factorized BLOCK at a time, which
bounds the memory the systems take and changes no bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ConfigError
from .frames import FrameField
from .loops import (
    SIGMA3,
    SQRT_I,
    MatrixLoop,
    class_rows,
    det2,
    forbidden_mass,
    inv2,
    mm2,
    plus_loop_inverse,
)
from .nil3 import DomainGrid, march_grid, rk4_march, stencil_valid
from .sym import sym_sheets

# left gauge applied to pipeline frames: a fixed rotation about e3 that
# aligns the factorized frame with the spinor normal form
SPINOR_GAUGE = np.array([[1.0 / SQRT_I, 0.0], [0.0, SQRT_I]], dtype=complex)

DEFAULT_ORDER = 12   # the truncation cap, --order
PIVOT_MIN = 1e-12  # smallest reciprocal condition of a Schur complement
TAIL_MAX = 1e-13   # largest relative size of a power Phi is trimmed past
BLOCK = 1024   # nodes factorized at a time by iwasawa


@dataclass
class HoloPotential:
    """xi = sum_j xi_j(z) lam^j dz with polynomial entries, j >= -1.

    terms[j] is an array (deg+1, 2, 2): coefficient of z^k at index k.
    Every coefficient is finite, and the terms obey the twisted grading of
    `loops` exactly.
    """

    terms: dict

    def __post_init__(self):
        if not self.terms:
            raise ConfigError("potential has no terms")
        self.terms = {int(j): np.asarray(c, dtype=complex)
                      for j, c in self.terms.items()}
        if min(self.terms) != -1:
            raise ConfigError("lowest spectral power must be -1")
        for j, c in self.terms.items():
            if c.ndim != 3 or c.shape[1:] != (2, 2):
                raise ConfigError("term entries must be (deg+1, 2, 2)")
        if not all(np.isfinite(c).all() for c in self.terms.values()):
            raise ConfigError("potential has a non-finite coefficient")
        # each term's z^k coefficients as a batch of one power, j
        if any(forbidden_mass(c[:, None], j) for j, c in self.terms.items()):
            raise ConfigError("potential has forbidden-parity mass")

    @property
    def powers(self):
        return sorted(self.terms)

    def eval_grid(self, zz, power):
        """One coefficient matrix evaluated on a complex grid."""
        return _horner(self.terms[power], zz)

    def to_json(self):
        terms = []
        for j in self.powers:
            c = self.terms[j]
            entries = []
            for r in range(2):
                for s in range(2):
                    entries.append([[float(v.real), float(v.imag)]
                                    for v in c[:, r, s]])
            terms.append({"power": j, "entries": entries})
        return {"schema": 1, "terms": terms}

    @classmethod
    def from_json(cls, data):
        """The potential of a `to_json` dict.  Other keys are ignored, the
        `twisted` flag of older files too: terms with forbidden-parity mass
        are refused (ConfigError) whatever the flag says."""
        terms = {}
        for item in data["terms"]:
            j = int(item["power"])
            entries = item["entries"]
            deg = max(len(e) for e in entries)
            c = np.zeros((deg, 2, 2), dtype=complex)
            for idx, coeffs in enumerate(entries):
                for k, (re, im) in enumerate(coeffs):
                    c[k, idx // 2, idx % 2] = complex(re, im)
            terms[j] = c
        return cls(terms)


def _horner(c, zz):
    """sum_k c[k] z^k on a complex grid; c[k] may hold any entry layout."""
    acc = np.zeros(zz.shape + c.shape[1:], dtype=complex)
    for k in range(c.shape[0] - 1, -1, -1):
        acc = acc * zz[(...,) + (None,) * (c.ndim - 1)] + c[k]
    return acc


def _const_term(M):
    return np.asarray(M, dtype=complex)[None, :, :]


def paraboloid_potential():
    """Off-diagonal constant at the lowest power; the standard saddle seed."""
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return HoloPotential({-1: _const_term(-0.25j * X)})


def helicoid_potential(a=0.25):
    """Constant-coefficient potential with b = -a and diagonal 1/2."""
    if a == 0:
        raise ConfigError("helicoid parameter must be nonzero")
    b = -a
    c = 0.5
    return HoloPotential({
        -1: _const_term([[0.0, a], [-b, 0.0]]),
        0: _const_term([[c, 0.0], [0.0, -c]]),
        1: _const_term([[0.0, b], [-a, 0.0]]),
    })


def smyth_potential(k):
    """Monomial lower-left entry z^k at the lowest power."""
    if k < 1:
        raise ConfigError("smyth exponent must be a positive integer")
    c = np.zeros((k + 1, 2, 2), dtype=complex)
    c[0, 0, 1] = 1.0
    c[k, 1, 0] = 1.0
    return HoloPotential({-1: c})


@dataclass(frozen=True)
class ExampleSpec:
    name: str
    potential: object  # () -> HoloPotential
    grid: DomainGrid
    self_dual: bool
    exclude_disk: float | None
    verify_grid: DomainGrid = None  # residual-suite grid when it differs


def builtin_example(name):
    """The registry of built-in examples: the only parser of their names."""
    if name == "paraboloid":
        return ExampleSpec(name, paraboloid_potential,
                           DomainGrid(-1, 1, -1, 1, 41, 41), True, None)
    if name == "helicoid":
        # the fields grow like cosh(2|z|): a tighter domain and finer grid
        # keep the extraction floors at the paraboloid's level
        return ExampleSpec(name, helicoid_potential,
                           DomainGrid(-0.5, 0.5, -0.5, 0.5, 81, 81),
                           True, None)
    if name.startswith("smyth-"):
        try:
            k = int(name.split("-", 1)[1])
        except ValueError:
            raise ConfigError(f"unknown example {name!r}") from None
        if k < 1:
            raise ConfigError("smyth exponent must be >= 1")
        # export/figure grid reaches the annulus radius 0.5; the residual
        # suite runs on a tighter, finer grid where desk-scale stencil
        # floors fit the tolerances (the corner fields grow steeply)
        return ExampleSpec(name, partial(smyth_potential, k),
                           DomainGrid(-0.5, 0.5, -0.5, 0.5, 41, 41),
                           False, 0.05,
                           DomainGrid(-0.3, 0.3, -0.3, 0.3, 101, 101))
    raise ConfigError(f"unknown example {name!r}")


BUILTIN_NAMES = ("paraboloid", "helicoid", "smyth-1", "smyth-2")


def _mul_into_window(v, x_at_z):
    """(Phi xi)(lam) truncated to the state's window, per line.

    v holds Phi's allowed entries, one per power and column, in the
    entry-plane layout of `loops._planes`, shape (P, 2, lines); x_at_z maps
    power s -> xi_s's allowed entries, shape (2, lines).  Column t of xi_s
    takes Phi's column (t + s) % 2: one product per power, the state's
    columns reversed for odd s.
    """
    P = v.shape[0]
    out = np.zeros_like(v)
    for s, x in x_at_z.items():
        prod = (v[:, ::-1] if s % 2 else v) * x
        if s == 0:
            out += prod
        elif s > 0:
            out[s:] += prod[:P - s]
        else:
            out[:s] += prod[-s:]
    return out


def _sweep(terms, v0, z_start, dz, steps, substeps):
    """RK4 along the segments z_start + k*dz, one line per start point on
    the state's last axis; dz is one step or one per line.

    `terms` maps power -> xi's allowed entries, as in `_mul_into_window`.
    Yields the states at nodes 1..steps.
    """
    h = 1.0 / substeps

    @lru_cache(maxsize=1)
    def step_table(k):
        # xi at the stage points i h / 2 of node step k, ends shared
        zk = z_start + k * dz
        zs = np.stack([zk + dz * (i / 2 * h) for i in range(2 * substeps + 1)])
        table = {j: np.ascontiguousarray(np.moveaxis(_horner(c, zs), 1, -1))
                 for j, c in terms.items()}
        return [{j: v[i] for j, v in table.items()} for i in range(len(zs))]

    stages = lambda k, s: step_table(k)[2 * s:2 * s + 3]

    return rk4_march(v0, [h * np.asarray(dz)] * steps, substeps, stages,
                     _mul_into_window)


def integrate_potential(xi, grid, z0=0j, order=DEFAULT_ORDER, substeps=8,
                        column_first=True):
    """Solve dPhi = Phi xi dz, Phi(z0) = I, over the grid.

    The connection is holomorphic (dz only), so the result is path
    independent; `column_first` selects the sweep used, and the two-path
    agreement is a separate check.  Phi starts at the node nearest z0 (one
    hop from z0, of steps no longer than the grid spacing, when z0 is not a
    node).  `nil3.march_grid` fills the grid from that node by half-lines,
    on Phi's allowed entries (module docstring) with the lines on the
    state's last axis.
    Returns a batched MatrixLoop over the grid nodes on the powers marched:
    -N..0 (power 0 exactly I) when xi has no positive power, -N..N
    otherwise.
    """
    N = order
    powers = np.arange(-N, (0 if max(xi.terms) <= 0 else N) + 1)
    terms = {j: c[:, class_rows(1, [j])[0, 0], [0, 1]]
             for j, c in xi.terms.items()}
    v = np.zeros((len(powers), 2, 1), dtype=complex)
    v[N] = 1.0   # the identity: power 0's diagonal is allowed

    i0 = int(np.clip(np.rint((z0.imag - grid.y0) / grid.hy), 0, grid.ny - 1))
    j0 = int(np.clip(np.rint((z0.real - grid.x0) / grid.hx), 0, grid.nx - 1))
    base = grid.node_z(i0, j0)
    if base != z0:
        steps = max(1, int(np.ceil(abs(base - z0) / min(grid.hx, grid.hy))))
        *_, v = _sweep(terms, v, np.array([z0]), (base - z0) / steps, steps,
                       substeps)

    def march(v, axis, lines, c, d, steps):
        z = grid.zz[c, lines] if axis == 0 else grid.zz[lines, c]
        dz = d * (1j * grid.hy if axis == 0 else grid.hx)
        return _sweep(terms, v, z, dz, steps, substeps)

    out = np.empty(v.shape[:2] + grid.shape, dtype=complex)
    out[..., i0, j0] = v[..., 0]
    march_grid(out, (i0, j0), column_first, march)

    dense = np.zeros(grid.shape + (len(powers), 2, 2), dtype=complex)
    dense[..., np.arange(len(powers))[:, None], class_rows(1, powers)[0],
          [0, 1]] = np.moveaxis(out, (-2, -1), (0, 1))
    return MatrixLoop(dense, -N)


def trim_to_tail(phi):
    """Phi, on the powers -N..0 or -N..N that `integrate_potential` returns,
    trimmed to the lowest order n whose tail is at most TAIL_MAX; returns
    (trimmed loop, n, tail(n)).

    tail(n) is the largest |entry| of Phi_{-n} over the finite nodes, or of
    Phi_{+n} when that is larger, over the largest |entry| of Phi_0.  n is
    the smallest order from 1 to Phi's own whose tail, and every tail above
    it, is at most TAIL_MAX; a tail above it at Phi's own order raises
    ConfigError.  A Phi with no finite node is returned whole, tail nan.
    Phi_{-k} of a minus-loop depends on Phi_{-k+1}..Phi_0 alone, so its
    trimmed loop is bit-equal to the loop marched at order n.
    """
    N = phi.order
    c = phi.coeffs.reshape((-1,) + phi.coeffs.shape[-3:])
    finite = np.isfinite(c).all(axis=(1, 2, 3))
    if not finite.any():
        return phi, N, np.nan
    size = np.max(np.abs(c), axis=(2, 3))[finite].max(axis=0)
    k = np.arange(N + 1)
    side = size[N - k]
    if phi.high > 0:
        side = np.maximum(side, size[N + k])
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = side / size[N]
    if not tail[N] <= TAIL_MAX:
        raise ConfigError(f"Phi's tail at the truncation cap {N} is "
                          f"{tail[N]:.3e}, above {TAIL_MAX:.0e}: raise the "
                          f"order")
    # every tail from n up to the cap is within the bound
    above = np.flatnonzero(~(tail[1:] <= TAIL_MAX))
    n = 1 if above.size == 0 else int(above[-1]) + 2
    keep = slice(N - n, N + (n if phi.high > 0 else 0) + 1)
    trimmed = MatrixLoop(phi.coeffs[..., keep, :, :].copy(), -n)
    return trimmed, n, float(tail[n])


@dataclass
class BigCellReport:
    """Per-node conditioning of the factorization system."""

    pivot: np.ndarray      # smallest reciprocal condition of a Schur
                           # complement; nan where the input is not finite
    failed: np.ndarray     # True = factorization failed at the node

    def ok(self):
        return ~self.failed


def _circle_samples(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


def iwasawa(phi):
    """Pointwise splitting Phi = F B+ with the reality and normalization
    contracts; returns (F, B+, report).

    F satisfies F(lam)^dag sigma3 F(lam) = sigma3 on the circle; B+ has
    only nonnegative powers and B+(0) is upper-triangular with positive
    real diagonal.  Failures (non-finite input, a pivot below PIVOT_MIN,
    loss of positivity) mark nodes in the report instead of raising; failed
    nodes get B+ = I.  The nodes are factorized BLOCK at a time: every step is
    per node, so the blocks bound the working set without changing a bit.
    """
    batch = phi.batch_shape
    flat = phi.coeffs.reshape((-1,) + phi.coeffs.shape[-3:])
    n = flat.shape[0]
    outs = None
    for start in range(0, n, BLOCK):
        F, Bp, pivot, failed = _factorize(
            MatrixLoop(flat[start:start + BLOCK], phi.low))
        if outs is None:
            outs = [np.empty((n,) + a.shape[1:], a.dtype)
                    for a in (F.coeffs, Bp.coeffs, pivot, failed)]
        for o, a in zip(outs, (F.coeffs, Bp.coeffs, pivot, failed)):
            o[start:start + BLOCK] = a
    f, bp, pivot, failed = (o.reshape(batch + o.shape[1:]) for o in outs)
    return (MatrixLoop(f, F.low), MatrixLoop(bp, 0),
            BigCellReport(pivot=pivot, failed=failed))


def _factorize(phi):
    """iwasawa on one block of nodes: (F, B+, pivot, failed)."""
    N = phi.order
    M = 2 * N
    batch = phi.batch_shape

    # sigma3 Phi^dag sigma3: the adjoint with its off-diagonal signs flipped
    left = phi.adjoint_on_circle()
    left.coeffs *= [[1.0, -1.0], [-1.0, 1.0]]
    Z = left.mul(phi)
    # sigma3 Z on the powers -M..M (zero beyond Z's own window)
    s3Z = np.zeros(batch + (2 * M + 1, 2, 2), dtype=complex)
    s3Z[..., Z.low + M:Z.high + M + 1, :, :] = Z.coeffs * [[1.0], [-1.0]]

    # block-Toeplitz system sum_m W_{-m} Z_{m-e} = -Z_{-e}, e = 1..M, rows
    # weighted by sigma3: H[(m,r),(e,c)] = (sigma3 Z_{m-e})[r, c] is
    # Hermitian because sigma3 Z is on the circle; R[(m,r), c] = -Z_{-m}[c, r].
    # It is solved as H^T (sigma3 W^T) = R, so row block m of the solution
    # is sigma3 W_{-m}^T
    flat = s3Z.reshape(batch + (-1,))   # index (power + M) * 4 + 2 * row + col
    nonfinite = ~np.isfinite(flat).all(axis=-1)
    planes = np.ascontiguousarray(flat.T)   # node axis last
    # unknown (m,r) of a twisted W_{-m} is nonzero in the one row the grading
    # allows, which is its right-hand column: two half-size systems, one
    # column each
    cls = class_rows(1, -np.arange(1, M + 1))[0].reshape(2 * M)
    sol = np.zeros((2 * M, 2) + batch, dtype=complex)
    pivot = np.inf
    for p in (0, 1):
        rows = np.flatnonzero(cls == p)
        # consecutive unknowns pair into 2x2 blocks, K per class; entry
        # (i, j) of block d in the first block column of H^T is H's entry
        # at unknowns (j, 2d + i), of power m_j - m_{2d+i}.  The blocks
        # past the band, whose powers all lie outside Z's window (past
        # d = (N + 1) / 2 for a minus-loop), are exact zeros and left out
        m, r = rows.reshape(-1, 2) // 2 + 1, rows.reshape(-1, 2) % 2
        power = m[None, None, 0] - m[:, :, None]
        live = ((power >= Z.low) & (power <= Z.high)).any(axis=(1, 2))
        band = int(np.flatnonzero(live)[-1]) + 1
        t = planes[(power[:band] + M) * 4
                   + 2 * r[None, None, 0] + r[:band, :, None]]
        t = t.transpose(1, 2, 0, 3)   # (i, j, d, node)
        y = -planes[(M - m[:, :, None]) * 4 + r[:, :, None] + 2 * p]
        y = y.transpose(1, 2, 0, 3) * np.array([1.0, -1.0])[p]
        x, piv = _levinson(t, y)
        sol[rows, p] = x.transpose(2, 0, 1, 3).reshape((len(rows),) + batch)
        pivot = np.minimum(pivot, piv)
    pivot = np.where(nonfinite, np.nan, pivot)
    failed = ~(pivot >= PIVOT_MIN)
    sol[:, :, failed] = 0.0
    sol = np.moveaxis(sol, (0, 1), (-2, -1)).reshape(batch + (M, 2, 2))
    # W_0 = I
    W = MatrixLoop(np.concatenate(
        [np.swapaxes(sol[..., ::-1, :, :], -1, -2) * [1.0, -1.0],
         np.broadcast_to(np.eye(2), batch + (1, 2, 2))], axis=-3), -M)

    Zp = W.mul(Z, 0, 2 * N)   # the solve leaves the negative powers free

    # failed nodes get B+ = I below; keep them out of the positivity test
    Z0 = np.where(failed[..., None, None], np.eye(2), Zp.coeff(0))
    r1_sq = Z0[..., 0, 0]
    bad_r1 = (r1_sq.real <= 0) | (
        np.abs(r1_sq.imag) > 1e-6 * np.abs(r1_sq.real) + 1e-12)
    r1 = np.sqrt(np.where(bad_r1, 1.0, r1_sq.real))
    b = Z0[..., 0, 1] / r1
    r2_sq = Z0[..., 1, 1].real + np.abs(b) ** 2
    bad_r2 = r2_sq <= 0
    r2 = np.sqrt(np.where(bad_r2, 1.0, r2_sq))
    failed = failed | bad_r1 | bad_r2

    Cinv = np.zeros((2, 2, 1) + batch, dtype=complex)   # entry planes
    Cinv[0, 0] = 1.0 / r1
    Cinv[1, 0] = np.conj(b) / (r1 * r2)
    Cinv[1, 1] = 1.0 / r2
    zp = np.moveaxis(Zp.coeffs, (-3, -2, -1), (2, 0, 1))
    bp = np.moveaxis(mm2(Cinv, zp), (2, 0, 1), (-3, -2, -1))
    bp[failed] = 0.0
    bp[failed, 0] = np.eye(2)
    Bp = MatrixLoop(bp, 0)

    return phi.mul(plus_loop_inverse(Bp, 2 * N), -N, N), Bp, pivot, failed


def _rcond(s):
    """sigma_min / sigma_max of 2x2 entry planes: |det s| over the largest
    eigenvalue of s^dag s, whose radius is a hypot free of cancellation; 0
    where s is singular or not finite."""
    p = np.abs(s[0, 0]) ** 2 + np.abs(s[1, 0]) ** 2
    q = np.abs(s[0, 1]) ** 2 + np.abs(s[1, 1]) ** 2
    off = np.abs(np.conj(s[0, 0]) * s[0, 1] + np.conj(s[1, 0]) * s[1, 1])
    rc = (np.abs(det2(s))
          / (0.5 * (p + q) + np.hypot(0.5 * (p - q), off)))
    return np.where(rc >= 0.0, rc, 0.0)


def _levinson(t, y):
    """Solve T x = y for a Hermitian block-Toeplitz T with 2x2 blocks,
    batched over nodes: Whittle's block-Levinson recursion (Akaike 1973).

    t (2, 2, band, n) holds block (k + d, k) of T at d, for d below the
    band; the blocks beyond it are zero and those above the diagonal are
    the adjoints of those below.  y is (2, 1, K, n), with band <= K.
    Section k + 1 extends the monic forward predictor a (T a = [P, 0..0])
    and backward predictor b (T b = [0..0, Q]) of section k; Q is the Schur
    complement S_k of T's leading k blocks in its first k + 1, and T x = y
    is solved section by section along b.  The sums over a section run in
    a fixed order and leave out the zero blocks.  Returns x (2, 1, K, n)
    and, per node, the smallest reciprocal 2x2 condition of S_0..S_{K-1}
    (0 when one is singular).
    """
    band = t.shape[2]
    K, n = y.shape[2:]
    # a and x side by side, so one product serves both sums; b is stored
    # reversed (b_k first), so both predictor updates read the other one
    # backwards through a view
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
            # Delta = sum_j t_{k+1-j} a_j and eps = sum_j t_{k+1-j} x_j,
            # from the first j whose block is inside the band
            j0 = max(k + 2 - band, 0)
            prod = mm2(t[:, :, k + 1 - j0:0:-1], ax[:, :, j0:k + 1])
            acc = prod[:, :, 0]
            for j in range(1, k + 1 - j0):
                acc = acc + prod[:, :, j]
            D, eps = acc[:, :2], acc[:, 2:]
            # by symmetry, T [0, b] = [Delta^dag, 0.., Q]
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


def iwasawa_residuals(phi, F, Bp, mask=None):
    """(reconstruction, reality) max residuals over eight circle samples,
    on the nodes of `mask` (default: every node).  Each loop is evaluated at
    all eight samples as entry planes (2, 2, 8, nodes), by one product of
    the (8, P) table of the samples' powers with its coefficients, BLOCK
    nodes at a time; F B+ and F^dag sigma3 F are formed entrywise."""
    keep = np.ones(phi.batch_shape, dtype=bool) if mask is None else mask
    keep = keep.reshape(-1)
    lam = _circle_samples(8)[:, None]
    loops = [(lam ** (L.low + np.arange(L.coeffs.shape[-3])),
              L.coeffs.reshape(-1, L.coeffs.shape[-3], 4))
             for L in (phi, F, Bp)]
    rows = np.array([1.0, -1.0])[:, None, None, None]   # sigma3 from the left
    recon = reality = 0.0
    for start in range(0, keep.size, BLOCK):
        part = np.flatnonzero(keep[start:start + BLOCK]) + start
        pv, fv, bv = (np.matmul(table, c[part].T).reshape(2, 2, 8, -1)
                      for table, c in loops)
        herm = mm2(np.swapaxes(fv, 0, 1).conj(), rows * fv)
        recon = max(recon, float(np.max(np.abs(pv - mm2(fv, bv)),
                                        initial=0.0)))
        reality = max(reality, float(np.max(
            np.abs(herm - SIGMA3[:, :, None, None]), initial=0.0)))
    return recon, reality


@dataclass
class PipelineResult:
    """Everything the potential pipeline produces."""

    grid: DomainGrid
    lam_samples: list
    frame_loop: MatrixLoop     # gauged frame used for the surfaces
    report: BigCellReport
    sym: list                  # SymOutput per lam sample
    frames: list               # FrameField per lam sample, behind `sym`
    recon_residual: float
    reality_residual: float
    mask: np.ndarray           # export mask: big-cell failures + exclusions
    ok_mask: np.ndarray        # big-cell failures only (extraction domain)
    self_dual: bool            # run the self-duality checks in verify
    order: int                 # truncation order factorized, `trim_to_tail`
    order_cap: int             # the order Phi was marched at
    tail: float                # Phi's relative tail at `order`


def frame_field_from_loop(floop, lam, grid):
    """A frame loop's value and exact first and second lam derivatives."""
    return FrameField(F=floop.eval(lam), F_lam=floop.eval(lam, 1),
                      F_lam2=floop.eval(lam, 2), lam=complex(lam), grid=grid)


def _dirac_gauge(xi, grid, F, Bp, mask):
    """Point-dependent diagonal gauge making the frame an extended frame.

    The factorization normalization leaves a residual U(1) right gauge
    k(z) = diag(e^{i theta}, e^{-i theta}); the lowest spectral coefficient
    of F^{-1} dz F equals b0 xi_{-1} b0^{-1} with b0 = B+(0), and theta is
    chosen so its (1,2) entry lands on the negative imaginary axis (the
    Dirac-potential slot -e^{w/2} with e^{w/2} in i R_+).
    """
    b0 = np.moveaxis(Bp.coeff(0), (-2, -1), (0, 1))
    xi_m1 = np.moveaxis(xi.eval_grid(grid.zz, -1), (-2, -1), (0, 1))
    slot = mm2(mm2(b0, xi_m1), inv2(b0))[0, 1]
    degenerate = np.abs(slot) < 1e-12 * np.max(np.abs(slot))
    theta = 0.5 * (np.angle(np.where(degenerate, 1.0, slot)) + 0.5 * np.pi)
    phase = np.exp(1j * theta)
    # the diagonal of k; entrywise products keep a NaN node's forbidden
    # entries exactly zero
    k = np.stack([phase, np.conj(phase)], axis=-1)
    F2 = MatrixLoop(F.coeffs * k[..., None, None, :], F.low)
    Bp2 = MatrixLoop(np.conj(k)[..., None, :, None] * Bp.coeffs, Bp.low)
    return F2, Bp2, mask & ~degenerate


def dpw_pipeline(xi, grid, lam_samples=(1.0 + 0.0j,), order=DEFAULT_ORDER,
                 exclude_disk=None, self_dual=False):
    """Potential -> loops -> factorization -> both surfaces per parameter.

    Phi(0) = I; Phi is marched at `order`, the cap, and factorized at the
    order `trim_to_tail` reads off its tail."""
    lam_samples = [complex(l) for l in lam_samples]
    for lam in lam_samples:
        if not abs(abs(lam) - 1.0) <= 1e-12:
            raise ConfigError(f"lam sample {lam} is not unit-modulus")
    if order < 1:
        raise ConfigError(f"truncation order must be at least 1, got {order}")
    if exclude_disk is not None and not np.isfinite(exclude_disk):
        raise ConfigError(f"exclusion radius must be finite, "
                          f"got {exclude_disk}")
    # an overflowing node is reported as failed (pivot nan), not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        phi, n, tail = trim_to_tail(
            integrate_potential(xi, grid, order=order))
        F, Bp, report = iwasawa(phi)
    ok_mask = report.ok()
    F, Bp, ok_mask = _dirac_gauge(xi, grid, F, Bp, ok_mask)
    # the extraction needs a node whose whole stencil factorized: a Phi that
    # overflows off z = 0 factorizes at that node alone
    if not stencil_valid(ok_mask).any():
        raise ConfigError("the factorization fails at every node (a "
                          "non-finite or ill-conditioned Phi)")
    mask = ok_mask
    if exclude_disk is not None:
        # a node within a relative 1e-12 of the radius is on it: linspace
        # rounds mirror nodes of a symmetric grid to either side of it
        mask = mask & (np.abs(grid.zz) >= exclude_disk * (1 - 1e-12))
        if not mask.any():
            raise ConfigError(f"exclusion radius {exclude_disk} leaves no "
                              f"node to export")
    recon, reality = iwasawa_residuals(phi, F, Bp, mask=mask)

    floop = MatrixLoop.constant(SPINOR_GAUGE).mul(F)
    # the frame evaluation below sets the pipeline's peak memory: keep only
    # the loop it reads
    del phi, F, Bp

    frames = [frame_field_from_loop(floop, lam, grid) for lam in lam_samples]
    return PipelineResult(grid=grid, lam_samples=lam_samples,
                          frame_loop=floop, report=report,
                          sym=sym_sheets(frames, ok_mask, mask),
                          frames=frames,
                          recon_residual=recon, reality_residual=reality,
                          mask=mask, ok_mask=ok_mask, self_dual=self_dual,
                          order=n, order_cap=order, tail=tail)


def run_example(name, grid=None, lam_samples=(1.0 + 0.0j,),
                order=DEFAULT_ORDER, exclude_disk=None):
    """`dpw_pipeline` on a built-in example's spec; `grid` and
    `exclude_disk` default (None) to the spec's."""
    spec = builtin_example(name)
    g = grid if grid is not None else spec.grid
    if exclude_disk is None:
        exclude_disk = spec.exclude_disk
    return dpw_pipeline(spec.potential(), g, lam_samples=lam_samples,
                        order=order, exclude_disk=exclude_disk,
                        self_dual=spec.self_dual)

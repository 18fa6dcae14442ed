"""Holomorphic-potential pipeline: integrate dPhi = Phi xi dz in the loop
algebra, split Phi = F B+ pointwise in the SU(1,1) loop group, and hand
the frame (with exact parameter derivatives) to the surface formulas.

The splitting method: on the circle  Z := sigma3 Phi^dag sigma3 Phi equals
(sigma3 B+^dag sigma3) B+, a minus-loop times a plus-loop.  A block-Toeplitz
linear system on the Fourier coefficients yields W = Z_-^{-1} normalized to
the identity at infinity; then Z+ = W Z is C B+ for a constant matrix C
fixed by requiring B+(0) upper-triangular with positive real diagonal.
Finally F = Phi B+^{-1}.  Nodes where the system degenerates are big-cell
failures and are masked.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError
from .frames import FrameField
from .loops import SIGMA3, SQRT_I, MatrixLoop, plus_loop_inverse
from .nil3 import DomainGrid, rk4_march
from .sym import sym_sheets

# left gauge applied to pipeline frames: a fixed rotation about e3 that
# aligns the factorized frame with the spinor normal form
SPINOR_GAUGE = np.array([[1.0 / SQRT_I, 0.0], [0.0, SQRT_I]], dtype=complex)

DEFAULT_ORDER = 12
COND_CAP = 1e12


@dataclass
class HoloPotential:
    """xi = sum_j xi_j(z) lam^j dz with polynomial entries, j >= -1.

    terms[j] is an array (deg+1, 2, 2): coefficient of z^k at index k.
    """

    terms: dict
    twisted: bool = True

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
        if self.twisted:
            for j, c in self.terms.items():
                diag = max(np.max(np.abs(c[:, 0, 0])), np.max(np.abs(c[:, 1, 1])))
                off = max(np.max(np.abs(c[:, 0, 1])), np.max(np.abs(c[:, 1, 0])))
                bad = off if j % 2 == 0 else diag
                if bad != 0.0:
                    raise ConfigError(
                        f"twisted potential has forbidden mass at power {j}")

    @property
    def powers(self):
        return sorted(self.terms)

    def eval_grid(self, zz, power):
        """One coefficient matrix evaluated on a complex grid."""
        c = self.terms[power]
        acc = np.zeros(zz.shape + (2, 2), dtype=complex)
        for k in range(c.shape[0] - 1, -1, -1):
            acc = acc * zz[..., None, None] + c[k]
        return acc

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
        return {"schema": 1, "twisted": self.twisted, "terms": terms}

    @classmethod
    def from_json(cls, data):
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
        return cls(terms, twisted=bool(data.get("twisted", False)))


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
    z0: complex
    self_dual: bool
    exclude_disk: float | None
    verify_grid: DomainGrid = None  # residual-suite grid when it differs


def builtin_example(name):
    """The registry of built-in examples: the only parser of their names."""
    if name == "paraboloid":
        return ExampleSpec(name, paraboloid_potential,
                           DomainGrid(-1, 1, -1, 1, 41, 41), 0j, True, None)
    if name == "helicoid":
        # the fields grow like cosh(2|z|): a tighter domain and finer grid
        # keep the extraction floors at the paraboloid's level
        return ExampleSpec(name, helicoid_potential,
                           DomainGrid(-0.5, 0.5, -0.5, 0.5, 81, 81),
                           0j, True, None)
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
                           0j, False, 0.05,
                           DomainGrid(-0.3, 0.3, -0.3, 0.3, 101, 101))
    raise ConfigError(f"unknown example {name!r}")


BUILTIN_NAMES = ("paraboloid", "helicoid", "smyth-1", "smyth-2")


def _mul_into_window(phi, xi_at_z, N):
    """(phi * xi)(lam) truncated to the window [-N, N], per line.

    phi has shape (lines, P, 2, 2) for powers -N..N; xi_at_z maps
    power -> (lines, 2, 2).
    """
    P = phi.shape[1]
    out = np.zeros_like(phi)
    for s, X in xi_at_z.items():
        # the 2x2 product as two broadcast terms: the same bits as matmul
        # on stacks of 2x2 blocks, several times faster
        X = X[:, None]
        prod = phi[..., 0:1] * X[..., 0:1, :] + phi[..., 1:2] * X[..., 1:2, :]
        if s == 0:
            out += prod
        elif s > 0:
            out[:, s:] += prod[:, :P - s]
        else:
            out[:, :s] += prod[:, -s:]
    return out


def _sweep(xi, phi0, z_start, dz, steps, substeps, N, out=None):
    """RK4 along the segments z_start + k*dz, one line per start point.

    Returns the final states; node k of each line goes to out[:, k] when
    `out` is given.
    """
    h = 1.0 / substeps

    def stages(k, s):
        zk = z_start + k * dz
        zs = (zk + dz * (s * h), zk + dz * ((s + 0.5) * h),
              zk + dz * ((s + 1) * h))
        return [{j: xi.eval_grid(z, j) for j in xi.terms} for z in zs]

    def rhs(phi, xi_at_z):
        return _mul_into_window(phi, xi_at_z, N)

    return rk4_march(phi0, [h * dz] * steps, substeps, stages, rhs, out=out)


def integrate_potential(xi, grid, z0=0j, init=None, order=DEFAULT_ORDER,
                        substeps=8, column_first=True):
    """Solve dPhi = Phi xi dz from z0 over the grid.

    The connection is holomorphic (dz only), so the result is path
    independent; `column_first` selects the sweep used, and the two-path
    agreement is a separate check.  The first column (row) is marched from
    the corner, then every row (column) at once.  Returns a batched
    MatrixLoop over the grid nodes.
    """
    N = order
    P = 2 * N + 1
    if init is None:
        phi0 = np.zeros((P, 2, 2), dtype=complex)
        phi0[N] = np.eye(2)
    else:
        phi0 = np.zeros((P, 2, 2), dtype=complex)
        lo = max(init.low, -N)
        hi = min(init.high, N)
        phi0[lo + N:hi + N + 1] = init.coeffs[lo - init.low:hi - init.low + 1]

    corner = grid.node_z(0, 0)
    if abs(corner - z0) > 0:
        steps = max(grid.nx, grid.ny)
        phi0 = _sweep(xi, phi0[None], np.array([z0]),
                      (corner - z0) / steps, steps, substeps, N)[0]

    out = np.empty(grid.shape + (P, 2, 2), dtype=complex)
    out[0, 0] = phi0
    # (lines, nodes, ...) views: the first column (row), then every row
    # (column) at once from it
    cols = out.swapaxes(0, 1)
    if column_first:
        sweeps = ((cols[0:1], np.array([corner]), 1j * grid.hy),
                  (out, grid.zz[:, 0], grid.hx))
    else:
        sweeps = ((out[0:1], np.array([corner]), grid.hx),
                  (cols, grid.zz[0], 1j * grid.hy))
    for dst, z_start, dz in sweeps:
        _sweep(xi, dst[:, 0], z_start, dz, dst.shape[1] - 1, substeps, N,
               out=dst)

    loop = MatrixLoop(out, -N)
    if xi.twisted:
        loop = loop.with_parity("twisted", tol=np.inf)
    return loop


@dataclass
class BigCellReport:
    """Per-node conditioning of the factorization system."""

    cond: np.ndarray
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
    real diagonal.  Failures (non-finite input, conditioning, loss of
    positivity) mark nodes in the report instead of raising; failed nodes
    get B+ = I.
    """
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
    # Hermitian because sigma3 Z is on the circle; R[(e,c), r] = -Z_{-e}[r, c]
    flat = s3Z.reshape(batch + (-1,))   # index (power + M) * 4 + 2 * row + col
    m, r, e, c = np.ix_(range(1, M + 1), range(2), range(1, M + 1), range(2))
    H = flat[..., ((m - e + M) * 4 + 2 * r + c).reshape(2 * M, 2 * M)]
    R = -flat[..., ((M - m) * 4 + r + 2 * c).reshape(2 * M, 2)] * [1.0, -1.0]

    nonfinite = ~np.isfinite(flat).all(axis=-1)
    H[nonfinite] = np.eye(2 * M)   # kept out of the eigen step, cond = inf
    eig = np.abs(np.linalg.eigvalsh(H))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(nonfinite, np.inf, eig.max(axis=-1) / eig.min(axis=-1))
    failed = ~np.isfinite(cond) | (cond > COND_CAP)
    H[failed] = np.eye(2 * M)
    # W T = -R with T = sigma3 H: T^T W^T = H^T (sigma3 W^T), so row block
    # m of the solution is sigma3 W_{-m}^T; W_0 = I
    sol = np.linalg.solve(np.swapaxes(H, -1, -2), R).reshape(batch + (M, 2, 2))
    W = MatrixLoop(np.concatenate(
        [np.swapaxes(sol[..., ::-1, :, :], -1, -2) * [1.0, -1.0],
         np.broadcast_to(np.eye(2), batch + (1, 2, 2))], axis=-3), -M)

    Zp_full = W.mul(Z)
    # keep powers 0..2N; the solve does not constrain the negative ones
    cut = -Zp_full.low
    Zp = MatrixLoop(Zp_full.coeffs[..., cut:cut + 2 * N + 1, :, :].copy(), 0)

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

    Cinv = np.zeros(batch + (2, 2), dtype=complex)
    Cinv[..., 0, 0] = 1.0 / r1
    Cinv[..., 1, 0] = np.conj(b) / (r1 * r2)
    Cinv[..., 1, 1] = 1.0 / r2
    bp = np.einsum("...ab,...jbc->...jac", Cinv, Zp.coeffs)
    bp[failed] = 0.0
    bp[failed, 0] = np.eye(2)
    Bp = MatrixLoop(bp, 0)

    Bp_inv = plus_loop_inverse(Bp, 2 * N)
    F_wide = phi.mul(Bp_inv)
    F = F_wide.truncated(N)
    if phi.parity == "twisted":
        F = F.with_parity("twisted", tol=np.inf)
        Bp = Bp.with_parity("twisted", tol=np.inf)
    return F, Bp, BigCellReport(cond=cond, failed=failed)


def iwasawa_residuals(phi, F, Bp, mask=None):
    """(reconstruction, reality) max residuals over eight circle samples,
    on the nodes of `mask` (default: every node)."""
    if mask is None:
        mask = np.ones(phi.batch_shape, dtype=bool)
    recon = 0.0
    reality = 0.0
    for lam in _circle_samples(8):
        pv = phi.eval(lam)
        fv = F.eval(lam)
        bv = Bp.eval(lam)
        r1 = np.max(np.abs(pv - fv @ bv), axis=(-2, -1))
        herm = np.swapaxes(fv.conj(), -1, -2) @ SIGMA3 @ fv - SIGMA3
        r2 = np.max(np.abs(herm), axis=(-2, -1))
        recon = max(recon, float(np.max(r1[mask], initial=0.0)))
        reality = max(reality, float(np.max(r2[mask], initial=0.0)))
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


def frame_field_from_loop(floop, lam, grid):
    """Evaluate a frame loop and its exact derivatives at one parameter."""
    d1 = floop.dlambda()
    d2 = d1.dlambda()
    return FrameField(F=floop.eval(lam), F_lam=d1.eval(lam),
                      F_lam2=d2.eval(lam), lam=complex(lam), grid=grid)


def _dirac_gauge(xi, grid, F, Bp, mask):
    """Point-dependent diagonal gauge making the frame an extended frame.

    The factorization normalization leaves a residual U(1) right gauge
    k(z) = diag(e^{i theta}, e^{-i theta}); the lowest spectral coefficient
    of F^{-1} dz F equals b0 xi_{-1} b0^{-1} with b0 = B+(0), and theta is
    chosen so its (1,2) entry lands on the negative imaginary axis (the
    Dirac-potential slot -e^{w/2} with e^{w/2} in i R_+).
    """
    b0 = Bp.coeff(0)
    xi_m1 = xi.eval_grid(grid.zz, -1)
    U_low = b0 @ xi_m1 @ np.linalg.inv(b0)
    slot = U_low[..., 0, 1]
    degenerate = np.abs(slot) < 1e-12 * np.max(np.abs(slot))
    theta = 0.5 * (np.angle(np.where(degenerate, 1.0, slot)) + 0.5 * np.pi)
    phase = np.exp(1j * theta)
    k = np.zeros(grid.shape + (2, 2), dtype=complex)
    k[..., 0, 0] = phase
    k[..., 1, 1] = np.conj(phase)
    k_inv = np.swapaxes(k, -1, -2).conj()
    F2 = MatrixLoop(np.einsum("...jab,...bc->...jac", F.coeffs, k), F.low,
                    F.parity)
    Bp2 = MatrixLoop(np.einsum("...ab,...jbc->...jac", k_inv, Bp.coeffs),
                     Bp.low, Bp.parity)
    return F2, Bp2, mask & ~degenerate


def dpw_pipeline(xi, grid, z0=0j, lam_samples=(1.0 + 0.0j,),
                 order=DEFAULT_ORDER, init=None, exclude_disk=None,
                 substeps=8, self_dual=False):
    """Potential -> loops -> factorization -> both surfaces per parameter."""
    lam_samples = [complex(l) for l in lam_samples]
    for lam in lam_samples:
        if abs(abs(lam) - 1.0) > 1e-12:
            raise ConfigError(f"lam sample {lam} is not unit-modulus")
    phi = integrate_potential(xi, grid, z0=z0, init=init, order=order,
                              substeps=substeps)
    F, Bp, report = iwasawa(phi)
    ok_mask = report.ok()
    F, Bp, ok_mask = _dirac_gauge(xi, grid, F, Bp, ok_mask)
    mask = ok_mask
    if exclude_disk is not None:
        mask = mask & (np.abs(grid.zz) >= exclude_disk)
    recon, reality = iwasawa_residuals(phi, F, Bp, mask=mask)

    floop = MatrixLoop.constant(SPINOR_GAUGE).mul(F)
    if F.parity == "twisted":
        floop = floop.with_parity("twisted", tol=np.inf)

    frames = [frame_field_from_loop(floop, lam, grid) for lam in lam_samples]
    return PipelineResult(grid=grid, lam_samples=lam_samples,
                          frame_loop=floop, report=report,
                          sym=sym_sheets(frames, ok_mask, mask),
                          frames=frames,
                          recon_residual=recon, reality_residual=reality,
                          mask=mask, ok_mask=ok_mask, self_dual=self_dual)


def run_example(name, grid=None, lam_samples=(1.0 + 0.0j,),
                order=DEFAULT_ORDER, substeps=8):
    spec = builtin_example(name)
    g = grid if grid is not None else spec.grid
    return dpw_pipeline(spec.potential(), g, z0=spec.z0,
                        lam_samples=lam_samples, order=order,
                        exclude_disk=spec.exclude_disk, substeps=substeps,
                        self_dual=spec.self_dual)

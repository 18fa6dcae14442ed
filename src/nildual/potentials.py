"""Holomorphic-potential pipeline: integrate dPhi = Phi xi dz in the loop
algebra, split Phi = F B+ pointwise in the SU(1,1) loop group, and hand
the frame (with exact parameter derivatives) to the surface formulas.

Every potential, and every loop multiplied or inverted here, is twisted,
and every loop is its allowed entries (`loops`, one per power and column).
A potential must be finite, and `HoloPotential` refuses one with a nonzero
entry the grading forbids.  Phi(0) = I, and Phi is summed from its Taylor
series in z (`integrate_potential`) on its entries, and on the powers up to
0 alone when xi has no positive power; Phi is returned on those powers, so
the factorization of such a minus-loop multiplies none of the exact zeros
above them.

The truncation order of a run, `order`, is a cap.  Phi is computed at the
cap, then trimmed to the lowest order n whose tail, the largest entry of
Phi_{-n} (and of Phi_{+n} when xi has positive powers) relative to Phi_0's,
is at most TAIL_MAX, and so is every tail above n (`trim_to_tail`).  A cap
whose own tail is above TAIL_MAX is too low for the domain: ConfigError.
The factorization, the gauge, the frame loop and the splitting residuals
run at n; a minus-loop trimmed to n is bit-equal to Phi computed at n.

The splitting method: on the circle  Z := sigma3 Phi^dag sigma3 Phi equals
(sigma3 B+^dag sigma3) B+, a minus-loop times a plus-loop.  Z is formed on
its nonnegative powers alone: sigma3 Z is Hermitian on the circle, so its
negative powers are the adjoints of those.  A block-Toeplitz linear system
on the Fourier coefficients yields W = Z_-^{-1} normalized to the identity
at infinity; then Z+ = W Z, which reads no negative power of Z, is C B+
for a constant matrix C fixed by requiring B+(0) upper-triangular with
positive real diagonal.  Finally F = Phi B+^{-1}, B+^{-1} summed as B+'s
power series: to N for a minus-loop Phi (one whose positive powers are
all zero), where B+^{-1} has no power above N, and to 2N otherwise; every
product sums only the powers it keeps.
The system's size M, the powers of W it solves for, is Z's top power made
even: N (rounded up) for a minus-loop Phi on -N..0, where it is exact
(`_factorize`), and 2N when Phi has positive powers.  It splits into two
parity classes of half the size, solved separately, and W, B+ and F come
out exactly twisted.  Each class system is Hermitian block-Toeplitz with
2x2 blocks, read from Z's entries, and solved by a block-Levinson recursion
with no eigen step and no dense matrix.  Its guard, the pivot, is the
smallest reciprocal condition of the Schur complements of the system's
leading sections; nodes with a pivot below PIVOT_MIN are big-cell failures
and are masked.  The nodes are factorized BLOCK at a time, which bounds the
memory the systems take and changes no bit.  The diagonal gauges applied
after it scale each entry at its row or column.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError
from .frames import FrameField
from .loops import (
    SIGMA3,
    SQRT_I,
    MatrixLoop,
    class_rows,
    det2,
    inv2,
    mm2,
    plus_loop_inverse,
)
from .nil3 import DomainGrid, stencil_valid
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
            if c.ndim != 3 or not len(c) or c.shape[1:] != (2, 2):
                raise ConfigError(f"the entries of the term of power {j} "
                                  f"must be (deg+1, 2, 2), deg >= 0")
        if not all(np.isfinite(c).all() for c in self.terms.values()):
            raise ConfigError("potential has a non-finite coefficient")
        # the entries of each term's z^k coefficients the grading forbids
        if any(c[:, class_rows(2, [j])[1, 0], [0, 1]].any()
               for j, c in self.terms.items()):
            raise ConfigError("potential has forbidden-parity mass")

    @property
    def powers(self):
        return sorted(self.terms)

    def eval_grid(self, zz, power):
        """One coefficient matrix evaluated on a complex grid, as entry
        planes (2, 2, *zz.shape)."""
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
        are refused (ConfigError) whatever the flag says, and so is a term
        whose power is not an integer or repeats, or that has other than 4
        entry lists."""
        terms = {}
        for n, item in enumerate(data["terms"]):
            j, entries = item["power"], item["entries"]
            if type(j) is not int:
                raise ConfigError(f"term {n} has power {j!r}, not an integer")
            if j in terms:
                raise ConfigError(f"term {n} repeats power {j}")
            if len(entries) != 4:
                raise ConfigError(f"term {n} (power {j}) has {len(entries)} "
                                  f"entry lists, not 4")
            deg = max(len(e) for e in entries)
            c = np.zeros((deg, 2, 2), dtype=complex)
            for idx, coeffs in enumerate(entries):
                for k, (re, im) in enumerate(coeffs):
                    c[k, idx // 2, idx % 2] = complex(re, im)
            terms[j] = c
        return cls(terms)


def _horner(c, zz):
    """sum_k c[k] z^k on a complex grid, shape c.shape[1:] + zz.shape (the
    grid axes last), summed in place and elementwise; c[k] may hold any
    entry layout.

    Each entry starts at its own degree, the top one whose coefficient is
    not +0: step k updates only the contiguous range of entries whose
    degree reaches k.  An entry in that range of lower degree is +0 and
    stays +0 (any zero times z, plus +0, is +0), so the bits are those of
    the Horner sum over every degree."""
    acc = np.zeros(c.shape[1:] + zz.shape, dtype=complex)
    flat = acc.reshape((-1,) + zz.shape)
    coef = np.asarray(c, dtype=complex).reshape(len(c), -1)
    # each entry's degree (a -0 part counts), -1 for an entry that is +0
    # at every degree
    nonzero = (coef != 0) | np.signbit(coef.real) | np.signbit(coef.imag)
    deg = np.max(np.where(nonzero, np.arange(len(coef))[:, None], -1),
                 axis=0, initial=-1)
    grid_axes = (...,) + (None,) * zz.ndim
    for k in range(int(deg.max(initial=-1)), -1, -1):
        live = np.flatnonzero(deg >= k)
        part = flat[live[0]:live[-1] + 1]
        np.multiply(part, zz, out=part)
        part += coef[k, live[0]:live[-1] + 1][grid_axes]
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


def _series_degree(xi, q, radius, cap):
    """The degree, at most `cap`, at which Phi's Taylor series is cut on
    |z| <= R = radius.

    With c_i the spectral norms of xi's z^i coefficients summed over the
    powers of lam (a twisted coefficient is diagonal or off-diagonal, so
    its norm is its largest |entry|), exp(int_0^r sum_i c_i s^i ds)
    majorizes Phi: |A_n| R^n
    <= t_n, its terms at r = R, where t_0 = 1 and (n + 1) t_{n+1} =
    sum_i b_i t_{n-i}, b_i = c_i R^{i+1}.  Once n + 1 >= 2 sum_i b_i, each
    later term is at most half the largest of the q + 1 before it, so the
    remainder past n is at most (q + 1) max(t_{n-q}, .., t_n): the degree
    is the first such n where that is at most 2^-53.  A majorant beyond the
    float range gives `cap`, or ConfigError when there is none.
    """
    c = np.zeros(q + 1)
    for terms in xi.terms.values():
        c[:len(terms)] += np.max(np.abs(terms), axis=(1, 2))
    b = c * radius ** np.arange(1, q + 2)
    if not np.sum(b / np.arange(1, q + 2)) < np.log(np.finfo(float).max):
        if np.isfinite(cap):
            return cap
        raise ConfigError(f"the potential's Taylor majorant overflows on "
                          f"|z| <= {radius:.3g}: shrink the grid")
    t, n = [1.0], 0
    while n < cap and not (n + 1 >= 2 * b.sum()
                           and (q + 1) * max(t[-q - 1:]) <= 2.0 ** -53):
        t.append(sum(b[i] * t[n - i] for i in range(min(n, q) + 1)) / (n + 1))
        n += 1
    return n


def integrate_potential(xi, grid, order=DEFAULT_ORDER):
    """Solve dPhi = Phi xi dz, Phi(0) = I, over the grid by Phi's Taylor
    series in z, cut at the degree `_series_degree` gives for the grid's
    largest |z|.

    With X_i = sum_j xi_{j,i} lam^j, xi's z^i coefficient, A_0 = I and
    (n + 1) A_{n+1} = sum_i A_{n-i} X_i: each product by `loops.mm2` on
    entry planes, windowed to Phi's powers, summed in order of i, then j.
    For xi on the power -1 alone, of degree q in z, Phi_{-k} is a
    polynomial of degree at most k (q + 1): the cut is at most N (q + 1),
    past which every coefficient is exactly zero.  The series is summed by
    Horner in z elementwise on Phi's allowed entries, so a node's bits
    depend on that node alone, and its output is the loop's entries.
    Returns a batched MatrixLoop over the grid nodes on Phi's powers: -N..0
    when xi has no positive power (power 0 exactly I when xi is on the
    power -1 alone), -N..N otherwise.
    """
    N = order
    powers = np.arange(-N, (0 if max(xi.terms) <= 0 else N) + 1)
    P = len(powers)
    q = max(len(c) for c in xi.terms.values()) - 1
    cap = N * (q + 1) if xi.powers == [-1] else np.inf
    D = _series_degree(xi, q, float(np.max(np.abs(grid.zz))), cap)
    # the recursion on entry planes (2, 2, P); xi_{j,i} is one 2x2 plane
    A = np.zeros((D + 1, 2, 2, P), dtype=complex)
    A[0, [0, 1], [0, 1], N] = 1.0
    for n in range(D):
        acc = A[n + 1]
        for i in range(min(n, q) + 1):
            for j in xi.powers:
                c = xi.terms[j]
                if i < len(c) and j < P:
                    # A_{n-i} at power p lands on p + j, inside the window
                    lo, hi = max(-j, 0), P - max(j, 0)
                    acc[..., lo + j:hi + j] += mm2(A[n - i, ..., lo:hi],
                                                   c[i, :, :, None])
        acc /= n + 1
    # the allowed entries, one per power and column, summed at the nodes
    rows = class_rows(1, powers)[0]
    return MatrixLoop(np.moveaxis(
        _horner(A[:, rows, [0, 1], np.arange(P)[:, None]], grid.zz),
        (0, 1), (-2, -1)), -N)


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
    trimmed loop is bit-equal to Phi computed at order n.
    """
    N = phi.order
    finite = np.isfinite(phi.entries).all(axis=(-2, -1))
    if not finite.any():
        return phi, N, np.nan
    size = np.max(np.abs(phi.entries), axis=-1)[finite].max(axis=0)
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
    trimmed = MatrixLoop(phi.entries[..., keep, :].copy(), -n)
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
    flat = phi.entries.reshape((-1,) + phi.entries.shape[-2:])
    n = flat.shape[0]
    # a Phi whose positive powers are all zero, a zero-padded one too, is a
    # minus-loop: decided once, so that every block sums B+^{-1} alike
    minus = phi.high <= 0 or not flat[:, -phi.high:].any()
    outs = None
    for start in range(0, n, BLOCK):
        F, Bp, pivot, failed = _factorize(
            MatrixLoop(flat[start:start + BLOCK], phi.low), minus)
        if outs is None:
            outs = [np.empty((n,) + a.shape[1:], a.dtype)
                    for a in (F.entries, Bp.entries, pivot, failed)]
        for o, a in zip(outs, (F.entries, Bp.entries, pivot, failed)):
            o[start:start + BLOCK] = a
    f, bp, pivot, failed = (o.reshape(batch + o.shape[1:]) for o in outs)
    return (MatrixLoop(f, F.low), MatrixLoop(bp, 0),
            BigCellReport(pivot=pivot, failed=failed))


def _factorize(phi, minus):
    """iwasawa on one block of nodes: (F, B+, pivot, failed); `minus` is
    True when Phi has no nonzero positive power."""
    N = phi.order
    batch = phi.batch_shape

    # sigma3 Phi^dag sigma3: the adjoint with its off-diagonal entries, the
    # odd powers', negated.  Z on its powers 0..Z.high alone: on the circle
    # sigma3 Z is Hermitian, so its power -k is the adjoint of its power k
    left = phi.adjoint_on_circle()
    odd = (left.low + np.arange(left.entries.shape[-2])) % 2
    Z = MatrixLoop(left.entries * (1.0 - 2.0 * odd)[:, None],
                   left.low).mul(phi, 0)
    # the system size M: Z's top power, rounded up to even for the class
    # pairing; N (or N + 1) for a minus-loop Phi, 2N with positive powers.
    # N is exact for a minus-loop: det Phi is constant in lam (xi's trace
    # lies at power 0), so is det B+ = det Phi / det F, and W =
    # C sigma3 (B+^{-1})^dag sigma3, an adjugate over a constant, has no
    # power below -N
    top = Z.high
    M = top + top % 2
    half = MatrixLoop(Z.entries * (1.0 - 2.0 * Z.rows), 0)   # sigma3 Z

    # block-Toeplitz system sum_m W_{-m} Z_{m-e} = -Z_{-e}, e = 1..M, rows
    # weighted by sigma3: H[(m,r),(e,c)] = (sigma3 Z_{m-e})[r, c] is
    # Hermitian because sigma3 Z is on the circle; R[(m,r), c] = -Z_{-m}[c, r].
    # It is solved as H^T (sigma3 W^T) = R, so row block m of the solution
    # is sigma3 W_{-m}^T.  The table of sigma3 Z's entries, node axis last,
    # at index (power + M) * 2 + column: powers -top..-1 from the half's
    # adjoint, 0..top from the half, written last, zero beyond them
    planes = np.zeros((2 * (2 * M + 1),) + batch, dtype=complex)
    for loop in (half.adjoint_on_circle(), half):
        e = np.moveaxis(loop.entries, (-2, -1), (0, 1))
        lo = (loop.low + M) * 2
        planes[lo:lo + e.shape[0] * 2] = e.reshape((-1,) + batch)
    nonfinite = ~np.isfinite(Z.entries).all(axis=(-2, -1))
    # unknown (m,r) of a twisted W_{-m} is nonzero in the one row the grading
    # allows, which is its right-hand column: two half-size systems, one
    # column each, and every entry they read is one Z allows
    cls = class_rows(1, -np.arange(1, M + 1))[0].reshape(2 * M)
    sol = np.zeros((2 * M,) + batch, dtype=complex)
    pivot = np.inf
    for p in (0, 1):
        rows = np.flatnonzero(cls == p)
        # consecutive unknowns pair into 2x2 blocks, K = M / 2 per class;
        # entry (i, j) of block d in the first block column of H^T is H's
        # entry at unknowns (j, 2d + i), of power m_j - m_{2d+i}, at least
        # 1 - M: every block lies inside Z's window
        m, r = rows.reshape(-1, 2) // 2 + 1, rows.reshape(-1, 2) % 2
        power = m[None, None, 0] - m[:, :, None]
        t = planes[(power + M) * 2 + r[:, :, None]]
        t = t.transpose(1, 2, 0, 3)   # (i, j, d, node)
        y = -planes[(M - m[:, :, None]) * 2 + r[:, :, None]]
        y = y.transpose(1, 2, 0, 3) * np.array([1.0, -1.0])[p]
        x, piv = _levinson(t, y)
        sol[rows] = x.transpose(2, 0, 1, 3).reshape((len(rows),) + batch)
        pivot = np.minimum(pivot, piv)
    pivot = np.where(nonfinite, np.nan, pivot)
    failed = ~(pivot >= PIVOT_MIN)
    sol[:, failed] = 0.0
    # column r of W_{-m} is row r of sigma3 W_{-m}^T, negated for r = 1;
    # W_0 = I
    w = np.moveaxis(sol.reshape((M, 2) + batch), (0, 1), (-2, -1))
    W = MatrixLoop(np.concatenate([w[..., ::-1, :] * [1.0, -1.0],
                                   np.ones(batch + (1, 2))], axis=-2), -M)

    # the solve leaves the negative powers free, and W Z on 0..2N reads no
    # negative power of Z
    Zp = W.mul(Z, 0, 2 * N)

    # Zp_0 is diagonal; failed nodes get B+ = I below, so keep them out of
    # the positivity test
    z0 = np.where(failed[..., None], 1.0, Zp.entries[..., 0, :])
    bad_r1 = (z0[..., 0].real <= 0) | (
        np.abs(z0[..., 0].imag) > 1e-6 * np.abs(z0[..., 0].real) + 1e-12)
    r1 = np.sqrt(np.where(bad_r1, 1.0, z0[..., 0].real))
    bad_r2 = z0[..., 1].real <= 0
    r2 = np.sqrt(np.where(bad_r2, 1.0, z0[..., 1].real))
    failed = failed | bad_r1 | bad_r2

    # B+ = C^{-1} Zp with C^{-1} = diag(1 / r1, 1 / r2): each entry scaled at
    # its row
    bp = Zp.entries * np.stack([1.0 / r1, 1.0 / r2], axis=-1)[..., Zp.rows]
    bp[failed] = 0.0
    bp[failed, 0] = 1.0
    Bp = MatrixLoop(bp, 0)

    # B+^{-1} by its power series: to N for a minus-loop, where it has no
    # power above N (B+^{-1} = adj B+ / det B+, det B+ constant) and the
    # series' powers above N would be round-off alone; to 2N for a Phi with
    # positive powers, whose B+^{-1} is an infinite series
    binv = plus_loop_inverse(Bp, N if minus else 2 * N)
    return phi.mul(binv, -N, N), Bp, pivot, failed


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

    t (2, 2, K, n) holds block (k + d, k) of T at d; the blocks above the
    diagonal are the adjoints of those below.  y is (2, 1, K, n).
    Section k + 1 extends the monic forward predictor a (T a = [P, 0..0])
    and backward predictor b (T b = [0..0, Q]) of section k; Q is the Schur
    complement S_k of T's leading k blocks in its first k + 1, and T x = y
    is solved section by section along b.  The sums over a section run in
    a fixed order.  Returns x (2, 1, K, n) and, per node, the smallest
    reciprocal 2x2 condition of S_0..S_{K-1} (0 when one is singular).
    """
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
            # Delta = sum_j t_{k+1-j} a_j and eps = sum_j t_{k+1-j} x_j
            prod = mm2(t[:, :, k + 1:0:-1], ax[:, :, :k + 1])
            acc = prod[:, :, 0]
            for j in range(1, k + 1):
                acc = acc + prod[:, :, j]
            D, eps = acc[:, :2], acc[:, 2:]
            # by symmetry, T [0, b] = [Delta^dag, 0.., Q]
            Dh = np.swapaxes(D, 0, 1).conj()
            G = mm2(Qinv, D)
            H = mm2(inv2(P), Dh)
            # a_j -= b_{k+1-j} G and b_j -= a_{k+1-j} H for j = 1..k + 1:
            # at j = 0 both read block k + 1, still zero, and a_0 = b_0 = I
            da = mm2(br[:, :, k::-1], G[:, :, None])
            br[:, :, 1:k + 2] -= mm2(a[:, :, k::-1], H[:, :, None])
            a[:, :, 1:k + 2] -= da
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
    nodes at a time; F B+ and F^dag sigma3 F are formed entrywise.  Entry
    (r, c) sums column c's entries over the powers of parity r + c: the
    table holds the other parity's powers at 0."""
    keep = np.ones(phi.batch_shape, dtype=bool) if mask is None else mask
    keep = keep.reshape(-1)
    lam = _circle_samples(8)[:, None]
    loops = []
    for L in (phi, F, Bp):
        p = L.low + np.arange(L.entries.shape[-2])
        table = np.where(p % 2 == np.arange(2)[:, None, None], lam ** p, 0.0)
        loops.append((table[:, None], L.entries.reshape(-1, len(p), 2)))
    parity = np.array([[0, 1], [1, 0]])   # r + c, the table of entry (r, c)
    rows = np.array([1.0, -1.0])[:, None, None, None]   # sigma3 from the left
    recon = reality = 0.0
    for start in range(0, keep.size, BLOCK):
        part = np.flatnonzero(keep[start:start + BLOCK]) + start
        pv, fv, bv = (np.matmul(table, e[part].T)[parity, [0, 1]]
                      for table, e in loops)
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
    frame_loop: MatrixLoop     # gauged frame used for the surfaces
    report: BigCellReport
    sym: list                  # SymOutput per lam sample, with its frame
    recon_residual: float
    reality_residual: float
    mask: np.ndarray           # export mask: big-cell failures + exclusions
    self_dual: bool            # run the self-duality checks in verify
    order: int                 # truncation order factorized, `trim_to_tail`
    order_cap: int             # the order Phi was computed at
    tail: float                # Phi's relative tail at `order`


def frame_field_from_loop(floop, lam, grid):
    """A frame loop's value and exact first and second lam derivatives."""
    return FrameField(F=floop.eval(lam), F_lam=floop.eval(lam, 1),
                      F_lam2=floop.eval(lam, 2), lam=complex(lam), grid=grid)


def _dirac_gauge(xi, grid, F, Bp, mask):
    """Point-dependent diagonal gauge making the frame an extended frame,
    applied to F and B+ in place; returns `mask` less the degenerate nodes.

    The factorization normalization leaves a residual U(1) right gauge
    k(z) = diag(e^{i theta}, e^{-i theta}); the lowest spectral coefficient
    of F^{-1} dz F equals b0 xi_{-1} b0^{-1} with b0 = B+(0), and theta is
    chosen so its (1,2) entry lands on the negative imaginary axis (the
    Dirac-potential slot -e^{w/2} with e^{w/2} in i R_+).
    """
    b0 = np.moveaxis(Bp.coeff(0), (-2, -1), (0, 1))
    xi_m1 = xi.eval_grid(grid.zz, -1)
    slot = mm2(mm2(b0, xi_m1), inv2(b0))[0, 1]
    degenerate = np.abs(slot) < 1e-12 * np.max(np.abs(slot))
    theta = 0.5 * (np.angle(np.where(degenerate, 1.0, slot)) + 0.5 * np.pi)
    phase = np.exp(1j * theta)
    # the diagonal of k: F k scales each entry at its column, conj(k) B+ at
    # its row, one power parity at a time.  Each product keeps its operand
    # order: numpy's complex multiply is not bitwise commutative
    k = np.stack([phase, np.conj(phase)], axis=-1)
    np.multiply(F.entries, k[..., None, :], out=F.entries)
    for p, rows in enumerate(Bp.rows[:2]):
        e = Bp.entries[..., p::2, :]
        np.multiply(np.conj(k)[..., None, rows], e, out=e)
    return mask & ~degenerate


def dpw_pipeline(xi, grid, lam_samples=(1.0 + 0.0j,), order=DEFAULT_ORDER,
                 exclude_disk=None, self_dual=False):
    """Potential -> loops -> factorization -> both surfaces per parameter.

    Phi(0) = I; Phi is computed at `order`, the cap, and factorized at the
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
    ok_mask = _dirac_gauge(xi, grid, F, Bp, report.ok())
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

    # SPINOR_GAUGE F, in place: each entry scaled at its row
    floop = MatrixLoop(np.multiply(np.diag(SPINOR_GAUGE)[F.rows], F.entries,
                                   out=F.entries), F.low)
    # the frame evaluation below sets the pipeline's peak memory: keep only
    # the loop it reads
    del phi, F, Bp

    frames = [frame_field_from_loop(floop, lam, grid) for lam in lam_samples]
    return PipelineResult(grid=grid, frame_loop=floop, report=report,
                          sym=sym_sheets(frames, ok_mask, mask),
                          recon_residual=recon, reality_residual=reality,
                          mask=mask, self_dual=self_dual,
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

"""The weighted variational constant J(b, beta) on (0, 1).

J(b, beta) is the infimum of

    integral_0^1  w(x) * ( b/2 * u^2 + (3-b)/2 * u_x^2 ) dx

over u in H^1(0, 1) with u(0) = u(1) = 1, where w = p + beta*p'.  Two
independent routes are provided:

* ``compute_j_bvp``: substitute u = 1 + v, solve the Euler-Lagrange boundary
  value problem (3-b) (w v')' = b w (v + 1), v(0) = v(1) = 0, and evaluate
  the boundary-flux identity J = (3-b)/2 * [(w v')(1-) - (w v')(0+)].
* ``compute_j_direct``: minimize the discretized quadratic functional over
  piecewise-linear v vanishing at both endpoints and read off
  J = b/2 + T(v_min).

The BVP route is the production path, also at the degenerate weight; the
direct minimization is kept as an independent oracle.  Above the threshold
search's n = 4096, whose grids are memoized, both routes build their
full-length arrays per call and in place: a few buffers are reused, in the
order of operations of the plain array expressions, so the bits are those
of the expressions; at most seven such arrays are alive at once, the
solver's copies included, and none outlives the call.

``compute_j_spectral`` encloses J between two spectral bounds (Prager and
Synge's two-energy bound): the Ritz minimum over u = 1 + x(1-x) sum c_k
P_k(2x-1) from above, and the complementary-energy maximum over
sigma = sum d_k P_k(2x-1) from below,

    J >= sigma(1) - sigma(0) - integral sigma^2/(2(3-b)w) + sigma'^2/(2bw),

which holds for every sigma because b/2 w u^2 >= sigma' u - sigma'^2/(2bw)
and (3-b)/2 w u_x^2 >= sigma u_x - sigma^2/(2(3-b)w) pointwise.  The
threshold search uses it to skip BVP solves whose sign it already knows.

Discretization notes (constraints, not style):

* The self-adjoint form (w v')' is discretized with harmonic-mean face
  weights.  At beta = +-(e+1)/(e-1) the weight vanishes at one endpoint and
  the harmonic mean zeroes the first face conductance, which is exactly the
  natural (no-flux) condition the degenerate problem imposes there; a
  midpoint face weight would instead pin a spurious boundary layer.
* The endpoint flux (w v')(0+) has a finite limit because the equation
  integrates it; it is recovered by quadratic extrapolation of the face
  fluxes through the three faces nearest the endpoint.
* A cosine-stretched grid is used only when |beta| is within 1e-9 of the
  degenerate limit, to resolve the vanishing-weight endpoint.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dptsv

from .errors import BOutOfRange, LinearSolveFailure, NotCoercive
from .kernel import (
    _offset_weight, _weight_from_terms, check_b, check_beta, convolve_dp, convolve_p, eval_dp,
    eval_p, is_b3, is_degenerate, trig_polynomial, unit_weight,
)

_DEFAULT_N = 4096
_GAUSS_OFS = 0.5 / math.sqrt(3.0)  # the two-point Gauss rule's offset from a cell's middle

_SPECTRAL_MODES = 16  # Legendre modes K of both spectral bounds
# A lower bound counts only where it agrees with itself under a doubled
# quadrature, and lies below the upper bound, to this many ulp of max(|J|, 1).
# The dual's rounding error is absolute, about 1e-14 even where J is small
# (b near 3).
_ROUNDING_ULPS = 1024


@dataclass(frozen=True)
class ELSolution:
    """Solution of the Euler-Lagrange BVP on the interior nodes of (0, 1).

    ``flux0`` and ``flux1`` are the extrapolated limits of w*v_x at 0+ and
    1-; ``singular_weight`` marks the degenerate-weight (graded-grid) case.
    """

    b: float
    beta: float
    grid: np.ndarray
    v: np.ndarray
    flux0: float
    flux1: float
    singular_weight: bool = False


@dataclass(frozen=True)
class JResult:
    b: float
    beta: float
    value: float
    method: str  # "BVP_FLUX" | "DIRECT_MIN" | "SPECIAL_B3"
    error_estimate: float


def spd_solve(diag, off, rhs):
    """Solve the symmetric positive-definite tridiagonal system.

    ``diag`` (n,) is the main diagonal, ``off`` (n-1,) the first off-diagonal,
    ``rhs`` (n,) the right-hand side; none is modified.  LAPACK ``dptsv``
    factors the matrix as L D L^T.  Raises ``numpy.linalg.LinAlgError`` when
    the matrix is not positive definite.
    """
    diag = np.asarray(diag, dtype=np.float64)
    off = np.asarray(off, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    n = diag.shape[0]
    if off.shape[0] != max(n - 1, 0) or rhs.shape[0] != n:
        raise ValueError("inconsistent system dimensions")
    if n < 2:  # the LAPACK wrapper rejects an empty off-diagonal
        if not np.all(diag > 0.0):
            raise np.linalg.LinAlgError("leading minor 1 not positive definite")
        return rhs / diag
    _, _, x, info = dptsv(diag, off, rhs)
    if info > 0:
        raise np.linalg.LinAlgError(f"leading minor {info} not positive definite")
    return x


def _nodes(n: int, graded: bool) -> np.ndarray:
    if n < 64:
        raise ValueError(f"need n >= 64 grid cells (got {n})")
    if not graded:
        return np.linspace(0.0, 1.0, n + 1)
    # 0.5 (1 - cos(pi i / n)), built in one array
    x = np.arange(n + 1, dtype=np.float64)
    x *= np.pi
    x /= n
    np.cos(x, out=x)
    np.subtract(1.0, x, out=x)
    x *= 0.5
    return x


def _node_shares(h: np.ndarray) -> np.ndarray:
    # 0.5 (h[:-1] + h[1:]): the lumped mass of each interior node
    share = h[:-1] + h[1:]
    share *= 0.5
    return share


@dataclass(frozen=True)
class _Grid:
    """The beta-independent arrays of the BVP on n cells: nodes x, cell
    widths h, the node shares 0.5 (h[:-1] + h[1:]) of the interior nodes,
    and cosh(x - 1/2), sinh(x - 1/2), from which every weight is built."""

    x: np.ndarray
    h: np.ndarray
    share: np.ndarray
    cosh: np.ndarray
    sinh: np.ndarray

    def weight(self, beta: float) -> np.ndarray:
        return _weight_from_terms(beta * self.sinh, self.cosh)


# The threshold search solves on n = 4096 and 2048 cells, uniform or graded:
# four grids of ~160 kB each.  Larger grids are not kept, so a refinement
# study does not pin them in memory.
@lru_cache(maxsize=4)
def _cached_grid(n: int, graded: bool) -> _Grid:
    x = _nodes(n, graded)
    h = np.diff(x)
    y = x - 0.5
    arrays = (x, h, _node_shares(h), np.cosh(y), np.sinh(y))
    for a in arrays:
        a.flags.writeable = False  # shared by every solve on this grid
    return _Grid(*arrays)


def _face_weights(w_nodes: np.ndarray) -> np.ndarray:
    # The harmonic means 2 wl wr / (wl + wr), built in the array of the
    # products.  A face whose two nodes carry no weight keeps its product,
    # 2 * 0 * 0 = 0: the weights are clipped at +0.
    wl, wr = w_nodes[:-1], w_nodes[1:]
    s = wl + wr
    wf = 2.0 * wl
    wf *= wr
    return np.divide(wf, s, out=wf, where=s > 0.0)


def _assemble(b: float, beta: float, n: int, graded: bool):
    # The nodes x, the tridiagonal system (diag, off, rhs) of the BVP and,
    # for the end fluxes, the face weights and widths of the three faces at
    # each end.  Grids up to the search's n come from the memo.  Larger ones
    # are built here, and the system reuses the arrays of the weight and the
    # face weights, so the solve holds four full-length arrays besides its
    # own copies: at n = 2^20 each fresh 8 MB array costs about 3 ms of page
    # faults.
    if n <= _DEFAULT_N:
        grid = _cached_grid(n, graded)
        x, h, share, w = grid.x, grid.h, grid.share, grid.weight(beta)
    else:
        x = _nodes(n, graded)
        h = np.diff(x)
        share = _node_shares(h)
        w = unit_weight(beta, x)

    a = _face_weights(w)
    ends = a[:3].tolist(), h[:3].tolist(), a[-3:].tolist(), h[-3:].tolist()
    a *= 3.0 - b
    a /= h                                      # face conductances
    q = w[1:-1]                                 # interior node masses b w share
    q *= b
    q *= share
    diag = a[:-1] + a[1:]
    diag += q
    return x, diag, np.negative(a[1:-1], out=a[1:-1]), np.negative(q, out=q), ends


def _extrapolate_to(x0: float, xs, ys) -> float:
    # Quadratic Lagrange extrapolation through three points.
    (x1, x2, x3), (y1, y2, y3) = xs, ys
    l1 = (x0 - x2) * (x0 - x3) / ((x1 - x2) * (x1 - x3))
    l2 = (x0 - x1) * (x0 - x3) / ((x2 - x1) * (x2 - x3))
    l3 = (x0 - x1) * (x0 - x2) / ((x3 - x1) * (x3 - x2))
    return y1 * l1 + y2 * l2 + y3 * l3


def _end_flux(x0: float, x, wf, h, v) -> float:
    # The fluxes wf (v_{i+1} - v_i) / h_i on the three faces between four
    # nodes x with values v, extrapolated from the face midpoints to x0; in
    # Python floats, as the arrays are short.
    mids = [0.5 * (left + right) for left, right in zip(x, x[1:])]
    flux = [f * (right - left) / s for f, left, right, s in zip(wf, v, v[1:], h)]
    return _extrapolate_to(x0, mids, flux)


def solve_euler_lagrange(b: float, beta: float, n: int = _DEFAULT_N) -> ELSolution:
    """Solve (3-b) (w v')' = b w (v + 1) with v(0) = v(1) = 0 on n cells."""
    check_b(b, open_top=True)
    check_beta(beta)
    graded = bool(is_degenerate(beta))
    x, diag, off, rhs, (wf0, h0, wf1, h1) = _assemble(b, beta, n, graded)
    try:
        v = spd_solve(diag, off, rhs)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveFailure(
            f"tridiagonal system singular at b={b}, beta={beta}, n={n}"
        ) from exc

    # The three faces at each end, closed by v(0) = v(1) = 0.
    flux0 = _end_flux(0.0, x[:4].tolist(), wf0, h0, [0.0] + v[:3].tolist())
    flux1 = _end_flux(1.0, x[-4:].tolist(), wf1, h1, v[-3:].tolist() + [0.0])
    return ELSolution(
        b=b, beta=beta, grid=x[1:-1], v=v,
        flux0=flux0, flux1=flux1, singular_weight=graded,
    )


def _j_bvp_value(b: float, beta: float, n: int) -> float:
    sol = solve_euler_lagrange(b, beta, n)
    return 0.5 * (3.0 - b) * (sol.flux1 - sol.flux0)


def _richardson_error(j_value, b: float, beta: float, n: int, value: float) -> float:
    # Second-order scheme: solving at n/2 gives error(n) ~ |J_n - J_{n/2}| / 3.
    # For small n the refinement runs upward instead.
    if n // 2 >= 64:
        n2, factor = n // 2, 1.0 / 3.0
    else:
        n2, factor = 2 * n, 4.0 / 3.0
    return factor * abs(value - j_value(b, beta, n2))


def compute_j_bvp(b: float, beta: float, n: int = _DEFAULT_N) -> JResult:
    """J via the Euler-Lagrange boundary-flux identity, with a grid-refinement
    error estimate."""
    value = _j_bvp_value(b, beta, n)
    return JResult(
        b=b, beta=beta, value=value, method="BVP_FLUX",
        error_estimate=_richardson_error(_j_bvp_value, b, beta, n, value),
    )


def _gauss_weights(beta: float, n: int):
    # The cell widths h and the weight at the two Gauss points
    # x + (1/2 -+ 1/(2 sqrt 3)) h of each cell; the nodes die with the call.
    x = _nodes(n, is_degenerate(beta))
    h = np.diff(x)
    weights = []
    for c in (0.5 - _GAUSS_OFS, 0.5 + _GAUSS_OFS):
        y = h * c
        y += x[:-1]                             # the Gauss point
        y -= 0.5
        weights.append(_offset_weight(y, beta))
    return h, *weights


def _gauss_sum(half_h, w1, c1, w2, c2, d1=None, d2=None):
    # The element integral 0.5 h (w1 c1 d1 + w2 c2 d2), or without the d's,
    # by the two-point rule; one array besides its result.
    t = w1 * c1
    u = w2 * c2
    if d1 is not None:
        t *= d1
        u *= d2
    t += u
    t *= half_h
    return t


def _direct_system(b: float, beta: float, n: int):
    # The P1 system of the direct route, with s = 3 - b,
    #   diag = b (m_rr[:-1] + m_ll[1:]) + s (k[:-1] + k[1:]),
    #   off = b m_lr[1:-1] - s k[1:-1],   f = b (f_r[:-1] + f_l[1:]),
    # and its right-hand side -f.  Each element matrix or load is summed
    # into the system once it is complete, and the weights' arrays hold the
    # last one, so at most seven full-length arrays are alive at once.
    h, w1, w2 = _gauss_weights(beta, n)
    pl1, pl2 = 0.5 + _GAUSS_OFS, 0.5 - _GAUSS_OFS   # left hat at the two Gauss points
    pr1, pr2 = 0.5 - _GAUSS_OFS, 0.5 + _GAUSS_OFS
    s = 3.0 - b

    k = w1 + w2                              # local stiffness (sign applied below)
    k *= 0.5
    k /= h
    h *= 0.5
    diag = _gauss_sum(h, w1, pr1, w2, pr2, pr1, pr2)[:-1]      # m_rr
    diag += _gauss_sum(h, w1, pl1, w2, pl2, pl1, pl2)[1:]      # m_ll
    diag *= b
    diag += s * (k[:-1] + k[1:])
    off = _gauss_sum(h, w1, pl1, w2, pl2, pr1, pr2)[1:-1]     # m_lr
    off *= b
    k *= s
    off -= k[1:-1]
    del k                                     # spent: one array fewer for the loads
    fvec = _gauss_sum(h, w1, pr1, w2, pr2)[:-1]                # f_r
    w1 *= pl1                                                   # f_l
    w2 *= pl2
    w1 += w2
    w1 *= h
    fvec += w1[1:]
    fvec *= b
    return diag, off, np.negative(fvec, out=fvec)


def _j_direct_value(b: float, beta: float, n: int) -> float:
    # Only the lower end of the b range is authoritative here: b > 3 is left
    # to the positive-definiteness check, which reports it as NotCoercive.
    if not b > 1.0:
        raise BOutOfRange(f"direct minimization requires b > 1 (got b = {b})")
    diag, off, rhs = _direct_system(b, beta, n)
    try:
        v = spd_solve(diag, off, rhs)
    except np.linalg.LinAlgError as exc:
        raise NotCoercive(
            f"quadratic form not positive definite at b={b}, beta={beta}"
        ) from exc
    # 0.5 b + 0.5 f.v with f = -rhs, to the bit: negation commutes with every
    # rounding of the sum.
    return 0.5 * b - 0.5 * float(rhs @ v)


def compute_j_direct(b: float, beta: float, n: int = _DEFAULT_N) -> JResult:
    """J via direct minimization of the quadratic functional (P1 elements).

    Independent of the BVP route; also accepts b = 3, where the infimum is
    approached through endpoint boundary layers and the values decrease
    toward it under refinement.  At the degenerate weight it converges at
    an order well below two, so its Richardson band there is not a bound:
    it understates the error (about 57x at b = 2.5, n = 2^20).
    """
    value = _j_direct_value(b, beta, n)
    return JResult(
        b=b, beta=beta, value=value, method="DIRECT_MIN",
        error_estimate=_richardson_error(_j_direct_value, b, beta, n, value),
    )


def compute_j(b: float, beta: float, n: int = _DEFAULT_N) -> JResult:
    """J(b, beta) for b in (1, 3] and |beta| <= (e+1)/(e-1).

    b = 3 is exact (J = 0); otherwise the BVP flux value on n cells with
    its Richardson error estimate (``compute_j_bvp``), which stays second
    order on the graded grid of the degenerate weight.
    """
    check_b(b)
    check_beta(beta)
    if is_b3(b):
        # At b = 3 the gradient penalty vanishes: thin layers at the endpoints
        # drive the weighted mass of u to zero at no cost, so J = 0.  The
        # direct-minimization refinement sequence is the guard for this value.
        return JResult(b=b, beta=beta, value=0.0, method="SPECIAL_B3", error_estimate=0.0)
    return compute_j_bvp(b, beta, n)


def _gauss(points: int):
    t, q = np.polynomial.legendre.leggauss(points)
    return 0.5 * (t + 1.0), 0.5 * q


@lru_cache(maxsize=None)
def _spectral_forms():
    """The b- and beta-independent quadrature forms of the spectral bounds.

    Ritz, for the two parts p and p' of w = p + beta p': int w phi,
    int w phi phi^T and int w phi' phi'^T over phi_k = x(1-x) P_k(2x-1),
    k < K = _SPECTRAL_MODES, by the Q-point Gauss-Legendre rule,
    Q = max(2K + 16, 64), which is exact for the polynomial factors.  Dual,
    for the Q- and the 2Q-point rule: p, p' and the weights at the nodes;
    per node the entries of P P^T stacked over those of P' P'^T, each
    bordered by a zero row and column; and the border, e_k = P_k(1) -
    P_k(-1) in the last row and column with a corner of 7.  Bordered by e,
    the Cholesky factor's last row starts with L_B^-1 e whatever the corner;
    the corner only keeps the bordered matrix definite, and exceeds
    e^T B^-1 e = 2 max(dual) <= 2 J <= b < 3.
    """
    legendre = np.polynomial.legendre
    modes = _SPECTRAL_MODES
    quad = max(2 * modes + 16, 64)
    derivative = legendre.legder(np.eye(modes))

    def basis(x):
        t = 2.0 * x - 1.0
        return legendre.legvander(t, modes - 1), 2.0 * legendre.legval(t, derivative).T

    x, q = _gauss(quad)
    p, dp = basis(x)
    phi = (x * (1.0 - x))[:, None] * p
    dphi = (1.0 - 2.0 * x)[:, None] * p + (x * (1.0 - x))[:, None] * dp
    ritz = []
    for part in (eval_p(x), eval_dp(x)):
        qw = q * part
        ritz.append((qw @ phi, phi.T @ (qw[:, None] * phi), dphi.T @ (qw[:, None] * dphi)))

    border = np.zeros((modes + 1, modes + 1))
    border[modes, :modes] = border[:modes, modes] = 1.0 - (-1.0) ** np.arange(modes)
    border[modes, modes] = 7.0
    dual = []
    for points in (quad, 2 * quad):
        x, q = _gauss(points)
        p, dp = (np.pad(a, ((0, 0), (0, 1))) for a in basis(x))
        forms = np.concatenate((np.einsum("qi,qj->qij", p, p).reshape(points, -1),
                                np.einsum("qi,qj->qij", dp, dp).reshape(points, -1)))
        dual.append((eval_p(x), eval_dp(x), q, forms, border))
    return ritz, dual


class SpectralJ:
    """Spectral bounds on J(b, beta) at one b, vectorised over beta.

    Upper bound: w is affine in beta, so the Ritz matrix and load are
    A0 + beta A1 and g0 + beta g1.  One decomposition of the symmetric-
    definite pencil (A1, A0), V^T A0 V = I and V^T A1 V = diag(lam), gives
    for every beta

        upper(beta) = b/2 - 1/2 sum_i (h0_i + beta h1_i)^2 / (1 + beta lam_i)

    with h = V^T g (w integrates to 1).  The pencil is reduced through the
    Cholesky factor A0 = L L^T to the symmetric eigenproblem of
    L^-1 A1 L^-T, with numpy's LAPACK routines, which the Gauss rules and
    the lower bound load anyway.  Lower bound: the maximum over
    sigma = sum d_k P_k(2x-1) of the dual functional, 1/2 e^T B(beta)^-1 e
    with e_k = P_k(1) - P_k(-1) and B(beta) = int (P P^T/(3-b) + P' P'^T/b)/w.
    Each call builds B from the b-free forms of ``_spectral_forms``, so the
    instance keeps no dual state; it needs one Cholesky factorisation per
    beta, all betas in one batch.
    """

    def __init__(self, b: float):
        check_b(b, open_top=True)
        (g0, m0, s0), (g1, m1, s1) = _spectral_forms()[0]
        l_inv = np.linalg.inv(np.linalg.cholesky(b * m0 + (3.0 - b) * s0))
        lam, vec = np.linalg.eigh(l_inv @ (b * m1 + (3.0 - b) * s1) @ l_inv.T)
        vt = vec.T @ l_inv                      # V^T
        self.b = b
        self._lam = lam
        self._h0 = b * (vt @ g0)
        self._h1 = b * (vt @ g1)

    def upper(self, beta):
        """The Ritz upper bound at each beta."""
        beta = np.asarray(beta, dtype=np.float64)[..., None]
        h = self._h0 + beta * self._h1
        return 0.5 * self.b - 0.5 * np.sum(h * h / (1.0 + beta * self._lam), axis=-1)

    def _dual(self, beta, rule):
        # B(beta) = int (q/w) (P P^T / (3-b) + P' P'^T / b), bordered by e:
        # the b-free forms, weighted per node and beta.
        p, dp, q, forms, border = rule
        qw = q / (p + beta[:, None] * dp)
        weights = np.concatenate((qw / (3.0 - self.b), qw / self.b), axis=1)
        mats = (weights @ forms).reshape(-1, *border.shape) + border
        row = np.linalg.cholesky(mats)[:, -1, :-1]
        return 0.5 * np.einsum("ij,ij->i", row, row)

    def lower(self, beta):
        """The dual lower bound at each beta of a 1-d array; -inf at the
        degenerate weight, and wherever doubling the quadrature moves the
        bound, or the bound exceeds the upper one, by more than the rounding
        allowance.  All betas are one batched call: a failed factorisation
        leaves every bound of the call at -inf."""
        beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))
        upper = self.upper(beta)
        allowance = _ROUNDING_ULPS * np.finfo(np.float64).eps * np.maximum(np.abs(upper), 1.0)
        lower = np.full(beta.shape, -np.inf)
        # the 1/w quadrature needs w > 0 on [0, 1]
        idx = np.flatnonzero(~is_degenerate(beta))
        coarse_rule, fine_rule = _spectral_forms()[1]
        try:
            coarse = self._dual(beta[idx], coarse_rule)
            fine = self._dual(beta[idx], fine_rule)
        except np.linalg.LinAlgError:
            return lower
        ok = (np.abs(fine - coarse) <= allowance[idx]) & (fine <= upper[idx] + allowance[idx])
        lower[idx[ok]] = fine[ok]
        return lower


def compute_j_spectral(b: float, beta: float) -> tuple[float, float]:
    """Two-sided spectral enclosure ``(upper, lower)`` of J(b, beta) for
    1 < b < 3.

    The upper bound is the Ritz minimum over u = 1 + x(1-x) sum c_k
    P_k(2x-1), the lower bound the complementary-energy maximum over
    sigma = sum d_k P_k(2x-1), k < K.  ``lower`` is -inf where no lower
    bound is certified: at the degenerate weight, or where the dual's
    quadrature has not converged.  Both are computed in floating point, so
    they hold to a rounding allowance of 1024 ulp of max(|J|, 1).
    """
    check_beta(beta)
    spec = SpectralJ(b)
    return float(spec.upper(beta)), float(spec.lower(beta)[0])


@dataclass(frozen=True)
class ConvolutionBoundReport:
    """Minimum pointwise slack of the convolution lower bound for one field."""

    min_slack: float
    x_at_min: float


def check_convolution_bound(
    cos_coeffs, sin_coeffs, b: float, beta: float, n: int = 4096
) -> ConvolutionBoundReport:
    """Slack of (p + beta*p') * (b/2 u^2 + (3-b)/2 u_x^2) >= J(b, beta) u^2.

    The field is the trigonometric polynomial
    u = sum_k cos_coeffs[k] cos(2 pi k x) + sin_coeffs[k] sin(2 pi k x),
    with at most 32 modes; the slack is evaluated on an n-point grid.
    """
    cos_coeffs = np.asarray(cos_coeffs, dtype=np.float64)
    sin_coeffs = np.asarray(sin_coeffs, dtype=np.float64)
    if max(cos_coeffs.shape[0], sin_coeffs.shape[0]) > 33:
        raise ValueError("at most 32 Fourier modes are supported")

    x = np.arange(n) / n
    u, ux = trig_polynomial(cos_coeffs, sin_coeffs, x)

    g = 0.5 * b * u * u + 0.5 * (3.0 - b) * ux * ux
    lhs = convolve_p(g) + beta * convolve_dp(g)
    slack = lhs - compute_j(b, beta).value * u * u
    i = int(np.argmin(slack))
    return ConvolutionBoundReport(min_slack=float(slack[i]), x_at_min=float(x[i]))

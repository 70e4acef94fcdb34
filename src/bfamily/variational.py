"""The weighted variational constant J(b, beta) on (0, 1).

J(b, beta) is the infimum of

    integral_0^1  w(x) * ( b/2 * u^2 + (3-b)/2 * u_x^2 ) dx

over u in H^1(0, 1) with u(0) = u(1) = 1, where w = p + beta*p'.  Two
independent routes are provided:

* ``compute_j_bvp``: substitute u = 1 + v, solve the Euler-Lagrange boundary
  value problem (3-b) (w v')' = b w (v + 1), v(0) = v(1) = 0, and evaluate
  the boundary-flux identity J = (3-b)/2 * [(w v')(1-) - (w v')(0+)].
* ``compute_j_direct``: minimize the discretized quadratic functional over
  piecewise-linear v vanishing at both endpoints, its cell matrices those of
  the two-point Gauss rule in closed form, and read off J = b/2 + T(v_min).

The BVP route is the production path, also at the degenerate weight; the
direct minimization is kept as an independent oracle.  Both return through
one shell, which checks beta, solves at n and at the companion grid of the
Richardson band, and builds the ``JResult``.  Above the threshold search's
n = 4096 the companion is solved in a worker thread beside the caller's
solve, as ``spd_solve`` releases the GIL; up to it the two run one after the
other.  One builder (``_system``) assembles either route's tridiagonal system
from the route's block function and solves it in place.  Up to n = 4096 both
read the memoized grid, as one block; above it the system is built per call,
block by block, each block's nodes built for it.  A row reads only its own
cells, and a node only its own index, so the bits do not depend on the
blocks.  As the solve overwrites the system, a system holds three full-length
arrays besides a few block-sized temporaries (a call above 4096, with its companion
beside it, four and a half), and a J evaluation keeps none of them.

``SpectralJ`` encloses J between two spectral bounds (Prager and Synge's
two-energy bound): the Ritz minimum over u = 1 + x(1-x) sum c_k
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
* Both routes take one mesh rule (``_graded``): a cosine-stretched grid
  when |beta| is within 1e-9 of the degenerate limit, to resolve the
  vanishing-weight endpoint, and when the end layers of width
  sqrt((3-b)/b) near b = 3 are thinner than 16 cells of the 4096-cell grid.
"""

import ctypes
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import LinearSolveFailure
from .kernel import (
    _offset_weight, _weight_from_terms, check_b, check_beta, eval_dp, eval_p, is_b3,
    is_degenerate,
)

_DEFAULT_N = 4096
_MIN_N = 64  # fewest grid cells of any J value and its band, b = 3 included
# Most grid cells: 16x the 2^20 of perfbench's j-refine workload.  A solve on
# n cells holds three n-float arrays, and its companion on n/2 cells, solved
# beside it, half as many again: 576 MiB at this n.  The check runs before any
# of them is built, so a larger n is a ValueError, not a MemoryError.
_MAX_N = 2**24
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
    1-.  ``grid``, the interior nodes, is built when read, so a solution
    keeps one full-length array, ``v``; the nodes are cosine-graded by the
    mesh rule both J routes take (``_graded``): at the degenerate weight
    (``kernel.is_degenerate``) and for b near 3.
    """

    b: float
    beta: float
    v: np.ndarray
    flux0: float
    flux1: float

    @property
    def grid(self) -> np.ndarray:
        return _nodes(self.v.size + 1, _graded(self.b, self.beta))[1:-1]


@dataclass(frozen=True)
class JResult:
    b: float
    beta: float
    value: float
    method: str  # "BVP_FLUX" | "DIRECT_MIN" | "SPECIAL_B3"
    error_estimate: float


@lru_cache(maxsize=None)
def _dptsv():
    # LAPACK's dptsv as a CFUNCTYPE function, whose call releases the GIL:
    # dptsv(n, nrhs, d, e, b, ldb, info), every argument by reference, the
    # integers C ints, as scipy's _flapack is its LP64 build.  Its address is
    # the one scipy's f2py wrapper exposes in a PyCapsule (``_cpointer``); the
    # routine keeps that object as ``wrapper``, which holds the capsule alive
    # and gives the bits to check it against.  The wrapper is loaded at the
    # first solve from scipy's compiled wrapper module, with scipy's
    # top-level package but not scipy.linalg.
    # `from scipy.linalg.lapack import dptsv` runs all of scipy.linalg's
    # package init: about 0.33 s, +27 MB RSS and 332 modules in a fresh
    # process.  `import scipy` (its distributor hook, which may set up the
    # BLAS/LAPACK libraries, and its numpy version check) and then the
    # extension cost about 15 ms and +3.2 MB (2-core x86-64, Python 3.11,
    # scipy 1.17).  The extension is found by the finders the import system
    # would ask for scipy.linalg's submodule.  A module already in
    # sys.modules is reused.  One loaded here is taken out of sys.modules
    # again, since with scipy.linalg not imported a later `import
    # scipy.linalg` would take it from there without binding it as
    # scipy.linalg._flapack; that import loads it anew, and CPython builds
    # the new module from the first one's namespace (f2py modules use
    # single-phase init), so it holds the same routine.
    import importlib.util
    import os
    import sys

    import scipy

    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        dirs = [os.path.join(d, "linalg") for d in scipy.__path__]
        specs = (finder.find_spec(name, dirs) for finder in sys.meta_path)
        spec = next(filter(None, specs), None)
        if spec is None:
            raise ImportError(f"scipy's LAPACK extension {name} not found in {dirs}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.pop(name, None)
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    c_int, c_double = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
    routine = ctypes.CFUNCTYPE(None, c_int, c_int, c_double, c_double, c_double, c_int,
                               c_int)(capsule_pointer(module.dptsv._cpointer, None))
    routine.wrapper = module.dptsv
    return routine


_ONE = ctypes.c_int(1)  # dptsv's nrhs, read only


def spd_solve(diag, off, rhs, overwrite=False):
    """Solve the symmetric positive-definite tridiagonal system.

    ``diag`` (n,) is the main diagonal, ``off`` (n-1,) the first off-diagonal,
    ``rhs`` (n,) the right-hand side; none is modified unless ``overwrite``
    is true, when the solver may use all three as its workspace.  Contiguous,
    aligned, writeable float64 arrays are then overwritten: ``diag`` and
    ``off`` with the factors of the matrix as L D L^T (D, and the
    subdiagonal of the unit bidiagonal L), and ``rhs`` with the solution,
    which is then ``rhs`` itself.
    LAPACK ``dptsv`` is the ctypes routine of ``_dptsv``, at the address
    that scipy's f2py wrapper of it exposes, so the call releases the GIL
    and two solves can run in two threads; the bits are the wrapper's, which
    the routine keeps as ``_dptsv().wrapper``.  The first call loads the
    top-level ``scipy`` package and its LAPACK extension (about 15 ms, see
    ``_dptsv``), not ``scipy.linalg``.  Raises
    ``numpy.linalg.LinAlgError`` when the matrix is not positive definite.
    """
    diag = np.asarray(diag, dtype=np.float64)
    off = np.asarray(off, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    n = diag.shape[0]
    if diag.shape != (n,) or off.shape != (max(n - 1, 0),) or rhs.shape != (n,):
        raise ValueError("inconsistent system dimensions")
    if n < 2:  # the off-diagonal is empty, and ctypes passes no empty buffer
        if not np.all(diag > 0.0):
            raise np.linalg.LinAlgError("leading minor 1 not positive definite")
        return rhs / diag
    d, e, x = [a if overwrite and a.flags.carray else a.copy() for a in (diag, off, rhs)]
    size, info, buffer = ctypes.c_int(n), ctypes.c_int(0), ctypes.c_double.from_buffer
    _dptsv()(size, _ONE, buffer(d), buffer(e), buffer(x), size, info)
    if info.value > 0:
        raise np.linalg.LinAlgError(f"leading minor {info.value} not positive definite")
    return x


def _check_n(n: int) -> None:
    if not isinstance(n, numbers.Integral) or n < _MIN_N:
        raise ValueError(f"need n >= {_MIN_N} grid cells (got {n}), as an integer")
    if n > _MAX_N:
        raise ValueError(f"need n <= {_MAX_N} grid cells (got {n})")


def _graded(b: float, beta: float) -> bool:
    # The mesh rule of both routes: graded at the degenerate weight, and
    # where the end layers, of width sqrt((3-b)/b), are thinner than 16 cells
    # of the 4096-cell grid.  It reads only b and beta, so a value and its
    # Richardson companion are solved on like grids.
    return bool(is_degenerate(beta)) or 3.0 - b < b * (16 / _DEFAULT_N) ** 2


def _nodes(n: int, graded: bool, start: int = 0, stop: int | None = None) -> np.ndarray:
    # The nodes start .. stop-1 of the n-cell grid, all n + 1 by default.  A
    # node is built from its own index by elementwise operations, so a block
    # of nodes holds the bits of the same nodes of the whole grid.
    stop = n + 1 if stop is None else stop
    x = np.arange(start, stop, dtype=np.float64)
    if not graded:
        # np.linspace(0, 1, n + 1)'s arithmetic: i * (1/n), the last node 1
        x *= 1.0 / n
        if stop == n + 1:
            x[-1] = 1.0
        return x
    # 0.5 (1 - cos(pi i / n)), built in one array
    x *= np.pi
    x /= n
    np.cos(x, out=x)
    np.subtract(1.0, x, out=x)
    x *= 0.5
    return x


# Unknowns per assembly block above the memoized grids: the temporaries of a
# block stay cache-sized, and fewer, larger blocks pay less per-call
# overhead.  Assembly at n = 2^20 in ms (BVP uniform, BVP graded, direct;
# medians of 21 interleaved runs on a 2-core x86-64 host): 2^12: 31, 47, 57;
# 2^13: 27, 42, 46; 2^14: 25, 39, 41; 2^15: 27, 41, 41; 2^16: 30, 44, 53;
# 2^17: 35, 50, 66; one full-length pass: 33, 47, 79.
_BLOCK = 2**14


def _blocks(n: int):
    # (j0, j1) for each block of the n - 1 unknowns: unknowns j0 .. j1-1,
    # which are the nodes j0+1 .. j1, so the block reads the nodes j0 .. j1+1
    # and the cells j0 .. j1, one cell shared with the block before.  A last
    # block of one unknown is joined to the one before it: every block has at
    # least three cells, as the end fluxes read at each end.
    j0 = 0
    while j0 < n - 1:
        j1 = j0 + _BLOCK if j0 + _BLOCK < n - 2 else n - 1
        yield j0, j1
        j0 = j1


class _Grid:
    """The beta-independent arrays of either route on a run of cells: nodes x,
    cell widths h, the node shares 0.5 (h[:-1] + h[1:]) of the inner nodes,
    and cosh(x - 1/2), sinh(x - 1/2) of the BVP's weight.  All but x are
    built when first read: the direct route reads x and h only."""

    def __init__(self, x: np.ndarray):
        self.x = x

    @cached_property
    def h(self) -> np.ndarray:
        return np.diff(self.x)

    @cached_property
    def share(self) -> np.ndarray:
        share = self.h[:-1] + self.h[1:]
        share *= 0.5
        return share

    @cached_property
    def cosh(self) -> np.ndarray:
        return np.cosh(self.x - 0.5)

    @cached_property
    def sinh(self) -> np.ndarray:
        return np.sinh(self.x - 0.5)

    def weight(self, beta: float) -> np.ndarray:
        return _weight_from_terms(beta * self.sinh, self.cosh)


# Both routes' grids up to n = 4096, sized for the threshold search's n = 4096
# and 2048, uniform or graded: four grids of ~160 kB each, built once and
# shared read-only.  Larger grids are not kept, so a refinement study does not
# pin them in memory.  The benchmark's direct route starts at n = 2^14, so its
# traffic on the memo is the search's alone.
@lru_cache(maxsize=4)
def _cached_grid(n: int, graded: bool) -> _Grid:
    grid = _Grid(_nodes(n, graded))
    for a in (grid.x, grid.h, grid.share, grid.cosh, grid.sinh):
        a.flags.writeable = False
    return grid


def _system(block, b: float, beta: float, n: int):
    # Either route's tridiagonal system, built and solved in place: (v, diag,
    # off, parts), the solution, the L D L^T factors the solve leaves, and
    # what ``block`` returned for each block, in order; a failed solve is a
    # LinearSolveFailure.  Grids up to the search's n come from the memo, as
    # one block.  Larger ones are built block by block (``_blocks``), each
    # block's nodes for it, into the system, so only the system is
    # full-length: at n = 2^20 each fresh 8 MB array costs about 3 ms of page
    # faults.
    _check_n(n)
    graded = _graded(b, beta)
    if n <= _DEFAULT_N:
        grids = [(0, n - 1, _cached_grid(n, graded))]
    else:
        grids = ((j0, j1, _Grid(_nodes(n, graded, j0, j1 + 2))) for j0, j1 in _blocks(n))
    diag, off, rhs = np.empty(n - 1), np.empty(n - 2), np.empty(n - 1)
    parts = [block(b, beta, grid, diag[j0:j1], off[j0:j1], rhs[j0:j1])
             for j0, j1, grid in grids]
    try:
        return spd_solve(diag, off, rhs, overwrite=True), diag, off, parts
    except np.linalg.LinAlgError as exc:
        raise LinearSolveFailure(f"tridiagonal system singular at b={b}, beta={beta}, "
                                 f"n={n}") from exc


def _face_weights(w_nodes: np.ndarray) -> np.ndarray:
    # The harmonic means 2 wl wr / (wl + wr), built in the array of the
    # products.  A face whose two nodes carry no weight keeps its product,
    # 2 * 0 * 0 = 0: the weights are clipped at +0.
    wl, wr = w_nodes[:-1], w_nodes[1:]
    s = wl + wr
    wf = 2.0 * wl
    wf *= wr
    return np.divide(wf, s, out=wf, where=s > 0.0)


def _bvp_block(b: float, beta: float, grid: _Grid, diag, off, rhs):
    # The rows of the BVP's system for the unknowns of one block, written
    # into the block's slices of diag, off and rhs from the block's grid.
    # Returns the four nodes and the face weights and widths of the three
    # faces at each end of the block, head and tail.
    w = grid.weight(beta)
    a = _face_weights(w)
    x, h = grid.x, grid.h
    ends = ((x[:4].tolist(), a[:3].tolist(), h[:3].tolist()),
            (x[-4:].tolist(), a[-3:].tolist(), h[-3:].tolist()))
    a *= 3.0 - b
    a /= h                                      # face conductances
    q = w[1:-1]                                 # inner node masses b w share
    q *= b
    q *= grid.share
    np.add(a[:-1], a[1:], out=diag)
    diag += q
    np.negative(a[1:off.size + 1], out=off)
    np.negative(q, out=rhs)
    return ends


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
    v, _, _, ends = _system(_bvp_block, b, beta, n)
    head, _ = ends[0]
    _, tail = ends[-1]

    # The three faces at each end, closed by v(0) = v(1) = 0.
    flux0 = _end_flux(0.0, *head, [0.0] + v[:3].tolist())
    flux1 = _end_flux(1.0, *tail, v[-3:].tolist() + [0.0])
    return ELSolution(b=b, beta=beta, v=v, flux0=flux0, flux1=flux1)


def _j_bvp_value(b: float, beta: float, n: int) -> float:
    sol = solve_euler_lagrange(b, beta, n)
    return 0.5 * (3.0 - b) * (sol.flux1 - sol.flux0)


def _beside(j_value, b: float, beta: float, n: int, n2: int):
    # j_value at n here and at n2 in a worker thread, whose solve runs while
    # this one's does, as spd_solve releases the GIL.  The worker takes this
    # thread's numpy error state.  Leaving the pool joins the worker, so an
    # error of this thread's solve raises first; result() raises the worker's.
    # concurrent.futures is imported here, as only a J above n = 4096 runs a
    # worker: its import, logging included, costs about 4 ms and 0.6 MB RSS
    # (2-core x86-64, Python 3.11).
    from concurrent.futures import ThreadPoolExecutor

    _dptsv()  # loaded here, so that the two threads do not both load it
    err, call = np.geterr(), np.geterrcall()

    def companion():
        with np.errstate(call=call, **err):
            return j_value(b, beta, n2)

    with ThreadPoolExecutor(1) as pool:
        future = pool.submit(companion)
        value = j_value(b, beta, n)
    return value, future.result()


def _with_band(j_value, method: str, b: float, beta: float, n: int) -> JResult:
    # Second-order scheme: error(n) ~ |J_n - J_{n/2}| / 3, or 4/3 |J_n - J_{2n}|
    # where n/2 is below the 64-cell minimum.  Up to the search's n the two
    # solves run one after the other.  There a worker thread costs more than
    # the companion's solve, and the search's own value is kept, so its
    # thread would overlap nothing.  On a 2-core Xeon, starting and joining
    # the pool took about 120 us, against about 180 us for a whole n = 4096
    # BVP J; threaded at every n, the benchmark's sweep ran at 0.61x (median
    # ops/s 467 against 761, 10 alternating pairs, none won).
    check_beta(beta)
    _check_n(n)
    n2, factor = (n // 2, 1.0 / 3.0) if n // 2 >= _MIN_N else (2 * n, 4.0 / 3.0)
    if n <= _DEFAULT_N:
        value, companion = j_value(b, beta, n), j_value(b, beta, n2)
    else:
        value, companion = _beside(j_value, b, beta, n, n2)
    return JResult(b=b, beta=beta, value=value, method=method,
                   error_estimate=factor * abs(value - companion))


def compute_j_bvp(b: float, beta: float, n: int = _DEFAULT_N) -> JResult:
    """J via the Euler-Lagrange boundary-flux identity, with a grid-refinement
    error estimate."""
    return _with_band(_j_bvp_value, "BVP_FLUX", b, beta, n)


def _direct_block(b: float, beta: float, grid: _Grid, diag, off, rhs):
    # The rows of the direct route's P1 system for the unknowns of one block,
    # written into the block's slices of diag, off and rhs from the block's
    # grid.  The two-point Gauss rule takes the weight at x + (1/2 -+ g) h,
    # g = 1/(2 sqrt 3), as w1 and w2, where the hats are 1/2 +- g.  As
    # (1/2 -+ g)^2 = 1/3 -+ g and (1/2 + g)(1/2 - g) = 1/6, a cell's element
    # matrices come from three cell arrays, m = h (w1 + w2)/6, the tilt
    # e = h (w2 - w1) g/2 and k = (w1 + w2)/(2h): mass [[m - e, m/2],
    # [m/2, m + e]], stiffness k [[1, -1], [-1, 1]], load (3m/2 - e, 3m/2 + e).
    w1, w2 = (_offset_weight(grid.h * c + grid.x[:-1] - 0.5, beta)
              for c in (0.5 - _GAUSS_OFS, 0.5 + _GAUSS_OFS))
    s, m = 3.0 - b, off.size
    k = w1 + w2
    tilt = np.subtract(w2, w1, out=w2)
    tilt *= grid.h * (0.5 * _GAUSS_OFS)
    mass = np.multiply(k, grid.h, out=w1)
    mass /= 6.0
    k /= 2.0 * grid.h
    pair, skew = mass[:-1] + mass[1:], tilt[:-1] - tilt[1:]
    np.multiply(pair + skew, b, out=diag)
    diag += s * (k[:-1] + k[1:])
    np.subtract(0.5 * b * mass[1:m + 1], s * k[1:m + 1], out=off)
    pair *= 1.5
    pair += skew
    np.multiply(pair, -b, out=rhs)


def _j_direct_value(b: float, beta: float, n: int) -> float:
    # J = b/2 + T(v) = b/2 - v^T A v / 2 at the minimizer, A v = rhs.  The
    # energy is sum d_i (v_i + l_i v_{i+1})^2 over the factors A = L D L^T
    # the solve leaves in diag and off, built in place in v: no copy of rhs,
    # and no BLAS dot, whose threads would set the bits of the sum.
    v, diag, off, _ = _system(_direct_block, b, beta, n)
    np.multiply(off, v[1:], out=off)
    v[:-1] += off
    v *= v
    v *= diag
    return 0.5 * b - 0.5 * float(v.sum())


def compute_j_direct(b: float, beta: float, n: int = _DEFAULT_N) -> JResult:
    """J via direct minimization of the quadratic functional (P1 elements).

    Independent of the BVP route, but on its mesh (``_graded``); b as in
    ``compute_j``, b = 3 included, where the infimum 0 is approached through
    endpoint boundary layers.  There the graded mesh resolves them: the
    values fall fourfold per doubling of n, so the Richardson band matches
    the error (both 5.9e-7 at n = 2048).  At the degenerate weight it
    converges at an order well below two, so its Richardson band there is
    not a bound: it understates the error (about 57x at b = 2.5, n = 2^20).
    """
    check_b(b)
    return _with_band(_j_direct_value, "DIRECT_MIN", b, beta, n)


def compute_j(b: float, beta: float, n: int = _DEFAULT_N) -> JResult:
    """J(b, beta) for b in (1, 3] and |beta| <= (e+1)/(e-1).

    b = 3 is exact (J = 0); otherwise the BVP flux value on n cells with
    its Richardson error estimate (``compute_j_bvp``), which stays second
    order on the graded grid of the degenerate weight and of b near 3.
    Every b takes the same grid rule: n >= 64, or ValueError.
    """
    check_b(b)
    check_beta(beta)
    _check_n(n)
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
    the basis, P_k(2x-1) at the nodes stacked over its x-derivative, with a
    zero column for the border; and the border, e_k = P_k(1) - P_k(-1) in
    the last row and column with a corner of 7.  Bordered by e,
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
        stacked = np.pad(np.concatenate(basis(x)), ((0, 0), (0, 1)))
        dual.append((eval_p(x), eval_dp(x), q, stacked, border))
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
    Each call builds B from the b-free basis of ``_spectral_forms``, one
    small product per beta, so the instance keeps no dual state; it needs
    one Cholesky factorisation per beta, all betas in one batch.
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
        """The Ritz upper bound at each beta; ``BetaOutOfRange`` unless every
        |beta| is within the weight bracket."""
        beta = np.asarray(beta, dtype=np.float64)
        check_beta(abs(beta).max(initial=0.0))   # NaN fails; an empty batch passes
        beta = beta[..., None]
        h = self._h0 + beta * self._h1
        return 0.5 * self.b - 0.5 * np.sum(h * h / (1.0 + beta * self._lam), axis=-1)

    def _dual(self, beta, rule):
        # B(beta) = int (q/w) (P P^T / (3-b) + P' P'^T / b), bordered by e:
        # the stacked basis, weighted per node and beta.  One small product
        # per beta keeps the call on one BLAS thread.
        p, dp, q, basis, border = rule
        qw = q / (p + beta[:, None] * dp)
        weights = np.concatenate((qw / (3.0 - self.b), qw / self.b), axis=1)
        mats = basis.T @ (weights[:, :, None] * basis) + border
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

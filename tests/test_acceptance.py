"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import csv
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import legendre
from scipy.optimize import minimize_scalar

import bfamily as bf

E = math.e


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def _b_grid_9():
    return np.linspace(1.2, 3.0, 11)[1:-1]


def _beta_grid_9():
    return np.linspace(0.0, bf.BETA_MAX - 0.05, 9)


def test_c01_delta_two_exact():
    ok = abs(bf.delta_b(2.0) - 0.5) <= 1e-15
    _report("C01 delta_2 = 1/2", ok, f"value {bf.delta_b(2.0)!r}")


def test_c02_estimate1_threshold_and_value():
    alpha_ok = abs(bf.ALPHA - (E + 1.0) ** 2 / (4.0 * E)) <= 1e-12
    val = bf.estimate1(3.0).bound
    val_ok = abs(val - math.sqrt(1.5)) <= 1e-12
    _report("C02 estimate-1 threshold and value at b=3", alpha_ok and val_ok,
            f"alpha {bf.ALPHA!r}, estimate1(3) {val!r}")


def test_c03_estimate3_at_two_closed_form():
    assert bf.degree_upsilon(2.0) == pytest.approx(1.0, abs=1e-15)
    closed = math.sqrt(2.0 - (E + 1.0) ** 2 / (E * E + 1.0))
    got = bf.estimate3(2.0).bound
    _report("C03 estimate-3 at b=2 vs closed form", abs(got - closed) <= 1e-10,
            f"got {got!r}, closed {closed!r}")


def test_c04_gamma_recomputed():
    gamma = bf.thresholds()["gamma"]
    _report("C04 gamma threshold", abs(gamma - 1.012) <= 2e-3, f"gamma {gamma:.6f}")


def test_c05_j_oracle_equivalence():
    worst = 0.0
    for b in _b_grid_9():
        for beta in _beta_grid_9():
            bvp = bf.compute_j_bvp(float(b), float(beta))
            direct = bf.compute_j_direct(float(b), float(beta))
            gap = abs(bvp.value - direct.value)
            tol = max(1e-6, 10.0 * bvp.error_estimate)
            worst = max(worst, gap / tol)
            assert gap <= tol, (b, beta, gap, tol)
    _report("C05 J oracle equivalence on 9x9 grid", True,
            f"worst gap/tol {worst:.3f}")


def test_c06_j_shape_properties():
    evenness_ok = concavity_ok = chain_ok = True
    for b in _b_grid_9():
        b = float(b)
        betas = _beta_grid_9()
        vals = np.array([bf.compute_j(b, float(t)).value for t in betas])
        even = np.array([bf.compute_j(b, float(-t)).value for t in betas])
        evenness_ok &= bool(np.abs(vals - even).max() <= 1e-8)
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        concavity_ok &= bool(np.all(second <= 1e-8))
        j_top = bf.compute_j(b, bf.BETA_MAX).value
        j_zero = bf.compute_j(b, 0.0).value
        chain_ok &= bool(np.all(j_top <= vals + 1e-8))
        chain_ok &= bool(np.all(vals <= j_zero + 1e-8))
        chain_ok &= j_zero <= 0.5 * b + 1e-8
    _report("C06 J evenness/concavity/monotone chain",
            evenness_ok and concavity_ok and chain_ok,
            f"even {evenness_ok}, concave {concavity_ok}, chain {chain_ok}")


def test_c07_convolution_lower_bound():
    rng = np.random.default_rng(2024)
    worst = np.inf
    for _ in range(100):
        k = int(rng.integers(1, 9))
        cos_c = rng.standard_normal(k + 1) * 0.5
        sin_c = rng.standard_normal(k + 1) * 0.5
        u = bf.TorusField.from_coefficients(cos_c, sin_c, 4096)
        for b in (1.5, 2.0, 2.5, 3.0):
            for beta in (0.0, 1.0):
                rep = bf.check_convolution_bound(u, b, beta)
                worst = min(worst, rep.min_slack)
                assert rep.min_slack >= -1e-8, (b, beta, rep)
    _report("C07 convolution bound, 100 random fields", True,
            f"worst slack {worst:.3e}")


def test_c08a_threshold_anchor_b3():
    res = bf.compute_beta_b(3.0)
    ok = res.status == bf.STATUS_FINITE and abs(res.beta_b - 1.224745) <= 2e-4
    _report("C08a beta_b anchor at b=3", ok,
            f"{res.status} {res.beta_b}")


def test_c08b_threshold_anchor_b2():
    res = bf.compute_beta_b(2.0)
    ok = res.status == bf.STATUS_FINITE and res.beta_b <= 1.0 + 1e-4
    _report("C08b beta_b anchor at b=2", ok, f"{res.status} {res.beta_b}")


# C08c: a Ritz upper bound on F, built without bfamily's solver or kernel.
#
# J is an infimum, so J(b, beta) <= T(u) for every admissible u, where
#     T(u) = int_0^1 w (b/2 u^2 + (3-b)/2 u_x^2) dx,  u(0) = u(1) = 1,
#     w = (cosh(x - 1/2) + beta sinh(x - 1/2)) / (2 sinh(1/2)),
# and therefore F(b, beta) <= beta^2 + 2/(b-1) (T(u) - b/2).  T is minimised
# over u = 1 + sum_{k<K} c_k x(1-x) P_k(2x-1) with Gauss-Legendre quadrature.
# w is affine in beta, so the quadratures are taken once for its cosh and sinh
# parts and combined per (b, beta) into a K x K solve.

_RITZ_MODES = 12
_RITZ_QUAD_POINTS = 120
_WEIGHT_TOP = (E + 1.0) / (E - 1.0)  # w >= 0 exactly for |beta| <= this


@functools.cache
def _ritz_forms():
    """Per weight part (cosh, sinh): int w, int w phi, int w phi phi^T and
    int w phi' phi'^T for the basis phi_k = x(1-x) P_k(2x-1)."""
    t, q = legendre.leggauss(_RITZ_QUAD_POINTS)
    x, q = 0.5 * (t + 1.0), 0.5 * q
    p = legendre.legvander(2.0 * x - 1.0, _RITZ_MODES - 1)
    dp = 2.0 * legendre.legval(2.0 * x - 1.0, legendre.legder(np.eye(_RITZ_MODES))).T
    phi = (x * (1.0 - x))[:, None] * p
    dphi = (1.0 - 2.0 * x)[:, None] * p + (x * (1.0 - x))[:, None] * dp
    forms = []
    for part in (np.cosh(x - 0.5), np.sinh(x - 0.5)):
        qw = q * part / (2.0 * math.sinh(0.5))
        forms.append((qw.sum(), qw @ phi, phi.T @ (qw[:, None] * phi),
                      dphi.T @ (qw[:, None] * dphi)))
    return forms


def _ritz_j(b, beta):
    """min of T over the Ritz space: an upper bound on J(b, beta)."""
    (m0, g0, mass0, stiff0), (m1, g1, mass1, stiff1) = _ritz_forms()
    g = b * (g0 + beta * g1)
    a = b * (mass0 + beta * mass1) + (3.0 - b) * (stiff0 + beta * stiff1)
    return 0.5 * b * (m0 + beta * m1) - 0.5 * g @ np.linalg.solve(a, g)


def _ritz_f_max(b):
    """Upper bound on max F(b, beta) over the bracket 0 <= beta <= (e+1)/(e-1).

    F is even in beta.  The maximum is located by a scan and a bounded Brent
    refinement between the neighbours of the best scan point.
    """
    def f(beta):
        return beta * beta + 2.0 / (b - 1.0) * (_ritz_j(b, beta) - 0.5 * b)

    betas = np.linspace(0.0, _WEIGHT_TOP, 33)
    vals = [f(beta) for beta in betas]
    i = int(np.argmax(vals))
    refined = minimize_scalar(
        lambda beta: -f(beta), method="bounded",
        bounds=(betas[max(i - 1, 0)], betas[min(i + 1, len(betas) - 1)]),
        options={"xatol": 1e-10},
    )
    return max(vals[i], -refined.fun)


def test_c08c_finiteness_onset_in_stated_window():
    # Where the Ritz bound on max_beta F is negative, F < 0 on the whole
    # bracket and beta_b cannot be finite.  The criterion checks that the
    # sweep has no FINITE row there, and that its first FINITE row is the
    # first row after the last refuted one.  It also checks the onset once
    # stated for this sweep, 1.0012 +- 5e-4: the bound refutes that whole
    # window (max F <= -20.3 even at b = 1.0017).  The bound places the onset
    # at or above 1.009985 (K = 16); the sweep finds it at b = 1.0100.
    # Same functional as the program's J: the two agree at a regular point.
    assert abs(_ritz_j(2.0, 0.5) - bf.compute_j(2.0, 0.5).value) <= 1e-6
    rows = bf.sweep(1.0001, 1.01, 50, tol=1e-4)
    bounds = [_ritz_f_max(r.b) for r in rows]
    finite = [r.result is not None and r.result.status == bf.STATUS_FINITE
              for r in rows]
    contradicted = [f"{r.b:.5f}" for r, fin, bound in zip(rows, finite, bounds)
                    if fin and bound < 0.0]
    last = max((i for i, bound in enumerate(bounds) if bound < 0.0), default=-1)
    expected = rows[last + 1].b if last + 1 < len(rows) else None
    onset = next((r.b for r, fin in zip(rows, finite) if fin), None)

    lo, hi = 1.0012 - 5e-4, 1.0012 + 5e-4
    window_bs = [lo, *(r.b for r in rows if lo < r.b < hi), hi]
    window_bound = max(_ritz_f_max(b) for b in window_bs)

    ok = (not contradicted and onset is not None and onset == expected
          and window_bound < 0.0)
    refuted_to = (f"{rows[last].b:.5f} (max F <= {bounds[last]:.3f})"
                  if last >= 0 else "none")
    onset_text = f"{onset:.5f}" if onset is not None else "none"
    detail = (f"first finite b {onset_text}; bound refutes b <= {refuted_to}; "
              f"FINITE where refuted: {', '.join(contradicted) or 'none'}; "
              f"stated window [{lo:.4f}, {hi:.4f}] has max F <= {window_bound:.1f}")
    _report("C08c finiteness onset at the first b the Ritz bound does not refute",
            ok, detail)


def test_c09_ordering_suite():
    rows = bf.sweep(1.28, 3.0, 20, tol=1e-4)
    for row in rows:
        res = row.result
        assert res is not None and res.status == bf.STATUS_FINITE, row.b
        lower_edge = res.beta_b - res.uncertainty
        assert lower_edge <= row.est3.bound + 1e-6, (row.b, res.beta_b, row.est3.bound)
        assert row.est3.bound <= row.est2.bound + 1e-6, row.b
        assert row.est2.bound <= row.est1.bound + 1e-6, row.b
    _report("C09 ordering beta_b <= est3 <= est2 <= est1 on [1.28, 3]", True,
            "20 rows")


def test_c10_pde_sanity():
    traj, rep = bf.integrate(bf.TorusField.constant(1.0, 1024),
                             bf.SimConfig(b=2.0, t_max=1.0))
    const_ok = (not rep.detected
                and float(np.abs(traj.final.values - 1.0).max()) <= 1e-12)

    mean_ok = True
    for b in (1.5, 2.0, 2.5, 3.0):
        u0 = bf.TorusField.from_coefficients(
            [0.1, 0.05, 0.02, 0.01], [0.0, 0.03, -0.02, 0.005], 1024)
        traj, rep = bf.integrate(u0, bf.SimConfig(b=b, t_max=1.0))
        elapsed = max(traj.history["t"][-1], 1e-12)
        mean = traj.history["mean"]
        drift = float(np.abs(mean - mean[0]).max())
        mean_ok &= drift / elapsed < 1e-10

    u0 = bf.TorusField.cosine(1.0, 2048)
    traj, rep = bf.integrate(u0, bf.SimConfig(b=2.0, t_max=0.45))
    slopes = traj.history["min_slope"]
    resolved = slopes >= -100.0
    h1 = traj.history["h1_energy"][resolved]
    h1_ok = float(np.abs(h1 - h1[0]).max()) / h1[0] < 1e-6

    _report("C10 PDE sanity (constant/mean/H1)",
            const_ok and mean_ok and h1_ok,
            f"const {const_ok}, mean {mean_ok}, h1 {h1_ok}")


def test_c11_criterion_and_lifespan_cosine():
    beta2 = bf.compute_beta_b(2.0, tol=1e-4).beta_b
    u0 = bf.TorusField.cosine(1.0, 1024)
    traj, rep = bf.integrate(u0, bf.SimConfig(b=2.0, t_max=0.45), beta_b=beta2)

    pts = rep.criterion_points
    assert pts.size, "criterion points expected"
    best = pts[np.argmax(pts["du0"] ** 2 - beta2**2 * pts["u0"] ** 2)]
    point_ok = abs(best["x"] - 0.25) <= 1.0 / 1024
    bound_ok = abs(rep.lifespan_bound - 1.0 / math.pi) <= 1e-3
    detect_ok = rep.detected and rep.t_detect <= (1.0 / math.pi) * 1.05

    u0f = bf.TorusField.cosine(1.0, 2048)
    _, rep2 = bf.integrate(u0f, bf.SimConfig(b=2.0, t_max=0.45), beta_b=beta2)
    stable_ok = (rep2.detected
                 and abs(rep.t_detect - rep2.t_detect) / rep2.t_detect <= 0.02)

    _report("C11 end-to-end criterion and lifespan check (b=2, cosine)",
            point_ok and bound_ok and detect_ok and stable_ok,
            f"x0 {best['x']:.5f}, bound {rep.lifespan_bound:.6f}, "
            f"t_detect {rep.t_detect:.5f}/{rep2.t_detect:.5f}")


def test_c12_odd_data_scenario():
    u0 = bf.TorusField.odd_sine(0.1, 1024)
    traj, rep = bf.integrate(u0, bf.SimConfig(b=2.5, t_max=50.0))
    ok = rep.detected and rep.t_detect < 50.0
    _report("C12 odd-data blow-up (b=2.5)", ok,
            f"detected {rep.detected} at {rep.t_detect}")


def test_c13_threshold_above_tanh_half():
    # Momentum m0 = u0 - u0'' >= 0 keeps its sign and bounds |u_x| by
    # tanh(1/2) u for all time (Escher & Yin 2008), and near-peakon data of
    # that kind bring -u0'/|u0| as close to tanh(1/2) as wanted.  A valid
    # threshold therefore cannot lie below tanh(1/2).  The minimum of beta_b
    # over b is near b = 1.53; the smallest margin on this grid is 6.4e-4.
    # The FINITE rows of the golden sweeps are checked too.
    bound = math.tanh(0.5)
    margins = []
    for row in bf.sweep(1.50, 1.58, 81):
        res = row.result
        assert res is not None and res.status == bf.STATUS_FINITE, row.b
        margins.append((res.beta_b - res.uncertainty - bound, row.b))
    for path in sorted((Path(__file__).parent / "data").glob("beta_b_sweep_*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            margins += [(float(r["beta_b"]) - float(r["uncertainty"]) - bound, float(r["b"]))
                        for r in csv.DictReader(fh) if r["status"] == bf.STATUS_FINITE]
    worst, b_worst = min(margins)
    _report("C13 beta_b - uncertainty >= tanh(1/2)", worst >= 0.0,
            f"smallest margin {worst:.2e} at b = {b_worst:.4f}, {len(margins)} rows")

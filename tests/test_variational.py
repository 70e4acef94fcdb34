import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bfamily import (
    BETA_MAX,
    BetaOutOfRange,
    BOutOfRange,
    LinearSolveFailure,
    compute_j,
    compute_j_bvp,
    compute_j_direct,
    legendre_ratio,
    solve_euler_lagrange,
    unit_weight,
)
from bfamily import threshold
from bfamily import variational as vmod
from bfamily.variational import SpectralJ

E = math.e
COSH1 = math.cosh(1.0)


class TestEulerLagrange:
    def test_symmetric_minimizer_for_even_weight(self):
        sol = solve_euler_lagrange(2.0, 0.0, 1024)
        assert np.abs(sol.v - sol.v[::-1]).max() < 1e-8

    def test_flux_evenness_in_beta(self):
        a = solve_euler_lagrange(2.0, 0.5, 1024)
        b = solve_euler_lagrange(2.0, -0.5, 1024)
        ja = 0.5 * (3.0 - 2.0) * (a.flux1 - a.flux0)
        jb = 0.5 * (3.0 - 2.0) * (b.flux1 - b.flux0)
        assert ja == pytest.approx(jb, abs=1e-10)

    def test_minimizer_nonpositive(self):
        for b, beta in [(1.3, 0.0), (2.0, 1.0), (2.8, -2.0), (2.0, BETA_MAX)]:
            sol = solve_euler_lagrange(b, beta, 512)
            assert sol.v.max() <= 1e-12, (b, beta)

    def test_boundary_values_enforced(self):
        sol = solve_euler_lagrange(1.7, 0.9, 256)
        assert sol.grid[0] > 0.0 and sol.grid[-1] < 1.0
        assert len(sol.v) == len(sol.grid) == 255

    def test_interior_residual_of_strong_form(self):
        # Residual of (3-b) w v'' + (3-b) w' v' - b w v - b w at interior
        # nodes, with finite-difference derivatives of the computed v.
        b, beta, n = 2.0, 0.5, 4096
        sol = solve_euler_lagrange(b, beta, n)
        x = sol.grid[1:-1]
        h = 1.0 / n
        v = sol.v
        vx = (v[2:] - v[:-2]) / (2.0 * h)
        vxx = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
        w = unit_weight(beta, x)
        wx = (np.sinh(x - 0.5) + beta * np.cosh(x - 0.5)) / (2.0 * math.sinh(0.5))
        res = (3 - b) * w * vxx + (3 - b) * wx * vx - b * w * v[1:-1] - b * w
        assert np.abs(res).max() < 1e-4

    def test_domain_errors(self):
        with pytest.raises(BOutOfRange):
            solve_euler_lagrange(3.0, 0.0)
        with pytest.raises(BetaOutOfRange):
            solve_euler_lagrange(2.0, BETA_MAX + 0.1)
        with pytest.raises(ValueError):
            solve_euler_lagrange(2.0, 0.0, 32)


class TestComputeJ:
    def test_b2_upper_bound_and_oracle_agreement(self):
        bvp = compute_j_bvp(2.0, 0.0)
        direct = compute_j_direct(2.0, 0.0)
        assert bvp.value < 1.0 - 0.05
        assert abs(bvp.value - direct.value) < 1e-6

    def test_degenerate_weight_matches_legendre_value(self):
        # At the extreme beta the value has a closed form through the
        # Legendre logarithmic derivative; at b = 2 it is (e+1)^2/(4e cosh 1).
        expected = (E + 1.0) ** 2 / (4.0 * E * COSH1)
        res = compute_j(2.0, BETA_MAX)
        assert res.value == pytest.approx(expected, abs=1e-5)

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    @pytest.mark.parametrize("b", [1.01, 1.5, 2.0, 2.5, 2.9, 2.9999])
    def test_degenerate_weight_other_b(self, b, n):
        # J(b, +-BETA_MAX) = L(b), E3's closed form.  The graded-grid BVP
        # converges at second order there, and its Richardson band is sharp:
        # error / band measured 0.994-1.007 on this grid.
        expected = (3.0 - b) / (4.0 * E) * (E + 1.0) ** 2 * legendre_ratio(
            -0.5 + 0.5 * math.sqrt(1.0 + 4.0 * b / (3.0 - b)), COSH1
        )
        for beta in (BETA_MAX, -BETA_MAX):
            res = compute_j(b, beta, n)
            assert res.method == "BVP_FLUX", beta
            assert abs(res.value - expected) <= 1.1 * res.error_estimate, beta

    def test_cross_oracle_generic_point(self):
        bvp = compute_j_bvp(1.5, 1.0)
        direct = compute_j_direct(1.5, 1.0)
        assert abs(bvp.value - direct.value) / abs(direct.value) < 1e-6

    def test_b3_special_value(self):
        res = compute_j(3.0, 0.7)
        assert res.value == 0.0
        assert res.method == "SPECIAL_B3"
        assert res.error_estimate == 0.0

    @pytest.mark.parametrize("b", [2.0, 3.0])
    def test_grid_rule_at_every_b(self, b):
        # b = 3 needs no solve, but takes the same n >= 64 rule as every b.
        with pytest.raises(ValueError, match=r"need n >= 64 grid cells \(got 63\)"):
            compute_j(b, 0.5, 63)
        assert compute_j(b, 0.5, 64).method == ("SPECIAL_B3" if b == 3.0 else "BVP_FLUX")

    @pytest.mark.parametrize("compute, b", [
        (compute_j, 2.0), (compute_j, 3.0), (compute_j_direct, 2.0), (compute_j_direct, 3.0),
        (solve_euler_lagrange, 2.0), (solve_euler_lagrange, 2.999999),
    ])
    def test_grid_cap_refused_before_any_array(self, compute, b):
        # 10^11 cells would ask for hundreds of GiB; the cap refuses them
        # first, at b = 3 too, where compute_j needs no solve.
        with pytest.raises(ValueError, match=r"need n <= 16777216 grid cells \(got 100000000000\)"):
            compute(b, 0.5, 10**11)

    def test_b3_direct_refinement_decreases_to_zero(self):
        # On the graded mesh the end layers are resolved: the values fall
        # fourfold per doubling, as a second-order scheme's error does (the
        # uniform mesh gave twofold).
        vals = [compute_j_direct(3.0, 0.5, n).value for n in (256, 512, 1024, 2048)]
        assert all(v > 0.0 for v in vals)
        ratios = [a / b for a, b in zip(vals, vals[1:])]
        assert all(3.5 <= r <= 4.5 for r in ratios), ratios
        assert vals[-1] < 1e-6

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("delta", [1e-5, 1e-6, 1e-7])
    def test_cross_oracle_near_b3(self, delta, beta):
        # Both routes take one mesh rule, so near b = 3 the oracle resolves
        # the end layers as the BVP does and agrees with it to C05's
        # tolerance (measured: 0.67 BVP bands).
        b = 3.0 - delta
        bvp = compute_j_bvp(b, beta)
        direct = compute_j_direct(b, beta)
        assert abs(bvp.value - direct.value) <= max(1e-6, 10.0 * bvp.error_estimate)

    def test_monotone_chain_in_beta(self):
        j_top = compute_j(2.0, BETA_MAX).value
        j_mid = compute_j(2.0, 1.0).value
        j_zero = compute_j(2.0, 0.0).value
        assert j_top <= j_mid + 1e-8
        assert j_mid <= j_zero + 1e-8
        assert j_zero <= 1.0 + 1e-8

    def test_evenness(self):
        assert compute_j(2.0, -1.0).value == pytest.approx(
            compute_j(2.0, 1.0).value, abs=1e-8
        )

    def test_concavity_in_beta(self):
        betas = np.linspace(0.0, BETA_MAX - 0.05, 9)
        vals = np.array([compute_j(1.8, float(t)).value for t in betas])
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        assert np.all(second <= 1e-8)

    def test_richardson_convergence_order(self):
        # Reference from the extrapolated fine solution; error ratio ~ 4.
        b, beta = 2.2, 0.8
        j1 = compute_j_bvp(b, beta, 8192).value
        j2 = compute_j_bvp(b, beta, 4096).value
        ref = j1 + (j1 - j2) / 3.0
        errs = [abs(compute_j_bvp(b, beta, n).value - ref) for n in (512, 1024, 2048)]
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        for r in ratios:
            assert 3.0 < r < 5.0, ratios

    def test_error_estimate_is_honest(self):
        b, beta = 1.7, 0.4
        fine = compute_j_bvp(b, beta, 8192)
        ref = fine.value + (fine.value - compute_j_bvp(b, beta, 4096).value) / 3.0
        coarse = compute_j_bvp(b, beta, 1024)
        assert abs(coarse.value - ref) < 10.0 * coarse.error_estimate

    def test_domain_validation(self):
        with pytest.raises(BOutOfRange):
            compute_j(1.0, 0.0)
        with pytest.raises(BOutOfRange):
            compute_j(3.5, 0.0)
        with pytest.raises(BOutOfRange):
            compute_j_direct(1.0, 0.5)
        with pytest.raises(BetaOutOfRange):
            compute_j(2.0, 3.0)

    def test_not_coercive_guard(self):
        # b > 3 makes the gradient term negative definite at high modes; the
        # b range refuses it before any assembly.
        with pytest.raises(BOutOfRange):
            compute_j_direct(3.5, 0.0, 256)

    @pytest.mark.parametrize("b", [3.0 + 1e-12, 3.0 + 1e-9, 3.0 + 1e-6])
    def test_direct_route_refuses_b_just_above_three(self, b):
        # Just above 3 the direct route's system is still positive definite
        # on coarse grids, so only the b range refuses it.
        with pytest.raises(BOutOfRange):
            compute_j_direct(b, 0.5, 256)
        with pytest.raises(BOutOfRange):
            compute_j(b, 0.5, 256)

    @pytest.mark.parametrize("compute", [compute_j_bvp, compute_j_direct])
    def test_failed_solve_is_a_linear_solve_failure(self, monkeypatch, compute):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("leading minor 7 not positive definite")

        monkeypatch.setattr(vmod, "spd_solve", singular)
        with pytest.raises(LinearSolveFailure,
                           match=r"singular at b=2\.5, beta=0\.5, n=256$"):
            compute(2.5, 0.5, 256)


def _written_out_nodes(n, graded):
    if graded:
        return 0.5 * (1.0 - np.cos(np.pi * np.arange(n + 1) / n))
    return np.linspace(0.0, 1.0, n + 1)


def _written_out_weight(beta, x):
    y = x - 0.5
    return np.maximum((np.cosh(y) + beta * np.sinh(y)) / (2.0 * math.sinh(0.5)), 0.0)


def _per_call_j(b, beta, n, graded=False):
    # The BVP value, every array written out from the nodes, as the
    # reference for solve_euler_lagrange's assembly.
    x = _written_out_nodes(n, graded)
    w = _written_out_weight(beta, x)
    h = np.diff(x)
    wl, wr = w[:-1], w[1:]
    wf = np.zeros_like(h)
    pos = wl + wr > 0.0
    wf[pos] = 2.0 * wl[pos] * wr[pos] / (wl + wr)[pos]
    a = (3.0 - b) * wf / h
    hbar = 0.5 * (h[:-1] + h[1:])
    q = b * w[1:-1] * hbar
    v = vmod.spd_solve(a[:-1] + a[1:] + q, -a[1:-1], -q)
    flux = wf * np.diff(np.concatenate(([0.0], v, [0.0]))) / h
    mid = 0.5 * (x[:-1] + x[1:])
    flux0 = vmod._extrapolate_to(0.0, mid[:3], flux[:3])
    flux1 = vmod._extrapolate_to(1.0, mid[-3:], flux[-3:])
    return 0.5 * (3.0 - b) * (flux1 - flux0)


def _element_sum_j_direct(b, beta, n, graded=False):
    # The direct route's value, element by element: P1 elements, the
    # two-point Gauss rule per element, one expression per element matrix
    # and load; the closed form's oracle at a rounding tolerance.
    x = _written_out_nodes(n, graded)
    h = np.diff(x)
    ofs = 0.5 / math.sqrt(3.0)
    w1 = _written_out_weight(beta, x[:-1] + h * (0.5 - ofs))
    w2 = _written_out_weight(beta, x[:-1] + h * (0.5 + ofs))
    pl1, pl2 = 0.5 + ofs, 0.5 - ofs
    pr1, pr2 = 0.5 - ofs, 0.5 + ofs
    k = 0.5 * (w1 + w2) / h
    m_ll = 0.5 * h * (w1 * pl1 * pl1 + w2 * pl2 * pl2)
    m_rr = 0.5 * h * (w1 * pr1 * pr1 + w2 * pr2 * pr2)
    m_lr = 0.5 * h * (w1 * pl1 * pr1 + w2 * pl2 * pr2)
    f_l = 0.5 * h * (w1 * pl1 + w2 * pl2)
    f_r = 0.5 * h * (w1 * pr1 + w2 * pr2)
    s = 3.0 - b
    diag = b * (m_rr[:-1] + m_ll[1:]) + s * (k[:-1] + k[1:])
    off = b * m_lr[1:-1] - s * k[1:-1]
    f = b * (f_r[:-1] + f_l[1:])
    return 0.5 * b + 0.5 * float(f @ vmod.spd_solve(diag, off, -f))


def _per_call_j_direct(b, beta, n, graded=False):
    # The direct route's value, written out: the same rule in closed form,
    # from the cell arrays mass m, tilt e and stiffness k, one expression
    # per array and per row of the system.
    x = _written_out_nodes(n, graded)
    h = np.diff(x)
    ofs = 0.5 / math.sqrt(3.0)
    w1 = _written_out_weight(beta, x[:-1] + h * (0.5 - ofs))
    w2 = _written_out_weight(beta, x[:-1] + h * (0.5 + ofs))
    mass = (w1 + w2) * h / 6.0
    tilt = (w2 - w1) * (h * (0.5 * ofs))
    k = (w1 + w2) / (2.0 * h)
    pair, skew = mass[:-1] + mass[1:], tilt[:-1] - tilt[1:]
    s = 3.0 - b
    diag = b * (pair + skew) + s * (k[:-1] + k[1:])
    off = 0.5 * b * mass[1:-1] - s * k[1:-1]
    f = b * (1.5 * pair + skew)
    return 0.5 * b - 0.5 * _ldlt_energy(diag, off, -f)


def _ldlt_energy(diag, off, rhs):
    # v^T A v at the solution of A v = rhs, as sum d_i (v_i + l_i v_{i+1})^2
    # over the factors A = L D L^T that the overwriting solve leaves in diag
    # and off, one expression per array.
    v = vmod.spd_solve(diag, off, rhs, overwrite=True)
    t = np.concatenate((v[:-1] + off * v[1:], v[-1:]))
    return float(np.sum(t * t * diag))


# The (b, beta) and n of the direct route's bit pins: on the memoized grids,
# on the large grids, and at any block size.
_MEMO_POINTS, _MEMO_NS = [(2.0, 0.5), (1.01, -1.3), (2.5, BETA_MAX), (3.0, 0.5)], [64, 4096]
_LARGE_POINTS = [(2.0, 0.5), (1.01, -1.3), (2.9, BETA_MAX - 1e-8), (2.5, BETA_MAX),
                 (1.5, -BETA_MAX)]
_LARGE_NS = [8192, 5001, 2**14, 3 * 2**14 + 5, 2**15 + 2]
_BLOCK_POINTS, _BLOCK_N = [(2.0, 0.5), (2.5, BETA_MAX)], 4098


class TestSearchGrid:
    # The values the threshold search takes from compute_j must be the bits
    # of the written-out assembly.
    @pytest.mark.parametrize("n", [64, 4096])
    @pytest.mark.parametrize("beta", [-BETA_MAX + 1e-8, -1.0, 0.0, 0.5, BETA_MAX - 1e-8])
    def test_value_only_bit_identical(self, n, beta):
        for b in (1.01, 2.0, 2.9):
            full = compute_j_bvp(b, beta, n)
            assert full.value == _per_call_j(b, beta, n)
            assert compute_j(b, beta, n) == full

    def test_grid_cache_holds_search_grids_only(self):
        vmod._cached_grid.cache_clear()
        compute_j_bvp(2.0, 0.5, 2**14)  # grids of 16384 and 8192 cells
        assert vmod._cached_grid.cache_info().currsize == 0
        fresh = solve_euler_lagrange(2.0, 0.5)  # builds and memoizes its grid
        cached = solve_euler_lagrange(2.0, 0.5)
        assert vmod._cached_grid.cache_info().hits == 1
        assert (cached.flux0, cached.flux1) == (fresh.flux0, fresh.flux1)
        assert np.array_equal(cached.v, fresh.v)
        # The solution's grid is built when read, without the memo: the
        # interior nodes, bit for bit.
        assert np.array_equal(cached.grid, _written_out_nodes(4096, False)[1:-1])
        assert vmod._cached_grid.cache_info().hits == 1
        # The direct route reads the same memo: its n = 4096 grid is a hit,
        # the 2048 of its band a new entry; above the memo's n it adds none.
        compute_j_direct(2.0, 0.5)
        info = vmod._cached_grid.cache_info()
        assert (info.hits, info.currsize) == (2, 2)
        vmod._j_direct_value(2.0, 0.5, 8192)
        assert vmod._cached_grid.cache_info().currsize == 2

    @pytest.mark.parametrize("n", _MEMO_NS)
    @pytest.mark.parametrize("b, beta", _MEMO_POINTS)
    def test_direct_route_bit_identical_on_memoized_grids(self, b, beta, n):
        # Up to the memo's n the direct route solves on the memoized grid,
        # uniform or graded (the degenerate weight, b = 3); its value and
        # band are the bits of the written-out assembly.  At n = 64 the
        # band's companion is 2n.
        graded = vmod._graded(b, beta)
        assert graded == (beta == BETA_MAX or b == 3.0)
        n2, factor = (n // 2, 1.0 / 3.0) if n > 64 else (2 * n, 4.0 / 3.0)
        value = _per_call_j_direct(b, beta, n, graded)
        band = factor * abs(value - _per_call_j_direct(b, beta, n2, graded))
        res = compute_j_direct(b, beta, n)
        assert (res.value, res.error_estimate) == (value, band)

    @pytest.mark.parametrize("graded", [False, True])
    def test_grid_weight_is_profile_weight(self, graded):
        grid = vmod._cached_grid(4096, graded)
        for beta in (-BETA_MAX, -1.0, 0.0, 0.5, BETA_MAX):
            assert np.array_equal(grid.weight(beta), _written_out_weight(beta, grid.x))


class TestLargeGrid:
    # Above the memo's n both routes build the system block by block; the
    # values and Richardson bands must be the bits of the written-out
    # assembly.  3 * 2^14 + 5 cells make four blocks, the last one short;
    # 2^15 + 2 make two, the last unknown joined to the second block, and
    # n/2 = 16385 is odd.
    @pytest.mark.parametrize("n", _LARGE_NS)
    @pytest.mark.parametrize("b, beta", _LARGE_POINTS)
    def test_bit_identical_to_written_out_assembly(self, b, beta, n):
        graded = bool(abs(abs(beta) - BETA_MAX) <= 1e-9)
        for compute, oracle in ((compute_j_bvp, _per_call_j),
                                (compute_j_direct, _per_call_j_direct)):
            value = oracle(b, beta, n, graded)
            band = (1.0 / 3.0) * abs(value - oracle(b, beta, n // 2, graded))
            res = compute(b, beta, n)
            assert (res.value, res.error_estimate) == (value, band), compute.__name__

    @pytest.mark.parametrize("block", [2, 64])
    @pytest.mark.parametrize("b, beta", _BLOCK_POINTS)
    def test_any_block_size_gives_the_same_bits(self, monkeypatch, b, beta, block):
        # Blocks of two unknowns are the least the end fluxes allow; with
        # 4097 unknowns both sizes join a last block of one to the one before.
        n = _BLOCK_N
        graded = bool(abs(abs(beta) - BETA_MAX) <= 1e-9)
        want = _per_call_j(b, beta, n, graded), _per_call_j_direct(b, beta, n, graded)
        monkeypatch.setattr(vmod, "_BLOCK", block)
        assert (vmod._j_bvp_value(b, beta, n), vmod._j_direct_value(b, beta, n)) == want

    @staticmethod
    def _peak_arrays(fn, *args):
        # The peak of traced memory during fn(*args), in (n+1)-float arrays
        # at n = 2^20; tracemalloc sees the allocations of every thread.
        # Deterministic, unlike a timing.
        n = 2**20
        fn(*args, n)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(*args, n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        return peak / (8 * (n + 1))

    @pytest.mark.parametrize("j_value", [vmod._j_bvp_value, vmod._j_direct_value])
    @pytest.mark.parametrize("beta", [0.5, BETA_MAX])
    def test_peak_full_length_arrays_per_system(self, j_value, beta):
        # Besides a few block-sized temporaries, three full-length arrays:
        # the system, which the solver overwrites.  The nodes are built per
        # block, and the direct route's energy is built in the solution.
        assert self._peak_arrays(j_value, 2.0, beta) < 3.5

    @pytest.mark.parametrize("compute", [compute_j_bvp, compute_j_direct])
    @pytest.mark.parametrize("beta", [0.5, BETA_MAX])
    def test_peak_full_length_arrays(self, compute, beta):
        # The system on n cells and its companion on n/2, solved beside it in
        # a worker thread: four and a half arrays, and the block-sized
        # temporaries of both threads.
        assert self._peak_arrays(compute, 2.0, beta) < 4.9


class TestConcurrentCompanion:
    # Above the memo's n the band's companion on n/2 cells is solved in a
    # worker thread beside the solve on n; the result must be the sequential
    # composition's, to the bit, and no thread may outlive the call.
    ROUTES = [(compute_j_bvp, vmod._j_bvp_value), (compute_j_direct, vmod._j_direct_value)]

    @pytest.mark.parametrize("n", [4097, 8192, 3 * 2**14 + 5])
    @pytest.mark.parametrize("b, beta", [(2.0, 0.5), (2.5, BETA_MAX), (1.01, -1.3)])
    @pytest.mark.parametrize("compute, j_value", ROUTES)
    def test_bit_identical_to_sequential_composition(self, compute, j_value, b, beta, n):
        value = j_value(b, beta, n)
        band = (1.0 / 3.0) * abs(value - j_value(b, beta, n // 2))
        res = compute(b, beta, n)
        assert (res.value, res.error_estimate) == (value, band)

    @pytest.mark.parametrize("failing", ["main", "companion", "both"])
    @pytest.mark.parametrize("compute, j_value", ROUTES)
    def test_failed_solve_raises_and_joins_the_worker(self, monkeypatch, compute, j_value,
                                                      failing):
        # A solve of the n-cell system, of its n/2 companion, or of both, is
        # made to fail: the call raises LinearSolveFailure naming the failed
        # grid (this thread's first), and leaves no thread behind, also when
        # the companion is still solving as this thread's solve fails.
        n = 8192
        failing_n = {"main": [n], "companion": [n // 2], "both": [n, n // 2]}[failing]
        solve = vmod.spd_solve

        def failing_solve(diag, off, rhs, overwrite=False):
            if diag.shape[0] + 1 in failing_n:
                raise np.linalg.LinAlgError("leading minor 1 not positive definite")
            if failing == "main":
                time.sleep(0.1)
            return solve(diag, off, rhs, overwrite)

        monkeypatch.setattr(vmod, "spd_solve", failing_solve)
        threads = threading.active_count()
        with pytest.raises(LinearSolveFailure, match=f"n={failing_n[0]}$"):
            compute(2.0, 0.5, n)
        assert threading.active_count() == threads

    def test_worker_runs_in_the_callers_errstate(self):
        # The companion runs in another thread, which takes the caller's
        # numpy error state: an np.errstate around the call holds in it, on
        # numpy 1.x (errstate per thread) and 2.x (in a context variable).
        seen = {}

        def probe(b, beta, n):
            seen[n] = threading.get_ident(), np.geterr()["divide"]
            return float(n)

        with np.errstate(divide="raise"):
            vmod._with_band(probe, "PROBE", 2.0, 0.5, 8192)
        assert seen[8192] == (threading.get_ident(), "raise")
        assert seen[4096][0] != threading.get_ident() and seen[4096][1] == "raise"


def test_direct_value_independent_of_blas_threads():
    # The direct route's energy is summed without BLAS, so its value and band
    # are the same bits whatever number of threads OpenBLAS runs.  Its
    # threaded dot product once made them differ in the last digit at both n.
    code = ("from bfamily.variational import compute_j_direct\n"
            "for n in (2**14, 2**18):\n"
            "    r = compute_j_direct(2.0, 1.0, n)\n"
            "    print(repr(r.value), repr(r.error_estimate))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env)
        assert out.returncode == 0, out.stderr
        outs.append(out.stdout)
    assert len(outs[0].split()) == 4
    assert outs[0] == outs[1]


@pytest.mark.parametrize("b, beta, n", [
    *((b, beta, n) for b, beta in _MEMO_POINTS for n in _MEMO_NS),
    *((b, beta, n) for b, beta in _LARGE_POINTS for n in _LARGE_NS),
    *((b, beta, _BLOCK_N) for b, beta in _BLOCK_POINTS),
])
def test_closed_form_matches_element_sums(b, beta, n):
    # The closed-form cell arrays regroup the two-point rule's element sums,
    # so value and band agree with the element-by-element form to rounding:
    # at most 3.3e-15 and 1.2e-15 of max(1, |J|) measured at these points,
    # the route's L D L^T energy against the oracle's dot product.
    graded = vmod._graded(b, beta)
    n2, factor = (n // 2, 1.0 / 3.0) if n // 2 >= 64 else (2 * n, 4.0 / 3.0)
    value = _element_sum_j_direct(b, beta, n, graded)
    band = factor * abs(value - _element_sum_j_direct(b, beta, n2, graded))
    res = compute_j_direct(b, beta, n)
    tol = 1e-14 * max(1.0, abs(value))
    assert abs(res.value - value) <= tol
    assert abs(res.error_estimate - band) <= tol


class TestFaceWeights:
    def _masked(self, w):
        wl, wr = w[:-1], w[1:]
        s = wl + wr
        out = np.zeros_like(s)
        pos = s > 0.0
        out[pos] = 2.0 * wl[pos] * wr[pos] / s[pos]
        return out

    def test_regular_weight_bit_identical_to_masked_form(self):
        w = np.random.default_rng(3).uniform(1e-3, 5.0, 4097)
        assert np.array_equal(vmod._face_weights(w), self._masked(w))

    def test_zero_face_sum_gives_zero_face(self):
        w = np.array([0.0, 0.0, 1.0, 2.0])
        assert np.array_equal(vmod._face_weights(w), self._masked(w))
        assert vmod._face_weights(w)[0] == 0.0


def _direct_ritz_j(b, beta, modes, points=96):
    # The Ritz minimum over u = 1 + x(1-x) sum c_k P_k(2x-1) by one K x K
    # solve at this beta, written out as the reference for the pencil form.
    t, q = np.polynomial.legendre.leggauss(points)
    x, q = 0.5 * (t + 1.0), 0.5 * q
    p = np.polynomial.legendre.legvander(2.0 * x - 1.0, modes - 1)
    dp = 2.0 * np.polynomial.legendre.legval(
        2.0 * x - 1.0, np.polynomial.legendre.legder(np.eye(modes))).T
    phi = (x * (1.0 - x))[:, None] * p
    dphi = (1.0 - 2.0 * x)[:, None] * p + (x * (1.0 - x))[:, None] * dp
    qw = q * (np.cosh(x - 0.5) + beta * np.sinh(x - 0.5)) / (2.0 * math.sinh(0.5))
    a = b * phi.T @ (qw[:, None] * phi) + (3.0 - b) * dphi.T @ (qw[:, None] * dphi)
    g = b * qw @ phi
    return 0.5 * b * qw.sum() - 0.5 * g @ np.linalg.solve(a, g)


def _direct_dual_j(b, beta, modes, points, panels=1):
    # The dual maximum 1/2 e^T B^-1 e, B = int (P P^T/(3-b) + P' P'^T/b)/w
    # and e_k = P_k(1) - P_k(-1), by one K x K solve at this b and beta,
    # written out as the reference for the bordered, b-free batch.  The
    # integral is Gauss-Legendre with `points` nodes on each of `panels`
    # panels, graded toward x = 0 with edges 0, 0.15^(panels-1), ..., 0.15, 1.
    edges = np.concatenate(([0.0], 0.15 ** np.arange(panels - 1.0, -1.0, -1.0)))
    t, q = np.polynomial.legendre.leggauss(points)
    width = np.diff(edges)[:, None]
    x = (edges[:-1, None] + width * (0.5 * (t + 1.0))).ravel()
    q = (width * (0.5 * q)).ravel()
    p = np.polynomial.legendre.legvander(2.0 * x - 1.0, modes - 1)
    dp = 2.0 * np.polynomial.legendre.legval(
        2.0 * x - 1.0, np.polynomial.legendre.legder(np.eye(modes))).T
    qw = q / ((np.cosh(x - 0.5) + beta * np.sinh(x - 0.5)) / (2.0 * math.sinh(0.5)))
    a = p.T @ (qw[:, None] * p) / (3.0 - b) + dp.T @ (qw[:, None] * dp) / b
    e = 1.0 - (-1.0) ** np.arange(modes)
    return 0.5 * e @ np.linalg.solve(a, e)


class TestSpectralEnclosure:
    # C05's 9x9 (b, beta) grid
    B_GRID = np.linspace(1.2, 3.0, 11)[1:-1]
    BETA_GRID = np.linspace(0.0, BETA_MAX - 0.05, 9)

    def test_encloses_bvp_on_c05_grid(self):
        # The n = 4096 BVP value lies below J by about its Richardson band
        # (0.96-1.0 bands here), so it sits in [lower - 1.1 band, upper].
        # The 16-mode gap is <= 2.5e-14 up to beta = 1.59 and 2.4e-5 at the
        # grid's top beta, 2.11 (b = 2.64).
        for b in self.B_GRID:
            spec = SpectralJ(float(b))
            uppers, lowers = spec.upper(self.BETA_GRID), spec.lower(self.BETA_GRID)
            for beta, upper, lower in zip(self.BETA_GRID, uppers, lowers):
                bvp = compute_j_bvp(float(b), float(beta))
                assert math.isfinite(lower), (b, beta)
                assert upper - lower <= (1e-13 if beta < 1.6 else 3e-5), (b, beta)
                assert lower - 1.1 * bvp.error_estimate <= bvp.value <= upper, (b, beta)

    @pytest.mark.parametrize("b", [1.01, 1.3, 2.0, 2.9])
    def test_bvp_error_far_inside_screen_margin(self, b):
        # The threshold screen widens the enclosure by a fixed J margin; the
        # search's BVP values must lie within a tenth of it at the 255
        # non-degenerate scan points.
        margin = threshold._SCREEN_MARGIN
        betas = np.linspace(0.0, BETA_MAX, 256)[:-1]
        bvp = np.array([compute_j(b, float(t), 4096).value for t in betas])
        spec = SpectralJ(b)
        upper, lower = spec.upper(betas), spec.lower(betas)
        assert np.sum(np.isfinite(lower)) >= 250
        outside = np.maximum(np.maximum(lower - bvp, bvp - upper), 0.0)
        assert outside.max() <= margin / 10.0

    @pytest.mark.parametrize("beta", [0.0, 0.5, -1.3, 2.0, BETA_MAX])
    def test_upper_is_the_ritz_minimum(self, beta):
        # The pencil's closed form equals a direct K x K solve at this beta
        # (measured within 6e-15).
        for b in (1.01, 2.0, 2.9):
            assert SpectralJ(b).upper(beta) == pytest.approx(
                _direct_ritz_j(b, beta, vmod._SPECTRAL_MODES), abs=1e-12)

    def test_even_in_beta(self):
        spec = SpectralJ(1.7)
        betas = np.array([0.3, 1.1, 2.0])
        assert np.allclose(spec.upper(-betas), spec.upper(betas), rtol=0, atol=1e-13)
        assert np.allclose(spec.lower(-betas), spec.lower(betas), rtol=0, atol=1e-13)

    def test_batch_agrees_with_single_points(self):
        spec = SpectralJ(2.0)
        betas = np.linspace(0.0, 2.0, 300)   # one batched call
        single = np.array([spec.lower(np.array([t]))[0] for t in betas[::37]])
        assert np.allclose(spec.lower(betas)[::37], single, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("b", [1.01, 2.0, 2.9])
    def test_dual_is_the_complementary_maximum(self, b):
        # The b-free forms, scaled per call, and the constant corner give the
        # dual that a direct solve at this b gives, on both rules.
        spec = SpectralJ(b)
        betas = np.array([0.0, 0.5, -1.3, 2.0])
        for rule in vmod._spectral_forms()[1]:
            points = rule[2].shape[0]
            want = [_direct_dual_j(b, t, vmod._SPECTRAL_MODES, points) for t in betas]
            assert np.allclose(spec._dual(betas, rule), want, rtol=1e-12, atol=0)

    def test_no_dual_state_per_b(self):
        # An instance keeps the Ritz pencil only, also after a dual call.
        spec = SpectralJ(2.0)
        spec.lower(np.array([0.3, 0.7]))
        assert set(vars(spec)) == {"b", "_lam", "_h0", "_h1"}

    def test_failed_factorisation_fails_the_call(self, monkeypatch):
        def singular(beta, rule):
            raise np.linalg.LinAlgError("not positive definite")

        spec = SpectralJ(2.0)
        monkeypatch.setattr(spec, "_dual", singular)
        assert np.all(spec.lower(np.array([0.2, 0.9, 1.5])) == -math.inf)

    def test_no_lower_bound_at_degenerate_weight(self):
        spec = SpectralJ(2.0)
        assert spec.lower([BETA_MAX])[0] == -math.inf
        assert spec.upper(BETA_MAX) >= compute_j(2.0, BETA_MAX).value

    def test_unconverged_quadrature_rejected(self):
        # Next to the degenerate weight the 1/w quadrature has not converged:
        # doubling it moves the dual far more than the rounding allowance,
        # so the point gets no lower bound rather than an unchecked one.
        beta = BETA_MAX * 254 / 255
        spec = SpectralJ(2.0)
        coarse, fine = vmod._spectral_forms()[1]
        at = np.array([beta])
        moved = abs(spec._dual(at, coarse)[0] - spec._dual(at, fine)[0])
        assert moved > 1e3 * vmod._ROUNDING_ULPS * np.finfo(float).eps
        assert spec.lower(at)[0] == -math.inf

    def test_lower_above_upper_rejected(self):
        spec = SpectralJ(2.0)
        betas = np.array([0.2, 0.9])
        assert np.all(np.isfinite(spec.lower(betas)))
        true_upper = spec.upper
        spec.upper = lambda beta: true_upper(beta) - 1e-9
        assert np.all(spec.lower(betas) == -math.inf)

    def test_domain(self):
        with pytest.raises(BOutOfRange):
            SpectralJ(3.0)
        with pytest.raises(BOutOfRange):
            SpectralJ(1.0)

    @pytest.mark.parametrize("method", ["upper", "lower"])
    @pytest.mark.parametrize("beta", [2.5, math.nan, [0.5, 2.2]], ids=["2.5", "nan", "[0.5,2.2]"])
    def test_bounds_refuse_beta_outside_bracket(self, method, beta):
        # As compute_j does; an empty batch is no beta.
        spec = SpectralJ(2.0)
        with pytest.raises(BetaOutOfRange):
            getattr(spec, method)(beta)
        assert getattr(spec, method)(np.array([])).shape == (0,)


class TestNearDegenerateWeight:
    # For beta within about 1e-4 of BETA_MAX, outside is_degenerate's 1e-9
    # window, the minimiser has a layer at x = 0 that the n = 4096 grid and
    # its Richardson companion miss alike.  The oracle is the dual lower
    # bound with K = 32 modes on a quadrature graded toward x = 0: 24 points
    # on each of 13 panels.
    B = [1.01, 2.0, 2.9]
    BETA = [2.1639, 2.16395, 2.163953, 2.1639534]

    @staticmethod
    def lower(b, beta, points=24, panels=13):
        return _direct_dual_j(b, beta, 32, points, panels)

    def test_graded_dual_is_a_converged_lower_bound(self):
        # A 48-point, 17-panel rule moves it by at most 9.6e-10 at these
        # points; it stays below the 16-mode Ritz bound; and where the BVP
        # is resolved it lies within the BVP's band above the value (value
        # + band exceeds it by 9e-12 to 6e-10).
        for b in self.B:
            for beta, upper in zip(self.BETA, SpectralJ(b).upper(self.BETA)):
                lower = self.lower(b, beta)
                assert abs(self.lower(b, beta, 48, 17) - lower) <= 2e-9, (b, beta)
                assert lower <= upper, (b, beta)
            for beta in (0.0, 1.0, 2.0):
                res = compute_j(b, beta)
                lower = self.lower(b, beta)
                assert res.value <= lower <= res.value + 1.1 * res.error_estimate, (b, beta)

    @pytest.mark.xfail(raises=AssertionError, reason="the uniform-grid BVP misses the "
                       "layer: its value lies 5.3 to 10,500 bands below the bound")
    def test_value_and_band_reach_the_lower_bound(self):
        # Fails at all 12 points today.  At b = 2 the bounds are 0.83467132,
        # 0.83249904, 0.83135101 and 0.83003684.
        short = []
        for b in self.B:
            for beta in self.BETA:
                res, lower = compute_j(b, beta), self.lower(b, beta)
                if res.value + 1.1 * res.error_estimate < lower:
                    short.append((b, beta, (lower - res.value) / res.error_estimate))
        assert not short

import math
from dataclasses import replace

import numpy as np
import pytest

from bfamily import (
    BETA_MAX,
    BetaBResult,
    BOutOfRange,
    LinearSolveFailure,
    STATUS_FINITE,
    STATUS_INFINITE,
    STATUS_UNDETERMINED,
    compute_beta_b,
    compute_j,
    estimate3,
    estimates,
    f_discriminant,
    sweep,
    threshold,
    thresholds,
    variational,
)


class TestFDiscriminant:
    def test_root_at_b3(self):
        # J(3, .) = 0 makes F = beta^2 - 3/2 exactly.
        assert f_discriminant(3.0, math.sqrt(1.5)) == pytest.approx(0.0, abs=1e-12)

    def test_negative_at_beta_zero(self):
        assert f_discriminant(2.0, 0.0) < 0.0

    def test_bracket_edge_at_b3(self):
        expected = BETA_MAX**2 - 1.5
        assert f_discriminant(3.0, BETA_MAX) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(3.182694376831169, abs=1e-12)


class _NoEnclosure:
    # proves no sign, so every J of the search comes from the fake
    def __init__(self, b):
        pass

    def upper(self, beta):
        return np.full(np.shape(beta), np.inf)

    def lower(self, beta):
        return np.full(np.shape(beta), -np.inf)


def _search_on(monkeypatch, j_value):
    # The threshold search with j_value(b, beta, n) as its every J.
    monkeypatch.setattr(threshold, "_j_bvp_value", j_value)
    monkeypatch.setattr(threshold, "SpectralJ", _NoEnclosure)
    # and no floor: L(b) would prove signs the fake contradicts
    monkeypatch.setattr(threshold, "extreme_weight_j", lambda b: -np.inf)


class TestComputeBetaB:
    def test_b3_anchor(self):
        res = compute_beta_b(3.0)
        assert res.status == STATUS_FINITE
        assert res.beta_b == pytest.approx(math.sqrt(1.5), abs=2e-4)
        assert not res.sign_reversal_above

    def test_b2_below_one_and_below_estimate(self):
        res = compute_beta_b(2.0)
        assert res.status == STATUS_FINITE
        assert res.beta_b <= 1.0 + 1e-4
        assert res.beta_b - res.uncertainty <= estimate3(2.0).bound + 1e-6

    def test_infinite_near_one(self):
        assert compute_beta_b(1.0005).status == STATUS_INFINITE

    def test_crossing_certificate(self):
        res = compute_beta_b(2.5, tol=1e-4)
        assert f_discriminant(2.5, res.beta_b) >= 0.0
        assert f_discriminant(2.5, res.beta_b - res.uncertainty - 1e-12) < 0.0

    def test_refinement_is_nested(self):
        coarse = compute_beta_b(2.0, tol=1e-3)
        fine = compute_beta_b(2.0, tol=5e-4)
        assert abs(fine.beta_b - coarse.beta_b) <= 1e-3 + 1e-12

    def test_parameter_validation(self):
        with pytest.raises(BOutOfRange):
            compute_beta_b(1.0)
        with pytest.raises(BOutOfRange):
            compute_beta_b(3.0001)
        with pytest.raises(ValueError):
            compute_beta_b(2.0, tol=1e-8)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_rejected(self, tol):
        # NaN passed the old `tol < 1e-6` guard and skipped the bisection,
        # so a FINITE verdict came back at the scan width.
        with pytest.raises(ValueError):
            compute_beta_b(2.0, tol=tol)

    @pytest.mark.parametrize("f_below, status", [(-1.0, STATUS_FINITE),
                                                 (-1e-3, STATUS_UNDETERMINED)])
    def test_lower_bracket_end_certified(self, monkeypatch, f_below, status):
        # A step in F at beta = 1 with band 1e-2 everywhere: F(hi) = 1 clears
        # the band, and F(lo) must clear it too for the crossing to count.
        # At b = 2, F = beta^2 + 2 (J - 1) and band = 2 * error_estimate =
        # 2/3 |J_n - J_{n/2}|.
        def fake(b, beta, n):
            f = 1.0 if beta >= 1.0 else f_below
            return 1.0 + 0.5 * (f - beta * beta) + (0.015 if n < 4096 else 0.0)

        _search_on(monkeypatch, fake)
        res = compute_beta_b(2.0)
        assert res.status == status
        assert [res.band_lo, res.band_hi] == pytest.approx([1e-2, 1e-2], rel=1e-9)
        if status == STATUS_FINITE:
            assert res.beta_b - res.uncertainty < 1.0 <= res.beta_b

    def test_nonneg_at_scan_start_is_undetermined(self, monkeypatch):
        # F(2, beta) = 1 >= 0 at every scan point, beta = 0 included, where
        # it is negative analytically: no bracket, so no verdict and no
        # certificate.  Without the first point's guard the bracket would be
        # [betas[-1], betas[0]] = [BETA_MAX, 0].
        _search_on(monkeypatch, lambda b, beta, n: 1.0 + 0.5 * (1.0 - beta * beta))
        res = compute_beta_b(2.0)
        assert (res.status, res.sign_reversal_above) == (STATUS_UNDETERMINED, False)
        assert (res.f_lo, res.band_lo, res.f_hi, res.band_hi) == (None, None, None, None)

    @pytest.mark.parametrize("b", [1.5, 2.0, 2.9])
    def test_certificate_on_result(self, b):
        # The result carries F and its band at both bracket ends, equal to
        # the full J (value and Richardson estimate) at those betas.
        res = compute_beta_b(b)
        assert res.status == STATUS_FINITE
        lo = res.beta_b - res.uncertainty
        assert res.band_hi == 2 / (b - 1) * compute_j(b, res.beta_b).error_estimate
        assert res.band_lo == 2 / (b - 1) * compute_j(b, lo).error_estimate
        assert res.f_hi == f_discriminant(b, res.beta_b)
        assert res.f_lo == f_discriminant(b, lo)
        assert res.f_lo < -res.band_lo < 0.0 < res.band_hi <= res.f_hi

    def test_no_certificate_without_bracket(self):
        res = compute_beta_b(1.0005)
        assert res.status == STATUS_INFINITE
        assert (res.f_lo, res.band_lo, res.f_hi, res.band_hi) == (None,) * 4

    def test_solves_per_threshold(self, monkeypatch):
        # Work-count guard: the search decides 263 signs (256 scan points, 7
        # bisection steps).  The floor J >= L(b) proves the top of the
        # bracket, the degenerate point beta = BETA_MAX included, and the
        # spectral enclosure and its chords all but a few near the crossing;
        # those are solved on n = 4096 cells alone, and only the two bracket
        # ends add a Richardson companion on n/2.  Solving every point took
        # 266 solves, and 526 with a companion each; a companion at every
        # solved point took 8 at b = 2 and 14 at b = 1.06.
        solves, betas, dual = [], [], []
        solve, j, lower = variational.spd_solve, threshold._j_bvp_value, variational.SpectralJ.lower

        def counting(diag, *args, **kwargs):
            solves.append(len(diag) + 1)
            return solve(diag, *args, **kwargs)

        def recording(b, beta, n):
            betas.append(beta)
            return j(b, beta, n)

        def dual_counting(self, beta):
            dual.append(np.size(beta))
            return lower(self, beta)

        monkeypatch.setattr(variational, "spd_solve", counting)
        monkeypatch.setattr(threshold, "_j_bvp_value", recording)
        monkeypatch.setattr(variational.SpectralJ, "lower", dual_counting)
        # b: (status, n = 4096 solves at most), main and onset rows, and two
        # with no bracket to certify or no solve at all.
        for b, status, max_solves in [(2.0, STATUS_FINITE, 6), (1.06, STATUS_FINITE, 10),
                                      (1.0005, STATUS_INFINITE, 0), (3.0, STATUS_FINITE, 0)]:
            solves.clear()
            betas.clear()
            dual.clear()
            res = compute_beta_b(b)
            assert res.status == status
            assert solves.count(threshold._DEFAULT_N) == res.solved_points <= max_solves
            companions = 2 if status == STATUS_FINITE and b < 3.0 else 0
            assert solves.count(threshold._DEFAULT_N // 2) == companions
            assert len(solves) == res.solved_points + companions
            assert BETA_MAX not in betas
            if companions:
                assert res.screened_points >= 263 - res.solved_points
                assert len(dual) == 1 and dual[0] <= 3
                # the scan chord's gap, J's bend between an anchor and
                # BETA_MAX, is wider than the dual's (below 3e-5 on the
                # benchmark's rows); it must still leave F >= 0 proved
                assert 0.0 <= res.max_gap <= 1e-2
            else:
                assert dual == []

    def test_dual_calls_per_threshold(self, monkeypatch):
        # The dual runs once per threshold, on at most 3 scan points: the
        # first the Ritz bound leaves open and its two neighbours (the
        # anchors).  Above them the chord to (BETA_MAX, L(b)) proves the
        # rest, and the bisection's chord reuses the anchors' bounds, the
        # scan bracket's ends being anchors.  Where the scan chord leaves a
        # point open it goes to the dual in a second call: on the benchmark's
        # 1920 sweep rows only b = 1.01007 needs it, below gamma, where F
        # turns negative again before BETA_MAX.  With tol above the scan
        # spacing there is no bisection, and still one call.
        sizes = []
        lower = variational.SpectralJ.lower

        def recording(self, beta):
            sizes.append(np.size(beta))
            return lower(self, beta)

        monkeypatch.setattr(variational.SpectralJ, "lower", recording)
        for b, want in [(1.06, [3]), (1.0448642857142858, [3]), (1.953846, [3]), (2.0, [3]),
                        (2.9, [3]), (1.01007, [3, 2])]:
            sizes.clear()
            compute_beta_b(b)
            assert sizes == want, b
        spacing = BETA_MAX / (threshold._SCAN_POINTS - 1)
        for b in (1.0448642857142858, 1.953846, 2.9):
            sizes.clear()
            res = compute_beta_b(b, tol=1.01 * spacing)
            assert res.status == STATUS_FINITE
            assert res.uncertainty > spacing / 2
            assert sizes == [3], b

    # The interpolant's assumption, J >= lower: below the value compute_j
    # returns, within a tenth of the margin, and below the Ritz upper bound,
    # within the dual's rounding allowance.  Checked at every beta the search
    # forms it at, and at each bisection midpoint with the scan bracket's
    # ends as knots, as the midpoint test forms it.  The scan rows check
    # that the interpolant between knots proves F >= 0 on the scan, so that
    # a chord too high at its BETA_MAX end shows near that end: 1.0118 has
    # the floor reach BETA_MAX, 1.0117 not; at 2.999999 the floor falls back
    # to J >= 0.
    @pytest.mark.parametrize("b, phase", [
        *[(b, "scan") for b in (1.0100, 1.01007, 1.0117, 1.0118, 1.5, 2.9, 2.9999, 2.999999)],
        *[(b, "bisection") for b in (1.0100, 1.01007, 1.011, 1.0403414285714285, 1.5, 2.0,
                                     2.9, 2.9999, 2.999999)]])
    def test_lower_below_values(self, monkeypatch, b, phase):
        formed = _formed_lower(monkeypatch, b)
        assert _above_values(b, formed) == []
        if phase == "scan":
            proved = [threshold._f(search.b, beta, value - threshold._SCREEN_MARGIN) >= 0.0
                      for search, scan, chord, beta, value in formed if scan and chord]
            assert any(proved) == (b in (1.0117, 1.0118, 1.5, 2.9))
        else:
            assert sum(not scan for _, scan, _, _, _ in formed) >= 7

    @pytest.mark.parametrize("b", [1.011, 2.9999])
    def test_raised_floor_caught(self, monkeypatch, b):
        # Mutation: a floor ten margins above L(b) must fail the check above.
        # At 1.011 the floor does not reach BETA_MAX, so the scan forms the
        # bound there, the floor itself; at 2.9999 the floor is the knots'
        # value at the scan bracket's ends.
        floor = threshold.extreme_weight_j
        monkeypatch.setattr(threshold, "extreme_weight_j",
                            lambda b: floor(b) + 10.0 * threshold._SCREEN_MARGIN)
        assert _above_values(b, _formed_lower(monkeypatch, b)) != []

    @pytest.mark.parametrize("b", [1.01007, 1.0117])
    def test_knot_never_lowers_bound(self, monkeypatch, b):
        # Both rows make a second dual call; the interpolant on the scan must
        # not drop anywhere when it adds knots.
        betas = np.linspace(0.0, BETA_MAX, threshold._SCAN_POINTS)
        dual, grown = threshold._Search.dual, []

        def checking(self, new):
            before, knots = self.lower(betas), len(self.knots)
            dual(self, new)
            assert np.all(self.lower(betas) >= before)
            grown.append(len(self.knots) > knots)

        monkeypatch.setattr(threshold._Search, "dual", checking)
        compute_beta_b(b)
        assert sum(grown) >= 2

    @pytest.mark.parametrize("b", [1.03, 1.06, 1.3, 2.0, 2.9])
    def test_floor_settles_top_of_bracket(self, monkeypatch, b):
        # F >= beta^2 + 2/(b-1) (L(b) - E - b/2) = beta^2 - E3(b)^2 - 2E/(b-1)
        # for the BVP value of J, which lies within the margin E of
        # J >= L(b); no beta above that root is solved.  Above gamma that
        # includes BETA_MAX, on the onset rows too.
        betas = []
        j = threshold._j_bvp_value

        def recording(b, beta, n):
            betas.append(beta)
            return j(b, beta, n)

        monkeypatch.setattr(threshold, "_j_bvp_value", recording)
        assert compute_beta_b(b).status == STATUS_FINITE
        floor_from = estimate3(b).bound ** 2 + 2.0 / (b - 1.0) * threshold._SCREEN_MARGIN
        assert betas and all(beta * beta < floor_from for beta in betas)
        assert BETA_MAX not in betas

    @pytest.mark.parametrize("b", [1.01, 1.03, 1.28, 2.0, 2.9, 2.9999])
    def test_floor_below_scan_values(self, b):
        # The floor's assumption, J >= L(b) = J(b, BETA_MAX), for the value
        # compute_j returns at every scan point, the degenerate point
        # included, which no margin test reaches.
        floor = estimates.extreme_weight_j(b) - threshold._SCREEN_MARGIN / 10.0
        for beta in np.linspace(0.0, BETA_MAX, threshold._SCAN_POINTS):
            assert compute_j(b, float(beta)).value >= floor, beta

    def test_search_counts_without_solves(self, monkeypatch):
        # Neither row solves a point or runs the dual: below the onset the
        # upper bound proves every sign, and J(3, .) = 0 is exact.
        dual = []
        lower = variational.SpectralJ.lower

        def dual_counting(self, beta):
            dual.append(np.size(beta))
            return lower(self, beta)

        monkeypatch.setattr(variational.SpectralJ, "lower", dual_counting)
        infinite = compute_beta_b(1.0005)
        assert infinite.status == STATUS_INFINITE
        assert (infinite.solved_points, infinite.screened_points) == (0, 256)
        at_three = compute_beta_b(3.0)
        assert (at_three.solved_points, at_three.screened_points, at_three.max_gap) == (0, 0, None)
        assert sum(dual) == 0

    def test_sign_reversal_recorded_between_onset_and_gamma(self):
        # Below gamma the discriminant turns negative again near the bracket
        # edge, so the nonnegative region is an interior island.
        res = compute_beta_b(1.011)
        assert res.status == STATUS_FINITE
        assert res.sign_reversal_above
        res2 = compute_beta_b(2.0)
        assert not res2.sign_reversal_above

    def test_brackets_near_b3_hold_the_asymptote(self):
        # beta_b(3 - delta) = sqrt(3/2) - coth(1/2) sqrt(2 delta)/4 + O(delta):
        # each end layer of the minimiser costs 1/2 sqrt(b (3-b)) times the
        # weight at its end, and w(0) + w(1) = coth(1/2) for every beta, so
        # J = 1/2 sqrt(b (3-b)) coth(1/2) + O(3-b), and F = 0 gives the
        # formula.  Its O(delta) term is -0.029 delta to -0.034 delta from
        # delta = 1e-4 to 3e-3, so 0.05 delta of slack covers it.  The end
        # layers here span only a few cells of a uniform 4096-cell grid, so
        # this holds only on the BVP's graded mesh.
        wrong = []
        for delta in [10.0 ** (-11 + k / 5) for k in (11, 12, 13, 14, 16, 17, 19, 20, 21)] + [
                1e-5, 1e-6]:
            res = compute_beta_b(3.0 - delta)
            asymptote = math.sqrt(1.5) - math.sqrt(2.0 * delta) / (4.0 * math.tanh(0.5))
            if res.status != STATUS_FINITE or not (
                    res.beta_b - res.uncertainty - 0.05 * delta
                    <= asymptote <= res.beta_b + 0.05 * delta):
                wrong.append((delta, res.status))
        assert wrong == []


def _formed_lower(monkeypatch, b):
    # (search, on the scan, between knots, beta, lower) at every beta the
    # search forms the lower bound at, then at each bisection midpoint with
    # the scan bracket's ends as knots.
    formed, searches, mids = [], [], []
    lower, known_mid = threshold._Search.lower, threshold._Search._known_mid

    def recording(self, betas):
        values = lower(self, betas)
        first = min(self.knots)
        for beta, value in zip(np.atleast_1d(betas).tolist(), np.atleast_1d(values).tolist()):
            formed.append((self, self.ends is None, first < beta and beta not in self.knots,
                           beta, value))
        return values

    def recording_mid(self, mid):
        searches.append(self)
        mids.append(mid)
        return known_mid(self, mid)

    monkeypatch.setattr(threshold._Search, "lower", recording)
    monkeypatch.setattr(threshold._Search, "_known_mid", recording_mid)
    compute_beta_b(b)
    if mids:
        assert len(mids) == 7 and len(set(searches)) == 1
        search = searches[0]
        search.dual(np.array(search.ends))
        for mid in mids:
            search.lower(mid)
    return formed


def _above_values(b, formed):
    # The formed bounds above compute_j's value by more than a tenth of the
    # margin, or above the Ritz bound by more than the rounding allowance.
    eps = np.finfo(np.float64).eps
    above = []
    for search, _, _, beta, value in formed:
        upper = float(search.spec.upper(beta))
        if (value > compute_j(b, beta).value + threshold._SCREEN_MARGIN / 10.0
                or value > upper + variational._ROUNDING_ULPS * eps * max(abs(upper), 1.0)):
            above.append(beta)
    return above


def _unscreened_beta_b(b, tol=1e-4):
    # The search without the enclosure or the floor, written out as the
    # oracle: compute_j at every scan point and bisection midpoint, the
    # error band at the two bracket ends.
    def f(res):
        return res.beta * res.beta + 2.0 / (b - 1.0) * (res.value - 0.5 * b)

    def band(res):
        return 2.0 / (b - 1.0) * res.error_estimate

    scan = [compute_j(b, float(t)) for t in np.linspace(0.0, BETA_MAX, 256)]
    fvals = np.array([f(res) for res in scan])
    nonneg = np.flatnonzero(fvals >= 0.0)
    if nonneg.size == 0:
        return dict(status=STATUS_INFINITE)
    i = int(nonneg[0])
    reversal = bool(np.any(fvals[i:] < 0.0))
    if i == 0:
        return dict(status=STATUS_UNDETERMINED, sign_reversal_above=reversal)
    lo, hi = scan[i - 1], scan[i]
    while hi.beta - lo.beta > tol:
        mid = compute_j(b, 0.5 * (lo.beta + hi.beta))
        if f(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    cert = dict(f_lo=f(lo), band_lo=band(lo), f_hi=f(hi), band_hi=band(hi))
    if not (cert["f_lo"] < -cert["band_lo"] and cert["f_hi"] >= cert["band_hi"]):
        return dict(status=STATUS_UNDETERMINED, sign_reversal_above=reversal, **cert)
    return dict(status=STATUS_FINITE, beta_b=hi.beta, uncertainty=hi.beta - lo.beta,
                sign_reversal_above=reversal, **cert)


class TestScreenedSearch:
    # b = 1.0403414285714285 is the UNDETERMINED row of the benchmark's onset
    # sweeps, 1.01007 its sign-reversal row, 1.0100 the FINITE onset.  The
    # BVP is least accurate at the ends of the b range: 1.00001, where
    # 2/(b-1) amplifies its error, and 2.9999, whose endpoint layers are
    # narrower than the grid.  The floor J >= L(b) first reaches BETA_MAX
    # between 1.0117 and 1.0118, on either side of gamma; the old floor
    # J >= 0 did between 1.27 and 1.28.  At 2.999999 the Legendre series of
    # L(b) overflows and the floor falls back to J >= 0.
    @pytest.mark.parametrize("b", [1.00001, 1.0100, 1.01007, 1.011, 1.0117, 1.0118,
                                   1.0403414285714285, 1.27, 1.28, 1.5, 2.0, 2.9, 2.9999,
                                   2.999999, 3.0])
    def test_equals_unscreened_search(self, b):
        res = compute_beta_b(b)
        want = BetaBResult(b=b, **_unscreened_beta_b(b))
        got = replace(res, solved_points=None, screened_points=None, max_gap=None)
        assert got == want
        if b != 3.0:
            assert res.screened_points > 200


class TestSweep:
    def test_degenerate_sweep_matches_single(self):
        rows = sweep(2.0, 2.0, 1)
        single = compute_beta_b(2.0)
        assert len(rows) == 1
        assert rows[0].result.beta_b == pytest.approx(single.beta_b, abs=1e-12)
        assert rows[0].est2.bound == pytest.approx(1.0, abs=1e-12)

    def test_all_finite_and_below_estimates_on_mid_range(self):
        rows = sweep(1.3, 3.0, 5, tol=1e-4)
        for row in rows:
            assert row.result.status == STATUS_FINITE
            lower_edge = row.result.beta_b - row.result.uncertainty
            assert lower_edge <= row.est3.bound + 1e-6, row.b
            applicable = [e.bound for e in (row.est1, row.est2, row.est3) if e.valid]
            assert applicable
            assert row.result.beta_b <= min(applicable) + 1e-4, row.b

    def test_certificate_recheck_above_crossing(self):
        for b in (1.5, 2.0, 3.0):
            res = compute_beta_b(b, tol=1e-4)
            assert f_discriminant(b, res.beta_b + 1e-4) >= -1e-9, b

    def test_onset_location_recomputed(self):
        # The observed finiteness onset sits just below gamma ~ 1.0117,
        # consistent with the bracket-edge discriminant staying negative for
        # b < gamma while an interior crossing opens slightly earlier.
        rows = sweep(1.0085, 1.0125, 9, tol=1e-4)
        statuses = [r.result.status for r in rows]
        finite_bs = [r.b for r in rows if r.result.status == STATUS_FINITE]
        assert finite_bs, statuses
        onset = min(finite_bs)
        gamma = thresholds()["gamma"]
        assert onset == pytest.approx(1.0100, abs=5e-4)
        assert onset < gamma
        # all rows above the onset are finite
        assert all(
            r.result.status == STATUS_FINITE for r in rows if r.b >= onset
        )

    def test_range_validation(self):
        with pytest.raises(BOutOfRange):
            sweep(0.9, 2.0, 5)
        with pytest.raises(ValueError):
            sweep(2.0, 1.5, 5)
        with pytest.raises(ValueError):
            sweep(1.5, 2.0, 0)

    def test_solver_failure_recorded_on_row(self, monkeypatch):
        def fail(b, **kwargs):
            raise LinearSolveFailure("singular")

        monkeypatch.setattr(threshold, "compute_beta_b", fail)
        (row,) = sweep(2.0, 2.0, 1)
        assert row.result is None
        assert row.error == "LinearSolveFailure: singular"

    def test_programming_error_propagates(self, monkeypatch):
        def broken(b, **kwargs):
            raise TypeError("a bug, not a domain failure")

        monkeypatch.setattr(threshold, "compute_beta_b", broken)
        with pytest.raises(TypeError):
            sweep(2.0, 2.0, 1)

    def test_grid_is_linspace(self):
        assert threshold.sweep_grid(1.28, 3.0, 100) == np.linspace(1.28, 3.0, 100).tolist()
        assert threshold.sweep_grid(1.5, 1.5, 1) == [1.5]

    @pytest.mark.parametrize("b_min, b_max, steps", [(1.5, 2.0, 1), (1.5, 2.0, 10**12)])
    def test_grid_refuses_steps_its_range_cannot_take(self, b_min, b_max, steps):
        # One step would drop b_max from an inclusive sweep; 10^12 steps
        # exceed the row cap and are refused before any array is built.
        for build in (threshold.sweep_grid, sweep):
            with pytest.raises(ValueError, match="steps"):
                build(b_min, b_max, steps)

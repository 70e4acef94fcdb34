import math

import numpy as np
import pytest

from bfamily import (
    ALPHA,
    BETA_MAX,
    BOutOfRange,
    delta_b,
    estimate1,
    estimate2,
    estimate3,
    thresholds,
)
from bfamily.estimates import _e2_quadratic, _e3_radicand

E = math.e


class TestDeltaB:
    def test_exact_half_at_two(self):
        assert delta_b(2.0) == pytest.approx(0.5, abs=1e-15)

    def test_zero_at_three(self):
        assert delta_b(3.0) == 0.0

    def test_zero_at_zero(self):
        assert delta_b(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_sign_matches_b_sign(self):
        assert delta_b(-0.5) < 0.0
        assert delta_b(1.7) > 0.0

    def test_range_errors(self):
        for b in (-1.5, 3.5):
            with pytest.raises(BOutOfRange):
                delta_b(b)


class TestEstimate1:
    def test_at_three(self):
        res = estimate1(3.0)
        assert res.valid
        assert res.bound == pytest.approx(math.sqrt(1.5), abs=1e-12)

    def test_boundary_hits_bracket_edge(self):
        # At b = alpha the bound equals (e+1)/(e-1) exactly.
        res = estimate1(ALPHA)
        assert res.valid
        assert res.bound == pytest.approx(BETA_MAX, abs=1e-12)

    def test_alpha_formula(self):
        assert ALPHA == pytest.approx((E + 1.0) ** 2 / (4.0 * E), abs=1e-15)

    def test_not_applicable_below_alpha(self):
        res = estimate1(1.1)
        assert not res.valid

    def test_strictly_decreasing(self):
        bs = np.linspace(1.01, 3.0, 300)
        vals = [estimate1(float(b)).bound for b in bs]
        assert np.all(np.diff(vals) < 0.0)

    def test_range_errors(self):
        for b in (1.0, 3.2):
            with pytest.raises(BOutOfRange):
                estimate1(b)


class TestEstimate2:
    def test_exactly_one_at_two(self):
        res = estimate2(2.0)
        assert res.valid
        assert res.bound == pytest.approx(1.0, abs=1e-12)
        assert "small-beta" in res.threshold_note

    def test_at_three_quadratic_collapses(self):
        res = estimate2(3.0)
        assert res.valid
        assert res.bound == pytest.approx(math.sqrt(1.5), abs=1e-12)

    def test_not_applicable_near_one(self):
        assert not estimate2(1.1).valid

    def test_small_beta_branch_only_near_two(self):
        # The small-beta condition r(b) <= 1 holds only at b = 2, where the
        # function r(b) = (2/(b-1))(b/2 - delta_b) attains its minimum 1.
        bs = np.linspace(1.001, 3.0, 2000)
        r = 2.0 / (bs - 1.0) * (bs / 2.0 - np.vectorize(delta_b)(bs))
        assert r.min() >= 1.0 - 1e-9
        inside = np.abs(bs - 2.0) > 0.05
        assert np.all(r[inside] > 1.0 + 1e-6)
        r2 = 2.0 / (2.0 - 1.0) * (1.0 - delta_b(2.0))
        assert r2 == pytest.approx(1.0, abs=1e-14)


class TestEstimate3:
    def test_closed_form_at_two(self):
        expected = math.sqrt(2.0 - (E + 1.0) ** 2 / (E * E + 1.0))
        res = estimate3(2.0)
        assert res.valid
        assert res.bound == pytest.approx(expected, abs=1e-10)

    def test_at_three_without_legendre(self):
        res = estimate3(3.0)
        assert res.valid
        assert res.bound == pytest.approx(math.sqrt(1.5), abs=1e-14)

    def test_unavailable_where_series_overflows(self):
        # Next to b = 3 the degree exceeds ~1200 and the Legendre series
        # overflows; the bound is reported unavailable.
        res = estimate3(2.9999999)
        assert (res.bound, res.valid) == (None, False)
        assert "did not converge" in res.threshold_note
        assert estimate3(2.99999).valid

    def test_validity_onset_near_gamma(self):
        gamma = thresholds()["gamma"]
        res = estimate3(gamma)
        assert res.bound == pytest.approx(BETA_MAX, abs=2e-2)
        assert estimate3(gamma + 1e-3).valid
        assert not estimate3(gamma - 1e-3).valid


class TestThresholds:
    def test_alpha_value(self):
        assert thresholds()["alpha"] == pytest.approx((E + 1.0) ** 2 / (4.0 * E), abs=1e-15)

    def test_gamma_near_reported_value(self):
        assert thresholds()["gamma"] == pytest.approx(1.012, abs=2e-3)

    def test_ordering(self):
        th = thresholds()
        assert 1.0 < th["gamma"] < th["alpha"]


class TestOrdering:
    def test_three_estimates_ordered_on_common_range(self):
        bs = np.linspace(ALPHA, 3.0, 100)
        for b in bs:
            b = float(b)
            e1, e2, e3 = estimate1(b), estimate2(b), estimate3(b)
            assert e1.valid and e2.valid and e3.valid
            assert e3.bound <= e2.bound + 1e-9
            assert e2.bound <= e1.bound + 1e-9

    def test_coincide_at_three(self):
        vals = [estimate1(3.0).bound, estimate2(3.0).bound, estimate3(3.0).bound]
        assert max(vals) - min(vals) < 1e-10


def test_roots_real_with_margin():
    # E2's quadratic always has a real root and E3's radicand is never
    # negative, so neither estimate keeps a branch for the other case.  The
    # grid is log-spaced next to b = 1, where 2/(b-1) blows up.
    bs = np.concatenate([1.0 + np.geomspace(1e-12, 0.1, 2200), np.linspace(1.1, 3.0, 2200)])
    assert min(_e2_quadratic(b, delta_b(b))[1] for b in bs.tolist()) > 0.71
    assert min(_e3_radicand(b) for b in bs.tolist()) > 0.29

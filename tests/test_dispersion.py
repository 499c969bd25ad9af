"""Exact dispersion, regime classification, and displayed approximations."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohevol import (
    CollapseProximity,
    DispersionRegime,
    RegimeMismatch,
    classify_dispersion_regime,
    dispersion_approx,
    dispersion_exact,
    make_hyperbolic_params,
)

P = make_hyperbolic_params(1.0, 0.05, 0.02)


class TestExactDispersion:
    def test_minimum_uncertainty_at_start(self):
        for alpha in (0.8, 1.1 + 0.4j, 0.9j):
            value = dispersion_exact(alpha, P, 0.0)
            assert abs(value - P.hbar / 2.0) <= 1e-12 * P.hbar

    def test_quadratic_limit(self):
        p0 = make_hyperbolic_params(1.0, 0.0, 0.07)
        for t in (0.0, 0.6, 1.9):
            value = dispersion_exact(0.7 + 0.2j, p0, t)
            expected = 0.5 * p0.hbar * math.exp(4.0 * p0.omega * t)
            assert abs(value - expected) <= 1e-10 * expected

    def test_guard_covers_both_collapse_sequences(self):
        p = make_hyperbolic_params(1.0, 0.1, 0.1)
        t_n2 = math.pi / (32.0 * p.mu * p.hbar)  # n=2 collapse, not an n=1 one
        with pytest.raises(CollapseProximity):
            dispersion_exact(0.5, p, t_n2)

    def test_real_and_positive_in_first_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            alpha = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            t = rng.uniform(0.0, 2.0)
            value = dispersion_exact(alpha, P, t)
            assert abs(value.imag) <= 1e-10 * abs(value)
            assert value.real > 0.0

    def test_against_oracle_variance(self):
        from cohevol import oracle_average

        p = make_hyperbolic_params(1.0, 0.1, 0.1)
        alpha = 0.5 + 0.3j
        t = 0.5
        x1 = oracle_average("hyperbolic", p, alpha, 1, t, tol=1e-9, dim_cap=2048)
        x2 = oracle_average("hyperbolic", p, alpha, 2, t, tol=1e-9, dim_cap=2048)
        oracle_var = x2 - x1 * x1
        exact = dispersion_exact(alpha, p, t)
        assert abs(exact - oracle_var) / abs(oracle_var) <= 1e-6

    def test_squeezed_vacuum_second_moment(self):
        # alpha = 0: only the zero-point term survives in the closed series
        from cohevol import hyperbolic_xn_average, oracle_average

        p = make_hyperbolic_params(1.0, 0.1, 0.1)
        t = 0.6
        closed = hyperbolic_xn_average(2, 0.0, p, t)
        orc = oracle_average("hyperbolic", p, 0.0, 2, t, tol=1e-9, dim_cap=1024)
        assert abs(closed - orc) / abs(orc) <= 1e-7


class TestRegimeClassification:
    def test_small_correction_at_moderate_times(self):
        assert (
            classify_dispersion_regime(0.8, P, 0.5)
            is DispersionRegime.SMALL_CORRECTION
        )

    def test_alpha_too_small_is_unclassified(self):
        assert classify_dispersion_regime(0.01, P, 0.5) is None

    def test_late_times_unclassified(self):
        p = make_hyperbolic_params(1.0, 0.2, 0.2)
        # mu*hbar*t ~ 1: outside every displayed regime
        assert classify_dispersion_regime(1.5, p, 25.0) is None

    def test_exponential_regime_reached_at_large_amplitude(self):
        # v = mu^2 hbar t^2 |alpha|^2 >= 10 with mu hbar t still small
        assert (
            classify_dispersion_regime(40.0, P, 16.0)
            is DispersionRegime.EXPONENTIAL_DOMINATED
        )

    def test_small_correction_excluded_beyond_crossover(self):
        # the displayed small-correction set formally admits large-amplitude
        # points whose growth parameter is already order one; precedence
        # leaves them unclassified instead
        alpha, t = 40.0, 5.0  # 64 v = 128, quad = 2 < ratio
        assert classify_dispersion_regime(alpha, P, t) is None

    def test_crossover_band(self):
        # 64 v in [0.5, 2]
        alpha = 40.0
        t = math.sqrt(1.0 / (64.0 * P.mu**2 * P.hbar * alpha**2))
        assert classify_dispersion_regime(alpha, P, t) is DispersionRegime.CROSSOVER

    def test_classification_depends_on_modulus_only(self):
        for alpha in (0.8, 0.8j, 0.8 * np.exp(0.3j)):
            assert (
                classify_dispersion_regime(alpha, P, 0.5)
                is DispersionRegime.SMALL_CORRECTION
            )


    @settings(max_examples=300, deadline=None)
    @given(
        log_mu=st.floats(min_value=-3.0, max_value=-0.5),
        log_hbar=st.floats(min_value=-4.0, max_value=-1.0),
        log_mod=st.floats(min_value=-1.0, max_value=2.5),
        arg=st.floats(min_value=0.0, max_value=2.0 * math.pi),
        log_t=st.floats(min_value=-1.0, max_value=3.0),
        ratio=st.floats(min_value=1.0, max_value=30.0),
    )
    def test_classifier_agrees_with_approximation_check(
        self, log_mu, log_hbar, log_mod, arg, log_t, ratio
    ):
        # the label the classifier gives is one the approximation accepts at
        # slack 1, and an unlabelled point is refused by every approximation
        p = make_hyperbolic_params(1.0, 10.0**log_mu, 10.0**log_hbar)
        alpha, t = 10.0**log_mod * cmath.exp(1j * arg), 10.0**log_t
        regime = classify_dispersion_regime(alpha, p, t, ratio=ratio)
        for candidate in DispersionRegime:
            if regime is None:
                with pytest.raises(RegimeMismatch):
                    dispersion_approx(alpha, p, t, candidate, slack=1.0, ratio=ratio)
            elif candidate is regime:
                try:
                    dispersion_approx(alpha, p, t, candidate, slack=1.0, ratio=ratio)
                except OverflowError:
                    pass  # deep exponential form beyond float range: still accepted


class TestApproximations:
    def test_small_correction_at_t_zero(self):
        value = dispersion_approx(0.8, P, 0.0, DispersionRegime.SMALL_CORRECTION)
        assert value == pytest.approx(P.hbar / 2.0)

    def test_small_correction_accuracy(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(300):
            alpha = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            t = rng.uniform(0.05, 2.0)
            if classify_dispersion_regime(alpha, P, t) is not DispersionRegime.SMALL_CORRECTION:
                continue
            exact = dispersion_exact(alpha, P, t)
            approx = dispersion_approx(alpha, P, t, DispersionRegime.SMALL_CORRECTION)
            checked += 1
            assert abs(approx - exact) / abs(exact) <= 0.2
        assert checked >= 100

    def test_exponential_regime_accuracy(self):
        # an exponent error of order 128 v (mu hbar t)^2 multiplies the gap,
        # so the displayed form is accurate only at tiny mu*hbar*t with very
        # large amplitude; values must also stay float-representable (deep in
        # the regime both sides exceed 1e308).  slack admits the boundary.
        for alpha, t in ((100.0, 2.0), (200.0, 1.0)):
            exact = dispersion_exact(alpha, P, t)
            approx = dispersion_approx(
                alpha, P, t, DispersionRegime.EXPONENTIAL_DOMINATED, slack=20.0
            )
            assert abs(approx - exact) / abs(exact) <= 0.3

    def test_deep_exponential_regime_overflows(self):
        with pytest.raises(OverflowError):
            dispersion_approx(40.0, P, 16.0, DispersionRegime.EXPONENTIAL_DOMINATED)

    def test_crossover_approaches_exponential_form(self):
        # shared leading factor: ratio of the two forms tends to one as the
        # growth parameter increases
        alpha = 100.0
        for t, bound in ((0.25, 0.2), (0.5, 1e-3)):
            exp_form = dispersion_approx(
                alpha, P, t, DispersionRegime.EXPONENTIAL_DOMINATED, slack=1e6
            )
            cross_form = dispersion_approx(
                alpha, P, t, DispersionRegime.CROSSOVER, slack=1e6
            )
            assert abs(cross_form / exp_form - 1.0) <= bound

    def test_error_model_constant_frozen(self):
        # gap <= C * max(|mu hbar t|, mu^2 hbar t^2 |alpha|, hbar/|alpha|^2)
        # over a frozen regime grid; C fitted once on this seed (max 83.95,
        # median 2.9) and frozen with headroom
        C = 90.0
        rng = np.random.default_rng(31)
        count = 0
        while count < 400:
            mu = rng.uniform(0.03, 0.12)
            hb = rng.uniform(0.01, 0.06)
            alpha = complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6))
            t = rng.uniform(0.05, 2.5)
            p = make_hyperbolic_params(1.0, mu, hb)
            u = abs(mu * hb * t)
            lin = mu * mu * hb * t * t * abs(alpha)
            inv = hb / abs(alpha) ** 2 if alpha else math.inf
            if u * 10 > 1 or abs(alpha) ** 2 < 10 * hb or lin * 10 > 1:
                continue
            if classify_dispersion_regime(alpha, p, t) is not DispersionRegime.SMALL_CORRECTION:
                continue
            exact = dispersion_exact(alpha, p, t)
            approx = dispersion_approx(alpha, p, t, DispersionRegime.SMALL_CORRECTION)
            count += 1
            assert abs(approx - exact) / abs(exact) <= C * max(u, lin, inv)

    def test_regime_mismatch_raises(self):
        # tiny amplitude violates |alpha|^2 >> hbar outright
        with pytest.raises(RegimeMismatch):
            dispersion_approx(0.001, P, 0.5, DispersionRegime.SMALL_CORRECTION, slack=10.0)

    def test_slack_loosens_the_check(self):
        # a point just outside the strict ratio-10 regime still evaluates
        alpha, t = 0.8, 2.5
        if classify_dispersion_regime(alpha, P, t) is None:
            value = dispersion_approx(
                alpha, P, t, DispersionRegime.SMALL_CORRECTION, slack=50.0
            )
            assert np.isfinite(value.real)

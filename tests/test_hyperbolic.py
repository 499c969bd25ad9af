"""Closed forms of the hyperbolic quartic model."""

import cmath
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from cohevol import (
    CollapseProximity,
    DomainError,
    SystemParams,
    collapse_times,
    dispersion_exact,
    hyperbolic_classical_xn,
    hyperbolic_xn_average,
    hyperbolic_xn_log10_magnitude,
    hyperbolic_xn_paths,
    make_hyperbolic_params,
    scaling_transform_check,
)
from cohevol.closedform import (
    DispersionApprox,
    DispersionRegime,
    EllipticAverage,
    EllipticClassical,
    FloatRangeError,
    RegimeSets,
    XnAverage,
    XnClassical,
)

P = make_hyperbolic_params(1.0, 0.1, 0.05)


class TestInitialMoments:
    def test_mean_position(self):
        for alpha in (0.4, 1j, 0.5 + 0.3j, -1.2 + 0.8j):
            expected = (alpha + complex(alpha).conjugate()) / math.sqrt(2.0)
            assert hyperbolic_xn_average(1, alpha, P, 0.0) == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )

    def test_second_moment(self):
        for alpha in (0.4, 1j, 0.5 + 0.3j):
            s = 2.0 * complex(alpha).real
            expected = (s * s + P.hbar) / 2.0
            assert hyperbolic_xn_average(2, alpha, P, 0.0) == pytest.approx(
                expected, rel=1e-12
            )

    def test_pure_stretch_at_mu_zero(self):
        p0 = make_hyperbolic_params(1.0, 0.0, 0.3)
        alpha = 0.7 + 0.2j
        for t in (0.0, 0.5, 2.0):
            expected = math.exp(2.0 * p0.omega * t) * (2.0 * alpha.real) / math.sqrt(2.0)
            assert hyperbolic_xn_average(1, alpha, p0, t) == pytest.approx(
                expected, rel=1e-12
            )

    def test_order_cap(self):
        with pytest.raises(DomainError):
            hyperbolic_xn_average(21, 0.5, P, 0.1)
        with pytest.raises(DomainError):
            hyperbolic_xn_average(0, 0.5, P, 0.1)

    def test_requires_hyperbolic_capable(self):
        from cohevol import SystemParams

        with pytest.raises(DomainError):
            hyperbolic_xn_average(1, 0.5, SystemParams(0.1, 2.0, 1.0), 0.1)


class TestCollapseDivergence:
    def test_xi_squared_approaches_two(self):
        # alpha = i: the rotated line combination tends to 2 at the first
        # n=2 collapse time, making the Gaussian exponent blow up.
        t0 = math.pi / (32.0 * P.mu * P.hbar)
        phi_half = 8.0 * P.mu * P.hbar * t0
        xi = 2.0 * (1j * cmath.exp(1j * phi_half)).real
        assert xi * xi == pytest.approx(2.0, rel=1e-12)

    def test_magnitude_grows_on_approach(self):
        t0 = math.pi / (32.0 * P.mu * P.hbar)
        logs = [
            hyperbolic_xn_log10_magnitude(2, 1j, P, t0 * (1.0 - 10.0**-k), guard=0.0)
            for k in range(2, 7)
        ]
        assert all(b > a for a, b in zip(logs, logs[1:]))
        assert logs[-1] > 6.0

    def test_guard_raises_inside_band(self):
        t0 = math.pi / (32.0 * P.mu * P.hbar)
        with pytest.raises(CollapseProximity):
            hyperbolic_xn_average(2, 1j, P, t0 * (1.0 - 1e-9))

    def test_unrepresentable_magnitude_raises(self):
        # outside the default guard band but far beyond float64 range
        t0 = math.pi / (32.0 * P.mu * P.hbar)
        t = t0 * (1.0 - 1e-4)
        assert hyperbolic_xn_log10_magnitude(2, 1j, P, t, guard=0.0) > 307.0
        with pytest.raises(CollapseProximity):
            hyperbolic_xn_average(2, 1j, P, t)


class TestLogMagnitude:
    def test_matches_direct_value_in_range(self):
        for alpha, n, t in ((0.5 + 0.3j, 1, 0.7), (1j, 2, 1.1), (1.0, 2, 0.3)):
            direct = hyperbolic_xn_average(n, alpha, P, t)
            log10 = hyperbolic_xn_log10_magnitude(n, alpha, P, t)
            assert log10 == pytest.approx(math.log10(abs(direct)), rel=1e-12)

    def test_zero_value_gives_minus_inf(self):
        # alpha = 0: every odd moment vanishes identically
        assert hyperbolic_xn_log10_magnitude(1, 0.0, P, 0.2) == -math.inf


class TestDualRoutes:
    def test_paths_agree_on_positive_cos(self):
        for alpha in (0.5, 1j, 0.5 + 0.3j, 1 + 1j):
            for n in (1, 2, 3):
                for t in (0.0, 0.4, 1.0):
                    closed, integral = hyperbolic_xn_paths(n, alpha, P, t)
                    assert abs(closed - integral) <= 1e-12 * abs(integral)

    def test_paths_agree_on_negative_cos(self):
        # inside the first negative-cos interval: phi = pi for each n
        for n in (1, 2):
            t_mid = math.pi / (8.0 * n * P.mu * P.hbar)
            for alpha in (0.5, 0.5 + 0.3j, 0.4 - 0.7j):
                closed, integral = hyperbolic_xn_paths(n, alpha, P, 0.95 * t_mid)
                assert abs(closed - integral) <= 1e-12 * max(abs(integral), 1e-300)

    def test_paths_agree_just_under_the_overflow_cut(self):
        # exp(exponent) * prefactor alone overflows at this point, although
        # the full product (~ -4.5e306) is representable
        p = make_hyperbolic_params(1.0, 0.05342075379976316, 0.05185107873190417)
        alpha = -0.1352827319730956 - 0.21674895602849853j
        t = 87.8402071162784
        closed, integral = hyperbolic_xn_paths(4, alpha, p, t)
        assert cmath.isfinite(closed)
        assert abs(closed - integral) <= 1e-12 * abs(integral)
        assert hyperbolic_xn_average(4, alpha, p, t) == closed

    def test_value_is_imaginary_on_odd_interval(self):
        # between the first and second n=1 collapse times the tracked branch
        # contributes a net quarter-turn odd power: the continuation is
        # purely imaginary for real alpha.
        t_mid = math.pi / (8.0 * P.mu * P.hbar)
        value = hyperbolic_xn_average(1, 0.8, P, t_mid * 0.98)
        assert abs(value.real) <= 1e-12 * abs(value)

    def test_reality_restored_after_two_crossings(self):
        # phi = 2 pi sits in the second positive-cos interval
        t = 2.0 * math.pi / (8.0 * P.mu * P.hbar)
        value = hyperbolic_xn_average(1, 0.8, P, t)
        assert value.imag == 0.0
        assert abs(value) > 0.0


class TestRealityAndPositivity:
    def test_reality_on_positive_cos_intervals(self):
        rng = np.random.default_rng(7)
        t_first, t_second = collapse_times(1, P, (0.0, 1.5 * math.pi / (8.0 * P.mu * P.hbar)))
        spacing = t_second - t_first
        count = 0
        while count < 200:
            alpha = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            t = rng.uniform(0.0, 2.4 * spacing)
            if math.cos(8.0 * P.mu * P.hbar * t) < 0.05:
                continue
            try:
                value = hyperbolic_xn_average(1, alpha, P, t)
            except CollapseProximity:
                continue
            count += 1
            assert abs(value.imag) <= 1e-10 * max(abs(value), 1e-300)

    def test_even_power_nonnegative_before_first_collapse(self):
        rng = np.random.default_rng(11)
        t_first = math.pi / (32.0 * P.mu * P.hbar)
        checked = 0
        for _ in range(300):
            alpha = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            t = rng.uniform(0.0, 0.95 * t_first)
            try:
                value = hyperbolic_xn_average(2, alpha, P, t)
            except CollapseProximity:
                # magnitude beyond float64 range on the collapse approach
                continue
            checked += 1
            assert value.real >= 0.0
        assert checked >= 200


class TestFloatRange:
    """On long windows values near float64's limit are the normal case."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=4),
        mu=st.floats(min_value=-0.15, max_value=0.15),
        hbar=st.floats(min_value=0.005, max_value=0.2),
        re=st.floats(min_value=-1.5, max_value=1.5),
        im=st.floats(min_value=-1.5, max_value=1.5),
        t=st.floats(min_value=0.0, max_value=400.0),
    )
    # exp overflowed in the x^2 pre-integral route: a bare OverflowError
    @example(n=2, mu=0.05, hbar=0.02, re=0.8, im=0.0, t=193.5)
    # the x^4 pre-integral product overflowed although the value fits: inf
    @example(
        n=4, mu=0.08982448984892522, hbar=0.036022968351849025,
        re=-1.2579579218445768e-06, im=-0.06258582688687708, t=88.77290378443767,
    )
    # <x>^2 overflows although <x> and <x^2> fit: a -inf dispersion
    @example(n=1, mu=0.05, hbar=0.02, re=0.8, im=0.0, t=149.25)
    def test_finite_or_taxonomy_error(self, n, mu, hbar, re, im, t):
        params, alpha = make_hyperbolic_params(1.0, mu, hbar), complex(re, im)
        try:
            assert cmath.isfinite(hyperbolic_xn_average(n, alpha, params, t))
        except CollapseProximity:
            pass
        try:
            assert cmath.isfinite(dispersion_exact(alpha, params, t))
        except (CollapseProximity, FloatRangeError):
            pass

    # each build forms a t-independent factor beyond float64 (|alpha|^2, conj(alpha)^m alpha^q,
    # x0^n, hbar^j, mu^2); it must build, and each call must raise the same FloatRangeError
    @pytest.mark.parametrize("build", (
        lambda: EllipticAverage(2, 1, 1e200, SystemParams(1.0, 0.05, 0.1)).__call__,
        lambda: EllipticClassical(2, 1, 1e200, SystemParams(1.0, 0.05, 0.1)).__call__,
        lambda: RegimeSets(1e200, P).classify,
        lambda: DispersionApprox(1e200, P, DispersionRegime.CROSSOVER).__call__,
        lambda: XnClassical(2, 1e200, P).__call__,
        lambda: XnAverage(4, 0.5, make_hyperbolic_params(1.0, 0.0, 1e200)).__call__,
        lambda: RegimeSets(0.5, make_hyperbolic_params(1.0, 1e155, 1e-160)).classify,
        lambda: DispersionApprox(0.5, make_hyperbolic_params(1.0, 1e155, 1e-160),
                                 DispersionRegime.SMALL_CORRECTION).__call__,
    ), ids=("elliptic", "elliptic-classical", "regimes", "approx", "classical-xn", "xn-hbar",
            "regimes-mu", "approx-mu"))
    def test_build_captures_overflow_and_each_call_raises_it(self, build):
        evaluate = build()
        messages = []
        for _ in range(2):
            with pytest.raises(FloatRangeError, match="overflows float64") as info:
                evaluate(0.5)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def _mp_xn(mp, n, alpha, params, t):
    """``(log10 |<x^n>|, <x^n>)`` of the branch-tracked closed form at 50 digits, from exact float inputs.

    The phase ``8 n mu hbar t`` is taken as float64 forms it: where ``xi`` nearly cancels
    (``alpha exp(i phi/2)`` nearly imaginary), its last bit moves the value by more than 1e-9.
    """
    with mp.workdps(50):
        a, hbar = mp.mpc(alpha.real, alpha.imag), mp.mpf(params.hbar)
        phi = mp.mpf(8.0 * n * params.mu * params.hbar * t)
        k = int(mp.floor(0.5 + phi / mp.pi))
        b = mp.sqrt(abs(1 / (2 * mp.cos(phi)))) * (1, 1j, -1, -1j)[k % 4]  # the tracked root of 1/(2 cos phi)
        xi = 2 * mp.re(a * mp.exp(0.5j * phi))
        exponent = -(2 * mp.re(a)) ** 2 / (2 * hbar) + xi**2 * b**2 / hbar + 2 * params.omega * n * mp.mpf(t)
        series = sum(
            mp.factorial(n) / (4**j * mp.factorial(j) * mp.factorial(n - 2 * j))
            * hbar**j * (xi * b) ** (n - 2 * j) for j in range(n // 2 + 1)
        )
        value = mp.exp(exponent) * (mp.sqrt(2) * b) ** (n + 1) * series
        return float(mp.log10(abs(value))), value


class TestTinyAlpha:
    """A subnormal alpha: the series, which would underflow, is summed in log scale."""

    def test_log10_magnitude_on_the_subnormal_alpha_grid(self):
        # 60-digit mpmath values; the unfactored series read -inf at every t
        evaluator = XnAverage(11, 2.088e-320, make_hyperbolic_params(1.2332, -0.18218, 0.023434), 0.0)
        expected = (-325.168864209, -112.849905902, 100.316891555, 316.232411406, 525.727759527)
        for i, log10_mag in enumerate(expected):
            assert evaluator.log10_magnitude(71.97 * i / 4) == pytest.approx(log10_mag, abs=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=20),
        decades=st.tuples(st.floats(min_value=-323.0, max_value=-300.0),
                          st.floats(min_value=-323.0, max_value=-300.0)),
        signs=st.tuples(st.sampled_from((-1.0, 1.0)), st.sampled_from((-1.0, 1.0))),
        omega=st.floats(min_value=0.5, max_value=2.0),
        mu=st.floats(min_value=0.01, max_value=0.2),
        mu_sign=st.sampled_from((-1.0, 1.0)),
        hbar=st.floats(min_value=0.005, max_value=0.2),
        interval=st.integers(min_value=0, max_value=4),
        offset=st.floats(min_value=-1.0, max_value=1.0),
    )
    @example(n=3, decades=(-318.0, -323.0), signs=(1.0, 1.0), omega=1.0, mu=0.05, mu_sign=1.0, hbar=0.1,
             interval=0, offset=0.0)  # t = 0, Im alpha at the smallest subnormal
    def test_against_mpmath(self, n, decades, signs, omega, mu, mu_sign, hbar, interval, offset):
        mp = pytest.importorskip("mpmath")
        alpha = complex(signs[0] * 10.0 ** decades[0], signs[1] * 10.0 ** decades[1])
        params = make_hyperbolic_params(omega, mu_sign * mu, hbar)
        # |cos(8 n mu hbar t)| >= 0.05, of the sign (-1)^interval
        t = abs(interval * math.pi + offset * math.acos(0.05)) / (8.0 * n * mu * hbar)
        evaluator = XnAverage(n, alpha, params, 0.0)
        log10_mag, value = _mp_xn(mp, n, alpha, params, t)
        assert evaluator.log10_magnitude(t) == pytest.approx(log10_mag, abs=1e-8)
        if log10_mag > 307.0 + 1e-6:
            with pytest.raises(CollapseProximity):
                evaluator(t)
        elif log10_mag < 307.0 - 1e-6:
            with mp.workdps(50):
                assert abs(mp.mpc(evaluator(t)) - value) <= 1e-9 * abs(value) + 5e-324


class TestClassicalFlow:
    def test_exp_beyond_float64_is_formed_in_log_scale(self):
        # exp(rate t) alone overflows past t ~ 215; x0 exp(rate t) is 0 at alpha = 0 and
        # ~5.5e184 at alpha = 1e-200
        params, t = make_hyperbolic_params(1.652, -0.0583, 0.1), 268.026
        rate = 2.0 * params.omega
        assert rate * t > math.log(sys.float_info.max)
        assert hyperbolic_classical_xn(1, 0j, params, t) == 0j
        expected = math.exp(math.log(math.sqrt(2.0) * 1e-200) + rate * t)
        assert hyperbolic_classical_xn(1, 1e-200, params, t) == pytest.approx(expected, rel=1e-12)
        assert hyperbolic_classical_xn(1, 1e-200, params, t).real == pytest.approx(5.5389e184, rel=1e-4)
        assert hyperbolic_classical_xn(1, -1e-200, params, t) == -hyperbolic_classical_xn(1, 1e-200, params, t)

    def test_log_scale_keeps_an_underflowed_x0_power(self):
        # x0^2 = 2e-400 underflows to 0, yet x0^2 exp(rate t) = exp(rate t - 920.4) ~ 3e34 at t = 151.3
        params, t = make_hyperbolic_params(1.652, -0.0583, 0.1), 151.3
        x0, rate = math.sqrt(2.0) * 1e-200, 2.0 * 2.0 * params.omega
        assert x0**2 == 0.0 and rate * t > math.log(sys.float_info.max)
        expected = math.exp(rate * t + 2.0 * math.log(x0))
        assert hyperbolic_classical_xn(2, 1e-200, params, t) == pytest.approx(expected, rel=1e-12)
        assert hyperbolic_classical_xn(2, 1e-200, params, t).real == pytest.approx(3e34, rel=0.1)
        assert hyperbolic_classical_xn(2, -1e-200, params, t) == hyperbolic_classical_xn(2, 1e-200, params, t)
        assert hyperbolic_classical_xn(3, -1e-200, params, t) == -hyperbolic_classical_xn(3, 1e-200, params, t)

    def test_x0_power_below_the_normal_range_is_formed_in_log_scale(self):
        # 40-digit mpmath; x0^2 underflows to 0 and x0^3 to one subnormal step, where exp(rate t) fits
        params = make_hyperbolic_params(1.652, -0.0583, 0.1)
        for n, alpha, t, expected in ((2, 1e-170, 100.0, 1.9178897465698863e-53),
                                      (3, 1e-108, 70.0, 6.0593817876141879e-23)):
            assert hyperbolic_classical_xn(n, alpha, params, t) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=20),
        decade=st.floats(min_value=-320.0, max_value=-100.0),
        sign=st.sampled_from((-1.0, 1.0)),
        imag=st.floats(min_value=-2.0, max_value=2.0),
        omega=st.floats(min_value=0.5, max_value=2.0),
        mu=st.floats(min_value=-0.2, max_value=0.2),
        log_size=st.floats(min_value=-760.0, max_value=720.0),
    )
    def test_tiny_alpha_against_mpmath(self, n, decade, sign, imag, omega, mu, log_size):
        mp = pytest.importorskip("mpmath")
        alpha = complex(sign * 10.0**decade, imag)
        x0, p0 = math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag
        rate = n * (2.0 * omega - 8.0 * mu * x0 * p0)  # as float64 forms x0 and the rate
        # the time at which |x0^n exp(rate t)| is about e^log_size, around float64's range
        t = max(0.0, (log_size - n * math.log(abs(x0))) / rate)
        with mp.workdps(40):
            expected = mp.mpf(x0) ** n * mp.exp(mp.mpf(rate) * mp.mpf(t))
            log_expected = float(mp.log(abs(expected)))
        evaluate = XnClassical(n, alpha, make_hyperbolic_params(omega, mu, 0.1))
        if log_expected > math.log(sys.float_info.max) + 1e-9:
            with pytest.raises(FloatRangeError):
                evaluate(t)
        elif log_expected < math.log(sys.float_info.max) - 1e-9:
            value = evaluate(t)
            # the log form's own rounding: its exponent's terms, each to a few ulps
            rel = 2e-15 * (1.0 + abs(rate * t) + n * abs(math.log(abs(x0))))
            assert value.imag == 0.0
            with mp.workdps(40):
                assert abs(mp.mpf(value.real) - expected) <= rel * abs(expected) + 5e-324

    def test_exp_below_the_normal_range_is_formed_in_log_scale(self):
        # exp(rate t) = e^-780 underflows to 0, yet x0^20 exp(rate t) = 1e103 e^-780 ~ 1.8e-236;
        # 40-digit mpmath with x0 and the rate as float64 forms them
        params = make_hyperbolic_params(1.0, 0.05, 0.1)
        value = hyperbolic_classical_xn(20, 1e5 + 1e-3j, params, 0.5)
        assert value == pytest.approx(1.822233691515875504683434829816993714933e-236, rel=1e-12, abs=0.0)
        assert hyperbolic_classical_xn(19, -1e5 - 1e-3j, params, 0.5).real < 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=20),
        log_start=st.floats(min_value=math.log(sys.float_info.min), max_value=math.log(sys.float_info.max) - 1.0),
        sign=st.sampled_from((-1.0, 1.0)),
        omega=st.floats(min_value=0.5, max_value=2.0),
        mu=st.floats(min_value=0.01, max_value=0.2),
        excess=st.floats(min_value=0.1, max_value=100.0),
        exponent=st.floats(min_value=-1500.0, max_value=-708.4, exclude_max=True),
    )
    def test_exp_below_the_normal_range_against_mpmath(self, n, log_start, sign, omega, mu, excess, exponent):
        mp = pytest.importorskip("mpmath")
        x0 = sign * math.exp(log_start / n)  # |x0^n| normal, short of overflow after rounding
        p0 = (2.0 * omega + excess) / (8.0 * mu * x0)  # so the rate is negative
        alpha = complex(x0, p0) / math.sqrt(2.0)
        x0, p0 = math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag
        rate = n * (2.0 * omega - 8.0 * mu * x0 * p0)  # as float64 forms x0 and the rate
        t = exponent / rate
        assume(abs(x0**n) >= sys.float_info.min and rate * t < math.log(sys.float_info.min))
        value = XnClassical(n, alpha, make_hyperbolic_params(omega, mu, 0.1))(t)
        with mp.workdps(40):
            expected = mp.mpf(x0) ** n * mp.exp(mp.mpf(rate) * mp.mpf(t))
            # a subnormal value holds fewer digits; both below the smallest subnormal read 0
            assert value.imag == 0.0
            assert abs(mp.mpf(value.real) - expected) <= 1e-12 * abs(expected) + 5e-324

    def test_normal_exp_and_x0_power_keep_the_direct_product(self):
        # bit for bit x0^n exp(rate t) wherever both factors are normal floats
        rng = random.Random(25)
        params = make_hyperbolic_params(1.0, 0.05, 0.1)
        calls = 0
        while calls < 20_000:
            n = rng.randint(1, 20)
            alpha = complex(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, 15.0), rng.uniform(-2.0, 2.0))
            x0, p0 = math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag
            rate = n * (2.0 * params.omega - 8.0 * params.mu * x0 * p0)
            t = rng.uniform(0.0, 700.0) / abs(rate)
            start, factor = x0**n, math.exp(rate * t)
            if not (abs(start) >= sys.float_info.min and factor >= sys.float_info.min
                    and math.isfinite(start * factor)):
                continue
            calls += 1
            assert repr(hyperbolic_classical_xn(n, alpha, params, t)) == repr(complex(start * factor))

    def test_initial_value(self):
        alpha = 0.6 + 0.2j
        assert hyperbolic_classical_xn(1, alpha, P, 0.0) == pytest.approx(
            (alpha + alpha.conjugate()) / math.sqrt(2.0)
        )

    def test_matches_exponent_form(self):
        # same function as x0^n exp(n(2w + 4i mu (a^2 - a*^2)) t)
        alpha = 0.8 - 0.5j
        a2 = alpha**2 - alpha.conjugate() ** 2
        for n, t in ((1, 0.9), (3, 1.3)):
            expected = ((alpha + alpha.conjugate()) / math.sqrt(2.0)) ** n * cmath.exp(
                n * (2.0 * P.omega + 4j * P.mu * a2) * t
            )
            assert hyperbolic_classical_xn(n, alpha, P, t) == pytest.approx(
                expected, rel=1e-12
            )

    def test_against_ode_integration(self):
        # independent oracle: integrate the phase-space flow directly
        alpha = 0.7 + 0.4j
        x0 = math.sqrt(2.0) * alpha.real
        p0 = math.sqrt(2.0) * alpha.imag

        def flow(_t, y):
            x, p = y
            rate = 2.0 * P.omega - 8.0 * P.mu * x * p
            return [rate * x, -rate * p]

        t_end = 1.1
        sol = solve_ivp(
            flow, (0.0, t_end), [x0, p0], method="DOP853", rtol=1e-12, atol=1e-14
        )
        x_end = sol.y[0, -1]
        assert hyperbolic_classical_xn(3, alpha, P, t_end) == pytest.approx(
            x_end**3, rel=1e-9
        )

    def test_quadratic_limit_matches_quantum_for_n1(self):
        p0 = make_hyperbolic_params(1.0, 0.0, 0.2)
        alpha = 0.4 + 0.9j
        for t in (0.0, 0.7, 1.9):
            assert hyperbolic_classical_xn(1, alpha, p0, t) == pytest.approx(
                hyperbolic_xn_average(1, alpha, p0, t), rel=1e-12
            )


class TestParameterCorners:
    def test_negative_coupling_matches_oracle(self):
        from cohevol import oracle_average

        p = make_hyperbolic_params(1.0, -0.1, 0.05)
        alpha = 0.5 + 0.3j
        closed = hyperbolic_xn_average(1, alpha, p, 0.5)
        orc = oracle_average("hyperbolic", p, alpha, 1, 0.5, tol=1e-8, dim_cap=2048)
        assert abs(closed - orc) / abs(orc) <= 1e-6

    def test_negative_coupling_collapse_times_mirrored(self):
        p = make_hyperbolic_params(1.0, -0.1, 0.05)
        times = collapse_times(1, p, (-50.0, 50.0))
        assert times == sorted(times)
        assert any(t < 0 for t in times) and any(t > 0 for t in times)

    def test_negative_time(self):
        alpha = 0.5 + 0.3j
        for t in (-0.3, -0.7):
            closed, integral = hyperbolic_xn_paths(1, alpha, P, t)
            assert abs(closed - integral) <= 1e-12 * abs(integral)
            assert abs(closed.imag) <= 1e-12 * abs(closed)


class TestScalingIdentity:
    def test_identity_at_unit_scale(self):
        lhs, rhs = scaling_transform_check(1, 0.5 + 0.3j, P, 0.7, 1.0)
        assert lhs == rhs

    def test_mu_zero_any_scale(self):
        p0 = make_hyperbolic_params(1.0, 0.0, 0.1)
        for s in (0.25, 4.0):
            lhs, rhs = scaling_transform_check(1, 0.6 + 0.1j, p0, 0.8, s)
            assert abs(lhs / rhs - 1.0) <= 1e-12

    def test_generic_scale(self):
        lhs, rhs = scaling_transform_check(2, 0.5 + 0.3j, P, 0.9, 4.0)
        assert abs(lhs / rhs - 1.0) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        re=st.floats(min_value=-1.2, max_value=1.2, allow_nan=False),
        im=st.floats(min_value=-1.2, max_value=1.2, allow_nan=False),
        t=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        s=st.floats(min_value=0.1, max_value=16.0, allow_nan=False),
        n=st.integers(min_value=1, max_value=4),
        omega=st.floats(min_value=0.3, max_value=2.0),
        negative_omega=st.booleans(),
        mu=st.floats(min_value=-0.3, max_value=0.3),
        hbar=st.floats(min_value=1e-3, max_value=0.3),
    )
    # both sides are subnormal (~4e-315) here, where one unit in the last
    # place is already a relative error of 1.2e-9; the bound is floored there
    @example(re=0.0, im=1.0, t=2.2250738585e-313, s=2.0, n=3,
             omega=1.0, negative_omega=False, mu=0.1, hbar=0.05)
    # one side is the smallest subnormal (5e-324) and the other rounds to zero
    @example(re=5e-324, im=0.0, t=0.0, s=3.0, n=3,
             omega=1.0, negative_omega=False, mu=0.1, hbar=0.05)
    def test_scaling_property(self, re, im, t, s, n, omega, negative_omega, mu, hbar):
        # alpha/sqrt(hbar) and mu*hbar are invariant under the transform, so
        # the identity holds pointwise on every branch interval
        params = SystemParams(-omega if negative_omega else omega, mu, hbar)
        if not params.hyperbolic_capable or abs(math.cos(8.0 * n * mu * hbar * t)) < 0.05:
            return
        try:
            lhs, rhs = scaling_transform_check(n, complex(re, im), params, t, s)
        except CollapseProximity:
            return
        # floored at 1e-10 of the smallest normal, also where rhs rounds to zero
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), sys.float_info.min)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(DomainError):
            scaling_transform_check(1, 0.5, P, 0.7, 0.0)

"""Branch tracking of the multivalued square root and collapse enumeration."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohevol import (
    CollapseProximity,
    SystemParams,
    collapse_times,
    hyperbolic_xn_average,
    make_hyperbolic_params,
)
from cohevol.closedform import _I_POW, DEFAULT_GUARD, _tracked_branch

P = make_hyperbolic_params(1.0, 0.1, 0.1)
SPACING_1 = math.pi / (8.0 * P.mu * P.hbar)  # between the n = 1 collapse times


def branch(n, params, t, guard=DEFAULT_GUARD):
    """Guarded ``(k, bsq, magnitude, value)`` of the tracked ``1/sqrt(2 cos(8 mu n hbar t))``.

    The guard is the closed form's: ``<x^n>`` at ``alpha = 0`` raises :class:`CollapseProximity`
    inside the guard band.
    """
    hyperbolic_xn_average(n, 0j, params, t, guard)
    k, bsq, magnitude = _tracked_branch(8.0 * n * params.mu * params.hbar * t)
    return k, bsq, magnitude, magnitude * _I_POW[k % 4]


class TestBranchFactor:
    """The tracked root ``(2|cos|)^(-1/2) i^k`` that every closed-form power uses."""

    def test_initial_value(self):
        k, bsq, magnitude, value = branch(1, P, 0.0)
        assert k == 0
        assert bsq == 0.5
        assert magnitude == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert value == pytest.approx(1.0 / math.sqrt(2.0))

    def test_quadratic_limit_frozen(self):
        p0 = SystemParams(1.0, 0.0, 0.3)
        for t in (0.0, 5.0, 500.0):
            k, _, _, value = branch(1, p0, t)
            assert value == pytest.approx(1.0 / math.sqrt(2.0))
            assert k == 0

    def test_three_quarter_angle(self):
        # 8 mu hbar t = 3 pi / 4: one collapse crossed, magnitude (2|cos|)^-1/2
        t = (3.0 * math.pi / 4.0) / (8.0 * P.mu * P.hbar)
        k, bsq, magnitude, value = branch(1, P, t)
        assert k == 1
        assert bsq < 0.0
        assert magnitude == pytest.approx(2.0 ** (-0.25), rel=1e-13)
        assert value == pytest.approx(1j * 2.0 ** (-0.25), rel=1e-13)

    def test_guard_raises_near_collapse(self):
        t_first = math.pi / (16.0 * P.mu * P.hbar)
        with pytest.raises(CollapseProximity):
            branch(1, P, t_first)
        # opting in with guard=0 evaluates right at the collapse time
        assert branch(1, P, t_first, guard=0.0)[2] > 1e6

    @settings(max_examples=200, deadline=None)
    @given(
        t=st.floats(min_value=-40.0, max_value=40.0, allow_nan=False),
        n=st.integers(min_value=1, max_value=4),
    )
    def test_square_inverts_double_angle(self, t, n):
        # value^2 * 2 cos(8 n mu hbar t) == 1 on every branch interval
        try:
            k, bsq, _, value = branch(n, P, t)
        except CollapseProximity:
            return
        phi = 8.0 * n * P.mu * P.hbar * t
        product = value**2 * 2.0 * math.cos(phi)
        assert product.real == pytest.approx(1.0, rel=1e-9)
        assert abs(product.imag) <= 1e-12
        assert k == math.floor(0.5 + phi / math.pi)
        assert abs(value**2 * (2.0 * math.cos(phi))) == pytest.approx(1.0, rel=1e-9)
        assert value**2 == pytest.approx(bsq, rel=1e-12)


class TestCollapseTimes:
    def test_first_time_n1(self):
        expected = math.pi / (16.0 * P.mu * P.hbar)
        times = collapse_times(1, P, (0.0, expected * 1.5))
        assert times[0] == pytest.approx(expected, rel=1e-14)

    def test_first_time_n2(self):
        expected = math.pi / (32.0 * P.mu * P.hbar)
        times = collapse_times(2, P, (0.0, expected * 1.5))
        assert times[0] == pytest.approx(expected, rel=1e-14)

    def test_second_time_n2(self):
        t0 = math.pi / (32.0 * P.mu * P.hbar)
        times = collapse_times(2, P, (0.0, 4.0 * t0))
        assert times[1] == pytest.approx(3.0 * t0, rel=1e-14)

    def test_negative_ell_enumerated(self):
        base = math.pi / (16.0 * P.mu * P.hbar)
        times = collapse_times(1, P, (-2.0 * SPACING_1, 0.0))
        assert times
        assert times[-1] == pytest.approx(base - SPACING_1, rel=1e-14)
        assert all(t < 0 for t in times)

    def test_sorted_and_spaced(self):
        times = collapse_times(2, P, (0.0, 200.0))
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g > 0 for g in gaps)
        for g in gaps:
            assert g == pytest.approx(math.pi / (16.0 * P.mu * P.hbar), rel=1e-12)

    def test_quadratic_limit_empty(self):
        assert collapse_times(1, SystemParams(1.0, 0.0, 0.1), (0.0, 1e6)) == []

    def test_guard_scales_with_spacing(self):
        # the spacing read off the enumerated times; the closed form's guard is relative to it
        t_first, t_second = collapse_times(1, P, (0.0, 1.5 * SPACING_1))
        t = t_first + 0.01 * (t_second - t_first)
        hyperbolic_xn_average(1, 0.5, P, t, guard=1e-6)
        with pytest.raises(CollapseProximity):
            hyperbolic_xn_average(1, 0.5, P, t, guard=0.1)

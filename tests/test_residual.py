"""Evolution-operator generation and finite-difference residual checks."""

import math
from fractions import Fraction

import pytest

from cohevol import (
    DegreeError,
    StencilError,
    SystemParams,
    WickPolynomial,
    central_weights,
    elliptic_classical_average,
    elliptic_quantum_average,
    elliptic_symbol,
    generate_operator,
    hyperbolic_classical_symbol,
    hyperbolic_classical_xn,
    hyperbolic_symbol,
    hyperbolic_xn_average,
    liouville_operator,
    make_hyperbolic_params,
    residual,
    wirtinger_derivative,
)

HYP = make_hyperbolic_params(1.0, 0.1, 0.25)
ELL = SystemParams(1.0, 0.05, 0.2)


def _hand_hyperbolic_table(om, mu, hb):
    # transcription of the full quartic-model evolution operator, term by term
    return {
        ("alpha_star", 1): {
            (0, 1): 1j * (2 * (-1j * om)),
            (2, 1): 1j * (2 * (-2 * mu)),
            (0, 3): 1j * (4 * mu),
            (1, 0): 1j * (-4.0 * mu * hb),
        },
        ("alpha", 1): {
            (1, 0): -1j * (2 * (1j * om)),
            (1, 2): -1j * (2 * (-2 * mu)),
            (3, 0): -1j * (4 * mu),
            (0, 1): -1j * (-4.0 * mu * hb),
        },
        ("alpha_star", 2): {
            (0, 0): (1j * hb) * (-1j * om),
            (2, 0): (1j * hb) * (-2 * mu),
            (0, 2): (1j * hb) * (6 * mu),
        },
        ("alpha", 2): {
            (0, 0): (-1j * hb) * (1j * om),
            (0, 2): (-1j * hb) * (-2 * mu),
            (2, 0): (-1j * hb) * (6 * mu),
        },
        ("alpha_star", 3): {(0, 1): (1j * hb**2) * (4 * mu)},
        ("alpha", 3): {(1, 0): (-1j * hb**2) * (4 * mu)},
        ("alpha_star", 4): {(0, 0): (1j * hb**3) * mu},
        ("alpha", 4): {(0, 0): (-1j * hb**3) * mu},
    }


def _hand_elliptic_table(om, mu, hb):
    return {
        ("alpha_star", 1): {(1, 0): 1j * om, (2, 1): 1j * (2 * mu)},
        ("alpha", 1): {(0, 1): -1j * om, (1, 2): -1j * (2 * mu)},
        ("alpha_star", 2): {(2, 0): (1j * hb) * mu},
        ("alpha", 2): {(0, 2): (-1j * hb) * mu},
    }


class TestOperatorGeneration:
    def test_hyperbolic_table_exact(self):
        op = generate_operator(hyperbolic_symbol(HYP), HYP.hbar)
        assert op.table() == _hand_hyperbolic_table(HYP.omega, HYP.mu, HYP.hbar)

    def test_elliptic_table_exact(self):
        op = generate_operator(elliptic_symbol(ELL), ELL.hbar)
        assert op.table() == _hand_elliptic_table(ELL.omega, ELL.mu, ELL.hbar)

    def test_harmonic_symbol_first_order_only(self):
        op = generate_operator(WickPolynomial({(1, 1): 1.3}), 0.2)
        assert op.table() == {
            ("alpha_star", 1): {(1, 0): 1j * 1.3},
            ("alpha", 1): {(0, 1): -1j * 1.3},
        }

    def test_number_like_symbol_equals_liouville(self):
        # second derivatives of a pure |alpha|^2 symbol vanish, so the full
        # operator collapses to the classical transport operator exactly
        symbol = WickPolynomial({(1, 1): 0.7})
        assert generate_operator(symbol, 0.3).table() == liouville_operator(symbol).table()

    def test_squeezing_symbol_keeps_second_order_terms(self):
        # quadratic but not number-conserving: the hbar-weighted
        # second-derivative terms survive (mu=0 limit of the quartic model)
        p = make_hyperbolic_params(1.0, 0.0, 0.3)
        table = generate_operator(hyperbolic_symbol(p), p.hbar).table()
        assert table[("alpha_star", 2)] == {(0, 0): (1j * p.hbar) * (-1j * p.omega)}
        assert table[("alpha", 2)] == {(0, 0): (-1j * p.hbar) * (1j * p.omega)}
        assert liouville_operator(hyperbolic_symbol(p)).table().keys() == {
            ("alpha_star", 1),
            ("alpha", 1),
        }

    def test_linearity_in_the_symbol(self):
        a = elliptic_symbol(ELL)
        b = WickPolynomial({(1, 1): 0.4, (2, 1): 0.2j, (1, 2): -0.2j})
        hb = 0.2
        summed = dict(a.coeffs)
        for key, c in b.coeffs.items():
            summed[key] = summed.get(key, 0.0) + c
        combined = generate_operator(WickPolynomial(summed), hb).table()
        separate_a = generate_operator(a, hb).table()
        separate_b = generate_operator(b, hb).table()
        merged = {}
        for table in (separate_a, separate_b):
            for key, tab in table.items():
                dst = merged.setdefault(key, {})
                for mono, c in tab.items():
                    dst[mono] = dst.get(mono, 0j) + c
        merged = {
            key: {m: c for m, c in tab.items() if c != 0} for key, tab in merged.items()
        }
        merged = {key: tab for key, tab in merged.items() if tab}
        assert combined == merged

    def test_degree_cap(self):
        with pytest.raises(DegreeError):
            generate_operator(WickPolynomial({(5, 4): 1.0, (4, 5): 1.0}), 0.1)


class TestStencils:
    def test_first_derivative_fourth_order(self):
        offsets, weights = central_weights(1, 4)
        assert offsets == (-2, -1, 0, 1, 2)
        assert weights == (
            Fraction(1, 12),
            Fraction(-2, 3),
            Fraction(0),
            Fraction(2, 3),
            Fraction(-1, 12),
        )

    def test_fourth_derivative_second_order(self):
        offsets, weights = central_weights(4, 2)
        assert offsets == (-2, -1, 0, 1, 2)
        assert weights == (
            Fraction(1),
            Fraction(-4),
            Fraction(6),
            Fraction(-4),
            Fraction(1),
        )

    @pytest.mark.parametrize("order,accuracy", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 4), (2, 4), (3, 4), (4, 4)])
    def test_moment_conditions(self, order, accuracy):
        offsets, weights = central_weights(order, accuracy)
        for q in range(len(offsets)):
            total = sum(w * Fraction(j) ** q for j, w in zip(offsets, weights))
            assert total == (math.factorial(order) if q == order else 0)

    def test_wirtinger_on_polynomial(self):
        # f = conj(a)^2 a^3: all mixed derivatives known exactly
        def f(alpha, _t):
            return alpha.conjugate() ** 2 * alpha**3

        alpha = 0.7 + 0.4j
        d_star = wirtinger_derivative(f, alpha, 0.0, 2, "alpha_star", step=1e-3)
        assert d_star == pytest.approx(2.0 * alpha**3, rel=1e-9)
        d_a = wirtinger_derivative(f, alpha, 0.0, 3, "alpha", step=2e-2)
        assert d_a == pytest.approx(6.0 * alpha.conjugate() ** 2, rel=1e-7)

    def test_analytic_function_annihilated_by_conjugate_derivative(self):
        def f(alpha, _t):
            return alpha**4

        value = wirtinger_derivative(f, 0.6 - 0.2j, 0.0, 1, "alpha_star", step=1e-3)
        assert abs(value) <= 1e-10


def _slope(op, f, alpha, t, steps, accuracy=2):
    values = [abs(residual(op, f, alpha, t, step=h, accuracy=accuracy)) for h in steps]
    logs_h = [math.log(h) for h in steps]
    logs_r = [math.log(v) for v in values]
    n = len(steps)
    mean_h = sum(logs_h) / n
    mean_r = sum(logs_r) / n
    return sum((x - mean_h) * (y - mean_r) for x, y in zip(logs_h, logs_r)) / sum(
        (x - mean_h) ** 2 for x in logs_h
    )


class TestResiduals:
    def test_quartic_average_solves_its_equation(self):
        op = generate_operator(hyperbolic_symbol(HYP), HYP.hbar)
        f = lambda a, t: hyperbolic_xn_average(1, a, HYP, t)
        slope = _slope(op, f, 0.6 + 0.4j, 0.25, (0.04, 0.02, 0.01))
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_second_power_average_solves_it_too(self):
        op = generate_operator(hyperbolic_symbol(HYP), HYP.hbar)
        f = lambda a, t: hyperbolic_xn_average(2, a, HYP, t)
        slope = _slope(op, f, 0.5 + 0.3j, 0.2, (0.04, 0.02, 0.01))
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_elliptic_average_solves_its_equation(self):
        op = generate_operator(elliptic_symbol(ELL), ELL.hbar)
        f = lambda a, t: elliptic_quantum_average(2, 1, a, ELL, t)
        slope = _slope(op, f, 0.6 + 0.4j, 0.25, (0.04, 0.02, 0.01))
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_fourth_order_configuration_converges_faster(self):
        op = generate_operator(elliptic_symbol(ELL), ELL.hbar)
        f = lambda a, t: elliptic_quantum_average(1, 0, a, ELL, t)
        slope = _slope(op, f, 0.5 + 0.2j, 0.3, (0.08, 0.04, 0.02), accuracy=4)
        assert slope == pytest.approx(4.0, abs=0.35)

    def test_classical_solution_fails_quantum_equation(self):
        op = generate_operator(hyperbolic_symbol(HYP), HYP.hbar)
        f = lambda a, t: hyperbolic_classical_xn(1, a, HYP, t)
        values = [
            abs(residual(op, f, 0.6 + 0.4j, 0.25, step=h, accuracy=2))
            for h in (0.04, 0.02, 0.01)
        ]
        assert values[-1] > 1e-2
        assert abs(values[-1] - values[0]) <= 0.3 * values[-1]

    def test_liouville_annihilates_classical_solutions(self):
        lop_h = liouville_operator(hyperbolic_classical_symbol(HYP))
        f_h = lambda a, t: hyperbolic_classical_xn(1, a, HYP, t)
        assert _slope(lop_h, f_h, 0.6 + 0.4j, 0.25, (0.04, 0.02, 0.01)) == pytest.approx(
            2.0, abs=0.1
        )
        lop_e = liouville_operator(elliptic_symbol(ELL))
        f_e = lambda a, t: elliptic_classical_average(2, 1, a, ELL, t)
        assert _slope(lop_e, f_e, 0.6 + 0.4j, 0.25, (0.04, 0.02, 0.01)) == pytest.approx(
            2.0, abs=0.1
        )

    def test_residual_reality_for_real_valued_solution(self):
        # Hermitian symbol + real-valued candidate: imaginary part converges
        # at the same order as the residual itself
        op = generate_operator(hyperbolic_symbol(HYP), HYP.hbar)
        f = lambda a, t: hyperbolic_xn_average(1, a, HYP, t)
        for h in (0.04, 0.02):
            r = residual(op, f, 0.6 + 0.4j, 0.25, step=h, accuracy=2)
            assert abs(r.imag) <= abs(r) + 1e-14

    def test_guard_becomes_stencil_error(self):
        p = make_hyperbolic_params(1.0, 0.4, 0.5)
        op = generate_operator(hyperbolic_symbol(p), p.hbar)
        f = lambda a, t: hyperbolic_xn_average(1, a, p, t)
        t_collapse = math.pi / (16.0 * p.mu * p.hbar)
        with pytest.raises(StencilError):
            residual(op, f, 0.5 + 0.1j, t_collapse, step=1e-3)

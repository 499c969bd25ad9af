"""Domain types and parameter validation."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohevol import (
    DegreeError,
    DomainError,
    Monomial,
    SystemParams,
    WickPolynomial,
    XPower,
    hyperbolic_symbol,
    lyapunov_exponents,
    make_hyperbolic_params,
)
from cohevol import fock
from cohevol.core import Record


class TestSystemParams:
    def test_valid_hyperbolic(self):
        p = make_hyperbolic_params(1.0, 0.1, 0.01)
        assert p.hyperbolic_capable

    def test_lyapunov_condition_violated(self):
        with pytest.raises(DomainError):
            make_hyperbolic_params(1.0, 200.0, 0.01)

    def test_quadratic_limit_allowed(self):
        p = make_hyperbolic_params(1.0, 0.0, 0.5)
        assert p.mu == 0.0

    def test_hbar_positive(self):
        with pytest.raises(DomainError):
            SystemParams(1.0, 0.1, 0.0)
        with pytest.raises(DomainError):
            SystemParams(1.0, 0.1, -1.0)

    def test_finite_fields(self):
        with pytest.raises(DomainError):
            SystemParams(math.inf, 0.1, 0.1)
        with pytest.raises(DomainError):
            SystemParams(1.0, math.nan, 0.1)


class TestLyapunov:
    def test_quadratic_limit(self):
        assert lyapunov_exponents(SystemParams(1.0, 0.0, 1.0)) == (2.0, -2.0)

    def test_exact_values(self):
        plus, minus = lyapunov_exponents(SystemParams(1.0, 0.6, 1.0))
        assert plus == pytest.approx(1.6, rel=1e-14)
        assert minus == pytest.approx(-1.6, rel=1e-14)

    def test_sqrt3_case(self):
        plus, _ = lyapunov_exponents(SystemParams(2.0, 1.0, 1.0))
        assert plus == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-14)

    def test_product_nonpositive_and_opposite(self):
        p = SystemParams(1.3, 0.2, 0.4)
        plus, minus = lyapunov_exponents(p)
        assert plus == -minus
        assert plus * minus == pytest.approx(
            -4.0 * (p.omega**2 - (p.mu * p.hbar) ** 2), rel=1e-13
        )

    def test_rejects_elliptic_only_params(self):
        with pytest.raises(DomainError):
            lyapunov_exponents(SystemParams(0.5, 2.0, 1.0))


class TestObservables:
    def test_xpower_requires_positive(self):
        assert XPower(1).n == 1
        with pytest.raises(DomainError):
            XPower(0)

    def test_monomial_allows_constant(self):
        assert Monomial(0, 0).m == 0
        with pytest.raises(DomainError):
            Monomial(-1, 0)


class TestWickPolynomial:
    def test_hermitian_table_accepted(self):
        poly = WickPolynomial({(1, 0): 1 + 2j, (0, 1): 1 - 2j, (1, 1): 3.0})
        assert poly.degree == 2
        poly.validate_hermitian()  # idempotent

    def test_single_entry_violation_detected(self):
        with pytest.raises(DomainError):
            WickPolynomial({(1, 0): 1 + 2j, (0, 1): 1 + 2j})

    def test_missing_mirror_detected(self):
        with pytest.raises(DomainError):
            WickPolynomial({(2, 0): 1j})

    def test_degree_cap(self):
        with pytest.raises(DegreeError):
            WickPolynomial({(5, 4): 1.0, (4, 5): 1.0})

    def test_zero_entries_dropped(self):
        poly = WickPolynomial({(1, 1): 1.0, (2, 2): 0.0})
        assert (2, 2) not in poly.coeffs

    @settings(max_examples=50, deadline=None)
    @given(
        perturbation=st.complex_numbers(
            min_magnitude=1e-9, max_magnitude=1e3, allow_nan=False, allow_infinity=False
        )
    )
    def test_any_offdiagonal_perturbation_detected(self, perturbation):
        base = dict(hyperbolic_symbol(SystemParams(1.0, 0.1, 0.1)).coeffs)
        base[(2, 0)] = base[(2, 0)] + perturbation
        with pytest.raises(DomainError):
            WickPolynomial(base)


def _record_types(cls=Record) -> set:
    subs = set(cls.__subclasses__())
    return subs.union(*map(_record_types, subs))


# the records built by the base constructor, each from sample values of its fields
PLAIN_RECORDS = sorted((cls for cls in _record_types() if "__init__" not in vars(cls)), key=lambda c: c.__name__)
_ARRAY = np.array([0.5, 0.25j])
_VECTOR = {"dim": 2, "hbar": 0.1, "alpha": 0.5j, "coeffs": _ARRAY, "tail_mass": 0.0}
SAMPLES = {
    "TableResult": {"columns": ("t", "f"), "rows": ((0.0, None),)},
    "EhrenfestFit": {"hbar_values": (0.1,), "breakdown_times": (2.0,), "relative_times": (None,), "threshold": 1.0},
    "EvolutionOperator": {"terms": {("alpha", 1): {(1, 0): 2j}}},
    "CoherentVector": _VECTOR,
    "Sector": {"index": slice(None), "rates": _ARRAY, "even": None, "odd": None, "gauge": None},
    "_Initial": {"vector": fock.CoherentVector(**_VECTOR), "norm": 1.0, "coeffs": (_ARRAY,)},
}
# an array field compares elementwise, so a pickled copy of these cannot be compared with ==
HOLDS_ARRAYS = {"CoherentVector", "Sector", "_Initial"}


def test_plain_records_are_the_sampled_ones():
    assert [cls.__name__ for cls in PLAIN_RECORDS] == sorted(SAMPLES)


@pytest.mark.parametrize("cls", PLAIN_RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    values = SAMPLES[cls.__name__]
    record = cls(**values)
    copied = record.replace()
    assert copied is not record and copied == record
    if cls.__name__ not in HOLDS_ARRAYS:
        assert copy.copy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], None)
    required = next(name for name in cls._fields if name not in cls._defaults)
    for build in (
        lambda: cls(*values.values()),
        lambda: cls(**values, unknown=1),
        lambda: cls(**{name: value for name, value in values.items() if name != required}),
    ):
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\)"):
            build()

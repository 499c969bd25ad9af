"""Evolution-operator generation and finite-difference residuals.

``generate_operator`` turns a polynomial phase-space symbol into the
differential operator governing its evolved averages,

    (i/hbar) * sum_r (1/r!) [ (d/da)^r H (hbar d/da*)^r
                              - (d/da*)^r H (hbar d/da)^r ],

with coefficient tables built in exact integer arithmetic (binomials) times
the symbol coefficients.  The operator is its coefficient table:
``{(wrt, order): {(ell, s): c}}``.  ``residual`` then checks a candidate
solution ``f(alpha, t)`` against such an operator in one stencil pass: it
samples the time stencil and the phase-space grid once each, and realizes
the phase-space derivatives as Wirtinger combinations
``d/da = (d/du - i d/dv)/2``, ``d/da* = (d/du + i d/dv)/2`` over
``alpha = u + i v``.

Candidate solutions are black-box callables so the same checker validates
closed forms, interpolants, and deliberately wrong functions.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .core import (
    CollapseProximity,
    Record,
    StencilError,
    WickPolynomial,
)

DEFAULT_STEP = 1e-3
DEFAULT_ACCURACY = 4


# ---------------------------------------------------------------------------
# Operator generation
# ---------------------------------------------------------------------------

class EvolutionOperator(Record):
    """Sum of polynomial-coefficient derivative terms acting on averages.

    ``terms`` maps ``(wrt, order)`` to the coefficient table
    ``{(ell, s): c}`` of ``sum c conj(alpha)^ell alpha^s`` multiplying
    ``d^order/d(wrt)^order``; ``wrt`` is ``"alpha"`` or ``"alpha_star"``.
    """

    __slots__ = _fields = ("terms",)

    def table(self) -> dict:
        """The coefficient tables with an all-zero table dropped."""
        return {key: tab for key, tab in self.terms.items() if any(tab.values())}


def _shifted_table(coeffs: dict, r: int, var: str) -> dict:
    # d^r/d(var)^r of the monomial table; binomial multipliers are exact ints.
    out: dict = {}
    for (ell, s), c in coeffs.items():
        if var == "alpha":
            if s >= r:
                key = (ell, s - r)
                out[key] = out.get(key, 0j) + math.comb(s, r) * c
        else:
            if ell >= r:
                key = (ell - r, s)
                out[key] = out.get(key, 0j) + math.comb(ell, r) * c
    return {key: c for key, c in out.items() if c != 0}


def generate_operator(symbol: WickPolynomial, hbar: float) -> EvolutionOperator:
    """Full evolution operator of a Hermitian-symmetric polynomial symbol.

    The symbol's degree is capped when it is built (:class:`DegreeError`).
    """
    symbol.validate_hermitian()
    terms: dict = {}
    for r in range(1, symbol.degree + 1):
        scale = 1j * hbar ** (r - 1)
        plus = _shifted_table(symbol.coeffs, r, "alpha")
        if plus:
            terms[("alpha_star", r)] = {key: scale * c for key, c in plus.items()}
        minus = _shifted_table(symbol.coeffs, r, "alpha_star")
        if minus:
            terms[("alpha", r)] = {key: -scale * c for key, c in minus.items()}
    return EvolutionOperator(terms=terms)


def liouville_operator(symbol: WickPolynomial) -> EvolutionOperator:
    """Classical transport operator: the first-order part, no hbar factors.

    The ``r = 1`` terms of :func:`generate_operator` carry ``hbar**0``, so
    any ``hbar`` gives them exactly.
    """
    full = generate_operator(symbol, 1.0)
    return EvolutionOperator(terms={key: tab for key, tab in full.terms.items() if key[1] == 1})


# ---------------------------------------------------------------------------
# Central-difference stencils (exact rational weights)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def central_weights(order: int, accuracy: int = DEFAULT_ACCURACY) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """Offsets and weights of the minimal symmetric stencil.

    Satisfies ``sum w_j j^q = q! delta_{q,order}`` for all representable
    moments; the derivative estimate is ``sum w_j f(x + j h) / h^order`` with
    leading error ``O(h^accuracy)``.
    """
    from fractions import Fraction  # here, so that importing the package loads no fractions or decimal

    if order < 0 or accuracy < 2 or accuracy % 2:
        raise ValueError("derivative order >= 0 and even accuracy >= 2 required")
    if order == 0:
        return (0,), (Fraction(1),)
    half = _stencil_radius(order, accuracy)
    offsets = tuple(range(-half, half + 1))
    npts = len(offsets)
    # Solve the moment conditions exactly.
    rows = [[Fraction(j) ** q for j in offsets] for q in range(npts)]
    rhs = [Fraction(math.factorial(order)) if q == order else Fraction(0) for q in range(npts)]
    weights = _solve_exact(rows, rhs)
    return offsets, tuple(weights)


@lru_cache(maxsize=None)
def _float_taps(order: int, accuracy: int) -> tuple[tuple[int, float], ...]:
    """The ``(offset, float(weight))`` pairs of :func:`central_weights` whose weight is not 0."""
    offsets, weights = central_weights(order, accuracy)
    return tuple((j, float(w)) for j, w in zip(offsets, weights) if w != 0)


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


# ---------------------------------------------------------------------------
# Wirtinger derivatives and the residual
# ---------------------------------------------------------------------------

def _mixed_partial(
    grid: dict, a_order: int, b_order: int, step: float, accuracy: int
) -> complex:
    taps_v = _float_taps(b_order, accuracy)
    total = 0j
    for ju, wu in _float_taps(a_order, accuracy):
        for jv, wv in taps_v:
            total += wu * wv * grid[(ju, jv)]
    return total / step ** (a_order + b_order)


def wirtinger_derivative(
    f,
    alpha: complex,
    t: float,
    order: int,
    wrt: str,
    step: float = DEFAULT_STEP,
    accuracy: int = DEFAULT_ACCURACY,
) -> complex:
    """Central-difference ``(d/d alpha)^order`` or ``(d/d alpha*)^order`` of f."""
    grid = _sample_grid(f, alpha, t, order, step, accuracy)
    return _wirtinger_from_grid(grid, order, wrt, step, accuracy)


def _wirtinger_from_grid(
    grid: dict, order: int, wrt: str, step: float, accuracy: int
) -> complex:
    sign = 1j if wrt == "alpha_star" else -1j
    total = 0j
    for j in range(order + 1):
        coef = math.comb(order, j) * sign**j
        total += coef * _mixed_partial(grid, order - j, j, step, accuracy)
    return total / 2**order


def _stencil_radius(order: int, accuracy: int) -> int:
    return (order + 1) // 2 + accuracy // 2 - 1


def _sample(f, points: list) -> list:
    # Every stencil evaluation goes through here, so one guard maps to StencilError.
    try:
        return [f(alpha, t) for alpha, t in points]
    except CollapseProximity as exc:
        raise StencilError(f"stencil point hit an evaluation guard: {exc}") from exc


def _sample_grid(f, alpha: complex, t: float, max_order: int, step: float, accuracy: int) -> dict:
    radius = _stencil_radius(max_order, accuracy)
    offsets = [(ju, jv) for ju in range(-radius, radius + 1) for jv in range(-radius, radius + 1)]
    values = _sample(f, [(alpha + (ju + 1j * jv) * step, t) for ju, jv in offsets])
    return dict(zip(offsets, values))


def residual(
    op: EvolutionOperator,
    f,
    alpha: complex,
    t: float,
    step: float = DEFAULT_STEP,
    accuracy: int = DEFAULT_ACCURACY,
) -> complex:
    """``df/dt - (op f)`` at ``(alpha, t)``; vanishes on true solutions.

    ``step`` is scaled by ``max(1, |alpha|)``; halving it must shrink the
    residual at the stencil's accuracy order for genuine solutions, while
    wrong candidates plateau at their true defect.

    Raises
    ------
    StencilError
        If any stencil evaluation violates a collapse guard.
    """
    h = step * max(1.0, abs(alpha))
    taps = _float_taps(1, accuracy)
    values = _sample(f, [(alpha, t + j * h) for j, _ in taps])
    dfdt = sum(w * v for (_, w), v in zip(taps, values)) / h
    max_order = max((order for _, order in op.terms), default=0)
    grid = _sample_grid(f, alpha, t, max_order, h, accuracy)
    a = complex(alpha)
    ac = a.conjugate()
    total = 0j
    for (wrt, order), coeffs in op.terms.items():
        derivative = _wirtinger_from_grid(grid, order, wrt, h, accuracy)
        total += sum(c * ac**ell * a**s for (ell, s), c in coeffs.items()) * derivative
    return dfdt - total

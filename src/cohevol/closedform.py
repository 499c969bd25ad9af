"""Exact analytic averages, dispersion, collapse times, and branch tracking.

Evaluation strategy
-------------------
All growing/decaying factors are combined into a single exponent, and both
``x^n`` routes form their value through one overflow-safe product
(``_exp_product``, in log scale where ``exp`` or the product overflows), so
values near the float range are computed as long as the final value is
representable.  For collapse scans the log-magnitude evaluator never forms it.

Every fractional power of ``cos(8 n mu hbar t)`` is realized through integer
powers of the tracked branch value (``_tracked_branch``), never via a
principal power of a negative real.  Each closed-form call runs its checks
and builds its pieces (exponent, branch, series, route) once, and feeds them
to the float-range check, the route choice and the value.  The independent
cross-check path evaluates the pre-integral Gaussian representation with
principal square roots (its argument has positive real part away from
collapse, so no tracking is needed there) and a scaled three-term moment
recursion.

No evaluator returns ``inf``/``nan``.  An ``x^n`` average beyond float64 is
:class:`CollapseProximity`; a classical, elliptic or dispersion value is
:class:`FloatRangeError` (a :class:`DomainError` and an ``OverflowError``).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from enum import Enum
from typing import Optional

from .core import (
    CollapseProximity,
    DomainError,
    RegimeMismatch,
    SystemParams,
)

DEFAULT_GUARD = 1e-6

# i^k for k mod 4; kept as exact unit constants so branch phases do not drift.
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)

_MAX_XN_ORDER = 20
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class FloatRangeError(DomainError, OverflowError):
    """A classical, elliptic or dispersion value that overflows float64."""


def _within_float_range(evaluate):
    """Map a result that overflows float64 (OverflowError, inf or nan) to FloatRangeError."""

    @functools.wraps(evaluate)
    def checked(*args, **kwargs) -> complex:
        try:
            value = evaluate(*args, **kwargs)
        except OverflowError as exc:
            raise FloatRangeError(f"{evaluate.__name__} overflows float64 ({exc})") from None
        if not cmath.isfinite(value):
            raise FloatRangeError(f"{evaluate.__name__} is not finite (got {value!r})")
        return value

    return checked


# ---------------------------------------------------------------------------
# Collapse times and guards
# ---------------------------------------------------------------------------

def collapse_spacing(n: int, params: SystemParams) -> float:
    """Gap between consecutive collapse times; ``inf`` in the quadratic limit."""
    if params.mu == 0.0:
        return math.inf
    return math.pi / (8.0 * abs(params.mu) * n * params.hbar)


def collapse_times(
    n: int, params: SystemParams, window: tuple[float, float]
) -> list[float]:
    """All collapse times ``pi/(16 mu n hbar) + l pi/(8 mu n hbar)`` in window.

    Returns an empty list when ``mu == 0`` (no collapse in the quadratic
    limit).  The window is inclusive and times are sorted ascending.
    """
    _check_xn_order(n)
    if params.mu == 0.0:
        return []
    t_lo, t_hi = window
    if t_hi < t_lo:
        raise DomainError("window must satisfy t_min <= t_max")
    base = math.pi / (16.0 * params.mu * n * params.hbar)
    spacing = 2.0 * base  # signed: negative when mu < 0
    lo = (t_lo - base) / spacing
    hi = (t_hi - base) / spacing
    if lo > hi:
        lo, hi = hi, lo
    ells = range(math.ceil(lo - 1e-12), math.floor(hi + 1e-12) + 1)
    times = [base + ell * spacing for ell in ells]
    return sorted(t for t in times if t_lo - 1e-12 <= t <= t_hi + 1e-12)


def check_collapse_guard(
    n: int, params: SystemParams, t: float, guard: float = DEFAULT_GUARD
) -> None:
    """Raise :class:`CollapseProximity` within ``guard`` * spacing of a collapse.

    ``guard`` is relative to the collapse-time spacing; shrink it (or pass 0)
    to opt into near-collapse scans.
    """
    if params.mu == 0.0 or guard <= 0.0:
        return
    phi = 8.0 * n * params.mu * params.hbar * t
    r = phi / math.pi - 0.5
    if abs(r - round(r)) < guard:
        raise CollapseProximity(
            f"t={t} is within {guard:g} of a collapse time for n={n} "
            "(shrink the guard to scan closer)"
        )


# ---------------------------------------------------------------------------
# Branch tracking
# ---------------------------------------------------------------------------

def _tracked_branch(phi: float) -> tuple[int, float, float]:
    """``(k, bsq, mag)`` of the tracked root ``b = mag * i^k`` of ``1/(2 cos phi)``.

    ``k = floor(1/2 + phi/pi)`` counts the collapse times crossed.  ``bsq`` is
    ``b^2``: ``i^(2k)`` supplies exactly the sign of cos, so the signed
    ``1/(2 cos phi)`` is both branch-correct and exact at ``phi = 0`` (keeps
    the t = 0 exponent cancellation of the closed form bit-perfect).
    """
    k = math.floor(0.5 + phi / math.pi)
    bsq = 0.5 / math.cos(phi)
    return k, bsq, math.sqrt(abs(bsq))


# ---------------------------------------------------------------------------
# Elliptic model (Kerr-type oscillator)
# ---------------------------------------------------------------------------

def _validate_monomial(m: int, q: int) -> None:
    if not (isinstance(m, int) and isinstance(q, int)) or m < 0 or q < 0:
        raise DomainError(f"monomial orders must be nonnegative integers, got {(m, q)}")


@_within_float_range
def elliptic_quantum_average(
    m: int, q: int, alpha: complex, params: SystemParams, t: float
) -> complex:
    """Evolved average of ``adag^m a^q`` in the elliptic model; entire in t."""
    _validate_monomial(m, q)
    a = complex(alpha)
    d = m - q
    mu_h = params.mu * params.hbar
    exponent = (
        1j * params.omega * t * d
        + 1j * mu_h * t * (m * (m - 1) - q * (q - 1))
        + (cmath.exp(2j * mu_h * d * t) - 1.0) * abs(a) ** 2 / params.hbar
    )
    return a.conjugate() ** m * a**q * cmath.exp(exponent)


@_within_float_range
def elliptic_classical_average(
    m: int, q: int, alpha: complex, params: SystemParams, t: float
) -> complex:
    """Transport of ``conj(a)^m a^q`` along the classical elliptic flow."""
    _validate_monomial(m, q)
    a = complex(alpha)
    rate = params.omega + 2.0 * params.mu * abs(a) ** 2
    return a.conjugate() ** m * a**q * cmath.exp(1j * rate * (m - q) * t)


# ---------------------------------------------------------------------------
# Hyperbolic model: x^n averages
# ---------------------------------------------------------------------------

def _check_xn_order(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"observable power must be an integer >= 1, got {n!r}")
    if n > _MAX_XN_ORDER:
        raise DomainError(
            f"n={n} exceeds the exact-factorial cap {_MAX_XN_ORDER}"
        )


def _xn_closed_pieces(
    n: int, alpha: complex, params: SystemParams, t: float
) -> tuple[float, float, int, complex, bool]:
    """Shared pieces ``(exponent, magnitude, phase_index, series_sum, closed_route)``.

    The full average is
    ``exp(exponent) * 2^((n+1)/2) mag^(n+1) i^(k(n+1)) * series_sum``.
    ``closed_route`` is ``cos(8 n mu hbar t) > 0``, read off the sign of ``b^2``.
    """
    a = complex(alpha)
    phi = 8.0 * n * params.mu * params.hbar * t
    k, bsq, mag = _tracked_branch(phi)
    xi = 2.0 * (a * cmath.exp(0.5j * phi)).real  # real for every alpha
    s_line = 2.0 * a.real  # alpha + conj(alpha)
    exponent = (
        -s_line * s_line / (2.0 * params.hbar)
        + xi * xi * bsq / params.hbar
        + 2.0 * params.omega * n * t
    )
    series = 0j
    xb_mag = xi * mag
    for j in range(n // 2 + 1):
        coef = math.factorial(n) / (4.0**j * math.factorial(j) * math.factorial(n - 2 * j))
        power = n - 2 * j
        series += (
            coef * params.hbar**j * xb_mag**power * _I_POW[(k * power) % 4]
        )
    return exponent, mag, k, series, bsq > 0.0


def _log10_magnitude(n: int, pieces: tuple) -> float:
    exponent, mag, _, series, _ = pieces
    if series == 0:
        return -math.inf
    return (
        exponent / math.log(10.0)
        + (n + 1) * (0.5 * math.log10(2.0) + math.log10(mag))
        + math.log10(abs(series))
    )


def _exp_product(exponent: complex, a: complex, b: complex) -> complex:
    """``a * exp(exponent) * b``, in log scale where ``exp`` or the product overflows."""
    if exponent.real <= _LOG_FLOAT_MAX:
        value = a * cmath.exp(exponent) * b
        if cmath.isfinite(value):
            return value
    # a * exp(exponent) overflows although the product with a small b is
    # representable: combine the factors in log scale instead.
    scaled = a * b
    if scaled == 0:
        return 0j
    return cmath.exp(exponent + cmath.log(scaled))


def _xn_closed_value(n: int, pieces: tuple) -> complex:
    exponent, mag, k, series, _ = pieces
    prefactor = 2.0 ** ((n + 1) / 2.0) * mag ** (n + 1) * _I_POW[(k * (n + 1)) % 4]
    return _exp_product(exponent, prefactor, series)


def gaussian_moment_ratios(
    j_max: int, w: complex, b: complex, hbar: float
) -> list[complex]:
    """Scaled moments ``M_j / M_0`` of ``exp(-(w x^2 - 2 sqrt(2) b x)/(2 hbar))``.

    Three-term recursion from integration by parts,
    ``M_j = (hbar (j-1) M_{j-2} + sqrt(2) b M_{j-1}) / w``; requires
    ``Re w > 0`` so the boundary terms vanish.
    """
    if w.real <= 0.0:
        raise DomainError(f"moment recursion needs Re(w) > 0, got {w!r}")
    ratios = [1 + 0j]
    prev2, prev1 = 0j, 1 + 0j
    for j in range(1, j_max + 1):
        current = (hbar * (j - 1) * prev2 + math.sqrt(2.0) * b * prev1) / w
        ratios.append(current)
        prev2, prev1 = prev1, current
    return ratios


def _xn_integral_value(n: int, alpha: complex, params: SystemParams, t: float) -> complex:
    """Pre-integral Gaussian route with principal square roots throughout."""
    a = complex(alpha)
    theta = 8.0 * n * params.mu * params.hbar * t
    w = 1.0 + cmath.exp(2j * theta)
    b = a.conjugate() + a * cmath.exp(1j * theta)
    s_line = 2.0 * a.real
    exponent = (
        -s_line * s_line / (2.0 * params.hbar)
        + b * b / (params.hbar * w)
        + 2.0 * params.omega * n * t
        + 4j * params.mu * params.hbar * t * n * (n + 1)
    )
    ratios = gaussian_moment_ratios(n, w, b, params.hbar)
    return _exp_product(exponent, cmath.sqrt(2.0 / w), ratios[n])


def _guarded_pieces(
    n: int, alpha: complex, params: SystemParams, t: float, guard: float
) -> tuple[float, float, int, complex, bool]:
    """Closed-form pieces after the order, model and collapse-guard checks."""
    _check_xn_order(n)
    params.require_hyperbolic()
    check_collapse_guard(n, params, t, guard)
    return _xn_closed_pieces(n, alpha, params, t)


def _representable_pieces(
    n: int, alpha: complex, params: SystemParams, t: float, guard: float
) -> tuple[float, float, int, complex, bool]:
    """Guarded pieces whose value fits float64, built once for every route."""
    pieces = _guarded_pieces(n, alpha, params, t, guard)
    # The magnitude blows up double-exponentially on the approach to a
    # collapse time and leaves float64 range long before the guard band;
    # treat that overflow zone as collapse proximity (log-scale evaluation
    # stays available arbitrarily close).
    log10_mag = _log10_magnitude(n, pieces)
    if log10_mag > 307.0:
        raise CollapseProximity(
            f"|<x^{n}>| ~ 1e{log10_mag:.0f} exceeds float64 range at t={t}; "
            "use hyperbolic_xn_log10_magnitude for near-collapse scans"
        )
    return pieces


def hyperbolic_xn_average(
    n: int,
    alpha: complex,
    params: SystemParams,
    t: float,
    guard: float = DEFAULT_GUARD,
) -> complex:
    """Evolved coherent-state average of ``x^n`` in the hyperbolic model.

    Valid on every open interval between collapse times; on intervals where
    ``cos(8 n mu hbar t) < 0`` the pre-integral route (whose square-root
    branch is unambiguous) is authoritative.  Both routes agree to float
    precision everywhere; see :func:`hyperbolic_xn_paths`.

    Raises
    ------
    CollapseProximity
        Within ``guard`` (relative to the collapse spacing) of a collapse time.
    DomainError
        If the parameters are not hyperbolic-capable or ``n`` is out of range.
    """
    pieces = _representable_pieces(n, alpha, params, t, guard)
    if pieces[-1]:  # closed_route: cos(8 n mu hbar t) > 0
        return _xn_closed_value(n, pieces)
    return _xn_integral_value(n, alpha, params, t)


def hyperbolic_xn_paths(
    n: int,
    alpha: complex,
    params: SystemParams,
    t: float,
    guard: float = DEFAULT_GUARD,
) -> tuple[complex, complex]:
    """Both evaluation routes ``(branch-tracked, pre-integral)`` for cross-checks."""
    pieces = _representable_pieces(n, alpha, params, t, guard)
    return _xn_closed_value(n, pieces), _xn_integral_value(n, alpha, params, t)


def hyperbolic_xn_log10_magnitude(
    n: int,
    alpha: complex,
    params: SystemParams,
    t: float,
    guard: float = DEFAULT_GUARD,
) -> float:
    """``log10 |<x^n>(t)|`` without forming the value (collapse-scan safe).

    Near a collapse time the magnitude overflows float64 although its
    logarithm is perfectly representable; approach sequences are therefore
    reported in log scale.
    """
    return _log10_magnitude(n, _guarded_pieces(n, alpha, params, t, guard))


@_within_float_range
def hyperbolic_classical_xn(
    n: int, alpha: complex, params: SystemParams, t: float
) -> complex:
    """Classical transport of ``x^n``: ``x0^n exp(n (2 omega - 8 mu x0 p0) t)``."""
    _check_xn_order(n)
    a = complex(alpha)
    x0 = math.sqrt(2.0) * a.real
    p0 = math.sqrt(2.0) * a.imag
    rate = 2.0 * params.omega - 8.0 * params.mu * x0 * p0
    return complex(x0**n * math.exp(n * rate * t))


# ---------------------------------------------------------------------------
# Dispersion
# ---------------------------------------------------------------------------

@_within_float_range
def dispersion_exact(
    alpha: complex, params: SystemParams, t: float, guard: float = DEFAULT_GUARD
) -> complex:
    """Exact ``<x^2> - <x>^2``; guarded by both the n=1 and n=2 collapse sets."""
    second = hyperbolic_xn_average(2, alpha, params, t, guard)
    first = hyperbolic_xn_average(1, alpha, params, t, guard)
    return second - first * first


# 64 mu^2 hbar t^2 |alpha|^2 inside this band reads as the crossover "~ 1"
_CROSSOVER_BAND = (0.5, 2.0)


class DispersionRegime(Enum):
    """Asymptotic dispersion regimes of the hyperbolic model."""

    SMALL_CORRECTION = "small-correction"
    EXPONENTIAL_DOMINATED = "exponential-dominated"
    CROSSOVER = "crossover"


def _regime_sets(
    alpha: complex, params: SystemParams, t: float, ratio: float, slack: float
) -> dict[DispersionRegime, bool]:
    """Whether each regime's inequality set holds, in precedence order.

    ``a << b`` is read as ``a * (ratio / slack) <= b``, and the crossover band
    is widened by ``slack`` on both sides.
    """
    mod2 = abs(complex(alpha)) ** 2
    u = abs(params.mu * params.hbar * t)
    growth = params.mu**2 * params.hbar * t * t
    lin, quad = growth * math.sqrt(mod2), growth * mod2
    eff = ratio / slack
    low, high = _CROSSOVER_BAND[0] / slack, _CROSSOVER_BAND[1] * slack
    common = u * eff <= 1.0 and mod2 >= eff * params.hbar
    return {
        DispersionRegime.CROSSOVER: common and low <= 64.0 * quad <= high,
        DispersionRegime.EXPONENTIAL_DOMINATED: common and quad >= eff,
        DispersionRegime.SMALL_CORRECTION: common
        and lin * eff <= 1.0
        and 64.0 * quad < _CROSSOVER_BAND[0] * slack,
    }


def classify_dispersion_regime(
    alpha: complex,
    params: SystemParams,
    t: float,
    ratio: float = 10.0,
) -> Optional[DispersionRegime]:
    """Total classification of a point against the three inequality sets.

    ``a << b`` is read as ``a * ratio <= b``; the crossover condition
    ``64 mu^2 hbar t^2 |alpha|^2 ~ 1`` is read as membership in
    ``[0.5, 2]``.  At large amplitude the displayed small-correction
    set overlaps the exponential one, so precedence runs crossover, then
    exponential, then small correction, and the small-correction label
    additionally requires the growth parameter to sit below the crossover
    band (the linearized form is meaningless beyond it).  Returns ``None``
    when no set holds.
    """
    sets = _regime_sets(alpha, params, t, ratio, 1.0)
    return next((regime for regime, holds in sets.items() if holds), None)


@_within_float_range
def dispersion_approx(
    alpha: complex,
    params: SystemParams,
    t: float,
    regime: DispersionRegime,
    slack: float = 10.0,
    ratio: float = 10.0,
) -> complex:
    """Displayed approximation of the dispersion for the requested regime.

    The regime's inequality set is checked at ``ratio / slack`` before
    evaluating (so the default tolerates points up to the outright boundary
    of the regime but no further).

    Raises
    ------
    RegimeMismatch
        If the inequality set fails by more than the slack allows.
    """
    a = complex(alpha)
    mod2 = abs(a) ** 2
    if not _regime_sets(a, params, t, ratio, slack)[regime]:
        u = abs(params.mu * params.hbar * t)
        raise RegimeMismatch(
            f"point (|alpha|^2={mod2:.3g}, mu*hbar*t={u:.3g}) fails the "
            f"{regime.value} inequalities beyond slack {slack:g}"
        )
    mu, hbar, omega = params.mu, params.hbar, params.omega
    a2 = a * a - a.conjugate() * a.conjugate()  # purely imaginary
    s_line = 2.0 * a.real
    prefactor = cmath.exp(4.0 * omega * t + 8j * mu * t * a2)
    if regime is DispersionRegime.SMALL_CORRECTION:
        return prefactor * (
            0.5 * hbar
            + 4j * mu * hbar * t * a2
            + 32.0 * mu**2 * hbar * t * t * s_line**2 * mod2
        )
    growth = mu**2 * hbar * t * t * mod2
    if regime is DispersionRegime.EXPONENTIAL_DOMINATED:
        return 0.5 * prefactor * s_line**2 * math.exp(128.0 * growth)
    return (
        0.5
        * prefactor
        * s_line**2
        * (math.exp(128.0 * growth) - math.exp(64.0 * growth))
    )


# ---------------------------------------------------------------------------
# Parameter-scaling identity
# ---------------------------------------------------------------------------

def scaling_transform_check(
    n: int,
    alpha: complex,
    params: SystemParams,
    t: float,
    s: float,
    guard: float = DEFAULT_GUARD,
) -> tuple[complex, complex]:
    """Both sides of the exact rescaling identity of the quartic average.

    ``lhs = <x^n>(sqrt(s) alpha; omega, mu/s, s hbar)`` must equal
    ``rhs = s^(n/2) <x^n>(alpha; omega, mu, hbar)``: the average depends on
    ``alpha/sqrt(hbar)`` and ``mu*hbar`` only, up to the overall power.
    """
    if s <= 0.0:
        raise DomainError(f"scale factor must be positive, got {s!r}")
    scaled = SystemParams(params.omega, params.mu / s, s * params.hbar)
    lhs = hyperbolic_xn_average(n, math.sqrt(s) * complex(alpha), scaled, t, guard)
    rhs = s ** (n / 2.0) * hyperbolic_xn_average(n, alpha, params, t, guard)
    return lhs, rhs

"""Exact analytic averages, dispersion, collapse times, and branch tracking.

Evaluation strategy
-------------------
All growing/decaying factors are combined into a single exponent, and every
fractional power of ``cos(8 n mu hbar t)`` is an integer power of the tracked
branch value (``_tracked_branch``), never a principal power of a negative
real.  A quantum ``x^n`` point is one log form, where ``XnAverage._pieces``
decides float range: an exponent, a normal or zero series (one that would
underflow is summed in log scale) and their log10 magnitude, from which
``_formed`` makes either route's value.  The cross-check route takes the
pre-integral Gaussian form with principal square roots (its argument has
positive real part away from collapse) and a scaled three-term recursion.

Prepared evaluators
-------------------
Each closed form is an evaluator class.  Its build runs the order and model
checks and forms all that does not depend on ``t`` (``8 n mu hbar``,
``-s^2/(2 hbar)``, drift rates, series coefficients times ``hbar^j``,
``|alpha|^2``, monomial prefactors, regime bounds); a point computes the
rest in the same order, so values are bit-identical.  An evaluator never
changes after its build.  Each public function builds one and calls its
bound ``__call__`` (cheaper than calling the instance on CPython) once.

Apart from the cross-check half of ``XnAverage.paths``, no evaluator returns
``nan``, and only the log10 magnitude returns an infinity: ``-inf`` for an
average that is exactly zero.  An ``x^n`` average beyond float64 is
:class:`CollapseProximity`; any other value, series, exponent or phase beyond
it is :class:`FloatRangeError` (a :class:`DomainError` and ``OverflowError``),
as is a ``t``-independent factor beyond it (``|alpha|^2``, ``x0^n``, ``hbar^j``):
``_captures_overflow`` keeps it for each point to raise before any arithmetic.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from enum import Enum

from .core import (
    CollapseProximity,
    DomainError,
    FloatRangeError,
    RegimeMismatch,
    SystemParams,
)

DEFAULT_GUARD = 1e-6

# i^k for k mod 4; kept as exact unit constants so branch phases do not drift.
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)

_MAX_XN_ORDER = 20
_FLOAT_MIN = sys.float_info.min  # the smallest normal float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_MIN = math.log(_FLOAT_MIN)
_LOG10_TINY = math.log10(math.ulp(0.0))  # the smallest subnormal
_LN10 = math.log(10.0)
_HALF_LOG10_2 = 0.5 * math.log10(2.0)


def _captures_overflow(build):
    """Wrap the ``__init__`` ``build`` so that an ``OverflowError`` in it is stored in ``_overflow``."""
    @functools.wraps(build)
    def __init__(self, *args, **kwargs) -> None:
        self._overflow = None
        try:
            build(self, *args, **kwargs)
        except OverflowError as exc:  # raised again by each call, where the point needs it
            self._overflow = exc.args
    return __init__


class _FloatChecked:
    """``_value(t)``, or :class:`FloatRangeError` naming the function ``name`` beyond float64."""

    _overflow = None  # the build's captured overflow, if any
    _beyond = OverflowError  # what ``_value`` raises for a value (or phase) beyond float64

    def __call__(self, t: float) -> complex:
        try:
            if self._overflow is not None:
                raise OverflowError(*self._overflow)
            value = self._value(t)
        except self._beyond as exc:
            raise FloatRangeError(f"{self.name} overflows float64 ({exc})") from None
        if not cmath.isfinite(value):
            raise FloatRangeError(f"{self.name} is not finite (got {value!r})")
        return value


# ---------------------------------------------------------------------------
# Collapse times
# ---------------------------------------------------------------------------

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
    base, spacing = _collapse_lattice(n, params)
    lo = (t_lo - base) / spacing
    hi = (t_hi - base) / spacing
    if lo > hi:
        lo, hi = hi, lo
    ells = range(math.ceil(lo - 1e-12), math.floor(hi + 1e-12) + 1)
    times = [base + ell * spacing for ell in ells]
    return sorted(t for t in times if t_lo - 1e-12 <= t <= t_hi + 1e-12)


def _collapse_lattice(n: int, params: SystemParams) -> tuple[float, float]:
    """``(base, spacing)`` of the collapse times ``base + l spacing`` (``mu != 0``); signed like ``mu``.

    A lattice whose base is 0 or whose spacing is beyond float64 is :class:`FloatRangeError`.
    """
    rate = 16.0 * params.mu * n * params.hbar
    base = math.pi / rate if rate else math.inf
    if not (base and math.isfinite(2.0 * base)):
        raise FloatRangeError(f"the collapse times of x^{n} are beyond float64 (pi/(16 n mu hbar) = {base!r})")
    return base, 2.0 * base


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


class EllipticAverage(_FloatChecked):
    """Prepared quantum average of ``adag^m a^q`` in the elliptic model."""

    name = "elliptic_quantum_average"
    _beyond = (OverflowError, ValueError)  # cmath.exp of an infinite phase is a ValueError

    @_captures_overflow
    def __init__(self, m: int, q: int, alpha: complex, params: SystemParams) -> None:
        _validate_monomial(m, q)
        a, mu_h = complex(alpha), params.mu * params.hbar
        self._d, self._kerr = m - q, m * (m - 1) - q * (q - 1)
        self._spin, self._shift = 1j * params.omega, 1j * mu_h
        self._turn, self._hbar = 2j * mu_h * self._d, params.hbar
        self._mod2, self._start = abs(a) ** 2, a.conjugate() ** m * a**q

    def _value(self, t: float) -> complex:
        phase = cmath.exp(self._turn * t)
        exponent = (self._spin * t * self._d + self._shift * t * self._kerr
                    + (phase - 1.0) * self._mod2 / self._hbar)
        return self._start * cmath.exp(exponent)


class EllipticClassical(_FloatChecked):
    """Prepared transport of ``conj(a)^m a^q`` along the classical elliptic flow."""

    name = "elliptic_classical_average"
    _beyond = EllipticAverage._beyond

    @_captures_overflow
    def __init__(self, m: int, q: int, alpha: complex, params: SystemParams) -> None:
        _validate_monomial(m, q)
        a = complex(alpha)
        self._rate = 1j * (params.omega + 2.0 * params.mu * abs(a) ** 2) * (m - q)
        self._start = a.conjugate() ** m * a**q

    def _value(self, t: float) -> complex:
        return self._start * cmath.exp(self._rate * t)


def elliptic_quantum_average(m: int, q: int, alpha: complex, params: SystemParams, t: float) -> complex:
    """Evolved average of ``adag^m a^q`` in the elliptic model; entire in t."""
    return EllipticAverage(m, q, alpha, params).__call__(t)


def elliptic_classical_average(m: int, q: int, alpha: complex, params: SystemParams, t: float) -> complex:
    """Transport of ``conj(a)^m a^q`` along the classical elliptic flow."""
    return EllipticClassical(m, q, alpha, params).__call__(t)


# ---------------------------------------------------------------------------
# Hyperbolic model: x^n averages
# ---------------------------------------------------------------------------

def _check_xn_order(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"observable power must be an integer >= 1, got {n!r}")
    if n > _MAX_XN_ORDER:
        raise DomainError(f"n={n} exceeds the exact-factorial cap {_MAX_XN_ORDER}")


@functools.cache  # one entry per checked order, at most _MAX_XN_ORDER
def _series_coefficients(n: int) -> tuple[tuple[float, int, int], ...]:
    """``(n! / (4^j j! (n-2j)!), j, n - 2j)`` for each term ``j`` of the ``x^n`` series."""
    return tuple(
        (math.factorial(n) / (4.0**j * math.factorial(j) * math.factorial(n - 2 * j)), j, n - 2 * j)
        for j in range(n // 2 + 1)
    )


def _formed(exponent: complex, a: complex, b: complex, log10_mag: float) -> complex:
    """``a * exp(exponent) * b`` of log10 magnitude ``log10_mag`` (``b`` normal or 0): direct where ``exp`` is
    normal or the value underflows (always at ``-inf``) and the product finite, else in log scale."""
    if exponent.real <= _LOG_FLOAT_MAX and (exponent.real >= _LOG_FLOAT_MIN or log10_mag < _LOG10_TINY):
        value = a * cmath.exp(exponent) * b
        if cmath.isfinite(value):
            return value
    scaled = a * b
    return cmath.exp(exponent + cmath.log(scaled)) if scaled else 0j


def gaussian_moment_ratios(j_max: int, w: complex, b: complex, hbar: float) -> list[complex]:
    """Scaled moments ``M_j / M_0`` of ``exp(-(w x^2 - 2 sqrt(2) b x)/(2 hbar))``.

    Three-term recursion from integration by parts,
    ``M_j = (hbar (j-1) M_{j-2} + sqrt(2) b M_{j-1}) / w``; requires
    ``Re w > 0`` so the boundary terms vanish.
    """
    if w.real <= 0.0:
        raise DomainError(f"moment recursion needs Re(w) > 0, got {w!r}")
    ratios = [0j, 1 + 0j]  # from M_-1 = 0
    for j in range(1, j_max + 1):
        ratios.append((hbar * (j - 1) * ratios[-2] + math.sqrt(2.0) * b * ratios[-1]) / w)
    return ratios[1:]


class XnAverage:
    """Prepared coherent-state average of ``x^n`` in the hyperbolic model.

    The branch-tracked value is ``exp(exponent) 2^((n+1)/2) mag^(n+1) i^(k(n+1)) series``; where
    ``cos(8 n mu hbar t) < 0`` (the sign of ``b^2``) the pre-integral route gives it, if float64 holds it.
    """

    __slots__ = ("n", "_guard", "_alpha", "_conj", "_hbar", "_phase", "_base", "_drift", "_shift",
                 "_root2", "_overflow", "_terms")

    @_captures_overflow
    def __init__(self, n: int, alpha: complex, params: SystemParams, guard: float = DEFAULT_GUARD) -> None:
        _check_xn_order(n)
        params.require_hyperbolic()
        a, hbar = complex(alpha), params.hbar
        s_line = 2.0 * a.real  # alpha + conj(alpha)
        self.n, self._guard = n, 0.0 if params.mu == 0.0 or guard <= 0.0 else guard
        self._alpha, self._conj, self._hbar = a, a.conjugate(), hbar
        self._phase = 8.0 * n * params.mu * hbar
        if math.isinf(self._phase):  # |mu| hbar < |omega| still allows it
            raise OverflowError(f"the phase rate 8 n mu hbar is {self._phase}")
        self._base = -s_line * s_line / (2.0 * hbar)
        self._drift, self._shift = 2.0 * params.omega * n, 4j * params.mu * hbar
        self._root2 = 2.0 ** ((n + 1) / 2.0)
        self._terms = [(coef * hbar**j, power) for coef, j, power in _series_coefficients(n)]

    def _pieces(self, t: float, representable: bool = True) -> tuple:
        """``(phi, bsq, exponent, prefactor, series, log10_mag)``: the log form at ``t``, after the guard.

        A series below the normal range is summed in log scale over its largest term, with ``xi`` from
        ``alpha`` scaled by a power of two (a subnormal ``alpha`` keeps its digits).  A phase or series
        beyond float64, an ``inf - inf`` exponent, or an infinite one for the log10 magnitude alone, is
        :class:`FloatRangeError`; a value above 1e307, long before the guard band, :class:`CollapseProximity`.
        """
        try:
            if self._overflow is not None:
                raise OverflowError(*self._overflow)
            phi = self._phase * t
            if self._guard:  # 0.0 where mu = 0 or guard <= 0: no guard band
                r = phi / math.pi - 0.5  # a collapse at each whole r, one spacing apart
                if abs(r - round(r)) < self._guard:
                    raise CollapseProximity(f"t={t} is within {self._guard:g} of a collapse time for n={self.n} "
                                            "(shrink the guard to scan closer)")
            k, bsq, mag = _tracked_branch(phi)
            xi = 2.0 * (self._alpha * cmath.exp(0.5j * phi)).real  # real for every alpha
            exponent = self._base + xi * xi * bsq / self._hbar + self._drift * t
            xb_mag = xi * mag
            series = 0j
            for coef, power in self._terms:
                series += coef * xb_mag**power * _I_POW[(k * power) % 4]
        except OverflowError as exc:
            raise FloatRangeError(f"<x^{self.n}> overflows float64 at t={t} ({exc})") from None
        if (size := abs(series)) < _FLOAT_MIN:  # terms in log scale, over the largest; xi mag = m 2^(lift+e)
            a = self._alpha
            lift = math.frexp(max(abs(a.real), abs(a.imag)))[1]
            m, e = math.frexp(2.0 * (complex(math.ldexp(a.real, -lift), math.ldexp(a.imag, -lift))
                                     * cmath.exp(0.5j * phi)).real * mag)
            log_x, logs = (lift + e) * math.log(2.0) + math.log(abs(m)) if m else -math.inf, []
            for coef, j, power in _series_coefficients(self.n):
                logs.append(math.log(coef) + j * math.log(self._hbar) + (power and power * log_x))
            top = max(logs)
            if top > -math.inf:  # else xi is exactly 0, and so is the odd-n average
                series = 0j
                for log_term, power in zip(logs, range(self.n, -1, -2)):
                    series += math.exp(log_term - top) * _I_POW[((k + 2 * (m < 0)) * power) % 4]  # m^p's sign
                exponent, size = exponent + top, abs(series)
        log10_mag = -math.inf if series == 0 else (
            exponent / _LN10 + (self.n + 1) * (_HALF_LOG10_2 + math.log10(mag)) + math.log10(size)
        )
        if math.isnan(log10_mag):  # inf - inf: -s^2/(2 hbar) and xi^2 b^2/hbar beyond float64
            raise FloatRangeError(f"<x^{self.n}> is beyond float64 at t={t}: its log10 magnitude is nan")
        if not representable:
            if math.isinf(exponent):  # xi^2 b^2/hbar (of either sign) or -s^2/(2 hbar) beyond float64
                raise FloatRangeError(f"<x^{self.n}> is beyond float64 at t={t}: its exponent is {exponent}")
        elif log10_mag > 307.0:
            raise CollapseProximity(f"|<x^{self.n}>| ~ 1e{log10_mag:.0f} exceeds float64 range at t={t}; "
                                    "use hyperbolic_xn_log10_magnitude for near-collapse scans")
        n1 = self.n + 1
        return phi, bsq, exponent, self._root2 * mag**n1 * _I_POW[(k * n1) % 4], series, log10_mag

    def _integral(self, phi: float, t: float) -> tuple[complex, bool]:
        """The pre-integral value (principal square roots; the direct product wherever finite, as
        ``bench/digest.json`` records it) and whether float64 holds its exponent and ``M_n``'s moments."""
        n, hbar = self.n, self._hbar
        w = 1.0 + cmath.exp(2j * phi)
        b = self._conj + self._alpha * cmath.exp(1j * phi)
        exponent = self._base + b * b / (hbar * w) + self._drift * t + self._shift * t * n * (n + 1)
        moments = gaussian_moment_ratios(n, w, b, hbar)[n % 2::2]
        held = min(map(abs, moments)) >= _FLOAT_MIN and not cmath.isnan(exponent)
        return _formed(exponent, cmath.sqrt(2.0 / w), moments[-1], -math.inf), held

    def __call__(self, t: float) -> complex:
        phi, bsq, exponent, prefactor, series, log10_mag = self._pieces(t)
        if bsq < 0.0:  # cos(8 n mu hbar t) < 0: the pre-integral route, where float64 holds it
            value, held = self._integral(phi, t)
            if held or series == 0:
                return value
        return _formed(exponent, prefactor, series, log10_mag)

    def paths(self, t: float) -> tuple[complex, complex]:
        """Both routes' values ``(branch-tracked, pre-integral)`` at ``t``, each from its own arithmetic.

        The branch-tracked value is exact wherever float64 holds the average.  The pre-integral one is
        formed directly wherever finite, so a subnormal ``exp(exponent)`` costs it digits; at a tiny
        ``alpha`` its odd moments (of ``n``'s parity, which build ``M_n``) underflow and it loses digits or
        is ``0``; an ``inf - inf`` exponent makes it ``nan``.  :meth:`__call__` does not take it there.
        """
        phi, _, *form = self._pieces(t)
        return _formed(*form), self._integral(phi, t)[0]

    def log10_magnitude(self, t: float) -> float:
        return self._pieces(t, representable=False)[-1]


class XnClassical(_FloatChecked):
    """Prepared classical transport of ``x^n``: ``x0^n exp(n (2 omega - 8 mu x0 p0) t)``."""

    name = "hyperbolic_classical_xn"

    @_captures_overflow
    def __init__(self, n: int, alpha: complex, params: SystemParams) -> None:
        _check_xn_order(n)
        a = complex(alpha)
        x0, p0 = math.sqrt(2.0) * a.real, math.sqrt(2.0) * a.imag
        self._rate = n * (2.0 * params.omega - 8.0 * params.mu * x0 * p0)
        self._n, self._x0 = n, x0
        self._start = x0**n

    def _value(self, t: float) -> complex:
        exponent, x0 = self._rate * t, self._x0
        if exponent <= _LOG_FLOAT_MAX and (
            x0 == 0.0 or abs(self._start) >= _FLOAT_MIN and exponent >= _LOG_FLOAT_MIN
        ):
            return complex(self._start * math.exp(exponent))
        if x0 == 0.0:  # exp alone is beyond float64
            return 0j
        mag = math.exp(exponent + self._n * math.log(abs(x0)))  # exp or x0^n is not a normal float
        return complex(-mag if x0 < 0.0 and self._n % 2 else mag)


def hyperbolic_xn_average(
    n: int, alpha: complex, params: SystemParams, t: float, guard: float = DEFAULT_GUARD
) -> complex:
    """Evolved coherent-state average of ``x^n`` in the hyperbolic model.

    Valid on every open interval between collapse times; on intervals where
    ``cos(8 n mu hbar t) < 0`` the pre-integral route (whose square-root
    branch is unambiguous) is authoritative where float64 holds its moments,
    and there both routes agree to float precision (:func:`hyperbolic_xn_paths`).

    Raises
    ------
    CollapseProximity
        Within ``guard`` (relative to the collapse spacing) of a collapse time.
    DomainError
        If the parameters are not hyperbolic-capable or ``n`` is out of range.
    """
    return XnAverage(n, alpha, params, guard).__call__(t)


def hyperbolic_xn_paths(
    n: int, alpha: complex, params: SystemParams, t: float, guard: float = DEFAULT_GUARD
) -> tuple[complex, complex]:
    """Both evaluation routes ``(branch-tracked, pre-integral)`` for cross-checks."""
    return XnAverage(n, alpha, params, guard).paths(t)


def hyperbolic_xn_log10_magnitude(
    n: int, alpha: complex, params: SystemParams, t: float, guard: float = DEFAULT_GUARD
) -> float:
    """``log10 |<x^n>(t)|`` without forming the value (collapse-scan safe).

    Near a collapse time the magnitude overflows float64 although its
    logarithm is representable.  A logarithm beyond float64 (an exponent of
    ``+inf`` or ``-inf``) is :class:`FloatRangeError`; ``-inf`` is returned
    only for an exactly zero average: a series that would underflow is factored.
    """
    return XnAverage(n, alpha, params, guard).log10_magnitude(t)


def hyperbolic_classical_xn(n: int, alpha: complex, params: SystemParams, t: float) -> complex:
    """Classical transport of ``x^n``: ``x0^n exp(n (2 omega - 8 mu x0 p0) t)``."""
    return XnClassical(n, alpha, params).__call__(t)


# ---------------------------------------------------------------------------
# Dispersion
# ---------------------------------------------------------------------------

class DispersionExact(_FloatChecked):
    """Prepared exact ``<x^2> - <x>^2``; guarded by both the n=1 and n=2 collapse sets."""

    name = "dispersion_exact"

    def __init__(self, alpha: complex, params: SystemParams, guard: float = DEFAULT_GUARD) -> None:
        self._second = XnAverage(2, alpha, params, guard).__call__
        self._first = XnAverage(1, alpha, params, guard).__call__

    def _value(self, t: float) -> complex:
        second, first = self._second(t), self._first(t)
        return second - first * first


def dispersion_exact(
    alpha: complex, params: SystemParams, t: float, guard: float = DEFAULT_GUARD
) -> complex:
    """Exact ``<x^2> - <x>^2``; guarded by both the n=1 and n=2 collapse sets."""
    return DispersionExact(alpha, params, guard).__call__(t)


# 64 mu^2 hbar t^2 |alpha|^2 inside this band reads as the crossover "~ 1"
_CROSSOVER_BAND = (0.5, 2.0)


class DispersionRegime(Enum):
    """Asymptotic dispersion regimes of the hyperbolic model."""

    SMALL_CORRECTION = "small-correction"
    EXPONENTIAL_DOMINATED = "exponential-dominated"
    CROSSOVER = "crossover"


_PRECEDENCE = (DispersionRegime.CROSSOVER, DispersionRegime.EXPONENTIAL_DOMINATED,
               DispersionRegime.SMALL_CORRECTION)
_RANK = {regime: rank for rank, regime in enumerate(_PRECEDENCE)}


class RegimeSets:
    """Prepared regime inequality sets of one ``(alpha, params, ratio, slack)``.

    ``a << b`` is read as ``a * (ratio / slack) <= b``, and the crossover band
    is widened by ``slack`` on both sides.  A point computes only ``u``, the
    growth parameter, ``lin`` and ``quad``.
    """

    @_captures_overflow
    def __init__(
        self, alpha: complex, params: SystemParams, ratio: float = 10.0, slack: float = 1.0
    ) -> None:
        eff, mod2 = ratio / slack, abs(complex(alpha)) ** 2
        self._mod2, self._mod = mod2, math.sqrt(mod2)
        self._muh, self._g0 = params.mu * params.hbar, params.mu**2 * params.hbar
        self._eff, self._amp = eff, mod2 >= eff * params.hbar
        self._low, self._high = _CROSSOVER_BAND[0] / slack, _CROSSOVER_BAND[1] * slack
        self._cap = _CROSSOVER_BAND[0] * slack

    def holds(self, t: float) -> tuple[bool, bool, bool]:
        """Whether each regime's set holds at ``t``, in precedence order."""
        if self._overflow is not None:
            raise OverflowError(*self._overflow)
        eff = self._eff
        u = abs(self._muh * t)
        growth = self._g0 * t * t
        lin, quad = growth * self._mod, growth * self._mod2
        common = u * eff <= 1.0 and self._amp
        return (
            common and self._low <= 64.0 * quad <= self._high,
            common and quad >= eff,
            common and lin * eff <= 1.0 and 64.0 * quad < self._cap,
        )

    def classify(self, t: float) -> DispersionRegime | None:
        try:
            sets = self.holds(t)
        except OverflowError as exc:
            raise FloatRangeError(f"classify_dispersion_regime overflows float64 ({exc})") from None
        return next((regime for regime, holds in zip(_PRECEDENCE, sets) if holds), None)


def classify_dispersion_regime(
    alpha: complex, params: SystemParams, t: float, ratio: float = 10.0
) -> DispersionRegime | None:
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
    return RegimeSets(alpha, params, ratio, 1.0).classify(t)


class DispersionApprox(RegimeSets, _FloatChecked):
    """Prepared displayed approximation of one regime (:class:`RegimeMismatch` off its set)."""

    name = "dispersion_approx"

    @_captures_overflow
    def __init__(
        self, alpha: complex, params: SystemParams, regime: DispersionRegime,
        slack: float = 10.0, ratio: float = 10.0,
    ) -> None:
        a, mu, hbar = complex(alpha), params.mu, params.hbar
        super().__init__(a, params, ratio, slack)
        self.regime, self.slack = regime, slack
        self._s_line = 2.0 * a.real
        self._a2 = a * a - a.conjugate() * a.conjugate()  # purely imaginary
        self._rate, self._turn = 4.0 * params.omega, 8j * mu
        self._h2, self._lin, self._quad = 0.5 * hbar, 4j * mu * hbar, 32.0 * mu**2 * hbar

    def _value(self, t: float) -> complex:
        mod2, regime = self._mod2, self.regime
        if not self.holds(t)[_RANK[regime]]:
            u = abs(self._muh * t)
            raise RegimeMismatch(
                f"point (|alpha|^2={mod2:.3g}, mu*hbar*t={u:.3g}) fails the "
                f"{regime.value} inequalities beyond slack {self.slack:g}"
            )
        a2 = self._a2
        prefactor = cmath.exp(self._rate * t + self._turn * t * a2)
        if regime is DispersionRegime.SMALL_CORRECTION:
            return prefactor * (
                self._h2 + self._lin * t * a2 + self._quad * t * t * self._s_line**2 * mod2
            )
        growth = self._g0 * t * t * mod2
        if regime is DispersionRegime.EXPONENTIAL_DOMINATED:
            return 0.5 * prefactor * self._s_line**2 * math.exp(128.0 * growth)
        return 0.5 * prefactor * self._s_line**2 * (
            math.exp(128.0 * growth) - math.exp(64.0 * growth))


def dispersion_approx(
    alpha: complex, params: SystemParams, t: float, regime: DispersionRegime,
    slack: float = 10.0, ratio: float = 10.0,
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
    return DispersionApprox(alpha, params, regime, slack, ratio).__call__(t)


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

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
principal power of a negative real.  The independent cross-check path
evaluates the pre-integral Gaussian representation with principal square
roots (its argument has positive real part away from collapse, so no tracking
is needed there) and a scaled three-term moment recursion.

Prepared evaluators
-------------------
Each closed form is an evaluator class.  Its build runs the order and model
checks and forms all that does not depend on ``t`` (``8 n mu hbar``,
``-s^2/(2 hbar)``, drift rates, series coefficients times ``hbar^j``,
``|alpha|^2``, monomial prefactors, regime bounds); a point computes the
rest in the same order, so values are bit-identical.  An evaluator never
changes after its build.  Each public function builds one and calls its
bound ``__call__`` (cheaper than calling the instance on CPython) once.

No evaluator returns ``inf``/``nan``.  An ``x^n`` average beyond float64 is
:class:`CollapseProximity`; a classical, elliptic or dispersion value is
:class:`FloatRangeError` (a :class:`DomainError` and an ``OverflowError``).
A ``t``-independent factor beyond float64 (``|alpha|^2`` at ``alpha = 1e200``)
is raised by each call, where the per-point formula meets it, not by the build.
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
_LN10 = math.log(10.0)
_HALF_LOG10_2 = 0.5 * math.log10(2.0)


class FloatRangeError(DomainError, OverflowError):
    """A classical, elliptic or dispersion value that overflows float64."""


class _FloatChecked:
    """``_value(t)``, or :class:`FloatRangeError` naming the function ``name`` beyond float64."""

    def __call__(self, t: float) -> complex:
        try:
            value = self._value(t)
        except OverflowError as exc:
            raise FloatRangeError(f"{self.name} overflows float64 ({exc})") from None
        if not cmath.isfinite(value):
            raise FloatRangeError(f"{self.name} is not finite (got {value!r})")
        return value


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
    r = 8.0 * n * params.mu * params.hbar * t / math.pi - 0.5
    if abs(r - round(r)) < guard:
        raise _near_collapse(n, t, guard)


def _near_collapse(n: int, t: float, guard: float) -> CollapseProximity:
    return CollapseProximity(
        f"t={t} is within {guard:g} of a collapse time for n={n} (shrink the guard to scan closer)"
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


class EllipticAverage(_FloatChecked):
    """Prepared quantum average of ``adag^m a^q`` in the elliptic model."""

    name = "elliptic_quantum_average"

    def __init__(self, m: int, q: int, alpha: complex, params: SystemParams) -> None:
        _validate_monomial(m, q)
        a, mu_h = complex(alpha), params.mu * params.hbar
        self._d, self._kerr = m - q, m * (m - 1) - q * (q - 1)
        self._spin, self._shift = 1j * params.omega, 1j * mu_h
        self._turn = 2j * mu_h * self._d
        self._hbar, self._overflow = params.hbar, None
        try:
            self._mod2, self._start = abs(a) ** 2, a.conjugate() ** m * a**q
        except OverflowError as exc:
            self._overflow = exc.args

    def _value(self, t: float) -> complex:
        phase = cmath.exp(self._turn * t)
        if self._overflow is not None:
            raise OverflowError(*self._overflow)
        exponent = (self._spin * t * self._d + self._shift * t * self._kerr
                    + (phase - 1.0) * self._mod2 / self._hbar)
        return self._start * cmath.exp(exponent)


class EllipticClassical(_FloatChecked):
    """Prepared transport of ``conj(a)^m a^q`` along the classical elliptic flow."""

    name = "elliptic_classical_average"

    def __init__(self, m: int, q: int, alpha: complex, params: SystemParams) -> None:
        _validate_monomial(m, q)
        a = complex(alpha)
        try:
            self._rate = 1j * (params.omega + 2.0 * params.mu * abs(a) ** 2) * (m - q)
            self._start, self._overflow = a.conjugate() ** m * a**q, None
        except OverflowError as exc:
            self._overflow = exc.args

    def _value(self, t: float) -> complex:
        if self._overflow is not None:
            raise OverflowError(*self._overflow)
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
        raise DomainError(
            f"n={n} exceeds the exact-factorial cap {_MAX_XN_ORDER}"
        )


@functools.cache  # one entry per checked order, at most _MAX_XN_ORDER
def _series_coefficients(n: int) -> tuple[tuple[float, int, int], ...]:
    """``(n! / (4^j j! (n-2j)!), j, n - 2j)`` for each term ``j`` of the ``x^n`` series."""
    return tuple(
        (math.factorial(n) / (4.0**j * math.factorial(j) * math.factorial(n - 2 * j)), j, n - 2 * j)
        for j in range(n // 2 + 1)
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


class XnAverage:
    """Prepared coherent-state average of ``x^n`` in the hyperbolic model.

    The branch-tracked value is ``exp(exponent) 2^((n+1)/2) mag^(n+1) i^(k(n+1)) series``;
    where ``cos(8 n mu hbar t) < 0`` (the sign of ``b^2``) the pre-integral route gives it.
    """

    __slots__ = ("n", "_guard", "_alpha", "_conj", "_hbar", "_phase", "_base", "_drift", "_shift",
                 "_root2", "_overflow", "_terms")

    def __init__(
        self, n: int, alpha: complex, params: SystemParams, guard: float = DEFAULT_GUARD
    ) -> None:
        _check_xn_order(n)
        params.require_hyperbolic()
        a, hbar = complex(alpha), params.hbar
        s_line = 2.0 * a.real  # alpha + conj(alpha)
        self.n, self._guard = n, 0.0 if params.mu == 0.0 or guard <= 0.0 else guard
        self._alpha, self._conj, self._hbar = a, a.conjugate(), hbar
        self._phase = 8.0 * n * params.mu * hbar
        self._base = -s_line * s_line / (2.0 * hbar)
        self._drift, self._shift = 2.0 * params.omega * n, 4j * params.mu * hbar
        self._root2, self._overflow, self._terms = 2.0 ** ((n + 1) / 2.0), None, []
        try:
            for coef, j, power in _series_coefficients(n):
                self._terms.append((coef * hbar**j, power))
        except OverflowError as exc:  # hbar^j beyond float64: each call's series raises it
            self._overflow = exc.args

    def _pieces(self, t: float, representable: bool = True) -> tuple:
        """``(phi, bsq, mag, k, exponent, series, log10_mag)`` at ``t``, after the guard checks."""
        phi = self._phase * t
        if self._guard:  # 0.0 where check_collapse_guard checks nothing
            r = phi / math.pi - 0.5
            if abs(r - round(r)) < self._guard:
                raise _near_collapse(self.n, t, self._guard)
        k, bsq, mag = _tracked_branch(phi)
        xi = 2.0 * (self._alpha * cmath.exp(0.5j * phi)).real  # real for every alpha
        exponent = self._base + xi * xi * bsq / self._hbar + self._drift * t
        xb_mag = xi * mag
        if self._overflow is not None:
            raise OverflowError(*self._overflow)
        series = 0j
        for coef, power in self._terms:
            series += coef * xb_mag**power * _I_POW[(k * power) % 4]
        log10_mag = -math.inf if series == 0 else (
            exponent / _LN10
            + (self.n + 1) * (_HALF_LOG10_2 + math.log10(mag))
            + math.log10(abs(series))
        )
        # The magnitude blows up double-exponentially on the approach to a
        # collapse time and leaves float64 range long before the guard band;
        # treat that overflow zone as collapse proximity (log-scale evaluation
        # stays available arbitrarily close).
        if representable and log10_mag > 307.0:
            raise CollapseProximity(
                f"|<x^{self.n}>| ~ 1e{log10_mag:.0f} exceeds float64 range at t={t}; "
                "use hyperbolic_xn_log10_magnitude for near-collapse scans"
            )
        return phi, bsq, mag, k, exponent, series, log10_mag

    def _integral_value(self, phi: float, t: float) -> complex:
        """Pre-integral Gaussian route with principal square roots throughout."""
        n, hbar = self.n, self._hbar
        w = 1.0 + cmath.exp(2j * phi)
        b = self._conj + self._alpha * cmath.exp(1j * phi)
        exponent = self._base + b * b / (hbar * w) + self._drift * t + self._shift * t * n * (n + 1)
        ratios = gaussian_moment_ratios(n, w, b, hbar)
        return _exp_product(exponent, cmath.sqrt(2.0 / w), ratios[n])

    def __call__(self, t: float) -> complex:
        phi, bsq, mag, k, exponent, series, _ = self._pieces(t)
        if bsq > 0.0:  # cos(8 n mu hbar t) > 0: the branch-tracked route
            n1 = self.n + 1
            return _exp_product(exponent, self._root2 * mag**n1 * _I_POW[(k * n1) % 4], series)
        return self._integral_value(phi, t)

    def paths(self, t: float) -> tuple[complex, complex]:
        phi, _, mag, k, exponent, series, _ = self._pieces(t)
        n1 = self.n + 1
        closed = _exp_product(exponent, self._root2 * mag**n1 * _I_POW[(k * n1) % 4], series)
        return closed, self._integral_value(phi, t)

    def log10_magnitude(self, t: float) -> float:
        return self._pieces(t, representable=False)[-1]


class XnClassical(_FloatChecked):
    """Prepared classical transport of ``x^n``: ``x0^n exp(n (2 omega - 8 mu x0 p0) t)``."""

    name = "hyperbolic_classical_xn"

    def __init__(self, n: int, alpha: complex, params: SystemParams) -> None:
        _check_xn_order(n)
        a = complex(alpha)
        x0, p0 = math.sqrt(2.0) * a.real, math.sqrt(2.0) * a.imag
        self._rate = n * (2.0 * params.omega - 8.0 * params.mu * x0 * p0)
        try:
            self._start, self._overflow = x0**n, None
        except OverflowError as exc:
            self._overflow = exc.args

    def _value(self, t: float) -> complex:
        if self._overflow is not None:
            raise OverflowError(*self._overflow)
        return complex(self._start * math.exp(self._rate * t))


def hyperbolic_xn_average(
    n: int, alpha: complex, params: SystemParams, t: float, guard: float = DEFAULT_GUARD
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
    logarithm is perfectly representable; approach sequences are therefore
    reported in log scale.
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

    def __init__(
        self, alpha: complex, params: SystemParams, ratio: float = 10.0, slack: float = 1.0
    ) -> None:
        self._overflow = None
        try:
            mod2 = abs(complex(alpha)) ** 2
        except OverflowError as exc:
            self._overflow, mod2 = exc.args, math.nan
        eff = ratio / slack
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

    def classify(self, t: float) -> Optional[DispersionRegime]:
        return next((regime for regime, holds in zip(_PRECEDENCE, self.holds(t)) if holds), None)


def classify_dispersion_regime(
    alpha: complex, params: SystemParams, t: float, ratio: float = 10.0
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
    return RegimeSets(alpha, params, ratio, 1.0).classify(t)


class DispersionApprox(RegimeSets, _FloatChecked):
    """Prepared displayed approximation of one regime (:class:`RegimeMismatch` off its set)."""

    name = "dispersion_approx"

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

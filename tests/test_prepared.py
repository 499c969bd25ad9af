"""Prepared closed-form evaluators against the per-call code they replaced, bit for bit.

The ``_ref_*`` functions below are a copy of the closed-form code that ran
every check and formed every constant at each call, with three later changes:
an ``x^n`` series beyond float64, a ``nan`` log10 magnitude, a ``+inf`` one
from the log10 magnitude functions and a regime classification of an
``alpha`` whose ``|alpha|^2`` overflows raise :class:`FloatRangeError`; the
classical ``x^n`` is formed in log scale where ``exp`` alone is not a normal
float or ``x0^n`` is below float64's normal range; and
the quantum ``x^n`` keeps one log form: a series below float64's normal
range is formed in log scale over its largest term, whose log joins the
exponent (``xi`` formed from ``alpha`` scaled by a power of two), the
branch-tracked value is formed in log scale also where ``exp(exponent)`` is
below the normal range and the value is not below the smallest subnormal,
and ``cos(8 n mu hbar t) < 0`` takes the branch-tracked value where the
pre-integral exponent is ``nan`` or a moment of ``n``'s parity is below the
normal range.
Each public function and each evaluator reused across several times must
give the same ``repr`` of its value, or raise the same exception type with
the same message.
"""

import cmath
import functools
import math
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohevol import (
    CollapseProximity,
    DomainError,
    RegimeMismatch,
    classify_dispersion_regime,
    dispersion_approx,
    dispersion_exact,
    elliptic_classical_average,
    elliptic_quantum_average,
    hyperbolic_classical_xn,
    hyperbolic_xn_average,
    hyperbolic_xn_log10_magnitude,
    hyperbolic_xn_paths,
    make_hyperbolic_params,
)
from cohevol.closedform import (
    DispersionApprox,
    DispersionExact,
    DispersionRegime,
    EllipticAverage,
    EllipticClassical,
    FloatRangeError,
    RegimeSets,
    XnAverage,
    XnClassical,
)

# ---------------------------------------------------------------------------
# The per-call reference
# ---------------------------------------------------------------------------

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _ref_float_range(evaluate):
    name = evaluate.__name__.removesuffix("_ref")  # the public function's name

    @functools.wraps(evaluate)
    def checked(*args, **kwargs):
        try:
            value = evaluate(*args, **kwargs)
        except OverflowError as exc:
            raise FloatRangeError(f"{name} overflows float64 ({exc})") from None
        if not cmath.isfinite(value):
            raise FloatRangeError(f"{name} is not finite (got {value!r})")
        return value

    return checked


def _ref_guard(n, params, t, guard):
    if params.mu == 0.0 or guard <= 0.0:
        return
    phi = 8.0 * n * params.mu * params.hbar * t
    r = phi / math.pi - 0.5
    if abs(r - round(r)) < guard:
        raise CollapseProximity(
            f"t={t} is within {guard:g} of a collapse time for n={n} "
            "(shrink the guard to scan closer)"
        )


def _ref_monomial(m, q):
    if not (isinstance(m, int) and isinstance(q, int)) or m < 0 or q < 0:
        raise DomainError(f"monomial orders must be nonnegative integers, got {(m, q)}")


@_ref_float_range
def elliptic_quantum_average_ref(m, q, alpha, params, t):
    _ref_monomial(m, q)
    a = complex(alpha)
    d = m - q
    mu_h = params.mu * params.hbar
    exponent = (
        1j * params.omega * t * d
        + 1j * mu_h * t * (m * (m - 1) - q * (q - 1))
        + (cmath.exp(2j * mu_h * d * t) - 1.0) * abs(a) ** 2 / params.hbar
    )
    return a.conjugate() ** m * a**q * cmath.exp(exponent)


@_ref_float_range
def elliptic_classical_average_ref(m, q, alpha, params, t):
    _ref_monomial(m, q)
    a = complex(alpha)
    rate = params.omega + 2.0 * params.mu * abs(a) ** 2
    return a.conjugate() ** m * a**q * cmath.exp(1j * rate * (m - q) * t)


def _ref_order(n):
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"observable power must be an integer >= 1, got {n!r}")
    if n > 20:
        raise DomainError(f"n={n} exceeds the exact-factorial cap 20")


def _ref_pieces(n, alpha, params, t):
    a = complex(alpha)
    phi = 8.0 * n * params.mu * params.hbar * t
    k = math.floor(0.5 + phi / math.pi)
    bsq = 0.5 / math.cos(phi)
    mag = math.sqrt(abs(bsq))
    xi = 2.0 * (a * cmath.exp(0.5j * phi)).real
    s_line = 2.0 * a.real
    exponent = (
        -s_line * s_line / (2.0 * params.hbar)
        + xi * xi * bsq / params.hbar
        + 2.0 * params.omega * n * t
    )
    series = 0j
    xb_mag = xi * mag
    try:
        for j in range(n // 2 + 1):
            coef = math.factorial(n) / (4.0**j * math.factorial(j) * math.factorial(n - 2 * j))
            power = n - 2 * j
            series += coef * params.hbar**j * xb_mag**power * _I_POW[(k * power) % 4]
    except OverflowError as exc:
        raise FloatRangeError(f"<x^{n}> overflows float64 at t={t} ({exc})") from None
    if abs(series) < sys.float_info.min:
        # each term in log scale, over the largest: xi mag = m 2^(lift + e), xi from alpha / 2^lift
        lift = math.frexp(max(abs(a.real), abs(a.imag)))[1]
        lifted = complex(math.ldexp(a.real, -lift), math.ldexp(a.imag, -lift))
        m, e = math.frexp(2.0 * (lifted * cmath.exp(0.5j * phi)).real * mag)
        log_x = (lift + e) * math.log(2.0) + math.log(abs(m)) if m else -math.inf
        logs = []
        for j in range(n // 2 + 1):
            coef = math.factorial(n) / (4.0**j * math.factorial(j) * math.factorial(n - 2 * j))
            power = n - 2 * j
            logs.append((math.log(coef) + j * math.log(params.hbar) + (power and power * log_x), power))
        top = max(log for log, _ in logs)
        if top > -math.inf:
            series = 0j
            for log, power in logs:
                series += math.exp(log - top) * _I_POW[((k + 2 * (m < 0)) * power) % 4]
            exponent += top
    return exponent, mag, k, series, bsq > 0.0


def _ref_log10(n, pieces, t):
    exponent, mag, _, series, _ = pieces
    if series == 0:
        return -math.inf
    log10_mag = (
        exponent / math.log(10.0)
        + (n + 1) * (0.5 * math.log10(2.0) + math.log10(mag))
        + math.log10(abs(series))
    )
    if math.isnan(log10_mag):
        raise FloatRangeError(f"<x^{n}> is beyond float64 at t={t}: its log10 magnitude is nan")
    return log10_mag


def _ref_exp_product(exponent, a, b, log10_mag):
    normal = exponent.real >= math.log(sys.float_info.min) or log10_mag < math.log10(5e-324)
    if exponent.real <= _LOG_FLOAT_MAX and normal:
        value = a * cmath.exp(exponent) * b
        if cmath.isfinite(value):
            return value
    scaled = a * b
    if scaled == 0:
        return 0j
    return cmath.exp(exponent + cmath.log(scaled))


def _ref_closed_value(n, pieces, log10_mag):
    exponent, mag, k, series, _ = pieces
    prefactor = 2.0 ** ((n + 1) / 2.0) * mag ** (n + 1) * _I_POW[(k * (n + 1)) % 4]
    return _ref_exp_product(exponent, prefactor, series, log10_mag)


def _ref_integral_factors(n, alpha, params, t):
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
    if w.real <= 0.0:
        raise DomainError(f"moment recursion needs Re(w) > 0, got {w!r}")
    moments = [0j, 1 + 0j]  # M_-1 and M_0, over M_0
    for j in range(1, n + 1):
        moments.append((params.hbar * (j - 1) * moments[-2] + math.sqrt(2.0) * b * moments[-1]) / w)
    return exponent, cmath.sqrt(2.0 / w), moments[1:]


def _ref_guarded(n, alpha, params, t, guard):
    _ref_order(n)
    params.require_hyperbolic()
    _ref_guard(n, params, t, guard)
    return _ref_pieces(n, alpha, params, t)


def _ref_representable(n, alpha, params, t, guard):
    pieces = _ref_guarded(n, alpha, params, t, guard)
    log10_mag = _ref_log10(n, pieces, t)
    if log10_mag > 307.0:
        raise CollapseProximity(
            f"|<x^{n}>| ~ 1e{log10_mag:.0f} exceeds float64 range at t={t}; "
            "use hyperbolic_xn_log10_magnitude for near-collapse scans"
        )
    return pieces, log10_mag


def hyperbolic_xn_average_ref(n, alpha, params, t, guard):
    pieces, log10_mag = _ref_representable(n, alpha, params, t, guard)
    if pieces[-1]:
        return _ref_closed_value(n, pieces, log10_mag)
    exponent, root, moments = _ref_integral_factors(n, alpha, params, t)
    held = all(abs(moment) >= sys.float_info.min for moment in moments[n % 2::2])
    if (held and not cmath.isnan(exponent)) or pieces[3] == 0:
        return _ref_exp_product(exponent, root, moments[n], -math.inf)
    return _ref_closed_value(n, pieces, log10_mag)


def hyperbolic_xn_paths_ref(n, alpha, params, t, guard):
    pieces, log10_mag = _ref_representable(n, alpha, params, t, guard)
    exponent, root, moments = _ref_integral_factors(n, alpha, params, t)
    integral = _ref_exp_product(exponent, root, moments[n], -math.inf)
    return _ref_closed_value(n, pieces, log10_mag), integral


def hyperbolic_xn_log10_magnitude_ref(n, alpha, params, t, guard):
    pieces = _ref_guarded(n, alpha, params, t, guard)
    log10_mag = _ref_log10(n, pieces, t)
    if math.isinf(pieces[0]):
        raise FloatRangeError(f"<x^{n}> is beyond float64 at t={t}: its exponent is {pieces[0]}")
    return log10_mag


@_ref_float_range
def hyperbolic_classical_xn_ref(n, alpha, params, t):
    _ref_order(n)
    a = complex(alpha)
    x0 = math.sqrt(2.0) * a.real
    p0 = math.sqrt(2.0) * a.imag
    rate = 2.0 * params.omega - 8.0 * params.mu * x0 * p0
    start, exponent = x0**n, n * rate * t
    if exponent <= _LOG_FLOAT_MAX and (
        x0 == 0.0 or abs(start) >= sys.float_info.min and exponent >= math.log(sys.float_info.min)
    ):
        return complex(start * math.exp(exponent))
    if x0 == 0.0:  # exp alone beyond float64; else it or x0^n is not normal: x0^n exp in log scale
        return 0j
    mag = math.exp(exponent + n * math.log(abs(x0)))
    return complex(-mag if x0 < 0.0 and n % 2 else mag)


@_ref_float_range
def dispersion_exact_ref(alpha, params, t, guard):
    second = hyperbolic_xn_average_ref(2, alpha, params, t, guard)
    first = hyperbolic_xn_average_ref(1, alpha, params, t, guard)
    return second - first * first


def _ref_regime_sets(alpha, params, t, ratio, slack):
    mod2 = abs(complex(alpha)) ** 2
    u = abs(params.mu * params.hbar * t)
    growth = params.mu**2 * params.hbar * t * t
    lin, quad = growth * math.sqrt(mod2), growth * mod2
    eff = ratio / slack
    low, high = 0.5 / slack, 2.0 * slack
    common = u * eff <= 1.0 and mod2 >= eff * params.hbar
    return {
        DispersionRegime.CROSSOVER: common and low <= 64.0 * quad <= high,
        DispersionRegime.EXPONENTIAL_DOMINATED: common and quad >= eff,
        DispersionRegime.SMALL_CORRECTION: common and lin * eff <= 1.0 and 64.0 * quad < 0.5 * slack,
    }


def classify_dispersion_regime_ref(alpha, params, t, ratio=10.0):
    try:
        sets = _ref_regime_sets(alpha, params, t, ratio, 1.0)
    except OverflowError as exc:
        raise FloatRangeError(f"classify_dispersion_regime overflows float64 ({exc})") from None
    return next((regime for regime, holds in sets.items() if holds), None)


@_ref_float_range
def dispersion_approx_ref(alpha, params, t, regime, slack=10.0, ratio=10.0):
    a = complex(alpha)
    mod2 = abs(a) ** 2
    if not _ref_regime_sets(a, params, t, ratio, slack)[regime]:
        u = abs(params.mu * params.hbar * t)
        raise RegimeMismatch(
            f"point (|alpha|^2={mod2:.3g}, mu*hbar*t={u:.3g}) fails the "
            f"{regime.value} inequalities beyond slack {slack:g}"
        )
    mu, hbar, omega = params.mu, params.hbar, params.omega
    a2 = a * a - a.conjugate() * a.conjugate()
    s_line = 2.0 * a.real
    prefactor = cmath.exp(4.0 * omega * t + 8j * mu * t * a2)
    if regime is DispersionRegime.SMALL_CORRECTION:
        return prefactor * (
            0.5 * hbar + 4j * mu * hbar * t * a2 + 32.0 * mu**2 * hbar * t * t * s_line**2 * mod2
        )
    growth = mu**2 * hbar * t * t * mod2
    if regime is DispersionRegime.EXPONENTIAL_DOMINATED:
        return 0.5 * prefactor * s_line**2 * math.exp(128.0 * growth)
    return 0.5 * prefactor * s_line**2 * (math.exp(128.0 * growth) - math.exp(64.0 * growth))


# ---------------------------------------------------------------------------
# The property
# ---------------------------------------------------------------------------

def _outcome(evaluate, *args):
    """``repr`` of the value, or the exception's type name and message."""
    try:
        return repr(evaluate(*args))
    except Exception as exc:  # noqa: BLE001 - the exception itself is the outcome
        return type(exc).__name__, str(exc)


def _cases(n, m, q, alpha, params, t, guard):
    """(name, prepared or public call, per-call reference) for every closed form at one point."""
    cases = [
        ("x^n", lambda: hyperbolic_xn_average(n, alpha, params, t, guard),
         lambda: hyperbolic_xn_average_ref(n, alpha, params, t, guard)),
        ("paths", lambda: hyperbolic_xn_paths(n, alpha, params, t, guard),
         lambda: hyperbolic_xn_paths_ref(n, alpha, params, t, guard)),
        ("log10", lambda: hyperbolic_xn_log10_magnitude(n, alpha, params, t, guard),
         lambda: hyperbolic_xn_log10_magnitude_ref(n, alpha, params, t, guard)),
        ("classical x^n", lambda: hyperbolic_classical_xn(n, alpha, params, t),
         lambda: hyperbolic_classical_xn_ref(n, alpha, params, t)),
        ("elliptic", lambda: elliptic_quantum_average(m, q, alpha, params, t),
         lambda: elliptic_quantum_average_ref(m, q, alpha, params, t)),
        ("elliptic classical", lambda: elliptic_classical_average(m, q, alpha, params, t),
         lambda: elliptic_classical_average_ref(m, q, alpha, params, t)),
        ("dispersion", lambda: dispersion_exact(alpha, params, t, guard),
         lambda: dispersion_exact_ref(alpha, params, t, guard)),
        ("regime", lambda: classify_dispersion_regime(alpha, params, t),
         lambda: classify_dispersion_regime_ref(alpha, params, t)),
    ]
    for regime in DispersionRegime:
        for slack, ratio in ((10.0, 10.0), (1.0, 3.0)):
            cases.append((
                f"approx {regime.value} {slack:g}/{ratio:g}",
                lambda r=regime, s=slack, q=ratio: dispersion_approx(alpha, params, t, r, s, q),
                lambda r=regime, s=slack, q=ratio: dispersion_approx_ref(alpha, params, t, r, s, q),
            ))
    return cases


def _prepared(n, m, q, alpha, params, guard):
    """Each evaluator built once, as a command builds it, with its per-call reference."""
    regimes = RegimeSets(alpha, params)
    return [
        (XnAverage(n, alpha, params, guard), lambda t: hyperbolic_xn_average_ref(n, alpha, params, t, guard)),
        (XnAverage(n, alpha, params, guard).paths, lambda t: hyperbolic_xn_paths_ref(n, alpha, params, t, guard)),
        (XnAverage(n, alpha, params, 0.0).log10_magnitude,
         lambda t: hyperbolic_xn_log10_magnitude_ref(n, alpha, params, t, 0.0)),
        (XnClassical(n, alpha, params), lambda t: hyperbolic_classical_xn_ref(n, alpha, params, t)),
        (EllipticAverage(m, q, alpha, params), lambda t: elliptic_quantum_average_ref(m, q, alpha, params, t)),
        (EllipticClassical(m, q, alpha, params),
         lambda t: elliptic_classical_average_ref(m, q, alpha, params, t)),
        (DispersionExact(alpha, params, guard), lambda t: dispersion_exact_ref(alpha, params, t, guard)),
        (regimes.classify, lambda t: classify_dispersion_regime_ref(alpha, params, t)),
    ] + [
        (DispersionApprox(alpha, params, r), lambda t, r=r: dispersion_approx_ref(alpha, params, t, r))
        for r in DispersionRegime
    ]


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=0, max_value=3),
    q=st.integers(min_value=0, max_value=3),
    omega=st.floats(min_value=0.5, max_value=2.0),
    mu=st.floats(min_value=-0.15, max_value=0.15),
    hbar=st.floats(min_value=0.005, max_value=0.2),
    re=st.floats(min_value=-1.5, max_value=1.5),
    im=st.floats(min_value=-1.5, max_value=1.5),
    spacings=st.lists(st.floats(min_value=0.0, max_value=2.5), min_size=1, max_size=3),
    guard=st.sampled_from((0.0, 1e-6, 1e-3)),
)
# |alpha|^2 beyond float64: every call raises it, the build does not
@example(n=1, m=2, q=1, omega=1.0, mu=0.05, hbar=0.1, re=1e200, im=0.0, spacings=[0.3, 1.7], guard=1e-6)
@example(n=2, m=2, q=1, omega=1.0, mu=0.05, hbar=0.1, re=1e200, im=0.0, spacings=[0.3, 1.7], guard=1e-6)
# alpha = 1e152: xi^2 b^2/hbar leaves float64 near the first collapse, a +inf exponent,
# and near the second, where cos(8 n mu hbar t) < 0, a -inf one
@example(n=1, m=1, q=0, omega=1.0, mu=0.05, hbar=0.02, re=1e152, im=0.0, spacings=[0.3, 0.4995],
         guard=0.0)
@example(n=1, m=1, q=0, omega=1.0, mu=0.05, hbar=0.02, re=1e152, im=0.0, spacings=[1.3, 1.4995],
         guard=0.0)
# alpha = 0: the odd-n average is exactly 0 and its log10 magnitude -inf
@example(n=1, m=1, q=0, omega=1.0, mu=0.1, hbar=0.1, re=0.0, im=0.0, spacings=[0.0, 0.49], guard=0.0)
# alpha = 1e-318: the x^3 series is below the normal range and formed in log scale, at t = 0,
# where cos(8 n mu hbar t) > 0 and where it is < 0
@example(n=3, m=1, q=0, omega=1.0, mu=0.05, hbar=0.1, re=1e-318, im=0.0, spacings=[0.0, 0.3, 1.2], guard=0.0)
# x0^4 underflows to 0: the classical x^4 (4.2e-293 at t = 10) is formed in log scale
@example(n=4, m=0, q=0, omega=1.0, mu=0.0, hbar=0.125, re=1.172784275366023e-82, im=0.0, spacings=[1.0],
         guard=0.0)
# exp(rate t) = e^-721 is below the normal range: the classical x^4 (2.9e-305) is formed in log scale
@example(n=4, m=0, q=0, omega=1.0, mu=0.05, hbar=0.1, re=100.0, im=1.0, spacings=[0.1177], guard=0.0)
# right on the first collapse time and just past it
@example(n=3, m=0, q=2, omega=1.0, mu=0.1, hbar=0.1, re=0.7, im=-0.4, spacings=[0.5, 0.5000001], guard=0.0)
def test_prepared_equals_per_call(n, m, q, omega, mu, hbar, re, im, spacings, guard):
    params = make_hyperbolic_params(omega, mu, hbar)
    alpha = complex(re, im)
    rate = 8.0 * abs(mu) * n * hbar
    spacing = min(math.pi / rate, 1e6) if rate else 10.0  # collapse spacing, finite for mu ~ 0
    times = [fraction * spacing for fraction in spacings]
    for t in times:
        for name, public, reference in _cases(n, m, q, alpha, params, t, guard):
            assert _outcome(public) == _outcome(reference), (name, t)
    for evaluator, reference in _prepared(n, m, q, alpha, params, guard):
        assert [_outcome(evaluator, t) for t in times] == [_outcome(reference, t) for t in times]

"""Run configuration, sweep drivers, and deterministic table output.

The config format is flat ``key = value`` text: one entry per line, ``#``
starts a comment, unknown keys are hard errors (silent typos in physics
parameters are the main operator hazard).  Output tables are byte-stable:
fixed row order, floats always printed with 17 significant digits and a
lowercase exponent.
"""

from __future__ import annotations

import cmath
import math
from functools import partial
from itertools import chain, groupby

from . import closedform
from .closedform import (  # noqa: F401  the three functions only for bench/spans.py to wrap here
    DEFAULT_GUARD, elliptic_quantum_average, hyperbolic_xn_average,
    hyperbolic_xn_log10_magnitude,
)
from .core import (
    DEFAULT_DIM_CAP,
    CollapseProximity,
    ConfigError,
    DomainError,
    FloatRangeError,
    Monomial,
    ObservableSpec,
    Record,
    SystemParams,
    XPower,
    make_hyperbolic_params,
)

APPROACH_EXPONENTS = (2, 3, 4, 5, 6)  # distances t_ell * 10^-k for collapse scans
_BISECT_REL = 1e-4  # breakdown crossings are bisected to this share of their grid interval
_MAX_POINTS = 1_000_000  # time-grid size, refused before the grid is built
_MAX_SCAN_ROWS = 1_000_000  # collapse-scan rows, refused before the scan runs


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _parse_observable(text: str) -> ObservableSpec:
    text = text.strip()
    if text.startswith("x^"):
        return XPower(int(text[2:]))
    if text == "x":
        return XPower(1)
    if text.startswith("mono:"):
        m_str, q_str = text[5:].split(",")
        return Monomial(int(m_str), int(q_str))
    raise ConfigError(f"cannot parse observable {text!r} (use 'x^N' or 'mono:M,Q')")


def _parse_alpha(text: str) -> complex:
    value = complex(text)
    if not cmath.isfinite(value):
        raise ValueError(f"alpha must be finite, got {value!r}")
    return value


def _parse_float(text: str) -> float:
    """Every float key and ``hbar_list`` entry: a non-finite value is refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value!r}")
    return value


def _parse_sources(text: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    allowed = {"closed", "classical", "oracle"}
    for name in names:
        if name not in allowed:
            raise ConfigError(f"unknown source {name!r} (allowed: closed,classical,oracle)")
    if not names:
        raise ConfigError("sources must not be empty")
    return names


# Every config key, in field order: its parser and its default.
_KEYS = {
    "kind": (str, "hyperbolic"),
    "omega": (_parse_float, 1.0),
    "mu": (_parse_float, 0.1),
    "hbar": (_parse_float, 0.1),
    "alpha": (_parse_alpha, 1.0 + 0j),
    "observable": (_parse_observable, XPower(1)),
    "t_min": (_parse_float, 0.0),
    "t_max": (_parse_float, 1.0),
    "points": (int, 21),
    "sources": (_parse_sources, ("closed", "classical")),
    "guard": (_parse_float, DEFAULT_GUARD),
    "format": (str, "csv"),
    "oracle_tol": (_parse_float, 1e-6),
    "oracle_dim_cap": (int, DEFAULT_DIM_CAP),
    "ell_min": (int, 0),
    "ell_max": (int, 2),
    "hbar_list": (lambda s: tuple(_parse_float(x) for x in s.split(",")), ()),
    "breakdown_threshold": (_parse_float, 1.0),
}


class RunConfig(Record):
    """One run's settings, a keyword for each key of ``_KEYS`` plus the parsed ``raw_items``;
    ``params`` is its :class:`SystemParams`, built once with it."""

    _fields = (*_KEYS, "raw_items")
    __slots__ = (*_fields, "params")
    _defaults = {**{key: default for key, (_, default) in _KEYS.items()}, "raw_items": ()}

    def __init__(self, **values) -> None:
        """Every config, parsed or built, is checked once; the grid is not built here."""
        super().__init__(**values)
        kind, observable, points, t_min, t_max = self.kind, self.observable, self.points, self.t_min, self.t_max
        if kind not in ("hyperbolic", "elliptic"):
            raise ConfigError(f"kind must be hyperbolic or elliptic, got {kind!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if kind == "hyperbolic" and not isinstance(observable, XPower):
            raise ConfigError("hyperbolic runs accept the x^N observable only")
        if kind == "elliptic" and not isinstance(observable, Monomial):
            raise ConfigError("elliptic runs accept the mono:M,Q observable only")
        # built once here; raises DomainError for invalid physics
        params = make_hyperbolic_params if kind == "hyperbolic" else SystemParams
        object.__setattr__(self, "params", params(self.omega, self.mu, self.hbar))
        if points < 1:
            raise ConfigError("points must be >= 1")
        if points > _MAX_POINTS:
            raise ConfigError(f"points must be <= {_MAX_POINTS:,}, got {points:,}")
        if points > 1:
            if not t_max > t_min:
                raise ConfigError("time grid needs t_max > t_min")
            # the grid is monotone from a finite t_min, so its last point decides
            span, last = t_max - t_min, points - 1
            if not math.isfinite(t_min + last * (span / last)):
                raise ConfigError(f"time grid is not finite (t_max - t_min = {span!r})")
        if not self.oracle_tol > 0:  # the doubling could never converge
            raise ConfigError(f"oracle_tol must be > 0, got {self.oracle_tol!r}")

    def time_grid(self) -> list[float]:
        """``t_min + k * step`` per point; ``__init__`` checked its size and ends."""
        if self.points == 1:
            return [self.t_min]
        step = (self.t_max - self.t_min) / (self.points - 1)
        return [self.t_min + k * step for k in range(self.points)]

    def metadata(self, command: str) -> list[tuple[str, str]]:
        items = [("command", command)]
        items += [(k, v) for k, v in self.raw_items]
        return items


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines into a validated :class:`RunConfig`.

    Raises
    ------
    ConfigError
        On unknown keys, malformed lines, or unparsable values.
    """
    fields: dict = {}
    raw: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            fields[key] = _KEYS[key][0](value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        raw.append((key, value))
    return RunConfig(**fields, raw_items=tuple(sorted(raw)))


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


# ---------------------------------------------------------------------------
# Evaluation helpers
# ---------------------------------------------------------------------------

def _evaluators(config: RunConfig) -> dict:
    """``t -> value`` per source name: the prepared closed forms, built once per command (their
    bound ``__call__``, which skips the instance call), and the oracle, looked up in this
    module's namespace when the command runs."""
    obs, params, alpha = config.observable, config.params, config.alpha
    if isinstance(obs, XPower):
        key = obs.n
        closed = closedform.XnAverage(obs.n, alpha, params, config.guard).__call__
        classical = closedform.XnClassical(obs.n, alpha, params).__call__
    else:
        key = (obs.m, obs.q)
        closed = closedform.EllipticAverage(obs.m, obs.q, alpha, params).__call__
        classical = closedform.EllipticClassical(obs.m, obs.q, alpha, params).__call__
    oracle = partial(
        oracle_average, config.kind, params, alpha, key,
        tol=config.oracle_tol, dim_cap=config.oracle_dim_cap,
    )
    return {"closed": closed, "classical": classical, "oracle": oracle}


def oracle_average(*args, **kwargs) -> complex:
    """:func:`cohevol.fock.oracle_average`; numpy loads at the first call.

    Looked up in this module's namespace by :func:`_evaluators`, so a caller
    may replace it; ``fock.oracle_average`` itself is looked up at each call.
    """
    from . import fock

    return fock.oracle_average(*args, **kwargs)


def _value_or_none(error, evaluate, *args) -> "complex | None":
    """``evaluate(*args)``, or None where it raises ``error`` (a value it cannot give)."""
    try:
        return evaluate(*args)
    except error:
        return None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

class TableResult(Record):
    """Column names plus row tuples ready for the deterministic writers."""

    __slots__ = _fields = ("columns", "rows", "extra_meta")
    _defaults = {"extra_meta": ()}


def cmd_evolve(config: RunConfig) -> TableResult:
    """One aligned series per requested source over the configured grid.

    The closed form is evaluated once per point; that one value fills the
    ``closed`` column and its collapse verdict flags the row in every column.
    Only ``x^N`` rows can be flagged, so an elliptic run evaluates the closed
    form only when ``closed`` is a source.  A classical value beyond the
    float64 range leaves its two cells empty and its row unflagged.
    """
    grid = config.time_grid()
    evaluate = _evaluators(config)
    hyperbolic = isinstance(config.observable, XPower)
    if hyperbolic or "closed" in config.sources:
        closed = [_value_or_none(CollapseProximity, evaluate["closed"], t) for t in grid]
    else:
        closed = [None] * len(grid)
    flags = [hyperbolic and value is None for value in closed]
    rows = []
    for name in ("closed", "classical", "oracle"):
        if name not in config.sources:
            continue
        for t, value, flagged in zip(grid, closed, flags):
            if flagged:
                rows.append((t, None, None, name, 1))
                continue
            if name == "classical":
                value = _value_or_none(FloatRangeError, evaluate[name], t)
            elif name == "oracle":
                value = evaluate[name](t)
            cells = (None, None) if value is None else (value.real, value.imag)
            rows.append((t, *cells, name, 0))
    return TableResult(
        columns=("t", "re(f)", "im(f)", "source", "collapse_flag"),
        rows=tuple(rows),
    )


def cmd_compare(config: RunConfig) -> TableResult:
    """Closed form against the truncated-basis oracle, with deviations."""
    grid = config.time_grid()
    evaluate = _evaluators(config)
    rows = []
    worst = 0.0
    for t in grid:
        closed = _value_or_none(CollapseProximity, evaluate["closed"], t)
        if closed is None:
            rows.append((t, None, None, None, None, None, 1))
            continue
        orc = evaluate["oracle"](t)
        rel = abs(closed - orc) / (abs(orc) + 1e-30)
        worst = max(worst, rel)
        rows.append((t, closed.real, closed.imag, orc.real, orc.imag, rel, 0))
    return TableResult(
        columns=(
            "t",
            "re(closed)",
            "im(closed)",
            "re(oracle)",
            "im(oracle)",
            "rel_deviation",
            "collapse_flag",
        ),
        rows=tuple(rows),
        extra_meta=(("max_rel_deviation", _fmt_float(worst)),),
    )


def cmd_collapse_scan(config: RunConfig) -> TableResult:
    """Log-magnitude approach sequences for each collapse time in the range.

    Magnitudes this close to collapse leave float64, so the table reports
    ``log10 |f|`` at distances ``|t_ell| * 10^-k`` left of each ``t_ell``.
    Along a sequence ``|log10 |f||`` grows about tenfold per step, with the
    sign of the Gaussian exponent ``xi^2 b^2 / hbar`` on that side of the
    collapse: the average blows up where ``b^2 -> +inf`` and vanishes where
    ``b^2 -> -inf`` (on ``configs/collapse_scan.cfg`` ``l = 0`` and ``2`` rise
    to about 2.8e6 and 5.5e5, and ``l = 1`` falls from -42.5 to -9.2e5).
    A lattice or an ``l`` range whose ``t_ell`` leaves float64 is
    :class:`FloatRangeError`.
    """
    obs = config.observable
    if not isinstance(obs, XPower):
        raise ConfigError("collapse-scan needs the x^N observable")
    params = config.params
    if params.mu == 0.0:
        raise DomainError("collapse-scan needs mu != 0 (no collapse in the quadratic limit)")
    lo, hi = config.ell_min, config.ell_max
    if hi < lo:
        raise ConfigError("ell range must satisfy ell_min <= ell_max")
    n_rows = len(APPROACH_EXPONENTS) * (hi - lo + 1)
    if n_rows > _MAX_SCAN_ROWS:
        raise ConfigError(f"collapse-scan is limited to {_MAX_SCAN_ROWS:,} rows, got {n_rows:,}")
    base, spacing = closedform._collapse_lattice(obs.n, params)
    try:  # t_ell is monotone in ell, so the ends of the range decide
        finite = all(math.isfinite(base + ell * spacing) for ell in (lo, hi))
    except OverflowError:  # an ell beyond float64
        finite = False
    if not finite:
        raise FloatRangeError(f"t_ell leaves float64 in the range ell = {lo}..{hi}")
    log10_magnitude = closedform.XnAverage(obs.n, config.alpha, params, guard=0.0).log10_magnitude
    rows = []
    for ell in range(lo, hi + 1):
        t_ell = base + ell * spacing
        for k in APPROACH_EXPONENTS:
            t = t_ell - abs(t_ell) * 10.0 ** (-k)
            rows.append((ell, t_ell, k, t, log10_magnitude(t)))
    return TableResult(
        columns=("ell", "t_ell", "k", "t", "log10_abs_f"),
        rows=tuple(rows),
    )


# -- classical/quantum breakdown fits ---------------------------------------

class EhrenfestFit(Record):
    """Breakdown times per hbar with log and power-law fits.

    ``breakdown_times`` holds the absolute-deviation crossing ``|f - f_cl| >=
    threshold`` (None when not reached inside the window);
    ``relative_times`` the relative-deviation crossing.  The log fit is
    ``t* = intercept + slope * ln(1/hbar)``; the power fit is
    ``t* = power_coeff * (1/hbar)^power_exponent`` (fitted in log-log space).
    A fit is None where it is undefined (fewer than four absolute crossings, all
    at one hbar; for the power fit, a crossing time not > 0) or beyond float64.
    """

    __slots__ = _fields = (
        "hbar_values", "breakdown_times", "relative_times", "threshold", "intercept", "slope",
        "goodness", "power_coeff", "power_exponent", "power_goodness",
    )
    _defaults = dict.fromkeys(_fields[4:])  # the six fits


def _linear_fit(xs: list[float], ys: list[float]) -> tuple:
    """``(intercept, slope, goodness)`` of the least-squares line through points whose
    ``xs`` are not all equal; three Nones where a sum leaves float64."""
    n = len(xs)
    mean_x, mean_y = sum(xs) / n, sum(ys) / n
    try:
        sxx = sum((x - mean_x) ** 2 for x in xs)
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        slope = sxy / sxx
        intercept = mean_y - slope * mean_x
        ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
        ss_tot = sum((y - mean_y) ** 2 for y in ys)
    except OverflowError:
        return None, None, None
    fit = (intercept, slope, 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0)
    return fit if all(map(math.isfinite, fit)) else (None, None, None)


def _first_crossings(
    gaps, grid: list[float], threshold: float
) -> tuple[float | None, float | None]:
    """First times where the absolute and the relative gap reach ``threshold``.

    One grid scan, stopped once both gaps have crossed or where ``gaps(t)`` (both from one
    (quantum, classical) pair) raises :class:`CollapseProximity`; a gap not crossed by then is None.
    Each crossing is bisected to ``_BISECT_REL`` of the grid interval where the scan finds it, or until
    its bracket holds two adjacent floats (a crossing at the first point is that point); a midpoint that
    raises ends it at the bracket's upper end.
    """

    def bisect(which: int, lo: float | None, hi: float) -> float:
        if lo is None:
            return hi
        width0 = hi - lo
        while (hi - lo) > _BISECT_REL * width0:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:  # lo and hi are adjacent floats: the bracket cannot shrink
                break
            try:
                crossed = gaps(mid)[which] >= threshold
            except CollapseProximity:
                break
            if crossed:
                hi = mid
            else:
                lo = mid
        return hi

    t_abs = t_rel = previous_t = None
    for t in grid:
        try:
            abs_gap, rel_gap = gaps(t)
        except CollapseProximity:
            break
        if t_abs is None and abs_gap >= threshold:
            t_abs = bisect(0, previous_t, t)
        if t_rel is None and rel_gap >= threshold:
            t_rel = bisect(1, previous_t, t)
        if t_abs is not None and t_rel is not None:
            break
        previous_t = t
    return t_abs, t_rel


def cmd_ehrenfest(config: RunConfig, hbar_list: "tuple[float, ...] | None" = None) -> tuple[EhrenfestFit, TableResult]:
    """Breakdown time of the classical description per hbar, with fits.

    For each hbar one scan of the grid evaluates the quantum and the
    classical mean position once per point and takes both the absolute and
    the relative gap from that pair.  The first time each gap reaches
    ``breakdown_threshold`` is refined by bisection (to 1e-4 of the
    bracketing interval), and both crossings are reported, None where not
    found before the first point without a closed-form value (the collapse
    guard band, or ``|<x>|`` above 1e307), where the scan ends.  Fits of the
    absolute-gap times against ``ln(1/hbar)`` and in log-log space are
    emitted side by side, each ``none`` where :class:`EhrenfestFit` leaves it
    None.  Only the hyperbolic mean position ``x^1`` is measured; any other
    model or observable is a :class:`ConfigError`.
    """
    hbars = tuple(hbar_list if hbar_list is not None else config.hbar_list)
    if not hbars:
        raise ConfigError("ehrenfest needs a nonempty hbar_list")
    if config.kind != "hyperbolic" or config.observable != XPower(1):
        raise ConfigError("ehrenfest needs kind = hyperbolic and observable = x^1")
    grid = config.time_grid()
    threshold = config.breakdown_threshold
    abs_times: list[float | None] = []
    rel_times: list[float | None] = []
    rows = []
    for hbar in hbars:
        evaluate = _evaluators(config.replace(hbar=hbar))
        quantum, classical = evaluate["closed"], evaluate["classical"]

        def gaps(t: float) -> tuple[float, float]:
            q, c = quantum(t), classical(t)
            gap = abs(q - c)
            return gap, gap / (abs(c) + 1e-300)

        t_abs, t_rel = _first_crossings(gaps, grid, threshold)
        abs_times.append(t_abs)
        rel_times.append(t_rel)
        status = "ok" if t_abs is not None else "breakdown-not-found"
        rows.append((hbar, t_abs, t_rel, status))

    xs = [math.log(1.0 / h) for h, t in zip(hbars, abs_times) if t is not None]
    ys = [t for t in abs_times if t is not None]
    log_fit = power_fit = (None, None, None)
    if len(ys) >= 4 and len(set(xs)) > 1:
        log_fit = _linear_fit(xs, ys)
        if min(ys) > 0:
            # log t is bounded, so only the exponential can leave float64
            pc, pe, pg = _linear_fit(xs, [math.log(t) for t in ys])
            power_fit = (_value_or_none(OverflowError, math.exp, pc), pe, pg)
    fits = dict(zip(EhrenfestFit._defaults, (*log_fit, *power_fit)))
    fit = EhrenfestFit(
        hbar_values=hbars, breakdown_times=tuple(abs_times), relative_times=tuple(rel_times),
        threshold=threshold, **fits,
    )
    meta = tuple((f"fit_{name}", "none" if value is None else _fmt_float(value))
                 for name, value in fits.items())
    return fit, TableResult(
        columns=("hbar", "t_star_abs", "t_star_rel", "status"), rows=tuple(rows), extra_meta=meta,
    )


def cmd_dispersion_regimes(config: RunConfig) -> TableResult:
    """Classify each grid time and compare exact vs approximate dispersion.

    A collapse-guarded row is flagged with empty cells; a value beyond float64
    empties its own cells (the exact one all five) and leaves the row unflagged.
    """
    if config.kind != "hyperbolic":
        raise ConfigError("dispersion-regimes needs kind = hyperbolic")
    alpha, params = config.alpha, config.params
    regimes = closedform.RegimeSets(alpha, params)  # classify_dispersion_regime's defaults
    dispersion = closedform.DispersionExact(alpha, params, config.guard).__call__
    approximations = {regime: closedform.DispersionApprox(alpha, params, regime).__call__
                      for regime in closedform.DispersionRegime}
    rows = []
    for t in config.time_grid():
        regime = regimes.classify(t)
        label = regime.value if regime is not None else "none"
        try:
            exact = _value_or_none(FloatRangeError, dispersion, t)
        except CollapseProximity:
            rows.append((t, label, None, None, None, None, None, 1))
            continue
        approx = None
        if exact is not None and regime is not None:
            approx = _value_or_none(FloatRangeError, approximations[regime], t)
        exact_cells = (None, None) if exact is None else (exact.real, exact.imag)
        if approx is None:
            rows.append((t, label, *exact_cells, None, None, None, 0))
            continue
        gap = abs(approx - exact) / (abs(exact) + 1e-300)
        rows.append((t, label, *exact_cells, approx.real, approx.imag, gap, 0))
    return TableResult(
        columns=(
            "t",
            "regime",
            "re(D_exact)",
            "im(D_exact)",
            "re(D_approx)",
            "im(D_approx)",
            "rel_gap",
            "collapse_flag",
        ),
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Deterministic writers
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    return format(float(x), ".16e")


def _fmt_cell(value, null: str, quote) -> str:
    """One table cell: ``null`` for None, integers and floats bare, else ``quote``."""
    if value is None:
        return null
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    return quote(value)


def _json_cell(value) -> str:
    """As in the CSV, but ``null`` also for a non-finite float and ``true``/``false`` for a bool."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and not math.isfinite(value):
        return "null"
    return _fmt_cell(value, "null", _json_string)


_CSV_SLOTS = {float: "%.16e", int: "%d", str: "%s", type(None): "%.0s"}
_JSON_SLOTS = {**_CSV_SLOTS, str: '"%s"', type(None): "null%.0s"}
# RFC 8259: a string literal escapes '"', '\' and the controls U+0000-U+001F
_JSON_ESCAPES = {code: f"\\u{code:04x}" for code in range(0x20)}
_JSON_ESCAPES.update({ord("\\"): "\\\\", ord('"'): '\\"'})


def _row_lines(rows, slots: dict, cell, as_json: bool = False) -> list[str]:
    """The text of each run of rows with one type signature, rows joined as the writer joins lines.

    A run is formatted with one ``%`` on its row template repeated.  A run whose signature
    holds a type with no slot (``bool``, a numpy scalar) goes through ``cell`` one cell at a
    time instead.  With ``as_json`` each row is a bracketed array, and a whole run also goes
    cell by cell where its text holds ``inf`` or ``nan`` or one of its distinct strings needs
    an escape.
    """
    form, sep = ("[%s]", ",") if as_json else ("%s", "\n")
    texts = []
    for types, run in groupby(rows, lambda row: tuple(map(type, row))):
        run = list(run)
        parts = [slots.get(kind) for kind in types]
        text = None
        if all(parts):
            cells = tuple(chain.from_iterable(run))
            text = sep.join([form % ",".join(parts)] * len(run)) % cells
            if as_json and ("inf" in text or "nan" in text or any(
                s.translate(_JSON_ESCAPES) != s
                for s in set().union(*[cells[i::len(types)] for i, kind in enumerate(types) if kind is str])
            )):
                text = None
        if text is None:
            text = sep.join([form % ",".join([cell(value) for value in row]) for row in run])
        texts.append(text)
    return texts


def render_csv(result: TableResult, meta: list[tuple[str, str]]) -> str:
    """Metadata as ``# key=value`` lines, the header, then one unquoted line per row."""
    lines = [f"# {key}={value}" for key, value in (*meta, *result.extra_meta)]
    lines.append(",".join(result.columns))
    lines += _row_lines(result.rows, _CSV_SLOTS, partial(_fmt_cell, null="", quote=str))
    return "\n".join(lines) + "\n"


def _json_string(value) -> str:
    return '"' + str(value).translate(_JSON_ESCAPES) + '"'


def render_json(result: TableResult, meta: list[tuple[str, str]]) -> str:
    """Hand-rolled serializer: cells read as in the CSV, except that None and a non-finite
    float are ``null`` and a bool is ``true``/``false``, so a JSON parser accepts every output.
    """
    meta_items = ",".join(
        f"{_json_string(k)}:{_json_string(v)}" for k, v in (*meta, *result.extra_meta)
    )
    columns = ",".join(_json_string(c) for c in result.columns)
    rows = ",".join(_row_lines(result.rows, _JSON_SLOTS, _json_cell, as_json=True))
    return (
        '{"meta":{' + meta_items + '},"columns":[' + columns + '],"rows":[' + rows + "]}\n"
    )


def render(result: TableResult, config: RunConfig, command: str) -> str:
    meta = config.metadata(command)
    if config.format == "json":
        return render_json(result, meta)
    return render_csv(result, meta)

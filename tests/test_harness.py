"""Config parsing, sweep commands, writers, and CLI exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cohevol.closedform as closedform
import cohevol.core as core
import cohevol.fock as fock
import cohevol.harness as harness
from cohevol import (
    ConfigError,
    DomainError,
    SystemParams,
    cmd_collapse_scan,
    cmd_compare,
    cmd_dispersion_regimes,
    cmd_ehrenfest,
    cmd_evolve,
    elliptic_classical_average,
    elliptic_quantum_average,
    hyperbolic_classical_xn,
    make_hyperbolic_params,
    parse_config,
)
from cohevol.cli import main
from cohevol.harness import TableResult, render, render_csv, render_json

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
COMMANDS = ("evolve", "compare", "collapse-scan", "ehrenfest", "dispersion-regimes")

BASE_CFG = """
kind = hyperbolic
omega = 1.0
mu = 0.1
hbar = 0.1
alpha = 0.5+0.3j
observable = x^1
t_min = 0.0
t_max = 1.0
points = 5
sources = closed,classical
"""


def _column(result, source):
    """Values (None where flagged) and collapse flags of one source's evolve rows."""
    rows = [row for row in result.rows if row[3] == source]
    values = [None if row[1] is None else complex(row[1], row[2]) for row in rows]
    return values, [bool(row[4]) for row in rows]


# Cells of every type a row may hold: the writers template float, int, str and
# None and format bool and numpy scalars one cell at a time.
_TEXT = st.one_of(
    st.sampled_from(("closed", "oracle", "", 'a"b', "back\\slash", "x,y", "tab\there", "%s %d")),
    st.text(max_size=6),
)
_FLOATS = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, math.inf, -math.inf, math.nan)),
    st.floats(),
)
_CELLS = st.one_of(
    _FLOATS, st.integers(), st.booleans(), st.none(), _FLOATS.map(np.float64), _TEXT
)


def _per_cell(value, null, quote):
    # every cell through one type test, as the writers did before row templates
    if value is None:
        return null
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(float(value), ".16e")
    return quote(value)


def _per_cell_csv(result, meta):
    lines = [f"# {key}={value}" for key, value in (*meta, *result.extra_meta)]
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(_per_cell(cell, "", str) for cell in row))
    return "\n".join(lines) + "\n"


def _per_cell_json_string(value):
    # backslash and quote escaped, then each control character as \u00XX (RFC 8259)
    text = str(value).replace("\\", "\\\\").replace('"', '\\"')
    return '"' + "".join(f"\\u{ord(c):04x}" if c < " " else c for c in text) + '"'


def _per_cell_json_value(value):
    # JSON has no inf/nan and spells its booleans in lower case
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and not math.isfinite(value):
        return "null"
    return _per_cell(value, "null", _per_cell_json_string)


def _per_cell_json(result, meta):
    q = _per_cell_json_string
    meta_items = ",".join(f"{q(k)}:{q(v)}" for k, v in (*meta, *result.extra_meta))
    columns = ",".join(q(c) for c in result.columns)
    rows = ",".join(
        "[" + ",".join(_per_cell_json_value(cell) for cell in row) + "]" for row in result.rows
    )
    return '{"meta":{' + meta_items + '},"columns":[' + columns + '],"rows":[' + rows + "]}\n"


def _assert_writers_match_the_per_cell_path(rows):
    """Both writers give the per-cell references' bytes, and the JSON parses back to the rows."""
    result, meta = TableResult(columns=("a", "b"), rows=tuple(rows)), [("command", "evolve")]
    assert render_csv(result, meta) == _per_cell_csv(result, meta)
    text = render_json(result, meta)
    assert text == _per_cell_json(result, meta)
    assert json.loads(text)["rows"] == [
        [None if isinstance(cell, float) and not math.isfinite(cell) else cell for cell in row]
        for row in result.rows
    ]


def _parsed_csv(text):
    """Metadata, columns and rows of a CSV output, each cell as its JSON twin would parse.

    An empty cell and ``inf``/``nan`` read as None, a bare integer as int, another number as
    float; any other cell is a string.
    """
    meta = dict(line[2:].split("=", 1) for line in text.splitlines() if line.startswith("# "))
    header, *lines = [line for line in text.splitlines() if not line.startswith("# ")]

    def cell(field):
        if field.lstrip("-").isdigit():
            return int(field)
        try:
            value = float(field)
        except ValueError:
            return field or None
        return value if math.isfinite(value) else None

    return {"meta": meta, "columns": header.split(","), "rows": [[cell(f) for f in line.split(",")] for line in lines]}


class TestConfigParsing:
    def test_roundtrip(self):
        config = parse_config(BASE_CFG)
        assert config.kind == "hyperbolic"
        assert config.alpha == 0.5 + 0.3j
        assert config.observable.n == 1
        assert config.time_grid() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_comments_and_blanks_ignored(self):
        config = parse_config("# a comment\n\nkind = elliptic\nobservable = mono:1,0\nmu = 0.05\n")
        assert config.kind == "elliptic"

    @pytest.mark.parametrize(
        "key",
        # a typo, then settings that are code constants or the --out flag
        ("bogus", "oracle_start_dim", "tail_tol", "bisect_rel", "regime_ratio",
         "regime_slack", "out"),
    )
    def test_unknown_key_is_hard_error(self, key, tmp_path, capsys):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(BASE_CFG + f"{key} = 1\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + f"{key} = 1\n")
        assert main(["evolve", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(BASE_CFG + "mu = 0.2\n")

    def test_bad_value_reported_with_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("omega = not-a-number\n")

    def test_invalid_physics_rejected_at_load(self):
        with pytest.raises(DomainError):
            parse_config("kind = hyperbolic\nmu = 200.0\nhbar = 0.01\n").params

    def test_observable_kind_must_match_model(self):
        with pytest.raises(ConfigError):
            parse_config("kind = hyperbolic\nobservable = mono:1,0\n")
        with pytest.raises(ConfigError):
            parse_config("kind = elliptic\nobservable = x^2\n")

    @pytest.mark.parametrize("alpha", ("nan+0j", "inf+0j", "1+nanj"))
    def test_nonfinite_alpha_rejected_with_line(self, alpha):
        with pytest.raises(ConfigError, match="line 6: bad value for 'alpha'"):
            parse_config(BASE_CFG.replace("alpha = 0.5+0.3j", f"alpha = {alpha}"))

    def test_monomial_and_power_syntax(self):
        assert parse_config("kind = elliptic\nobservable = mono:2,1\nmu=0.05\n").observable.m == 2
        assert parse_config("observable = x\n" + "mu = 0.0\n").observable.n == 1


class TestEvolve:
    def test_quadratic_limit_columns_identical(self):
        config = parse_config(BASE_CFG.replace("mu = 0.1", "mu = 0.0"))
        result = cmd_evolve(config)
        closed, _ = _column(result, "closed")
        classical, _ = _column(result, "classical")
        assert len(closed) == len(classical) == 5
        for a, b in zip(closed, classical):
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_grid_crossing_collapse_flags_rows(self):
        t0 = math.pi / (32.0 * 0.1 * 0.1)  # first n=2 collapse
        cfg = f"""
kind = hyperbolic
mu = 0.1
hbar = 0.1
alpha = 1j
observable = x^2
t_min = {0.99 * t0}
t_max = {1.01 * t0}
points = 41
guard = 1e-3
"""
        config = parse_config(cfg)
        result = cmd_evolve(config)
        values, flags = _column(result, "closed")
        assert any(flags)
        assert not all(flags)
        for value, flagged in zip(values, flags):
            if flagged:
                assert value is None
            else:
                assert value is not None

    def test_oracle_column_matches_closed(self):
        cfg = BASE_CFG + "oracle_tol = 2e-7\noracle_dim_cap = 2048\n"
        config = parse_config(cfg.replace("points = 5", "points = 3").replace(
            "t_max = 1.0", "t_max = 0.8"
        ).replace(
            "sources = closed,classical", "sources = closed,oracle"
        ))
        result = cmd_evolve(config)
        closed, _ = _column(result, "closed")
        oracle, _ = _column(result, "oracle")
        assert len(closed) == len(oracle) == 3
        for a, b in zip(closed, oracle):
            assert abs(a - b) / (abs(b) + 1e-30) <= 1e-6


class TestCollapseScan:
    def test_monotone_growth_per_ell(self):
        config = parse_config(
            "kind = hyperbolic\nmu = 0.1\nhbar = 0.1\nalpha = 1j\nobservable = x^2\n"
        )
        result = cmd_collapse_scan(config.replace(ell_max=1))
        by_ell: dict = {}
        for ell, t_ell, k, t, log_mag in result.rows:
            by_ell.setdefault(ell, []).append(log_mag)
        assert set(by_ell) == {0, 1}
        # blow-up is one-sided: the left approach to the first collapse time
        # grows without bound, while at the next one the left-side branch
        # interval drives the continuation to zero instead
        logs0 = by_ell[0]
        assert all(b > a for a, b in zip(logs0, logs0[1:]))
        assert logs0[-1] > 6.0
        logs1 = by_ell[1]
        assert all(b < a for a, b in zip(logs1, logs1[1:]))

    def test_first_collapse_times(self):
        config = parse_config(
            "kind = hyperbolic\nmu = 0.1\nhbar = 0.1\nalpha = 1j\nobservable = x^2\n"
        )
        rows = cmd_collapse_scan(config.replace(ell_max=0)).rows
        assert rows[0][1] == pytest.approx(math.pi / (32.0 * 0.1 * 0.1), rel=1e-13)
        config1 = parse_config(
            "kind = hyperbolic\nmu = 0.1\nhbar = 0.1\nalpha = 1j\nobservable = x^1\n"
        )
        rows1 = cmd_collapse_scan(config1.replace(ell_max=0)).rows
        assert rows1[0][1] == pytest.approx(math.pi / (16.0 * 0.1 * 0.1), rel=1e-13)

    def test_negative_ell_enumerated(self):
        config = parse_config(
            "kind = hyperbolic\nmu = 0.1\nhbar = 0.1\nalpha = 1j\nobservable = x^2\n"
        )
        rows = cmd_collapse_scan(config.replace(ell_min=-1, ell_max=-1)).rows
        assert all(row[1] < 0 for row in rows)

    def test_quadratic_limit_rejected(self):
        config = parse_config(
            "kind = hyperbolic\nmu = 0.0\nhbar = 0.1\nalpha = 1j\nobservable = x^2\n"
        )
        with pytest.raises(DomainError):
            cmd_collapse_scan(config)


def _deferred_first_crossings(gaps, grid, threshold):
    """The scan as it was: the absolute crossing bisected where it is found, the
    relative one bracketed and bisected only after the scan."""

    def bisect(which, lo, hi):
        if lo is None:
            return hi
        width0 = hi - lo
        while (hi - lo) > harness._BISECT_REL * width0:
            mid = 0.5 * (lo + hi)
            if gaps(mid)[which] >= threshold:
                hi = mid
            else:
                lo = mid
        return hi

    t_abs = rel_bracket = previous_t = None
    for t in grid:
        abs_gap, rel_gap = gaps(t)
        if t_abs is None and abs_gap >= threshold:
            t_abs = bisect(0, previous_t, t)
        if rel_bracket is None and rel_gap >= threshold:
            rel_bracket = (previous_t, t)
        if t_abs is not None and rel_bracket is not None:
            break
        previous_t = t
    return t_abs, None if rel_bracket is None else bisect(1, *rel_bracket)


_GAP_VALUES = st.lists(st.floats(0.0, 4.0), min_size=1, max_size=12)


class TestEhrenfest:
    @pytest.mark.parametrize(
        "model", ("kind = elliptic\nobservable = mono:1,0\n", "observable = x^2\n")
    )
    def test_only_hyperbolic_mean_position(self, model, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mu = 0.05\nalpha = 1.0\n{model}t_max = 6.0\nhbar_list = 1e-2,1e-3\n")
        assert main(["ehrenfest", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "cohevol: config error: ehrenfest needs kind = hyperbolic and observable = x^1\n"

    def test_quadratic_limit_never_breaks(self):
        config = parse_config(
            "kind = hyperbolic\nmu = 0.0\nhbar = 0.1\nalpha = 1.0\nobservable = x^1\n"
            "t_min = 0.0\nt_max = 6.0\npoints = 100\n"
        )
        fit, table = cmd_ehrenfest(config, (1e-2, 1e-3, 1e-4))
        assert all(t is None for t in fit.breakdown_times)
        assert fit.goodness is None
        assert all(row[3] == "breakdown-not-found" for row in table.rows)

    def test_classical_exp_overflow_keeps_the_scan_going(self, tmp_path, capsys):
        # exp(rate t) of the classical x^1 overflows past t ~ 215, x0 exp(rate t) does not
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "kind = hyperbolic\nomega = 1.652\nmu = -0.0583\nalpha = 0\nobservable = x^1\n"
            "hbar_list = 3.71e-05,8.09e-06,0.00432,7.27e-06,0.000572,5.26e-05\n"
            "breakdown_threshold = 7.25e-06\nt_max = 268.026\npoints = 2\nguard = 0\n"
        )
        assert main(["ehrenfest", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(_csv_rows(captured.out)) == 6

    def test_zero_threshold_breaks_immediately(self):
        config = parse_config(
            "kind = hyperbolic\nmu = 0.05\nhbar = 0.1\nalpha = 1.0\nobservable = x^1\n"
            "t_min = 0.0\nt_max = 6.0\npoints = 100\nbreakdown_threshold = 0.0\n"
        )
        fit, _ = cmd_ehrenfest(config, (1e-2, 1e-3))
        assert fit.breakdown_times == (0.0, 0.0)

    def test_log_fit_quality(self):
        config = parse_config(
            "kind = hyperbolic\nmu = 0.05\nhbar = 0.01\nalpha = 1.0\nobservable = x^1\n"
            "t_min = 0.0\nt_max = 10.0\npoints = 200\n"
        )
        fit, _ = cmd_ehrenfest(config, (1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
        times = fit.breakdown_times
        assert all(t is not None and t > 0 for t in times)
        assert all(b > a for a, b in zip(times, times[1:]))
        assert fit.slope > 0
        assert fit.goodness >= 0.99
        # the open question: the power-law fit is reported alongside
        assert fit.power_goodness is not None

    @staticmethod
    def _fit_lines(tmp_path, capsys, **keys):
        keys = {"mu": "0.05", "alpha": "1.0", "t_max": "10.0", "points": "200", **keys}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
        assert main(["ehrenfest", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        return dict(line[2:].split("=") for line in out.splitlines() if line.startswith("# fit_"))

    LOG_FIT = ("fit_intercept", "fit_slope", "fit_goodness")
    POWER_FIT = ("fit_power_coeff", "fit_power_exponent", "fit_power_goodness")

    def test_cli_one_hbar_leaves_both_fits_none(self, tmp_path, capsys):
        # four crossings, but a line through ln(1/hbar) needs two distinct hbar
        fits = self._fit_lines(tmp_path, capsys, hbar_list="0.01,0.01,0.01,0.01")
        assert fits == dict.fromkeys(self.LOG_FIT + self.POWER_FIT, "none")

    def test_cli_zero_threshold_leaves_the_power_fit_none(self, tmp_path, capsys):
        # every crossing is at t = 0, whose log the power fit would need
        fits = self._fit_lines(
            tmp_path, capsys, breakdown_threshold="0.0", hbar_list="1e-2,1e-3,1e-4,1e-5"
        )
        assert all(math.isfinite(float(fits[name])) for name in self.LOG_FIT)
        assert [fits[name] for name in self.POWER_FIT] == ["none"] * 3

    def test_cli_crossings_beyond_1e154_leave_the_log_fit_none(self, tmp_path, capsys):
        # the log fit's squared crossing times leave float64; the power fit works on their logs
        fits = self._fit_lines(
            tmp_path, capsys, omega="1e-160", mu="5e-160", t_max="1e163",
            hbar_list="1e-2,1e-3,1e-4,1e-5",
        )
        assert [fits[name] for name in self.LOG_FIT] == ["none"] * 3
        assert all(math.isfinite(float(fits[name])) for name in self.POWER_FIT)

    @settings(max_examples=300, deadline=None)
    @given(abs_values=_GAP_VALUES, rel_values=_GAP_VALUES, threshold=st.floats(0.0, 4.0))
    @example(abs_values=[2.0, 0.0], rel_values=[0.0, 2.0], threshold=1.0)  # abs at the first point
    @example(abs_values=[0.0, 2.0, 0.0], rel_values=[0.0, 3.0, 0.0], threshold=1.0)  # one step
    @example(abs_values=[0.0, 0.5, 2.0], rel_values=[0.0, 0.5, 0.5], threshold=1.0)  # abs only
    @example(abs_values=[0.0, 0.5], rel_values=[0.5, 3.0], threshold=1.0)  # rel only
    @example(abs_values=[0.0, 0.5], rel_values=[0.5, 0.5], threshold=1.0)  # neither
    def test_first_crossings_match_the_deferred_bisection(self, abs_values, rel_values, threshold):
        # piecewise-linear gaps on a unit grid, with any number of crossings per gap
        n = min(len(abs_values), len(rel_values))
        grid = [0.5 + k for k in range(n)]

        def interpolate(values, t):
            k = min(int(t - 0.5), n - 2) if n > 1 else 0
            return values[k] + (values[min(k + 1, n - 1)] - values[k]) * (t - grid[k])

        def scan(first_crossings):
            seen = []

            def gaps(t):
                seen.append(t)
                return interpolate(abs_values, t), interpolate(rel_values, t)

            return first_crossings(gaps, grid, threshold), sorted(seen)

        crossings, seen = scan(harness._first_crossings)
        assert (crossings, seen) == scan(_deferred_first_crossings)

    def test_first_crossings_stop_where_the_closed_form_gives_no_value(self):
        # the absolute gap crosses between t = 1 and 2; at t = 3 the closed form has no value
        seen = []

        def gaps(t):
            seen.append(t)
            if t >= 3.0:
                raise core.CollapseProximity(f"t={t}")
            return t, 0.0

        t_abs, t_rel = harness._first_crossings(gaps, [0.0, 1.0, 2.0, 3.0, 4.0], 1.5)
        assert 1.5 <= t_abs <= 1.5 + harness._BISECT_REL and t_rel is None
        assert max(seen) == 3.0

    def test_first_crossings_end_a_bisection_at_a_midpoint_without_value(self):
        # midpoints 0.5 (crossed), 0.25, 0.375 (crossed), 0.3125 (crossed), then 0.28125 raises
        def gaps(t):
            if 0.26 < t < 0.29:
                raise core.CollapseProximity(f"t={t}")
            return t, 0.0

        assert harness._first_crossings(gaps, [0.0, 1.0], 0.3) == (0.3125, None)


class TestDispersionRegimes:
    def test_start_is_small_correction(self):
        config = parse_config(
            "kind = hyperbolic\nmu = 0.05\nhbar = 0.02\nalpha = 0.8\nobservable = x^1\n"
            "t_min = 0.0\nt_max = 2.0\npoints = 3\n"
        )
        rows = cmd_dispersion_regimes(config).rows
        assert rows[0][1] == "small-correction"
        assert rows[0][2] == pytest.approx(0.02 / 2.0, abs=1e-12)
        assert rows[0][6] <= 1e-10

    def test_unclassified_rows_still_emit_exact(self):
        config = parse_config(
            "kind = hyperbolic\nmu = 0.2\nhbar = 0.2\nalpha = 1.5\nobservable = x^1\n"
            "t_min = 24.0\nt_max = 26.0\npoints = 3\nguard = 1e-9\n"
        )
        rows = cmd_dispersion_regimes(config).rows
        unclassified = [row for row in rows if row[1] == "none"]
        assert unclassified
        for row in unclassified:
            if not row[7]:
                assert row[2] is not None
                assert row[4] is None


class TestWritersAndCli:
    def test_float_format_17_digits(self):
        import re

        from cohevol import hyperbolic_xn_average

        config = parse_config(BASE_CFG)
        text = render(cmd_evolve(config), config, "evolve")
        expected = format(
            hyperbolic_xn_average(1, config.alpha, config.params, 0.0).real, ".16e"
        )
        assert expected in text
        data_lines = [l for l in text.splitlines() if not l.startswith("#")][1:]
        float_pattern = re.compile(r"-?\d\.\d{16}e[+-]\d{2,3}$")
        for line in data_lines:
            for cell in line.split(",")[:3]:
                assert float_pattern.match(cell), cell

    def test_csv_schema(self):
        config = parse_config(BASE_CFG)
        lines = render(cmd_evolve(config), config, "evolve").splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "t,re(f),im(f),source,collapse_flag"
        assert lines[0] == "# command=evolve"

    def test_json_mirrors_csv(self):
        import json

        config = parse_config(BASE_CFG + "format = json\n")
        text = render(cmd_evolve(config), config, "evolve")
        data = json.loads(text)
        assert data["columns"] == ["t", "re(f)", "im(f)", "source", "collapse_flag"]
        assert len(data["rows"]) == 10
        assert data["meta"]["command"] == "evolve"

    def test_cli_writes_file_and_exits_zero(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG)
        out = tmp_path / "out.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().startswith("# command=evolve")

    def test_cli_determinism_byte_identical(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["evolve", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_cli_unwritable_out_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG)
        out = tmp_path / "no_such_dir" / "x.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cohevol: config error:") and err.count("\n") == 1
        assert not out.parent.exists()

    def test_cli_unknown_key_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = hyperbolic\nwhoops = 1\n")
        assert main(["evolve", "--config", str(cfg)]) == 2

    def test_cli_invalid_params_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = hyperbolic\nmu = 200.0\nhbar = 1.0\n")
        assert main(["evolve", "--config", str(cfg)]) == 2

    def test_cli_convergence_exit_code(self, tmp_path):
        # oracle capped far below what the state needs near collapse
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "kind = hyperbolic\nmu = 0.1\nhbar = 0.1\nalpha = 1j\nobservable = x^2\n"
            "t_min = 9.0\nt_max = 9.5\npoints = 2\nsources = closed,oracle\n"
            "oracle_dim_cap = 128\n"
        )
        assert main(["evolve", "--config", str(cfg)]) == 3

    def test_cli_scan_into_the_guard_band_ends_the_scan(self, tmp_path, capsys):
        # ehrenfest scan driven into the collapse band with a huge threshold: the scan stops there
        t0 = math.pi / (16.0 * 0.2 * 0.2)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "kind = hyperbolic\nmu = 0.2\nhbar = 0.2\nalpha = 1.0\nobservable = x^1\n"
            f"t_min = 0.0\nt_max = {2.0 * t0}\npoints = 400\nguard = 0.05\n"
            "breakdown_threshold = 1e280\nhbar_list = 0.2\n"
        )
        assert main(["ehrenfest", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert _csv_rows(captured.out) == [["2.0000000000000001e-01", "", "", "breakdown-not-found"]]
        fits = [line for line in captured.out.splitlines() if line.startswith("# fit_")]
        assert len(fits) == 6 and all(line.endswith("=none") for line in fits)

    def test_cli_oracle_flag_adds_source(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            BASE_CFG.replace("points = 5", "points = 2").replace("t_max = 1.0", "t_max = 0.4")
            + "oracle_dim_cap = 2048\n"
        )
        out = tmp_path / "out.csv"
        assert main([
            "evolve", "--config", str(cfg), "--out", str(out), "--oracle", "on",
        ]) == 0
        assert ",oracle," in out.read_text()

    @pytest.mark.parametrize("alpha", ("nan+0j", "inf+0j"))
    @pytest.mark.parametrize("command", COMMANDS)
    def test_cli_nonfinite_alpha_exit_code(self, tmp_path, capsys, command, alpha):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            BASE_CFG.replace("alpha = 0.5+0.3j", f"alpha = {alpha}") + "hbar_list = 0.1\n"
        )
        assert main([command, "--config", str(cfg)]) == 2
        assert "line 6" in capsys.readouterr().err

    FLOAT_KEYS = (
        "omega", "mu", "hbar", "t_min", "t_max", "guard", "oracle_tol",
        "breakdown_threshold", "hbar_list",
    )

    @staticmethod
    def _assert_config_error(capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("cohevol: config error:") and err.count("\n") == 1
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_cli_nonfinite_float_key_exit_code(self, tmp_path, capsys, key, value):
        lines = [line for line in BASE_CFG.splitlines() if not line.startswith(f"{key} =")]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + f"\n{key} = {value}\n")
        self._assert_config_error(
            capsys, ["evolve", "--config", str(cfg)], f"bad value for {key!r}"
        )

    @pytest.mark.parametrize("value", ("nan", "inf"))
    def test_cli_nonfinite_guard_flag_exit_code(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG)
        self._assert_config_error(
            capsys, ["evolve", "--config", str(cfg), "--guard", value], "--guard must be finite"
        )

    @pytest.mark.parametrize("command", COMMANDS)
    def test_cli_overflowing_span_exit_code(self, tmp_path, capsys, command):
        # both ends finite, but t_max - t_min overflows: the grid would hold nan
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            BASE_CFG.replace("t_min = 0.0", "t_min = -1e308").replace("t_max = 1.0", "t_max = 1e308")
            + "hbar_list = 0.1\n"
        )
        self._assert_config_error(
            capsys, [command, "--config", str(cfg)], "time grid is not finite"
        )

    @pytest.mark.parametrize("command,edits,message", (
        ("evolve", {"points = 5": "points = 0"}, "points must be >= 1"),
        ("evolve", {"t_max = 1.0": "t_max = 0.0"}, "time grid needs t_max > t_min"),
        ("evolve", {"observable = x^1": "observable = y^2"}, "cannot parse observable 'y^2'"),
        ("evolve", {"closed,classical": "closed,quantum"}, "unknown source 'quantum'"),
        ("evolve", {"closed,classical": ","}, "sources must not be empty"),
        ("evolve", {"mu = 0.1": "mu 0.1"}, "line 4: expected 'key = value'"),
        ("evolve", {"kind = hyperbolic": "kind = parabolic"}, "kind must be hyperbolic or elliptic"),
        ("evolve", {"points = 5": "points = 5\nformat = xml"}, "format must be csv or json"),
        (
            "collapse-scan",
            {"kind = hyperbolic": "kind = elliptic", "observable = x^1": "observable = mono:1,0"},
            "collapse-scan needs the x^N observable",
        ),
        ("collapse-scan", {"points = 5": "ell_min = 3\nell_max = 2"}, "ell_min <= ell_max"),
        ("ehrenfest", {}, "ehrenfest needs a nonempty hbar_list"),
        (
            "dispersion-regimes",
            {"kind = hyperbolic": "kind = elliptic", "observable = x^1": "observable = mono:1,0"},
            "dispersion-regimes needs kind = hyperbolic",
        ),
        ("evolve", {"points = 5": "points = 1000001"}, "points must be <= 1,000,000"),
        (
            "collapse-scan",
            {"points = 5": "ell_min = 0\nell_max = 200000"},
            "collapse-scan is limited to 1,000,000 rows, got 1,000,005",
        ),
    ), ids=(
        "no-points", "empty-span", "observable", "unknown-source", "no-sources", "no-equals",
        "kind", "format", "scan-elliptic", "ell-range", "no-hbar-list", "dispersion-elliptic",
        "points-limit", "scan-rows-limit",
    ))
    def test_cli_config_rejection(self, tmp_path, capsys, command, edits, message):
        text = BASE_CFG
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        self._assert_config_error(capsys, [command, "--config", str(cfg)], message)

    @pytest.mark.parametrize("tol", ("0", "-1"))
    def test_cli_nonpositive_oracle_tol_refused_before_numpy_loads(self, tmp_path, tol):
        # the doubling could never converge, so the oracle would build every basis to the cap
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + f"oracle_tol = {tol}\n")
        child = (
            "import sys\nfrom cohevol.cli import main\n"
            "print(main(['compare', '--config', sys.argv[1]]), 'numpy' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run(
            [sys.executable, "-c", child, str(cfg)], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.stdout.split() == ["2", "False"]
        assert done.stderr == f"cohevol: config error: oracle_tol must be > 0, got {float(tol)!r}\n"

    @staticmethod
    def _table(capsys, argv) -> list[str]:
        """Header and rows of a CSV run; the metadata lists config-file keys only."""
        assert main(argv) == 0
        return [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]

    def test_cli_guard_flag_matches_config_key(self, tmp_path, capsys):
        t0 = math.pi / (32.0 * 0.1 * 0.1)  # first n=2 collapse
        text = (
            "kind = hyperbolic\nmu = 0.1\nhbar = 0.1\nalpha = 1j\nobservable = x^2\n"
            f"t_min = {0.99 * t0}\nt_max = {1.01 * t0}\npoints = 41\n"
        )
        plain, keyed = tmp_path / "plain.cfg", tmp_path / "keyed.cfg"
        plain.write_text(text)
        keyed.write_text(text + "guard = 1e-3\n")
        flagged = self._table(capsys, ["evolve", "--config", str(plain), "--guard", "1e-3"])
        assert flagged == self._table(capsys, ["evolve", "--config", str(keyed)])
        assert flagged != self._table(capsys, ["evolve", "--config", str(plain)])

    def test_cli_oracle_off_matches_sources(self, tmp_path, capsys):
        shipped = CONFIGS / "elliptic_evolve.cfg"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(shipped.read_text().replace(
            "sources = closed,classical,oracle", "sources = closed,classical"
        ))
        off = self._table(capsys, ["evolve", "--config", str(shipped), "--oracle", "off"])
        assert off == self._table(capsys, ["evolve", "--config", str(cfg)])
        assert len(off) == 1 + 2 * 21 and not any(",oracle," in line for line in off)

    @pytest.mark.parametrize("command", ("compare", "dispersion-regimes"))
    def test_cli_collapse_row_has_empty_cells(self, tmp_path, capsys, command):
        t0 = math.pi / (16.0 * 0.1 * 0.1)  # first n=1 collapse, which guards both commands
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            BASE_CFG.replace("points = 5", "points = 2").replace("t_max = 1.0", f"t_max = {t0!r}")
        )
        _, first, last = self._table(capsys, [command, "--config", str(cfg)])
        assert first.endswith(",0")
        t, *cells, flag = last.split(",")
        assert float(t) == t0 and cells[-5:] == [""] * 5 and flag == "1"

    # Every cell kind in every column; the string holds both characters JSON escapes.
    GOLDEN = TableResult(
        columns=("t", "re(f)", "source", "flag"),
        rows=(
            (None, 7, 0.1, 'a "b" \\c'),
            (7, 0.1, 'a "b" \\c', None),
            (0.1, 'a "b" \\c', None, 7),
            ('a "b" \\c', None, 7, 0.1),
        ),
        extra_meta=(("max_rel_deviation", "2.5000000000000000e-01"),),
    )
    GOLDEN_META = [("command", "evolve"), ("out", 'x"y\\z')]

    def test_csv_golden(self):
        assert render_csv(self.GOLDEN, self.GOLDEN_META) == (
            "# command=evolve\n"
            '# out=x"y\\z\n'
            "# max_rel_deviation=2.5000000000000000e-01\n"
            "t,re(f),source,flag\n"
            ',7,1.0000000000000001e-01,a "b" \\c\n'
            '7,1.0000000000000001e-01,a "b" \\c,\n'
            '1.0000000000000001e-01,a "b" \\c,,7\n'
            'a "b" \\c,,7,1.0000000000000001e-01\n'
        )

    def test_json_golden(self):
        assert render_json(self.GOLDEN, self.GOLDEN_META) == (
            '{"meta":{"command":"evolve","out":"x\\"y\\\\z",'
            '"max_rel_deviation":"2.5000000000000000e-01"},'
            '"columns":["t","re(f)","source","flag"],"rows":['
            '[null,7,1.0000000000000001e-01,"a \\"b\\" \\\\c"],'
            '[7,1.0000000000000001e-01,"a \\"b\\" \\\\c",null],'
            '[1.0000000000000001e-01,"a \\"b\\" \\\\c",null,7],'
            '["a \\"b\\" \\\\c",null,7,1.0000000000000001e-01]]}\n'
        )

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(min_value=0, max_value=5).flatmap(
            lambda width: st.lists(st.tuples(*[_CELLS] * width), max_size=8).map(tuple)
        ),
        meta_value=_TEXT,
    )
    def test_writers_match_the_per_cell_path(self, rows, meta_value):
        import json

        result = TableResult(columns=("a", 'b"c', "d\te"), rows=rows)
        meta = [("command", "evolve"), ("sources", meta_value)]
        assert render_csv(result, meta) == _per_cell_csv(result, meta)
        text = render_json(result, meta)
        assert text == _per_cell_json(result, meta)
        parsed = json.loads(text)  # every output, bool and non-finite cells included
        assert parsed["meta"] == dict(meta)
        assert parsed["columns"] == list(result.columns)

        def parsed_cell(cell):
            return None if isinstance(cell, float) and not math.isfinite(cell) else cell

        assert parsed["rows"] == [[parsed_cell(cell) for cell in row] for row in rows]

    @settings(max_examples=200, deadline=None)
    @given(
        runs=st.integers(min_value=0, max_value=4).flatmap(
            lambda width: st.lists(
                st.tuples(st.tuples(*[_CELLS] * width), st.integers(min_value=1, max_value=50)), max_size=6
            )
        ),
    )
    def test_writers_match_the_per_cell_path_on_runs(self, runs):
        # each drawn row repeated: runs of one type signature up to 300 rows long
        _assert_writers_match_the_per_cell_path([row for row, repeat in runs for _ in range(repeat)])

    def test_one_inf_in_a_long_float_run(self):
        rows = [(0.5 * i, -1.0 / (i + 1)) for i in range(10_000)]
        rows[5_000] = (math.inf, rows[5_000][1])
        _assert_writers_match_the_per_cell_path(rows)
        assert render_csv(TableResult(columns=("a", "b"), rows=tuple(rows)), []).splitlines()[5_001].startswith("inf,")

    def test_signature_changes_on_every_row(self):
        signatures = (
            (1.5, "closed"), ("closed", 1.5), (None, 7), (7, None), (True, 0.25), (np.float64(0.5), "x"),
            (math.nan, 'a"b'), (-0.0, -3),
        )
        _assert_writers_match_the_per_cell_path([signatures[i % len(signatures)] for i in range(100)])

    def test_one_escaped_string_in_a_long_json_run(self):
        rows = [(0.1 * i, "oracle" if i % 2 else "closed") for i in range(5_000)]
        rows[2_500] = (rows[2_500][0], "back\\slash")
        _assert_writers_match_the_per_cell_path(rows)
        assert json.loads(render_json(TableResult(columns=("a", "b"), rows=tuple(rows)), []))["rows"][2_500][1] == "back\\slash"

    def test_empty_table(self):
        _assert_writers_match_the_per_cell_path([])
        assert render_csv(TableResult(columns=("a", "b"), rows=()), []) == "a,b\n"
        assert render_json(TableResult(columns=("a", "b"), rows=()), []) == '{"meta":{},"columns":["a","b"],"rows":[]}\n'

    @pytest.mark.parametrize("config", sorted(path.name for path in CONFIGS.glob("*.cfg")))
    def test_csv_and_json_outputs_hold_the_same_cells(self, config, capsys):
        for command in COMMANDS:
            argv = [command, "--config", str(CONFIGS / config)]
            code = main(argv)
            csv_out, csv_err = capsys.readouterr()
            assert main([*argv, "--format", "json"]) == code
            json_out, json_err = capsys.readouterr()
            assert json_err == csv_err
            if code == 0:
                assert json.loads(json_out) == _parsed_csv(csv_out), command
            else:
                assert json_out == csv_out == ""

    def test_cli_json_zero_average_is_valid_json(self, tmp_path, capsys):
        import json

        # alpha = 0: the odd-n average is exactly 0, so every log10 |f| is -inf
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "kind = hyperbolic\nmu = 0.1\nhbar = 0.1\nalpha = 0\nobservable = x^1\n"
            "ell_min = 0\nell_max = 0\n"
        )
        assert main(["collapse-scan", "--config", str(cfg), "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert [row[4] for row in parsed["rows"]] == [None] * 5
        assert main(["collapse-scan", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.count(",-inf\n") == 5  # the CSV is unchanged

    def test_cli_json_escapes_control_characters(self, tmp_path, capsys):
        import json

        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG.replace("sources = closed,classical", "sources = closed,\tclassical"))
        assert main(["evolve", "--config", str(cfg), "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["meta"]["sources"] == "closed,\tclassical"
        assert {row[3] for row in parsed["rows"]} == {"closed", "classical"}

    def test_cli_compare_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            BASE_CFG.replace("points = 5", "points = 2").replace("t_max = 1.0", "t_max = 0.4")
            + "oracle_dim_cap = 2048\n"
        )
        out = tmp_path / "out.csv"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        text = out.read_text()
        assert "rel_deviation" in text
        assert "max_rel_deviation" in text


# The classical x^3 flow leaves float64 at t = 57 while the quantum average is
# 1.1e173 there (a closed-sweep benchmark point).
OVERFLOW_502 = (
    make_hyperbolic_params(1.0, 0.07191055727820078, 0.07017478951319374),
    1.331438709218367 - 1.480717736140777j,
)
ELL = SystemParams(1.0, 0.05, 0.1)
ELL_CFG = (
    "kind = elliptic\nmu = 0.05\nhbar = 0.1\nobservable = mono:{m},{q}\n"
    "alpha = {alpha}\nt_min = 0.0\nt_max = 0.5\npoints = 2\nsources = {sources}\n"
)
HYP_ALPHA_1E200 = (make_hyperbolic_params(1.0, 0.05, 0.02), 1e200)
HYP_ALPHA_1E200_CFG = (
    "kind = hyperbolic\nmu = 0.05\nhbar = 0.02\nalpha = 1e200\nobservable = x^{n}\n"
    "t_min = 0.0\nt_max = 2.0\npoints = 3\n"
)
# t = 1e308 takes the phase 8 n mu hbar t, or the elliptic phase, beyond float64
HYP_T_1E308 = (make_hyperbolic_params(1.0, 9.0, 0.1), 0.5)
HYP_T_1E308_CFG = (
    "kind = hyperbolic\nomega = 1\nmu = 9\nhbar = 0.1\nalpha = 0.5\nobservable = x^1\n"
    "t_max = 1e308\npoints = 2\nhbar_list = 0.1,0.05\n"
)
ELL_T_1E308 = SystemParams(1.0, 0.5, 0.5)
ELL_T_1E308_CFG = (
    "kind = elliptic\nmu = 0.5\nhbar = 0.5\nalpha = 0.5\nobservable = mono:2,0\n"
    "t_min = {t_min}\nt_max = {t_max}\npoints = {points}\nsources = {sources}\n"
)
HBAR_1E131 = (make_hyperbolic_params(1.6919, 0.0, 3.57e131), -1.4032 - 0.63625j)
HBAR_1E131_CFG = (
    "kind = hyperbolic\nomega = 1.6919\nmu = 0\nhbar = 3.57e131\nalpha = -1.4032-0.63625j\n"
    "observable = x^5\nt_max = 2.406\npoints = 4\n"
)
INF_PHASE_RATE = make_hyperbolic_params(1.5e307, 1e307, 1.0)
INF_PHASE_RATE_CFG = (
    "kind = hyperbolic\nomega = 1.5e307\nmu = 1e307\nhbar = 1\nalpha = 0.5\nobservable = x^3\n"
)
# case: (library call, config, CLI command)
BEYOND_FLOAT_RANGE = {
    "classical-xn": (
        lambda: hyperbolic_classical_xn(3, OVERFLOW_502[1], OVERFLOW_502[0], 57.0),
        "kind = hyperbolic\nmu = 0.07191055727820078\nhbar = 0.07017478951319374\n"
        "alpha = 1.331438709218367-1.480717736140777j\nobservable = x^3\n"
        "t_min = 55.0\nt_max = 57.0\npoints = 2\nsources = closed,classical\n",
        "evolve",
    ),
    "elliptic-overflow": (
        lambda: elliptic_quantum_average(1, 0, 1e200, ELL, 0.5),
        ELL_CFG.format(m=1, q=0, alpha="1e200", sources="closed"),
        "evolve",
    ),
    "elliptic-inf-nan": (
        lambda: elliptic_quantum_average(2, 2, 1e100, ELL, 0.5),
        ELL_CFG.format(m=2, q=2, alpha="1e100", sources="closed"),
        "evolve",
    ),
    "elliptic-classical-inf-nan": (
        lambda: elliptic_classical_average(2, 2, 1e100, ELL, 0.5),
        ELL_CFG.format(m=2, q=2, alpha="1e100", sources="classical"),
        "evolve",
    ),
    # |alpha|^2 in the regime bounds
    "regime-alpha-overflow": (
        lambda: closedform.classify_dispersion_regime(HYP_ALPHA_1E200[1], HYP_ALPHA_1E200[0], 1.0),
        HYP_ALPHA_1E200_CFG.format(n=1),
        "dispersion-regimes",
    ),
    # hbar^j in the x^n series
    "xn-hbar-power-overflow": (
        lambda: closedform.hyperbolic_xn_average(4, 0.5, make_hyperbolic_params(1.0, 0.0, 1e200), 0.5),
        "kind = hyperbolic\nmu = 0\nhbar = 1e200\nalpha = 0.5\nobservable = x^4\n"
        "t_min = 0.0\nt_max = 1.0\npoints = 3\n",
        "evolve",
    ),
    # -s^2/(2 hbar) + xi^2 b^2/hbar = -inf + inf: once a nan cell
    "xn-nan-exponent": (
        lambda: closedform.hyperbolic_xn_average(1, HYP_ALPHA_1E200[1], HYP_ALPHA_1E200[0], 1.0),
        HYP_ALPHA_1E200_CFG.format(n=1),
        "evolve",
    ),
    "log10-nan-exponent": (
        lambda: closedform.hyperbolic_xn_log10_magnitude(1, HYP_ALPHA_1E200[1], HYP_ALPHA_1E200[0], 1.0),
        HYP_ALPHA_1E200_CFG.format(n=1),
        "collapse-scan",
    ),
    # xi^2 b^2/hbar beyond float64 while -s^2/(2 hbar) is not: once a +inf log10 cell
    "log10-inf-exponent": (
        lambda: closedform.hyperbolic_xn_log10_magnitude(
            1, 1e152, make_hyperbolic_params(1.0, 0.05, 0.02), 196.1531913085127, guard=0.0
        ),
        "kind = hyperbolic\nmu = 0.05\nhbar = 0.02\nalpha = 1e152\nobservable = x^1\n"
        "ell_min = 0\nell_max = 0\n",
        "collapse-scan",
    ),
    # the same past the first collapse, where cos(8 n mu hbar t) < 0: once a -inf log10
    # cell, which only an exactly zero average may write
    "log10-minus-inf-exponent": (
        lambda: closedform.hyperbolic_xn_log10_magnitude(
            1, 1e152, make_hyperbolic_params(1.0, 0.05, 0.02), 588.9897176858314, guard=0.0
        ),
        "kind = hyperbolic\nmu = 0.05\nhbar = 0.02\nalpha = 1e152\nobservable = x^1\n"
        "ell_min = 1\nell_max = 1\n",
        "collapse-scan",
    ),
    # (xi b)^2 in the x^2 series
    "xn-series-overflow": (
        lambda: closedform.hyperbolic_xn_average(2, HYP_ALPHA_1E200[1], HYP_ALPHA_1E200[0], 1.0),
        HYP_ALPHA_1E200_CFG.format(n=2),
        "compare",
    ),
    # mu^2 in the regime bounds: once a traceback from the build
    "regime-mu-overflow": (
        lambda: closedform.classify_dispersion_regime(0.5, make_hyperbolic_params(1.0, 1e155, 1e-160), 0.5),
        "kind = hyperbolic\nmu = 1e155\nhbar = 1e-160\nalpha = 0.5\nobservable = x^1\n"
        "t_min = 0.0\nt_max = 1.0\npoints = 3\n",
        "dispersion-regimes",
    ),
    **{
        f"x1-phase-{command}": (
            lambda: closedform.hyperbolic_xn_average(1, HYP_T_1E308[1], HYP_T_1E308[0], 1e308),
            HYP_T_1E308_CFG,
            command,
        )
        for command in ("evolve", "compare", "ehrenfest")
    },
    "elliptic-phase": (
        lambda: elliptic_quantum_average(2, 0, 0.5, ELL_T_1E308, 1e308),
        ELL_T_1E308_CFG.format(t_min=0.0, t_max=1e308, points=3, sources="closed"),
        "evolve",
    ),
    "elliptic-classical-phase": (
        lambda: elliptic_classical_average(2, 0, 0.5, ELL_T_1E308, 1e308),
        ELL_T_1E308_CFG.format(t_min=1e308, t_max=1.5e308, points=2, sources="classical"),
        "evolve",
    ),
    # the oracle's |alpha|^2 / hbar, reached where no closed form is evaluated
    "coherent-alpha-overflow": (
        lambda: fock.coherent_vector(1e200, 0.02, 64),
        ELL_CFG.format(m=1, q=0, alpha="1e200", sources="oracle"),
        "evolve",
    ),
    # hbar^(n/2), the oracle's convergence floor, where the closed form has values: once a
    # traceback
    "oracle-floor-overflow": (
        lambda: fock.oracle_average("hyperbolic", HBAR_1E131[0], HBAR_1E131[1], 5, 0.0),
        HBAR_1E131_CFG,
        "compare",
    ),
    # an infinite 8 n mu hbar, which |mu| hbar < |omega| allows: once a nan phase at
    # t = 0 and a traceback
    **{
        f"xn-phase-rate-{command}": (
            lambda: closedform.hyperbolic_xn_average(3, 0.5, INF_PHASE_RATE, 0.0),
            INF_PHASE_RATE_CFG,
            command,
        )
        for command in ("evolve", "collapse-scan")
    },
}


CLASSICAL_CASES = ("classical-xn", "elliptic-classical-inf-nan", "elliptic-classical-phase")


class TestFloatRange:
    """Averages beyond float64 raise DomainError, never a traceback or a nan cell.

    A quantum average beyond float64, an input whose ``|alpha|^2``, ``hbar^j``
    or ``mu^2`` is, and a time whose phase is, fail the run (exit 2); a
    classical one leaves its ``evolve`` cells empty and the run goes on.
    """

    @pytest.mark.parametrize("case", sorted(BEYOND_FLOAT_RANGE))
    def test_library_raises_domain_error(self, case):
        evaluate, _, _ = BEYOND_FLOAT_RANGE[case]
        with pytest.raises(DomainError, match="float64|not finite"):
            evaluate()

    @pytest.mark.parametrize("case", sorted(set(BEYOND_FLOAT_RANGE) - set(CLASSICAL_CASES)))
    def test_cli_exit_code(self, case, tmp_path, capsys):
        _, text, command = BEYOND_FLOAT_RANGE[case]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cohevol: config error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("case", CLASSICAL_CASES)
    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_cli_classical_overflow_leaves_cells_empty(self, case, fmt, tmp_path, capsys):
        _, text, _ = BEYOND_FLOAT_RANGE[case]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["evolve", "--config", str(cfg), "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        config = parse_config(text).replace(format=fmt)
        result = cmd_evolve(config)
        assert captured.out == render(result, config, "evolve")
        classical, flags = _column(result, "classical")
        assert not any(flags)
        if case == "classical-xn":
            # finite at t = 55, beyond float64 at t = 57, where the closed form is 1.1e173
            params, alpha = OVERFLOW_502
            closed, closed_flags = _column(result, "closed")
            assert not any(closed_flags)
            assert closed == [
                closedform.hyperbolic_xn_average(3, alpha, params, t) for t in (55.0, 57.0)
            ]
            assert classical == [hyperbolic_classical_xn(3, alpha, params, 55.0), None]
        else:
            assert classical == [None, None]
        null_row = ",,,classical,0\n" if fmt == "csv" else ',null,null,"classical",0]'
        assert null_row in captured.out

    def test_quantum_average_still_finite_at_classical_overflow(self):
        params, alpha = OVERFLOW_502
        value = closedform.hyperbolic_xn_average(3, alpha, params, 57.0)
        assert abs(value) == pytest.approx(1.1181356620802342e173, rel=1e-12)

    def test_oracle_phase_beyond_float64_is_one_stderr_line(self, tmp_path, capsys):
        # numpy warns of the phase overflow; the unitarity check reports it alone
        cfg = tmp_path / "run.cfg"
        cfg.write_text(ELL_T_1E308_CFG.format(t_min=0.0, t_max=1e308, points=3, sources="oracle"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["evolve", "--config", str(cfg)]) == 3
        assert caught == []
        captured = capsys.readouterr()
        assert captured.err == "cohevol: convergence failure: propagator lost unitarity: norm drift nan\n"

    def test_closed_form_requires_finite_unflagged(self):
        # an unflagged closed row never holds inf or nan: the evaluator raises
        config = parse_config(ELL_CFG.format(m=2, q=2, alpha="1e100", sources="closed"))
        with pytest.raises(DomainError):
            cmd_evolve(config)


# Long windows drive the averages toward float64's limit: one x^n point per
# route whose product overflowed (x^2 in exp itself, a bare OverflowError; x^4
# in the product, inf cells), and the shipped dispersion config run on.
NEAR_FLOAT_LIMIT = {
    "x2-integral-exp": (2, 0.05, 0.02, 0.8 + 0j, 193.5),
    "x4-integral-product": (
        4, 0.08982448984892522, 0.036022968351849025,
        -1.2579579218445768e-06 - 0.06258582688687708j, 88.77290378443767,
    ),
}


def _csv_rows(text):
    """Data rows of a CSV table: the metadata lines and the header dropped."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


class TestNearFloatLimit:
    """Values near float64's limit: exit 0, finite cells, the branch-tracked value."""

    @pytest.mark.parametrize("case", sorted(NEAR_FLOAT_LIMIT))
    def test_evolve_matches_branch_tracked_value(self, case, tmp_path, capsys):
        n, mu, hbar, alpha, t = NEAR_FLOAT_LIMIT[case]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"kind = hyperbolic\nmu = {mu!r}\nhbar = {hbar!r}\nalpha = {alpha!r}\n"
            f"observable = x^{n}\nt_min = {t!r}\nt_max = {t!r}\npoints = 1\nsources = closed\n"
        )
        assert main(["evolve", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        [[_, re_cell, im_cell, source, flag]] = _csv_rows(captured.out)
        assert (source, flag) == ("closed", "0")
        value = complex(float(re_cell), float(im_cell))
        branch, _ = closedform.hyperbolic_xn_paths(n, alpha, make_hyperbolic_params(1.0, mu, hbar), t)
        assert abs(value) > 1e304
        assert abs(value - branch) <= 1e-12 * abs(branch)

    def _dispersion_rows(self, tmp_path, capsys, t_max):
        text = (CONFIGS / "dispersion_regimes.cfg").read_text()
        text = text.replace("t_max = 2.0", f"t_max = {t_max}").replace("points = 21", "points = 401")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["dispersion-regimes", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "inf" not in captured.out and "nan" not in captured.out
        return _csv_rows(captured.out), parse_config(text)

    def test_dispersion_beyond_float64_leaves_cells_empty(self, tmp_path, capsys):
        # <x>^2 leaves float64 from t = 149.25 on: three rows once read -inf
        rows, _ = self._dispersion_rows(tmp_path, capsys, 150)
        beyond = [row for row in rows if row[2:] == ["", "", "", "", "", "0"]]
        assert [float(row[0]) for row in beyond] == [149.25, 149.625, 150.0]

    def test_dispersion_past_the_integral_route_overflow(self, tmp_path, capsys):
        # the x^2 pre-integral route used to raise a bare OverflowError at t = 193.5
        rows, config = self._dispersion_rows(tmp_path, capsys, 200)
        assert len(rows) == 401
        params, alpha = config.params, config.alpha
        late = [row for row in rows if float(row[0]) >= 149.0 and row[2]]
        assert late
        for row in late:
            value = complex(float(row[2]), float(row[3]))
            first, second = (
                closedform.hyperbolic_xn_paths(n, alpha, params, float(row[0]))[0] for n in (1, 2)
            )
            branch = second - first * first
            assert abs(value - branch) <= 1e-12 * abs(branch)


class TestEvaluateOnce:
    """One evaluator per command, one evaluation per grid point, one pieces build per evaluation."""

    @staticmethod
    def _count(monkeypatch, cls, attr, calls):
        # each call of cls.attr appends its instance to calls[attr]
        original = getattr(cls, attr)

        def counted(self, *args, **kwargs):
            calls.setdefault(attr, []).append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, attr, counted)

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {}
        for attr in ("__init__", "__call__", "_pieces"):
            self._count(monkeypatch, closedform.XnAverage, attr, calls)

        def tally():
            named = {"__init__": "builds", "__call__": "average", "_pieces": "pieces"}
            return {named[attr]: len(seen) for attr, seen in calls.items()}

        return tally

    def test_evolve(self, counts):
        cmd_evolve(parse_config(BASE_CFG.replace("points = 5", "points = 7")))
        assert counts() == {"builds": 1, "average": 7, "pieces": 7}

    def test_evolve_with_flagged_rows(self, counts):
        t0 = math.pi / (32.0 * 0.1 * 0.1)  # first n=2 collapse
        config = parse_config(
            "kind = hyperbolic\nmu = 0.1\nhbar = 0.1\nalpha = 1j\nobservable = x^2\n"
            f"t_min = {0.99 * t0}\nt_max = {1.01 * t0}\npoints = 41\nguard = 1e-3\n"
        )
        rows = cmd_evolve(config).rows
        assert any(row[4] for row in rows)
        assert counts()["builds"] == 1
        assert counts()["average"] == 41
        assert counts()["pieces"] <= 41

    def test_compare(self, counts):
        config = parse_config(
            BASE_CFG.replace("points = 5", "points = 2").replace("t_max = 1.0", "t_max = 0.4")
            + "oracle_dim_cap = 2048\n"
        )
        cmd_compare(config)
        assert counts() == {"builds": 1, "average": 2, "pieces": 2}

    @pytest.mark.parametrize("sources,expected", (("classical", 0), ("closed,classical", 5)))
    def test_elliptic_closed_form_only_as_a_source(self, monkeypatch, sources, expected):
        calls = {}
        self._count(monkeypatch, closedform.EllipticAverage, "_value", calls)
        cmd_evolve(parse_config(
            f"kind = elliptic\nmu = 0.05\nobservable = mono:2,1\npoints = 5\nsources = {sources}\n"
        ))
        assert len(calls.get("_value", [])) == expected

    def test_ehrenfest_one_classical_per_quantum(self, monkeypatch):
        calls = {}
        self._count(monkeypatch, closedform.XnAverage, "__call__", calls)
        self._count(monkeypatch, closedform.XnClassical, "_value", calls)
        config = parse_config(
            "kind = hyperbolic\nmu = 0.05\nhbar = 0.01\nalpha = 1.0\nobservable = x^1\n"
            "t_min = 0.0\nt_max = 10.0\npoints = 50\n"
        )
        cmd_ehrenfest(config, (1e-2, 1e-3))
        assert len(calls["__call__"]) > 0
        assert len(calls["_value"]) == len(calls["__call__"])

    def test_evolve_builds_no_params(self, monkeypatch):
        # the config built its SystemParams once, at parse time
        config = parse_config(BASE_CFG.replace("points = 5", "points = 100"))
        builds = []
        init = core.SystemParams.__init__

        def counted(self, *args):
            builds.append(self)
            init(self, *args)

        monkeypatch.setattr(core.SystemParams, "__init__", counted)
        cmd_evolve(config)
        assert len(builds) == 0
        parse_config(BASE_CFG)  # the count sees a build: a new config makes one
        assert len(builds) == 1

    def test_grid_built_once(self, monkeypatch):
        # parse checks the grid's size and ends without building it
        builds = []
        time_grid = harness.RunConfig.time_grid

        def counted(self):
            builds.append(self.points)
            return time_grid(self)

        monkeypatch.setattr(harness.RunConfig, "time_grid", counted)
        cmd_evolve(parse_config(BASE_CFG.replace("points = 5", "points = 100")))
        assert builds == [100]

    @pytest.mark.parametrize("fields,message", (
        ({"points": 0}, "points must be >= 1"),
        ({"points": 1_000_001}, "points must be <= 1,000,000"),
        ({"t_max": 0.0}, "time grid needs t_max > t_min"),
        ({"t_min": -1e308, "t_max": 1e308}, "time grid is not finite"),
    ))
    def test_built_config_checks_its_grid(self, fields, message):
        # a config built or replaced in code is checked like a parsed one
        with pytest.raises(ConfigError, match=message):
            harness.RunConfig(**fields)
        with pytest.raises(ConfigError, match=message):
            parse_config(BASE_CFG).replace(**fields)

    def test_built_config_takes_its_keys_as_keywords_only(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'hbar_lst'"):
            harness.RunConfig(hbar_lst=(0.1,))
        with pytest.raises(TypeError):
            harness.RunConfig("hyperbolic")

    def test_ehrenfest_one_scan_per_hbar(self, monkeypatch):
        calls = {}
        self._count(monkeypatch, closedform.XnAverage, "__call__", calls)
        config = parse_config(
            "kind = hyperbolic\nmu = 0.05\nhbar = 0.01\nalpha = 1.0\nobservable = x^1\n"
            "t_min = 0.0\nt_max = 6.0\npoints = 200\nbreakdown_threshold = 1e300\n"
        )
        fit, _ = cmd_ehrenfest(config, (1e-2, 1e-3))
        assert fit.breakdown_times == fit.relative_times == (None, None)
        # one evaluator per hbar, each called once per grid point
        evaluators = list(dict.fromkeys(calls["__call__"]))
        assert [evaluator._hbar for evaluator in evaluators] == [1e-2, 1e-3]
        assert [calls["__call__"].count(evaluator) for evaluator in evaluators] == [200, 200]

    @pytest.fixture
    def oracle_calls(self, monkeypatch):
        # fresh representations, so that states built by earlier tests do not hide builds
        fock._model_bases.cache_clear()
        calls = {"coherent": [], "expectation": []}
        coherent = fock.coherent_vector
        propagate, monomial = fock.propagate_expectation, fock.monomial_expectation

        def counted_coherent(alpha, hbar, dim, *args, **kwargs):
            calls["coherent"].append((complex(alpha), hbar, dim))
            return coherent(alpha, hbar, dim, *args, **kwargs)

        def counted_propagate(rep, v, obs_power, t):
            calls["expectation"].append((rep.dim, t))
            return propagate(rep, v, obs_power, t)

        def counted_monomial(rep, v, m, q, t):
            calls["expectation"].append((rep.dim, t))
            return monomial(rep, v, m, q, t)

        monkeypatch.setattr(fock, "coherent_vector", counted_coherent)
        monkeypatch.setattr(fock, "propagate_expectation", counted_propagate)
        monkeypatch.setattr(fock, "monomial_expectation", counted_monomial)
        return calls

    @pytest.mark.parametrize("command,text,points,skipped", (
        # nbar = 40: the dim-64 basis fails the tail test at every point
        (
            "evolve",
            "kind = elliptic\nmu = 0.05\nhbar = 0.1\nalpha = 2.0\nobservable = mono:1,0\n"
            "t_min = 0.0\nt_max = 2.0\npoints = 60\n",
            60,
            {64},
        ),
        ("compare", (CONFIGS / "compare.cfg").read_text(), 7, set()),
    ), ids=("elliptic-evolve", "hyperbolic-compare"))
    def test_oracle_builds_each_state_once(
        self, oracle_calls, tmp_path, command, text, points, skipped
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
        assert main(argv + (["--oracle", "on"] if command == "evolve" else [])) == 0
        builds, expectations = oracle_calls["coherent"], oracle_calls["expectation"]
        # one coherent vector per (alpha, hbar, basis size), a failed tail test included
        assert len(builds) == len(set(builds))
        assert {dim for _, _, dim in builds} >= skipped | {64, 128}
        # one expectation per basis size per point, none at a skipped size
        assert len(expectations) == len(set(expectations))
        assert len({t for _, t in expectations}) == points
        assert {dim for dim, _ in expectations} == {dim for _, _, dim in builds} - skipped

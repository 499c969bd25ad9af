"""Config parsing, sweep commands, writers, and CLI exit codes."""

import math
from dataclasses import replace
from pathlib import Path

import pytest

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
        result = cmd_collapse_scan(replace(config, ell_max=1))
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
        rows = cmd_collapse_scan(replace(config, ell_max=0)).rows
        assert rows[0][1] == pytest.approx(math.pi / (32.0 * 0.1 * 0.1), rel=1e-13)
        config1 = parse_config(
            "kind = hyperbolic\nmu = 0.1\nhbar = 0.1\nalpha = 1j\nobservable = x^1\n"
        )
        rows1 = cmd_collapse_scan(replace(config1, ell_max=0)).rows
        assert rows1[0][1] == pytest.approx(math.pi / (16.0 * 0.1 * 0.1), rel=1e-13)

    def test_negative_ell_enumerated(self):
        config = parse_config(
            "kind = hyperbolic\nmu = 0.1\nhbar = 0.1\nalpha = 1j\nobservable = x^2\n"
        )
        rows = cmd_collapse_scan(replace(config, ell_min=-1, ell_max=-1)).rows
        assert all(row[1] < 0 for row in rows)

    def test_quadratic_limit_rejected(self):
        config = parse_config(
            "kind = hyperbolic\nmu = 0.0\nhbar = 0.1\nalpha = 1j\nobservable = x^2\n"
        )
        with pytest.raises(DomainError):
            cmd_collapse_scan(config)


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

    def test_cli_guard_violation_exit_code(self, tmp_path):
        # ehrenfest scan driven into the collapse band with a huge threshold
        t0 = math.pi / (16.0 * 0.2 * 0.2)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "kind = hyperbolic\nmu = 0.2\nhbar = 0.2\nalpha = 1.0\nobservable = x^1\n"
            f"t_min = 0.0\nt_max = {2.0 * t0}\npoints = 400\nguard = 0.05\n"
            "breakdown_threshold = 1e280\nhbar_list = 0.2\n"
        )
        assert main(["ehrenfest", "--config", str(cfg)]) == 4

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
BEYOND_FLOAT_RANGE = {
    "classical-xn": (
        lambda: hyperbolic_classical_xn(3, OVERFLOW_502[1], OVERFLOW_502[0], 57.0),
        "kind = hyperbolic\nmu = 0.07191055727820078\nhbar = 0.07017478951319374\n"
        "alpha = 1.331438709218367-1.480717736140777j\nobservable = x^3\n"
        "t_min = 55.0\nt_max = 57.0\npoints = 2\nsources = closed,classical\n",
    ),
    "elliptic-overflow": (
        lambda: elliptic_quantum_average(1, 0, 1e200, ELL, 0.5),
        ELL_CFG.format(m=1, q=0, alpha="1e200", sources="closed"),
    ),
    "elliptic-inf-nan": (
        lambda: elliptic_quantum_average(2, 2, 1e100, ELL, 0.5),
        ELL_CFG.format(m=2, q=2, alpha="1e100", sources="closed"),
    ),
    "elliptic-classical-inf-nan": (
        lambda: elliptic_classical_average(2, 2, 1e100, ELL, 0.5),
        ELL_CFG.format(m=2, q=2, alpha="1e100", sources="classical"),
    ),
}


CLASSICAL_CASES = ("classical-xn", "elliptic-classical-inf-nan")


class TestFloatRange:
    """Averages beyond float64 raise DomainError, never a traceback or a nan cell.

    A quantum average beyond float64 fails the run (exit 2); a classical one
    leaves its ``evolve`` cells empty and the run goes on.
    """

    @pytest.mark.parametrize("case", sorted(BEYOND_FLOAT_RANGE))
    def test_library_raises_domain_error(self, case):
        evaluate, _ = BEYOND_FLOAT_RANGE[case]
        with pytest.raises(DomainError, match="float64|not finite"):
            evaluate()

    @pytest.mark.parametrize("case", sorted(set(BEYOND_FLOAT_RANGE) - set(CLASSICAL_CASES)))
    def test_cli_exit_code(self, case, tmp_path, capsys):
        _, text = BEYOND_FLOAT_RANGE[case]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["evolve", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cohevol: config error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("case", CLASSICAL_CASES)
    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_cli_classical_overflow_leaves_cells_empty(self, case, fmt, tmp_path, capsys):
        _, text = BEYOND_FLOAT_RANGE[case]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["evolve", "--config", str(cfg), "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        config = replace(parse_config(text), format=fmt)
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

    def test_closed_form_requires_finite_unflagged(self):
        # an unflagged closed row never holds inf or nan: the evaluator raises
        config = parse_config(ELL_CFG.format(m=2, q=2, alpha="1e100", sources="closed"))
        with pytest.raises(DomainError):
            cmd_evolve(config)


class TestEvaluateOnce:
    """One closed-form evaluation per grid point and one pieces build per evaluation."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"average": 0, "pieces": 0}
        average = harness.hyperbolic_xn_average
        pieces = closedform._xn_closed_pieces

        def counted_average(*args, **kwargs):
            counts["average"] += 1
            return average(*args, **kwargs)

        def counted_pieces(*args, **kwargs):
            counts["pieces"] += 1
            return pieces(*args, **kwargs)

        monkeypatch.setattr(harness, "hyperbolic_xn_average", counted_average)
        monkeypatch.setattr(closedform, "_xn_closed_pieces", counted_pieces)
        return counts

    def test_evolve(self, counts):
        cmd_evolve(parse_config(BASE_CFG.replace("points = 5", "points = 7")))
        assert counts == {"average": 7, "pieces": 7}

    def test_evolve_with_flagged_rows(self, counts):
        t0 = math.pi / (32.0 * 0.1 * 0.1)  # first n=2 collapse
        config = parse_config(
            "kind = hyperbolic\nmu = 0.1\nhbar = 0.1\nalpha = 1j\nobservable = x^2\n"
            f"t_min = {0.99 * t0}\nt_max = {1.01 * t0}\npoints = 41\nguard = 1e-3\n"
        )
        rows = cmd_evolve(config).rows
        assert any(row[4] for row in rows)
        assert counts["average"] == 41
        assert counts["pieces"] <= 41

    def test_compare(self, counts):
        config = parse_config(
            BASE_CFG.replace("points = 5", "points = 2").replace("t_max = 1.0", "t_max = 0.4")
            + "oracle_dim_cap = 2048\n"
        )
        cmd_compare(config)
        assert counts == {"average": 2, "pieces": 2}

    @pytest.mark.parametrize("sources,expected", (("classical", 0), ("closed,classical", 5)))
    def test_elliptic_closed_form_only_as_a_source(self, monkeypatch, sources, expected):
        calls = []
        average = harness.elliptic_quantum_average

        def counted(*args, **kwargs):
            calls.append(args)
            return average(*args, **kwargs)

        monkeypatch.setattr(harness, "elliptic_quantum_average", counted)
        cmd_evolve(parse_config(
            f"kind = elliptic\nmu = 0.05\nobservable = mono:2,1\npoints = 5\nsources = {sources}\n"
        ))
        assert len(calls) == expected

    def test_ehrenfest_one_classical_per_quantum(self, monkeypatch):
        calls = {"quantum": 0, "classical": 0}
        quantum, classical = harness.hyperbolic_xn_average, harness.hyperbolic_classical_xn

        def counted_quantum(*args, **kwargs):
            calls["quantum"] += 1
            return quantum(*args, **kwargs)

        def counted_classical(*args, **kwargs):
            calls["classical"] += 1
            return classical(*args, **kwargs)

        monkeypatch.setattr(harness, "hyperbolic_xn_average", counted_quantum)
        monkeypatch.setattr(harness, "hyperbolic_classical_xn", counted_classical)
        config = parse_config(
            "kind = hyperbolic\nmu = 0.05\nhbar = 0.01\nalpha = 1.0\nobservable = x^1\n"
            "t_min = 0.0\nt_max = 10.0\npoints = 50\n"
        )
        cmd_ehrenfest(config, (1e-2, 1e-3))
        assert calls["quantum"] > 0
        assert calls["classical"] == calls["quantum"]

    def test_evolve_builds_no_params(self, monkeypatch):
        # the config built its SystemParams once, at parse time
        config = parse_config(BASE_CFG.replace("points = 5", "points = 100"))
        builds = []
        post_init = core.SystemParams.__post_init__

        def counted(self):
            builds.append(self)
            post_init(self)

        monkeypatch.setattr(core.SystemParams, "__post_init__", counted)
        cmd_evolve(config)
        assert len(builds) == 0

    def test_ehrenfest_one_scan_per_hbar(self, monkeypatch):
        calls = []
        quantum = harness.hyperbolic_xn_average

        def counted(*args, **kwargs):
            calls.append(args[2].hbar)
            return quantum(*args, **kwargs)

        monkeypatch.setattr(harness, "hyperbolic_xn_average", counted)
        config = parse_config(
            "kind = hyperbolic\nmu = 0.05\nhbar = 0.01\nalpha = 1.0\nobservable = x^1\n"
            "t_min = 0.0\nt_max = 6.0\npoints = 200\nbreakdown_threshold = 1e300\n"
        )
        fit, _ = cmd_ehrenfest(config, (1e-2, 1e-3))
        assert fit.breakdown_times == fit.relative_times == (None, None)
        assert [calls.count(h) for h in (1e-2, 1e-3)] == [200, 200]

    @pytest.fixture
    def oracle_calls(self, monkeypatch):
        # fresh representations, so that states built by earlier tests do not hide builds
        fock._cached_representation.cache_clear()
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

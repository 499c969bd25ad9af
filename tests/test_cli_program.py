"""The CLI started as a program, ``python -m cohevol.cli``, on its edge configs.

Each case runs in a child process, as a user runs it, and checks the exit
code, stderr (empty, or the one line naming the error class) and stdout.
These are the configs the workflow's smoke step used to write and grep
itself, plus those whose tracebacks or numpy warnings were fixed.  A
hypothesis property runs ``cli.main`` in-process on extreme parameters.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohevol import cli

ROOT = Path(__file__).resolve().parents[1]

# The first line of stderr for each nonzero exit code.
STDERR = {2: "cohevol: config error: ", 3: "cohevol: convergence failure: "}

# Collapse lattices beyond float64: 16 n mu hbar underflows to 0, pi/(16 n mu hbar)
# overflows to inf, and t_ell overflows at ell ~ 9.
LATTICES = {
    case: {"kind": "hyperbolic", "alpha": 1.0, "ell_min": 0, **keys}
    for case, keys in (
        ("lattice-zero-rate", {"mu": 1e-20, "hbar": 1e-320, "observable": "x^3", "ell_max": 0}),
        ("lattice-infinite-base", {"mu": 1e-320, "hbar": 0.001, "observable": "x^1", "ell_max": 0}),
        ("lattice-infinite-t-ell",
         {"omega": 1e-300, "mu": 2e-305, "hbar": 0.001, "observable": "x^1", "ell_max": 20}),
    )
}


def _config_text(config: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in config.items())


# case: (command, config, extra flags, exit code, text stdout must hold)
CASES = {
    **{
        case: ("collapse-scan", _config_text(config), (), 2, "")
        for case, config in LATTICES.items()
    },
    # an ell beyond float64 gives no t_ell
    "ell-beyond-float64": (
        "collapse-scan",
        f"kind = hyperbolic\nobservable = x^1\nell_min = {10**400}\nell_max = {10**400}\n",
        (), 2, "",
    ),
    # alpha = 0 makes every odd-n log10 |f| -inf, which JSON writes as null
    "zero-average-json": (
        "collapse-scan",
        "kind = hyperbolic\nmu = 0.1\nhbar = 0.1\nalpha = 0\nobservable = x^1\nell_min = 0\nell_max = 0\n",
        ("--format", "json"), 0, "null",
    ),
    # alpha = 1e200 puts |alpha|^2 beyond float64
    "alpha-overflow": (
        "dispersion-regimes",
        "kind = hyperbolic\nmu = 0.05\nhbar = 0.02\nalpha = 1e200\nobservable = x^1\npoints = 3\n",
        (), 2, "",
    ),
    # alpha = 1e152 takes log10 |f| to +inf near the first collapse
    "log10-overflow": (
        "collapse-scan",
        "kind = hyperbolic\nmu = 0.05\nhbar = 0.02\nalpha = 1e152\nobservable = x^1\nell_min = 0\nell_max = 0\n",
        (), 2, "",
    ),
    # t = 1e308 takes the phase 8 n mu hbar t beyond float64
    "phase-overflow": (
        "evolve",
        "kind = hyperbolic\nomega = 1\nmu = 9\nhbar = 0.1\nalpha = 0.5\nobservable = x^1\n"
        "t_max = 1e308\npoints = 2\n",
        (), 2, "",
    ),
    # and the elliptic phase: exit 2 for the quantum value, empty cells for the classical one
    "elliptic-phase-closed": (
        "evolve",
        "kind = elliptic\nmu = 0.5\nhbar = 0.5\nalpha = 0.5\nobservable = mono:2,0\n"
        "t_max = 1e308\npoints = 3\nsources = closed\n",
        (), 2, "",
    ),
    "elliptic-phase-classical": (
        "evolve",
        "kind = elliptic\nmu = 0.5\nhbar = 0.5\nalpha = 0.5\nobservable = mono:2,0\n"
        "t_max = 1e308\npoints = 3\nsources = classical\n",
        (), 0, ",,,classical,0\n",
    ),
    # exp(rate t) of the classical x^1 overflows where x0 exp(rate t) fits: the scan goes on
    "classical-exp": (
        "ehrenfest",
        "kind = hyperbolic\nomega = 1.652\nmu = -0.0583\nalpha = 0\nobservable = x^1\n"
        "hbar_list = 3.71e-05,8.09e-06,0.00432,7.27e-06,0.000572,5.26e-05\n"
        "breakdown_threshold = 7.25e-06\nt_max = 268.026\npoints = 2\nguard = 0\n",
        (), 0, "",
    ),
    # x0^2 = 2e-340 underflows where exp(rate t) fits: formed in log scale (mpmath 1.9178897465698863e-53)
    "classical-tiny-alpha": (
        "evolve",
        "kind = hyperbolic\nomega = 1.652\nmu = -0.0583\nhbar = 0.1\nalpha = 1e-170\nobservable = x^2\n"
        "t_min = 100\nt_max = 100\npoints = 1\nsources = classical\n",
        (), 0, "1.0000000000000000e+02,1.91788974656988",
    ),
    # the relative gap crosses between two adjacent floats, so bisection cannot shrink its bracket
    "adjacent-float-bracket": (
        "ehrenfest",
        "kind = hyperbolic\nomega = 1e-5\nmu = 1e-7\nalpha = 1\nobservable = x^1\nhbar_list = 0.1\n"
        "t_min = 1e6\nt_max = 1000000.0000000001\npoints = 2\nbreakdown_threshold = 0.03674963837310425\n",
        (), 0, "1.0000000000000000e+06,1.0000000000000001e+06,ok",
    ),
    # four crossings at one hbar give no line through ln(1/hbar): the fits read none
    "one-hbar": (
        "ehrenfest",
        "kind = hyperbolic\nmu = 0.05\nhbar = 0.01\nalpha = 1.0\nobservable = x^1\nt_max = 10.0\n"
        "points = 200\nhbar_list = 0.01,0.01,0.01,0.01\n",
        (), 0, "fit_slope=none",
    ),
    # the oracle's doubling can never converge at oracle_tol = 0
    "zero-tol": (
        "compare",
        "kind = hyperbolic\nmu = 0.1\nhbar = 0.1\nobservable = x^1\npoints = 3\noracle_tol = 0\n",
        (), 2, "",
    ),
    # the doubling starts at dim 64, so a cap below it builds and tests no basis
    "oracle-cap-below-first-basis": (
        "compare",
        "kind = hyperbolic\nmu = 0.1\nhbar = 0.1\nobservable = x^1\npoints = 3\noracle_dim_cap = 32\n",
        (), 2, "",
    ),
    # hbar^(5/2), the oracle's convergence floor, beyond float64
    "oracle-floor-overflow": (
        "compare",
        "kind = hyperbolic\nomega = 1.6919\nmu = 0\nhbar = 3.57e131\nalpha = -1.4032-0.63625j\n"
        "observable = x^5\nt_max = 2.406\npoints = 4\n",
        (), 2, "",
    ),
    # 8 n mu hbar is inf although |mu| hbar < |omega|
    **{
        f"phase-rate-{command}": (
            command,
            "kind = hyperbolic\nomega = 1.5e307\nmu = 1e307\nhbar = 1\nalpha = 0.5\nobservable = x^3\n",
            (), 2, "",
        )
        for command in ("evolve", "collapse-scan")
    },
    # the oracle's convergence floor hbar^5 underflows to 0, and so do two successive values
    "oracle-zero-values": (
        "compare",
        "kind = hyperbolic\nomega = -5.217101331065151\nmu = 0\nhbar = 3.3839760742518185e-91\n"
        "alpha = 1.6614524269064705e-268\nobservable = x^10\nt_max = 0.025943369591595305\npoints = 5\n",
        (), 0, "",
    ),
    # the oracle's energies beyond float64, refused before any eigensolve: hbar^2 in the
    # elliptic spectrum, and hyperbolic couplings hbar sqrt((k+1)(k+2)) at dim 128
    "oracle-elliptic-energies": (
        "compare",
        "kind = elliptic\nomega = 1\nmu = 0\nhbar = 1.5307102337409066e+169\n"
        "alpha = 3.3558966641061695e-277+2.405801690852068j\nobservable = mono:1,0\nt_max = 1\npoints = 2\n",
        (), 2, "",
    ),
    "oracle-hyperbolic-couplings": (
        "compare",
        "kind = hyperbolic\nomega = 1\nmu = 0\nhbar = 1e306\nalpha = 0.5\nobservable = x^1\n"
        "t_max = 1e-300\npoints = 2\n",
        (), 2, "",
    ),
    # past the first collapse, -s^2/(2 hbar) and xi^2 b^2/hbar are both -inf: the pre-integral
    # exponent is inf - inf, and the closed cell is 0 (the average underflows), not nan
    "nan-integral-exponent": (
        "evolve",
        "kind = hyperbolic\nomega = 1.4975634430323286\nmu = -0.15861691893290647\n"
        "hbar = 0.05320775225274737\nalpha = 1.347247430024863e+158\nobservable = x^1\n"
        "t_min = 24.77643850363027\nt_max = 24.77643850363027\npoints = 1\nguard = 0\n",
        (), 0, ",0.0000000000000000e+00,0.0000000000000000e+00,closed,0\n",
    ),
    # the oracle's phases beyond float64: one stderr line, no numpy warnings before it
    "oracle-phase": (
        "evolve",
        "kind = elliptic\nmu = 0.5\nhbar = 0.5\nalpha = 0.5\nobservable = mono:2,0\n"
        "t_max = 1e308\npoints = 3\nsources = oracle\n",
        (), 3, "",
    ),
}


def _run(tmp_path, command, text, flags=()):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "cohevol.cli", command, "--config", str(cfg), *flags],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_program_exit_code_and_streams(case, tmp_path):
    command, text, flags, code, needle = CASES[case]
    done = _run(tmp_path, command, text, flags)
    assert done.returncode == code, done.stderr
    if code == 0:
        assert done.stderr == ""
        assert needle in done.stdout
        if "json" in flags:
            json.loads(done.stdout)  # the hand-rolled writer gives JSON a parser accepts
    else:
        assert done.stdout == ""
        assert done.stderr.startswith(STDERR[code])
        assert done.stderr.count("\n") == 1


def test_subnormal_alpha_gives_values_and_flagged_rows(tmp_path):
    # alpha = 2.088e-320: every power of xi in the x^11 series underflows unless the series is
    # summed in log scale; the expected values come from 60-digit mpmath
    done = _run(tmp_path, "evolve", (
        "kind = hyperbolic\nomega = 1.2332\nmu = -0.18218\nhbar = 0.023434\nalpha = 2.088e-320\n"
        "observable = x^11\nt_max = 71.97\npoints = 5\n"
    ))
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    rows = [line.split(",") for line in done.stdout.splitlines() if ",closed," in line]
    assert [float(row[0]) for row in rows] == [0.0, 17.9925, 35.985, 53.9775, 71.97]
    assert float(rows[0][1]) == 0.0  # 6.8e-326, below the smallest subnormal
    for row, expected in zip(rows[1:3], (1.412843632e-113, 2.07439547e+100)):
        assert row[4] == "0"
        assert float(row[1]) == pytest.approx(expected, rel=1e-9)
    assert [row[4] for row in rows[3:]] == ["1", "1"]  # 1.7e+316 and 5.3e+525


def test_ehrenfest_scan_ends_where_the_closed_form_gives_no_value(tmp_path):
    # the shipped config on t in [0, 400]: at hbar 1e-5 and 1e-6 the relative gap has not crossed
    # when |<x>| passes 1e307 (t = 353.88, long before the first collapse), so the scan ends there
    text = (ROOT / "configs" / "ehrenfest.cfg").read_text()
    text = text.replace("t_max = 10.0", "t_max = 400").replace("points = 200", "points = 400")
    done = _run(tmp_path, "ehrenfest", text)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    rows = [line.split(",") for line in done.stdout.splitlines()[-5:]]
    assert [row[3] for row in rows] == ["ok"] * 5
    assert all(row[1] for row in rows)
    assert [row[2] for row in rows] == [
        "2.9170460330513784e+01", "9.2997569607612789e+01", "2.9432565789473682e+02", "", "",
    ]


_MAGNITUDE = st.floats(-320.0, 300.0).map(lambda e: 10.0**e)  # log-uniform in [1e-320, 1e300]
_SIGNED = st.builds(lambda sign, size: sign * size, st.sampled_from((1.0, -1.0)), _MAGNITUDE)


@st.composite
def _extreme_configs(draw) -> dict:
    ell_min = draw(st.integers(-25, 25))
    return {
        "kind": "hyperbolic",
        "omega": draw(_SIGNED),
        "mu": draw(_SIGNED),
        "hbar": draw(_MAGNITUDE),
        "alpha": complex(draw(_SIGNED), draw(_SIGNED)),
        "observable": f"x^{draw(st.integers(1, 8))}",
        "t_max": draw(_MAGNITUDE),
        "points": draw(st.integers(1, 20)),
        "ell_min": ell_min,
        "ell_max": ell_min + draw(st.integers(0, 49)),
        "hbar_list": ",".join(map(repr, draw(st.lists(_MAGNITUDE, min_size=1, max_size=5)))),
    }


@settings(max_examples=400, deadline=None)
@given(
    config=_extreme_configs(),
    command=st.sampled_from(("evolve", "collapse-scan", "ehrenfest", "dispersion-regimes")),
    form=st.sampled_from(("csv", "json")),
)
@example(config=LATTICES["lattice-zero-rate"], command="collapse-scan", form="csv")
@example(config=LATTICES["lattice-infinite-base"], command="collapse-scan", form="json")
@example(config=LATTICES["lattice-infinite-t-ell"], command="collapse-scan", form="csv")
def test_no_closed_form_command_ends_in_a_traceback(config, command, form):
    # cli.main in-process on extreme parameters: a table (exit 0) or one config-error line (exit 2)
    if command == "ehrenfest":
        config = {**config, "observable": "x^1"}  # the only observable it measures
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "run.cfg"
        path.write_text(_config_text(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path), "--format", form, "--oracle", "off"])
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(STDERR[2]) and err.getvalue().count("\n") == 1

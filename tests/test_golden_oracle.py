"""Golden manifest of the CLI outputs that hold truncated-basis oracle cells.

Five runs: ``compare`` on ``configs/compare.cfg`` in CSV and in JSON, two
hyperbolic ``compare`` grids taken from ``bench/region.json`` whose oracle
accepts dims 1024 (``x^1``) and 2048 (``x^2``), and ``evolve`` on
``configs/elliptic_evolve.cfg`` with its oracle source.  Each run is pinned by
its exit code, its stderr text and its stdout text.

Every byte of stdout is compared, except the cells of a hyperbolic oracle
run, whose last bits depend on the eigensolver and on the BLAS thread
count: each oracle value ``re + 1j im`` to ``|dz| <= 1e-12 |z|`` (never
component by component, since an imaginary part of ~1e-17 is rounding
noise), and each ``rel_deviation`` cell and the ``max_rel_deviation``
metadata to 1e-12 absolute.  Elliptic oracle cells are compared by bytes.

Rewrite the manifest (only for a change that moves output beyond these
tolerances on purpose, and say why) with
``PYTHONPATH=src python tests/test_golden_oracle.py``.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from cohevol.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden_oracle.json"

# Two bench/region.json entries, as a compare job writes them at omega 1:
# [mu, hbar, n, alpha, t_max, dim] = [0.05, 0.05, 1, 0.5+0.3j, 0.65, 1024]
# and [0.05, 0.05, 2, 0.5+0.3j, 0.8, 2048].  Both share one model, so the
# second reuses the first's bases.
_REGION = (
    "kind = hyperbolic\nomega = 1.0\nmu = 0.05\nhbar = 0.05\nalpha = 0.5+0.3j\n"
    "points = 3\noracle_tol = 2e-07\noracle_dim_cap = 2048\n"
)
INLINE = {
    "region-x2-dim2048": _REGION + "observable = x^2\nt_min = 0.26666666666666666\nt_max = 0.8\n",
    "region-x1-dim1024": _REGION + "observable = x^1\nt_min = 0.21666666666666667\nt_max = 0.65\n",
}
ARGVS = (
    ["compare", "--config", "configs/compare.cfg"],
    ["compare", "--config", "configs/compare.cfg", "--format", "json"],
    ["compare", "--config", "region-x2-dim2048"],
    ["compare", "--config", "region-x1-dim1024"],
    ["evolve", "--config", "configs/elliptic_evolve.cfg"],
)

TOLERATED = ("re(oracle)", "im(oracle)", "rel_deviation")
REL_TOL = 1e-12  # an oracle value, relative to |z|
ABS_TOL = 1e-12  # a relative deviation, absolute
_META = re.compile(r"(max_rel_deviation(?:=|\":\"))([^\"\n]*)")
_JSON_ROW = re.compile(r"\[([^\[\]]*)\]")


def _masked(stdout: str) -> tuple[str, list[str]]:
    """``stdout`` with each tolerated cell replaced by ``~``, and those cells in order.

    The cells are listed as ``max_rel_deviation`` first, then per row its
    ``re(oracle)``, ``im(oracle)`` and ``rel_deviation``.  CSV rows are the
    lines after the header, JSON rows the bracketed arrays after ``"rows":``.
    """
    cells: list[str] = []

    def mask(match: re.Match) -> str:
        cells.append(match.group(2))
        return match.group(1) + "~"

    head = _META.sub(mask, stdout, count=1)
    if head.startswith("{"):
        head, rows = head.split('"rows":', 1)
        columns = json.loads(head.split('"columns":', 1)[1].rstrip(","))
        head += '"rows":'
        lines = _JSON_ROW.finditer(rows)
    else:
        lines = list(head.splitlines(keepends=True))
        start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        columns = lines[start].rstrip("\n").split(",")
        head, rows = "".join(lines[: start + 1]), "".join(lines[start + 1:])
        lines = re.finditer(r"^(.*)$", rows, flags=re.M)
    picked = [i for i, name in enumerate(columns) if name in TOLERATED]
    out, end = [head], 0
    for line in lines:
        values = line.group(1).split(",")
        if len(values) == len(columns):
            for i in picked:
                cells.append(values[i])
                values[i] = "~"
        out += [rows[end:line.start(1)], ",".join(values)]
        end = line.end(1)
    out.append(rows[end:])
    return "".join(out), cells


def _close(expected: list[str], actual: list[str]) -> bool:
    """The tolerated cells of one run against the manifest's, in :func:`_masked` order."""
    if len(expected) != len(actual):
        return False
    number = lambda text: float(text.strip('"'))  # noqa: E731
    if abs(number(actual[0]) - number(expected[0])) > ABS_TOL:
        return False
    for k in range(1, len(expected), 3):
        want = complex(number(expected[k]), number(expected[k + 1]))
        got = complex(number(actual[k]), number(actual[k + 1]))
        if not abs(got - want) <= REL_TOL * abs(want):
            return False
        if abs(number(actual[k + 2]) - number(expected[k + 2])) > ABS_TOL:
            return False
    return True


def _kind(stdout: str) -> str:
    return re.search(r"kind(?:=|\":\")(\w+)", stdout).group(1)


def _run(argv: list[str], workdir: Path) -> dict:
    """Exit code, stderr and stdout of one CLI run; an inline config is written to ``workdir``."""
    resolved = []
    for arg in argv:
        if arg in INLINE:
            path = workdir / f"{arg}.cfg"
            path.write_text(INLINE[arg], encoding="utf-8")
            arg = str(path)
        elif arg.startswith("configs/"):
            arg = str(ROOT / arg)
        resolved.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return {"argv": argv, "exit": code, "stderr": err.getvalue(), "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))["runs"]
    assert [run["argv"] for run in expected] == [list(argv) for argv in ARGVS]
    workdir = tmp_path_factory.mktemp("golden_oracle")
    return [(run, _run(run["argv"], workdir)) for run in expected]


def test_every_run_exits_as_pinned(runs):
    changed = [run["argv"] for run, got in runs if (got["exit"], got["stderr"]) != (run["exit"], run["stderr"])]
    assert changed == []


def test_elliptic_oracle_output_is_byte_identical(runs):
    elliptic = [(run, got) for run, got in runs if _kind(run["stdout"]) == "elliptic"]
    assert elliptic and all(got["stdout"] == run["stdout"] for run, got in elliptic)


def test_hyperbolic_oracle_output_within_tolerance(runs):
    hyperbolic = [(run, got) for run, got in runs if _kind(run["stdout"]) == "hyperbolic"]
    assert len(hyperbolic) == 4
    for run, got in hyperbolic:
        text, cells = _masked(got["stdout"])
        want_text, want_cells = _masked(run["stdout"])
        assert text == want_text, run["argv"]
        assert len(cells) > 1 and _close(want_cells, cells), run["argv"]


def test_mask_takes_exactly_the_tolerated_cells():
    csv = "# max_rel_deviation=1e-15\nt,re(oracle),im(oracle),rel_deviation,flag\n0,1,2,3,0\n"
    assert _masked(csv) == ("# max_rel_deviation=~\nt,re(oracle),im(oracle),rel_deviation,flag\n0,~,~,~,0\n",
                            ["1e-15", "1", "2", "3"])
    js = '{"meta":{"max_rel_deviation":"1e-15"},"columns":["t","re(oracle)","im(oracle)","rel_deviation"],' \
         '"rows":[[0,1,2,3],[4,5,6,7]]}\n'
    masked, cells = _masked(js)
    assert masked == '{"meta":{"max_rel_deviation":"~"},"columns":["t","re(oracle)","im(oracle)","rel_deviation"],' \
                     '"rows":[[0,~,~,~],[4,~,~,~]]}\n'
    assert cells == ["1e-15", "1", "2", "3", "5", "6", "7"]
    # a moved oracle value fails as a complex number, not per component
    assert _close(cells, ["1e-15", "1", "2.000000000001", "3", "5", "6", "7"]) is True
    assert _close(cells, ["1e-15", "1", "2", "3", "5", "6.00000001", "7"]) is False


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        written = [_run(list(argv), Path(workdir)) for argv in ARGVS]
    MANIFEST.write_text(json.dumps({"runs": written}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(written)} runs to {MANIFEST.relative_to(ROOT)}")

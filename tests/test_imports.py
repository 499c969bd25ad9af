"""Which commands load numpy and scipy, checked in fresh interpreters.

Only the truncated-basis oracle (``cohevol.fock``) needs them, so importing
the package and running the closed-form commands must load neither; an
elliptic oracle run needs numpy only, and the first hyperbolic eigensolve
loads scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
FOCK_NAMES = {
    "CoherentVector",
    "FockRepresentation",
    "build_hamiltonian",
    "coherent_vector",
    "monomial_expectation",
    "oracle_average",
    "propagate_expectation",
}

# argv: output path, then one JSON list of CLI argument lists.  Prints the
# exit codes and which of the heavy modules were loaded.
_CHILD = """
import json, sys
import cohevol
from cohevol import cli
codes = [cli.main([*args, "--out", sys.argv[1]]) for args in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "loaded": sorted(
    name for name in ("numpy", "scipy", "scipy.linalg") if name in sys.modules
)}))
"""


def _run_child(code: str, *argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded_after(runs: list, tmp_path) -> list:
    out = _run_child(_CHILD, str(tmp_path / "out.txt"), json.dumps(runs))
    result = json.loads(out.strip().splitlines()[-1])
    assert result["codes"] == [0] * len(runs)
    return result["loaded"]


def test_closed_form_commands_load_neither(tmp_path):
    runs = [
        ["evolve", "--config", str(CONFIGS / "evolve.cfg")],
        ["evolve", "--config", str(CONFIGS / "elliptic_evolve.cfg"), "--oracle", "off"],
        ["dispersion-regimes", "--config", str(CONFIGS / "dispersion_regimes.cfg")],
        ["collapse-scan", "--config", str(CONFIGS / "collapse_scan.cfg")],
        ["ehrenfest", "--config", str(CONFIGS / "ehrenfest.cfg")],
    ]
    assert _loaded_after(runs, tmp_path) == []


def test_elliptic_oracle_loads_numpy_only(tmp_path):
    runs = [["evolve", "--config", str(CONFIGS / "elliptic_evolve.cfg"), "--oracle", "on"]]
    assert _loaded_after(runs, tmp_path) == ["numpy"]


def test_compare_loads_both(tmp_path):
    runs = [["compare", "--config", str(CONFIGS / "compare.cfg")]]
    assert _loaded_after(runs, tmp_path) == ["numpy", "scipy", "scipy.linalg"]


def test_oracle_names_resolve_on_first_use():
    out = _run_child(
        "import json, sys, cohevol\n"
        "listed = dir(cohevol)\n"
        "before = 'numpy' in sys.modules\n"
        "from cohevol import oracle_average, FockRepresentation\n"
        "import cohevol.fock as fock\n"
        "print(json.dumps({'listed': listed, 'before': before,\n"
        "    'same': [oracle_average is fock.oracle_average,\n"
        "             FockRepresentation is fock.FockRepresentation]}))\n"
    )
    result = json.loads(out.strip().splitlines()[-1])
    assert FOCK_NAMES <= set(result["listed"])
    assert result["before"] is False
    assert result["same"] == [True, True]


def test_unknown_attribute_raises():
    import cohevol

    with pytest.raises(AttributeError, match="no_such_name"):
        cohevol.no_such_name

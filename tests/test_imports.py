"""Which commands load numpy, scipy and costly stdlib modules, checked in fresh interpreters.

Only the truncated-basis oracle (``cohevol.fock``) needs numpy and scipy, so
importing the package and running the closed-form commands must load
neither; an elliptic oracle run needs numpy only, and the first hyperbolic
eigensolve loads scipy's Cython LAPACK extension but not the ``scipy.linalg``
package (numpy itself loads ``ctypes``, through which the extension is
called).  No command needs ``dataclasses`` (with ``inspect``), ``typing`` or
``fractions`` (with ``decimal``): a closed-form run in an interpreter started
with ``-S``, where ``site`` preloads nothing, loads none of them, and an
oracle run loads no ``dataclasses`` (numpy itself loads ``inspect`` and
``typing``).
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

HEAVY = ("numpy", "scipy", "scipy.linalg", "scipy.linalg.cython_lapack")
STDLIB = ("dataclasses", "inspect", "typing", "fractions", "decimal")

# argv: output path, then one JSON list of CLI argument lists.  Prints the
# exit codes and which of the watched modules were loaded by the import and
# after the runs.
_CHILD = """
import json, sys
watched = %r
import cohevol
from cohevol import cli
imported = [name for name in watched if name in sys.modules]
codes = [cli.main([*args, "--out", sys.argv[1]]) for args in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "imported": imported, "loaded": sorted(
    name for name in watched if name in sys.modules
)}))
""" % ((*HEAVY, *STDLIB),)


def _run_child(code: str, *argv: str, flags: tuple = ()) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, *flags, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _child_result(runs: list, tmp_path, flags: tuple = ()) -> dict:
    out = _run_child(_CHILD, str(tmp_path / "out.txt"), json.dumps(runs), flags=flags)
    result = json.loads(out.strip().splitlines()[-1])
    assert result["codes"] == [0] * len(runs)
    return result


def _loaded_after(runs: list, tmp_path) -> list:
    """The heavy modules loaded by ``runs``; none of them may load ``dataclasses``."""
    loaded = _child_result(runs, tmp_path)["loaded"]
    assert "dataclasses" not in loaded
    return [name for name in loaded if name in HEAVY]


def test_closed_form_commands_load_neither(tmp_path):
    # -S: site imports nothing, so what is loaded is the package's own doing
    runs = [
        ["evolve", "--config", str(CONFIGS / "evolve.cfg")],
        ["evolve", "--config", str(CONFIGS / "elliptic_evolve.cfg"), "--oracle", "off"],
        ["dispersion-regimes", "--config", str(CONFIGS / "dispersion_regimes.cfg")],
        ["collapse-scan", "--config", str(CONFIGS / "collapse_scan.cfg")],
        ["ehrenfest", "--config", str(CONFIGS / "ehrenfest.cfg")],
    ]
    result = _child_result(runs, tmp_path, flags=("-S",))
    assert result["imported"] == []
    assert result["loaded"] == []


def test_elliptic_oracle_loads_numpy_only(tmp_path):
    runs = [["evolve", "--config", str(CONFIGS / "elliptic_evolve.cfg"), "--oracle", "on"]]
    assert _loaded_after(runs, tmp_path) == ["numpy"]


def test_compare_loads_both(tmp_path):
    runs = [["compare", "--config", str(CONFIGS / "compare.cfg")]]
    assert _loaded_after(runs, tmp_path) == ["numpy", "scipy", "scipy.linalg.cython_lapack"]


def test_compare_without_the_lapack_extension_goes_through_scipy_linalg(tmp_path):
    # where scipy's Cython LAPACK extension is not found, the eigensolve falls
    # back to scipy.linalg and writes the same bytes; the extension is hidden
    # only from lookups made before scipy.linalg is imported, so that scipy.linalg
    # itself still finds it
    runs = [["compare", "--config", str(CONFIGS / "compare.cfg")]]
    hidden = (
        "import sys\n"
        "from importlib.machinery import PathFinder\n"
        "find_spec = PathFinder.find_spec\n"
        "PathFinder.find_spec = classmethod(lambda cls, name, path=None, target=None: None\n"
        "    if name == 'scipy.linalg.cython_lapack' and 'scipy.linalg' not in sys.modules\n"
        "    else find_spec(name, path, target))\n"
    )
    fallback = _run_child(hidden + _CHILD, str(tmp_path / "fallback.txt"), json.dumps(runs))
    result = json.loads(fallback.strip().splitlines()[-1])
    assert result["codes"] == [0]
    assert [name for name in result["loaded"] if name in HEAVY] == list(HEAVY)
    assert _loaded_after(runs, tmp_path) == ["numpy", "scipy", "scipy.linalg.cython_lapack"]
    assert (tmp_path / "fallback.txt").read_bytes() == (tmp_path / "out.txt").read_bytes()


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

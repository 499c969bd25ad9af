"""Golden manifest of the closed-form CLI outputs on the shipped configs.

Each run of 6 configs x {evolve, collapse-scan, ehrenfest,
dispersion-regimes} x {no flag, ``--format json``, ``--guard 1e-3``} is
pinned by its exit code, its stderr text and the SHA-256 of its stdout.
``elliptic_evolve.cfg`` runs with ``--oracle off``, so no run needs the
truncated-basis oracle and every byte is the closed form's and the writers'.

Rewrite the manifest (only for a change that moves output on purpose, and say
why) with ``PYTHONPATH=src python tests/test_golden_closed.py``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from cohevol.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden_closed.json"
COMMANDS = ("evolve", "collapse-scan", "ehrenfest", "dispersion-regimes")
VARIANTS = ((), ("--format", "json"), ("--guard", "1e-3"))


def _argvs():
    for config in sorted(path.name for path in (ROOT / "configs").glob("*.cfg")):
        oracle = ("--oracle", "off") if config == "elliptic_evolve.cfg" else ()
        for command in COMMANDS:
            for flags in VARIANTS:
                yield [command, "--config", f"configs/{config}", *flags, *oracle]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    resolved = [str(ROOT / arg) if arg.startswith("configs/") else arg for arg in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return {
        "argv": argv,
        "exit": code,
        "stderr": err.getvalue(),
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
    }


def test_closed_form_outputs_match_the_manifest():
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))["runs"]
    assert [run["argv"] for run in expected] == list(_argvs())
    changed = [" ".join(run["argv"]) for run in expected if _run(run["argv"]) != run]
    assert changed == []


if __name__ == "__main__":
    runs = [_run(argv) for argv in _argvs()]
    MANIFEST.write_text(json.dumps({"runs": runs}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {MANIFEST.relative_to(ROOT)}")

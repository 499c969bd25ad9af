"""Regenerate ``region.json``: the hyperbolic oracle jobs that converge under cap 2048.

Usage, from the repository root::

    python3 bench/size_region.py

Candidates are criterion-01 parameters (mu, hbar in {0.05, 0.1}, its four
alphas, observables x^1 and x^2) with ``compare`` grids of ``POINTS`` times
ending at ``t_max``.  Each candidate runs the doubling oracle at both ends
of the omega jitter the job generator applies; it is kept when every point
converges, both ends reach the same largest basis size, and that size is
512, 1024 or 2048.  The entry records that size and the worst relative
deviation from the closed form seen while sizing.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "region.json"

MUS = (0.05, 0.1)
HBARS = (0.05, 0.1)
ALPHAS = ("0.5+0j", "1j", "0.5+0.3j", "1+1j")
T_MAX = tuple(round(0.05 * k, 2) for k in range(8, 25))
POINTS = 3
OMEGA_JITTER = 5e-4
TOL = 2e-7
DIM_CAP = 2048
CLASSES = (512, 1024, 2048)


def job_times(t_max: float) -> list[float]:
    """The ``compare`` grid: ``POINTS`` times from ``t_max / POINTS`` to ``t_max``."""
    t_min = t_max / POINTS
    step = (t_max - t_min) / (POINTS - 1)
    return [t_min + k * step for k in range(POINTS)]


def dump_region(region: dict) -> str:
    """JSON text with one entry per line."""
    head = {k: v for k, v in region.items() if k != "entries"}
    lines = [json.dumps(row) for row in region["entries"]]
    return json.dumps(head, indent=1)[:-2] + ',\n "entries": [\n  ' + ",\n  ".join(lines) + "\n ]\n}\n"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import cohevol.fock as fock
    from cohevol.closedform import hyperbolic_xn_average
    from cohevol.core import ConvergenceError, make_hyperbolic_params

    built: list[int] = []
    build = fock.build_hamiltonian

    def recording_build(kind, params, dim):
        built.append(dim)
        return build(kind, params, dim)

    fock.build_hamiltonian = recording_build
    sizes: dict = {}
    for omega in (1.0 - OMEGA_JITTER, 1.0 + OMEGA_JITTER):
        for mu in MUS:
            for hbar in HBARS:
                params = make_hyperbolic_params(omega, mu, hbar)
                for n in (1, 2):
                    for alpha in ALPHAS:
                        for t_max in T_MAX:
                            assert t_max <= 0.8 * math.pi / (16.0 * mu * n * hbar)
                            built.clear()
                            worst = 0.0
                            try:
                                for t in job_times(t_max):
                                    orc = fock.oracle_average(
                                        "hyperbolic", params, complex(alpha), n, t,
                                        tol=TOL, dim_cap=DIM_CAP,
                                    )
                                    closed = hyperbolic_xn_average(n, complex(alpha), params, t)
                                    worst = max(worst, abs(closed - orc) / abs(orc))
                            except ConvergenceError:
                                break  # larger t_max only needs more
                            key = (mu, hbar, n, alpha, t_max)
                            sizes.setdefault(key, []).append((max(built), worst))
                print(f"omega={omega} mu={mu} hbar={hbar} sized", flush=True)
    fock.build_hamiltonian = build

    entries = []
    for (mu, hbar, n, alpha, t_max), found in sorted(sizes.items()):
        dims = {dim for dim, _ in found}
        if len(found) == 2 and len(dims) == 1 and found[0][0] in CLASSES:
            worst = max(w for _, w in found)
            entries.append([mu, hbar, n, alpha, t_max, found[0][0], float(f"{worst:.3e}")])
    region = {
        "about": "hyperbolic compare jobs that converge under the cap; see size_region.py",
        "omega_jitter": OMEGA_JITTER,
        "oracle_tol": TOL,
        "oracle_dim_cap": DIM_CAP,
        "points": POINTS,
        "columns": ["mu", "hbar", "n", "alpha", "t_max", "dim", "max_rel_dev"],
        "entries": entries,
    }
    OUT.write_text(dump_region(region), encoding="utf-8")
    print(f"{len(entries)} entries written to {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

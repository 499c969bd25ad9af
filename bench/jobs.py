"""Seeded job lists for the three workloads, the code that runs one job, and its checks.

A workload is a sequence of passes; pass ``index`` of workload ``name`` under
seed ``seed`` is drawn from ``random.Random(f"{name}:{seed}:{index}")``, so
the same seed always gives the same jobs.  Every pass of a workload has the
same stratified mix (job types, basis sizes, observables); the seed chooses
the parameters inside each stratum.

Generators use the standard library only.  Running and checking a job needs
``cohevol`` importable; those functions import it when called.
"""

from __future__ import annotations

import cmath
import hashlib
import importlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("closed-sweep", "oracle-hyperbolic", "oracle-elliptic")

DIGEST_SEED = 0  # closed-sweep pass 0 of this seed is checked against digest.json
# Branch-tracked vs pre-integral route (criterion 06).  Checked on even
# powers only: odd moments vanish at xi = 0, where the pre-integral route keeps
# an absolute error of about 1e-13 of the moment's scale, so its relative gap
# grows without bound near the zero (3.3e-12 seen for x^3 with the series at
# -4e-6).  Odd-power gaps are measured and reported, not failed.  So are route
# values that are not finite although the representability guard passed:
# the branch-tracked route forms exp(exponent) before the small prefactor, so
# it overflows to inf/nan for values just under the guard's 1e307 cut (x^4 at
# mu=0.0534, hbar=0.0519, t=87.8 gives -inf+nanj; the other route -4.5e306).
ROUTE_TOL = 1e-12
ORACLE_TOL = 1e-6  # oracle vs closed form (criteria 01 and 02)
ROUTE_COS_MIN = 0.05  # criterion 06 reality domain: cos(8 n mu hbar t) >= 0.05
ROUTE_SAMPLES = 8  # evolve rows per hyperbolic job checked against the other route

# Elliptic region: nbar = |alpha|^2 / hbar in [3, 12].  The oracle's tail mass
# 1 - sum |c_k|^2 has a rounding floor that grows with nbar and crosses the
# 1e-14 tolerance at every basis size for some states from nbar ~ 20 (20 of
# 5000 random states at nbar = 20, about half at nbar = 300); up to nbar = 12
# the worst of 5000 was 4.6e-15.  Every job passes the tail test at dim 64 and
# converges at 128.
ELLIPTIC_NBAR = (3.0, 12.0)
ELLIPTIC_HBAR = (0.005, 0.05)
ELLIPTIC_MONOMIALS = ((1, 0), (2, 1), (1, 1), (0, 1), (2, 0), (1, 2))
ELLIPTIC_POINTS = 2400

# Hyperbolic strata: (largest basis size, observable power) per pass slot.
# Half the jobs stop at 1024, so the median and tail job sit inside that
# group rather than on the edge between two; the two dim-2048 jobs are six
# slots apart, so the representation cache never holds both.
HYPERBOLIC_SLOTS = (
    (2048, 1), (1024, 1), (512, 1), (1024, 2), (512, 2), (1024, 1),
    (2048, 2), (1024, 2), (512, 1), (1024, 1), (512, 2), (1024, 2),
)


@dataclass(frozen=True)
class Job:
    """One unit of work: a CLI invocation or a library verification job."""

    kind: str  # "cli", "residual" or "paths"
    command: str = ""  # CLI subcommand
    config: str = ""  # config file text
    flags: tuple[str, ...] = ()
    spec: dict = field(default_factory=dict)  # parameters the checks need


def _config(**items) -> str:
    return "".join(f"{key} = {value}\n" for key, value in items.items())


def _fmt(x: float) -> str:
    return repr(float(x))


def _alpha(z: complex) -> str:
    return repr(complex(z))


# ---------------------------------------------------------------------------
# closed-sweep
# ---------------------------------------------------------------------------

def _hyperbolic_evolve(rng: random.Random, n: int, fmt: str) -> Job:
    mu = rng.uniform(0.07, 0.15)
    hbar = rng.uniform(0.07, 0.15)
    alpha = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
    # Grid step divides the half spacing, so the grid lands on each collapse
    # time (guard hits); 2.2 spacings cover two collapses and their overflow bands.
    half = rng.randint(2500, 2800)
    points = int(2.2 * 2 * half) + 1
    step = math.pi / (8.0 * mu * n * hbar) / (2 * half)
    guard = rng.choice((None, "1e-4", "1e-3"))
    flags = ("--format", fmt) + (() if guard is None else ("--guard", guard))
    text = _config(
        kind="hyperbolic", omega="1.0", mu=_fmt(mu), hbar=_fmt(hbar), alpha=_alpha(alpha),
        observable=f"x^{n}", t_min="0.0", t_max=_fmt((points - 1) * step), points=points,
        sources="closed,classical",
    )
    return Job("cli", "evolve", text, flags, {"n": n, "mu": mu, "hbar": hbar, "alpha": alpha})


def _elliptic_evolve(rng: random.Random, fmt: str) -> Job:
    m, q = rng.choice(((1, 0), (0, 1), (2, 1), (1, 1), (2, 0), (1, 2), (3, 1)))
    text = _config(
        kind="elliptic", omega="1.0", mu=_fmt(rng.uniform(0.05, 0.1)),
        hbar=_fmt(rng.uniform(0.01, 0.1)),
        alpha=_alpha(complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))),
        observable=f"mono:{m},{q}", t_min="0.0", t_max=_fmt(rng.uniform(5.0, 20.0)),
        points=rng.randint(14000, 16000), sources="closed,classical",
    )
    return Job("cli", "evolve", text, ("--format", fmt))


def _dispersion(rng: random.Random, fmt: str) -> Job:
    text = _config(
        kind="hyperbolic", omega="1.0", mu=_fmt(rng.uniform(0.03, 0.07)),
        hbar=_fmt(rng.uniform(0.01, 0.03)),
        alpha=_alpha(complex(rng.uniform(0.5, 1.2), rng.uniform(-0.3, 0.3))),
        observable="x^1", t_min="0.0", t_max=_fmt(rng.uniform(1.0, 3.0)),
        points=rng.randint(12000, 14000),
    )
    return Job("cli", "dispersion-regimes", text, ("--format", fmt))


def _collapse_scan(rng: random.Random, fmt: str) -> Job:
    text = _config(
        kind="hyperbolic", omega="1.0", mu=_fmt(rng.uniform(0.05, 0.15)),
        hbar=_fmt(rng.uniform(0.05, 0.15)),
        alpha=_alpha(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))),
        observable=f"x^{rng.randint(1, 4)}", ell_min=0, ell_max=rng.randint(7500, 8000),
    )
    return Job("cli", "collapse-scan", text, ("--format", fmt))


def _ehrenfest(rng: random.Random, fmt: str) -> Job:
    hbars = ",".join(_fmt(10.0 ** (-k - rng.uniform(0.0, 0.3))) for k in range(2, 7))
    text = _config(
        kind="hyperbolic", omega="1.0", mu=_fmt(rng.uniform(0.03, 0.07)),
        hbar="0.01", alpha=_alpha(complex(rng.uniform(0.8, 1.2), 0.0)),
        observable="x^1", t_min="0.0", t_max="10.0", points=7200, hbar_list=hbars,
    )
    return Job("cli", "ehrenfest", text, ("--format", fmt))


def _residual_job(rng: random.Random) -> Job:
    # Criterion-03 region, where the residual converges at the stencil order.
    points = tuple(
        (
            rng.uniform(0.05, 0.12),
            rng.uniform(0.15, 0.35),
            complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            rng.uniform(0.1, 0.35),
        )
        for _ in range(60)
    )
    return Job("residual", spec={"points": points, "steps": (0.04, 0.02)})


def _paths_job(rng: random.Random) -> Job:
    # Criterion-06 region; points off the reality domain are drawn and skipped.
    draws = tuple(
        (
            rng.randint(1, 4),
            rng.uniform(0.05, 0.15),
            rng.uniform(0.05, 0.15),
            complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
            rng.uniform(0.0, 2.6),
        )
        for _ in range(10000)
    )
    return Job("paths", spec={"draws": draws})


def closed_sweep_pass(seed: int, index: int) -> list[Job]:
    # Nine CLI jobs of similar cost and two smaller library jobs, so the
    # median job falls inside the CLI group rather than between groups.
    rng = random.Random(f"closed-sweep:{seed}:{index}")
    formats = ["csv", "csv", "json", "json"]
    rng.shuffle(formats)
    jobs = [_hyperbolic_evolve(rng, n, fmt) for n, fmt in zip((1, 2, 3, 4), formats)]
    jobs.append(_residual_job(rng))
    jobs += [_elliptic_evolve(rng, "csv"), _elliptic_evolve(rng, "json")]
    other = ["csv", "json"] * 2
    rng.shuffle(other)
    jobs.append(_dispersion(rng, other[0]))
    jobs.append(_paths_job(rng))
    jobs.append(_collapse_scan(rng, other[1]))
    jobs.append(_ehrenfest(rng, other[2]))
    return jobs


# ---------------------------------------------------------------------------
# oracle workloads
# ---------------------------------------------------------------------------

def load_region() -> dict:
    return json.loads((HERE / "region.json").read_text(encoding="utf-8"))


def _jittered_omega(rng: random.Random, jitter: float) -> float:
    # Distinct per job, so the process-wide representation cache never
    # carries a basis from one job to the next.
    return 1.0 + jitter * (2.0 * rng.random() - 1.0)


def oracle_hyperbolic_pass(seed: int, index: int, region: dict) -> list[Job]:
    rng = random.Random(f"oracle-hyperbolic:{seed}:{index}")
    cols = region["columns"]
    entries = [dict(zip(cols, row)) for row in region["entries"]]
    jobs = []
    for dim, n in HYPERBOLIC_SLOTS:
        e = rng.choice([e for e in entries if e["dim"] == dim and e["n"] == n])
        omega = _jittered_omega(rng, region["omega_jitter"])
        points = region["points"]
        text = _config(
            kind="hyperbolic", omega=_fmt(omega), mu=_fmt(e["mu"]), hbar=_fmt(e["hbar"]),
            alpha=e["alpha"], observable=f"x^{n}", t_min=_fmt(e["t_max"] / points),
            t_max=_fmt(e["t_max"]), points=points, oracle_tol=region["oracle_tol"],
            oracle_dim_cap=region["oracle_dim_cap"],
        )
        spec = {"kind": "hyperbolic", "omega": omega, "mu": e["mu"], "hbar": e["hbar"],
                "n": n, "alpha": complex(e["alpha"]), "dim": dim}
        jobs.append(Job("cli", "compare", text, ("--format", rng.choice(("csv", "json"))), spec))
    return jobs


def oracle_elliptic_pass(seed: int, index: int) -> list[Job]:
    rng = random.Random(f"oracle-elliptic:{seed}:{index}")
    jobs = []
    for m, q in ELLIPTIC_MONOMIALS:
        nbar = rng.uniform(*ELLIPTIC_NBAR)
        hbar = math.exp(rng.uniform(*map(math.log, ELLIPTIC_HBAR)))
        alpha = cmath.rect(math.sqrt(nbar * hbar), rng.uniform(0.0, 2.0 * math.pi))
        omega = _jittered_omega(rng, 1e-3)
        mu = rng.uniform(0.05, 0.1)
        text = _config(
            kind="elliptic", omega=_fmt(omega), mu=_fmt(mu), hbar=_fmt(hbar),
            alpha=_alpha(alpha), observable=f"mono:{m},{q}", t_min="0.0",
            t_max=_fmt(rng.uniform(1.0, 4.0)), points=ELLIPTIC_POINTS,
            sources="closed,classical", oracle_tol="2e-7", oracle_dim_cap=2048,
        )
        spec = {"kind": "elliptic", "omega": omega, "mu": mu, "hbar": hbar, "nbar": nbar}
        flags = ("--oracle", "on", "--format", rng.choice(("csv", "json")))
        jobs.append(Job("cli", "evolve", text, flags, spec))
    return jobs


def make_pass(workload: str, seed: int, index: int, region: "dict | None" = None) -> list[Job]:
    if workload == "closed-sweep":
        return closed_sweep_pass(seed, index)
    if workload == "oracle-hyperbolic":
        return oracle_hyperbolic_pass(seed, index, region if region is not None else load_region())
    if workload == "oracle-elliptic":
        return oracle_elliptic_pass(seed, index)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Running one job
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What a job left behind: exit code, output text, and a library verdict."""

    code: int
    text: str = ""
    error: str = ""
    ok: bool = True
    odd_route_gap: float = 0.0  # worst odd-power route gap seen (not a failure)
    nonfinite: int = 0  # route values that overflowed inside the guard (not a failure)


def run_residual(job: Job, tracer=None) -> Outcome:
    """Closed-form residuals at two steps; each must shrink as the step halves."""
    import cohevol.closedform as closedform
    import cohevol.core as core

    residual = importlib.import_module("cohevol.residual")  # the package exports a function of that name
    wrap = tracer.candidate if tracer is not None else (lambda f: f)
    worst = 0.0
    for mu, hbar, alpha, t in job.spec["points"]:
        hyper = core.make_hyperbolic_params(1.0, mu, hbar)
        ellip = core.SystemParams(1.0, mu, hbar)
        cases = (
            (core.hyperbolic_symbol(hyper), wrap(lambda a, tt: closedform.hyperbolic_xn_average(1, a, hyper, tt))),
            (core.elliptic_symbol(ellip), wrap(lambda a, tt: closedform.elliptic_quantum_average(2, 1, a, ellip, tt))),
        )
        for symbol, f in cases:
            op = residual.generate_operator(symbol, hbar)
            coarse, fine = (
                abs(residual.residual(op, f, alpha, t, step=h, accuracy=2)) for h in job.spec["steps"]
            )
            worst = max(worst, fine / coarse)
    return Outcome(0, ok=worst < 1.0, error="" if worst < 1.0 else f"residual ratio {worst:.3g}")


def run_paths(job: Job) -> Outcome:
    """Both closed-form routes on the criterion-06 reality domain.

    Even powers must agree to ``ROUTE_TOL``; the worst odd-power gap and the
    number of non-finite route values are recorded in the outcome.
    """
    import cohevol.closedform as closedform
    import cohevol.core as core

    checked = nonfinite = 0
    worst = {0: 0.0, 1: 0.0}
    for n, mu, hbar, alpha, frac in job.spec["draws"]:
        spacing = math.pi / (8.0 * mu * n * hbar)
        t = frac * spacing
        if math.cos(8.0 * n * mu * hbar * t) < ROUTE_COS_MIN:
            continue
        params = core.make_hyperbolic_params(1.0, mu, hbar)
        try:
            closed, integral = closedform.hyperbolic_xn_paths(n, alpha, params, t)
        except core.CollapseProximity:
            continue
        if not (cmath.isfinite(closed) and cmath.isfinite(integral)):
            nonfinite += 1
            continue
        if closed == 0:
            continue
        checked += 1
        worst[n % 2] = max(worst[n % 2], abs(closed - integral) / abs(integral))
    ok = worst[0] <= ROUTE_TOL and checked > 0
    error = "" if ok else f"even-power route gap {worst[0]:.3g} over {checked} points"
    return Outcome(0, ok=ok, error=error, odd_route_gap=worst[1], nonfinite=nonfinite)


def prepare(job: Job, tmpdir: Path, name: str) -> "list[str] | None":
    """Write a CLI job's config; returns its argv (None for library jobs)."""
    if job.kind != "cli":
        return None
    config = tmpdir / f"{name}.cfg"
    config.write_text(job.config, encoding="utf-8")
    return [job.command, "--config", str(config), "--out", str(tmpdir / f"{name}.out"), *job.flags]


def run_cli(argv: list[str]) -> Outcome:
    import cohevol.cli as cli

    return Outcome(cli.main(argv))


def collect(job: Job, argv: "list[str] | None", outcome: Outcome) -> Outcome:
    """Read a CLI job's output into the outcome (after timing), then delete its files.

    Deleting at once keeps a run's disk writes near zero: a file removed
    before writeback never gets blocks, while thousands of written-back
    files can take minutes to delete on a disk mounted with ``discard``.
    """
    if argv is None:
        return outcome
    config = Path(argv[argv.index("--config") + 1])
    out = Path(argv[argv.index("--out") + 1])
    if outcome.code == 0:
        outcome.text = out.read_text(encoding="utf-8")
    config.unlink()
    out.unlink(missing_ok=True)
    return outcome


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def table(text: str) -> tuple[list[str], list[list]]:
    """Columns and rows of a CSV or JSON output; empty cells become None."""
    if text.startswith("{"):
        data = json.loads(text)
        return data["columns"], data["rows"]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    rows = [[None if cell == "" else cell for cell in line.split(",")] for line in lines[1:]]
    return columns, rows


def table_digest(text: str) -> str:
    """SHA-256 of the output without its metadata: header and rows, byte for byte."""
    if text.startswith("{"):
        body = text[text.index('"columns":'):]
    else:
        body = "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _value(row: list, re_col: int) -> complex:
    return complex(float(row[re_col]), float(row[re_col + 1]))


def check(job: Job, outcome: Outcome) -> str:
    """Empty when the job exited 0 and its outputs are right; else the reason."""
    if outcome.code != 0:
        return f"exit code {outcome.code} {outcome.error}".strip()
    if not outcome.ok:
        return outcome.error or "library check failed"
    if job.kind != "cli":
        return ""
    columns, rows = table(outcome.text)
    if not rows:
        return "no rows"
    if job.command == "compare":
        return _check_compare(job, columns, rows)
    if job.command == "evolve" and job.spec.get("kind") == "elliptic":
        return _check_elliptic_oracle(job, columns, rows)
    if job.command == "evolve" and "n" in job.spec:
        return _check_routes(job, columns, rows, outcome)
    return ""


def _check_routes(job: Job, columns: list[str], rows: list[list], outcome: Outcome) -> str:
    """Sampled closed rows against the route the CLI did not take."""
    import cohevol.closedform as closedform
    import cohevol.core as core

    n, mu, hbar, alpha = (job.spec[k] for k in ("n", "mu", "hbar", "alpha"))
    params = core.make_hyperbolic_params(1.0, mu, hbar)
    re_col = columns.index("re(f)")
    eligible = [
        row for row in rows
        if row[3] == "closed" and row[re_col] is not None
        and math.cos(8.0 * n * mu * hbar * float(row[0])) >= ROUTE_COS_MIN
    ]
    if not eligible:
        return "no closed rows in the reality domain"
    stride = max(1, len(eligible) // ROUTE_SAMPLES)
    for row in eligible[::stride][:ROUTE_SAMPLES]:
        t = float(row[0])
        value = _value(row, re_col)
        branch, integral = closedform.hyperbolic_xn_paths(n, alpha, params, t)
        other = integral if math.cos(8.0 * n * mu * hbar * t) > 0.0 else branch
        gap = abs(value - other) / abs(other)
        if n % 2:
            outcome.odd_route_gap = max(outcome.odd_route_gap, gap)
        elif gap > ROUTE_TOL:
            return f"route gap {gap:.3g} at t={t}"
    return ""


def _check_compare(job: Job, columns: list[str], rows: list[list]) -> str:
    """Every oracle row within 1e-6 of the closed form, which is recomputed."""
    import cohevol.closedform as closedform
    import cohevol.core as core

    spec = job.spec
    params = core.make_hyperbolic_params(spec["omega"], spec["mu"], spec["hbar"])
    for row in rows:
        if int(row[-1]) != 0:
            return f"unexpected collapse flag at t={row[0]}"
        t = float(row[0])
        closed = _value(row, columns.index("re(closed)"))
        oracle = _value(row, columns.index("re(oracle)"))
        if closed != closedform.hyperbolic_xn_average(spec["n"], spec["alpha"], params, t):
            return f"closed column differs from the library at t={t}"
        if abs(closed - oracle) > ORACLE_TOL * abs(oracle):
            return f"oracle deviation {abs(closed - oracle) / abs(oracle):.3g} at t={t}"
    return ""


def _check_elliptic_oracle(job: Job, columns: list[str], rows: list[list]) -> str:
    re_col = columns.index("re(f)")
    by_source: dict = {}
    for row in rows:
        by_source.setdefault(row[3], {})[row[0]] = _value(row, re_col)
    closed, oracle = by_source.get("closed", {}), by_source.get("oracle", {})
    if not oracle or closed.keys() != oracle.keys():
        return "oracle rows missing"
    for t, value in oracle.items():
        if abs(closed[t] - value) > ORACLE_TOL * abs(value):
            return f"oracle deviation {abs(closed[t] - value) / abs(value):.3g} at t={t}"
    return ""


def load_digests() -> list[str]:
    return json.loads((HERE / "digest.json").read_text(encoding="utf-8"))["tables"]


if __name__ == "__main__":
    # Print the table digests of the closed-sweep digest pass, for digest.json.
    import sys
    import tempfile

    sys.path.insert(0, str(HERE.parent / "src"))
    digests = []
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for i, job in enumerate(closed_sweep_pass(DIGEST_SEED, 0)):
            argv = prepare(job, Path(tmp), f"j{i}")
            if argv is not None:
                digests.append(table_digest(collect(job, argv, run_cli(argv)).text))
    print(json.dumps({"seed": DIGEST_SEED, "pass": 0, "tables": digests}, indent=1))

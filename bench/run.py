"""cohevol benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout::

    python3 bench/run.py --workload closed-sweep --seed 1 --seconds 30 --trace 0

Load comes from this process as a closed loop with one client: each job
starts when the previous one ends, and BLAS runs one thread.  Jobs come in
passes of a fixed stratified mix (see ``jobs.py``); passes run until the
next one would end after ``--seconds``, and at least one runs.  Every job's exit code and
outputs are checked; a job that fails counts in ``failed``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates each
untraced pass with a traced replay of the same jobs and reports the
per-layer metrics of the traced passes (see ``spans.py``) plus the tracing
overhead.  The last line of standard output is the result object; the line
before it is a human-readable summary.  Provenance, per-layer values and the
spans of the last traced pass are written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jobs as jobmod
from spans import Tracer, layer_metrics, mean_metrics

HERE = Path(__file__).resolve().parent
MIN_PASSES = 2  # the oracle-hyperbolic tail job sits in its dim-1024 group from two passes on
SETUP_RUNS = 7
# One BLAS thread (at most nproc).  On a 2-core machine a second OpenBLAS
# thread made the elliptic oracle's small-matrix calls 3-5x slower and its
# pass times vary by +-20%, while the dim-2048 hyperbolic pass gained only 11%.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A fresh interpreter importing cohevol and parsing one config: the set-up
# every CLI invocation pays.  argv: src directory, config path.
_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cohevol
t1 = time.perf_counter()
cohevol.harness.load_config(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "file": cohevol.__file__}))
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(root: Path, config: Path) -> dict:
    """Median wall time of fresh interpreters importing cohevol and parsing ``config``."""
    walls, imports, parses = [], [], []
    src = str(root / "src")
    for run in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-E", "-s", "-c", _SETUP_CHILD, src, str(config)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        wall = time.perf_counter() - start
        child = json.loads(done.stdout.strip().splitlines()[-1])
        if not Path(child["file"]).resolve().is_relative_to(root / "src"):
            raise RuntimeError(f"set-up imported cohevol from {child['file']}")
        if run == 0:
            continue  # the first start may compile bytecode
        walls.append(wall)
        imports.append(child["import_s"])
        parses.append(child["parse_s"])
    return {
        "setup_s": statistics.median(walls),
        "setup.import_s": statistics.median(imports),
        "setup.parse_s": statistics.median(parses),
    }


def _blas_threads() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs_dir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in glob.glob(str(libs_dir / "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    found[package.__name__] = getattr(lib, symbol)()
                    break
    return found


def _caches() -> list[dict]:
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append({
                key: (index / key).read_text().strip()
                for key in ("level", "type", "size", "shared_cpu_list")
            })
        except OSError:
            continue
    return caches


def _git_commit(root: Path) -> "str | None":
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(root: Path, nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((root / "src" / "cohevol").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "git_commit": _git_commit(root),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_caches": _caches(),
        "machine": platform.machine(),
    }


class Runner:
    """Runs jobs one after another, timing each and checking its outputs."""

    def __init__(self, tmpdir: Path, tracer) -> None:
        self.tmpdir = tmpdir
        self.tracer = tracer
        self.attempted = 0
        self.failures: dict[int, str] = {}  # job number -> first reason
        self.odd_route_gap = 0.0
        self.nonfinite = 0
        self._count = 0

    def fail(self, number: int, reason: str) -> None:
        self.failures.setdefault(number, reason)

    def run(self, jobs, traced: bool = False) -> tuple[list[float], list, list[int]]:
        """Run a job list; returns each job's latency, outcome and number."""
        latencies, outcomes, numbers = [], [], []
        for job in jobs:
            self._count += 1
            argv = jobmod.prepare(job, self.tmpdir, f"j{self._count}")
            self.tracer.job = self._count
            self.tracer.enabled = traced
            start = time.perf_counter()
            try:
                if job.kind == "cli":
                    outcome = jobmod.run_cli(argv)
                elif job.kind == "residual":
                    outcome = jobmod.run_residual(job, self.tracer if traced else None)
                else:
                    outcome = jobmod.run_paths(job)
            except Exception as exc:  # a traceback is a failed job, not a crashed run
                outcome = jobmod.Outcome(-1, error=f"{type(exc).__name__}: {exc}")
            latency = time.perf_counter() - start
            self.tracer.enabled = False
            jobmod.collect(job, argv, outcome)
            if traced:
                self.tracer.counts["cli.bytes_out"] += len(outcome.text.encode("utf-8"))
            try:
                reason = jobmod.check(job, outcome)
            except Exception as exc:  # unreadable output is a failed job
                reason = f"check raised {type(exc).__name__}: {exc}"
            self.odd_route_gap = max(self.odd_route_gap, outcome.odd_route_gap)
            self.nonfinite += outcome.nonfinite
            self.attempted += 1
            if reason:
                self.fail(self._count, f"{job.kind} {job.command}: {reason}")
            latencies.append(latency)
            outcomes.append(outcome)
            numbers.append(self._count)
        return latencies, outcomes, numbers


def job_tail(latencies: list[float]) -> tuple[float, float]:
    """Latency with ten samples beyond it, and the percentile that is."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "cohevol" / "__init__.py").is_file():
        print(f"bench: no cohevol sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    sys.path.insert(0, str(root / "src"))
    if args.workload not in jobmod.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r} (choose from {', '.join(jobmod.WORKLOADS)})", file=sys.stderr)
        return 2
    import cohevol

    if not Path(cohevol.__file__).resolve().is_relative_to(root / "src"):
        print(f"bench: cohevol imported from {cohevol.__file__}, not this checkout", file=sys.stderr)
        return 2

    region = jobmod.load_region() if args.workload == "oracle-hyperbolic" else None
    tmpdir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=root))
    tracer = Tracer()
    try:
        first = jobmod.make_pass(args.workload, args.seed, 0, region)
        setup_config = tmpdir / "setup.cfg"
        setup_config.write_text(next(j.config for j in first if j.kind == "cli"), encoding="utf-8")
        setup = measure_setup(root, setup_config)

        runner = Runner(tmpdir, tracer)
        # Warm-up, untimed: pass 0 of the digest seed, without its dim-1024 and
        # dim-2048 oracle jobs, so first calls and lazy imports are not timed.
        warm_up = [
            j for j in jobmod.make_pass(args.workload, jobmod.DIGEST_SEED, 0, region)
            if j.spec.get("dim", 0) <= 512
        ]
        _, outcomes, numbers = runner.run(warm_up)
        if args.workload == "closed-sweep":
            # Its output tables must match digest.json byte for byte.
            cli_jobs = [(o, k) for j, o, k in zip(warm_up, outcomes, numbers) if j.kind == "cli"]
            expected = jobmod.load_digests()
            if len(expected) != len(cli_jobs):
                expected = [""] * len(cli_jobs)  # a different job list: nothing matches
            for (outcome, number), digest in zip(cli_jobs, expected):
                if jobmod.table_digest(outcome.text) != digest:
                    runner.fail(number, "output table differs from digest.json")
        if args.trace:
            tracer.install()

        walls, latencies, traced_walls, overheads, per_pass = [], [], [], [], []
        start = time.perf_counter()
        index = 0
        while True:
            pass_start = time.perf_counter()
            batch = first if index == 0 else jobmod.make_pass(args.workload, args.seed, index, region)
            lat, _, _ = runner.run(batch)
            walls.append(sum(lat))
            latencies += lat
            if args.trace:
                tracer.reset()
                traced, _, _ = runner.run(batch, traced=True)
                traced_walls.append(sum(traced))
                overheads.append(sum(traced) - sum(lat))
                per_pass.append(layer_metrics(tracer))
            index += 1
            pass_time = time.perf_counter() - pass_start
            enough = index >= (1 if args.trace else MIN_PASSES)
            if enough and time.perf_counter() - start + pass_time > args.seconds:
                break
        tracer.uninstall()
        measured = time.perf_counter() - start

        tail, tail_pct = job_tail(latencies)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        end_to_end = {
            "setup_s": (setup["setup_s"], "s"),
            "wall_s": (statistics.median(walls), "s"),
            "job_p50_s": (statistics.median(latencies), "s"),
            "job_tail_s": (tail, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        failed = len(runner.failures)
        failed_frac = failed / runner.attempted
        samples = {
            "passes": index,
            "jobs_timed": len(latencies),
            "jobs_attempted": runner.attempted,
            "job_tail_percentile": round(tail_pct, 2),
            "job_tail_beyond": min(10, len(latencies) - 1),
            "setup_runs": SETUP_RUNS,
            "measured_s": measured,
        }
        if args.trace:
            layers = mean_metrics(per_pass)
            layers["setup.import_s"] = setup["setup.import_s"]
            layers["setup.parse_s"] = setup["setup.parse_s"]
            layers["trace.wall_s"] = statistics.median(traced_walls)
            layers["trace.overhead_s"] = statistics.median(overheads)
            units = _layer_units()
            metrics = {name: {"value": float(layers[name]), "unit": units[name]} for name in units}
        else:
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": provenance(root, nproc),
            "samples": samples,
            "end_to_end": {name: value for name, (value, _) in end_to_end.items()} | {"failed_frac": failed_frac},
            "metrics": metrics,
            "checks": {
                "odd_power_route_gap_max": runner.odd_route_gap,
                "nonfinite_route_values": runner.nonfinite,
            },
            "failures": {f"job {k}": v for k, v in runner.failures.items()},
        }
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        if args.trace:
            (out_dir / f"{stem}-spans.json").write_text(
                json.dumps({"columns": ["job", "name", "start", "end", "parent", "tag"], "spans": tracer.spans}) + "\n",
                encoding="utf-8",
            )
        for number, reason in list(runner.failures.items())[:20]:
            print(f"bench: FAILED job {number}: {reason}", file=sys.stderr)
        print("provenance " + json.dumps(record["provenance"] | {"seed": args.seed, "samples": samples}))
        summary = " ".join(f"{name}={value:.6g} {unit}" for name, (value, unit) in end_to_end.items())
        print(
            f"{args.workload}: {summary} failed_frac={failed_frac:.6g} ({failed}/{runner.attempted}) "
            f"job_tail at p{tail_pct:.1f} of {len(latencies)} jobs, {index} passes; "
            f"reported, not checked: odd-power route gap max {runner.odd_route_gap:.3g}, "
            f"non-finite route values {runner.nonfinite}"
        )
        print(json.dumps({
            "correct": failed == 0,
            "attempted": runner.attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        tracer.uninstall()
        shutil.rmtree(tmpdir, ignore_errors=True)


def _layer_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    raise SystemExit(main())

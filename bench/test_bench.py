"""Tests of the benchmark itself: job generators, validity regions, a smoke run per workload."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import spans  # noqa: E402

REGION = jobs.load_region()


def _poisson_tail(nbar: float, d: int) -> float:
    """P(K >= d) for K ~ Poisson(nbar): the true tail mass of a coherent state."""
    total, k = 0.0, d
    while True:
        term = math.exp(-nbar + k * math.log(nbar) - math.lgamma(k + 1))
        total += term
        if term < 1e-30 * total or k > d + 10_000:
            return total
        k += 1


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert jobs.make_pass(workload, 7, 3, REGION) == jobs.make_pass(workload, 7, 3, REGION)
    assert jobs.make_pass(workload, 7, 3, REGION) != jobs.make_pass(workload, 8, 3, REGION)
    assert jobs.make_pass(workload, 7, 3, REGION) != jobs.make_pass(workload, 7, 4, REGION)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_pass_has_the_same_mix(workload):
    def mix(seed, index):
        return [(j.kind, j.command, j.spec.get("dim"), j.spec.get("n")) for j in jobs.make_pass(workload, seed, index, REGION)]

    reference = mix(1, 0)
    assert all(mix(seed, index) == reference for seed in range(5) for index in range(5))


def test_oracle_jobs_have_distinct_keys():
    for workload in ("oracle-hyperbolic", "oracle-elliptic"):
        keys = [
            (j.spec["kind"], j.spec["omega"], j.spec["mu"], j.spec["hbar"])
            for index in range(40)
            for j in jobs.make_pass(workload, 11, index, REGION)
        ]
        assert len(set(keys)) == len(keys)


def test_hyperbolic_jobs_inside_the_sized_region():
    entries = {tuple(e[:5]): e[5] for e in REGION["entries"]}
    for index in range(40):
        for job, (dim, n) in zip(jobs.make_pass("oracle-hyperbolic", 5, index, REGION), jobs.HYPERBOLIC_SLOTS):
            spec = job.spec
            config = dict(line.split(" = ") for line in job.config.splitlines())
            t_max = float(config["t_max"])
            key = (spec["mu"], spec["hbar"], n, config["alpha"], t_max)
            assert entries[key] == dim == spec["dim"]
            assert abs(spec["omega"] - 1.0) <= REGION["omega_jitter"]
            assert t_max <= 0.8 * math.pi / (16.0 * spec["mu"] * n * spec["hbar"])
            assert int(config["oracle_dim_cap"]) == 2048


def test_region_is_inside_criterion_01_and_its_tolerance():
    for mu, hbar, n, alpha, t_max, dim, max_rel_dev in REGION["entries"]:
        assert mu in (0.05, 0.1) and hbar in (0.05, 0.1) and n in (1, 2)
        assert complex(alpha) in (0.5 + 0j, 1j, 0.5 + 0.3j, 1 + 1j)
        assert dim in (512, 1024, 2048)
        assert max_rel_dev < jobs.ORACLE_TOL


def test_elliptic_jobs_inside_the_tail_region():
    lo, hi = jobs.ELLIPTIC_NBAR
    # Every state passes the tail test at the first basis size with room to
    # spare, so the doubling protocol stops at 128.
    assert _poisson_tail(hi, 64) < 1e-20
    for index in range(40):
        for job in jobs.make_pass("oracle-elliptic", 9, index):
            config = dict(line.split(" = ") for line in job.config.splitlines())
            hbar = float(config["hbar"])
            nbar = abs(complex(config["alpha"])) ** 2 / hbar
            assert lo <= nbar <= hi
            assert jobs.ELLIPTIC_HBAR[0] <= hbar <= jobs.ELLIPTIC_HBAR[1]


def test_closed_sweep_library_jobs_inside_checked_regions():
    for index in range(20):
        for job in jobs.closed_sweep_pass(4, index):
            if job.kind == "residual":
                for mu, hbar, alpha, t in job.spec["points"]:  # criterion 03
                    assert 0.05 <= mu <= 0.12 and 0.15 <= hbar <= 0.35 and 0.1 <= t <= 0.35
                    assert abs(alpha.real) <= 1 and abs(alpha.imag) <= 1


def test_benchmark_json_names_match_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    reported = set(spans.layer_metrics(spans.Tracer())) | {
        "setup.import_s", "setup.parse_s", "trace.wall_s", "trace.overhead_s",
    }
    assert names == reported
    assert {w["name"] for w in spec["workloads"]} == set(jobs.WORKLOADS)


def _smoke(batch, expect):
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for number, job in enumerate(batch):
                argv = jobs.prepare(job, Path(tmp), f"j{number}")
                tracer.enabled = True
                if job.kind == "cli":
                    outcome = jobs.run_cli(argv)
                elif job.kind == "residual":
                    outcome = jobs.run_residual(job, tracer)
                else:
                    outcome = jobs.run_paths(job)
                tracer.enabled = False
                jobs.collect(job, argv, outcome)
                assert jobs.check(job, outcome) == ""
        metrics = spans.layer_metrics(tracer)
    finally:
        tracer.uninstall()
    expect(metrics)


def test_smoke_closed_sweep():
    def expect(m):
        assert m["cli.calls"] == 9 and m["closedform.calls"] > 0 and m["residual.calls"] > 0
        assert m["closedform.guard_hits"] > 0
        assert all(v == 0 for k, v in m.items() if k.startswith("fock."))

    _smoke(jobs.closed_sweep_pass(2, 0), expect)


def test_smoke_oracle_hyperbolic():
    batch = [j for j in jobs.make_pass("oracle-hyperbolic", 2, 0, REGION) if j.spec["dim"] == 512][:1]

    def expect(m):
        assert m["fock.max_dim"] == 512 and m["fock.eigh_calls"] > 0 and m["fock.oracle_calls"] == 3

    _smoke(batch, expect)


def test_smoke_oracle_elliptic():
    def expect(m):
        assert m["fock.max_dim"] == 128 and m["fock.oracle_calls"] == jobs.ELLIPTIC_POINTS
        assert m["fock.values_per_propagation"] == 0.5

    _smoke(jobs.make_pass("oracle-elliptic", 2, 0)[:1], expect)


def test_run_refuses_a_directory_without_the_package():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(HERE, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "closed-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
    assert done.returncode != 0
    assert done.stdout == ""

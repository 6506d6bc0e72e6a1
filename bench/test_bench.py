"""Tests of the benchmark itself: each checker counts a known-wrong output as
failed, and every workload runs end to end at a tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import platform
import random
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

run.load_package()

import checks  # noqa: E402
import workloads  # noqa: E402
from charge_ladder.dynamics import (  # noqa: E402
    Trajectory,
    TrajectorySample,
    acceleration_residual,
    integrate,
)
from charge_ladder.generators import (  # noqa: E402
    LadderState,
    certify_rational_integrals,
    lambda2_ladder,
)
from charge_ladder.numerics import ChargeSystem, EquilibriumReport, verify_equilibrium  # noqa: E402
from charge_ladder.polyrat import ExactPoly  # noqa: E402


@pytest.fixture(scope="module")
def certified():
    t, tau = workloads.ladder_chain(random.Random("checker-test"))
    p, q = lambda2_ladder(2, LadderState(2, t, tau))
    return p, q, certify_rational_integrals(p, q, 2)


def test_library_certificate_passes(certified):
    p, q, cert = certified
    assert checks.check_certificate("t", p, q, 2, cert, True).ok


def test_corrupted_antiderivative_is_counted_failed(certified):
    p, q, cert = certified
    anti = cert.antiderivatives[0]
    bad = replace(anti, rational_numerator=anti.rational_numerator + ExactPoly.one())
    wrong = replace(cert, antiderivatives=(bad,) + cert.antiderivatives[1:])
    result = checks.check_certificate("t", p, q, 2, wrong, True)
    assert not result.ok and checks.breaks_correctness(result)


def test_flipped_verdict_is_counted_failed(certified):
    p, q, _ = certified
    report = verify_equilibrium(p, q, 2)
    assert checks.check_verdict("t", "audit", True, report).ok
    flipped = EquilibriumReport(1.0, report.per_charge_forces, report.root_residuals,
                                report.tolerances)
    result = checks.check_verdict("t", "audit", True, flipped)
    # counted as a failed operation of the float layer, not as a wrong exact output
    assert not result.ok and result.kind == "numeric"
    assert not checks.breaks_correctness(result)


def test_drift_above_bound_is_counted_failed():
    system, t_end = workloads.step_budget_system(random.Random("checker-test"), 8, 20)
    traj = integrate(system, t_end)
    accel = acceleration_residual(system)
    assert all(o.ok for o in checks.check_trajectory("t", system, t_end, traj, accel))
    final = traj.final
    moved = list(final.system.positions)
    moved[0] += 1e-3
    drifted = TrajectorySample(final.t, ChargeSystem(moved, final.system.charges),
                               final.velocities, final.invariant + 1e-6)
    wrong = Trajectory(traj.samples[:-1] + [drifted], traj.steps_accepted,
                       traj.steps_rejected, traj.max_error_estimate)
    results = checks.check_trajectory("t", system, t_end, wrong, accel)
    assert [o.ok for o in results] == [True, False]
    assert checks.breaks_correctness(results[1])


def test_reference_bracket_rejects_an_obstructed_neighbour(certified):
    p, q, _ = certified
    assert checks.bracket_vanishes(p.coeffs, q.coeffs, 2)
    neighbour = workloads.obstructed_neighbour(random.Random(0), p, q)
    assert not checks.bracket_vanishes(neighbour.coeffs, q.coeffs, 2)
    cert = certify_rational_integrals(neighbour, q, 2)
    assert checks.check_certificate("t", neighbour, q, 2, cert, False).ok
    assert not checks.check_certificate("t", neighbour, q, 2, cert, True).ok


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_clean(name, trace):
    workload = workloads.build(name, seed=3, tiny=True)
    try:
        passes, tracer, _ = run.run_loop(workload, 0.0, trace)
    finally:
        workload.close()
    assert len(passes) == (2 if trace else 1)
    details, result = run.summarize(workload, passes, tracer, trace,
                                    {"spawned_s": [0.5, 0.4, 0.6]})
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert result["attempted"] == details["attempted"] > 0
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    json.dumps(result)


def test_loop_runs_the_minimum_passes_then_stops_at_the_deadline():
    workload = workloads.build("flow", seed=3, tiny=True)
    try:
        passes, _, _ = run.run_loop(workload, 0.0, False, min_passes=3)
    finally:
        workload.close()
    assert len(passes) == 3
    assert all(p["wall_s"] >= p["pass_s"] > 0 for p in passes)


def test_malloc_thresholds_are_fixed_on_glibc():
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("mallopt is glibc's")
    assert run.fix_malloc_thresholds() and run.MALLOC_FIXED


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".work-*"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

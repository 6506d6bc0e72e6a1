"""Layered benchmark of the charge-ladder pipeline.

    python3 bench/run.py --workload exact --seed 1 --seconds 45 --trace 0

One process runs a closed loop of passes over the workload's fixed task list,
one task at a time, for about --seconds (at least three passes; see
run_loop).  Every output is checked against an independent reference
(bench/checks.py).  The package is imported from the checkout's src/ only.

Standard output ends with two JSON lines: the details (environment, sample
counts, percentiles, per-task sizes, every failed operation) and the result
object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics from
spans recorded around each package call in bench/workloads.py and from the
untimed polyrat probes; the spans are written to bench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"     # with the main thread, at most nproc (2) threads
SETUP_REPEATS = 5      # fresh processes timed per run for setup_s
SMALL_REPEATS = 3      # calls per pass of each small-class task
MIN_PASSES = 3         # untraced passes per run, so each task has a median of 3 or more
# glibc mallopt parameters and the values fixed for them (see fix_malloc_thresholds)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD, TRIM_THRESHOLD = 32 << 20, 1 << 30
MALLOC_FIXED = False
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "large_task_s": "s", "small_tasks_s": "s",
                    "ok_frac": "ratio", "peak_rss_mb": "MB"}
SPAN_NAMES = (
    "polyrat.invert_mod", "polyrat.hermite_reduce", "polyrat.gcd_poly", "polyrat.divmod",
    "polyrat.integrate_rational", "polyrat.mul", "polyrat.wronskian",
    "generators.ladder", "generators.certify", "generators.certify_obstructed",
    "generators.adler_moser", "generators.am_wronskian", "generators.bracket",
    "spectral.ba_lambda1", "spectral.solve", "spectral.scale", "spectral.weight_search",
    "numerics.roots", "numerics.verify",
    "dynamics.acceleration", "dynamics.integrate",
    "cli.equilibrium", "cli.simulate",
)


def fix_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds, which it otherwise moves as the
    process frees memory.  With the moving thresholds the N=200 integration
    took 0.74 s or 1.6 s in one process depending on the heap's history: on
    the slow side every numpy temporary was a fresh mmap, 324 000 page faults
    per call.  Fixed, the temporaries are reused from the heap in every run.
    Returns False where the C library has no mallopt."""
    try:
        libc = ctypes.CDLL(None)
        return bool(libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                    and libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))
    except (OSError, AttributeError):
        return False


def load_package():
    """Fix the malloc thresholds, cap BLAS threads (before numpy loads) and
    import charge_ladder from src/."""
    global MALLOC_FIXED
    MALLOC_FIXED = fix_malloc_thresholds()
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import charge_ladder
    except ImportError as exc:
        raise SystemExit(f"error: cannot import charge_ladder from {SRC}: {exc}")
    origin = Path(charge_ladder.__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: charge_ladder came from {origin}, not from {SRC}")
    return charge_ladder


class Tracer:
    """Spans [name, task, pass, start, end, parent index], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.task = ""
        self.pass_no = 0

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else -1
        tr.spans.append([self.name, tr.task, tr.pass_no, time.perf_counter(), None, parent])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][4] = time.perf_counter()
        tr.stack.pop()
        return False


def task_facts(out: dict) -> dict:
    """Sizes and counts read off one task's outputs."""
    from charge_ladder.dynamics import Trajectory
    from charge_ladder.numerics import EquilibriumReport
    from charge_ladder.polyrat import ExactPoly
    import checks

    polys = []
    for value in out.values():
        value = getattr(value, "pair", value)   # SolveReport -> FieldPair
        if isinstance(value, ExactPoly):
            polys.append(value)
        elif isinstance(getattr(value, "p", None), ExactPoly):
            polys += [value.p, value.q]
    facts = {"degree": max((checks.degree(p.coeffs) for p in polys), default=0),
             "coeff_bits": max((checks.coeff_bits(p.coeffs) for p in polys), default=0),
             "bytes_out": out.get("bytes_out", 0)}
    report = out.get("report")
    if out.get("certified") and isinstance(report, EquilibriumReport):
        facts["max_force_certified"] = report.max_force_norm
    traj = out.get("traj")
    if isinstance(traj, Trajectory):
        facts.update(steps_accepted=traj.steps_accepted, steps_rejected=traj.steps_rejected,
                     drift_rel=traj.invariant_drift()[1])
    return facts


def run_pass(workload, tracer: Tracer, traced: bool) -> dict:
    """One pass over the task list.  Small-class tasks run SMALL_REPEATS times
    in a row (only the first is traced and counts towards pass_s) so their
    millisecond latencies get enough samples for a stable median."""
    import checks
    from workloads import NULL_TRACER

    ctx = dict(workload.context)
    latencies, ops, facts = {}, [], {}
    page_faults, begin = 0, time.perf_counter()
    for task in workload.tasks:
        tracer.task = task.id
        for rep in range(SMALL_REPEATS if task.size_class == "small" else 1):
            tr = tracer if traced and rep == 0 else NULL_TRACER
            gc.collect()  # a full collection owed to earlier tasks would land in this one
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            try:
                with tr.span("task"):
                    out = task.call(tr)
            except Exception as exc:  # count it and keep the loop running
                latencies.setdefault(task.id, []).append(time.perf_counter() - start)
                traceback.print_exc()
                ops.append(checks.op(task.id, "call", False,
                                     f"raised {type(exc).__name__}: {exc}"))
                continue
            latencies.setdefault(task.id, []).append(time.perf_counter() - start)
            page_faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            try:
                ops += task.check(out, ctx)
                facts[task.id] = task_facts(out)
            except Exception as exc:
                traceback.print_exc()
                ops.append(checks.op(task.id, "check", False,
                                     f"raised {type(exc).__name__}: {exc}"))
            if tr is tracer and task.probe is not None:
                with tr.span("probe"):
                    task.probe(tr, out)
    return {"traced": traced, "latencies": latencies, "ops": ops, "facts": facts,
            "pass_s": sum(samples[0] for samples in latencies.values()),
            "wall_s": time.perf_counter() - begin, "page_faults": page_faults}


def measure_setup(workload: str, seed: int, repeats: int) -> list[float]:
    """Spawn-to-ready time of fresh processes doing import, input build and
    warm-up.  They skip the flow pilots: those size the benchmark's own
    inputs, are no set-up a user of the package pays, and their cost varies
    with the seed's dynamics (2.6 to 5.2 s per process)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up process exited with {code}")
        times.append(elapsed)
    return times


def distribution(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "percentile": None, "value": None}
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            out["percentile"] = p
            out["value"] = ordered[max(0, math.ceil(p / 100 * n) - 1)]
            break
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(workload, passes: list[dict],
               setup_times: list[float]) -> tuple[dict, dict, dict]:
    """Metric values, timing distributions and per-task medians.

    pass_s is the sum over the task list of each task's median latency: the
    time of a typical pass, in which a slow spell of the shared host during
    one task of one pass moves one sample of that task and not the result."""
    large = [t.id for t in workload.tasks if t.size_class == "large"][0]
    small = [t.id for t in workload.tasks if t.size_class == "small"]
    dists = {
        "setup_s": distribution(setup_times),
        "pass_s": distribution([p["pass_s"] for p in passes]),
        "large_task_s": distribution([x for p in passes for x in p["latencies"][large]]),
    }
    medians = {t.id: statistics.median(x for p in passes for x in p["latencies"][t.id])
               for t in workload.tasks}
    values = {"setup_s": dists["setup_s"]["median"], "pass_s": sum(medians.values()),
              "large_task_s": dists["large_task_s"]["median"],
              "small_tasks_s": sum(medians[tid] for tid in small)}
    ops = [o for p in passes for o in p["ops"]]
    values["ok_frac"] = ratio(sum(o.ok for o in ops), len(ops))
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values, dists, medians


def per_layer(workload, tracer: Tracer, passes: list[dict]) -> dict:
    """Busy time per traced pass of each span name, and the layer counts."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    busy = {(no, name): 0.0 for no in range(len(passes)) for name in SPAN_NAMES}
    for name, _task, no, start, end, _parent in tracer.spans:
        if name in SPAN_NAMES:
            busy[no, name] += end - start
    traced_nos = [no for no, p in enumerate(passes) if p["traced"]]
    values = {f"{name}_s": statistics.median(busy[no, name] for no in traced_nos)
              for name in SPAN_NAMES}

    last = traced[-1]
    facts = last["facts"].values()
    all_facts = [f for p in passes for f in p["facts"].values()]
    values["polyrat.degree_max"] = max((f["degree"] for f in all_facts), default=0)
    values["polyrat.coeff_bits_max"] = max((f["coeff_bits"] for f in all_facts), default=0)

    ops = last["ops"]
    numeric_tasks = {o.task for o in ops if o.kind == "numeric"}
    charges = {t.id: t.charges for t in workload.tasks}
    values["numerics.charges"] = sum(charges[tid] for tid in numeric_tasks)
    verdicts = [o for o in ops if o.op in ("audit", "cli-verdict")]
    values["numerics.verdict_agree_frac"] = ratio(sum(o.ok for o in verdicts), len(verdicts))
    values["numerics.max_force_certified"] = max(
        (f["max_force_certified"] for f in facts if "max_force_certified" in f), default=0.0)

    flows = {tid: f for tid, f in last["facts"].items() if "steps_accepted" in f}
    accepted = sum(f["steps_accepted"] for f in flows.values())
    rejected = sum(f["steps_rejected"] for f in flows.values())
    integrate_busy = {}
    for name, task, no, start, end, _parent in tracer.spans:
        if name == "dynamics.integrate" and no == traced_nos[-1]:
            integrate_busy[task] = integrate_busy.get(task, 0.0) + end - start
    charge_steps = sum(charges[tid] * f["steps_accepted"] for tid, f in flows.items())
    values["dynamics.charge_steps_per_s"] = ratio(charge_steps, sum(integrate_busy.values()))
    values["dynamics.steps_accepted"] = accepted
    values["dynamics.steps_rejected"] = rejected
    values["dynamics.accept_frac"] = ratio(accepted, accepted + rejected)
    values["dynamics.drift_rel_max"] = max((f["drift_rel"] for f in flows.values()), default=0.0)
    values["cli.bytes_out"] = sum(f["bytes_out"] for f in facts)

    values["bench.trace_overhead_frac"] = ratio(
        statistics.median(p["pass_s"] for p in traced),
        statistics.median(p["pass_s"] for p in untraced)) - 1.0
    all_ops = [o for p in passes for o in p["ops"]]
    values["bench.failed_frac"] = ratio(sum(not o.ok for o in all_ops), len(all_ops))
    return values


PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in SPAN_NAMES},
    "polyrat.degree_max": "count", "polyrat.coeff_bits_max": "bits",
    "numerics.charges": "count", "numerics.verdict_agree_frac": "ratio",
    "numerics.max_force_certified": "force",
    "dynamics.charge_steps_per_s": "1/s", "dynamics.steps_accepted": "count",
    "dynamics.steps_rejected": "count", "dynamics.accept_frac": "ratio",
    "dynamics.drift_rel_max": "ratio", "cli.bytes_out": "bytes",
    "bench.trace_overhead_frac": "ratio", "bench.failed_frac": "ratio",
}


def git_commit() -> str:
    """HEAD of the checkout, read from its own .git (none in an exported tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    from charge_ladder import polyrat

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = git_commit()
    threads = None
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "commit": commit, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads_cap": {var: os.environ.get(var) for var in THREAD_VARS},
        "process_threads": threads, "nproc": os.cpu_count(),
        "malloc": {"fixed": MALLOC_FIXED, "mmap_threshold": MMAP_THRESHOLD,
                   "trim_threshold": TRIM_THRESHOLD},
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(), "package": str(Path(polyrat.__file__).parent),
    }


def prime_count():
    from charge_ladder import polyrat

    cache = getattr(polyrat, "_PRIME_CACHE", None)
    return len(cache) if cache is not None else None


def run_loop(workload, seconds: float, trace: bool,
             min_passes: int = 1) -> tuple[list[dict], Tracer, float]:
    """Closed loop of passes within ``seconds``: after ``min_passes`` untraced
    passes (and, with tracing, one traced pass; the two kinds alternate) a
    pass starts only if the last pass of its kind would have fit in the time
    left, so a run lasts about ``seconds`` however long a pass is."""
    tracer = Tracer()
    passes: list[dict] = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        untraced = sum(not p["traced"] for p in passes)
        if untraced >= min_passes and (not trace or untraced < len(passes)):
            last = [p["wall_s"] for p in passes if p["traced"] == traced][-1]
            if time.perf_counter() - begin + last > seconds:
                break
        tracer.pass_no = len(passes)
        passes.append(run_pass(workload, tracer, traced))
    return passes, tracer, time.perf_counter() - begin


def summarize(workload, passes: list[dict], tracer: Tracer, trace: bool,
              setup: dict) -> tuple[dict, dict]:
    """The details object and the result object of one run."""
    import checks

    untraced = [p for p in passes if not p["traced"]]
    values, dists, medians = end_to_end(workload, untraced, setup["spawned_s"])
    if trace:
        layer = per_layer(workload, tracer, passes)
        metrics = {name: {"value": v, "unit": PER_LAYER_UNITS[name]} for name, v in layer.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    ops = [o for p in passes for o in p["ops"]]
    failures: dict = {}
    for o in ops:
        if not o.ok:
            entry = failures.setdefault((o.task, o.op), {"task": o.task, "op": o.op,
                                                         "kind": o.kind, "detail": o.detail,
                                                         "count": 0})
            entry["count"] += 1
    sizes = {tid: f for p in passes for tid, f in p["facts"].items()}
    details = {
        "workload": workload.name, "environment": environment(),
        "loop": "closed, one task at a time", "passes": len(passes),
        "passes_traced": sum(p["traced"] for p in passes),
        "setup": setup, "timings": dists,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "page_faults": [p["page_faults"] for p in passes],
        "end_to_end": values, "attempted": len(ops),
        "failed": sum(f["count"] for f in failures.values()),
        "failures": list(failures.values()),
        "tasks": [{"id": t.id, "class": t.size_class, "charges": t.charges,
                   "degree": sizes.get(t.id, {}).get("degree"),
                   "coeff_bits": sizes.get(t.id, {}).get("coeff_bits"),
                   "median_s": medians[t.id]}
                  for t in workload.tasks],
    }
    result = {"correct": not any(checks.breaks_correctness(o) for o in ops),
              "attempted": len(ops), "failed": details["failed"], "metrics": metrics}
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("exact", "flow"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_package()
    import workloads

    if args.setup_only:
        workloads.build(args.workload, args.seed, sized=False).close()
        print("ready", flush=True)
        return 0

    setup_times = measure_setup(args.workload, args.seed, SETUP_REPEATS)
    start = time.perf_counter()
    workload = workloads.build(args.workload, args.seed)
    setup = {"spawned_s": setup_times, "in_process_s": time.perf_counter() - start,
             "prime_cache": prime_count()}
    try:
        passes, tracer, measured = run_loop(workload, args.seconds, bool(args.trace),
                                            1 if args.trace else MIN_PASSES)
    finally:
        workload.close()
    setup["prime_cache_after_passes"] = prime_count()
    details, result = summarize(workload, passes, tracer, bool(args.trace), setup)
    details.update(seed=args.seed, trace=args.trace, measured_s=measured)
    if args.trace:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(
            {"fields": ["name", "task", "pass", "start", "end", "parent"],
             "spans": tracer.spans}))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

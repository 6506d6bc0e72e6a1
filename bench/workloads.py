"""Seeded inputs and the fixed task list of one pass, for each workload.

A task has three parts.  ``call`` makes the package calls and is the only
part that is timed; it wraps each call in a tracer span named after the
layer.  ``check`` compares the outputs with the references in ``checks`` and
returns ``Op`` records.  ``probe`` (traced runs only, untimed) repeats the
polyrat kernels that generation and certification use on the task's own
polynomials, so each kernel gets its own span.

Inputs are built once per process from the seed and every pass repeats them.
Drawing fresh inputs each pass would change the i=4 certify time by up to 2x
and the failure count from pass to pass.  The flip side: a cache that keeps
results across calls would be credited for work it skips on the second and
later passes, so a change that adds one must say so.
"""

from __future__ import annotations

import io
import json
import math
import random
import shutil
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from charge_ladder import cli
from charge_ladder.dynamics import CollisionDetected, acceleration_residual, integrate
from charge_ladder.generators import (
    BracketParams,
    LadderState,
    adler_moser,
    adler_moser_wronskian,
    bracket,
    certify_rational_integrals,
    lambda2_ladder,
    psi_chain,
)
from charge_ladder.numerics import ChargeSystem, ConvergenceFailure, roots, verify_equilibrium
from charge_ladder.polyrat import (
    ExactPoly,
    gcd_poly,
    hermite_reduce,
    integrate_rational,
    invert_mod,
    is_squarefree,
    wronskian,
)
from charge_ladder.spectral import (
    ba_lambda1,
    bilinear_field_check,
    find_parameter_weight,
    scale_substitute,
    solve_p_given_q,
)

import checks

WORKLOADS = ("exact", "flow")
Z = ExactPoly.x()


@dataclass
class Task:
    id: str
    call: Callable[[Any], dict]
    check: Callable[[dict, dict], list]
    size_class: str = ""          # "large" (the headline task), "small" or ""
    probe: Callable[[Any, dict], None] | None = None
    charges: int = 0              # charges in the task's configurations


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    warmup: list[Task]
    workdir: Path | None = None
    context: dict = field(default_factory=dict)  # outputs later checks refer to

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


def constant(rng: random.Random) -> Fraction:
    """A generation constant: +-7/3, the sign drawn from the seed.

    Generation and certification cost follow the coefficient bit sizes, which
    follow the constants.  With the test fixtures' draw (numerators -4..4 over
    1..3) the i=4 certify time ranged over 2.0-4.4 s across three seeds, with
    +-5/3 over 2.8-4.6 s across six (242 to 294-bit coefficients); with +-7/3
    it stayed within 3.6-4.4 s across eight (269 to 286 bits).
    """
    return Fraction(rng.choice((-7, 7)), 3)


def small_rational(rng: random.Random) -> Fraction:
    """A parameter for the cheap field tasks: +-1/3 .. +-7/3."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), 3)


def attempt(fn, *args, errors=(ConvergenceFailure,)):
    """Call fn, returning the exception instead of raising for the float
    layer's loud failures, so the checker can count them."""
    try:
        return fn(*args)
    except errors as exc:
        return exc


def polyrat_probe(tr, p: ExactPoly, q: ExactPoly, lam) -> None:
    """The kernels certification and generation run, on one pair:
    gcd(p, p'), gcd(p, q), p*p, q**(2 lam), divmod(num, p*p),
    invert_mod(p' % p, p), hermite_reduce(num, p), integrate_rational(num, p*p)."""
    dp = p.derivative()
    with tr.span("polyrat.gcd_poly"):
        gcd_poly(p, dp)
    with tr.span("polyrat.gcd_poly"):
        gcd_poly(p, q)
    with tr.span("polyrat.mul"):
        pp = p * p
    with tr.span("polyrat.mul"):
        num = q ** int(2 * Fraction(lam))
    with tr.span("polyrat.divmod"):
        divmod(num, pp)
    residue = dp % p
    with tr.span("polyrat.invert_mod"):
        invert_mod(residue, p)
    with tr.span("polyrat.hermite_reduce"):
        hermite_reduce(num, p)
    with tr.span("polyrat.integrate_rational"):
        integrate_rational(num, pp)


def pair_probe(lam):
    return lambda tr, out: polyrat_probe(tr, out["p"], out["q"], lam)


def warm_prime_cache() -> None:
    """invert_mod on a low-degree modulus whose inverse has 6000-bit
    coefficients, so polyrat's process-lifetime prime list grows during set-up
    to the length the i=4 certificate needs (256 word-size primes)."""
    c = Fraction(3 ** 3800, 2 ** 6000 + 1)
    invert_mod(Z, Z * Z - ExactPoly.constant(c))


# ---------------------------------------------------------------------------
# ladder: the charge-ratio-2 pipeline (generate, certify, audit)
# ---------------------------------------------------------------------------

FACTORS = (Fraction(4, 3), Fraction(3, 4), Fraction(5, 4), Fraction(4, 5),
           Fraction(3, 2), Fraction(2, 3))


def obstructed_neighbour(rng: random.Random, p: ExactPoly, q: ExactPoly) -> ExactPoly | None:
    """p with one seeded coefficient scaled by a seeded factor, redrawn until
    it stays squarefree, coprime to q and off the equilibrium; None when p has
    no coefficient below its leading one (p_-1 = z).  A relative change keeps
    the forces large; an absolute small bump can leave max|F| under the 1e-8
    tolerance and make the expected verdict ambiguous."""
    slots = [d for d, c in enumerate(p.coeffs[:-1]) if c]
    for _ in range(100 if slots else 0):
        coeffs = list(p.coeffs)
        coeffs[rng.choice(slots)] *= rng.choice(FACTORS)
        cand = ExactPoly(coeffs)
        if (is_squarefree(cand) and gcd_poly(cand, q).degree == 0
                and not checks.bracket_vanishes(cand.coeffs, q.coeffs, 2)):
            return cand
    return None


def ladder_chain(rng: random.Random) -> tuple[dict, dict]:
    t = {s: constant(rng) for s in range(-5, 6)}
    tau = {s: constant(rng) for s in range(-5, 6)}
    t[-1] = Fraction(0)  # keeps the downward seed at p_{-1} = z, as in the tests
    return t, tau


def certified_task(i: int, t: dict, tau: dict, size_class: str) -> Task:
    state = LadderState(i, t, tau)

    def call(tr):
        with tr.span("generators.ladder"):
            p, q = lambda2_ladder(i, state)
        with tr.span("generators.certify"):
            cert = certify_rational_integrals(p, q, 2)
        with tr.span("numerics.verify"):
            report = attempt(verify_equilibrium, p, q, 2)
        return {"p": p, "q": q, "cert": cert, "report": report, "certified": True}

    def check(out, ctx):
        task = f"pair{i:+d}"
        return [checks.check_ladder_pair(task, i, out["p"], out["q"]),
                checks.check_certificate(task, out["p"], out["q"], 2, out["cert"], True),
                checks.check_verdict(task, "audit", True, out["report"])]

    charges = i * (3 * i + 2) + i * (3 * i - 1) // 2
    return Task(f"pair{i:+d}", call, check, size_class, pair_probe(2), charges)


def obstructed_task(i: int, p: ExactPoly, q: ExactPoly, size_class: str) -> Task:
    def call(tr):
        with tr.span("generators.certify_obstructed"):
            cert = certify_rational_integrals(p, q, 2)
        with tr.span("numerics.verify"):
            report = attempt(verify_equilibrium, p, q, 2)
        return {"p": p, "q": q, "cert": cert, "report": report}

    def check(out, ctx):
        task = f"obstructed{i:+d}"
        return [checks.check_certificate(task, p, q, 2, out["cert"], False),
                checks.check_verdict(task, "audit", False, out["report"])]

    return Task(f"obstructed{i:+d}", call, check, size_class, pair_probe(2),
                int(p.degree + q.degree))


def ladder_tasks(seed: int, tiny: bool) -> tuple[list[Task], list[Task]]:
    """Tasks and warm-up of the ladder part; pair+4 is the workload's headline."""
    rng = random.Random(f"ladder-{seed}")
    t, tau = ladder_chain(rng)
    top = 2 if tiny else 4
    tasks = []
    for k in range(1, top + 1):
        for i in (k, -k):
            size_class = "large" if i == top else "small" if k <= (1 if tiny else 2) else ""
            tasks.append(certified_task(i, t, tau, size_class))
            if k == top:  # the obstructed i=4 pair alone costs 5x its certified twin
                continue
            p, q = lambda2_ladder(i, LadderState(i, t, tau))
            neighbour = obstructed_neighbour(rng, p, q)
            if neighbour is not None:
                tasks.append(obstructed_task(i, neighbour, q, size_class))
    warm_t, warm_tau = ladder_chain(random.Random(f"ladder-warmup-{seed}"))
    return tasks, [certified_task(2, warm_t, warm_tau, "")]


# ---------------------------------------------------------------------------
# families: charge-ratio-1 chains and the field families
# ---------------------------------------------------------------------------


def adler_moser_task(n: int, constants: dict, size_class: str) -> Task:
    def call(tr):
        with tr.span("generators.adler_moser"):
            prev = adler_moser(n - 1, constants)
        with tr.span("generators.adler_moser"):
            theta = adler_moser(n, constants)
        with tr.span("generators.bracket"):
            br = bracket(prev, theta, BracketParams(1))
        return {"p": prev, "q": theta, "bracket": br}

    def check(out, ctx):
        task, theta = f"am{n}", out["q"]
        ok = (checks.degree(theta.coeffs) == n * (n + 1) // 2 and theta.lead == 1
              and checks.bracket_vanishes(out["p"].coeffs, theta.coeffs, 1))
        return [checks.op(task, "generate", ok, f"degree {theta.degree}"),
                checks.op(task, "bracket", out["bracket"].is_zero, "library lam=1 bracket")]

    return Task(f"am{n}", call, check, size_class, pair_probe(1), n * n)


def wronskian_task(n: int, psi: list, size_class: str) -> Task:
    def call(tr):
        with tr.span("generators.am_wronskian"):
            w = adler_moser_wronskian(n, psi)
        return {"w": w}

    def check(out, ctx):
        task, w = f"amw{n}", out["w"]
        ctx[task] = w
        prev = ctx.get(f"amw{n - 1}")
        ok = (checks.degree(w.coeffs) == n * (n + 1) // 2 and w.lead == 1 and prev is not None
              and checks.bracket_vanishes(prev.coeffs, w.coeffs, 1))
        return [checks.op(task, "generate", ok, f"degree {w.degree}, lam=1 bracket with W_{n - 1}")]

    def probe(tr, out):
        chain = psi_chain(n, psi)
        with tr.span("polyrat.wronskian"):
            wronskian(chain)

    return Task(f"amw{n}", call, check, size_class, probe, n * (n + 1) // 2)


def field_task(n: int, k: Fraction, new_k: Fraction, psi: list, size_class: str) -> Task:
    def call(tr):
        with tr.span("spectral.ba_lambda1"):
            pair = ba_lambda1(n, k, psi)
        with tr.span("spectral.solve"):
            report = solve_p_given_q(pair.q.monic(), 1, k)
        with tr.span("spectral.scale"):
            moved = scale_substitute(pair, new_k)
            residual = bilinear_field_check(moved)
        return {"pair": pair, "report": report, "moved": moved, "residual": residual}

    def check(out, ctx):
        task, pair, moved = f"ba{n}k{k}", out["pair"], out["moved"]
        deg = n * (n + 1) // 2
        ok_pair = (checks.degree(pair.p.coeffs) == deg == checks.degree(pair.q.coeffs)
                   and checks.bracket_vanishes(pair.p.coeffs, pair.q.coeffs, 1, k))
        report = out["report"]
        ok_solve = report.solved and report.pair.p == pair.p.monic()
        ok_scale = (out["residual"].is_zero
                    and checks.bracket_vanishes(moved.p.coeffs, moved.q.coeffs, 1, new_k))
        return [checks.op(task, "ba_lambda1", ok_pair, f"degrees {pair.p.degree}, {pair.q.degree}"),
                checks.op(task, "solve", ok_solve, f"status {report.status}"),
                checks.op(task, "scale", ok_scale, f"k {k} -> {new_k}")]

    return Task(f"ba{n}k{k}", call, check, size_class, charges=n * (n + 1))


def q2_family(t: Fraction) -> ExactPoly:
    return Z ** 3 + t * Z ** 2 + ((t * t + 6) / 3) * Z


def q2_task(j: int, t: Fraction) -> Task:
    def call(tr):
        with tr.span("spectral.solve"):
            report = solve_p_given_q(q2_family(t))
        return {"report": report}

    def check(out, ctx):
        report = out["report"]
        ok = report.solved and report.pair.p.coeffs == checks.field_p2(t)
        return [checks.op(f"q2-{j}", "solve", ok, f"t={t}, closed form")]

    return Task(f"q2-{j}", call, check, charges=9)


def weight_task(m: int) -> Task:
    def call(tr):
        with tr.span("spectral.weight_search"):
            w = find_parameter_weight(lambda s: adler_moser(m + 1, {m: s}))
        return {"weight": w}

    def check(out, ctx):
        return [checks.op(f"weight-t{m}", "weight", out["weight"] == 2 * m - 1,
                          f"found {out['weight']}, expected {2 * m - 1}")]

    return Task(f"weight-t{m}", call, check)


def field_weight_task() -> Task:
    def call(tr):
        with tr.span("spectral.weight_search"):
            wq = find_parameter_weight(q2_family)
        with tr.span("spectral.weight_search"):
            wp = find_parameter_weight(lambda s: solve_p_given_q(q2_family(s)).pair.p)
        return {"weights": (wq, wp)}

    def check(out, ctx):
        return [checks.op("weight-field", "weight", out["weights"] == (None, None),
                          f"found {out['weights']}, expected no weight")]

    return Task("weight-field", call, check)


def families_tasks(seed: int, tiny: bool) -> tuple[list[Task], list[Task], dict]:
    """Tasks, warm-up and check context of the families part."""
    rng = random.Random(f"families-{seed}")
    top, small, field_top = (5, 4, 3) if tiny else (10, 6, 7)
    label = lambda n: "small" if n <= small else ""
    while True:  # solve_p_given_q needs a squarefree q = W[psi_1..psi_n]
        psi = [(constant(rng), constant(rng)) for _ in range(top)]
        if all(is_squarefree(adler_moser_wronskian(n, psi)) for n in range(2, field_top + 1)):
            break
    tasks = [adler_moser_task(n, {m: constant(rng) for m in range(2, n + 1)}, label(n))
             for n in range(4, top + 1)]
    tasks += [wronskian_task(n, psi, label(n)) for n in range(4, top + 1)]
    for n in range(2, field_top + 1):
        for k in (Fraction(1), Fraction(3, 2)):
            tasks.append(field_task(n, k, small_rational(rng), psi, "small" if n <= small else ""))
    tasks += [q2_task(j, small_rational(rng)) for j in range(1 if tiny else 3)]
    tasks += [weight_task(m) for m in ((2,) if tiny else (2, 3, 4))]
    tasks.append(field_weight_task())
    warm = random.Random(f"families-warmup-{seed}")
    warm_psi = [(constant(warm), constant(warm)) for _ in range(4)]
    warmup = [adler_moser_task(4, {m: constant(warm) for m in range(2, 5)}, ""),
              field_task(2, Fraction(1), small_rational(warm), warm_psi, "")]
    # W_3 on the task chain: the lam=1 reference for amw4
    return tasks, warmup, {"amw3": adler_moser_wronskian(3, psi)}


def build_exact(seed: int, tiny: bool, sized: bool) -> Workload:
    """The ladder part, then the families part, in one pass."""
    ladder, ladder_warmup = ladder_tasks(seed, tiny)
    families, families_warmup, context = families_tasks(seed, tiny)
    return Workload("exact", ladder + families, ladder_warmup + families_warmup,
                    context=context)


# ---------------------------------------------------------------------------
# flow: root dynamics, float roots and the CLI
# ---------------------------------------------------------------------------


def separated_system(rng: random.Random, n: int, lam: float = 2.0,
                     min_sep: float = 0.35) -> ChargeSystem:
    """Uniform positions at the tests' density (8 charges in a 4x4 box),
    at least min_sep apart; charges +1, +1, -lam chosen at random."""
    box = 2.0 * math.sqrt(n / 8)
    zs: list[complex] = []
    while len(zs) < n:
        c = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(abs(c - w) > min_sep for w in zs):
            zs.append(c)
    return ChargeSystem(zs, [rng.choice((1.0, 1.0, -lam)) for _ in range(n)])


def step_budget_system(rng: random.Random, n: int, steps: int) -> tuple[ChargeSystem, float]:
    """A system and the t_end at which the integrator takes steps + 1 steps.

    The step count to a fixed t_end depends on the close encounters a random
    configuration happens to have (189 to 416 steps at N=200, t_end=0.5), so
    a fixed t_end would make the work differ by 2x between seeds.  Pilot
    integrations to growing horizons (the next one extrapolated from the step
    rate of the last two) find t_end halfway between the steps-th and next
    accepted step; the timed run then repeats the pilot's steps exactly.
    Systems that collide during a pilot are redrawn, as the tests do.
    """
    while True:
        system = separated_system(rng, n)
        pilots: list[tuple[float, int]] = []  # (horizon, samples)
        horizon = 0.05
        try:
            while True:
                traj = integrate(system, horizon)
                if len(traj.samples) > steps + 1:
                    break
                pilots.append((horizon, len(traj.samples)))
                horizon *= 2  # the first pilot is all step-size ramp-up
                if len(pilots) > 1:
                    (t0, n0), (t1, n1) = pilots[-2:]
                    rate = max(n1 - n0, 1) / (t1 - t0)
                    horizon = max(1.2 * t1, t1 + 1.15 * (steps + 2 - n1) / rate)
        except CollisionDetected:
            continue
        return system, (traj.samples[steps].t + traj.samples[steps + 1].t) / 2


def flow_task(name: str, system: ChargeSystem, t_end: float, size_class: str) -> Task:
    def call(tr):
        with tr.span("dynamics.acceleration"):
            accel = acceleration_residual(system)
        with tr.span("dynamics.integrate"):
            traj = attempt(integrate, system, t_end, errors=(RuntimeError,))
        return {"accel": accel, "traj": traj}

    def check(out, ctx):
        ctx[name] = out["traj"]
        return checks.check_trajectory(name, system, t_end, out["traj"], out["accel"])

    return Task(name, call, check, size_class, charges=len(system))


def roots_task(i: int, p: ExactPoly, q: ExactPoly) -> Task:
    def call(tr):
        with tr.span("numerics.roots"):
            zp = attempt(roots, p)
        with tr.span("numerics.roots"):
            zq = attempt(roots, q)
        return {"p": p, "q": q, "zp": zp, "zq": zq}

    def check(out, ctx):
        return [checks.check_roots(f"roots{i:+d}", "roots-p", p, out["zp"]),
                checks.check_roots(f"roots{i:+d}", "roots-q", q, out["zq"])]

    return Task(f"roots{i:+d}", call, check, probe=pair_probe(2),
                charges=int(p.degree + q.degree))


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_equilibrium_task(i: int, p: ExactPoly, q: ExactPoly, workdir: Path) -> Task:
    p_file, q_file = workdir / f"p{i:+d}.json", workdir / f"q{i:+d}.json"
    p_file.write_text(json.dumps(p.to_json()))
    q_file.write_text(json.dumps(q.to_json()))
    argv = ["equilibrium", str(p_file), str(q_file), "--lam", "2", "--format", "csv-positions"]

    def call(tr):
        with tr.span("cli.equilibrium"):
            code, text = run_cli(argv)
        return {"code": code, "text": text, "bytes_out": len(text.encode())}

    def check(out, ctx):
        return checks.check_csv_positions(f"cli-eq{i:+d}", p, q, 2.0, out["code"], out["text"])

    return Task(f"cli-eq{i:+d}", call, check, charges=int(p.degree + q.degree))


def cli_simulate_task(source: str, system: ChargeSystem, t_end: float, workdir: Path) -> Task:
    """simulate --init on the system of flow task ``source``, same t_end."""
    init, traj_file = workdir / "system.json", workdir / "trajectory.jsonl"
    init.write_text(json.dumps(system.to_json()))
    argv = ["simulate", "--init", str(init), "--t-end", repr(t_end), "--out", str(traj_file)]

    def call(tr):
        with tr.span("cli.simulate"):
            code, text = run_cli(argv)
        return {"code": code, "text": text,
                "bytes_out": len(text.encode()) + traj_file.stat().st_size}

    def check(out, ctx):
        return [checks.check_simulate("cli-simulate", out["code"], out["text"],
                                      traj_file.read_bytes(), ctx.get(source), t_end)]

    return Task("cli-simulate", call, check, charges=len(system))


def build_flow(seed: int, tiny: bool, sized: bool) -> Workload:
    """Without ``sized`` the step-budget pilots are skipped and every system
    gets a short placeholder t_end: enough for a set-up timing process."""
    rng = random.Random(f"flow-{seed}")

    def system_for(rng, n, steps):
        return step_budget_system(rng, n, steps) if sized else (separated_system(rng, n), 0.05)

    # N: (systems, step budget); the largest N is the headline and feeds the CLI.
    plan = {6: (1, 20), 10: (1, 20)} if tiny else {10: (4, 60), 50: (2, 120), 200: (1, 120)}
    top, small = max(plan), min(plan)
    tasks, systems = [], {}
    for n, (count, steps) in plan.items():
        for j in range(count):
            systems[f"n{n}-{j}"] = system_for(rng, n, steps)
            size_class = "large" if n == top else "small" if n == small else ""
            tasks.append(flow_task(f"n{n}-{j}", *systems[f"n{n}-{j}"], size_class))
    t, tau = ladder_chain(rng)
    pairs = {i: lambda2_ladder(i, LadderState(i, t, tau))
             for k in range(1, (1 if tiny else 3) + 1) for i in (k, -k)}
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=Path(__file__).parent))
    try:
        tasks += [roots_task(i, p, q) for i, (p, q) in pairs.items()]
        tasks += [cli_equilibrium_task(i, p, q, workdir) for i, (p, q) in pairs.items()]
        tasks.append(cli_simulate_task(f"n{top}-0", *systems[f"n{top}-0"], workdir))
        warm = random.Random(f"flow-warmup-{seed}")
        system, t_end = system_for(warm, 10, 20)
        warm_t, warm_tau = ladder_chain(warm)
        warm_p, warm_q = lambda2_ladder(1, LadderState(1, warm_t, warm_tau))
        warmup = [flow_task("warm", system, t_end, ""), roots_task(1, warm_p, warm_q)]
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    return Workload("flow", tasks, warmup, workdir)


BUILDERS = {"exact": build_exact, "flow": build_flow}


def build(name: str, seed: int, tiny: bool = False, sized: bool = True) -> Workload:
    """Inputs from the seed, then one warm-up pass over inputs outside the
    task list, which also grows polyrat's prime list (see warm_prime_cache).
    ``sized=False`` skips sizing the inputs (the flow pilots)."""
    workload = BUILDERS[name](seed, tiny, sized)
    try:
        ctx = dict(workload.context)
        for task in workload.warmup:
            task.check(task.call(NULL_TRACER), ctx)
        warm_prime_cache()
    except BaseException:
        workload.close()
        raise
    return workload


class _NullTracer:
    """Tracer stand-in used outside traced passes."""

    _span = nullcontext()

    def span(self, name: str):
        return self._span


NULL_TRACER = _NullTracer()

"""Independent references and the checkers that compare the package against them.

Nothing here imports charge_ladder.  Exact references clear denominators and
compare integer coefficient vectors; float references use numpy directly.
Library results are read through their public attributes only.

Every checker returns ``Op`` records.  An op that fails is counted; it never
raises.  ``kind`` says which layer produced the output:

* ``exact``   - generation, certification, field solving (ground truth);
* ``numeric`` - float roots and force verdicts;
* ``flow``    - the integrator;
* ``cli``     - the command-line front end.

A failed ``numeric`` op is the known defect class of the float layer (false
"not an equilibrium" verdicts on certified pairs): it is counted in
``failed`` but does not make the run incorrect.  A failure of any other kind
means an output disagrees with its exact reference, and the run reports
``correct: false``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

DRIFT_BOUND = 1e-8          # relative drift of the conserved quantity
ACCEL_BOUND = 1e-10         # initial acceleration_residual
ROOT_BACKWARD_BOUND = 1e-10  # |p(r)| / sum |a_k| |r|^k per located root


@dataclass(frozen=True)
class Op:
    task: str
    op: str
    kind: str
    ok: bool
    detail: str = ""


def op(task: str, name: str, ok: bool, detail: str = "", kind: str = "exact") -> Op:
    return Op(task, name, kind, bool(ok), detail)


def breaks_correctness(o: Op) -> bool:
    return not o.ok and o.kind != "numeric"


# ---------------------------------------------------------------------------
# exact polynomial references on integer vectors
# ---------------------------------------------------------------------------


def scaled(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer vector v and denominator d with coeffs == [x / d for x in v]."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def conv(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def deriv(a: Sequence[int]) -> list[int]:
    return [k * a[k] for k in range(1, len(a))]


def vanishes(terms: Iterable[tuple[Fraction, Sequence[int]]]) -> bool:
    """Whether sum(scale * vector) is the zero polynomial."""
    terms = [(Fraction(s), v) for s, v in terms]
    den = 1
    for s, _ in terms:
        den = den * s.denominator // math.gcd(den, s.denominator)
    acc = [0] * max((len(v) for _, v in terms), default=0)
    for s, v in terms:
        k = s.numerator * (den // s.denominator)
        for i, x in enumerate(v):
            acc[i] += k * x
    return not any(acc)


def bracket_vanishes(p: Sequence[Fraction], q: Sequence[Fraction], lam, k=0) -> bool:
    """p''q - 2 lam p'q' + lam^2 p q'' + 2k (p'q - lam q'p) == 0 (scale-free)."""
    lam, k = Fraction(lam), Fraction(k)
    P, _ = scaled(p)
    Q, _ = scaled(q)
    dP, dQ = deriv(P), deriv(Q)
    terms = [(1, conv(deriv(dP), Q)), (-2 * lam, conv(dP, dQ)), (lam * lam, conv(P, deriv(dQ)))]
    if k:
        terms += [(2 * k, conv(dP, Q)), (-2 * k * lam, conv(dQ, P))]
    return vanishes(terms)


def power(a: Sequence[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = conv(out, a)
    return out


def antiderivative_holds(num: Sequence[Fraction], den: Sequence[Fraction],
                         poly_part: Sequence[Fraction], c: Sequence[Fraction]) -> bool:
    """d/dz(poly_part + c/den) == num/den^2, i.e. P'D^2 + C'D - CD' == N."""
    N, dn = scaled(num)
    D, dd = scaled(den)
    P, dp = scaled(poly_part)
    C, dc = scaled(c)
    return vanishes([
        (Fraction(1, dp * dd * dd), conv(deriv(P), conv(D, D))),
        (Fraction(1, dc * dd), conv(deriv(C), D)),
        (Fraction(-1, dc * dd), conv(C, deriv(D))),
        (Fraction(-1, dn), N),
    ])


def degree(coeffs: Sequence[Fraction]) -> int:
    return len(coeffs) - 1


def coeff_bits(coeffs: Iterable[Fraction]) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
               default=0)


def field_p2(t: Fraction) -> tuple[Fraction, ...]:
    """Closed form of the degree-6 lam=2, k=1 partner of z^3 + t z^2 + ((t^2+6)/3) z."""
    t = Fraction(t)
    return (
        48 - 18 * t + 10 * t ** 2 - 3 * t ** 3 + Fraction(1, 3) * t ** 4,
        -48 + 66 * t - 28 * t ** 2 + 5 * t ** 3 - Fraction(1, 3) * t ** 4,
        112 - 90 * t + Fraction(76, 3) * t ** 2 - 3 * t ** 3 + Fraction(1, 9) * t ** 4,
        -96 + 52 * t - 10 * t ** 2 + Fraction(2, 3) * t ** 3,
        40 - 15 * t + Fraction(5, 3) * t ** 2,
        -9 + 2 * t,
        Fraction(1),
    )


# ---------------------------------------------------------------------------
# float references
# ---------------------------------------------------------------------------


def backward_errors(coeffs: Sequence[Fraction], zs: Sequence[complex]) -> np.ndarray:
    """|p(z)| / sum |a_k| |z|^k for each z, coefficients scaled exactly first."""
    scale = max(abs(c) for c in coeffs)
    a = [float(c / scale) for c in coeffs]
    z = np.asarray(zs, dtype=complex)
    val = np.zeros_like(z)
    mag = np.zeros(len(z))
    for c in reversed(a):
        val = val * z + c
        mag = mag * np.abs(z) + abs(c)
    return np.abs(val) / np.maximum(mag, np.finfo(float).tiny)  # mag == 0 only at a root z = 0


def invariant(positions: Sequence[complex], charges: Sequence[float]) -> complex:
    """H = sum Q_i v_i^2 - sum_{i<j} Q_i Q_j (Q_i + Q_j) / (z_i - z_j)^2."""
    z = np.asarray(positions, dtype=complex)
    q = np.asarray(charges, dtype=float)
    diff = z[:, None] - z[None, :]
    off = ~np.eye(len(z), dtype=bool)
    inv = np.zeros_like(diff)
    inv[off] = 1.0 / diff[off]
    v = (q[None, :] * inv).sum(axis=1)
    pair = q[:, None] * q[None, :] * (q[:, None] + q[None, :]) * inv * inv
    return complex((q * v * v).sum() - 0.5 * pair.sum())


def relative_drift(start: Sequence[complex], end: Sequence[complex],
                   charges: Sequence[float]) -> float:
    h0 = invariant(start, charges)
    return abs(invariant(end, charges) - h0) / (1.0 + abs(h0))


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def check_ladder_pair(task: str, i: int, p, q) -> Op:
    degrees = (degree(p.coeffs), degree(q.coeffs))
    expected = (i * (3 * i + 2), i * (3 * i - 1) // 2)
    ok = degrees == expected and bracket_vanishes(p.coeffs, q.coeffs, 2)
    return op(task, "generate", ok, f"degrees {degrees}, expected {expected}")


def check_certificate(task: str, p, q, lam, cert, rational: bool) -> Op:
    """A certified pair must carry two antiderivatives that differentiate back
    exactly; an obstructed pair must carry nonzero proper log numerators."""
    lam = Fraction(lam)
    if cert.rational != rational or cert.bracket_zero != rational:
        return op(task, "certify", False,
                  f"rational={cert.rational} bracket_zero={cert.bracket_zero}, expected {rational}")
    if not rational:
        ok = bool(cert.obstructions) and all(
            not o.log_numerator.is_zero and o.log_numerator.degree < o.log_denominator.degree
            for o in cert.obstructions)
        return op(task, "certify", ok, f"{len(cert.obstructions)} obstruction(s)")
    Q, dq = scaled(q.coeffs)
    P, dp = scaled(p.coeffs)
    e_q, e_p = int(2 * lam), int(2 / lam)
    sides = {
        tuple(p.coeffs): [Fraction(x, dq ** e_q) for x in power(Q, e_q)],
        tuple(q.coeffs): [Fraction(x, dp ** e_p) for x in power(P, e_p)],
    }
    ok = len(cert.antiderivatives) == 2
    for anti in cert.antiderivatives:
        den = tuple(anti.rational_denominator.coeffs)
        ok = ok and den in sides and antiderivative_holds(
            sides.pop(den), den, anti.polynomial_part.coeffs, anti.rational_numerator.coeffs)
    return op(task, "certify", ok, "antiderivatives differentiate back" if ok else
              "an antiderivative does not differentiate back to its integrand")


def check_verdict(task: str, name: str, equilibrium_expected: bool, report) -> Op:
    """The numeric verdict must agree with the exact one.  ``report`` is an
    EquilibriumReport or the exception the audit raised."""
    if isinstance(report, Exception):
        return op(task, name, False, f"raised {type(report).__name__}: {report}", "numeric")
    ok = report.equilibrium == equilibrium_expected
    return op(task, name, ok,
              f"max|F|={report.max_force_norm:.3e}, exact verdict "
              f"{'equilibrium' if equilibrium_expected else 'not an equilibrium'}", "numeric")


def check_roots(task: str, name: str, poly, zs) -> Op:
    if isinstance(zs, Exception):
        return op(task, name, False, f"raised {type(zs).__name__}: {zs}", "numeric")
    worst = float(backward_errors(poly.coeffs, zs).max())
    ok = len(zs) == degree(poly.coeffs) and worst <= ROOT_BACKWARD_BOUND
    return op(task, name, ok, f"{len(zs)} roots, worst backward error {worst:.1e}", "numeric")


def check_trajectory(task: str, system, t_end: float, traj, accel: float) -> list[Op]:
    """Initial acceleration identity, arrival at t_end, and conservation of H
    both as the library reports it and by the reference at the end points."""
    ops = [op(task, "acceleration", accel <= ACCEL_BOUND, f"residual {accel:.1e}", "flow")]
    if isinstance(traj, Exception):
        return ops + [op(task, "integrate", False, f"raised {type(traj).__name__}: {traj}", "flow")]
    lib_drift = traj.invariant_drift()[1]
    ref_drift = relative_drift(system.positions, traj.final.system.positions, system.charges)
    ok = traj.final.t == t_end and max(lib_drift, ref_drift) <= DRIFT_BOUND
    return ops + [op(task, "integrate", ok,
                     f"t={traj.final.t!r}, drift {lib_drift:.1e} (library) "
                     f"{ref_drift:.1e} (reference), {traj.steps_accepted} steps", "flow")]


def check_csv_positions(task: str, p, q, lam: float, code: int, text: str) -> list[Op]:
    """``equilibrium --format csv-positions`` on a certified pair: exit 0, one
    row per charge with the right charge, each position a root of its factor."""
    if code in (0, 1, 3):  # equilibrium, not an equilibrium, root-finder failure
        verdict = op(task, "cli-verdict", code == 0,
                     f"exit {code}, exact verdict equilibrium", "numeric")
    else:
        verdict = op(task, "cli-verdict", False, f"exit {code}", "cli")
    n, m = degree(p.coeffs), degree(q.coeffs)
    try:
        rows = [tuple(float(x) for x in line.split(",")) for line in text.splitlines()]
    except ValueError as exc:
        return [verdict, op(task, "cli-rows", False, f"unparsable row: {exc}", "cli")]
    ok = len(rows) == n + m and all(len(r) == 3 for r in rows)
    if ok:
        ok = [r[2] for r in rows] == [1.0] * n + [-lam] * m
    if ok:
        zs = [complex(r[0], r[1]) for r in rows]
        worst = max(float(backward_errors(p.coeffs, zs[:n]).max()),
                    float(backward_errors(q.coeffs, zs[n:]).max()))
        ok = worst <= ROOT_BACKWARD_BOUND
    return [verdict, op(task, "cli-rows", ok, f"{len(rows)} rows for {n}+{m} charges", "cli")]


def check_simulate(task: str, code: int, text: str, jsonl: bytes, traj, t_end: float) -> Op:
    """``simulate --init`` on the system the library integrated: same steps,
    one JSONL record per sample, and the same final state bit for bit."""
    if code != 0:
        return op(task, "cli-simulate", False, f"exit {code}", "cli")
    if isinstance(traj, Exception):
        return op(task, "cli-simulate", False, "no library trajectory to compare with", "cli")
    try:
        summary = json.loads(text)
        lines = jsonl.splitlines()
        last = json.loads(lines[-1])
    except (ValueError, IndexError) as exc:
        return op(task, "cli-simulate", False, f"unparsable output: {exc}", "cli")
    final = [[z.real, z.imag] for z in traj.final.system.positions]
    ok = (summary.get("status") == "ok"
          and summary.get("steps_accepted") == traj.steps_accepted
          and len(lines) == len(traj.samples)
          and last["t"] == t_end and last["positions"] == final)
    return op(task, "cli-simulate", ok,
              f"{len(lines)} records, {summary.get('steps_accepted')} steps "
              f"(library {traj.steps_accepted})", "cli")

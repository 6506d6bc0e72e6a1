"""Command-line interface.

Subcommands: generate, bracket, certify, equilibrium, solve-field, simulate.
All polynomial I/O uses the shared JSON format {"var": "z", "coeffs": [...]}
with rational strings in lowest terms.  Exit codes form a fixed table:

    0  success / criterion met
    1  negative outcome (bracket nonzero, integrals obstructed,
       not an equilibrium, system incompatible)
    2  usage error (malformed rationals, unsupported lambda, bad files,
       an unwritable simulate --out, non-finite charge systems, invalid
       tolerances)
    3  root-finder failure, including a polynomial float64 cannot hold, or
       float roots that coincide (equilibrium, simulate --p/--q), on a pair
       the exact layer accepted as squarefree and coprime
    4  collision detected during simulation
    5  integrator step-size underflow (simulate still writes the records
       and the summary, status "step-underflow")
    6  internal invariant violated (a bug, not a verdict on the input)
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
from fractions import Fraction

from . import __version__
from .dynamics import CollisionDetected, StepSizeUnderflow, integrate
from .generators import (
    LadderState,
    BracketParams,
    adler_moser,
    bracket,
    certify_rational_integrals,
    lambda2_ladder,
)
from .numerics import (
    DEFAULT_FORCE_TOL,
    ChargeSystem,
    CollisionError,
    ConvergenceFailure,
    verify_equilibrium,
)
from .polyrat import ExactPoly, InvariantViolation, _parse_rational, _rational_str
from .spectral import solve_p_given_q

_CONST_FLAG = re.compile(r"^--(t|tau)(-?\d+)$")


class UsageError(Exception):
    pass


def _parse_fraction(text: str) -> Fraction:
    try:
        return _parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def _parse_constants(flags: list[tuple[str, str | None]]) -> LadderState:
    """Collect the --tN / --tauN flags (N may be negative) and their values into a state."""
    t, tau = {}, {}
    for flag, text in flags:
        if text is None:
            raise UsageError(f"flag {flag} needs a value")
        kind, index = _CONST_FLAG.match(flag).groups()
        (t if kind == "t" else tau)[int(index)] = _parse_fraction(text)
    return LadderState(0, t, tau)


def _load_poly(path: str) -> ExactPoly:
    try:
        with open(path) as fh:
            return ExactPoly.from_json(json.load(fh))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read polynomial from {path}: {exc}") from exc


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_generate(args) -> int:
    constants = args.constants
    echo = {
        **{f"t{i}": _rational_str(v) for i, v in sorted(constants.t.items())},
        **{f"tau{i}": _rational_str(v) for i, v in sorted(constants.tau.items())},
    }
    if args.family == "adler-moser":
        if constants.tau:
            raise UsageError("the adler-moser family takes only --tN constants")
        theta = adler_moser(args.index, constants.t)
        _emit({
            "family": "adler-moser",
            "index": args.index,
            "theta": theta.to_json(),
            "degree": int(theta.degree),
            "constants": echo,
        })
        return 0
    p, q = lambda2_ladder(args.index, constants)
    _emit({
        "family": "lambda2",
        "index": args.index,
        "p": p.to_json(),
        "q": q.to_json(),
        "degrees": {"p": int(p.degree), "q": int(q.degree)},
        "constants": echo,
    })
    return 0


def cmd_bracket(args) -> int:
    p, q = _load_poly(args.p), _load_poly(args.q)
    result = bracket(p, q, BracketParams(_parse_fraction(args.lam), _parse_fraction(args.k)))
    _emit({
        "lambda": args.lam,
        "k": args.k,
        "bracket": result.to_json(),
        "is_zero": result.is_zero,
    })
    return 0 if result.is_zero else 1


def cmd_certify(args) -> int:
    p, q = _load_poly(args.p), _load_poly(args.q)
    cert = certify_rational_integrals(p, q, _parse_fraction(args.lam))
    _emit(cert.to_json())
    return 0 if cert.rational else 1


def cmd_equilibrium(args) -> int:
    p, q = _load_poly(args.p), _load_poly(args.q)
    report = verify_equilibrium(p, q, _parse_fraction(args.lam), _parse_fraction(args.k), args.tol)
    if args.format == "csv-positions":
        for z, qv in zip(report.system.positions, report.system.charges):
            sys.stdout.write(f"{z.real!r},{z.imag!r},{qv!r}\n")
    else:
        _emit(report.to_json())
    return 0 if report.equilibrium else 1


def cmd_solve_field(args) -> int:
    q = _load_poly(args.q)
    report = solve_p_given_q(q, _parse_fraction(args.lam), _parse_fraction(args.k))
    _emit(report.to_json())
    return 0 if report.solved else 1


def _initial_system(args) -> ChargeSystem:
    if args.init:
        if args.p or args.q:
            raise UsageError("simulate takes either --init or --p and --q, not both")
        try:
            with open(args.init) as fh:
                return ChargeSystem.from_json(json.load(fh))
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read initial condition from {args.init}: {exc}")
    if not (args.p and args.q):
        raise UsageError("simulate needs either --init or both --p and --q")
    return ChargeSystem.from_pair(_load_poly(args.p), _load_poly(args.q), _parse_fraction(args.lam))


def cmd_simulate(args) -> int:
    system = _initial_system(args)
    try:
        traj = integrate(system, args.t_end, rel_tol=args.rel_tol)
        code, status, extra = 0, "ok", {}
    except CollisionDetected as exc:
        traj, code, status = exc.trajectory, 4, "collision"
        extra = {"collision": {"time": exc.time, "pair": list(exc.pair)}}
    except StepSizeUnderflow as exc:
        traj, code, status, extra = exc.trajectory, 5, "step-underflow", {"detail": str(exc)}
    # --out opens only here, once integrate has checked its arguments
    try:
        out = contextlib.nullcontext(sys.stdout) if args.out in (None, "-") else open(args.out, "w")
    except OSError as exc:
        raise UsageError(f"cannot write trajectory to {args.out}: {exc}") from exc
    with out:
        for s in traj.samples:
            record = {
                "t": s.t,
                "positions": [[z.real, z.imag] for z in s.positions],
                "velocities": [[v.real, v.imag] for v in s.velocities],
                "H": [s.invariant.real, s.invariant.imag],
            }
            out.write(json.dumps(record) + "\n")
    h_abs, h_rel = traj.invariant_drift() if traj.samples else (0.0, 0.0)
    _emit({
        "status": status,
        "steps_accepted": traj.steps_accepted,
        "steps_rejected": traj.steps_rejected,
        "max_error_estimate": traj.max_error_estimate,
        "invariant_drift_abs": h_abs,
        "invariant_drift_rel": h_rel,
        "t_final": traj.samples[-1].t if traj.samples else 0.0,
        "tolerances": {"rel": args.rel_tol},
        **extra,
    })
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charge-ladder",
        description="Exact polynomial families for charge equilibria, their certificates and dynamics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a polynomial family member")
    g.add_argument("family", choices=["adler-moser", "lambda2"])
    g.add_argument("index", type=int)
    g.set_defaults(func=cmd_generate)

    b = sub.add_parser("bracket", help="evaluate the bilinear bracket of a pair")
    b.add_argument("p")
    b.add_argument("q")
    b.add_argument("--lam", default="1")
    b.add_argument("--k", default="0")
    b.set_defaults(func=cmd_bracket)

    c = sub.add_parser("certify", help="certify rationality of the attached integrals")
    c.add_argument("p")
    c.add_argument("q")
    c.add_argument("--lam", default="2")
    c.set_defaults(func=cmd_certify)

    e = sub.add_parser("equilibrium", help="verify zero net force at the roots")
    e.add_argument("p")
    e.add_argument("q")
    e.add_argument("--lam", default="2")
    e.add_argument("--k", default="0")
    e.add_argument("--tol", type=float, default=DEFAULT_FORCE_TOL)
    e.add_argument("--format", choices=["json", "csv-positions"], default="json")
    e.set_defaults(func=cmd_equilibrium)

    s = sub.add_parser("solve-field", help="solve the field equation for p given q")
    s.add_argument("q")
    s.add_argument("--lam", default="2")
    s.add_argument("--k", default="1")
    s.set_defaults(func=cmd_solve_field)

    m = sub.add_parser("simulate", help="integrate the root flow")
    m.add_argument("--init", help="JSON file with positions/charges")
    m.add_argument("--p")
    m.add_argument("--q")
    m.add_argument("--lam", default="2")
    m.add_argument("--t-end", type=float, default=1.0)
    m.add_argument("--rel-tol", type=float, default=1e-10)
    m.add_argument("--out", help="JSONL trajectory path ('-' for stdout)")
    m.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # a --tN/--tauN flag takes the token after it as its value wherever it
    # sits, so argparse never reads that value as generate's index
    rest, flags, tokens = [], [], iter(sys.argv[1:] if argv is None else argv)
    for token in tokens:
        if _CONST_FLAG.match(token):
            flags.append((token, next(tokens, None)))
        else:
            rest.append(token)
    args, extras = parser.parse_known_args(rest)
    try:
        # only generate takes flags beyond its parser: the --tN/--tauN constants
        if extras or flags and args.command != "generate":
            raise UsageError(f"unrecognized argument: {extras[0] if extras else flags[0][0]}")
        if args.command == "generate":
            args.constants = _parse_constants(flags)
        return args.func(args)
    except (ConvergenceFailure, CollisionError) as exc:
        # CollisionError is a ValueError, but it comes from the float roots
        # of a pair that passed the exact checks, not from the input.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())

import json
from fractions import Fraction as F

import pytest

from charge_ladder import cli
from charge_ladder.cli import main
from charge_ladder.dynamics import StepSizeUnderflow, integrate
from charge_ladder.generators import BracketParams, bracket
from charge_ladder.numerics import DEFAULT_FORCE_TOL, ChargeSystem
from charge_ladder.polyrat import ExactPoly, InvariantViolation
from conftest import FLOAT64_BEYOND_PAIRS

Z = ExactPoly.x()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def reject_non_finite(token):
    raise AssertionError(f"{token} is not strict JSON")


def write_poly(tmp_path, name, poly):
    path = tmp_path / name
    path.write_text(json.dumps(poly.to_json()))
    return str(path)


def test_generate_lambda2_pair(capsys):
    code, out, _ = run(capsys, "generate", "lambda2", "1", "--t1", "1")
    assert code == 0
    blob = json.loads(out)
    assert ExactPoly.from_json(blob["p"]) == Z ** 5 + 1
    assert ExactPoly.from_json(blob["q"]) == Z
    assert blob["degrees"] == {"p": 5, "q": 1}


def test_generate_adler_moser(capsys):
    code, out, _ = run(capsys, "generate", "adler-moser", "2", "--t2", "1")
    assert code == 0
    blob = json.loads(out)
    assert ExactPoly.from_json(blob["theta"]) == Z ** 3 + 1


def test_generate_trivial_ladder(capsys):
    code, out, _ = run(capsys, "generate", "lambda2", "0")
    assert code == 0
    blob = json.loads(out)
    assert ExactPoly.from_json(blob["p"]) == ExactPoly.one()
    assert ExactPoly.from_json(blob["q"]) == ExactPoly.one()


def test_generate_negative_branch_flags(capsys):
    code, out, _ = run(capsys, "generate", "lambda2", "-2", "--tau-1", "1", "--t-2", "0")
    assert code == 0
    blob = json.loads(out)
    expect = Z ** 8 + F(28, 5) * Z ** 6 + 14 * Z ** 4 + 28 * Z ** 2 - 7
    assert ExactPoly.from_json(blob["p"]) == expect


@pytest.mark.parametrize("argv", [["--t1", "-2", "1"], ["--tau1", "1/3", "2"]])
def test_generate_flag_before_the_index_keeps_its_value(capsys, argv):
    # the flag binds the token after it, so its value is never read as the
    # index: the output is the one with the flag after the index
    code, out, _ = run(capsys, "generate", "lambda2", *argv)
    assert code == 0
    blob = json.loads(out)
    assert (blob["index"], blob["constants"]) == (int(argv[2]), {argv[0][2:]: argv[1]})
    assert run(capsys, "generate", "lambda2", argv[2], *argv[:2]) == (0, out, "")


def test_generated_polynomials_round_trip(capsys):
    code, out, _ = run(capsys, "generate", "lambda2", "2", "--t1", "1/3", "--tau2", "-2/7")
    blob = json.loads(out)
    for key in ("p", "q"):
        poly = ExactPoly.from_json(blob[key])
        assert ExactPoly.from_json(json.loads(json.dumps(poly.to_json()))) == poly


def test_huge_coefficients_round_trip_through_files(tmp_path, capsys):
    # 3^11000 has 5249 digits, past the interpreter's 4300-digit int/str
    # limit, on the way in and on the way out
    big = F(3 ** 11000, 7)
    p = Z ** 2 + big * Z - 1
    q = Z + F(1, 2)
    code, out, _ = run(capsys, "bracket", write_poly(tmp_path, "p.json", p),
                       write_poly(tmp_path, "q.json", q), "--lam", "1")
    assert code == 1
    assert ExactPoly.from_json(json.loads(out)["bracket"]) == bracket(p, q, BracketParams(1))


@pytest.mark.parametrize("coeff", ["1//2", "abc", "", "1/2/3", "0x10", "1/0", "1" * 5000 + "x"])
def test_malformed_coefficient_exits_2(tmp_path, capsys, coeff):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"var": "z", "coeffs": ["1", coeff, "1"]}))
    code, _, err = run(capsys, "bracket", str(path), write_poly(tmp_path, "q.json", Z), "--lam", "1")
    assert code == 2
    assert "cannot read polynomial" in err


def test_generate_malformed_rational_exits_2(capsys):
    code, _, err = run(capsys, "generate", "lambda2", "1", "--t1", "1//2")
    assert code == 2
    assert "rational" in err


def test_generate_rationals_past_the_int_str_digit_limit(capsys):
    # 4400 digits, past the interpreter's 4300-digit int/str limit, as flag
    # values and in the echoed constants
    digits, value = "7" * 4400, 7 * (10 ** 4400 - 1) // 9
    code, out, _ = run(capsys, "generate", "lambda2", "1", "--t1", digits, "--tau1", f"-{digits}/3")
    assert code == 0
    blob = json.loads(out)
    assert blob["constants"] == {"t1": digits, "tau1": f"-{digits}/3"}
    assert ExactPoly.from_json(blob["q"]) == Z - F(value, 3)
    assert ExactPoly.from_json(blob["p"]).coeff(0) == value


def test_generate_unknown_flag_exits_2(capsys):
    code, _, err = run(capsys, "generate", "lambda2", "1", "--bogus", "3")
    assert code == 2


@pytest.mark.parametrize("command", ["bracket", "certify", "equilibrium", "solve-field", "simulate"])
def test_stray_argument_exits_2(tmp_path, capsys, command):
    p = write_poly(tmp_path, "p.json", Z ** 5 + 1)
    q = write_poly(tmp_path, "q.json", Z)
    inputs = {"solve-field": [q], "simulate": ["--p", p, "--q", q]}.get(command, [p, q])
    code, out, err = run(capsys, command, *inputs, "--bogus", "1")
    assert (code, out) == (2, "")
    assert err == "error: unrecognized argument: --bogus\n"


def test_certify_rational_pair(tmp_path, capsys):
    p = write_poly(tmp_path, "p.json", Z ** 5 + 1)
    q = write_poly(tmp_path, "q.json", Z)
    code, out, _ = run(capsys, "certify", p, q, "--lam", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["bracket_zero"] is True
    assert len(blob["antiderivatives"]) == 2


def test_certify_obstructed_exits_1(tmp_path, capsys):
    p = write_poly(tmp_path, "p.json", Z ** 2 - 1)
    q = write_poly(tmp_path, "q.json", Z)
    code, out, _ = run(capsys, "certify", p, q, "--lam", "1")
    assert code == 1
    assert json.loads(out)["obstructions"]


def test_certify_unsupported_lambda_exits_2(tmp_path, capsys):
    p = write_poly(tmp_path, "p.json", Z ** 5 + 1)
    q = write_poly(tmp_path, "q.json", Z)
    code, _, err = run(capsys, "certify", p, q, "--lam", "3")
    assert code == 2


def test_equilibrium_positive(tmp_path, capsys):
    p = write_poly(tmp_path, "p.json", Z ** 5 + 1)
    q = write_poly(tmp_path, "q.json", Z)
    code, out, _ = run(capsys, "equilibrium", p, q, "--lam", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["max_force_norm"] < 1e-8


def test_equilibrium_field_pair(tmp_path, capsys):
    p = write_poly(tmp_path, "p.json", Z ** 2 - 3 * Z + 3)
    q = write_poly(tmp_path, "q.json", Z)
    code, out, _ = run(capsys, "equilibrium", p, q, "--lam", "2", "--k", "1")
    assert code == 0


def test_equilibrium_negative_exits_1(tmp_path, capsys):
    p = write_poly(tmp_path, "p.json", Z ** 2 - 1)
    q = write_poly(tmp_path, "q.json", Z)
    code, out, _ = run(capsys, "equilibrium", p, q, "--lam", "1")
    assert code == 1
    # an absurdly loose tolerance flips the verdict
    code, out, _ = run(capsys, "equilibrium", p, q, "--lam", "1", "--tol", "10.0")
    assert code == 0
    assert json.loads(out)["tolerances"]["force"] == 10.0


def test_equilibrium_env_tolerance(tmp_path, capsys, monkeypatch):
    # the tolerance comes from --tol alone: CHARGE_LADDER_TOL no longer flips the verdict
    monkeypatch.setenv("CHARGE_LADDER_TOL", "10.0")
    p = write_poly(tmp_path, "p.json", Z ** 2 - 1)
    q = write_poly(tmp_path, "q.json", Z)
    code, out, _ = run(capsys, "equilibrium", p, q, "--lam", "1")
    assert code == 1
    assert json.loads(out)["tolerances"]["force"] == DEFAULT_FORCE_TOL


def test_equilibrium_csv_positions(tmp_path, capsys):
    p = write_poly(tmp_path, "p.json", Z ** 2 - 3 * Z + 3)
    q = write_poly(tmp_path, "q.json", Z)
    code, out, _ = run(capsys, "equilibrium", p, q, "--lam", "2", "--k", "1",
                       "--format", "csv-positions")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 3
    assert [float(r[2]) for r in rows] == [1.0, 1.0, -2.0]


def test_equilibrium_coincident_float_roots_exit_3(tmp_path, capsys):
    # exactly squarefree, but the two roots round to one double
    p = write_poly(tmp_path, "p.json", (Z - 1) * (Z - 1 - F(1, 10 ** 12)))
    q = write_poly(tmp_path, "q.json", Z)
    for argv in (["equilibrium", p, q], ["simulate", "--p", p, "--q", q]):
        code, out, err = run(capsys, *argv, "--lam", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("error: charges 0 and 1 within")


def test_internal_invariant_violation_exits_6(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantViolation("ladder degrees drifted")

    monkeypatch.setattr(cli, "lambda2_ladder", broken)
    code, out, err = run(capsys, "generate", "lambda2", "2")
    assert (code, out) == (6, "")
    assert err == "error: internal invariant violated: ladder degrees drifted\n"


def test_solve_field_solved(tmp_path, capsys):
    q = write_poly(tmp_path, "q.json", Z)
    code, out, _ = run(capsys, "solve-field", q)
    assert code == 0
    blob = json.loads(out)
    assert ExactPoly.from_json(blob["p"]) == Z ** 2 - 3 * Z + 3


def test_solve_field_incompatible_exits_1(tmp_path, capsys):
    q = write_poly(tmp_path, "q.json", Z ** 3 + Z ** 2 + Z)
    code, out, _ = run(capsys, "solve-field", q)
    assert code == 1
    assert json.loads(out)["status"] == "incompatible"


def test_solve_field_t2_family(tmp_path, capsys):
    q = write_poly(tmp_path, "q.json", Z ** 3 + 2 * Z)
    code, out, _ = run(capsys, "solve-field", q)
    assert code == 0
    blob = json.loads(out)
    assert ExactPoly.from_json(blob["p"]) == ExactPoly([48, -48, 112, -96, 40, -9, 1])


def test_simulate_collision_exit_4(tmp_path, capsys):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"positions": [[1, 0], [-1, 0]], "charges": [1, -2]}))
    out_path = tmp_path / "traj.jsonl"
    code, out, _ = run(capsys, "simulate", "--init", str(init), "--t-end", "3",
                       "--out", str(out_path))
    assert code == 4
    summary = json.loads(out)
    assert summary["status"] == "collision"
    assert abs(summary["collision"]["time"] - 2.0) < 1e-3
    lines = out_path.read_text().strip().splitlines()
    assert lines and all("positions" in json.loads(line) for line in lines)


def test_simulate_ok_with_drift_summary(tmp_path, capsys):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"positions": [[1, 0], [-1, 0]], "charges": [1, 1]}))
    out_path = tmp_path / "traj.jsonl"
    code, out, _ = run(capsys, "simulate", "--init", str(init), "--t-end", "1",
                       "--out", str(out_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["status"] == "ok" and summary["tolerances"] == {"rel": 1e-10}
    assert summary["invariant_drift_rel"] < 1e-8
    record = json.loads(out_path.read_text().splitlines()[0])
    assert set(record) == {"t", "positions", "velocities", "H"}


def test_simulate_records_equal_every_library_sample(tmp_path, capsys):
    # bit for bit, signed zeros included (repr tells them apart): a charge
    # starts at the origin as -0.0 - 0.0j, which the records keep, and every
    # imaginary part is zero
    system = ChargeSystem([-1, complex(-0.0, -0.0), 1.5], [1.0, 1.0, 1.0])
    init = tmp_path / "init.json"
    init.write_text(json.dumps(system.to_json()))
    out_path = tmp_path / "traj.jsonl"
    code, _, _ = run(capsys, "simulate", "--init", str(init), "--t-end", "1",
                     "--out", str(out_path))
    assert code == 0
    expect = [{"t": s.t,
               "positions": [[z.real, z.imag] for z in s.system.positions],
               "velocities": [[v.real, v.imag] for v in s.velocities],
               "H": [s.invariant.real, s.invariant.imag]}
              for s in integrate(system, 1.0).samples]
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(records) > 2 and repr(records) == repr(expect)
    assert repr(expect[0]["positions"][1]) == "[-0.0, -0.0]"


def test_simulate_short_horizon(tmp_path, capsys):
    # a horizon far below 1 runs: the minimum step is relative, not absolute
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"positions": [[0, 0], [1, 0]], "charges": [1, 1]}))
    code, out, _ = run(capsys, "simulate", "--init", str(init), "--t-end", "1e-15",
                       "--out", str(tmp_path / "traj.jsonl"))
    assert code == 0
    assert json.loads(out)["status"] == "ok"


def test_simulate_from_pair(tmp_path, capsys):
    p = write_poly(tmp_path, "p.json", Z ** 5 + 1)
    q = write_poly(tmp_path, "q.json", Z)
    out_path = tmp_path / "traj.jsonl"
    code, out, _ = run(capsys, "simulate", "--p", p, "--q", q, "--lam", "2",
                       "--t-end", "1", "--out", str(out_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["status"] == "ok"


def test_simulate_from_pair_validates_pair(tmp_path, capsys):
    pairs = [(Z ** 2 * (Z - 3), Z - 1, "p must be nonzero and squarefree"),
             (Z * (Z - 3), Z * (Z + 2), "p and q share a root")]
    for p_poly, q_poly, message in pairs:
        p, q = write_poly(tmp_path, "p.json", p_poly), write_poly(tmp_path, "q.json", q_poly)
        for argv in (["simulate", "--p", p, "--q", q], ["equilibrium", p, q], ["certify", p, q]):
            code, out, err = run(capsys, *argv, "--lam", "2")
            assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flags", [
    ["--t-end", "nan"], ["--t-end", "inf"], ["--t-end", "0"],
    ["--rel-tol", "nan"], ["--abs-tol", "1e-12"], ["--rel-tol", "0"],  # --abs-tol: no such flag
    ["--rel-tol", "inf"], ["--rel-tol=-1e-10"],
])
def test_simulate_invalid_horizon_or_tolerance_exits_2_without_output(tmp_path, capsys, flags):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"positions": [[1, 0], [-1, 0]], "charges": [1, 1]}))
    out_path = tmp_path / "traj.jsonl"
    code, out, err = run(capsys, "simulate", "--init", str(init), *flags, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert not out_path.exists()


def test_simulate_step_underflow_exit_5(tmp_path, capsys):
    # the run keeps what it computed: one record per sample of the partial
    # trajectory, and the summary every ending writes, with the detail
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"positions": [[1, 0], [-1, 0], [0, 1]], "charges": [1, 1, -2]}))
    out_path = tmp_path / "traj.jsonl"
    code, out, _ = run(capsys, "simulate", "--init", str(init), "--rel-tol", "1e-100",
                       "--out", str(out_path))
    assert code == 5
    with pytest.raises(StepSizeUnderflow) as info:
        integrate(ChargeSystem([1, -1, 1j], [1.0, 1.0, -2.0]), 1.0, rel_tol=1e-100)
    traj = info.value.trajectory
    summary = json.loads(out)
    assert summary["status"] == "step-underflow" and summary["detail"] == str(info.value)
    assert (summary["steps_accepted"], summary["steps_rejected"]) == (
        traj.steps_accepted, traj.steps_rejected)
    assert summary["steps_rejected"] > 0 and summary["t_final"] == info.value.time
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [r["t"] for r in records] == [s.t for s in traj.samples]


@pytest.mark.parametrize("target", ["missing/traj.jsonl", "."])
def test_simulate_unwritable_out_exits_2(tmp_path, capsys, target):
    # a path that cannot be opened for writing, in a missing directory or a
    # directory itself, is a usage error with an error line, not a traceback
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"positions": [[1, 0], [-1, 0]], "charges": [1, 1]}))
    out_path = tmp_path / target
    code, out, err = run(capsys, "simulate", "--init", str(init), "--t-end", "0.01",
                         "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write trajectory to {out_path}: ")


# JSON input files by name: all but init.json of the wrong shape, with
# non-finite numbers or with pair distances whose squares leave float64
MALFORMED = {
    "coeffs-int.json": '{"coeffs": 5}',
    "coeffs-null.json": '{"coeffs": [null, 1]}',
    "coeffs-array.json": '{"coeffs": [[1], 1]}',
    "coeffs-string.json": '{"coeffs": "12"}',  # a string, not an array of digits
    "coeffs-inf.json": '{"coeffs": [1e400, 1]}',
    "coeffs-float.json": '{"coeffs": [0.1, 1]}',  # 0.1 has no exact binary value
    "field-short.json": '{"positions": [[1, 0], [-1, 0]], "charges": [1, 1], "field": [1]}',
    "charges-int.json": '{"positions": [[1, 0], [-1, 0]], "charges": 5}',
    "positions-int.json": '{"positions": 3, "charges": [1, 1]}',
    "charge-null.json": '{"positions": [[1, 0], [-1, 0]], "charges": [1, null]}',
    "position-string.json": '{"positions": [["x", 0], [-1, 0]], "charges": [1, 1]}',
    "system-array.json": '[[1, 0], [-1, 0]]',
    "position-int.json": '{"positions": [[1%s, 0], [-1, 0]], "charges": [1, 1]}' % ("0" * 400),
    "position-inf.json": '{"positions": [[1e400, 0], [-1, 0]], "charges": [1, 1]}',
    "position-nan.json": '{"positions": [[NaN, 0], [-1, 0]], "charges": [1, 1]}',
    "charge-inf.json": '{"positions": [[1, 0], [-1, 0]], "charges": [1e400, 1]}',
    "field-inf.json": '{"positions": [[1, 0], [-1, 0]], "charges": [1, 1], "field": [0, 1e400]}',
    "positions-far.json": '{"positions": [[1e160, 0], [0, 0]], "charges": [1, 1]}',
    "positions-near.json": '{"positions": [[1e-160, 0], [0, 0]], "charges": [1, 1]}',
    "init.json": '{"positions": [[1, 0], [-1, 0]], "charges": [1, 1]}',
}


# in_json, where given, is the text of in.json for that case alone
@pytest.mark.parametrize("argv, in_json, message", [
    (["generate", "lambda2", "1", "--t1"], None, "flag --t1 needs a value"),
    (["generate", "adler-moser", "-1"], None, "Adler-Moser index must be >= 0"),
    (["simulate", "--init", "missing.json"], None, "cannot read initial condition"),
    # JSON true and false are ints to Python, but neither a coefficient nor a number
    (["certify", "in.json", "q.json"], '{"coeffs": [true, false, 1]}',
     "cannot read polynomial from in.json: polynomial JSON"),
    *((["certify", name, "q.json"], None, f"cannot read polynomial from {name}: polynomial JSON")
      for name in ("coeffs-int.json", "coeffs-null.json", "coeffs-array.json",
                   "coeffs-string.json", "coeffs-inf.json")),
    *((["simulate", "--init", name], None, f"cannot read initial condition from {name}")
      for name in ("field-short.json", "charges-int.json", "positions-int.json",
                   "charge-null.json", "position-string.json", "system-array.json",
                   "position-int.json")),
    *((["simulate", "--init", name], None,
       f"cannot read initial condition from {name}: positions, charges and field must be finite")
      for name in ("position-inf.json", "position-nan.json", "charge-inf.json", "field-inf.json")),
    (["simulate", "--init", "init.json", "--p", "p.json"], None, "simulate takes either --init"),
    (["simulate", "--init", "init.json", "--q", "q.json"], None, "simulate takes either --init"),
    *((["equilibrium", "p.json", "q.json", "--tol", tol], None, "tol must be positive and finite")
      for tol in ("nan", "inf", "0", "-1")),
    (["simulate", "--init", "in.json"], '{"positions": [[true, 0], [-1, 0]], "charges": [1, 1]}',
     "cannot read initial condition from in.json: not a charge system: True is not a number"),
    (["simulate", "--init", "in.json"], '{"positions": [[1, 0], [-1, 0]], "charges": [1, 1], '
     '"field": false}', "cannot read initial condition from in.json: not a charge system: False"),
    *((["simulate", "--init", name], None, "squared pair distances leave float64's normal range")
      for name in ("positions-far.json", "positions-near.json")),
    # a charge ratio or field past float64 is refused, not a verdict (exit 1)
    (["equilibrium", "p.json", "q.json", "--lam", "1e400"], None, "lam and k must be finite in float64"),
    (["equilibrium", "p.json", "q.json", "--k", "1e400"], None, "lam and k must be finite in float64"),
    (["simulate", "--p", "p.json", "--q", "q.json", "--lam", "1e400"], None,
     "lam and k must be finite in float64"),
    (["certify", "coeffs-float.json", "q.json"], None,
     "cannot read polynomial from coeffs-float.json: polynomial JSON"),
    # new cases go last: pytest names each case by its position
    (["simulate", "--init", "in.json"], '{"positions": [[1, 0], [-1, 0]], "charges": ["1", " 2e0 "], '
     '"field": "1+2j"}',
     "cannot read initial condition from in.json: not a charge system: '1+2j' is not a number"),
])
def test_usage_errors_exit_2(tmp_path, capsys, monkeypatch, argv, in_json, message):
    monkeypatch.chdir(tmp_path)
    write_poly(tmp_path, "p.json", Z ** 5 + 1)
    write_poly(tmp_path, "q.json", Z)
    for name, text in MALFORMED.items():
        (tmp_path / name).write_text(text)
    if in_json is not None:
        (tmp_path / "in.json").write_text(in_json)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("p, q, lam", FLOAT64_BEYOND_PAIRS)
def test_equilibrium_float64_cannot_hold_exits_3(tmp_path, capsys, p, q, lam):
    code, out, err = run(capsys, "equilibrium", write_poly(tmp_path, "p.json", p),
                         write_poly(tmp_path, "q.json", q), "--lam", str(lam))
    if p.lead < 1:  # the lead does not survive scaling, so neither do the roots
        assert (code, out) == (3, "")
    else:  # the roots do: a verdict in strict JSON, or exit 3
        assert code in (0, 3)
        if code == 0:
            assert json.loads(out, parse_constant=reject_non_finite)["equilibrium"]
    if code == 3:
        assert err.startswith("error: float64 cannot hold")


def test_simulate_needs_input(capsys):
    code, _, err = run(capsys, "simulate", "--t-end", "1")
    assert code == 2


def test_bracket_command(tmp_path, capsys):
    p = write_poly(tmp_path, "p.json", Z ** 5 + 1)
    q = write_poly(tmp_path, "q.json", Z)
    code, out, _ = run(capsys, "bracket", p, q, "--lam", "2")
    assert code == 0
    assert json.loads(out)["is_zero"] is True
    code, out, _ = run(capsys, "bracket", p, q, "--lam", "1")
    assert code == 1


def test_exit_codes_are_disjoint_per_outcome(tmp_path, capsys):
    # same command class, different outcomes, distinct codes
    p_good = write_poly(tmp_path, "pg.json", Z ** 5 + 1)
    p_bad = write_poly(tmp_path, "pb.json", Z ** 2 - 1)
    q = write_poly(tmp_path, "q.json", Z)
    assert run(capsys, "certify", p_good, q, "--lam", "2")[0] == 0
    assert run(capsys, "certify", p_bad, q, "--lam", "1")[0] == 1
    assert run(capsys, "certify", p_good, q, "--lam", "5")[0] == 2


def test_generate_adler_moser_rejects_tau_flags(capsys):
    code, _, err = run(capsys, "generate", "adler-moser", "2", "--tau2", "1")
    assert code == 2
    assert "t" in err

import cmath
import json
import random
from fractions import Fraction as F

import numpy as np
import pytest

from charge_ladder import numerics
from charge_ladder.generators import LadderState, adler_moser, lambda2_ladder
from charge_ladder.numerics import (
    DEFAULT_ROOT_TOL,
    ChargeSystem,
    CollisionError,
    ConvergenceFailure,
    MultipleRootWarning,
    force,
    roots,
    to_floats,
    verify_equilibrium,
)
from charge_ladder.polyrat import ExactPoly, NotCoprime, NotSquarefree
from conftest import FLOAT64_BEYOND_PAIRS, random_ladder_state

Z = ExactPoly.x()


def sorted_roots(rs):
    return sorted(rs, key=lambda c: (round(c.real, 9), round(c.imag, 9)))


# -- root extraction -------------------------------------------------------------


def test_roots_quadratic():
    got = sorted_roots(roots(Z ** 2 + 1))
    assert abs(got[0] + 1j) < 1e-12 and abs(got[1] - 1j) < 1e-12


def test_roots_quintic_closed_form():
    got = sorted_roots(roots(Z ** 5 + 1))
    expect = sorted_roots(cmath.exp(1j * cmath.pi * (2 * m + 1) / 5) for m in range(5))
    assert max(abs(a - b) for a, b in zip(got, expect)) < 1e-12


def test_roots_ladder_quadratic():
    _, qm1 = lambda2_ladder(-1, LadderState(-1, tau={-1: 1}))
    got = sorted_roots(roots(qm1))
    assert abs(got[0] + 1j) < 1e-12 and abs(got[1] - 1j) < 1e-12


def test_roots_residual_bound():
    rng = random.Random(8)
    for _ in range(15):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 14))]
        p = ExactPoly(coeffs + [F(1)])
        if p.degree < 1:
            continue
        tol = DEFAULT_ROOT_TOL
        cf = to_floats(p)
        scale = float(max(abs(c) for c in cf))
        for r in roots(p):
            horner = sum(c * r ** d for d, c in enumerate(cf))
            assert abs(horner) <= tol * scale * max(1.0, abs(r)) ** int(p.degree)


def test_roots_requires_degree():
    with pytest.raises(ValueError):
        roots(ExactPoly.one())


def test_roots_multiple_root_warning():
    with pytest.warns(MultipleRootWarning):
        roots(Z ** 2 - 2 * Z + 1)


def counted_horner(monkeypatch) -> list:
    horner, calls = numerics._horner, []
    monkeypatch.setattr(numerics, "_horner", lambda c, z: calls.append(1) or horner(c, z))
    return calls


def test_roots_polish_steps_from_perturbed_seeds(monkeypatch):
    # the companion seeds meet the residual bound at once on every input the
    # package generates; seeds 1e-6 off make the Aberth loop take steps
    exact = [cmath.exp(1j * cmath.pi * (2 * m + 1) / 5) for m in range(5)]
    monkeypatch.setattr(np, "roots", lambda c: np.array(exact) + 1e-6)
    calls = counted_horner(monkeypatch)
    got = sorted_roots(roots(Z ** 5 + 1))
    assert len(calls) >= 3  # p, p' and p again: one step at least
    assert max(abs(a - b) for a, b in zip(got, sorted_roots(exact))) < 1e-12


def test_roots_polish_gives_up_after_120_iterations(monkeypatch):
    monkeypatch.setattr(numerics, "DEFAULT_ROOT_TOL", 0.0)
    calls = counted_horner(monkeypatch)
    with pytest.raises(ConvergenceFailure, match="stalled"):
        roots(Z ** 5 + 1)
    assert len(calls) == 2 * 120 + 1


@pytest.mark.parametrize("p", [p for p, _, _ in FLOAT64_BEYOND_PAIRS[:3]])
def test_roots_float64_cannot_hold_fail_loudly(p):
    with pytest.raises(ConvergenceFailure, match="float64 cannot hold"):
        roots(p)


@pytest.mark.parametrize("p, q, lam", FLOAT64_BEYOND_PAIRS)
def test_verify_equilibrium_float64_cannot_hold_fails_loudly(p, q, lam):
    # the roots of the first three, the residuals of the fourth, the squared
    # root distances of the last two
    with pytest.raises(ConvergenceFailure, match="float64 cannot hold"):
        verify_equilibrium(p, q, lam)


# -- forces ---------------------------------------------------------------------


def test_two_mixed_charges_never_balance():
    system = ChargeSystem([1 + 0j, -1 + 0j], [1.0, -2.0])
    f = force(system)
    assert abs(f[0] + 1.0) < 1e-15  # Q1 * (-2)/(z1 - z2) = -1
    assert abs(f[0]) > 1e-3


def test_quintic_pair_is_equilibrium():
    positions = roots(Z ** 5 + 1) + [0j]
    system = ChargeSystem(positions, [1.0] * 5 + [-2.0])
    assert max(abs(v) for v in force(system)) < 1e-10


def test_field_pair_is_equilibrium():
    positions = roots(Z ** 2 - 3 * Z + 3) + [0j]
    system = ChargeSystem(positions, [1.0, 1.0, -2.0], field=1.0)
    assert max(abs(v) for v in force(system)) < 1e-10


def test_force_conjugation_symmetry():
    rng = random.Random(3)
    zs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)]
    qs = [1, 1, -2, 1, -2, 1]
    f = force(ChargeSystem(zs, qs, field=0.3 + 0.2j))
    f_conj = force(ChargeSystem([z.conjugate() for z in zs], qs, field=0.3 - 0.2j))
    assert max(abs(a.conjugate() - b) for a, b in zip(f, f_conj)) < 1e-14


def test_zero_total_force_fieldless():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(2, 8)
        zs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        qs = [rng.choice([1.0, -2.0, -1.5]) for _ in range(n)]
        total = sum(force(ChargeSystem(zs, qs)))
        assert abs(total) < 1e-12 * max(1.0, n)


def broadcast_pair_kernel(xy, qs):
    """Reference pair kernel: differences by broadcasting, d = (x_i - x_j,
    y_i - y_j) * inv, and the imaginary parts of the velocities negated."""
    n = xy.shape[1]
    d = xy[:, :, None] - xy[:, None, :]
    inv = np.square(d[0])
    inv += np.square(d[1])
    inv.reshape(-1)[:: n + 1] = np.inf
    np.reciprocal(inv, out=inv)
    d *= inv
    v = d.reshape(2 * n, n) @ qs
    v[n:] *= -1
    return v, d, inv


def pair_kernel_inputs():
    rng = np.random.default_rng(7)
    for n in (2, 3, 17, 300):
        base = rng.normal(size=n) + 1j * rng.normal(size=n)
        for zs in (base, base + 1e4, base + (-3e7 + 2e5j), base * 2.0 ** -20, base * 2.0 ** 30):
            yield zs, rng.choice([1.0, 1.0, -2.0], size=n)
    yield np.array([1, 1 + (0.6 + 0.8j) * 1e-9, -1]), np.array([1.0, 1.0, -2.0])


def test_pair_kernel_matches_broadcast_differences():
    # the rank-2 product rounds each difference once, as a subtraction does, so
    # inv and the velocities are bit-identical to the broadcasting kernel's
    eps = np.finfo(float).eps
    for zs, charges in pair_kernel_inputs():
        xy, qs, *_ = numerics._admit(ChargeSystem(list(zs), list(charges)))
        v, d, inv = numerics._pair_kernel(xy, qs)
        v_ref, d_ref, inv_ref = broadcast_pair_kernel(xy, qs)
        assert np.array_equal(inv, inv_ref) and np.array_equal(v, v_ref)
        assert np.array_equal(d[0], d_ref[0]) and np.array_equal(d[1], -d_ref[1])
        z = xy[0] + 1j * xy[1]
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1)
        w = 1 / diff
        np.fill_diagonal(w, 0)
        np.testing.assert_allclose(d[0], w.real, rtol=4 * eps, atol=0)
        np.testing.assert_allclose(d[1], w.imag, rtol=4 * eps, atol=0)


def test_collision_error():
    with pytest.raises(CollisionError):
        force(ChargeSystem([1 + 0j, 1 + 0j, -1 + 0j], [1, 1, -2]))


def test_charge_system_validation():
    with pytest.raises(ValueError):
        ChargeSystem([0j], [1.0, 1.0])


# -- equilibrium verification -------------------------------------------------------


def test_verify_equilibrium_adler_moser():
    th2 = adler_moser(2, {2: 1})
    th3 = adler_moser(3, {2: 1, 3: 2})
    report = verify_equilibrium(th2, th3, 1)
    assert report.max_force_norm < 1e-8
    assert report.equilibrium


def test_verify_equilibrium_ladder_pair():
    rng = random.Random(55)
    p2, q2 = lambda2_ladder(2, random_ladder_state(rng, 2))
    report = verify_equilibrium(p2, q2, 2)
    assert report.max_force_norm < 1e-8


def test_verify_equilibrium_field_case():
    report = verify_equilibrium(Z ** 2 - 3 * Z + 3, Z, 2, k=1)
    assert report.max_force_norm < 1e-10
    assert report.system.charges == [1.0, 1.0, -2.0]
    assert report.system.field == 1 + 0j


def test_verify_equilibrium_rejects_non_solution():
    report = verify_equilibrium(Z ** 2 - 1, Z, 1)
    assert report.max_force_norm > 1e-3
    assert not report.equilibrium


def test_verify_equilibrium_preconditions():
    for build in (verify_equilibrium, ChargeSystem.from_pair):
        with pytest.raises(NotSquarefree, match="p must be nonzero and squarefree"):
            build(Z ** 2, Z + 1, 1)
        with pytest.raises(NotSquarefree, match="q must be nonzero and squarefree"):
            build(Z + 1, ExactPoly.zero(), 1)
        with pytest.raises(NotCoprime, match="p and q share a root"):
            build(Z ** 2 - 1, Z - 1, 1)
        # a usage error, not "float64 cannot hold the roots": the roots are fine
        for lam, k in ((F(10 ** 400), 0), (2, F(-(10 ** 400))), (2, complex(0, np.inf))):
            with pytest.raises(ValueError, match="lam and k must be finite in float64"):
                build(Z ** 5 + 1, Z, lam, k)
    for tol in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            verify_equilibrium(Z ** 5 + 1, Z, 2, tol=tol)


def test_verify_equilibrium_checks_separation_once(monkeypatch):
    # once for the roots of z^5 + 1 (near-coincidence warning), once for the
    # six charges; the force audit reuses from_pair's check
    sizes, closest_pair = [], numerics.closest_pair
    monkeypatch.setattr(numerics, "closest_pair", lambda zs: sizes.append(len(zs)) or closest_pair(zs))
    assert verify_equilibrium(Z ** 5 + 1, Z, 2).equilibrium
    assert sizes == [5, 6]


def test_charge_system_json():
    system = ChargeSystem([1 + 2j, -0.5], [1.0, -2.0], field=0.25j)
    assert ChargeSystem.from_json(json.loads(json.dumps(system.to_json()))) == system
    assert ChargeSystem.from_json({"positions": [[1, 0]], "charges": [1], "field": 2}).field == 2
    for blob in ([], {"positions": [[1, 0]]}, {"positions": [[1, 0]], "charges": [None]},
                 {"positions": [[1, 0, 0]], "charges": [1]}, {"positions": [[1, 0]], "charges": "1"},
                 {"positions": [[1, 0]], "charges": [1], "field": None},
                 {"positions": [[1, np.inf]], "charges": [1]},
                 {"positions": [[1, 0]], "charges": [np.nan]},
                 {"positions": [[1, 0]], "charges": [1], "field": [np.inf, 0]}):
        with pytest.raises(ValueError):
            ChargeSystem.from_json(blob)


def test_charge_system_json_rejects_booleans():
    # JSON true and false are ints to Python; read as numbers, [[true, 0]]
    # would be a charge at 1+0j
    for blob in ({"positions": [[True, 0]], "charges": [1]},
                 {"positions": [[1, False]], "charges": [1]},
                 {"positions": [[1, 0]], "charges": [True]},
                 {"positions": [[1, 0]], "charges": [1], "field": False},
                 {"positions": [[1, 0]], "charges": [1], "field": [0, True]}):
        with pytest.raises(ValueError, match="is not a number"):
            ChargeSystem.from_json(blob)


def test_report_echoes_tolerances_and_serializes():
    report = verify_equilibrium(Z ** 2 - 1, Z, 1, tol=1e-7)
    assert report.tolerances == {"force": 1e-7, "root": 1e-12, "collision": 1e-10}
    blob = report.to_json()
    assert blob["equilibrium"] is False
    assert len(blob["per_charge_forces"]) == 3
    assert len(blob["root_residuals"]) == 3
    assert "system" not in blob
    assert report.system.charges == [1.0, 1.0, -1.0]

import gc
import random
import tracemalloc
from functools import partial

import numpy as np
import pytest

from charge_ladder import numerics
from charge_ladder.dynamics import (
    CollisionDetected,
    StepSizeUnderflow,
    TrajectorySample,
    acceleration_residual,
    bilinear_residual,
    conserved_quantity,
    integrate,
    vortex_rhs,
)
from charge_ladder.generators import lambda2_ladder
from charge_ladder.numerics import ChargeSystem, CollisionError, force, roots
from charge_ladder.polyrat import ExactPoly

Z = ExactPoly.x()
ONE = ExactPoly.one()


def random_separated_config(rng, n, lam, box=2.0, min_sep=0.35):
    zs = []
    while len(zs) < n:
        c = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if all(abs(c - w) > min_sep for w in zs):
            zs.append(c)
    qs = [rng.choice([1.0, 1.0, -lam]) for _ in range(n)]
    return ChargeSystem(zs, qs)


def equilibrium_system(rng=None) -> tuple[ChargeSystem, list[complex]]:
    p1, q1 = lambda2_ladder(1, {1: 1})
    positions = roots(p1) + [0j]
    return ChargeSystem(positions, [1.0] * 5 + [-2.0]), positions


# -- flow ---------------------------------------------------------------------


def test_vortex_two_equal_charges():
    v = vortex_rhs(ChargeSystem([1 + 0j, -1 + 0j], [1.0, 1.0]))
    assert abs(v[0] - 0.5) < 1e-15 and abs(v[1] + 0.5) < 1e-15


def test_vortex_single_charge():
    assert vortex_rhs(ChargeSystem([0.3 + 1j], [1.0])) == [0j]


def test_vortex_vanishes_at_equilibrium():
    system, _ = equilibrium_system()
    assert max(abs(v) for v in vortex_rhs(system)) < 1e-10


def test_vortex_vanishes_for_all_certified_pairs(ladder_chain, adler_moser_chain):
    pairs = [(ladder_chain[i][0], ladder_chain[i][1], 2.0) for i in range(-3, 4)]
    pairs += [(adler_moser_chain[n], adler_moser_chain[n + 1], 1.0) for n in range(1, 6)]
    for p, q, lam in pairs:
        if p.degree < 1 and q.degree < 1:
            continue
        positions = (roots(p) if p.degree >= 1 else []) + (roots(q) if q.degree >= 1 else [])
        charges = [1.0] * max(int(p.degree), 0) + [-lam] * max(int(q.degree), 0)
        system = ChargeSystem(positions, charges)
        assert max(abs(v) for v in vortex_rhs(system)) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 10, 200])
def test_pairwise_quantities_match_double_loop(n):
    # Reference: every pair term by plain Python complex arithmetic.  The
    # array code sums in another order, so each quantity may differ by a few
    # n * eps of the sum of its terms' magnitudes; 1e-12 of it is the bound.
    rng = random.Random(n)
    system = random_separated_config(rng, n, 2.0, box=2.0 * (n / 8) ** 0.5)
    zs, qs = system.positions, system.charges
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    v = [sum(qs[j] / (zs[i] - zs[j]) for j in range(n) if j != i) for i in range(n)]
    v_scale = [sum(abs(qs[j] / (zs[i] - zs[j])) for j in range(n) if j != i) for i in range(n)]
    for got, want, scale in zip(vortex_rhs(system), v, v_scale):
        assert abs(got - want) <= 1e-12 * scale
    for k in (0.0, 0.7 - 1.3j):
        shifted = ChargeSystem(zs, qs, field=k)
        for got, q, want, scale in zip(force(shifted), qs, v, v_scale):
            assert abs(got - q * (k + want)) <= 1e-12 * abs(q) * (abs(k) + scale)
    pair_terms = [qs[i] * qs[j] * (qs[i] + qs[j]) / (zs[i] - zs[j]) ** 2 for i, j in pairs]
    h = sum(q * u * u for q, u in zip(qs, v)) - 0.5 * sum(pair_terms)
    h_scale = sum(abs(q * u * u) for q, u in zip(qs, v)) + sum(abs(t) for t in pair_terms)
    assert abs(conserved_quantity(system) - h) <= 1e-12 * h_scale
    accel, accel_scale = [0j] * n, [0.0] * n
    for i, j in pairs:
        d = zs[i] - zs[j]
        chain, closed = qs[j] * (v[i] - v[j]) / d ** 2, qs[j] * (qs[i] + qs[j]) / d ** 3
        accel[i] += chain - closed
        accel_scale[i] += abs(chain) + abs(closed)
    assert abs(acceleration_residual(system) - max(abs(a) for a in accel)) <= 1e-12 * max(accel_scale)


@pytest.mark.parametrize("evaluate", [vortex_rhs, conserved_quantity, acceleration_residual, force])
def test_vortex_collision_error(evaluate):
    with pytest.raises(CollisionError, match="charges 0 and 1 within") as info:
        evaluate(ChargeSystem([0j, 0j], [1.0, 1.0]))
    assert info.value.pair == (0, 1)
    with pytest.raises(CollisionError, match="charges 1 and 2 within 1.000e-12") as info:
        evaluate(ChargeSystem([1j, 0j, 1e-12], [1.0, 1.0, 1.0]))
    assert info.value.pair == (1, 2)


@pytest.mark.parametrize("charges, fld", [
    ([1.0, np.nan], 0.0), ([np.inf, 1.0], 0.0), ([1.0, 1.0], complex(np.inf, 0.0))])
@pytest.mark.parametrize("evaluate", [vortex_rhs, force, conserved_quantity, acceleration_residual,
                                      pytest.param(partial(integrate, t_end=1.0), id="integrate")])
def test_nonfinite_charges_and_field_rejected(evaluate, charges, fld):
    with pytest.raises(ValueError, match="must be finite"):
        evaluate(ChargeSystem([1 + 0j, -1 + 0j], charges, field=fld))


def test_acceleration_overflow_raises():
    # admitted (squared distances about 1e-220 are normal floats), but the
    # closed law cubes reciprocal distances of about 1e110
    system = ChargeSystem([0j, 1e-110, 2e-110j], [1.0, 1.0, -2.0])
    vortex_rhs(system)
    with pytest.raises(ValueError, match="acceleration terms leave float64's range"):
        acceleration_residual(system)


@pytest.mark.parametrize("q", [4.0, 10.0])
def test_invariant_overflow_raises(q):
    # admitted (the squared distance 4e-308 is a normal float), but the terms
    # of H are about q**3 / 4e-308; at q = 1 they still fit
    system = ChargeSystem([0j, 2e-154], [q, q])
    assert len(vortex_rhs(system)) == len(force(system)) == 2
    for evaluate in (conserved_quantity, partial(integrate, t_end=1e-300)):
        with pytest.raises(ValueError, match="terms of H leave float64's range"):
            evaluate(system)
    # down to admission's lower edge, sqrt of the least normal float, where
    # 2 a**2 would overflow though no term of H does
    for gap in (2e-154, 1.4916681462400413e-154):
        system = ChargeSystem([0j, gap], [1.0, 1.0])
        assert conserved_quantity(system) == 0j
        assert integrate(system, 1e-300).final.t == 1e-300


@pytest.mark.parametrize("evaluate", [force, vortex_rhs, conserved_quantity, acceleration_residual])
def test_entry_points_build_one_pair_kernel(evaluate, monkeypatch):
    # admission's differences serve the closeness test and the kernel both
    sizes, differences = [], numerics._differences
    monkeypatch.setattr(numerics, "_differences",
                        lambda xy: sizes.append(xy.shape[1]) or differences(xy))
    evaluate(random_separated_config(random.Random(3), 7, 2.0))
    assert sizes == [7]


@pytest.mark.parametrize("gap, inside", [(1e160, 1e150), (1e-160, 1e-150)])
@pytest.mark.parametrize("evaluate", [vortex_rhs, force, conserved_quantity, acceleration_residual,
                                      pytest.param(partial(integrate, t_end=1.0), id="integrate")])
def test_pair_distances_whose_squares_leave_float64_rejected(evaluate, gap, inside):
    # the pair kernel squares distances: past about 1e154 the square
    # overflows, below about 1e-154 it underflows, and a pair term would be
    # lost or blown up, so such systems are refused where they enter
    with pytest.raises(ValueError, match="squared pair distances leave float64's normal range"):
        evaluate(ChargeSystem([0j, gap], [1.0, 1.0]))
    assert vortex_rhs(ChargeSystem([0j, inside], [1.0, 1.0])) == pytest.approx(
        [-1 / inside, 1 / inside], rel=1e-15)


# -- integration -----------------------------------------------------------------


def test_equilibrium_is_fixed_point():
    system, start = equilibrium_system()
    traj = integrate(system, 1.0)
    drift = max(abs(a - b) for a, b in zip(traj.final.system.positions, start))
    assert drift < 1e-9


def test_equal_pair_repels_symmetrically():
    traj = integrate(ChargeSystem([1 + 0j, -1 + 0j], [1.0, 1.0]), 1.0)
    for sample in traj.samples:
        z1, z2 = sample.system.positions
        assert abs(z1 + z2) < 1e-10
        assert abs(z1.imag) < 1e-10
    # gap obeys d(g^2)/dt = 2(q1+q2): g(1) = sqrt(g0^2 + 4) = sqrt(8)
    assert abs(traj.final.system.positions[0] - np.sqrt(2.0)) < 1e-9


def test_attracting_pair_collides_in_finite_time():
    # charges +1 and -2: d(g^2)/dt = 2(1-2) so g^2 = 4 - 2t hits zero at t = 2
    with pytest.raises(CollisionDetected) as info:
        integrate(ChargeSystem([1 + 0j, -1 + 0j], [1.0, -2.0]), 3.0)
    assert abs(info.value.time - 2.0) < 1e-6
    assert set(info.value.pair) == {0, 1}
    assert info.value.trajectory.samples  # partial history is preserved
    with pytest.raises(CollisionDetected) as info:
        integrate(ChargeSystem([2j, 1 + 0j, 1 + 0j], [1.0, 1.0, -2.0]), 1.0)
    assert info.value.time == 0.0
    assert info.value.pair == (1, 2)
    assert not info.value.trajectory.samples
    # mid-run: a far charge puts the collision distance (COLLISION_FACTOR times
    # the diameter) near 100, so the test after an accepted step catches the
    # pair (g^2 = 40000 - 2t, under 100^2 from t = 15000) before it meets,
    # and reports the closest pair of the last sample
    with pytest.raises(CollisionDetected) as info:
        integrate(ChargeSystem([1e12 + 0j, 100 + 0j, -100 + 0j], [1.0, 1.0, -2.0]), 19000.0)
    final = info.value.trajectory.final
    zs = np.array(final.system.positions)
    dist = np.abs(zs[:, None] - zs[None, :]) + np.diag([np.inf] * len(zs))
    pair = divmod(int(dist.argmin()), len(zs))
    gap = dist.min()
    assert info.value.time == final.t and 15000.0 < final.t < 19000.0
    assert info.value.pair == pair == (1, 2)
    assert gap < 100.01


def test_flow_consistency_restart():
    rng = random.Random(18)
    system = random_separated_config(rng, 5, 2.0)
    direct = integrate(system, 0.8, rel_tol=1e-11)
    first = integrate(system, 0.3, rel_tol=1e-11)
    second = integrate(first.final.system, 0.5, rel_tol=1e-11)
    gap = max(abs(a - b) for a, b in zip(direct.final.system.positions,
                                         second.final.system.positions))
    assert gap < 1e-9


def test_integrate_single_charge_stays_put():
    traj = integrate(ChargeSystem([1j], [1.0]), 1.0)
    assert traj.final.t == 1.0
    assert traj.final.system.positions == [1j]


@pytest.mark.parametrize("positions, charges", [([], []), ([0.5 - 2j], [-2.0])])
def test_entry_points_at_zero_and_one_charge(positions, charges):
    # the kernel's (2, N, 2) @ (2, 2, N) product at empty and single-charge shapes
    system = ChargeSystem(positions, charges)
    assert vortex_rhs(system) == [0j] * len(positions)
    assert conserved_quantity(system) == 0j
    assert acceleration_residual(system) == 0.0
    traj = integrate(system, 1.0)
    assert traj.final.t == 1.0 and traj.steps_rejected == 0
    for sample in traj.samples:
        assert sample.system.positions == [complex(z) for z in positions]
        assert sample.velocities == [0j] * len(positions) and sample.invariant == 0j


def test_integrate_step_size_underflow():
    # tolerances far below double resolution of the distances ~ 1: every
    # step is rejected until the step falls under its floor, with no pair
    # close enough to blame.  Below about 1e-160 the error ratios square past
    # float64, and at a subnormal tolerance they divide past it; either must
    # reject the step without a RuntimeWarning.
    system = ChargeSystem([1, -1, 1j], [1.0, 1.0, -2.0])
    for rel_tol in (1e-100, 1e-170, 1e-200, 1e-310):
        with pytest.raises(StepSizeUnderflow):
            integrate(system, 1.0, rel_tol=rel_tol)


def test_integrate_minimum_step_scales_with_the_flow():
    # the flow is invariant under z -> s*z, t -> s**2*t, so two unit charges
    # 1e-12 apart move as smoothly as two 1 apart, their gap g obeying
    # g**2 = g0**2 + 4t; the floor on the step scales with the time reached
    # or the first step, so neither a short horizon nor a small gap underflows,
    # and the error is measured against the gap, so every run is accurate
    traj = integrate(ChargeSystem([0, 1], [1.0, 1.0]), 1e-15)
    assert traj.final.t == 1e-15 and traj.steps_accepted == 1
    for gap in (1e-12, 1e-9, 1.0, 1e6):
        system = ChargeSystem([0, gap], [1.0, 1.0])
        traj = integrate(system, gap * gap)
        z = traj.final.system.positions
        assert traj.final.t == gap * gap and traj.steps_accepted == 20
        assert abs(abs(z[1] - z[0]) / gap - np.sqrt(5.0)) < 1e-9
    for gap in (1e-12, 1e-9):
        traj = integrate(ChargeSystem([0, gap], [1.0, 1.0]), 1.0)
        z = traj.final.system.positions
        assert traj.final.t == 1.0 and abs(abs(z[1] - z[0]) - 2.0) < 1e-9


@pytest.mark.parametrize("k", [-20, 10])
def test_integrate_is_exact_under_power_of_two_scaling(k):
    # z -> 2**k z, t -> 4**k t rounds nowhere, and nothing in the error
    # control or the first step is measured in absolute units (30 steps
    # accepted and 3 rejected here)
    system = random_separated_config(random.Random(1), 10, 2.0)
    scale = 2.0 ** k
    base = integrate(system, 0.2)
    scaled = integrate(ChargeSystem([z * scale for z in system.positions], system.charges),
                       0.2 * scale * scale)
    assert (scaled.steps_accepted, scaled.steps_rejected) == (base.steps_accepted,
                                                              base.steps_rejected)
    for a, b in zip(scaled.samples, base.samples, strict=True):
        assert a.t == b.t * scale * scale
        assert a.system.positions == [z * scale for z in b.system.positions]
        assert a.velocities == [v / scale for v in b.velocities]
        assert a.invariant == b.invariant / (scale * scale)


@pytest.mark.parametrize("shift", [1e4, -1e4, 100 + 100j])
def test_integrate_step_counts_ignore_a_shift(shift):
    # the error is measured against each charge's nearest neighbour, not
    # against its distance from the origin
    system = random_separated_config(random.Random(1), 10, 2.0)
    base = integrate(system, 0.2)
    moved = integrate(ChargeSystem([z + shift for z in system.positions], system.charges), 0.2)
    assert (moved.steps_accepted, moved.steps_rejected) == (base.steps_accepted,
                                                            base.steps_rejected)
    gap = max(abs(a - shift - b) for a, b in zip(moved.final.system.positions,
                                                 base.final.system.positions))
    assert gap < 1e-9


@pytest.mark.parametrize("positions, charges, t_end", [
    ([-1.2765259836054215 + 1.4712149381589836j, 0.5200718583223463 - 0.6219845987649189j],
     [1.0, -2.0], 0.17857481873011713),
    ([-0.7174327334088839 + 0.020594742815852385j, 0.975172673110781 + 0.9792452767811204j],
     [1.0, 1.0], 0.11175336509670596),
])
def test_integrate_ends_on_t_end_exactly(positions, charges, t_end):
    # t + (t_end - t) need not round to t_end when the last step is longer
    # than the time already run: stepping so, the first system ended 2.8e-17
    # past t_end, and the second fell 1 ulp short and took that ulp as a step
    # under the floor (StepSizeUnderflow)
    traj = integrate(ChargeSystem(positions, charges), t_end)
    assert traj.final.t == t_end and traj.steps_accepted == 2


def test_integrate_error_norm_without_scale():
    # where rel_tol * l_i underflows to 0 (here 5e-324 * 0.25), a charge at
    # rest has error 0 over scale 0: that counts as no error, not as 0/0
    system = ChargeSystem([-0.25, 0, 0.25, 0.25j], [0.0, 0.0, 0.0, 0.0])
    traj = integrate(system, 1.0, rel_tol=5e-324)
    assert traj.final.t == 1.0 and traj.steps_accepted == 1
    assert traj.final.system.positions == system.positions


def test_integrate_builds_one_pair_kernel_per_stage(monkeypatch):
    # one set of differences for the initial state (admission's kernel), then
    # one for each of the six stages of every step tried; an accepted step
    # reuses its last stage's kernel
    calls, differences = [], numerics._differences
    monkeypatch.setattr(numerics, "_differences", lambda xy: calls.append(1) or differences(xy))
    traj = integrate(random_separated_config(random.Random(0), 8, 2.0), 1.0)
    assert traj.steps_rejected > 0
    assert len(calls) == 1 + 6 * (traj.steps_accepted + traj.steps_rejected)


def test_integrate_rejects_nonpositive_horizon():
    with pytest.raises(ValueError):
        integrate(ChargeSystem([0j], [1.0]), 0.0)


@pytest.mark.parametrize("t_end, rel_tol", [
    (float("nan"), 1e-10),   # t_end <= 0 is False for NaN
    (float("inf"), 1e-10),   # would make the minimum step infinite
    (-float("inf"), 1e-10),
    (1.0, float("nan")),
    (1.0, float("inf")),     # would switch error control off
    (1.0, -1e-10),
    (1.0, 0.0),
])
def test_integrate_rejects_nonfinite_horizon_and_bad_tolerances(t_end, rel_tol):
    system = ChargeSystem([1 + 0j, -1 + 0j], [1.0, 1.0])
    with pytest.raises(ValueError):
        integrate(system, t_end, rel_tol=rel_tol)


@pytest.mark.parametrize("system", [
    ChargeSystem([np.inf, -1], [1.0, 1.0]),
    ChargeSystem([complex(1, np.nan), -1], [1.0, 1.0]),
    ChargeSystem([1, -1], [np.inf, 1.0]),
    ChargeSystem([1, -1], [1.0, 1.0], field=complex(0, -np.inf)),
])
def test_integrate_rejects_nonfinite_system(system):
    with pytest.raises(ValueError, match="positions, charges and field must be finite"):
        integrate(system, 1.0)


# -- acceleration identity ----------------------------------------------------------


def test_acceleration_two_body_exact():
    system = ChargeSystem([1 + 0j, -1 + 0j], [1.0, 1.0])
    assert acceleration_residual(system) < 1e-15
    # closed form for this configuration: -2/(z1-z2)^3 = -1/4
    v = vortex_rhs(system)
    chain = -(1.0 * (v[0] - v[1])) / (2.0) ** 2
    assert abs(chain + 0.25) < 1e-15


def test_acceleration_identity_random_configs():
    rng = random.Random(71)
    worst = 0.0
    for _ in range(100):
        lam = rng.choice([1.0, 2.0, 1.5])
        system = random_separated_config(rng, rng.randint(2, 8), lam)
        worst = max(worst, acceleration_residual(system))
    assert worst < 1e-10


def test_lambda1_mixed_pairs_decouple():
    # opposite unit charges have Q_i + Q_j = 0, so mixed pairs drop out of the
    # closed-form acceleration: restricting to same-sign pairs changes nothing
    rng = random.Random(12)
    zs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)]
    qs = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
    z = np.array(zs)
    q = np.array(qs)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    terms = -(q[None, :] * (q[:, None] + q[None, :])) / diff ** 3
    np.fill_diagonal(terms, 0.0)
    mixed = (q[:, None] * q[None, :]) < 0
    assert np.abs(terms[mixed]).max() == 0.0
    full = terms.sum(axis=1)
    same_sign_only = np.where(mixed, 0.0, terms).sum(axis=1)
    assert np.abs(full - same_sign_only).max() == 0.0


# -- conserved quantity ----------------------------------------------------------------


def test_invariant_two_equal_charges_is_zero():
    assert abs(conserved_quantity(ChargeSystem([1 + 0j, -1 + 0j], [1.0, 1.0]))) < 1e-15


def test_invariant_at_equilibrium_is_pure_pair_sum():
    system, _ = equilibrium_system()
    h = conserved_quantity(system)
    zs = np.array(system.positions)
    qs = np.array(system.charges)
    diff = zs[:, None] - zs[None, :]
    np.fill_diagonal(diff, 1.0)
    pair = qs[:, None] * qs[None, :] * (qs[:, None] + qs[None, :]) / diff ** 2
    np.fill_diagonal(pair, 0.0)
    expect = -0.5 * pair.sum()
    assert abs(h - expect) < 1e-10


def test_invariant_conserved_along_random_runs():
    rng = random.Random(2027)
    completed = 0
    attempts = 0
    while completed < 20 and attempts < 80:
        attempts += 1
        lam = rng.choice([1.0, 2.0, 1.5])
        system = random_separated_config(rng, rng.randint(2, 8), lam)
        try:
            traj = integrate(system, 1.0)
        except CollisionDetected:
            continue
        _, rel = traj.invariant_drift()
        assert rel < 1e-8
        for sample in traj.samples:
            expect = conserved_quantity(sample.system)
            assert abs(sample.invariant - expect) <= 1e-12 * abs(expect)
        completed += 1
    assert completed == 20


def test_tolerances_control_error_and_drift_stays_floored():
    # Truncation error of this flow is phase-aligned, so the invariant sits at
    # the rounding floor at every tolerance; what tightening must buy is
    # position accuracy, and looser tolerances must not degrade the invariant.
    rng = random.Random(4)
    system = random_separated_config(rng, 6, 2.0)
    reference = integrate(system, 1.0, rel_tol=1e-13)
    position_errors = {}
    drifts = {}
    for rel in (1e-4, 1e-10):
        traj = integrate(system, 1.0, rel_tol=rel)
        position_errors[rel] = max(
            abs(a - b) for a, b in zip(traj.final.system.positions,
                                       reference.final.system.positions))
        drifts[rel] = traj.invariant_drift()[0]
    assert position_errors[1e-10] < position_errors[1e-4] / 10
    assert drifts[1e-4] < 1e-10 and drifts[1e-10] < 1e-10


# -- bilinear residual --------------------------------------------------------------------


def test_bilinear_residual_free_pair():
    assert bilinear_residual(Z ** 2 - 1, ONE, 1, 1e-4) < 1e-3


def test_bilinear_residual_equilibrium_pair():
    p1, q1 = lambda2_ladder(1, {1: 1})
    assert bilinear_residual(p1, q1, 2, 1e-4) < 1e-8


def test_bilinear_residual_first_order_convergence():
    for p, q, lam in ((Z ** 4 + Z + 1, ONE, 1), (Z ** 3 - 2 * Z + 2, Z ** 2 + 1, 2)):
        residuals = [bilinear_residual(p, q, lam, dt)
                     for dt in (1e-3, 5e-4, 2.5e-4, 1.25e-4)]
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 1.6 < coarse / fine < 2.4


def test_trajectory_sample_velocities_recomputable():
    # a sample's velocities and H come from the last stage's pair kernel, on
    # the very floats of its positions, so recomputing them gives the same bits
    rng = random.Random(88)
    for n in (4, 60):
        system = random_separated_config(rng, n, 2.0, box=2.0 * (n / 8) ** 0.5)
        traj = integrate(system, 0.5 / n)
        for sample in traj.samples:
            assert sample.velocities == vortex_rhs(sample.system)
            assert sample.invariant == conserved_quantity(sample.system)


def test_trajectory_sample_round_trips_its_inputs():
    # repr tells signed zeros apart; every float comes back with its bits
    system = ChargeSystem([0j, complex(-0.0, 1.5), complex(5e-324, -0.0)], [1.0, -2.5, 1.0],
                          field=complex(-0.0, 0.25))
    velocities = [complex(0.0, -0.0), 3 + 4j, complex(-1e300, 5e-324)]
    sample = TrajectorySample(0.5, system, velocities, complex(1.0, -0.0))
    assert repr(sample.system) == repr(system)
    assert repr(sample.velocities) == repr(velocities)
    assert (repr(sample.t), repr(sample.invariant)) == ("0.5", "(1-0j)")
    assert sample.system is not sample.system  # a new ChargeSystem on each access


def test_trajectory_holds_under_48_bytes_per_charge_per_sample():
    # a sample keeps two complex128 arrays, 32 bytes a charge; a ChargeSystem
    # and a list of Python complex per step held about 120
    n = 100
    system = random_separated_config(random.Random(7), n, 2.0, box=2.0 * (n / 8) ** 0.5)
    integrate(system, 1e-3)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = integrate(system, 0.15)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 20 <= len(traj.samples) <= 60
    assert held < 48 * n * len(traj.samples)

"""First-order root dynamics, its fixed points and its conserved quantity.

The flow integrated here is

    dz_i/dt = sum_{j != i} Q_j / (z_i - z_j)

so bracket-certified equilibria are fixed points.  Differentiating the flow
once more yields a closed pairwise acceleration law

    d2z_i/dt2 = -sum_{j != i} Q_j (Q_i + Q_j) / (z_i - z_j)**3

(an identity in positions alone; cross terms cancel by three-index
antisymmetry), and with it the charge-weighted quantity

    H = sum_i Q_i v_i**2 - sum_{i<j} Q_i Q_j (Q_i + Q_j) / (z_i - z_j)**2

is exactly conserved along the flow.

Every pairwise term comes from one matrix, 1/(z_i - z_j) with a zero
diagonal.  `integrate` builds it once per Runge-Kutta stage, where the
velocities are its product with the charges; an accepted step takes H and
its collision test from the last stage's matrix and velocities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .generators import BracketParams, bracket
from .numerics import (
    COLLISION_FACTOR,
    ChargeSystem,
    _inverse_differences,
    _nearest,
    _require_finite,
    _separated,
    closest_pair,
    to_floats,
)
from .polyrat import ExactPoly

__all__ = [
    "CollisionDetected",
    "StepSizeUnderflow",
    "Trajectory",
    "TrajectorySample",
    "acceleration_residual",
    "bilinear_residual",
    "conserved_quantity",
    "integrate",
    "vortex_rhs",
]


class CollisionDetected(RuntimeError):
    """Integration stopped because two charges collided.

    Carries the collision time, the offending pair and the trajectory
    accumulated so far.
    """

    def __init__(self, time: float, pair: tuple[int, int], trajectory: "Trajectory"):
        super().__init__(f"charges {pair[0]} and {pair[1]} collided at t={time:.6g}")
        self.time = time
        self.pair = pair
        self.trajectory = trajectory


class StepSizeUnderflow(RuntimeError):
    """The adaptive controller drove the step below the resolvable minimum."""


def vortex_rhs(system: ChargeSystem) -> list[complex]:
    """Velocity of every root under the flow; zero exactly at equilibria of
    the field-free energy (the force of `numerics` divided by Q_i at k=0)."""
    zs, qs = _separated(system)
    return (_inverse_differences(zs) @ qs).tolist()


@dataclass
class TrajectorySample:
    t: float
    system: ChargeSystem
    velocities: list[complex]
    invariant: complex


@dataclass
class Trajectory:
    """Accepted integration steps plus controller statistics."""

    samples: list[TrajectorySample] = field(default_factory=list)
    steps_accepted: int = 0
    steps_rejected: int = 0
    max_error_estimate: float = 0.0

    @property
    def final(self) -> TrajectorySample:
        return self.samples[-1]

    def invariant_drift(self) -> tuple[float, float]:
        """(absolute, relative) drift of the conserved quantity."""
        h0 = self.samples[0].invariant
        drift = max(abs(s.invariant - h0) for s in self.samples)
        return drift, drift / (1.0 + abs(h0))


# Dormand-Prince 5(4) tableau; the last row is the fifth-order solution (FSAL)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_ERR = (
    71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)


def integrate(system: ChargeSystem, t_end: float, rel_tol: float = 1e-10,
              abs_tol: float = 1e-12) -> Trajectory:
    """Adaptive embedded Runge-Kutta integration of the root flow to t_end.

    Per-component error control with a PI step controller.  Each stage builds
    one matrix 1/(z_i - z_j); the last stage sits at the step's end point, so
    an accepted step records H and tests for a collision (the largest entry
    is the closest pair) from its matrix and velocities.  Raises
    CollisionDetected (with time, pair and the partial trajectory) when two
    charges meet, StepSizeUnderflow when the controller collapses without a
    nearby pair to blame, and ValueError on a non-finite system, on a t_end
    that is not positive and finite or on tolerances that are not finite,
    negative or both zero.
    """
    if not (t_end > 0 and math.isfinite(t_end)):
        raise ValueError("t_end must be positive and finite")
    if not (rel_tol >= 0 and abs_tol >= 0 and rel_tol + abs_tol > 0):
        raise ValueError("tolerances must be non-negative and not both zero")
    if math.inf in (rel_tol, abs_tol):
        raise ValueError("tolerances must be finite")
    _require_finite(system)
    qs = np.asarray(system.charges, dtype=float)
    zs = np.asarray(system.positions, dtype=complex)
    traj = Trajectory()
    # the initial points may coincide, so this test runs before any reciprocal
    dist, pair, diam = closest_pair(zs)
    if dist <= COLLISION_FACTOR * diam:
        raise CollisionDetected(0.0, pair, traj)

    def record(t: float, y: np.ndarray, w: np.ndarray, v: np.ndarray) -> None:
        snap = ChargeSystem(y.tolist(), qs.tolist(), field=system.field)
        traj.samples.append(TrajectorySample(t, snap, v.tolist(), _invariant(w, qs, v)))

    t = 0.0
    w = _inverse_differences(zs)
    k1 = w @ qs
    record(t, zs, w, k1)
    vmag = float(np.abs(k1).max(initial=0.0))
    h = min(t_end, 0.01 * (1.0 + float(np.abs(zs).max(initial=0.0))) / (1.0 + vmag))
    h_min = 1e-14 * max(t_end, 1.0)
    err_prev = 1.0
    safety, alpha, beta = 0.9, 0.17, 0.04
    while t < t_end:
        h = min(h, t_end - t)
        if h < h_min:
            dist, pair = _nearest(w)
            if dist < 1e-6 * diam:
                raise CollisionDetected(t, pair, traj)
            raise StepSizeUnderflow(f"step size underflowed at t={t:.6g}")
        ks = [k1]
        for row in _DP_A[1:]:
            y_new = zs + h * sum(a * k for a, k in zip(row, ks))
            w_new = _inverse_differences(y_new)
            ks.append(w_new @ qs)
        err_vec = h * sum(e * k for e, k in zip(_DP_ERR, ks))
        sc = abs_tol + rel_tol * np.maximum(np.abs(zs), np.abs(y_new))
        # a ratio past 1e150 would square past float64; the step is rejected either way
        err = float(np.sqrt(np.mean(np.minimum(np.abs(err_vec / sc), 1e150) ** 2))) if len(zs) else 0.0
        if err <= 1.0:
            t += h
            zs, w, k1 = y_new, w_new, ks[-1]
            record(t, zs, w, k1)
            traj.steps_accepted += 1
            traj.max_error_estimate = max(traj.max_error_estimate, err)
            dist, pair = _nearest(w)
            if dist <= COLLISION_FACTOR * diam:
                raise CollisionDetected(t, pair, traj)
            fac = safety * max(err, 1e-10) ** -alpha * err_prev ** beta
            h *= min(5.0, max(0.2, fac))
            err_prev = max(err, 1e-10)
        else:
            traj.steps_rejected += 1
            h *= max(0.2, safety * err ** -0.2)
    return traj


def _invariant(w: np.ndarray, qs: np.ndarray, v: np.ndarray) -> complex:
    """H from the inverse-difference matrix w and the velocities v; half the
    pair sum is sum_ij Q_i**2 Q_j w_ij**2, as w_ij**2 is symmetric."""
    return complex(qs @ (v * v) - (qs * qs) @ ((w * w) @ qs))


def conserved_quantity(system: ChargeSystem) -> complex:
    """The charge-weighted invariant H of the flow (see module docstring)."""
    zs, qs = _separated(system)
    w = _inverse_differences(zs)
    return _invariant(w, qs, w @ qs)


def acceleration_residual(system: ChargeSystem) -> float:
    """Max deviation between the two acceleration computations.

    (a) differentiates the flow along itself (chain rule), (b) uses the
    closed pairwise law; the difference must vanish at any configuration,
    not just along trajectories.
    """
    zs, qs = _separated(system)
    w = _inverse_differences(zs)
    v = w @ qs
    # Q_j w_ij**2 ((v_i - v_j) - (Q_i + Q_j) w_ij): chain rule minus closed law
    terms = (v[:, None] - v[None, :] - (qs[:, None] + qs[None, :]) * w) * (w * w)
    return float(np.abs(terms @ qs).max(initial=0.0))


def bilinear_residual(p: ExactPoly, q: ExactPoly, lam, dt: float) -> float:
    """Residual of the bilinear evolution identity over one finite-difference
    window:  max coefficient of  q*dp/dt - lam*p*dq/dt - {p, q}_lam.

    The roots are evolved in the time normalization of the bilinear identity,
    -2 times that of `integrate`, as the flow of the charges times -2 (exact
    in floats); the returned residual is O(dt) plus root-finding noise.
    """
    lam = Fraction(lam)
    system = ChargeSystem.from_pair(p, q, lam)
    system = ChargeSystem(system.positions, [-2.0 * c for c in system.charges])
    p, q = p.monic(), q.monic()
    n, m = int(p.degree), int(q.degree)
    traj = integrate(system, dt, rel_tol=1e-12, abs_tol=1e-14)
    moved = traj.final.system.positions
    p0 = np.asarray(to_floats(p))
    q0 = np.asarray(to_floats(q))
    p1 = np.poly(moved[:n])[::-1] if n else np.array([1.0 + 0j])
    q1 = np.poly(moved[n:])[::-1] if m else np.array([1.0 + 0j])
    dp = (p1 - p0) / dt
    dq = (q1 - q0) / dt
    br = np.asarray(to_floats(bracket(p, q, BracketParams(lam))))
    lhs = np.convolve(q0, dp) - float(lam) * np.convolve(p0, dq)
    width = max(len(lhs), len(br))
    lhs = np.pad(lhs, (0, width - len(lhs)))
    brp = np.pad(br.astype(complex), (0, width - len(br)))
    return float(np.abs(lhs - brp).max())

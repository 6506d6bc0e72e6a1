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

Every pairwise term comes from one real pair kernel (`numerics._pair_kernel`):
inv = 1/|z_i - z_j|**2 and d = (Re, Im) of 1/(z_i - z_j), by one exact rank-2
product and no complex arithmetic.  `integrate` evolves the real state
(x_1..x_N, y_1..y_N), one kernel per Runge-Kutta stage; each accepted step
takes H, nearest-neighbour distances and collisions from its last kernel.
A trajectory keeps each accepted step as a `TrajectorySample`: two complex128
arrays (positions, velocities), not a ChargeSystem and Python lists.
Every entry point takes its system through the admission check of `numerics`.
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
    CollisionError,
    _admit,
    _complex,
    _pair_kernel,
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
    return _complex(_pair_kernel(*_admit(system)[:2])[0]).tolist()


class TrajectorySample:
    """One accepted step: its time t, the invariant H, and the positions and
    velocities as two complex128 arrays; the charges and field are shared by
    every sample of a run.  `system` and `velocities` build a new
    ChargeSystem and list from the arrays on each access."""

    __slots__ = ("t", "invariant", "_zs", "_vs", "_charges", "_field")

    def __init__(self, t: float, system: ChargeSystem, velocities: list[complex],
                 invariant: complex):
        self._set(t, np.asarray(system.positions, complex), np.asarray(velocities, complex),
                  invariant, system.charges, system.field)

    def _set(self, t, zs, vs, invariant, charges, fld) -> "TrajectorySample":
        self.t, self.invariant, self._zs, self._vs = t, invariant, zs, vs
        self._charges, self._field = charges, fld
        return self

    @property
    def system(self) -> ChargeSystem:
        return ChargeSystem(self._zs.tolist(), self._charges, field=self._field)

    @property
    def velocities(self) -> list[complex]:
        return self._vs.tolist()


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
_DP_A = [np.array(row) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)]
_DP_ERR = np.array(
    (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40))


def integrate(system: ChargeSystem, t_end: float, rel_tol: float = 1e-10) -> Trajectory:
    """Adaptive embedded Runge-Kutta integration of the root flow to t_end.

    Charge i's error counts against rel_tol * l_i, l_i its nearest-neighbour
    distance, under PI step control from a first step 0.01 * min_i l_i/|v_i|
    or t_end, so runs commute with translation, rotation and, bit for bit,
    z -> 2**k z, t -> 4**k t.  Each stage builds one pair kernel; the last
    sits at the step's end, so an accepted step takes H, l and the closest
    pair from it (l stays fixed while a step is retried).  Raises
    CollisionDetected (with time, pair and the partial trajectory) when two
    charges meet, StepSizeUnderflow when the controller collapses without a
    nearby pair to blame, and ValueError on a system the admission check
    refuses (not finite, or squared pair distances outside float64's normal
    range) and on a t_end or rel_tol that is not positive and finite.
    """
    if not (t_end > 0 and math.isfinite(t_end)):
        raise ValueError("t_end must be positive and finite")
    if not 0 < rel_tol < math.inf:
        raise ValueError("rel_tol must be positive and finite")
    traj = Trajectory()
    try:
        xy, qs, diam = _admit(system)
    except CollisionError as exc:
        raise CollisionDetected(0.0, exc.pair, traj) from exc

    charges = qs.tolist()

    def record(t: float, y: np.ndarray, d: np.ndarray, inv: np.ndarray, v: np.ndarray) -> None:
        v = _complex(v)
        traj.samples.append(TrajectorySample.__new__(TrajectorySample)._set(
            t, _complex(y), v, _invariant(d, inv, qs, v), charges, system.field))

    t, n = 0.0, xy.shape[1]
    y = xy.reshape(-1)  # the real state (x, y)
    ks = np.empty((7, 2 * n))  # stage velocities; row 0 is the last accepted step's
    ks[0], d, inv = _pair_kernel(y.reshape(2, n), qs)
    record(t, y, d, inv, ks[0])
    ell, dist, pair = _neighbours(inv)
    rate = float((np.hypot(ks[0, :n], ks[0, n:]) / ell).max(initial=0.0))  # max |v_i|/l_i
    h0 = h = min(t_end, 0.01 / rate) if rate else t_end
    err_prev = 1.0
    safety, alpha, beta = 0.9, 0.17, 0.04
    while t < t_end:
        t_new = min(t + h, t_end)  # the last step ends on t_end exactly
        h = t_new - t
        # the floor scales with the time reached, or the first step (<=: also
        # when it is 0), as the flow is invariant under z -> s*z, t -> s**2*t
        if h <= 1e-14 * max(t, h0):
            if dist < 1e-6 * diam:
                raise CollisionDetected(t, pair, traj)
            raise StepSizeUnderflow(f"step size underflowed at t={t:.6g}")
        for s, row in enumerate(_DP_A, 1):
            y_new = y + h * (row @ ks[:s])
            del d, inv  # before the next kernel, whose arrays then reuse their memory while cached
            ks[s], d, inv = _pair_kernel(y_new.reshape(2, n), qs)
        err_vec = h * (_DP_ERR @ ks)
        err_abs = np.hypot(err_vec[:n], err_vec[n:])
        sc = rel_tol * ell
        # no error counts 0, also over sc = 0; an error of 1e150 sc or more
        # counts 1e150 (rejected), so no ratio leaves float64 or squares past it
        ratio = np.divide(err_abs, sc, out=np.where(err_abs > 0, 1e150, 0.0),
                          where=err_abs * 1e-150 < sc)
        err = math.sqrt(ratio @ ratio / n) if n else 0.0
        if err <= 1.0:
            t, y = t_new, y_new
            ks[0] = ks[-1]
            record(t, y, d, inv, ks[0])
            traj.steps_accepted += 1
            traj.max_error_estimate = max(traj.max_error_estimate, err)
            ell, dist, pair = _neighbours(inv)
            if dist <= COLLISION_FACTOR * diam:
                raise CollisionDetected(t, pair, traj)
            fac = safety * max(err, 1e-10) ** -alpha * err_prev ** beta
            h *= min(5.0, max(0.2, fac))
            err_prev = max(err, 1e-10)
        else:
            traj.steps_rejected += 1
            h *= max(0.2, safety * err ** -0.2)
    return traj


def _neighbours(inv: np.ndarray) -> tuple[np.ndarray, float, tuple[int, int] | None]:
    """Nearest-neighbour distances l_i = (max_j inv_ij)**-1/2 from the kernel's
    inv, the least and its pair; inf and None for fewer than two points."""
    if len(inv) < 2:
        return np.full(len(inv), np.inf), np.inf, None
    m = inv.max(axis=1)
    ell, i = 1 / np.sqrt(m), int(m.argmax())  # sqrt and / round alike at any power-of-2 scale
    return ell, float(ell[i]), (i, int(inv[i].argmax()))


def _invariant(d: np.ndarray, inv: np.ndarray, qs: np.ndarray, v: np.ndarray) -> complex:
    """H from the pair kernel (d, inv) and the complex velocities v.  Half
    the pair sum is sum_ij Q_i**2 Q_j w_ij**2, as w_ij**2 is symmetric; with
    w = a + ib for (a, b) = d, and a**2 + b**2 = inv, w**2 = 2a**2 - inv + 2iab."""
    n = len(qs)
    q2 = qs * qs
    aa, ab = ((d[0] * d).reshape(2 * n, n) @ qs).reshape(2, n) @ q2
    return complex(qs @ (v * v)) - complex(2 * aa - q2 @ (inv @ qs), 2 * ab)


def conserved_quantity(system: ChargeSystem) -> complex:
    """The charge-weighted invariant H of the flow (see module docstring)."""
    xy, qs, *_ = _admit(system)
    v, d, inv = _pair_kernel(xy, qs)
    return _invariant(d, inv, qs, _complex(v))


def acceleration_residual(system: ChargeSystem) -> float:
    """Max deviation between the two acceleration computations.

    (a) differentiates the flow along itself (chain rule), (b) uses the
    closed pairwise law; the difference must vanish at any configuration,
    not just along trajectories.  ValueError where a cubic term overflows.
    """
    xy, qs, *_ = _admit(system)
    v, d, _ = _pair_kernel(xy, qs)
    w, v = d[0] + 1j * d[1], _complex(v)
    try:
        with np.errstate(over="raise"):
            # Q_j w_ij**2 ((v_i - v_j) - (Q_i + Q_j) w_ij): chain rule minus closed law
            terms = (v[:, None] - v[None, :] - (qs[:, None] + qs[None, :]) * w) * (w * w)
            return float(np.abs(terms @ qs).max(initial=0.0))
    except FloatingPointError as exc:
        raise ValueError(f"acceleration terms leave float64's range: {exc}") from exc


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
    traj = integrate(system, dt, rel_tol=1e-12)
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

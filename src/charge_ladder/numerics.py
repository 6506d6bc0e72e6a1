"""Floating-point layer: complex roots of exact polynomials and verification
that root configurations balance as Coulomb charges.

Roots are seeded from companion-matrix eigenvalues and polished by
simultaneous Aberth-Ehrlich iteration in extended precision; forces use the
complex convention F_i = Q_i (k + sum_{j != i} Q_j / (z_i - z_j)), whose zero
set coincides with critical points of the logarithmic energy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .polyrat import ExactPoly, require_squarefree_coprime

__all__ = [
    "ChargeSystem",
    "CollisionError",
    "ConvergenceFailure",
    "EquilibriumReport",
    "MultipleRootWarning",
    "DEFAULT_ROOT_TOL",
    "DEFAULT_FORCE_TOL",
    "COLLISION_FACTOR",
    "closest_pair",
    "force",
    "roots",
    "to_floats",
    "verify_equilibrium",
]

DEFAULT_ROOT_TOL = 1e-12
DEFAULT_FORCE_TOL = 1e-8
COLLISION_FACTOR = 1e-10


class CollisionError(ValueError):
    """Two charges sit closer than the collision tolerance."""


class ConvergenceFailure(RuntimeError):
    """Root polishing failed, or float64 cannot hold the polynomial or its roots."""


class MultipleRootWarning(UserWarning):
    """Near-coincident roots reported; inputs here should be squarefree."""


@dataclass
class ChargeSystem:
    """Point charges in the complex plane, optionally in a homogeneous field."""

    positions: list[complex]
    charges: list[float]
    field: complex = 0.0

    def __post_init__(self):
        if len(self.positions) != len(self.charges):
            raise ValueError("positions and charges must have equal length")
        self.positions = [complex(z) for z in self.positions]
        self.charges = [float(q) for q in self.charges]
        self.field = complex(self.field)

    def __len__(self) -> int:
        return len(self.positions)

    def to_json(self) -> dict:
        return {
            "positions": [[z.real, z.imag] for z in self.positions],
            "charges": list(self.charges),
            "field": [self.field.real, self.field.imag],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ChargeSystem":
        fld = obj.get("field", 0.0)
        if isinstance(fld, (list, tuple)):
            fld = complex(fld[0], fld[1])
        return cls(
            positions=[complex(re, im) for re, im in obj["positions"]],
            charges=list(obj["charges"]),
            field=fld,
        )

    @classmethod
    def from_pair(cls, p: ExactPoly, q: ExactPoly, lam, k=0) -> "ChargeSystem":
        """Charge +1 at each root of p, then charge -lam at each root of q (none
        for a constant), in field k: a complex k as given, else as a rational.

        Raises NotSquarefree or NotCoprime unless p and q are nonzero,
        squarefree and coprime.  Roots come from `roots`; float roots that
        coincide raise CollisionError.
        """
        require_squarefree_coprime(p, q)
        positions = [z for poly in (p, q) if poly.degree >= 1 for z in roots(poly)]
        charges = [1.0] * int(p.degree) + [-float(Fraction(lam))] * int(q.degree)
        fld = k if isinstance(k, complex) else complex(float(Fraction(k)))
        system = cls(positions, charges, field=fld)
        _separated(system)
        return system


def to_floats(p: ExactPoly) -> np.ndarray:
    """Ascending-degree float64 coefficients (nearest-double rounding)."""
    return np.array([c.numerator / c.denominator for c in p.coeffs], dtype=float)


def _horner(coeffs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(zs)
    for c in coeffs[::-1]:
        acc = acc * zs + c
    return acc


def _inverse_differences(zs: np.ndarray) -> np.ndarray:
    """The matrix 1/(z_i - z_j) with a zero diagonal, whose product with the
    charges is the velocities sum_{j != i} Q_j / (z_i - z_j).  The caller has
    checked that no two points coincide (their reciprocal is inf+nanj)."""
    diff = zs[:, None] - zs[None, :]
    diff.reshape(-1)[:: len(zs) + 1] = np.inf  # whose reciprocal is 0
    return np.reciprocal(diff, out=diff)


def closest_pair(zs: np.ndarray) -> tuple[float, tuple[int, int] | None, float]:
    """Smallest distance between two of the points zs, the pair (i, j)
    attaining it and the largest distance (the diameter), all from one
    distance matrix; (inf, None, 1.0) for fewer than two points."""
    n = len(zs)
    if n < 2:
        return np.inf, None, 1.0
    dist = np.abs(zs[:, None] - zs[None, :])
    diameter = float(dist.max())
    dist.reshape(-1)[:: n + 1] = np.inf
    k = int(dist.argmin())
    return float(dist.flat[k]), divmod(k, n), diameter


def _nearest(w: np.ndarray) -> tuple[float, tuple[int, int] | None]:
    """Smallest distance and closest pair of the points whose
    `_inverse_differences` matrix is w: its largest |entry|, inverted."""
    if len(w) < 2:
        return np.inf, None
    mag = np.abs(w)
    k = int(mag.argmax())
    return 1.0 / float(mag.flat[k]), divmod(k, len(w))


def _separated(system: ChargeSystem) -> tuple[np.ndarray, np.ndarray]:
    """Positions and charges of system as arrays.  Raises CollisionError when
    two charges sit within COLLISION_FACTOR times the system's diameter."""
    zs = np.asarray(system.positions, dtype=complex)
    dist, pair, diameter = closest_pair(zs)
    if dist <= COLLISION_FACTOR * diameter:
        raise CollisionError(f"charges {pair[0]} and {pair[1]} within {dist:.3e}")
    return zs, np.asarray(system.charges, dtype=float)


def roots(p: ExactPoly) -> list[complex]:
    """All deg(p) complex roots of p.

    Companion-matrix eigenvalues provide the initial guess; Aberth-Ehrlich
    simultaneous iteration in extended precision polishes until every residual
    satisfies |p(r)| <= DEFAULT_ROOT_TOL * max|coeff| * max(1, |r|)**deg, and
    raises ConvergenceFailure when 120 iterations do not get there or float64
    cannot hold the scaled lead coefficient or the roots.  Near-coincident
    roots trigger MultipleRootWarning (generated families are squarefree, so
    this flags an upstream problem rather than a legitimate outcome).
    """
    deg = p.degree
    if deg < 1:
        raise ValueError("root extraction needs degree >= 1")
    scale = max(abs(c) for c in p.coeffs)
    cf = np.array([float(c / scale) for c in p.coeffs], dtype=float)
    if not cf[-1]:  # np.roots would drop it and return fewer roots
        raise ConvergenceFailure("float64 cannot hold the roots: the lead coefficient scales to 0")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if deg == 1:
                return [complex(-cf[0] / cf[1])]
            seeds = np.roots(cf[::-1]).astype(complex)
            zs = seeds.astype(np.clongdouble)
            coeffs = cf.astype(np.longdouble)
            dcoeffs = (cf[1:] * np.arange(1, len(cf))).astype(np.longdouble)
            n = int(deg)
            for it in range(121):
                pv = _horner(coeffs, zs)
                bound = DEFAULT_ROOT_TOL * np.maximum(1.0, np.abs(zs).astype(float)) ** n
                if np.all(np.abs(pv).astype(float) <= bound):
                    break
                if it == 120:
                    raise ConvergenceFailure(
                        f"root polishing stalled; worst residual {float(np.abs(pv).max()):.3e}")
                dv = _horner(dcoeffs, zs)
                dv = np.where(dv == 0, np.clongdouble(1e-300), dv)
                newton = pv / dv
                diff = zs[:, None] - zs[None, :]
                np.fill_diagonal(diff, np.clongdouble(np.inf))
                repel = (1.0 / diff).sum(axis=1)
                denom = 1.0 - newton * repel
                denom = np.where(denom == 0, np.clongdouble(1e-300), denom)
                step = newton / denom
                zs = zs - step
            out = zs.astype(complex)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise ConvergenceFailure(f"float64 cannot hold the roots: {exc}") from exc
    spread = max(float(np.abs(out).max()), 1.0)
    if closest_pair(out)[0] < 1e-7 * spread:
        warnings.warn("near-coincident roots detected", MultipleRootWarning)
    return [complex(z) for z in out]


def force(system: ChargeSystem) -> list[complex]:
    """Complex force on every charge: F_i = Q_i (k + sum_{j!=i} Q_j/(z_i - z_j)).

    All components vanishing is exactly the critical-point condition of the
    logarithmic pair energy (plus linear field term).
    """
    zs, qs = _separated(system)
    f = qs * (system.field + _inverse_differences(zs) @ qs)
    return [complex(v) for v in f]


@dataclass
class EquilibriumReport:
    """Force audit of a polynomial pair's root configuration."""

    max_force_norm: float
    per_charge_forces: list[complex]
    root_residuals: list[float]
    tolerances: dict = field(default_factory=dict)
    system: ChargeSystem | None = None

    @property
    def equilibrium(self) -> bool:
        return self.max_force_norm < self.tolerances.get("force", DEFAULT_FORCE_TOL)

    def to_json(self) -> dict:
        return {
            "max_force_norm": self.max_force_norm,
            "equilibrium": self.equilibrium,
            "per_charge_forces": [[f.real, f.imag] for f in self.per_charge_forces],
            "root_residuals": self.root_residuals,
            "tolerances": dict(self.tolerances),
        }


def verify_equilibrium(p: ExactPoly, q: ExactPoly, lam, k=0,
                       tol: float = DEFAULT_FORCE_TOL) -> EquilibriumReport:
    """Force audit of `ChargeSystem.from_pair(p, q, lam, k)`, which
    raises NotSquarefree or NotCoprime on an invalid pair.

    Reports every force, the largest force norm against tol, the float64
    residual |p(r)| or |q(r)| of each root in system order, and the system
    itself.  Float roots that coincide raise CollisionError, and a pair
    float64 cannot hold raises ConvergenceFailure.
    """
    system = ChargeSystem.from_pair(p, q, lam, k)
    deg_p = int(p.degree)
    residuals: list[float] = []
    try:
        for poly, zs in ((p, system.positions[:deg_p]), (q, system.positions[deg_p:])):
            residuals += np.abs(_horner(to_floats(poly), np.asarray(zs, dtype=complex))).tolist()
    except OverflowError as exc:
        raise ConvergenceFailure(f"float64 cannot hold the coefficients: {exc}") from exc
    forces = force(system)
    max_norm = max((abs(f) for f in forces), default=0.0)
    return EquilibriumReport(
        max_force_norm=max_norm,
        per_charge_forces=forces,
        root_residuals=residuals,
        tolerances={"force": tol, "root": DEFAULT_ROOT_TOL, "collision": COLLISION_FACTOR},
        system=system,
    )

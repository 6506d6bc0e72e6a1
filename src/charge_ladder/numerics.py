"""Floating-point layer: complex roots of exact polynomials and verification
that root configurations balance as Coulomb charges.

Roots are seeded from companion-matrix eigenvalues and polished by
simultaneous Aberth-Ehrlich iteration in extended precision; forces use the
complex convention F_i = Q_i (k + sum_{j != i} Q_j / (z_i - z_j)), whose zero
set coincides with critical points of the logarithmic energy.  Pair sums come
from `_pair_kernel`: d = (Re, Im) of 1/(z_i - z_j) by one exact rank-2 product.
One admission (`_admit`) serves every entry point: it builds the differences
once, reads closeness from their squares and returns the kernel for reuse.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .polyrat import ExactPoly, require_squarefree_coprime

__all__ = [
    "ChargeSystem",
    "CollisionError",
    "ConvergenceFailure",
    "EquilibriumReport",
    "DEFAULT_ROOT_TOL",
    "DEFAULT_FORCE_TOL",
    "COLLISION_FACTOR",
    "force",
    "roots",
    "to_floats",
    "verify_equilibrium",
]

DEFAULT_ROOT_TOL = 1e-12
DEFAULT_FORCE_TOL = 1e-8
COLLISION_FACTOR = 1e-10
_AUG = np.array([[[1.0], [0.0], [-1.0]], [[-1.0], [0.0], [1.0]]])  # `_differences`' sign rows


class CollisionError(ValueError):
    """Two charges, `pair`, sit closer than the collision tolerance."""

    def __init__(self, pair: tuple[int, int], dist: float):
        super().__init__(f"charges {pair[0]} and {pair[1]} within {dist:.3e}")
        self.pair = pair


class ConvergenceFailure(RuntimeError):
    """Root polishing failed, or float64 cannot hold the polynomial or its roots."""


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
    def from_json(cls, obj: Mapping) -> "ChargeSystem":
        """The system `to_json` writes (the field may also be one number).
        Raises ValueError on any other shape and on non-finite entries."""
        if not (isinstance(obj, Mapping) and isinstance(obj.get("positions"), (list, tuple))
                and isinstance(obj.get("charges"), (list, tuple))):
            raise ValueError("a charge system is an object with 'positions' and 'charges' arrays")
        def real(x):  # JSON numbers only: not a string, and not true or false (ints to Python)
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise TypeError(f"{x!r} is not a number")
            return x

        fld = obj.get("field", 0.0)
        try:
            if isinstance(fld, (list, tuple)):
                re, im = fld
                fld = complex(real(re), real(im))
            else:
                fld = real(fld)
            system = cls([complex(real(re), real(im)) for re, im in obj["positions"]],
                         [real(q) for q in obj["charges"]], fld)
        except (TypeError, OverflowError) as exc:  # null, an array, a string, an int past float64
            raise ValueError(f"not a charge system: {exc}") from exc
        _require_finite(system)
        return system

    @classmethod
    def from_pair(cls, p: ExactPoly, q: ExactPoly, lam, k=0) -> "ChargeSystem":
        """Charge +1 at each root of p, then charge -lam at each root of q (none
        for a constant), in field k: a complex k as given, else as a rational.

        Raises NotSquarefree or NotCoprime unless p and q are nonzero,
        squarefree and coprime, and ValueError when lam or k leaves float64.
        Roots come from `roots`; float roots that coincide raise
        CollisionError, and roots whose squared distances leave float64's
        normal range ConvergenceFailure.
        """
        return _pair_system(p, q, lam, k)[0]


def _pair_system(p: ExactPoly, q: ExactPoly, lam, k) -> tuple[ChargeSystem, tuple]:
    """`ChargeSystem.from_pair(p, q, lam, k)` and its admission (`_admit`)."""
    require_squarefree_coprime(p, q)
    try:
        charge = -float(Fraction(lam))
        re, im = (k.real, k.imag) if isinstance(k, complex) else (k, 0)
        fld = complex(float(Fraction(re)), float(Fraction(im)))
    except OverflowError as exc:
        raise ValueError(f"lam and k must be finite in float64: {exc}") from exc
    positions = [z for poly in (p, q) if poly.degree >= 1 for z in roots(poly)]
    system = ChargeSystem(positions, [1.0] * int(p.degree) + [charge] * int(q.degree), fld)
    try:
        return system, _admit(system)
    except CollisionError:
        raise
    except ValueError as exc:  # the roots are finite, their squared distances are not
        raise ConvergenceFailure(f"float64 cannot hold the roots: {exc}") from exc


def _require_finite(system: ChargeSystem) -> None:
    """ValueError unless every position, charge and the field are finite."""
    if not np.isfinite([*system.positions, *system.charges, system.field]).all():
        raise ValueError("positions, charges and field must be finite")


def to_floats(p: ExactPoly) -> np.ndarray:
    """Ascending-degree float64 coefficients (nearest-double rounding)."""
    return np.array([n / p._den for n in p._num], dtype=float)


def _horner(coeffs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(zs)
    for c in coeffs[::-1]:
        acc = acc * zs + c
    return acc


def _differences(xy: np.ndarray) -> np.ndarray:
    """(x_i - x_j, y_j - y_i) of the points z = x + iy, given as the contiguous
    (2, N) array (x, y): one rank-2 product of the rows (1, x, -1) and
    (-1, y, 1), each entry rounded once as its two products are exact."""
    n = xy.shape[1]
    aug = _AUG.repeat(n, axis=2)
    aug[:, 1] = xy
    return aug[:, 1:].transpose(0, 2, 1) @ aug[:, :2]


def _pair_kernel(xy: np.ndarray, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(velocities, d, inv) of the points xy (see `_differences`) and the
    charges qs: inv = 1/|z_i - z_j|**2 and d = (x_i - x_j, y_j - y_i) * inv =
    (Re, Im) of 1/(z_i - z_j), 0 on the diagonal, so the velocities are
    d @ qs.  The caller has admitted the points (`_admit`)."""
    d = _differences(xy)
    inv = np.square(d[0])
    inv += np.square(d[1])
    return _finish_kernel(d, inv, qs)


def _finish_kernel(d: np.ndarray, inv: np.ndarray, qs: np.ndarray) -> tuple[np.ndarray, ...]:
    """`_pair_kernel` from the differences d and their squared lengths inv, both overwritten."""
    n = len(qs)
    inv.reshape(-1)[:: n + 1] = np.inf  # whose reciprocal is 0
    np.reciprocal(inv, out=inv)
    d *= inv
    return d.reshape(2 * n, n) @ qs, d, inv


def _complex(a: np.ndarray) -> np.ndarray:
    """The complex numbers whose real parts, then imaginary parts, make a, signed zeros kept."""
    z = np.empty(a.size // 2, complex)
    z.real, z.imag = a.reshape(2, -1)
    return z


def _extremes(m: np.ndarray) -> tuple[float, tuple[int, int] | None, float]:
    """The least off-diagonal entry of the square matrix m, the pair (i, j)
    attaining it and the largest entry; (inf, None, 1.0) for fewer than two
    rows.  Sets the diagonal of m to inf."""
    n = len(m)
    if n < 2:
        return np.inf, None, 1.0
    top = float(m.max())
    m.reshape(-1)[:: n + 1] = np.inf
    k = int(m.argmin())
    return float(m.flat[k]), divmod(k, n), top


# distances whose squares are normal floats (max/2: a sum of two squares rounds up)
_SQUARED_RANGE = (np.sqrt(np.finfo(float).tiny), np.sqrt(np.finfo(float).max / 2))


def _admit(system: ChargeSystem) -> tuple:
    """(v, d, inv, xy, qs, diameter): the pair kernel of `_pair_kernel`, the
    (2, N) positions, the charges and their diameter, from one set of
    differences.  ValueError on a non-finite entry, CollisionError on a pair
    within COLLISION_FACTOR times the diameter and ValueError on a squared
    distance outside float64's normal range, judged on the squared distances;
    a system the range refuses is judged again on their hypot, so a square
    past float64 neither hides a collision nor garbles the distances named,
    and one whose diameter overflows is refused by range."""
    _require_finite(system)
    zs = np.asarray(system.positions, dtype=complex)
    xy, qs = np.stack((zs.real, zs.imag)), np.asarray(system.charges, dtype=float)
    with np.errstate(over="ignore"):  # an overflow here is refused below
        d = _differences(xy)
        inv = np.square(d[0])
        inv += np.square(d[1])
        dist, pair, diameter = _extremes(inv)
        dist, diameter = np.sqrt(dist), np.sqrt(diameter)
        if not (_SQUARED_RANGE[0] <= dist and diameter <= _SQUARED_RANGE[1]):
            dist, pair, diameter = _extremes(np.hypot(d[0], d[1]))
            if not dist <= COLLISION_FACTOR * diameter < np.inf:
                raise ValueError("squared pair distances leave float64's normal range "
                                 f"(distances {dist:.3e} to {diameter:.3e})")
    if dist <= COLLISION_FACTOR * diameter:
        raise CollisionError(pair, dist)
    return (*_finish_kernel(d, inv, qs), xy, qs, diameter)


def roots(p: ExactPoly) -> list[complex]:
    """All deg(p) complex roots of p.

    Companion-matrix eigenvalues provide the initial guess; Aberth-Ehrlich
    simultaneous iteration in extended precision polishes until every residual
    satisfies |p(r)| <= DEFAULT_ROOT_TOL * max|coeff| * max(1, |r|)**deg, and
    raises ConvergenceFailure when 120 iterations do not get there or float64
    cannot hold the scaled lead coefficient or the roots.  Closeness of the
    roots is not checked here: `_admit` does that for every charge system.
    """
    deg = p.degree
    if deg < 1:
        raise ValueError("root extraction needs degree >= 1")
    # int / int rounds correctly, as float(Fraction) does, without the Fractions
    scale = max(abs(n) for n in p._num)
    cf = np.array([n / scale for n in p._num], dtype=float)
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
            return zs.astype(complex).tolist()
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise ConvergenceFailure(f"float64 cannot hold the roots: {exc}") from exc


def force(system: ChargeSystem) -> list[complex]:
    """Complex force on every charge: F_i = Q_i (k + sum_{j!=i} Q_j/(z_i - z_j)).

    All components vanishing is exactly the critical-point condition of the
    logarithmic pair energy (plus linear field term).
    """
    v, *_, qs, _ = _admit(system)
    return (qs * (system.field + _complex(v))).tolist()


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
    itself.  Float roots that coincide raise CollisionError, a pair float64
    cannot hold ConvergenceFailure, and a tol that is not positive and finite
    ValueError.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    system, (v, *_, qs, _) = _pair_system(p, q, lam, k)
    deg_p = int(p.degree)
    residuals: list[float] = []
    try:
        for poly, zs in ((p, system.positions[:deg_p]), (q, system.positions[deg_p:])):
            residuals += np.abs(_horner(to_floats(poly), np.asarray(zs, dtype=complex))).tolist()
    except OverflowError as exc:
        raise ConvergenceFailure(f"float64 cannot hold the coefficients: {exc}") from exc
    forces = (qs * (system.field + _complex(v))).tolist()
    max_norm = max((abs(f) for f in forces), default=0.0)
    return EquilibriumReport(
        max_force_norm=max_norm,
        per_charge_forces=forces,
        root_residuals=residuals,
        tolerances={"force": tol, "root": DEFAULT_ROOT_TOL, "collision": COLLISION_FACTOR},
        system=system,
    )

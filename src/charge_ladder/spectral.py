"""External-field machinery: field pairs, Wronskian eigenfunction data and the
exact solve of the field equation.

With a homogeneous field k the balance condition picks up the first-order term
2k(p'q - lam*q'p).  For charge ratio 1 the solving pair comes from a Wronskian
with an exponential column; for charge ratio 2 no closed construction is
known, but for a given q the condition is a linear ODE in p whose polynomial
solution is decided by back-substitution (``polyrat.polynomial_solution``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .generators import BracketParams, bracket, psi_chain
from .polyrat import (
    ExactPoly,
    InvariantViolation,
    NotSquarefree,
    RationalLike,
    as_fraction,
    det_poly_matrix,
    is_squarefree,
    polynomial_solution,
)

__all__ = [
    "FieldPair",
    "FieldRequired",
    "SolveReport",
    "ba_lambda1",
    "bilinear_field_check",
    "find_parameter_weight",
    "scale_substitute",
    "solve_p_given_q",
]


class FieldRequired(ValueError):
    """An operation that only makes sense for nonzero field strength got k = 0."""


@dataclass(frozen=True)
class FieldPair:
    """A candidate pair (p, q) at charge ratio lam in external field k.

    Certified pairs satisfy bracket(p, q, lam, k) = 0; for lam = 2 with
    nonzero field that forces deg p = 2 deg q (zero total charge).
    """

    p: ExactPoly
    q: ExactPoly
    k: Fraction
    lam: Fraction

    def __init__(self, p: ExactPoly, q: ExactPoly, k: RationalLike, lam: RationalLike):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", as_fraction(k))
        object.__setattr__(self, "lam", as_fraction(lam))

    @property
    def params(self) -> BracketParams:
        return BracketParams(self.lam, self.k)


def bilinear_field_check(pair: FieldPair) -> ExactPoly:
    """The bracket-with-field polynomial of the pair; zero certifies that the
    associated exponential-weighted eigenfunction identity holds."""
    return bracket(pair.p, pair.q, pair.params)


def ba_lambda1(n: int, k: RationalLike, psi_constants=None) -> FieldPair:
    """Charge-ratio-1 field pair from Wronskians with an exponential column.

    q is the plain Wronskian of the double-antiderivative chain psi_1..psi_n;
    p is the same determinant extended by a column whose i-th derivative slot
    carries the factored weight k**i.  Satisfies the field bracket exactly.
    """
    k = as_fraction(k)
    if k == 0:
        raise FieldRequired("field strength k must be nonzero; use the ladder generators at k=0")
    if n < 0:
        raise ValueError("chain length must be >= 0")
    if n == 0:
        return FieldPair(ExactPoly.one(), ExactPoly.one(), k, 1)
    chain = psi_chain(n, psi_constants)
    columns = []
    for f in chain:
        derivs = [f]
        for _ in range(n):
            derivs.append(derivs[-1].derivative())
        columns.append(derivs)
    columns.append([ExactPoly.constant(k ** i) for i in range(n + 1)])
    p = det_poly_matrix([[columns[j][i] for j in range(n + 1)] for i in range(n + 1)])
    q = det_poly_matrix([[columns[j][i] for j in range(n)] for i in range(n)])
    pair = FieldPair(p, q, k, 1)
    if not bilinear_field_check(pair).is_zero:
        raise InvariantViolation("exponential-column Wronskian pair failed the field bracket")
    return pair


def scale_substitute(pair: FieldPair, new_k: RationalLike) -> FieldPair:
    """Re-express the pair at a different field strength via z -> (new_k/k) z.

    Bracket-zero status is preserved exactly; polynomials are substituted as
    they stand, without renormalization.
    """
    new_k = as_fraction(new_k)
    if pair.k == 0 or new_k == 0:
        raise FieldRequired("scale substitution needs nonzero field on both sides")
    ratio = new_k / pair.k
    return FieldPair(pair.p.compose_linear(ratio), pair.q.compose_linear(ratio), new_k, pair.lam)


@dataclass(frozen=True)
class SolveReport:
    """Result of solving the field equation for p given q."""

    status: str  # "solved" | "incompatible"
    pair: FieldPair | None
    rank: int
    free_parameters: int

    @property
    def solved(self) -> bool:
        return self.status == "solved"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "p": self.pair.p.to_json() if self.pair else None,
            "free_parameters": self.free_parameters,
            "rank": self.rank,
        }


def solve_p_given_q(q: ExactPoly, lam: RationalLike = 2, k: RationalLike = 1) -> SolveReport:
    """Solve the field balance equation for monic p of degree n = lam*deg(q).

    The bracket with field is the linear operator
    q*p'' + 2(k*q - lam*q')*p' + (lam^2*q'' - 2k*lam*q')*p on p, whose pivot
    2k*(j - lam*deg q) on the coefficient p_j vanishes only at j = n.  With
    p_n = 1 moved to the right-hand side, polynomial_solution fixes p_0..p_{n-1}
    by back-substitution, so the rank is always n; a failed consistency row is
    definitive: no monic p of degree n balances this (q, k).
    """
    lam, k = as_fraction(lam), as_fraction(k)
    if k == 0:
        raise FieldRequired("the zero-field families come from the ladder generators")
    if q.is_zero or q.lead != 1:
        raise ValueError("q must be monic")
    if not is_squarefree(q):
        raise NotSquarefree("q must be squarefree")
    n_frac = lam * int(q.degree)
    if n_frac.denominator != 1:
        raise ValueError(f"charge balance needs integral degree lam*deg(q), got {n_frac}")
    n = int(n_frac)
    params = BracketParams(lam, k)
    dq = q.derivative()
    ops = (lam * lam * q.derivative(2) - 2 * k * lam * dq, 2 * k * q - 2 * lam * dq, q)
    top = ExactPoly.monomial(n)
    rest = polynomial_solution(ops, -bracket(top, q, params))
    if rest is None:
        return SolveReport("incompatible", None, n, 0)
    p = top + rest
    if not bracket(p, q, params).is_zero:
        raise InvariantViolation("solver produced a p that fails the bracket")
    return SolveReport("solved", FieldPair(p, q, k, lam), n, 0)


# ---------------------------------------------------------------------------
# weight homogeneity search
# ---------------------------------------------------------------------------


def is_weight_homogeneous(
    family: Callable[[Fraction], ExactPoly],
    weight: int,
    scales: Iterable[RationalLike] = (2, 3),
    samples: Iterable[RationalLike] = (1, Fraction(1, 2), -2),
) -> bool:
    """Test whether a monic one-parameter family transforms homogeneously.

    Checks family(k**w * t)(k z) == k**deg * family(t)(z) exactly at the given
    scales k and parameter samples t.
    """
    scales = [as_fraction(s) for s in scales]
    samples = [as_fraction(t) for t in samples]
    for t in samples:
        base = family(t)
        deg = int(base.degree)
        for k in scales:
            transformed = family(k ** weight * t).compose_linear(k)
            if transformed != base * k ** deg:
                return False
    return True


def find_parameter_weight(
    family: Callable[[Fraction], ExactPoly],
    weights: Iterable[int] = range(1, 10),
    scales: Iterable[RationalLike] = (2, 3),
    samples: Iterable[RationalLike] = (1, Fraction(1, 2), -2),
) -> int | None:
    """First admissible parameter weight from ``weights``, or None if no
    weight makes the family homogeneous."""
    for w in weights:
        if is_weight_homogeneous(family, w, scales, samples):
            return w
    return None

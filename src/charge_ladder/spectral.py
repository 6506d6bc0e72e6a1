"""External-field machinery: field pairs, Wronskian eigenfunction data and the
exact solve of the field equation.

With a homogeneous field k the balance condition picks up the first-order term
2k(p'q - lam*q'p).  For charge ratio 1 the solving pair comes from a Wronskian
with an exponential column; for charge ratio 2 no closed construction is
known, but for a given q the condition is the bracket's linear operator on p
(``generators._bracket_ops``), whose polynomial solution is decided by
back-substitution (``polyrat.polynomial_solution``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .generators import BracketParams, _bracket_ops, bracket, psi_chain
from .polyrat import (
    ExactPoly,
    InvariantViolation,
    NotSquarefree,
    RationalLike,
    _prefix_wronskians,
    as_fraction,
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
    p is W[psi_1, ..., psi_n, e^(kz)] / e^(kz), the same determinant extended
    by a column whose i-th derivative slot carries k**i.  Both are the last
    two pivots of one condensation sweep over the chain and the twisted
    constant 1.  Satisfies the field bracket exactly.
    """
    k = as_fraction(k)
    if k == 0:
        raise FieldRequired("field strength k must be nonzero; use the ladder generators at k=0")
    if n == 0:
        return FieldPair(ExactPoly.one(), ExactPoly.one(), k, 1)
    q, p = _prefix_wronskians(psi_chain(n, psi_constants) + [ExactPoly.one()], k)[-2:]
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

    The bracket with field is a linear operator on p (``_bracket_ops``), whose
    pivot 2k*(j - lam*deg q) on the coefficient p_j vanishes only at j = n.  With
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
    top = ExactPoly.monomial(n)
    rest = polynomial_solution(_bracket_ops(q, params), -bracket(top, q, params))
    if rest is None:
        return SolveReport("incompatible", None, n, 0)
    p = top + rest
    if not bracket(p, q, params).is_zero:
        raise InvariantViolation("solver produced a p that fails the bracket")
    return SolveReport("solved", FieldPair(p, q, k, lam), n, 0)


# ---------------------------------------------------------------------------
# weight homogeneity search
# ---------------------------------------------------------------------------


_WEIGHT_SCALES = (Fraction(2), Fraction(3))
_WEIGHT_SAMPLES = (Fraction(1), Fraction(1, 2), Fraction(-2))


def is_weight_homogeneous(family: Callable[[Fraction], ExactPoly], weight: int) -> bool:
    """Test whether a monic one-parameter family transforms homogeneously.

    Checks family(k**w * t)(k z) == k**deg * family(t)(z) exactly at the
    scales k = 2, 3 and the parameter samples t = 1, 1/2, -2.
    """
    for t in _WEIGHT_SAMPLES:
        base = family(t)
        deg = int(base.degree)
        for k in _WEIGHT_SCALES:
            transformed = family(k ** weight * t).compose_linear(k)
            if transformed != base * k ** deg:
                return False
    return True


def find_parameter_weight(family: Callable[[Fraction], ExactPoly]) -> int | None:
    """First weight w in 1..9 that makes the family homogeneous, or None;
    each distinct family(t) is built once per search."""
    family = functools.cache(family)
    for w in range(1, 10):
        if is_weight_homogeneous(family, w):
            return w
    return None

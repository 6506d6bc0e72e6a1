"""Generation of the polynomial families whose roots balance Coulomb charges.

Two constructions are provided for the charge-ratio-1 family (the Adler-Moser
polynomials): a first-order three-term recurrence driven by log-free
integration, and the Wronskian determinant of an iterated double-antiderivative
chain.  The charge-ratio-2 families come as a doubly infinite ladder generated
upward or downward by first-order recurrences.  Everything is exact; free
integration constants are bound to user-supplied rationals at generation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .polyrat import (
    ExactPoly,
    InvariantViolation,
    RationalLike,
    as_fraction,
    hermite_reduce,
    polynomial_solution,
    require_squarefree_coprime,
    wronskian,
)

__all__ = [
    "BracketParams",
    "Certificate",
    "LadderState",
    "UnsupportedLambda",
    "adler_moser",
    "adler_moser_wronskian",
    "admissible_degrees",
    "bracket",
    "certify_rational_integrals",
    "lambda2_ladder",
    "psi_chain",
]


class UnsupportedLambda(ValueError):
    """Rationality certificates only exist for charge ratios 1/2, 1, 2."""


@dataclass(frozen=True)
class BracketParams:
    """Parameters of the bilinear charge-balance form.

    ``lam`` is the magnitude of the negative charges (positive charges are 1);
    ``field`` is the homogeneous external field strength k.
    """

    lam: Fraction
    field: Fraction = Fraction(0)

    def __init__(self, lam: RationalLike, field: RationalLike = 0):
        lam = as_fraction(lam)
        if lam == 0:
            raise ValueError("charge ratio lambda must be nonzero")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "field", as_fraction(field))


def bracket(p: ExactPoly, q: ExactPoly, params: BracketParams) -> ExactPoly:
    """The bilinear form  p''q - 2*lam*p'q' + lam^2*p*q'' + 2k*(p'q - lam*q'p).

    Vanishing identically is equivalent to the roots of p (charge +1) and of
    q (charge -lam) sitting in electrostatic equilibrium in the field k.
    """
    lam, k = params.lam, params.field
    dp, dq = p.derivative(), q.derivative()
    result = p.derivative(2) * q - 2 * lam * dp * dq + lam * lam * p * q.derivative(2)
    if k:
        result = result + 2 * k * (dp * q - lam * dq * p)
    return result


@dataclass(frozen=True)
class LadderState:
    """Index plus the integration constants consumed by ladder generation.

    ``t`` holds the constants introduced at p-steps (t_i), ``tau`` those at
    q-steps (tau_i); missing entries default to zero.  For the Adler-Moser
    chain only ``t`` is used and t_1 is pinned to zero (a translation).
    """

    index: int
    t: Mapping[int, Fraction] = field(default_factory=dict)
    tau: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "t", {int(i): as_fraction(v) for i, v in dict(self.t).items()})
        object.__setattr__(self, "tau", {int(i): as_fraction(v) for i, v in dict(self.tau).items()})

    @property
    def branch(self) -> int:
        return (self.index > 0) - (self.index < 0)

    def t_at(self, i: int) -> Fraction:
        return self.t.get(i, Fraction(0))

    def tau_at(self, i: int) -> Fraction:
        return self.tau.get(i, Fraction(0))


def _coerce_state(index: int, constants) -> LadderState:
    if constants is None:
        return LadderState(index)
    if isinstance(constants, LadderState):
        return LadderState(index, constants.t, constants.tau)
    if isinstance(constants, Mapping):
        return LadderState(index, constants)
    raise TypeError("constants must be a LadderState or a mapping of step -> rational")


def _ladder_step(den: ExactPoly, coef: int, num: ExactPoly, constant: Fraction,
                 what: str) -> ExactPoly:
    """One first-order recurrence step: den * (coef * I(num/den^2) + constant).

    r = den * I(num/den^2) is a polynomial solution of den*r' - den'*r = num,
    one top-down solve that needs no squarefree den, so theta_2 = z^3 (t_2 = 0)
    and the pure powers of z of zero ladder constants take the same route.  r
    is normalised as den * (P + C/den) with P(0) = 0 and deg C < deg den.  No
    solution (a logarithmic term, or a pole deeper than den) would contradict
    the closure of the family and is reported as an internal invariant failure.
    """
    r = polynomial_solution((-den.derivative(), den), num)
    if r is None:
        raise InvariantViolation(f"logarithmic term encountered while generating {what}")
    return coef * (r - (r // den).coeff(0) * den) + constant * den


def adler_moser(n: int, constants=None) -> ExactPoly:
    """n-th Adler-Moser polynomial via the three-term recurrence.

    theta_0 = 1, theta_1 = z, and each theta_{m+1} is theta_{m-1} times
    (2m+1) * integral(theta_m^2 / theta_{m-1}^2) plus the free constant
    t_{m+1}.  The result is monic of degree n(n+1)/2.  ``constants`` maps step
    index m to the rational t_m (m >= 2; missing values default to 0).
    """
    if n < 0:
        raise ValueError("Adler-Moser index must be >= 0")
    state = _coerce_state(n, constants)
    prev, cur = ExactPoly.one(), ExactPoly.x()
    if n == 0:
        return prev
    for m in range(1, n):
        nxt = _ladder_step(prev, 2 * m + 1, cur * cur, state.t_at(m + 1), f"theta_{m + 1}")
        prev, cur = cur, nxt
    expected = n * (n + 1) // 2
    if cur.degree != expected or cur.lead != 1:
        raise InvariantViolation(f"theta_{n} degree/normalization drifted: {cur.degree}")
    return cur


def psi_chain(n: int, psi_constants: Sequence[tuple[RationalLike, RationalLike]] | None = None
              ) -> list[ExactPoly]:
    """The chain psi_1 = z, psi_m'' = psi_{m-1}.

    Each double antiderivative admits two free constants; ``psi_constants``
    supplies them as (linear, constant) pairs for psi_2, psi_3, ... and
    defaults to zeros.
    """
    if n < 0:
        raise ValueError("chain length must be >= 0")
    consts = list(psi_constants or [])
    chain: list[ExactPoly] = []
    cur = ExactPoly.x()
    for m in range(1, n + 1):
        if m > 1:
            a, b = consts[m - 2] if m - 2 < len(consts) else (0, 0)
            cur = cur.antiderivative().antiderivative() + ExactPoly((as_fraction(b), as_fraction(a)))
        chain.append(cur)
    return chain


def adler_moser_wronskian(n: int, psi_constants=None) -> ExactPoly:
    """n-th Adler-Moser polynomial as the monic Wronskian W[psi_1, ..., psi_n]."""
    if n < 0:
        raise ValueError("Adler-Moser index must be >= 0")
    if n == 0:
        return ExactPoly.one()
    w = wronskian(psi_chain(n, psi_constants))
    return w.monic()


def lambda2_ladder(i: int, constants=None) -> tuple[ExactPoly, ExactPoly]:
    """The i-th pair (p_i, q_i) of the charge-ratio-2 ladder, either branch.

    Upward from p_0 = q_0 = 1:

        q_j = q_{j-1} * ((3j-2) * I(p_{j-1}/q_{j-1}^2) + tau_j)
        p_j = p_{j-1} * ((6j-1) * I(q_j^4   /p_{j-1}^2) + t_j)

    Downward the analogous steps carry opposite-sign prefactors.  Degrees obey
    deg p_i = i(3i+2) and deg q_i = i(3i-1)/2 for every choice of constants.
    """
    state = _coerce_state(i, constants)
    p, q = ExactPoly.one(), ExactPoly.one()
    if i >= 0:
        for j in range(1, i + 1):
            q = _ladder_step(q, 3 * (j - 1) + 1, p, state.tau_at(j), f"q_{j}")
            p = _ladder_step(p, 6 * j - 1, q ** 4, state.t_at(j), f"p_{j}")
    else:
        for j in range(0, i, -1):
            p_new = _ladder_step(p, -(6 * j - 1), q ** 4, state.t_at(j - 1), f"p_{j - 1}")
            q = _ladder_step(q, -(3 * (j - 1) + 1), p_new, state.tau_at(j - 1), f"q_{j - 1}")
            p = p_new
    if p.degree != i * (3 * i + 2) or q.degree != i * (3 * i - 1) // 2:
        raise InvariantViolation(
            f"ladder degrees drifted at i={i}: deg p={p.degree}, deg q={q.degree}")
    return p, q


def admissible_degrees(n: int, m: int) -> bool:
    """Whether degrees (n, m) = (deg p, deg q) can support a vanishing
    charge-ratio-2 bracket: (n - 2m)^2 - n - 4m = 0.

    The solutions are exactly n = i(3i+2) paired with m = i(3i-1)/2 or
    m = (i+1)(3(i+1)-1)/2, i ranging over the integers.
    """
    return (n - 2 * m) ** 2 - n - 4 * m == 0


@dataclass(frozen=True)
class Antiderivative:
    """A certified rational antiderivative of integrand_num / integrand_den^2."""

    label: str
    polynomial_part: ExactPoly
    rational_numerator: ExactPoly
    rational_denominator: ExactPoly

    def to_json(self) -> dict:
        return {
            "integrand": self.label,
            "polynomial_part": self.polynomial_part.to_json(),
            "rational_numerator": self.rational_numerator.to_json(),
            "rational_denominator": self.rational_denominator.to_json(),
        }


@dataclass(frozen=True)
class Obstruction:
    """The nonzero simple-pole numerator blocking a rational antiderivative."""

    label: str
    log_numerator: ExactPoly
    log_denominator: ExactPoly

    def to_json(self) -> dict:
        return {
            "integrand": self.label,
            "log_numerator": self.log_numerator.to_json(),
            "log_denominator": self.log_denominator.to_json(),
        }


@dataclass(frozen=True)
class Certificate:
    """Outcome of certifying the pair of integrals q^(2L)/p^2 and p^(2/L)/q^2."""

    lam: Fraction
    bracket_zero: bool
    antiderivatives: tuple[Antiderivative, ...]
    obstructions: tuple[Obstruction, ...]

    @property
    def rational(self) -> bool:
        return not self.obstructions

    def to_json(self) -> dict:
        return {
            "lambda": str(self.lam),
            "bracket_zero": self.bracket_zero,
            "antiderivatives": [a.to_json() for a in self.antiderivatives],
            "obstructions": [o.to_json() for o in self.obstructions],
        }


def certify_rational_integrals(p: ExactPoly, q: ExactPoly, lam: RationalLike) -> Certificate:
    """Decide rationality of both integrals attached to (p, q) at charge ratio lam.

    Only lam in {1/2, 1, 2} makes both exponents 2*lam and 2/lam integral and
    the question well posed.  Requires p, q squarefree and coprime.  When the
    bracket vanishes both antiderivatives are emitted explicitly; otherwise the
    nonzero logarithmic numerators are reported.
    """
    lam = as_fraction(lam)
    if lam not in (Fraction(1, 2), Fraction(1), Fraction(2)):
        raise UnsupportedLambda(f"lambda must be 1/2, 1 or 2, got {lam}")
    require_squarefree_coprime(p, q)
    br = bracket(p, q, BracketParams(lam))
    sides = (
        (f"q^{int(2 * lam)}/p^2", q ** int(2 * lam), p),
        (f"p^{int(2 / lam)}/q^2", p ** int(2 / lam), q),
    )
    antis, obstructions = [], []
    for label, num, den in sides:
        red = hermite_reduce(num, den)
        if red.log_free:
            antis.append(Antiderivative(label, red.poly_antideriv,
                                        red.rational_part_numerator, den))
        else:
            obstructions.append(Obstruction(label, red.log_numerator, den))
    if br.is_zero and obstructions:
        raise InvariantViolation("vanishing bracket must certify both integrals rational")
    if not br.is_zero and not obstructions:
        raise InvariantViolation("nonzero bracket must obstruct at least one integral")
    return Certificate(lam, br.is_zero, tuple(antis), tuple(obstructions))

"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is stored as integer numerators over one positive common
denominator, in ascending degree order with trailing zeros stripped and in
lowest terms, so equality and degree are structural and nothing here ever
rounds; ``coeffs`` presents the coefficients as reduced `Fraction`s.  Products
run by Kronecker substitution and modular inverses by Newton lifting, both on
Python integers; the lift stops at a rational reconstruction or, near the
Hadamard bound, at the resultant.  A remainder-only Euclid mod a word-size
prime certifies squarefree and coprime pairs; only the lift folds a cofactor
from its quotients.  On top of the ring operations the module provides the
symbolic primitives everything else is built on:

* polynomial solutions of linear ODEs with polynomial coefficients by one
  top-down back-substitution (``polynomial_solution``): every ladder step,
  the field solve and each log-free integral of N/p**2 is one,
* Wronskians by Sylvester condensation (``wronskian``): about n**2/2
  two-by-two Wronskians, each divided exactly by the previous pivot,
* reduction of integrals of the form N/p**2 (``hermite_reduce``, whose
  modular inverse only writes out a log obstruction, plus the fully general
  ``integrate_rational`` for arbitrary denominators),
* the residue-divisibility criterion linking vanishing residues of
  q**(2*lam)/p**2 to a polynomial divisibility test.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

RationalLike = Union[int, str, Fraction]

__all__ = [
    "DivisionByZero",
    "ExactPoly",
    "InvariantViolation",
    "NotCoprime",
    "NotSquarefree",
    "RationalIntegral",
    "ReductionResult",
    "UndefinedGcd",
    "as_fraction",
    "exact_div",
    "extended_gcd",
    "gcd_poly",
    "hermite_reduce",
    "integrate_rational",
    "invert_mod",
    "is_squarefree",
    "polynomial_solution",
    "require_squarefree_coprime",
    "residue_divisibility",
    "squarefree_factorization",
    "wronskian",
]


class DivisionByZero(ZeroDivisionError):
    """Polynomial division with a zero divisor."""


class UndefinedGcd(ValueError):
    """gcd(0, 0) requested."""


class NotSquarefree(ValueError):
    """A polynomial required to be squarefree has a repeated root."""


class NotCoprime(ValueError):
    """Two polynomials required to be coprime share a factor."""


class InvariantViolation(RuntimeError):
    """An identity that must hold by construction failed; upstream bug."""


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce to Fraction, rejecting floats (which would silently round)."""
    if isinstance(value, float):
        raise TypeError("refusing float %r in exact arithmetic; pass a Fraction or string" % value)
    return Fraction(value)


class ExactPoly:
    """Immutable univariate polynomial with exact rational coefficients.

    The coefficient of z**d is ``_num[d] / _den``: integer numerators without
    trailing zeros over one positive denominator sharing no factor with all of
    them, so the zero polynomial is ``((), 1)`` with degree -inf.  ``coeffs``
    gives the same coefficients as reduced Fractions, built on first use.
    """

    __slots__ = ("_num", "_den", "_coeffs")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [as_fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _ints(cls, nums: list[int], den: int = 1) -> "ExactPoly":
        """The polynomial sum(nums[d] * z**d) / den, for any nonzero den;
        takes ownership of the list."""
        poly = object.__new__(cls)
        poly._set(nums, den)
        return poly

    def _set(self, nums: list[int], den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        if den < 0:
            nums, den = [-c for c in nums], -den
        g = math.gcd(den, *nums)
        if g > 1:
            nums, den = [c // g for c in nums], den // g
        self._num, self._den, self._coeffs = tuple(nums), den, None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls) -> "ExactPoly":
        return cls(())

    @classmethod
    def one(cls) -> "ExactPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "ExactPoly":
        """The identity polynomial z."""
        return cls((0, 1))

    @classmethod
    def constant(cls, c: RationalLike) -> "ExactPoly":
        return cls((as_fraction(c),))

    @classmethod
    def monomial(cls, degree: int, coeff: RationalLike = 1) -> "ExactPoly":
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls((0,) * degree + (as_fraction(coeff),))

    # -- basic queries -------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(c, self._den) for c in self._num)
        return self._coeffs

    @property
    def degree(self) -> float:
        """Degree; the zero polynomial reports -inf so degree sums work."""
        return len(self._num) - 1 if self._num else -math.inf

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def lead(self) -> Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeff(len(self._num) - 1)

    def coeff(self, degree: int) -> Fraction:
        """Coefficient of z**degree (0 beyond the stored range)."""
        if 0 <= degree < len(self._num):
            return Fraction(self._num[degree], self._den)
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExactPoly):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == ExactPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    # -- pretty printing -----------------------------------------------------

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for d in range(len(self._num) - 1, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if d == 0:
                body = _rational_str(mag)
            else:
                var = "z" if d == 1 else f"z^{d}"
                body = var if mag == 1 else f"{_rational_str(mag)}*{var}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ExactPoly('{self}')"

    # -- ring operations -----------------------------------------------------

    def __neg__(self) -> "ExactPoly":
        return ExactPoly._ints([-c for c in self._num], self._den)

    def __add__(self, other) -> "ExactPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = math.lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        return ExactPoly._ints(
            [a * sa + b * sb for a, b in itertools.zip_longest(self._num, other._num, fillvalue=0)],
            den)

    __radd__ = __add__

    def __sub__(self, other) -> "ExactPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ExactPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "ExactPoly":
        if isinstance(other, (int, Fraction)):
            return ExactPoly._ints([c * other.numerator for c in self._num],
                                   self._den * other.denominator)
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return ExactPoly._ints(_kmul(self._num, other._num), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "ExactPoly":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise DivisionByZero("division of polynomial by zero scalar")
        return ExactPoly._ints([c * scalar.denominator for c in self._num],
                               self._den * scalar.numerator)

    def __pow__(self, n: int) -> "ExactPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = ExactPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __divmod__(self, divisor: "ExactPoly") -> tuple["ExactPoly", "ExactPoly"]:
        """Euclidean division over Q: self = quot*divisor + rem, deg rem < deg divisor."""
        divisor = self._coerce(divisor)
        if divisor is NotImplemented:
            return NotImplemented
        if divisor.is_zero:
            raise DivisionByZero("polynomial division by zero")
        if len(self._num) < len(divisor._num):
            return ExactPoly.zero(), self
        # s*A = Q*B + R over Z, with self = A/da and divisor = B/db
        quot, rem, s = _divmod_int(self._num, divisor._num)
        den = s * self._den
        return (ExactPoly._ints([c * divisor._den for c in quot], den),
                ExactPoly._ints(rem, den))

    def __floordiv__(self, divisor: "ExactPoly") -> "ExactPoly":
        return divmod(self, divisor)[0]

    def __mod__(self, divisor: "ExactPoly") -> "ExactPoly":
        return divmod(self, divisor)[1]

    @staticmethod
    def _coerce(value) -> "ExactPoly":
        if isinstance(value, ExactPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactPoly.constant(value)
        return NotImplemented

    # -- calculus and substitution --------------------------------------------

    def derivative(self, order: int = 1) -> "ExactPoly":
        nums = list(self._num)
        for _ in range(order):
            nums = [c * d for d, c in enumerate(nums)][1:]
        return ExactPoly._ints(nums, self._den)

    def antiderivative(self) -> "ExactPoly":
        """Antiderivative with zero constant term."""
        scale = math.lcm(*range(1, len(self._num) + 1))
        return ExactPoly._ints([0] + [c * (scale // (d + 1)) for d, c in enumerate(self._num)],
                               self._den * scale)

    def compose_linear(self, scale: RationalLike) -> "ExactPoly":
        """Substitute z -> scale*z."""
        a = as_fraction(scale)
        n = len(self._num) - 1
        return ExactPoly._ints(
            [c * a.numerator ** d * a.denominator ** (n - d) for d, c in enumerate(self._num)],
            self._den * a.denominator ** max(n, 0))

    def monic(self) -> "ExactPoly":
        if self.is_zero:
            raise DivisionByZero("the zero polynomial has no monic normalization")
        return ExactPoly._ints(list(self._num), self._num[-1])

    def __call__(self, point):
        """Evaluate by Horner; exact for Fraction/int points, float otherwise."""
        acc = point * 0  # zero of the point's type
        for c in reversed(self.coeffs):
            acc = acc * point + (c if isinstance(point, (int, Fraction)) else (c.numerator / c.denominator))
        return acc

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        """Shared wire format: {"var": "z", "coeffs": [rational strings]}."""
        return {"var": "z", "coeffs": [_rational_str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: Mapping) -> "ExactPoly":
        coeffs = obj.get("coeffs") if isinstance(obj, Mapping) else None
        if not (isinstance(coeffs, (list, tuple)) and all(isinstance(c, (str, int, Fraction))
                or isinstance(c, float) and math.isfinite(c) for c in coeffs)):
            raise ValueError("polynomial JSON must be an object with a 'coeffs' array of rationals")
        for c in coeffs:  # a float is taken only where its binary value is the decimal it reads
            if isinstance(c, float) and Fraction(c) != Fraction(repr(c)):
                raise ValueError(f"polynomial JSON float {c!r} is not exactly {c!r} in binary; "
                                 "give it as a rational string")
        return cls(tuple(_parse_rational(c) for c in coeffs))


# Decimal converts between int and digit strings without the interpreter's
# int/str digit limit (4300 digits by default), which exact coefficients pass.
_RATIONAL = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*\Z")


def _rational_str(c: Fraction) -> str:
    """str(c) for a coefficient of any size."""
    num = str(Decimal(c.numerator))
    return num if c.denominator == 1 else f"{num}/{Decimal(c.denominator)}"


def _parse_rational(text) -> Fraction:
    """Fraction(text) for an "n" or "n/d" string of any size; any other value
    goes to Fraction as it is.  Raises ValueError on a zero denominator."""
    match = _RATIONAL.match(text) if isinstance(text, str) else None
    if match is None:
        return Fraction(text)
    num, den = (int(Decimal(g)) for g in match.groups("1"))
    if not den:
        raise ValueError("coefficient with a zero denominator")
    return Fraction(num, den)


def exact_div(num: ExactPoly, den: ExactPoly) -> ExactPoly:
    """Division known to be exact; a nonzero remainder is an internal bug."""
    quot, rem = divmod(num, den)
    if not rem.is_zero:
        raise InvariantViolation(f"expected exact division, remainder {rem}")
    return quot


# ---------------------------------------------------------------------------
# integer-vector kernels
#
# Everything below works on the numerator vectors of ExactPoly: ascending
# lists of Python ints.  A rational operation becomes an integer one plus a
# bookkeeping step on the common denominator.
# ---------------------------------------------------------------------------


def _pack(v: Sequence[int], width: int) -> int:
    """sum(v[d] * 256**(width*d)) for signed v, each |v[d]| < 256**width."""
    zero = bytes(width)
    pos = b"".join(c.to_bytes(width, "little") if c > 0 else zero for c in v)
    neg = b"".join((-c).to_bytes(width, "little") if c < 0 else zero for c in v)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kmul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of integer vectors by Kronecker substitution (Harvey, JSC 2009).

    Both vectors are evaluated at 256**width, with slots wide enough for any
    product coefficient and its sign, so one big-integer multiplication
    (CPython's Karatsuba) does the whole convolution.  Adding half a slot to
    every slot before unpacking makes each slot's content non-negative, so no
    borrow crosses a slot boundary.
    """
    if not a or not b:
        return []
    bits = (max(map(int.bit_length, a)) + max(map(int.bit_length, b))
            + min(len(a), len(b)).bit_length() + 1)
    width = -(-bits // 8)
    slots = len(a) + len(b) - 1
    packed = _pack(a, width)
    product = packed * packed if a is b else packed * _pack(b, width)
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * slots, "little")
    data = memoryview((product + offset).to_bytes(width * slots, "little"))
    return [int.from_bytes(data[i:i + width], "little") - half
            for i in range(0, width * slots, width)]


def polynomial_solution(ops: Sequence[ExactPoly], rhs: ExactPoly) -> ExactPoly | None:
    """The polynomial r with sum_k ops[k] * r^(k) = rhs, deg r <= deg rhs - s
    and r_j = 0 wherever f(j) = 0, or None when there is none.

    With s = max(deg ops[k] - k), r_j first reaches row j + s of the system,
    with the scalar pivot f(j) = sum_k lead_k * j!/(j-k)!, lead_k the
    coefficient of z^(s+k) in ops[k].  So the rows are solved top down by
    back-substitution (Abramov, 1989) on integer vectors over one denominator,
    which grows only when a quotient is not integral, so each such row holds
    exactly.  Setting r_j = 0 where f(j) = 0 loses no solution when z^j leads
    a homogeneous solution (r = den of den*r' - den'*r = num).  That row and
    the s rows under the band have no unknown left: they are the residual
    check, and a nonzero one means there is no solution.
    """
    # scale * ops[k] = ints[k] and scale * rhs = b / rhs._den: solve for rhs._den * r
    scale = math.lcm(*(a._den for a in ops))
    ints = [[c * (scale // a._den) for c in a._num] for a in ops]
    b = [c * scale for c in rhs._num]
    s = max(len(a) - 1 - k for k, a in enumerate(ints) if a)
    lead = [a[s + k] if 0 <= s + k < len(a) else 0 for k, a in enumerate(ints)]
    n = len(b) - 1 - s  # degree of r: its top row is the top row of rhs
    # derivs[k][l] = den * (l+k)!/l! * r_(l+k): r^(k) over den, zero until found
    derivs = [[0] * max(n + 1 - k, 0) for k in range(len(ints))]
    den = 1
    for j in range(n, -s - 1, -1):
        t = j + s
        total = den * b[t]
        for k, (a, d) in enumerate(zip(ints, derivs)):
            # row t of ops[k] * r^(k), over the entries l > j - k found so far
            lo, hi = max(t + 1 - len(a), j + 1 - k, 0), min(t + 1, len(d))
            total -= sum(map(operator.mul, a[t + 1 - hi:t + 1 - lo][::-1], d[lo:hi]))
        pivot = sum(c * math.perm(j, k) for k, c in enumerate(lead)) if j >= 0 else 0
        if not pivot:
            if total:
                return None
            continue
        g = abs(pivot) // math.gcd(total, pivot)
        if g > 1:
            den, total = den * g, total * g
            derivs = [[c * g for c in d] for d in derivs]
        rj = total // pivot
        for k, d in enumerate(derivs[:j + 1]):
            d[j - k] = rj * math.perm(j, k)
    return ExactPoly._ints(derivs[0], den * rhs._den)


def _divmod_int(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Division of integer vectors without fractions, len(a) >= len(b).

    Returns quot, rem and s > 0 with s*a = quot*b + rem and deg rem < deg b.
    The partial remainder is scaled, by lead(b)/gcd(top, lead(b)), only at
    the steps whose quotient digit would not be an integer.
    """
    lead, db = b[-1], len(b) - 1
    rem = list(a)
    quot = [0] * (len(a) - db)
    s = 1
    for k in range(len(a) - 1 - db, -1, -1):
        top = rem[k + db]
        if not top:
            continue
        f = abs(lead) // math.gcd(top, lead)
        if f > 1:
            s *= f
            top *= f
            rem[:k + db] = [c * f for c in rem[:k + db]]
            quot[k + 1:] = [c * f for c in quot[k + 1:]]
        c = quot[k] = top // lead
        for j in range(db):
            rem[k + j] -= c * b[j]
    return quot, rem[:db], s


def _divmod_mod(a: Sequence[int], b: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer vectors over Z/n, for lead(b) a unit
    mod n; both reduced into [0, n), the remainder without trailing zeros and
    the quotient topped by lead(a)/lead(b).  Only the entry that fixes the
    next quotient digit is reduced inside the loop."""
    inv = pow(b[-1], -1, n)
    db = len(b) - 1
    rem = list(a)
    quot = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = quot[k] = rem[k + db] % n * inv % n
        if c:
            for j in range(db):
                rem[k + j] -= c * b[j]
    rem = [c % n for c in rem[:db]]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _primitive(ints: Sequence[int]) -> list[int]:
    """ints without trailing zeros, divided by their content, lead positive."""
    ints = list(ints)
    while ints and ints[-1] == 0:
        ints.pop()
    content = math.gcd(*ints)
    if ints and ints[-1] < 0:
        content = -content
    return [v // content for v in ints] if content not in (0, 1) else ints


# ---------------------------------------------------------------------------
# gcd machinery
#
# The common case here is certifying *coprimality* of large generated
# polynomials, so gcd first tries a modular certificate: Euclid mod p on
# remainders only, whose gcd of degree 0 proves gcd 1 over Q (von zur Gathen
# & Gerhard, Modern Computer Algebra, 6.4); invert_mod folds its cofactor from
# the quotients.  A primitive pseudo-remainder sequence over Z runs when the
# fast path is inconclusive.
# ---------------------------------------------------------------------------

_PRIMES = (2305843009213693951, 4611686018427387847, 9223372036854775783)


def _euclid_mod(a: Sequence[int], b: Sequence[int], prime: int) -> tuple[int, list[list[int]], int]:
    """Euclid over GF(prime) on remainders only, for lead(a) nonzero mod prime.

    Returns the degree of gcd(a, b), the quotients q_1, q_2, ... and the lead
    of the last nonzero remainder, which the monic gcd is divided by.
    """
    r0, r1 = [c % prime for c in a], [c % prime for c in b]
    while r1 and not r1[-1]:
        r1.pop()
    quots = []
    while r1:
        quot, rem = _divmod_mod(r0, r1, prime)
        quots.append(quot)
        r0, r1 = r1, rem
    return len(r0) - 1, quots, r0[-1]


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive pseudo-remainder sequence over Z."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_divmod_int(a, b)[1])
    return a


def gcd_poly(a: ExactPoly, b: ExactPoly) -> ExactPoly:
    """Monic greatest common divisor over Q.

    gcd(p, p') of degree 0 certifies p squarefree; gcd(p, q) of degree 0
    certifies p, q coprime.
    """
    if a.is_zero and b.is_zero:
        raise UndefinedGcd("gcd(0, 0) is undefined")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    for prime in _PRIMES:
        if a._num[-1] % prime and b._num[-1] % prime:
            if _euclid_mod(a._num, b._num, prime)[0] == 0:
                return ExactPoly.one()
            break
    return ExactPoly._ints(_int_gcd(a._num, b._num)).monic()


def extended_gcd(a: ExactPoly, b: ExactPoly) -> tuple[ExactPoly, ExactPoly, ExactPoly]:
    """Extended Euclid over Q: returns monic g and s, t with s*a + t*b = g.

    Remainders are renormalized monic each round to curb coefficient growth.
    """
    if a.is_zero and b.is_zero:
        raise UndefinedGcd("gcd(0, 0) is undefined")
    r0, r1 = a, b
    s0, s1 = ExactPoly.one(), ExactPoly.zero()
    t0, t1 = ExactPoly.zero(), ExactPoly.one()
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        s_new, t_new = s0 - q * s1, t0 - q * t1
        if not r.is_zero:
            lead = r.lead
            r, s_new, t_new = r / lead, s_new / lead, t_new / lead
        r0, r1 = r1, r
        s0, s1 = s1, s_new
        t0, t1 = t1, t_new
    lead = r0.lead
    return r0 / lead, s0 / lead, t0 / lead


# -- modular inverse by Newton lifting -----------------------------------------
#
# An obstructed Hermite reduction needs an inverse modulo a large polynomial
# with bulky rational coefficients (log-free integrals are polynomial
# solutions and need none).  Plain extended Euclid over Q suffers severe
# intermediate blowup, so the inverse is computed mod one word-size prime,
# lifted p-adically by Newton steps that double the precision, read back and
# finally *verified exactly* (von zur Gathen & Gerhard, Modern Computer
# Algebra, 5.10, 6.11 and 9).  A prime p not dividing lead(M) with
# gcd(M, A) = 1 mod p makes res(M, A) a p-adic unit, so the inverse exists
# with no p in its denominators.  The lift has two stops.  Below the Hadamard
# bound of res(M, A), Wang's reconstruction reads it back after each doubling
# as rationals over one denominator, which works once p**(2**j) exceeds twice
# the square of their size: early for a small inverse.  Before the doubling
# that would pass the bound, the resultant is computed instead: by
# U*M + V*A = res(M, A) the inverse is V/res with V integral, so the lift goes
# no further than bits(res) plus one word before it reads V off as symmetric
# residues.  If V is larger, the check fails and the lift doubles and reads V
# again: it needs no precision cap.  Exact Euclid over Q runs only when no
# prime certifies coprimality (a common factor, or unlucky primes).


def _lift(a: Sequence[int], m: Sequence[int], s: list[int], n: int, t: int) -> tuple[list[int], int]:
    """From s*a = 1 (mod m, n) to s' with s'*a = 1 (mod m, n*t), t a power of
    n's prime; returns s' and n*t.  Each Newton step s' = s + n*(s*h mod u),
    h = (1 - a*s)/n, lifts by u = min(n, t): the last one only by what is
    left of t, and the second product runs at precision u, not n*u."""
    while t > 1:
        u = min(n, t)
        big = n * u
        _, e = _divmod_mod(_kmul(a, s), m, big)
        h = [-c // n for c in e]
        h[0] = (1 - e[0]) // n
        _, r = _divmod_mod(_kmul(s, h), m, u)
        s, n, t = [x + n * y for x, y in itertools.zip_longest(s, r, fillvalue=0)], big, t // u
    return s, n


def _resultant(a: Sequence[int], b: Sequence[int]) -> int:
    """res(a, b) of nonzero integer vectors without trailing zeros, 0 when
    they share a factor, by the subresultant PRS (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 3.3.7): each pseudo-remainder
    divides exactly by g*h**delta, so coefficients grow only linearly."""
    ca, cb = math.gcd(*a), math.gcd(*b)
    a, b = [c // ca for c in a], [c // cb for c in b]
    da, db = len(a) - 1, len(b) - 1
    res = ca ** db * cb ** da
    if da < db:  # res(a, b) = (-1)**(da*db) * res(b, a)
        res = -res if da & db & 1 else res
        a, b, da, db = b, a, db, da
    g = h = 1
    while db > 0:
        delta = da - db
        _, rem, s = _divmod_int(a, b)  # s divides lead(b)**(delta+1)
        f, d = b[-1] ** (delta + 1) // s, g * h ** delta
        while rem and not rem[-1]:
            rem.pop()
        res = -res if da & db & 1 else res
        a, b, g = b, [c * f // d for c in rem], b[-1]
        h = g ** delta // h ** (delta - 1) if delta else h
        da, db = db, len(b) - 1
    return res * (b[-1] ** da // h ** (da - 1) if da else h) if b else 0


def _reconstruct(residues: Sequence[int], n: int) -> tuple[list[int], int] | None:
    """Numerators x_i and one denominator d, all at most sqrt(n/2) in size,
    with x_i = d*residues[i] (mod n); None when there are none.

    Wang's reconstruction (a half extended Euclid) runs only on a residue
    that the running common denominator does not already bring under the
    bound, so a vector whose coefficients share their denominator costs one
    reconstruction and two multiplications per coefficient.
    """
    bound = math.isqrt(n >> 1)
    den = 1
    for v in residues:
        r0, r1 = n, v * den % n
        if min(r1, n - r1) <= bound:
            continue
        s0, s1 = 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            s0, s1 = s1, s0 - q * s1
        den *= abs(s1)
        if den > bound or math.gcd(den, n) != 1:
            return None
    nums = [v * den % n for v in residues]
    nums = [x - n if x > n >> 1 else x for x in nums]
    if any(abs(x) > bound for x in nums):
        return None
    return nums, den


def invert_mod(a: ExactPoly, modulus: ExactPoly) -> ExactPoly:
    """Inverse of a modulo modulus over Q; requires gcd(a, modulus) = 1."""
    if modulus.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    a = a % modulus
    if a.is_zero:
        raise NotCoprime("zero has no inverse")
    if a.degree == 0:
        return ExactPoly.constant(1 / a.lead)
    # modulus = M/dm and a = A/da, so a's inverse is da times A's
    num, m = a._num, modulus._num
    # bits of the Hadamard bound |res(M, A)| <= |M|**deg A * |A|**deg M
    hadamard = ((len(num) - 1) * sum(c * c for c in m).bit_length()
                + (len(m) - 1) * sum(c * c for c in num).bit_length()) // 2 + 1
    for prime in _PRIMES:
        if m[-1] % prime == 0:
            continue
        deg, quots, lead = _euclid_mod(m, num, prime)
        if deg != 0:
            continue  # unlucky prime, or a genuine common factor
        # s*A = 1 (mod M, prime): A's cofactors t_(k+1) = t_(k-1) - q_k*t_k, over
        # lead; q_k*t_k outranks t_(k-1) mod prime, so no trailing zero appears
        t, s = [], [pow(lead, -1, prime)]
        for quot in quots[:-1]:
            t, s = s, [(x - y) % prime for x, y in
                       itertools.zip_longest(t, _kmul(quot, s), fillvalue=0)]
        n, k, res = prime, 1, None  # n = prime**k
        while True:
            if res is None and 2 * n.bit_length() > hadamard:
                # the resultant stop: lift to prime**j past bits(res) plus a word
                res = _resultant(m, num)
                j = max(k, -(-(res.bit_length() + 64) // (prime.bit_length() - 1)))
                (s, n), k = _lift(num, m, s, n, prime ** (j - k)), j
            else:
                (s, n), k = _lift(num, m, s, n, n), 2 * k
            found = _reconstruct(s, n) if res is None else (
                [c - n if c > n >> 1 else c for c in (x * res % n for x in s)], res)
            if found is not None:
                candidate = ExactPoly._ints([x * a._den for x in found[0]], found[1])
                if ((candidate * a - 1) % modulus).is_zero:
                    return candidate
    # No prime certified coprimality: exact Euclid decides it.
    g, s, _ = extended_gcd(a, modulus)
    if g.degree != 0:
        raise NotCoprime(f"no inverse: gcd has degree {g.degree}")
    return s % modulus


def is_squarefree(p: ExactPoly) -> bool:
    """True when p has no repeated roots (constants count as squarefree)."""
    if p.is_zero:
        return False
    if p.degree == 0:
        return True
    return gcd_poly(p, p.derivative()).degree == 0


def require_squarefree_coprime(p: ExactPoly, q: ExactPoly) -> None:
    """Raise NotSquarefree unless p and q are nonzero and squarefree, and
    NotCoprime when they share a root."""
    for name, poly in (("p", p), ("q", q)):
        if not is_squarefree(poly):
            raise NotSquarefree(f"{name} must be nonzero and squarefree")
    if gcd_poly(p, q).degree != 0:
        raise NotCoprime("p and q share a root")


def squarefree_factorization(p: ExactPoly) -> list[tuple[ExactPoly, int]]:
    """Yun's algorithm: monic factors [(f_i, i)] with p = lead * prod f_i**i."""
    if p.is_zero:
        raise DivisionByZero("cannot factor the zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    g = gcd_poly(p, p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    out = []
    b = exact_div(p, g)
    c = exact_div(p.derivative(), g)
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        a = gcd_poly(b, d)
        if a.degree > 0:
            out.append((a, i))
        b = exact_div(b, a)
        c = exact_div(d, a)
        d = c - b.derivative()
        i += 1
    return out


# ---------------------------------------------------------------------------
# Wronskians
# ---------------------------------------------------------------------------


def wronskian(fs: Sequence[ExactPoly]) -> ExactPoly:
    """Determinant of the derivative matrix M[i][j] = fs[j]^(i), 0 <= i < len(fs),
    by Sylvester condensation (``_prefix_wronskians``)."""
    if not fs:
        raise ValueError("wronskian of an empty list")
    return _prefix_wronskians(fs)[-1]


def _prefix_wronskians(fs: Sequence[ExactPoly], twist: Fraction = Fraction(0)) -> list[ExactPoly]:
    """The Wronskians W[fs[:1]], ..., W[fs] by Sylvester condensation.

    Sylvester's identity W(A, g, h) * W(A) = W(W(A, g), W(A, h)) (Bareiss,
    Math. Comp. 22, 1968) turns the determinant into about n**2/2 two-by-two
    Wronskians: at step i the pivot a = W(fs[:i+1]) replaces each later entry
    W(fs[:i], h) by W(a, W(fs[:i], h)) divided exactly by the previous pivot.
    A zero pivot makes its prefix linearly dependent, so every later
    Wronskian is zero.  A nonzero twist k makes the last member stand for
    e^(kz)*fs[-1]: its derivative h' is replaced by h' + k*h, and the results
    that include it are given with the factor e^(kz) removed.
    """
    g = list(fs)
    out: list[ExactPoly] = []
    prev = ExactPoly.one()
    for i, a in enumerate(g):
        if a.is_zero:
            return out + [a] * (len(g) - i)
        da = a.derivative()
        for j in range(i + 1, len(g)):
            h = g[j]
            dh = h.derivative()
            if twist and j == len(g) - 1:
                dh = dh + twist * h
            g[j] = exact_div(a * dh - da * h, prev)
        out.append(a)
        prev = a
    return out


# ---------------------------------------------------------------------------
# Log-free integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of reducing the integral of N/p**2.

    The exact identity is

        N/p**2 = d/dz(poly_antideriv + C/p) + B/p

    with C = rational_part_numerator (deg C < deg p) and B = log_numerator.
    B = 0 means the integral is a rational function.
    """

    poly_antideriv: ExactPoly
    rational_part_numerator: ExactPoly
    log_numerator: ExactPoly

    @property
    def log_free(self) -> bool:
        return self.log_numerator.is_zero


@dataclass(frozen=True)
class RationalIntegral:
    """General reduction of the integral of num/den for arbitrary den.

        num/den = d/dz(poly_antideriv + rational_numerator/rational_denominator)
                  + log_numerator/log_denominator

    with the log denominator squarefree.  log_numerator = 0 certifies the
    integral rational; evaluate() then returns it at a point.
    """

    poly_antideriv: ExactPoly
    rational_numerator: ExactPoly
    rational_denominator: ExactPoly
    log_numerator: ExactPoly
    log_denominator: ExactPoly

    @property
    def log_free(self) -> bool:
        return self.log_numerator.is_zero


def hermite_reduce(num: ExactPoly, p: ExactPoly) -> ReductionResult:
    """Reduce the integral of num/p**2.

    The integral is P + C/p, B = 0, exactly when r = P*p + C is a polynomial
    solution of p*r' - p'*r = num; normalised by P(0) = 0, deg C < deg p.
    That route holds for any nonzero p.  Otherwise p must be squarefree: the
    reduction splits num/p**2 = S + R/p**2 by division, solves
    C = -R * (p')^{-1} (mod p) so that (C/p)' matches the proper part up to a
    simple-pole remainder, and returns that remainder's numerator B.
    """
    if p.is_zero:
        raise DivisionByZero("denominator polynomial is zero")
    dp = p.derivative()
    r = polynomial_solution((-dp, p), num)
    if r is not None:
        poly_part, c = divmod(r, p)
        return ReductionResult(poly_part - poly_part.coeff(0), c, ExactPoly.zero())
    if not is_squarefree(p):
        raise NotSquarefree("hermite_reduce requires a squarefree denominator base")
    poly_part, rem = divmod(num, p * p)
    c = (-rem * invert_mod(dp % p, p)) % p
    b = exact_div(rem + c * dp, p) - c.derivative()
    return ReductionResult(poly_part.antiderivative(), c, b)


def _fraction_add(n1: ExactPoly, d1: ExactPoly, n2: ExactPoly, d2: ExactPoly) -> tuple[ExactPoly, ExactPoly]:
    num = n1 * d2 + n2 * d1
    den = d1 * d2
    if num.is_zero:
        return ExactPoly.zero(), ExactPoly.one()
    g = gcd_poly(num, den)
    if g.degree > 0:
        num, den = exact_div(num, g), exact_div(den, g)
    lead = den.lead
    return num / lead, den / lead


def integrate_rational(num: ExactPoly, den: ExactPoly) -> RationalIntegral:
    """Hermite-Ostrogradsky reduction of the integral of num/den.

    Works for any nonzero denominator: the fraction is put in lowest terms,
    the polynomial part is integrated directly, and repeated factors of the
    denominator are peeled off one multiplicity at a time via modular
    inverses, leaving a proper remainder over a squarefree denominator whose
    numerator is the (only possible) logarithmic obstruction.
    """
    if den.is_zero:
        raise DivisionByZero("denominator polynomial is zero")
    if num.is_zero:
        zero, one = ExactPoly.zero(), ExactPoly.one()
        return RationalIntegral(zero, zero, one, zero, one)
    num = num / den.lead
    den = den.monic()
    g = gcd_poly(num, den)
    if g.degree > 0:
        num, den = exact_div(num, g), exact_div(den, g)
    poly_part, a = divmod(num, den)
    rat_num, rat_den = ExactPoly.zero(), ExactPoly.one()
    d = den
    while not a.is_zero and d.degree > 0:
        factors = squarefree_factorization(d)
        top = max(mult for _, mult in factors)
        if top == 1:
            break
        v = ExactPoly.one()
        for f, mult in factors:
            if mult == top:
                v = v * f
        u = exact_div(d, v ** top)
        # choose B with A + (top-1)*B*V'*U = 0 (mod V); then A/(U V^top)
        # minus d/dz(B/V^(top-1)) has denominator U V^(top-1)
        w = (u * v.derivative() * Fraction(-(top - 1))) % v
        b = (a * invert_mod(w, v)) % v
        rat_num, rat_den = _fraction_add(rat_num, rat_den, b, v ** (top - 1))
        a = exact_div(a + b * v.derivative() * u * (top - 1), v) - b.derivative() * u
        d = u * v ** (top - 1)
        if not a.is_zero:
            g = gcd_poly(a, d)
            if g.degree > 0:
                a, d = exact_div(a, g), exact_div(d, g)
    if a.is_zero:
        d = ExactPoly.one()
    return RationalIntegral(poly_part.antiderivative(), rat_num, rat_den, a, d)


# ---------------------------------------------------------------------------
# Residue criterion
# ---------------------------------------------------------------------------


def residue_divisibility(p: ExactPoly, q: ExactPoly, lam: RationalLike) -> bool:
    """True iff p divides p''q - 2*lam*p'q' exactly, for p nonzero and
    squarefree (else NotSquarefree) and coprime to a nonzero q (else NotCoprime).

    For such p and q this is equivalent to all residues of q**(2*lam)/p**2
    at roots of p vanishing.  The mirrored test is
    residue_divisibility(q, p, 1/lam).
    """
    lam = as_fraction(lam)
    if not is_squarefree(p):
        raise NotSquarefree("p must be nonzero and squarefree")
    if q.is_zero or gcd_poly(p, q).degree != 0:
        raise NotCoprime("p and q must be coprime (and q nonzero)")
    combo = p.derivative(2) * q - 2 * lam * p.derivative() * q.derivative()
    return (combo % p).is_zero

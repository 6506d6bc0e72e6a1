"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is stored as integer numerators over one positive common
denominator, in ascending degree order with trailing zeros stripped and in
lowest terms, so equality and degree are structural and nothing here ever
rounds; ``coeffs`` presents the coefficients as reduced `Fraction`s.  Products
run by Kronecker substitution, a remainder-only Euclid mod a word-size prime
certifies squarefree and coprime pairs, and every other gcd, a modular
inverse and the resultant deciding it come from one extended Euclid on many
31-bit primes at once in numpy and a CRT.  On top of the ring operations the
module provides the symbolic primitives everything else is built on:

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

import numpy as np

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

    def __hash__(self) -> int:  # a constant equals its value (__eq__), so it hashes as it
        return hash(self.coeff(0) if len(self._num) <= 1 else (self._num, self._den))

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
        # exact types: a JSON true or false is an int to Python, not a coefficient
        if not (isinstance(coeffs, (list, tuple)) and all(type(c) in (str, int, Fraction)
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


# ---------------------------------------------------------------------------
# gcd machinery
#
# The common case here is certifying *coprimality* of large generated
# polynomials, so gcd first tries a modular certificate: Euclid mod p on
# remainders only, whose gcd of degree 0 proves gcd 1 over Q (von zur Gathen
# & Gerhard, Modern Computer Algebra, 6.4).  Where that is inconclusive,
# gcd_poly reads the gcd by the small-primes modular gcd (ibid. 6.7; W. S.
# Brown, J. ACM 18, 1971) from the lanes and CRT of the modular inverse below.
# ---------------------------------------------------------------------------

_PRIMES = (2305843009213693951, 4611686018427387847, 9223372036854775783)


def _euclid_mod(a: Sequence[int], b: Sequence[int], prime: int) -> int:
    """Degree of gcd(a, b) over GF(prime), lead(a) nonzero mod prime, by Euclid
    on remainders, reducing in a division only the entry fixing each digit."""
    r0, r1 = [c % prime for c in a], [c % prime for c in b]
    while r1:
        if not r1[-1]:
            r1.pop()
            continue
        inv, db = pow(r1[-1], -1, prime), len(r1) - 1
        for k in range(len(r0) - 1 - db, -1, -1):
            c = r0[k + db] % prime * inv % prime
            if c:
                for j in range(db):
                    r0[k + j] -= c * r1[j]
        r0, r1 = r1, [c % prime for c in r0[:db]]
    return len(r0) - 1


def gcd_poly(a: ExactPoly, b: ExactPoly) -> ExactPoly:
    """Monic greatest common divisor over Q.

    gcd(p, p') of degree 0 certifies p squarefree; gcd(p, q) of degree 0
    certifies p, q coprime.  Past the certificate, with A the longer of the
    numerators A, B and gamma = gcd(lead A, lead B), each lane gives gamma
    times the monic gcd mod its prime, of degree k at least the true one.
    Lanes of the least k seen, covering twice the Landau-Mignotte bound
    gamma*2**k*min(|A|_2, |B|_2) on that multiple of the gcd, are read by CRT;
    a result dividing A and B exactly is the gcd.  A lane of degree 0 proves
    gcd 1, and a failed division that every lane so far was unlucky.
    """
    if a.is_zero and b.is_zero:
        raise UndefinedGcd("gcd(0, 0) is undefined")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    for prime in _PRIMES:
        if a._num[-1] % prime and b._num[-1] % prime:
            if _euclid_mod(a._num, b._num, prime) == 0:
                return ExactPoly.one()
            break
    f, g = sorted((a._num, b._num), key=len, reverse=True)
    gamma = math.gcd(f[-1], g[-1])
    bits = gamma.bit_length() + min(sum(c * c for c in v).bit_length() for v in (f, g)) // 2 + 2
    found, top, used = [], len(g) - 1, 0  # the lanes of degree top, the least seen
    while True:
        while (count := (bits + top) // 30 + 1 - sum(len(q) for q, _ in found)) > 0:
            primes = _lane_primes(used + count)[used:]
            used += count
            res = _residues(f + g, primes)
            kept, shared, rows = _euclid_lanes(res[:len(f)].T, res[len(f):].T, primes)
            if not shared:
                return ExactPoly.one()
            if (k := rows.shape[1] - 1) <= top:  # a lower degree replaces every lane found
                unit = np.array([gamma * pow(x, -1, q) % q  # gamma/lead mod q
                                 for x, q in zip(rows[:, -1].tolist(), kept.tolist())], np.int64)
                found, top = (found if k == top else []) + [(kept, rows * unit[:, None] % kept[:, None])], k
        w = _crt(*map(np.concatenate, zip(*found)))
        h = ExactPoly._ints(w, w[-1])
        if not any(any(_divmod_int(v, h._num)[1]) for v in (f, g)):
            return h
        found, top = [], top - 1


# -- modular inverse by many word-size primes ----------------------------------
#
# For the numerators M, A of modulus and a, U*M + V*A = res(M, A) with U, V
# integral and V, like res, made of Sylvester minors below the Hadamard bound
# H; a's inverse is a multiple of V/res, and res = 0 exactly when M and A share
# a factor (von zur Gathen & Gerhard, Modern Computer Algebra, 6.3).  Both are
# read by CRT (ibid. 10.3) from residues mod primes below 2**31 covering 2*H
# (W. S. Brown, J. ACM 18, 1971), a lane per prime in int64 numpy rows.

_PRIME_CACHE: list[int] = []  # the primes below 2**31 found so far, descending


def _lane_primes(count: int) -> list[int]:
    """The `count` largest primes below 2**31, in descending order, sieved on
    first use from the 2**12 odd numbers below the least one found so far."""
    while len(_PRIME_CACHE) < count:
        qs = np.ones(46342, bool)  # the odd primes up to sqrt(2**31)
        qs[:3] = qs[4::2] = False
        for i in range(3, 216, 2):
            if qs[i]:
                qs[i * i::i] = False
        qs = np.flatnonzero(qs)
        base = (_PRIME_CACHE[-1] if _PRIME_CACHE else (1 << 31) + 1) - (1 << 13)
        first = -base % qs * ((qs + 1) // 2) % qs  # base + 2*(first + j*q) = 0 (mod q)
        counts = ((1 << 12) - first + qs - 1) // qs
        step = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        odd = np.ones(1 << 12, bool)
        odd[np.repeat(first, counts) + np.repeat(qs, counts) * step] = False
        _PRIME_CACHE.extend((base + 2 * np.flatnonzero(odd)[::-1]).tolist())
    return _PRIME_CACHE[:count]


def _residues(values: Sequence[int], primes: Sequence[int]) -> "np.ndarray":
    """values mod each prime below 2**31, as int64 of shape (values, primes):
    a long division per group of 64 primes by their product, then a Horner
    pass in numpy over 32-bit limbs (acc*2**32 + limb < 2**63 as acc < 2**31)."""
    lanes = np.concatenate([primes, np.ones(-len(primes) % 64, np.int64)]).reshape(-1, 64)
    mods = [math.prod(row) for row in lanes.tolist()]
    rems = [abs(v) % q for v in values for q in mods]
    width = -(-max(map(int.bit_length, rems)) // 32)
    limbs = np.frombuffer(b"".join(r.to_bytes(4 * width, "little") for r in rems), "<u4")
    limbs = limbs.reshape(len(values), len(mods), width).astype(np.int64)
    acc = np.zeros((len(values),) + lanes.shape, np.int64)
    for j in range(width - 1, -1, -1):
        acc <<= 32
        acc |= limbs[:, :, j, None]
        acc %= lanes
    acc, p = acc.reshape(len(values), -1)[:, :len(primes)], lanes.ravel()[:len(primes)]
    return np.where(np.array([[v < 0] for v in values]), -acc % p, acc)


def _euclid_lanes(m: "np.ndarray", a: "np.ndarray", primes: Sequence[int]):
    """A fraction-free extended Euclid on the residues m, a of M, A, a row per
    prime, deg A <= deg M: the primes kept, whether every kept lane's
    remainders vanish (res = 0), and in columns per lane the last nonzero
    remainder (gcd(M, A) mod the prime up to a unit) if they do, else res(M, A)
    and V = res/A mod M (for deg A < deg M).  A lane is dropped where its
    prime divides lead(M) or lead(A) or its remainder degree falls below the
    others'; a kept lane's res is right.
    Remainders r carry t, t*A = r (mod M).  A step takes F to b*F -
    lead(F)*z**s*G, b = lead(G); where deg F > deg G two run as one, b*b*F -
    b*lead(F)*z**s*G - c*z**(s-1)*G, c the second lead: entries lose two
    products below 2**62 and stay above -2**63.  Once deg F < deg G, res(F, G)
    = (-1)**(deg F*deg G) * b**(drop in deg F - steps*deg G) * res(G, F); in
    the end res(F, b) = b**deg F for a constant b, and A**-1 = t/b."""
    n, d1 = m.shape[1] - 1, a.shape[1] - 1
    live = (m[:, n] != 0) & (a[:, d1] != 0)
    p, rf, rg = np.asarray(primes, np.int64)[live, None], m[live], a[live]
    tf, tg = np.zeros_like(rf), np.zeros_like(rf) + (np.arange(n + 1) == 0)  # t = 0 and 1
    leads, exps, sign, d0 = np.ones((len(p), max(n, d1) + 2), np.int64), [], 0, n
    while d1 > 0:
        b, top, steps, tw = rg[:, d1:d1 + 1], d0, 0, max(n - d1 + 1, 1)
        while d0 >= d1:
            s, lead = d0 - d1, rf[:, d0:d0 + 1]
            mult, digits = (b, [(lead, s)]) if not s else (b * b % p, [
                (b * lead % p, s), ((b * rf[:, d0 - 1:d0] - lead * rg[:, d1 - 1:d1]) % p, s - 1)])
            r, t = rf[:, :d0] * mult, tf[:, :tw] * mult
            for c, shift in digits:
                r[:, shift:] -= c * rg[:, :d0 - shift]
                t[:, shift:] -= c * tg[:, :max(tw - shift, 0)]
            np.remainder(r, p, out=rf[:, :d0])
            np.remainder(t, p, out=tf[:, :tw])
            steps, d0 = steps + len(digits), d0 - 1
            while d0 >= 0 and not (live := rf[:, d0] != 0).any():
                d0 -= 1
            if d0 >= 0 and not live.all():  # drop the lanes below the others
                rf, rg, tf, tg, p, leads = (x[live] for x in (rf, rg, tf, tg, p, leads))
                b = rg[:, d1:d1 + 1]
        if d0 < 0:
            return p.ravel(), True, rg[:, :d1 + 1]
        sign ^= top * d1 & 1
        leads[:, len(exps)] = b[:, 0]
        exps.append(top - d0 - steps * d1)
        rf, rg, tf, tg, d0, d1 = rg, rf, tg, tf, d1, d0
    leads[:, len(exps)] = rg[:, 0]
    exps.append(d0 - 1)  # res/b = (-1)**sign * prod(leads**exps)
    x, e, powers = leads[:, :len(exps)], np.abs(exps), np.ones_like(leads[:, :len(exps)])
    while e.any():
        powers = np.where(e & 1, powers * x % p, powers)
        x, e = x * x % p, e >> 1
    num, den = np.ones_like(p), np.ones_like(p)
    for x, e in zip(powers.T, exps):
        num, den = (num * x[:, None] % p, den) if e > 0 else (num, den * x[:, None] % p)
    inv = [pow(x, -1, q) for x, q in zip(den.ravel().tolist(), p.ravel().tolist())]
    h = (-1) ** sign * num * np.array(inv, np.int64)[:, None] % p
    return p.ravel(), False, np.column_stack([h * rg[:, :1] % p, h * tg[:, :n] % p])


def _crt(primes: "np.ndarray", residues: "np.ndarray") -> list[int]:
    """The x_j, |x_j| < P/2, with x_j = residues[i, j] (mod p_i), P the primes'
    product: sum_i y_ij*P/p_i mod P, y_ij = r_ij*w_i, up a subproduct tree;
    w_i = (P/p_i)**-1 mod p_i from the same sum at y = 1, with no P-size weight."""

    def up(vals):  # the first level in int64: y_L*p_R + y_R*p_L < 2**63
        prods = primes
        while len(prods) > 1:
            if len(prods) % 2:  # a pad lane: prime 1, value 0
                vals = np.concatenate([vals, np.zeros_like(vals[:1])])
                prods = np.concatenate([prods, np.ones_like(prods[:1])])
            vals = (vals[0::2] * prods[1::2, None] + vals[1::2] * prods[0::2, None]).astype(object)
            prods = (prods[0::2] * prods[1::2]).astype(object)
        return [int(v) for v in vals[0]], int(prods[0])

    (s,), _ = up(np.ones_like(primes[:, None]))
    w = [pow(x, -1, q) for x, q in zip(_residues([s], primes)[0].tolist(), primes.tolist())]
    x, prod = up(residues * np.array(w, np.int64)[:, None] % primes[:, None])
    return [v - prod if v > prod >> 1 else v for v in (v % prod for v in x)]


def _resultant_cofactor(m: Sequence[int], a: Sequence[int]) -> tuple[int, list[int]]:
    """res(M, A) of integer vectors, not both constant, and V with
    V*A = res (mod M), deg V < deg M (for deg A < deg M), or [] if res = 0:
    lanes, each prime above 2**30, are added until those kept cover 2*H,
    H = |M|**deg A * |A|**deg M; zero lanes alone covering it prove res = 0."""
    hadamard = ((len(a) - 1) * sum(c * c for c in m).bit_length()
                + (len(m) - 1) * sum(c * c for c in a).bit_length()) // 2 + 1
    found, zeros, used = [], 0, 0
    while (count := hadamard // 30 + 1 - (sum(len(q) for q, _ in found) if found else zeros)) > 0:
        primes = _lane_primes(used + count)[used:]
        used += count
        res = _residues(list(m) + list(a), primes)
        kept, shared, rows = _euclid_lanes(res[:len(m)].T, res[len(m):].T, primes)
        zeros, found = (zeros + len(kept), found) if shared else (zeros, found + [(kept, rows)])
    res, *v = _crt(*map(np.concatenate, zip(*found))) if found else (0,)
    return res, v


def invert_mod(a: ExactPoly, modulus: ExactPoly) -> ExactPoly:
    """Inverse of a modulo modulus over Q; requires gcd(a, modulus) = 1."""
    if modulus.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    a = a % modulus
    if a.is_zero:
        raise NotCoprime("zero has no inverse")
    if a.degree == 0:
        return ExactPoly.constant(1 / a.lead)
    # modulus = M/dm and a = A/da, so a's inverse is da*V/res
    num, m = a._num, modulus._num
    res, v = _resultant_cofactor(m, num)
    if not res:
        raise NotCoprime("no inverse: the resultant is zero")
    check = [-res] + [0] * (len(num) + len(v) - 2)  # A*V - res by rows: V is far wider than A
    for i, c in enumerate(num):
        check[i:i + len(v)] = [x + c * y for x, y in zip(check[i:i + len(v)], v)]
    if any(_divmod_int(check, m)[1]):
        raise InvariantViolation("A*V - res(M, A) is not a multiple of M")
    return ExactPoly._ints([x * a._den for x in v], res)


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
    poly_part, rem = divmod(num, p * p)
    try:  # p is squarefree exactly when p' is invertible mod p
        inv = invert_mod(dp, p)
    except NotCoprime as exc:
        raise NotSquarefree("hermite_reduce requires a squarefree denominator base") from exc
    c = (-(rem % p) * inv) % p
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

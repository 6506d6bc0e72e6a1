"""Exact univariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction` throughout, stored in ascending degree
order with trailing zeros stripped, so equality and degree are structural and
nothing here ever rounds.  On top of the ring operations the module provides
the two symbolic primitives everything else is built on:

* log-free reduction of integrals of the form N/p**2 (``hermite_reduce``,
  plus the fully general ``integrate_rational`` for arbitrary denominators),
* the residue-divisibility criterion linking vanishing residues of
  q**(2*lam)/p**2 to a polynomial divisibility test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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

    ``coeffs[d]`` is the coefficient of z**d; there are never trailing
    zeros, so the zero polynomial has an empty tuple and degree -inf.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

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
        return self._coeffs

    @property
    def degree(self) -> float:
        """Degree; the zero polynomial reports -inf so degree sums work."""
        return len(self._coeffs) - 1 if self._coeffs else -math.inf

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def lead(self) -> Fraction:
        """Leading coefficient (0 for the zero polynomial)."""
        return self._coeffs[-1] if self._coeffs else Fraction(0)

    def coeff(self, degree: int) -> Fraction:
        """Coefficient of z**degree (0 beyond the stored range)."""
        if 0 <= degree < len(self._coeffs):
            return self._coeffs[degree]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExactPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == ExactPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    # -- pretty printing -----------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for d in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[d]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                var = "z" if d == 1 else f"z^{d}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ExactPoly('{self}')"

    # -- ring operations -----------------------------------------------------

    def __neg__(self) -> "ExactPoly":
        return ExactPoly(tuple(-c for c in self._coeffs))

    def __add__(self, other) -> "ExactPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactPoly(
            a + b for a, b in itertools.zip_longest(self._coeffs, other._coeffs, fillvalue=Fraction(0))
        )

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
            if other == 0:
                return ExactPoly.zero()
            return ExactPoly(tuple(c * other for c in self._coeffs))
        if not isinstance(other, ExactPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ExactPoly.zero()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                if b:
                    out[i + j] += a * b
        return ExactPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "ExactPoly":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise DivisionByZero("division of polynomial by zero scalar")
        return ExactPoly(tuple(c / scalar for c in self._coeffs))

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
        rem = list(self._coeffs)
        dd = len(divisor._coeffs) - 1
        dlead = divisor._coeffs[-1]
        if len(rem) - 1 < dd:
            return ExactPoly.zero(), self
        quot = [Fraction(0)] * (len(rem) - dd)
        for k in range(len(rem) - dd - 1, -1, -1):
            c = rem[k + dd] / dlead
            if c == 0:
                continue
            quot[k] = c
            for j, dc in enumerate(divisor._coeffs):
                rem[k + j] -= c * dc
        return ExactPoly(quot), ExactPoly(rem[:dd])

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
        p = self
        for _ in range(order):
            p = ExactPoly(tuple(c * d for d, c in enumerate(p._coeffs) if d >= 1))
        return p

    def antiderivative(self) -> "ExactPoly":
        """Antiderivative with zero constant term."""
        return ExactPoly((Fraction(0),) + tuple(c / (d + 1) for d, c in enumerate(self._coeffs)))

    def compose_linear(self, scale: RationalLike, shift: RationalLike = 0) -> "ExactPoly":
        """Substitute z -> scale*z + shift."""
        a, b = as_fraction(scale), as_fraction(shift)
        if b == 0:
            power = Fraction(1)
            out = []
            for c in self._coeffs:
                out.append(c * power)
                power *= a
            return ExactPoly(out)
        lin = ExactPoly((b, a))
        acc = ExactPoly.zero()
        for c in reversed(self._coeffs):
            acc = acc * lin + c
        return acc

    def monic(self) -> "ExactPoly":
        if self.is_zero:
            raise DivisionByZero("the zero polynomial has no monic normalization")
        return self / self.lead

    def __call__(self, point):
        """Evaluate by Horner; exact for Fraction/int points, float otherwise."""
        acc = point * 0  # zero of the point's type
        for c in reversed(self._coeffs):
            acc = acc * point + (c if isinstance(point, (int, Fraction)) else (c.numerator / c.denominator))
        return acc

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        """Shared wire format: {"var": "z", "coeffs": [rational strings]}."""
        return {"var": "z", "coeffs": [str(c) for c in self._coeffs]}

    @classmethod
    def from_json(cls, obj: Mapping) -> "ExactPoly":
        if not isinstance(obj, Mapping) or "coeffs" not in obj:
            raise ValueError("polynomial JSON must be an object with a 'coeffs' array")
        return cls(tuple(Fraction(c) for c in obj["coeffs"]))


def exact_div(num: ExactPoly, den: ExactPoly) -> ExactPoly:
    """Division known to be exact; a nonzero remainder is an internal bug."""
    quot, rem = divmod(num, den)
    if not rem.is_zero:
        raise InvariantViolation(f"expected exact division, remainder {rem}")
    return quot


# ---------------------------------------------------------------------------
# gcd machinery
#
# The common case here is certifying *coprimality* of large generated
# polynomials, so gcd first tries a modular certificate (gcd over GF(p) of
# degree 0 proves gcd 1 over Q) and only falls back to a primitive
# pseudo-remainder sequence over Z when the fast path is inconclusive.
# ---------------------------------------------------------------------------

_GCD_PRIMES = (2305843009213693951, 4611686018427387847, 9223372036854775783)


def _int_coeffs(p: ExactPoly) -> list[int]:
    """Scale coefficients to a primitive integer vector (content removed)."""
    den_lcm = 1
    for c in p.coeffs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in p.coeffs]
    content = 0
    for v in ints:
        content = math.gcd(content, v)
    if content > 1:
        ints = [v // content for v in ints]
    return ints


def _mod_gcd_degree(a: Sequence[int], b: Sequence[int], prime: int) -> int | None:
    """Degree of gcd of the reductions mod prime, or None if a leading
    coefficient vanishes mod prime (unusable prime)."""
    if a[-1] % prime == 0 or b[-1] % prime == 0:
        return None
    fa = [c % prime for c in a]
    fb = [c % prime for c in b]
    while fb:
        db = len(fb) - 1
        inv = pow(fb[-1], prime - 2, prime)
        while len(fa) - 1 >= db:
            top = fa[-1]
            if top:
                factor = top * inv % prime
                k = len(fa) - 1 - db
                for j in range(db + 1):
                    fa[k + j] = (fa[k + j] - factor * fb[j]) % prime
            fa.pop()
            while fa and fa[-1] == 0:
                fa.pop()
        fa, fb = fb, fa
        while fb and fb[-1] == 0:
            fb.pop()
    return len(fa) - 1


def _primitive(ints: list[int]) -> list[int]:
    while ints and ints[-1] == 0:
        ints.pop()
    content = 0
    for v in ints:
        content = math.gcd(content, v)
    if content > 1:
        ints = [v // content for v in ints]
    if ints and ints[-1] < 0:
        ints = [-v for v in ints]
    return ints


def _pseudo_mod(a: list[int], b: list[int]) -> list[int]:
    """Integer pseudo-remainder: lc(b)^k * a reduced mod b, no fractions."""
    db = len(b) - 1
    lead = b[-1]
    rem = list(a)
    while len(rem) - 1 >= db:
        c = rem[-1]
        if c == 0:
            rem.pop()
            continue
        k = len(rem) - 1 - db
        rem = [lead * x for x in rem]
        for j in range(db + 1):
            rem[k + j] -= c * b[j]
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive pseudo-remainder sequence over Z."""
    a, b = _primitive(list(a)), _primitive(list(b))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_mod(a, b))
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
    ia, ib = _int_coeffs(a), _int_coeffs(b)
    for prime in _GCD_PRIMES:
        deg = _mod_gcd_degree(ia, ib, prime)
        if deg == 0:
            return ExactPoly.one()
        if deg is not None:
            break
    g = _int_gcd(ia, ib)
    return ExactPoly(g).monic()


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


# -- modular inverse with rational reconstruction ---------------------------
#
# Inverses modulo large polynomials with bulky rational coefficients are the
# single hot operation of the whole package (every Hermite reduction needs
# one).  Plain extended Euclid over Q suffers severe intermediate blowup, so
# the inverse is assembled from images mod word-size primes, lifted by CRT
# and rational reconstruction, and finally *verified exactly*; the exact
# Euclidean route remains as a fallback.

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_PRIME_CACHE: list[int] = []


def _nth_prime(index: int) -> int:
    candidate = _PRIME_CACHE[-1] + 2 if _PRIME_CACHE else (1 << 62) + 135
    while len(_PRIME_CACHE) <= index:
        if _is_prime(candidate):
            _PRIME_CACHE.append(candidate)
        candidate += 2
    return _PRIME_CACHE[index]


def _poly_divmod_p(a: list[int], b: list[int], prime: int) -> tuple[list[int], list[int]]:
    inv = pow(b[-1], prime - 2, prime)
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    db = len(b) - 1
    while len(rem) - 1 >= db and rem:
        c = rem[-1] * inv % prime
        k = len(rem) - 1 - db
        if c:
            quot[k] = c
            for j in range(db + 1):
                rem[k + j] = (rem[k + j] - c * b[j]) % prime
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def _poly_inverse_p(a: list[int], m: list[int], prime: int) -> list[int] | None:
    """Inverse of a mod (m, prime), or None when the gcd mod prime is nontrivial."""
    fa = [c % prime for c in a]
    fm = [c % prime for c in m]
    while fa and fa[-1] == 0:
        fa.pop()
    if not fa:
        return None
    r0, r1 = fm, fa
    t0, t1 = [0], [1]
    while r1:
        q, r = _poly_divmod_p(r0, r1, prime)
        r0, r1 = r1, r
        prod = [0] * (len(q) + len(t1) - 1) if q and t1 else []
        for iq, cq in enumerate(q):
            if cq:
                for it, ct in enumerate(t1):
                    prod[iq + it] = (prod[iq + it] + cq * ct) % prime
        new_t = [(x - y) % prime for x, y in itertools.zip_longest(t0, prod, fillvalue=0)]
        while new_t and new_t[-1] == 0:
            new_t.pop()
        t0, t1 = t1, new_t
    if len(r0) != 1:
        return None
    scale = pow(r0[0], prime - 2, prime)
    return [c * scale % prime for c in t0]


def _rational_reconstruct(residue: int, modulus: int) -> Fraction | None:
    """Wang reconstruction of n/d from n*d^{-1} mod modulus, |n|, d <= sqrt(M/2)."""
    bound = math.isqrt(modulus // 2)
    r0, r1 = modulus, residue % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    n, d = (r1, s1) if s1 > 0 else (-r1, -s1)
    if math.gcd(d, modulus) != 1:
        return None
    return Fraction(n, d)


def _scaled_ints(p: ExactPoly) -> tuple[list[int], int]:
    """Integer coefficient vector and the common denominator it was scaled by."""
    den_lcm = 1
    for c in p.coeffs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    return [int(c * den_lcm) for c in p.coeffs], den_lcm


def invert_mod(a: ExactPoly, modulus: ExactPoly) -> ExactPoly:
    """Inverse of a modulo modulus over Q; requires gcd(a, modulus) = 1."""
    if modulus.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    a = a % modulus
    if a.is_zero:
        raise NotCoprime("zero has no inverse")
    if a.degree == 0:
        return ExactPoly.constant(1 / a.lead)
    ia, a_scale = _scaled_ints(a)
    im, _ = _scaled_ints(modulus)
    images: dict[int, list[int]] = {}
    coprime_seen = False
    rejected = 0
    prime_index = 0
    target = 8
    while rejected < 5 or coprime_seen:
        while len(images) < target:
            prime = _nth_prime(prime_index)
            prime_index += 1
            if im[-1] % prime == 0 or ia[-1] % prime == 0:
                continue
            inv = _poly_inverse_p(ia, im, prime)
            if inv is None:
                rejected += 1
                if rejected >= 5 and not coprime_seen:
                    break
                continue
            coprime_seen = True
            images[prime] = inv
        if not coprime_seen:
            break
        # CRT per coefficient slot, then rational reconstruction
        big_m = 1
        combined = [0] * (len(im) - 1)
        for prime, inv in images.items():
            if big_m == 1:
                big_m = prime
                for d in range(len(combined)):
                    combined[d] = inv[d] if d < len(inv) else 0
                continue
            inv_mod = pow(big_m % prime, prime - 2, prime)
            for d in range(len(combined)):
                rp = inv[d] if d < len(inv) else 0
                diff = (rp - combined[d]) % prime
                combined[d] = combined[d] + big_m * (diff * inv_mod % prime)
            big_m *= prime
        coeffs = []
        for value in combined:
            frac = _rational_reconstruct(value, big_m)
            if frac is None:
                coeffs = None
                break
            coeffs.append(frac)
        if coeffs is not None:
            candidate = ExactPoly(coeffs) * a_scale
            if ((candidate * a - 1) % modulus).is_zero:
                return candidate
        target *= 2
        if target > 4096:
            break
    # Exact fallback; also the path that diagnoses genuine non-coprimality.
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
    """Determinant of the derivative matrix M[i][j] = fs[j]^(i), 0 <= i < len(fs)."""
    if not fs:
        raise ValueError("wronskian of an empty list")
    n = len(fs)
    columns = []
    for f in fs:
        derivs = [f]
        for _ in range(n - 1):
            derivs.append(derivs[-1].derivative())
        columns.append(derivs)
    return det_poly_matrix([[columns[j][i] for j in range(n)] for i in range(n)])


def det_poly_matrix(matrix: Sequence[Sequence[ExactPoly]]) -> ExactPoly:
    """Exact determinant by memoized Laplace expansion along rows."""
    n = len(matrix)
    memo: dict[tuple[int, ...], ExactPoly] = {}

    def minor(cols: tuple[int, ...]) -> ExactPoly:
        if not cols:
            return ExactPoly.one()
        cached = memo.get(cols)
        if cached is not None:
            return cached
        row = n - len(cols)
        acc = ExactPoly.zero()
        for idx, c in enumerate(cols):
            entry = matrix[row][c]
            if entry.is_zero:
                continue
            sub = minor(cols[:idx] + cols[idx + 1:])
            term = entry * sub
            acc = acc + term if idx % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    return minor(tuple(range(n)))


# ---------------------------------------------------------------------------
# Log-free integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of reducing the integral of N/p**2 for squarefree p.

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
    """Reduce the integral of num/p**2 with p squarefree.

    Splits num/p**2 = S + R/p**2 by division, solves C = -R * (p')^{-1} (mod p)
    so that (C/p)' matches the proper part up to a simple-pole remainder, and
    returns that remainder's numerator B; B = 0 certifies a log-free integral.
    """
    if p.is_zero:
        raise DivisionByZero("denominator polynomial is zero")
    if p.degree == 0:
        scale = p.lead * p.lead
        return ReductionResult((num / scale).antiderivative(), ExactPoly.zero(), ExactPoly.zero())
    if not is_squarefree(p):
        raise NotSquarefree("hermite_reduce requires a squarefree denominator base")
    poly_part, rem = divmod(num, p * p)
    dp = p.derivative()
    c = (-rem * invert_mod(dp % p, p)) % p
    b = exact_div(rem - c.derivative() * p + c * dp, p)
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
    """True iff p divides p''q - 2*lam*p'q' exactly.

    For squarefree p coprime to q this is equivalent to all residues of
    q**(2*lam)/p**2 at roots of p vanishing.  The mirrored test is
    residue_divisibility(q, p, 1/lam).
    """
    lam = as_fraction(lam)
    if p.is_zero:
        raise NotSquarefree("p must be a nonzero squarefree polynomial")
    if not is_squarefree(p):
        raise NotSquarefree("p has a repeated root")
    if q.is_zero or gcd_poly(p, q).degree != 0:
        raise NotCoprime("p and q must be coprime (and q nonzero)")
    combo = p.derivative(2) * q - 2 * lam * p.derivative() * q.derivative()
    if combo.is_zero:
        return True
    if p.degree == 0:
        return True
    return (combo % p).is_zero

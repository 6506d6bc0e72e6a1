import itertools
import random
from fractions import Fraction

import pytest

from charge_ladder.generators import LadderState, adler_moser, lambda2_ladder
from charge_ladder.polyrat import ExactPoly


def rational(rng: random.Random, span: int = 4, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def nonzero_rational(rng: random.Random, span: int = 4, max_den: int = 3) -> Fraction:
    while True:
        value = rational(rng, span, max_den)
        if value != 0:
            return value


def random_poly(rng: random.Random, degree: int, span: int = 6) -> ExactPoly:
    coeffs = [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(degree)]
    coeffs.append(Fraction(rng.randint(1, span)))
    return ExactPoly(coeffs)


def leibniz_det(matrix) -> ExactPoly:
    """Determinant of a square matrix of polynomials as the signed sum of its
    n! permutation products; a reference independent of any elimination."""
    n = len(matrix)
    total = ExactPoly.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = ExactPoly.constant(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term = term * matrix[row][col]
        total = total + term
    return total


def euclid_gcd(a, b) -> list[Fraction]:
    """Monic gcd of two ascending coefficient lists, not both zero, by plain
    Euclid over Q on Fractions; a reference sharing no code with polyrat."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    for v in (a, b):
        while v and v[-1] == 0:
            v.pop()
    while b:
        while len(a) >= len(b):
            c, shift = a[-1] / b[-1], len(a) - len(b)
            for j, x in enumerate(b):
                a[shift + j] -= c * x
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return [c / a[-1] for c in a]


Z = ExactPoly.x()

# valid (squarefree, coprime) pairs (p, q, lam) that float64 cannot hold
FLOAT64_BEYOND_PAIRS = [
    (Z ** 2 / 10 ** 400 + Z + 1, Z + 5, 2),  # the lead scales to 0
    (Z ** 3 / 10 ** 320 + Z + 1, Z + 5, 2),  # a subnormal lead
    (Z / 10 ** 400 + 1, Z + 5, 2),  # linear, the lead scales to 0
    (10 ** 400 * (Z ** 3 + 1), Z, 1),  # roots in range, coefficients past it
    (Z - 10 ** 160, Z, 1),  # roots in range, their squared distance overflows
    (Z - Fraction(1, 10 ** 160), Z, 1),  # roots in range, their squared distance underflows
]


def random_ladder_state(rng: random.Random, i: int) -> LadderState:
    """Generic constants for every step |i| uses; nonzero to stay squarefree."""
    steps = range(1, i + 1) if i >= 0 else range(-1, i - 1, -1)
    return LadderState(
        i,
        t={s: nonzero_rational(rng) for s in steps},
        tau={s: nonzero_rational(rng) for s in steps},
    )


@pytest.fixture(scope="session")
def ladder_chain():
    """One consistent constants chain with all pairs for |i| <= 4."""
    rng = random.Random(20240915)
    t = {s: nonzero_rational(rng) for s in range(-5, 6)}
    tau = {s: nonzero_rational(rng) for s in range(-5, 6)}
    t[-1] = Fraction(0)  # keeps the downward seed at p_{-1} = z, like the tables
    pairs = {}
    for i in range(-4, 5):
        pairs[i] = lambda2_ladder(i, LadderState(i, t, tau))
    return pairs


@pytest.fixture(scope="session")
def adler_moser_chain():
    """theta_0 .. theta_7 on one consistent set of constants."""
    rng = random.Random(1905)
    constants = {s: nonzero_rational(rng) for s in range(2, 8)}
    return [adler_moser(n, constants) for n in range(8)]

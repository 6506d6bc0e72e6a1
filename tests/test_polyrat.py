import math
import random
from fractions import Fraction as F

import pytest

from charge_ladder.generators import BracketParams, bracket
from charge_ladder.polyrat import (
    DivisionByZero,
    ExactPoly,
    NotCoprime,
    NotSquarefree,
    UndefinedGcd,
    exact_div,
    extended_gcd,
    gcd_poly,
    hermite_reduce,
    integrate_rational,
    invert_mod,
    is_squarefree,
    polynomial_solution,
    residue_divisibility,
    squarefree_factorization,
    wronskian,
)

Z = ExactPoly.x()
ONE = ExactPoly.one()


def random_poly(rng, degree, span=6):
    coeffs = [F(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(degree)]
    coeffs.append(F(rng.randint(1, span)))
    return ExactPoly(coeffs)


# -- ring operations ---------------------------------------------------------


def test_derivative_power_rule():
    assert (Z ** 3 + 1).derivative() == 3 * Z ** 2


def test_divrem_exact_long_division():
    quot, rem = divmod(Z ** 5 + 1, Z ** 2)
    assert quot == Z ** 3
    assert rem == ONE


def test_mul_difference_of_squares():
    assert (Z - 1) * (Z + 1) == Z ** 2 - 1


def test_divrem_by_zero_raises():
    with pytest.raises(DivisionByZero):
        divmod(Z, ExactPoly.zero())


def test_divrem_reconstruction_randomized():
    rng = random.Random(11)
    for _ in range(60):
        a = random_poly(rng, rng.randint(0, 9))
        b = random_poly(rng, rng.randint(0, 5))
        quot, rem = divmod(a, b)
        assert quot * b + rem == a
        assert rem.degree < b.degree


def test_zero_polynomial_canonical():
    assert ExactPoly([0, 0]).is_zero
    assert ExactPoly([0, 0]).degree == float("-inf")
    assert ExactPoly([1, 2, 0, 0]) == ExactPoly([1, 2])


def test_degree_multiplicativity():
    rng = random.Random(5)
    for _ in range(20):
        a = random_poly(rng, rng.randint(0, 6))
        b = random_poly(rng, rng.randint(0, 6))
        assert (a * b).degree == a.degree + b.degree


def schoolbook_product(a, b):
    out = [F(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return out


def test_product_matches_schoolbook_reference():
    rng = random.Random(17)
    big = lambda: rng.choice((-1, 1)) * rng.getrandbits(300)

    def draw(degree, kind):
        coeffs = []
        for d in range(degree + 1):
            if kind == "big":
                c = F(big())
            elif kind == "mixed":
                c = F(big(), rng.choice((1, 3, 2 ** 40, 7 ** 30, rng.getrandbits(200) | 1)))
            else:  # interior zeros, small signed values
                c = F(rng.randint(-9, 9), rng.randint(1, 5)) if d % 3 == 0 else F(0)
            coeffs.append(c)
        coeffs[-1] = coeffs[-1] or F(-1)
        return ExactPoly(coeffs)

    for kind in ("big", "mixed", "sparse"):
        for da in (0, 1, 2, 7):
            for db in (0, 1, 5, 12):
                a, b = draw(da, kind), draw(db, rng.choice(("big", "mixed", "sparse")))
                assert list((a * b).coeffs) == schoolbook_product(a, b)
                assert list((a * a).coeffs) == schoolbook_product(a, a)
    assert (ExactPoly([F(-1, 3)]) * ExactPoly([F(3, 2), 0, 6])) == ExactPoly([F(-1, 2), 0, -2])
    assert (ExactPoly.zero() * (Z + 1)).is_zero


def test_compose_linear_and_eval():
    p = Z ** 2 - 3 * Z + 3
    assert p.compose_linear(2) == 4 * Z ** 2 - 6 * Z + 3
    assert p.compose_linear(1, 1) == (Z + 1) ** 2 - 3 * (Z + 1) + 3
    assert p(F(1, 2)) == F(1, 4) - F(3, 2) + 3
    assert abs(p(1j) - (1j * 1j - 3j + 3)) < 1e-15


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        ExactPoly([0.5])


def test_json_round_trip():
    p = ExactPoly([F(-1, 2), 0, F(7, 3), 1])
    assert ExactPoly.from_json(p.to_json()) == p
    assert p.to_json()["coeffs"] == ["-1/2", "0", "7/3", "1"]


# -- gcd ----------------------------------------------------------------------


def test_gcd_examples():
    assert gcd_poly(Z ** 2 - 1, Z - 1) == Z - 1
    assert gcd_poly((Z - 1) ** 2, 2 * (Z - 1)) == Z - 1
    assert gcd_poly(Z ** 5 + 1, Z) == ONE


def test_gcd_both_zero_raises():
    with pytest.raises(UndefinedGcd):
        gcd_poly(ExactPoly.zero(), ExactPoly.zero())


def test_gcd_randomized_divides_both():
    rng = random.Random(23)
    for _ in range(25):
        g = random_poly(rng, rng.randint(0, 3))
        a = g * random_poly(rng, rng.randint(0, 4))
        b = g * random_poly(rng, rng.randint(0, 4))
        got = gcd_poly(a, b)
        assert (a % got).is_zero and (b % got).is_zero
        assert got.lead == 1


def test_extended_gcd_bezout():
    rng = random.Random(31)
    for _ in range(15):
        a = random_poly(rng, rng.randint(1, 5))
        b = random_poly(rng, rng.randint(1, 5))
        g, s, t = extended_gcd(a, b)
        assert s * a + t * b == g


def test_invert_mod():
    m = Z ** 5 + 1
    a = 5 * Z ** 4
    inv = invert_mod(a, m)
    assert ((inv * a - 1) % m).is_zero
    with pytest.raises(NotCoprime):
        invert_mod(Z - 1, Z ** 2 - 1)
    # at benchmark scale: the inverse z/c of z modulo z^2 - c has 6000-bit
    # coefficients
    m = Z ** 2 - ExactPoly.constant(F(3 ** 3800, 2 ** 6000 + 1))
    inv = invert_mod(Z, m)
    assert ((inv * Z - 1) % m).is_zero
    # a shared factor with large coefficients is diagnosed, not inverted
    c = F(3 ** 200, 2 ** 301)
    with pytest.raises(NotCoprime):
        invert_mod((Z - c) * (Z + 1), (Z - c) * (Z ** 2 + 2))


def test_squarefree_factorization_yun():
    p = Z ** 3 * (Z + 1) ** 2 * (Z ** 2 + 1)
    factors = dict((str(f), m) for f, m in squarefree_factorization(p))
    assert factors == {"z": 3, "z + 1": 2, "z^2 + 1": 1}


# -- wronskians ----------------------------------------------------------------


def test_wronskian_single():
    assert wronskian([Z]) == Z


def test_wronskian_pair_constant():
    assert wronskian([ONE, Z]) == ONE


def test_wronskian_2x2_hand_expansion():
    # det [[z, z^3/6], [1, z^2/2]] = z^3/2 - z^3/6 = z^3/3
    assert wronskian([Z, Z ** 3 / 6]) == Z ** 3 / 3


def test_wronskian_empty_raises():
    with pytest.raises(ValueError):
        wronskian([])


# -- hermite reduction -----------------------------------------------------------


def test_hermite_inverse_square():
    red = hermite_reduce(ONE, Z)
    assert red.poly_antideriv.is_zero
    assert red.rational_part_numerator == ExactPoly.constant(-1)
    assert red.log_free


def test_hermite_quintic_example():
    red = hermite_reduce(Z ** 4, Z ** 5 + 1)
    assert red.poly_antideriv.is_zero
    assert red.rational_part_numerator == ExactPoly.constant(F(-1, 5))
    assert red.log_free


def test_hermite_log_obstruction():
    red = hermite_reduce(Z, Z)
    assert red.log_numerator == ONE


def test_hermite_rejects_repeated_roots():
    with pytest.raises(NotSquarefree):
        hermite_reduce(ONE, Z ** 2)


def hermite_identity_holds(num, p):
    """d/dz(S + C/p) + B/p == num/p^2, cross-multiplied to polynomials."""
    red = hermite_reduce(num, p)
    s, c, b = red.poly_antideriv, red.rational_part_numerator, red.log_numerator
    lhs = s.derivative() * p * p + c.derivative() * p - c * p.derivative() + b * p
    return lhs == num


def test_hermite_round_trip_randomized():
    rng = random.Random(97)
    done = 0
    while done < 40:
        p = random_poly(rng, rng.randint(1, 12))
        if not is_squarefree(p):
            continue
        num = random_poly(rng, rng.randint(0, 14))
        assert hermite_identity_holds(num, p)
        done += 1


def integral_identity_holds(num, den):
    red = integrate_rational(num, den)
    rn, rd = red.rational_numerator, red.rational_denominator
    ln, ld = red.log_numerator, red.log_denominator
    lhs = (red.poly_antideriv.derivative() * rd * rd * ld
           + (rn.derivative() * rd - rn * rd.derivative()) * ld
           + ln * rd * rd)
    return lhs * den == num * rd * rd * ld


def test_integrate_rational_general_denominators():
    cases = [
        ((Z ** 4 + 1) ** 4, Z ** 6),
        (Z ** 7 + 3 * Z + 1, (Z ** 2 + 1) ** 2 * (Z - 2) ** 3),
        (Z ** 2, Z ** 2 - 1),
        (Z ** 5, (Z ** 2 + 2) ** 2),
        (ONE, (Z ** 3 + Z + 1) ** 2),
    ]
    for num, den in cases:
        assert integral_identity_holds(num, den)


def test_integrate_rational_log_free_detection():
    red = integrate_rational((Z ** 4 + 1) ** 4, Z ** 6)
    assert red.log_free  # no z^{-1} term in the expansion
    red = integrate_rational(ONE, Z)
    assert not red.log_free


def test_integrate_rational_randomized_identity():
    rng = random.Random(41)
    for _ in range(25):
        num = random_poly(rng, rng.randint(0, 8))
        den = random_poly(rng, rng.randint(1, 4)) * random_poly(rng, rng.randint(0, 2)) ** 2
        assert integral_identity_holds(num, den)


# -- top-down polynomial solutions ---------------------------------------------------


def wronskian_solution(num, den):
    """The solution r of den*r' - den'*r = num, normalised like a ladder step:
    r = P*den + C with P(0) = 0 and deg C < deg den; None if there is none."""
    r = polynomial_solution((-den.derivative(), den), num)
    return None if r is None else r - (r // den).coeff(0) * den


def test_polynomial_solution_recovers_r_for_any_denominator():
    rng = random.Random(53)
    fixed = [Z ** 3, (Z - 1) ** 2 * (Z + 2), (Z ** 2 + 1) ** 3, ExactPoly.constant(F(-3, 7)), ONE]
    dens = fixed + [random_poly(rng, rng.randint(1, 4)) * random_poly(rng, rng.randint(0, 2)) ** 2
                    for _ in range(15)]
    for den in dens:
        for degree in (0, 1, rng.randint(2, 12), None):
            r = ExactPoly.zero() if degree is None else random_poly(rng, degree)
            found = wronskian_solution(den * r.derivative() - den.derivative() * r, den)
            # r is recovered modulo den: up to a constant multiple of den
            assert (found - r) % den == 0 and (found - r).degree <= den.degree
            assert (found // den).coeff(0) == 0
    assert wronskian_solution(3 * Z ** 2, ExactPoly.constant(F(2, 5))) == F(5, 2) * Z ** 3


def test_polynomial_solution_obstructed_by_simple_poles():
    # num/den^2 = (r/den)' + b/den: the kernel finds no solution and Hermite
    # reduction writes out b as the log numerator
    rng = random.Random(59)
    done = 0
    while done < 20:
        den = random_poly(rng, rng.randint(1, 8))
        if not is_squarefree(den):
            continue
        r = random_poly(rng, rng.randint(0, 10))
        b = random_poly(rng, rng.randint(0, int(den.degree) - 1))
        num = den * r.derivative() - den.derivative() * r + b * den
        assert wronskian_solution(num, den) is None
        assert hermite_reduce(num, den).log_numerator == b
        done += 1
    assert wronskian_solution(ONE, Z ** 2) is None  # 1/z^4 integrates to -1/(3z^3), not r/z^2


def test_hermite_reduce_matches_inverse_route():
    # the log-free branch (a polynomial solution) against the modular inverse
    # route on random squarefree p, for log-free and generic numerators
    rng = random.Random(61)
    done = 0
    while done < 30:
        p = random_poly(rng, rng.randint(1, 10))
        if not is_squarefree(p):
            continue
        r = random_poly(rng, rng.randint(0, 14))
        dp = p.derivative()
        for num in (p * r.derivative() - dp * r, random_poly(rng, rng.randint(0, 12))):
            poly_part, rem = divmod(num, p * p)
            c = (-rem * invert_mod(dp % p, p)) % p
            b = exact_div(rem - c.derivative() * p + c * dp, p)
            red = hermite_reduce(num, p)
            assert (red.poly_antideriv, red.rational_part_numerator, red.log_numerator) == (
                poly_part.antiderivative(), c, b)
        done += 1


def test_polynomial_solution_higher_order():
    # r'' = 6z: the pivots j(j-1) vanish at j = 0, 1, which stay free (zero)
    assert polynomial_solution((ExactPoly.zero(), ExactPoly.zero(), ONE), 6 * Z) == Z ** 3
    # z*r' - 2r = z^2 has no polynomial solution (z^2 log z)
    assert polynomial_solution((ExactPoly.constant(-2), Z), Z ** 2) is None
    assert polynomial_solution((ExactPoly.constant(-2), Z), Z ** 3) == Z ** 3
    # random operators of order 3: r is recovered exactly once its coefficients
    # at the zeros of the pivot f(j) = sum_k lead_k * j!/(j-k)! are zero
    rng = random.Random(67)
    for _ in range(20):
        ops = [random_poly(rng, rng.randint(0, 4)) for _ in range(4)]
        s = max(int(op.degree) - k for k, op in enumerate(ops))
        lead = [op.coeff(s + k) for k, op in enumerate(ops)]
        free = {j for j in range(12) if not sum(c * math.perm(j, k) for k, c in enumerate(lead))}
        r = ExactPoly([0 if j in free else c for j, c in enumerate(random_poly(rng, 11).coeffs)])
        rhs = sum((op * r.derivative(k) for k, op in enumerate(ops)), ExactPoly.zero())
        assert polynomial_solution(ops, rhs) == r


# -- residue criterion ------------------------------------------------------------


def test_residue_divisibility_examples():
    assert residue_divisibility(Z ** 5 + 1, Z, 2)
    # mirrored test of the pair (z, z^2+1) at lambda 2 swaps roles and inverts lambda
    assert residue_divisibility(Z ** 2 + 1, Z, F(1, 2))
    assert not residue_divisibility(Z ** 2 - 1, Z, 1)


def test_residue_divisibility_preconditions():
    with pytest.raises(NotSquarefree):
        residue_divisibility(Z ** 2, Z + 1, 1)
    with pytest.raises(NotCoprime):
        residue_divisibility(Z ** 2 - 1, Z - 1, 1)


def both_sides_divisible(p, q, lam):
    return residue_divisibility(p, q, lam) and residue_divisibility(q, p, 1 / F(lam))


def test_residue_criterion_matches_bracket_on_random_pairs():
    rng = random.Random(61)
    checked = 0
    while checked < 30:
        p = random_poly(rng, rng.randint(1, 6))
        q = random_poly(rng, rng.randint(1, 4))
        if not (is_squarefree(p) and is_squarefree(q)):
            continue
        if gcd_poly(p, q).degree != 0:
            continue
        for lam in (F(1, 2), F(1), F(2)):
            assert both_sides_divisible(p, q, lam) == bracket(p, q, BracketParams(lam)).is_zero
        checked += 1


def test_residue_criterion_on_certified_pairs(ladder_chain, adler_moser_chain):
    for i in range(-3, 4):
        p, q = ladder_chain[i]
        if q.degree < 1:
            continue
        assert both_sides_divisible(p, q, 2)
    for n in range(1, 6):
        assert both_sides_divisible(adler_moser_chain[n], adler_moser_chain[n + 1], 1)


def test_hermite_obstruction_vanishes_iff_bracket_on_ladder(ladder_chain):
    for i in range(-3, 4):
        p, q = ladder_chain[i]
        assert hermite_reduce(q ** 4, p).log_free
        assert hermite_reduce(p, q).log_free
        if q.degree >= 1:
            perturbed = p + q  # off the solution variety but still admissible shape
            if is_squarefree(perturbed) and gcd_poly(perturbed, q).degree == 0:
                if not bracket(perturbed, q, BracketParams(2)).is_zero:
                    assert (not hermite_reduce(q ** 4, perturbed).log_free
                            or not hermite_reduce(perturbed, q).log_free)


def test_exact_div_raises_on_inexact():
    from charge_ladder.polyrat import InvariantViolation

    with pytest.raises(InvariantViolation):
        exact_div(Z ** 2 + 1, Z)

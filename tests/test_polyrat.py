import math
import random
from fractions import Fraction as F

import pytest

from charge_ladder import polyrat
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
from conftest import leibniz_det, nonzero_rational

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
    assert p.compose_linear(F(-1, 3)) == Z ** 2 / 9 + Z + 3
    assert p(F(1, 2)) == F(1, 4) - F(3, 2) + 3
    assert abs(p(1j) - (1j * 1j - 3j + 3)) < 1e-15


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        ExactPoly([0.5])


def test_json_round_trip():
    p = ExactPoly([F(-1, 2), 0, F(7, 3), 1])
    assert ExactPoly.from_json(p.to_json()) == p
    assert p.to_json()["coeffs"] == ["-1/2", "0", "7/3", "1"]
    assert ExactPoly.from_json({"coeffs": [1, 0.5, "-2/3", 2.0]}) == ExactPoly([1, F(1, 2), F(-2, 3), 2])
    for blob in ([1, 2], {"var": "z"}, {"coeffs": 5}, {"coeffs": "12"}, {"coeffs": [None, 1]},
                 {"coeffs": [[1], 1]}, {"coeffs": [math.inf]}, {"coeffs": [math.nan]}, {"coeffs": ["1/0"]}):
        with pytest.raises(ValueError):
            ExactPoly.from_json(blob)
    # 0.1 is 3602879701896397/2**55 in binary, not the 1/10 it reads as
    with pytest.raises(ValueError, match="polynomial JSON float 0.1 is not exactly 0.1"):
        ExactPoly.from_json({"coeffs": [0.1, 1]})


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


def test_coprimality_certificate_makes_no_product(ladder_chain, monkeypatch):
    # the modular certificate needs only the gcd degree mod p, never a
    # Bezout cofactor, so it runs no polynomial product at all
    calls = []
    kmul = polyrat._kmul
    monkeypatch.setattr(polyrat, "_kmul", lambda a, b: calls.append(1) or kmul(a, b))
    p, q = ladder_chain[4]
    assert gcd_poly(p, q) == ONE
    assert is_squarefree(p) and is_squarefree(q)
    polyrat.require_squarefree_coprime(p, q)
    assert calls == []


def test_euclid_mod_degree_matches_integer_gcd():
    # coprime pairs and products with a shared factor of degree 1..3, on
    # every prime: the gcd degree mod p equals that of the PRS over Z
    rng = random.Random(4409)

    def vec(degree):
        return [rng.randint(-30, 30) for _ in range(degree)] + [rng.choice((-1, 1)) * rng.randint(1, 30)]

    for shared in (0, 0, 1, 2, 3) * 8:
        g = vec(shared)
        a, b = polyrat._kmul(g, vec(rng.randint(1, 5))), polyrat._kmul(g, vec(rng.randint(0, 5)))
        for prime in polyrat._PRIMES:
            deg, quots, lead = polyrat._euclid_mod(a, b, prime)
            assert deg == len(polyrat._int_gcd(a, b)) - 1
            assert quots and 0 < lead < prime


def test_invert_mod_folded_inverse_mod_p(monkeypatch):
    # the inverse mod p that invert_mod folds from the Euclid quotients, as
    # handed to the first Newton lift, satisfies s*A = 1 (mod M, p)
    lift, seen = polyrat._lift, []

    def recorded(a, m, s, n, t):
        seen.append((a, m, s, n))
        return lift(a, m, s, n, t)

    monkeypatch.setattr(polyrat, "_lift", recorded)
    rng = random.Random(5501)
    for _ in range(30):
        m = random_poly(rng, rng.randint(1, 7))
        a = random_poly(rng, rng.randint(0, 8))
        if (a % m).degree < 1 or gcd_poly(a, m).degree != 0:
            continue
        del seen[:]
        inv = invert_mod(a, m)
        assert ((inv * a - 1) % m).is_zero
        num, mod, s, n = seen[0]
        assert n in polyrat._PRIMES and all(0 <= c < n for c in s)
        assert polyrat._divmod_mod(polyrat._kmul(num, s), mod, n)[1] == [1]


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


def recorded_lift_stops(monkeypatch):
    """Patch out extended_gcd and log the lift's steps in call order: "wang"
    for each reconstruction, "double" for each Newton lift that doubles the
    precision and the value of each resultant."""
    calls = []
    reconstruct, resultant, lift = polyrat._reconstruct, polyrat._resultant, polyrat._lift

    def unreachable(*args):
        raise AssertionError("extended_gcd called on a coprime pair")

    def recorded_lift(a, m, s, n, t):
        if t == n:
            calls.append("double")
        return lift(a, m, s, n, t)

    monkeypatch.setattr(polyrat, "extended_gcd", unreachable)
    monkeypatch.setattr(polyrat, "_lift", recorded_lift)
    monkeypatch.setattr(polyrat, "_reconstruct", lambda *args: calls.append("wang") or reconstruct(*args))
    monkeypatch.setattr(polyrat, "_resultant", lambda *args: calls.append(resultant(*args)) or calls[-1])
    return calls


def test_invert_mod_lifts_past_2_18_bits(monkeypatch):
    # the inverse 1 - b*z of 1 + b*z modulo z^2 has a 268400-bit coefficient,
    # so the lift runs to about 2^19 bits; the exact Euclidean route is never
    # taken.  b is a power of the lift's prime, so below the final precision
    # every residue reads back at once, as 1.  Wang's reconstruction runs
    # after each doubling below the Hadamard bound of res (about 2*268400
    # bits); the resultant stop comes before the doubling that would pass it.
    # There res = 1, and the precision already exceeds b: V = 1 - b*z reads
    # off at once, and Wang never runs after the resultant
    calls = recorded_lift_stops(monkeypatch)
    b = polyrat._PRIMES[0] ** 4400
    assert b.bit_length() > 1 << 18
    assert invert_mod(1 + b * Z, Z ** 2) == 1 - b * Z
    assert set(calls[:calls.index(1)]) == {"double", "wang"}
    assert calls[calls.index(1):] == [1]


def test_invert_mod_read_off_fails_then_doubles(monkeypatch):
    # res(z^2, 7 + b*z) = 49 while V = 49*(7 + b*z)^-1 = 7 - b*z has a
    # 268400-bit coefficient, far more than bits(res) plus a word; the lift's
    # precision at the resultant stop exceeds it, so V reads off at once
    calls = recorded_lift_stops(monkeypatch)
    b = polyrat._PRIMES[0] ** 4400
    assert invert_mod(7 + b * Z, Z ** 2) == (7 - b * Z) / 49
    assert calls[calls.index(49):] == [49]
    # modulo z^3, res = 1 and V = 1 - b*z + b^2*z^2 has 18000 bits for a
    # 9000-bit b, more than the 15616 bits the stop reads at: the exact check
    # fails, and the lift doubles and reads V again with the same res, not
    # with Wang's reconstruction
    del calls[:]
    b = 3 ** 5678
    assert invert_mod(1 + b * Z, Z ** 3) == 1 - b * Z + b * b * Z ** 2
    assert calls[calls.index(1):] == [1, "double"]


def test_invert_mod_falls_back_to_extended_gcd_when_every_prime_is_unlucky(monkeypatch):
    # res(z^2 - P, z) = -P with P the product of the lift's primes: each of
    # them divides the resultant, so none certifies coprimality and exact
    # Euclid over Q decides it, once
    big = math.prod(polyrat._PRIMES)
    extended_gcd, calls = polyrat.extended_gcd, []
    monkeypatch.setattr(polyrat, "extended_gcd", lambda a, b: calls.append(1) or extended_gcd(a, b))
    assert invert_mod(Z, Z ** 2 - big) == Z / big
    assert len(calls) == 1


def sylvester(a, b):
    """Sylvester matrix of integer vectors a, b (ascending order) as constant
    polynomials: deg b shifted rows of a over deg a shifted rows of b."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)]
    return [[ExactPoly.constant(c) for c in row] for row in rows]


def test_resultant_matches_sylvester_determinant():
    # seeded pairs with deg a + deg b <= 7, plain, with a shared factor
    # (res 0), a degree gap of 2 or more either way, negative leads, contents
    # above 1, a degree-0 operand and unequal odd degrees (where the order of
    # the arguments flips the sign), against the Leibniz determinant of the
    # Sylvester matrix; the sign is exact, in both argument orders
    rng = random.Random(3307)

    def vec(degree):
        return [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((-1, 1)) * rng.randint(1, 9)]

    for kind in ("plain", "shared", "gap", "negative", "content", "constant", "odd") * 3:
        da = rng.randint(1, 4)
        db = rng.randint(1, 7 - da)
        a, b = vec(da), vec(db)
        if kind == "shared":
            f = [rng.randint(-4, 4), rng.choice((-2, 1, 3))]
            a, b = polyrat._kmul(vec(da - 1), f), polyrat._kmul(vec(db - 1), f)
        elif kind == "gap":
            db = rng.randint(0, 2)
            a, b = vec(rng.randint(db + 2, 7 - db)), vec(db)
        elif kind == "negative":
            a[-1], b[-1] = -abs(a[-1]), -abs(b[-1])
        elif kind == "content":
            a, b = [rng.randint(2, 6) * c for c in a], [6 * c for c in b]
        elif kind == "constant":
            b = vec(0)
        elif kind == "odd":
            a, b = vec(1), vec(rng.choice((3, 5)))
        for x, y in ((a, b), (b, a)):
            assert polyrat._resultant(x, y) == leibniz_det(sylvester(x, y))
        if kind == "shared":
            assert polyrat._resultant(a, b) == 0


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


def test_wronskian_matches_leibniz_determinant():
    # every prefix of seeded sets of up to 6 members, plain and with a
    # dependent (f3 = 2/3*f1 + f2), zero, constant or repeated member spliced
    # in at a random place, against the determinant of the derivative matrix
    rng = random.Random(1968)
    for n in range(1, 7):
        for kind in ("plain", "dependent", "zero", "constant", "repeated"):
            fs = [random_poly(rng, rng.randint(0, 7)) for _ in range(n)]
            if kind == "dependent" and n >= 2:
                fs.insert(2, F(2, 3) * fs[0] + fs[1])
                assert wronskian(fs[:3]).is_zero
            elif kind == "zero":
                fs.insert(rng.randint(0, n), ExactPoly.zero())
            elif kind == "constant":
                fs.insert(rng.randint(0, n), ExactPoly.constant(nonzero_rational(rng)))
            elif kind == "repeated":
                fs.insert(rng.randint(0, n), rng.choice(fs))
            fs = fs[:6]
            for m in range(1, len(fs) + 1):
                matrix = [[f.derivative(i) for f in fs[:m]] for i in range(m)]
                assert wronskian(fs[:m]) == leibniz_det(matrix)


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


def test_hermite_log_free_over_repeated_base():
    # the integral of -2z/z^4 is 1/z^2: the log-free route needs no squarefree p
    red = hermite_reduce(-2 * Z, Z ** 2)
    assert red.poly_antideriv.is_zero and red.log_free
    assert red.rational_part_numerator == ONE


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
    # a nonzero constant p divides everything
    assert residue_divisibility(ExactPoly.constant(3), Z + 1, 2)


def test_residue_divisibility_preconditions():
    for p in (Z ** 2, ExactPoly.zero()):
        with pytest.raises(NotSquarefree, match="p must be nonzero and squarefree"):
            residue_divisibility(p, Z + 1, 1)
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

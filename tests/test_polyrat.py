import math
import random
import time
from fractions import Fraction as F

import pytest

from charge_ladder import polyrat
from charge_ladder.generators import (
    BracketParams,
    adler_moser_wronskian,
    bracket,
    certify_rational_integrals,
    lambda2_ladder,
    psi_chain,
)
from charge_ladder.polyrat import (
    DivisionByZero,
    ExactPoly,
    NotCoprime,
    NotSquarefree,
    UndefinedGcd,
    exact_div,
    gcd_poly,
    hermite_reduce,
    integrate_rational,
    invert_mod,
    is_squarefree,
    polynomial_solution,
    wronskian,
)
from charge_ladder.spectral import solve_p_given_q
from conftest import euclid_gcd, leibniz_det, nonzero_rational, random_poly

Z = ExactPoly.x()
ONE = ExactPoly.one()


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


def test_json_rejects_booleans():
    # JSON true and false are ints to Python; read as coefficients, the first
    # would be z**2 + 1
    for coeffs in ([True, False, 1], [1, True], [False]):
        with pytest.raises(ValueError):
            ExactPoly.from_json({"coeffs": coeffs})


def test_constant_hash_agrees_with_equality():
    for value in (5, F(-7, 3), 0):
        poly = ExactPoly.constant(value)
        assert poly == value and hash(poly) == hash(value)
        assert {value: "found"}.get(poly) == "found"
    assert hash(ExactPoly.zero()) == hash(0) and {0: 1}[ExactPoly.zero()] == 1
    assert len({ExactPoly([1, 2]), ExactPoly([F(1), F(2)]), ExactPoly([1, 3])}) == 2


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


def test_coprimality_certificate_runs_on_the_first_lane_prime(ladder_chain, monkeypatch):
    # the certificate draws from the lane primes: on every ladder pair each
    # of its three Euclids runs mod the largest prime below 2**31, and none
    # is inconclusive, so no lane runs
    primes, lanes = [], []
    euclid, lane = polyrat._euclid_mod, polyrat._euclid_lanes
    monkeypatch.setattr(polyrat, "_euclid_mod",
                        lambda a, b, prime: primes.append(prime) or euclid(a, b, prime))
    monkeypatch.setattr(polyrat, "_euclid_lanes",
                        lambda m, a, ps: lanes.append(1) or lane(m, a, ps))
    for p, q in ladder_chain.values():
        polyrat.require_squarefree_coprime(p, q)
    assert primes and set(primes) == {polyrat._lane_primes(1)[0]} and lanes == []


def test_euclid_mod_degree_matches_integer_gcd():
    # coprime pairs and products with a shared factor of degree 1..3, on
    # every prime: the gcd degree mod p equals that of Euclid over Q
    rng = random.Random(4409)

    def vec(degree):
        return [rng.randint(-30, 30) for _ in range(degree)] + [rng.choice((-1, 1)) * rng.randint(1, 30)]

    for shared in (0, 0, 1, 2, 3) * 8:
        g = vec(shared)
        a, b = polyrat._kmul(g, vec(rng.randint(1, 5))), polyrat._kmul(g, vec(rng.randint(0, 5)))
        for prime in polyrat._lane_primes(3):
            assert polyrat._euclid_mod(a, b, prime) == len(euclid_gcd(a, b)) - 1


def test_gcd_by_lanes_matches_euclid_over_q(monkeypatch):
    # with a certificate that reports a shared factor, as one mod an unlucky
    # prime does, every pair runs lanes: equal degrees, one operand a multiple
    # of the other, contents above 1, negative leads, rational coefficients
    # and a degree-0 operand, each with a shared factor of degree 0..3,
    # against Euclid over Q in both argument orders
    rng = random.Random(6607)
    monkeypatch.setattr(polyrat, "_euclid_mod", lambda a, b, prime: 1)
    lanes, runs = polyrat._euclid_lanes, []
    monkeypatch.setattr(polyrat, "_euclid_lanes",
                        lambda m, a, primes: runs.append(1) or lanes(m, a, primes))

    def poly(degree, den=1):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(degree)]
        return ExactPoly(coeffs + [F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, den))])

    degrees = set()
    for kind in ("equal", "multiple", "content", "negative", "rational", "constant") * 5:
        for shared in range(4):
            den = 4 if kind == "rational" else 1
            g = poly(shared, den)
            a, b = g * poly(rng.randint(0, 3), den), g * poly(rng.randint(0, 3), den)
            if kind == "equal":
                b = g * poly(int(a.degree - g.degree))
            elif kind == "multiple":
                b = a * poly(rng.randint(0, 1))
            elif kind == "content":
                a, b = a * 6, b * 10
            elif kind == "negative":
                a, b = (x * (-1 if x.lead > 0 else 1) for x in (a, b))
            elif kind == "constant":
                b = poly(0)
            for x, y in ((a, b), (b, a)):
                del runs[:]
                got = gcd_poly(x, y)
                assert list(got.coeffs) == euclid_gcd(x.coeffs, y.coeffs) and runs
                degrees.add(got.degree)
    assert degrees >= {0, 1, 2, 3}


def test_gcd_by_lanes_survives_a_false_common_factor(monkeypatch):
    # z^2 - P and z are coprime, but modulo each prime dividing P they share
    # z: the certificate, mod table[0], and the first two lanes see it.  The
    # first lane's z does not divide z^2 - P, so every lane so far was unlucky;
    # the second lane, of degree 1 again, is discarded and the third proves gcd 1
    table = polyrat._lane_primes(3)
    big = table[0] * table[1]
    lanes, batches = polyrat._euclid_lanes, []
    monkeypatch.setattr(polyrat, "_euclid_lanes",
                        lambda m, a, primes: batches.append(lanes(m, a, primes)) or batches[-1])
    for a, b in ((Z ** 2 - big, Z), (Z, Z ** 2 - big)):
        del batches[:]
        assert gcd_poly(a, b) == ONE
        assert [(kept.tolist(), shared) for kept, shared, _ in batches] == [
            ([table[0]], True), ([table[1]], True), ([table[2]], False)]


def test_gcd_by_lanes_when_a_whole_batch_is_unlucky(monkeypatch):
    # g = gcd(A, B) for A = q0*g*(z^2 - q1*...*q_k-1), B = g*z, with the prime
    # table patched so that q0, dividing lead(A), and the primes dividing the
    # constant come first: the first batch of six lanes drops q0 and keeps
    # only lanes of degree deg g + 1.  With k = 6 a lucky lane of lower degree
    # replaces them; with k = 7 one more unlucky lane makes up the bound, the
    # CRT result fails to divide, and a fresh batch reads g
    table = polyrat._lane_primes(3000)
    q = table[100:110]
    g = Z ** 3 + F(5, 7) * Z + 3 ** 100
    lanes, batches = polyrat._euclid_lanes, []
    monkeypatch.setattr(polyrat, "_lane_primes",
                        lambda count: (q + [p for p in table if p not in q])[:count])
    monkeypatch.setattr(polyrat, "_euclid_lanes",
                        lambda m, a, primes: batches.append(lanes(m, a, primes)) or batches[-1])
    for k, degrees in ((6, [4, 3, 3]), (7, [4, 4, 3])):
        del batches[:]
        assert gcd_poly(q[0] * g * (Z ** 2 - math.prod(q[1:k])), g * Z) == g.monic()
        assert [rows.shape[1] - 1 for _, _, rows in batches] == degrees
        assert batches[0][0].tolist() == q[1:6]
    # a first batch whose primes all divide lead(A) keeps no lane and adds none
    del batches[:]
    assert gcd_poly(math.prod(q[:6]) * g * (Z + 2), g) == g.monic()
    assert [len(kept) for kept, _, _ in batches] == [0, 6]


def test_rejections_at_ladder_scale_take_the_lanes(ladder_chain):
    # the i=4 pair with a double root, a shared cubic and a square: each
    # nontrivial gcd is read from the lanes and proved by exact division
    # (about 16 s by a pseudo-remainder sequence over Z)
    p, q = ladder_chain[4]
    g = Z ** 3 + F(5, 7) * Z + 1
    start = time.perf_counter()
    double = p * (Z - F(1, 3)) ** 2
    assert not is_squarefree(double)
    with pytest.raises(NotSquarefree):
        certify_rational_integrals(double, q, 2)
    assert gcd_poly(p * g, q * g) == g.monic()
    assert gcd_poly(p ** 2 * q, (p ** 2 * q).derivative()) == p.monic()
    assert time.perf_counter() - start < 1.5

def test_lane_primes_are_the_primes_below_2_31():
    # the table against a Miller-Rabin test with bases 2, 7 and 61, which is
    # exact below 4759123141, across eight sieve windows of 2**12 odd numbers
    def is_prime(n):
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for base in (2, 7, 61):
            x = pow(base, d, n)
            if x not in (1, n - 1) and all(pow(x, 2 ** r, n) != n - 1 for r in range(1, s)):
                return False
        return True

    primes = polyrat._lane_primes(1600)
    assert primes[0] == 2 ** 31 - 1
    assert primes == [n for n in range(2 ** 31 - 1, primes[-1] - 1, -2) if is_prime(n)]


def test_residues_match_python_remainders():
    # zero, signs, values past one group's 64-prime product and a lane count
    # that is not a multiple of 64
    rng = random.Random(31)
    primes = polyrat._lane_primes(150)
    values = [0, 1, -1, 2 ** 31, -(3 ** 200), rng.getrandbits(5000), -rng.getrandbits(9000)]
    out = polyrat._residues(values, primes)
    assert out.shape == (len(values), len(primes))
    assert out.tolist() == [[v % p for p in primes] for v in values]


def sylvester_solve(a, m):
    """V with V*a = 1 (mod m) and deg V < deg m, from U*m + V*a = 1 as a
    linear system in the coefficients, by Gauss-Jordan over Fractions."""
    a = a % m
    n, k = int(m.degree), int(a.degree)
    rows = [[F(0)] * (k + n) + [F(int(d == 0))] for d in range(n + k)]
    for i in range(k):
        for j, c in enumerate(m.coeffs):
            rows[i + j][i] += c
    for i in range(n):
        for j, c in enumerate(a.coeffs):
            rows[i + j][k + i] += c
    for col in range(n + k):
        pivot = next(r for r in range(col, n + k) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n + k):
            if r != col and rows[r][col]:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return ExactPoly([row[-1] for row in rows[k:]])


def test_invert_mod_matches_sylvester_solve():
    # random non-monic rational pairs, the residue of degree 0 up to one
    # below the modulus, against the Sylvester system solved over Q
    rng = random.Random(5501)
    checked = 0
    for _ in range(60):
        m = random_poly(rng, rng.randint(1, 7)) * nonzero_rational(rng, 9, 7)
        a = random_poly(rng, rng.randint(0, 9)) * nonzero_rational(rng, 9, 7)
        if (a % m).is_zero or gcd_poly(a, m).degree != 0:
            continue
        assert invert_mod(a, m) == sylvester_solve(a, m)
        checked += 1
    assert checked > 40


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


def test_invert_mod_lifts_past_2_18_bits():
    # the inverse 1 - b*z of 1 + b*z modulo z^2 has a 268400-bit coefficient
    # and the Hadamard bound of res twice that, so about 17900 lanes run and
    # the input itself is reduced by long divisions before the limbs
    b = (2 ** 61 - 1) ** 4400
    assert b.bit_length() > 1 << 18
    assert invert_mod(1 + b * Z, Z ** 2) == 1 - b * Z


def test_invert_mod_read_off_fails_then_doubles():
    # res(z^2, 7 + b*z) = 49 while V = 49*(7 + b*z)^-1 = 7 - b*z has a
    # 268400-bit coefficient, far more than bits(res): the CRT must cover the
    # Hadamard bound of V, not of res alone.  Modulo z^3, V = 1 - b*z + b^2*z^2
    # has 18000 bits for a 9000-bit b, twice the bits of the input
    b = (2 ** 61 - 1) ** 4400
    assert invert_mod(7 + b * Z, Z ** 2) == (7 - b * Z) / 49
    b = 3 ** 5678
    assert invert_mod(1 + b * Z, Z ** 3) == 1 - b * Z + b * b * Z ** 2


def resultant(m, a):
    """res(M, A) of integer vectors, not both constant, and V with V*A = res
    (mod M), or (0, []) when res = 0, read by the lane loop at the Hadamard
    bound H = |M|**deg A * |A|**deg M as invert_mod reads them."""
    hadamard = ((len(a) - 1) * sum(c * c for c in m).bit_length()
                + (len(m) - 1) * sum(c * c for c in a).bit_length()) // 2 + 1
    k, primes, rows, _ = polyrat._least_degree_lanes(m, a, hadamard, min(len(m), len(a)) - 1)
    if k:
        return 0, []
    res, *v = polyrat._crt(primes, rows)
    return res, v


def test_invert_mod_decides_by_the_resultant_when_every_prime_is_unlucky(monkeypatch):
    # a lane whose prime divides lead(M), lead(A) or res(M, A) gives no
    # inverse.  With the prime table patched so that such primes, taken from
    # deeper in the table, come first, those lanes are dropped at the start
    # or mid-Euclid, further lanes make up the bound, and every inverse is
    # unchanged.  The three primes near 2**61, 2**62 and 2**63 that P
    # multiplies all divide res(z^2 - P, z) = -P and play no part
    table = polyrat._lane_primes(3000)
    q = table[100:106]
    cases = [(Z, Z ** 2 - (2 ** 61 - 1) * (2 ** 62 - 57) * (2 ** 63 - 25)),
             (Z + 1, q[0] * q[1] * Z ** 2 - 3),  # q0, q1 divide lead(M)
             (Z, Z ** 2 - q[2] * q[3] * q[4]),  # q2, q3, q4 divide res
             (q[0] * Z + 1, Z ** 2 + 3)]  # q0 divides lead(A)
    expected = [invert_mod(a, m) for a, m in cases]
    assert expected[2] == Z / (q[2] * q[3] * q[4])
    unlucky = [{p for p in q for c in (m._num[-1], a._num[-1],
                                       resultant(m._num, (a % m)._num)[0]) if c % p == 0}
               for a, m in cases]
    assert unlucky[1:] == [{q[0], q[1]}, {q[2], q[3], q[4]}, {q[0]}]
    euclid, batches = polyrat._euclid_lanes, []
    monkeypatch.setattr(polyrat, "_lane_primes",
                        lambda count: (q + [p for p in table if p not in q])[:count])
    monkeypatch.setattr(polyrat, "_euclid_lanes",
                        lambda m, a, primes: batches.append((primes, euclid(m, a, primes)))
                        or batches[-1][1])
    # batches of lanes: the first takes the bound's count from q0 on, each
    # further one the count its predecessors lost; in the third case q2 and
    # q3 fall in the first batch and q4 in the second
    for (a, m), inverse, bad, count in zip(cases, expected, unlucky, (1, 2, 3, 2)):
        del batches[:]
        assert invert_mod(a, m) == inverse
        assert batches[0][0][0] == q[0] and len(batches) == count
        assert not bad & {int(p) for _, (kept, _, _) in batches for p in kept}


def test_invert_mod_diagnoses_a_shared_factor_at_ladder_scale(ladder_chain, monkeypatch):
    # p_3*g and q_3*g share g: every lane's remainders vanish at the common
    # factor, and once the zero lanes cover twice the Hadamard bound of res,
    # res = 0 is proved and there is no inverse
    p, q = ladder_chain[3]
    g = Z ** 3 + F(5, 7) * Z + 1
    euclid, batches = polyrat._euclid_lanes, []
    monkeypatch.setattr(polyrat, "_euclid_lanes",
                        lambda m, a, primes: batches.append(euclid(m, a, primes)) or batches[-1])
    with pytest.raises(NotCoprime):
        invert_mod(p * g, q * g)
    m, a = (q * g)._num, ((p * g) % (q * g))._num
    hadamard = ((len(a) - 1) * sum(c * c for c in m).bit_length()
                + (len(m) - 1) * sum(c * c for c in a).bit_length()) // 2 + 1
    assert all(shared for _, shared, _ in batches)
    assert math.prod(int(x) for kept, _, _ in batches for x in kept) > 2 ** (hadamard + 1)


def sylvester(a, b):
    """Sylvester matrix of integer vectors a, b (ascending order) as constant
    polynomials: deg b shifted rows of a over deg a shifted rows of b."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)]
    return [[ExactPoly.constant(c) for c in row] for row in rows]


def test_resultant_matches_sylvester_determinant():
    # the resultant the lanes read, for seeded pairs with deg a + deg b <= 7,
    # plain, with a shared factor (res 0), a degree gap of 2 or more either
    # way, negative leads, contents above 1, a degree-0 operand and unequal
    # odd degrees (where the order of the arguments flips the sign), against
    # the Leibniz determinant of the Sylvester matrix; the sign is exact, in
    # both argument orders
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
            assert resultant(x, y)[0] == leibniz_det(sylvester(x, y))
        if kind == "shared":
            assert resultant(a, b) == (0, [])


# -- input guards ----------------------------------------------------------------


# each call and its documented outcome: a value, or the exception it raises
@pytest.mark.parametrize("call, outcome", [
    (lambda: gcd_poly(ExactPoly.zero(), 2 * Z ** 2 - 3), Z ** 2 - F(3, 2)),
    (lambda: invert_mod(Z, ExactPoly.constant(3)), ValueError("modulus must have degree >= 1")),
    (lambda: invert_mod(Z ** 2 - 1, Z - 1), NotCoprime("zero has no inverse")),
    (lambda: hermite_reduce(Z, ExactPoly.zero()), DivisionByZero("denominator polynomial is zero")),
    (lambda: integrate_rational(Z, ExactPoly.zero()), DivisionByZero("denominator polynomial is zero")),
    (lambda: Z / 0, DivisionByZero("division of polynomial by zero scalar")),
    (lambda: ExactPoly.zero().monic(),
     DivisionByZero("the zero polynomial has no monic normalization")),
    (lambda: Z ** -1, ValueError("polynomial powers must be non-negative integers")),
    (lambda: ExactPoly.monomial(-1), ValueError("monomial degree must be >= 0")),
    (lambda: psi_chain(-1), ValueError("chain length must be >= 0")),
    (lambda: adler_moser_wronskian(-1), ValueError("Adler-Moser index must be >= 0")),
    (lambda: solve_p_given_q(Z ** 3 + Z, F(1, 2), 1),  # lam*deg q = 3/2
     ValueError("charge balance needs integral degree lam*deg(q), got 3/2")),
    (lambda: lambda2_ladder(1, [1, 2]),
     TypeError("constants must be a LadderState or a mapping of step -> rational")),
], ids=["gcd-zero-operand", "invert-constant-modulus", "invert-zero", "hermite-zero-den",
        "integrate-zero-den", "div-by-zero-scalar", "monic-zero", "negative-power",
        "negative-monomial", "psi-chain-negative", "adler-moser-negative",
        "solve-fractional-degree", "ladder-constants-list"])
def test_exact_layer_input_guards(call, outcome):
    if not isinstance(outcome, Exception):
        assert call() == outcome
        return
    with pytest.raises(type(outcome)) as info:
        call()
    assert type(info.value) is type(outcome) and str(info.value) == str(outcome)


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
    # each case with its poly part, rational numerator and denominator, log
    # numerator and denominator as to_json coefficients
    cases = [
        ((Z ** 4 + 1) ** 4, Z ** 6,
         [["0", "0", "0", "2", "0", "0", "0", "4/7", "0", "0", "0", "1/11"],
          ["-1/5", "0", "0", "0", "-4"], ["0", "0", "0", "0", "0", "1"], [], ["1"]]),
        (Z ** 7 + 3 * Z + 1, (Z ** 2 + 1) ** 2 * (Z - 2) ** 3,
         [["0", "1"], ["817/50", "-233/25", "396/25", "-233/25"], ["4", "-4", "5", "-4", "1"],
          ["144/25", "17/25", "6"], ["-2", "1", "-2", "1"]]),
        (Z ** 2, Z ** 2 - 1, [["0", "1"], [], ["1"], ["1"], ["-1", "0", "1"]]),
        (Z ** 5, (Z ** 2 + 2) ** 2, [["0", "0", "1/2"], ["-2"], ["2", "0", "1"], ["0", "-4"], ["2", "0", "1"]]),
        (ONE, (Z ** 3 + Z + 1) ** 2,
         [[], ["-4/31", "9/31", "-6/31"], ["1", "1", "0", "1"], ["18/31", "-6/31"], ["1", "1", "0", "1"]]),
    ]
    for num, den, golden in cases:
        assert integral_identity_holds(num, den)
        red = integrate_rational(num, den)
        fields = (red.poly_antideriv, red.rational_numerator, red.rational_denominator,
                  red.log_numerator, red.log_denominator)
        assert [f.to_json() for f in fields] == [{"var": "z", "coeffs": c} for c in golden]


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
        # the normal form that makes the decomposition unique: P(0) = 0, both
        # fractions proper and in lowest terms over monic denominators, 0/1
        # for a zero part, and a squarefree log denominator
        red = integrate_rational(num, den)
        assert red.poly_antideriv.coeff(0) == 0
        for n, d in ((red.rational_numerator, red.rational_denominator),
                     (red.log_numerator, red.log_denominator)):
            assert d.lead == 1 and n.degree < d.degree
            assert d == ONE if n.is_zero else gcd_poly(n, d) == ONE
        assert is_squarefree(red.log_denominator)


def test_integrate_rational_agrees_with_hermite_reduce(ladder_chain):
    # on squarefree p the general reduction of num/p**2 is hermite_reduce's
    # P + C/p and B/p, each fraction put in lowest terms
    def lowest_terms(n, d):
        if n.is_zero:
            return [ExactPoly.zero(), ONE]
        g = gcd_poly(n, d)
        n, d = exact_div(n, g), exact_div(d, g)
        return [n / d.lead, d.monic()]

    pairs = []
    for i in (3, -3):
        p, q = ladder_chain[i]
        coeffs = list(p.coeffs)
        coeffs[1] *= F(4, 3)  # an obstructed neighbour: both sides leave logs
        pairs += [(q ** 4, p), (p, q), (q ** 4, ExactPoly(coeffs)), (ExactPoly(coeffs), q)]
    rng = random.Random(67)
    while len(pairs) < 38:
        p = random_poly(rng, rng.randint(1, 8))
        if is_squarefree(p):
            pairs.append((random_poly(rng, rng.randint(0, 20)), p))
    for num, p in pairs:
        assert is_squarefree(p)
        red, ref = integrate_rational(num, p * p), hermite_reduce(num, p)
        assert red.poly_antideriv == ref.poly_antideriv
        assert [red.rational_numerator, red.rational_denominator] == lowest_terms(ref.rational_part_numerator, p)
        assert [red.log_numerator, red.log_denominator] == lowest_terms(ref.log_numerator, p)


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


# -- log obstructions against the bracket -----------------------------------------


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

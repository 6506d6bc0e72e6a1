import random
import time
from fractions import Fraction as F

import pytest

from charge_ladder import polyrat
from charge_ladder.generators import (
    BracketParams,
    LadderState,
    UnsupportedLambda,
    adler_moser,
    adler_moser_wronskian,
    admissible_degrees,
    bracket,
    certify_rational_integrals,
    lambda2_ladder,
    psi_chain,
    residue_divisibility,
)
from charge_ladder.polyrat import (
    ExactPoly,
    NotCoprime,
    NotSquarefree,
    exact_div,
    gcd_poly,
    integrate_rational,
    invert_mod,
    is_squarefree,
)
from charge_ladder.spectral import ba_lambda1
from conftest import nonzero_rational, random_ladder_state, random_poly, rational

Z = ExactPoly.x()
ONE = ExactPoly.one()


def theta2_formula(t2):
    return Z ** 3 + ExactPoly.constant(t2)


def theta3_formula(t2, t3):
    return Z ** 6 + 5 * t2 * Z ** 3 + t3 * Z - ExactPoly.constant(5 * t2 * t2)


def ladder_p1_formula(t1):
    return Z ** 5 + ExactPoly.constant(t1)


def ladder_q2_formula(t1, tau2):
    return Z ** 5 + tau2 * Z - ExactPoly.constant(4 * t1)


def ladder_qm1_formula(tau1):
    return Z ** 2 + ExactPoly.constant(tau1)


def ladder_pm2_formula(tau1, t2):
    return (Z ** 8 + F(28, 5) * tau1 * Z ** 6 + 14 * tau1 ** 2 * Z ** 4
            + 28 * tau1 ** 3 * Z ** 2 + t2 * Z - ExactPoly.constant(7 * tau1 ** 4))


def ladder_qm2_formula(tau1, tau2, t2):
    return (Z ** 7 + 7 * tau1 * Z ** 5 + 35 * tau1 ** 2 * Z ** 3 + tau2 * Z ** 2
            - 35 * tau1 ** 3 * Z + ExactPoly.constant(tau1 * tau2 - F(5, 2) * t2))


# -- bracket -------------------------------------------------------------------


def test_bracket_trivial_zero():
    assert bracket(Z, ONE, BracketParams(1)).is_zero


def test_bracket_consecutive_adler_moser():
    assert bracket(Z ** 3 + 1, Z, BracketParams(1)).is_zero


def test_bracket_field_pair():
    assert bracket(Z ** 2 - 3 * Z + 3, Z, BracketParams(2, 1)).is_zero


def test_bracket_rejects_zero_lambda():
    with pytest.raises(ValueError):
        BracketParams(0)


def expanded_bracket(p, q, lam, k):
    """The bracket term by term, as the paper writes it: the reference for the
    operator form `bracket` applies."""
    dp, dq = p.derivative(), q.derivative()
    result = p.derivative(2) * q - 2 * lam * dp * dq + lam * lam * p * q.derivative(2)
    return result + 2 * k * (dp * q - lam * dq * p)


def test_bracket_operator_matches_expanded_form(ladder_chain):
    rng = random.Random(25)
    pairs = [(random_poly(rng, rng.randint(0, 11)), random_poly(rng, rng.randint(0, 11)))
             for _ in range(40)]
    pairs += [(ExactPoly.zero(), Z + 1), (Z ** 3 - 2, ExactPoly.zero()),
              (ExactPoly.zero(), ExactPoly.zero()), (ExactPoly.constant(F(3, 2)), Z ** 2 - 1),
              ladder_chain[3], ladder_chain[-3]]
    for lam in (F(1, 2), F(1), F(2), F(3, 2)):
        for k in (0, 1, F(-7, 3)):
            for p, q in pairs:
                assert bracket(p, q, BracketParams(lam, k)) == expanded_bracket(p, q, lam, k)


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
    with pytest.raises(ValueError, match="lambda must be nonzero"):
        residue_divisibility(Z ** 2 - 1, Z, 0)


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


# -- Adler-Moser ----------------------------------------------------------------


def test_adler_moser_base_cases():
    assert adler_moser(0) == ONE
    assert adler_moser(1) == Z


def test_adler_moser_printed_tables():
    assert adler_moser(2, {2: 1}) == Z ** 3 + 1
    assert adler_moser(3, {2: 1, 3: 2}) == Z ** 6 + 5 * Z ** 3 + 2 * Z - 5


def test_adler_moser_formula_random_bindings():
    rng = random.Random(77)
    for _ in range(5):
        t2, t3 = rational(rng), rational(rng)
        assert adler_moser(2, {2: t2}) == theta2_formula(t2)
        assert adler_moser(3, {2: t2, 3: t3}) == theta3_formula(t2, t3)


def test_adler_moser_degrees_and_monic(adler_moser_chain):
    for n, theta in enumerate(adler_moser_chain[:7]):
        assert theta.degree == n * (n + 1) // 2
        assert theta.lead == 1


def test_adler_moser_bracket_chain(adler_moser_chain):
    for n in range(7):
        assert bracket(adler_moser_chain[n], adler_moser_chain[n + 1], BracketParams(1)).is_zero


def test_three_term_relation(adler_moser_chain):
    # theta'_{n+1} theta_{n-1} - theta_{n+1} theta'_{n-1} = (2n+1) theta_n^2
    th = adler_moser_chain
    for n in range(1, 6):
        lhs = th[n + 1].derivative() * th[n - 1] - th[n + 1] * th[n - 1].derivative()
        assert lhs == (2 * n + 1) * th[n] * th[n]


def test_adler_moser_homogeneity_weights(adler_moser_chain):
    # theta_n(z; t_2..t_n) == k^{-n(n+1)/2} theta_n(kz; k^3 t_2, ..., k^{2n-1} t_n)
    rng = random.Random(13)
    ts = {m: nonzero_rational(rng) for m in range(2, 5)}
    for n in range(5):
        base = adler_moser(n, ts)
        for k in (F(2), F(3), F(1, 2)):
            scaled_consts = {m: k ** (2 * m - 1) * v for m, v in ts.items()}
            transformed = adler_moser(n, scaled_consts).compose_linear(k)
            assert transformed == base * k ** (n * (n + 1) // 2)


def test_adler_moser_negative_index_rejected():
    with pytest.raises(ValueError):
        adler_moser(-1)


# -- Wronskian construction --------------------------------------------------------


def test_psi_chain_relations():
    chain = psi_chain(4, [(F(1, 2), 1), (0, F(2, 3)), (-1, 0)])
    assert chain[0] == Z
    for m in range(1, 4):
        assert chain[m].derivative(2) == chain[m - 1]


def test_wronskian_construction_base_cases():
    assert adler_moser_wronskian(0) == ONE
    assert adler_moser_wronskian(1) == Z
    assert adler_moser_wronskian(2) == Z ** 3


def test_wronskian_chain_bracket_pairs():
    constants = [(F(1, 3), F(-1)), (F(2), F(1, 5)), (F(0), F(1))]
    for n in range(4):
        a = adler_moser_wronskian(n, constants)
        b = adler_moser_wronskian(n + 1, constants)
        assert bracket(a, b, BracketParams(1)).is_zero
        assert a.degree == n * (n + 1) // 2


def test_wronskian_reach_in_time():
    # theta_17, theta_18 (degrees 153, 171) with a zero lam=1 bracket and the
    # n=16 field pair within 5 s: a regression gate on the Wronskian routine
    rng = random.Random(17)
    constants = [(rational(rng), rational(rng)) for _ in range(17)]
    start = time.perf_counter()
    a, b = adler_moser_wronskian(17, constants), adler_moser_wronskian(18, constants)
    assert bracket(a, b, BracketParams(1)).is_zero
    assert ba_lambda1(16, F(3, 2), constants).q.monic() == adler_moser_wronskian(16, constants)
    assert time.perf_counter() - start < 5


def test_invert_mod_resultant_stop_in_time():
    # the inverse z/3^40000 of z modulo z^2 - 3^40000 (a 63398-bit
    # denominator) within 2 s: a regression gate on reducing a huge
    # coefficient mod about 2100 lane primes and reading res and V back by
    # CRT (about 0.05 s on a 2-CPU box)
    start = time.perf_counter()
    assert invert_mod(Z, Z ** 2 - 3 ** 40000) == Z / 3 ** 40000
    assert time.perf_counter() - start < 2


def test_obstructed_certificate_in_time(ladder_chain):
    # the obstructed i=3 neighbour of test_obstructed_certificate_decides_
    # each_fact_once within 1 s: a regression gate on the modular inverse of
    # p' mod p (degree 33, about 310 lanes), which writes out the log
    # obstruction (about 0.1 s on a 2-CPU box)
    p, q = ladder_chain[3]
    coeffs = list(p.coeffs)
    coeffs[10] *= F(4, 3)
    start = time.perf_counter()
    assert len(certify_rational_integrals(ExactPoly(coeffs), q, 2).obstructions) == 2
    assert time.perf_counter() - start < 1


# -- lambda2 ladder ------------------------------------------------------------------


def test_ladder_trivial_index():
    assert lambda2_ladder(0) == (ONE, ONE)


def test_ladder_printed_tables():
    p1, q1 = lambda2_ladder(1, {1: 1})
    assert (p1, q1) == (Z ** 5 + 1, Z)
    _, q2 = lambda2_ladder(2, LadderState(2, t={1: 1}))
    assert q2 == Z ** 5 - 4
    pm2, _ = lambda2_ladder(-2, LadderState(-2, tau={-1: 1}))
    assert pm2 == Z ** 8 + F(28, 5) * Z ** 6 + 14 * Z ** 4 + 28 * Z ** 2 - 7


def test_ladder_formulas_random_bindings():
    rng = random.Random(404)
    for _ in range(5):
        t1, tau2 = rational(rng), rational(rng)
        state = LadderState(2, t={1: t1}, tau={2: tau2})
        p1, q1 = lambda2_ladder(1, state)
        assert p1 == ladder_p1_formula(t1) and q1 == Z
        _, q2 = lambda2_ladder(2, state)
        assert q2 == ladder_q2_formula(t1, tau2)

        tau1, taum2, tm2 = rational(rng), rational(rng), rational(rng)
        state = LadderState(-2, t={-2: tm2}, tau={-1: tau1, -2: taum2})
        pm1, qm1 = lambda2_ladder(-1, state)
        assert pm1 == Z and qm1 == ladder_qm1_formula(tau1)
        pm2, qm2 = lambda2_ladder(-2, state)
        assert pm2 == ladder_pm2_formula(tau1, tm2)
        assert qm2 == ladder_qm2_formula(tau1, taum2, tm2)


def test_ladder_degree_law(ladder_chain):
    for i, (p, q) in ladder_chain.items():
        assert p.degree == i * (3 * i + 2) or (i == 0 and p.degree == 0)
        assert q.degree == i * (3 * i - 1) // 2 or (i == 0 and q.degree == 0)


def test_ladder_degenerate_constants_still_close():
    # all-zero constants collapse to pure powers but keep degrees and brackets;
    # their steps divide by non-squarefree denominators (general integration)
    for i in (-3, -1, 2, 3):
        p, q = lambda2_ladder(i)
        assert p == ExactPoly.monomial(i * (3 * i + 2))
        assert q == ExactPoly.monomial(i * (3 * i - 1) // 2)
        assert bracket(p, q, BracketParams(2)).is_zero
    for n in range(2, 7):
        assert adler_moser(n) == ExactPoly.monomial(n * (n + 1) // 2)
    # t_2 = 0 leaves theta_2 = z^3, the denominator of the theta_4 step
    theta4, theta5 = adler_moser(4, {4: F(5, 3)}), adler_moser(5, {4: F(5, 3)})
    assert theta4 == Z ** 10 + F(5, 3) * Z ** 3
    assert theta5.degree == 15 and theta5.lead == 1
    assert bracket(theta4, theta5, BracketParams(1)).is_zero


def test_ladder_bracket_identities(ladder_chain):
    for i in range(-4, 4):
        p_i, q_i = ladder_chain[i]
        _, q_next = ladder_chain[i + 1]
        assert bracket(p_i, q_i, BracketParams(2)).is_zero
        assert bracket(p_i, q_next, BracketParams(2)).is_zero


def test_ladder_pairs_squarefree_coprime(ladder_chain):
    for i in range(-4, 5):
        p, q = ladder_chain[i]
        assert is_squarefree(p) and is_squarefree(q)
        assert gcd_poly(p, q).degree == 0


def reference_step(den, coef, num, constant):
    """den * (coef * I(num/den^2) + constant) through the general rational
    integration, with I = P + C/den normalised by P(0) = 0, deg C < deg den."""
    red = integrate_rational(num, den * den)
    assert red.log_free
    rational = red.rational_numerator * exact_div(den, red.rational_denominator)
    return coef * (red.poly_antideriv * den + rational) + constant * den


def test_ladder_steps_match_general_integration():
    # every step's integration constant sits where the recurrences put it,
    # including steps whose denominator is not centred (tau_1 != 0)
    rng = random.Random(77)
    for i in (3, -3):
        state = LadderState(i, {s: nonzero_rational(rng) for s in range(-4, 5)},
                            {s: nonzero_rational(rng) for s in range(-4, 5)})
        p, q = ONE, ONE
        for j in range(1, i + 1):
            q = reference_step(q, 3 * j - 2, p, state.tau_at(j))
            p = reference_step(p, 6 * j - 1, q ** 4, state.t_at(j))
        for j in range(0, i, -1):
            p_new = reference_step(p, 1 - 6 * j, q ** 4, state.t_at(j - 1))
            q = reference_step(q, 2 - 3 * j, p_new, state.tau_at(j - 1))
            p = p_new
        assert lambda2_ladder(i, state) == (p, q)
    constants = {m: nonzero_rational(rng) for m in range(2, 7)}
    prev, cur = ONE, Z
    for m in range(1, 6):
        prev, cur = cur, reference_step(prev, 2 * m + 1, cur * cur, constants[m + 1])
    assert adler_moser(6, constants) == cur


def test_ladder_reach_six_in_time():
    # the pairs i = 6 (degrees 120, 51) and i = -6 (96, 57) are generated and
    # certified rational well within 10 s: a regression gate on the exact steps
    rng = random.Random(6)
    start = time.perf_counter()
    for i in (6, -6):
        p, q = lambda2_ladder(i, random_ladder_state(rng, i))
        cert = certify_rational_integrals(p, q, 2)
        assert cert.bracket_zero and cert.rational
    assert time.perf_counter() - start < 10


# -- admissible degrees -----------------------------------------------------------


def test_admissible_degree_examples():
    assert admissible_degrees(5, 1)
    assert admissible_degrees(16, 5)
    assert not admissible_degrees(3, 1)


def test_admissible_matches_degree_sequences():
    for i in range(-6, 7):
        n = i * (3 * i + 2)
        m_low = i * (3 * i - 1) // 2
        m_high = (i + 1) * (3 * (i + 1) - 1) // 2
        assert admissible_degrees(n, m_low)
        assert admissible_degrees(n, m_high)


def test_admissible_rejects_random_other_pairs():
    good = set()
    for i in range(-20, 21):
        n = i * (3 * i + 2)
        good.add((n, i * (3 * i - 1) // 2))
        good.add((n, (i + 1) * (3 * (i + 1) - 1) // 2))
    rng = random.Random(3)
    rejected = 0
    while rejected < 100:
        pair = (rng.randint(0, 60), rng.randint(0, 30))
        if pair in good:
            continue
        assert not admissible_degrees(*pair)
        rejected += 1


# -- certificates ------------------------------------------------------------------


def antiderivative_differentiates_back(anti, num, den):
    """d/dz(poly + C/den) == num/den^2, cross-multiplied."""
    s, c = anti.polynomial_part, anti.rational_numerator
    lhs = s.derivative() * den * den + c.derivative() * den - c * den.derivative()
    return lhs == num


def test_certificate_quintic_pair():
    cert = certify_rational_integrals(Z ** 5 + 1, Z, 2)
    assert cert.bracket_zero and cert.rational
    by_label = {a.label: a for a in cert.antiderivatives}
    quartic = by_label["q^4/p^2"]
    assert quartic.polynomial_part.is_zero
    assert quartic.rational_numerator == ExactPoly.constant(F(-1, 5))
    assert antiderivative_differentiates_back(quartic, Z ** 4, Z ** 5 + 1)
    linear = by_label["p^1/q^2"]
    assert linear.polynomial_part == Z ** 4 / 4
    assert linear.rational_numerator == ExactPoly.constant(-1)
    assert antiderivative_differentiates_back(linear, Z ** 5 + 1, Z)


def test_certificate_adler_moser_pair():
    cert = certify_rational_integrals(Z, Z ** 3 + 1, 1)
    assert cert.rational
    for anti in cert.antiderivatives:
        num = (Z ** 3 + 1) ** 2 if anti.label.startswith("q") else Z ** 2
        den = Z if anti.label.startswith("q") else Z ** 3 + 1
        assert antiderivative_differentiates_back(anti, num, den)


def test_certificate_obstruction():
    cert = certify_rational_integrals(Z ** 2 - 1, Z, 1)
    assert not cert.bracket_zero and not cert.rational
    assert cert.obstructions


def test_obstructed_certificate_decides_each_fact_once(ladder_chain, monkeypatch):
    # the i=3 pair with one coefficient of p scaled by 4/3 obstructs both
    # sides: one Euclid mod p each for p and q squarefree and coprime, then
    # one batch of lanes in each side's modular inverse, which also decides
    # that side's denominator squarefree
    p, q = ladder_chain[3]
    coeffs = list(p.coeffs)
    coeffs[10] *= F(4, 3)
    euclid, lanes, calls, batches = polyrat._euclid_mod, polyrat._euclid_lanes, [], []
    monkeypatch.setattr(polyrat, "_euclid_mod",
                        lambda a, b, prime: calls.append((len(a) - 1, len(b) - 1)) or euclid(a, b, prime))
    monkeypatch.setattr(polyrat, "_euclid_lanes",
                        lambda m, a, primes: batches.append((m.shape[1] - 1, a.shape[1] - 1))
                        or lanes(m, a, primes))
    cert = certify_rational_integrals(ExactPoly(coeffs), q, 2)
    assert len(cert.obstructions) == 2
    assert calls == [(33, 32), (12, 11), (33, 12)]
    assert batches == [(33, 32), (12, 11)]


def test_certificate_unsupported_lambda():
    with pytest.raises(UnsupportedLambda):
        certify_rational_integrals(Z ** 5 + 1, Z, 3)


def test_certificate_preconditions():
    with pytest.raises(NotSquarefree):
        certify_rational_integrals(Z ** 2, Z + 1, 2)
    with pytest.raises(NotCoprime):
        certify_rational_integrals(Z ** 2 - 1, Z - 1, 2)


def test_certificates_on_whole_chain(ladder_chain, adler_moser_chain):
    for i in range(-3, 4):
        p, q = ladder_chain[i]
        if q.degree < 1 and p.degree < 1:
            continue
        cert = certify_rational_integrals(p, q, 2)
        assert cert.bracket_zero and cert.rational
    for n in range(1, 6):
        cert = certify_rational_integrals(adler_moser_chain[n], adler_moser_chain[n + 1], 1)
        assert cert.bracket_zero and cert.rational


def test_certificate_json_shape():
    cert = certify_rational_integrals(Z ** 5 + 1, Z, 2)
    blob = cert.to_json()
    assert blob["bracket_zero"] is True
    assert blob["lambda"] == "2"
    assert len(blob["antiderivatives"]) == 2
    assert blob["obstructions"] == []

from fractions import Fraction as F

import pytest

from charge_ladder.generators import BracketParams, bracket
from charge_ladder.polyrat import ExactPoly, NotSquarefree
from charge_ladder.spectral import (
    FieldPair,
    FieldRequired,
    ba_lambda1,
    bilinear_field_check,
    find_parameter_weight,
    is_weight_homogeneous,
    scale_substitute,
    solve_p_given_q,
)

Z = ExactPoly.x()
ONE = ExactPoly.one()


def paper_p2_formula(t):
    """Closed form of the degree-6 field partner of q = z^3 + t z^2 + ((t^2+6)/3) z."""
    t = F(t)
    return ExactPoly([
        48 - 18 * t + 10 * t ** 2 - 3 * t ** 3 + F(1, 3) * t ** 4,
        -48 + 66 * t - 28 * t ** 2 + 5 * t ** 3 - F(1, 3) * t ** 4,
        112 - 90 * t + F(76, 3) * t ** 2 - 3 * t ** 3 + F(1, 9) * t ** 4,
        -96 + 52 * t - 10 * t ** 2 + F(2, 3) * t ** 3,
        40 - 15 * t + F(5, 3) * t ** 2,
        -9 + 2 * t,
        1,
    ])


def q2_family(t):
    t = F(t)
    return Z ** 3 + t * Z ** 2 + ((t * t + 6) / 3) * Z


# -- exponential-column Wronskian pairs --------------------------------------------


def test_ba_trivial():
    pair = ba_lambda1(0, 1)
    assert pair.p == ONE and pair.q == ONE


def test_ba_first_pair_any_k():
    for k in (F(1), F(2), F(-3, 7)):
        pair = ba_lambda1(1, k)
        assert pair.p == k * Z - 1
        assert pair.q == Z
        assert bilinear_field_check(pair).is_zero


def test_ba_second_pair_bracket():
    pair = ba_lambda1(2, 1)
    assert bilinear_field_check(pair).is_zero


def test_ba_bracket_zero_through_n4():
    constants = [(F(1, 3), 1), (0, F(-2, 5)), (1, 1)]
    for n in range(5):
        for k in (F(1), F(2), F(1, 2)):
            pair = ba_lambda1(n, k, constants)
            assert bilinear_field_check(pair).is_zero


def test_ba_requires_field():
    with pytest.raises(FieldRequired):
        ba_lambda1(2, 0)


def test_field_check_detects_non_solution():
    assert not bilinear_field_check(FieldPair(Z, Z, 1, 1)).is_zero


# -- dense reference for the field solve -----------------------------------------------


def gauss_reference(q, lam, k):
    """solve_p_given_q the long way: every coefficient of
    bracket(z^n + sum_j x_j z^j, q) as one dense row in x_0..x_{n-1},
    Gauss-Jordan over Fraction.  Returns (status, p, rank)."""
    lam, k = F(lam), F(k)
    n, m = int(lam * q.degree), int(q.degree)
    cols = [bracket(ExactPoly.monomial(j), q, BracketParams(lam, k)) for j in range(n + 1)]
    rows = [[cols[j].coeff(d) for j in range(n)] + [-cols[n].coeff(d)] for d in range(n + m + 1)]
    pivots = []
    for c in range(n):
        top = len(pivots)
        r = next((i for i in range(top, len(rows)) if rows[i][c]), None)
        if r is None:
            continue
        rows[top], rows[r] = rows[r], rows[top]
        row = rows[top] = [v / rows[top][c] for v in rows[top]]
        for i, other in enumerate(rows):
            if i != top and other[c]:
                rows[i] = [v - other[c] * w for v, w in zip(other, row)]
        pivots.append(c)
    if any(row[n] for row in rows[len(pivots):]):
        return "incompatible", None, len(pivots)
    x = [F(0)] * n
    for i, c in enumerate(pivots):
        x[c] = rows[i][n]
    return "solved", ExactPoly(x + [1]), len(pivots)


def assert_matches_reference(q, lam=2, k=1):
    report = solve_p_given_q(q, lam, k)
    status, p, rank = gauss_reference(q, lam, k)
    assert (report.status, report.rank, report.free_parameters) == (status, rank, 0)
    assert rank == lam * q.degree
    assert (report.pair.p if report.pair else None) == p
    return report


def test_solve_matches_reference_on_exponential_column_pairs():
    psi = [(F(1, 3), 1), (0, F(-2, 5)), (1, 1), (F(-1, 2), F(2, 3)), (2, F(1, 7))]
    for n in range(2, 7):
        for k in (F(1), F(3, 2)):
            pair = ba_lambda1(n, k, psi)
            report = assert_matches_reference(pair.q.monic(), 1, k)
            assert report.solved and report.pair.p == pair.p.monic()


def test_solve_matches_reference_on_q2_family():
    for t in (-2, 0, F(1, 3), F(7, 3)):
        assert assert_matches_reference(q2_family(t)).pair.p == paper_p2_formula(t)


def test_solve_matches_reference_on_incompatible_q():
    for q in (Z ** 2 + 1, Z ** 3 + Z ** 2 + Z, Z ** 3 - 2 * Z + 5):
        assert assert_matches_reference(q).status == "incompatible"
    assert assert_matches_reference(Z ** 2 + 1, 1, F(3, 2)).status == "incompatible"


# -- field equation solver -------------------------------------------------------------


def test_solve_simplest_field_pair():
    report = solve_p_given_q(Z)
    assert report.solved
    assert report.pair.p == Z ** 2 - 3 * Z + 3
    assert report.free_parameters == 0


def test_solve_reproduces_degree_six_partner():
    for t in (0, 1, -2):
        report = solve_p_given_q(q2_family(t))
        assert report.solved
        assert report.pair.p == paper_p2_formula(t)


def test_solve_detects_incompatible_cubic():
    report = solve_p_given_q(Z ** 3 + Z ** 2 + Z)
    assert report.status == "incompatible"
    assert report.pair is None


def test_solve_family_bracket_zero_many_parameters():
    for t in (-2, -1, 0, 1, 2, F(1, 3)):
        report = solve_p_given_q(q2_family(t))
        assert report.solved
        pair = report.pair
        assert bracket(pair.p, pair.q, BracketParams(2, 1)).is_zero
        assert pair.p.degree == 2 * pair.q.degree


def test_solve_respects_total_charge_degree():
    report = solve_p_given_q(Z, lam=1, k=1)
    assert report.solved
    assert report.pair.p.degree == report.pair.q.degree


def test_solve_requires_monic_squarefree_q():
    with pytest.raises(ValueError):
        solve_p_given_q(2 * Z)
    with pytest.raises(NotSquarefree):
        solve_p_given_q(Z ** 2)
    with pytest.raises(FieldRequired):
        solve_p_given_q(Z, k=0)


def test_solve_report_json():
    blob = solve_p_given_q(Z).to_json()
    assert blob["status"] == "solved"
    assert blob["p"]["coeffs"] == ["3", "-3", "1"]
    blob = solve_p_given_q(Z ** 3 + Z ** 2 + Z).to_json()
    assert blob["status"] == "incompatible" and blob["p"] is None


# -- scaling -----------------------------------------------------------------------------


def test_scale_substitute_forward():
    pair = FieldPair(Z ** 2 - 3 * Z + 3, Z, 1, 2)
    scaled = scale_substitute(pair, 2)
    assert scaled.p == 4 * Z ** 2 - 6 * Z + 3
    assert scaled.q == 2 * Z
    assert bilinear_field_check(scaled).is_zero


def test_scale_substitute_identity():
    pair = FieldPair(Z ** 2 - 3 * Z + 3, Z, 1, 2)
    again = scale_substitute(pair, 1)
    assert again.p == pair.p and again.q == pair.q


def test_scale_substitute_normalizes_first_pair():
    k = F(5, 2)
    pair = ba_lambda1(1, k)
    back = scale_substitute(pair, 1)
    assert back.p == Z - 1
    # q is only defined up to constant scale; substitution returns z/k
    assert back.q == Z / k
    assert bilinear_field_check(back).is_zero


def test_scale_substitute_group_action():
    pair = solve_p_given_q(q2_family(1)).pair
    round_trip = scale_substitute(scale_substitute(pair, F(7, 3)), pair.k)
    assert round_trip.p == pair.p and round_trip.q == pair.q


def test_scale_substitute_requires_field():
    with pytest.raises(FieldRequired):
        scale_substitute(FieldPair(Z, Z, 0, 2), 1)
    with pytest.raises(FieldRequired):
        scale_substitute(FieldPair(Z, Z, 1, 2), 0)


# -- weight homogeneity search ---------------------------------------------------------


def test_weight_search_finds_adler_moser_weight():
    family = lambda t: Z ** 3 + ExactPoly.constant(t)
    assert is_weight_homogeneous(family, 3)
    assert find_parameter_weight(family) == 3


def test_weight_search_rejects_field_families():
    # Neither q nor its degree-6 partner admits a parameter weight, with or
    # without a preliminary translation of z.
    p_family = lambda t: solve_p_given_q(q2_family(t)).pair.p
    assert find_parameter_weight(q2_family) is None
    assert find_parameter_weight(p_family) is None
    for shift in (F(1), F(-1), F(1, 2)):
        shifted_q = lambda t: q2_family(t).compose_linear(1, shift)
        shifted_p = lambda t: p_family(t).compose_linear(1, shift)
        assert find_parameter_weight(shifted_q) is None
        assert find_parameter_weight(shifted_p) is None

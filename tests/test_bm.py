import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from cmint.bm import (
    bm_full,
    bm_p_definition,
    bm_p_product,
    bm_report,
    intersection_number,
    report_json_obj,
    support_primes,
)
from cmint.cmfield import build_cm_field
from cmint.errors import InputError
from cmint.localdensity import LocalFactorInput, b_l_factor
from cmint.numutil import is_prime, is_squarefree, ord_p, prime_factors
from cmint.quadfield import QuadElem, QuadField
from cmint.selfcheck import enumerate_fields, sample_vanishing_fields
from cmint.tmatrix import mu_candidates, t_matrix

F5 = QuadField(5)


def field41():
    return build_cm_field(5, QuadElem(F5, -13, 1, 2))


def cyclotomic():
    return build_cm_field(5, QuadElem(F5, -5, -1, 2))


def test_worked_instance():
    f = field41()
    rep = bm_report(f, 1)
    assert [(e.p, e.b, e.route_a, e.route_b) for e in rep.entries] == [(2, 2, 2, 2)]
    assert rep.entries[0].per_n == ((-1, 2),)
    assert rep.flags == ()
    assert bm_full(f, 1).as_dict() == {2: Fraction(2)}
    assert intersection_number(f, 1).as_dict() == {2: Fraction(1)}
    assert bm_p_definition(f, 1, 2) == 2
    assert bm_p_product(f, 1, 2) == 2
    assert bm_p_definition(f, 1, 3) == 0


def test_report_json_shape():
    obj = report_json_obj(bm_report(field41(), 1))
    assert obj["D"] == 5 and obj["m"] == 1 and obj["mode"] == "strict"
    assert obj["delta"] == {"x": -13, "y": 1, "den": 2}
    assert obj["entries"] == [
        {"p": 2, "b": 2, "route_a": 2, "route_b": 2, "per_n": [{"n": -1, "term": 2}]}
    ]
    assert obj["flags"] == []


def test_product_route_guards():
    f = field41()
    assert bm_p_product(f, 12, 7) is None  # m not squarefree
    assert bm_p_product(f, 2, 7) is None  # shares a factor with 2DD̃
    assert bm_p_product(f, 41, 7) is None
    assert bm_p_product(f, 3, 3) is None  # p | m
    with pytest.raises(InputError):
        bm_p_product(f, 0, 2)
    with pytest.raises(InputError):
        bm_p_definition(f, 1, 4)


def test_cyclotomic_values():
    z = cyclotomic()
    for m in (1, 2, 3):
        assert bm_full(z, m).is_zero()
    assert bm_full(z, 4).as_dict() == {2: Fraction(4)}
    assert bm_full(z, 5).as_dict() == {5: Fraction(2)}
    assert bm_full(z, 6).as_dict() == {2: Fraction(8), 3: Fraction(4)}
    rep = bm_report(z, 7)
    assert [(e.p, e.b, e.route_b) for e in rep.entries] == [(11, 0, 0)]


def test_deep_product_cases_agree():
    z = cyclotomic()
    # m = 33 exercises the split-completely factor 4 (Q = 121 at n = 55),
    # m = 143 the positive-exponent split case (Q = 11³ at n = 275)
    for m in (33, 143):
        for e in bm_report(z, m).entries:
            if e.route_b is not None:
                assert e.route_b == e.route_a
    f61 = build_cm_field(5, QuadElem(F5, -9, 2, 1))
    rep = bm_report(f61, 3)  # Q = 27 at n = 3: inert case with t = 1
    assert all(e.route_b in (None, e.route_a) for e in rep.entries)


def per_p_product(field, m, p):
    """b_m(p) by the product formula, rescanning every n for the one prime p."""
    m2dt = m * m * field.dtilde
    total = 0
    for n in range(1, isqrt(m2dt - 1) + 1):
        big_n = m2dt - n * n
        if big_n % (4 * field.D):
            continue
        quot = big_n // (4 * field.D)
        if quot % p:
            continue
        mu_sum = 0
        for mu in mu_candidates(field, m, n):
            T = t_matrix(field, m, n, mu)
            prod = 1
            for l in prime_factors(quot):
                t_l = ord_p(quot, l) - 2 * ord_p(m, l)
                prod *= b_l_factor(LocalFactorInput(field, T, p, l, t_l))
            mu_sum += prod
        total += (ord_p(quot, p) + 1) * mu_sum
    return total


def test_one_pass_route_matches_per_prime_loop():
    strict = [f for D in (5, 13, 17) for f in enumerate_fields(D, 500, y_max=3, mode="strict")]
    cases = [(f, m) for f in strict[::5] for m in range(1, 31)]
    z = cyclotomic()
    cases += [(z, 33), (z, 143), (build_cm_field(5, QuadElem(F5, -9, 2, 1)), 3)]
    compared = nonzero = 0
    for f, m in cases:
        if not is_squarefree(m) or gcd(m, 2 * f.D * f.dtilde) != 1:
            continue
        for p in support_primes(f, m) + (101,):
            if m % p == 0:
                assert bm_p_product(f, m, p) is None
                continue
            want = per_p_product(f, m, p)
            assert bm_p_product(f, m, p) == want, (f.D, f.delta, m, p)
            compared += 1
            nonzero += want != 0
    assert compared >= 300 and nonzero >= 100


def test_support_primes():
    f = field41()
    assert support_primes(f, 1) == (2,)
    assert support_primes(f, 2) == (2, 5)
    assert support_primes(f, 3) == (2, 3, 5)
    z = cyclotomic()
    assert support_primes(z, 3) == ()
    assert support_primes(z, 7) == (11,)
    with pytest.raises(InputError):
        support_primes(f, 0)


def test_nonzero_needs_support():
    rng = random.Random(23)
    for f in enumerate_fields(5, 150) + enumerate_fields(13, 300):
        for m in rng.sample(range(1, 12), 4):
            sup = set(support_primes(f, m))
            combo = bm_full(f, m)
            assert set(combo.support) <= sup
            for p in sorted(sup):
                assert bm_p_definition(f, m, p) == int(combo.coeff(p))


def test_vanishing_range():
    for f in sample_vanishing_fields(60, seed=29):
        m = 1
        while m * m * f.dtilde <= 4 * f.D:
            assert bm_full(f, m).is_zero(), (f.D, f.delta, m)
            m += 1


def test_route_agreement_sweep():
    for D in (5, 13):
        for f in enumerate_fields(D, 200, y_max=2):
            for m in range(1, 14):
                if not is_squarefree(m) or gcd(m, 2 * D * f.dtilde) != 1:
                    continue
                rep = bm_report(f, m)  # raises on any disagreement
                for e in rep.entries:
                    if gcd(m, e.p) == 1:
                        assert e.route_b is not None


def test_no_dual_membership_flags_in_strict_sweep():
    for f in enumerate_fields(5, 200, y_max=2):
        for m in range(1, 10):
            assert bm_report(f, m).flags == ()


def test_permissive_field_values():
    f = build_cm_field(5, QuadElem(F5, -25, -3, 2), mode="permissive")
    assert f.dtilde == 145
    rep = bm_report(f, 1)
    assert [(e.p, e.b, e.route_b) for e in rep.entries] == [(2, 4, 4), (3, 4, 4)]
    assert intersection_number(f, 1).as_dict() == {2: Fraction(2), 3: Fraction(2)}

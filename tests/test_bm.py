import dataclasses
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from cmint import bm
from cmint.bm import (
    _admissible_n,
    _route_a,
    _RouteA,
    _split_ord,
    bm_full,
    bm_p_definition,
    bm_p_product,
    bm_report,
    intersection_number,
    report_json_obj,
    support_primes,
)
from cmint.cmfield import build_cm_field, classify_in_reflex_cm, rho
from cmint.errors import InputError
from cmint.localdensity import LocalFactorInput, b_l_factor
from cmint.numutil import is_prime, is_squarefree, ord_p, prime_factors, primes_up_to
from cmint.padic import hensel_sqrt
from cmint.quadfield import QuadElem, QuadField, ord_at, splitting
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
            coeffs = combo.as_dict()
            assert set(coeffs) <= sup
            for p in sorted(sup):
                assert bm_p_definition(f, m, p) == int(coeffs.get(p, 0))


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


def per_spot_route_a(field, m):
    """Route A spot by spot: every signed n, ord_at at every spot, cmfield.rho."""
    D, Ft = field.D, field.reflex
    rel = dict(field.rel_diff)
    rel_primes = {s.l for s in rel}
    dyadic_relaxed = 2 in rel_primes
    m2dt = m * m * field.dtilde
    nmax = isqrt(m2dt - 1)
    totals, per_n, passing = {}, [], {}
    for n in range(-nmax, nmax + 1):
        big_n = m2dt - n * n
        if big_n % (D if dyadic_relaxed else 4 * D):
            continue
        e = QuadElem(Ft, n, m, 1)
        vec = {}
        ok = True
        for l in sorted(set(prime_factors(big_n)) | {2, D} | rel_primes):
            for spot in splitting(Ft, l):
                exp = ord_at(e, spot) - ord_p(2 * D, l) * spot.e + rel.get(spot, 0)
                if exp < 0:
                    ok = False
                    break
                if exp:
                    vec[spot] = exp
            if not ok:
                break
        if not ok:
            continue
        if n:
            passing.setdefault(abs(n), set()).add(1 if n > 0 else -1)
        for spot, exp in vec.items():
            if classify_in_reflex_cm(field, spot) == "split":
                continue
            adj = dict(vec)
            adj[spot] = exp - 1
            r = rho(field, tuple(adj.items()))
            if r == 0:
                continue
            term = (exp - rel.get(spot, 0) + 1) * r * spot.f
            totals[spot.l] = totals.get(spot.l, 0) + term
            per_n.append((spot.l, n, term))
    flags = tuple(
        f"dual-membership:|n|={k}" for k in sorted(passing) if k % D and len(passing[k]) == 2
    )
    return _RouteA(tuple(sorted(totals.items())), tuple(per_n), flags, dyadic_relaxed)


def shared_split_factors(field, m):
    """Count the (n, l) of the scan with l an odd prime split in F̃ dividing n and m."""
    count = 0
    m2dt = m * m * field.dtilde
    nmax = isqrt(m2dt - 1)
    for n in _admissible_n(m2dt, 4 * field.D, -nmax, nmax):
        for l in prime_factors(gcd(n, m)):
            if l > 2 and splitting(field.reflex, l)[0].kind == "split":
                count += 1
    return count


def test_route_a_matches_per_spot_scan():
    strict = [f for D in (5, 13, 17) for f in enumerate_fields(D, 500, y_max=3, mode="strict")]
    fields = strict[::5]
    assert any(f.dtilde % 8 == 1 for f in fields)  # split spots over 2
    fields.append(build_cm_field(5, QuadElem(F5, -25, -3, 2), mode="permissive"))
    assert fields[-1].dtilde == 145
    shared = nonzero = 0
    for f in fields:
        for m in range(1, 31):
            want = per_spot_route_a(f, m)
            assert _route_a(f, m) == want, (f.D, f.delta, f.mode, m)
            nonzero += bool(want.totals)
            shared += shared_split_factors(f, m)
    assert nonzero >= 150 and shared >= 1000


def test_route_a_matches_per_spot_scan_with_dyadic_different():
    # no enumerated field has a dyadic entry in its different, so one is added by
    # hand: route A then keeps every n with D | m²D̃ − n² and reads v_2 from the
    # exponents of N/D
    strict = [f for D in (5, 13, 17) for f in enumerate_fields(D, 500, y_max=3, mode="strict")]
    bases = [next(f for f in strict if f.dtilde % 8 == r) for r in (1, 5)]  # 2 split, 2 inert
    checked = dyadic_terms = 0
    for f in bases:
        for spot in splitting(f.reflex, 2):
            for e in (1, 2):
                g = dataclasses.replace(f, rel_diff=f.rel_diff + ((spot, e),))
                for m in range(1, 13):
                    want = per_spot_route_a(g, m)
                    assert want.dyadic_relaxed
                    assert _route_a(g, m) == want, (f.D, f.delta, spot, e, m)
                    checked += 1
                    dyadic_terms += sum(p == 2 for p, _, _ in want.per_n)
    assert checked == 72 and dyadic_terms >= 20


def test_split_ord_matches_ord_at():
    rng = random.Random(41)
    checked = shared = zero_n = deep = 0
    for dt in (5, 13, 17, 41, 145, 389, 409, 421):
        F = QuadField(dt)
        for l in primes_up_to(101)[1:]:
            spots = splitting(F, l)
            if spots[0].kind != "split":
                continue
            root = hensel_sqrt(dt, l, 3)
            for _ in range(12):
                m = rng.randint(1, 300) * l ** rng.randint(0, 2)
                shape = rng.randrange(3)
                if shape == 0:
                    n = rng.randint(-300, 300) * l ** rng.randint(0, 3)
                elif shape == 1:
                    n = (m * root) % l**3 + l**3 * rng.randint(-5, 5)  # l³ | N
                else:
                    n = 0
                vl = ord_p(m * m * dt - n * n, l)
                for spot in spots:
                    got = _split_ord(n, m, spot, vl, ord_p(m, l))
                    assert got == ord_at(QuadElem(F, n, m, 1), spot), (dt, l, n, m, spot)
                    checked += 1
                shared += n % l == 0 and m % l == 0
                zero_n += n == 0
                deep += vl >= 3
    assert checked >= 1000 and shared >= 50 and zero_n >= 20 and deep >= 50


def test_admissible_n_matches_filter():
    rng = random.Random(43)
    for _ in range(400):
        div = rng.choice((1, 2, 5, 13, 20, 52, 68, 4 * 389, 4 * 1009))
        m2dt = rng.randint(1, 10**7)
        lo = rng.randint(-3000, 3000)
        hi = lo + rng.randint(-2, 6000)
        want = [n for n in range(lo, hi + 1) if (m2dt - n * n) % div == 0]
        assert _admissible_n(m2dt, div, lo, hi) == want, (m2dt, div, lo, hi)


def code_names(code):
    """Global and attribute names a code object and its nested code objects use."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= code_names(const)
    return names


def test_routes_stay_independent():
    # the routes cross-check each other only while neither calls into the other's machinery
    a = code_names(bm._route_a.__wrapped__.__code__)
    assert not a & {"_route_b", "b_l_factors", "admissible_matrices", "t_matrix", "alpha_l"}
    b = code_names(bm._route_b.__wrapped__.__code__)
    assert not b & {"_route_a", "ord_at", "rho", "splitting"}

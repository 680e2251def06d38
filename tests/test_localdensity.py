import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from cmint import bm, localdensity
from cmint.bm import _factor_table, _route_b
from cmint.cmfield import build_cm_field
from cmint.errors import InputError, InternalConsistencyError
from cmint.localdensity import b_l_factors
from cmint.numutil import is_squarefree, kronecker, ord_p, prime_factors, primes_up_to
from cmint.quadfield import QuadElem, QuadField
from cmint.selfcheck import cyclotomic_field, sweep_fields, worked_field
from cmint.tmatrix import TMatrix, admissible_matrices, t_matrix
from padic_reference import hilbert
from whittaker import alpha_l, beta_l_factor

F5 = QuadField(5)


def test_alpha_unit_classes():
    T = t_matrix(worked_field(), 1, 1, 1)  # [[24, -8], [-8, 3]]
    a2 = alpha_l(T, 2)
    assert a2 % 2 == 1
    assert hilbert(-a2, 2, 2) == -1  # the class of -3 mod squares
    a5 = alpha_l(T, 5)
    assert a5 % 5 != 0
    a3 = alpha_l(T, 3)
    assert a3 % 3 != 0
    # regression: the deterministic search picks these representatives
    assert (a2, a5, a3) == (3, 3, 2)


def box_alpha(T, l):
    """The first unit value of the form over x, y mod l (mod 8 for l = 2)."""
    ent = [Fraction(v, T.q) for v in T.num]
    d = lcm(*(v.denominator for v in ent))  # prime to l
    a, b, c = (int(v * d) for v in ent)
    box = 8 if l == 2 else l
    for x in range(box):
        for y in range(box):
            if x % l == 0 and y % l == 0:
                continue
            q = a * x * x + 2 * b * x * y + c * y * y  # d times the value
            if q % l:
                return q * pow(d, -1, box) % box
    return None


def test_alpha_closed_form_matches_box_search():
    rng = random.Random(1729)

    def numerator(l, s, unit):
        # s times an l-integer that is an l-unit or not, as asked
        if not unit and rng.random() < 0.2:
            return 0
        num = rng.choice([1, -1]) * rng.randint(1, 60)
        while num % l == 0:
            num += 1
        return s * num * (1 if unit else l ** rng.randint(1, 3))

    seen = {"c": 0, "a": 0, "a+2b+c": 0, "none": 0}
    for l in primes_up_to(101):
        for _ in range(24):
            ua, ub, uc = (rng.random() < 0.5 for _ in range(3))
            # a common denominator s·q0 with an l-part s that the numerators share
            s = l ** rng.randint(0, 2)
            q0 = rng.randint(1, 12)
            while q0 % l == 0:
                q0 += 1
            T = TMatrix(tuple(numerator(l, s, u) for u in (ua, ub, uc)), s * q0, 1, 1, 1)
            want = box_alpha(T, l)
            if want is None:
                with pytest.raises(InternalConsistencyError):
                    alpha_l(T, l)
                seen["none"] += 1
                continue
            assert alpha_l(T, l) == want, (T.num, T.q, l)
            seen["c" if uc else "a" if ua else "a+2b+c"] += 1
    assert min(seen.values()) >= 20, seen


def fraction_alpha(T, l):
    """The first l-unit among c, a, a + 2b + c, read off the Fraction entries."""
    a, b, c = (Fraction(v, T.q) for v in T.num)
    modulus = 8 if l == 2 else l
    u = next(v for v in (c, a, a + 2 * b + c) if v.numerator % l)
    return u.numerator * pow(u.denominator, -1, modulus) % modulus


def route_b_kernel_calls(monkeypatch, fields):
    """Each (field, T, l, t_l, kd, value) that route B hands `_local_factors` on
    `fields` at m <= 30, T rebuilt from the numerators and the admissible sign
    of the n that `_admissible_numerators` gave route B just before."""
    real_kernel, real_signs = bm._local_factors, bm._admissible_numerators
    seen = []
    f = m = n = q = signs = None

    def admissible(field, m_, n_):
        nonlocal n, q, signs
        n = n_
        q, signs = real_signs(field, m_, n_)
        return q, signs

    def kernel(a, b, c, q_, l, t_l, kd):
        value = real_kernel(a, b, c, q_, l, t_l, kd)
        assert q_ == q, (f.delta, m, n, l)
        mu = next(mu for mu, num in signs if num == (a, b, c))
        seen.append((f, TMatrix((a, b, c), q, m, n, mu), l, t_l, kd, value))
        return value

    monkeypatch.setattr(bm, "_admissible_numerators", admissible)
    monkeypatch.setattr(bm, "_local_factors", kernel)
    for f in fields:
        for m in range(1, 31):
            if is_squarefree(m) and gcd(m, 2 * f.D * f.dtilde) == 1:
                _route_b(f, m, _factor_table(m * m * f.dtilde, 4 * f.D))
    monkeypatch.undo()
    return seen


def kernel_symbol(T, l):
    """(−α | l) as `_local_factors` reads it: its value at l = p with t_l = 1
    and l ∤ m is (1 − (−α | l))/2."""
    return 1 - 2 * localdensity._local_factors(*T.num, T.q, l, 1, None)[0]


def test_route_b_alpha_matches_public_alpha(monkeypatch):
    # every (T, l) whose unit route B reads, on every fifth sweep field with m <= 30:
    # the unit is the public alpha, and route B's call is b_l_factors' on T
    seen = route_b_kernel_calls(monkeypatch, sweep_fields()[::5])
    for f, T, l, t_l, kd, value in seen:
        alpha = alpha_l(T, l)
        assert alpha == localdensity._alpha_unit(T, l) == fraction_alpha(T, l), (T, l)
        assert kernel_symbol(T, l) == kronecker(-alpha, l), (T, l)
        assert value == b_l_factors(f, T, l, t_l), (T, l)
        assert kd == (None if T.m % l else kronecker(f.D, l)) and t_l > 0, (T, l)
    assert len(seen) == 5539


def test_minus_alpha_symbol_matches_kronecker(monkeypatch):
    # one Euler's criterion on −u·q′ at odd l and u·q′ mod 8 at l = 2 give
    # (−α | l) for every (T, l) route B meets on the sweep fields, and for every
    # unit u and l-free denominator q′ mod 8 at l = 2
    seen = route_b_kernel_calls(monkeypatch, sweep_fields())
    cases = [(T, l) for _, T, l, *_ in seen]
    for u in (1, 3, 5, 7):
        for q0 in (1, 3, 5, 7):
            for s in (1, 4):  # a denominator with an l-part the numerators share
                cases.append((TMatrix((4 * s, 2 * s, u * s), q0 * s, 1, 1, 1), 2))
    for T, l in cases:
        assert kernel_symbol(T, l) == kronecker(-alpha_l(T, l), l), (T, l)
    assert {alpha_l(T, 2) for T, l in cases if l == 2} == {1, 3, 5, 7}
    assert len(seen) == 16140 and {l for _, l in cases} >= {2, 3, 5, 7, 11}


def test_local_factors_keep_their_checks():
    # the kernel route B calls keeps the checks of _alpha_unit and b_l_factors
    kernel = localdensity._local_factors
    T = t_matrix(worked_field(), 1, 1, 1)  # [[24, -8], [-8, 3]]
    assert kernel(24, -8, 3, 1, 3, 1, None) == b_l_factors(worked_field(), T, 3, 1)
    with pytest.raises(InternalConsistencyError, match="not integral at 3"):
        kernel(1, 0, 3, 3, 3, 1, None)  # a/q = 1/3
    with pytest.raises(InternalConsistencyError, match="no unit represented mod 3"):
        kernel(3, 0, 3, 1, 3, 1, None)
    with pytest.raises(InternalConsistencyError, match="no unit represented mod 8"):
        kernel(2, 1, 2, 1, 2, 1, None)
    with pytest.raises(InputError, match="nonnegative"):
        kernel(24, -8, 3, 1, 3, -1, None)
    with pytest.raises(InternalConsistencyError, match="unramified"):
        kernel(24, -8, 3, 1, 3, 1, 0)


def test_alpha_rejects():
    T = t_matrix(worked_field(), 1, 1, 1)
    with pytest.raises(InputError):
        alpha_l(T, 4)
    frac = t_matrix(cyclotomic_field(), 3, 5, 1)  # entries have denominator 3
    with pytest.raises(InputError):
        alpha_l(frac, 3)


def test_worked_local_factor():
    f = worked_field()
    T = t_matrix(f, 1, 1, 1)
    # l = p = 2, t_2 = 1: (1 − (−α, 2)^t)/2 with (−3, 2) = −1 gives 1
    assert b_l_factors(f, T, 2, 1)[0] == 1
    with pytest.raises(InputError):
        b_l_factors(f, T, 2, -1)


def test_factor_case_l_not_dividing_m():
    f = worked_field()
    # m=3, n=7: Q = 16, l = p = 2 ∤ m, t_2 = 4 even: the p-factor vanishes
    T7 = t_matrix(f, 3, 7, -1)
    assert b_l_factors(f, T7, 2, 4)[0] == 0
    # m=3, n=13: Q = 10, l = p = 2, t_2 = 1 odd
    T13 = t_matrix(f, 3, 13, 1)
    want2 = (1 - hilbert(-alpha_l(T13, 2), 2, 2)) // 2
    assert b_l_factors(f, T13, 2, 1)[0] == want2
    # same matrix, l = 5 ≠ p with t_5 = 1: t+1 for the split class, else 0
    h5 = hilbert(-alpha_l(T13, 5), 5, 5)
    want5 = 2 if h5 == 1 else 0
    assert b_l_factors(f, T13, 5, 1)[1] == want5
    # l ∤ Q·m with t_l = 0 must give 1 regardless of the class
    assert b_l_factors(f, T13, 7, 0)[1] == 1
    assert b_l_factors(f, T13, 11, 0)[1] == 1


def test_factor_cases_l_dividing_m():
    f = worked_field()
    z = cyclotomic_field()
    # t=0, l inert in the reflex field with inert spot above: factor 0
    T = t_matrix(f, 3, 3, 1)  # Q = 18, 3 | m
    assert b_l_factors(f, T, 3, 0) == (0, 0)
    # t=0, l split completely in the composite of the CM field and its reflex: 4
    for T in admissible_matrices(z, 33, 55):  # Q = 121
        assert b_l_factors(z, T, 11, 0) == (4, 4)
    # t=1, l | m and l split in the base: 0 or 2(t+2)
    for T in admissible_matrices(z, 143, 275):  # Q = 1331 = 11³
        assert b_l_factors(z, T, 11, 1) == (6, 6)
    # t=1, l | m and l inert in the base: 0 or 2
    f61 = build_cm_field(5, QuadElem(F5, -9, 2, 1))
    T = t_matrix(f61, 3, 3, 1)  # Q = 27
    assert b_l_factors(f61, T, 3, 1) == (2, 2)


def test_beta_matches_b_up_to_factor_two():
    checked = 0
    for f in (worked_field(), cyclotomic_field()):
        for q in (11, 19, 29):
            if kronecker(f.D, q) != 1 or f.dtilde % q == 0:
                continue
            m = q
            for n in range(1, isqrt(m * m * f.dtilde - 1) + 1):
                big_n = m * m * f.dtilde - n * n
                if big_n % (4 * f.D):
                    continue
                quot = big_n // (4 * f.D)
                for T in admissible_matrices(f, m, n):
                    for p in prime_factors(quot):
                        if p == q:
                            continue
                        for l in prime_factors(quot):
                            t_l = ord_p(quot, l) - 2 * ord_p(m, l)
                            b = b_l_factors(f, T, l, t_l)[0 if l == p else 1]
                            beta = beta_l_factor(f, T, q, p, l)
                            assert beta == (2 * b if l == p else b), (q, n, T.mu, p, l)
                            checked += 1
    assert checked > 200


def test_beta_guards():
    f = worked_field()
    T = t_matrix(f, 1, 1, 1)
    with pytest.raises(InputError):
        beta_l_factor(f, T, 4, 2, 2)  # m must be an odd prime split in F
    with pytest.raises(InputError):
        beta_l_factor(f, T, 3, 2, 2)  # 3 is inert in Q(√5)

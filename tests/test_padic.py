import random
from fractions import Fraction

import pytest

from cmint.errors import InputError
from cmint.numutil import prime_factors, primes_up_to
from cmint.padic import (
    hensel_sqrt,
    hilbert,
    kronecker,
    legendre,
    unit_part_mod,
    val,
)


def test_val():
    assert val(40, 2) == 3
    assert val(Fraction(3, 8), 2) == -3
    assert val(Fraction(-9, 5), 3) == 2


def test_unit_part_mod():
    assert unit_part_mod(40, 2, 8) == 5
    assert unit_part_mod(Fraction(3, 8), 2, 8) == 3
    u = unit_part_mod(Fraction(50, 3), 5, 25)
    assert (u * 3) % 25 == 2


def test_legendre_against_squares():
    for p in primes_up_to(100):
        if p == 2:
            continue
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(1, 3 * p):
            want = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert legendre(a, p) == want


def test_legendre_rejects_bad_modulus():
    with pytest.raises(InputError):
        legendre(3, 4)
    with pytest.raises(InputError):
        legendre(3, 2)


def test_kronecker_examples():
    assert kronecker(41, 2) == 1
    assert kronecker(5, 2) == -1
    assert kronecker(5, 11) == 1
    assert kronecker(13, 2) == -1
    assert kronecker(17, 2) == 1
    assert kronecker(2, 7) == 1
    assert kronecker(3, 1) == 1


def test_kronecker_matches_legendre():
    for p in primes_up_to(60):
        if p == 2:
            continue
        for a in range(-20, 40):
            want = legendre(a % p, p) if a % p else 0
            assert kronecker(a, p) == want


def test_kronecker_multiplicative():
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        n = rng.randint(1, 60)
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def _square_class_2(x):
    v = val(x, 2)
    return v % 2, unit_part_mod(x, 2, 8)


def _norm_classes_2(b):
    """Square classes of Q2* represented by x² − b·y² (the norms from Q2(√b))."""
    out = set()
    for x in range(64):
        for y in range(64):
            n = Fraction(x * x) - Fraction(b) * y * y
            if n != 0 and val(n, 2) <= 4:
                out.add(_square_class_2(n))
    return out


def test_hilbert_2adic_against_norm_groups():
    values = [1, -1, 3, -3, 5, -5, 7, -7, 2, -2, 6, -6, 10, 14, 4, 8, -4, 12, -24]
    norm_cache = {}
    for b in values:
        cb = _square_class_2(b)
        if cb not in norm_cache:
            norm_cache[cb] = _norm_classes_2(cb[1] * 2 ** cb[0])
    for a in values:
        for b in values:
            cb = _square_class_2(b)
            if cb == (0, 1):
                want = 1
            else:
                want = 1 if _square_class_2(a) in norm_cache[cb] else -1
            assert hilbert(a, b, 2) == want, (a, b)


def test_hilbert_examples():
    assert hilbert(-3, 2, 2) == -1
    assert hilbert(-1, -1, "infinity") == -1
    assert hilbert(-1, -1, 2) == -1
    assert hilbert(2, 7, 7) == 1
    assert hilbert(5, 7, 7) == -1
    assert hilbert(3, 5, 5) == -1


def test_hilbert_symmetry_and_squares():
    rng = random.Random(4)
    places = [2, 3, 5, 7, 11, "infinity"]
    for _ in range(300):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        if a == 0 or b == 0:
            continue
        for v in places:
            h = hilbert(a, b, v)
            assert h in (-1, 1)
            assert h == hilbert(b, a, v)
            assert hilbert(a * 9, b, v) == h
            assert hilbert(a, b * 4, v) == h


def test_hilbert_bimultiplicative():
    rng = random.Random(5)
    for _ in range(150):
        a1, a2, b = (rng.randint(-30, 30) for _ in range(3))
        if 0 in (a1, a2, b):
            continue
        for v in (2, 3, 5, "infinity"):
            assert hilbert(a1 * a2, b, v) == hilbert(a1, b, v) * hilbert(a2, b, v)


def test_hilbert_product_formula():
    rng = random.Random(6)
    for _ in range(500):
        a = rng.randint(-80, 80)
        b = rng.randint(-80, 80)
        if a == 0 or b == 0:
            continue
        prod = hilbert(a, b, "infinity")
        for l in {2, *prime_factors(abs(a)), *prime_factors(abs(b))}:
            prod *= hilbert(a, b, l)
        assert prod == 1, (a, b)


def test_hensel_examples():
    assert hensel_sqrt(41, 2, 5) == 13
    assert hensel_sqrt(5, 11, 1) == 4
    assert hensel_sqrt(2, 7, 1) == 3
    assert hensel_sqrt(5, 2, 3) is None
    assert hensel_sqrt(3, 5, 4) is None
    assert hensel_sqrt(1, 2, 1) == 1
    assert hensel_sqrt(1, 2, 2) == 1


def test_hensel_roundtrip_and_stability():
    for l in primes_up_to(40):
        for k in range(1, 9):
            mod = l**k
            for a in range(1, min(mod, 150)):
                if a % l == 0:
                    continue
                r = hensel_sqrt(a, l, k)
                if r is None:
                    if mod <= 2048:
                        assert all((x * x - a) % mod for x in range(mod))
                    continue
                assert 0 < r < mod
                assert (r * r - a) % mod == 0
                nxt = hensel_sqrt(a, l, k + 1)
                assert nxt is not None
                stable = mod if l % 2 else mod // 2
                assert (nxt - r) % stable == 0


def test_hensel_canonical_choice():
    # of the two square roots the one in the lower half is returned (odd l)
    assert hensel_sqrt(4, 7, 1) == 2
    assert hensel_sqrt(2, 17, 1) == 6
    # dyadic roots are odd; the construction is stable mod 2^(k-1)
    r = hensel_sqrt(17, 2, 6)
    assert r == 41 and (r * r - 17) % 64 == 0

import random
from types import SimpleNamespace

import pytest

from cmint import numutil
from cmint.numutil import (
    _strong_lucas_probable_prime,
    factorize,
    is_perfect_square,
    is_prime,
    is_squarefree,
    ord_p,
    prime_factors,
    primes_up_to,
)


def test_is_prime_matches_sieve():
    sieve = set(primes_up_to(2000))
    for n in range(2000):
        assert is_prime(n) == (n in sieve)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(3215031751)


def test_is_prime_strong_pseudoprimes_to_prime_bases():
    # ψ_12 = 399165290221 · 798330580441 passes Miller–Rabin to the bases 2..37
    assert not is_prime(318665857834031151167461)
    assert is_prime(399165290221) and is_prime(798330580441)
    # ψ_13 passes every base 2..41 and needs the strong Lucas test
    assert not is_prime(3317044064679887385961981)
    # the other ψ_k (OEIS A014233) on the way
    for psi in (2047, 1373653, 25326001, 3215031751, 2152302898747,
                3474749660383, 341550071728321, 3825123056546413051):
        assert not is_prime(psi), psi


def test_strong_lucas_pseudoprimes():
    # the odd composites passing the strong Lucas test (OEIS A217255) below 25000
    sieve = set(primes_up_to(25000))
    passed = [n for n in range(43, 25000, 2) if _strong_lucas_probable_prime(n) and n not in sieve]
    assert passed == [5459, 5777, 10877, 16109, 18971, 22499, 24569]
    assert all(_strong_lucas_probable_prime(p) for p in sieve if p > 41)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2026)
    for _ in range(4000):
        n = rng.randrange(1, 10 ** rng.randint(1, 30))
        assert is_prime(n) == sympy.isprime(n), n
    # above ψ_13 every prime must also pass the Lucas test
    for _ in range(100):
        q = sympy.nextprime(rng.randrange(10**25, 10**30))
        assert is_prime(q), q
        r = sympy.nextprime(rng.randrange(10**12, 10**15))
        assert not is_prime(q * r), (q, r)


def test_factorize_roundtrip():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(2, 10**9)
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            assert is_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == n
        assert list(fac) == sorted(fac)


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(4840) == ((2, 3), (5, 1), (11, 2))
    assert prime_factors(4840) == (2, 5, 11)


def test_squarefree():
    assert is_squarefree(1) and is_squarefree(2) and is_squarefree(30)
    assert not is_squarefree(4) and not is_squarefree(18)


def test_perfect_square():
    squares = {n * n for n in range(100)}
    for n in range(2000):
        assert is_perfect_square(n) == (n in squares)


def test_ord_p():
    assert ord_p(40, 2) == 3
    assert ord_p(40, 5) == 1
    assert ord_p(-40, 2) == 3
    assert ord_p(7, 3) == 0


def test_factorize_seeds_rho_only_for_composite_cofactors(monkeypatch):
    seeds = []

    def recording_random(seed):
        seeds.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(numutil, "random", SimpleNamespace(Random=recording_random))
    p, q = 100003, 100019  # trial division stops short of both
    assert factorize.__wrapped__(p) == ((p, 1),)
    assert factorize.__wrapped__(2 * p) == ((2, 1), (p, 1))
    assert seeds == []
    assert factorize.__wrapped__(p * q) == ((p, 1), (q, 1))
    assert seeds == [0xC0FFEE ^ (p * q)]

"""Integer helpers: primality, factorization, squarefree tests, Kronecker symbols
and square roots modulo a prime."""

from __future__ import annotations

import random
from math import gcd, isqrt

from .errors import InputError

# the largest trial divisor: `factorize` and the factor-table sieve divide out
# every prime below it and leave the rest to `pollard_factorize`
TRIAL_LIMIT = 100_000

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# ψ_k (OEIS A014233): the least odd composite that is a strong pseudoprime to
# each of the first k prime bases, so Miller–Rabin with those bases is exact
# below it. ψ_7 = ψ_8 and ψ_9 = ψ_10 = ψ_11, hence the gaps.
_PSI = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n != 0."""
    if n == 0:
        raise InputError("kronecker symbol needs n != 0")
    k = 1
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v:
        if a % 2 == 0:
            return 0
        if v % 2 and a % 8 in (3, 5):
            k = -k
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a, n = n % a, a
    return k if n == 1 else 0


def sqrts_mod_prime(a: int, l: int) -> tuple[int, ...]:
    """The square roots of a modulo the proved prime l, ascending in [0, l).

    () when a is not a square mod l, (0,) when l | a, (a % 2,) at l = 2 and
    (r, l − r) otherwise. The package's one residuosity test before a root:
    Euler's criterion, one `pow`.
    """
    a %= l
    if a == 0 or l == 2:
        return (a,)
    if pow(a, l >> 1, l) != 1:
        return ()
    r = _sqrt_mod_prime(a, l)
    return (r, l - r) if 2 * r < l else (l - r, r)


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of the unit square a modulo the odd prime p."""
    a %= p
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    if p % 8 == 5:
        r = pow(a, (p + 3) // 8, p)
        if r * r % p != a:
            r = r * pow(2, (p - 1) // 4, p) % p
        return r
    # Tonelli-Shanks for p ≡ 1 mod 8
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    """Miller–Rabin round for the odd n with n − 1 = d·2^s."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 41."""
    if isqrt(n) ** 2 == n:
        return False  # no D with (D|n) = −1 exists
    dd = 5
    while (j := kronecker(dd, n)) != -1:
        if j == 0:
            return False  # gcd(D, n) > 1 and |D| < n
        dd = -dd - 2 if dd > 0 else -dd + 2
    p, q = 1, (1 - dd) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(v: int) -> int:
        return (v + n if v % 2 else v) // 2 % n

    u, v, qk = 1, p, q % n  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(p * u + v), half(dd * u + p * v), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality, exact for every n < ψ_13 ≈ 3.3·10²⁴.

    Below ψ_13 it runs Miller–Rabin with the shortest prefix of the first 13
    prime bases that is deterministic for n. From ψ_13 on, all 13 rounds are
    followed by a strong Lucas test; the base-2 round and the Lucas test are
    the Baillie–PSW test, which no known composite passes.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True  # no prime factor up to 41
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    k = next((k for bound, k in _PSI if n < bound), len(_MR_BASES))
    if not all(_strong_probable_prime(n, a, d, s) for a in _MR_BASES[:k]):
        return False
    return n < _PSI[-1][0] or _strong_lucas_probable_prime(n)


def _pollard_rho(n: int, rng: random.Random) -> int:
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1, sorted tuple of (prime, exponent)."""
    if n < 1:
        raise ValueError(f"factorize expects a positive integer, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f, i = 7, 0
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    while f * f <= n and f < TRIAL_LIMIT:
        if n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        else:
            f += wheel[i]
            i = (i + 1) & 7
    if n > 1 and f * f > n:
        out[n] = out.get(n, 0) + 1  # no prime factor below f, so n is prime
    elif n > 1:
        out.update(pollard_factorize(n))  # its primes are all above f
    return tuple(sorted(out.items()))


def pollard_factorize(n: int) -> tuple[tuple[int, int], ...]:
    """`factorize(n)` for n > 1 by `is_prime` and Pollard rho, with no trial division."""
    out: dict[int, int] = {}
    rng = None  # seeded on first use: most cofactors are prime
    stack = [n]
    while stack:
        v = stack.pop()
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
        elif isqrt(v) ** 2 == v:
            stack += [isqrt(v)] * 2
        else:
            if rng is None:
                rng = random.Random(0xC0FFEE ^ n)
            d = _pollard_rho(v, rng)
            stack += [d, v // d]
    return tuple(sorted(out.items()))


def prime_factors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))


def is_squarefree(n: int) -> bool:
    # a prime, such as a validated D, needs no trial division
    return is_prime(n) or (n >= 1 and all(e == 1 for _, e in factorize(n)))


def is_perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def ord_p(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    if n == 0:
        raise ValueError("ord_p(0, p) is undefined")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, b in enumerate(sieve) if b]

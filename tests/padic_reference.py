"""p-adic reference code that only the tests use; pytest does not collect this module.

The package computes with integers: route B's local factors read Kronecker
symbols and the scans take square roots mod p from `numutil`. These are the
general forms the tests check them against: valuations and unit parts of
rationals, the Hilbert symbol at every place, and canonical square roots lifted
to l^k. `check_hilbert_product` and `check_hensel` test them at a given scale and
return the number of cases checked, as `cmint.selfcheck`'s checks do.
"""

import random
from fractions import Fraction

from cmint.errors import InputError, InternalConsistencyError
from cmint.numutil import _sqrt_mod_prime, is_prime, kronecker, ord_p, prime_factors, primes_up_to


def val(x: int | Fraction, l: int) -> int:
    """l-adic valuation of a nonzero rational."""
    fx = Fraction(x)
    if fx == 0:
        raise InputError("valuation of 0 is undefined")
    return ord_p(fx.numerator, l) - ord_p(fx.denominator, l)


def unit_part_mod(x: int | Fraction, l: int, modulus: int) -> int:
    """The l-unit part x·l^(-val(x)) reduced modulo `modulus` (an l-power)."""
    fx = Fraction(x)
    if fx == 0:
        raise InputError("unit part of 0 is undefined")
    num, den = fx.numerator, fx.denominator
    num //= l ** ord_p(num, l)
    den //= l ** ord_p(den, l)
    return num * pow(den, -1, modulus) % modulus


def hilbert(a: int | Fraction, b: int | Fraction, place: int | str) -> int:
    """Hilbert symbol (a, b) over the completion at `place` (a prime or "infinity")."""
    fa, fb = Fraction(a), Fraction(b)
    if fa == 0 or fb == 0:
        raise InputError("hilbert symbol needs nonzero arguments")
    if place == "infinity":
        return -1 if fa < 0 and fb < 0 else 1
    if not isinstance(place, int) or not is_prime(place):
        raise InputError(f"place must be a prime or 'infinity', got {place!r}")
    p = place
    al, be = val(fa, p), val(fb, p)
    if p == 2:
        u = unit_part_mod(fa, 2, 8)
        v = unit_part_mod(fb, 2, 8)
        exp = ((u - 1) // 2) * ((v - 1) // 2)
        exp += al * ((v * v - 1) // 8) + be * ((u * u - 1) // 8)
        return -1 if exp % 2 else 1
    u = unit_part_mod(fa, p, p)
    v = unit_part_mod(fb, p, p)
    s = -1 if (al * be * ((p - 1) // 2)) % 2 else 1
    if be % 2:
        s *= kronecker(u, p)
    if al % 2:
        s *= kronecker(v, p)
    return s


def hensel_sqrt(a: int | Fraction, l: int, k: int) -> int | None:
    """Canonical square root of the l-adic unit a modulo l^k, or None.

    Canonical means: for odd l the root reduces mod l into [1, (l-1)/2];
    for l = 2 the root is ≡ 1 mod 4 and each extra bit is pinned by testing
    squares one power of 2 beyond the target modulus (a residue mod 4 alone
    would leave the lift ambiguous). Raising k never changes lower digits.
    """
    if not is_prime(l) or k < 1:
        raise InputError(f"hensel_sqrt needs a prime l and k >= 1, got l={l}, k={k}")
    num, den = a.numerator, a.denominator
    if num % l == 0 or den % l == 0:
        raise InputError("hensel_sqrt needs an l-adic unit")
    target = 1 << (k + 1) if l == 2 else l**k
    am = num * pow(den, -1, target) % target
    if l == 2:
        if k == 1:
            return 1
        if k == 2:
            return 1 if am % 4 == 1 else None
        if am % 8 != 1:
            return None
        r = 1 if am % 16 == 1 else 5
        for j in range(3, k):
            hi = 1 << (j + 2)
            if (r * r - am) % hi:
                r += 1 << j
            if (r * r - am) % hi:
                raise InternalConsistencyError("dyadic square-root lift failed")  # pragma: no cover
        return r
    if kronecker(am, l) != 1:
        return None
    r = _sqrt_mod_prime(am, l)
    r, mod = min(r, l - r), l
    while mod < target:
        mod = min(mod * mod, target)
        r = (r + am * pow(r, -1, mod)) * pow(2, -1, mod) % mod
    return r


def check_hilbert_product(count: int, seed: int, num_max: int, den_max: int) -> int:
    """Π_v (a, b)_v = 1 over every place for `count` random pairs ±num/den."""
    rng = random.Random(seed)
    for _ in range(count):
        a, b = (
            Fraction(rng.choice((1, -1)) * rng.randint(1, num_max), rng.randint(1, den_max))
            for _ in range(2)
        )
        places = {2}
        for x in (a, b):
            places.update(prime_factors(abs(x.numerator)), prime_factors(x.denominator))
        prod = hilbert(a, b, "infinity")
        for l in places:
            prod *= hilbert(a, b, l)
        if prod != 1:
            raise InternalConsistencyError(f"product formula fails at a={a}, b={b}")
    return count


def check_hensel(l_max: int, k_max: int, a_max: int, draws: int = 0, seed: int = 0) -> int:
    """hensel_sqrt(a, l, k) for prime l <= l_max, k <= k_max and each unit a that is
    below a_max, l^k − 1 or one of `draws` random ones, and for a² mod l^k.

    A root lies in (0, l^k), squares it to a and lifts stably to l^(k+1). A missing
    root is confirmed by brute force up to l^k = 2048, else by the Kronecker symbol or mod 8;
    a² must get one. Returns the number of (a, l, k) checked.
    """
    rng = random.Random(seed)
    checked = 0
    for l in primes_up_to(l_max):
        for k in range(1, k_max + 1):
            mod = l**k
            stable = mod if l % 2 else mod // 2
            squares = {x * x % mod for x in range(mod)} if mod <= 2048 else None
            samples = {*range(1, min(mod, a_max)), mod - 1}
            samples.update(rng.randrange(1, mod) for _ in range(draws))
            for a in sorted(x for x in samples if x % l):
                for b, square in ((a, False), (a * a % mod, True)):
                    r = hensel_sqrt(b, l, k)
                    if r is None:
                        if squares is not None:
                            has_root = b in squares
                        else:
                            has_root = b % 8 == 1 if l == 2 else kronecker(b, l) == 1
                        if has_root or square:
                            raise InternalConsistencyError(f"missed root of {b} mod {l}^{k}")
                    else:
                        nxt = hensel_sqrt(b, l, k + 1)
                        bad = not 0 < r < mod or (r * r - b) % mod
                        if bad or nxt is None or (nxt - r) % stable:
                            raise InternalConsistencyError(
                                f"bad root {r} of {b} mod {l}^{k}, lifted to {nxt}"
                            )
                    checked += 1
    return checked

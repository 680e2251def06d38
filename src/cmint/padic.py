"""Exact p-adic primitives: quadratic symbols, Hilbert symbols, Hensel lifting."""

from __future__ import annotations

from .errors import InputError, InternalConsistencyError
from .numutil import is_prime, ord_p


def val(x: int | Fraction, l: int) -> int:
    """l-adic valuation of a nonzero rational."""
    from fractions import Fraction  # the scans never take rational valuations

    fx = Fraction(x)
    if fx == 0:
        raise InputError("valuation of 0 is undefined")
    return ord_p(fx.numerator, l) - ord_p(fx.denominator, l)


def unit_part_mod(x: int | Fraction, l: int, modulus: int) -> int:
    """The l-unit part x·l^(-val(x)) reduced modulo `modulus` (an l-power)."""
    from fractions import Fraction

    fx = Fraction(x)
    if fx == 0:
        raise InputError("unit part of 0 is undefined")
    num, den = fx.numerator, fx.denominator
    num //= l ** ord_p(num, l)
    den //= l ** ord_p(den, l)
    return num * pow(den, -1, modulus) % modulus


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


def hilbert(a: int | Fraction, b: int | Fraction, place: int | str) -> int:
    """Hilbert symbol (a, b) over the completion at `place` (a prime or "infinity")."""
    from fractions import Fraction

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


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of the unit residue a modulo the odd prime p."""
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

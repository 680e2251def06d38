"""Local factors of the product formula for the intersection multiplicities.

`b_l_factors` evaluates the local factor at l of one (n, μ) term of the
product-formula route for every prime p at once: p enters only through
whether l = p, so the factor is returned as the pair (value if l = p, value
if l ≠ p). It reads the Hilbert symbol (−α, l)_l of the unit α that
`_alpha_unit` finds as the Kronecker symbol (−α | l), which
`_minus_alpha_symbol` evaluates for the prime l directly.
"""

from __future__ import annotations

from .cmfield import CMFieldData, spot_kinds
from .errors import InputError, InternalConsistencyError
from .numutil import kronecker, ord_p
from .tmatrix import TMatrix


def _alpha_unit(T: TMatrix, l: int) -> int:
    """A unit α represented by the form ax² + 2bxy + cy² of T over Z_l, as a
    residue mod l (odd l) or mod 8 (l = 2). Needs a prime l and an l-integral T.

    α is the first l-unit among c, a and a + 2b + c, the values at
    (x, y) = (0, 1), (1, 0), (1, 1). That is the unit the search over x, y
    mod l (mod 8 for l = 2) would meet first: when c and a are not units,
    a + 2b + c ≡ 2b is a unit exactly when b is (odd l), and every value of
    the form is even (l = 2). With s = l^v_l(q) the l-part of the denominator
    q, the entries are the numerators over s divided by the l-unit q/s.
    """
    a, b, c = T.num
    q = T.q
    if q % l == 0:  # else s = 1
        s = l ** ord_p(q, l)
        if a % s or b % s or c % s:
            raise InternalConsistencyError(f"T is not integral at {l}")
        a, b, c, q = a // s, b // s, c // s, q // s
    modulus = 8 if l == 2 else l
    u = c if c % l else a if a % l else a + 2 * b + c
    if u % l == 0:
        raise InternalConsistencyError(f"no unit represented mod {modulus}")
    return u * pow(q, -1, modulus) % modulus


def _minus_alpha_symbol(alpha: int, l: int) -> int:
    """(−α | l) for a prime l and an l-unit α, as `_alpha_unit` returns it.

    At odd l it is Euler's criterion on −α; at l = 2 it is (α | 2), since
    −1 ≡ 7 (mod 8) has symbol 1, which is 1 exactly when α ≡ ±1 (mod 8).
    """
    if l == 2:
        return 1 if alpha % 8 in (1, 7) else -1
    return 1 if pow(-alpha, l >> 1, l) == 1 else -1


def _reflex_split_factor(field: CMFieldData, l: int) -> int:
    """The factor at l | m with t_l = 0: 4 when l splits in F̃ and every spot
    over l splits in K̃, 2 when l is inert in F̃ and its spot splits in K̃,
    else 0. The kinds come from `spot_kinds`, which keeps no memo: route (b)
    calls this once per l | m in its scan, not once per T."""
    k = kronecker(field.dtilde, l)
    if k == 0 or any(kind != "split" for _, kind, *_ in spot_kinds(field, l)):
        return 0
    return 4 if k == 1 else 2


def b_l_factors(field: CMFieldData, T: TMatrix, l: int, t_l: int) -> tuple[int, int]:
    """The local factor at l of one (n, μ) term, as (value if l = p, value if l ≠ p).

    The prime p of b_m(p) enters the factor at l only through whether l = p,
    so one call serves every p. When l | m the factor does not depend on p
    and both values agree. l must be a prime: route B passes the primes of
    (m²D̃ − n²)/4D that `factorize` returned, so l is not proved prime again.
    """
    m = T.m
    if t_l < 0:
        raise InputError("t_l must be nonnegative for a factor of the product")
    if m % l == 0 and t_l == 0:
        v = _reflex_split_factor(field, l)
        return v, v
    h = _minus_alpha_symbol(_alpha_unit(T, l), l)  # (−α, l)_l for the unit α
    if m % l:
        at_p = (1 - h) // 2 if t_l % 2 else 0
        if h == 1:
            return at_p, t_l + 1
        return at_p, 1 if t_l % 2 == 0 else 0
    kD = kronecker(field.D, l)
    if kD == 1:
        v = 0 if h == -1 else 2 * (t_l + 2)
    elif kD == -1:
        v = (2 if t_l % 2 else 0) if h == -1 else 0
    else:
        raise InternalConsistencyError("l | m must be unramified in the base field")
    return v, v

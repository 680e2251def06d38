"""Local factors of the product formula for the intersection multiplicities.

`_local_factors` evaluates the local factor at l of one (n, μ) term of the
product-formula route for every prime p at once: p enters only through
whether l = p, so the factor is returned as the pair (value if l = p, value
if l ≠ p). It reads T as its integer numerators (a, b, c) over q, and the
Hilbert symbol (−α, l)_l of the unit α that `_alpha_unit` finds as the
Kronecker symbol (−α | l), with one `pow` and no inverse of q.
`b_l_factors` is its form on a `TMatrix`.
"""

from __future__ import annotations

from .cmfield import CMFieldData, spot_kinds
from .errors import InputError, InternalConsistencyError
from .numutil import kronecker, ord_p
from .tmatrix import TMatrix


def _unit(a: int, b: int, c: int, q: int, l: int) -> tuple[int, int]:
    """(u, q′) for T = [[a, b], [b, c]]/q at a prime l: q′ is q with its l-part
    s stripped, and u, over q′, is the first l-unit among c, a and a + 2b + c,
    the numerators over s divided by s. Needs an l-integral T."""
    if q % l == 0:  # else s = 1
        s = l ** ord_p(q, l)
        if a % s or b % s or c % s:
            raise InternalConsistencyError(f"T is not integral at {l}")
        a, b, c, q = a // s, b // s, c // s, q // s
    u = c if c % l else a if a % l else a + 2 * b + c
    if u % l == 0:
        raise InternalConsistencyError(f"no unit represented mod {8 if l == 2 else l}")
    return u, q


def _alpha_unit(T: TMatrix, l: int) -> int:
    """A unit α represented by the form ax² + 2bxy + cy² of T over Z_l, as a
    residue mod l (odd l) or mod 8 (l = 2). Needs a prime l and an l-integral T.

    α is the first l-unit among c, a and a + 2b + c, the values at
    (x, y) = (0, 1), (1, 0), (1, 1). That is the unit the search over x, y
    mod l (mod 8 for l = 2) would meet first: when c and a are not units,
    a + 2b + c ≡ 2b is a unit exactly when b is (odd l), and every value of
    the form is even (l = 2). It is u/q′ for the (u, q′) of `_unit`.
    """
    u, q = _unit(*T.num, T.q, l)
    modulus = 8 if l == 2 else l
    return u * pow(q, -1, modulus) % modulus


def _reflex_split_factor(field: CMFieldData, l: int) -> int:
    """The factor at l | m with t_l = 0: 4 when l splits in F̃ and every spot
    over l splits in K̃, 2 when l is inert in F̃ and its spot splits in K̃,
    else 0. The kinds come from `spot_kinds`, which keeps no memo: route (b)
    calls this once per l | m in its scan, not once per T."""
    k = kronecker(field.dtilde, l)
    if k == 0 or any(kind != "split" for _, kind, *_ in spot_kinds(field, l)):
        return 0
    return 4 if k == 1 else 2


def _local_factors(
    a: int, b: int, c: int, q: int, l: int, t_l: int, kd: int | None
) -> tuple[int, int]:
    """The local factor at l of the T with numerators (a, b, c) over q, as
    (value if l = p, value if l ≠ p). kd is None when l ∤ m, else
    kronecker(D, l); t_l = 0 at l | m is `_reflex_split_factor`'s.

    (−α | l) for α = u/q′ (`_unit`) is (−u·q′ | l), since q′ and 1/q′ differ
    by the square q′²: Euler's criterion at odd l, one `pow`. At l = 2,
    v⁻¹ ≡ v (mod 8) for odd v, so α ≡ u·q′ (mod 8); (−α | 2) = (α | 2), as
    (−1 | 2) = 1, and it is 1 exactly when α ≡ ±1 (mod 8).
    """
    if t_l < 0:
        raise InputError("t_l must be nonnegative for a factor of the product")
    u, q = _unit(a, b, c, q, l)
    if l == 2:
        h = 1 if u * q % 8 in (1, 7) else -1
    else:
        h = 1 if pow(-u * q, l >> 1, l) == 1 else -1
    if kd is None:
        at_p = (1 - h) // 2 if t_l % 2 else 0
        if h == 1:
            return at_p, t_l + 1
        return at_p, 1 if t_l % 2 == 0 else 0
    if kd == 1:
        v = 0 if h == -1 else 2 * (t_l + 2)
    elif kd == -1:
        v = (2 if t_l % 2 else 0) if h == -1 else 0
    else:
        raise InternalConsistencyError("l | m must be unramified in the base field")
    return v, v


def b_l_factors(field: CMFieldData, T: TMatrix, l: int, t_l: int) -> tuple[int, int]:
    """The local factor at l of one (n, μ) term, as (value if l = p, value if l ≠ p).

    The prime p of b_m(p) enters the factor at l only through whether l = p,
    so one call serves every p. When l | m the factor does not depend on p
    and both values agree. l must be a prime, and is not proved prime here.
    Route B calls `_local_factors` on T's numerators itself, with kronecker(D, l)
    and the factor at t_l = 0 taken once per scan.
    """
    if T.m % l:
        return _local_factors(*T.num, T.q, l, t_l, None)
    if t_l == 0:
        v = _reflex_split_factor(field, l)
        return v, v
    return _local_factors(*T.num, T.q, l, t_l, kronecker(field.D, l))

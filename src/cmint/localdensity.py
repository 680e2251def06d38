"""Local factors of the product formula for the intersection multiplicities.

`b_l_factors` evaluates the local factor at l of one (n, μ) term of the
product-formula route for every prime p at once: p enters only through
whether l = p, so the factor is returned as the pair (value if l = p, value
if l ≠ p), and `b_l_factor` picks one of the two for a given p.
`beta_l_factor` evaluates the corresponding local Whittaker value for the
isogeny-counting variant (m = q an odd prime split in the real quadratic
base). The two are related by a factor of 2 at l = p and agree elsewhere;
tests exploit that.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cmfield import CMFieldData, classify_in_reflex_cm
from .errors import InputError, InternalConsistencyError
from .numutil import is_prime, ord_p
from .padic import hilbert, kronecker
from .quadfield import splitting
from .tmatrix import TMatrix, t_matrix


@dataclass(frozen=True)
class LocalFactorInput:
    field: CMFieldData
    T: TMatrix
    p: int
    l: int
    t_l: int


def alpha_l(T: TMatrix, l: int) -> int:
    """A unit represented by the form ax² + 2bxy + cy² over Z_l.

    Returned as a residue mod l (odd l) or mod 8 (l = 2). The entries must be
    l-integral. The representative is the first l-unit among c, a and
    a + 2b + c, the values at (x, y) = (0, 1), (1, 0), (1, 1). That is the
    unit the search over x, y mod l (mod 8 for l = 2) would meet first: when
    c and a are not units, a + 2b + c ≡ 2b is a unit exactly when b is (odd
    l), and every value of the form is even (l = 2).
    """
    if not is_prime(l):
        raise InputError(f"alpha_l needs a prime, got {l}")
    a, b, c = T.entries
    if any(v.denominator % l == 0 for v in (a, b, c)):
        raise InputError("alpha_l needs an l-integral matrix")
    modulus = 8 if l == 2 else l
    for q in (c, a, a + 2 * b + c):
        if q.numerator % l:
            return q.numerator * pow(q.denominator, -1, modulus) % modulus
    raise InternalConsistencyError(f"no unit represented mod {modulus}")


def _rescaled_alpha(field: CMFieldData, T: TMatrix, l: int) -> int:
    """alpha_l of the level-(m/l) matrix; it equals T entrywise, and the
    lower-level admissibility certificate is guaranteed structurally."""
    T1 = t_matrix(field, T.m // l, T.n // l, T.mu)
    if T1 is None:
        raise InternalConsistencyError("rescaled matrix lost admissibility")
    if T1.entries != T.entries:
        raise InternalConsistencyError("rescaled matrix changed entries")
    return alpha_l(T1, l)


def _split_completely_in_reflex_cm(field: CMFieldData, l: int) -> bool:
    if kronecker(field.dtilde, l) != 1:
        return False
    return all(
        classify_in_reflex_cm(field, s) == "split" for s in splitting(field.reflex, l)
    )


def _inert_then_split(field: CMFieldData, l: int) -> bool:
    if kronecker(field.dtilde, l) != -1:
        return False
    (spot,) = splitting(field.reflex, l)
    return classify_in_reflex_cm(field, spot) == "split"


def b_l_factors(field: CMFieldData, T: TMatrix, l: int, t_l: int) -> tuple[int, int]:
    """The local factor at l of one (n, μ) term, as (value if l = p, value if l ≠ p).

    The prime p of b_m(p) enters the factor at l only through whether l = p,
    so one call serves every p. When l | m the factor does not depend on p
    and both values agree.
    """
    m = T.m
    if t_l < 0:
        raise InputError("t_l must be nonnegative for a factor of the product")
    if m % l:
        h = hilbert(-alpha_l(T, l), l, l)
        at_p = (1 - h) // 2 if t_l % 2 else 0
        if h == 1:
            return at_p, t_l + 1
        return at_p, 1 if t_l % 2 == 0 else 0
    if t_l == 0:
        if _split_completely_in_reflex_cm(field, l):
            return 4, 4
        if _inert_then_split(field, l):
            return 2, 2
        return 0, 0
    al = _rescaled_alpha(field, T, l)
    kD = kronecker(field.D, l)
    if kD == 1:
        v = 0 if hilbert(-al, l, l) == -1 else 2 * (t_l + 2)
    elif kD == -1:
        v = (2 if t_l % 2 else 0) if hilbert(-al, l, l) == -1 else 0
    else:
        raise InternalConsistencyError("l | m must be unramified in the base field")
    return v, v


def b_l_factor(inp: LocalFactorInput) -> int:
    """The local factor at l of one (n, μ) term of the product formula."""
    at_p, off_p = b_l_factors(inp.field, inp.T, inp.l, inp.t_l)
    return at_p if inp.l == inp.p else off_p


def beta_l_factor(field: CMFieldData, T: TMatrix, q: int, p: int, l: int) -> int:
    """Local Whittaker value at l for the degree-q isogeny count (m = q)."""
    if T.m != q or not is_prime(q) or q == 2:
        raise InputError("beta factors need m = q an odd prime")
    if kronecker(field.D, q) != 1:
        raise InputError("beta factors need q split in the base field")
    if p == q or not is_prime(p):
        raise InputError("beta factors need a prime p ≠ q")
    n = T.n
    Q4 = q * q * field.dtilde - n * n
    if l != q:
        t_l = ord_p(Q4, l) - ord_p(4 * field.D, l)
        if t_l < 0:
            raise InputError("matrix is not integral enough at l for a Whittaker value")
        al = alpha_l(T, l)
        if l == p:
            h_pow = hilbert(-al, p, p) if t_l % 2 else 1
            return 1 - h_pow
        if hilbert(-al, l, l) == -1:
            return 1 if t_l % 2 == 0 else 0
        return t_l + 1
    if n % q:
        return 1
    t_q = ord_p(Q4, q) - 2
    if t_q == 0:
        if _split_completely_in_reflex_cm(field, q):
            return 4
        if _inert_then_split(field, q):
            return 2
        return 0
    if t_q < 0:
        raise InternalConsistencyError("q | n forces t_q >= 0")
    al = _rescaled_alpha(field, T, q)
    return 0 if hilbert(-al, q, q) == -1 else 2 * (t_q + 2)

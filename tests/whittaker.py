"""Local factors that only the tests use; pytest does not collect this module.

`alpha_l` is the validating form of the unit `localdensity._alpha_unit` that
route B reads. `beta_l_factor` evaluates the local Whittaker value of the
isogeny-counting variant of the product formula (m = q an odd prime split in
the real quadratic base; Lauter–Yang, arXiv:1008.1854) with the Hilbert symbol
itself. It is related to `localdensity.b_l_factors` by a factor of 2 at l = p
and agrees with it elsewhere, so comparing the two also checks that route B's
Kronecker symbol (−α | l) is the Hilbert symbol (−α, l)_l.
"""

from cmint.cmfield import CMFieldData
from cmint.errors import InputError, InternalConsistencyError
from cmint.localdensity import _alpha_unit, _reflex_split_factor
from cmint.numutil import is_prime, kronecker, ord_p
from cmint.tmatrix import TMatrix
from padic_reference import hilbert


def alpha_l(T: TMatrix, l: int) -> int:
    """`localdensity._alpha_unit`, refusing a composite l or a T that is not
    l-integral with an `InputError`."""
    if not is_prime(l):
        raise InputError(f"alpha_l needs a prime, got {l}")
    if any(v % l ** ord_p(T.q, l) for v in T.num):
        raise InputError("alpha_l needs an l-integral matrix")
    return _alpha_unit(T, l)


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
        return _reflex_split_factor(field, q)
    if t_q < 0:
        raise InternalConsistencyError("q | n forces t_q >= 0")
    return 0 if hilbert(-alpha_l(T, q), q, q) == -1 else 2 * (t_q + 2)

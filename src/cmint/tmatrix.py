"""Positive definite 2×2 matrices attached to admissible (m, n, μ) triples.

For 0 < n < m√D̃ with D | m²D̃ − n², the linear conditions

    det T = (m²D̃ − n²)/(Dm²),
    Δ  = (2μn₁ − Dc − (2b + Dc)√D)/2          (n₁ = n/m),
    −μn₁ = a + Db + (D² − D)/4 · c,

have a unique solution T = [[a, b], [b, c]]; the triple is admissible when
m·T is integral and T is positive definite. For D ∤ n exactly one sign μ is
admissible; for D | n both are.

`_admissible_numerators` finds the admissible signs of (m, n) as integer
numerators over one denominator, which route (b) reads; `t_matrix` and
`admissible_matrices` wrap them in `TMatrix`s.
"""

from __future__ import annotations

from .cmfield import CMFieldData
from .errors import InputError, InternalConsistencyError
from .frozen import Frozen


class TMatrix(Frozen):
    """T = [[a, b], [b, c]], held as the integer numerators `num` = (a, b, c)
    over the positive denominator `q`. The numerators need not be reduced."""

    __slots__ = _fields = ("num", "q", "m", "n", "mu")

    def __init__(self, num: tuple[int, int, int], q: int, m: int, n: int, mu: int):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mu", mu)


def _check_mn(field: CMFieldData, m: int, n: int) -> None:
    """Raise `InputError` unless m >= 1, 0 < n < m·√D̃ and D | m²·D̃ − n²."""
    if m < 1:
        raise InputError("need m >= 1")
    if n <= 0 or n * n >= m * m * field.dtilde:
        raise InputError("need 0 < n < m·√D̃")
    if (m * m * field.dtilde - n * n) % field.D:
        raise InputError("need D | m²·D̃ − n²")


def t_matrix(field: CMFieldData, m: int, n: int, mu: int) -> TMatrix | None:
    """The matrix for (m, n, μ), or None when the triple is inadmissible; (m, n)
    and the sign rule are checked as `_admissible_numerators` checks them."""
    if mu not in (1, -1):
        raise InputError("need mu = ±1")
    q, signs = _admissible_numerators(field, m, n)
    return next((TMatrix(num, q, m, n, mu) for sign, num in signs if sign == mu), None)


def _admissible_numerators(
    field: CMFieldData, m: int, n: int
) -> tuple[int, tuple[tuple[int, tuple[int, int, int]], ...]]:
    """The denominator q = 4·D·m·den and the (μ, (a, b, c)) of the admissible
    signs for (m, n), μ = 1 first, T's numerators over q: the one home of the
    checks on (m, n), the determinant identity and the sign rules.

    (m, n) is checked once and both signs are built from it. Both signs are
    admissible when D | n and exactly one otherwise; a violation of that rule
    is an internal error.
    """
    _check_mn(field, m, n)
    D, x, y, den = field.D, field.delta.x, field.delta.y, field.delta.den
    q = 4 * D * m * den
    det = (m * m * field.dtilde - n * n) * q * q  # D·m²·q²·det T
    found = []
    for mu in (1, -1):
        s = mu * n * den - x * m
        c = 8 * s
        b = 4 * D * (-y * m - s)
        a = -4 * D * den * mu * n - D * b - 2 * D * (D - 1) * s
        if a <= 0 or (m * a) % q or (m * b) % q or (m * c) % q:
            continue
        if (a * c - b * b) * D * m * m != det:
            raise InternalConsistencyError("determinant identity failed")
        found.append((mu, (a, b, c)))
    both = n % D == 0
    if len(found) == (2 if both else 1):
        return q, tuple(found)
    if both:
        rule = "both signs must be admissible when D | n"
    else:
        rule = "exactly one sign must be admissible when D ∤ n"
    ok = tuple(mu for mu, _ in found)
    raise InternalConsistencyError(f"{rule}; got {ok} for (m={m}, n={n})")


def admissible_matrices(field: CMFieldData, m: int, n: int) -> tuple[TMatrix, ...]:
    """The matrices of the admissible signs for (m, n), μ = 1 first, as
    `_admissible_numerators` finds them."""
    q, signs = _admissible_numerators(field, m, n)
    return tuple(TMatrix(num, q, m, n, mu) for mu, num in signs)

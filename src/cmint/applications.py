"""Humbert surface intersections, bad-reduction primes, denominator bounds."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .bm import bm_report
from .cmfield import CMFieldData
from .errors import InputError, InternalConsistencyError
from .frozen import Frozen
from .logcombo import LogCombo
from .numutil import is_perfect_square


def _b_sum(field: CMFieldData, indices) -> dict[int, int]:
    """Σ b_k(p) over the indices k, by prime p."""
    totals: dict[int, int] = {}
    for k in indices:
        for e in bm_report(field, k).entries:
            totals[e.p] = totals.get(e.p, 0) + e.b
    return totals


def humbert_intersection(field: CMFieldData, m: int) -> LogCombo:
    """Intersection with the m-th Humbert surface: ½·Σ b_{(Dm−n²)/4}."""
    if m < 1:
        raise InputError("need m >= 1")
    Dm = field.D * m
    if is_perfect_square(Dm):
        raise InputError("D*m must not be a perfect square")
    indices = [(Dm - n * n) // 4 for n in range(1, isqrt(Dm) + 1) if (Dm - n * n) % 4 == 0]
    totals = _b_sum(field, indices)
    return LogCombo.from_dict({p: Fraction(b, 2) for p, b in totals.items()})


class BadReductionCertificate(Frozen):
    __slots__ = _fields = ("field", "indices", "per_prime", "bad_primes", "bound")

    def __init__(
        self,
        field: CMFieldData,
        indices: tuple[int, ...],
        per_prime: tuple[tuple[int, int], ...],
        bad_primes: tuple[int, ...],
        bound: Fraction,
    ):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "per_prime", per_prime)
        object.__setattr__(self, "bad_primes", bad_primes)
        object.__setattr__(self, "bound", bound)


def _genus_two_sum(field: CMFieldData) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The indices (D − n²)/4 over odd 0 < n < √D, and the nonzero Σ b_k over them
    as (p, sum) pairs sorted by p."""
    indices = tuple((field.D - n * n) // 4 for n in range(1, isqrt(field.D - 1) + 1, 2))
    return indices, tuple(sorted((p, b) for p, b in _b_sum(field, indices).items() if b))


def bad_reduction_primes(field: CMFieldData) -> BadReductionCertificate:
    """Primes where the CM abelian surfaces degenerate to a product."""
    if field.mode != "strict":
        raise InputError("bad-reduction certificates require strict mode")
    indices, total = _genus_two_sum(field)
    bound = Fraction(field.D * field.dtilde, 64)
    for l, _ in total:
        if 64 * l > field.D * field.dtilde:
            raise InternalConsistencyError(f"certified prime {l} exceeds the bound {bound}")
    return BadReductionCertificate(field, indices, total, tuple(l for l, _ in total), bound)


def igusa_denominator_bounds(field: CMFieldData) -> dict[str, dict[int, int]]:
    """Prime-exponent bounds for the denominators of I1, I2, I3 at the CM point."""
    if field.mode != "strict":
        raise InputError("denominator bounds require strict mode")
    _, total = _genus_two_sum(field)
    return {
        name: {p: k * field.w_k * c for p, c in total}
        for name, k in (("A1", 3), ("A2", 2), ("A3", 2))
    }

"""Formal rational linear combinations of logarithms of primes.

All intersection quantities in this package are sums  Σ c_p · log p  with
exact rational c_p; this type keeps them exact end to end.
"""

from __future__ import annotations

from fractions import Fraction

from .frozen import Frozen


def rational_json(c: Fraction) -> int | str:
    """Exact JSON form of a rational: an int, or the string "num/den"."""
    return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


class LogCombo(Frozen):
    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[tuple[int, Fraction], ...] = ()):
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def from_dict(d: dict) -> "LogCombo":
        items = sorted((int(p), Fraction(c)) for p, c in d.items())
        return LogCombo(tuple((p, c) for p, c in items if c != 0))

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def json_obj(self) -> dict[str, int | str]:
        """Exact JSON form, keyed by the primes as strings (see `rational_json`)."""
        return {str(p): rational_json(c) for p, c in self.coeffs}

"""Formal rational linear combinations of logarithms of primes.

All intersection quantities in this package are sums  Σ c_p · log p  with
exact rational c_p; this type keeps them exact end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class LogCombo:
    coeffs: tuple[tuple[int, Fraction], ...] = ()

    @staticmethod
    def from_dict(d: dict) -> "LogCombo":
        items = sorted((int(p), Fraction(c)) for p, c in d.items())
        return LogCombo(tuple((p, c) for p, c in items if c != 0))

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LogCombo") -> "LogCombo":
        acc = dict(self.coeffs)
        for p, c in other.coeffs:
            acc[p] = acc.get(p, Fraction(0)) + c
        return LogCombo.from_dict(acc)

    def scaled(self, s) -> "LogCombo":
        s = Fraction(s)
        return LogCombo.from_dict({p: c * s for p, c in self.coeffs})

    def json_obj(self) -> dict[str, int | str]:
        """Exact JSON form: integer coefficients as ints, others as "num/den"."""
        out: dict[str, int | str] = {}
        for p, c in self.coeffs:
            out[str(p)] = int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        return out

"""Real quadratic fields Q(√d), maximal-order elements, and prime spots.

A "spot" is a place of the field over a rational prime, with split spots
told apart by the residue class of √d they select.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, InternalConsistencyError
from .numutil import is_prime, is_squarefree, ord_p
from .padic import hensel_sqrt, kronecker


@dataclass(frozen=True)
class QuadField:
    """Q(√disc) for squarefree disc ≡ 1 mod 4, disc > 1."""

    disc: int

    def __post_init__(self):
        d = self.disc
        if d <= 1 or d % 4 != 1 or not is_squarefree(d):
            raise InputError(f"need squarefree disc ≡ 1 mod 4, disc > 1; got {d}")


@dataclass(frozen=True)
class QuadElem:
    """(x + y√d)/den with den ∈ {1, 2}; always lies in the maximal order.

    den = 2 requires x ≡ y mod 2; representations with both coordinates even
    are reduced to den = 1 on construction.
    """

    field: QuadField
    x: int
    y: int
    den: int = 1

    def __post_init__(self):
        if self.den not in (1, 2):
            raise InputError(f"den must be 1 or 2, got {self.den}")
        if self.den == 2:
            if (self.x - self.y) % 2:
                raise InputError("half-integral element needs x ≡ y mod 2")
            if self.x % 2 == 0:
                object.__setattr__(self, "x", self.x // 2)
                object.__setattr__(self, "y", self.y // 2)
                object.__setattr__(self, "den", 1)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def conj(self) -> "QuadElem":
        return QuadElem(self.field, self.x, -self.y, self.den)

    def __neg__(self) -> "QuadElem":
        return QuadElem(self.field, -self.x, -self.y, self.den)

    def __add__(self, other: "QuadElem") -> "QuadElem":
        if self.field != other.field:
            raise InputError("cannot add elements of different fields")
        if self.den == other.den:
            return QuadElem(self.field, self.x + other.x, self.y + other.y, self.den)
        a, b = (self, other) if self.den == 2 else (other, self)
        return QuadElem(self.field, a.x + 2 * b.x, a.y + 2 * b.y, 2)

    def __sub__(self, other: "QuadElem") -> "QuadElem":
        return self + (-other)

    def __mul__(self, other: "QuadElem") -> "QuadElem":
        if self.field != other.field:
            raise InputError("cannot multiply elements of different fields")
        d = self.field.disc
        x = self.x * other.x + self.y * other.y * d
        y = self.x * other.y + self.y * other.x
        den = self.den * other.den
        while den > 1 and x % 2 == 0 and y % 2 == 0:
            x //= 2
            y //= 2
            den //= 2
        if den == 4:
            raise InternalConsistencyError("product left the maximal order")
        return QuadElem(self.field, x, y, den)


def elem_norm(e: QuadElem) -> Fraction:
    """Field norm x² − y²·d over den²."""
    return Fraction(e.x * e.x - e.y * e.y * e.field.disc, e.den * e.den)


def elem_div_exact(e: QuadElem, k: int) -> QuadElem | None:
    """e/k when it lies in the maximal order, else None."""
    if k == 0:
        raise InputError("division by zero")
    if k < 0:
        return elem_div_exact(-e, -k)
    x, y, den = e.x, e.y, e.den * k
    while den % 2 == 0 and x % 2 == 0 and y % 2 == 0:
        x //= 2
        y //= 2
        den //= 2
    odd = den >> (den & -den).bit_length() - 1
    if odd > 1:
        if x % odd or y % odd:
            return None
        x //= odd
        y //= odd
        den //= odd
    if den == 1:
        return QuadElem(e.field, x, y, 1)
    if den == 2 and (x - y) % 2 == 0:
        return QuadElem(e.field, x, y, 2)
    return None


@dataclass(frozen=True)
class PrimeSpot:
    """A place of Q(√disc) over the rational prime l.

    `label` names split spots: the mod-l residue of √d the spot selects
    (mod 4 when l = 2). The canonical spot carries the canonical Hensel
    root (≤ (l−1)/2 for odd l, ≡ 1 mod 4 for l = 2).
    """

    disc: int
    l: int
    kind: str
    label: int | None = None

    @property
    def f(self) -> int:
        return 2 if self.kind == "inert" else 1

    @property
    def e(self) -> int:
        return 2 if self.kind == "ramified" else 1


@lru_cache(maxsize=1 << 14)
def _splitting(disc: int, l: int) -> tuple[PrimeSpot, ...]:
    QuadField(disc)
    if not is_prime(l):
        raise InputError(f"splitting needs a prime, got {l}")
    k = kronecker(disc, l)
    if k == 0:
        return (PrimeSpot(disc, l, "ramified"),)
    if k == -1:
        return (PrimeSpot(disc, l, "inert"),)
    if l == 2:
        return (PrimeSpot(disc, 2, "split", 1), PrimeSpot(disc, 2, "split", 3))
    r = hensel_sqrt(disc, l, 1)
    assert r is not None
    return (PrimeSpot(disc, l, "split", r), PrimeSpot(disc, l, "split", l - r))


def splitting(field: QuadField, l: int) -> tuple[PrimeSpot, ...]:
    """The spots of the field over l; canonical split spot first."""
    return _splitting(field.disc, l)


@lru_cache(maxsize=1 << 15)
def _root_for_spot(disc: int, l: int, label: int, k: int) -> int:
    """The mod-l^k image of √disc under this split spot's embedding."""
    r = hensel_sqrt(disc, l, k)
    if r is None:
        raise InternalConsistencyError("no square root at a split spot")
    if l == 2:
        return r if label == 1 else ((1 << k) - r)
    return r if r % l == label else l**k - r


def spot_embed(e: QuadElem, spot: PrimeSpot, k: int) -> int:
    """Image of a (possibly half-integral) element in Z/l^k under a split spot.

    The result is the embedding of e·den, i.e. the den factor is NOT divided
    out; callers account for it via valuations.
    """
    if spot.kind != "split":
        raise InputError("spot_embed needs a split spot")
    root = _root_for_spot(spot.disc, spot.l, spot.label, k)
    return (e.x + e.y * root) % spot.l**k


def ord_at(e: QuadElem, spot: PrimeSpot) -> int:
    """Valuation of a nonzero element at the spot (uniformizer has ord 1)."""
    if e.is_zero():
        raise InputError("valuation of zero is undefined")
    if e.field.disc != spot.disc:
        raise InputError("element and spot live in different fields")
    l = spot.l
    num_norm = e.x * e.x - e.y * e.y * spot.disc
    vn = ord_p(num_norm, l)
    vden = ord_p(e.den, l)
    if spot.kind == "ramified":
        return vn - 2 * vden
    if spot.kind == "inert":
        if vn % 2:
            raise InternalConsistencyError("odd norm valuation at an inert spot")
        return vn // 2 - vden
    k = vn + vden + 2
    img = spot_embed(e, spot, k)
    if img == 0:
        raise InternalConsistencyError("split embedding vanished at full precision")
    return ord_p(img, l) - vden

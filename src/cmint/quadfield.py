"""Real quadratic fields Q(√d), maximal-order elements, and prime spots.

A "spot" is a place of the field over a rational prime, with split spots
told apart by the residue class of √d they select.
"""

from __future__ import annotations

from .errors import InputError, InternalConsistencyError
from .frozen import Frozen
from .numutil import is_prime, is_squarefree, ord_p, sqrts_mod_prime


class QuadField(Frozen):
    """Q(√disc) for squarefree disc ≡ 1 mod 4, disc > 1."""

    __slots__ = _fields = ("disc",)

    def __init__(self, disc: int):
        if disc <= 1 or disc % 4 != 1 or not is_squarefree(disc):
            raise InputError(f"need squarefree disc ≡ 1 mod 4, disc > 1; got {disc}")
        object.__setattr__(self, "disc", disc)


class QuadElem(Frozen):
    """(x + y√d)/den with den ∈ {1, 2}; always lies in the maximal order.

    den = 2 requires x ≡ y mod 2; representations with both coordinates even
    are reduced to den = 1 on construction. A validated value with no
    arithmetic: callers work on its integer coordinates.
    """

    __slots__ = _fields = ("field", "x", "y", "den")

    def __init__(self, field: QuadField, x: int, y: int, den: int = 1):
        if den not in (1, 2):
            raise InputError(f"den must be 1 or 2, got {den}")
        if den == 2:
            if (x - y) % 2:
                raise InputError("half-integral element needs x ≡ y mod 2")
            if x % 2 == 0:
                x, y, den = x // 2, y // 2, 1
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "den", den)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


class PrimeSpot(Frozen):
    """A place of Q(√disc) over the rational prime l.

    `label` names split spots: the mod-l residue of √d the spot selects
    (mod 4 when l = 2). The canonical spot carries the canonical Hensel
    root (≤ (l−1)/2 for odd l, ≡ 1 mod 4 for l = 2).
    """

    __slots__ = _fields = ("disc", "l", "kind", "label")

    def __init__(self, disc: int, l: int, kind: str, label: int | None = None):
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "label", label)

    @property
    def f(self) -> int:
        return 2 if self.kind == "inert" else 1

    @property
    def e(self) -> int:
        return 2 if self.kind == "ramified" else 1


def _need_prime(l: int) -> None:
    """Refuse a non-prime l: the one primality proof before the spots over l."""
    if not is_prime(l):
        raise InputError(f"splitting needs a prime, got {l}")


def _splitting(disc: int, l: int) -> tuple[PrimeSpot, ...]:
    # disc ≡ 1 mod 4 comes from a validated QuadField; l must already be proved prime.
    # 2 splits when disc ≡ 1 mod 8, its spots labelled by √disc mod 4
    if l == 2:
        roots = (1, 3) if disc % 8 == 1 else ()
    else:
        roots = sqrts_mod_prime(disc, l)
    if len(roots) == 2:
        return tuple(PrimeSpot(disc, l, "split", r) for r in roots)
    return (PrimeSpot(disc, l, "ramified" if roots else "inert"),)


def splitting(field: QuadField, l: int) -> tuple[PrimeSpot, ...]:
    """The spots of the field over l; canonical split spot first."""
    _need_prime(l)
    return _splitting(field.disc, l)


# √d mod 16 at the split spot over 2 labelled 1 (the root ≡ 1 mod 4), by d mod 32
_DYADIC_ROOT = {1: 1, 9: 13, 17: 9, 25: 5}


def split_root(spot: PrimeSpot) -> int:
    """√d at a split spot: mod l for odd l (the label), mod 16 for l = 2."""
    if spot.l != 2:
        return spot.label
    r = _DYADIC_ROOT[spot.disc % 32]
    return r if spot.label == 1 else -r


def split_ord(x: int, y: int, spot: PrimeSpot, vn: int) -> int:
    """Valuation of x + y√d ≠ 0 at a split spot, read off the spot's label.

    Needs vn = v_l(x² − y²d). Write x + y√d = l^g·(x′ + y′√d) with l^g the
    largest power dividing both x and y; the valuation is g plus that of
    x′ + y′√d. Its two images, one per spot, add to 2x′ and multiply to a
    number of valuation vn − 2g. For odd l at most one of them is ≡ 0 mod l:
    the one at the spot whose label r has x′ + y′r ≡ 0 mod l, which takes all
    of vn − 2g. At 2 both are units unless x′ and y′ are both odd; then the
    one at the spot whose label r (√d mod 4) has x′ + y′r ≡ 2 mod 4 takes 1,
    and the other vn − 2g − 1.
    """
    l = spot.l
    g = 0
    while x % l == 0 and y % l == 0:
        x //= l
        y //= l
        g += 1
    if l != 2:
        return vn - g if (x + y * spot.label) % l == 0 else g
    if not x & y & 1:
        return g
    return g + 1 if (x + y * spot.label) % 4 == 2 else vn - g - 1


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
    return split_ord(e.x, e.y, spot, vn) - vden

"""Quartic CM field data: validation, the reflex field, and local structure.

The input is a pair (D, Δ) with D a prime ≡ 1 mod 4 and Δ a totally negative
element of O_F, F = Q(√D). The package works with K = F(√Δ) through its
reflex data: D̃ = norm(Δ), F̃ = Q(√D̃), Δ̃ = 2Δ₀ + 2√D̃, and K̃ = F̃(√Δ̃).
Everything downstream only ever consults the reflex side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import FieldRejected, InputError, InternalConsistencyError
from .numutil import is_perfect_square, is_prime, is_squarefree, ord_p, prime_factors
from .padic import legendre, unit_part_mod, val
from .quadfield import (
    PrimeSpot,
    QuadElem,
    QuadField,
    elem_div_exact,
    elem_norm,
    ord_at,
    splitting,
    spot_embed,
)


@dataclass(frozen=True)
class CMFieldData:
    D: int
    delta: QuadElem
    w: QuadElem
    dtilde: int
    delta_tilde: QuadElem
    rel_diff: tuple[tuple[PrimeSpot, int], ...]
    w_k: int
    mode: str

    @property
    def base(self) -> QuadField:
        return self.delta.field

    @property
    def reflex(self) -> QuadField:
        return self.delta_tilde.field


def _totally_negative(e: QuadElem) -> bool:
    return e.x < 0 and e.x * e.x > e.y * e.y * e.field.disc


def _find_w(delta: QuadElem) -> QuadElem | None:
    """First w = a + b·(1+√D)/2 (a, b in 0..3) with (w² − Δ)/4 integral."""
    F = delta.field
    for a in range(4):
        for b in range(4):
            w = QuadElem(F, 2 * a + b, b, 2)
            if elem_div_exact(w * w - delta, 4) is not None:
                return w
    return None


def _frac_residue(q: Fraction, l: int) -> int:
    if q == 0:
        return 0
    if val(q, l) < 0:
        raise InternalConsistencyError("residue of a non-integral quantity")
    return q.numerator * pow(q.denominator, -1, l) % l


def _fl2_is_square(a: int, b: int, d: int, l: int) -> bool:
    """Whether a + b·√d is a square in F_{l²} = F_l(√d), d a non-residue."""
    e = (l * l - 1) // 2
    ra, rb = 1, 0
    while e:
        if e & 1:
            ra, rb = (ra * a + rb * b * d) % l, (ra * b + rb * a) % l
        a, b = (a * a + b * b * d) % l, (2 * a * b) % l
        e >>= 1
    return (ra, rb) == (1, 0)


@lru_cache(maxsize=256)
def _dyadic_squares(disc: int, modulus: int) -> frozenset[tuple[int, int]]:
    """All squares in O/modulus·O on the basis {1, ω}, ω = (1+√disc)/2."""
    c = (disc - 1) // 4
    out = set()
    for a in range(modulus):
        for b in range(modulus):
            out.add(((a * a + b * b * c) % modulus, (2 * a * b + b * b) % modulus))
    return frozenset(out)


def _omega_unit_coords(elem: QuadElem, v: int) -> tuple[int, int]:
    """Coordinates of elem/2^v on {1, ω} at an inert dyadic spot."""
    if elem.den == 1:
        A, B = elem.x - elem.y, 2 * elem.y
    else:
        A, B = (elem.x - elem.y) // 2, elem.y
    q = 1 << v
    if A % q or B % q:
        raise InternalConsistencyError("inert dyadic unit-part extraction failed")
    return A // q, B // q


def _square_class_kind(elem: QuadElem, spot: PrimeSpot) -> str:
    """Splitting of the quadratic extension F_spot(√elem) of the completion."""
    l = spot.l
    v = ord_at(elem, spot)
    if spot.kind == "split":
        vden = ord_p(elem.den, l)
        k = v + vden + (3 if l == 2 else 1)
        img = spot_embed(elem, spot, k)
        if img == 0 or ord_p(img, l) != v + vden:
            raise InternalConsistencyError("split unit-part extraction failed")
        u = img // l ** (v + vden)
        if v % 2:
            return "ramified"
        if l == 2:
            u %= 8
            return "split" if u == 1 else ("inert" if u == 5 else "ramified")
        u = u * pow(elem.den, -1, l) % l
        return "split" if legendre(u, l) == 1 else "inert"
    if spot.kind == "inert":
        if v % 2:
            return "ramified"
        if l == 2:
            A, B = _omega_unit_coords(elem, v)
            if (A % 8, B % 8) in _dyadic_squares(spot.disc, 8):
                return "split"
            if (A % 4, B % 4) in _dyadic_squares(spot.disc, 4):
                return "inert"
            return "ramified"
        denom = elem.den * l**v
        a = _frac_residue(Fraction(elem.x, denom), l)
        b = _frac_residue(Fraction(elem.y, denom), l)
        if a == 0 and b == 0:
            raise InternalConsistencyError("inert unit-part extraction failed")
        return "split" if _fl2_is_square(a, b, spot.disc % l, l) else "inert"
    # ramified spot; disc ≡ 1 mod 4 keeps these odd
    if v % 2:
        return "ramified"
    x0 = Fraction(elem.x, elem.den * l ** (v // 2))
    if x0 == 0 or val(x0, l) != 0:
        raise InternalConsistencyError("ramified unit-part extraction failed")
    r = unit_part_mod(x0, l, l)
    return "split" if legendre(r, l) == 1 else "inert"


def _relative_different(delta_tilde: QuadElem, mode: str) -> tuple[tuple[PrimeSpot, int], ...]:
    Ft = delta_tilde.field
    nrm = int(elem_norm(delta_tilde))
    out = []
    for l in sorted(set(prime_factors(nrm)) | {2}):
        for spot in splitting(Ft, l):
            if _square_class_kind(delta_tilde, spot) != "ramified":
                continue
            if l == 2:
                if mode == "strict":
                    raise FieldRejected(
                        "dyadic-ramification",
                        "the relative different has a dyadic entry; outside the strict hypotheses",
                    )
                out.append((spot, 3 if ord_at(delta_tilde, spot) % 2 else 2))
            else:
                out.append((spot, 1))
    return tuple(out)


@lru_cache(maxsize=1024)
def _build_cached(D: int, x: int, y: int, den: int, mode: str) -> CMFieldData:
    if not is_prime(D) or D % 4 != 1:
        raise FieldRejected("D-not-valid", f"D = {D} must be a prime ≡ 1 mod 4")
    delta = QuadElem(QuadField(D), x, y, den)
    if not _totally_negative(delta):
        raise FieldRejected("delta-not-totally-negative", f"Δ = ({x}+{y}√{D})/{den}")
    nrm = elem_norm(delta)
    if nrm.denominator != 1:
        raise InternalConsistencyError("norm of a maximal-order element is integral")
    dt = int(nrm)
    if dt % 4 != 1:
        raise FieldRejected("norm-not-1-mod-4", f"norm(Δ) = {dt}")
    if is_perfect_square(dt):
        raise FieldRejected("norm-a-square", f"norm(Δ) = {dt} gives a biquadratic field")
    if not is_squarefree(dt):
        raise FieldRejected("norm-not-squarefree", f"norm(Δ) = {dt}")
    if mode == "strict" and not is_prime(dt):
        raise FieldRejected("norm-not-prime", f"norm(Δ) = {dt} and mode is strict")
    w = _find_w(delta)
    if w is None:
        raise FieldRejected("order-not-free", "no w with w² ≡ Δ mod 4·O_F")
    two_d0 = 2 * Fraction(x, den)
    if two_d0.denominator != 1:
        raise InternalConsistencyError("2Δ₀ must be integral")
    delta_tilde = QuadElem(QuadField(dt), int(two_d0), 2, 1)
    rel = _relative_different(delta_tilde, mode)
    w_k = 10 if (D == 5 and dt == 5) else 2
    return CMFieldData(D, delta, w, dt, delta_tilde, rel, w_k, mode)


def build_cm_field(D: int, delta: QuadElem, mode: str = "strict") -> CMFieldData:
    """Validate (D, Δ) and assemble the CM field data, or raise FieldRejected."""
    if mode not in ("strict", "permissive"):
        raise InputError(f"mode must be 'strict' or 'permissive', got {mode!r}")
    if delta.field.disc != D:
        raise InputError("delta must be an element of Q(√D)")
    return _build_cached(D, delta.x, delta.y, delta.den, mode)


def relative_different(field: CMFieldData) -> tuple[tuple[PrimeSpot, int], ...]:
    """The relative different of K̃/F̃ as (spot, exponent) pairs."""
    return field.rel_diff


def classify_in_reflex_cm(field: CMFieldData, spot: PrimeSpot) -> str:
    """How the F̃-spot behaves in K̃: "split", "inert", or "ramified"."""
    if spot.disc != field.dtilde:
        raise InputError("spot does not belong to the reflex field")
    return _square_class_kind(field.delta_tilde, spot)


def rho(field: CMFieldData, vals) -> int:
    """Number of O_K̃ ideals whose relative norm has the given exponents.

    `vals` is an iterable of (PrimeSpot, exponent) covering every spot with a
    nonzero exponent; any negative exponent (non-integral ideal) gives 0.
    """
    total = 1
    for spot, e in vals:
        if e < 0:
            return 0
        kind = classify_in_reflex_cm(field, spot)
        if kind == "inert":
            if e % 2:
                return 0
        elif kind == "split":
            total *= e + 1
    return total

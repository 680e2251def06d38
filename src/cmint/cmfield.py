"""Quartic CM field data: validation, the reflex field, and local structure.

The input is a pair (D, Δ) with D a prime ≡ 1 mod 4 and Δ a totally negative
element of O_F, F = Q(√D). The package works with K = F(√Δ) through its
reflex data: D̃ = norm(Δ), F̃ = Q(√D̃), Δ̃ = 2Δ₀ + 2√D̃, and K̃ = F̃(√Δ̃).
Everything downstream only ever consults the reflex side. `_build_cached`
is the one validator of (D, Δ): `build_cm_field` and the CLI's field loader
both hand it their integers, and it proves D prime once.

`spot_kinds(field, l)` gives each spot of F̃ over l with its kind in K̃
(split, inert or ramified). It keeps no memo: a field carries its rows over 2
and D, which route (a) reads at every m, and each route fetches any other
prime's rows once per scan. Route (a) needs them only over the primes of m,
D̃ and norm(Δ̃): at any other prime of its scan, Δ̃ is a unit at the one spot
it needs, whose kind is one quadratic character.

A validated field's relative different of K̃/F̃ is one spot over D, with
exponent 1 (`_relative_different`), so 2 never ramifies in K̃/F̃.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import FieldRejected, InputError, InternalConsistencyError
from .frozen import Frozen
from .numutil import is_perfect_square, is_prime, kronecker, ord_p, prime_factors
from .quadfield import (
    PrimeSpot,
    QuadElem,
    QuadField,
    _need_prime,
    _splitting,
    ord_at,
    split_ord,
    split_root,
)


class CMFieldData(Frozen):
    """A validated field. Besides its fields it holds `rows_2` and `rows_d`,
    `spot_kinds` over 2 and over D, built with it; like the stored hash they
    are no fields, so repr, equality, hash and pickling ignore them."""

    _fields = ("D", "delta", "dtilde", "delta_tilde", "rel_diff", "w_k", "mode")
    __slots__ = _fields + ("_hash", "rows_2", "rows_d")

    def __init__(
        self,
        D: int,
        delta: QuadElem,
        dtilde: int,
        delta_tilde: QuadElem,
        rel_diff: tuple[tuple[PrimeSpot, int], ...],
        w_k: int,
        mode: str,
    ):
        values = (D, delta, dtilde, delta_tilde, rel_diff, w_k, mode)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        # its recursive hash is taken once
        object.__setattr__(self, "_hash", hash(values))
        object.__setattr__(self, "rows_2", spot_kinds(self, 2))
        object.__setattr__(self, "rows_d", spot_kinds(self, D))

    def __hash__(self) -> int:
        return self._hash

    @property
    def reflex(self) -> QuadField:
        return self.delta_tilde.field


def _totally_negative(e: QuadElem) -> bool:
    return e.x < 0 and e.x * e.x > e.y * e.y * e.field.disc


def _dyadic_squares(disc: int, modulus: int) -> frozenset[tuple[int, int]]:
    """All squares in O/modulus·O on the basis {1, ω}, ω = (1+√disc)/2."""
    c = (disc - 1) // 4
    out = set()
    for a in range(modulus):
        for b in range(modulus):
            out.add(((a * a + b * b * c) % modulus, (2 * a * b + b * b) % modulus))
    return frozenset(out)


def _omega_unit_coords(elem: QuadElem, v: int) -> tuple[int, int]:
    """Coordinates of elem/2^v on {1, ω}, ω = (1+√disc)/2; 2^v must divide elem."""
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
    if spot.kind == "split":
        x, y = elem.x, elem.y
        nrm = x * x - y * y * spot.disc
        vn = ord_p(nrm, l)
        v = split_ord(x, y, spot, vn)
        if (v - ord_p(elem.den, l)) % 2:
            return "ramified"
        # with √d mod l (mod 16 at 2), x + y√d gives its image of smaller
        # valuation w, here or at the other spot, mod l^(w+1) (2^(w+3)): l^g
        # divides y, and w is g (g or g + 1 at 2) in `split_ord`'s terms. That
        # is its unit mod l (mod 8); the two images multiply to nrm
        r, mod = split_root(spot), 8 if l == 2 else l
        if 2 * v <= vn:
            u = (x + y * r) // l**v % mod
        else:
            other = (x - y * r) // l ** (vn - v) % mod
            u = nrm // l**vn * pow(other, -1, mod) % mod
        if l == 2:
            return "split" if u == 1 else ("inert" if u == 5 else "ramified")
        u = u * pow(elem.den, -1, l) % l
        return "split" if kronecker(u, l) == 1 else "inert"
    v = ord_at(elem, spot)
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
        # a unit of F_{l²} is a square exactly when its norm is a square in F_l
        nrm, r = divmod(elem.x * elem.x - elem.y * elem.y * spot.disc, l ** (2 * v))
        if r or nrm % l == 0:
            raise InternalConsistencyError("inert unit-part extraction failed")
        return "split" if kronecker(nrm, l) == 1 else "inert"
    # ramified spot; disc ≡ 1 mod 4 keeps these odd
    if v % 2:
        return "ramified"
    x0, r = divmod(elem.x, l ** (v // 2))
    if r or x0 % l == 0:
        raise InternalConsistencyError("ramified unit-part extraction failed")
    return "split" if kronecker(x0 * elem.den, l) == 1 else "inert"


def _relative_different(delta_tilde: QuadElem, D: int) -> tuple[tuple[PrimeSpot, int], ...]:
    """The relative different of K̃/F̃: one spot of F̃ over D, with exponent 1.

    Validation makes O_K = O_F[(w + √Δ)/2] with D̃ squarefree: d_K = D²·D̃. K and
    K̃ share one 2-dimensional representation ρ of their Galois closure, so
    d_K = D·f(ρ) and d_K̃ = D̃·f(ρ) (conductor–discriminant formula), and
    N(𝔡) = d_K̃/D̃² = D. A ramified spot over any other l, 2 included, is an
    internal error.
    """
    Ft = delta_tilde.field
    x, y = delta_tilde.x, delta_tilde.y
    # norm(Δ̃) = (2y/den)²·D: only the cofactor of the proved prime D is factored
    cof, r = divmod(x * x - y * y * Ft.disc, D)
    if r:
        raise InternalConsistencyError(f"D = {D} must divide the norm of Δ̃")
    out = []
    for l in sorted(set(prime_factors(cof)) | {2, D}):
        for spot in _splitting(Ft.disc, l):
            if _square_class_kind(delta_tilde, spot) != "ramified":
                continue
            if l != D:
                raise InternalConsistencyError(f"the different has a spot over {l}, not D = {D}")
            out.append((spot, 1))
    return tuple(out)


@lru_cache(maxsize=1024)
def _build_cached(D: int, x: int, y: int, den: int, mode: str) -> CMFieldData:
    # D is proved prime first, as `QuadField`'s squarefree test would send a
    # composite D to Pollard rho; past that, every check reads the reduced Δ
    if not is_prime(D) or D % 4 != 1:
        raise FieldRejected("D-not-valid", f"D = {D} must be a prime ≡ 1 mod 4")
    try:
        delta = QuadElem(QuadField(D), x, y, den)
    except InputError as exc:
        raise FieldRejected("invalid-delta", str(exc)) from exc
    x, y, den = delta.x, delta.y, delta.den
    if not _totally_negative(delta):
        raise FieldRejected("delta-not-totally-negative", f"Δ = ({x}+{y}√{D})/{den}")
    dt, r = divmod(x * x - y * y * D, den * den)
    if r:
        raise InternalConsistencyError("norm of a maximal-order element is integral")
    if dt % 4 != 1:
        raise FieldRejected("norm-not-1-mod-4", f"norm(Δ) = {dt}")
    if is_perfect_square(dt):
        raise FieldRejected("norm-a-square", f"norm(Δ) = {dt} gives a biquadratic field")
    try:
        reflex = QuadField(dt)  # dt > 1 and dt ≡ 1 mod 4, so it refuses only a square factor
    except InputError:
        raise FieldRejected("norm-not-squarefree", f"norm(Δ) = {dt}") from None
    if mode == "strict" and not is_prime(dt):
        raise FieldRejected("norm-not-prime", f"norm(Δ) = {dt} and mode is strict")
    # O_K = O_F[(w + √Δ)/2] needs w ∈ O_F with w² ≡ Δ mod 4·O_F: Δ mod 4 on {1, ω}
    # must be a square of O_F/4
    A, B = _omega_unit_coords(delta, 0)
    if (A % 4, B % 4) not in _dyadic_squares(D, 4):
        raise FieldRejected("order-not-free", "no w with w² ≡ Δ mod 4·O_F")
    two_d0, r = divmod(2 * x, den)
    if r:
        raise InternalConsistencyError("2Δ₀ must be integral")
    delta_tilde = QuadElem(reflex, two_d0, 2, 1)
    rel = _relative_different(delta_tilde, D)
    w_k = 10 if (D == 5 and dt == 5) else 2
    return CMFieldData(D, delta, dt, delta_tilde, rel, w_k, mode)


def build_cm_field(D: int, delta: QuadElem, mode: str = "strict") -> CMFieldData:
    """Validate (D, Δ) and assemble the CM field data, or raise FieldRejected."""
    if mode not in ("strict", "permissive"):
        raise InputError(f"mode must be 'strict' or 'permissive', got {mode!r}")
    if delta.field.disc != D:
        raise InputError("delta must be an element of Q(√D)")
    return _build_cached(D, delta.x, delta.y, delta.den, mode)


def spot_kinds(field: CMFieldData, l: int) -> tuple[tuple, ...]:
    """Each spot of F̃ over l, in `splitting` order, as the flat row
    (spot, its kind in K̃, its kind in F̃, shift, e_𝔡, f, label), each kind
    in K̃ from `_square_class_kind`.

    e_𝔡 is the exponent of the relative different at the spot, 1 at its one
    spot over D and 0 elsewhere, and shift = e_𝔡 − v_l(2D)·e, the exponent of
    𝔡⁻¹ minus that of 2D; it is negative only over 2 and D.

    l is not proved prime here: every caller passes a prime already proved,
    namely 2, the validated D, and those of an m's factor table that divide
    m·D̃·norm(Δ̃) (route (a)) or m (route (b)). `classify_in_reflex_cm`
    proves a caller's l first. Nothing is memoized: a field holds its rows
    over 2 and D, and each route asks for another prime's rows once per scan.
    """
    dt = field.delta_tilde
    rel = dict(field.rel_diff)
    o2d = ord_p(2 * field.D, l)
    rows = []
    for s in _splitting(field.dtilde, l):
        r = rel.get(s, 0)
        rows.append((s, _square_class_kind(dt, s), s.kind, r - o2d * s.e, r, s.f, s.label))
    return tuple(rows)


def classify_in_reflex_cm(field: CMFieldData, spot: PrimeSpot) -> str:
    """How the F̃-spot behaves in K̃: "split", "inert", or "ramified"."""
    if spot.disc != field.dtilde:
        raise InputError("spot does not belong to the reflex field")
    _need_prime(spot.l)
    for s, kind, *_ in spot_kinds(field, spot.l):
        if s == spot:
            return kind
    raise InputError("spot is not a spot of the reflex field")


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

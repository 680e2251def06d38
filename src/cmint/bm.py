"""The multiplicities b_m(p) by two independent routes.

Route (a) is the definitional ideal count: sum over signed n with
t = (n + m√D̃)/(2D) in the inverse relative different, of local terms at the
non-split spots over p. Route (b) is the closed product formula over primes
dividing (m²D̃ − n²)/(4D), valid for squarefree m coprime to 2DD̃p. Each
route is one scan over n per m that yields every prime's value; the two
share only the range of n and `factorize`. Whenever route (b) applies, the
two are compared and a mismatch is a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .cmfield import CMFieldData, classify_in_reflex_cm, rho
from .errors import InputError, InternalConsistencyError
from .localdensity import b_l_factors
from .logcombo import LogCombo
from .numutil import factorize, is_prime, is_squarefree, ord_p, prime_factors
from .quadfield import QuadElem, ord_at, splitting
from .tmatrix import admissible_matrices


@dataclass(frozen=True)
class BmEntry:
    p: int
    b: int
    route_a: int
    route_b: int | None
    per_n: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BmReport:
    field: CMFieldData
    m: int
    entries: tuple[BmEntry, ...]
    flags: tuple[str, ...]


@dataclass(frozen=True)
class _RouteA:
    totals: tuple[tuple[int, int], ...]
    per_n: tuple[tuple[int, int, int], ...]  # (p, signed n, term)
    flags: tuple[str, ...]
    dyadic_relaxed: bool


@lru_cache(maxsize=None)
def _kind(field: CMFieldData, spot) -> str:
    return classify_in_reflex_cm(field, spot)


@lru_cache(maxsize=4096)
def _route_a(field: CMFieldData, m: int) -> _RouteA:
    """One scan over signed n computing every prime's definitional terms."""
    D, Dt = field.D, field.dtilde
    Ft = field.reflex
    rel = dict(field.rel_diff)
    rel_primes = {s.l for s in rel}
    dyadic_relaxed = 2 in rel_primes
    fourD = 4 * D
    m2dt = m * m * Dt
    nmax = isqrt(m2dt - 1)
    totals: dict[int, int] = {}
    per_n: list[tuple[int, int, int]] = []
    passing: dict[int, set[int]] = {}
    for n in range(-nmax, nmax + 1):
        big_n = m2dt - n * n
        # membership forces 4D | m²D̃ − n² while the different is odd; only
        # the D-part survives when a dyadic entry relaxes the constraint at 2
        if big_n % (D if dyadic_relaxed else fourD):
            continue
        e = QuadElem(Ft, n, m, 1)
        vec: dict = {}
        ok = True
        for l in sorted(set(prime_factors(big_n)) | {2, D} | rel_primes):
            o2d = ord_p(2 * D, l)
            for spot in splitting(Ft, l):
                exp = ord_at(e, spot) - o2d * spot.e + rel.get(spot, 0)
                if exp < 0:
                    ok = False
                    break
                if exp:
                    vec[spot] = exp
            if not ok:
                break
        if not ok:
            continue
        if n:
            passing.setdefault(abs(n), set()).add(1 if n > 0 else -1)
        for spot, exp in vec.items():
            if _kind(field, spot) == "split":
                continue
            ordt = exp - rel.get(spot, 0)
            adj = dict(vec)
            adj[spot] = exp - 1
            r = rho(field, tuple(adj.items()))
            if r == 0:
                continue
            term = (ordt + 1) * r * spot.f
            p = spot.l
            totals[p] = totals.get(p, 0) + term
            per_n.append((p, n, term))
    flags = tuple(
        f"dual-membership:|n|={k}"
        for k in sorted(passing)
        if k % D and len(passing[k]) == 2
    )
    return _RouteA(
        tuple(sorted(totals.items())),
        tuple(per_n),
        flags,
        dyadic_relaxed,
    )


@lru_cache(maxsize=None)
def support_primes(field: CMFieldData, m: int) -> tuple[int, ...]:
    """Primes dividing (m²D̃ − n²)/(4D) for some 0 <= n < m√D̃."""
    if m < 1:
        raise InputError("need m >= 1")
    D, Dt = field.D, field.dtilde
    out: set[int] = set()
    for n in range(isqrt(m * m * Dt - 1) + 1):
        big_n = m * m * Dt - n * n
        if big_n % (4 * D) == 0:
            out |= set(prime_factors(big_n // (4 * D)))
    return tuple(sorted(out))


def bm_p_definition(field: CMFieldData, m: int, p: int) -> int:
    """b_m(p) straight from the definitional ideal count."""
    if m < 1 or not is_prime(p):
        raise InputError("need m >= 1 and p prime")
    return dict(_route_a(field, m).totals).get(p, 0)


@lru_cache(maxsize=4096)
def _route_b(field: CMFieldData, m: int) -> tuple[tuple[int, int], ...]:
    """One scan over n computing the product formula for every p ∤ m at once.

    Needs m squarefree and coprime to 2DD̃. Every T contributes to each prime
    p | quot through its local factor at l = p times the factors at the other
    l | quot, so each factor is evaluated once per (T, l) as the pair
    (value if l = p, value if l ≠ p).
    """
    fourD = 4 * field.D
    m2dt = m * m * field.dtilde
    totals: dict[int, int] = {}
    for n in range(1, isqrt(m2dt - 1) + 1):
        big_n = m2dt - n * n
        if big_n % fourD:
            continue
        fac = factorize(big_n // fourD)
        targets = [(p, e) for p, e in fac if m % p]
        if not targets:
            continue
        for T in admissible_matrices(field, m, n):
            at_p: dict[int, int] = {}
            off_p: dict[int, int] = {}
            for l, e in fac:
                at_p[l], off_p[l] = b_l_factors(field, T, l, e - 2 * ord_p(m, l))
            for p, e in targets:
                term = at_p[p]
                for l, v in off_p.items():
                    if l != p:
                        term *= v
                totals[p] = totals.get(p, 0) + (e + 1) * term
    return tuple(sorted(totals.items()))


def bm_p_product(field: CMFieldData, m: int, p: int) -> int | None:
    """b_m(p) from the product formula; None when the guards fail."""
    if m < 1 or not is_prime(p):
        raise InputError("need m >= 1 and p prime")
    if not is_squarefree(m) or gcd(m, 2 * field.D * field.dtilde * p) != 1:
        return None
    return dict(_route_b(field, m)).get(p, 0)


@lru_cache(maxsize=4096)
def bm_report(field: CMFieldData, m: int) -> BmReport:
    """Both routes for every support prime, cross-checked."""
    ra = _route_a(field, m)
    totals = dict(ra.totals)
    support = support_primes(field, m)
    if not ra.dyadic_relaxed:
        stray = {p for p, v in totals.items() if v and p not in support}
        if stray:
            raise InternalConsistencyError(
                f"nonzero multiplicity outside the support primes: {sorted(stray)}"
            )
    entries = []
    for p in support:
        a_val = totals.get(p, 0)
        b_val = bm_p_product(field, m, p)
        if b_val is not None and b_val != a_val:
            raise InternalConsistencyError(
                f"route disagreement at p={p}, m={m}: {a_val} (definition) vs {b_val} (product)"
            )
        entries.append(
            BmEntry(p, a_val, a_val, b_val, tuple((n, t) for q, n, t in ra.per_n if q == p))
        )
    return BmReport(field, m, tuple(entries), ra.flags)


def bm_full(field: CMFieldData, m: int) -> LogCombo:
    """b_m = Σ_p b_m(p)·log p with the opportunistic route cross-check."""
    rep = bm_report(field, m)
    return LogCombo.from_dict({e.p: e.b for e in rep.entries})


def intersection_number(field: CMFieldData, m: int) -> LogCombo:
    """The arithmetic intersection multiplicity, ½·b_m."""
    return bm_full(field, m).scaled(Fraction(1, 2))


def report_json_obj(rep: BmReport) -> dict:
    f = rep.field
    return {
        "D": f.D,
        "delta": {"x": f.delta.x, "y": f.delta.y, "den": f.delta.den},
        "mode": f.mode,
        "m": rep.m,
        "entries": [
            {
                "p": e.p,
                "b": e.b,
                "route_a": e.route_a,
                "route_b": "inapplicable" if e.route_b is None else e.route_b,
                "per_n": [{"n": n, "term": t} for n, t in e.per_n],
            }
            for e in rep.entries
        ],
        "flags": list(rep.flags),
    }

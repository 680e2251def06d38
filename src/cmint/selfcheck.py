"""The consistency checks of what the package computes, shared by `cmint selfcheck`
and the tests.

Each ``check_*`` function takes its scale, checks one invariant exactly over it
and returns the number of cases checked; a violation raises
`InternalConsistencyError`. Every check exercises code that a route, a command
or an application runs: route agreement, vanishing, the T-matrix laws, the
locked values of the worked and cyclotomic fields and the cache layout. `SUITES`
runs them at small scale behind `cmint selfcheck`, the tests at the scales the
README lists, and `run_suite` turns each outcome into a (name, ok, detail) row
instead of a crash.
"""

from __future__ import annotations

import json
import random
import tempfile
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import isqrt
from pathlib import Path

from . import cache
from .applications import (
    bad_reduction_primes,
    humbert_intersection,
    igusa_denominator_bounds,
)
from .bm import bm_full, bm_report, intersection_number, report_rows, route_b_applies
from .cmfield import CMFieldData, build_cm_field
from .errors import FieldRejected, InternalConsistencyError
from .numutil import primes_up_to
from .quadfield import QuadElem, QuadField
from .tmatrix import admissible_matrices


def enumerate_fields(D: int, dtilde_max: int, y_max: int = 3) -> list[CMFieldData]:
    """Strict Δ = (x + y√D)/den with den in {1,2}, 1 <= |y| <= y_max, D̃ <= dtilde_max."""
    F = QuadField(D)
    out = []
    for den in (1, 2):
        for y in range(-y_max, y_max + 1):
            if y == 0:
                continue
            xmax = isqrt(dtilde_max * den * den + y * y * D)
            for x in range(-xmax, 0):
                if den == 2 and ((x - y) % 2 or x % 2 == 0):
                    continue
                try:
                    out.append(build_cm_field(D, QuadElem(F, x, y, den)))
                except FieldRejected:
                    continue
    return out


def sweep_fields() -> list[CMFieldData]:
    """The 40 strict fields of the wide sweep: D ∈ {5, 13, 17}, D̃ <= 500, |y| <= 3."""
    return [f for D in (5, 13, 17) for f in enumerate_fields(D, 500)]


def worked_field() -> CMFieldData:
    """D = 5, Δ = (−13 + √5)/2, D̃ = 41."""
    return build_cm_field(5, QuadElem(QuadField(5), -13, 1, 2))


def cyclotomic_field() -> CMFieldData:
    """D = 5, Δ = (−5 − √5)/2: K is the 5th cyclotomic field, D̃ = 5."""
    return build_cm_field(5, QuadElem(QuadField(5), -5, -1, 2))


def sample_vanishing_fields(count: int, seed: int) -> list[CMFieldData]:
    """Random validated fields with D̃ <= 4D, so the vanishing range is nonempty."""
    rng = random.Random(seed)
    ds = [p for p in primes_up_to(400) if p % 4 == 1]
    out: list[CMFieldData] = []
    while len(out) < count:
        D = rng.choice(ds)
        y = rng.choice([1, 2, 3]) * rng.choice([1, -1])
        den = rng.choice([1, 2])
        x = -(isqrt(y * y * D) + rng.randint(1, 6))
        if den == 2 and (x - y) % 2:
            x -= 1
        mode = rng.choice(["strict", "permissive"])
        try:
            field = build_cm_field(D, QuadElem(QuadField(D), x, y, den), mode)
        except FieldRejected:
            continue
        if field.dtilde <= 4 * D:
            out.append(field)
    return out


def _locked(values: list[tuple[str, object, object]]) -> int:
    """Compare each (what, got, want); the number compared."""
    for what, got, want in values:
        if got != want:
            raise InternalConsistencyError(f"{what}: {got!r}, expected {want!r}")
    return len(values)


def check_route_agreement(fields: Iterable[CMFieldData], ms: Sequence[int]) -> int:
    """Routes A and B on every support prime, for each squarefree m in `ms` prime to 2DD̃.

    Route B must apply exactly when p ∤ m, and then equal route A; returns the
    number of primes compared.
    """
    compared = 0
    for field in fields:
        for m in ms:
            if not route_b_applies(field, m):
                continue
            for e in bm_report(field, m).entries:
                if (e.route_b is None) != (m % e.p == 0) or e.route_b not in (None, e.route_a):
                    raise InternalConsistencyError(
                        f"route disagreement at p={e.p}, m={m}, D={field.D}, "
                        f"delta={field.delta}: {e.route_a} (A) vs {e.route_b} (B)"
                    )
                compared += e.route_b is not None
    return compared


def check_vanishing(count: int, seed: int) -> int:
    """b_m = 0 for every m with m²D̃ <= 4D on `count` sampled fields; the number of m."""
    checked = 0
    for field in sample_vanishing_fields(count, seed):
        m = 1
        while m * m * field.dtilde <= 4 * field.D:
            if not bm_full(field, m).is_zero():
                raise InternalConsistencyError(f"b_{m} != 0 for D={field.D}, delta={field.delta}")
            checked += 1
            m += 1
    return checked


def check_tmatrix_laws(fields: Iterable[CMFieldData], m_max: int) -> int:
    """The laws of every T(m, n, μ) with m <= m_max; the number of matrices checked."""
    seen = 0
    for f in fields:
        D = f.D
        two_d0 = 2 * Fraction(f.delta.x, f.delta.den)
        two_d1 = 2 * Fraction(f.delta.y, f.delta.den)
        for m in range(1, m_max + 1):
            for n in range(1, isqrt(m * m * f.dtilde - 1) + 1):
                N = m * m * f.dtilde - n * n
                if N % D:
                    continue
                for T in admissible_matrices(f, m, n):  # raises if the sign rule fails
                    a, b, c = (Fraction(v, T.q) for v in T.num)
                    det = a * c - b * b
                    ok = (
                        a > 0
                        and det > 0
                        and det == Fraction(N, D * m * m)
                        # the defining congruences for half-integral coefficients
                        and 2 * T.mu * Fraction(n, m) - D * c == two_d0
                        and 2 * b + D * c == -two_d1
                        and all((m * v).denominator == 1 for v in (a, b, c))
                    )
                    if not ok:
                        raise InternalConsistencyError(
                            f"T = {T} at m={m}, n={n}, D={D}, delta={f.delta}"
                        )
                    seen += 1
    return seen


def check_worked_instance() -> int:
    """Every value locked for D = 5, Δ = (−13 + √5)/2 at m = 1; the number locked."""
    field = worked_field()
    rep = bm_report(field, 1)
    cert = bad_reduction_primes(field)
    entries = [(e.p, e.b, e.route_a, e.route_b, e.per_n) for e in rep.entries]
    return _locked([
        ("b_1 entries", entries, [(2, 2, 2, 2, ((-1, 2),))]),
        ("flags", rep.flags, ()),
        ("b_1", bm_full(field, 1).as_dict(), {2: Fraction(2)}),
        ("intersection number", intersection_number(field, 1).as_dict(), {2: Fraction(1)}),
        ("humbert intersection", humbert_intersection(field, 1).as_dict(), {2: Fraction(1)}),
        ("bad primes", cert.bad_primes, (2,)),
        ("certificate indices", cert.indices, (1,)),
        ("certificate per prime", cert.per_prime, ((2, 2),)),
        ("certificate bound", cert.bound, Fraction(205, 64)),
        ("igusa", igusa_denominator_bounds(field), {"A1": {2: 12}, "A2": {2: 8}, "A3": {2: 8}}),
    ])


def check_cyclotomic() -> int:
    """The locked values of the cyclotomic field for m <= 7; the number locked."""
    field = cyclotomic_field()
    rep7 = bm_report(field, 7)
    return _locked([
        ("unit count", field.w_k, 10),
        *((f"b_{m}", bm_full(field, m).as_dict(), {}) for m in (1, 2, 3)),
        ("b_4", bm_full(field, 4).as_dict(), {2: Fraction(4)}),
        ("b_5", bm_full(field, 5).as_dict(), {5: Fraction(2)}),
        ("b_6", bm_full(field, 6).as_dict(), {2: Fraction(8), 3: Fraction(4)}),
        ("b_7 entries", [(e.p, e.b, e.route_b) for e in rep7.entries], [(11, 0, 0)]),
    ])


# the cache file of the worked instance at m = 1: every byte of the v3 layout
WORKED_ROWS = (
    '{"D":5,"delta":{"x":-13,"y":1,"den":2},"mode":"strict","m":1,'
    '"flags":[],"entries":[[2,2,2,[-1,2]]]}'
)


def check_cache_roundtrip() -> int:
    """The worked report's rows are stored as the locked bytes and read back
    equal; `{}` and a file of v2-shaped entry objects are misses."""
    rows = report_rows(worked_field(), 1)
    head = {k: rows[k] for k in ("D", "delta", "mode", "m")}
    v2_entry = {"p": 2, "b": 2, "route_a": 2, "route_b": 2, "per_n": [{"n": -1, "term": 2}]}
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        path = cache.report_path(base, head)
        cache.write(base, rows)
        cache.write(base, rows)  # a rewrite overwrites the file in place
        stored = path.read_text()
        back = cache.read(base, head)
        path.write_text("{}")
        empty = cache.read(base, head)
        path.write_text(json.dumps({**rows, "entries": [v2_entry]}))
        old_shape = cache.read(base, head)
    return _locked([
        ("stored rows", stored, WORKED_ROWS),
        ("cached report", back, rows),
        ("a file that holds no report", empty, None),
        ("a file of v2 entry objects", old_shape, None),
    ])


_SMALL = (
    ("worked-instance", check_worked_instance),
    ("cyclotomic-vanishing", check_cyclotomic),
    ("t-matrix-laws", lambda: check_tmatrix_laws((cyclotomic_field(), worked_field()), 6)),
    ("route-agreement", lambda: check_route_agreement(enumerate_fields(5, 100, 2), range(1, 12))),
    ("cache-roundtrip", check_cache_roundtrip),
)

SUITES = {
    "small": _SMALL,
    "full": _SMALL + (
        ("route-agreement-wide", lambda: check_route_agreement(sweep_fields(), range(1, 31))),
        ("vanishing-range", lambda: check_vanishing(100, seed=7)),
    ),
}


def run_suite(suite: str) -> list[tuple[str, bool, str]]:
    results = []
    for name, check in SUITES[suite]:
        try:
            check()
            detail = ""
        except Exception as exc:  # a selfcheck reports failures, never crashes
            detail = f"{type(exc).__name__}: {exc}"
        results.append((name, detail == "", detail))
    return results

"""Built-in consistency suites behind the `cmint selfcheck` command."""

from __future__ import annotations

import json
import random
import tempfile
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

from . import cache
from .applications import (
    bad_reduction_primes,
    humbert_intersection,
    igusa_denominator_bounds,
)
from .bm import bm_full, bm_report, intersection_number, report_json_obj
from .cmfield import CMFieldData, build_cm_field
from .errors import FieldRejected
from .numutil import is_squarefree, prime_factors, primes_up_to
from .padic import hensel_sqrt, hilbert
from .quadfield import QuadElem, QuadField
from .tmatrix import mu_candidates, t_matrix


def enumerate_fields(
    D: int, dtilde_max: int, y_max: int = 3, mode: str = "strict"
) -> list[CMFieldData]:
    """Accepted Δ = (x + y√D)/den with den in {1,2}, 1 <= |y| <= y_max, D̃ <= dtilde_max."""
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
                    out.append(build_cm_field(D, QuadElem(F, x, y, den), mode))
                except FieldRejected:
                    continue
    return out


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


def _check_hilbert_product() -> str:
    rng = random.Random(20260817)
    for _ in range(300):
        a = rng.randint(-60, 60)
        b = rng.randint(-60, 60)
        if a == 0 or b == 0:
            continue
        prod = hilbert(a, b, "infinity")
        for l in {2, *prime_factors(abs(a)), *prime_factors(abs(b))}:
            prod *= hilbert(a, b, l)
        if prod != 1:
            return f"product formula fails at a={a}, b={b}"
    return ""


def _check_hensel() -> str:
    for l in primes_up_to(13):
        for k in range(1, 7):
            mod = l**k
            for a in range(1, min(mod, 200)):
                if a % l == 0:
                    continue
                r = hensel_sqrt(a, l, k)
                if r is not None:
                    if (r * r - a) % mod:
                        return f"bad root for a={a}, l={l}, k={k}"
                elif mod <= 2048 and any((x * x - a) % mod == 0 for x in range(mod)):
                    return f"missed root for a={a}, l={l}, k={k}"
                nxt = hensel_sqrt(a, l, k + 1)
                stable = mod if l % 2 else mod // 2
                if r is not None and nxt is not None and (nxt - r) % stable:
                    return f"unstable lift for a={a}, l={l}, k={k}"
    return ""


def _check_worked_instance() -> str:
    field = build_cm_field(5, QuadElem(QuadField(5), -13, 1, 2))
    rep = bm_report(field, 1)
    got = {e.p: e.b for e in rep.entries}
    if got != {2: 2}:
        return f"b_1 entries {got}"
    if [e.route_b for e in rep.entries] != [2]:
        return "product route differs"
    if intersection_number(field, 1).as_dict() != {2: Fraction(1)}:
        return "intersection number"
    if humbert_intersection(field, 1).as_dict() != {2: Fraction(1)}:
        return "humbert intersection"
    cert = bad_reduction_primes(field)
    if cert.bad_primes != (2,) or cert.bound != Fraction(205, 64):
        return "bad reduction certificate"
    ig = igusa_denominator_bounds(field)
    if ig != {"A1": {2: 12}, "A2": {2: 8}, "A3": {2: 8}}:
        return f"denominator bounds {ig}"
    return ""


def _check_cyclotomic() -> str:
    field = build_cm_field(5, QuadElem(QuadField(5), -5, -1, 2))
    if field.w_k != 10:
        return f"unit count {field.w_k}"
    for m in range(1, 4):
        if not bm_full(field, m).is_zero():
            return f"b_{m} nonzero"
    return ""


def _check_tmatrix() -> str:
    for dx, dy in ((-5, -1), (-13, 1)):
        field = build_cm_field(5, QuadElem(QuadField(5), dx, dy, 2))
        for m in range(1, 7):
            for n in range(1, isqrt(m * m * field.dtilde - 1) + 1):
                if (m * m * field.dtilde - n * n) % field.D:
                    continue
                mus = mu_candidates(field, m, n)
                if len(mus) != (2 if n % field.D == 0 else 1):
                    return f"mu count {len(mus)} at m={m}, n={n}"
                for mu in mus:
                    T = t_matrix(field, m, n, mu)
                    if T is None or T.a <= 0 or T.det <= 0:
                        return f"bad matrix at m={m}, n={n}, mu={mu}"
    return ""


def _route_sweep(d_list, dtilde_max: int, m_max: int, y_max: int) -> str:
    for D in d_list:
        for field in enumerate_fields(D, dtilde_max, y_max=y_max):
            for m in range(1, m_max + 1):
                if is_squarefree(m) and gcd(m, 2 * D * field.dtilde) == 1:
                    bm_report(field, m)  # raises on any route disagreement
    return ""


def _check_routes_small() -> str:
    return _route_sweep((5,), 100, 11, 2)


def _check_routes_full() -> str:
    return _route_sweep((5, 13, 17), 500, 30, 3)


def _check_vanishing(count: int) -> str:
    for field in sample_vanishing_fields(count, seed=7):
        m = 1
        while m * m * field.dtilde <= 4 * field.D:
            if not bm_full(field, m).is_zero():
                return f"b_{m} nonzero for D={field.D}, delta={field.delta}"
            m += 1
    return ""


def _check_cache_roundtrip() -> str:
    field = build_cm_field(5, QuadElem(QuadField(5), -13, 1, 2))
    obj = report_json_obj(bm_report(field, 1))
    head = {k: obj[k] for k in ("D", "delta", "mode", "m")}
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        cache.write(base, obj)
        cache.write(base, obj)  # a rewrite overwrites the file in place
        back = cache.read(base, head)
        cache.report_path(base, head).write_text("{}")
        foreign = cache.read(base, head)
    if json.dumps(back, sort_keys=True) != json.dumps(obj, sort_keys=True):
        return "cached report is not byte-identical"
    if foreign is not None:
        return "a file that holds no report counted as a hit"
    return ""


_SMALL = (
    ("hilbert-product-formula", _check_hilbert_product),
    ("hensel-roundtrip", _check_hensel),
    ("worked-instance", _check_worked_instance),
    ("cyclotomic-vanishing", _check_cyclotomic),
    ("t-matrix-laws", _check_tmatrix),
    ("route-agreement", _check_routes_small),
    ("cache-roundtrip", _check_cache_roundtrip),
)

_FULL = _SMALL + (
    ("route-agreement-wide", _check_routes_full),
    ("vanishing-range", lambda: _check_vanishing(100)),
)


def run_suite(suite: str) -> list[tuple[str, bool, str]]:
    checks = _SMALL if suite == "small" else _FULL
    results = []
    for name, fn in checks:
        try:
            detail = fn()
        except Exception as exc:  # a selfcheck reports failures, never crashes
            detail = f"{type(exc).__name__}: {exc}"
        results.append((name, detail == "", detail))
    return results

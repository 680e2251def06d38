import gc
import inspect
import random
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, prod

import pytest

from cmint import bm, numutil
from cmint.bm import (
    _factor_table,
    _roots_mod,
    _route_a,
    _route_b,
    bm_full,
    field_header,
    intersection_number,
    report_json_obj,
    report_rows,
    route_b_applies,
)
from cmint.cmfield import (
    CMFieldData,
    _square_class_kind,
    build_cm_field,
    classify_in_reflex_cm,
    rho,
    spot_kinds,
)
from cmint.errors import InputError, InternalConsistencyError
from cmint.localdensity import b_l_factors
from cmint.numutil import (
    factorize,
    is_prime,
    is_squarefree,
    kronecker,
    ord_p,
    prime_factors,
    primes_up_to,
)
from cmint.quadfield import QuadElem, QuadField, ord_at, split_ord, splitting
from cmint.selfcheck import (
    check_cyclotomic,
    check_route_agreement,
    check_vanishing,
    cyclotomic_field,
    enumerate_fields,
    random_fields,
    sweep_fields,
    worked_field,
)
from cmint.tmatrix import admissible_matrices
from padic_reference import hensel_sqrt

F5 = QuadField(5)


def table_of(field, m):
    """The m's factor table at div = 4D, as `report_rows` hands it to the routes."""
    return _factor_table(m * m * field.dtilde, 4 * field.D)


def test_worked_instance():
    # route A itself has nothing at a prime outside the support
    f = worked_field()
    assert _route_a(f, 1, table_of(f, 1)) == ({2: [(-1, 2)]}, ())


def test_report_rows_shape():
    # the cache's layout: the head, the flags, then [p, b, route_b, flat per_n] rows
    rows = report_rows(worked_field(), 1)
    assert list(rows) == ["D", "delta", "mode", "m", "flags", "entries"]
    assert rows["entries"] == [[2, 2, 2, [-1, 2]]] and rows["flags"] == []
    f13 = build_cm_field(13, QuadElem(QuadField(13), -21, -2, 1))
    rows = report_rows(f13, 9)
    assert any(r[2] is None for r in rows["entries"])
    # b is route (a)'s value: the sum of the terms beside it
    assert all(sum(flat[1::2]) == b for _, b, _, flat in rows["entries"])


def test_report_json_shape():
    obj = report_json_obj(report_rows(worked_field(), 1))
    assert obj["D"] == 5 and obj["m"] == 1 and obj["mode"] == "strict"
    assert obj["delta"] == {"x": -13, "y": 1, "den": 2}
    assert obj["entries"] == [
        {"p": 2, "b": 2, "route_a": 2, "route_b": 2, "per_n": [{"n": -1, "term": 2}]}
    ]
    assert obj["flags"] == []


def test_product_route_guards():
    f = worked_field()  # D = 5, D̃ = 41
    # m not squarefree, or sharing a factor with 2DD̃: route B is off for every p
    for m in (12, 2, 41):
        entries = report_rows(f, m)["entries"]
        assert entries and all(route_b is None for _, _, route_b, _ in entries), m
    # p | m: off at that p only
    entries = {p: (b, route_b) for p, b, route_b, _ in report_rows(f, 3)["entries"]}
    assert entries[3][1] is None
    assert all(route_b == b for p, (b, route_b) in entries.items() if p != 3)
    with pytest.raises(InputError):
        report_rows(f, 0)


def test_cyclotomic_values():
    assert check_cyclotomic() == 8


def test_deep_product_cases_agree():
    # m = 33 exercises the split-completely factor 4 (Q = 121 at n = 55), m = 143 the
    # positive-exponent split case (Q = 11³ at n = 275), and D̃ = 61 at m = 3 the
    # inert case with t = 1 (Q = 27 at n = 3)
    assert check_route_agreement([cyclotomic_field()], (33, 143)) > 0
    assert check_route_agreement([build_cm_field(5, QuadElem(F5, -9, 2, 1))], (3,)) > 0


def test_route_agreement_on_random_fields():
    # 200 seeded fields, strict and permissive alike, with D below 120: the
    # draw gives 135 permissive fields and 44,236 compared primes, and the
    # floors keep a change to it from shrinking it unseen
    fields = list(islice(random_fields(34, 120, 40), 200))
    assert sum(f.mode == "permissive" for f in fields) >= 120
    assert check_route_agreement(fields, range(1, 41)) >= 40000


def support(field, m):
    """The support primes of m: the p column of its report rows."""
    return tuple(p for p, *_ in report_rows(field, m)["entries"])


def per_p_product(field, m, p):
    """b_m(p) by the product formula, rescanning every n for the one prime p."""
    m2dt = m * m * field.dtilde
    total = 0
    for n in range(1, isqrt(m2dt - 1) + 1):
        big_n = m2dt - n * n
        if big_n % (4 * field.D):
            continue
        quot = big_n // (4 * field.D)
        if quot % p:
            continue
        mu_sum = 0
        for T in admissible_matrices(field, m, n):
            prod = 1
            for l in prime_factors(quot):
                t_l = ord_p(quot, l) - 2 * ord_p(m, l)
                prod *= b_l_factors(field, T, l, t_l)[0 if l == p else 1]
            mu_sum += prod
        total += (ord_p(quot, p) + 1) * mu_sum
    return total


def test_one_pass_route_matches_per_prime_loop():
    cases = [(f, m) for f in sweep_fields()[::5] for m in range(1, 31)]
    z = cyclotomic_field()
    cases += [(z, 33), (z, 143), (build_cm_field(5, QuadElem(F5, -9, 2, 1)), 3)]
    compared = nonzero = 0
    for f, m in cases:
        if not is_squarefree(m) or gcd(m, 2 * f.D * f.dtilde) != 1:
            continue
        totals = _route_b(f, m, table_of(f, m))
        for p in support(f, m) + (101,):
            if m % p == 0:
                assert p not in totals
                continue
            want = per_p_product(f, m, p)
            assert totals.get(p, 0) == want, (f.D, f.delta, m, p)
            compared += 1
            nonzero += want != 0
    assert compared >= 300 and nonzero >= 100


def per_p_route_b(field, m, table, branches):
    """Route B with the product over l ≠ p taken again for each target p.

    Adds to `branches` the number of matrices T by how many of their factors
    at l ≠ p are zero: 0, 1 or 2 (for two or more).
    """
    totals = {}
    for n, fac in table.items():
        targets = [(p, e) for p, e in fac if m % p]
        if n == 0 or not targets:
            continue
        t_ls = [(l, e if m % l else e - 2) for l, e in fac]
        for T in admissible_matrices(field, m, n):
            at_p, off_p = {}, {}
            for l, t_l in t_ls:
                at_p[l], off_p[l] = b_l_factors(field, T, l, t_l)
            branches[min(2, sum(v == 0 for v in off_p.values()))] += 1
            for p, e in targets:
                term = at_p[p]
                for l, v in off_p.items():
                    if l != p:
                        term *= v
                totals[p] = totals.get(p, 0) + (e + 1) * term
    return totals


def test_route_b_matches_per_p_product():
    # one product per T, its zeros counted apart, against the product over
    # l ≠ p for each target p; a zero total may be left out of route B's dict
    f13 = build_cm_field(13, QuadElem(QuadField(13), -21, -2, 1))
    cases = [(f, m) for f in sweep_fields() for m in range(1, 31)]
    cases += [(f13, m) for m in range(1, 101)]
    branches = Counter()
    compared = nonzero = 0
    for f, m in cases:
        if not route_b_applies(f, m):
            continue
        table = table_of(f, m)
        want = {p: v for p, v in per_p_route_b(f, m, table, branches).items() if v}
        got = {p: v for p, v in _route_b(f, m, table).items() if v}
        assert got == want, (f.D, f.delta, m)
        compared += 1
        nonzero += len(want)
    assert compared == 451 and nonzero == 3167
    # matrices with 0, 1 and ≥ 2 zero factors at l ≠ p: 3,308, 5,282 and 2,495
    assert min(branches[k] for k in (0, 1, 2)) >= 2000, branches


def test_support_primes():
    f = worked_field()
    assert support(f, 1) == (2,)
    assert support(f, 2) == (2, 5)
    assert support(f, 3) == (2, 3, 5)
    z = cyclotomic_field()
    assert support(z, 3) == ()
    assert support(z, 7) == (11,)
    for fn in (report_rows, bm_full, intersection_number):
        for m in (0, -1):
            with pytest.raises(InputError):
                fn(f, m)


def test_dropped_reports_are_freed():
    # report_rows keeps no memo, so rows their caller drops do not stay alive
    f = worked_field()
    head = field_header(f)

    def held():
        """The m <= 6 of every rows dict of `f` still alive."""
        return sorted(
            o["m"]
            for o in gc.get_objects()
            if type(o) is dict and "entries" in o and o.get("m", 7) <= 6
            and {k: o.get(k) for k in head} == head
        )

    kept = report_rows(f, 6)  # the search finds rows that are still held
    for m in range(1, 6):
        report_rows(f, m)
    gc.collect()
    assert held() == [kept["m"]]


def test_nonzero_needs_support():
    rng = random.Random(23)
    for f in enumerate_fields(5, 150) + enumerate_fields(13, 300):
        for m in rng.sample(range(1, 12), 4):
            table = table_of(f, m)
            sup = {p for fac in table.values() for p, _ in fac}
            coeffs = bm_full(f, m).as_dict()
            assert set(coeffs) <= sup
            terms = _route_a(f, m, table)[0]
            for p in sorted(sup):
                assert sum(t for _, t in terms.get(p, ())) == int(coeffs.get(p, 0))


def test_vanishing_range():
    assert check_vanishing(60, seed=29) >= 60


def test_no_dual_membership_flags_in_strict_sweep():
    for f in enumerate_fields(5, 200, y_max=2):
        for m in range(1, 10):
            assert report_rows(f, m)["flags"] == []


def test_permissive_field_values():
    f = build_cm_field(5, QuadElem(F5, -25, -3, 2), mode="permissive")
    assert f.dtilde == 145
    rows = report_rows(f, 1)
    assert [row[:3] for row in rows["entries"]] == [[2, 4, 4], [3, 4, 4]]
    assert intersection_number(f, 1).as_dict() == {2: Fraction(2), 3: Fraction(2)}


def per_spot_route_a(field, m):
    """Route A spot by spot: every signed n, ord_at at every spot, cmfield.rho.

    Returns what `_route_a` does: each prime's (n, term) pairs in scan order
    and the flags.
    """
    D, Ft = field.D, field.reflex
    rel = dict(field.rel_diff)
    m2dt = m * m * field.dtilde
    nmax = isqrt(m2dt - 1)
    terms, passing = {}, {}
    for n in range(-nmax, nmax + 1):
        big_n = m2dt - n * n
        if big_n % (4 * D):
            continue
        e = QuadElem(Ft, n, m, 1)
        vec = {}
        ok = True
        for l in sorted(set(prime_factors(big_n)) | {2, D}):
            for spot in splitting(Ft, l):
                exp = ord_at(e, spot) - ord_p(2 * D, l) * spot.e + rel.get(spot, 0)
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
            if classify_in_reflex_cm(field, spot) == "split":
                continue
            adj = dict(vec)
            adj[spot] = exp - 1
            r = rho(field, tuple(adj.items()))
            if r == 0:
                continue
            terms.setdefault(spot.l, []).append((n, (exp - rel.get(spot, 0) + 1) * r * spot.f))
    flags = tuple(
        f"dual-membership:|n|={k}" for k in sorted(passing) if k % D and len(passing[k]) == 2
    )
    return terms, flags


def shared_split_factors(field, m):
    """Count the (n, l) of the scan with l an odd prime split in F̃ dividing n and m."""
    count = 0
    m2dt = m * m * field.dtilde
    nmax = isqrt(m2dt - 1)
    for n in range(-nmax, nmax + 1):
        if (m2dt - n * n) % (4 * field.D):
            continue
        for l in prime_factors(gcd(n, m)):
            if l > 2 and splitting(field.reflex, l)[0].kind == "split":
                count += 1
    return count


def test_route_a_matches_per_spot_scan():
    # D splits in F̃ on 34 strict fields, where the scan walks one class of n mod D
    # unless D | m; D ramifies on the other six (D̃ = D) and on the permissive
    # fields (D | D̃ = 145, 221), where every n is checked at D
    fields = sweep_fields()
    assert any(f.dtilde % 8 == 1 for f in fields)  # split spots over 2
    fields.append(build_cm_field(5, QuadElem(F5, -25, -3, 2), mode="permissive"))
    fields.append(build_cm_field(17, QuadElem(QuadField(17), -17, -2), mode="permissive"))
    assert [f.dtilde for f in fields[-2:]] == [145, 221]
    split_at_d = shared = nonzero = 0
    for f in fields:
        split_at_d += splitting(f.reflex, f.D)[0].kind == "split"
        for m in range(1, 31):
            want = per_spot_route_a(f, m)
            assert _route_a(f, m, table_of(f, m)) == want, (f.D, f.delta, f.mode, m)
            nonzero += bool(want[0])
            shared += shared_split_factors(f, m)
    assert split_at_d == 34 and nonzero >= 700 and shared >= 9000


def test_route_a_matches_per_spot_scan_with_the_different_moved_at_d():
    # every built field has one spot over D in the different when D splits, so
    # the different is rewritten by hand: with both spots in it every n is
    # checked at D, with neither no n can pass unless D | m
    f = worked_field()
    spots = splitting(f.reflex, f.D)
    rest = tuple((s, e) for s, e in f.rel_diff if s.l != f.D)
    nonzero = 0
    for at_d, empty in ((((spots[0], 1), (spots[1], 1)), False), ((), True)):
        g = CMFieldData(f.D, f.delta, f.dtilde, f.delta_tilde, rest + at_d, f.w_k, f.mode)
        for m in range(1, 13):
            want = per_spot_route_a(g, m)
            assert _route_a(g, m, table_of(g, m)) == want, (at_d, m)
            if empty and m % f.D:
                assert want[0] == {}
            nonzero += bool(want[0])
    assert nonzero >= 6


def test_route_a_walks_one_class_at_d(monkeypatch):
    # on the benchmark field one spot over D = 13 has a negative shift, so only
    # the n in its class mod 13 reach the check at 13, and they all pass it;
    # walking every admissible n made 14,771 checks there over m <= 100
    f = build_cm_field(13, QuadElem(QuadField(13), -21, -2))
    real = bm._spot_exps
    checks = passed = 0

    def counting(vec, n, m, l, vl, rows):
        nonlocal checks, passed
        ok = real(vec, n, m, l, vl, rows)
        if l == 13:
            checks += 1
            passed += ok
        return ok

    monkeypatch.setattr(bm, "_spot_exps", counting)
    for m in range(1, 101):
        _route_a(f, m, table_of(f, m))
    assert passed == 7662 and passed <= checks < 14771


def test_route_a_matches_per_spot_scan_on_the_benchmark_field():
    # D = 13 splits in F̃ = Q(√389) and one spot over it is in the different, so
    # membership at 13 decides most n; 13 | m and 169 | m take the l | m branch there
    shared = 0
    for y in (-2, 2):
        f = build_cm_field(13, QuadElem(QuadField(13), -21, y, 1))
        assert f.dtilde == 389 and splitting(f.reflex, 13)[0].kind == "split"
        for m in list(range(1, 101)) + [169, 338]:
            assert _route_a(f, m, table_of(f, m)) == per_spot_route_a(f, m), (y, m)
            shared += shared_split_factors(f, m)
    assert shared >= 500


def test_unit_spot_kind_matches_spot_kinds(monkeypatch):
    # every (n, l) that route A classifies with one symbol gets the row that
    # `spot_kinds` has for the spot where `split_ord` puts n + m√D̃: that kind,
    # exponent v_l, no different and f = 1; the primes of m, of D̃ and the odd
    # ones of norm(Δ̃) other than D keep the rows, and the runs meet each class
    real_kind, real_exps = bm._unit_spot_kind, bm._spot_exps
    f = norm = None
    symbol, general = 0, Counter()

    def kind(x, y, n, m, l):
        nonlocal symbol
        got = real_kind(x, y, n, m, l)
        assert l > 2 and 2 * f.D * m * f.dtilde * norm % l
        vl = ord_p(m * m * f.dtilde - n * n, l)
        rows = spot_kinds(f, l)
        exps = [(k, split_ord(n, m, s, vl) + shift, rel, fs) for s, k, _, shift, rel, fs, _ in rows]
        assert [e for e in exps if e[1]] == [(got, vl, 0, 1)], (f.dtilde, m, n, l)
        symbol += 1
        return got

    def spot_exps(vec, n, m, l, vl, rows):
        if l not in (2, f.D):
            cls = [c for c, v in (("m", m), ("dtilde", f.dtilde), ("norm", norm)) if v % l == 0]
            assert cls, (f.dtilde, m, n, l)
            general.update(cls)
        return real_exps(vec, n, m, l, vl, rows)

    monkeypatch.setattr(bm, "_unit_spot_kind", kind)
    monkeypatch.setattr(bm, "_spot_exps", spot_exps)
    bench = build_cm_field(13, QuadElem(QuadField(13), -21, -2))
    runs = [(g, range(1, 31)) for g in sweep_fields()] + [(bench, range(1, 101))]
    for f, ms in runs:
        x, y = f.delta_tilde.x, f.delta_tilde.y
        norm = x * x - y * y * f.dtilde
        for m in ms:
            _route_a(f, m, table_of(f, m))
    assert symbol >= 40000 and min(general[c] for c in ("m", "dtilde", "norm")) >= 200, general


def dyadic_bases():
    """A sweep field where 2 splits in F̃ and one where it is inert."""
    return [next(f for f in sweep_fields() if f.dtilde % 8 == r) for r in (1, 5)]


def test_different_off_d_is_refused():
    # the different of a built field lies over D; a hand-built one with a spot
    # over 2 is refused rather than scanned with membership at 4D
    for f in dyadic_bases():
        for spot in splitting(f.reflex, 2):
            g = CMFieldData(
                f.D, f.delta, f.dtilde, f.delta_tilde,
                f.rel_diff + ((spot, 1),), f.w_k, f.mode,
            )
            for m in (1, 2):
                with pytest.raises(InputError, match="must lie over D"):
                    report_rows(g, m)


def reference_split(x: int, y: int, den: int, spot) -> tuple[int, int, str]:
    """(v of x + y√d, v of the element (x + y√d)/den, its square class) at a
    split spot, from the image x + y·r mod l^k, r the lifted root of the spot."""
    l, dt = spot.l, spot.disc
    k = ord_p(x * x - y * y * dt, l) + 4  # past the image's valuation, with its unit mod 8
    h = hensel_sqrt(dt, l, k)
    r = h if (h - spot.label) % (4 if l == 2 else l) == 0 else l**k - h
    img = (x + y * r) % l**k
    e = ord_p(img, l)
    v = e - ord_p(den, l)
    u = img // l**e
    if v % 2:
        kind = "ramified"
    elif l == 2:
        kind = {1: "split", 5: "inert"}.get(u % 8, "ramified")
    else:
        kind = "split" if kronecker(u * den, l) == 1 else "inert"
    return e, v, kind


def test_split_ord_matches_ord_at():
    # the label rule against the lifted embedding, at every split spot over
    # l < 60 (2 included) of fields where 2 splits, with D̃ in each class mod
    # 32 that 2 splitting allows, and of fields where it does not
    rng = random.Random(41)
    checked, dyadic, half, shared, zero, deep, rest = 0, 0, 0, 0, 0, 0, 0
    kinds = Counter()
    for dt in (5, 13, 17, 41, 97, 145, 389, 409, 421):
        F = QuadField(dt)
        for l in primes_up_to(60):
            spots = splitting(F, l)
            if spots[0].kind != "split":
                continue
            for _ in range(50):
                g = rng.choice((0, 0, 1, 2))
                y = rng.randint(-40, 40)
                if rng.randrange(2):  # x + y√d deep in one spot over l
                    j = rng.randint(1, 4)
                    h = hensel_sqrt(dt, l, j + 1) % l**j
                    x = -y * h % l**j + l**j * rng.randint(-3, 3)
                else:
                    x = rng.randint(-40, 40) if rng.randrange(8) else 0  # route A's n = 0
                x, y = x * l**g, y * l**g
                if x == y == 0:
                    continue
                den = 2 if (x - y) % 2 == 0 and rng.randrange(3) else 1
                e = QuadElem(F, x, y, den)
                vn = ord_p(e.x * e.x - e.y * e.y * dt, l)
                for spot in spots:
                    v_num, v, kind = reference_split(e.x, e.y, e.den, spot)
                    case = (dt, l, e, spot)
                    assert split_ord(e.x, e.y, spot, vn) == v_num, case
                    assert ord_at(e, spot) == v, case
                    assert _square_class_kind(e, spot) == kind, case
                    checked += 1
                    dyadic += l == 2
                    half += e.den == 2
                    shared += e.x % l == e.y % l == 0
                    zero += e.x == 0
                    deep += v_num >= 3
                    rest += 2 * v_num > vn  # the unit comes from the other image
                    kinds[kind] += 1
    assert checked >= 5500 and dyadic >= 400 and half >= 800, (checked, dyadic, half)
    assert shared >= 2800 and deep >= 1100 and rest >= 1500, (shared, deep, rest)
    assert zero >= 300 and min(kinds.values()) >= 1700, (zero, kinds)


def test_roots_mod_matches_filter():
    # div = 2^k·q, k <= 2 and q 1 or an odd prime: the roots mod q come from a
    # square root, not a scan, so a 13-digit q costs no more than a small one
    rng = random.Random(43)
    for div in (1, 2, 5, 13, 20, 52, 68, 4 * 389, 4 * 1009):
        q = div // (div & -div)
        for m2dt in [rng.randint(1, 10**7) for _ in range(40)] + [q * rng.randint(1, 10**4)]:
            want = [r for r in range(div) if (m2dt - r * r) % div == 0]
            assert _roots_mod(m2dt, div) == want, (m2dt, div)
    # past a scan of all residues, the roots are checked on windows of n
    for div in (4 * 1_000_033, 4 * 1_000_000_000_061):
        for _ in range(100):
            m2dt = rng.randint(1, 10**7)
            if rng.random() < 0.75:
                # plant a root n in -3000..9000, where the windows lie
                m2dt = rng.randint(-3000, 9000) ** 2 + div * rng.randint(1, 10**6)
            roots = _roots_mod(m2dt, div)
            assert roots == sorted(set(roots)) and all(0 <= r < div for r in roots)
            lo = rng.randint(-3000, 3000)
            hi = lo + rng.randint(-2, 6000)
            want = [n for n in range(lo, hi + 1) if (m2dt - n * n) % div == 0]
            assert [n for n in range(lo, hi + 1) if n % div in roots] == want, (m2dt, div, lo)
    # q | m2dt: the one root mod q is 0
    for q in (1_000_033, 1_000_000_000_061):
        for m2dt, lo, count in ((28 * q, -50, 1), (q * (q + 4), q - 50, 1), (3 * q, -50, 0)):
            roots = _roots_mod(m2dt, 4 * q)
            want = [n for n in range(lo, lo + 101) if (m2dt - n * n) % (4 * q) == 0]
            assert len(want) == count
            assert [n for n in range(lo, lo + 101) if n % (4 * q) in roots] == want


def assert_table_is_factorize(m2dt, div):
    table = _factor_table(m2dt, div)
    assert list(table) == [n for n in range(isqrt(m2dt - 1) + 1) if (m2dt - n * n) % div == 0]
    for n, fac in table.items():
        assert fac == factorize((m2dt - n * n) // div), (m2dt, div, n)
    return len(table)


def test_factor_table_matches_factorize():
    # div = 4D, as the routes read it, and div = D, on the benchmark field
    # (D̃ = 389, so the sieve meets l | m²D̃ at l | m and l = 389) and on a field
    # where 2 splits in F̃ and one where it is inert
    checked = 0
    f = build_cm_field(13, QuadElem(QuadField(13), -21, -2, 1))
    for m in range(1, 301):
        for div in (4 * f.D, f.D):
            checked += assert_table_is_factorize(m * m * f.dtilde, div)
    for f in dyadic_bases():
        for m in range(1, 13):
            for div in (4 * f.D, f.D):
                checked += assert_table_is_factorize(m * m * f.dtilde, div)
    assert checked > 190_000


def test_factor_table_past_the_sieve_limit(monkeypatch):
    # the largest quotient exceeds 100,000², so the sieve stops at 100,000 and a
    # cofactor with two larger prime factors goes straight to Pollard rho, with
    # no second trial division by factorize; n = 0 has one
    p1, p2 = 100_003, 100_019
    div = 4 * 10_009
    m2dt = div * p1 * p2
    calls = []
    monkeypatch.setattr(numutil, "factorize", lambda n: calls.append(n) or factorize(n))
    table = _factor_table(m2dt, div)
    assert table[0] == ((p1, 1), (p2, 1)) and calls == []
    assert len(table) > 500
    for n, fac in table.items():
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})
        assert all(e > 0 and is_prime(p) for p, e in fac)
        assert prod(p**e for p, e in fac) == (m2dt - n * n) // div, n


def test_factor_table_matches_sympy_at_large_m():
    sympy = pytest.importorskip("sympy")
    m2dt = 3001 * 3001 * 389
    table = _factor_table(m2dt, 52)
    sample = list(table.items())[::80]
    assert len(sample) > 50
    for n, fac in sample:
        assert dict(fac) == sympy.factorint((m2dt - n * n) // 52), n


def test_reports_send_no_quotient_to_factorize(monkeypatch):
    # the three scans read the per-m table; only is_squarefree(m) reaches factorize
    f = build_cm_field(13, QuadElem(QuadField(13), -21, -2, 1))
    ms = range(1, 31)
    seen = []

    def recording(n):
        seen.append(n)
        return factorize(n)

    monkeypatch.setattr(numutil, "factorize", recording)
    for m in ms:
        report_rows(f, m)
    assert seen and set(seen) <= set(ms)
    quotients = {
        (m * m * f.dtilde - n * n) // (4 * f.D)
        for m in ms
        for n in range(isqrt(m * m * f.dtilde - 1) + 1)
        if (m * m * f.dtilde - n * n) % (4 * f.D) == 0
    } - set(ms)
    assert len(quotients) > 500 and not quotients & set(seen)


def test_one_factor_table_per_report(monkeypatch):
    # report_rows builds the m's table once for route A, the support primes and
    # route B, and route A builds none of its own
    calls = []
    real = bm._factor_table

    def counting(m2dt, div):
        calls.append(div)
        return real(m2dt, div)

    monkeypatch.setattr(bm, "_factor_table", counting)
    f = build_cm_field(13, QuadElem(QuadField(13), -21, -2, 1))
    assert f.dtilde == 389
    for m in (1, 2, 7, 30):  # route B applies at 1 and 7
        calls.clear()
        report_rows(f, m)
        assert calls == [4 * f.D], m


def code_names(code):
    """Global and attribute names a code object and its nested code objects use."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= code_names(const)
    return names


# the names each route must not reach, as in test_routes_stay_independent
ROUTE_A_FORBIDDEN = {"_route_b", "b_l_factors", "admissible_matrices", "t_matrix", "alpha_l"}
ROUTE_B_FORBIDDEN = {"_route_a", "ord_at", "rho", "splitting"}


def bm_helpers(fn):
    """The cmint.bm functions that fn calls, directly or through one another, by name."""
    found = {}
    todo = [inspect.unwrap(fn).__code__]
    while todo:
        for name in code_names(todo.pop()) - found.keys():
            helper = getattr(bm, name, None)
            if not callable(helper):
                continue
            helper = inspect.unwrap(helper)
            if inspect.isfunction(helper) and helper.__module__ == bm.__name__:
                found[name] = helper.__code__
                todo.append(helper.__code__)
    return found


def test_route_helpers_stay_independent():
    # a route's loop moved into a helper stays under the same rule; route A
    # reads the table it is handed, so it reaches no `_roots_mod`, and
    # classifies the spots of a unit there with `_unit_spot_kind`
    a = bm_helpers(bm._route_a)
    assert a.keys() == {"_candidate_n", "_spot_exps", "_unit_spot_kind"}
    for name, code in a.items():
        assert not code_names(code) & ROUTE_A_FORBIDDEN, name
    # route B reads the table it is handed, so it reaches no helper of cmint.bm
    b = bm_helpers(bm._route_b)
    assert "_route_a" not in b
    for name, code in b.items():
        assert not code_names(code) & ROUTE_B_FORBIDDEN, name


def test_routes_stay_independent():
    # the routes cross-check each other only while neither calls into the other's machinery
    a = code_names(bm._route_a.__code__)
    assert not a & {"_route_b", "b_l_factors", "admissible_matrices", "t_matrix", "alpha_l"}
    b = code_names(bm._route_b.__code__)
    assert not b & {"_route_a", "ord_at", "rho", "splitting"}


def test_route_a_prime_outside_the_support_is_an_error(monkeypatch):
    monkeypatch.setattr(bm, "_table_primes", lambda table: (3,))
    with pytest.raises(InternalConsistencyError, match=r"support primes: \[2\]"):
        report_rows(worked_field(), 1)

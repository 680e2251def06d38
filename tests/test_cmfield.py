import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from cmint import cmfield, numutil, quadfield
from cmint.cmfield import (
    CMFieldData,
    _square_class_kind,
    build_cm_field,
    classify_in_reflex_cm,
    rho,
    spot_kinds,
)
from cmint.errors import FieldRejected, InputError, InternalConsistencyError
from cmint.numutil import ord_p, prime_factors, primes_up_to
from cmint.quadfield import (
    PrimeSpot,
    QuadElem,
    QuadField,
    splitting,
)
from cmint.selfcheck import cyclotomic_field, sweep_fields, worked_field

F5 = QuadField(5)


def test_build_example():
    f = worked_field()
    assert f.D == 5
    assert f.dtilde == 41
    assert f.delta_tilde == QuadElem(QuadField(41), -13, 2, 1)
    dt = f.delta_tilde
    assert dt.x * dt.x - dt.y * dt.y * dt.field.disc == 5 * dt.den * dt.den
    assert f.w_k == 2
    assert f.mode == "strict"
    rd = f.rel_diff
    assert len(rd) == 1
    spot, exp = rd[0]
    assert (spot.l, spot.kind, spot.label, exp) == (5, "split", 4, 1)


def test_build_cyclotomic():
    f = cyclotomic_field()
    assert f.dtilde == 5
    assert f.w_k == 10
    assert f.delta_tilde == QuadElem(F5, -5, 2, 1)
    ((spot, exp),) = f.rel_diff
    assert spot.l == 5 and spot.kind == "ramified" and exp == 1


def _ring_condition(D, x, y, den):
    """Some w = (2a + b + b√D)/2, a, b in 0..3, has (w² − Δ)/4 in O_F."""
    for a in range(4):
        for b in range(4):
            u = 2 * a + b  # w = (u + b√D)/2, so w² = (u² + b²D + 2ub√D)/4
            X = (Fraction(u * u + b * b * D, 4) - Fraction(x, den)) / 4
            Y = (Fraction(2 * u * b, 4) - Fraction(y, den)) / 4
            # O_F holds (s + t√D)/2 with s ≡ t mod 2
            s, t = 2 * X, 2 * Y
            if s.denominator == t.denominator == 1 and (s - t) % 2 == 0:
                return True
    return False


def test_order_criterion_matches_brute_force():
    # the build refuses Δ as order-not-free exactly when no w ∈ O_F has
    # w² ≡ Δ mod 4·O_F, checked here from that definition
    rng = random.Random(31)
    ds = [p for p in primes_up_to(2000) if p % 4 == 1]
    verdicts = Counter()
    for _ in range(4000):
        D = rng.choice(ds)
        y = rng.randint(-40, 40)
        den = rng.choice([1, 2])
        x = -(isqrt(y * y * D) + rng.randint(1, 40))
        if den == 2 and (x - y) % 2:
            x -= 1
        mode = rng.choice(["strict", "permissive"])
        delta = QuadElem(QuadField(D), x, y, den)
        try:
            build_cm_field(D, delta, mode)
            built = True
        except FieldRejected as exc:
            if exc.reason != "order-not-free":
                continue
            built = False
        assert built == _ring_condition(D, delta.x, delta.y, delta.den), (D, x, y, den, mode)
        verdicts[mode, built] += 1
    assert min(verdicts.values()) >= 50 and len(verdicts) == 4, verdicts


def test_rejections():
    with pytest.raises(FieldRejected) as e:
        build_cm_field(5, QuadElem(F5, -7, 1, 2))
    assert e.value.reason == "norm-not-1-mod-4"  # norm 11

    with pytest.raises(FieldRejected) as e:
        build_cm_field(5, QuadElem(F5, -1, 1, 2))
    assert e.value.reason == "delta-not-totally-negative"

    with pytest.raises(FieldRejected) as e:
        build_cm_field(5, QuadElem(F5, 13, 1, 2))
    assert e.value.reason == "delta-not-totally-negative"

    with pytest.raises(FieldRejected) as e:
        build_cm_field(5, QuadElem(F5, 0, -2, 2))  # −√5, named by its reduced coordinates
    assert (e.value.reason, e.value.detail) == ("delta-not-totally-negative", "Δ = (0+-1√5)/1")

    with pytest.raises(FieldRejected) as e:
        build_cm_field(5, QuadElem(F5, -21, -7, 2), mode="permissive")
    assert e.value.reason == "norm-a-square"  # norm 49: biquadratic

    with pytest.raises(FieldRejected) as e:
        build_cm_field(13, QuadElem(QuadField(13), -13, -2, 1), mode="permissive")
    assert e.value.reason == "norm-not-squarefree"  # norm 117 = 9·13

    with pytest.raises(FieldRejected):
        build_cm_field(29, QuadElem(QuadField(29), -25, -3, 2))  # norm 91 ≡ 3 mod 4

    with pytest.raises(FieldRejected) as e:
        build_cm_field(5, QuadElem(F5, -11, 1, 2))  # norm 29: no w with w² ≡ Δ mod 4
    assert e.value.reason == "order-not-free"

    with pytest.raises(InputError):
        build_cm_field(5, QuadElem(F5, -13, 1, 2), mode="lenient")
    with pytest.raises(InputError):
        build_cm_field(13, QuadElem(F5, -13, 1, 2))


def test_build_factors_the_norm_once(monkeypatch):
    # the squarefree verdict on D̃ comes from constructing F̃ = Q(√D̃), so a
    # norm past trial division goes through Pollard rho once per build; a
    # prime norm is proved prime and never factored
    calls = Counter()
    real = numutil.factorize

    def counting(n):
        calls[n] += 1
        return real(n)

    monkeypatch.setattr(numutil, "factorize", counting)
    build = cmfield._build_cached.__wrapped__
    for D, x, y, den, mode, dt in (
        (13, -21, -2, 1, "strict", 389),
        (5, -25, -3, 2, "permissive", 145),
        (5, -1003897, 2, 1, "permissive", 206879 * 4871491),
    ):
        calls.clear()
        assert build(D, x, y, den, mode).dtilde == dt
        assert calls[dt] == (0 if numutil.is_prime(dt) else 1), (dt, calls[dt])
    calls.clear()
    with pytest.raises(FieldRejected) as e:
        build(13, -13, -2, 1, "permissive")
    assert (e.value.reason, e.value.detail) == ("norm-not-squarefree", "norm(Δ) = 117")
    assert calls[117] == 1


def test_strict_requires_prime_norm():
    delta = QuadElem(F5, -25, -3, 2)  # norm 145 = 5·29
    with pytest.raises(FieldRejected) as e:
        build_cm_field(5, delta)
    assert e.value.reason == "norm-not-prime"
    f = build_cm_field(5, delta, mode="permissive")
    assert f.dtilde == 145 and f.mode == "permissive"


def test_classification_oracles():
    f = worked_field()
    Ft = f.reflex
    got = {}
    for l in (2, 3, 5, 11):
        for s in splitting(Ft, l):
            got[(l, s.label)] = classify_in_reflex_cm(f, s)
    assert got == {
        (2, 1): "inert",
        (2, 3): "split",
        (3, None): "inert",
        (5, 1): "split",
        (5, 4): "ramified",
        (11, None): "split",
    }
    z = cyclotomic_field()
    gz = {}
    for l in (2, 5, 11, 19):
        for s in splitting(z.reflex, l):
            gz[(l, s.label)] = classify_in_reflex_cm(z, s)
    assert gz == {
        (2, None): "inert",
        (5, None): "ramified",
        (11, 4): "split",
        (11, 7): "split",
        (19, 9): "inert",
        (19, 10): "inert",
    }


def test_classification_rejects_wrong_field():
    f = worked_field()
    (s,) = splitting(F5, 2)
    with pytest.raises(InputError):
        classify_in_reflex_cm(f, s)
    # right field, but 2 is not a root of 41 mod 5 (the spots over 5 carry 1 and 4)
    with pytest.raises(InputError):
        classify_in_reflex_cm(f, PrimeSpot(41, 5, "split", 2))


def test_rho():
    f = worked_field()
    Ft = f.reflex
    two_inert, two_split = splitting(Ft, 2)  # labels 1 (inert), 3 (split)
    five_split, five_ram = splitting(Ft, 5)
    (three,) = splitting(Ft, 3)
    assert rho(f, ()) == 1
    assert rho(f, ((two_split, 3),)) == 4
    assert rho(f, ((two_inert, 1),)) == 0
    assert rho(f, ((two_inert, 2),)) == 1
    assert rho(f, ((three, 1),)) == 0
    assert rho(f, ((five_ram, 7),)) == 1
    assert rho(f, ((five_split, 2),)) == 3
    assert rho(f, ((two_split, 1), (five_ram, 2))) == 2
    assert rho(f, ((two_split, 5), (two_inert, -1))) == 0


def times_square(e, u):
    """e·u² in O_F, from (x + y√d)/den coordinates."""
    d = e.field.disc
    sx, sy = u.x * u.x + u.y * u.y * d, 2 * u.x * u.y
    x, y, den = e.x * sx + e.y * sy * d, e.x * sy + e.y * sx, e.den * u.den * u.den
    while den > 2:  # an element of O_F: den/2 divides both coordinates
        assert x % 2 == 0 and y % 2 == 0
        x, y, den = x // 2, y // 2, den // 2
    return QuadElem(e.field, x, y, den)


def test_square_class_invariance():
    # D̃ = 389 ≡ 5 mod 8: at its ramified spot 2 is a non-square, so the den = 2 of
    # (1 + √D̃)/2 matters there
    for f in (worked_field(), build_cm_field(13, QuadElem(QuadField(13), -21, -2, 1))):
        rng = random.Random(17)
        Ft = f.reflex
        spots = [s for l in (2, 3, 5, 11, f.dtilde) for s in splitting(Ft, l)]
        for _ in range(60):
            den = rng.choice([1, 2])
            x = rng.randint(-30, 30)
            y = rng.randint(-30, 30)
            if den == 2:
                y += (x - y) % 2
            if x == 0 and y == 0:
                continue
            u = QuadElem(Ft, x, y, den)
            for base in (f.delta_tilde, QuadElem(Ft, 1, 1, 2)):
                scaled = times_square(base, u)
                for s in spots:
                    assert _square_class_kind(scaled, s) == _square_class_kind(base, s)


def test_different_has_norm_D_in_strict_mode():
    for D, dx, dy, dden in ((5, -13, 1, 2), (5, -5, -1, 2), (13, -21, -2, 1), (17, -21, -2, 1)):
        f = build_cm_field(D, QuadElem(QuadField(D), dx, dy, dden))
        ((spot, exp),) = f.rel_diff
        assert spot.l == D and exp == 1 and spot.f == 1


def test_relative_different_lies_over_d():
    # d_K = D²·D̃ and the conductor–discriminant formula give N(𝔡) = D: one spot
    # over D with exponent 1, so 2 never ramifies in K̃/F̃; D ramifies in F̃
    # exactly when D | D̃
    rng = random.Random(23)
    ds = [p for p in primes_up_to(2000) if p % 4 == 1]
    fields = [
        cyclotomic_field(),
        build_cm_field(5, QuadElem(F5, -25, -3, 2), mode="permissive"),
        build_cm_field(17, QuadElem(QuadField(17), -17, -2), mode="permissive"),
    ]
    assert [f.dtilde for f in fields] == [5, 145, 221]
    for _ in range(20_000):
        D = rng.choice(ds)
        y = rng.randint(-40, 40)
        den = rng.choice((1, 2))
        x = -(isqrt(y * y * D) + rng.randint(1, 200))
        if den == 2 and (x - y) % 2:
            x -= 1
        mode = rng.choice(("strict", "permissive"))
        try:
            fields.append(build_cm_field(D, QuadElem(QuadField(D), x, y, den), mode))
        except FieldRejected:
            continue
    modes = Counter(f.mode for f in fields)
    assert len(fields) > 1000 and modes["strict"] > 200, modes
    ramified = 0
    for f in fields:
        ((spot, exp),) = f.rel_diff
        assert spot.l == f.D and exp == 1, (f.D, f.delta, f.mode)
        assert spot.kind == ("ramified" if f.dtilde % f.D == 0 else "split"), (f.D, f.delta)
        ramified += spot.kind == "ramified"
    assert ramified >= 5


def test_dyadic_different_is_an_internal_error(monkeypatch):
    # a ramified spot over 2 contradicts N(𝔡) = D, so validation cannot meet one
    real = cmfield._square_class_kind

    def dyadic_ramified(elem, spot):
        return "ramified" if spot.l == 2 else real(elem, spot)

    monkeypatch.setattr(cmfield, "_square_class_kind", dyadic_ramified)
    cmfield._build_cached.cache_clear()
    for mode in ("strict", "permissive"):
        with pytest.raises(InternalConsistencyError, match="spot over 2"):
            build_cm_field(5, QuadElem(F5, -13, 1, 2), mode)


def test_inert_kind_is_the_norm_criterion():
    # at an odd inert spot a unit is a square exactly when its residue is a square in F_l(√d)
    checked = 0
    for d in (41, 389):
        F = QuadField(d)
        for l in primes_up_to(23)[1:]:
            spots = splitting(F, l)
            if spots[0].kind != "inert":
                continue
            squares = {
                ((u * u + v * v * d) % l, 2 * u * v % l) for u in range(l) for v in range(l)
            }
            for a in range(l):
                for b in range(l):
                    if a == 0 and b == 0:
                        continue
                    want = "split" if (a, b) in squares else "inert"
                    for s in (1, l * l):
                        assert _square_class_kind(QuadElem(F, a * s, b * s), spots[0]) == want
                        checked += 1
    assert checked >= 2000


def test_spot_kinds_match_sympy_prime_decomposition():
    # an oracle outside the package: the (e, f) of each prime of K̃ over l, from sympy,
    # against split → (e, f) twice, inert → (e, 2f), ramified → (2e, f) over each spot of F̃;
    # and sympy's disc(K̃) against the norm of the relative different
    pytest.importorskip("sympy")
    from sympy import Poly, symbols
    from sympy.polys.numberfields.basis import round_two
    from sympy.polys.numberfields.primes import prime_decomp

    X = symbols("X")
    fields = pairs = 0
    for f in sweep_fields():
        if f.delta.den == 2 and abs(f.delta.y) == 3:
            continue  # sympy's round_two raises ClosureFailure on these quartics
        t = f.delta_tilde.x  # Δ̃ = t + 2√D̃, so √Δ̃ is a root of X⁴ − 2tX² + t² − 4D̃
        T = Poly(X**4 - 2 * t * X**2 + t * t - 4 * f.dtilde, X)
        ZK, dK = round_two(T)
        # |disc(K̃)| = D̃²·N(𝔡) for the relative different 𝔡 = Π 𝔓^e over rel_diff,
        # where 𝔓 is the ramified prime of K̃ over the spot, of norm l^f
        norm = 1
        for s, e in f.rel_diff:
            norm *= s.l ** (s.f * e)
        assert abs(dK) == f.dtilde**2 * norm, (f.D, f.delta)
        fields += 1
        for l in sorted(set(primes_up_to(59)) | {f.D, f.dtilde}):
            want = []
            for s, kind, *_ in spot_kinds(f, l):
                if kind == "split":
                    want += [(s.e, s.f), (s.e, s.f)]
                elif kind == "inert":
                    want.append((s.e, 2 * s.f))
                else:
                    want.append((2 * s.e, s.f))
            got = sorted((P.e, P.f) for P in prime_decomp(l, T=T, ZK=ZK, dK=dK))
            assert sorted(want) == got, (f.D, f.delta, l)
            pairs += 1
    assert fields >= 30 and pairs >= 500


def test_spot_kinds_rows():
    for f in sweep_fields()[::4] + [cyclotomic_field()]:
        rel = dict(f.rel_diff)
        for l in sorted(set(primes_up_to(60)) | {f.D, f.dtilde}):
            rows = spot_kinds(f, l)
            assert [r[0] for r in rows] == list(splitting(f.reflex, l))
            for s, kind, kind_f, shift, e_d, f_s, label in rows:
                assert kind == classify_in_reflex_cm(f, s)
                assert (kind_f, e_d, f_s, label) == (s.kind, rel.get(s, 0), s.f, s.label)
                assert shift == e_d - ord_p(2 * f.D, l) * s.e
                assert shift >= 0 or (2 * f.D) % l == 0


def test_spot_kinds_derives_the_second_split_kind():
    # `spot_kinds` takes every spot's kind from `_square_class_kind`; both
    # kinds over an odd split l are checked, over the l ∤ norm(Δ̃) (where the
    # second kind follows from the first and (norm(Δ̃) | l)) and the l | norm(Δ̃)
    fields = sweep_fields() + [
        build_cm_field(5, QuadElem(F5, -25, -3, 2), mode="permissive"),
        build_cm_field(17, QuadElem(QuadField(17), -17, -2), mode="permissive"),
    ]
    derived = computed = 0
    for f in fields:
        x, y = f.delta_tilde.x, f.delta_tilde.y
        nrm = x * x - y * y * f.dtilde
        for l in sorted(set(primes_up_to(1000)) | set(prime_factors(nrm))):
            want = [_square_class_kind(f.delta_tilde, s) for s in splitting(f.reflex, l)]
            assert [kind for _, kind, *_ in spot_kinds(f, l)] == want, (f.D, f.delta, f.mode, l)
            if len(want) == 2 and l != 2:
                derived += nrm % l != 0
                computed += nrm % l == 0
    assert derived > 3000 and computed > 20, (derived, computed)


def test_stored_field_hash_is_the_generated_one():
    def generated(g):
        return hash((g.D, g.delta, g.dtilde, g.delta_tilde, g.rel_diff, g.w_k, g.mode))

    def with_diff(g, rel_diff):
        return CMFieldData(g.D, g.delta, g.dtilde, g.delta_tilde, rel_diff, g.w_k, g.mode)

    f = build_cm_field(13, QuadElem(QuadField(13), -21, -2, 1))
    same = with_diff(f, f.rel_diff)
    assert same is not f and same == f and hash(same) == hash(f) == generated(f)
    spot = splitting(f.reflex, 2)[0]
    other = with_diff(f, f.rel_diff + ((spot, 2),))
    assert other != f and hash(other) == generated(other)


def test_spot_table_proves_each_prime_once(monkeypatch):
    # each caller of `spot_kinds` has proved l prime already (the sieve, the
    # factorization, the field's validation) and a split spot's valuations and
    # square classes come from its label, so building the table over l proves
    # no prime again, 2 included
    calls = Counter()
    real = numutil.is_prime

    def counting(n):
        calls[n] += 1
        return real(n)

    fields = [
        build_cm_field(13, QuadElem(QuadField(13), -21, -2, 1)),  # 13 | norm(Δ̃), 13 split
        next(f for f in sweep_fields() if f.dtilde % 8 == 1),  # 2 split in F̃
    ]
    for mod in (cmfield, quadfield):
        monkeypatch.setattr(mod, "is_prime", counting)
    for f in fields:
        calls.clear()
        primes = sorted(set(primes_up_to(400)) | {f.D, f.dtilde})
        rows = [row for l in primes for row in spot_kinds(f, l)]
        assert sum(kind_f == "split" for _, _, kind_f, *_ in rows) >= 60
        assert not calls, sorted(calls)


def test_public_readers_prove_the_prime():
    # `spot_kinds` trusts its l, so the public entry points prove a caller's l
    f = build_cm_field(13, QuadElem(QuadField(13), -21, -2, 1))
    spot = PrimeSpot(389, 15, "split", 2)
    with pytest.raises(InputError, match="splitting needs a prime, got 15"):
        splitting(QuadField(389), 15)
    with pytest.raises(InputError, match="splitting needs a prime, got 15"):
        classify_in_reflex_cm(f, spot)
    with pytest.raises(InputError, match="splitting needs a prime, got 15"):
        rho(f, ((spot, 1),))

"""End-to-end acceptance checks, run at full advertised scale.

Every criterion is exact (integer/rational equality, no tolerances); the two
timed ones also assert their runtime budgets.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from cmint.bm import bm_report
from cmint.cmfield import build_cm_field
from cmint.localdensity import b_l_factors
from cmint.numutil import kronecker, ord_p, prime_factors, primes_up_to
from cmint.quadfield import QuadElem, QuadField, ord_at, splitting
from cmint.selfcheck import (
    check_route_agreement,
    check_tmatrix_laws,
    check_vanishing,
    check_worked_instance,
    sweep_fields,
    worked_field,
)
from cmint.tmatrix import admissible_matrices
from padic_reference import check_hensel, check_hilbert_product
from whittaker import beta_l_factor


@lru_cache(maxsize=None)
def strict_sweep():
    return tuple(sweep_fields())


def test_field_window_is_nonempty():
    assert len(strict_sweep()) == 40


def test_route_equivalence_full_sweep():
    start = time.monotonic()
    compared = check_route_agreement(strict_sweep(), range(1, 31))
    elapsed = time.monotonic() - start
    assert compared >= 500
    assert elapsed < 60.0, f"route sweep took {elapsed:.1f}s"


def test_worked_instance_values():
    assert check_worked_instance() == 10


def test_vanishing_law_on_random_fields():
    # every sampled field admits at least m = 1
    assert check_vanishing(200, seed=20260817) >= 200


def test_support_law_for_nonzero_values():
    fields = list(strict_sweep())
    fields.append(build_cm_field(5, QuadElem(QuadField(5), -5, 1, 2), mode="strict"))
    nonzero = 0
    for f in fields:
        fourDp = 4 * f.D
        for m in range(1, 13):
            for e in bm_report(f, m).entries:
                if e.b == 0:
                    continue
                top = isqrt(m * m * f.dtilde - 1)
                assert any(
                    (m * m * f.dtilde - n * n) % (fourDp * e.p) == 0
                    for n in range(top + 1)
                ), (f.D, f.delta, m, e.p)
                nonzero += 1
    assert nonzero >= 50


def test_local_factor_relation_beta_vs_b():
    fields = [
        worked_field(),
        build_cm_field(5, QuadElem(QuadField(5), -5, 1, 2), mode="strict"),
        build_cm_field(13, QuadElem(QuadField(13), -21, -2, 1), mode="strict"),
        build_cm_field(17, QuadElem(QuadField(17), -21, -2, 1), mode="strict"),
    ]
    small_primes = (2, 3, 5, 7, 11, 13)
    compared = 0
    for f in fields:
        qs = [
            q
            for q in primes_up_to(30)
            if q % 2 and kronecker(f.D, q) == 1 and gcd(q, 2 * f.D * f.dtilde) == 1
        ]
        for q in qs:
            for n in range(1, isqrt(q * q * f.dtilde - 1) + 1):
                Q4 = q * q * f.dtilde - n * n
                if Q4 % f.D:
                    continue
                for T in admissible_matrices(f, q, n):
                    for p in small_primes:
                        if p == q:
                            continue
                        ls = sorted(set(prime_factors(Q4)) | {p})
                        for l in ls:
                            if l == q or l > 250:
                                continue
                            t_l = ord_p(Q4, l) - ord_p(4 * f.D, l)
                            if t_l < 0:
                                continue
                            b = b_l_factors(f, T, l, t_l)[0 if l == p else 1]
                            beta = beta_l_factor(f, T, q, p, l)
                            want = 2 * b if l == p else b
                            assert beta == want, (f.D, q, n, T.mu, p, l, beta, b)
                            compared += 1
    assert compared >= 500


def test_padic_substrate():
    start = time.monotonic()
    # Hilbert product formula over all places, 10^4 random rational pairs
    assert check_hilbert_product(10_000, 9001, 400, 400) == 10_000
    # hensel_sqrt round trip for l <= 97, k <= 12, about a dozen units per modulus
    assert check_hensel(97, 12, 2, draws=10, seed=9001) >= 5000
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"substrate checks took {elapsed:.1f}s"


def test_tmatrix_suite_full_sweep():
    assert check_tmatrix_laws(strict_sweep(), 20) >= 1000


def test_valuation_consistency_bulk():
    rng = random.Random(411)
    for disc in (5, 13, 17, 41, 145, 373, 389):
        F = QuadField(disc)
        done = 0
        while done < 1000:
            x = rng.randint(-60, 60)
            y = rng.randint(-60, 60)
            den = rng.choice([1, 2])
            if den == 2 and (x - y) % 2:
                x += 1
            if y == 0 or x == 0 and den == 2:
                continue
            try:
                e = QuadElem(F, x, y, den)
            except Exception:
                continue
            nrm = Fraction(e.x * e.x - e.y * e.y * disc, e.den * e.den)  # the field norm
            assert nrm.denominator == 1
            nrm = int(nrm)
            if nrm == 0:
                continue
            for l in sorted(set(prime_factors(abs(nrm))) | {2, 3}):
                total = sum(s.f * ord_at(e, s) for s in splitting(F, l))
                assert total == ord_p(abs(nrm), l), (disc, x, y, den, l)
            done += 1

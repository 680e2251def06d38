from fractions import Fraction

import pytest

from cmint import applications
from cmint.applications import (
    bad_reduction_primes,
    humbert_intersection,
    igusa_denominator_bounds,
)
from cmint.cmfield import build_cm_field
from cmint.errors import InputError, InternalConsistencyError
from cmint.logcombo import LogCombo
from cmint.quadfield import QuadElem, QuadField
from cmint.selfcheck import worked_field

F5 = QuadField(5)


def test_humbert_worked_instance():
    f = worked_field()
    assert humbert_intersection(f, 1).as_dict() == {2: Fraction(1)}


def test_humbert_rejects_square_discriminant_product():
    f = worked_field()
    with pytest.raises(InputError):
        humbert_intersection(f, 5)  # D·m = 25
    with pytest.raises(InputError):
        humbert_intersection(f, 0)


def test_humbert_sums_indices():
    f = worked_field()
    # D·m = 20: n ∈ {2, 4} give indices (20−4)/4 = 4 and (20−16)/4 = 1
    from cmint.bm import bm_full

    want = {}
    for b in (bm_full(f, 4).as_dict(), bm_full(f, 1).as_dict()):
        for p, c in b.items():
            want[p] = want.get(p, 0) + c / 2
    assert humbert_intersection(f, 4).as_dict() == want


def test_bad_reduction_worked_instance():
    cert = bad_reduction_primes(worked_field())
    assert cert.indices == (1,)
    assert cert.bad_primes == (2,)
    assert cert.per_prime == ((2, 2),)
    assert cert.bound == Fraction(205, 64)


def test_bad_reduction_other_discriminants():
    f13 = build_cm_field(13, QuadElem(QuadField(13), -21, -2, 1))
    cert = bad_reduction_primes(f13)
    assert cert.indices == (3, 1)
    assert cert.bad_primes == (5, 7, 13, 41)
    assert cert.per_prime == ((5, 4), (7, 6), (13, 4), (41, 2))
    assert cert.bound == Fraction(13 * 389, 64)
    assert all(l <= cert.bound for l in cert.bad_primes)

    f17 = build_cm_field(17, QuadElem(QuadField(17), -21, -2, 1))
    cert = bad_reduction_primes(f17)
    assert cert.indices == (4, 2)
    assert cert.bad_primes == (3, 7, 83)


def test_igusa_worked_instance():
    got = igusa_denominator_bounds(worked_field())
    assert got == {"A1": {2: 12}, "A2": {2: 8}, "A3": {2: 8}}


def test_certificates_work_on_integer_sums(monkeypatch):
    # the certificates read `_b_sum`'s integers: no LogCombo is built, and only
    # the bound D·D̃/64 is a Fraction
    def refuse(d):
        raise AssertionError("LogCombo built")

    monkeypatch.setattr(LogCombo, "from_dict", staticmethod(refuse))
    f = worked_field()
    cert = bad_reduction_primes(f)
    assert cert.per_prime == ((2, 2),)
    assert cert.bound == Fraction(205, 64)
    assert all(type(c) is int for _, c in cert.per_prime)
    got = igusa_denominator_bounds(f)
    assert got == {"A1": {2: 12}, "A2": {2: 8}, "A3": {2: 8}}
    assert all(type(e) is int for exps in got.values() for e in exps.values())
    # a prime past the bound is a bug, reported with the bound as a fraction
    monkeypatch.setattr(applications, "_b_sum", lambda field, indices: {2: 2, 3: 0, 5: 4})
    with pytest.raises(InternalConsistencyError, match="certified prime 5 exceeds the bound 205/64"):
        bad_reduction_primes(f)


def test_igusa_scaling_relation():
    f13 = build_cm_field(13, QuadElem(QuadField(13), -21, -2, 1))
    got = igusa_denominator_bounds(f13)
    assert got["A2"] == got["A3"]
    assert set(got["A1"]) == set(got["A2"])
    for p, e in got["A1"].items():
        assert e * 2 == got["A2"][p] * 3  # exponents scale like 3·W_K : 2·W_K


def test_strict_mode_required():
    f = build_cm_field(5, QuadElem(F5, -25, -3, 2), mode="permissive")
    with pytest.raises(InputError):
        bad_reduction_primes(f)
    with pytest.raises(InputError):
        igusa_denominator_bounds(f)
    # the Humbert sum itself is still defined
    assert humbert_intersection(f, 1) is not None

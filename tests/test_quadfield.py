import random
from fractions import Fraction

import pytest

from cmint.errors import InputError
from cmint.numutil import kronecker, primes_up_to
from cmint.quadfield import (
    PrimeSpot,
    QuadElem,
    QuadField,
    ord_at,
    splitting,
)
from padic_reference import val

F5 = QuadField(5)
F41 = QuadField(41)


def test_field_validation():
    with pytest.raises(InputError):
        QuadField(8)
    with pytest.raises(InputError):
        QuadField(9)
    with pytest.raises(InputError):
        QuadField(12)
    with pytest.raises(InputError):
        QuadField(1)


def test_elem_canonicalization():
    e = QuadElem(F5, 4, 2, 2)
    assert (e.x, e.y, e.den) == (2, 1, 1)
    with pytest.raises(InputError):
        QuadElem(F5, 1, 2, 2)
    with pytest.raises(InputError):
        QuadElem(F5, 1, 1, 3)


def test_splitting_kinds():
    for disc in (5, 13, 41, 389):
        F = QuadField(disc)
        for l in primes_up_to(50):
            spots = splitting(F, l)
            k = kronecker(disc, l)
            if k == 1:
                assert len(spots) == 2
                assert all(s.kind == "split" and s.f == 1 and s.e == 1 for s in spots)
            elif k == -1:
                assert len(spots) == 1
                assert spots[0].kind == "inert" and spots[0].f == 2
            else:
                assert len(spots) == 1
                assert spots[0].kind == "ramified" and spots[0].e == 2


def test_split_labels_are_roots():
    spots = splitting(F41, 2)
    assert {s.label for s in spots} == {1, 3}
    spots5 = splitting(F41, 5)
    assert {s.label for s in spots5} == {1, 4}
    for s in spots5:
        assert (s.label * s.label - 41) % 5 == 0


def test_ord_at_split_spots():
    e = QuadElem(F41, 1, 1, 1)  # 1 + √41, norm -40
    by_label2 = {s.label: ord_at(e, s) for s in splitting(F41, 2)}
    assert by_label2 == {1: 1, 3: 2}
    by_label5 = {s.label: ord_at(e, s) for s in splitting(F41, 5)}
    assert by_label5 == {1: 0, 4: 1}


def test_ord_at_inert_and_ramified():
    (s2,) = splitting(F5, 2)
    assert ord_at(QuadElem(F5, 2, 0, 1), s2) == 1
    assert ord_at(QuadElem(F5, 1, 1, 2), s2) == 0
    (s5,) = splitting(F5, 5)
    assert ord_at(QuadElem(F5, 0, 1, 1), s5) == 1
    assert ord_at(QuadElem(F5, 5, 0, 1), s5) == 2
    assert ord_at(QuadElem(F5, 0, 5, 1), s5) == 3


def test_ord_at_rejects_zero():
    (s2,) = splitting(F5, 2)
    with pytest.raises(InputError):
        ord_at(QuadElem(F5, 0, 0, 1), s2)


def test_valuation_consistency():
    rng = random.Random(11)
    for disc in (5, 13, 41, 389):
        F = QuadField(disc)
        for _ in range(120):
            den = rng.choice([1, 2])
            x = rng.randint(-60, 60)
            y = rng.randint(-60, 60)
            if den == 2:
                y += (x - y) % 2
            if x == 0 and y == 0:
                continue
            e = QuadElem(F, x, y, den)
            nrm = Fraction(e.x * e.x - e.y * e.y * disc, e.den * e.den)  # the field norm
            for l in (2, 3, 5, 7, 11, 13, 41):
                total = sum(s.f * ord_at(e, s) for s in splitting(F, l))
                assert total == val(nrm, l), (disc, x, y, den, l)

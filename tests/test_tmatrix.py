from fractions import Fraction

import pytest

from cmint.errors import InputError
from cmint.selfcheck import cyclotomic_field, worked_field
from cmint.tmatrix import mu_candidates, t_matrix


def test_worked_matrix():
    f = worked_field()
    T = t_matrix(f, 1, 1, 1)
    assert T.entries == (Fraction(24), Fraction(-8), Fraction(3))
    assert T.det == 8  # (m²D̃ − n²)/(D·m²) = 40/5
    assert t_matrix(f, 1, 1, -1) is None
    assert mu_candidates(f, 1, 1) == (1,)


def test_cyclotomic_matrices_both_signs():
    f = cyclotomic_field()
    plus = t_matrix(f, 3, 5, 1)
    minus = t_matrix(f, 3, 5, -1)
    assert plus.entries == (Fraction(25, 3), Fraction(-11, 3), Fraction(5, 3))
    assert minus.entries == (Fraction(5, 3), Fraction(-1, 3), Fraction(1, 3))
    assert plus.det == minus.det == Fraction(4, 9)
    assert mu_candidates(f, 3, 5) == (1, -1)


def test_input_validation():
    f = worked_field()
    with pytest.raises(InputError):
        t_matrix(f, 0, 1, 1)
    with pytest.raises(InputError):
        t_matrix(f, 1, 1, 2)
    with pytest.raises(InputError):
        t_matrix(f, 1, 7, 1)  # n² ≥ m²·D̃
    with pytest.raises(InputError):
        t_matrix(f, 1, 2, 1)  # D does not divide m²D̃ − n²


def test_rescaling_identity():
    # the matrix depends only on n/m and μ: T at (m, n) equals T at (m/l, n/l)
    f = cyclotomic_field()
    for (m, n, l) in ((3, 5, 1), (6, 10, 2), (15, 25, 5), (10, 10, 2)):
        for mu in mu_candidates(f, m, n):
            big = t_matrix(f, m, n, mu)
            small = t_matrix(f, m // l, n // l, mu)
            if big is None:
                assert small is None
            else:
                assert small is not None and big.entries == small.entries

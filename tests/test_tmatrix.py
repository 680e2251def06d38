from fractions import Fraction
from math import gcd, isqrt
from types import SimpleNamespace

import pytest

from cmint.errors import InputError, InternalConsistencyError
from cmint.numutil import factorize, is_squarefree, ord_p
from cmint.selfcheck import cyclotomic_field, sweep_fields, worked_field
from cmint.tmatrix import _admissible_numerators, admissible_matrices, t_matrix


def entries(T):
    """T's entries (a, b, c), each its numerator over `q`."""
    return tuple(Fraction(v, T.q) for v in T.num)


def det(T):
    a, b, c = T.num
    return Fraction(a * c - b * b, T.q * T.q)


def test_worked_matrix():
    f = worked_field()
    T = t_matrix(f, 1, 1, 1)
    assert entries(T) == (Fraction(24), Fraction(-8), Fraction(3))
    assert det(T) == 8  # (m²D̃ − n²)/(D·m²) = 40/5
    assert t_matrix(f, 1, 1, -1) is None
    assert admissible_matrices(f, 1, 1) == (T,)


def test_cyclotomic_matrices_both_signs():
    f = cyclotomic_field()
    plus = t_matrix(f, 3, 5, 1)
    minus = t_matrix(f, 3, 5, -1)
    assert entries(plus) == (Fraction(25, 3), Fraction(-11, 3), Fraction(5, 3))
    assert entries(minus) == (Fraction(5, 3), Fraction(-1, 3), Fraction(1, 3))
    assert det(plus) == det(minus) == Fraction(4, 9)
    assert admissible_matrices(f, 3, 5) == (plus, minus)


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


def test_admissible_numerators_keep_their_checks():
    # route B's numerators and every TMatrix come from one helper, which checks
    # (m, n), the determinant identity and both sign rules
    f = worked_field()
    assert _admissible_numerators(f, 1, 1) == (40, ((1, (960, -320, 120)),))  # [[24, -8], [-8, 3]]
    for m, n in ((0, 1), (1, 7), (1, 2)):
        with pytest.raises(InputError):
            _admissible_numerators(f, m, n)
    # a D̃ off by D keeps D | m²D̃ − n² but breaks det T = (m²D̃ − n²)/(Dm²)
    g = SimpleNamespace(D=f.D, delta=f.delta, dtilde=f.dtilde + f.D)
    with pytest.raises(InternalConsistencyError, match="determinant identity"):
        _admissible_numerators(g, 1, 1)
    # Δ = 7 − 2√5 and 15 − 4√5 are not totally negative: at (1, 2) (D ∤ n)
    # and at (1, 5) (D | n) no sign is admissible
    for x, y, n, rule in ((7, -2, 2, "exactly one"), (15, -4, 5, "both signs")):
        g = SimpleNamespace(D=5, delta=SimpleNamespace(x=x, y=y, den=1), dtilde=x * x - 5 * y * y)
        with pytest.raises(InternalConsistencyError, match=rule):
            admissible_matrices(g, 1, n)
        with pytest.raises(InternalConsistencyError, match=rule):
            t_matrix(g, 1, n, 1)


def test_rescaling_identity():
    # the matrix depends only on n/m and μ: T at (m, n) equals T at (m/l, n/l)
    f = cyclotomic_field()
    for (m, n, l) in ((3, 5, 1), (6, 10, 2), (15, 25, 5), (10, 10, 2)):
        for big in admissible_matrices(f, m, n):
            small = t_matrix(f, m // l, n // l, big.mu)
            assert small is not None and entries(big) == entries(small)
    # every case where route B evaluates a factor at l | m with t_l > 0, which reads
    # alpha_l off T itself in place of the matrix at level m/l
    reached = 0
    for f in sweep_fields()[::5]:
        fourD = 4 * f.D
        for m in range(1, 31):
            if not is_squarefree(m) or gcd(m, 2 * f.D * f.dtilde) != 1:
                continue
            m2dt = m * m * f.dtilde
            for n in range(1, isqrt(m2dt - 1) + 1):
                if (m2dt - n * n) % fourD:
                    continue
                fac = factorize((m2dt - n * n) // fourD)
                if all(m % p == 0 for p, _ in fac):
                    continue
                for big in admissible_matrices(f, m, n):
                    for l, e in fac:
                        if m % l or e - 2 * ord_p(m, l) <= 0:
                            continue
                        small = t_matrix(f, m // l, n // l, big.mu)
                        assert small is not None, (f.delta, m, n, l)
                        assert entries(small) == entries(big), (f.delta, m, n, l)
                        reached += 1
    assert reached == 80

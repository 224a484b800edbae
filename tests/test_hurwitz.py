"""Genus-0 and genus-1 transitive factorization counts from closed formulas."""

from fractions import Fraction

import pytest

from math import factorial

from wfact.hurwitz import _as_integer, h0_ratio, h1_ratio, hurwitz_h0, hurwitz_h1
from wfact.laurent import LaurentPoly
from wfact.partitions import integer_partitions

F = Fraction


def test_h0_examples():
    assert hurwitz_h0((1, 1)) == 1
    assert hurwitz_h0((2, 1)) == 8
    for n in range(1, 8):
        expected = F(1) if n == 1 else F(n ** (n - 2))
        assert hurwitz_h0((n,)) == expected


def test_h0_small_table():
    assert hurwitz_h0((1,)) == 1
    assert hurwitz_h0((2,)) == 1
    assert hurwitz_h0((3,)) == 3
    assert hurwitz_h0((1, 1, 1)) == 24  # 4! * 3^0 * 1


def test_h1_examples():
    assert hurwitz_h1((1, 1)) == 1
    assert hurwitz_h1((2,)) == 1
    assert hurwitz_h1((1, 1, 1)) == 240


def test_h1_cross_check_against_a2_fixture():
    # (X^2+4X+1)(X-1)^4/(6X^3): its length-6 count must be H_1((1,1,1))
    xm1 = LaurentPoly(0, [F(-1), F(1)])
    core = LaurentPoly(0, [F(1), F(4), F(1)])
    row = (core * xm1 * xm1 * xm1 * xm1 * LaurentPoly.monomial(-3)).scale(F(1, 6))
    assert row.egf_prefix(6)[6] == hurwitz_h1((1, 1, 1))


def test_rejects_empty_partition():
    with pytest.raises(ValueError):
        hurwitz_h0(())
    with pytest.raises(ValueError):
        hurwitz_h1(())


def test_non_integral_value_raises():
    # an explicit raise, so the check holds under python -O too
    with pytest.raises(AssertionError, match=r"H_0\(\(2,\)\) came out non-integral: 1/2"):
        _as_integer((3, 6), "H_0((2,))")
    assert _as_integer((12, 4), "H_0((2,))") == 3


def _old_weight_product(shape):
    acc = F(1)
    for part in shape:
        acc *= F(part**part, factorial(part - 1))
    return acc


def _old_h0(shape):
    """The Fraction formula the integer pairs replaced."""
    n, k = sum(shape), len(shape)
    return F(factorial(n + k - 2)) * F(n) ** (k - 3) * _old_weight_product(shape)


def _old_h1(shape):
    n, k = sum(shape), len(shape)
    e = [1] + [0] * k
    for part in shape:
        for i in range(k, 0, -1):
            e[i] += e[i - 1] * part
    bracket = F(n) ** k - F(n) ** (k - 1)
    for i in range(2, k + 1):
        bracket -= factorial(i - 2) * e[i] * F(n) ** (k - i)
    return F(factorial(n + k), 24) * _old_weight_product(shape) * bracket


def test_integer_pairs_equal_the_fraction_formulas_up_to_size_12():
    for n in range(1, 13):
        for lam in integer_partitions(n):
            assert F(*h0_ratio(lam)) == _old_h0(lam) == hurwitz_h0(lam)
            assert F(*h1_ratio(lam)) == _old_h1(lam) == hurwitz_h1(lam)


def test_integrality_up_to_size_12():
    for n in range(1, 13):
        for lam in integer_partitions(n):
            h0 = hurwitz_h0(lam)
            h1 = hurwitz_h1(lam)
            assert h0.denominator == 1 and h0 >= 0
            assert h1.denominator == 1 and h1 >= 0


def test_order_of_parts_is_irrelevant():
    assert hurwitz_h0((1, 2, 3)) == hurwitz_h0((3, 2, 1))
    assert hurwitz_h1((1, 3, 2)) == hurwitz_h1((3, 2, 1))

"""Integer partitions, cycle types and symmetric-group characters."""

from math import factorial

import pytest

from wfact.groups import Element, GroupParams, cycle_data
from wfact.partitions import (
    content_sum,
    hook_dimension,
    integer_partitions,
    mn_character,
    normalize_partition,
)


def _centralizer_order(mu):
    out = 1
    for part in set(mu):
        m = mu.count(part)
        out *= part**m * factorial(m)
    return out


# ---------------------------------------------------------------- partitions


def test_integer_partition_counts():
    expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
    for n, count in expected.items():
        parts = integer_partitions(n)
        assert len(parts) == count
        for lam in parts:
            assert sum(lam) == n
            assert all(a >= b for a, b in zip(lam, lam[1:]))


# ---------------------------------------------------------------- hooks


def test_hook_dimension_examples():
    for n in range(1, 7):
        assert hook_dimension((n,)) == 1
    assert hook_dimension((2, 1)) == 2
    assert hook_dimension((2, 2)) == 2


def test_hook_dimension_square_sum():
    for n in range(1, 9):
        assert sum(hook_dimension(lam) ** 2 for lam in integer_partitions(n)) == (
            factorial(n)
        )


# ---------------------------------------------------------------- contents


def test_content_sum_examples():
    for n in range(1, 7):
        assert content_sum((n,)) == n * (n - 1) // 2
    assert content_sum((1, 1, 1)) == -3
    assert content_sum((2, 1)) == 0


# ---------------------------------------------------------------- characters


def test_mn_identity_column():
    for n in range(1, 8):
        for lam in integer_partitions(n):
            assert mn_character(lam, (1,) * n) == hook_dimension(lam)


def test_mn_single_strip():
    assert mn_character((2, 1), (3,)) == -1


def test_mn_trivial_character():
    for n in range(1, 7):
        for mu in integer_partitions(n):
            assert mn_character((n,), mu) == 1


def test_mn_sign_character():
    for n in range(1, 7):
        for mu in integer_partitions(n):
            sign = (-1) ** (n - len(mu))
            assert mn_character((1,) * n, mu) == sign


def test_mn_size_mismatch():
    with pytest.raises(ValueError):
        mn_character((2, 1), (2,))


def test_column_orthogonality():
    for n in range(1, 7):
        classes = integer_partitions(n)
        shapes = integer_partitions(n)
        for mu in classes:
            for nu in classes:
                total = sum(
                    mn_character(lam, mu) * mn_character(lam, nu) for lam in shapes
                )
                assert total == (_centralizer_order(mu) if mu == nu else 0)


def test_transposition_class_sum_identity():
    # sum_lam f_lam * content_sum(lam) * chi_lam(mu) counts transposition
    # factors: it is n! on the single-transposition class and 0 elsewhere
    for n in range(2, 7):
        for mu in integer_partitions(n):
            total = sum(
                hook_dimension(lam) * content_sum(lam) * mn_character(lam, mu)
                for lam in integer_partitions(n)
            )
            is_transposition_class = sorted(mu, reverse=True) == [2] + [1] * (n - 2)
            assert total == (factorial(n) if is_transposition_class else 0)


# ---------------------------------------------------------------- cycle type


def test_cycle_type():
    def cycle_type(perm):
        g = Element(perm, (0,) * len(perm))
        return cycle_data(g, GroupParams(1, 1, len(perm))).partition

    assert cycle_type((1, 2, 3)) == (1, 1, 1)
    assert cycle_type((2, 1, 3)) == (2, 1)
    assert cycle_type((2, 3, 1)) == (3,)
    assert cycle_type((2, 1, 4, 3)) == (2, 2)


def test_normalize_partition():
    assert normalize_partition([1, 3, 2, 3]) == (3, 3, 2, 1)
    assert normalize_partition(()) == ()
    assert normalize_partition(("2", 1)) == (2, 1)
    for bad in [(2, 0), (3, -1)]:
        with pytest.raises(ValueError):
            normalize_partition(bad)

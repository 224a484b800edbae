"""Series for symmetric groups: character route, exponential formula, recurrence.

The routes to the full series of each cycle type are cross-checked in
``test_routes.py``.
"""

from fractions import Fraction

import pytest
from routes import factorial, poly

from wfact.errors import CapabilityError
from wfact.laurent import LaurentPoly, extract_phi
from wfact.partitions import content_sum, hook_dimension, integer_partitions, mn_character
from wfact.symmetric import (
    FULL_GUARD,
    _frobenius,
    _shape_data,
    dyz_identity_series,
    frobenius_series_sn,
    full_series_sn,
    full_series_sn_type,
)

F = Fraction


A1_ROW = poly(-1, 1, -2, 1).scale(F(1, 2))
A2_ROW = poly(-3, 1, 0, -9, 16, -9, 0, 1).scale(F(1, 6))


# ---------------------------------------------------------------- frobenius


def test_frobenius_base():
    assert frobenius_series_sn(1, (1,)) == LaurentPoly.one()


def test_frobenius_s2_identity():
    assert frobenius_series_sn(2, (1, 1)) == poly(-1, 1, 0, 1).scale(F(1, 2))


def test_frobenius_s3_identity_pair_count():
    series = frobenius_series_sn(3, (1, 1, 1))
    # of the 9 ordered transposition pairs, exactly the 3 equal pairs give id
    assert series.egf_prefix(2)[2] == 3


def test_frobenius_guard():
    with pytest.raises(CapabilityError):
        frobenius_series_sn(15, (1,) * 15)


def test_frobenius_parity_support():
    for n in range(1, 6):
        for mu in integer_partitions(n):
            series = frobenius_series_sn(n, mu)
            parity = (n - len(mu)) % 2
            for length, count in enumerate(series.egf_prefix(7)):
                if length % 2 != parity:
                    assert count == 0


def test_shape_table_holds_every_shape_dimension_and_content_sum():
    for n in range(1, FULL_GUARD + 1):
        shapes = integer_partitions(n)
        expected = [(shape, hook_dimension(shape), content_sum(shape)) for shape in shapes]
        assert list(_shape_data(n)) == expected


def test_frobenius_is_the_character_sum_through_mn_character():
    # (1/n!) Sum over shapes of dim * character * X**content_sum, each term
    # added as a LaurentPoly, against the one integer array of _frobenius.
    for n in range(1, 9):
        for mu in integer_partitions(n):
            total = LaurentPoly.zero()
            for shape in integer_partitions(n):
                value = hook_dimension(shape) * mn_character(shape, mu)
                total = total + LaurentPoly.monomial(content_sum(shape), value)
            assert _frobenius(mu) == total.scale(F(1, factorial(n))), mu


# ---------------------------------------------------------------- full series


def test_full_series_table_rows():
    assert full_series_sn(2, (1, 2)) == A1_ROW
    assert full_series_sn(3, (1, 2, 3)) == A2_ROW


def test_full_series_transposition():
    assert full_series_sn(2, (2, 1)) == poly(-1, -1, 0, 1).scale(F(1, 2))


def test_full_series_guard():
    with pytest.raises(CapabilityError):
        full_series_sn_type((1,) * 15)


def test_full_series_rejects_non_permutation():
    for perm in [(1, 1, 2), (1, 2, 4), (0, 1, 2)]:
        with pytest.raises(ValueError):
            full_series_sn(3, perm)
    with pytest.raises(ValueError):
        full_series_sn(3, (1, 2))


def test_full_series_depends_only_on_cycle_type():
    assert full_series_sn(4, (2, 1, 4, 3)) == full_series_sn_type((2, 2))
    assert full_series_sn(4, (1, 3, 2, 4)) == full_series_sn_type((2, 1, 1))


# ---------------------------------------------------------------- DYZ route


def test_dyz_base_cases():
    assert dyz_identity_series(1) == LaurentPoly.one()
    assert dyz_identity_series(2) == A1_ROW
    assert dyz_identity_series(3) == A2_ROW


# ---------------------------------------------------------------- core polynomial


def test_identity_core_polynomial_structure():
    for n in range(2, 8):
        series = full_series_sn_type((1,) * n)
        order = 1
        for i in range(2, n + 1):
            order *= i
        hyper = n * (n - 1) // 2
        phi, ell = extract_phi(series, order, hyper)
        assert ell == 2 * n - 2
        assert phi.min_deg == 0
        assert phi.max_deg == n * (n - 1) - (2 * n - 2)
        assert phi.coefficient(phi.max_deg) == 1  # monic
        assert phi.is_palindromic()

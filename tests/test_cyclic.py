"""Closed-form series for the rank-1 (cyclic) groups."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from routes import poly

from wfact.cyclic import cyclic_all_series, cyclic_element_order, cyclic_full_series
from wfact.laurent import LaurentPoly, extract_phi
from wfact.numtheory import divisors, euler_phi

F = Fraction


# ---------------------------------------------------------------- all series


def test_all_series_trivial_group():
    assert cyclic_all_series(1, 1) == LaurentPoly.one()


def test_all_series_order_two():
    assert cyclic_all_series(2, 1) == poly(-1, 1, 0, 1).scale(F(1, 2))
    assert cyclic_all_series(2, 2) == poly(-1, -1, 0, 1).scale(F(1, 2))


def test_all_series_rejects_bad_order():
    with pytest.raises(ValueError):
        cyclic_all_series(4, 3)


# ---------------------------------------------------------------- full series


def test_full_series_order_two():
    assert cyclic_full_series(2, 1) == poly(-1, 1, -2, 1).scale(F(1, 2))
    assert cyclic_full_series(2, 2) == poly(-1, -1, 0, 1).scale(F(1, 2))


def test_full_series_order_six_identity_core():
    phi, ell = extract_phi(cyclic_full_series(6, 1), 6, 1)
    assert phi == poly(0, -2, 2, 3, 2, 1)
    assert ell == 2


def test_full_series_trivial_group():
    assert cyclic_full_series(1, 1) == LaurentPoly.one()


def test_full_series_generator_equals_all_series():
    # a generator lies in no proper subgroup, so the two series coincide
    for N in range(2, 13):
        assert cyclic_full_series(N, N) == cyclic_all_series(N, N)


# ---------------------------------------------------------------- element order


def test_element_order_examples():
    assert cyclic_element_order(4, 2, 0) == 1
    assert cyclic_element_order(4, 2, 2) == 2
    assert cyclic_element_order(6, 1, 5) == 6


def test_element_order_rejects_non_member():
    with pytest.raises(ValueError):
        cyclic_element_order(4, 2, 1)  # weight not a multiple of p
    with pytest.raises(ValueError):
        cyclic_element_order(4, 3, 0)  # p does not divide m


# ---------------------------------------------------------------- identities


def test_subgroup_sum_identity():
    # factorizations into non-identity elements, split by generated subgroup
    for N in range(1, 25):
        for o in divisors(N):
            total = LaurentPoly.zero()
            for r in divisors(N):
                if r % o == 0:
                    total = total + cyclic_full_series(r, o)
            assert total == cyclic_all_series(N, o)


def test_length_two_count_formula():
    # count of minimum-length (= 2) full factorizations of a non-generator:
    # (N/R) * phi(R) where R = N / (element order)
    for N in range(2, 25):
        for o in divisors(N):
            if o == N:
                continue
            series = cyclic_full_series(N, o)
            R = N // o
            assert series.egf_prefix(2)[2] == F(N // R * euler_phi(R))


def test_brute_force_counts():
    for N in range(1, 7):
        residues = list(range(1, N))
        for o in divisors(N):
            target = (N // o) % N  # a residue of multiplicative order o
            series = cyclic_full_series(N, o)
            got = series.egf_prefix(8)
            for length in range(9):
                count = 0
                for seq in product(residues, repeat=length):
                    if sum(seq) % N != target:
                        continue
                    g = N
                    for x in seq:
                        g = gcd(g, x)
                    if g == 1:
                        count += 1
                assert got[length] == count, (N, o, length)

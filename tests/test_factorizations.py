"""Main pipeline: full series, minimum lengths, leading counts, core polynomials."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from routes import GROUPS, random_element

from wfact import factorizations
from wfact.cyclic import cyclic_element_order, cyclic_full_series
from wfact.factorizations import (
    full_length,
    lead_coeff,
    lead_from_phi,
    phi_data,
    series_full,
    series_full_factored,
    series_ppn,
    series_window,
)
from wfact.fixtures import load_phi_fixtures
from wfact.groups import Element, GroupParams, conjugate, cycle_data, identity, project, weight
from wfact.hurwitz import hurwitz_h0, hurwitz_h1
from wfact.laurent import LaurentPoly, lowest_order
from wfact.numtheory import divisors, euler_phi, jordan_j2
from wfact.oracle import class_representatives
from wfact.partitions import integer_partitions
from wfact.symmetric import full_series_sn

F = Fraction


# ---------------------------------------------------------------- series_ppn


def test_series_ppn_p1_is_symmetric_series():
    params = GroupParams(1, 1, 4)
    for g in [identity(params), Element((2, 1, 4, 3), (0,) * 4)]:
        cd = cycle_data(g, params)
        assert series_ppn(1, 4, cd) == full_series_sn(4, g.perm)


def test_series_ppn_identity_anchor():
    params = GroupParams(2, 2, 2)
    cd = cycle_data(identity(params), params)
    assert lowest_order(series_ppn(2, 2, cd)) == (4, F(6))


def test_series_ppn_long_cycle_anchor():
    params = GroupParams(2, 2, 2)
    g = Element((2, 1), (1, 1))  # single 2-cycle, cycle color 0, d = 2
    cd = cycle_data(g, params)
    series = series_ppn(2, 2, cd)
    # Moebius sum: F(2z) - 2 F(z), halved (term r=2 carries weight r^{n+k-2} = 2)
    base = full_series_sn(2, (2, 1))
    expected = (base.substitute_power(2) - base.scale(2)).scale(F(1, 2))
    assert series == expected
    assert lowest_order(series) == (3, F(3))


def test_series_ppn_rejects_inconsistent_data():
    params = GroupParams(2, 2, 2)
    cd = cycle_data(identity(params), params)
    with pytest.raises(ValueError):
        series_ppn(2, 3, cd)  # cycle lengths do not sum to n


# ---------------------------------------------------------------- series_full


def test_series_full_g222_identity():
    params = GroupParams(2, 2, 2)
    series = series_full(params, identity(params))
    assert lowest_order(series) == (4, F(6))
    xm1 = LaurentPoly(0, [F(-1), F(1)])
    expected = (xm1 * xm1 * xm1 * xm1 * LaurentPoly.monomial(-2)).scale(F(1, 4))
    assert series == expected


def test_series_full_rank_one_delegates_to_cyclic():
    params = GroupParams(6, 1, 1)
    assert series_full(params, identity(params)) == cyclic_full_series(6, 1)
    g = Element((1,), (5,))
    assert series_full(params, g) == cyclic_full_series(6, 6)


def test_series_full_rejects_non_member():
    params = GroupParams(2, 2, 2)
    with pytest.raises(ValueError):
        series_full(params, Element((1, 2), (1, 0)))


# ---------------------------------------------------------------- full_length


def test_full_length_examples():
    g222 = GroupParams(2, 2, 2)
    assert full_length(g222, identity(g222)) == 4

    for n in range(1, 6):
        sn = GroupParams(1, 1, n)
        for g in class_representatives(sn):
            k = cycle_data(g, sn).k
            assert full_length(sn, g) == n + k - 2

    g422 = GroupParams(4, 2, 2)
    assert full_length(g422, Element((1, 2), (2, 0))) == 5


def test_full_length_all_cases_of_g612():
    params = GroupParams(6, 1, 2)
    for g in class_representatives(params):
        cd = cycle_data(g, params)
        expected = 2 + cd.k - 1  # base case a = 1, d = 1
        if cd.a != 1:
            expected += 1
        if cd.d != 1:
            expected += 1
        assert full_length(params, g) == expected


# ---------------------------------------------------------------- lead_coeff


def test_lead_coeff_equal_parameter_examples():
    g332 = GroupParams(3, 3, 2)
    g = Element((1, 2), (1, 2))  # colors (1,2): d = gcd(1,2,3) = 1
    assert cycle_data(g, g332).d == 1
    assert lead_coeff(g332, g) == 3  # m^(k-1) * H_0((1,1)) = 3 * 1

    g222 = GroupParams(2, 2, 2)
    assert lead_coeff(g222, identity(g222)) == 6


def test_lead_from_phi_examples():
    fixtures = load_phi_fixtures()
    assert lead_from_phi(fixtures["H3"], 120, 6) == 172800
    assert lead_from_phi(LaurentPoly.one(), 2, 2) == 1

    g662 = GroupParams(6, 6, 2)
    direct = lead_coeff(g662, identity(g662))
    assert lead_from_phi(fixtures["G2"], 12, 4) == direct
    # the case formula: m^(k+1)/d^2 * J_2(d) * H_1((1,1))
    assert direct == F(6**3, 36) * jordan_j2(6) * 1
    assert direct == 144


# ---------------------------------------------------------------- consistency


def _old_closed_lowest_order(params, partition, d, a):
    """closed_lowest_order in the Fraction arithmetic it used before its one integer quotient."""
    n, m, p, k = params.n, params.m, params.p, len(partition)
    if d == 1 or n == 1:
        ell, x = n + k - 2, hurwitz_h0(partition)
    else:
        ell, x = n + k, F(m * m * jordan_j2(d), d * d) * hurwitz_h1(partition)
    if m == p:
        lead = m ** (k - 1) * x
    elif a == 1:
        ell += 1
        lead = n * ell * m ** (k - 1) * x
    else:
        ell += 2
        lead = n * n * comb(ell, 2) * m**k * F(euler_phi(a), p * a) * x
    return ell, lead


def test_closed_lowest_order_equals_the_fraction_formula_on_every_key():
    # Every class key (λ, d, a) of every G(m,p,n) with m <= 8 and n <= 6: d and
    # a depend only on the multiset of the k cycle colors, as in cycle_data.
    keys = 0
    for m in range(1, 9):
        for p in divisors(m):
            for n in range(1, 7):
                params = GroupParams(m, p, n)
                for k in range(1, n + 1):
                    pairs = {
                        (gcd(p, *colors), gcd(sum(colors), m) // p)
                        for colors in combinations_with_replacement(range(m), k)
                        if sum(colors) % p == 0
                    }
                    for partition in integer_partitions(n):
                        if len(partition) != k:
                            continue
                        for d, a in pairs:
                            got = factorizations.closed_lowest_order(params, partition, d, a)
                            want = _old_closed_lowest_order(params, partition, d, a)
                            assert got == want, (params, partition, d, a)
                            assert got[1].denominator == 1
                            keys += 1
    assert keys == 1677


def test_closed_lowest_order_raises_on_a_non_integral_count(monkeypatch):
    # an explicit raise, so the check holds under python -O too
    monkeypatch.setattr(factorizations, "h0_ratio", lambda partition: (1, 3))
    with pytest.raises(AssertionError, match="leading count non-integral .*: 1/3"):
        factorizations.closed_lowest_order(GroupParams(2, 2, 2), (2,), 1, 1)


def test_factored_form_requires_proper_quotient():
    params = GroupParams(2, 2, 2)
    with pytest.raises(ValueError):
        series_full_factored(params, identity(params))


def test_factored_form_explicit_assembly():
    # spell the product out once, independently of series_full_factored
    params = GroupParams(4, 2, 2)
    mp = params.m // params.p
    for g in class_representatives(params):
        proj = project(g, params, params.p)
        cd = cycle_data(proj, GroupParams(params.p, params.p, params.n))
        sym_part = series_ppn(params.p, params.n, cd).substitute_power(mp)
        order = cyclic_element_order(params.m, params.p, weight(g, params))
        cyc_part = cyclic_full_series(mp, order).substitute_power(params.n)
        expected = (sym_part * cyc_part).scale(F(1, mp ** (params.n - 1)))
        assert series_full(params, g) == expected


# ---------------------------------------------------------------- structure


def test_series_window_and_phi_structure():
    for params in [params for params in GROUPS if params.order <= 50]:
        lo, hi = series_window(params)
        assert lo == -params.num_hyperplanes
        assert hi == params.num_reflections
        for g in class_representatives(params):
            phi, ell, series = phi_data(params, g)
            assert series.min_deg >= lo
            assert series.max_deg <= hi
            assert phi.min_deg >= 0
            # monic with positive leading coefficient
            assert phi.coefficient(phi.max_deg) == 1
            assert ell == full_length(params, g)


def test_phi_palindromic_for_real_groups():
    real_params = (
        [GroupParams(2, 1, n) for n in (1, 2, 3)]
        + [GroupParams(m, m, 2) for m in range(1, 7)]
        + [GroupParams(1, 1, n) for n in range(1, 7)]
    )
    for params in real_params:
        phi, _, _ = phi_data(params, identity(params))
        assert phi.is_palindromic(), params


# ---------------------------------------------------------------- key cache


def test_key_cache_stays_at_its_bound():
    cache = factorizations.phi_data_by_key
    cache.cache_clear()
    bound = factorizations.KEY_CACHE_SIZE
    for m in range(1, bound + 11):  # one key per group G(m,1,1)
        params = GroupParams(m, 1, 1)
        phi_data(params, identity(params))
    info = cache.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (bound, bound, bound + 10)


def test_series_full_computes_each_key_once():
    # Every element of a key reads the one cached series: one miss per key.
    factorizations.phi_data_by_key.cache_clear()
    params, rng = GroupParams(4, 2, 3), random.Random(8910)
    drawn = [random_element(params, rng) for _ in range(300)]
    for g in drawn:
        series_full(params, g)
    keys = {factorizations.series_key(params, g) for g in drawn}
    info = factorizations.phi_data_by_key.cache_info()
    assert (info.misses, info.hits) == (len(keys), len(drawn) - len(keys))


def test_uncached_routes_leave_the_key_cache_alone():
    factorizations.phi_data_by_key.cache_clear()
    params = GroupParams(4, 2, 3)
    for g in class_representatives(params):
        series_full_factored(params, g)
        full_length(params, g)
        lead_coeff(params, g)
    assert factorizations.phi_data_by_key.cache_info().currsize == 0


# ---------------------------------------------------------------- class invariance


@st.composite
def elements_and_conjugators(draw):
    m = draw(st.integers(1, 6))
    p = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    n = draw(st.integers(1, 5))
    params = GroupParams(m, p, n)
    rng = draw(st.randoms(use_true_random=False))
    return params, random_element(params, rng), random_element(params, rng)


@settings(deadline=None, max_examples=60)
@given(elements_and_conjugators())
def test_series_full_is_a_class_function(case):
    params, g, h = case
    assert series_full(params, g) == series_full(params, conjugate(g, h, params))

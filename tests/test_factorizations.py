"""Main pipeline: full series, minimum lengths, leading counts, core polynomials."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfact import factorizations
from wfact.cyclic import cyclic_element_order, cyclic_full_series
from wfact.factorizations import (
    WINDOW_GUARD,
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
from wfact.groups import (
    Element,
    GroupParams,
    _canonical_from_cycles,
    all_elements,
    conjugate,
    cycle_data,
    identity,
    project,
    validate_element,
    weight,
)
from wfact.hurwitz import hurwitz_h0, hurwitz_h1
from wfact.laurent import LaurentPoly, extract_phi, lowest_order
from wfact.numtheory import divisors, euler_phi, jordan_j2, moebius
from wfact.oracle import class_representatives, count_factorizations, oracle_series
from wfact.partitions import integer_partitions
from wfact.symmetric import full_series_sn, full_series_sn_type

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


def test_series_full_diagonal_element_matches_oracle():
    params = GroupParams(2, 1, 2)
    g = Element((1, 2), (1, 1))
    series = series_full(params, g)
    assert series.egf_prefix(8) == count_factorizations(params, g, 8, mode="full")


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


def test_lead_coeff_g212_identity():
    params = GroupParams(2, 1, 2)
    assert lead_coeff(params, identity(params)) == 48
    assert count_factorizations(params, identity(params), 4, mode="full")[4] == 48


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


TWO_ROUTE_GROUPS = [
    GroupParams(2, 1, 2),
    GroupParams(2, 2, 2),
    GroupParams(3, 1, 2),
    GroupParams(3, 3, 2),
    GroupParams(4, 2, 2),
    GroupParams(2, 2, 3),
]


def test_lowest_order_matches_case_analysis():
    # acceptance runs the full eight-group sweep; keep a per-module core here
    for params in TWO_ROUTE_GROUPS:
        for g in class_representatives(params):
            series = series_full(params, g)
            assert lowest_order(series) == (
                full_length(params, g),
                lead_coeff(params, g),
            ), (params, g)


def test_lowest_order_matches_case_analysis_in_rank_one():
    # G(p,p,1) is trivial, so the cycle colors impose no condition at n = 1
    seen = 0
    for m in range(1, 13):
        for p in divisors(m):
            params = GroupParams(m, p, 1)
            for g in all_elements(params):
                assert lowest_order(series_full(params, g)) == (
                    full_length(params, g),
                    lead_coeff(params, g),
                ), (params, g)
                seen += 1
    assert seen == 127


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


def test_factored_form_identity():
    # for p < m the series factors through the index-p/m quotient data
    for params in [GroupParams(2, 1, 2), GroupParams(4, 2, 2), GroupParams(6, 2, 2)]:
        for g in class_representatives(params):
            assert series_full_factored(params, g) == series_full(params, g), (
                params,
                g,
            )


def _random_element(params, rng):
    n, m, p = params.n, params.m, params.p
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    colors = [rng.randrange(m) for _ in range(n)]
    # p | m, so shifting one color by the residue makes the total divisible by p
    colors[-1] = (colors[-1] - sum(colors) % p) % m
    return Element(tuple(perm), tuple(colors))


def test_factored_form_identity_past_the_old_guard():
    rng = random.Random(8910)
    for params in [
        GroupParams(2, 1, 8),
        GroupParams(4, 2, 9),
        GroupParams(6, 2, 10),
        GroupParams(6, 3, 10),
    ]:
        for _ in range(12):
            g = _random_element(params, rng)
            assert series_full_factored(params, g) == series_full(params, g), (params, g)


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
    for params in TWO_ROUTE_GROUPS:
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


def test_identity_series_equals_oracle_on_g332():
    params = GroupParams(3, 3, 2)
    for g in class_representatives(params):
        series = series_full(params, g)
        top = params.num_reflections + params.num_hyperplanes
        assert series.egf_prefix(top) == count_factorizations(
            params, g, top, mode="full"
        )


# ---------------------------------------------------------------- class-weighted anchor


def connected_edge_series(n: int) -> LaurentPoly:
    """C_n(X) = n! [y^n] log Sum_j X^C(j,2) y^j / j!  (Stanley, EC2 section 5.1).

    With X = e^z, X^C(j,2) is the EGF of all edge sequences on j labelled
    vertices, and C_n that of the connected ones.  Splitting off the
    component of vertex 1 gives c_j = X^C(j,2) - Sum_{k<j} C(j-1,k-1)
    c_k X^C(j-k,2).
    """
    c = [LaurentPoly.zero()]
    for j in range(1, n + 1):
        acc = LaurentPoly.monomial(comb(j, 2))
        for k in range(1, j):
            split = c[k] * LaurentPoly.monomial(comb(j - k, 2))
            acc = acc - split.scale(comb(j - 1, k - 1))
        c.append(acc)
    return c[n]


def class_weighted_full_sum(params: GroupParams) -> LaurentPoly:
    """Sum over g in G(m,p,n) of the full series of g, in closed form.

    [Sum_{d|m, gcd(d,p)=1} Sum_{d|d'|m} mu(d'/d) d'^(n-1) C_n(X^(m/d'))]
      * [Sum_{p|e|m} mu(e/p) X^(n(m/e-1))].

    Proof sketch.  The left side is the EGF of all reflection sequences
    that generate G(m,p,n).  A sequence generates exactly when three things
    hold: its colored-transposition graph on the n positions is connected;
    the exponents of its diagonal reflections generate pZ_m; and the color
    sums around the cycles of its graph generate some dZ_m with
    gcd(d, p) = 1.  The transposition-like and diagonal reflections shuffle,
    so the EGF is the product of one factor for each.  A connected sequence
    of N edges whose cycle sums all lie in d'Z_m has d'^(n-1) (m/d')^N
    colorings, one for each potential mod d' on the vertices; that is
    d'^(n-1) C_n(X^(m/d')), and Moebius inversion over d | d' | m keeps the
    sequences whose cycle sums generate exactly dZ_m.  Likewise
    X^(n(m/e-1)) counts the diagonal sequences with exponents in eZ_m, and
    inversion over p | e | m keeps those generating exactly pZ_m.

    For n = 1 the graph has no cycles, so the first factor is [p = 1]; but
    G(m,p,1) with p > 1 is the cyclic group of order m/p, not empty, so the
    identity needs n >= 2 or p = 1.
    """
    return _generating_sequences(params, connected_edge_series(params.n))


def type_weighted_full_sum(params: GroupParams, partition: tuple[int, ...]) -> LaurentPoly:
    """Sum over the g in G(m,p,n) of cycle type λ of the full series of g.

    class_weighted_full_sum with C_n(X) replaced by (n!/z_λ) F_λ(X), where
    F_λ is the S_n full series of one permutation of type λ.  The product of
    a reflection sequence has as its underlying permutation the product of
    the sequence's transpositions (diagonal reflections add none), and the
    colorings counted there do not change that permutation.  So keeping the
    products of type λ keeps, among the connected edge sequences, those
    whose product has type λ, and the n!/z_λ permutations of type λ each
    contribute F_λ.  Needs n >= 2, as the class-weighted identity does.
    """
    counts = Counter(partition)
    z = prod(part**count * factorial(count) for part, count in counts.items())
    typed = full_series_sn_type(partition).scale(factorial(params.n) // z)
    return _generating_sequences(params, typed)


def _generating_sequences(params: GroupParams, connected: LaurentPoly) -> LaurentPoly:
    """The two factors of class_weighted_full_sum, with C_n given as connected."""
    m, p, n = params.m, params.p, params.n
    graphs = LaurentPoly.zero()
    for d in divisors(m):
        if gcd(d, p) != 1:
            continue
        for d2 in divisors(m):
            if d2 % d == 0 and moebius(d2 // d):
                term = connected.substitute_power(m // d2)
                graphs = graphs + term.scale(moebius(d2 // d) * d2 ** (n - 1))
    diagonals = LaurentPoly.zero()
    for e in divisors(m):
        if e % p == 0 and moebius(e // p):
            diagonals = diagonals + LaurentPoly.monomial(n * (m // e - 1), moebius(e // p))
    return graphs * diagonals


# n >= 2 or p = 1 only: G(p,p,1) is trivial, and the identity's n = 1 case
# holds for p = 1 alone (see class_weighted_full_sum).
ANCHOR_GROUPS = [
    GroupParams(*mpn)
    for mpn in [
        (1, 1, 1), (1, 1, 3), (1, 1, 4), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 2),
        (3, 1, 3), (3, 3, 3), (4, 1, 1), (4, 2, 3), (4, 4, 4), (6, 2, 2), (6, 3, 2),
        (12, 3, 2), (12, 6, 3),
    ]
]


@pytest.mark.parametrize("params", ANCHOR_GROUPS, ids=str)
def test_series_summed_over_the_group_matches_the_class_weighted_identity(params):
    total = LaurentPoly.zero()
    for g in all_elements(params):
        total = total + series_full(params, g)
    assert total == class_weighted_full_sum(params)


# 2 <= n <= 4, p = 1, 1 < p < m and p = m, and m with square factors (4, 8,
# 12) so that the Moebius sums over d | d' | m and p | e | m are not trivial.
TYPE_ANCHOR_GROUPS = [
    GroupParams(*mpn)
    for mpn in [
        (2, 1, 2), (2, 2, 4), (3, 1, 3), (3, 3, 4), (4, 2, 3), (4, 4, 3), (4, 2, 4),
        (6, 1, 2), (6, 2, 3), (6, 3, 3), (6, 6, 3), (8, 1, 3), (12, 4, 2), (12, 6, 3),
        (12, 12, 2),
    ]
]


@pytest.mark.parametrize("params", TYPE_ANCHOR_GROUPS, ids=str)
def test_series_summed_over_each_cycle_type_matches_the_type_weighted_identity(params):
    totals = {}
    for g in all_elements(params):
        partition = cycle_data(g, params).partition
        totals[partition] = totals.get(partition, LaurentPoly.zero()) + series_full(params, g)
    assert sorted(totals) == sorted(integer_partitions(params.n))
    for partition, total in totals.items():
        assert total == type_weighted_full_sum(params, partition), partition


def test_connected_edge_series_counts_spanning_trees():
    # Cayley: no sequence of fewer than n-1 edges connects n vertices, and
    # the n^(n-2) spanning trees come in (n-1)! edge orders each.
    for n in range(2, 7):
        prefix = connected_edge_series(n).egf_prefix(n - 1)
        assert prefix == [0] * (n - 1) + [n ** (n - 2) * factorial(n - 1)]


# ---------------------------------------------------------------- Coxeter elements
#
# At a Coxeter element c of a well-generated group of rank r with Coxeter
# number h, every reflection factorization is full, and the series is
# X**-#A * (X**h - 1)**r / #W (Chapuy & Stump, J. London Math. Soc. 90
# (2014)); #R + #A = r * h.


def coxeter_cases(max_m, max_n):
    """(params, c, r, h) for every well-generated G(m,p,n) with m, n in range.

    G(m,1,n) (m >= 2): c one n-cycle of color 1, h = mn.  G(m,m,n) (n >= 2):
    an (n-1)-cycle of color 1 and a fixed point of color -1, h = (n-1)m.
    S_n = G(1,1,n): one n-cycle, r = n - 1 and h = n.  Only the groups
    inside WINDOW_GUARD are listed.
    """
    cases = []
    for n in range(1, max_n + 1):
        cases.append((GroupParams(1, 1, n), [(n, 0)], n - 1, n))
        for m in range(2, max_m + 1):
            cases.append((GroupParams(m, 1, n), [(n, 1)], n, m * n))
            if n >= 2:
                cycles = [(n - 1, 1), (1, m - 1)]
                cases.append((GroupParams(m, m, n), cycles, n, (n - 1) * m))
    return [
        (params, _canonical_from_cycles(cycles, params), r, h)
        for params, cycles, r, h in cases
        if params.num_reflections + params.num_hyperplanes <= WINDOW_GUARD
    ]


def coxeter_series(params, r, h):
    """X**-#A * (X**h - 1)**r / #W."""
    coeffs = [0] * (r * h + 1)
    for k in range(r + 1):
        coeffs[k * h] = comb(r, k) * (-1) ** (r - k)
    return LaurentPoly(-params.num_hyperplanes, coeffs, params.order)


COXETER_CASES = coxeter_cases(12, 14)


def test_series_full_at_coxeter_elements():
    assert len(COXETER_CASES) == 311
    for params, c, r, h in COXETER_CASES:
        validate_element(c, params)
        assert params.num_reflections + params.num_hyperplanes == r * h, params
        assert series_full(params, c) == coxeter_series(params, r, h), params


def test_lowest_order_at_coxeter_elements():
    # The minimum length is the rank and the count r! h**r / #W
    # (Deligne-Reading).
    cases = [case for case in COXETER_CASES if case[0].n >= 2]
    assert len(cases) == 299
    for params, c, r, h in cases:
        assert full_length(params, c) == r, params
        assert lead_coeff(params, c) == Fraction(factorial(r) * h**r, params.order), params


@pytest.mark.parametrize(
    "mpn",
    [
        (1, 1, 3), (1, 1, 4), (2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3),
        (2, 2, 3), (3, 3, 3), (4, 4, 2), (2, 2, 4), (2, 1, 4), (5, 1, 1),
    ],
    ids=str,
)
def test_oracle_series_at_coxeter_elements(mpn):
    # Every factorization of c is full, so both modes give the formula.
    [(params, c, r, h)] = [case for case in COXETER_CASES if case[0] == GroupParams(*mpn)]
    expected = coxeter_series(params, r, h)
    assert oracle_series(params, c, mode="all") == expected
    assert oracle_series(params, c, mode="full") == expected


# ---------------------------------------------------------------- key cache


PER_ELEMENT_GROUPS = [
    GroupParams(2, 1, 3), GroupParams(4, 2, 2), GroupParams(3, 3, 3),
    GroupParams(6, 3, 2), GroupParams(4, 2, 3),
]


def test_series_full_matches_the_oracle_on_every_element():
    # The key cache's premise: the series of g depends on its key (λ, d, a)
    # alone.  Checked on every element, not only the class representatives.
    factorizations.phi_data_by_key.cache_clear()
    for params in PER_ELEMENT_GROUPS:
        top = params.num_reflections + 2
        for g in all_elements(params):
            expected = count_factorizations(params, g, top, mode="full")
            assert series_full(params, g).egf_prefix(top) == expected, (params, g)
    assert factorizations.phi_data_by_key.cache_info().hits > 0


def test_key_cache_stays_at_its_bound():
    cache = factorizations.phi_data_by_key
    cache.cache_clear()
    bound = factorizations.KEY_CACHE_SIZE
    for m in range(1, bound + 11):  # one key per group G(m,1,1)
        params = GroupParams(m, 1, 1)
        phi_data(params, identity(params))
    info = cache.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (bound, bound, bound + 10)


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
    return params, _random_element(params, rng), _random_element(params, rng)


@settings(deadline=None, max_examples=60)
@given(elements_and_conjugators())
def test_series_full_is_a_class_function(case):
    params, g, h = case
    assert series_full(params, g) == series_full(params, conjugate(g, h, params))

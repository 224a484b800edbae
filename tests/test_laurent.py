"""Exact Laurent polynomials in X = e**z and the bridge to z-series counts."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from routes import factorial, poly

from wfact.laurent import (
    _CACHED_WIDTH,
    LaurentPoly,
    _lagrange_basis,
    _strip_x_minus_one,
    extract_phi,
    laurent_from_egf,
    lowest_order,
)


F = Fraction


X_MINUS_1 = poly(0, -1, 1)
X_PLUS_1 = poly(0, 1, 1)


def from_json(doc):
    """The polynomial a ``to_json`` dict describes."""
    return LaurentPoly(doc["min_deg"], [F(s) for s in doc["coeffs"]])


def random_poly(rng, width=5, span=3):
    coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(width)]
    return LaurentPoly(rng.randint(-span, span), coeffs)


# ---------------------------------------------------------------- construction


def test_canonical_trimming():
    assert poly(-1, 0, 1, 0) == poly(0, 1)
    assert poly(2, 0, 0) == LaurentPoly.zero()
    assert LaurentPoly.zero().min_deg == 0
    assert LaurentPoly.zero().coeffs == ()


def test_zero_is_canonical_and_unique():
    assert poly(5, 0) == LaurentPoly.zero()
    assert poly(-7, 0, 0, 0) == LaurentPoly.zero()
    assert LaurentPoly.zero().is_zero()


# ---------------------------------------------------------------- ring ops


def test_multiply_difference_of_squares():
    assert X_MINUS_1 * X_PLUS_1 == poly(0, -1, 0, 1)


def test_multiply_by_zero():
    rng = random.Random(1)
    for _ in range(10):
        assert random_poly(rng) * LaurentPoly.zero() == LaurentPoly.zero()


def test_multiply_degree_shift():
    assert poly(-1, 1, 1) * LaurentPoly.monomial(1) == poly(0, 1, 1)


# ------------------------------------------------------- Hypothesis ring laws

# Small and large coprime denominators, and explicit zeros to exercise trimming.
coefficients = st.one_of(
    st.just(F(0)),
    st.fractions(max_denominator=12, min_value=-50, max_value=50),
    st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)


@st.composite
def laurent_polys(draw, max_width=6):
    return LaurentPoly(
        draw(st.integers(-6, 6)), draw(st.lists(coefficients, max_size=max_width))
    )


@st.composite
def contentful_polys(draw, max_width=6):
    """Canonical polynomials with a denominator other than 1 and numerators of content > 1."""
    content = draw(st.integers(2, 60))
    denom = draw(st.integers(2, 60).filter(lambda d: math.gcd(d, content) == 1))
    ends = st.integers(-50, 50).filter(bool)
    numers = [draw(ends), *draw(st.lists(st.integers(-50, 50), max_size=max_width - 2))]
    numers.append(draw(ends))
    g = math.gcd(*numers)
    return LaurentPoly(draw(st.integers(-6, 6)), [content * v // g for v in numers], denom)


def assert_canonical(L):
    assert isinstance(L.denom, int) and L.denom > 0
    assert math.gcd(L.denom, *L.numers) == 1
    if L.numers:
        assert L.numers[0] != 0 and L.numers[-1] != 0
    else:
        assert (L.min_deg, L.denom) == (0, 1)


@settings(deadline=None, max_examples=80)
@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_axioms_random(a, b, c):
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == zero
    assert a + zero == a and zero + a == a
    assert a * one == a and a * zero == zero
    for result in (a + b, a - b, a * b, -a, a - a, a * zero):
        assert_canonical(result)


@settings(deadline=None, max_examples=80)
@given(laurent_polys(), coefficients, st.integers(1, 4))
def test_canonical_form_property(a, q, c):
    for L in (a, a.scale(q), a * q, a.substitute_power(c)):
        assert_canonical(L)
    assert a.scale(q) == LaurentPoly(a.min_deg, [x * q for x in a.coeffs])
    spread = [F(0)] * (c * len(a.coeffs))
    spread[::c] = a.coeffs
    assert a.substitute_power(c) == LaurentPoly(a.min_deg * c, spread)


@settings(deadline=None, max_examples=80)
@given(
    st.integers(-6, 6),
    st.lists(st.integers(-(10**20), 10**20), max_size=6),
    st.integers(-(10**20), 10**20).filter(bool),
)
def test_int_and_fraction_forms_agree(min_deg, numers, denom):
    from_ints = LaurentPoly(min_deg, numers, denom)
    from_fracs = LaurentPoly(min_deg, [F(n, denom) for n in numers])
    assert_canonical(from_ints)
    # The Fraction view is cached on first use and plays no part in equality.
    assert from_ints.coeffs == from_fracs.coeffs
    assert from_ints == from_fracs
    assert hash(from_ints) == hash(from_fracs)
    assert F(sum(from_ints.numers), from_ints.denom) == F(sum(numers), denom)


def test_canonical_form_examples():
    assert LaurentPoly(0, [2, 4], 6) == LaurentPoly(0, [F(1, 3), F(2, 3)])
    negative = LaurentPoly(0, [2, 4], -6)
    assert (negative.numers, negative.denom) == ((-1, -2), 3)
    assert LaurentPoly(3, [0, 0], 7) == LaurentPoly.zero()
    assert LaurentPoly.zero().denom == 1


def test_constructor_rejects_float_and_zero_denominator():
    with pytest.raises(TypeError):
        LaurentPoly(0, [1, 0.5])
    with pytest.raises(TypeError):
        LaurentPoly(0, [1], 2.0)
    with pytest.raises(ZeroDivisionError):
        LaurentPoly(0, [1], 0)


@settings(deadline=None, max_examples=80)
@given(laurent_polys(), laurent_polys(), coefficients, st.integers(1, 4), st.integers(0, 2))
def test_internal_results_are_canonical(a, b, q, c, surplus):
    # Every ring operation builds its result through the private
    # constructor; the public one must give the very same fields.
    divisible = a * X_MINUS_1
    results = [
        a + b, a - b, a * b, -a, a - a,
        a.scale(q), a.substitute_power(c), divisible.divide_by_x_minus_one(),
        laurent_from_egf(a.egf_prefix(a.max_deg - a.min_deg + surplus), a.min_deg, a.max_deg),
    ]
    for r in results:
        rebuilt = LaurentPoly(r.min_deg, list(r.numers), r.denom)
        assert (rebuilt.min_deg, rebuilt.numers, rebuilt.denom) == (r.min_deg, r.numers, r.denom)
        assert_canonical(r)
        assert r.to_json()["coeffs"] == [f"{x.numerator}/{x.denominator}" for x in r.coeffs]


@settings(deadline=None, max_examples=80)
@given(laurent_polys())
def test_json_round_trip_property(a):
    assert from_json(a.to_json()) == a


nonzero_points = st.fractions(max_denominator=40, min_value=-9, max_value=9).filter(bool)


@settings(deadline=None, max_examples=80)
@given(laurent_polys(), nonzero_points, st.integers(0, 8))
def test_evaluate_and_egf_prefix_match_fraction_sums(a, x, n):
    terms = list(enumerate(a.coeffs, a.min_deg))
    assert a.evaluate(x) == sum((c * x**d for d, c in terms), F(0))
    assert a.egf_prefix(n) == [sum((c * F(d) ** j for d, c in terms), F(0)) for j in range(n + 1)]
    if a.min_deg >= 0:
        assert a.evaluate(F(0)) == a.coefficient(0)


@settings(deadline=None, max_examples=60)
@given(laurent_polys(), st.integers(0, 8), st.integers(0, 10))
def test_egf_counts_from_start_are_the_tail_of_egf_prefix(a, n, start):
    assert list(a.egf_counts(n, start)) == a.egf_prefix(n)[start:]


@settings(deadline=None, max_examples=60)
@given(st.one_of(laurent_polys(), contentful_polys()), st.integers(0, 4))
def test_strip_x_minus_one_property(base, s):
    if base.is_zero() or base.evaluate(F(1)) == 0:
        return
    L = base
    for _ in range(s):
        L = L * X_MINUS_1
    assert _strip_x_minus_one(L) == (base, s)
    assert lowest_order(L) == (s, base.evaluate(F(1)) * math.factorial(s))


@settings(deadline=None, max_examples=80)
@given(contentful_polys(), st.integers(1, 3))
def test_divide_by_x_minus_one_builds_the_canonical_quotient(base, s):
    # The quotient is stored as computed, with no trim and no gcd: by Gauss's
    # lemma it is canonical, even where the numerators share a factor.
    P = base
    for _ in range(s):
        P = P * X_MINUS_1
    assert P.denom != 1 and math.gcd(*P.numers) > 1
    Q = P.divide_by_x_minus_one()
    ref = LaurentPoly._from_ints(Q.min_deg, list(Q.numers), Q.denom)
    assert (Q.min_deg, Q.numers, Q.denom) == (ref.min_deg, ref.numers, ref.denom)
    assert type(Q.numers) is tuple
    assert X_MINUS_1 * Q == P


def test_divide_by_x_minus_one_rejects_non_root():
    with pytest.raises(ValueError):
        poly(0, 1, 1).divide_by_x_minus_one()
    assert (X_MINUS_1 * X_PLUS_1).divide_by_x_minus_one() == X_PLUS_1


# ---------------------------------------------------------------- substitution


def test_substitute_power_examples():
    assert X_MINUS_1.substitute_power(2) == poly(0, -1, 0, 1)
    assert LaurentPoly.monomial(-1).substitute_power(3) == LaurentPoly.monomial(-3)


def test_substitute_power_requires_positive():
    with pytest.raises(ValueError):
        X_MINUS_1.substitute_power(0)


def test_substitute_power_egf_consistency():
    rng = random.Random(11)
    for _ in range(15):
        L = random_poly(rng)
        for c in (1, 2, 3):
            lhs = L.substitute_power(c).egf_prefix(6)
            rhs = L.egf_prefix(6)
            for j in range(6):
                assert lhs[j] == c**j * rhs[j]


# ---------------------------------------------------------------- egf bridge


def test_egf_prefix_s2_identity_row():
    L = poly(-1, 1, -2, 1).scale(F(1, 2))  # (X - 2 + 1/X)/2
    assert L.egf_prefix(4) == [F(0), F(0), F(1), F(0), F(1)]


def test_egf_counts_are_computed_as_they_are_taken():
    # The first five of 10**12 counts, without the rest.
    counts = poly(-1, 1, -2, 1).egf_counts(10**12)
    assert [next(counts) for _ in range(5)] == poly(-1, 1, -2, 1).egf_prefix(4)


def test_egf_prefix_constants():
    assert LaurentPoly.one().egf_prefix(3) == [F(1), F(0), F(0), F(0)]
    assert LaurentPoly.monomial(1).egf_prefix(3) == [F(1), F(1), F(1), F(1)]


def test_laurent_from_egf_examples():
    got = laurent_from_egf([0, 0, 1, 0, 1], -1, 1)
    assert got == poly(-1, 1, -2, 1).scale(F(1, 2))
    assert laurent_from_egf([1, 0, 0], 0, 0) == LaurentPoly.one()


def test_laurent_from_egf_round_trip():
    rng = random.Random(23)
    for _ in range(20):
        L = random_poly(rng)
        width = L.max_deg - L.min_deg + 1
        prefix = L.egf_prefix(width + 2)  # includes surplus entries
        assert laurent_from_egf(prefix, L.min_deg, L.max_deg) == L


def test_laurent_from_egf_rejects_inconsistent_surplus():
    L = poly(0, 1, 1)  # 1 + X
    prefix = L.egf_prefix(4)
    prefix[3] += 1
    with pytest.raises(ValueError):
        laurent_from_egf(prefix, 0, 1)


def test_laurent_from_egf_rejects_short_prefix():
    laurent_from_egf([1, 0, 1], -1, 1)  # the window's basis is built and kept
    with pytest.raises(ValueError, match="need at least 3 prefix entries, got 2"):
        laurent_from_egf([1, 2], -1, 1)


def test_laurent_from_egf_rejects_float_and_empty_window():
    laurent_from_egf([1, 0, 1], -1, 1)
    with pytest.raises(TypeError):
        laurent_from_egf([1, 0.5, 2], -1, 1)
    with pytest.raises(ValueError, match="empty degree window"):
        laurent_from_egf([1, 2], 1, 0)


def test_laurent_from_egf_repeat_calls_on_one_window_agree():
    L = poly(-2, 3, F(-1, 2), 0, 7, F(5, 3))
    prefix = L.egf_prefix(6)
    first = laurent_from_egf(prefix, -2, 2)
    hits = _lagrange_basis.cache_info().hits
    second = laurent_from_egf(list(prefix), -2, 2)
    assert _lagrange_basis.cache_info().hits == hits + 1
    assert first == second == L


@pytest.mark.parametrize("surplus_index", [0, 1])
def test_laurent_from_egf_warm_basis_still_checks_each_surplus_count(surplus_index):
    L = poly(-1, 4, -1, 0, F(2, 5))
    prefix = L.egf_prefix(5)  # window [-1, 2]: width 4, surplus entries 4 and 5
    assert laurent_from_egf(prefix, -1, 2) == L
    index = 4 + surplus_index
    prefix[index] += 1
    hits = _lagrange_basis.cache_info().hits
    with pytest.raises(ValueError, match=f"at index {index}:"):
        laurent_from_egf(prefix, -1, 2)
    assert _lagrange_basis.cache_info().hits == hits + 1


@pytest.mark.parametrize("width", [_CACHED_WIDTH, _CACHED_WIDTH + 1])
def test_laurent_from_egf_keeps_no_basis_past_the_widest_oracle_window(width):
    # A kept basis grows like w**3 log w, so a direct call on a window wider
    # than any oracle_series reaches builds its basis for that call alone.
    # It still round-trips and still checks the surplus counts.
    L = LaurentPoly(-10, [F(1, 3), 0, -2] + [0] * (width - 6) + [5, 0, 1])
    assert L.max_deg - L.min_deg + 1 == width
    prefix = L.egf_prefix(width + 1)
    before = _lagrange_basis.cache_info()
    assert laurent_from_egf(prefix, L.min_deg, L.max_deg) == L
    prefix[width] += 1
    with pytest.raises(ValueError, match=f"at index {width}:"):
        laurent_from_egf(prefix, L.min_deg, L.max_deg)
    after = _lagrange_basis.cache_info()
    if width > _CACHED_WIDTH:
        assert after == before
    else:
        assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)


def test_laurent_from_egf_all_zero_prefix_is_zero():
    assert laurent_from_egf([0] * 9, -3, 4) == LaurentPoly.zero()
    assert laurent_from_egf([F(0)] * 10, -3, 4) == LaurentPoly.zero()
    with pytest.raises(ValueError, match="at index 8:"):
        laurent_from_egf([0] * 8 + [1], -3, 4)


def test_laurent_from_egf_sparse_prefix_round_trips():
    # (X - 1)^4 / X^2 times X + 3 + 1/X is fixed by X -> 1/X: its counts
    # vanish below length 4 and at every odd length, as most of an oracle
    # window's counts do.
    square = poly(-1, 1, -2, 1)  # (X - 1)^2 / X
    L = (square * square * poly(-1, 1, 3, 1)).scale(F(1, 5))
    assert L.min_deg == -3
    prefix = L.egf_prefix(13)  # window [-5, 6]: width 12, two surplus counts
    assert [j for j, c in enumerate(prefix) if c] == [4, 6, 8, 10, 12]
    assert laurent_from_egf(prefix, -5, 6) == L
    assert laurent_from_egf(prefix, -5, 6) == L


@st.composite
def windowed_polys(draw):
    """(L, lo, hi): L has random Fraction coefficients, support inside [lo, hi]."""
    lo = draw(st.integers(-25, 25))
    width = draw(st.integers(1, 40))
    start = draw(st.integers(0, width - 1))
    stop = draw(st.integers(start, width - 1))
    coeffs = draw(
        st.lists(
            st.fractions(max_denominator=30, min_value=-1000, max_value=1000),
            min_size=stop - start + 1,
            max_size=stop - start + 1,
        )
    )
    return LaurentPoly(lo + start, coeffs), lo, lo + width - 1


@settings(deadline=None, max_examples=60)
@given(windowed_polys(), st.integers(0, 3))
def test_laurent_from_egf_round_trip_property(case, surplus):
    L, lo, hi = case
    prefix = L.egf_prefix(hi - lo + surplus)
    assert laurent_from_egf(prefix, lo, hi) == L


@settings(deadline=None, max_examples=60)
@given(
    windowed_polys(),
    st.integers(0, 3),
    st.integers(0, 3),
    st.fractions(max_denominator=30).filter(bool),
)
@example(case=(poly(-2, 1, 3, F(1, 2)), -3, 1), surplus=2, offset=2, delta=F(1, 3))
def test_laurent_from_egf_rejects_any_planted_surplus_mismatch(case, surplus, offset, delta):
    L, lo, hi = case
    width = hi - lo + 1
    prefix = L.egf_prefix(width + surplus)
    index = width + min(offset, surplus)
    prefix[index] += delta
    with pytest.raises(ValueError, match=f"at index {index}:"):
        laurent_from_egf(prefix, lo, hi)


# ---------------------------------------------------------------- lowest order


def test_lowest_order_s2_row():
    L = (X_MINUS_1 * X_MINUS_1 * LaurentPoly.monomial(-1)).scale(F(1, 2))
    assert lowest_order(L) == (2, F(1))


def test_lowest_order_constant():
    assert lowest_order(LaurentPoly.one()) == (0, F(1))


def test_lowest_order_s3_row():
    # (X^2+4X+1)(X-1)^4/(6X^3): value of L/(X-1)^4 at 1 is 1, so the count
    # of minimum-length factorizations (coefficient of z^4/4!) is 4! * 1 = 24.
    xm1_4 = X_MINUS_1 * X_MINUS_1 * X_MINUS_1 * X_MINUS_1
    L = (poly(0, 1, 4, 1) * xm1_4 * LaurentPoly.monomial(-3)).scale(F(1, 6))
    assert lowest_order(L) == (4, F(24))


def test_lowest_order_rejects_zero():
    with pytest.raises(ValueError):
        lowest_order(LaurentPoly.zero())


def test_lowest_order_matches_exact_division_count():
    rng = random.Random(31)
    for _ in range(20):
        base = random_poly(rng)
        if base.is_zero() or base.evaluate(F(1)) == 0:
            continue
        s = rng.randint(0, 3)
        L = base
        for _ in range(s):
            L = L * X_MINUS_1
        got_s, got_c = lowest_order(L)
        assert got_s == s
        assert got_c == base.evaluate(F(1)) * factorial(s)


# ---------------------------------------------------------------- extract_phi


def test_extract_phi_s2_row():
    L = (X_MINUS_1 * X_MINUS_1 * LaurentPoly.monomial(-1)).scale(F(1, 2))
    phi, ell = extract_phi(L, 2, 1)
    assert (phi, ell) == (LaurentPoly.one(), 2)


def test_extract_phi_s3_row():
    xm1_4 = X_MINUS_1 * X_MINUS_1 * X_MINUS_1 * X_MINUS_1
    L = (poly(0, 1, 4, 1) * xm1_4 * LaurentPoly.monomial(-3)).scale(F(1, 6))
    phi, ell = extract_phi(L, 6, 3)
    assert (phi, ell) == (poly(0, 1, 4, 1), 4)


def test_extract_phi_order_6_cyclic_identity():
    from wfact.cyclic import cyclic_full_series

    L = cyclic_full_series(6, 1)
    phi, ell = extract_phi(L, 6, 1)
    assert (phi, ell) == (poly(0, -2, 2, 3, 2, 1), 2)


def test_extract_phi_reassembly():
    rng = random.Random(47)
    for _ in range(15):
        base = random_poly(rng)
        if base.is_zero():
            continue
        if base.min_deg < 0:  # the core must be an ordinary polynomial
            base = base * LaurentPoly.monomial(-base.min_deg)
        order = rng.randint(1, 24)
        hyper = rng.randint(0, 4)
        L = base.scale(F(1, order)) * LaurentPoly.monomial(-hyper)
        phi, ell = extract_phi(L, order, hyper)
        assert phi.min_deg >= 0
        rebuilt = phi.scale(F(1, order)) * LaurentPoly.monomial(-hyper)
        for _ in range(ell):
            rebuilt = rebuilt * X_MINUS_1
        assert rebuilt == L
        # ell is maximal: phi does not vanish at 1
        assert phi.evaluate(F(1)) != 0


def test_extract_phi_rejects_negative_degree_core():
    # X^-3 * (X-1)^2 / 2 cannot be written with a polynomial core for
    # num_hyperplanes = 1
    L = (X_MINUS_1 * X_MINUS_1 * LaurentPoly.monomial(-3)).scale(F(1, 2))
    with pytest.raises(ValueError):
        extract_phi(L, 2, 1)


def test_extract_phi_rejects_zero():
    with pytest.raises(ValueError):
        extract_phi(LaurentPoly.zero(), 2, 1)


# ---------------------------------------------------------------- serialization


def test_json_round_trip():
    rng = random.Random(59)
    for _ in range(10):
        L = random_poly(rng)
        doc = L.to_json()
        assert set(doc) == {"min_deg", "coeffs"}
        assert all("/" in entry for entry in doc["coeffs"])
        assert from_json(doc) == L


def test_evaluate_requires_nonzero_for_negative_degrees():
    with pytest.raises(ZeroDivisionError):
        poly(-1, 1).evaluate(F(0))

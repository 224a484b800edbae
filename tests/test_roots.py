"""Root finding on the core polynomials: square-free split, Aberth sweeps, exact Newton steps."""

import cmath
import functools
import itertools
import math
import random
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from routes import poly

from wfact import roots as roots_module
from wfact.errors import CapabilityError
from wfact.fixtures import load_phi_fixtures
from wfact.laurent import LaurentPoly, _int_horner, extract_phi
from wfact.roots import (
    RootFindingError,
    _certify_newton,
    _fixed_horner,
    _int_gcd,
    _inverse_root,
    _monic_gcd_mod,
    _newton_and_residual,
    _newton_polygon_start,
    _newton_step,
    _squarefree_parts,
    _word_primes,
    find_roots,
)
from wfact.symmetric import dyz_identity_series

F = Fraction


def test_find_roots_quadratics():
    roots = find_roots(poly(0, -1, 0, 1))  # X^2 - 1
    assert len(roots) == 2
    got = sorted((round(z.real, 8), round(z.imag, 8)) for z in roots)
    assert got == [(-1.0, 0.0), (1.0, 0.0)]

    roots = find_roots(poly(0, 1, 0, 1))  # X^2 + 1
    got = sorted((round(z.real, 8), round(z.imag, 8)) for z in roots)
    assert got == [(0.0, -1.0), (0.0, 1.0)]


def test_find_roots_g2_fixture_symmetries():
    from wfact.fixtures import load_phi_fixtures

    phi = load_phi_fixtures()["G2"]
    roots = find_roots(phi)
    assert len(roots) == 8
    for z in roots:
        # closed under complex conjugation
        assert min(abs(z.conjugate() - w) for w in roots) < 1e-8
        # closed under inversion across the unit circle r -> 1 / conj(r)
        assert min(abs(1 / z.conjugate() - w) for w in roots) < 1e-8


def test_find_roots_residual_tolerance():
    phi = poly(0, -6, 11, -6, 1)  # (X-1)(X-2)(X-3)
    roots = find_roots(phi)
    for z in roots:
        val = sum(complex(c) * z** (phi.min_deg + i) for i, c in enumerate(phi.coeffs))
        assert abs(val) / (1 + abs(z) ** 3) < 1e-10


def test_find_roots_requires_degree():
    with pytest.raises(ValueError):
        find_roots(LaurentPoly.one())
    with pytest.raises(ValueError):
        find_roots(poly(-1, 1, 1))  # negative min_deg not an ordinary polynomial


def test_find_roots_failure_carries_best_iterate(monkeypatch):
    phi = load_phi_fixtures()["H4"]
    monkeypatch.setattr(roots_module, "_MAX_ITER", 2)
    with pytest.raises(RootFindingError) as info:
        find_roots(phi)
    best = info.value.best
    assert len(best) == phi.max_deg
    assert best == sorted(best, key=lambda r: (r.real, r.imag))


def _int_poly(roots):
    """Integer ascending coefficients of prod (X - r) for roots closed under conjugation."""
    coeffs = np.polynomial.polynomial.polyfromroots(roots).real
    return [int(c) for c in np.rint(coeffs)]


def assert_roots_match(found, expected, rel=1e-10):
    unmatched = list(found)
    for r in expected:
        best = min(unmatched, key=lambda s: abs(s - r))
        assert abs(best - r) <= rel * abs(r), (r, best)
        unmatched.remove(best)
    assert not unmatched


SPREAD_ROOTS = [1, 10, 100, 1000, 1j, -1j]


@pytest.mark.parametrize(
    "numers, expected",
    [
        (_int_poly(SPREAD_ROOTS), SPREAD_ROOTS),
        ([-1] + [0] * 49 + [1], [np.exp(2j * np.pi * k / 50) for k in range(50)]),
        (
            [2] + [0] * 30 + [1],
            [2 ** (1 / 31) * np.exp(1j * np.pi * (2 * k + 1) / 31) for k in range(31)],
        ),
    ],
    ids=["radii-1-to-1000", "X50-minus-1", "X31-plus-2"],
)
def test_find_roots_recovers_known_roots(numers, expected):
    assert_roots_match(find_roots(LaurentPoly(0, numers)), expected)


def test_newton_polygon_start_radii():
    # One hull edge over 30 zero coefficients: 31 points on |z| = 2**(1/31).
    z = _newton_polygon_start([2] + [0] * 30 + [1])
    assert len(z) == 31
    assert np.allclose(np.abs(z), 2 ** (1 / 31), rtol=1e-12)
    # Several edges: each group of roots starts on a circle of about its size.
    z = _newton_polygon_start(_int_poly(SPREAD_ROOTS))
    assert len(z) == len(SPREAD_ROOTS)
    ratios = np.sort(np.abs(z)) / np.sort(np.abs(SPREAD_ROOTS))
    assert np.all((ratios > 2 / 3) & (ratios < 3 / 2)), ratios


def _core(name):
    """A bundled fixture, or "S<n>" for the S_n identity core."""
    if name[0] != "S":
        return load_phi_fixtures()[name]
    n = int(name[1:])
    phi, _ = extract_phi(dyz_identity_series(n), math.factorial(n), n * (n - 1) // 2)
    return phi


# S_14 is the largest identity core that ``--phi-from`` reaches under
# FULL_GUARD, the symmetric-group series guard.
CORES = list(load_phi_fixtures()) + [f"S{n}" for n in range(4, 15)]


@pytest.mark.parametrize("name", CORES)
def test_find_roots_sweep_budget(name, monkeypatch):
    # The Newton-polygon start converges in well under 100 sweeps on every
    # bundled fixture and every S_n identity core for n = 4..14.
    phi = _core(name)
    monkeypatch.setattr(roots_module, "_MAX_ITER", 100)
    assert len(find_roots(phi)) == phi.max_deg


def _dyadic(z):
    """(A, B, D) with z = (A + B*i) / D and D a power of two."""
    ar, dr = z.real.as_integer_ratio()
    ai, di = z.imag.as_integer_ratio()
    D = max(dr, di)
    return ar * (D // dr), ai * (D // di), D


def exact_horner_pair(ics, z):
    """p(z) * D**deg and p'(z) * D**deg at the double z = (A + B*i) / D, as ints.

    Computed with ``_int_horner`` in exact arithmetic, independently of the
    fixed-point pass the root certification uses.
    """
    A, B, D = _dyadic(z)
    pr, pi = _int_horner(ics, A, B, D)
    qr, qi = _int_horner([i * c for i, c in enumerate(ics)][1:], A, B, D)
    return pr, pi, qr * D, qi * D


def exact_newton_step(ics, z):
    """p(z) / p'(z) at the double z as exact (re, im) Fractions."""
    pr, pi, qr, qi = exact_horner_pair(ics, z)
    den = qr * qr + qi * qi
    return F(pr * qr + pi * qi, den), F(pi * qr - pr * qi, den)


def relative_newton_step(ics, r):
    """|p(r) / p'(r)| / |r|, with p and p' evaluated exactly at the double r."""
    A, B, D = _dyadic(r)
    pr, pi, qr, qi = exact_horner_pair(ics, r)
    # The D**deg scalings cancel in p/p', and |r| = |A + B*i| / D.
    num = (pr * pr + pi * pi) * D * D
    return math.sqrt(num / ((qr * qr + qi * qi) * (A * A + B * B)))


def test_relative_newton_step_known_values():
    # X - 3 at 1/2: p/p' = -5/2, over |r| = 1/2.
    assert relative_newton_step([-3, 1], 0.5) == 5.0
    # X^2 + 1 at (1 + i)/2: p/p' = (3 - i)/4, over |r| = 1/sqrt(2).
    assert relative_newton_step([1, 0, 1], 0.5 + 0.5j) == pytest.approx(math.sqrt(1.25))


@pytest.mark.parametrize("name", CORES)
def test_find_roots_relative_newton_step(name):
    # Every root is certified, so it is a root of the exact integer
    # polynomial to within float rounding.
    phi = _core(name)
    assert phi.min_deg == 0
    roots = find_roots(phi)
    worst = max(relative_newton_step(list(phi.numers), r) for r in roots)
    assert worst <= 1e-15, worst


@pytest.mark.parametrize("name", ["S15", "S16"])
def test_find_roots_certifies_or_raises(name):
    # Past S_14 the double-precision iteration cannot resolve every root;
    # find_roots must then raise rather than return uncertified points.
    phi = _core(name)
    try:
        roots = find_roots(phi)
    except RootFindingError as exc:
        best = exc.best
        assert len(best) == phi.max_deg
        assert best == sorted(best, key=lambda r: (r.real, r.imag))
        return
    assert len(set(roots)) == len(roots)
    worst = max(relative_newton_step(list(phi.numers), r) for r in roots)
    assert worst <= 1e-15, worst


@pytest.mark.parametrize(
    "name, numers, certifications, newton_calls",
    [
        # 112 roots, none real: 56 conjugate pairs, 28 inside the unit
        # circle; each outer pair is derived from its inverse.
        ("E7", None, 56, 28),
        # 110 roots, 2 of them real: 54 pairs and 2 real roots.
        ("S12", None, 56, 30),
        # (X-1)(X-2)(X-3): three real roots, each certified on its own.
        ("(X-1)(X-2)(X-3)", [-6, 11, -6, 1], 3, 3),
    ],
)
def test_find_roots_certifies_each_conjugate_pair_once(
    name, numers, certifications, newton_calls, monkeypatch
):
    # A pair is certified either by Newton steps or, on a palindromic core,
    # from its certified inverse with no pass of its own; never both.
    phi = _core(name) if numers is None else LaurentPoly(0, numers)
    calls, derived = [], []
    certify, invert = roots_module._certify_newton, roots_module._inverse_root
    monkeypatch.setattr(
        roots_module, "_certify_newton", lambda ics, z: calls.append(z) or certify(ics, z)
    )

    def counting_invert(deg, last):
        result = invert(deg, last)
        if result is not None and result[1]:
            derived.append(result[0])
        return result

    monkeypatch.setattr(roots_module, "_inverse_root", counting_invert)
    roots = find_roots(phi)
    assert len(roots) == phi.max_deg
    assert len(calls) + len(derived) == certifications
    assert len(calls) <= newton_calls, len(calls)


@pytest.mark.parametrize("name", CORES)
def test_find_roots_closed_under_exact_conjugation(name):
    # The second root of each pair is the conjugate of the first, bit for bit.
    # A real root has no partner; every other root must have its exact
    # conjugate.
    counts = Counter(find_roots(_core(name)))
    for r, k in counts.items():
        if abs(r.imag) > 1e-12 * abs(r):
            assert counts[r.conjugate()] == k, r


@pytest.mark.parametrize("name", CORES + ["S3"])
def test_find_roots_real_roots_are_exactly_real(name):
    # A real root's Newton steps start from the real part of its iterate and
    # stay real, so no root prints a rounding-size imaginary part.
    for r in find_roots(_core(name)):
        if abs(r.imag) < 1e-30:
            assert r.imag == 0.0, r


def test_find_roots_pair_fails_together(monkeypatch):
    # A representative that does not converge leaves both members of its
    # pair uncertified, at their Aberth iterates.
    monkeypatch.setattr(
        roots_module, "_certify_newton", lambda ics, z: (z + 1, False, None)
    )
    with pytest.raises(RootFindingError, match="2 of 2 roots") as info:
        find_roots(LaurentPoly(0, [1, 0, 1]))  # X^2 + 1
    # The Aberth iterates sit on -i and i, not where Newton (here z + 1) went.
    best = info.value.best
    assert len(best) == 2
    assert abs(best[0] + 1j) < 1e-10 and abs(best[1] - 1j) < 1e-10, best


def test_find_roots_e8_work_counts(monkeypatch):
    # Certification ends the sweeps; each outer root of the palindromic core
    # is certified from its inverse's last pass, with no pass of its own;
    # and each pass starts at the precision it needs, so none is refused:
    # E8 takes 39 sweeps, 128 exact Newton steps and 128 fixed-point passes.
    counts = Counter()
    for name in ("_newton_and_residual", "_newton_step", "_fixed_horner"):
        real = getattr(roots_module, name)

        def counting(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(roots_module, name, counting)
    assert len(find_roots(_core("E8"))) == 224
    assert counts["_newton_and_residual"] <= 40, counts
    assert counts["_newton_step"] <= 130, counts
    assert counts["_fixed_horner"] <= 130, counts


@pytest.mark.parametrize("name", ["S15", "S16"])
def test_find_roots_gives_up_after_the_last_new_certification(name, monkeypatch):
    # A root that double precision cannot resolve gets at most _GIVE_UP more
    # sweeps after the last newly certified root, not the whole budget.
    sweeps, certified_at = [], []
    evaluate, certify = roots_module._newton_and_residual, roots_module._certify_pending

    def counting_evaluate(*args):
        sweeps.append(len(sweeps))
        return evaluate(*args)

    def counting_certify(*args):
        new = certify(*args)
        if new > 0:
            certified_at.append(len(sweeps))
        return new

    monkeypatch.setattr(roots_module, "_newton_and_residual", counting_evaluate)
    monkeypatch.setattr(roots_module, "_certify_pending", counting_certify)
    try:
        find_roots(_core(name))
    except RootFindingError:
        pass
    assert certified_at
    assert len(sweeps) - certified_at[-1] <= roots_module._GIVE_UP


def _distinct_certified_roots_or_raises(numers):
    """find_roots' roots of a square-free polynomial, or None if it raises.

    Returned roots must be distinct and each certified.
    """
    try:
        roots = find_roots(LaurentPoly(0, numers))
    except RootFindingError:
        return None
    assert len(set(roots)) == len(roots) == len(numers) - 1, roots
    assert max(relative_newton_step(numers, r) for r in roots) <= 1e-15
    return roots


CUBIC = [-6, 11, -6, 1]  # (X-1)(X-2)(X-3)


def test_find_roots_identical_starts_never_return_a_root_twice(monkeypatch):
    # Two iterates start on the root 1 and both certify there.  Both go back
    # to pending; today they cannot separate and the iteration gives up, but
    # recovering 1, 2 and 3 would do as well.  Returning 1 twice would not.
    monkeypatch.setattr(
        roots_module, "_newton_polygon_start", lambda ics: np.array([1, 1, 3], dtype=complex)
    )
    _distinct_certified_roots_or_raises(CUBIC)


@pytest.mark.parametrize("always", [False, True], ids=["once", "always"])
def test_find_roots_certification_on_a_neighbour_never_returns_it_twice(
    always, monkeypatch
):
    # The iterate at 2 certifies at the neighbouring root 1 instead.  Both
    # certifications of 1 go back to pending; once resumed, the next round
    # recovers all three roots, and a certification that always drifts
    # makes the iteration give up.
    drifted = []
    certify = roots_module._certify_newton

    def drifting(ics, z):
        if abs(z - 2) < 0.5 and (always or not drifted):
            drifted.append(z)
            z = 1.0
        return certify(ics, z)

    monkeypatch.setattr(roots_module, "_certify_newton", drifting)
    roots = _distinct_certified_roots_or_raises(CUBIC)
    assert drifted
    assert (roots is None) == always, roots


# (h, r) for the Coxeter elements of S3, S5, B2 = G(2,1,2), G(3,1,3),
# G(2,1,5), G2 = G(6,6,2), G(4,4,4), G(12,1,2), G(7,1,4), S14, G(12,12,6).
COXETER = [
    (3, 2), (5, 4), (4, 2), (9, 3), (10, 5), (6, 2), (12, 4), (24, 2), (28, 4),
    (14, 13), (60, 6),
]


@pytest.mark.parametrize("h, r", COXETER)
def test_find_roots_coxeter_cores(h, r):
    # The core at a Coxeter element is (1 + X + ... + X**(h-1))**r: each h-th
    # root of unity other than 1, r times.  Every root is on the unit circle,
    # where the inverse of a root is its conjugate.
    roots = find_roots(LaurentPoly(0, _times(*[[1] * h] * r)))
    assert len(roots) == (h - 1) * r
    hits = Counter()
    for z in roots:
        k = round(cmath.phase(z) * h / (2 * math.pi)) % h
        assert k and abs(z - cmath.exp(2j * math.pi * k / h)) <= 1e-14, (z, k)
        hits[k] += 1
    assert hits == {k: r for k in range(1, h)}


def test_find_roots_refuses_coefficients_beyond_double_range():
    with pytest.raises(CapabilityError, match="1329 bits"):
        find_roots(LaurentPoly(0, [10**400, 0, 1]))


def _times(*factors):
    """Integer ascending coefficients of the product of the factors."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


# Square-free, pairwise coprime factors with their multiplicities.  The last
# product is palindromic: the H3 core times squares of cyclotomic factors.
REPEATED = {
    "(X-1)^2": [([-1, 1], 2)],
    "(X+1)^2": [([1, 1], 2)],
    "(X^2+X+1)^2": [([1, 1, 1], 2)],
    "(X-1)^3": [([-1, 1], 3)],
    "(X^2+1)^2(X-2)(3X+1)^4": [([1, 0, 1], 2), ([-2, 1], 1), ([1, 3], 4)],
    "H3(X+1)^2(X^2+X+1)^2": [
        (list(load_phi_fixtures()["H3"].numers), 1),
        ([1, 1], 2),
        ([1, 1, 1], 2),
    ],
}


@pytest.mark.parametrize("name", REPEATED)
def test_find_roots_lists_repeated_roots_with_multiplicity(name):
    # A root of multiplicity k is found once, on its square-free factor,
    # certified there and listed k times as the same double.
    factors = REPEATED[name]
    numers = _times(*(f for f, k in factors for _ in range(k)))
    roots = find_roots(LaurentPoly(0, numers))
    assert len(roots) == len(numers) - 1
    assert roots == sorted(roots, key=lambda r: (r.real, r.imag))
    counts = Counter(roots)
    for f, k in factors:
        mine = [r for r in counts if relative_newton_step(f, r) <= 1e-15]
        assert len(mine) == len(f) - 1, (f, mine)
        assert all(counts[r] == k for r in mine), (f, counts)


def _primitive_form(a):
    g = math.gcd(*a)
    return tuple(c // g if a[-1] > 0 else -c // g for c in a)


# Distinct linear factors X - r and quadratics X**2 + c (c > 0), so any
# choice of them is pairwise coprime and square-free.
DISTINCT_FACTORS = [[-r, 1] for r in range(-3, 4)] + [[c, 0, 1] for c in (1, 2, 5)]


@settings(deadline=None, max_examples=60)
@given(
    st.dictionaries(
        st.integers(0, len(DISTINCT_FACTORS) - 1), st.integers(1, 4), min_size=1, max_size=5
    ),
    st.sampled_from([1, -3, 2**31 - 1]),
)
def test_squarefree_parts_matches_construction(multiplicity, content):
    # Content 2**31 - 1 divides both leading coefficients, so the modular gcd
    # skips its first prime.
    numers = [content * c for c in _times(
        *(DISTINCT_FACTORS[i] for i, k in multiplicity.items() for _ in range(k))
    )]
    expected = {}
    for i, k in multiplicity.items():
        expected[k] = _times(expected.get(k, [1]), DISTINCT_FACTORS[i])
    got = {k: _primitive_form(a) for a, k in _squarefree_parts(numers)}
    assert got == {k: _primitive_form(a) for k, a in expected.items()}


Q31 = 2**31 - 1


@pytest.mark.parametrize(
    "a, b, gcd",
    [
        # Modulo 2**31 - 1 the gcd is (X - 1)(X - 2), of too high a degree.
        (_times([-1, 1], [-2, 1]), _times([-1, 1], [-2 - Q31, 1]), [-1, 1]),
        # The first prime divides both leading coefficients.
        (_times([-1, Q31], [3, 1]), _times([-1, Q31], [5, 1]), [-1, Q31]),
        # Coefficients of up to 111 bits: CRT over several primes.
        (
            _times([3**70, -(5**60), 7**40, 1], [3, 2, 1]),
            _times([3**70, -(5**60), 7**40, 1], [5, 0, 1, 7]),
            [3**70, -(5**60), 7**40, 1],
        ),
        (_times([1, 2], [1, 1]), [-3, 0, 2], [1]),
    ],
    ids=["unlucky-prime", "lead-divisible", "several-primes", "coprime"],
)
def test_int_gcd_known_cases(a, b, gcd):
    h, a_over_h, b_over_h = _int_gcd(a, b)
    assert h == gcd
    assert _times(h, a_over_h) == a
    assert _times(h, b_over_h) == b


def test_int_gcd_of_zero_is_primitive_part():
    assert _int_gcd([-6, 0, -4], []) == ([3, 0, 2], [-2], [])


def _euclid_mod(a, b, q):
    """Monic gcd of a and b modulo q by schoolbook Euclid on ascending lists."""

    def reduce(x):
        x = [c % q for c in x]
        while x and x[-1] == 0:
            x.pop()
        return x

    u, v = reduce(a), reduce(b)
    while v:
        inv = pow(v[-1], -1, q)
        while len(u) >= len(v):
            f, shift = u[-1] * inv % q, len(u) - len(v)
            for i, c in enumerate(v):
                u[shift + i] -= f * c
            u = reduce(u)
        u, v = v, u
    inv = pow(u[-1], -1, q)
    return [c * inv % q for c in u]


small_ints = st.lists(st.integers(-50, 50), min_size=1, max_size=8)


@settings(deadline=None, max_examples=150)
@given(
    small_ints, small_ints, small_ints, small_ints, st.sampled_from([3, 7, 101, Q31])
)
@example([1, 0, 0, 0, 1], [1, 1], [0, 1], [5], 7)
def test_monic_gcd_mod_matches_schoolbook_euclid(b, s, r, common, q):
    # a = common * (b * s + r) with deg r well below deg b, so the first
    # remainder mod b drops several degrees: several leading zeros to skip.
    b, s, common = (x + [1] for x in (b, s, common))
    r = r[: max(0, len(b) - 4)]
    body = _times(b, s)
    body = [c + (r[i] if i < len(r) else 0) for i, c in enumerate(body)]
    a, b = _times(common, body), _times(common, b)
    assert _monic_gcd_mod(a, b, q) == _euclid_mod(a, b, q)
    assert _monic_gcd_mod(b, a, q) == _euclid_mod(b, a, q)


def test_word_primes_descend_below_2_31():
    def is_prime(n):
        return all(n % d for d in range(2, math.isqrt(n) + 1))

    primes = list(itertools.islice(_word_primes(), 25))
    assert primes == [n for n in range(Q31, primes[-1] - 1, -1) if is_prime(n)]


@pytest.mark.parametrize(
    "factors",
    [[("E8", 1), ([1, 1, 1], 2)], [("E8", 2)]],
    ids=["E8(X^2+X+1)^2", "E8^2"],
)
def test_squarefree_parts_of_large_repeated_cores(factors):
    factors = [(list(_core(f).numers) if f == "E8" else f, k) for f, k in factors]
    numers = _times(*(f for f, k in factors for _ in range(k)))
    got = {k: _primitive_form(a) for a, k in _squarefree_parts(numers)}
    assert got == {k: _primitive_form(f) for f, k in factors}


magnitudes = st.floats(1e-3, 1e3)
dyadic_points = st.one_of(
    st.builds(lambda r, t: r * cmath.exp(1j * t), magnitudes, st.floats(0, 2 * math.pi)),
    st.builds(lambda r, u: r * u, magnitudes, st.sampled_from([1, -1, 1j, -1j])),
)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.one_of(st.just(0), st.integers(-(2**80), 2**80)), min_size=2, max_size=61),
    dyadic_points,
)
@example([1, 0, 1], 1j)
@example([1, -2, 1], 1.0)
def test_fixed_horner_within_stated_bounds(ics, z):
    # At every F the certification can try (128, 256, ...), the fixed-point
    # p and p' lie within sqrt(2)*n*M**n and sqrt(2)*n**2*M**n units of the
    # exact values, M = max(1, |z|); once F >= e*n they are the exact values.
    n = len(ics) - 1
    A, B, D = _dyadic(z)
    e = D.bit_length() - 1
    pr, pi, qr, qi = exact_horner_pair(ics, z)  # p(z) and p'(z) times D**n
    m2n = max(F(1), F(A * A + B * B, D * D)) ** n  # (M**n)**2
    f = 128
    while True:
        fr, fi, gr, gi = _fixed_horner(ics, A, B, e, f)
        p_err = (fr - F(pr << f, D**n)) ** 2 + (fi - F(pi << f, D**n)) ** 2
        q_err = (gr - F(qr << f, D**n)) ** 2 + (gi - F(qi << f, D**n)) ** 2
        assert p_err <= 2 * n**2 * m2n, (f, float(p_err))
        assert q_err <= 2 * n**4 * m2n, (f, float(q_err))
        if f >= e * n:
            assert p_err == 0 and q_err == 0, f
            break
        f *= 2


def test_certify_newton_keeps_exact_and_double_roots():
    assert _certify_newton([1, 0, 1], 1j)[:2] == (1j, True)  # X^2 + 1 at i
    assert _certify_newton([1, -2, 1], 1.0)[:2] == (1.0, True)  # (X - 1)^2 at 1
    assert _newton_step([1, -2, 1], 1.0)[0] == 0


def test_certify_newton_reports_no_convergence(monkeypatch):
    # Newton on X^2 + 1 from a real start stays on the real axis, so it can
    # never reach a root; the best iterate comes back flagged.  The steps
    # from 2 are 5/4 and then 25/24, more than half of 5/4, so the attempt
    # stops after two steps.
    steps = []
    step = roots_module._newton_step
    monkeypatch.setattr(
        roots_module, "_newton_step", lambda ics, z, F: steps.append(z) or step(ics, z, F)
    )
    z, converged, _ = _certify_newton([1, 0, 1], 2.0)
    assert not converged
    assert z.imag == 0
    assert len(steps) == 2


def test_certify_newton_refuses_a_critical_point():
    # p'(0) = 0 while p(0) = 1: no Newton step exists at 0, so the attempt
    # fails instead of certifying a point that is not a root.
    assert math.isnan(_newton_step([1, 0, 1], 0.0)[0].real)
    assert _certify_newton([1, 0, 1], 0.0)[:2] == (0.0, False)


def test_newton_step_matches_exact_step():
    # On E7 at every returned root (where |p| is at rounding level) and at 50
    # points within 1e-13 relative of them, the fixed-point step is the
    # exact step to 2**-50 relative.
    phi = _core("E7")
    ics = list(phi.numers)
    roots = find_roots(phi)
    rng = random.Random(113)
    near = [
        r * (1 + 1e-13 * rng.random() * cmath.exp(2j * math.pi * rng.random()))
        for r in rng.sample(roots, 50)
    ]
    for z in roots + near:
        assert_step_is_exact(ics, z)


@pytest.mark.parametrize("ics", [[0, 1, -2, 1], [-1, 3, -3, 1]], ids=["X(X-1)^2", "(X-1)^3"])
@pytest.mark.parametrize("z", [1 + 2**-52, 1 - 2**-53, complex(1, 2**-50)])
def test_newton_step_next_to_a_multiple_root(ics, z):
    # p(z) * 2**128 is below 2**30 here, under the 2**64-relative bound, and
    # F = 128 < e * n, so only a doubled F gives the step.
    assert_step_is_exact(ics, z)


@pytest.mark.parametrize("start", [128, 256, 1024])
def test_newton_step_from_a_start_precision(start):
    # A start F above 128 only skips refused passes: at the roots of E7 and
    # next to them the step is still the exact step to 2**-50 relative.
    phi = _core("E7")
    ics = list(phi.numers)
    rng = random.Random(start)
    roots = rng.sample(find_roots(phi), 20)
    near = [r * (1 + 1e-12 * rng.random() * cmath.exp(2j * math.pi * rng.random())) for r in roots]
    for z in roots + near:
        assert_step_is_exact(ics, z, start)


def _exact_inverse_step(ics, z):
    """(w0, t): w0 = 1/z and t = p(w0)/p'(w0), with z a double, each as exact (re, im) Fractions.

    Straight Horner in complex Fractions at w0, independent of the
    palindromic identity ``_inverse_root`` uses.
    """
    a, b = F(z.real), F(z.imag)
    m = a * a + b * b
    x, y = a / m, -b / m
    pr = pi = qr = qi = F(0)
    for c in reversed(ics):
        qr, qi = qr * x - qi * y + pr, qr * y + qi * x + pi
        pr, pi = pr * x - pi * y + c, pr * y + pi * x
    den = qr * qr + qi * qi
    return (x, y), ((pr * qr + pi * qi) / den, (pi * qr - pr * qi) / den)


@functools.cache
def _fixture_roots(name):
    return find_roots(_core(name))


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(["G2", "H3"]),
    st.integers(0, 23),
    st.floats(-60, -8),
    st.floats(0, 2 * math.pi),
)
def test_inverse_root_is_the_rounded_newton_iterate_at_the_inverse(name, i, log_eps, angle):
    # From a pass at z near a root of a palindromic core, the derived iterate
    # is w0 - t, t = p(w0)/p'(w0) at w0 = 1/z: correctly rounded from an
    # exact pass, and within half an ulp plus 2**-60 |t| per part from a
    # pass proven to 2**-64.
    ics = list(_core(name).numers)
    n = len(ics) - 1
    roots = _fixture_roots(name)
    z = roots[i % n] * (1 + 2.0**log_eps * cmath.exp(1j * angle))
    (x, y), (tr, ti) = _exact_inverse_step(ics, z)
    want = (x - tr, y - ti)
    _, exact_pass = _newton_step(ics, z, n * (_dyadic(z)[2].bit_length() - 1))
    w, _ = _inverse_root(n, exact_pass)
    assert w == complex(float(want[0]), float(want[1])), z
    w, _ = _inverse_root(n, _newton_step(ics, z)[1])
    slack = (abs(tr) + abs(ti)) / 2**60  # at least |t| / 2**60
    for got, part in zip((w.real, w.imag), want):
        assert abs(F(got) - part) <= F(math.ulp(float(part))) / 2 + slack, z


def test_inverse_root_of_a_real_point_is_real():
    # X^2 - 3X + 1 has the real roots (3 -+ sqrt 5)/2, each the other's
    # inverse: the pass at a real z gives a real iterate, im exactly 0.0.
    _, last = _newton_step([1, -3, 1], 0.38)
    w, certified = _inverse_root(2, last)
    assert w.imag == 0.0 and not certified
    assert abs(w - (3 + math.sqrt(5)) / 2) < 1e-3
    _, last = _newton_step([1, -3, 1], (3 - math.sqrt(5)) / 2)
    w, certified = _inverse_root(2, last)
    assert certified and w == (3 + math.sqrt(5)) / 2 and w.imag == 0.0


def test_certify_pending_keeps_a_real_root_real():
    # The real iterate near (3 + sqrt 5)/2 is its own conjugate partner, and
    # its inverse partner was certified by a pass just off the real axis.
    # The step derived from that pass is at rounding level but not real, so
    # the iterate takes Newton steps from the real part instead.
    ics = [1, -3, 1]
    inner, outer = (3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2
    z = np.array([inner, 2.6], dtype=complex)
    done = np.array([True, False])
    passes = [_newton_step(ics, complex(inner, 1e-300))[1], None]
    w, certified = _inverse_root(2, passes[0])
    assert certified and w.imag != 0.0
    assert roots_module._certify_pending(ics, z, done, np.array([1]), True, passes) == 1
    assert z[1] == outer and z[1].imag == 0.0


def test_inverse_root_refuses_a_pass_at_zero():
    # At z = 0 there is no inverse and no step.
    assert _inverse_root(2, _newton_step([1, 3, 1], 0j)[1]) is None


def test_find_roots_non_palindromic_part_takes_no_derivation(monkeypatch):
    # The G(3,1,3) identity core is (X^9 + 6X^6 + 9X^3 + 2)(X^2 + X + 1)^6.
    # Its degree-9 part is not palindromic: no root is derived from an
    # inverse, and every root is the double nearest to its closed form,
    # X^3 = -2 or -2 -+ sqrt 3.
    from wfact.cli import _group_params
    from wfact.factorizations import phi_data
    from wfact.groups import identity

    params = _group_params(3, 1, 3)
    core = phi_data(params, identity(params))[0]
    nonic = [2, 0, 0, 9, 0, 0, 6, 0, 0, 1]
    parts = _squarefree_parts(list(core.numers))
    assert sorted((len(a) - 1, k) for a, k in parts) == [(2, 6), (9, 1)]
    assert any(a == nonic for a, _ in parts)
    calls = []
    invert = roots_module._inverse_root
    monkeypatch.setattr(
        roots_module, "_inverse_root", lambda deg, last: calls.append(deg) or invert(deg, last)
    )
    assert len(find_roots(core)) == 21
    roots = find_roots(LaurentPoly(0, nonic))
    assert not calls
    with localcontext() as ctx:
        ctx.prec = 50
        s3 = Decimal(3).sqrt()
        expected = []
        for y in (Decimal(2), 2 - s3, 2 + s3):
            c = y ** (Decimal(1) / 3)
            expected += [complex(-float(c), 0.0)] + [
                complex(float(c / 2), sign * float(c * s3 / 2)) for sign in (1, -1)
            ]
    assert roots == sorted(expected, key=lambda r: (r.real, r.imag))


def _exact_sums(ics, z):
    """(|p(z)|, sum |a_i||z|**i, |p'(z)|, sum i|a_i||z|**(i-1)) to 50 digits."""
    A, B, D = _dyadic(z)
    pr, pi, qr, qi = exact_horner_pair(ics, z)
    n = len(ics) - 1
    with localcontext() as ctx:
        ctx.prec = 50
        r = Decimal(A * A + B * B).sqrt() / D
        scale = Decimal(D) ** n
        p = Decimal(pr * pr + pi * pi).sqrt() / scale
        dp = Decimal(qr * qr + qi * qi).sqrt() / scale
        mag = sum(abs(c) * r**i for i, c in enumerate(ics))
        d_mag = sum(i * abs(c) * r ** (i - 1) for i, c in enumerate(ics) if i)
        return p, mag, dp, d_mag


nonzero_coeffs = st.integers(-(2**53), 2**53).filter(bool)
unit_or_not = st.one_of(st.just(1.0), magnitudes)
evaluator_points = st.one_of(
    st.builds(lambda r, t: r * cmath.exp(1j * t), unit_or_not, st.floats(0, 2 * math.pi)),
    st.builds(lambda r, u: r * u, unit_or_not, st.sampled_from([1, -1, 1j, -1j])),
)


@settings(deadline=None, max_examples=150)
@given(
    st.builds(
        lambda lo, mid, hi: [lo, *mid, hi],
        nonzero_coeffs,
        st.lists(st.one_of(st.just(0), st.integers(-(2**53), 2**53)), max_size=79),
        nonzero_coeffs,
    ),
    st.lists(evaluator_points, min_size=1, max_size=6),
)
@example([1, 0, 1], [1j, -1j, 1.0, 0.5, 2.0])
@example([-1] + [0] * 79 + [1], [1.0, -1.0, 1j, 1e3, 1e-3j])
@example([4503599627370494, 1], [1.5])
def test_newton_and_residual_matches_exact_values(ics, zs):
    # The float evaluator against exact integer arithmetic at the same
    # doubles, on both sides of |z| = 1 in one call.  The coefficients are
    # doubles exactly (|a_i| <= 2**53), so the only error is the evaluator's.
    n = len(ics) - 1
    asc = np.array(ics, dtype=np.float64)
    d_asc = asc[1:] * np.arange(1, n + 1, dtype=np.float64)
    newton, res = _newton_and_residual(np.array(zs, dtype=complex), asc, d_asc)
    unit = 8 * (n + 1) * Decimal(2) ** -53
    for z, got_step, got_res in zip(zs, newton, res):
        p, mag, dp, d_mag = _exact_sums(ics, z)
        # A priori: each power carries at most n roundings, each dot product
        # n more, and w = 1/z a few; together a few (n + 1) units of 2**-53.
        assert abs(Decimal(float(got_res)) - p / mag) <= unit, z
        if not p or not dp:
            continue
        # The step's relative error is at most ``unit`` times the condition
        # number mag/|p| + d_mag/|p'| on both sides of |z| = 1: for |z| > 1
        # the reversed evaluations q(w) and r(w) have the same relative
        # condition numbers, as p(z) and p'(z) are z**n q(w) and z**(n-1) r(w).
        cond = mag / p + d_mag / dp
        if unit * cond <= Decimal("1e-8"):
            sr, si = exact_newton_step(ics, z)
            err = (F(got_step.real) - sr) ** 2 + (F(got_step.imag) - si) ** 2
            assert err <= (sr * sr + si * si) / 10**16, (z, float(err))


def assert_step_is_exact(ics, z, start=128):
    sr, si = exact_newton_step(ics, z)
    got = _newton_step(ics, z, start)[0]
    err = (F(got.real) - sr) ** 2 + (F(got.imag) - si) ** 2
    assert err <= (sr * sr + si * si) / 2**100, z

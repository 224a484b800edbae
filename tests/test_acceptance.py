"""Acceptance suite: one test per release criterion, each timed against a
budget and reporting a single PASS/FAIL line on the terminal.

The criteria, in order:

1. Fixture rows for small symmetric and dihedral-type groups match the
   stored closed forms exactly, and the product rows are exact powers.
2. The exponential-formula route (character sums split by the orbit of
   the first cycle) and the independent DYZ recurrence produce the same
   identity series for every symmetric group up to S_14.
3. The analytic series equals the brute-force oracle series on the full
   support window for every conjugacy class of eight benchmark groups.
4. The lowest order of every series equals the predicted minimum length
   and minimum-length count, including the symmetric-group reduction to
   genus-0 Hurwitz numbers.
5. Hurwitz anchors: genus-0 single-cycle values against independent
   transitive counts, genus-1 values against direct enumeration in S_2,
   and both genus layers of the series for every partition of size <= 5.
6. Core-polynomial fixtures: computed cores match the stored G2 and
   rank-one values; the H3 fixture reproduces its minimum-length count.
7. Structural properties: exact core extraction, monic cores, support
   inside the window, palindromic cores on the real subfamily, and root
   multisets of the palindromic fixtures closed under inversion.
8. Generation tests agree: the algebraic fullness criterion matches
   closure-based generation on all small reflection subsets, and matches
   the colored-basis transitivity test where that test applies.

Run with ``pytest tests/test_acceptance.py`` (the report lines print even
without ``-s``); expected total runtime well under two minutes.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from routes import perm_of_type, transitive_counts, transitive_counts_literal

from wfact import (
    TABLE1,
    Element,
    GroupParams,
    acts_transitively_on_Em,
    class_representatives,
    dyz_identity_series,
    extract_phi,
    find_roots,
    full_length,
    full_series_sn,
    full_series_sn_type,
    hurwitz_h0,
    hurwitz_h1,
    identity,
    is_full_set,
    lead_coeff,
    lead_from_phi,
    load_phi_fixtures,
    lowest_order,
    oracle_series,
    phi_data,
    reflections,
    series_full,
)
from wfact.laurent import LaurentPoly
from wfact.oracle import generates_by_closure
from wfact.partitions import integer_partitions

# ---------------------------------------------------------------------------
# reporting helper


@contextmanager
def _criterion(capsys, num: int, summary: str, budget: float):
    """Time the enclosed block and print one PASS/FAIL line for it.

    The line goes straight to the terminal (bypassing capture) so the
    report is visible in a plain ``pytest -v`` run.  A block that raises,
    or finishes over budget, reports FAIL; over-budget success is turned
    into a test failure after reporting.
    """

    def emit(verdict: str, dt: float) -> None:
        with capsys.disabled():
            print(
                f"{verdict} criterion {num}: {summary} "
                f"[{dt:.2f}s / budget {budget:g}s]",
                flush=True,
            )

    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        emit("FAIL", time.perf_counter() - t0)
        raise
    dt = time.perf_counter() - t0
    if dt >= budget:
        emit("FAIL", dt)
        pytest.fail(f"criterion {num} exceeded its {budget:g}s budget: {dt:.2f}s")
    emit("PASS", dt)


# ---------------------------------------------------------------------------
# shared artifacts

BENCHMARK_GROUPS = [
    (2, 1, 2),
    (2, 2, 2),
    (3, 1, 2),
    (3, 3, 2),
    (4, 2, 2),
    (2, 2, 3),
    (2, 1, 3),
    (3, 3, 3),
]


@lru_cache(maxsize=1)
def _benchmark_series() -> list[tuple[GroupParams, Element, LaurentPoly]]:
    """One analytic series per conjugacy class of each benchmark group."""
    out = []
    for m, p, n in BENCHMARK_GROUPS:
        params = GroupParams(m, p, n)
        for rep in class_representatives(params):
            out.append((params, rep, series_full(params, rep)))
    return out


# ---------------------------------------------------------------------------
# the criteria


def test_criterion_1_fixture_rows(capsys):
    with _criterion(capsys, 1, "closed-form series rows match exactly", 1.0):
        a1 = TABLE1["A1"]
        assert full_series_sn(2, (1, 2)) == a1
        assert full_series_sn(3, (1, 2, 3)) == TABLE1["A2"]
        params = GroupParams(5, 5, 2)
        assert series_full(params, identity(params)) == TABLE1["I2(5)"]
        assert TABLE1["A1^2"] == a1 * a1
        assert TABLE1["A1^3"] == a1 * a1 * a1


def test_criterion_2_two_routes_agree(capsys):
    with _criterion(
        capsys, 2, "exponential-formula route equals DYZ recurrence, S_1..S_14", 10.0
    ):
        for n in range(1, 15):
            ident = tuple(range(1, n + 1))
            assert dyz_identity_series(n) == full_series_sn(n, ident), n


def test_criterion_3_oracle_equivalence(capsys):
    with _criterion(
        capsys, 3, "series equals oracle on every class of 8 groups", 60.0
    ):
        checked = 0
        for params, rep, series in _benchmark_series():
            assert series == oracle_series(params, rep, mode="full"), (params, rep)
            checked += 1
        assert checked >= 8 * 3


def test_criterion_4_leading_term(capsys):
    with _criterion(
        capsys, 4, "lowest order = predicted length and count everywhere", 5.0
    ):
        for params, rep, series in _benchmark_series():
            assert lowest_order(series) == (
                full_length(params, rep),
                lead_coeff(params, rep),
            ), (params, rep)
        # Hand anchor: minimum-length count 6 for the identity of G(2,2,2).
        p222 = GroupParams(2, 2, 2)
        assert lowest_order(series_full(p222, identity(p222)))[1] == 6
        # Symmetric-group reduction: length n+k-2 with genus-0 Hurwitz count.
        for n in range(2, 6):
            params = GroupParams(1, 1, n)
            for lam in integer_partitions(n):
                g = Element(perm_of_type(lam), (0,) * n)
                series = series_full(params, g)
                expected = (n + len(lam) - 2, hurwitz_h0(lam))
                assert lowest_order(series) == expected, lam
                assert (full_length(params, g), lead_coeff(params, g)) == expected


def test_criterion_5_hurwitz_anchors(capsys):
    with _criterion(
        capsys, 5, "Hurwitz anchors vs brute force and series layers", 20.0
    ):
        # Genus 0, one n-cycle: n**(n-2) transitive factorizations of length
        # n-1, checked against the independent DP counter (and, for small n,
        # against literal sequence enumeration as well).
        for n in range(2, 7):
            target = perm_of_type((n,))
            count = transitive_counts(n, target, n - 1)[-1]
            assert count == n ** max(n - 2, 0) == hurwitz_h0((n,)), n
            if n <= 4:
                assert transitive_counts_literal(n, target, n - 1)[-1] == count
        # Genus 1 in S_2 by direct enumeration: lengths n+k for both types.
        assert transitive_counts_literal(2, (1, 2), 4)[-1] == 1 == hurwitz_h1((1, 1))
        assert transitive_counts_literal(2, (2, 1), 3)[-1] == 1 == hurwitz_h1((2,))
        # Both genus layers of the series for every partition of size <= 5.
        for n in range(1, 6):
            for lam in integer_partitions(n):
                k = len(lam)
                egf = full_series_sn_type(lam).egf_prefix(n + k)
                assert egf[n + k - 2] == hurwitz_h0(lam), lam
                assert egf[n + k] == hurwitz_h1(lam), lam


def test_criterion_6_core_fixtures(capsys):
    with _criterion(capsys, 6, "stored core polynomials match computed ones", 1.0):
        fixtures = load_phi_fixtures()
        p662 = GroupParams(6, 6, 2)
        phi, _, _ = phi_data(p662, identity(p662))
        assert phi == fixtures["G2"]
        p611 = GroupParams(6, 1, 1)
        phi, _, _ = phi_data(p611, identity(p611))
        assert phi == LaurentPoly(0, (-2, 2, 3, 2, 1))
        h3 = fixtures["H3"]
        assert h3.evaluate(Fraction(1)) == 28800
        assert lead_from_phi(h3, 120, 6) == 172800


def test_criterion_7_structural_properties(capsys):
    with _criterion(
        capsys, 7, "core extraction, window, palindromes, root inversion", 10.0
    ):
        # Every benchmark series: exact core extraction, monic core,
        # support inside [-#hyperplanes, #reflections].
        for params, rep, series in _benchmark_series():
            phi, ell = extract_phi(series, params.order, params.num_hyperplanes)
            assert phi.coeffs[-1] == 1, (params, rep)
            assert series.min_deg >= -params.num_hyperplanes, (params, rep)
            assert series.max_deg <= params.num_reflections, (params, rep)
            assert ell == full_length(params, rep)
        # Real subfamily: palindromic cores for every conjugacy class.
        real_family = [(2, 1, 2), (2, 1, 3)]
        real_family += [(m, m, 2) for m in range(2, 7)]
        real_family += [(1, 1, n) for n in range(1, 7)]
        for m, p, n in real_family:
            params = GroupParams(m, p, n)
            for rep in class_representatives(params):
                phi, _, _ = phi_data(params, rep)
                assert phi.is_palindromic(), (params, rep)
        # Root multiset of every palindromic stored fixture is closed under
        # r -> 1/r within 1e-8 (greedy nearest-root matching).
        for name, poly in load_phi_fixtures().items():
            assert poly.is_palindromic(), name
            roots = find_roots(poly)
            unmatched = list(roots)
            for r in roots:
                inv = 1 / r
                best = min(unmatched, key=lambda s: abs(s - inv))
                assert abs(best - inv) < 1e-8, (name, r)
                unmatched.remove(best)
            assert not unmatched, name


def test_criterion_8_generation_equivalences(capsys):
    with _criterion(
        capsys, 8, "fullness test = closure; = colored-basis transitivity", 30.0
    ):
        # Every valid parameter triple with m <= 6, n <= 4 and order <= 200:
        # the algebraic fullness criterion agrees with closure-based
        # generation on all reflection subsets of size <= 4.
        family = [
            (m, p, n)
            for n in range(1, 5)
            for m in range(1, 7)
            for p in range(1, m + 1)
            if m % p == 0 and m**n * factorial(n) // p <= 200
        ]
        subsets_checked = 0
        for m, p, n in family:
            params = GroupParams(m, p, n)
            refls = reflections(params)
            for size in range(0, 5):
                for subset in itertools.combinations(refls, size):
                    subset = list(subset)
                    assert is_full_set(subset, params) == generates_by_closure(
                        params, subset
                    ), (params, subset)
                    subsets_checked += 1
        assert subsets_checked > 1000
        # Where the colored-basis action is defined (p = m), transitivity of
        # that action is equivalent to fullness — all subsets, all sizes.
        for m, p, n in [(2, 2, 2), (3, 3, 2), (2, 2, 3)]:
            params = GroupParams(m, p, n)
            refls = reflections(params)
            for size in range(0, len(refls) + 1):
                for subset in itertools.combinations(refls, size):
                    subset = list(subset)
                    assert acts_transitively_on_Em(subset, params) == is_full_set(
                        subset, params
                    ), (params, subset)


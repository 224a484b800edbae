"""Series for symmetric groups: character route, exponential formula, recurrence."""

from fractions import Fraction
from itertools import product

import pytest

from wfact.errors import CapabilityError
from wfact.hurwitz import hurwitz_h0, hurwitz_h1
from wfact.laurent import LaurentPoly, extract_phi, lowest_order
from wfact.partitions import integer_partitions
from wfact.symmetric import (
    dyz_identity_series,
    frobenius_series_sn,
    full_series_sn,
    full_series_sn_type,
)

F = Fraction


def poly(min_deg, *coeffs):
    return LaurentPoly(min_deg, [F(c) for c in coeffs])


A1_ROW = poly(-1, 1, -2, 1).scale(F(1, 2))
A2_ROW = poly(-3, 1, 0, -9, 16, -9, 0, 1).scale(F(1, 6))


def canonical_perm_of_type(mu, n):
    """Permutation with consecutive cycles of the given lengths."""
    perm = []
    start = 1
    for length in mu:
        block = list(range(start, start + length))
        perm.extend(block[1:] + block[:1])
        start += length
    assert len(perm) == n
    return tuple(perm)


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


def test_dyz_matches_lattice_route():
    # the exponential-formula route; the acceptance suite runs n <= 14
    for n in range(1, 6):
        assert dyz_identity_series(n) == full_series_sn(n, tuple(range(1, n + 1)))


# ---------------------------------------------------------------- Hurwitz layers


def test_lowest_order_is_genus_zero_hurwitz():
    for n in range(1, 7):
        for mu in integer_partitions(n):
            series = full_series_sn_type(mu)
            k = len(mu)
            assert lowest_order(series) == (n + k - 2, hurwitz_h0(mu))


def _assert_hurwitz_layers(mu):
    """No count below length n+k-2, H_0 at n+k-2 and H_1 at n+k."""
    n, k = sum(mu), len(mu)
    counts = full_series_sn_type(mu).egf_prefix(n + k)
    assert counts[: n + k - 2] == [0] * (n + k - 2), mu
    assert counts[n + k - 2] == hurwitz_h0(mu), mu
    assert counts[n + k] == hurwitz_h1(mu), mu


def test_next_layer_is_genus_one_hurwitz():
    for n in range(1, 11):
        for mu in integer_partitions(n):
            _assert_hurwitz_layers(mu)


def test_hurwitz_layers_selected_types_n11_to_n14():
    for n in range(11, 15):
        for mu in [
            (n,),
            (n - 1, 1),
            (2, 2) + (1,) * (n - 4),
            (3, 2, 2) + (1,) * (n - 7),
            (1,) * n,
        ]:
            _assert_hurwitz_layers(mu)


# ---------------------------------------------------------------- brute force


def _brute_force_counts(n, perm, top_len):
    """Count transposition factorizations, split by transitivity.

    Transitivity is tracked by the partition of {1..n} generated by the
    transposition supports (union-find semantics collapsed into a DP state).
    """
    transpositions = [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ]
    singletons = frozenset(frozenset([i]) for i in range(1, n + 1))
    ident = tuple(range(1, n + 1))
    state = {(ident, singletons): 1}
    full = []
    for length in range(top_len + 1):
        full.append(
            sum(
                ways
                for (g, blocks), ways in state.items()
                if g == perm and len(blocks) == 1
            )
        )
        if length == top_len:
            break
        nxt = {}
        for (g, blocks), ways in state.items():
            for i, j in transpositions:
                h = list(g)
                h[i - 1], h[j - 1] = h[j - 1], h[i - 1]
                bi = next(b for b in blocks if i in b)
                bj = next(b for b in blocks if j in b)
                merged = blocks if bi == bj else (
                    (blocks - {bi, bj}) | {bi | bj}
                )
                key = (tuple(h), merged)
                nxt[key] = nxt.get(key, 0) + ways
        state = nxt
    return full


def _literal_enumeration(n, perm, top_len):
    """Reference semantics: enumerate every transposition sequence."""
    transpositions = [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ]
    counts = []
    for length in range(top_len + 1):
        total = 0
        for seq in product(transpositions, repeat=length):
            g = list(range(1, n + 1))
            parents = list(range(n + 1))

            def find(x):
                while parents[x] != x:
                    parents[x] = parents[parents[x]]
                    x = parents[x]
                return x

            for i, j in seq:
                # right-to-left application order is irrelevant for counting
                g[i - 1], g[j - 1] = g[j - 1], g[i - 1]
                parents[find(i)] = find(j)
            transitive = len({find(x) for x in range(1, n + 1)}) == 1
            if tuple(g) == perm and transitive:
                total += 1
        counts.append(total)
    return counts


def test_brute_force_dp_matches_literal_enumeration():
    for n in (2, 3):
        for mu in integer_partitions(n):
            perm = canonical_perm_of_type(mu, n)
            assert _brute_force_counts(n, perm, 5) == _literal_enumeration(n, perm, 5)


def test_full_series_matches_brute_force():
    for n in range(1, 6):
        top_len = 8 if n <= 4 else 6
        for mu in integer_partitions(n):
            perm = canonical_perm_of_type(mu, n)
            series = full_series_sn(n, perm)
            expected = _brute_force_counts(n, perm, top_len)
            assert series.egf_prefix(top_len) == expected


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

"""Brute-force enumeration oracle: tables, DP counts, lattice structure."""

import dataclasses
import random
from collections import Counter
from itertools import combinations, product
from math import factorial

import numpy as np
import pytest

from wfact import oracle
from wfact.errors import CapabilityError
from wfact.factorizations import series_full
from wfact.fixtures import load_phi_fixtures
from wfact.groups import (
    Element,
    GroupParams,
    all_elements,
    conjugate,
    cycle_data,
    identity,
    is_full_set,
    multiply,
    reflections,
)
from wfact.laurent import LaurentPoly, extract_phi, lowest_order
from wfact.oracle import (
    acts_transitively_on_Em,
    build_tables,
    class_representatives,
    count_factorizations,
    generates_by_closure,
    oracle_series,
    sweep_counts,
)


# ---------------------------------------------------------------- tables


def test_build_tables_g222():
    etable, stable = build_tables(GroupParams(2, 2, 2))
    assert len(etable.elements) == 4
    assert len(stable.members) == 4  # trivial, two rank-1, full


def test_build_tables_s3():
    etable, stable = build_tables(GroupParams(1, 1, 3))
    assert len(etable.elements) == 6
    assert len(stable.members) == 5  # the set-partition lattice of a 3-set


def test_build_tables_s2():
    etable, stable = build_tables(GroupParams(1, 1, 2))
    assert len(etable.elements) == 2
    assert len(stable.members) == 2


def test_mult_table_reflection_columns():
    # every (element, reflection) entry, rank 1 and the trivial group included
    for params in [
        GroupParams(4, 2, 2),
        GroupParams(2, 1, 3),
        GroupParams(3, 3, 3),
        GroupParams(4, 2, 1),
        GroupParams(1, 1, 1),
    ]:
        etable, _ = build_tables(params)
        refls = [t.to_element(params) for t in etable.reflection_list]
        assert etable.mult.shape == (params.order, params.num_reflections)
        for i, x in enumerate(etable.elements):
            for r, t in enumerate(refls):
                assert etable.elements[etable.mult[i, r]] == multiply(x, t, params)
    mult = build_tables(GroupParams(3, 1, 4))[0].mult
    assert (mult.shape, mult.dtype) == ((1944, 26), np.int32)


def test_cap_via_environment(monkeypatch):
    params = GroupParams(3, 1, 2)  # order 18
    g = identity(params)
    monkeypatch.setenv("WFACT_CAP_W", "10")
    with pytest.raises(CapabilityError):
        build_tables(params)
    monkeypatch.setenv("WFACT_CAP_W", "20")
    build_tables(params)
    sweep_counts(params, 4)
    count_factorizations(params, g, 4)
    # Cached tables and sweeps do not get round a lowered cap.
    monkeypatch.setenv("WFACT_CAP_W", "10")
    with pytest.raises(CapabilityError):
        build_tables(params)
    with pytest.raises(CapabilityError):
        sweep_counts(params, 4)
    with pytest.raises(CapabilityError):
        count_factorizations(params, g, 4)


def test_default_cap_rejects_large_group():
    with pytest.raises(CapabilityError):
        build_tables(GroupParams(6, 1, 4))  # order 31104 > 5000


# ---------------------------------------------------------------- counting


def test_count_g222_identity_full():
    params = GroupParams(2, 2, 2)
    counts = count_factorizations(params, identity(params), 6, mode="full")
    assert counts[:6] == [0, 0, 0, 0, 6, 0]
    assert counts[6] == 30  # two commuting involutions, both used, even counts


def test_count_empty_factorization():
    for params in [GroupParams(2, 2, 2), GroupParams(1, 1, 1), GroupParams(3, 1, 2)]:
        e = identity(params)
        assert count_factorizations(params, e, 0, mode="all")[0] == 1
        expected_full = 1 if params.order == 1 else 0
        assert count_factorizations(params, e, 0, mode="full")[0] == expected_full


def test_count_three_cycle():
    params = GroupParams(1, 1, 3)
    g = Element((2, 3, 1), (0, 0, 0))
    counts = count_factorizations(params, g, 4, mode="full")
    assert counts[2] == 3


def test_counts_nonnegative_and_mode_dominance():
    params = GroupParams(3, 3, 2)
    for g in class_representatives(params):
        full = count_factorizations(params, g, 8, mode="full")
        everything = count_factorizations(params, g, 8, mode="all")
        for a, b in zip(full, everything):
            assert 0 <= a <= b


def test_count_rejects_unknown_mode():
    params = GroupParams(2, 2, 2)
    with pytest.raises(ValueError):
        count_factorizations(params, identity(params), 2, mode="partial")


# ---------------------------------------------------------------- classes


SMALL_GROUPS = [
    GroupParams(m, p, n)
    for m in range(1, 7)
    for p in range(1, m + 1)
    if m % p == 0
    for n in range(1, 5)
    if GroupParams(m, p, n).order <= 2000
]


@pytest.mark.parametrize("params", SMALL_GROUPS, ids=str)
def test_class_representatives_match_an_element_scan(params):
    # The reference scans every element; cycle_data also rejects a
    # representative that is not in the group.
    scanned = sorted({cycle_data(g, params).class_key for g in all_elements(params)})
    reps = class_representatives(params)
    assert [cycle_data(g, params).class_key for g in reps] == scanned


# ---------------------------------------------------------------- lattice


def test_full_counts_match_sequence_enumeration():
    # every reflection sequence of each length, its product and fullness
    # judged by the group arithmetic and the algebraic generation test
    top = 6
    for params in [
        GroupParams(2, 2, 2),
        GroupParams(1, 1, 3),
        GroupParams(2, 1, 2),
        GroupParams(3, 3, 2),
        GroupParams(4, 2, 2),
    ]:
        refl = reflections(params)
        as_elements = [t.to_element(params) for t in refl]
        products = {(): identity(params)}
        full_sets: dict[frozenset[int], bool] = {}
        expected: Counter = Counter()
        for length in range(top + 1):
            for seq in product(range(len(refl)), repeat=length):
                if seq:
                    products[seq] = multiply(
                        products[seq[:-1]], as_elements[seq[-1]], params
                    )
                used = frozenset(seq)
                if used not in full_sets:
                    full_sets[used] = is_full_set([refl[i] for i in used], params)
                if full_sets[used]:
                    expected[products[seq], length] += 1
        for g in all_elements(params):
            counts = count_factorizations(params, g, top, mode="full")
            assert counts == [expected[g, length] for length in range(top + 1)]


def reference_sweep(params, n_max):
    """sweep_counts by one walk per subgroup with mu != 0, spread element by element."""
    etable, stable = build_tables(params)
    mult = etable.mult
    id_idx = etable.identity_index
    num_refl = mult.shape[1]
    all_counts = oracle._walk(
        mult, np.arange(mult.shape[0]), range(num_refl), id_idx, n_max
    )
    full_counts = all_counts.copy()
    for s, mu in enumerate(stable.mobius):
        if not mu or s == stable.full_index:
            continue
        mask = stable.masks[s]
        refls = [ri for ri in range(num_refl) if mask >> ri & 1]
        walk = oracle._walk(mult, stable.members[s], refls, id_idx, n_max)
        full_counts[:, stable.members[s]] += mu * walk
    return all_counts, full_counts


@pytest.mark.parametrize(
    "m, p, n",
    [
        (2, 1, 5), (1, 1, 6), (3, 1, 4), (3, 1, 3), (2, 1, 4),  # p = 1
        (4, 2, 3), (6, 3, 3), (6, 2, 3), (2, 2, 5),  # 1 < p < m, and p = m
        (3, 3, 4), (4, 4, 3), (2, 2, 4), (3, 3, 2),  # p = m
        (1, 1, 1), (3, 1, 1), (4, 2, 1), (2, 2, 1),  # rank one and trivial
    ],
)
def test_orbit_sweep_matches_per_subgroup_reference(m, p, n):
    params = GroupParams(m, p, n)
    n_max = params.num_reflections + 2
    all_counts, full_counts = sweep_counts(params, n_max)
    ref_all, ref_full = reference_sweep(params, n_max)
    assert all_counts.shape == full_counts.shape == (n_max + 1, params.order)
    assert np.array_equal(all_counts, ref_all)
    assert np.array_equal(full_counts, ref_full)


# ---------------------------------------------------------------- V-action


ACTION_GROUPS = [
    GroupParams(*mpn)
    for mpn in [
        (1, 1, 4), (2, 1, 3), (3, 1, 3), (2, 2, 4), (4, 2, 3), (6, 3, 3),
        (3, 3, 4), (4, 4, 3), (3, 1, 1), (4, 2, 1), (1, 1, 1),
    ]
]


@pytest.mark.parametrize("params", ACTION_GROUPS, ids=str)
def test_conjugation_table_matches_group_arithmetic(params):
    etable, _ = build_tables(params)
    gens = oracle._normalizer_generators(params)
    # V = G(m,1,n) has n - 1 adjacent transpositions, plus zeta when m > 1.
    assert len(gens) == params.n - 1 + (params.m > 1)
    assert etable.conj.shape == (len(gens), params.order)
    for k, v in enumerate(gens):
        images = [etable.elements[j] for j in etable.conj[k]]
        assert images == [conjugate(g, v, params) for g in etable.elements]


@pytest.mark.parametrize("params", ACTION_GROUPS, ids=str)
def test_class_ids_group_elements_by_class_key(params):
    etable, _ = build_tables(params)
    keys = [cycle_data(g, params).class_key for g in etable.elements]
    key_of_class = {}
    for c, key in zip(etable.class_ids.tolist(), keys):
        assert key_of_class.setdefault(c, key) == key
    assert len(set(key_of_class.values())) == len(key_of_class)
    assert etable.class_sizes.tolist() == [
        keys.count(key_of_class[c]) for c in range(len(key_of_class))
    ]


@pytest.mark.parametrize("params", ACTION_GROUPS, ids=str)
def test_subgroup_orbits_under_conjugation(params):
    etable, stable = build_tables(params)
    count = len(stable.members)
    assert sum(len(orbit) for orbit in stable.orbits) == count
    assert sorted(s for orbit in stable.orbits for s in orbit) == list(range(count))
    assert stable.act.shape == (len(etable.conj), count)
    orbit_of = {s: i for i, orbit in enumerate(stable.orbits) for s in orbit}
    for k, row in enumerate(stable.act):
        assert sorted(row.tolist()) == list(range(count))
        for s, image in enumerate(row.tolist()):
            assert orbit_of[image] == orbit_of[s]
            expected = np.sort(etable.conj[k][stable.members[s]])
            assert np.array_equal(stable.members[image], expected)
    for orbit in stable.orbits:
        assert len({stable.mobius[s] for s in orbit}) == 1
        assert len({len(stable.members[s]) for s in orbit}) == 1
    # The top and the trivial subgroup are fixed by conjugation.
    assert [stable.full_index] in stable.orbits
    assert [stable.trivial_index] in stable.orbits


@pytest.mark.parametrize("m, p, n", [(2, 1, 4), (6, 3, 3), (3, 3, 4), (1, 1, 5)])
def test_join_is_the_least_subgroup_above(m, p, n):
    # Conjugates' rows are transported, not closed: check every entry.
    _, stable = build_tables(GroupParams(m, p, n))
    masks = stable.masks
    for s, row in enumerate(stable.join):
        for ri, target in enumerate(row):
            need = masks[s] | 1 << ri
            assert masks[target] & need == need
            for other in masks:
                if other & need == need:
                    assert other & masks[target] == masks[target]


@pytest.mark.parametrize("m, p, n", [(1, 1, 4), (2, 1, 3), (4, 2, 3), (3, 3, 3)])
def test_orbit_sweep_raises_on_a_wrong_class_size(m, p, n):
    # An explicit raise, so it also guards under python -O.
    params = GroupParams(m, p, n)
    etable, stable = build_tables(params)
    assert stable.mobius[stable.trivial_index] != 0
    sizes = etable.class_sizes.copy()
    sizes[etable.class_ids[etable.identity_index]] += 1
    mutant = dataclasses.replace(etable, class_sizes=sizes)
    with pytest.raises(AssertionError, match="class sizes"):
        oracle._orbit_sweep(mutant, stable, 4)
    oracle._orbit_sweep(etable, stable, 4)


def test_mobius_of_trivial_subgroup_in_symmetric_groups():
    # the reflection subgroups of S_n form the set-partition lattice
    for n in range(2, 6):
        _, stable = build_tables(GroupParams(1, 1, n))
        expected = (-1) ** (n - 1) * factorial(n - 1)
        assert stable.mobius[stable.trivial_index] == expected
        assert stable.mobius[stable.full_index] == 1


@pytest.mark.parametrize(
    "m, p, n, subgroups",
    [(2, 1, 4, 218), (4, 1, 3, 153), (6, 3, 3, 164), (3, 3, 4, 141), (3, 1, 4, 328)],
)
def test_reflection_subgroup_counts(m, p, n, subgroups):
    _, stable = build_tables(GroupParams(m, p, n))
    assert len(stable.members) == subgroups


def test_lattice_members_are_subgroups_with_their_reflections():
    params = GroupParams(2, 1, 3)
    etable, stable = build_tables(params)
    refl = np.array(etable.refl_indices)
    for members, mask in zip(stable.members, stable.masks):
        assert etable.identity_index in members
        elems = {etable.elements[i] for i in members}
        assert all(multiply(x, y, params) in elems for x in elems for y in elems)
        inside = np.isin(refl, members)
        assert mask == sum(1 << ri for ri in np.flatnonzero(inside).tolist())


def test_caches_keep_eight_groups():
    groups = [
        GroupParams(1, 1, 1),
        GroupParams(1, 1, 2),
        GroupParams(1, 1, 3),
        GroupParams(2, 2, 2),
        GroupParams(2, 1, 2),
        GroupParams(3, 3, 2),
        GroupParams(3, 1, 2),
        GroupParams(4, 4, 2),
        GroupParams(2, 2, 3),
    ]
    oracle.clear_caches()
    for params in groups:
        sweep_counts(params, 2)
    assert oracle._tables.cache_info().currsize == 8
    assert oracle._sweep.cache_info().currsize == 8
    # The least recently used group was evicted: asking again is a miss.
    before = oracle._tables.cache_info().misses, oracle._sweep.cache_info().misses
    sweep_counts(groups[0], 2)
    after = oracle._tables.cache_info().misses, oracle._sweep.cache_info().misses
    assert after == (before[0] + 1, before[1] + 1)
    oracle.clear_caches()
    assert oracle._tables.cache_info().currsize == 0
    assert oracle._sweep.cache_info().currsize == 0


def test_oracle_series_matches_closed_form():
    params = GroupParams(2, 2, 2)
    assert oracle_series(params, identity(params)) == series_full(
        params, identity(params)
    )


def test_oracle_series_a1_row():
    params = GroupParams(1, 1, 2)
    from fractions import Fraction as F

    expected = LaurentPoly(-1, [F(1), F(-2), F(1)]).scale(F(1, 2))
    assert oracle_series(params, identity(params)) == expected


def test_oracle_series_matches_closed_form_on_width_31_window():
    params = GroupParams(4, 2, 3)
    assert params.num_hyperplanes + params.num_reflections + 1 == 31
    for g in class_representatives(params):
        assert oracle_series(params, g) == series_full(params, g)


def test_oracle_series_g2_core_polynomial():
    params = GroupParams(6, 6, 2)
    series = oracle_series(params, identity(params))
    phi, _ = extract_phi(series, params.order, params.num_hyperplanes)
    assert phi == load_phi_fixtures()["G2"]


# ---------------------------------------------------------------- length reads


def test_length_reads_match_series():
    for params in [GroupParams(2, 1, 2), GroupParams(3, 3, 2), GroupParams(2, 2, 3)]:
        for g in class_representatives(params):
            full_counts = count_factorizations(
                params, g, params.num_reflections + 2, mode="full"
            )
            first_full = next(i for i, c in enumerate(full_counts) if c)
            s, c = lowest_order(series_full(params, g))
            assert (first_full, full_counts[first_full]) == (s, c)


# ---------------------------------------------------------------- determinism


def test_dp_order_independence():
    params = GroupParams(3, 3, 2)
    etable, _ = build_tables(params)
    refl = list(range(len(etable.reflection_list)))  # mult columns

    def manual_all_counts(order, target_idx, top):
        dp = {etable.identity_index: 1}
        out = [dp.get(target_idx, 0)]
        for _ in range(top):
            nxt = {}
            for state, ways in dp.items():
                for r in order:
                    t = int(etable.mult[state, r])
                    nxt[t] = nxt.get(t, 0) + ways
            dp = nxt
            out.append(dp.get(target_idx, 0))
        return out

    for g in class_representatives(params):
        target = etable.index[g]
        forward = manual_all_counts(refl, target, 6)
        backward = manual_all_counts(refl[::-1], target, 6)
        shuffled = list(refl)
        random.Random(11).shuffle(shuffled)
        assert forward == backward == manual_all_counts(shuffled, target, 6)
        assert forward == count_factorizations(params, g, 6, mode="all")


# ---------------------------------------------------------------- E_m action


def test_em_action_examples():
    params = GroupParams(2, 2, 2)
    refl = reflections(params)
    assert acts_transitively_on_Em(refl, params)
    assert not acts_transitively_on_Em(refl[:1], params)


def test_em_action_requires_equal_parameters():
    with pytest.raises(ValueError):
        acts_transitively_on_Em([], GroupParams(2, 1, 2))


def test_em_action_rank_one():
    assert acts_transitively_on_Em([], GroupParams(1, 1, 1))
    assert not acts_transitively_on_Em([], GroupParams(2, 2, 1))


def test_em_action_equals_generation():
    for params in [GroupParams(2, 2, 2), GroupParams(3, 3, 2), GroupParams(2, 2, 3)]:
        refl = reflections(params)
        for size in range(min(4, len(refl)) + 1):
            for subset in combinations(refl, size):
                subset = list(subset)
                expected = generates_by_closure(params, subset)
                assert acts_transitively_on_Em(subset, params) == expected
                assert is_full_set(subset, params) == expected

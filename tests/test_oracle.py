"""Brute-force enumeration oracle: tables, DP counts, lattice structure."""

import dataclasses
import random
import time
from collections import Counter
from itertools import combinations, product
from math import factorial

import numpy as np
import pytest
from routes import GROUPS, class_size

from wfact import oracle
from wfact.errors import CapabilityError
from wfact.factorizations import series_full
from wfact.fixtures import load_phi_fixtures
from wfact.groups import (
    Element,
    GroupParams,
    Reflection,
    all_elements,
    conjugate,
    cycle_data,
    identity,
    is_full_set,
    multiply,
    reflections,
)
from wfact.laurent import LaurentPoly, _lagrange_basis, extract_phi
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
    assert etable.mult.shape[0] == 4
    assert len(stable.members) == 4  # trivial, two rank-1, full


def test_build_tables_s3():
    etable, stable = build_tables(GroupParams(1, 1, 3))
    assert etable.mult.shape[0] == 6
    assert len(stable.members) == 5  # the set-partition lattice of a 3-set


def test_build_tables_s2():
    etable, stable = build_tables(GroupParams(1, 1, 2))
    assert etable.mult.shape[0] == 2
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
        for i in range(params.order):
            x = etable.element(i)
            for r, t in enumerate(refls):
                assert etable.element(etable.mult[i, r]) == multiply(x, t, params)
    mult = build_tables(GroupParams(3, 1, 4))[0].mult
    assert (mult.shape, mult.dtype) == ((1944, 26), np.int32)


# #W * #R past the guard: G(448,1,1) and G(9,1,3) are the first of their
# families.
@pytest.mark.parametrize("m, p, n", [(4000, 1, 1), (448, 1, 1), (9, 1, 3), (6, 1, 4)])
def test_table_guard_refuses_before_any_work(m, p, n):
    params = GroupParams(m, p, n)
    assert params.order * params.num_reflections > oracle.TABLE_GUARD
    start = time.perf_counter()
    for call in (
        lambda: build_tables(params),
        lambda: generates_by_closure(params, []),
        lambda: class_representatives(params),
    ):
        with pytest.raises(CapabilityError, match="past the guard"):
            call()
    assert time.perf_counter() - start < 1


def test_table_guard_admits_the_widest_groups():
    # G(2,1,5) is the widest group of the tests and the benchmark.
    for params in (GroupParams(2, 1, 5), GroupParams(1, 1, 7)):
        assert params.order * params.num_reflections <= oracle.TABLE_GUARD
        assert build_tables(params)[0].mult.shape[0] == params.order
    # G(447,1,1), the last rank-one group inside the guard, lists its classes.
    edge = GroupParams(447, 1, 1)
    assert edge.order * edge.num_reflections <= oracle.TABLE_GUARD
    assert len(class_representatives(edge)) == 447


# (n_max + 1)^2 * #R * #W: 6.3e14, 1.0e12 and 1.7e11.  The first two groups
# are past the table guard too, but a sweep checks the walk guard first.
@pytest.mark.parametrize(
    "m, p, n, n_max", [(5000, 1, 1, 5001), (1000, 1, 1, 1002), (2, 1, 3, 20000)]
)
def test_walk_guard_refuses_before_any_table_is_built(m, p, n, n_max):
    params = GroupParams(m, p, n)
    misses = build_tables.cache_info().misses
    start = time.perf_counter()
    for count in (
        lambda: count_factorizations(params, identity(params), n_max, mode="full"),
        lambda: sweep_counts(params, n_max),
    ):
        with pytest.raises(CapabilityError, match="walk of .* past the guard"):
            count()
    assert time.perf_counter() - start < 1
    assert build_tables.cache_info().misses == misses


def test_walk_guard_admits_the_widest_benchmark_walk():
    params = GroupParams(2, 1, 5)
    width = params.num_hyperplanes + params.num_reflections + 1
    size = (width + 2) ** 2 * params.num_reflections * params.order
    assert 2 * 10**8 < size <= oracle.WALK_GUARD
    g = Element((2, 3, 1, 5, 4), (1, 0, 0, 0, 1))
    assert oracle_series(params, g) == series_full(params, g)


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


SMALL_GROUPS = [g for g in GROUPS if g.m <= 6 and g.n <= 4 and g.order <= 2000]


@pytest.mark.parametrize("params", SMALL_GROUPS, ids=str)
def test_class_representatives_match_an_element_scan(params):
    # The reference scans every element; cycle_data also rejects a
    # representative that is not in the group.
    scanned = sorted({cycle_data(g, params).class_key for g in all_elements(params)})
    reps = class_representatives(params)
    assert [cycle_data(g, params).class_key for g in reps] == scanned


def test_class_representatives_of_a_huge_trivial_group_list_one_color():
    # G(m,m,1) is trivial for every m, and the walk over colors must not
    # follow m: only the colors 0 mod p are listed at n = 1.
    params = GroupParams(10**9, 10**9, 1)
    assert class_representatives(params) == [identity(params)]


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


def reflection_masks(stable):
    """Each subgroup's reflections as an int with bit ri set for column ri."""
    return [
        sum(1 << ri for ri in np.flatnonzero(row).tolist()) for row in stable.flags
    ]


def element_walk(mult, members, refls, start, n_max):
    """walk[N, i]: sequences of N reflections from ``refls`` with product members[i].

    The per-element walk over a subgroup H (sorted ``members``, the ``mult``
    columns ``refls`` of its reflections, ``start`` the identity): a
    length-N product y ends in some t, with y * t**-1 the length-(N-1)
    product, so each step is one gather-add per reflection of H.
    """
    steps = [np.searchsorted(members, mult[members, t]) for t in refls]
    walk = np.zeros((n_max + 1, len(members)), dtype=object)
    walk[0, np.searchsorted(members, start)] = 1
    for length in range(1, n_max + 1):
        prev = walk[length - 1]
        row = walk[length]
        for step in steps:
            row += prev[step]
    return walk


def reference_sweep(params, n_max):
    """sweep_counts by one walk per subgroup with mu != 0, spread element by element."""
    etable, stable = build_tables(params)
    mult = etable.mult
    id_idx = etable.identity_index
    num_refl = mult.shape[1]
    all_counts = element_walk(
        mult, np.arange(mult.shape[0]), range(num_refl), id_idx, n_max
    )
    full_counts = all_counts.copy()
    masks = reflection_masks(stable)
    for s, mu in enumerate(stable.mobius):
        if not mu or s == stable.full_index:
            continue
        mask = masks[s]
        refls = [ri for ri in range(num_refl) if mask >> ri & 1]
        walk = element_walk(mult, stable.members[s], refls, id_idx, n_max)
        full_counts[:, stable.members[s]] += mu * walk
    return all_counts, full_counts


SWEEP_GROUPS = [
    (2, 1, 5), (1, 1, 6), (3, 1, 4), (3, 1, 3), (2, 1, 4),  # p = 1
    (4, 2, 3), (6, 3, 3), (6, 2, 3), (2, 2, 5),  # 1 < p < m, and p = m
    (3, 3, 4), (4, 4, 3), (2, 2, 4), (3, 3, 2),  # p = m
    (1, 1, 1), (3, 1, 1), (4, 2, 1), (2, 2, 1),  # rank one and trivial
]


@pytest.mark.parametrize("m, p, n", SWEEP_GROUPS)
def test_orbit_sweep_matches_per_subgroup_reference(m, p, n):
    params = GroupParams(m, p, n)
    n_max = params.num_reflections + 2
    all_counts, full_counts = sweep_counts(params, n_max)
    ref_all, ref_full = reference_sweep(params, n_max)
    assert all_counts.shape == full_counts.shape == (n_max + 1, params.order)
    assert np.array_equal(all_counts, ref_all)
    assert np.array_equal(full_counts, ref_full)


# G(8,1,3) and G(12,3,3) are rich in diagonal reflections; S_7 is the
# largest symmetric group inside the table guard.
WIDE_GROUPS = [(8, 1, 3), (12, 3, 3), (1, 1, 7)]


@pytest.mark.parametrize("m, p, n", WIDE_GROUPS)
def test_orbit_sweep_matches_per_subgroup_reference_on_wide_groups(m, p, n):
    params = GroupParams(m, p, n)
    all_counts, full_counts = sweep_counts(params, 6)
    ref_all, ref_full = reference_sweep(params, 6)
    assert np.array_equal(all_counts, ref_all)
    assert np.array_equal(full_counts, ref_full)


def successor_positions(mult, members, refls):
    """successors[i, t]: the position of members[i] * t in the sorted members."""
    return np.searchsorted(members, mult[np.ix_(members, refls)])


def walked_subgroups(etable, stable):
    """(members, reflection columns) of every subgroup the orbit sweep walks, W included."""
    masks = reflection_masks(stable)
    num_refl = etable.mult.shape[1]
    for orbit in stable.orbits:
        rep = orbit[0]
        if stable.mobius[rep]:
            refls = [ri for ri in range(num_refl) if masks[rep] >> ri & 1]
            yield stable.members[rep], refls


@pytest.mark.parametrize("m, p, n", SWEEP_GROUPS + WIDE_GROUPS)
def test_class_walk_matches_the_element_walk(m, p, n):
    # W and every subgroup the orbit sweep walks, spread back to the members,
    # from the V-class labels and from the two classes {identity} | rest.
    etable, stable = build_tables(GroupParams(m, p, n))
    mult, id_idx = etable.mult, etable.identity_index
    for members, refls in walked_subgroups(etable, stable):
        successors = successor_positions(mult, members, refls)
        origin = np.searchsorted(members, id_idx)
        expected = element_walk(mult, members, refls, id_idx, 6)
        for labels in (etable.class_ids[members], (members != id_idx).astype(np.intp)):
            ids = oracle._equitable_classes(successors, labels)
            walk = oracle._class_walk(successors, ids, origin, 6)
            assert np.array_equal(walk[:, ids], expected)


def reference_refinement(successors, labels):
    """_equitable_classes in plain Python: rank the (label, successor labels) keys."""
    succ = successors.tolist()
    ids = labels.tolist()
    count = len(set(ids))
    while True:
        keys = [(ids[i], tuple(sorted(ids[j] for j in row))) for i, row in enumerate(succ)]
        rank = {key: c for c, key in enumerate(sorted(set(keys)))}
        ids = [rank[key] for key in keys]
        if len(rank) == count:
            return ids
        count = len(rank)


@pytest.mark.parametrize("m, p, n", SWEEP_GROUPS)
def test_refinement_matches_a_plain_python_reference(m, p, n):
    etable, stable = build_tables(GroupParams(m, p, n))
    for members, refls in walked_subgroups(etable, stable):
        successors = successor_positions(etable.mult, members, refls)
        labels = etable.class_ids[members]
        ids = oracle._equitable_classes(successors, labels)
        assert ids.tolist() == reference_refinement(successors, labels)


# The number of V-classes of W.  For p > 1 a V-class can hold several
# W-classes, but the V-classes are already equitable: V normalizes W and
# permutes its reflections, so the refinement splits none of them.
@pytest.mark.parametrize(
    "m, p, n, v_classes",
    [
        (2, 2, 3, 5), (2, 2, 4, 11), (4, 2, 2, 8), (3, 3, 3, 8),
        (4, 4, 2, 4), (6, 3, 2, 9), (4, 2, 3, 20), (6, 6, 2, 5),
    ],
)
def test_refined_classes_of_the_whole_group_are_its_v_classes(m, p, n, v_classes):
    # The reference closes each class under conjugation by the generators
    # of V, computed by the group arithmetic.
    params = GroupParams(m, p, n)
    etable, _ = build_tables(params)
    refls = list(range(params.num_reflections))
    everything = np.arange(params.order)
    ids = oracle._equitable_classes(
        successor_positions(etable.mult, everything, refls), etable.class_ids
    )
    elements = [etable.element(i) for i in range(params.order)]
    gens = normalizer_generators(params)
    expected = np.full(params.order, -1)
    for i, g in enumerate(elements):
        if expected[i] < 0:
            klass, frontier = {g}, [g]
            for x in frontier:
                for v in gens:
                    y = conjugate(x, v, params)
                    if y not in klass:
                        klass.add(y)
                        frontier.append(y)
            expected[[etable.rank(y) for y in klass]] = expected.max() + 1
    assert np.array_equal(ids, etable.class_ids)
    assert np.array_equal(ids, expected)
    assert len(etable.class_sizes) == v_classes


def _patch_classes(monkeypatch, patched):
    """Route the sweep's class partitions through ``patched(ids, labels)``."""
    classes = oracle._equitable_classes

    def mutant(successors, labels):
        ids = patched(classes(successors, labels), labels)
        return np.unique(ids, return_inverse=True)[1].reshape(-1)

    monkeypatch.setattr(oracle, "_equitable_classes", mutant)


@pytest.mark.parametrize(
    "m, p, n", [(1, 1, 5), (2, 1, 4), (3, 1, 4), (6, 3, 3), (2, 2, 5)]
)
def test_class_walk_raises_on_v_classes_of_a_proper_subgroup(m, p, n, monkeypatch):
    # V-classes of a proper subgroup H can merge H-classes whose walks
    # differ; an explicit raise, so it also guards under python -O.
    params = GroupParams(m, p, n)
    etable, stable = build_tables(params)
    _patch_classes(monkeypatch, lambda ids, labels: labels)
    with pytest.raises(AssertionError, match="not equitable"):
        oracle._orbit_sweep(etable, stable, 4)


@pytest.mark.parametrize("m, p, n", [(1, 1, 3), (2, 1, 3), (4, 2, 3), (3, 3, 3)])
def test_class_walk_raises_on_the_identity_in_a_larger_class(m, p, n, monkeypatch):
    params = GroupParams(m, p, n)
    etable, stable = build_tables(params)
    # The identity is alone in its V-class, so its label finds it.
    origin_label = etable.class_ids[etable.identity_index]

    def merge(ids, labels):
        # The identity joins the class of the first other member, if any.
        others = np.flatnonzero(labels != origin_label)
        if not len(others):
            return ids
        return np.where(labels == origin_label, ids[others[0]], ids)

    _patch_classes(monkeypatch, merge)
    with pytest.raises(AssertionError, match="identity shares its class"):
        oracle._orbit_sweep(etable, stable, 4)


@pytest.mark.parametrize("m, p, n", [(2, 2, 3), (4, 2, 3), (1, 1, 4)])
def test_orbit_sweep_raises_when_the_refinement_splits_a_v_class_of_w(
    m, p, n, monkeypatch
):
    # The "all" counts are W's per-V-class totals, exact only while each
    # V-class of W is one class of its walk.
    params = GroupParams(m, p, n)
    etable, stable = build_tables(params)
    _patch_classes(
        monkeypatch,
        lambda ids, labels: np.arange(len(ids)) if len(ids) == params.order else ids,
    )
    with pytest.raises(AssertionError, match="split a V-class"):
        oracle._orbit_sweep(etable, stable, 4)


# ---------------------------------------------------------------- lattice sums


@pytest.mark.parametrize("m, p, n", SWEEP_GROUPS + WIDE_GROUPS)
def test_lattice_sum_anchors(m, p, n):
    # Both sides count reflection tuples by length: all of them, and those
    # that generate W.  The right sides read the lattice alone, no walk.
    # The lattice against series_full summed over W is in test_routes.py; the
    # class sizes it weighs classes by are the tables' and cover W.
    params = GroupParams(m, p, n)
    etable, stable = build_tables(params)
    reps = class_representatives(params)
    sizes = [int(etable.class_sizes[etable.class_ids[etable.rank(g)]]) for g in reps]
    assert [class_size(params, cycle_data(g, params).class_key) for g in reps] == sizes
    assert sum(sizes) == params.order
    all_counts, full_counts = sweep_counts(params, 6)
    num_refl = params.num_reflections
    lattice = [
        (mu, int(flags.sum())) for mu, flags in zip(stable.mobius, stable.flags) if mu
    ]
    for length in range(7):
        assert sum(all_counts[length]) == num_refl**length
        assert sum(full_counts[length]) == sum(mu * r**length for mu, r in lattice)


# ---------------------------------------------------------------- V-action


ACTION_GROUPS = [
    GroupParams(*mpn)
    for mpn in [
        (1, 1, 4), (2, 1, 3), (3, 1, 3), (2, 2, 4), (4, 2, 3), (6, 3, 3),
        (3, 3, 4), (4, 4, 3), (3, 1, 1), (4, 2, 1), (1, 1, 1),
    ]
]


def normalizer_generators(params):
    """Generators of V = G(m,1,n): adjacent transpositions, then zeta on e_1."""
    n, m = params.n, params.m
    gens = []
    for i in range(n - 1):
        perm = list(range(1, n + 1))
        perm[i], perm[i + 1] = i + 2, i + 1
        gens.append(Element(tuple(perm), (0,) * n))
    if m > 1:
        gens.append(Element(tuple(range(1, n + 1)), (1,) + (0,) * (n - 1)))
    return gens


# Rank indexing is checked against the enumeration on every V-action group,
# on the widest groups of each kind, and on S_7, the widest permutation rank
# inside the table guard.
RANK_GROUPS = ACTION_GROUPS + [
    GroupParams(*mpn) for mpn in [(2, 1, 5), (8, 1, 3), (12, 3, 3), (1, 1, 7)]
]


@pytest.mark.parametrize("params", RANK_GROUPS, ids=str)
def test_rank_indexes_the_elements_in_enumeration_order(params):
    etable, _ = build_tables(params)
    elements = [etable.element(i) for i in range(params.order)]
    assert elements == list(all_elements(params))
    assert [etable.rank(g) for g in elements] == list(range(params.order))
    assert etable.element(etable.identity_index) == identity(params)


@pytest.mark.parametrize(
    "g",
    [
        Element((1, 2, 3), (1, 0, 0)),  # color sum 1, not 0 mod 2
        Element((1, 2, 3), (1, 2, 0)),  # color sum 3
        Element((1, 1, 3), (0, 0, 0)),  # not a permutation
        Element((1, 2, 3), (4, 0, 0)),  # a color out of range
    ],
)
def test_count_factorizations_refuses_a_non_member(g):
    # The rank arithmetic alone would map each of these to some index.
    params = GroupParams(4, 2, 3)
    with pytest.raises(ValueError):
        count_factorizations(params, g, 4)


@pytest.fixture
def cold_caches():
    """Empty the oracle caches before and after a test that patches a kernel."""
    oracle.clear_caches()
    yield
    oracle.clear_caches()


def _collide_colors(real):
    def mutant(params):
        digits = real(params)
        digits[1] = digits[0]  # color ranks 0 and 1 name one coloring
        return digits

    return mutant


def _collide_perms(real):
    def mutant(perms):
        ranks = real(perms)
        return np.where(ranks == 1, 0, ranks)  # perm ranks 0 and 1 collide

    return mutant


@pytest.mark.parametrize("attr, patch", [
    ("_color_digits", _collide_colors), ("_lehmer_ranks", _collide_perms),
])
@pytest.mark.parametrize("m, p, n", [(3, 1, 2), (4, 2, 3), (2, 2, 3)])
def test_build_tables_raises_on_a_colliding_rank_map(m, p, n, attr, patch, monkeypatch,
                                                     cold_caches):
    # An explicit raise, so it also guards under python -O.
    monkeypatch.setattr(oracle, attr, patch(getattr(oracle, attr)))
    with pytest.raises(AssertionError, match="not a permutation"):
        build_tables(GroupParams(m, p, n))


@pytest.mark.parametrize("m, p, n", [(3, 1, 2), (4, 1, 1), (6, 2, 2), (3, 3, 3)])
def test_build_tables_raises_on_a_wrong_twist_sign(m, p, n, monkeypatch, cold_caches):
    # Negated twists give a table whose columns still permute the elements.
    real = oracle.build_mult_table

    def mutant(params, refls):
        steps = params.m // params.p
        return real(params, [
            Reflection(t.kind, t.i, t.j,
                       -t.twist % (params.m if t.kind == "transposition" else steps))
            for t in refls
        ])

    monkeypatch.setattr(oracle, "build_mult_table", mutant)
    with pytest.raises(AssertionError, match="identity's row"):
        build_tables(GroupParams(m, p, n))


@pytest.mark.parametrize("params", ACTION_GROUPS, ids=str)
def test_conjugation_table_matches_group_arithmetic(params):
    etable, _ = build_tables(params)
    elements = [etable.element(i) for i in range(params.order)]
    gens = normalizer_generators(params)
    # V = G(m,1,n) has n - 1 adjacent transpositions, plus zeta when m > 1.
    assert etable.conj.shape == (len(gens), params.order)
    for k, v in enumerate(gens):
        images = [etable.element(j) for j in etable.conj[k]]
        assert images == [conjugate(g, v, params) for g in elements]
    assert etable.conj.dtype == np.int32


@pytest.mark.parametrize("params", ACTION_GROUPS, ids=str)
def test_class_ids_group_elements_by_class_key(params):
    etable, _ = build_tables(params)
    keys = [cycle_data(etable.element(i), params).class_key for i in range(params.order)]
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


# Zeta fixes most representatives of G(4,1,3) and G(8,1,3), so their rows
# are also spread along a diagonal generator, not only transpositions.
@pytest.mark.parametrize(
    "m, p, n", [(2, 1, 4), (6, 3, 3), (3, 3, 4), (1, 1, 5), (4, 1, 3), (8, 1, 3)]
)
def test_join_is_the_least_subgroup_above(m, p, n):
    # Conjugates' rows are transported and representatives' rows spread
    # along their stabilizers, not closed: check every entry.
    _, stable = build_tables(GroupParams(m, p, n))
    masks = reflection_masks(stable)
    for s, row in enumerate(stable.join):
        for ri, target in enumerate(row):
            need = masks[s] | 1 << ri
            assert masks[target] & need == need
            for other in masks:
                if other & need == need:
                    assert other & masks[target] == masks[target]


def test_lattice_search_closure_counts(monkeypatch, cold_caches):
    # The closures the lattice search pays for on the five oracle-verify
    # groups (206 together) and on G(2,1,5); the rest of each
    # representative's row comes from the shortcut or the stabilizer spread.
    calls = []
    real = oracle.subgroup_closure

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "subgroup_closure", counting)
    closures = {}
    for mpn in [(2, 1, 4), (4, 1, 3), (6, 3, 3), (3, 3, 4), (3, 1, 4), (2, 1, 5)]:
        calls.clear()
        build_tables(GroupParams(*mpn))
        closures[mpn] = len(calls)
    assert closures == {
        (2, 1, 4): 36, (4, 1, 3): 55, (6, 3, 3): 39, (3, 3, 4): 16, (3, 1, 4): 60,
        (2, 1, 5): 74,
    }


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


def pairwise_mobius(members, masks, top):
    """mu(s, top) by the pairwise subset sums over the subgroups above s."""
    mobius = [0] * len(members)
    mobius[top] = 1
    above = [(masks[top], 1)]
    for s in sorted(range(len(members)), key=lambda i: -len(members[i])):
        if s != top:
            mobius[s] = -sum(mu for other, mu in above if other & masks[s] == masks[s])
            if mobius[s]:
                above.append((masks[s], mobius[s]))
    return mobius


@pytest.mark.parametrize(
    "params",
    RANK_GROUPS + [GroupParams(*mpn) for mpn in [(2, 1, 4), (3, 1, 4), (1, 1, 5)]],
    ids=str,
)
def test_mobius_matches_the_pairwise_reference(params):
    _, stable = build_tables(params)
    assert stable.mobius == pairwise_mobius(
        stable.members, reflection_masks(stable), stable.full_index
    )


@pytest.mark.parametrize(
    "m, p, n, subgroups",
    [(2, 1, 4, 218), (4, 1, 3, 153), (6, 3, 3, 164), (3, 3, 4, 141), (3, 1, 4, 328)],
)
def test_reflection_subgroup_counts(m, p, n, subgroups):
    _, stable = build_tables(GroupParams(m, p, n))
    assert len(stable.members) == subgroups


@pytest.mark.parametrize("m, p, n", [(2, 1, 3), (8, 1, 3), (12, 3, 3), (447, 1, 1)])
def test_lattice_members_are_subgroups_with_their_reflections(m, p, n):
    # G(447,1,1) has the widest flag row, 446 columns.
    params = GroupParams(m, p, n)
    etable, stable = build_tables(params)
    refl = np.array(etable.refl_indices)
    assert stable.flags.shape == (len(stable.members), len(refl))
    assert stable.flags.dtype == bool
    for members, flags in zip(stable.members, stable.flags):
        assert etable.identity_index in members
        assert np.array_equal(flags, np.isin(refl, members))
    assert len(np.unique(stable.flags, axis=0)) == len(stable.members)
    if (m, p, n) == (2, 1, 3):
        for members in stable.members:
            elems = {etable.element(i) for i in members}
            assert all(multiply(x, y, params) in elems for x in elems for y in elems)


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
    assert build_tables.cache_info().currsize == 8
    assert sweep_counts.cache_info().currsize == 8
    # The least recently used group was evicted: asking again is a miss.
    before = build_tables.cache_info().misses, sweep_counts.cache_info().misses
    sweep_counts(groups[0], 2)
    after = build_tables.cache_info().misses, sweep_counts.cache_info().misses
    assert after == (before[0] + 1, before[1] + 1)
    oracle.clear_caches()
    assert build_tables.cache_info().currsize == 0
    assert sweep_counts.cache_info().currsize == 0


def test_clear_caches_empties_the_rank_cache():
    build_tables(GroupParams(2, 1, 3))
    assert oracle._perm_tables.cache_info().currsize >= 1
    oracle.clear_caches()
    assert oracle._perm_tables.cache_info().currsize == 0


def test_clear_caches_empties_the_lagrange_basis_cache():
    # One basis per window, bounded like the tables and sweeps.
    assert _lagrange_basis.cache_info().maxsize == oracle._CACHE_GROUPS
    params = GroupParams(2, 1, 2)
    oracle_series(params, class_representatives(params)[0])
    assert _lagrange_basis.cache_info().currsize >= 1
    oracle.clear_caches()
    assert _lagrange_basis.cache_info().currsize == 0


def test_oracle_series_a1_row():
    params = GroupParams(1, 1, 2)
    from fractions import Fraction as F

    expected = LaurentPoly(-1, [F(1), F(-2), F(1)]).scale(F(1, 2))
    assert oracle_series(params, identity(params)) == expected


def test_oracle_series_g2_core_polynomial():
    params = GroupParams(6, 6, 2)
    series = oracle_series(params, identity(params))
    phi, _ = extract_phi(series, params.order, params.num_hyperplanes)
    assert phi == load_phi_fixtures()["G2"]


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
        target = etable.rank(g)
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

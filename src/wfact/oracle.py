"""Ground truth by exhaustion for small G(m,p,n).

Builds complete index-level tables of one group: its elements, the
reflection columns of their multiplication table, the action of
V = G(m,1,n) on them by conjugation, and the lattice of subgroups generated
by reflection subsets, each keyed by the reflections it contains and closed
coset by coset.  Counts of reflection factorizations of every length then
come from exact walks over elements, one sweep serving every element:

* mode "all": walk_W(g), the number of reflection sequences with product g.
  It uses no lattice machinery and no conjugation.
* mode "full" (the factors generate the whole group W): Möbius inversion
  over the lattice (Rota, *On the foundations of combinatorial theory I*,
  1964).  A sequence lies in H exactly when the subgroup it generates lies
  under H, so full(g) = sum over reflection subgroups H of
  mu(H, W) * walk_H(g), where walk_H counts the sequences of reflections
  of H with product g.  Only the H with mu(H, W) != 0 are walked.

V normalizes W and permutes its reflections, so conjugation by V permutes
the reflection subgroups and keeps mu(H, W).  The V-orbit is the unit of
work.  The lattice is searched over one representative per orbit: each new
subgroup is interned with its whole orbit, and a conjugate's joins are
carried over from its representative's instead of closed again.  The
Möbius sum walks one representative H per orbit O and reads the orbit's
total at g off the V-class C of g:
sum_{H' in O} walk_{H'}(g) = (|O| / |C|) * sum_{y in H cap C} walk_H(y).

Everything here is deliberately brute-force and capped; it exists to
certify the closed-form pipeline, never to replace it.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np

from ._kernels import build_conjugation_table, build_mult_table, subgroup_closure
from .errors import CapabilityError
from .groups import (
    Element,
    GroupParams,
    Reflection,
    _canonical_from_cycles,
    all_elements,
    identity,
    reflections,
    validate_element,
)
from .laurent import LaurentPoly, laurent_from_egf
from .partitions import integer_partitions

__all__ = [
    "DEFAULT_CAP_W",
    "CAP_SUBGROUPS",
    "ElementTable",
    "SubgroupTable",
    "build_tables",
    "clear_caches",
    "count_factorizations",
    "sweep_counts",
    "oracle_series",
    "acts_transitively_on_Em",
    "class_representatives",
    "generates_by_closure",
]

DEFAULT_CAP_W = 5000
CAP_SUBGROUPS = 20000
_CAP_ENV = "WFACT_CAP_W"


def _cap_w() -> int:
    raw = os.environ.get(_CAP_ENV, "")
    if raw.strip():
        try:
            return int(raw)
        except ValueError as exc:
            raise ValueError(f"{_CAP_ENV} must be an integer, got {raw!r}") from exc
    return DEFAULT_CAP_W


def _check_cap(params: GroupParams) -> int:
    """The oracle cap on the group order; CapabilityError above it."""
    cap = _cap_w()
    if params.order > cap:
        raise CapabilityError(
            f"{params} has order {params.order}, above the oracle cap {cap} "
            f"(override with the {_CAP_ENV} environment variable)"
        )
    return cap


@dataclass
class ElementTable:
    """Complete indexed model of one group.

    ``mult[i, r]`` is the index of elements[i] * reflection_list[r]: the
    table keeps one column per reflection, an int32 (#W, #R) array, since
    every walk multiplies by reflections on the right.  ``refl_indices[r]``
    is the element index of reflection_list[r].

    V = G(m,1,n) normalizes the group.  ``conj[k, i]`` is the index of
    v_k * elements[i] * v_k**-1 for the generators v_k of V: the n - 1
    adjacent transpositions, then zeta on the first coordinate when m > 1.
    ``class_ids[i]`` numbers the V-conjugacy class of elements[i], and
    ``class_sizes[c]`` is the size of class c.
    """

    params: GroupParams
    elements: list[Element]
    index: dict[Element, int]
    mult: np.ndarray
    identity_index: int
    reflection_list: list[Reflection]
    refl_indices: list[int]
    conj: np.ndarray
    class_ids: np.ndarray
    class_sizes: np.ndarray


@dataclass
class SubgroupTable:
    """All subgroups generated by reflection subsets, with join-by-reflection.

    ``masks[s]`` has bit ri set when reflection ``refl_indices[ri]`` lies in
    subgroup s; a reflection subgroup is determined by its reflections, so
    the masks are distinct and containment is a bitmask subset test.
    ``mobius[s]`` is the Möbius function mu(s, top) of the lattice.
    Conjugation by V permutes the subgroups: ``act[k, s]`` is the index of
    v_k * s * v_k**-1, and ``orbits`` lists the V-orbits, each with its
    representative first.
    """

    members: list[np.ndarray]
    masks: list[int]
    join: list[list[int]]
    mobius: list[int]
    trivial_index: int
    full_index: int
    act: np.ndarray
    orbits: list[list[int]]


_CACHE_GROUPS = 8


def clear_caches() -> None:
    """Drop every cached table and count sweep.

    The tables keep the 8 most recently used groups and the sweeps the 8
    most recently used (group, depth) pairs; ``_tables.cache_info()`` and
    ``_sweep.cache_info()`` report their hits and misses.
    """
    _tables.cache_clear()
    _sweep.cache_clear()


def build_tables(params: GroupParams) -> tuple[ElementTable, SubgroupTable]:
    """Element and subgroup tables for the group, cached per group.

    Guards: group order above the cap (default 5000, env WFACT_CAP_W) or
    more than 20000 subgroups raise CapabilityError.  The cap is checked on
    every call, cached or not.
    """
    _check_cap(params)
    return _tables(params)


def _normalizer_generators(params: GroupParams) -> list[Element]:
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


def _orbit_ids(conj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ids, sizes): the orbits of the permutations ``conj`` on 0..#W-1.

    Every point takes the least index reachable from it, so points share a
    label exactly when they share an orbit; ``ids`` renumbers the labels
    0, 1, ... and ``sizes`` counts each.
    """
    label = np.arange(conj.shape[1])
    while True:
        new = label
        for row in conj:
            new = np.minimum(new, new[row])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    _, ids, sizes = np.unique(label, return_inverse=True, return_counts=True)
    return ids, sizes


@lru_cache(maxsize=_CACHE_GROUPS)
def _tables(params: GroupParams) -> tuple[ElementTable, SubgroupTable]:
    elements = list(all_elements(params))
    if len(elements) != params.order:
        raise AssertionError(
            f"enumerated {len(elements)} elements of {params}, order is {params.order}"
        )
    index = {g: i for i, g in enumerate(elements)}
    perms0 = np.array([[v - 1 for v in g.perm] for g in elements], dtype=np.int32)
    colors = np.array([list(g.colors) for g in elements], dtype=np.int32)
    identity_index = index[identity(params)]
    refl_list = reflections(params)
    refl_indices = [index[t.to_element(params)] for t in refl_list]
    mult = build_mult_table(perms0, colors, params.m, refl_indices)
    actors = [
        ([v - 1 for v in g.perm], list(g.colors)) for g in _normalizer_generators(params)
    ]
    conj = build_conjugation_table(perms0, colors, params.m, actors)
    class_ids, class_sizes = _orbit_ids(conj)
    etable = ElementTable(
        params, elements, index, mult, identity_index, refl_list, refl_indices,
        conj, class_ids, class_sizes,
    )
    return etable, _build_subgroups(etable)


def _mask_of(refl_flags: np.ndarray) -> int:
    return int.from_bytes(np.packbits(refl_flags, bitorder="little").tobytes(), "little")


def _build_subgroups(etable: ElementTable) -> SubgroupTable:
    """The lattice, searched breadth first over one subgroup per V-orbit.

    A representative's joins come from closures; each new subgroup is
    interned with its whole V-orbit at once, and the join row of a
    conjugate s = v_k * t is transported from t's:
    s v r = v_k * (t v v_k**-1 r v_k).
    """
    mult, conj = etable.mult, etable.conj
    refl_array = np.array(etable.refl_indices, dtype=np.intp)
    num_refl = len(refl_array)
    total = len(etable.elements)
    # refl_inv[k, ri]: the column of v_k**-1 * reflection ri * v_k.
    column_of = np.full(total, -1, dtype=np.intp)
    column_of[refl_array] = np.arange(num_refl)
    refl_perm = column_of[conj[:, refl_array]]
    if (refl_perm < 0).any():
        raise AssertionError("conjugation moved a reflection off the reflection set")
    refl_inv = np.argsort(refl_perm, axis=1)

    members: list[np.ndarray] = []
    masks: list[int] = []
    refl_flags: list[np.ndarray] = []
    interned: dict[int, int] = {}
    gens_of: dict[int, tuple[int, ...]] = {}  # reflection columns generating a rep
    via: dict[int, tuple[int, int]] = {}  # (parent, reflection) whose join found a rep
    source: dict[int, tuple[int, int]] = {}  # conjugate s -> (k, t) with s = v_k t
    join: list[list[int]] = []
    act: list[list[int]] = [[] for _ in range(len(conj))]
    orbits: list[list[int]] = []
    orbit_of_rep: dict[int, list[int]] = {}

    def add(member_array: np.ndarray, flags: np.ndarray, mask: int) -> int:
        if len(members) >= CAP_SUBGROUPS:
            raise CapabilityError(
                f"{etable.params} produced more than {CAP_SUBGROUPS} reflection "
                "subgroups; oracle subgroup cap exceeded"
            )
        idx = len(members)
        interned[mask] = idx
        members.append(member_array)
        masks.append(mask)
        refl_flags.append(flags)
        join.append([-1] * num_refl)
        for row in act:
            row.append(-1)
        return idx

    def reflection_flags(member_array: np.ndarray) -> np.ndarray:
        flags = np.zeros(total, dtype=bool)
        flags[member_array] = True
        return flags[refl_array]

    def intern_orbit(
        member_array: np.ndarray, rflags: np.ndarray, mask: int,
        gens: tuple[int, ...], found_by: tuple[int, int],
    ) -> int:
        """Intern a subgroup of a new V-orbit as its representative, then the orbit."""
        rep = add(member_array, rflags, mask)
        gens_of[rep], via[rep] = gens, found_by
        orbit = [rep]
        for t in orbit:
            images = refl_flags[t][refl_inv]  # row k: the reflections of v_k t
            packed = np.packbits(images, axis=1, bitorder="little")
            for k, image_flags in enumerate(images):
                image_mask = int.from_bytes(packed[k].tobytes(), "little")
                s = interned.get(image_mask)
                if s is None:
                    s = add(np.sort(conj[k][members[t]]), image_flags, image_mask)
                    source[s] = (k, t)
                    orbit.append(s)
                act[k][t] = s
        orbits.append(orbit)
        orbit_of_rep[rep] = orbit
        return rep

    trivial_members = np.array([etable.identity_index], dtype=np.int32)
    trivial_flags = reflection_flags(trivial_members)
    trivial_index = intern_orbit(
        trivial_members, trivial_flags, _mask_of(trivial_flags), (), (-1, -1)
    )
    queue: deque[int] = deque([trivial_index])
    while queue:
        s = queue.popleft()
        parent, last = via[s]
        row = join[s]
        for ri in range(num_refl):
            if masks[s] >> ri & 1:
                row[ri] = s
                continue
            # s = parent v last, so s v ri = (parent v ri) v last: no closure
            # when the search has already joined that.
            if parent >= 0 and join[join[parent][ri]][last] >= 0:
                row[ri] = join[join[parent][ri]][last]
                continue
            gens = gens_of[s] + (ri,)
            closure = subgroup_closure(mult, members[s], gens)
            rflags = reflection_flags(closure)
            mask = _mask_of(rflags)
            target = interned.get(mask)
            if target is None:
                target = intern_orbit(closure, rflags, mask, gens, (s, ri))
                queue.append(target)
            elif len(members[target]) != len(closure):
                raise AssertionError("two subgroups share the same reflections")
            row[ri] = target
        for t in orbit_of_rep[s][1:]:
            k, u = source[t]
            act_k, join_u = act[k], join[u]
            join[t] = [act_k[join_u[c]] for c in refl_inv[k].tolist()]
    full_index = interned.get((1 << num_refl) - 1, -1)
    if full_index < 0 or len(members[full_index]) != total:
        # Reflections of G(m,p,n) always generate it (the trivial group's
        # top is its trivial subgroup), so this is a table or closure bug.
        raise AssertionError("reflection subgroup lattice is missing the top")
    mobius = _mobius_to_top(members, masks, full_index)
    act_table = np.array(act, dtype=np.int32).reshape(len(act), len(members))
    return SubgroupTable(
        members, masks, join, mobius, trivial_index, full_index, act_table, orbits
    )


def _mobius_to_top(members: list[np.ndarray], masks: list[int], top: int) -> list[int]:
    """mu(s, top) for every subgroup s, in one pass from the top down.

    mu(top, top) = 1 and mu(s, top) = -sum of mu(k, top) over the subgroups
    k strictly above s.  Visiting by decreasing order puts every k above s
    first; only the k with mu != 0 are kept for the subset tests.
    """
    mobius = [0] * len(members)
    mobius[top] = 1
    above = [(masks[top], 1)]
    for s in sorted(range(len(members)), key=lambda i: -len(members[i])):
        if s == top:
            continue
        mask = masks[s]
        value = -sum(mu for other, mu in above if other & mask == mask)
        mobius[s] = value
        if value:
            above.append((mask, value))
    return mobius


def _walk(
    mult: np.ndarray, members: np.ndarray, refls, start: int, n_max: int
) -> np.ndarray:
    """walk[N, i]: sequences of N reflections from ``refls`` with product members[i].

    ``members`` are the sorted indices of a subgroup H, ``refls`` the
    ``mult`` columns of its reflections and ``start`` the identity.  Exact:
    object entries hold Python ints.  A length-N product y ends in some t, with y * t**-1 the
    length-(N-1) product; the inverses run over H's reflections as t does,
    so each step is one gather-add per reflection.
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


def sweep_counts(params: GroupParams, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(all_counts, full_counts): per length N <= n_max, per element index.

    ``all_counts[N][e]`` counts length-N reflection sequences with product
    e: a walk over the whole group, with no subgroup tracking, so it is
    independent of the subgroup machinery.  ``full_counts[N][e]`` restricts
    to sequences whose factors generate the whole group, by Möbius
    inversion: the sum over subgroups H with mu(H, W) != 0 of mu(H, W)
    times the walk inside H.  The H = W term is the "all" walk itself; the
    others are summed one V-orbit at a time (see ``_orbit_sweep``).
    One sweep serves every element of the group.  Entries are Python ints.
    Cached per (group, n_max); the cap is checked on every call.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    _check_cap(params)
    return _sweep(params, n_max)


@lru_cache(maxsize=_CACHE_GROUPS)
def _sweep(params: GroupParams, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    return _orbit_sweep(*build_tables(params), n_max)


def _orbit_sweep(
    etable: ElementTable, stable: SubgroupTable, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """sweep_counts from the tables, with one walk per V-orbit of subgroups.

    Conjugating by v in V carries walk_H(y) to walk_{vHv^-1}(vyv^-1), so
    the orbit's total over O at g is a class function of g.  Summing it over
    g's V-class C and dividing by |C| gives
    sum_{H' in O} walk_{H'}(g) = (|O| / |C|) * sum_{y in H cap C} walk_H(y)
    for the representative H.  The totals are kept per class and spread
    to the elements with one gather at the end.
    """
    mult = etable.mult
    id_idx = etable.identity_index
    num_refl = mult.shape[1]
    all_counts = _walk(mult, np.arange(mult.shape[0]), range(num_refl), id_idx, n_max)
    class_ids = etable.class_ids
    sizes = etable.class_sizes.astype(object)
    by_class = np.zeros((n_max + 1, len(sizes)), dtype=object)
    for orbit in stable.orbits:
        rep = orbit[0]
        mu = stable.mobius[rep]
        if not mu or rep == stable.full_index:
            continue
        mask = stable.masks[rep]
        refls = [ri for ri in range(num_refl) if mask >> ri & 1]
        members = stable.members[rep]
        walk = _walk(mult, members, refls, id_idx, n_max)
        member_classes = class_ids[members]
        order = np.argsort(member_classes, kind="stable")
        ranked = member_classes[order]
        starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
        classes = ranked[starts]
        total = np.add.reduceat(walk[:, order], starts, axis=1) * len(orbit)
        class_size = sizes[classes]
        if any((total % class_size).flat):
            raise AssertionError(
                f"an orbit of {len(orbit)} subgroups of {etable.params} gives "
                "class sums that its class sizes do not divide"
            )
        by_class[:, classes] += mu * (total // class_size)
    return all_counts, all_counts + by_class[:, class_ids]


def count_factorizations(
    params: GroupParams, g: Element, n_max: int, mode: str = "all"
) -> list[int]:
    """Exact counts [length 0 .. n_max] of reflection factorizations of g."""
    if mode not in ("all", "full"):
        raise ValueError(f"mode must be 'all' or 'full', got {mode!r}")
    validate_element(g, params)
    etable, _ = build_tables(params)
    target = etable.index[g]
    all_counts, full_counts = sweep_counts(params, n_max)
    source = all_counts if mode == "all" else full_counts
    return source[:, target].tolist()


def oracle_series(params: GroupParams, g: Element, mode: str = "full") -> LaurentPoly:
    """Laurent polynomial reconstructed from brute-force counts.

    Counts are taken over the window [-#A, #R] plus two surplus lengths; the
    reconstruction verifies the surplus entries, so a window violation (or a
    counting bug) surfaces as a loud inconsistency error.
    """
    lo = -params.num_hyperplanes
    hi = params.num_reflections
    width = hi - lo + 1
    prefix = count_factorizations(params, g, width + 1, mode)
    return laurent_from_egf(prefix, lo, hi)


def class_representatives(params: GroupParams) -> list[Element]:
    """One representative per (cycle length, cycle color) class, by sorted key.

    Both the closed-form series and the brute-force counts are constant on
    these classes (conjugation by any permutation-plus-diagonal element
    permutes the reflection set), so sweeping representatives covers every
    conjugacy class of the group.  The keys are listed from the partitions
    of n without touching the group: each part length of multiplicity c
    takes a multiset of c colors, and a key belongs to G(m,p,n) when its
    colors sum to 0 mod p.  Each representative is the canonical element
    with those cycles.
    """
    _check_cap(params)
    keys = []
    for partition in integer_partitions(params.n):
        blocks = [
            [[(length, c) for c in colors]
             for colors in combinations_with_replacement(range(params.m), count)]
            for length, count in Counter(partition).items()
        ]
        for choice in product(*blocks):
            pairs = [pair for block in choice for pair in block]
            if sum(c for _, c in pairs) % params.p == 0:
                keys.append(tuple(sorted(pairs)))
    return [_canonical_from_cycles(list(key), params) for key in sorted(keys)]


def generates_by_closure(params: GroupParams, refls: list[Reflection]) -> bool:
    """Does the reflection set generate the whole group?  By explicit closure.

    Uses the interned subgroup lattice: fold the join operation over the
    reflections.  This is the independent check against which the
    graph-theoretic generation criterion is validated.
    """
    etable, stable = build_tables(params)
    order = {t: ri for ri, t in enumerate(etable.reflection_list)}
    current = stable.trivial_index
    for t in refls:
        ri = order.get(t)
        if ri is None:
            raise ValueError(f"{t} is not a reflection of {params}")
        current = stable.join[current][ri]
    return current == stable.full_index


def acts_transitively_on_Em(refls: list[Reflection], params: GroupParams) -> bool:
    """Is the action on the m*n colored basis vectors transitive?

    Defined for p = m (no diagonal reflections).  Each symbol is a pair
    (position j, color c) standing for zeta**c e_j; a transposition-like
    reflection with twist k sends (i, c) to (j, c + k) and (j, c) to
    (i, c - k).  Transitivity of the generated subgroup is a single orbit
    check by breadth-first search.  The degenerate n = 1 case has a single
    basis vector and an empty reflection set: transitive iff m = 1.
    """
    if params.p != params.m:
        raise ValueError("the colored-basis action test applies to G(m,m,n) only")
    m, n = params.m, params.n
    if n == 1:
        return m == 1
    for t in refls:
        if t.kind != "transposition":
            raise ValueError(f"unexpected non-transposition reflection {t}")
    start = (1, 0)
    seen = {start}
    frontier = deque([start])
    while frontier:
        pos, color = frontier.popleft()
        for t in refls:
            if pos == t.i:
                nxt = (t.j, (color + t.twist) % m)
            elif pos == t.j:
                nxt = (t.i, (color - t.twist) % m)
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == m * n

"""Ground truth by exhaustion for small G(m,p,n).

Builds complete index-level tables of one group: its elements, the
reflection columns of their multiplication table, conjugation by the
generators of V = G(m,1,n), and the lattice of subgroups generated by
reflection subsets, each keyed by the reflections it contains and closed
coset by coset.

The elements are indexed by rank, in the order of ``groups.all_elements``:

    rank([u; a]) = (Lehmer rank of u) * (m**n / p) + (color rank of a),

where the color rank is the mixed-radix value of the first n - 1 colors
(most significant first) times m/p, plus a_n // p; the last color is fixed
mod p by the color sum, so a_n // p numbers its m/p choices.  An index is
computed from its element and back by arithmetic alone, and so are whole
tables:

* ``build_mult_table`` — the reflection columns of the multiplication
  table, mult[i, r] = index of element_i * reflection_r.  A transposition
  swaps two positions of the permutation, read from one per-n swap table of
  Lehmer ranks, and moves two color digits; a diagonal reflection moves one
  digit.  So each column is (swapped perm rank) * (m**n / p) + (shifted
  color rank), one broadcast add over the permutations and the colorings;
* ``_inverse_index`` and ``_zeta_row`` — the index of each element's
  inverse, and of its conjugate by zeta on the first coordinate;
* ``subgroup_closure`` — members of the subgroup generated by a set of
  reflection columns, grown coset by coset from a known subgroup of it
  (Dimino's algorithm; Butler, *Fundamental Algorithms for Permutation
  Groups*, LNCS 559).

Every walk and closure multiplies by a reflection on the right, so the
#W x #R columns are the whole table.  The per-n permutation tables are
cached (``_perm_tables``, the 8 most recent n).

Counts of reflection factorizations of every length then come from exact
walks, one sweep serving every element:

* mode "all": walk_W(g), the number of reflection sequences with product g.
  It uses no lattice machinery.
* mode "full" (the factors generate the whole group W): Möbius inversion
  over the lattice (Rota, *On the foundations of combinatorial theory I*,
  1964).  A sequence lies in H exactly when the subgroup it generates lies
  under H, so full(g) = sum over reflection subgroups H of
  mu(H, W) * walk_H(g), where walk_H counts the sequences of reflections
  of H with product g.  Only the H with mu(H, W) != 0 are walked.

Each walk steps over classes of H, not elements.  The classes come from
exact refinement: starting from the V-class labels of H's members, each
pass renumbers the members by their label and the sorted labels of their
successors y * t over H's reflections, until the number of classes stops
growing (``_equitable_classes``).  The walk then checks, with an explicit
raise, that the identity is alone in its class and that the partition is
equitable (every member of a class has the same multiset of classes among
its successors), which alone makes the quotient walk exact.  The starting
labels change only the number of passes, never the counts.

V normalizes W and permutes its reflections, so conjugation by V permutes
the reflection subgroups and keeps mu(H, W).  The V-orbit is the unit of
work.  The lattice is searched over one representative per orbit: each new
subgroup is interned with its whole orbit, and a conjugate's joins are
carried over from its representative's instead of closed again.  Inside a
representative's own row, each join found is spread along the generators
of V that fix the representative, so at most one join per orbit of the
group they generate on the reflections needs a closure.  The Möbius sum
walks one representative H per orbit O, W itself included as an orbit of
one, and reads the orbit's total at g off the V-class C of g:
sum_{H' in O} walk_{H'}(g) = (|O| / |C|) * sum_{y in H cap C} walk_H(y).

Everything here is deliberately brute-force and capped; it exists to
certify the closed-form pipeline, never to replace it.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial

import numpy as np

from .errors import CapabilityError
from .groups import (
    Element,
    GroupParams,
    Reflection,
    _canonical_from_cycles,
    identity,
    reflections,
    validate_element,
)
from .laurent import LaurentPoly, _lagrange_basis, laurent_from_egf
from .partitions import integer_partitions

__all__ = [
    "TABLE_GUARD",
    "WALK_GUARD",
    "ElementTable",
    "SubgroupTable",
    "build_mult_table",
    "subgroup_closure",
    "build_tables",
    "clear_caches",
    "count_factorizations",
    "sweep_counts",
    "oracle_series",
    "acts_transitively_on_Em",
    "class_representatives",
    "generates_by_closure",
]

# #W * #R, the cells of the reflection-column multiplication table (int32,
# so 0.8 MB at the guard); the lattice closures grow with it.  In process
# (Python 3.11, one core of a Xeon, best of 15 with every cache cold),
# build_tables took 0.011 s on G(2,1,5) (96,000 cells, the widest group the
# tests and the benchmark use), 0.014 s on G(1,1,7) (105,840), 0.014 s on
# G(8,1,3) (138,240), 0.18 s on G(400,1,1) (159,600) and 0.30 s on
# G(447,1,1) (199,362), where the 448 closures of the rank-one lattice are
# nearly all of it; unguarded, oracle-verify ran 48 s on G(4000,1,1)
# (1.6e7 cells).  It bounds the subgroup lattice too: of the 732 groups
# with n >= 2 inside it, all built in 23 s (Python 3.11, 2-core x86_64
# host), the largest lattices are G(2,1,5)'s 1,430 subgroups, G(6,6,4)'s
# 957, G(216,108,2)'s 884 and S_7's 877; a rank-one lattice has at most
# d(m/p) <= 24, as m/p <= 447.  A raise of this guard (ROADMAP item 7)
# must bring its own bound on the lattice.
TABLE_GUARD = 2 * 10**5
# A sweep to depth n_max returns (n_max + 1) * #W ints of up to ~n_max bits,
# and each length of each walk adds at most #R rows of at most #W of them,
# so its time and memory grow at most as (n_max + 1)^2 * #R * #W; the class
# walks add rows of classes, never more than #W.  The benchmark's widest
# walk, G(2,1,5) to depth 52, is 2.7e8.  At 1e9 the counts of G(2,1,3)
# (depth 1520), G(5,1,3) (221), G(3,1,4) (139) and G(2,1,5) (101), tables
# included, took 0.13-0.19 s and at most 60 MB of RSS each (Python 3.11,
# one core of a Xeon); G(5000,1,1) at its default depth is 6e14.
WALK_GUARD = 10**9


def _check_guard(params: GroupParams, factor: int, guard: int, what: str) -> None:
    """Raise CapabilityError when ``what`` = factor * #W * #R passes ``guard``.

    #W = m**n * n! / p has about n log2 n bits (n = 10**6 took 4.8 s), but
    n! divides it and #R >= 1 from n = 2 on, so from n = 13 on, where
    13! > 6e9 passes either guard, factor * 13! refuses without #W.  Sizes
    print as Decimals: a float overflows past 1.8e308.
    """
    size, relation = factor * factorial(13), ">="
    if params.n < 13 or size <= guard:
        size, relation = factor * params.order * params.num_reflections, "="
    if size > guard:
        raise CapabilityError(
            f"{what} {relation} {Decimal(size):.3g}, "
            f"past the guard {Decimal(guard):.0e}"
        )


# ---------------------------------------------------------------------------
# Rank arithmetic: element indices and whole tables without an element list
# ---------------------------------------------------------------------------


def _lehmer_ranks(perms: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each 0-based image row of ``perms`` (last axis)."""
    n = perms.shape[-1]
    ranks = np.zeros(perms.shape[:-1], dtype=np.int64)
    for k in range(n - 1):
        smaller = (perms[..., k + 1:] < perms[..., k:k + 1]).sum(axis=-1)
        ranks += smaller * factorial(n - 1 - k)
    return ranks


@lru_cache(maxsize=8)
def _perm_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inverse, inverse_rank, swap_rank) over the permutations of n points.

    The permutations are taken in lexicographic order of their image rows.
    Row u of ``inverse`` is the image row of u**-1 and ``inverse_rank[u]``
    its rank; ``swap_rank[u, q]`` is the rank of u with the positions of the
    q-th pair i < j swapped, the pairs in lexicographic order.
    """
    perms = np.array(list(permutations(range(n))), dtype=np.int8).reshape(-1, n)
    pairs = list(combinations(range(n), 2))
    columns = np.tile(np.arange(n), (len(pairs), 1))
    for q, (i, j) in enumerate(pairs):
        columns[q, i], columns[q, j] = j, i
    inverse = np.argsort(perms, axis=1).astype(np.int8)
    return inverse, _lehmer_ranks(inverse), _lehmer_ranks(perms[:, columns])


def _color_scales(params: GroupParams) -> np.ndarray:
    """Weight of each of the first n - 1 colors in the color rank."""
    m, n = params.m, params.n
    steps = m // params.p
    return np.array([steps * m ** (n - 2 - k) for k in range(n - 1)], dtype=np.int64)


def _color_digits(params: GroupParams) -> np.ndarray:
    """The m**n / p color rows of G(m,p,n), row c having color rank c."""
    m, p, n = params.m, params.p, params.n
    value, high = np.divmod(np.arange(m**n // p, dtype=np.int64), m // p)
    digits = np.empty((len(value), n), dtype=np.int64)
    for k in range(n - 2, -1, -1):
        value, digits[:, k] = np.divmod(value, m)
    digits[:, n - 1] = -digits[:, : n - 1].sum(axis=1) % p + high * p
    return digits


def _weight(params: GroupParams, pos: np.ndarray, digit: np.ndarray) -> np.ndarray:
    """What color ``digit`` at position ``pos`` adds to the color rank."""
    scales = np.append(_color_scales(params), 0)
    return digit * scales[pos] + (pos == params.n - 1) * (digit // params.p)


def _color_ranks(params: GroupParams, digits: np.ndarray) -> np.ndarray:
    """Color rank of each color row (last axis) of a member."""
    return digits[..., :-1] @ _color_scales(params) + digits[..., -1] // params.p


def _rank(params: GroupParams, g: Element) -> int:
    """Index of the member g: no check that g lies in the group."""
    n, m, p = params.n, params.m, params.p
    perm = [v - 1 for v in g.perm]
    perm_rank = 0
    for k in range(n):
        perm_rank = perm_rank * (n - k) + sum(1 for v in perm[k + 1:] if v < perm[k])
    value = 0
    for c in g.colors[:-1]:
        value = value * m + c
    return (perm_rank * m ** (n - 1) + value) * (m // p) + g.colors[-1] // p


def _unrank(params: GroupParams, index: int) -> Element:
    """The element of G(m,p,n) with the given index."""
    n, m, p = params.n, params.m, params.p
    perm_rank, color_rank = divmod(index, m**n // p)
    value, high = divmod(color_rank, m // p)
    colors = [0] * n
    for k in range(n - 2, -1, -1):
        value, colors[k] = divmod(value, m)
    colors[n - 1] = -sum(colors) % p + high * p
    left = list(range(1, n + 1))
    perm = []
    for k in range(n - 1, -1, -1):
        digit, perm_rank = divmod(perm_rank, factorial(k))
        perm.append(left.pop(digit))
    return Element(tuple(perm), tuple(colors))


def build_mult_table(params: GroupParams, refls: list[Reflection]) -> np.ndarray:
    """int32 (#W, len(refls)): mult[i, r] = index of element_i * refls[r].

    The product convention is [u; a] * [v; b] = [u v; v(a) + b]: by a
    transposition t(i,j;k) the permutation's positions i and j swap and the
    colors there become a_j + k and a_i - k; by a diagonal reflection
    d(i;k) the color a_i becomes a_i + p*k.  Both keep the color sum mod p,
    so the shifted colors are those of a member and rank as one.  The table
    is column-major, so each column is contiguous.
    """
    m, p, n = params.m, params.p, params.n
    _, _, swap_rank = _perm_tables(n)
    digits = _color_digits(params)
    swaps = np.array([t.kind == "transposition" for t in refls], dtype=bool)
    first = np.array([t.i - 1 for t in refls], dtype=np.intp)
    second = np.array([t.j - 1 if t.j else t.i - 1 for t in refls], dtype=np.intp)
    twist = np.array([t.twist for t in refls], dtype=np.int64)
    perm_part = np.repeat(np.arange(len(swap_rank))[:, None], len(refls), axis=1)
    pair = first * (2 * n - first - 1) // 2 + second - first - 1
    perm_part[:, swaps] = swap_rank[:, pair[swaps]]
    old_first, old_second = digits[:, first], digits[:, second]
    new_first = np.where(swaps, old_second + twist, old_first + p * twist) % m
    new_second = (old_first - twist) % m
    color_part = (
        np.arange(len(digits))[:, None]
        + _weight(params, first, new_first) - _weight(params, first, old_first)
        + swaps * (_weight(params, second, new_second) - _weight(params, second, old_second))
    )
    cols = np.add(
        (perm_part.T * len(digits)).astype(np.int32)[:, :, None],
        color_part.T.astype(np.int32)[:, None, :],
    )  # cols[r] = mult[:, r]
    return cols.reshape(len(refls), len(perm_part) * len(digits)).T


def _inverse_index(params: GroupParams) -> np.ndarray:
    """int32 (#W,): the index of each element's inverse.

    [u; a]**-1 = [u**-1; c] with c_j = -a at position u**-1(j).
    """
    inverse, inverse_rank, _ = _perm_tables(params.n)
    digits = _color_digits(params)
    colors = -digits[:, inverse] % params.m  # (colorings, perms, n)
    index = inverse_rank[:, None] * len(digits) + _color_ranks(params, colors).T
    return index.astype(np.int32).reshape(-1)


def _zeta_row(params: GroupParams) -> np.ndarray:
    """int32 (#W,): the index of zeta * x * zeta**-1 for zeta on the first coordinate.

    zeta * [u; a] * zeta**-1 = [u; a'], where a' is a plus 1 at position
    u**-1(1) and minus 1 at position 1.
    """
    inverse, _, _ = _perm_tables(params.n)
    digits = _color_digits(params)
    perms = np.arange(len(inverse))
    colors = np.repeat(digits[:, None, :], len(perms), axis=1)  # (colorings, perms, n)
    colors[:, perms, inverse[:, 0]] += 1
    colors[:, :, 0] -= 1
    index = perms[:, None] * len(digits) + _color_ranks(params, colors % params.m).T
    return index.astype(np.int32).reshape(-1)


def subgroup_closure(mult: np.ndarray, members, gens) -> np.ndarray:
    """Sorted member indices of the subgroup K generated by columns ``gens``.

    ``members`` lists the indices of a subgroup H of K (the identity alone
    will do).  K is the union of the right cosets H*y reachable from H by
    right multiplication with ``gens``.  Each coset is kept as an index
    array, so the coset H*y*g is one gather ``mult[coset, g]`` of a
    reflection column; the loop runs [K:H] * len(gens) times.
    """
    base = np.asarray(members, dtype=np.intp)
    member = np.zeros(mult.shape[0], dtype=bool)
    member[base] = True
    gen_list = sorted({int(g) for g in gens})
    cosets = [base]
    for coset in cosets:
        rep = coset[0]
        for g in gen_list:
            if not member[mult[rep, g]]:
                image = mult[coset, g]
                member[image] = True
                cosets.append(image)
    return np.flatnonzero(member).astype(np.int32)


@dataclass
class ElementTable:
    """Complete indexed model of one group.

    Elements are indexed by rank (see the module docstring), in the order of
    ``groups.all_elements``: ``rank(g)`` and ``element(i)`` convert by
    arithmetic, with no list of elements.  ``mult[i, r]`` is the index of
    element(i) * reflection_list[r]: the table keeps one column per
    reflection, an int32 (#W, #R) array, since every walk multiplies by
    reflections on the right.  ``refl_indices[r]`` is the index of
    reflection_list[r].

    V = G(m,1,n) normalizes the group.  ``conj[k, i]`` is the index of
    v_k * element(i) * v_k**-1 for the generators v_k of V: the n - 1
    adjacent transpositions, then zeta on the first coordinate when m > 1.
    ``class_ids[i]`` numbers the V-conjugacy class of element(i), and
    ``class_sizes[c]`` is the size of class c.  Each class walk starts its
    refinement from these labels.
    """

    params: GroupParams
    mult: np.ndarray
    identity_index: int
    reflection_list: list[Reflection]
    refl_indices: list[int]
    conj: np.ndarray
    class_ids: np.ndarray
    class_sizes: np.ndarray

    def rank(self, g: Element) -> int:
        """Index of the member g; validate_element(g, params) first if unsure."""
        return _rank(self.params, g)

    def element(self, i: int) -> Element:
        """The element with index i, 0 <= i < #W."""
        return _unrank(self.params, i)


@dataclass
class SubgroupTable:
    """All subgroups generated by reflection subsets, with join-by-reflection.

    ``flags[s, ri]`` is True when reflection ``refl_indices[ri]`` lies in
    subgroup s, a bool (#subgroups, #R) array; a reflection subgroup is
    determined by its reflections, so the rows are distinct and containment
    is a test on rows.
    ``mobius[s]`` is the Möbius function mu(s, top) of the lattice.
    Conjugation by V permutes the subgroups: ``act[k, s]`` is the index of
    v_k * s * v_k**-1, and ``orbits`` lists the V-orbits, each with its
    representative first.
    """

    members: list[np.ndarray]
    flags: np.ndarray
    join: list[list[int]]
    mobius: list[int]
    trivial_index: int
    full_index: int
    act: np.ndarray
    orbits: list[list[int]]


_CACHE_GROUPS = 8


def clear_caches() -> None:
    """Drop every cached table, count sweep and reconstruction basis.

    The tables keep the 8 most recently used groups, the sweeps the 8 most
    recently used (group, depth) pairs, the permutation rank tables the 8
    most recently used n and ``oracle_series``'s Lagrange bases (in
    ``wfact.laurent``) the 8 most recently used windows;
    ``build_tables.cache_info()`` and ``sweep_counts.cache_info()`` report
    their hits and misses.
    """
    build_tables.cache_clear()
    sweep_counts.cache_clear()
    _perm_tables.cache_clear()
    _lagrange_basis.cache_clear()


def _orbit_ids(conj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ids, sizes): the orbits of the permutations ``conj`` on 0..N-1.

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
def build_tables(params: GroupParams) -> tuple[ElementTable, SubgroupTable]:
    """Element and subgroup tables for the group, cached per group.

    Every table comes from rank arithmetic (see the module docstring), with no
    search for an element.  ``mult`` is built column by column from the
    ranks.  An adjacent transposition t = t(i,i+1;0) is its own inverse, so
    with y = x * t, t * x * t**-1 = (y**-1 * t)**-1: its row of ``conj`` is
    three gathers of its ``mult`` column and the inverse index.  The zeta
    row follows.  Explicit raises, so also under ``python -O``, check that
    every column of ``mult`` and every row of ``conj`` permutes the indices,
    and that the identity's row of ``mult`` holds the reflections' own
    ranks.

    Guard: a table of more than TABLE_GUARD cells #W * #R raises
    CapabilityError, checked before any work.
    """
    _check_guard(params, 1, TABLE_GUARD, f"{params} has a table of #W * #R cells")
    refl_list = reflections(params)
    refl_indices = [_rank(params, t.to_element(params)) for t in refl_list]
    mult = build_mult_table(params, refl_list)
    identity_index = _rank(params, identity(params))
    _check_permutations(mult.T, "a column of the multiplication table")
    if not np.array_equal(mult[identity_index], refl_indices):
        raise AssertionError(
            "the identity's row of the multiplication table is not the reflections"
        )
    adjacent = [
        refl_list.index(Reflection("transposition", i, i + 1, 0)) for i in range(1, params.n)
    ]
    inverse = _inverse_index(params)
    y = mult.T[adjacent]  # y[k, x] = x * t_k
    conj = inverse[np.take_along_axis(y, inverse[y], axis=1)]
    if params.m > 1:
        conj = np.vstack([conj, _zeta_row(params)])
    _check_permutations(conj, "a row of the conjugation table")
    class_ids, class_sizes = _orbit_ids(conj)
    etable = ElementTable(
        params, mult, identity_index, refl_list, refl_indices,
        conj, class_ids, class_sizes,
    )
    return etable, _build_subgroups(etable)


def _check_permutations(rows: np.ndarray, what: str) -> None:
    """Raise unless each row of ``rows`` is a permutation of 0..N-1, N = #columns."""
    count, size = rows.shape
    inside = not rows.size or (rows.min() >= 0 and rows.max() < size)
    offsets = rows + np.arange(0, count * size, size, dtype=np.int64)[:, None]
    if not inside or not (np.bincount(offsets.reshape(-1), minlength=rows.size) == 1).all():
        raise AssertionError(f"{what} is not a permutation of the element indices")


def _build_subgroups(etable: ElementTable) -> SubgroupTable:
    """The lattice, searched breadth first over one subgroup per V-orbit.

    A subgroup is keyed by the bytes of its row of reflection flags, the
    one form of its reflection set that the search keeps.
    A representative's joins come from closures, or from the shortcut
    s v r = (parent v r) v last when the search has joined that already.
    Each entry found is spread along the generators v_k that fix s: then
    s v v_k r v_k**-1 = v_k * (s v r) * v_k**-1, whose target is already
    interned, so the spread finds no subgroup and the search meets every
    subgroup in the same order as without it.  Each new subgroup is
    interned with its whole V-orbit at once, and the join row of a
    conjugate s = v_k * t is transported from t's:
    s v r = v_k * (t v v_k**-1 r v_k).
    """
    mult, conj = etable.mult, etable.conj
    refl_array = np.array(etable.refl_indices, dtype=np.intp)
    num_refl = len(refl_array)
    total = etable.params.order
    # refl_inv[k, ri]: the column of v_k**-1 * reflection ri * v_k.
    column_of = np.full(total, -1, dtype=np.intp)
    column_of[refl_array] = np.arange(num_refl)
    refl_perm = column_of[conj[:, refl_array]]
    if (refl_perm < 0).any():
        raise AssertionError("conjugation moved a reflection off the reflection set")
    refl_inv = np.argsort(refl_perm, axis=1)

    members: list[np.ndarray] = []
    refl_flags: list[np.ndarray] = []
    interned: dict[bytes, int] = {}  # the bytes of a flag row -> its subgroup
    gens_of: dict[int, tuple[int, ...]] = {}  # reflection columns generating a rep
    via: dict[int, tuple[int, int]] = {}  # (parent, reflection) whose join found a rep
    source: dict[int, tuple[int, int]] = {}  # conjugate s -> (k, t) with s = v_k t
    join: list[list[int]] = []
    act: list[list[int]] = [[] for _ in range(len(conj))]
    orbits: dict[int, list[int]] = {}  # representative -> its orbit, rep first

    def add(member_array: np.ndarray, flags: np.ndarray) -> int:
        idx = len(members)
        interned[flags.tobytes()] = idx
        members.append(member_array)
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
        member_array: np.ndarray, rflags: np.ndarray,
        gens: tuple[int, ...], found_by: tuple[int, int],
    ) -> int:
        """Intern a subgroup of a new V-orbit as its representative, then the orbit."""
        rep = add(member_array, rflags)
        gens_of[rep], via[rep] = gens, found_by
        orbit = orbits[rep] = [rep]
        for t in orbit:
            images = refl_flags[t][refl_inv]  # row k: the reflections of v_k t
            for k, image_flags in enumerate(images):
                s = interned.get(image_flags.tobytes())
                if s is None:
                    s = add(np.sort(conj[k][members[t]]), image_flags)
                    source[s] = (k, t)
                    orbit.append(s)
                act[k][t] = s
        return rep

    trivial_members = np.array([etable.identity_index], dtype=np.int32)
    trivial_index = intern_orbit(
        trivial_members, reflection_flags(trivial_members), (), (-1, -1)
    )
    perm_rows = refl_perm.tolist()
    queue: deque[int] = deque([trivial_index])
    while queue:
        s = queue.popleft()
        parent, last = via[s]
        row = join[s]
        inside = refl_flags[s].tolist()
        fixing = [(perm_rows[k], act[k]) for k in range(len(act)) if act[k][s] == s]
        for ri in range(num_refl):
            if row[ri] >= 0:
                continue
            if inside[ri]:
                row[ri] = s
                continue
            # s = parent v last, so s v ri = (parent v ri) v last: no closure
            # when the search has already joined that.
            if parent >= 0 and join[join[parent][ri]][last] >= 0:
                row[ri] = join[join[parent][ri]][last]
            else:
                gens = gens_of[s] + (ri,)
                closure = subgroup_closure(mult, members[s], gens)
                rflags = reflection_flags(closure)
                target = interned.get(rflags.tobytes())
                if target is None:
                    target = intern_orbit(closure, rflags, gens, (s, ri))
                    queue.append(target)
                elif len(members[target]) != len(closure):
                    raise AssertionError("two subgroups share the same reflections")
                row[ri] = target
            # A v_k that fixes s gives s v v_k r v_k**-1 = v_k (s v r) v_k**-1:
            # spread the entry over the reflections its stabilizer reaches.
            spread = [ri]
            for rj in spread:
                for perm_k, act_k in fixing:
                    image = perm_k[rj]
                    if row[image] < 0:
                        row[image] = act_k[row[rj]]
                        spread.append(image)
        for t in orbits[s][1:]:
            k, u = source[t]
            act_k, join_u = act[k], join[u]
            join[t] = [act_k[join_u[c]] for c in refl_inv[k].tolist()]
    full_index = interned.get(np.ones(num_refl, dtype=bool).tobytes(), -1)
    if full_index < 0 or len(members[full_index]) != total:
        # Reflections of G(m,p,n) always generate it (the trivial group's
        # top is its trivial subgroup), so this is a table or closure bug.
        raise AssertionError("reflection subgroup lattice is missing the top")
    flags = np.array(refl_flags)
    sizes = np.array([len(member_array) for member_array in members])
    mobius = _mobius_to_top(flags, sizes, full_index)
    act_table = np.array(act, dtype=np.int32).reshape(len(act), len(members))
    return SubgroupTable(
        members, flags, join, mobius, trivial_index, full_index, act_table,
        list(orbits.values()),
    )


def _mobius_to_top(flags: np.ndarray, sizes: np.ndarray, top: int) -> list[int]:
    """mu(s, top) for every subgroup s, one subgroup order at a time.

    mu(top, top) = 1 and mu(s, top) = -sum of mu(k, top) over the subgroups
    k strictly above s.  Those all have larger order, so the subgroups of
    one order take their values together, from the largest order down, out
    of the subgroups of larger order with mu != 0.  ``flags[s]`` flags the
    reflections of s, and k lies above s when no reflection of s is outside
    k: one float32 product counts those reflections for every pair, exactly,
    since the counts are at most #R <= TABLE_GUARD < 2**24.
    """
    count = len(sizes)
    inside = flags.astype(np.float32)
    outside = 1 - inside
    mobius = np.zeros(count, dtype=np.int64)
    mobius[top] = 1
    above = [top]  # subgroups of the orders done so far with mu != 0
    for size in sorted(set(sizes.tolist()), reverse=True):
        batch = np.flatnonzero(sizes == size)
        batch = batch[batch != top]
        if not len(batch):
            continue
        # |mu| summed over ``above`` bounds every new value.
        if sum(map(abs, mobius[above].tolist())) >= 2**62:
            raise AssertionError("a Möbius value outgrew int64")
        contained = inside[batch] @ outside[above].T == 0
        mobius[batch] = -(contained.astype(np.int64) @ mobius[above])
        above.extend(batch[mobius[batch] != 0].tolist())
    return mobius.tolist()


def _equitable_classes(successors: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Class ids of the coarsest equitable partition that refines ``labels``.

    ``successors[i]`` holds the positions of member i times each reflection
    of a subgroup H, and ``labels`` numbers a first partition of H's
    members.  Each pass renumbers every member by its key: its class, then
    the sorted classes of its successors, ranked in lexicographic order by
    one ``np.lexsort``.  The class leads the key, so a pass only splits
    classes; once the count stops growing, the members of each class meet
    every class equally often among their successors.
    """
    ids = labels
    count = np.count_nonzero(np.bincount(labels))  # np.unique imports numpy.ma: 13 ms
    while True:
        keys = np.column_stack([ids, np.sort(ids[successors], axis=1)])
        order = np.lexsort(keys.T[::-1])
        ranked = keys[order]
        new = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
        ids = np.empty(len(keys), dtype=np.intp)
        ids[order] = np.cumsum(new) - 1
        if new.sum() == count:
            return ids
        count = new.sum()


def _class_walk(
    successors: np.ndarray, ids: np.ndarray, origin: int, n_max: int
) -> np.ndarray:
    """walk[N, c]: sequences of N reflections of H with product y in class c.

    The count is the same for every member y of class c.  ``successors[i]``
    holds the positions of member i times each reflection of a subgroup H,
    ``ids`` numbers a partition of the members into classes 0, 1, ... and
    ``origin`` is the identity's position.  A length-N product y ends in
    some t, with y * t**-1 the length-(N-1) product; the inverses run over
    H's reflections as t does.  So walk_H(y) depends only on the class of y
    as soon as the identity is alone in its class and the partition is
    equitable: every member of a class has the same multiset of classes
    among its successors y * t.  Both are checked with an explicit raise,
    so exactness rests on no property of how the classes were found.  Each
    step is then one gather-add per reflection over the classes.  Exact:
    object entries hold Python ints.
    """
    first = np.unique(ids, return_index=True)[1]
    start = ids[origin]
    if np.count_nonzero(ids == start) != 1:
        raise AssertionError("the identity shares its class in a class walk")
    classes = ids[successors]
    classes.sort(axis=1)
    if not np.array_equal(classes, classes[first][ids]):
        raise AssertionError("the classes of a class walk are not equitable")
    steps = classes[first].T.copy()
    walk = np.zeros((n_max + 1, len(first)), dtype=object)
    walk[0, start] = 1
    for length in range(1, n_max + 1):
        prev = walk[length - 1]
        row = walk[length]
        for step in steps:
            row += prev[step]
    return walk


@lru_cache(maxsize=_CACHE_GROUPS)
def sweep_counts(params: GroupParams, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(all_counts, full_counts): per length N <= n_max, per element index.

    ``all_counts[N][e]`` counts length-N reflection sequences with product
    e: the walk over W's classes, with no subgroup tracking, and exact by
    its own identity and equitability checks (``_class_walk``).
    ``full_counts[N][e]`` restricts to sequences whose factors generate the
    whole group, by Möbius inversion: the sum over subgroups H with
    mu(H, W) != 0 of mu(H, W) times the class walk inside H, summed one
    V-orbit at a time, W's own orbit of one included (see ``_orbit_sweep``).
    One sweep serves every element of the group: both arrays are per
    element.  Entries are Python ints.  Cached per (group, n_max);
    WALK_GUARD is checked before any table is built, and build_tables
    checks TABLE_GUARD.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    _check_guard(
        params, (n_max + 1) ** 2, WALK_GUARD,
        f"a walk of {params} to length {n_max} has size (n_max + 1)^2 * #R * #W",
    )
    return _orbit_sweep(*build_tables(params), n_max)


def _orbit_sweep(
    etable: ElementTable, stable: SubgroupTable, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """sweep_counts from the tables: one class walk per V-orbit with mu != 0.

    W is one more orbit, with mu = 1 and a single member.  Each walk runs
    over the classes of its subgroup H refined from H's V-class labels
    (``_equitable_classes``; ``_class_walk`` checks that they are a valid
    quotient).  Conjugating by v in V carries walk_H(y) to
    walk_{vHv^-1}(vyv^-1), so the orbit's total over O at g is a class
    function of g.  Summing it over g's V-class C and dividing by |C| gives
    sum_{H' in O} walk_{H'}(g) = (|O| / |C|) * sum_{y in H cap C} walk_H(y)
    for the representative H, and the inner sum is
    sum_K |K cap C| * walk_H(K) over the classes K of H.  The totals are
    kept per V-class and spread to the elements with one gather at the end.
    W's totals are the "all" counts.  A raise checks that W's refinement
    split no V-class, so that each of them is one class of W's own walk
    and the "all" counts rest on its checks, not on ``conj``.
    """
    mult, class_ids = etable.mult, etable.class_ids
    sizes = etable.class_sizes.astype(object)
    position = np.empty(mult.shape[0], dtype=np.intp)
    by_class = np.zeros((n_max + 1, len(sizes)), dtype=object)
    for orbit in stable.orbits:
        rep = orbit[0]
        mu = stable.mobius[rep]
        if not mu:
            continue
        members = stable.members[rep]
        position[members] = np.arange(len(members))
        successors = position[mult[np.ix_(members, np.flatnonzero(stable.flags[rep]))]]
        ids = _equitable_classes(successors, class_ids[members])
        walk = _class_walk(successors, ids, position[etable.identity_index], n_max)
        # (V-class, class of H) pairs, ordered by V-class, with |K cap C|.
        pairs, overlap = np.unique(
            class_ids[members] * walk.shape[1] + ids, return_counts=True
        )
        v_classes, h_classes = np.divmod(pairs, walk.shape[1])
        starts = np.flatnonzero(np.r_[True, v_classes[1:] != v_classes[:-1]])
        classes = v_classes[starts]
        weighted = walk[:, h_classes] * overlap.astype(object)
        total = np.add.reduceat(weighted, starts, axis=1) * len(orbit)
        class_size = sizes[classes]
        if any((total % class_size).flat):
            raise AssertionError(
                f"an orbit of {len(orbit)} subgroups of {etable.params} gives "
                "class sums that its class sizes do not divide"
            )
        per_class = total // class_size
        if rep == stable.full_index:
            if walk.shape[1] != len(sizes):
                raise AssertionError("the refinement split a V-class of the whole group")
            all_by_class = per_class
        by_class[:, classes] += mu * per_class
    return all_by_class[:, class_ids], by_class[:, class_ids]


def count_factorizations(
    params: GroupParams, g: Element, n_max: int, mode: str = "all"
) -> list[int]:
    """Exact counts [length 0 .. n_max] of reflection factorizations of g."""
    if mode not in ("all", "full"):
        raise ValueError(f"mode must be 'all' or 'full', got {mode!r}")
    validate_element(g, params)
    all_counts, full_counts = sweep_counts(params, n_max)
    target = build_tables(params)[0].rank(g)
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
    with those cycles.  TABLE_GUARD is checked first, as in build_tables.
    At n = 1 the one color must itself be 0 mod p, so only those m/p colors
    are listed: TABLE_GUARD bounds m/p there, but nothing bounds m.
    """
    _check_guard(params, 1, TABLE_GUARD, f"{params} has a table of #W * #R cells")
    palette = range(0, params.m, params.p) if params.n == 1 else range(params.m)
    keys = []
    for partition in integer_partitions(params.n):
        blocks = [
            [[(length, c) for c in colors]
             for colors in combinations_with_replacement(palette, count)]
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

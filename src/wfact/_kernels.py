"""Numpy kernels for the exhaustive-verification tables.

The elements of G(m,p,n) are indexed by rank, in the order of
``groups.all_elements``:

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
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

import numpy as np

from .groups import Element, GroupParams, Reflection

__all__ = ["build_mult_table", "subgroup_closure", "BACKEND"]

# The one implementation; the benchmark records it with the host details.
BACKEND = "python"


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

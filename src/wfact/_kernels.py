"""Numpy kernels for the exhaustive-verification tables.

* ``build_mult_table`` — full index-level multiplication table of a group
  whose elements are given as 0-based permutation image rows plus color rows,
  from the columns of a generating set;
* ``subgroup_closure`` — members of the subgroup generated by a set of
  element indices, grown coset by coset from a known subgroup of it
  (Dimino's algorithm; Butler, *Fundamental Algorithms for Permutation
  Groups*, LNCS 559).
"""

from __future__ import annotations

import numpy as np

__all__ = ["build_mult_table", "subgroup_closure", "BACKEND"]

# The one implementation; the benchmark records it with the host details.
BACKEND = "python"


def _keys(perms: np.ndarray, colors: np.ndarray, m: int) -> np.ndarray:
    """Injective int64 key per element row (mixed-radix over n digits)."""
    n = perms.shape[1]
    radix = np.int64(n * m)
    weights = radix ** np.arange(n, dtype=np.int64)
    return ((perms.astype(np.int64) * m + colors.astype(np.int64)) * weights).sum(axis=1)


def build_mult_table(perms: np.ndarray, colors: np.ndarray, m: int, gens) -> np.ndarray:
    """mult[i, j] = index of element_i * element_j.

    ``perms``: int32 (W, n), 0-based image tables; ``colors``: int32 (W, n)
    in [0, m).  The product convention is perm_out[t] = x.perm[y.perm[t]],
    colors_out[t] = x.colors[y.perm[t]] + y.colors[t] mod m.  ``gens``
    indexes a generating set: only their columns are computed (and checked)
    from the element rows.  Every other column follows by associativity,
    column(x * g) = column(g)[column(x)], in breadth-first order from them.
    The table is column-major, so each column is contiguous.
    """
    perms = np.ascontiguousarray(perms, dtype=np.int32)
    colors = np.ascontiguousarray(colors, dtype=np.int32)
    count = perms.shape[0]
    keys = _keys(perms, colors, m)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    cols = np.empty((count, count), dtype=np.int32)  # cols[j] = mult[:, j]
    reached = np.zeros(count, dtype=bool)
    gen_list = sorted({int(g) for g in gens})
    for j in gen_list:
        yp = perms[j]
        out_perms = perms[:, yp]
        out_colors = (colors[:, yp] + colors[j][np.newaxis, :]) % m
        out_keys = _keys(out_perms, out_colors, m)
        pos = np.searchsorted(sorted_keys, out_keys)
        if not np.array_equal(sorted_keys[pos], out_keys):
            raise AssertionError("product fell outside the element set")
        cols[j] = order[pos]
        reached[j] = True
    gen_cols = [cols[g] for g in gen_list]  # rows that are never rewritten
    queue = list(gen_list)
    for x in queue:
        for col in gen_cols:
            y = int(col[x])
            if not reached[y]:
                cols[y] = col[cols[x]]
                reached[y] = True
                queue.append(y)
    if len(queue) != count:
        raise AssertionError("the generators do not generate the element set")
    return cols.T


def subgroup_closure(mult: np.ndarray, members, gens) -> np.ndarray:
    """Sorted member indices of the subgroup K generated by ``gens``.

    ``members`` lists the indices of a subgroup H of K (the identity alone
    will do).  K is the union of the right cosets H*y reachable from H by
    right multiplication with ``gens``; each new coset is one column gather
    ``mult[H, y]``, so the loop runs [K:H] * len(gens) times.
    """
    base = np.asarray(members, dtype=np.intp)
    member = np.zeros(mult.shape[0], dtype=bool)
    member[base] = True
    gen_list = sorted({int(g) for g in gens})
    reps = [int(base[0])]
    for rep in reps:
        row = mult[rep]
        for g in gen_list:
            y = int(row[g])
            if not member[y]:
                member[mult[base, y]] = True
                reps.append(y)
    return np.flatnonzero(member).astype(np.int32)

"""Numpy kernels for the exhaustive-verification tables.

* ``build_mult_table`` — the reflection columns of a group's multiplication
  table, mult[i, r] = index of element_i * reflection_r, for a group whose
  elements are given as 0-based permutation image rows plus color rows;
* ``build_conjugation_table`` — the action of a normalizing group by
  conjugation, conj[k, i] = index of v_k * element_i * v_k**-1 for each
  given v_k, which need not lie in the group;
* ``subgroup_closure`` — members of the subgroup generated by a set of
  reflection columns, grown coset by coset from a known subgroup of it
  (Dimino's algorithm; Butler, *Fundamental Algorithms for Permutation
  Groups*, LNCS 559).

Every walk and closure multiplies by a reflection on the right, so the
#W x #R columns are the whole table.
"""

from __future__ import annotations

import numpy as np

__all__ = ["build_mult_table", "build_conjugation_table", "subgroup_closure", "BACKEND"]

# The one implementation; the benchmark records it with the host details.
BACKEND = "python"


def _keys(perms: np.ndarray, colors: np.ndarray, m: int) -> np.ndarray:
    """Injective int64 key per element row (mixed-radix over n digits)."""
    n = perms.shape[1]
    radix = np.int64(n * m)
    weights = radix ** np.arange(n, dtype=np.int64)
    return ((perms.astype(np.int64) * m + colors.astype(np.int64)) * weights).sum(axis=1)


def _key_index(perms: np.ndarray, colors: np.ndarray, m: int):
    """(sorted keys, element index of each) for looking element rows up."""
    keys = _keys(perms, colors, m)
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def _locate(key_index, out_keys: np.ndarray, what: str) -> np.ndarray:
    """Element indices of the rows with keys ``out_keys``; raises if any is absent."""
    sorted_keys, order = key_index
    pos = np.minimum(np.searchsorted(sorted_keys, out_keys), len(sorted_keys) - 1)
    if not np.array_equal(sorted_keys[pos], out_keys):
        raise AssertionError(f"{what} fell outside the element set")
    return order[pos]


def build_mult_table(perms: np.ndarray, colors: np.ndarray, m: int, gens) -> np.ndarray:
    """int32 (W, len(gens)): mult[i, r] = index of element_i * element_{gens[r]}.

    ``perms``: int32 (W, n), 0-based image tables; ``colors``: int32 (W, n)
    in [0, m).  The product convention is perm_out[t] = x.perm[y.perm[t]],
    colors_out[t] = x.colors[y.perm[t]] + y.colors[t] mod m.  ``gens``
    indexes the reflections; each column is computed from the element rows
    and checked against their keys.  The table is column-major, so each
    column is contiguous.
    """
    perms = np.ascontiguousarray(perms, dtype=np.int32)
    colors = np.ascontiguousarray(colors, dtype=np.int32)
    key_index = _key_index(perms, colors, m)
    cols = np.empty((len(gens), perms.shape[0]), dtype=np.int32)  # cols[r] = mult[:, r]
    for r, j in enumerate(gens):
        yp = perms[j]
        out_keys = _keys(perms[:, yp], (colors[:, yp] + colors[j]) % m, m)
        cols[r] = _locate(key_index, out_keys, "product")
    return cols.T


def build_conjugation_table(
    perms: np.ndarray, colors: np.ndarray, m: int, actors
) -> np.ndarray:
    """int32 (len(actors), W): conj[k, i] = index of v_k * element_i * v_k**-1.

    ``perms`` and ``colors`` are the element rows as for build_mult_table;
    each actor v_k is a (0-based perm, colors) pair of any element of
    G(m,1,n), which need not lie in the group.  Raises unless every
    conjugate is an element of the group, so a row of the table is a
    permutation of the element indices.
    """
    perms = np.ascontiguousarray(perms, dtype=np.int32)
    colors = np.ascontiguousarray(colors, dtype=np.int32)
    key_index = _key_index(perms, colors, m)
    conj = np.empty((len(actors), perms.shape[0]), dtype=np.int32)
    for k, (vp, vc) in enumerate(actors):
        vp = np.asarray(vp, dtype=np.int32)
        vc = np.asarray(vc, dtype=np.int32)
        ip = np.argsort(vp).astype(np.int32)  # v**-1 = [vp**-1; -vc o vp**-1]
        ic = -vc[ip]
        # v * e, then (v * e) * v**-1, by the product convention above
        ve_perms, ve_colors = vp[perms], vc[perms] + colors
        out_perms = ve_perms[:, ip]
        out_colors = (ve_colors[:, ip] + ic) % m
        conj[k] = _locate(key_index, _keys(out_perms, out_colors, m), "conjugate")
    return conj


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

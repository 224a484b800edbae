"""Integer partitions and the irreducible characters of S_n.

Integer partitions index both the irreducible characters of S_n (evaluated
here by the Murnaghan-Nakayama rule, with dimensions by the hook length
formula) and cycle types.  ``normalize_partition`` is the one place a
caller's sequence of parts becomes a canonical, weakly decreasing partition.
"""

from __future__ import annotations

from functools import cache
from math import factorial

__all__ = [
    "Partition",
    "normalize_partition",
    "integer_partitions",
    "hook_dimension",
    "content_sum",
    "mn_character",
]

Partition = tuple[int, ...]


def normalize_partition(parts) -> Partition:
    """The parts as ints in weakly decreasing order; ValueError unless all positive."""
    out = tuple(sorted((int(x) for x in parts), reverse=True))
    if any(x < 1 for x in out):
        raise ValueError(f"partition parts must be positive: {parts}")
    return out


@cache
def integer_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, each weakly decreasing, in lexicographic order."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if n == 0:
        return ((),)
    out: list[Partition] = []

    def extend(remaining: int, largest: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, largest), 0, -1):
            acc.append(part)
            extend(remaining - part, part, acc)
            acc.pop()

    extend(n, n, [])
    return tuple(out)


def hook_dimension(parts) -> int:
    """Number of standard Young tableaux of this shape: n! / product of hooks."""
    shape = normalize_partition(parts)
    n = sum(shape)
    if n == 0:
        return 1
    conj = [0] * shape[0]
    for row_len in shape:
        for j in range(row_len):
            conj[j] += 1
    hooks = 1
    for i, row_len in enumerate(shape):
        for j in range(row_len):
            hooks *= (row_len - j) + (conj[j] - i) - 1
    dim, rem = divmod(factorial(n), hooks)
    if rem:
        raise AssertionError(f"hook product {hooks} does not divide {n}! for {shape}")
    return dim


def content_sum(parts) -> int:
    """Sum of cell contents (column - row) over the diagram."""
    shape = normalize_partition(parts)
    total = 0
    for i, row_len in enumerate(shape):
        for j in range(row_len):
            total += j - i
    return total


@cache
def _mn(shape: Partition, cycles: Partition) -> int:
    if not cycles:
        return 1 if not shape else 0
    # Beta-set encoding: first-column hook lengths; removing a border strip
    # of size t is moving some beta element down by t into an unoccupied slot.
    ell = len(shape)
    beta = [shape[i] + ell - 1 - i for i in range(ell)]
    beta_set = set(beta)
    t = cycles[0]
    rest = cycles[1:]
    total = 0
    for b in beta:
        target = b - t
        if target < 0 or target in beta_set:
            continue
        crossed = sum(1 for x in beta if target < x < b)
        new_beta = sorted(beta_set - {b} | {target}, reverse=True)
        # Convert back to a partition, dropping zero parts.
        new_len = len(new_beta)
        new_shape = tuple(
            v
            for i, x in enumerate(new_beta)
            if (v := x - (new_len - 1 - i)) > 0
        )
        total += (-1) ** crossed * _mn(new_shape, rest)
    return total


def mn_character(shape, cycles) -> int:
    """Irreducible S_n character indexed by ``shape`` at cycle type ``cycles``."""
    s = normalize_partition(shape)
    c = normalize_partition(cycles)
    if sum(s) != sum(c):
        raise ValueError(f"partition sizes differ: |{s}| != |{c}|")
    return _mn(s, c)

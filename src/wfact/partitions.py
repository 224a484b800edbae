"""Integer partitions, symmetric-group characters, and set partitions.

Integer partitions index both the irreducible characters of S_n (evaluated
here by the Murnaghan-Nakayama rule) and cycle types.  Set partitions of
{1..n} model the lattice of transitive-support decompositions used when
splitting factorization series into independent blocks.
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .errors import CapabilityError

__all__ = [
    "integer_partitions",
    "hook_dimension",
    "content_sum",
    "mn_character",
    "cycle_type",
    "set_partitions",
    "refines",
    "restrict_perm",
    "BELL_GUARD",
]

BELL_GUARD = 10

Partition = tuple[int, ...]
SetPartition = tuple[tuple[int, ...], ...]


def _normalize(parts) -> Partition:
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
    shape = _normalize(parts)
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
    shape = _normalize(parts)
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
    s = _normalize(shape)
    c = _normalize(cycles)
    if sum(s) != sum(c):
        raise ValueError(f"partition sizes differ: |{s}| != |{c}|")
    return _mn(s, c)


def cycle_type(perm: tuple[int, ...]) -> Partition:
    """Cycle type of a permutation given as a 1-based image table."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {perm}")
    seen = [False] * n
    parts = []
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        length = 0
        i = start
        while not seen[i - 1]:
            seen[i - 1] = True
            i = perm[i - 1]
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


@cache
def set_partitions(n: int) -> tuple[SetPartition, ...]:
    """All set partitions of {1..n}; blocks sorted, ordered by minimum."""
    if n < 0:
        raise ValueError("set_partitions needs n >= 0")
    if n > BELL_GUARD:
        raise CapabilityError(
            f"set_partitions is guarded at n <= {BELL_GUARD} (Bell numbers grow "
            f"super-exponentially); got n = {n}"
        )
    if n == 0:
        return ((),)
    out: list[SetPartition] = []
    blocks: list[list[int]] = []

    def place(element: int) -> None:
        if element > n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(element)
            place(element + 1)
            b.pop()
        blocks.append([element])
        place(element + 1)
        blocks.pop()

    place(1)
    return tuple(out)


def refines(finer: SetPartition, coarser: SetPartition) -> bool:
    """True if every block of ``finer`` is contained in a block of ``coarser``."""
    containing: dict[int, tuple[int, ...]] = {}
    for block in coarser:
        for x in block:
            containing[x] = block
    for block in finer:
        target = containing.get(block[0])
        if target is None or any(x not in target for x in block[1:]):
            return False
    return True


def restrict_perm(perm: tuple[int, ...], block) -> tuple[int, ...]:
    """Relabel the action of ``perm`` on a stabilized block to 1..|block|.

    ``perm`` is a 1-based image table; ``block`` must be mapped to itself,
    otherwise ValueError.
    """
    members = sorted(set(block))
    index = {v: i + 1 for i, v in enumerate(members)}
    out = []
    for v in members:
        image = perm[v - 1]
        if image not in index:
            raise ValueError(f"permutation does not stabilize block {members}")
        out.append(index[image])
    return tuple(out)

"""Factorization series for the symmetric group S_n.

Three routes live here:

* ``frobenius_series_sn`` — all transposition factorizations of a fixed
  cycle type, from the character sum (1/n!) * Sum_shapes dim * character *
  X**content_sum; the content sum is exactly the normalized character of the
  transposition class sum.
* ``full_series_sn`` — factorizations whose factors generate all of S_n
  (equivalently act transitively), by the rooted exponential formula
  (Stanley, EC2 §5.1): every factorization splits its cycles into orbits,
  so fixing the orbit S of the first cycle gives
  A(lambda) = Sum_{S containing c_1} F(lambda_S) * A(lambda_{S^c}), and the
  term S = all cycles is the full series F(lambda) itself.
* ``dyz_identity_series`` — an independent convolution recurrence for the
  identity's full series, used as a cross-check of the first two routes.

Both cycle-type routes are guarded at n <= ``FULL_GUARD``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial, prod

from .errors import CapabilityError
from .groups import Element, GroupParams, cycle_data
from .laurent import LaurentPoly
from .partitions import (
    Partition,
    _mn,
    content_sum,
    hook_dimension,
    integer_partitions,
    normalize_partition,
)

__all__ = [
    "frobenius_series_sn",
    "full_series_sn",
    "full_series_sn_type",
    "dyz_identity_series",
    "FULL_GUARD",
]

FULL_GUARD = 14


def _guard(n: int, what: str) -> None:
    if not 1 <= n <= FULL_GUARD:
        raise CapabilityError(f"{what} is guarded at 1 <= n <= {FULL_GUARD}; got n = {n}")


@cache
def _shape_data(n: int) -> tuple[tuple[Partition, int, int], ...]:
    """(shape, dimension, content sum) of every partition of n; n <= FULL_GUARD."""
    return tuple(
        (shape, hook_dimension(shape), content_sum(shape)) for shape in integer_partitions(n)
    )


@cache
def _frobenius(parts: Partition) -> LaurentPoly:
    # parts is normal, as every shape of _shape_data is, so _mn reads them as they are.
    n = sum(parts)
    by_content: dict[int, int] = {}
    for shape, dim, degree in _shape_data(n):
        value = dim * _mn(shape, parts)
        if value:
            by_content[degree] = by_content.get(degree, 0) + value
    lo = min(by_content)
    numers = [by_content.get(d, 0) for d in range(lo, max(by_content) + 1)]
    return LaurentPoly._from_ints(lo, numers, factorial(n))


def frobenius_series_sn(n: int, mu) -> LaurentPoly:
    """Series counting all length-N transposition factorizations by cycle type.

    The count of sequences (t_1, ..., t_N) of transpositions whose product is
    a fixed permutation of cycle type ``mu`` is the coefficient of z**N/N!.
    """
    _guard(n, "frobenius_series_sn")
    parts = normalize_partition(mu)
    if sum(parts) != n:
        raise ValueError(f"{mu} is not a cycle type of size {n}")
    return _frobenius(parts)


@cache
def _full_type(parts: Partition) -> LaurentPoly:
    # Subtract from A(lambda) every term of the rooted exponential formula
    # whose orbit S of the first cycle is not all cycles.  The other members
    # of S form a sub-multiset of the remaining cycles; ``mult`` counts the
    # subsets of cycles that give it.
    total = _frobenius(parts)
    rest = Counter(parts[1:])
    values = sorted(rest, reverse=True)
    counts = [rest[v] for v in values]
    for taken in product(*(range(c + 1) for c in counts)):
        if list(taken) == counts:
            continue
        orbit = parts[:1] + tuple(v for v, t in zip(values, taken) for _ in range(t))
        others = tuple(v for v, c, t in zip(values, counts, taken) for _ in range(c - t))
        mult = prod(map(comb, counts, taken))
        total = total - (_full_type(orbit) * _frobenius(others)).scale(mult)
    return total


def full_series_sn_type(mu) -> LaurentPoly:
    """Full-factorization series for any permutation of cycle type ``mu``."""
    parts = normalize_partition(mu)
    _guard(sum(parts), "full series")
    return _full_type(parts)


def full_series_sn(n: int, perm: tuple[int, ...]) -> LaurentPoly:
    """Full-factorization series of a permutation (1-based image table)."""
    if len(perm) != n:
        raise ValueError(f"permutation length {len(perm)} != n = {n}")
    g = Element(tuple(perm), (0,) * n)
    return full_series_sn_type(cycle_data(g, GroupParams(1, 1, n)).partition)


@cache
def dyz_identity_series(n: int) -> LaurentPoly:
    """Full series of the identity through the convolution recurrence.

    Seeded with the trivial series at n = 1; for n >= 2,
    n^2 (n-1) F_n = Sum_{k=1}^{n-1} k (n-k)^2 C(n,k) (X^k - 2 + X^-k) F_k F_{n-k}.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return LaurentPoly.one()
    acc = LaurentPoly.zero()
    for k in range(1, n):
        kernel = (
            LaurentPoly.monomial(k)
            + LaurentPoly.monomial(0, -2)
            + LaurentPoly.monomial(-k)
        )
        term = kernel * dyz_identity_series(k) * dyz_identity_series(n - k)
        acc = acc + term.scale(k * (n - k) ** 2 * comb(n, k))
    return acc.scale(Fraction(1, n * n * (n - 1)))

"""Factorization series for cyclic groups Z/N (the rank-1 case G(m,p,1)).

A cyclic group of order N, viewed as a rank-1 reflection group, has the N-1
non-identity elements as its reflections.  Series depend only on the group
order N and the order o of the target element.  The trivial group N = 1 has
an empty reflection set: its only factorization is the empty one, and it is
vacuously full.
"""

from __future__ import annotations

from math import gcd

from .laurent import LaurentPoly
from .numtheory import divisors, moebius

__all__ = ["cyclic_all_series", "cyclic_full_series", "cyclic_element_order"]


def _check_orders(group_order: int, element_order: int) -> None:
    if group_order < 1:
        raise ValueError(f"group order must be positive, got {group_order}")
    if element_order < 1 or group_order % element_order != 0:
        raise ValueError(
            f"element order {element_order} does not divide group order {group_order}"
        )


def cyclic_all_series(group_order: int, element_order: int) -> LaurentPoly:
    """All factorizations into non-identity elements of Z/N.

    (X**N + (N-1))/(N X) for the identity, (X**N - 1)/(N X) otherwise; the
    trivial group gives 1.
    """
    _check_orders(group_order, element_order)
    n = group_order
    if n == 1:
        return LaurentPoly.one()
    constant = n - 1 if element_order == 1 else -1
    return LaurentPoly(-1, [constant] + [0] * (n - 1) + [1], n)


def cyclic_full_series(group_order: int, element_order: int) -> LaurentPoly:
    """Factorizations of Z/N into non-identity elements that generate Z/N.

    ((X-1)/X) * Sum over r | N with o | r of moebius(N/r) * (1+X+...+X^(r-1))/r,
    that is Sum of moebius(N/r) (X^r - 1)/(r X), added up over the common
    denominator N; the trivial group gives 1.
    """
    _check_orders(group_order, element_order)
    n = group_order
    if n == 1:
        return LaurentPoly.one()
    out = [0] * (n + 1)  # numerators of X^-1, ..., X^(n-1) over n
    for r in divisors(n):
        if r % element_order == 0 and (mu := moebius(n // r)):
            out[r] += mu * (n // r)
            out[0] -= mu * (n // r)
    return LaurentPoly._from_ints(-1, out, n)


def cyclic_element_order(m: int, p: int, wt: int) -> int:
    """Order of the color-wt element of the cyclic quotient p*Z/m*Z.

    The element is the m-th root of unity with exponent wt; its order is
    m/gcd(wt, m) (so wt = 0 gives order 1).  Requires p | m and p | wt —
    otherwise the claimed element is not in the group.
    """
    if m < 1 or p < 1 or m % p != 0:
        raise ValueError(f"need p | m with both positive: m={m}, p={p}")
    if wt % p != 0:
        raise ValueError(f"weight {wt} is not a multiple of p={p}: element not in group")
    return m // gcd(wt, m)

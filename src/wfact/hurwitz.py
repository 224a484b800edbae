"""Classical Hurwitz numbers in genus 0 and 1.

H_0(lambda) counts the transitive transposition factorizations of a
permutation of cycle type lambda at the minimum possible length n + k - 2;
H_1(lambda) counts them at length n + k (the next layer up, since lengths
step by 2).  Both closed forms involve fractional intermediates (powers
n**(k-3)), so each value is computed as one integer numerator and
denominator and checked integral by one divmod — a transcription slip shows
up as a loud failure, not a silently wrong integer.  ``h0_ratio`` and
``h1_ratio`` give the pair itself, for callers that fold it into a larger
exact quotient.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .partitions import normalize_partition

__all__ = ["hurwitz_h0", "hurwitz_h1", "h0_ratio", "h1_ratio"]


def _shape(parts) -> tuple[int, ...]:
    out = normalize_partition(parts)
    if not out:
        raise ValueError(f"need a nonempty partition: {parts}")
    return out


def _weight_terms(parts: tuple[int, ...]) -> tuple[int, int]:
    """prod part**part and prod (part-1)! over the parts."""
    top = bottom = 1
    for part in parts:
        top *= part**part
        bottom *= factorial(part - 1)
    return top, bottom


def _as_integer(ratio: tuple[int, int], label: str) -> Fraction:
    """numerator // denominator, raising unless it divides (also under python -O)."""
    value, rest = divmod(*ratio)
    if rest:
        raise AssertionError(f"{label} came out non-integral: {Fraction(*ratio)}")
    return Fraction(value)


def h0_ratio(shape: tuple[int, ...]) -> tuple[int, int]:
    """H_0(shape) as an unreduced (numerator, denominator) pair of ints.

    shape is a nonempty sequence of positive parts, in any order.
    """
    n = sum(shape)
    k = len(shape)
    top, bottom = _weight_terms(shape)
    top *= factorial(n + k - 2)
    if k >= 3:
        return top * n ** (k - 3), bottom
    return top, bottom * n ** (3 - k)


def h1_ratio(shape: tuple[int, ...]) -> tuple[int, int]:
    """H_1(shape) as an unreduced (numerator, denominator) pair of ints.

    shape is a nonempty sequence of positive parts, in any order.
    """
    n = sum(shape)
    k = len(shape)
    # e[i] = elementary symmetric polynomial of degree i in the parts.
    e = [0] * (k + 1)
    e[0] = 1
    for part in shape:
        for i in range(k, 0, -1):
            e[i] += e[i - 1] * part
    # k >= 1, so every power of n here is a whole number.
    bracket = n**k - n ** (k - 1)
    for i in range(2, k + 1):
        bracket -= factorial(i - 2) * e[i] * n ** (k - i)
    top, bottom = _weight_terms(shape)
    return factorial(n + k) * top * bracket, 24 * bottom


def hurwitz_h0(parts) -> Fraction:
    """Genus-0 Hurwitz number: (n+k-2)! * n**(k-3) * prod part**part/(part-1)!."""
    shape = _shape(parts)
    return _as_integer(h0_ratio(shape), f"H_0({shape})")


def hurwitz_h1(parts) -> Fraction:
    """Genus-1 Hurwitz number.

    (1/24) (n+k)! * prod(part**part/(part-1)!) *
    (n**k - n**(k-1) - Sum_{i=2}^{k} (i-2)! e_i(lambda) n**(k-i)),
    with e_i the elementary symmetric polynomials of the parts.
    """
    shape = _shape(parts)
    return _as_integer(h1_ratio(shape), f"H_1({shape})")

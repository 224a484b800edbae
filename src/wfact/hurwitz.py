"""Classical Hurwitz numbers in genus 0 and 1.

H_0(lambda) counts the transitive transposition factorizations of a
permutation of cycle type lambda at the minimum possible length n + k - 2;
H_1(lambda) counts them at length n + k (the next layer up, since lengths
step by 2).  Both closed forms involve fractional intermediates (powers
n**(k-3)), so values are computed as exact rationals and checked integral
at the boundary — a transcription slip shows up as a loud failure, not a
silently wrong integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .partitions import normalize_partition

__all__ = ["hurwitz_h0", "hurwitz_h1"]


def _shape(parts) -> tuple[int, ...]:
    out = normalize_partition(parts)
    if not out:
        raise ValueError(f"need a nonempty partition: {parts}")
    return out


def _weight_product(parts: tuple[int, ...]) -> Fraction:
    """Product of part**part / (part-1)! over the parts."""
    acc = Fraction(1)
    for part in parts:
        acc *= Fraction(part**part, factorial(part - 1))
    return acc


def _as_integer(value: Fraction, label: str) -> Fraction:
    if value.denominator != 1:
        raise AssertionError(f"{label} came out non-integral: {value}")
    return value


def hurwitz_h0(parts) -> Fraction:
    """Genus-0 Hurwitz number: (n+k-2)! * n**(k-3) * prod part**part/(part-1)!."""
    shape = _shape(parts)
    n = sum(shape)
    k = len(shape)
    value = (
        Fraction(factorial(n + k - 2))
        * Fraction(n) ** (k - 3)
        * _weight_product(shape)
    )
    return _as_integer(value, f"H_0({shape})")


def hurwitz_h1(parts) -> Fraction:
    """Genus-1 Hurwitz number.

    (1/24) (n+k)! * prod(part**part/(part-1)!) *
    (n**k - n**(k-1) - Sum_{i=2}^{k} (i-2)! e_i(lambda) n**(k-i)),
    with e_i the elementary symmetric polynomials of the parts.
    """
    shape = _shape(parts)
    n = sum(shape)
    k = len(shape)
    # e[i] = elementary symmetric polynomial of degree i in the parts.
    e = [0] * (k + 1)
    e[0] = 1
    for part in shape:
        for i in range(k, 0, -1):
            e[i] += e[i - 1] * part
    bracket = Fraction(n) ** k - Fraction(n) ** (k - 1)
    for i in range(2, k + 1):
        bracket -= factorial(i - 2) * e[i] * Fraction(n) ** (k - i)
    value = Fraction(factorial(n + k), 24) * _weight_product(shape) * bracket
    return _as_integer(value, f"H_1({shape})")

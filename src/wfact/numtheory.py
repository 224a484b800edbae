"""Small number theory helpers: divisors, Möbius, totients.

All functions operate on positive integers and use plain trial division —
the arguments that arise here (group parameters, color orders) are tiny.
"""

from __future__ import annotations

from math import gcd, isqrt

__all__ = ["divisors", "moebius", "euler_phi", "jordan_j2", "gcd_all"]


def _check_positive(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise ValueError(f"expected a positive integer, got {n!r}")


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n`` in increasing order."""
    _check_positive(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def _factorization(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of ``n`` as ((prime, exponent), ...)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def moebius(n: int) -> int:
    """Möbius function: 0 if ``n`` has a squared prime factor, else (-1)^#primes."""
    _check_positive(n)
    fac = _factorization(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int) -> int:
    """Euler totient: count of 1 <= k <= n with gcd(k, n) = 1."""
    _check_positive(n)
    out = n
    for p, _ in _factorization(n):
        out -= out // p
    return out


def jordan_j2(n: int) -> int:
    """Second Jordan totient: sum over d | n of moebius(n/d) * d**2.

    Multiplicatively, n**2 * product over primes p | n of (1 - 1/p**2).
    """
    _check_positive(n)
    out = n * n
    for p, _ in _factorization(n):
        out = out // (p * p) * (p * p - 1)
    return out


def gcd_all(values, modulus: int) -> int:
    """gcd of ``modulus`` and every entry of ``values``.

    With no values (or all zero) this returns ``modulus`` — the convention
    gcd(0, m) = m, so e.g. the color data of the identity yields the full modulus.
    """
    _check_positive(modulus)
    g = modulus
    for v in values:
        g = gcd(g, v)
    return g

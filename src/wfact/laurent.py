"""Exact Laurent polynomials in X = e^z and the bridge to length-count sequences.

A factorization-count series Sum_N count(N) z^N/N! that happens to be a finite
Laurent polynomial in X = e^z is stored here exactly, as integer numerators
over one common denominator: #W times a full-factorization series even has
integer coefficients, so every ring operation runs on Python ints.  The
construction rule: the public constructor validates (int or Fraction
coefficients, a nonzero integer denominator) and canonicalises; internal ring
operations, whose inputs are ints by construction, skip the validation and
canonicalise their result once through ``LaurentPoly._from_ints``.  A sum of
many terms is added up on integer numerators over one denominator and
canonicalised once, not term by term; a result that is canonical by
construction (the quotient by X - 1 of a canonical polynomial, by Gauss's
lemma) is stored as it is by ``LaurentPoly._from_canonical``.
``egf_prefix`` expands back to counts; ``laurent_from_egf`` reconstructs the
Laurent form from enough counts by exact Lagrange inversion on the integer
nodes of the degree window, in integer arithmetic, and checks every surplus
count exactly.  The window's integer Lagrange basis is built once and kept
(a bounded cache, emptied by ``wfact.oracle.clear_caches``), so a call is
one dot product per node over the nonzero counts.  ``extract_phi`` peels
off the structural factors (1/order) * (X-1)^ell * X^(-hyperplanes) around
the palindromic-ish core polynomial.  The core's complex roots are found
by ``wfact.roots``, the package's one inexact step, which feeds plots only;
``find_roots`` and ``RootFindingError`` stay bound here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, compress
from operator import mul
from typing import Iterable, Iterator, Sequence

from .roots import RootFindingError, find_roots  # noqa: F401  (kept bound here)

__all__ = ["LaurentPoly", "laurent_from_egf", "lowest_order", "extract_phi"]


_ZERO = Fraction(0)


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected an integer or Fraction coefficient, got {type(v).__name__}")


def _over_common_denominator(values: Iterable) -> tuple[list[int], int]:
    """(numers, d) with values[i] == numers[i] / d; TypeError unless int or Fraction."""
    vals = list(values)
    if all(type(v) is int for v in vals):
        return vals, 1
    fracs = [_as_fraction(v) for v in vals]
    d = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (d // f.denominator) for f in fracs], d


def _set_canonical(poly, min_deg: int, numers: Sequence[int], denom: int) -> None:
    """Store numers / denom (denom > 0) on ``poly`` in canonical form.

    Trims zero ends and divides out gcd(numers, denom); zero becomes (0, (), 1).
    """
    lo, hi = 0, len(numers)
    while lo < hi and not numers[lo]:
        lo += 1
    while hi > lo and not numers[hi - 1]:
        hi -= 1
    if lo == hi:
        min_deg, kept, denom = 0, (), 1
    else:
        g = math.gcd(denom, *numers[lo:hi]) if denom != 1 else 1
        if g == 1:
            kept = tuple(numers[lo:hi])
        else:
            kept, denom = tuple(n // g for n in numers[lo:hi]), denom // g
        min_deg += lo
    # The dataclass is frozen; its fields live in the instance __dict__.
    poly.__dict__.update(min_deg=min_deg, numers=kept, denom=denom)


def _int_horner(ics: Sequence[int], A: int, B: int, D: int) -> tuple[int, int]:
    """p((A + B*i) / D) * D**deg for integer coefficients, as (re, im)."""
    acc_re, acc_im = ics[-1], 0
    scale = 1
    for c in reversed(ics[:-1]):
        scale *= D
        acc_re, acc_im = acc_re * A - acc_im * B + c * scale, acc_re * B + acc_im * A
    return acc_re, acc_im


@dataclass(frozen=True)
class LaurentPoly:
    """Immutable Laurent polynomial: integer numerators over one denominator.

    The coefficient of X**(min_deg + i) is ``numers[i] / denom``.  The form
    is canonical, so equality and hashing of the fields are equality of
    value: both end numerators are nonzero, ``denom > 0`` and
    gcd(numers, denom) = 1; the zero polynomial is ``(0, (), 1)``.
    ``LaurentPoly(min_deg, coeffs, denom=1)`` takes int or Fraction
    coefficients (each divided by ``denom``) and rejects floats.
    """

    min_deg: int
    numers: tuple[int, ...]
    denom: int

    # -- construction ------------------------------------------------------

    def __init__(self, min_deg: int, coeffs: Iterable, denom: int = 1) -> None:
        if not isinstance(denom, int):
            raise TypeError(f"expected an integer denominator, got {type(denom).__name__}")
        if denom == 0:
            raise ZeroDivisionError("LaurentPoly with denominator 0")
        numers, d = _over_common_denominator(coeffs)
        if denom < 0:
            numers, denom = [-n for n in numers], -denom
        _set_canonical(self, min_deg, numers, denom * d)

    @classmethod
    def _from_ints(cls, min_deg: int, numers: Sequence[int], denom: int) -> "LaurentPoly":
        """numers / denom at min_deg, canonicalised; ints only and denom > 0, unchecked.

        The constructor for results whose inputs are ints by construction:
        it skips the constructor's validation and per-coefficient type scan.
        """
        poly = object.__new__(cls)
        _set_canonical(poly, min_deg, numers, denom)
        return poly

    @classmethod
    def _from_canonical(cls, min_deg: int, numers: tuple[int, ...], denom: int) -> "LaurentPoly":
        """numers / denom at min_deg, stored as is: the caller knows the form is canonical."""
        poly = object.__new__(cls)
        poly.__dict__.update(min_deg=min_deg, numers=numers, denom=denom)
        return poly

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._from_ints(0, (), 1)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._from_ints(0, (1,), 1)

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "LaurentPoly":
        return cls(degree, (coeff,))

    # -- basic queries -----------------------------------------------------

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """``coeffs[i]`` is the coefficient of X**(min_deg + i), as a Fraction.

        Built on first use and kept; the zero coefficients (often most of
        them, e.g. after ``substitute_power``) share one ``Fraction``.
        """
        d = self.denom
        return tuple(Fraction(n, d) if n else _ZERO for n in self.numers)

    def is_zero(self) -> bool:
        return not self.numers

    @property
    def max_deg(self) -> int:
        """Degree of the highest nonzero term (0 for the zero polynomial)."""
        if not self.numers:
            return 0
        return self.min_deg + len(self.numers) - 1

    def coefficient(self, degree: int) -> Fraction:
        i = degree - self.min_deg
        if 0 <= i < len(self.numers):
            return Fraction(self.numers[i], self.denom)
        return _ZERO

    def is_palindromic(self) -> bool:
        """True if the coefficient sequence reads the same in both directions."""
        return self.numers == self.numers[::-1]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        d = math.lcm(self.denom, other.denom)
        lo = min(self.min_deg, other.min_deg)
        out = [0] * (max(self.max_deg, other.max_deg) - lo + 1)
        for poly in (self, other):
            f = d // poly.denom
            for i, c in enumerate(poly.numers, poly.min_deg - lo):
                out[i] += c * f
        return LaurentPoly._from_ints(lo, out, d)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._from_ints(self.min_deg, [-c for c in self.numers], self.denom)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPoly.zero()
        out = [0] * (len(self.numers) + len(other.numers) - 1)
        for i, a in enumerate(self.numers):
            if a:
                for j, b in enumerate(other.numers, i):
                    out[j] += a * b
        return LaurentPoly._from_ints(
            self.min_deg + other.min_deg, out, self.denom * other.denom
        )

    __rmul__ = __mul__

    def scale(self, factor) -> "LaurentPoly":
        f = _as_fraction(factor)
        return LaurentPoly._from_ints(
            self.min_deg, [c * f.numerator for c in self.numers], self.denom * f.denominator
        )

    def substitute_power(self, c: int) -> "LaurentPoly":
        """X -> X**c (equivalently z -> c*z in the exponential form); c >= 1."""
        if not isinstance(c, int) or c < 1:
            raise ValueError(f"substitution power must be a positive integer, got {c!r}")
        if c == 1 or self.is_zero():
            return self
        out = [0] * ((len(self.numers) - 1) * c + 1)
        out[::c] = self.numers
        return LaurentPoly._from_ints(self.min_deg * c, out, self.denom)

    # -- evaluation / expansion -------------------------------------------

    def evaluate(self, x: Fraction) -> Fraction:
        """Exact value at a nonzero rational point (or any point if min_deg >= 0)."""
        x = _as_fraction(x)
        if x == 0:
            if self.min_deg < 0:
                raise ZeroDivisionError("evaluating negative powers at 0")
            return self.coefficient(0)
        if self.is_zero():
            return _ZERO
        # Integer Horner on the polynomial part P: P(a/b) * b**deg.
        acc, _ = _int_horner(self.numers, x.numerator, 0, x.denominator)
        b_pow = x.denominator ** (len(self.numers) - 1)
        return Fraction(acc, self.denom * b_pow) * x**self.min_deg

    def egf_prefix(self, n: int) -> list[Fraction]:
        """Counts [c_0, ..., c_n]: entry j is Sum_k coeff_k * k**j (0**0 = 1)."""
        if n < 0:
            raise ValueError("prefix length must be nonnegative")
        return list(self.egf_counts(n))

    def egf_counts(self, n: int, start: int = 0) -> Iterator[Fraction]:
        """Entries start, ..., n of egf_prefix(n), computed one at a time as they are taken."""
        degrees = [self.min_deg + i for i, c in enumerate(self.numers) if c]
        terms = [c * k**start for c, k in zip((c for c in self.numers if c), degrees)]
        for _ in range(start, n + 1):
            yield Fraction(sum(terms), self.denom)
            terms = [c * k for c, k in zip(terms, degrees)]

    # -- division helpers --------------------------------------------------

    def divide_by_x_minus_one(self) -> "LaurentPoly":
        """Exact quotient by (X - 1); raises ValueError if 1 is not a root."""
        if self.is_zero():
            return self
        # Write self = X**min_deg * P(X) / denom.  P = (X-1) Q means
        # p_i = q_{i-1} - q_i, so q_i = -(p_0 + ... + p_i) = p_{i+1} + ... + p_deg
        # as P(1) = 0: the running sums of p from the top, the last of which
        # is P(1).  Q is canonical as it stands: q_0 = -p_0 and q_top = p_top
        # are nonzero, and by Gauss's lemma Q has the content of P, which is
        # prime to denom.
        sums = list(accumulate(reversed(self.numers)))
        if sums.pop():
            raise ValueError("polynomial is not divisible by (X - 1)")
        sums.reverse()
        return LaurentPoly._from_canonical(self.min_deg, tuple(sums), self.denom)

    # -- misc --------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            d = self.min_deg + i
            if d == 0:
                parts.append(f"{c}")
            elif d == 1:
                parts.append(f"{c}*X" if c != 1 else "X")
            else:
                parts.append(f"{c}*X^{d}" if c != 1 else f"X^{d}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        """{"min_deg": ..., "coeffs": ["n/d", ...]}, each coefficient in lowest terms."""
        d = self.denom
        if d == 1:
            coeffs = [f"{n}/1" for n in self.numers]
        else:
            # Most coefficients of a series are 0, which needs no gcd.
            coeffs = []
            for n in self.numers:
                if n:
                    g = math.gcd(n, d)
                    coeffs.append(f"{n // g}/{d // g}")
                else:
                    coeffs.append("0/1")
        return {"min_deg": self.min_deg, "coeffs": coeffs}


# ---------------------------------------------------------------------------
# Count-sequence reconstruction
# ---------------------------------------------------------------------------


# Windows whose Lagrange basis is kept, as the oracle keeps 8 groups: each
# oracle window [-#A, #R] belongs to one group.  A basis holds w**2
# integers of up to log2((w-1)!) bits.  Measured (Python 3.11, 2-core
# x86_64 host): at G(176,1,1)'s window (w = 177), the widest oracle_series
# reaches within the walk guard, 3.9 MB, built in 0.014 s; at G(447,1,1)'s
# (w = 448), the widest group the table guard admits, 61 MB, built in
# 0.12-0.17 s, where the dense solve itself takes about 0.8 s.  Only a
# direct call reaches a window that wide, and a basis grows like
# w**3 log w: 8 windows as wide would hold about 0.5 GB.
_CACHE_WINDOWS = 8


@lru_cache(maxsize=_CACHE_WINDOWS)
def _lagrange_basis(
    min_deg: int, max_deg: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int, tuple[int, ...]]:
    """(rows, signs, spread, powers): the integer Lagrange basis of one window.

    On the nodes lo = min_deg, ..., hi = max_deg, w of them, with
    P(t) = Prod_i (t - i): ``rows[k - lo]`` holds the ascending coefficients
    of P(t)/(t - k), from synthetic division; ``signs[k - lo]`` is
    (-1)**(hi-k) * C(w-1, k-lo), so that the Lagrange denominator
    Prod_{i != k} (k - i) = (-1)**(hi-k) (k-lo)! (hi-k)! times it is
    ``spread`` = (w-1)!; ``powers[k - lo]`` is k**w, the first surplus row.
    """
    width = max_deg - min_deg + 1
    nodes = range(min_deg, max_deg + 1)
    p = [1]
    for i in nodes:
        p = [a - i * b for a, b in zip([0] + p, p + [0])]
    rows = []
    for k in nodes:
        row, q = [0] * width, 0
        for j in range(width - 1, -1, -1):
            q = row[j] = p[j + 1] + k * q
        rows.append(tuple(row))
    signs = tuple(
        -math.comb(width - 1, k - min_deg) if (max_deg - k) % 2
        else math.comb(width - 1, k - min_deg)
        for k in nodes
    )
    powers = tuple(k**width for k in nodes)
    return tuple(rows), signs, math.factorial(width - 1), powers


def laurent_from_egf(prefix: Sequence, min_deg: int, max_deg: int) -> LaurentPoly:
    """The unique Laurent polynomial on [min_deg, max_deg] with these counts.

    ``prefix[j]`` must be the coefficient of z**j/j!, i.e. Sum_k a_k k**j.
    The first ``w = max_deg - min_deg + 1`` entries determine the a_k by
    Lagrange inversion on the integer nodes of the window:
    (w-1)! * a_k = signs_k * Sum_j rows_k[j] * prefix[j], with the window's
    integer basis (``_lagrange_basis``) built once and kept, so everything
    runs in integers over the common denominator
    (w-1)! * lcm(prefix denominators).  Each sum is one dot product over
    the nonzero entries only.  Every surplus entry j >= w is then checked
    exactly against Sum_k a_k k**j; a mismatch raises ValueError (meaning
    the window or the counts are wrong).
    """
    if max_deg < min_deg:
        raise ValueError("empty degree window")
    width = max_deg - min_deg + 1
    counts, den = _over_common_denominator(prefix)
    if len(counts) < width:
        raise ValueError(f"need at least {width} prefix entries, got {len(counts)}")
    rows, signs, spread, powers = _lagrange_basis(min_deg, max_deg)
    head = counts[:width]
    nonzero = [c for c in head if c]
    numers = [f * sum(map(mul, compress(row, head), nonzero)) for f, row in zip(signs, rows)]
    nodes = range(min_deg, max_deg + 1)
    for j in range(width, len(counts)):
        if j > width:
            powers = list(map(mul, powers, nodes))
        got = sum(map(mul, numers, powers))
        if got != counts[j] * spread:
            raise ValueError(
                f"count prefix inconsistent with window [{min_deg}, {max_deg}] "
                f"at index {j}: expected {Fraction(counts[j], den)}, reconstruction "
                f"gives {Fraction(got, spread * den)}"
            )
    return LaurentPoly._from_ints(min_deg, numers, spread * den)


def _strip_x_minus_one(poly: LaurentPoly) -> tuple[LaurentPoly, int]:
    """(quotient, multiplicity): divide by (X - 1) while 1 is a root (numerators sum to 0)."""
    mult = 0
    while poly.numers and sum(poly.numers) == 0:
        poly = poly.divide_by_x_minus_one()
        mult += 1
    return poly, mult


def lowest_order(poly: LaurentPoly) -> tuple[int, Fraction]:
    """(s, c): the z-expansion of ``poly`` starts c * z**s / s!.

    s is the multiplicity of the root X = 1 (repeated exact division) and c
    is the first nonzero count — s! times the value of poly/(X-1)**s at 1.
    """
    if poly.is_zero():
        raise ValueError("lowest_order of the zero polynomial is undefined")
    current, s = _strip_x_minus_one(poly)
    value = current.evaluate(Fraction(1))
    return s, value * math.factorial(s)


def extract_phi(
    poly: LaurentPoly, group_order: int, num_hyperplanes: int
) -> tuple[LaurentPoly, int]:
    """Peel the structural factors off a full-factorization series.

    Writes ``poly = (1/group_order) * phi(X) * (X-1)**ell / X**num_hyperplanes``
    with ell maximal, and returns (phi, ell).  phi comes out with
    min_deg >= 0; a failure of exact divisibility (or a negative-degree phi)
    raises ValueError, signalling the input is not a full-factorization
    series for the claimed group data.
    """
    if poly.is_zero():
        raise ValueError("cannot extract the core polynomial of the zero series")
    current, ell = _strip_x_minus_one(poly)
    order = _as_fraction(group_order)
    top = order.numerator
    phi = LaurentPoly._from_ints(
        current.min_deg + num_hyperplanes,
        [c * top for c in current.numers],
        current.denom * order.denominator,
    )
    if phi.min_deg < 0:
        raise ValueError(
            "series has support below the stated hyperplane count "
            f"(min_deg {phi.min_deg} after shifting by {num_hyperplanes})"
        )
    return phi, ell

"""Full reflection factorization series for G(m,p,n), with lengths and counts.

The headline pipeline: the full-factorization series of any element factors
into a cyclic-group series (driven by the element's total color) times a
Möbius-weighted combination of symmetric-group full series in rescaled
arguments (driven by the gcd d of the cycle colors with p).  From the series
one reads the minimum full factorization length and the count of
minimum-length factorizations; both also have direct closed forms (the
four-case length formula and the Hurwitz-number leading coefficients), which
are computed here from cycle data alone so series-vs-formula comparisons are
genuine two-route checks.

The series depends on g only through its class key (λ, d, a): the cycle
type, the gcd of the cycle colors with p and the order of g's color in the
cyclic quotient.  ``series_full`` and ``phi_data`` therefore compute each
key once per process, in bounded LRU caches; ``series_key`` names the key, so
callers can cache what they derive from it.  ``series_full_factored``,
``full_length`` and ``lead_coeff`` read no cache, so they stay second routes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .cyclic import cyclic_element_order, cyclic_full_series
from .errors import CapabilityError
from .groups import CycleData, Element, GroupParams, cycle_data, project, validate_element, weight
from .hurwitz import hurwitz_h0, hurwitz_h1
from .laurent import LaurentPoly, extract_phi
from .numtheory import divisors, euler_phi, jordan_j2, moebius
from .symmetric import full_series_sn_type

__all__ = [
    "series_ppn",
    "series_full",
    "series_full_factored",
    "full_length",
    "lead_coeff",
    "lead_from_phi",
    "series_window",
    "phi_data",
    "phi_data_by_key",
    "series_key",
    "WINDOW_GUARD",
]


def series_window(params: GroupParams) -> tuple[int, int]:
    """Laurent support window of any full series: [-#A, #R]."""
    return (-params.num_hyperplanes, params.num_reflections)


# The series of G(m,p,n) has #R + #A + 1 coefficients, about 2m*C(n,2), and
# its time, memory and output grow linearly in m, which nothing else bounds.
# 4096 keeps every group of the tests and the benchmark (widest G(6,2,10),
# 570) and G(12,3,14) (2240) inside; at the guard a series takes about
# 0.1 s and prints about 0.3 MB.
WINDOW_GUARD = 4096

# Entries per key cache.  At the window guard one key's series holds at
# most ~150 KB and its (phi, ell) ~230 KB (G(22,11,14), width 4032: 148 KB
# and 227 KB), so the two caches here stay under ~39 MB and ~59 MB in a
# long-lived process.  `wfact series` keeps a third cache of this size, of
# rendered JSON bodies: ~330 KB at the guard with the default --prefix-len
# (326 KB there), so under ~85 MB more.
KEY_CACHE_SIZE = 256


def _check_window(params: GroupParams) -> None:
    """Raise CapabilityError when the series window #R + #A passes WINDOW_GUARD."""
    width = params.num_reflections + params.num_hyperplanes
    if width > WINDOW_GUARD:
        raise CapabilityError(
            f"the series of {params} spans #R + #A = {width} degrees, past the "
            f"guard {WINDOW_GUARD}"
        )


def _moebius_sum(n: int, partition: tuple[int, ...], d: int, scale_base: int) -> LaurentPoly:
    """Sum over r | d of moebius(r) r^(n+k-2) S_lambda(X -> X^(scale_base/r))."""
    acc = LaurentPoly.zero()
    base_series = full_series_sn_type(partition)
    k = len(partition)
    for r in divisors(d):
        mu = moebius(r)
        if mu == 0:
            continue
        term = base_series.substitute_power(scale_base // r)
        acc = acc + term.scale(mu * r ** (n + k - 2))
    return acc


def series_ppn(p: int, n: int, cd: CycleData) -> LaurentPoly:
    """Full series in G(p,p,n) for an element with the given cycle data.

    (1/p^(n-1)) * Sum_{r | d} moebius(r) r^(n+k-2) S_lambda(X -> X^(p/r)),
    where S_lambda is the symmetric-group full series of the underlying
    cycle type.  The n = 1 group is trivial (empty reflection set), so its
    series is 1 regardless of the formula's degenerate value.
    """
    if sum(cd.lengths) != n:
        raise ValueError(f"cycle lengths {cd.lengths} do not sum to n = {n}")
    if p % cd.d != 0:
        raise ValueError(f"cycle-color gcd d = {cd.d} must divide p = {p}")
    if n == 1:
        return LaurentPoly.one()
    return _moebius_sum(n, cd.partition, cd.d, p).scale(Fraction(1, p ** (n - 1)))


def _cyclic_factor(params: GroupParams, g: Element) -> LaurentPoly:
    """The rank-1 factor: full series of the color's image in G(m,p,1)."""
    order = cyclic_element_order(params.m, params.p, weight(g, params))
    return cyclic_full_series(params.m // params.p, order)


def series_key(params: GroupParams, g: Element) -> tuple:
    """(params, λ, d, a): everything the full series of g depends on.

    A window past WINDOW_GUARD raises CapabilityError before any arithmetic;
    cycle_data validates g, so a non-member raises ValueError here.
    """
    _check_window(params)
    cd = cycle_data(g, params)
    return params, cd.partition, cd.d, cd.a


@lru_cache(maxsize=KEY_CACHE_SIZE)
def _series_by_key(
    params: GroupParams, partition: tuple[int, ...], d: int, a: int
) -> LaurentPoly:
    """series_full for every element with cycle type partition and this d and a.

    The color's image in the cyclic quotient has order m/gcd(wt, m) = m/(a p).
    """
    n, m = params.n, params.m
    cyc = cyclic_full_series(m // params.p, m // (a * params.p))
    if n == 1:
        return cyc
    body = _moebius_sum(n, partition, d, m)
    return (cyc.substitute_power(n) * body).scale(Fraction(1, m ** (n - 1)))


@lru_cache(maxsize=KEY_CACHE_SIZE)
def _phi_by_key(
    params: GroupParams, partition: tuple[int, ...], d: int, a: int
) -> tuple[LaurentPoly, int]:
    """(phi, ell) of the series of _series_by_key for the same key."""
    series = _series_by_key(params, partition, d, a)
    return extract_phi(series, params.order, params.num_hyperplanes)


def series_full(params: GroupParams, g: Element) -> LaurentPoly:
    """Full-factorization series of g in G(m,p,n) as an exact Laurent polynomial.

    (1/m^(n-1)) * cyclic_factor(z -> n z) *
    Sum_{r | d} moebius(r) r^(n+k-2) S_lambda(z -> (m/r) z).
    For p = m the cyclic factor is the trivial series 1; for n = 1 the whole
    group is cyclic and the series is exactly the cyclic factor.  Computed
    once per class key (λ, d, a) and kept in a bounded cache.
    """
    return _series_by_key(*series_key(params, g))


def series_full_factored(params: GroupParams, g: Element) -> LaurentPoly:
    """Two-stage route: project to G(p,p,n), rescale, multiply the cyclic factor.

    (1/(m/p)^(n-1)) * series_ppn(p, n, projected cycle data)(z -> (m/p) z)
                    * cyclic_factor(z -> n z).
    Defined for p < m; agrees with series_full as an identity of Laurent
    polynomials.
    """
    _check_window(params)
    validate_element(g, params)
    if params.p >= params.m:
        raise ValueError("the factored route applies to p < m")
    n, m, p = params.n, params.m, params.p
    ppn_params = GroupParams(p, p, n)
    projected = project(g, params, p)
    cd = cycle_data(projected, ppn_params)
    inner = series_ppn(p, n, cd).substitute_power(m // p)
    cyc = _cyclic_factor(params, g).substitute_power(n)
    return (inner * cyc).scale(Fraction(1, (m // p) ** (n - 1)))


def _color_gcd(params: GroupParams, cd: CycleData) -> int:
    """The d of the case split: G(p,p,1) is trivial, so for n = 1 it is 1."""
    return 1 if params.n == 1 else cd.d


def full_length(params: GroupParams, g: Element) -> int:
    """Minimum length of a full reflection factorization of g.

    Case split on (m = p), d, a from the cycle data:
    m = p:  n+k-2 if d = 1, else n+k;
    m != p: n+k-1 (a=1, d=1), n+k (a!=1, d=1), n+k+1 (a=1, d!=1),
            n+k+2 (a!=1, d!=1).
    """
    cd = cycle_data(g, params)
    n, k, d = params.n, cd.k, _color_gcd(params, cd)
    if params.m == params.p:
        return n + k - 2 if d == 1 else n + k
    if d == 1:
        return n + k - 1 if cd.a == 1 else n + k
    return n + k + 1 if cd.a == 1 else n + k + 2


def lead_coeff(params: GroupParams, g: Element) -> Fraction:
    """Count of minimum-length full factorizations of g, by the closed forms.

    Hurwitz numbers of the underlying cycle type scaled by explicit factors
    of m, n, k, Euler phi and the second Jordan totient; the case split
    mirrors full_length.  Exact and checked integral.
    """
    cd = cycle_data(g, params)
    n, m, p, k, d = params.n, params.m, params.p, cd.k, _color_gcd(params, cd)
    shape = cd.partition
    if m == p:
        if d == 1:
            value = Fraction(m ** (k - 1)) * hurwitz_h0(shape)
        else:
            value = Fraction(m ** (k + 1) * jordan_j2(d), d**2) * hurwitz_h1(shape)
    elif d == 1:
        if cd.a == 1:
            value = Fraction(n * (n + k - 1) * m ** (k - 1)) * hurwitz_h0(shape)
        else:
            value = (
                Fraction(n * n * (n + k) * (n + k - 1) * m**k, 2)
                * Fraction(euler_phi(cd.a), p * cd.a)
                * hurwitz_h0(shape)
            )
    else:
        jfactor = Fraction(jordan_j2(d), d**2)
        if cd.a == 1:
            value = Fraction(n * (n + k + 1) * m ** (k + 1)) * jfactor * hurwitz_h1(shape)
        else:
            value = (
                Fraction(n * n * (n + k + 2) * (n + k + 1) * m ** (k + 2), 2)
                * Fraction(euler_phi(cd.a), p * cd.a)
                * jfactor
                * hurwitz_h1(shape)
            )
    if value.denominator != 1:
        raise AssertionError(f"leading count non-integral for {g}: {value}")
    return value


def lead_from_phi(phi: LaurentPoly, group_order: int, ell: int) -> Fraction:
    """Minimum-length count from the core polynomial: phi(1) * ell! / order."""
    if group_order < 1 or ell < 0:
        raise ValueError("need a positive group order and nonnegative ell")
    # phi(1) is the sum of the coefficients.
    return Fraction(sum(phi.numers) * factorial(ell), phi.denom * group_order)


def phi_data(params: GroupParams, g: Element) -> tuple[LaurentPoly, int, LaurentPoly]:
    """(phi, ell, series): core polynomial and root-1 multiplicity of g's series.

    Like the series, (phi, ell) is computed once per class key.
    """
    return phi_data_by_key(series_key(params, g))


def phi_data_by_key(key: tuple) -> tuple[LaurentPoly, int, LaurentPoly]:
    """phi_data of every element whose series_key is key."""
    phi, ell = _phi_by_key(*key)
    return phi, ell, _series_by_key(*key)

"""Full reflection factorization series for G(m,p,n), with lengths and counts.

The headline pipeline: the full-factorization series of any element factors
into a cyclic-group series (driven by the element's total color) times a
Möbius-weighted combination of symmetric-group full series in rescaled
arguments (driven by the gcd d of the cycle colors with p).  From the series
one reads the minimum full factorization length and the count of
minimum-length factorizations; both also have direct closed forms (one case
split on m = p, d and a over genus-0 and genus-1 Hurwitz numbers), which
are computed here from the class key alone so series-vs-formula comparisons
are genuine two-route checks.

The series depends on g only through its class key (λ, d, a): the cycle
type, the gcd of the cycle colors with p and the order of g's color in the
cyclic quotient.  ``phi_data_by_key`` therefore computes each key's
(phi, ell, series) once per process, in one bounded LRU cache that
``series_full`` and ``phi_data`` read; ``series_key`` names the key, so
callers can cache what they derive from it.  ``closed_lowest_order``,
``full_length``, ``lead_coeff`` and ``series_full_factored`` read no cache,
so they stay second routes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .cyclic import cyclic_element_order, cyclic_full_series
from .errors import CapabilityError
from .groups import CycleData, Element, GroupParams, cycle_data, project, validate_element, weight
from .hurwitz import h0_ratio, h1_ratio
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
    "closed_lowest_order",
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

# Entries in the key cache.  At the window guard one key's record
# (phi, ell, series) holds at most ~380 KB (G(22,11,14), width 4032: 148 KB
# of series and 227 KB of phi), so the cache stays under ~95 MB in a
# long-lived process.  `wfact series` keeps a second cache of this size, of
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


def _moebius_sum(n: int, partition: tuple[int, ...], d: int, base: int) -> LaurentPoly:
    """(1/base^(n-1)) Sum over r | d of moebius(r) r^(n+k-2) S_lambda(X -> X^(base/r)).

    Every term is S_lambda's numerators spread out, over S_lambda's
    denominator, so the terms are added up in one integer array and the sum
    is canonicalised once.
    """
    s_lambda = full_series_sn_type(partition)
    numers, k = s_lambda.numers, len(partition)
    terms = [(base // r, mu * r ** (n + k - 2)) for r in divisors(d) if (mu := moebius(r))]
    ends = [deg * c for deg in (s_lambda.min_deg, s_lambda.max_deg) for c, _ in terms]
    lo = min(ends)
    out = [0] * (max(ends) - lo + 1)
    for c, factor in terms:
        start = s_lambda.min_deg * c - lo
        cells = slice(start, start + (len(numers) - 1) * c + 1, c)
        out[cells] = [o + factor * v for o, v in zip(out[cells], numers)]
    return LaurentPoly._from_ints(lo, out, s_lambda.denom * base ** (n - 1))


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
    return _moebius_sum(n, cd.partition, cd.d, p)


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
def phi_data_by_key(key: tuple) -> tuple[LaurentPoly, int, LaurentPoly]:
    """(phi, ell, series) of every element whose series_key is key.

    The color's image in the cyclic quotient has order m/gcd(wt, m) = m/(a p).
    For p = m that quotient is trivial and the cyclic factor is 1, so the
    series of G(m,m,n), n > 1, is the Möbius sum alone.
    """
    params, partition, d, a = key
    n, m, p = params.n, params.m, params.p
    if n == 1:
        series = cyclic_full_series(m // p, m // (a * p))
    else:
        series = _moebius_sum(n, partition, d, m)
        if p < m:
            series = cyclic_full_series(m // p, m // (a * p)).substitute_power(n) * series
    phi, ell = extract_phi(series, params.order, params.num_hyperplanes)
    return phi, ell, series


def series_full(params: GroupParams, g: Element) -> LaurentPoly:
    """Full-factorization series of g in G(m,p,n) as an exact Laurent polynomial.

    (1/m^(n-1)) * cyclic_factor(z -> n z) *
    Sum_{r | d} moebius(r) r^(n+k-2) S_lambda(z -> (m/r) z).
    For p = m the cyclic factor is the trivial series 1; for n = 1 the whole
    group is cyclic and the series is exactly the cyclic factor.  Computed
    once per class key (λ, d, a), with its (phi, ell), in phi_data_by_key.
    """
    return phi_data_by_key(series_key(params, g))[2]


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


def closed_lowest_order(
    params: GroupParams, partition: tuple[int, ...], d: int, a: int
) -> tuple[int, Fraction]:
    """(ell, lead) of the class key by the closed forms.

    ell is the minimum full factorization length and lead the number of
    full factorizations of that length.  One case split on (m = p), d and
    a, with k = len(λ); G(p,p,1) is trivial, so d counts as 1 when n = 1.
    From
        d = 1:   ell0 = n+k-2, X = H_0(λ);
        d != 1:  ell0 = n+k,   X = m^2 J_2(d)/d^2 H_1(λ),
    m = p gives (ell0, m^(k-1) X); a = 1 gives ell = ell0+1 and
    n ell m^(k-1) X; otherwise ell = ell0+2 and
    n^2 C(ell,2) m^k phi(a)/(p a) X.  Exact: one integer numerator and
    denominator, checked integral by one divmod.  Reads no
    cache, so it stays a second route to the series' lowest order.
    """
    n, m, p, k = params.n, params.m, params.p, len(partition)
    # lead = top / bottom in integers, divided once at the end.
    if d == 1 or n == 1:
        ell = n + k - 2
        top, bottom = h0_ratio(partition)
    else:
        ell = n + k
        top, bottom = h1_ratio(partition)
        top *= m * m * jordan_j2(d)
        bottom *= d * d
    if m == p:
        top *= m ** (k - 1)
    elif a == 1:
        ell += 1
        top *= n * ell * m ** (k - 1)
    else:
        ell += 2
        top *= n * n * comb(ell, 2) * m**k * euler_phi(a)
        bottom *= p * a
    lead, rest = divmod(top, bottom)
    if rest:
        raise AssertionError(
            f"leading count non-integral for {params}, key {(partition, d, a)}: "
            f"{Fraction(top, bottom)}"
        )
    return ell, Fraction(lead)


def full_length(params: GroupParams, g: Element) -> int:
    """Minimum length of a full reflection factorization of g (closed_lowest_order)."""
    cd = cycle_data(g, params)
    return closed_lowest_order(params, cd.partition, cd.d, cd.a)[0]


def lead_coeff(params: GroupParams, g: Element) -> Fraction:
    """Count of minimum-length full factorizations of g (closed_lowest_order)."""
    cd = cycle_data(g, params)
    return closed_lowest_order(params, cd.partition, cd.d, cd.a)[1]


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

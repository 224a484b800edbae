"""The catalogue of cross-checks: every route to each quantity, and the groups they run on.

Each ``Quantity`` below lists its routes, one ``Route`` a line: a name, a
function, and the domain where the route runs (its guards, or where it stays
cheap).  ``test_routes.py`` checks, on every group of ``GROUPS``, that every
route that runs there agrees with every other.  A route returns a complete
value (a ``LaurentPoly``, an (ℓ, lead) pair, a dict of them) or a list of
counts by length from 0, compared with the others on their common lengths.

This module also holds the one copy of each reference the test modules
share.  pytest does not rewrite its asserts and ``python -O`` strips them,
so it holds no checks.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import comb, gcd, prod
from typing import Callable

from wfact.cyclic import cyclic_element_order, cyclic_full_series
from wfact.factorizations import (
    full_length,
    lead_coeff,
    lead_from_phi,
    phi_data,
    series_full,
    series_full_factored,
)
from wfact.groups import (
    Element,
    GroupParams,
    _canonical_from_cycles,
    all_elements,
    cycle_data,
    weight,
)
from wfact.hurwitz import hurwitz_h0, hurwitz_h1
from wfact.laurent import LaurentPoly, lowest_order
from wfact.numtheory import divisors, moebius
from wfact.oracle import (
    TABLE_GUARD,
    WALK_GUARD,
    build_tables,
    class_representatives,
    count_factorizations,
    oracle_series,
)
from wfact.partitions import integer_partitions
from wfact.symmetric import dyz_identity_series, full_series_sn, full_series_sn_type

ZERO = LaurentPoly.zero()

# ---------------------------------------------------------------- shared references


def poly(min_deg, *coeffs):
    """The Laurent polynomial with these coefficients, from X**min_deg up."""
    return LaurentPoly(min_deg, [Fraction(c) for c in coeffs])


def factorial(n):
    """n! as a plain product, independent of the math.factorial the package uses."""
    return prod(range(1, n + 1))


def perm_of_type(parts):
    """A permutation of cycle type ``parts``, consecutive cycles, as a 1-based image tuple."""
    image = []
    base = 0
    for part in parts:
        image.extend(range(base + 2, base + part + 1))
        image.append(base + 1)
        base += part
    return tuple(image)


def random_element(params, rng):
    """A random element of G(m,p,n): one color shifted so that the colors sum to 0 mod p."""
    n, m, p = params.n, params.m, params.p
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    colors = [rng.randrange(m) for _ in range(n)]
    colors[-1] = (colors[-1] - sum(colors) % p) % m
    return Element(tuple(perm), tuple(colors))


def _transpositions(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def transitive_counts(n, perm, top):
    """Transitive transposition factorizations of ``perm`` in S_n, by length 0..top.

    A dynamic program over pairs (product so far, partition of {1..n} into
    the blocks the factors so far connect); transitive means one block.
    """
    transpositions = _transpositions(n)
    singletons = frozenset(frozenset([v]) for v in range(1, n + 1))
    state = {(tuple(range(1, n + 1)), singletons): 1}
    counts = []
    for length in range(top + 1):
        counts.append(sum(w for (g, blocks), w in state.items() if g == perm and len(blocks) == 1))
        if length == top:
            break
        nxt = {}
        for (g, blocks), ways in state.items():
            for i, j in transpositions:
                h = list(g)
                h[i - 1], h[j - 1] = h[j - 1], h[i - 1]
                bi = next(b for b in blocks if i in b)
                bj = next(b for b in blocks if j in b)
                merged = blocks if bi == bj else (blocks - {bi, bj}) | {bi | bj}
                key = (tuple(h), merged)
                nxt[key] = nxt.get(key, 0) + ways
        state = nxt
    return counts


def transitive_counts_literal(n, perm, top):
    """The counts of ``transitive_counts``, by enumerating every transposition sequence."""
    counts = [0] * (top + 1)
    for length in range(top + 1):
        for seq in product(_transpositions(n), repeat=length):
            g, reached = list(range(1, n + 1)), {1}
            for i, j in seq:
                g[i - 1], g[j - 1] = g[j - 1], g[i - 1]
            for _ in range(n):  # the vertices the edges of seq connect to 1
                reached |= {v for edge in seq if reached & set(edge) for v in edge}
            counts[length] += tuple(g) == perm and len(reached) == n
    return counts


# ---------------------------------------------------------------- Coxeter elements


@lru_cache(maxsize=None)
def coxeter_data(params):
    """(c, r, h): a Coxeter element, the rank and the Coxeter number; None if not well generated.

    S_n: an n-cycle, r = n - 1, h = n.  G(m,1,n): an n-cycle of color 1, h = mn.  G(m,m,n)
    (n >= 2): an (n-1)-cycle of color 1 and a fixed point of color -1, h = (n-1)m."""
    m, p, n = params.m, params.p, params.n
    if m == 1:
        cycles, r, h = [(n, 0)], n - 1, n
    elif p == 1:
        cycles, r, h = [(n, 1)], n, m * n
    elif p == m and n >= 2:
        cycles, r, h = [(n - 1, 1), (1, m - 1)], n, (n - 1) * m
    else:
        return None
    return _canonical_from_cycles(cycles, params), r, h


def at_coxeter(params, g):
    """Whether g is the Coxeter element of ``coxeter_data``."""
    data = coxeter_data(params)
    return data is not None and g == data[0]


def coxeter_series(params):
    """X**-#A (X**h - 1)**r / #W: every factorization of c is full (Chapuy & Stump,
    J. London Math. Soc. 90 (2014)); #R + #A = rh."""
    _, r, h = coxeter_data(params)
    coeffs = [0] * (r * h + 1)
    for k in range(r + 1):
        coeffs[k * h] = comb(r, k) * (-1) ** (r - k)
    return LaurentPoly(-params.num_hyperplanes, coeffs, params.order)


def coxeter_lowest(params):
    """(r, r! h**r / #W): the minimum length and count at c (Deligne-Reading)."""
    _, r, h = coxeter_data(params)
    return r, Fraction(factorial(r) * h**r, params.order)


# ---------------------------------------------------------------- sums over the group


def connected_edge_series(n: int) -> LaurentPoly:
    """C_n(X) = n! [y^n] log Sum_j X^C(j,2) y^j / j!  (Stanley, EC2 section 5.1).

    With X = e^z, X^C(j,2) is the EGF of all edge sequences on j labelled
    vertices and C_n that of the connected ones; splitting off the component
    of vertex 1 gives c_j = X^C(j,2) - Sum_{k<j} C(j-1,k-1) c_k X^C(j-k,2).
    """
    c = [LaurentPoly.zero()]
    for j in range(1, n + 1):
        acc = LaurentPoly.monomial(comb(j, 2))
        for k in range(1, j):
            split = c[k] * LaurentPoly.monomial(comb(j - k, 2))
            acc = acc - split.scale(comb(j - 1, k - 1))
        c.append(acc)
    return c[n]


def class_weighted_full_sum(params: GroupParams) -> LaurentPoly:
    """Sum over g in G(m,p,n) of the full series of g, in closed form.

    [Sum_{d|m, gcd(d,p)=1} Sum_{d|d'|m} mu(d'/d) d'^(n-1) C_n(X^(m/d'))]
      * [Sum_{p|e|m} mu(e/p) X^(n(m/e-1))].

    Proof sketch.  The left side is the EGF of the reflection sequences that
    generate G(m,p,n): those whose colored-transposition graph on the n
    positions is connected, whose diagonal exponents generate pZ_m, and whose
    cycle color sums generate some dZ_m with gcd(d, p) = 1.  The two kinds of
    reflection shuffle, so the EGF is a product.  A connected sequence of N
    edges with every cycle sum in d'Z_m has d'^(n-1) (m/d')^N colorings (a
    potential mod d' on the vertices): d'^(n-1) C_n(X^(m/d')), and Moebius
    inversion over d | d' | m keeps exactly dZ_m.  Likewise X^(n(m/e-1))
    counts the diagonal sequences in eZ_m, inverted over p | e | m.  For
    n = 1 the first factor is [p = 1], but G(m,p,1) is never empty, so the
    identity needs n >= 2 or p = 1.
    """
    return _generating_sequences(params, connected_edge_series(params.n))


def type_weighted_full_sums(params: GroupParams) -> dict:
    """Sum over the g in G(m,p,n) of cycle type λ of the full series of g, for every λ.

    class_weighted_full_sum with C_n(X) replaced by (n!/z_λ) F_λ(X), F_λ the
    S_n full series of type λ: the underlying permutation of a product is
    that of its transpositions, whatever the colors, so the connected edge
    sequences are kept by the type of their product.  Needs n >= 2 or p = 1.
    """
    sums = {}
    for partition in integer_partitions(params.n):
        z = prod(part**count * factorial(count) for part, count in Counter(partition).items())
        typed = full_series_sn_type(partition).scale(factorial(params.n) // z)
        sums[partition] = _generating_sequences(params, typed)
    return sums


def _generating_sequences(params: GroupParams, connected: LaurentPoly) -> LaurentPoly:
    """The two factors of class_weighted_full_sum, with C_n given as connected."""
    m, p, n = params.m, params.p, params.n
    graphs = LaurentPoly.zero()
    for d in divisors(m):
        if gcd(d, p) != 1:
            continue
        for d2 in divisors(m):
            if d2 % d == 0 and moebius(d2 // d):
                term = connected.substitute_power(m // d2)
                graphs = graphs + term.scale(moebius(d2 // d) * d2 ** (n - 1))
    diagonals = LaurentPoly.zero()
    for e in divisors(m):
        if e % p == 0 and moebius(e // p):
            diagonals = diagonals + LaurentPoly.monomial(n * (m // e - 1), moebius(e // p))
    return graphs * diagonals


def class_size(params: GroupParams, key) -> int:
    """Elements with these k (length, color) cycles: n! m^(n-k) / (Π lengths · Π repeats!)."""
    n, k = params.n, len(key)
    repeats = prod(factorial(count) for count in Counter(key).values())
    return factorial(n) * params.m ** (n - k) // (prod(length for length, _ in key) * repeats)


@lru_cache(maxsize=1)
def element_summed_type_sums(params: GroupParams) -> dict:
    """series_full summed over W by cycle type at every element, each (type, series) scaled once."""
    tally = Counter(
        (cycle_data(g, params).partition, series_full(params, g)) for g in all_elements(params)
    )
    sums = {}
    for (partition, series), count in tally.items():
        sums[partition] = sums.get(partition, ZERO) + series.scale(count)
    return sums


@lru_cache(maxsize=1)
def class_summed_type_sums(params: GroupParams) -> dict:
    """series_full summed over W by cycle type, one class at a time: its series times its size."""
    sums = {}
    for g in class_representatives(params):
        data = cycle_data(g, params)
        term = series_full(params, g).scale(class_size(params, data.class_key))
        sums[data.partition] = sums.get(data.partition, ZERO) + term
    return sums


def moebius_fold(params: GroupParams, g: Element) -> LaurentPoly:
    """series_full's formula folded term by term in LaurentPoly arithmetic:
    cyclic_factor(X -> X^n) * Sum_{r | d} moebius(r) r^(n+k-2) S_λ(X -> X^(m/r)) / m^(n-1).

    series_full and series_full_factored both add up the Möbius sum through
    one private helper, so this fold is the route that checks the helper."""
    n, m, p = params.n, params.m, params.p
    data = cycle_data(g, params)
    s_lambda = full_series_sn_type(data.partition)
    total = ZERO
    for r in divisors(data.d):
        if moebius(r):
            term = s_lambda.substitute_power(m // r)
            total = total + term.scale(moebius(r) * r ** (n + len(data.partition) - 2))
    cyclic = cyclic_full_series(m // p, cyclic_element_order(m, p, weight(g, params)))
    return (cyclic.substitute_power(n) * total).scale(Fraction(1, m ** (n - 1)))


def lattice_sum(params: GroupParams) -> LaurentPoly:
    """Sum over the reflection subgroups H with mu(H, W) != 0 of mu(H, W) X**#R_H."""
    _, stable = build_tables(params)
    terms = zip(stable.mobius, stable.flags)
    return sum((LaurentPoly.monomial(int(flags.sum()), mu) for mu, flags in terms if mu), ZERO)


# ---------------------------------------------------------------- domains

# The per-element routes are compared on every element of a group of at most
# ELEMENT_SCAN elements (G(4,2,3) has 192) and on one element per class up
# to CLASS_SCAN, where the oracle, the largest share of this catalogue's
# time, stops too.  Past it only closed forms run, at a millisecond or more a
# class key: at the Coxeter element c (Chapuy-Stump is a second route), and
# at SAMPLE random elements where the factored form is one (p < m) up to
# rank SAMPLE_RANK, or where there is no c.  series_full is summed over every
# element up to SUM_SCAN (G(4,2,4) and G(8,1,3)), and oracle_series solves
# at one element a class up to a window SOLVE_WIDTH wide (G(4,2,3)'s).
ELEMENT_SCAN = 200
CLASS_SCAN = 400
SUM_SCAN = 3072
SAMPLE = 12
SAMPLE_RANK = 8
SOLVE_WIDTH = 31


@lru_cache(maxsize=None)
def elements(params: GroupParams) -> list[Element]:
    """The elements of ``params`` that the per-element routes are compared on."""
    coxeter = coxeter_data(params)
    if params.order <= ELEMENT_SCAN:
        return list(all_elements(params))
    if params.order > CLASS_SCAN:
        chosen = [coxeter[0]] if coxeter else []
        if not coxeter or (params.p < params.m and params.n <= SAMPLE_RANK):
            rng = random.Random(str(params))
            chosen += [random_element(params, rng) for _ in range(SAMPLE)]
        return chosen
    return class_representatives(params) + ([coxeter[0]] if coxeter else [])


def oracle_runs(params: GroupParams, *_) -> bool:
    """Up to CLASS_SCAN, inside the oracle's table guard and its walk guard at depth #R + #A + 2."""
    cells = params.order * params.num_reflections
    depth = params.num_reflections + params.num_hyperplanes + 2
    walk = (depth + 1) ** 2 * cells
    return params.order <= CLASS_SCAN and cells <= TABLE_GUARD and walk <= WALK_GUARD


def at_c_oracle(params: GroupParams, g: Element) -> bool:
    return at_coxeter(params, g) and oracle_runs(params)


def oracle_series_runs(params: GroupParams, g: Element) -> bool:
    """Where the oracle runs: at c, and once a class where the window (the #R + #A + 1
    coefficients it solves for) is SOLVE_WIDTH wide at most."""
    if not oracle_runs(params):
        return False
    width = params.num_reflections + params.num_hyperplanes + 1
    return at_coxeter(params, g) or (width <= SOLVE_WIDTH and g in representatives(params))


@lru_cache(maxsize=1)
def representatives(params: GroupParams) -> frozenset:
    return frozenset(class_representatives(params))


def fold_runs(params: GroupParams, g: Element) -> bool:
    """n >= 2, where the series has a Möbius sum, at one element per class up to CLASS_SCAN."""
    return params.n >= 2 and (params.order > CLASS_SCAN or g in representatives(params))


def factored_runs(params: GroupParams, g: Element) -> bool:
    """p < m, at one element per class up to CLASS_SCAN: it is not cached by key."""
    return params.p < params.m and (params.order > CLASS_SCAN or g in representatives(params))


def tables_run(params: GroupParams) -> bool:
    """Inside the oracle's table guard, which class_representatives and build_tables check."""
    return params.order * params.num_reflections <= TABLE_GUARD


def element_sums_run(params: GroupParams) -> bool:
    """Up to SUM_SCAN elements."""
    return params.order <= SUM_SCAN


def identities_hold(params: GroupParams) -> bool:
    """Where the class- and type-weighted identities hold: n >= 2 or p = 1."""
    return params.n >= 2 or params.p == 1


def sn_types(params: GroupParams) -> list[tuple]:
    """The cycle types compared in S_n: all of them to n = 10, then five."""
    n = params.n
    if params.m != 1:
        return []
    if n <= 10:
        return [(mu,) for mu in integer_partitions(n)]
    wide = [(n,), (n - 1, 1), (2, 2) + (1,) * (n - 4), (3, 2, 2) + (1,) * (n - 7), (1,) * n]
    return [(mu,) for mu in wide]


def hurwitz_layers(mu):
    """Counts to length n + k: none below n + k - 2, then H_0, none by parity, then H_1."""
    return [0] * (sum(mu) + len(mu) - 2) + [hurwitz_h0(mu), 0, hurwitz_h1(mu)]


def oracle_counts(params, g):
    """The oracle's full counts to length #R + #A + 2, past the window: they fix the series."""
    depth = params.num_reflections + params.num_hyperplanes + 2
    return count_factorizations(params, g, depth, "full")


def oracle_lowest(params, g):
    """(ℓ, lead) read from the oracle's counts: the first length with a full factorization."""
    counts = oracle_counts(params, g)
    first = next(i for i, c in enumerate(counts) if c)
    return first, Fraction(counts[first])


def phi_lowest(params, g):
    """(ℓ, lead) from the core polynomial: ℓ from phi_data, the lead by lead_from_phi."""
    phi, ell, _ = phi_data(params, g)
    return ell, lead_from_phi(phi, params.order, ell)


# ---------------------------------------------------------------- the catalogue


@dataclass(frozen=True)
class Route:
    """One route to a quantity: ``compute(*args)`` wherever ``runs(*args)``."""

    name: str
    compute: Callable
    runs: Callable = lambda *_: True


@dataclass(frozen=True)
class Quantity:
    """A quantity, the inputs it is compared on at a group, and its routes."""

    name: str
    inputs: Callable[[GroupParams], list[tuple]]
    routes: tuple[Route, ...]


def _at_class(params):
    """One compared element per class, c for its own: (ℓ, lead) reads the class key alone."""
    ordered = sorted(elements(params), key=lambda g: at_coxeter(params, g))  # c last, so kept
    return [(params, g) for g in {cycle_data(g, params).class_key: g for g in ordered}.values()]


def closed_lowest(params, g):
    return full_length(params, g), lead_coeff(params, g)


def classes_sum(params):
    return sum(class_summed_type_sums(params).values(), ZERO)


def dp_counts(mu):
    return transitive_counts(sum(mu), perm_of_type(mu), 8 if sum(mu) <= 4 else 6)


def literal_counts(mu):
    return transitive_counts_literal(sum(mu), perm_of_type(mu), 5)


QUANTITIES = (
    Quantity("series", lambda params: [(params, g) for g in elements(params)], (
        Route("series_full", series_full),
        Route("series_full_factored", series_full_factored, factored_runs),
        Route("Möbius fold", moebius_fold, fold_runs),
        Route("oracle's counts", oracle_counts, oracle_runs),
        Route("oracle_series", oracle_series, oracle_series_runs),
        Route("Chapuy-Stump at c", lambda params, g: coxeter_series(params), at_coxeter),
        Route("oracle all-series at c", partial(oracle_series, mode="all"), at_c_oracle),
    )),
    Quantity("lowest", _at_class, (
        Route("lowest_order of series_full", lambda *a: lowest_order(series_full(*a))),
        Route("closed_lowest_order", closed_lowest),
        Route("lead_from_phi", phi_lowest),
        Route("oracle's first count", oracle_lowest, oracle_runs),
        Route("Deligne-Reading at c", lambda params, g: coxeter_lowest(params), at_coxeter),
    )),
    Quantity("group-sum", lambda params: [(params,)], (
        Route("series_full over the classes", classes_sum, tables_run),
        Route("class-weighted identity", class_weighted_full_sum, identities_hold),
        Route("lattice", lattice_sum, tables_run),
    )),
    Quantity("type-sums", lambda params: [(params,)], (
        Route("series_full over the classes by type", class_summed_type_sums, tables_run),
        Route("series_full over every element by type", element_summed_type_sums, element_sums_run),
        Route("type-weighted identity", type_weighted_full_sums, identities_hold),
    )),
    Quantity("sn-type", sn_types, (
        Route("full_series_sn", lambda mu: full_series_sn(sum(mu), perm_of_type(mu))),
        Route("DYZ at 1^n", lambda mu: dyz_identity_series(len(mu)), lambda mu: max(mu) == 1),
        Route("transitive DP", dp_counts, lambda mu: sum(mu) <= 5),
        Route("literal enumeration", literal_counts, lambda mu: sum(mu) <= 3),
        Route("H0/H1 layers", hurwitz_layers),
    )),
)


def disagreements(values):
    """The routes whose value differs from the reference: the first complete value, else the
    longest list of counts.  Counts agree with a value on their lengths, so agreeing with the
    reference makes every two routes agree on their common lengths."""
    complete = [value for _, value in values if not isinstance(value, list)]
    reference = complete[0] if complete else max((value for _, value in values), key=len)
    return [name for name, value in values if not _agree(value, reference)]


def _agree(value, reference):
    if isinstance(value, list):
        return _counts(reference, len(value) - 1) == value
    if isinstance(reference, list):
        return _counts(value, len(reference) - 1) == reference
    return value == reference


def _counts(value, top):
    return value[: top + 1] if isinstance(value, list) else _egf_prefix(value, top)


@lru_cache(maxsize=512)
def _egf_prefix(series, top):
    # The elements of a class share one series object: expand it once.
    return series.egf_prefix(top)


# ---------------------------------------------------------------- the tier-1 groups

GROUPS = sorted(
    {
        GroupParams(*mpn)
        for mpn in [
            # rank one: every G(m,p,1) with m <= 12
            *((m, p, 1) for m in range(1, 13) for p in divisors(m)),
            # the well-generated families with m <= 12 and n <= 14, for their Coxeter elements
            *((1, 1, n) for n in range(2, 15)),
            *((m, p, n) for m in range(2, 13) for p in (1, m) for n in range(2, 15)),
            # 1 < p < m, with square factors in m for the Moebius sums
            (4, 2, 2), (4, 2, 3), (4, 2, 4), (6, 2, 2), (6, 3, 2), (6, 2, 3), (6, 3, 3),
            (12, 3, 2), (12, 4, 2), (12, 3, 3), (12, 6, 3),
            # 1 < p < m past the oracle's guards
            (4, 2, 9), (6, 2, 10), (6, 3, 10),
        ]
    },
    key=lambda params: (params.order, params.m, params.p, params.n),
)

"""The wreath-product model of the complex reflection groups G(m,p,n).

Elements are pairs [u; a]: a permutation ``perm`` of {1..n} (image table) and
a tuple ``colors`` in (Z/m)^n, encoding the monomial matrix whose column i
carries the entry zeta_m**colors[i] in row perm[i].  G(m,p,n) consists of
those elements whose total color is divisible by p.  No matrices are ever
materialized; multiplication, inversion, projections, reflection enumeration,
cycle/color invariants and the generating-set criterion all work on the pair
encoding directly.

It also holds the one reader of outside text, which the command-line flags,
``parse_element`` and the fixture-file reader all call: ``read_integer``
(``read_integers`` for a comma-separated list) and ``read_fields``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial, gcd

from .numtheory import gcd_all

__all__ = [
    "GroupParams",
    "Element",
    "Reflection",
    "CycleData",
    "identity",
    "multiply",
    "inverse",
    "conjugate",
    "weight",
    "is_member",
    "validate_element",
    "project",
    "cycle_data",
    "reflections",
    "is_full_set",
    "all_elements",
    "read_integer",
    "read_integers",
    "read_fields",
    "parse_element",
    "element_to_json",
]


@dataclass(frozen=True)
class GroupParams:
    """Parameters (m, p, n) with p | m; carries the derived counts."""

    m: int
    p: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.p < 1 or self.n < 1:
            raise ValueError(f"group parameters must be positive: {self}")
        if self.m % self.p != 0:
            raise ValueError(f"p must divide m: m={self.m}, p={self.p}")

    @property
    def order(self) -> int:
        """#W = m^n * n! / p."""
        return self.m**self.n * factorial(self.n) // self.p

    @property
    def num_reflections(self) -> int:
        """#R = m*n(n-1)/2 transposition-like + n*(m/p - 1) diagonal."""
        return self.m * self.n * (self.n - 1) // 2 + self.n * (self.m // self.p - 1)

    @property
    def num_hyperplanes(self) -> int:
        """#A = m*n(n-1)/2, plus the n coordinate hyperplanes when p < m."""
        return self.m * self.n * (self.n - 1) // 2 + (self.n if self.p < self.m else 0)

    def __str__(self) -> str:
        return f"G({self.m},{self.p},{self.n})"


@dataclass(frozen=True)
class Element:
    """[u; a]: ``perm[i-1]`` is u(i); ``colors[i-1]`` in [0, m) is a_i."""

    perm: tuple[int, ...]
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "perm", tuple(self.perm))
        object.__setattr__(self, "colors", tuple(self.colors))


def identity(params: GroupParams) -> Element:
    return Element(tuple(range(1, params.n + 1)), (0,) * params.n)


def validate_element(g: Element, params: GroupParams) -> None:
    """Raise ValueError unless g is a valid member of G(m,p,n)."""
    n, m, p = params.n, params.m, params.p
    if len(g.perm) != n or len(g.colors) != n:
        raise ValueError(f"element arrays must have length n={n}: {g}")
    if sorted(g.perm) != list(range(1, n + 1)):
        raise ValueError(f"perm is not a bijection of 1..{n}: {g.perm}")
    if any(not (0 <= c < m) for c in g.colors):
        raise ValueError(f"colors must lie in [0, {m}): {g.colors}")
    if sum(g.colors) % p != 0:
        raise ValueError(
            f"color sum {sum(g.colors)} not divisible by p={p}: not in {params}"
        )


def is_member(g: Element, params: GroupParams) -> bool:
    try:
        validate_element(g, params)
    except ValueError:
        return False
    return True


def multiply(x: Element, y: Element, params: GroupParams) -> Element:
    """[u; a] * [v; b] = [u v; v(a) + b] (colors mod m)."""
    n, m = params.n, params.m
    if len(x.perm) != n or len(y.perm) != n:
        raise ValueError("element size does not match group parameters")
    perm = tuple(x.perm[y.perm[i] - 1] for i in range(n))
    colors = tuple((x.colors[y.perm[i] - 1] + y.colors[i]) % m for i in range(n))
    return Element(perm, colors)


def inverse(g: Element, params: GroupParams) -> Element:
    """[u; a]^-1 = [u^-1; c] with c_j = -a_{u^-1(j)}."""
    n, m = params.n, params.m
    inv = [0] * n
    for i in range(n):
        inv[g.perm[i] - 1] = i + 1
    perm = tuple(inv)
    colors = tuple((-g.colors[inv[j] - 1]) % m for j in range(n))
    return Element(perm, colors)


def conjugate(g: Element, h: Element, params: GroupParams) -> Element:
    """h * g * h^-1."""
    return multiply(multiply(h, g, params), inverse(h, params), params)


def weight(g: Element, params: GroupParams) -> int:
    """Total color of g, reduced mod m (lands in p*Z/m*Z for members)."""
    return sum(g.colors) % params.m


def project(g: Element, params: GroupParams, r: int) -> Element:
    """The image of g under the color-collapsing map into G(r,1,n).

    Matrix-wise each entry zeta_m is replaced by zeta_m**(m/r) = zeta_r, so in
    the native G(r,1,n) encoding the colors reduce mod r; the permutation is
    unchanged.  r = 1 recovers the underlying permutation (all colors 0).
    """
    if r < 1 or params.m % r != 0:
        raise ValueError(f"r must be a positive divisor of m={params.m}, got {r}")
    return Element(g.perm, tuple(c % r for c in g.colors))


@dataclass(frozen=True)
class CycleData:
    """Cycle structure of an element of G(m,p,n).

    ``lengths[i]`` and ``cycle_colors[i]`` describe the same cycle (cycles
    listed by smallest support element); ``k`` is the cycle count; ``d`` is
    gcd of the cycle colors and p (gcd(0, p) = p, so the identity gets d = p);
    ``a`` is gcd(total color, m)/p.
    """

    lengths: tuple[int, ...]
    cycle_colors: tuple[int, ...]
    k: int
    d: int
    a: int

    @property
    def partition(self) -> tuple[int, ...]:
        """Cycle type as a weakly decreasing partition of n."""
        return tuple(sorted(self.lengths, reverse=True))

    @property
    def class_key(self) -> tuple[tuple[int, int], ...]:
        """Multiset of (length, cycle color) pairs — a conjugacy invariant."""
        return tuple(sorted(zip(self.lengths, self.cycle_colors)))


def cycle_data(g: Element, params: GroupParams) -> CycleData:
    validate_element(g, params)
    n, m, p = params.n, params.m, params.p
    seen = [False] * n
    lengths: list[int] = []
    cycle_colors: list[int] = []
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        length = 0
        color = 0
        i = start
        while not seen[i - 1]:
            seen[i - 1] = True
            color += g.colors[i - 1]
            length += 1
            i = g.perm[i - 1]
        lengths.append(length)
        cycle_colors.append(color % m)
    k = len(lengths)
    d = gcd_all(cycle_colors, p)
    total = sum(g.colors)
    a = gcd(total, m) // p if total else m // p
    return CycleData(tuple(lengths), tuple(cycle_colors), k, d, a)


@dataclass(frozen=True)
class Reflection:
    """A reflection of G(m,p,n).

    ``kind`` is "transposition" (swap of i < j with twist k in [0, m)) or
    "diagonal" (single diagonal entry zeta**(p*k) at position i, k in
    [1, m/p); exists only when p < m).
    """

    kind: str
    i: int
    j: int | None
    twist: int

    def to_element(self, params: GroupParams) -> Element:
        n, m, p = params.n, params.m, params.p
        perm = list(range(1, n + 1))
        colors = [0] * n
        if self.kind == "transposition":
            perm[self.i - 1], perm[self.j - 1] = self.j, self.i
            colors[self.i - 1] = self.twist % m
            colors[self.j - 1] = (-self.twist) % m
        elif self.kind == "diagonal":
            colors[self.i - 1] = (p * self.twist) % m
        else:
            raise ValueError(f"unknown reflection kind {self.kind!r}")
        return Element(tuple(perm), tuple(colors))

    def __str__(self) -> str:
        if self.kind == "transposition":
            return f"t({self.i},{self.j};{self.twist})"
        return f"d({self.i};{self.twist})"


def reflections(params: GroupParams) -> list[Reflection]:
    """All #R reflections: every twisted transposition, every diagonal step."""
    out: list[Reflection] = []
    for i in range(1, params.n + 1):
        for j in range(i + 1, params.n + 1):
            for k in range(params.m):
                out.append(Reflection("transposition", i, j, k))
    steps = params.m // params.p
    if steps > 1:
        for i in range(1, params.n + 1):
            for k in range(1, steps):
                out.append(Reflection("diagonal", i, None, k))
    if len(out) != params.num_reflections:
        raise AssertionError(
            f"listed {len(out)} reflections of {params}, expected {params.num_reflections}"
        )
    return out


def is_full_set(refls: list[Reflection], params: GroupParams) -> bool:
    """Does the set generate all of G(m,p,n)?

    True iff (i) the reflection weights generate p*Z/m*Z, i.e. their gcd with
    m is exactly p, and (ii) the projected transposition part generates
    G(p,p,n), decided by the connectivity-plus-twist-defect criterion:
    build the multigraph of swapped index pairs, spread potentials over a
    spanning forest so tree edges have defect zero, and check the graph is
    connected with the non-tree defects generating Z/pZ.
    """
    m, p, n = params.m, params.p, params.n
    weights = []
    edges: list[tuple[int, int, int]] = []
    for t in refls:
        if t.kind == "transposition":
            weights.append(0)
            edges.append((t.i, t.j, t.twist % p))
        else:
            weights.append((p * t.twist) % m)
    if gcd_all(weights, m) != p:
        return False
    if n == 1:
        return True

    # Spanning forest by BFS from vertex 1; potentials chosen so that a tree
    # edge (i, j, k) satisfies pot[i] - pot[j] = k (mod p).
    adjacency: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(1, n + 1)}
    for idx, (i, j, k) in enumerate(edges):
        adjacency[i].append((j, k, idx))
        adjacency[j].append((i, -k, idx))
    pot = {1: 0}
    tree_edges: set[int] = set()
    frontier = [1]
    while frontier:
        v = frontier.pop()
        for w, signed_twist, idx in adjacency[v]:
            if w not in pot:
                # Edge recorded as (i, j, k) means pot[i] - pot[j] = k; from
                # the visited side v the unvisited endpoint's potential is
                # pot[v] -/+ k according to orientation, folded into the sign.
                pot[w] = (pot[v] - signed_twist) % p
                tree_edges.add(idx)
                frontier.append(w)
    if len(pot) != n:
        return False
    defect_gcd = p
    for idx, (i, j, k) in enumerate(edges):
        if idx in tree_edges:
            continue
        defect = (k - (pot[i] - pot[j])) % p
        defect_gcd = gcd(defect_gcd, defect)
    return defect_gcd == 1


def all_elements(params: GroupParams):
    """Yield every element of G(m,p,n) (use only for small groups)."""
    n, m, p = params.n, params.m, params.p
    for perm in permutations(range(1, n + 1)):
        for colors in product(range(m), repeat=n):
            if sum(colors) % p == 0:
                yield Element(perm, colors)


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------


def _canonical_from_cycles(pairs: list[tuple[int, int]], params: GroupParams) -> Element:
    """Canonical element with the given (length, color) cycles.

    Cycles get consecutive supports in the order given; each cycle maps its
    support cyclically upward and carries its whole color on its last
    position.
    """
    n, m = params.n, params.m
    total = sum(length for length, _ in pairs)
    if total != n:
        raise ValueError(f"cycle lengths sum to {total}, expected n={n}")
    perm = [0] * n
    colors = [0] * n
    start = 1
    for length, color in pairs:
        if length < 1:
            raise ValueError(f"cycle length must be positive: {length}")
        for offset in range(length - 1):
            perm[start - 1 + offset] = start + offset + 1
        perm[start - 1 + length - 1] = start
        colors[start - 1 + length - 1] = color % m
        start += length
    return Element(tuple(perm), tuple(colors))


# The grammar of outside text.  Whitespace (whatever str.isspace accepts)
# may open a value and follow any token, and only there, so each text has one
# match and a failing one is rejected in linear time.  The patterns are
# compiled on first use, by the re module's cache, so importing wfact does
# not pay for them.
_INTEGER = r"[+-]?[0-9]+"
_INT = _INTEGER + r"\s*"  # an integer and the whitespace after it


def _bracketed(body: str) -> str:
    return rf"(?:\(\s*{body}\)|\[\s*{body}\])\s*"


def _sequence(entry: str) -> str:
    """Entries in (...) or [...], each followed by a comma or the closing bracket."""
    return r"\s*" + _bracketed(rf"(?:{entry}(?:,\s*|(?=[)\]])))*")


_INT_SEQUENCE = _sequence(_INT)
_PAIR_SEQUENCE = _sequence(_bracketed(rf"{_INT},\s*{_INT}(?:,\s*)?"))


def read_integer(text: str) -> int:
    """Sign and ASCII digits, whitespace around; else ValueError (int alone takes '٣', '1_0')."""
    if re.fullmatch(rf"\s*{_INTEGER}\s*", text) is None:
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def _read_integers(text: str, sequence: str, error: str) -> list[int]:
    """Every integer of text, in order, if text is one `sequence`; else ValueError(error)."""
    if re.fullmatch(sequence, text) is None:
        raise ValueError(error)
    return [int(token) for token in re.findall(_INTEGER, text)]


def read_integers(text: str) -> list[int]:
    """Comma-separated integers, each as ``read_integer`` reads it, e.g. '1, -2,3'."""
    error = f"expected comma-separated integers, got {text!r}"
    return _read_integers(text, rf"\s*{_INT}(?:,\s*{_INT})*", error)


def read_fields(text: str) -> dict[str, str]:
    """The `;`-separated `key=value` fields of text, stripped; empty fields are skipped.

    A repeated key or a field without `=` raises ValueError.
    """
    fields: dict[str, str] = {}
    for chunk in text.split(";"):
        key, eq, value = chunk.partition("=")
        if eq:
            key = key.strip()
            if key in fields:
                raise ValueError(f"repeated key {key!r}")
            fields[key] = value.strip()
        elif chunk.strip():
            raise ValueError(f"expected key=value, got {chunk.strip()!r}")
    return fields


def parse_element(text: str, params: GroupParams) -> Element:
    """Parse `perm=[..];colors=[..]` or `cycles=[(len,color),...]`.

    Fields are read by ``read_fields``.  A value is a `(...)` or `[...]`
    sequence; perm and colors take integers, cycles takes (length, color)
    pairs, each itself in `(...)` or `[...]`.  An integer is an optional
    sign plus decimal digits.  Whitespace may surround every token, and a
    sequence may end in one trailing comma, so `(1)` and `(1,)` both hold one
    entry.  Anything else raises ValueError.

    The cycle form builds the canonical representative (consecutive supports,
    color on each cycle's last position).  The result is validated for
    membership in G(m,p,n).
    """
    fields = read_fields(text)

    def entries(key: str, sequence: str, what: str) -> list[int]:
        error = f"cannot parse element fragment {key + '=' + fields[key]!r}: expected {what}"
        return _read_integers(fields[key], sequence, error)

    if "cycles" in fields:
        if set(fields) != {"cycles"}:
            raise ValueError("cycle form takes no other fields")
        flat = entries("cycles", _PAIR_SEQUENCE, "a sequence of (length, color) pairs")
        g = _canonical_from_cycles(list(zip(flat[::2], flat[1::2])), params)
    elif {"perm", "colors"} <= set(fields):
        if set(fields) != {"perm", "colors"}:
            raise ValueError("explicit form takes exactly perm and colors")
        perm = entries("perm", _INT_SEQUENCE, "a sequence of integers")
        colors = entries("colors", _INT_SEQUENCE, "a sequence of integers")
        g = Element(tuple(perm), tuple(c % params.m for c in colors))
    else:
        raise ValueError(
            "element must be given as perm=[..];colors=[..] or cycles=[(len,color),..]"
        )
    validate_element(g, params)
    return g


def element_to_json(g: Element, params: GroupParams) -> dict:
    return {
        "m": params.m,
        "p": params.p,
        "n": params.n,
        "perm": list(g.perm),
        "colors": list(g.colors),
    }
